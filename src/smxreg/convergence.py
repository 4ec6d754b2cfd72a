"""Gradient-descent rate machinery on the zero-column-sum subspace Z.

Fixed-rate descent W <- W - eta * grad is a fixed-point iteration whose
derivative is I - eta H.  With the Hessian spectrum on Z inside
[lambda_min, lambda_max], the iteration contracts at factor theta exactly
when |1 - eta*lam| <= theta across that interval, which pins eta to the
window [(1-theta)/lambda_min, (1+theta)/lambda_max].  The window is nonempty
iff theta >= (K-1)/(K+1) with K = lambda_max/lambda_min, making
theta* = (K-1)/(K+1) at eta* = 2/(lambda_min+lambda_max) the best achievable
rate.

For two classes, Z is one-dimensional per feature: U = xi u^T with
xi = (1,-1)/sqrt(2), and H restricted to Z is unitarily equivalent to the
D x D matrix  M = X diag(alpha) X^T,  alpha_n = 2 y_1^(n) y_2^(n), which
makes eigenvalues, determinants and condition numbers directly computable.

For every C > 2 the extremes come from one deterministic LOBPCG run
(Knyazev 2001, SIAM J. Sci. Comput. 23(2)) that finds both ends of the
spectrum at once.  It starts from the extreme eigenvectors of the Kronecker
model Qbar kron X X^T (the factor of K-FAC, Martens & Grosse 2015), Qbar the
sample mean of Q^(n), plus a small seeded random block.  Its block holds
three vectors: the lowest Ritz vector, whose residual is preconditioned by
Z -> Z (X X^T)^-1, the top one, whose residual is used raw, and the
second-lowest as a guard that gets no direction of its own.  After the start
block every iteration applies H once, to a stack of at most two directions,
and the run holds O(m) floats, m = (C-1) D: about 37 vectors of m floats at
the budget break (C=10, D=50, N=400), plus the D x D (X X^T)^-1.  At C=10,
D=256, N=8000 it takes 91-361 directions.  A run about to pass 2m
directions ends on the exact m x m matrix H_Z, assembled by applying H to
the m coordinate directions of Z, so every call ends within 3m directions.
The dense Z-restricted Hessian, :func:`dense_hessian_on_z`, assembled
independently of ``apply``, is the oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .certify import ConvexityCertificate, certify
from .core import (
    Dataset,
    InvalidInputError,
    RankDeficientError,
    UnsupportedShapeError,
    activations,
    freeze,
)
from .hessian import HessianOperator
from .softmax import softmax

# Unit spanning vector of the zero-sum line in R^2.
XI = np.array([1.0, -1.0]) / np.sqrt(2.0)


@dataclass(frozen=True)
class ConvergencePlan:
    """Rate plan for fixed-eta descent given Hessian extremes on Z.

    ``theta`` is the optimal contraction factor (K-1)/(K+1); at that theta
    the admissible window collapses to the single point ``eta_optimal``.
    """

    lambda_min: float
    lambda_max: float
    k: float
    theta: float
    eta_window: tuple[float, float]
    eta_optimal: float


@dataclass(frozen=True)
class TwoClassReduction:
    """alpha_n = 2 y_1^(n) y_2^(n) and M = X diag(alpha) X^T for C = 2;
    :attr:`evals` solves M once, on first use, for all its readers."""

    alpha: np.ndarray
    m: np.ndarray

    @cached_property
    def evals(self) -> np.ndarray:
        """Eigenvalues of M in ascending order, read-only."""
        return freeze(np.linalg.eigvalsh(self.m))


def eta_window(lambda_min: float, lambda_max: float, theta: float) -> tuple[float, float]:
    """Learning rates with |1 - eta*lam| <= theta for all lam in the range."""
    return (1.0 - theta) / lambda_min, (1.0 + theta) / lambda_max


def plan(lambda_min: float, lambda_max: float) -> ConvergencePlan:
    """Optimal-rate plan from the extreme Hessian eigenvalues on Z."""
    if not lambda_min > 0.0:
        raise InvalidInputError(
            "lambda_min must be positive (operator not strictly convex on Z)"
        )
    if lambda_max < lambda_min:
        raise InvalidInputError("lambda_max must be >= lambda_min")
    k = lambda_max / lambda_min
    theta = (k - 1.0) / (k + 1.0)
    return ConvergencePlan(
        lambda_min=float(lambda_min),
        lambda_max=float(lambda_max),
        k=float(k),
        theta=float(theta),
        eta_window=eta_window(lambda_min, lambda_max, theta),
        eta_optimal=2.0 / (lambda_min + lambda_max),
    )


def _two_class(x: np.ndarray, y: np.ndarray) -> TwoClassReduction:
    """The reduction from X and the 2 x N softmax outputs Y at the anchor."""
    alpha = 2.0 * y[0] * y[1]
    return TwoClassReduction(alpha=alpha, m=(x * alpha) @ x.T)


def reduce_two_class(w, data: Dataset) -> TwoClassReduction:
    """Reduce the two-class Hessian on Z to M = X diag(alpha) X^T.

    The isometry u -> xi u^T intertwines multiplication by M with H on Z, so
    M carries the full spectral information.
    """
    if data.c != 2:
        raise UnsupportedShapeError(f"two-class reduction needs C = 2, got C = {data.c}")
    return _two_class(data.x, softmax(activations(w, data)))


def determinant_check(r: TwoClassReduction, data: Dataset) -> tuple[float, float]:
    """Evaluate both sides of det(M) = 2^N prod(y1 y2) det(X)^2 (square X).

    The left side goes through a standard LU factorization of M, the right
    through det(X) and the per-sample products, so agreement is a genuine
    cross-check.  The caller asserts the desired relative tolerance.
    """
    if data.n != data.d:
        raise UnsupportedShapeError(
            f"determinant identity needs square X, got D={data.d}, N={data.n}"
        )
    lhs = float(np.linalg.det(r.m))
    det_x = float(np.linalg.det(data.x))
    rhs = float(2.0 ** data.n * np.prod(r.alpha / 2.0) * det_x ** 2)
    return lhs, rhs


def _check_full_rank(data: Dataset) -> ConvexityCertificate:
    """The certificate of ``data``; raises unless X has full row rank."""
    cert = certify(data)
    if not cert.full_rank:
        raise RankDeficientError(
            f"X is not full row rank: sv_min={cert.sv_min:.3e}, sv_max={cert.sv_max:.3e}",
            cert.sv_min,
            cert.sv_max,
        )
    return cert


def condition_bound(r: TwoClassReduction, data: Dataset) -> tuple[float, float]:
    """Exact condition number of M and its bound K(X)^2 * max(alpha)/min(alpha).

    The bound follows from submultiplicativity of the condition number over
    the factorization M = X diag(alpha) X^T; it always dominates the exact
    value.
    """
    cert = _check_full_rank(data)
    k_exact = float(r.evals[-1] / r.evals[0])
    kx = cert.sv_max / cert.sv_min
    k_bound = float(kx ** 2 * np.max(r.alpha) / np.min(r.alpha))
    return k_exact, k_bound


def zero_sum_basis(c: int) -> np.ndarray:
    """Columns: an orthonormal basis of the hyperplane {z : sum z = 0} in R^c.

    Helmert construction; for c = 2 the single column equals XI.
    """
    b = np.zeros((c, c - 1))
    for k in range(1, c):
        b[:k, k - 1] = 1.0
        b[k, k - 1] = -float(k)
        b[:, k - 1] /= np.sqrt(k * (k + 1.0))
    return b


def dense_hessian_on_z(h: HessianOperator) -> np.ndarray:
    """Matrix of H restricted to Z in the orthonormal basis b_i e_j^T.

    b_i are the columns of :func:`zero_sum_basis`; the (C-1)D coordinates are
    flattened column-major, so the matrix is P^T H P with P = I_D kron B and
    H from :meth:`HessianOperator.dense`, whose size guard applies.
    """
    p = np.kron(np.eye(h.d), zero_sum_basis(h.c))
    return p.T @ h.dense() @ p


# LOBPCG on H_Z: the seed of the random part of the start block and the
# expected length of its rows against the unit Kronecker vectors, the stop
# tolerance on both extreme Ritz residuals relative to lambda_max, and the
# budget of Hessian directions in units of m = (C-1) D, past which the run
# assembles H_Z exactly instead.  Runs that converge stay inside 2m:
# curvature anchors (C=10, D=256, N=8000) take 91-361 of 4608 directions,
# and the slowest tier-1 run, peaked_operator(12, 20), 433 = 1.97 m.  A run
# still going at 2m is a small, sharply peaked one, where LOBPCG can crawl
# for thousands of directions; the m products of the exact matrix cost
# less, so no run takes more than 3m directions.
LOBPCG_SEED = 0
LOBPCG_START_NOISE = 0.1
LOBPCG_TOL = 1e-8
LOBPCG_BUDGET = 2
# A new direction with less than this share of its length outside the
# basis it extends adds nothing and is dropped.
LOBPCG_DROP = 1e-10


def _orthonormal_rows(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the part of the row space of ``w`` that is
    orthogonal to the orthonormal rows of ``q``.

    One projection drops the directions whose singular value falls to
    ``LOBPCG_DROP`` or below; the singular values and vectors come from the
    small triangular factor R of w^T = Q R, so the rows kept are
    (V^T w) / sigma for the SVD R = U diag(sigma) V^T.  The rows left are
    orthonormal, so a second projection barely moves them, and ``eigh`` of
    their Gram matrix, which is close to the identity, makes them
    orthonormal again; the two rounds leave the rows orthogonal to ``q`` to
    rounding level (Hetmaniuk & Lehoucq, J. Comput. Phys. 218, 2006).
    """
    w = w - (w @ q.T) @ q
    _, sv, vt = np.linalg.svd(np.linalg.qr(w.T, mode="r"))
    keep = sv > LOBPCG_DROP
    w = (vt[keep] @ w) / sv[keep, None]
    w -= (w @ q.T) @ q
    gram, v = np.linalg.eigh(w @ w.T)
    return (v / np.sqrt(gram)).T @ w


def _xxt_inverse(s: np.ndarray, left: np.ndarray) -> np.ndarray:
    """(X X^T)^-1 = left^T diag(1/s^2) left as one D x D matrix, from the
    singular values and left singular vectors (rows) of
    ``Dataset.rank_factors``."""
    return left.T @ (left / (s * s)[:, None])


def _lobpcg_extremes(h: HessianOperator) -> tuple[float, float]:
    """Both extreme eigenvalues of H_Z from one LOBPCG run (Knyazev 2001).

    Works in the coordinates of :func:`zero_sum_basis`, with vectors as rows.
    The start block is the three extreme eigenvectors of the Kronecker model
    Qbar kron X X^T plus ``LOBPCG_START_NOISE`` times a seeded random block.
    The block X holds the two lowest Ritz vectors and the top one.  The new
    directions W are the residuals of the pairs that are returned: the
    lowest's preconditioned by Z -> Z (X X^T)^-1, one product with the D x D
    matrix :func:`_xxt_inverse` formed once per call from the cached
    ``Dataset.rank_factors``, the top's raw; the second-lowest stays in X as a
    guard with no direction, and a vector whose residual is within the
    tolerance gets none (soft locking).  The basis [X, W, P] stays
    orthonormal: W is projected off [X, P], and P, the move of each vector
    with a direction out of the old X, is made orthogonal to the new X in
    coefficient space.  Each iteration applies H once, to the stack W.  The
    run stops once both extreme residuals are at most ``LOBPCG_TOL`` *
    theta_max.  When the next W is empty or would take the directions
    applied past ``LOBPCG_BUDGET`` * m, it finishes exactly: H_Z assembled
    from ``apply`` on the m coordinate directions, and the extremes of
    ``eigvalsh`` on its symmetric part, so at most 3m directions in all.
    """
    b = zero_sum_basis(h.c)
    shape = (h.c - 1, h.d)
    m = shape[0] * shape[1]
    s, left = h.data.rank_factors
    xxt_inv = _xxt_inverse(s, left)

    def apply(v: np.ndarray) -> np.ndarray:
        return (b.T @ h.apply(b @ v.reshape(-1, *shape))).reshape(v.shape)

    def precondition(r: np.ndarray) -> np.ndarray:
        return (r.reshape(-1, h.d) @ xxt_inv).reshape(r.shape)

    # Qbar on Z has eigenpairs (mu_i, q_i), X X^T has (s_k^2, v_k); the start
    # takes q_i v_k^T for the two lowest and the top mu_i s_k^2, by a stable
    # sort so that ties pick the same pairs with every numpy.  The random
    # rows, of expected length LOBPCG_START_NOISE, leave no eigenvector
    # orthogonal to the start.
    nx = min(3, m)
    y = h.y
    mu, q = np.linalg.eigh(b.T @ (np.diag(y.mean(axis=1)) - (y @ y.T) / h.n) @ b)
    order = np.argsort(np.outer(mu, s**2), axis=None, kind="stable")
    i, k = np.unravel_index([*order[: nx - 1], order[-1]], shape)
    start = (q.T[i][:, :, None] * left[k][:, None, :]).reshape(nx, m)
    noise = np.random.default_rng(LOBPCG_SEED).standard_normal((nx, m)) / np.sqrt(m)
    basis = _orthonormal_rows(start + LOBPCG_START_NOISE * noise, np.empty((0, m)))
    products = apply(basis)
    applied = nx
    active = np.ones(nx, dtype=bool)
    while True:
        # Rayleigh-Ritz on the basis: keep the two lowest pairs and the top.
        gram = basis @ products.T
        theta, c = np.linalg.eigh(0.5 * (gram + gram.T))
        keep = [*range(nx - 1), theta.size - 1]
        theta, c = theta[keep], c[:, keep]
        # Coefficients of P: the active vectors' parts outside the old X
        # (its first nx rows), orthonormal and orthogonal to the new X.
        cp = c[:, active].T.copy()
        cp[:, :nx] = 0.0
        cp = _orthonormal_rows(cp, c.T)
        x, ax = c.T @ basis, c.T @ products
        p, ap = cp @ basis, cp @ products
        r = ax - theta[:, None] * x
        res = np.linalg.norm(r, axis=1)
        tol = LOBPCG_TOL * theta[-1]
        if res[0] <= tol and res[-1] <= tol:
            return float(theta[0]), float(theta[-1])
        # Only the returned pairs get directions: the lowest a preconditioned
        # residual, the top a raw one; the guard between them gets none.
        active = res > tol
        active[1:-1] = False
        w = np.concatenate([precondition(r[:1]), r[1:]])[active]
        w = _orthonormal_rows(w / np.linalg.norm(w, axis=1, keepdims=True),
                              np.concatenate([x, p]))
        # Every pass applies a direction or finishes, so the loop ends.
        applied += len(w)
        if not len(w) or applied > LOBPCG_BUDGET * m:
            break
        basis = np.concatenate([x, w, p])
        products = np.concatenate([ax, apply(w), ap])
    # The exact finish: H_Z from the m coordinate directions, in stacks whose
    # V = U X is no larger than X.  Each block of rows is folded into the
    # symmetric part of H_Z on the lower triangle, which eigvalsh reads, so
    # H_Z is the only m x m array.
    stack = max(1, h.d // h.c)
    hz = np.empty((m, m))
    for i in range(0, m, stack):
        j = min(i + stack, m)
        hz[i:j] = apply(np.eye(j - i, m, i))
        hz[i:j, :j] = 0.5 * (hz[i:j, :j] + hz[:j, i:j].T)
    evals = np.linalg.eigvalsh(hz)
    return float(evals[0]), float(evals[-1])


def extreme_eigenvalues_on_z(h: HessianOperator) -> tuple[float, float]:
    """Extreme eigenvalues (lambda_min, lambda_max) of H restricted to Z.

    For C = 2 these are the extreme eigenvalues of M.  For every C > 2 both
    extremes come from one LOBPCG run in the coordinates of
    :func:`zero_sum_basis`, set out in the module docstring and started from
    a fixed-seed block, so repeated calls give identical values.  It stops
    when both extreme Ritz residuals are at most ``LOBPCG_TOL`` (1e-8) *
    lambda_max; each of its ``h.apply`` calls takes a stack of at most three
    directions, and it holds O(m) floats, m = (C-1) D: about 37 vectors of m
    floats at the budget break (C=10, D=50, N=400), plus the D x D
    (X X^T)^-1.  At C=10, D=256, N=8000 it takes 91-361 directions.  A run
    that would pass ``LOBPCG_BUDGET`` * m directions ends exactly instead,
    on the m x m matrix H_Z assembled from ``h.apply`` on the m coordinate
    directions of Z, in stacks whose V = U X is no larger than X.  So every
    call ends, after at most 3m directions and with at most one m x m
    matrix.  Requires rank(X) = D; the rank test runs once per dataset, not
    once per anchor.
    """
    _check_full_rank(h.data)
    if h.c == 2:
        evals = _two_class(h.data.x, h.y).evals
        return float(evals[0]), float(evals[-1])
    return _lobpcg_extremes(h)
