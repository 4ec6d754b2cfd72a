"""Gradient-descent rate machinery on the zero-column-sum subspace Z.

:func:`plan` turns the extreme Hessian eigenvalues on Z into the optimal
contraction factor and the window of fixed rates.  The extremes come from
:func:`extreme_eigenvalues_on_z`: exact from :func:`curvature_bracket` at
C = 2, from one LOBPCG run (:func:`_lobpcg_extremes`) at C > 2.  The dense
Z-restricted Hessian, :func:`dense_hessian_on_z`, is their oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import certify
from .core import (
    Dataset,
    InvalidInputError,
    RankDeficientError,
    SizeLimitError,
    UnsupportedShapeError,
    column_blocks,
    rank_test,
)
from .hessian import HessianOperator
from .spectrum import DENSE_C_LIMIT


@dataclass(frozen=True)
class ConvergencePlan:
    """Rate plan for fixed-eta descent given Hessian extremes on Z; see
    :func:`plan`."""

    lambda_min: float
    lambda_max: float
    k: float
    theta: float
    eta_window: tuple[float, float]
    eta_optimal: float


@dataclass(frozen=True)
class CurvatureBracket:
    """The curvature bracket of H at one anchor: per-sample weights, their
    Grams, the bracket's ends and two upper bounds on K; see
    :func:`curvature_bracket`."""

    mu_low: np.ndarray
    mu_high: np.ndarray
    gram_low: np.ndarray
    gram_high: np.ndarray
    low: float
    high: float
    k_bracket: float
    k_bound: float


def eta_window(lambda_min: float, lambda_max: float, theta: float) -> tuple[float, float]:
    """Learning rates with |1 - eta*lam| <= theta for all lam in the range;
    see :func:`plan`."""
    return (1.0 - theta) / lambda_min, (1.0 + theta) / lambda_max


def plan(lambda_min: float, lambda_max: float) -> ConvergencePlan:
    """Optimal-rate plan from the extreme Hessian eigenvalues on Z.

    Fixed-rate descent W <- W - eta * grad is a fixed-point iteration whose
    derivative is I - eta H.  With the spectrum of H on Z inside
    [lambda_min, lambda_max] it contracts at factor theta exactly when
    |1 - eta*lam| <= theta across that interval, which pins eta to the
    window [(1-theta)/lambda_min, (1+theta)/lambda_max] (:func:`eta_window`).
    The window is nonempty iff theta >= (K-1)/(K+1), K = lambda_max /
    lambda_min, so the plan's ``theta`` is (K-1)/(K+1), where the window
    collapses to ``eta_optimal`` = 2/(lambda_min + lambda_max).
    """
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


def determinant_check(br: CurvatureBracket, data: Dataset) -> tuple[float, float]:
    """Evaluate both sides of det(M) = 2^N prod(y1 y2) det(X)^2 for the
    two-class bracket ``br`` of ``data`` (square X), M its one Gram.

    The left side goes through a standard LU factorization of M, the right
    through det(X) and the per-sample products, so agreement is a genuine
    cross-check.  The caller asserts the desired relative tolerance.
    """
    if data.c != 2 or data.n != data.d:
        raise UnsupportedShapeError("determinant identity needs C = 2 and square X, "
                                    f"got C={data.c}, D={data.d}, N={data.n}")
    lhs = float(np.linalg.det(br.gram_low))
    det_x = float(np.linalg.det(data.x))
    rhs = float(2.0 ** data.n * np.prod(br.mu_low / 2.0) * det_x ** 2)
    return lhs, rhs


def zero_sum_basis(c: int) -> np.ndarray:
    """Columns: an orthonormal basis of the hyperplane {z : sum z = 0} in R^c.

    Helmert construction; for c = 2 the single column is (1, -1)/sqrt(2).
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


def _q_extremes_on_z(y: np.ndarray) -> np.ndarray:
    """Rows mu_2 and mu_C of every column of ``y``: the extreme eigenvalues of
    B^T Q^(n) B, B = :func:`zero_sum_basis`, from ``eigvalsh`` of their
    stack, one :func:`~smxreg.core.column_plan` block of samples at a time
    (:func:`~smxreg.core.column_blocks`), so no stack exceeds a block's
    bytes.  Q is PSD, so rounding below 0 is raised to 0."""
    c, n = y.shape
    if c > DENSE_C_LIMIT:
        raise SizeLimitError(f"curvature bracket limited to C <= {DENSE_C_LIMIT}, got {c}")
    b = zero_sum_basis(c)
    mu = np.empty((2, n))

    def block(cols: slice) -> None:
        # B^T Q B = B^T diag(y) B - (B^T y)(B^T y)^T, for a stack of columns y.
        yt = y[:, cols].T
        by = yt @ b
        stack = (b.T * yt[:, None, :]) @ b - by[:, :, None] * by[:, None, :]
        mu[:, cols] = np.linalg.eigvalsh(stack)[:, [0, -1]].T

    column_blocks(block, n, n * (c - 1) ** 2 * mu.itemsize)
    return np.maximum(mu, 0.0)


def curvature_bracket(h: HessianOperator) -> CurvatureBracket:
    """The :class:`CurvatureBracket` of H at its anchor, for every C up to
    ``DENSE_C_LIMIT`` (beyond it :class:`SizeLimitError`).

    Each Q^(n) restricted to the zero-sum hyperplane has extreme eigenvalues
    mu_2^n <= mu_C^n (``mu_low``, ``mu_high``), so with P the projector
    onto it

        P kron X diag(mu_2) X^T  <=  H  <=  P kron X diag(mu_C) X^T  on Z,

    the C-class form of Boehning's curvature bound (Boehning 1992, Ann. Inst.
    Stat. Math. 44).  ``gram_low`` and ``gram_high`` are the two weighted
    Grams, ``low`` the smallest eigenvalue of the first and ``high`` the
    largest of the second, so low <= lambda_min(H_Z) and lambda_max(H_Z) <=
    high.  ``k_bracket`` = high / low and ``k_bound`` = K(X)^2 max mu_C /
    min mu_2 both bound K = lambda_max / lambda_min from above.

    For C = 2, mu_2 = mu_C = alpha = 2 y_1 y_2, both sides are the one Gram
    M = X diag(alpha) X^T, and H on Z is unitarily equivalent to M
    (U = xi u^T, xi = (1,-1)/sqrt(2)): ``low`` and ``high`` are the exact
    extremes and ``k_bracket`` is K.  For C > 2 the weights come from
    :func:`_q_extremes_on_z`, and the bracket can be loose.  Each Gram costs
    O(N D^2) and one ``eigvalsh``.  On a rank-deficient X, H_Z is singular:
    ``low`` is 0 to rounding and both K bounds are infinite, as they are
    wherever ``low`` is not positive, e.g. where every weight underflows
    to 0.
    """
    cert = certify(h.data)
    x, y = h.data.x, h.y
    mus = (2.0 * y[0] * y[1],) if h.c == 2 else _q_extremes_on_z(y)
    grams = [(x * mu) @ x.T for mu in mus]
    evals = [np.linalg.eigvalsh(g) for g in grams]
    low, high = float(evals[0][0]), float(evals[-1][-1])
    k_bracket = k_bound = np.inf
    if cert.full_rank and low > 0.0:
        k_bracket = high / low
        with np.errstate(divide="ignore"):
            k_bound = float((cert.sv_max / cert.sv_min) ** 2 * np.max(mus[-1]) / np.min(mus[0]))
    return CurvatureBracket(mus[0], mus[-1], grams[0], grams[-1], low, high, k_bracket, k_bound)


# The constants of :func:`_lobpcg_extremes`: the seed and the relative
# length of the random part of the start block, the stop tolerance, the
# budget of Hessian directions in units of m = (C-1) D, and the share of a
# new direction's length outside its basis below which it is dropped.
# Runs that converge stay inside a budget of 2m: curvature anchors (C=10,
# D=256, N=8000) take 91-361 of 4608 directions, the slowest tier-1 run,
# peaked_operator(12, 20), 1.97 m.  A run still going there is small and
# sharply peaked, where the m products of the exact finish cost less.
LOBPCG_SEED = 0
LOBPCG_START_NOISE = 0.1
LOBPCG_TOL = 1e-8
LOBPCG_BUDGET = 2
LOBPCG_DROP = 1e-10


def _orthonormal_rows(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the part of the row space of ``w`` that is
    orthogonal to the orthonormal rows of ``q``.

    After one projection, the singular values sigma and left singular
    vectors V of ``w`` from :func:`~smxreg.core.rank_test` give the rows
    (V^T w) / sigma of every sigma above ``LOBPCG_DROP``.  Those rows are
    orthonormal, so a second projection barely moves them, and ``eigh`` of
    their Gram matrix, close to the identity, makes them orthonormal again;
    the two rounds leave them orthogonal to ``q`` to rounding level
    (Hetmaniuk & Lehoucq, J. Comput. Phys. 218, 2006).
    """
    w = w - (w @ q.T) @ q
    sv, vt = rank_test(w)
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
    """Both extreme eigenvalues of H_Z from one deterministic LOBPCG run
    (Knyazev 2001, SIAM J. Sci. Comput. 23(2)).

    Works in the coordinates of :func:`zero_sum_basis`, with vectors as rows
    of length m = (C-1) D.  The start block is the three extreme
    eigenvectors of the Kronecker model Qbar kron X X^T (the factor of
    K-FAC, Martens & Grosse 2015; Qbar the sample mean of Q^(n)) plus
    ``LOBPCG_START_NOISE`` times a block of seed ``LOBPCG_SEED``.  The block
    X holds the two lowest Ritz vectors and the top one.  The new directions
    W are the residuals of the pairs that are returned: the lowest's
    preconditioned by Z -> Z (X X^T)^-1, one product with the D x D matrix
    :func:`_xxt_inverse` formed once per call from the cached
    ``Dataset.rank_factors``, the top's raw; the second-lowest stays in X as
    a guard with no direction, and a vector whose residual is within the
    tolerance gets none (soft locking).  The basis [X, W, P] stays
    orthonormal: W is projected off [X, P] (:func:`_orthonormal_rows`), and
    P, the move of each vector with a direction out of the old X, is made
    orthogonal to the new X in coefficient space.  After the start block
    every iteration applies H once, to a stack of at most two directions,
    and the run holds O(m) floats: about 37 vectors of m floats at the
    budget break (C=10, D=50, N=400), plus (X X^T)^-1.

    The run stops once both extreme residuals are at most ``LOBPCG_TOL`` *
    theta_max.  When the next W is empty or would take the directions
    applied past ``LOBPCG_BUDGET`` * m, it finishes exactly on H_Z,
    assembled from ``apply`` on the m coordinate directions in stacks whose
    V = U X is no larger than X: the extremes of ``eigvalsh`` on its
    symmetric part, the one m x m array.  So every call ends within 3m
    directions.
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
    # The exact finish.  Each block of rows is folded into the symmetric part
    # of H_Z on the lower triangle, which eigvalsh reads.
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

    For C = 2 these are the exact ends of :func:`curvature_bracket`; for
    C > 2 they come from the deterministic LOBPCG run of
    :func:`_lobpcg_extremes`, so repeated calls give identical values.
    Requires rank(X) = D (else :class:`RankDeficientError`); the rank test
    runs once per dataset, not once per anchor.
    """
    cert = certify(h.data)
    if not cert.full_rank:
        raise RankDeficientError(
            f"X is not full row rank: sv_min={cert.sv_min:.3e}, sv_max={cert.sv_max:.3e}",
            cert.sv_min, cert.sv_max)
    if h.c == 2:
        br = curvature_bracket(h)
        return br.low, br.high
    return _lobpcg_extremes(h)
