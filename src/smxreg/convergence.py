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

For every C > 2 the extremes come from one deterministic Lanczos run that
finds both ends of the spectrum at once (Parlett, The Symmetric Eigenvalue
Problem, ch. 13): k Hessian products and k (C-1) D floats of basis storage,
with k between about 230 and 420 at C=10, D=256, N=8000.  The dense
Z-restricted Hessian, :func:`dense_hessian_on_z`, is only its oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import ConvexityCertificate, certify
from .core import (
    Dataset,
    InvalidInputError,
    RankDeficientError,
    UnsupportedShapeError,
    activations,
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
    """alpha_n = 2 y_1^(n) y_2^(n) and M = X diag(alpha) X^T for C = 2."""

    alpha: np.ndarray
    m: np.ndarray


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
    evals = np.linalg.eigvalsh(r.m)
    k_exact = float(evals[-1] / evals[0])
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


# Lanczos on H_Z: the seed of the start (and any restart) vector, the stop
# tolerance on both extreme Ritz residuals relative to lambda_max, and the
# number of steps between two solves of the tridiagonal matrix.
LANCZOS_SEED = 0
LANCZOS_TOL = 1e-8
LANCZOS_CHECK = 10
# A new Lanczos vector shorter than this, relative to the largest product
# seen, means the Krylov space is invariant (breakdown).
LANCZOS_BREAKDOWN = 1e-12


def _lanczos_extremes(h: HessianOperator) -> tuple[float, float]:
    """Both extreme eigenvalues of H_Z from one Lanczos run.

    Works in the coordinates of :func:`zero_sum_basis`.  Each new vector is
    reorthogonalized against the whole basis by two classical Gram-Schmidt
    passes, so the extreme Ritz values of the tridiagonal T_k carry no
    spurious copies.  T_k is solved every ``LANCZOS_CHECK`` steps; the run
    stops once both extreme Ritz residuals beta_k |s_k| are at most
    ``LANCZOS_TOL`` * theta_max, or when the basis spans all (C-1) D
    coordinates.  On breakdown it restarts from a fresh seeded vector
    orthogonal to the basis.
    """
    b = zero_sum_basis(h.c)
    shape = (h.c - 1, h.d)
    m = shape[0] * shape[1]
    rng = np.random.default_rng(LANCZOS_SEED)
    basis = np.empty((0, m))
    alpha: list[float] = []
    beta: list[float] = []
    anorm = 0.0

    def start_vector(v: np.ndarray) -> np.ndarray:
        q = rng.standard_normal(m)
        for _ in range(2):
            q -= v.T @ (v @ q)
        return q / np.linalg.norm(q)

    q = start_vector(basis)
    k = 0
    while True:
        k += 1
        if k > basis.shape[0]:
            grow = np.empty((min(LANCZOS_CHECK, m - basis.shape[0]), m))
            basis = np.concatenate([basis, grow])
        basis[k - 1] = q
        v = basis[:k]
        w = (b.T @ h.apply(b @ q.reshape(shape))).ravel()
        anorm = max(anorm, float(np.linalg.norm(w)))
        # Two classical Gram-Schmidt passes; the coefficient on q is alpha_k.
        alpha_k = 0.0
        for _ in range(2):
            coef = v @ w
            w -= v.T @ coef
            alpha_k += float(coef[-1])
        alpha.append(alpha_k)
        beta_k = float(np.linalg.norm(w))
        if k % LANCZOS_CHECK == 0 or k == m:
            t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
            theta, s = np.linalg.eigh(t)
            residual = beta_k * np.abs(s[-1, [0, -1]])
            if k == m or np.all(residual <= LANCZOS_TOL * theta[-1]):
                return float(theta[0]), float(theta[-1])
        if beta_k <= LANCZOS_BREAKDOWN * anorm:
            beta.append(0.0)
            q = start_vector(v)
        else:
            beta.append(beta_k)
            q = w / beta_k


def extreme_eigenvalues_on_z(h: HessianOperator) -> tuple[float, float]:
    """Extreme eigenvalues (lambda_min, lambda_max) of H restricted to Z.

    For C = 2 these are the extreme eigenvalues of M.  For every C > 2 both
    extremes come from one Lanczos run with full reorthogonalization,
    started from a fixed-seed vector, so repeated calls give identical
    values.  The run stops when both extreme Ritz residuals are at most
    ``LANCZOS_TOL`` (1e-8) * lambda_max.  It costs k Hessian products
    (through ``h.apply``) and stores k vectors of (C-1) D floats; k is
    between about 230 and 420 at C=10, D=256, N=8000, and at most (C-1) D;
    no dense matrix is formed.  Requires rank(X) = D; the rank test runs
    once per dataset, not once per anchor (``Dataset.rank_factors``).
    """
    _check_full_rank(h.data)
    if h.c == 2:
        evals = np.linalg.eigvalsh(_two_class(h.data.x, h.y).m)
        return float(evals[0]), float(evals[-1])
    return _lanczos_extremes(h)
