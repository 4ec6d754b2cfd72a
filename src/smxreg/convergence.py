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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Dataset,
    InvalidInputError,
    RANK_RTOL,
    RankDeficientError,
    SizeLimitError,
    UnsupportedShapeError,
    as_matrix,
    rank_test,
)
from .hessian import DENSE_LIMIT, HessianOperator, q_matrix
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


def reduce_two_class(w, data: Dataset) -> TwoClassReduction:
    """Reduce the two-class Hessian on Z to M = X diag(alpha) X^T.

    The isometry u -> xi u^T intertwines multiplication by M with H on Z, so
    M carries the full spectral information.
    """
    if data.c != 2:
        raise UnsupportedShapeError(f"two-class reduction needs C = 2, got C = {data.c}")
    w = as_matrix(w, "w")
    if w.shape != (2, data.d):
        raise UnsupportedShapeError(f"weights have shape {w.shape}, expected {(2, data.d)}")
    y = softmax(w @ data.x)
    alpha = 2.0 * y[0] * y[1]
    m = (data.x * alpha) @ data.x.T
    return TwoClassReduction(alpha=alpha, m=m)


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


def _check_full_rank(x: np.ndarray) -> np.ndarray:
    """The D singular values of X; raises unless X has full row rank."""
    sv, _ = rank_test(x)
    sv_min = float(sv[-1])
    sv_max = float(sv[0])
    if sv_min <= RANK_RTOL * sv_max:
        raise RankDeficientError(
            f"X is not full row rank: sv_min={sv_min:.3e}, sv_max={sv_max:.3e}",
            sv_min,
            sv_max,
        )
    return sv


def condition_bound(r: TwoClassReduction, data: Dataset) -> tuple[float, float]:
    """Exact condition number of M and its bound K(X)^2 * max(alpha)/min(alpha).

    The bound follows from submultiplicativity of the condition number over
    the factorization M = X diag(alpha) X^T; it always dominates the exact
    value.
    """
    sv = _check_full_rank(data.x)
    evals = np.linalg.eigvalsh(r.m)
    k_exact = float(evals[-1] / evals[0])
    kx = float(sv[0] / sv[-1])
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
    flattened column-major.  Guarded by the same limit as the full dense
    Hessian.
    """
    if h.c * h.d > DENSE_LIMIT:
        raise SizeLimitError(
            f"dense Z-restricted Hessian requires C*D <= {DENSE_LIMIT}"
        )
    b = zero_sum_basis(h.c)
    m = (h.c - 1) * h.d
    out = np.zeros((m, m))
    for n in range(h.n):
        x = h.data.x[:, n]
        out += np.kron(np.outer(x, x), b.T @ q_matrix(h.y[:, n]) @ b)
    return out


def _iterative_extremes(h: HessianOperator, tol: float) -> tuple[float, float]:
    from scipy.sparse.linalg import LinearOperator, eigsh

    b = zero_sum_basis(h.c)
    m = (h.c - 1) * h.d

    def matvec(z):
        u = b @ np.reshape(z, (h.c - 1, h.d), order="F")
        return np.reshape(b.T @ h.apply(u), -1, order="F")

    op = LinearOperator((m, m), matvec=matvec, dtype=float)
    lam_max = float(eigsh(op, k=1, which="LA", tol=tol,
                          return_eigenvectors=False)[0])
    # Smallest eigenvalue via the shifted PSD operator sigma*I - H_Z, whose
    # top eigenvalue eigsh finds reliably.
    sigma = lam_max * (1.0 + 1e-6)
    shifted = LinearOperator((m, m), matvec=lambda z: sigma * z - matvec(z),
                             dtype=float)
    top = float(eigsh(shifted, k=1, which="LA", tol=tol,
                      return_eigenvectors=False)[0])
    return sigma - top, lam_max


def extreme_eigenvalues_on_z(
    h: HessianOperator, use_dense: bool | None = None, tol: float = 1e-8
) -> tuple[float, float]:
    """Extreme eigenvalues of H restricted to Z.

    For C = 2 these are the extreme eigenvalues of M.  Otherwise the dense
    Z-projected matrix is eigendecomposed when C*D fits the size guard, or
    the extremes are estimated iteratively (Lanczos) at relative tolerance
    ``tol``.  ``use_dense`` forces one path.  Requires rank(X) = D.
    """
    _check_full_rank(h.data.x)
    if h.c == 2:
        alpha = 2.0 * h.y[0] * h.y[1]
        evals = np.linalg.eigvalsh((h.data.x * alpha) @ h.data.x.T)
        return float(evals[0]), float(evals[-1])
    if use_dense is None:
        use_dense = h.c * h.d <= DENSE_LIMIT
    if not use_dense and (h.c - 1) * h.d >= 4:
        return _iterative_extremes(h, tol)
    evals = np.linalg.eigvalsh(dense_hessian_on_z(h))
    return float(evals[0]), float(evals[-1])
