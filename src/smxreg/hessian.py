"""The loss's second derivative as a matrix-free operator on weight space.

At anchor weights W with per-sample softmax outputs y^(n), the operator is

    H(U) = sum_n Q^(n) U x^(n) x^(n)^T,   Q^(n) = diag(y^(n)) - y^(n) y^(n)^T,

symmetric and positive semidefinite under the Frobenius inner product.  Its
kernel is exactly  {U : U X = 1 c^T for some c},  i.e. the directions whose
activations shift every class equally on every sample.

``apply`` never materializes the rank-one factors x x^T: with V = U X the
columns Q^(n) v^(n) are formed elementwise and closed with one D-sized
product, so a Hessian product costs O(N C D).
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import Dataset, DimensionMismatchError, SizeLimitError, activations
from .softmax import q_matrix, softmax

# Dense materialization guard: C*D entries per vec index.
DENSE_LIMIT = 2048


class KernelTest(NamedTuple):
    in_kernel: bool
    residual: float


class HessianOperator:
    """Symmetric PSD operator U -> sum_n Q^(n) U x^(n) x^(n)^T.

    The anchor is captured once: Y = softmax(W X) is cached at construction,
    so later mutation of the caller's W cannot change results mid-analysis.
    Instances are immutable and safe to share; ``apply`` is pure.
    """

    def __init__(self, data: Dataset, w):
        self.data = data
        y = softmax(activations(w, data))
        y.setflags(write=False)
        self.y = y

    @property
    def c(self) -> int:
        return self.data.c

    @property
    def d(self) -> int:
        return self.data.d

    @property
    def n(self) -> int:
        return self.data.n

    def _check_direction(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.c, self.d):
            raise DimensionMismatchError(
                f"direction has shape {u.shape}, expected {(self.c, self.d)}"
            )
        return u

    def _q_columns(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # v^(n) = U x^(n);  Q^(n) v^(n) = y*v - y (y.v), all columns at once.
        v = u @ self.data.x
        s = np.sum(self.y * v, axis=0, keepdims=True)
        return v, self.y * v - self.y * s

    def apply(self, u) -> np.ndarray:
        """H(U), computed matrix-free in O(N C D)."""
        u = self._check_direction(u)
        _, qv = self._q_columns(u)
        return qv @ self.data.x.T

    def quadratic_form(self, u) -> float:
        """<H(U), U>_F = sum_n (U x^(n))^T Q^(n) (U x^(n)); >= 0 up to rounding."""
        u = self._check_direction(u)
        v, qv = self._q_columns(u)
        return float(np.sum(qv * v))

    def kernel_test(self, u, tol: float = 1e-10) -> KernelTest:
        """Decide membership in ker H = {U : U X = 1 c^T}.

        The optimal shift c is the column mean of U X; membership holds when
        the residual after removing it is at most ``tol`` relative to
        ||U X||_F.  The returned residual is the witness.
        """
        if tol <= 0:
            raise ValueError("tol must be positive")
        u = self._check_direction(u)
        v = u @ self.data.x
        residual = float(np.linalg.norm(v - v.mean(axis=0, keepdims=True)))
        return KernelTest(residual <= tol * float(np.linalg.norm(v)), residual)

    def dense(self) -> np.ndarray:
        """(CD) x (CD) matrix of the operator for column-major vec.

        Assembled as sum_n kron(x x^T, Q^(n)), independently of ``apply``, so
        the two paths cross-check each other.  Guarded by ``DENSE_LIMIT``.
        """
        m = self.c * self.d
        if m > DENSE_LIMIT:
            raise SizeLimitError(
                f"dense Hessian requires C*D <= {DENSE_LIMIT}, got {m}"
            )
        out = np.zeros((m, m))
        for n in range(self.n):
            x = self.data.x[:, n]
            out += np.kron(np.outer(x, x), q_matrix(self.y[:, n]))
        return out
