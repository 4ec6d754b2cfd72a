"""The loss's second derivative as a matrix-free operator on weight space.

At anchor weights W with per-sample softmax outputs y^(n), the operator is

    H(U) = sum_n Q^(n) U x^(n) x^(n)^T,   Q^(n) = diag(y^(n)) - y^(n) y^(n)^T,

symmetric and positive semidefinite under the Frobenius inner product.  Its
kernel is exactly  {U : U X = 1 c^T for some c},  i.e. the directions whose
activations shift every class equally on every sample.

``apply`` never materializes the rank-one factors x x^T: with V = U X the
columns Q^(n) v^(n) are formed elementwise in V's own buffer and closed
with one D-sized product, so a Hessian product costs O(N C D) and holds V
and one temporary of its size.  It also takes a stack of b directions,
shape (b, C, D): one (bC) x D by D x N product, the columns elementwise,
and one product with X^T, which is cheaper per direction than b single
products.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import Dataset, SizeLimitError, activations, check_weights
from .softmax import q_matrix, softmax

# Dense materialization guard: C*D entries per vec index.
DENSE_LIMIT = 2048

# kernel_test counts U as a kernel direction when the residual of U X after
# removing the best column shift is at most this, relative to ||U X||_F.
KERNEL_TOL = 1e-10


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

    def _times_x(self, u: np.ndarray) -> np.ndarray:
        # v^(n) = U x^(n), all columns at once, and for a stack of directions
        # all of them in one product.
        return (u.reshape(-1, self.d) @ self.data.x).reshape(*u.shape[:-1], self.n)

    def _q_columns(self, v: np.ndarray) -> np.ndarray:
        # Q^(n) v^(n) = y*v - y (y.v) for every column, in v's own buffer.
        v *= self.y
        v -= self.y * np.sum(v, axis=-2, keepdims=True)
        return v

    def apply(self, u) -> np.ndarray:
        """H(U), computed matrix-free in O(N C D); for a (b, C, D) stack of
        directions, the stack of their products."""
        u = check_weights(u, self.data)
        qv = self._q_columns(self._times_x(u))
        return (qv.reshape(-1, self.n) @ self.data.x.T).reshape(u.shape)

    def quadratic_form(self, u) -> float:
        """<H(U), U>_F = sum_n (U x^(n))^T Q^(n) (U x^(n)); >= 0 up to rounding."""
        u = check_weights(u, self.data)
        v = self._times_x(u)
        return float(np.sum(self._q_columns(v.copy()) * v))

    def kernel_test(self, u) -> KernelTest:
        """Decide membership in ker H = {U : U X = 1 c^T}.

        The optimal shift c is the column mean of U X; membership holds when
        the residual after removing it is at most ``KERNEL_TOL`` (1e-10)
        relative to ||U X||_F.  The returned residual is the witness.
        """
        v = self._times_x(check_weights(u, self.data))
        residual = float(np.linalg.norm(v - v.mean(axis=0, keepdims=True)))
        return KernelTest(residual <= KERNEL_TOL * float(np.linalg.norm(v)), residual)

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
