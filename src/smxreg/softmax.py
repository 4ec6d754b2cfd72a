"""Numerically stable softmax, its -log composition, and their Jacobians.

Batch operations act columnwise: a C x N input is treated as N independent
activation columns.  Both ``softmax`` and ``rho`` subtract the column
maximum before exponentiating, so no finite input overflows.
"""
from __future__ import annotations

import numpy as np

from .core import InvalidInputError


def _activations(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("activations contain non-finite entries")
    return a


def softmax(a) -> np.ndarray:
    """Exp-normalize ``a`` (vector, or C x N matrix columnwise).

    Shifting by the column maximum leaves the value unchanged and keeps every
    exponent <= 0, so the largest intermediate is 1.  Column sums are 1 up to
    rounding; entries can underflow to exactly 0 when the spread of a column
    exceeds ~745, which downstream curvature code accepts.
    """
    a = _activations(a)
    e = np.exp(a - a.max(axis=0, keepdims=True))
    return e / e.sum(axis=0, keepdims=True)


def logsumexp(a) -> np.ndarray:
    """log(sum(exp(a))) per column, max-shifted.  Keeps the column axis."""
    a = np.asarray(a, dtype=float)
    m = a.max(axis=0, keepdims=True)
    return m + np.log(np.exp(a - m).sum(axis=0, keepdims=True))


def rho(a) -> np.ndarray:
    """The map -log(softmax(a)), evaluated as -a + logsumexp(a) * ones.

    This form stays finite even where softmax underflows, which makes it the
    right building block for the cross-entropy loss.
    """
    a = _activations(a)
    return -a + logsumexp(a)


def q_matrix(y) -> np.ndarray:
    """Jacobian of the softmax expressed through its value: diag(y) - y y^T.

    The same matrix is the per-sample curvature factor Q of the Hessian.
    Symmetric, PSD, with Q 1 = 0.  Boundary outputs (entries 0 or 1) are
    accepted; zero coordinates enlarge the kernel.
    """
    y = np.asarray(y, dtype=float)
    return np.diag(y) - np.outer(y, y)


def d_rho(y) -> np.ndarray:
    """Jacobian of :func:`rho` expressed through the softmax value: -I + 1 y^T."""
    y = np.asarray(y, dtype=float)
    c = y.shape[0]
    return -np.eye(c) + np.outer(np.ones(c), y)
