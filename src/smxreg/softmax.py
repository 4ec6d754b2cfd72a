"""Numerically stable softmax, its -log composition, and their Jacobians.

Batch operations act columnwise: a C x N input is treated as N independent
activation columns.  The column-max shift and the exponential live in
:func:`shifted_exp` alone; ``softmax``, ``rho`` and the loss of
:mod:`~smxreg.loss_grad` build on it, so no finite input overflows and
all three see the same bits of it.
"""
from __future__ import annotations

import numpy as np

from .core import check_activations


def shifted_exp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m, e, s) for activations ``a`` (vector, or C x N matrix columnwise):
    the column maxima m, e = exp(a - m) and the column sums s of e, m and s
    keeping the column axis.

    For finite ``a`` every exponent is <= 0, so the largest entry of e is 1
    and 1 <= s <= C.  A column that spreads past the float range has
    exponents of -inf, whose e is the 0 they underflow to, without a warning.
    """
    m = a.max(axis=0, keepdims=True)
    with np.errstate(over="ignore"):
        e = np.exp(a - m)
    return m, e, e.sum(axis=0, keepdims=True)


def softmax(a) -> np.ndarray:
    """Exp-normalize ``a`` (vector, or C x N matrix columnwise): e / s of
    :func:`shifted_exp`, after :func:`~smxreg.core.check_activations`.

    Shifting by the column maximum leaves the value unchanged and keeps every
    exponent <= 0, so the largest intermediate is 1.  Column sums are 1 up to
    rounding; entries can underflow to exactly 0 when the spread of a column
    exceeds ~745, which downstream curvature code accepts.
    """
    _, e, s = shifted_exp(check_activations(a))
    return e / s


def rho(a) -> np.ndarray:
    """The map -log(softmax(a)), evaluated as -a + (m + log s) * ones with
    the (m, s) of :func:`shifted_exp`, m + log s being log sum exp(a), so it
    stays finite even where softmax underflows."""
    a = check_activations(a)
    m, _, s = shifted_exp(a)
    return -a + (m + np.log(s))


def q_matrix(y) -> np.ndarray:
    """Jacobian of the softmax expressed through its value: diag(y) - y y^T.

    The same matrix is the per-sample curvature factor Q of the Hessian.
    Symmetric, PSD, with Q 1 = 0.  Boundary outputs (entries 0 or 1) are
    accepted; zero coordinates enlarge the kernel.
    """
    y = np.asarray(y, dtype=float)
    return np.diag(y) - np.outer(y, y)


def d_rho(y) -> np.ndarray:
    """Jacobian of :func:`rho` expressed through the softmax value: -I + 1 y^T,
    whose every row is y, less 1 on the diagonal."""
    y = np.asarray(y, dtype=float)
    return y - np.eye(y.shape[0])
