"""Cross-entropy loss over a dataset, its vectorized gradient, and
critical-point diagnostics.

The loss is sum_n t_n^T rho(a_n) with rho = -log softmax, never
log(softmax(a)), so it stays finite even where targets place mass on
outputs that underflow.  One function forms it for :func:`forward` and
:func:`loss_from_activations`: each sample's term (m_n - t_n^T a_n) +
log s_n, with m_n the column max and s_n the shifted exponential sum, is
formed before one sum over the samples in ascending order, so results are
deterministic and no two large sums cancel.  Values are in nats.
"""
from __future__ import annotations

import numpy as np

from .core import Dataset, activations
from .softmax import shifted_exp


def _cross_entropy(a: np.ndarray, t: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(loss, e, s) at activations ``a`` with targets ``t``: the (m, e, s) of
    :func:`~smxreg.softmax.shifted_exp` and sum_n [(m_n - t_n^T a_n) + log s_n].

    Since 1^T t_n = 1, each term is t_n^T rho(a_n).  The activation
    difference is taken before the log, so a one-hot column whose largest
    activation is the labelled one adds log s_n alone.  Activations whose
    products or sums overflow give a loss of inf or NaN, without a warning.
    """
    m, e, s = shifted_exp(a)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sum((m - np.einsum("ij,ij->j", t, a)) + np.log(s))), e, s


def loss(w, data: Dataset) -> float:
    """Total cross-entropy -sum_n sum_i t_i log y_i at Y = softmax(W X)."""
    return loss_from_activations(activations(w, data), data.t)


def loss_from_activations(a: np.ndarray, t: np.ndarray) -> float:
    """Loss sum_n t^T rho(a^(n)) from precomputed activations A = W X,
    summed per sample (see the module docstring)."""
    return _cross_entropy(a, t)[0]


def forward(a: np.ndarray, t: np.ndarray, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Loss and gradient at activations A = W X with targets ``t``, in one
    pass over A; G is closed with the rows ``x``.  Non-finite A gives a
    non-finite loss: NaN or +inf makes the column max or the exp NaN, and
    -inf alone gives -t a = +inf where t > 0, else 0 (-inf) = NaN.

    The loss is :func:`loss_from_activations`'s.  From the same (e, s) of
    :func:`~smxreg.softmax.shifted_exp`, the one home of the shift and the
    exponential, Y = e / s and G = (Y - T) x^T, bit-identical to
    ``softmax`` and -(T - Y) X^T, so the max and exp run once.  Given X
    itself, G is the full gradient; given a subset of X's rows, G holds the
    gradient's columns for those rows.
    """
    cost, e, s = _cross_entropy(a, t)
    return cost, (e / s - t) @ x.T


def gradient(w, data: Dataset) -> np.ndarray:
    """Vectorized loss gradient -(T - Y) X^T with Y = softmax(W X).

    This is the Frobenius-inner-product gradient; every column sums to zero
    because 1^T (T - Y) = 0.
    """
    return forward(activations(w, data), data.t, data.x)[1]


def error_covariance(w, data: Dataset) -> np.ndarray:
    """Uncentered sample covariance (T - Y) X^T of errors against inputs.

    Exactly -gradient; ``w`` is a critical point iff this matrix vanishes.
    """
    return -gradient(w, data)
