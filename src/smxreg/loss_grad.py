"""Cross-entropy loss over a dataset, its vectorized gradient, and
critical-point diagnostics.

The loss is evaluated through the -log-softmax composition (logsumexp form),
never through log(softmax(a)), so it stays finite even where targets place
mass on outputs that underflow.  Values are in nats.  Per-sample terms are
summed in ascending sample order, so results are deterministic.
"""
from __future__ import annotations

import numpy as np

from .core import Dataset, activations
from .softmax import logsumexp, shifted_exp


def loss(w, data: Dataset) -> float:
    """Total cross-entropy -sum_n sum_i t_i log y_i at Y = softmax(W X)."""
    return loss_from_activations(activations(w, data), data.t)


def loss_from_activations(a, t) -> float:
    """Loss from precomputed activations A = W X.

    Equals sum_n t^T rho(a^(n)); because target columns sum to 1 this reduces
    to sum_n logsumexp(a^(n)) - sum(T * A).
    """
    return float(np.sum(logsumexp(a)) - np.sum(t * a))


def forward(a: np.ndarray, t: np.ndarray, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Loss and gradient at activations A = W X with targets ``t``, in one
    pass over A; G is closed with the rows ``x``.  Non-finite A gives a
    non-finite loss: NaN or +inf makes the column max or the exp NaN, and
    -inf alone gives -t a = +inf where t > 0, else 0 (-inf) = NaN.

    With (m, e, s) of :func:`~smxreg.softmax.shifted_exp`, the one home of
    the shift and the exponential: Y = e / s, loss = sum(m + log s) -
    sum(T * A) and G = (Y - T) x^T.  ``softmax`` and ``logsumexp`` take the
    same (m, e, s), so both results are bit-identical to the composition
    ``softmax``, :func:`loss_from_activations` and -(T - Y) X^T, while the
    max and exp run once.  Given X itself, G is the full gradient; given a
    subset of X's rows, G holds the gradient's columns for those rows.
    """
    m, e, s = shifted_exp(a)
    cost = float(np.sum(m + np.log(s)) - np.sum(t * a))
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
