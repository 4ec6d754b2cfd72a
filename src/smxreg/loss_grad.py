"""Cross-entropy loss over a dataset, its vectorized gradient, and
critical-point diagnostics.

The loss is evaluated through the -log-softmax composition (logsumexp form),
never through log(softmax(a)), so it stays finite even where targets place
mass on outputs that underflow.  Values are in nats.  Per-sample terms are
summed in ascending sample order, so results are deterministic.
"""
from __future__ import annotations

import numpy as np

from .core import Dataset, check_weights
from .softmax import _activations, logsumexp


def loss(w, data: Dataset) -> float:
    """Total cross-entropy -sum_n sum_i t_i log y_i at Y = softmax(W X)."""
    w = check_weights(w, data)
    return loss_from_activations(w @ data.x, data.t)


def loss_from_activations(a, t) -> float:
    """Loss from precomputed activations A = W X.

    Equals sum_n t^T rho(a^(n)); because target columns sum to 1 this reduces
    to sum_n logsumexp(a^(n)) - sum(T * A).
    """
    return float(np.sum(logsumexp(a)) - np.sum(t * a))


def forward(a: np.ndarray, data: Dataset) -> tuple[float, np.ndarray]:
    """Loss and gradient at finite activations A = W X, in one pass over A.

    With column maxima m, e = exp(A - m) and column sums s of e:
    Y = e / s, loss = sum(m + log s) - sum(T * A) and G = (Y - T) X^T.
    These are the floating-point operations of ``softmax``,
    :func:`loss_from_activations` and -(T - Y) X^T, so both results are
    bit-identical to that composition, while the max and exp run once.
    """
    m = a.max(axis=0, keepdims=True)
    e = np.exp(a - m)
    s = e.sum(axis=0, keepdims=True)
    cost = float(np.sum(m + np.log(s)) - np.sum(data.t * a))
    return cost, (e / s - data.t) @ data.x.T


def gradient(w, data: Dataset) -> np.ndarray:
    """Vectorized loss gradient -(T - Y) X^T with Y = softmax(W X).

    This is the Frobenius-inner-product gradient; every column sums to zero
    because 1^T (T - Y) = 0.
    """
    w = check_weights(w, data)
    return forward(_activations(w @ data.x), data)[1]


def error_covariance(w, data: Dataset) -> np.ndarray:
    """Uncentered sample covariance (T - Y) X^T of errors against inputs.

    Exactly -gradient; ``w`` is a critical point iff this matrix vanishes.
    """
    return -gradient(w, data)
