"""Finite-difference harnesses for the gradient and the Hessian product.

These only ever evaluate the loss (for the gradient check) or the gradient
(for the Hessian check), so they stay independent of the closed forms they
validate.
"""
from __future__ import annotations

import numpy as np

from .core import Dataset, InvalidInputError
from .hessian import HessianOperator
from .loss_grad import gradient, loss
from .softmax import softmax

GRAD_TOL = 1e-6
HESS_TOL = 1e-5

# Central-difference step of both harnesses, and the floor of
# entrywise_rel_err as a fraction of the largest reference entry.
FD_STEP = 1e-5
REL_ERR_FLOOR = 1e-3

# Largest C, D and N of the instances gradient_check_suite draws; they are
# also the ranges of acceptance criteria 1-2.
CHECK_SIZES = {"C": 5, "D": 7, "N": 10}


def fd_gradient(w, data: Dataset) -> np.ndarray:
    """Entrywise central differences of the loss, step ``FD_STEP``."""
    w = np.asarray(w, dtype=float)
    out = np.zeros_like(w)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            wp = w.copy()
            wm = w.copy()
            wp[i, j] += FD_STEP
            wm[i, j] -= FD_STEP
            out[i, j] = (loss(wp, data) - loss(wm, data)) / (2.0 * FD_STEP)
    return out


def fd_hessian_apply(w, data: Dataset, u) -> np.ndarray:
    """Central difference of the gradient along the direction ``u``, step
    ``FD_STEP``."""
    w = np.asarray(w, dtype=float)
    du = FD_STEP * np.asarray(u, dtype=float)
    return (gradient(w + du, data) - gradient(w - du, data)) / (2.0 * FD_STEP)


def entrywise_rel_err(a, b) -> float:
    """Max entrywise |a-b| relative to |b|, floored at REL_ERR_FLOOR * max|b|.

    The floor keeps accidental near-zero reference entries from inflating the
    ratio beyond what the absolute finite-difference error warrants.
    """
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.abs(b), REL_ERR_FLOOR * np.max(np.abs(b)) + 1e-300)
    return float(np.max(np.abs(np.asarray(a) - b) / scale))


def norm_rel_err(a, b) -> float:
    denom = float(np.linalg.norm(b))
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))) / max(denom, 1e-300)


def random_instance(rng: np.random.Generator, c: int, d: int, n: int):
    """Standard-normal weights and features, softmax-stochastic soft targets."""
    w = rng.standard_normal((c, d))
    x = rng.standard_normal((d, n))
    t = softmax(rng.standard_normal((c, n)))
    return w, Dataset(x, t)


def gradient_check_suite(seed: int, instances: int) -> dict:
    """Run the gradient and Hessian-product finite-difference suites.

    Each of the ``instances`` random instances draws C from 2..5, D from
    2..7 and N from 1..10 (the upper ends are ``CHECK_SIZES``).  Returns the
    worst relative errors seen.  ``instances`` must be at least 1, so that a
    passing suite has checked something.
    """
    if instances < 1:
        raise InvalidInputError(f"instances must be >= 1, got {instances}")
    lows = {"C": 2, "D": 2, "N": 1}
    rng = np.random.default_rng(seed)
    grad_worst = 0.0
    hess_worst = 0.0
    for _ in range(instances):
        c, d, n = (int(rng.integers(lows[k], CHECK_SIZES[k] + 1)) for k in "CDN")
        w, data = random_instance(rng, c, d, n)

        g = gradient(w, data)
        grad_worst = max(grad_worst, entrywise_rel_err(g, fd_gradient(w, data)))

        op = HessianOperator(data, w)
        u = rng.standard_normal((c, d))
        hess_worst = max(
            hess_worst, norm_rel_err(op.apply(u), fd_hessian_apply(w, data, u))
        )
    return {
        "instances": instances,
        "grad_max_rel_err": grad_worst,
        "grad_threshold": GRAD_TOL,
        "hess_max_rel_err": hess_worst,
        "hess_threshold": HESS_TOL,
        "passed": bool(grad_worst <= GRAD_TOL and hess_worst <= HESS_TOL),
    }
