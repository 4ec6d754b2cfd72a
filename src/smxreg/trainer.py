"""Full-batch gradient descent for the softmax cross-entropy objective.

Each epoch runs  A = W X;  Y = softmax(A);  G = -(T - Y) X^T;  W <- W - eta G.
One helper, :func:`~smxreg.loss_grad.forward`, takes the loss and G from A,
so the column max and exp run once and an epoch reads X twice (for A and
for G).  The learning rate is fixed, or adapted by one of the two
Barzilai-Borwein formulas built from successive weight and gradient
differences (safeguarded: the previous rate is kept when the curvature
estimate is non-positive or the step leaves [1e-12, 1e12]).  A run that
overflows stops with reason "nonfinite" and emits no floating-point
warning, since that overflow is an outcome the trace records.

Because 1^T G = 0 holds identically, the zero-column-sum property of W is
preserved by the exact iteration; periodic recentering removes the round-off
drift that would otherwise diffuse through weight space.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (Dataset, InvalidInputError, activations, center_columns,
                   check_weights)
from .loss_grad import forward, loss_from_activations
# ``softmax`` stays importable from this module: bench/workloads.py times it
# under the name ``smxreg.trainer.softmax``.
from .softmax import softmax  # noqa: F401

BB_STEP_MIN = 1e-12
BB_STEP_MAX = 1e12

BB_MODES = ("off", "bb1", "bb2")

STOP_EPOCHS = "epochs_exhausted"
STOP_GRAD_TOL = "grad_tol"
STOP_NONFINITE = "nonfinite"


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for :func:`train`.

    ``eta`` is the fixed rate, or the initial rate under Barzilai-Borwein
    adaptation (``bb_mode`` "bb1" or "bb2").  ``center_every=0`` disables
    recentering.  Training stops after ``epochs`` epochs, or as soon as
    ||grad||_F <= tol_grad, or on a non-finite loss/gradient.
    """

    eta: float = 0.1
    epochs: int = 100
    bb_mode: str = "off"
    center_every: int = 10
    seed: int = 0
    init_scale: float = 0.01
    tol_grad: float = 1e-10
    log_every: int = 1

    def __post_init__(self):
        if not self.eta > 0.0:
            raise InvalidInputError("eta must be positive")
        if self.epochs < 0:
            raise InvalidInputError("epochs must be >= 0")
        if self.bb_mode not in BB_MODES:
            raise InvalidInputError(f"bb_mode must be one of {BB_MODES}")
        if self.center_every < 0:
            raise InvalidInputError("center_every must be >= 0")
        if self.init_scale < 0.0:
            raise InvalidInputError("init_scale must be >= 0")
        if not self.tol_grad > 0.0:
            raise InvalidInputError("tol_grad must be positive")
        if self.log_every < 1:
            raise InvalidInputError("log_every must be >= 1")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    loss: float
    grad_norm: float
    eta_used: float
    max_abs_column_sum: float


@dataclass
class TrainTrace:
    """Logged epoch records and the stop reason."""

    records: list[EpochRecord] = field(default_factory=list)
    stop_reason: str = STOP_EPOCHS


def initial_weights(data: Dataset, cfg: TrainConfig) -> np.ndarray:
    """Seeded i.i.d. normal entries scaled by ``init_scale``, then recentered."""
    rng = np.random.default_rng(cfg.seed)
    return center_columns(cfg.init_scale * rng.standard_normal((data.c, data.d)))


def _bb_step(mode: str, dw: np.ndarray, dg: np.ndarray, fallback: float) -> float:
    sy = float(np.sum(dw * dg))
    if mode == "bb1":
        num, den = float(np.sum(dw * dw)), sy
    else:
        num, den = sy, float(np.sum(dg * dg))
    if den <= 0.0:
        return fallback
    step = num / den
    if not BB_STEP_MIN <= step <= BB_STEP_MAX:
        return fallback
    return step


def _max_abs_column_sum(w: np.ndarray) -> float:
    return float(np.max(np.abs(w.sum(axis=0))))


def train(data: Dataset, cfg: TrainConfig, w0=None) -> tuple[np.ndarray, TrainTrace]:
    """Run the descent loop; returns (final weights, trace).

    ``w0`` overrides the seeded initialization and is used exactly as given
    (not recentered), so runs starting from W and from W + 1 c^T can be
    compared.  A non-finite loss or gradient stops the run with reason
    "nonfinite" (recorded in the trace) instead of raising.
    """
    if w0 is None:
        w = initial_weights(data, cfg)
    else:
        w = check_weights(w0, data).copy()

    trace = TrainTrace()
    prev_w: np.ndarray | None = None
    prev_g: np.ndarray | None = None
    eta = cfg.eta

    for epoch in range(1, cfg.epochs + 1):
        # A diverging run overflows here; the check below turns that into
        # the "nonfinite" stop, so it raises no floating-point warning.
        with np.errstate(over="ignore", invalid="ignore"):
            a = w @ data.x
            if np.all(np.isfinite(a)):
                cur_loss, g = forward(a, data)
                grad_norm = float(np.linalg.norm(g))
                if cfg.bb_mode != "off" and prev_w is not None:
                    eta = _bb_step(cfg.bb_mode, w - prev_w, g - prev_g, eta)
            else:
                cur_loss = grad_norm = float("nan")

        finite = np.isfinite(cur_loss) and np.isfinite(grad_norm)
        stopping = not finite or grad_norm <= cfg.tol_grad
        if epoch % cfg.log_every == 0 or epoch == cfg.epochs or stopping:
            trace.records.append(EpochRecord(
                epoch, cur_loss, grad_norm, eta, _max_abs_column_sum(w)))
        if not finite:
            trace.stop_reason = STOP_NONFINITE
            break
        if grad_norm <= cfg.tol_grad:
            trace.stop_reason = STOP_GRAD_TOL
            break

        prev_w, prev_g = w, g
        w = w - eta * g
        if cfg.center_every and epoch % cfg.center_every == 0:
            w = center_columns(w)

    return w, trace


def evaluate(w, data: Dataset) -> tuple[float, float]:
    """(cross-entropy in nats, classification accuracy).

    Accuracy compares per-column argmax of the outputs against argmax of the
    targets; ties resolve to the lowest class index on both sides.  Softmax
    is strictly increasing, so the activation argmax is used directly.
    Activations that overflow raise :class:`InvalidInputError`, as in
    :func:`~smxreg.loss_grad.loss`.
    """
    a = activations(w, data)
    accuracy = float(np.mean(np.argmax(a, axis=0) == np.argmax(data.t, axis=0)))
    return loss_from_activations(a, data.t), accuracy
