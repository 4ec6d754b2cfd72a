"""Full-batch gradient descent for the softmax cross-entropy objective.

Each epoch runs  A = W X;  Y = softmax(A);  G = -(T - Y) X^T;  W <- W - eta G.
One helper, :func:`~smxreg.loss_grad.forward`, takes the loss and G from A,
so the column max and exp run once and an epoch reads X twice (for A and
for G).

A row of X that is zero in every sample adds nothing to A, and G's column
for it is zero.  So the epoch reads only the live rows: A = W[:, live]
X_live, and G is formed on the live columns alone.  W keeps all D columns,
and only the step W[:, live] -= eta G writes it, so a dead column keeps its
starting value.  When a row is dead, ``train`` copies the live rows once per
call (live share x the size of X, held until it returns); when none is, the
epoch reads ``data.x`` and ``w`` as they are, with no copy.

The learning rate is fixed, or adapted by one of the two Barzilai-Borwein
formulas built from successive weight and gradient differences
(safeguarded: the previous rate is kept when the curvature estimate is
non-positive or the step leaves [1e-12, 1e12]).  A run that overflows stops
with reason "nonfinite" and emits no floating-point warning, since that
overflow is an outcome the trace records.

Because 1^T G = 0 holds for every W, a step moves the column sums of W only
by rounding: from a centered start they stay at rounding level, and
``EpochRecord.max_abs_column_sum`` monitors them at each logged epoch.
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

# Standard deviation of the seeded initial weights.
INIT_SCALE = 0.01

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
    adaptation (``bb_mode`` "bb1" or "bb2").  ``seed`` draws the initial
    weights.  Training stops after ``epochs`` epochs, or as soon as
    ||grad||_F <= tol_grad, or on a non-finite loss/gradient.
    """

    eta: float = 0.1
    epochs: int = 100
    bb_mode: str = "off"
    seed: int = 0
    tol_grad: float = 1e-10
    log_every: int = 1

    def __post_init__(self):
        if not self.eta > 0.0:
            raise InvalidInputError("eta must be positive")
        if self.epochs < 0:
            raise InvalidInputError("epochs must be >= 0")
        if self.bb_mode not in BB_MODES:
            raise InvalidInputError(f"bb_mode must be one of {BB_MODES}")
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
    """Logged epoch records, the stop reason and the number of rows of X
    that are nonzero in some sample (the rows an epoch reads)."""

    records: list[EpochRecord] = field(default_factory=list)
    stop_reason: str = STOP_EPOCHS
    live_rows: int = 0


def initial_weights(data: Dataset, cfg: TrainConfig) -> np.ndarray:
    """Seeded i.i.d. normal entries scaled by ``INIT_SCALE``, then recentered."""
    rng = np.random.default_rng(cfg.seed)
    return center_columns(INIT_SCALE * rng.standard_normal((data.c, data.d)))


def _bb_step(mode: str, dw: np.ndarray, dg: np.ndarray, fallback: float) -> float:
    """The Barzilai-Borwein rate from the weight change ``dw`` and the
    gradient change ``dg``, both on the live columns."""
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

    Epochs read only the rows of X that are nonzero in some sample.  If any
    row is zero in every sample, those live rows are copied once for the
    call, an extra (live rows / D) x ``data.x.nbytes``; otherwise X is read
    in place.  The weights, the trace and the column sums keep all D
    columns.
    """
    if w0 is None:
        w = initial_weights(data, cfg)
    else:
        w = check_weights(w0, data).copy()

    live = np.flatnonzero(np.any(data.x, axis=1))
    if live.size == data.d:
        rows, x = slice(None), data.x
    else:
        rows, x = live, data.x[live]

    trace = TrainTrace(live_rows=live.size)
    prev_w: np.ndarray | None = None
    prev_g: np.ndarray | None = None
    eta = cfg.eta

    for epoch in range(1, cfg.epochs + 1):
        # A diverging run overflows here; the check below turns that into
        # the "nonfinite" stop, so it raises no floating-point warning.
        with np.errstate(over="ignore", invalid="ignore"):
            a = w[:, rows] @ x
            if np.all(np.isfinite(a)):
                cur_loss, g = forward(a, data.t, x)
                grad_norm = float(np.linalg.norm(g))
                if cfg.bb_mode != "off" and prev_w is not None:
                    eta = _bb_step(cfg.bb_mode, (w - prev_w)[:, rows], g - prev_g, eta)
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
        w = w.copy()
        w[:, rows] -= eta * g

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
