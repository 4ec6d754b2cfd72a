"""Full-batch gradient descent for the softmax cross-entropy objective.

Each epoch runs  A = W X;  Y = softmax(A);  G = -(T - Y) X^T;  W <- W - eta G.
The loss and G are sums over samples, so the epoch is a sum over fixed
column blocks of X: block b gives A_b = W X_b and, from one helper,
:func:`~smxreg.loss_grad.forward`, its loss and G_b = (Y_b - T_b) X_b^T,
with the column max and exp run once.  The calling thread adds the losses
and the G_b in block order.  The blocks are
:func:`~smxreg.core.column_plan`'s for the rows the epoch reads (below),
so the bits depend on their shape alone; each block reads its columns of
X twice (for A_b and for G_b) while they are still in cache.  The blocks
run under :func:`~smxreg.core.block_runner`, the pool policy of every
blocked pass of the package.  An X of one block runs the one-call epoch
A = W X on the calling thread.

A row of X that is zero in every sample adds nothing to A, and G's column
for it is zero.  So the epoch reads only the live rows, held by a
:class:`~smxreg.core.LiveRows`: A_b = W_live X_b,live, and G is formed on
the live columns alone.  W keeps all D columns, and only the step
W_live -= eta G writes it, so a dead column keeps its starting value.  The
plan is sized by the live rows' bytes: 16 blocks for the 577 live rows of
a 60000-image MNIST-shaped pair, where a pass over its full 785-row X
takes 22.  ``train`` reads the live rows in place when given them, as
:func:`~smxreg.data_io.load_idx_live` loads them, or finds them in a
:class:`~smxreg.core.Dataset` by one scan of X; when a row is dead,
:meth:`~smxreg.core.LiveRows.of` copies the live rows once per call (held
until it returns; no copy for zero epochs).  Both give the same bits.

The learning rate is fixed, or adapted by the Barzilai-Borwein rate
<dW, dG> / <dG, dG> of successive weight and gradient differences, by
Cauchy-Schwarz the shorter of the two such rates (the other is
<dW, dW> / <dW, dG>).  The previous rate is kept when dG = 0 or the rate
leaves [1e-12, 1e12], as it does for every non-positive <dW, dG>.  A run
that overflows stops with reason "nonfinite" and emits no floating-point
warning, since that overflow is an outcome the trace records.

Because 1^T G = 0 holds for every W, a step moves the column sums of W only
by rounding: from a centered start they stay at rounding level, and
``EpochRecord.max_abs_column_sum`` monitors them at each logged epoch.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (Dataset, InvalidInputError, LiveRows, activations, block_runner,
                   center_columns, check_weights, column_plan)
from .loss_grad import forward, loss_from_activations
# ``softmax`` stays importable from this module: bench/workloads.py times it
# under the name ``smxreg.trainer.softmax``.
from .softmax import softmax  # noqa: F401

# Standard deviation of the seeded initial weights.
INIT_SCALE = 0.01

BB_STEP_MIN = 1e-12
BB_STEP_MAX = 1e12

BB_MODES = ("off", "bb2")

STOP_EPOCHS = "epochs_exhausted"
STOP_GRAD_TOL = "grad_tol"
STOP_NONFINITE = "nonfinite"


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for :func:`train`.

    ``eta`` is the fixed rate (``bb_mode`` "off"), or the initial rate under
    Barzilai-Borwein adaptation (``bb_mode`` "bb2").  ``seed`` draws the
    initial weights.  Training stops after ``epochs`` epochs, or as soon as
    ||grad||_F <= tol_grad, or on a non-finite loss/gradient.
    """

    eta: float = 0.1
    epochs: int = 100
    bb_mode: str = "off"
    seed: int = 0
    tol_grad: float = 1e-10
    log_every: int = 1

    def __post_init__(self):
        if not 0.0 < self.eta < float("inf"):
            raise InvalidInputError("eta must be finite and positive")
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
    """Logged epoch records, the stop reason, the number of rows of X that
    are nonzero in some sample (the rows an epoch reads) and the number of
    column blocks of those rows whose sums give each epoch's loss and G
    (:func:`~smxreg.core.column_plan` of the live rows' bytes, so set by
    their shape alone, never by the CPU count)."""

    records: list[EpochRecord] = field(default_factory=list)
    stop_reason: str = STOP_EPOCHS
    live_rows: int = 0
    blocks: int = 1


def initial_weights(data: Dataset | LiveRows, cfg: TrainConfig) -> np.ndarray:
    """Seeded i.i.d. normal entries scaled by ``INIT_SCALE``, then
    recentered; C x D, D the full width of a :class:`~smxreg.core.LiveRows`."""
    rng = np.random.default_rng(cfg.seed)
    return center_columns(INIT_SCALE * rng.standard_normal((data.c, data.d)))


def _bb_step(dw: np.ndarray, dg: np.ndarray, fallback: float) -> float:
    """The Barzilai-Borwein rate <dw, dg> / <dg, dg> from the weight and
    gradient changes on the live columns, or ``fallback`` when dg = 0 or the
    rate leaves [``BB_STEP_MIN``, ``BB_STEP_MAX``], as it does if <dw, dg> <= 0."""
    den = float(np.sum(dg * dg))
    if den <= 0.0:
        return fallback
    step = float(np.sum(dw * dg)) / den
    if not BB_STEP_MIN <= step <= BB_STEP_MAX:
        return fallback
    return step


def _max_abs_column_sum(w: np.ndarray) -> float:
    return float(np.max(np.abs(w.sum(axis=0))))


def _block_forward(w: np.ndarray, x: np.ndarray, t: np.ndarray):
    """(loss, G) of one column block, or None if its activations are not
    finite."""
    a = w @ x
    if not np.all(np.isfinite(a)):
        return None
    return forward(a, t, x)


def _add_blocks(sums: list) -> tuple[float, np.ndarray]:
    """The losses and gradients of the blocks, added in block order."""
    cost, g = sums[0]
    for block_cost, block_g in sums[1:]:
        cost += block_cost
        g += block_g
    return cost, g


def train(data: Dataset | LiveRows, cfg: TrainConfig,
          w0=None) -> tuple[np.ndarray, TrainTrace]:
    """Run the descent loop; returns (final weights, trace).

    ``w0`` overrides the seeded initialization and is used exactly as given
    (not recentered), so runs starting from W and from W + 1 c^T can be
    compared.  A non-finite loss or gradient stops the run with reason
    "nonfinite" (recorded in the trace) instead of raising.

    Each epoch is a sum over ``trace.blocks`` fixed column blocks of the
    rows of X that are nonzero in some sample.  ``data`` is either those
    rows, a :class:`~smxreg.core.LiveRows`, read in place, or a
    :class:`~smxreg.core.Dataset`, which costs one scan of X and, if any
    row is zero in every sample, one copy of the live rows for the call
    (:meth:`~smxreg.core.LiveRows.of`), an extra (live rows / D) x
    ``data.x.nbytes``, unless ``cfg.epochs`` is 0.  Both give the same
    bits.  The weights, the trace and the column sums keep all D columns.

    The blocks, and those of a live-row copy, run under
    :func:`~smxreg.core.block_runner`, which may hold OpenBLAS's
    process-wide thread count at one meanwhile: a BLAS product that
    another thread of the process runs then is single-threaded too, and
    can round differently.
    """
    if w0 is None:
        w = initial_weights(data, cfg)
    else:
        w = check_weights(w0, data).copy()

    if isinstance(data, LiveRows):
        live, rows = data, data.rows
    else:
        live, rows = None, np.flatnonzero(np.any(data.x, axis=1))
    blocks = column_plan(data.n, 8 * rows.size * data.n)  # the live rows' bytes
    trace = TrainTrace(live_rows=rows.size, blocks=len(blocks))
    if not cfg.epochs:
        return w, trace

    if live is None:
        live = LiveRows.of(data, rows)
    with block_runner(len(blocks)) as run:
        parts = [(live.data.x[:, cols], live.data.t[:, cols]) for cols in blocks]

        prev_live: np.ndarray | None = None
        prev_g: np.ndarray | None = None
        eta = cfg.eta
        for epoch in range(1, cfg.epochs + 1):
            w_live = live.narrow(w)
            # A diverging run overflows here; the check below turns that
            # into the "nonfinite" stop, so it raises no floating-point
            # warning.
            with np.errstate(over="ignore", invalid="ignore"):
                sums = run(lambda part: _block_forward(w_live, *part), parts)
                if all(s is not None for s in sums):
                    cur_loss, g = _add_blocks(sums)
                    grad_norm = float(np.linalg.norm(g))
                    if cfg.bb_mode != "off" and prev_live is not None:
                        eta = _bb_step(w_live - prev_live, g - prev_g, eta)
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

            prev_live, prev_g = w_live, g
            w = live.widen(w, w_live - eta * g)

    return w, trace


def evaluate(w, data: Dataset | LiveRows) -> tuple[float, float]:
    """(cross-entropy in nats, classification accuracy), for C x D weights
    ``w``.  On a :class:`~smxreg.core.LiveRows` it reads only the live rows;
    the loss then agrees with the full X's to rounding.

    Accuracy compares per-column argmax of the outputs against argmax of the
    targets; ties resolve to the lowest class index on both sides.  Softmax
    is strictly increasing, so the activation argmax is used directly.
    Activations that overflow raise :class:`InvalidInputError`, as in
    :func:`~smxreg.loss_grad.loss`.
    """
    if isinstance(data, LiveRows):
        w, data = data.narrow(check_weights(w, data)), data.data
    a = activations(w, data)
    accuracy = float(np.mean(np.argmax(a, axis=0) == np.argmax(data.t, axis=0)))
    return loss_from_activations(a, data.t), accuracy
