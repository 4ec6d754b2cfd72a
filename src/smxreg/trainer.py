"""Full-batch gradient descent for the softmax cross-entropy objective.

Each epoch runs  A = W X;  Y = softmax(A);  G = -(T - Y) X^T;  W <- W - eta G.
The loss and G are sums over samples, so the epoch is a sum over fixed
column blocks of X: block b gives A_b = W X_b and, from one helper,
:func:`~smxreg.loss_grad.forward`, its loss and G_b = (Y_b - T_b) X_b^T,
with the column max and exp run once.  The calling thread adds the losses
and the G_b in block order.  The blocks are those of every pass over X,
:func:`~smxreg.core.column_plan`, so the bits depend on X's shape alone;
each block reads its columns of X twice (for A_b and for G_b) while they
are still in cache.  The blocks run on one thread per usable CPU, with
OpenBLAS single-threaded meanwhile, or in order on the calling thread
(:func:`~smxreg.core.block_runner`).  An X of one block runs the one-call
epoch A = W X on the calling thread.

A row of X that is zero in every sample adds nothing to A, and G's column
for it is zero.  So the epoch reads only the live rows: A_b = W[:, live]
X_b,live, and G is formed on the live columns alone.  W keeps all D
columns, and only the step W[:, live] -= eta G writes it, so a dead column
keeps its starting value.  When a row is dead, ``train`` copies each
block's live rows once per call (live share x the size of X, held until it
returns; no copy for zero epochs); when none is, the blocks are views of
``data.x``.

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

from .core import (Dataset, InvalidInputError, activations, block_runner,
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
    """Logged epoch records, the stop reason, the number of rows of X that
    are nonzero in some sample (the rows an epoch reads) and the number of
    column blocks of X whose sums give each epoch's loss and G (set by X's
    shape alone, never by the CPU count)."""

    records: list[EpochRecord] = field(default_factory=list)
    stop_reason: str = STOP_EPOCHS
    live_rows: int = 0
    blocks: int = 1


def initial_weights(data: Dataset, cfg: TrainConfig) -> np.ndarray:
    """Seeded i.i.d. normal entries scaled by ``INIT_SCALE``, then recentered."""
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


def _live_rows(x: np.ndarray, live: np.ndarray, blocks: list[slice], run) -> list:
    """The rows ``live`` of each column block of X, contiguous, copied by
    ``run`` into one buffer: freeing a single allocation returns its memory
    to the system, where freed per-block arrays can stay in the heap of the
    thread that made them.  Each run of consecutive live rows is copied as
    one slice, which needs no temporary copy of the block."""
    buf = np.empty(live.size * x.shape[1])
    xs = [buf[live.size * c.start:live.size * c.stop].reshape(live.size, c.stop - c.start)
          for c in blocks]
    starts = np.flatnonzero(np.diff(live, prepend=-2) != 1)
    runs = [(int(i), int(j), int(live[i]))
            for i, j in zip(starts, np.append(starts[1:], live.size))]

    def copy(b: int) -> None:
        for i, j, row in runs:
            xs[b][i:j] = x[row:row + j - i, blocks[b]]

    run(copy, range(len(blocks)))
    return xs


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


def train(data: Dataset, cfg: TrainConfig, w0=None) -> tuple[np.ndarray, TrainTrace]:
    """Run the descent loop; returns (final weights, trace).

    ``w0`` overrides the seeded initialization and is used exactly as given
    (not recentered), so runs starting from W and from W + 1 c^T can be
    compared.  A non-finite loss or gradient stops the run with reason
    "nonfinite" (recorded in the trace) instead of raising.

    Each epoch is a sum over ``trace.blocks`` fixed column blocks of X,
    which read only the rows of X that are nonzero in some sample.  If any
    row is zero in every sample, each block's live rows are copied once for
    the call, an extra (live rows / D) x ``data.x.nbytes`` in all, unless
    ``cfg.epochs`` is 0; otherwise X is read in place.  The weights, the
    trace and the column sums keep all D columns.
    """
    if w0 is None:
        w = initial_weights(data, cfg)
    else:
        w = check_weights(w0, data).copy()

    blocks = column_plan(data.n, data.x.nbytes)
    live = np.flatnonzero(np.any(data.x, axis=1))
    trace = TrainTrace(live_rows=live.size, blocks=len(blocks))
    with block_runner(len(blocks)) as run:
        if live.size == data.d:
            rows, xs = slice(None), [data.x[:, cols] for cols in blocks]
        else:
            rows = live
            xs = _live_rows(data.x, live, blocks, run) if cfg.epochs else []
        parts = [(x, data.t[:, cols]) for x, cols in zip(xs, blocks)]

        prev_w: np.ndarray | None = None
        prev_g: np.ndarray | None = None
        eta = cfg.eta
        for epoch in range(1, cfg.epochs + 1):
            # A diverging run overflows here; the check below turns that
            # into the "nonfinite" stop, so it raises no floating-point
            # warning.
            with np.errstate(over="ignore", invalid="ignore"):
                w_rows = w[:, rows]
                sums = run(lambda part: _block_forward(w_rows, *part), parts)
                if all(s is not None for s in sums):
                    cur_loss, g = _add_blocks(sums)
                    grad_norm = float(np.linalg.norm(g))
                    if cfg.bb_mode != "off" and prev_w is not None:
                        eta = _bb_step((w - prev_w)[:, rows], g - prev_g, eta)
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
