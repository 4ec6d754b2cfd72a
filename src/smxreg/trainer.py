"""Full-batch gradient descent for the softmax cross-entropy objective.

Each epoch runs  A = W X;  Y = softmax(A);  G = -(T - Y) X^T;  W <- W - eta G,
or under bb2 W <- W - eta P, with P the direction defined below.
The loss and G are sums over samples, so the epoch is a sum over fixed
column blocks of X: block b gives A_b = W X_b and, from one helper,
:func:`~smxreg.loss_grad.forward`, its loss and G_b = (Y_b - T_b) X_b^T,
with the column max and exp run once.  The calling thread adds the losses
and the G_b in block order.  The blocks are
:func:`~smxreg.core.column_plan`'s for the rows the epoch reads (below),
so their count and order depend on X's shape alone; each block reads its
columns of X twice (for A_b and for G_b) while they are still in cache.
The blocks run under :func:`~smxreg.core.block_runner`, the pool policy of
every blocked pass.  A pooled run holds OpenBLAS at one thread; an X of
one block runs the one-call epoch A = W X on the calling thread, and it
or a serial run takes BLAS's own thread count, which can change the bits.

A row of X that is zero in every sample adds nothing to A, and G's column
for it is zero.  So the epoch reads only the live rows, held by a
:class:`~smxreg.core.LiveRows`: A_b = W_live X_b,live, and G is formed on
the live columns alone.  W keeps all D columns, and only the step on
W_live writes it, so a dead column keeps its starting value.  The
plan is sized by the live rows' bytes: 16 blocks for the 577 live rows of
a 60000-image MNIST-shaped pair, where a pass over its full 785-row X
takes 22.  ``train`` reads the live rows in place when given them, as
:func:`~smxreg.data_io.load_idx_live` loads them, or finds them in a
:class:`~smxreg.core.Dataset` by one scan of X; when a row is dead,
:meth:`~smxreg.core.LiveRows.of` copies the live rows once per call (held
until it returns; no copy for zero epochs).  Both give the same bits.

Under ``bb_mode`` "off" the step is W_live -= eta G at a fixed rate.  Under
"bb2" it is a preconditioned Barzilai-Borwein step (Molina & Raydan 1996)
in the metric of M = N (diag(s) + mu mu^T), the model of X X^T that keeps
the per-row means mu and variances s of the live rows and drops their
covariances: the moments of centred, scaled inputs (LeCun et al. 1998,
"Efficient BackProp").  ``train`` gathers mu and s once per call, in one
pass over the epochs' own column blocks added in block order.  Each epoch
sets P = 2 G M^+, recentred, and steps W_live -= eta P; M^+ is applied in
closed form in O(CD) (:class:`_Metric`), with no BLAS product.  The rate
is <dW, dG> / <dG, dP> of successive weight, gradient and direction
differences, by Cauchy-Schwarz in M's metric the shorter of the two such
rates; the first step's rate is ``eta``.  The metric takes the mean
direction and the row scales out of the condition number of X X^T, which
the rate of plain descent carries squared.  Where the rows are centred
and mutually orthogonal M = X X^T, and rate 1 is Bohning's
majorize-minimize step.  The previous rate is kept when <dG, dP> = 0 or
the rate leaves [1e-12, 1e12], as it does for every non-positive
<dW, dG>.

A run that diverges, from too large a rate or on data with no minimizer,
is an outcome the trace records, so one rule ends it: the first epoch
whose loss or ||G|| is not finite stops the run with reason "nonfinite",
and its record, the last, holds the loss, ||G|| and rate it computed;
non-finite A always gives a non-finite loss (:func:`~smxreg.loss_grad.forward`).
Weights that the last step leaves not finite stop the run "nonfinite"
too, after that epoch's finite record.  The run, pool threads included,
ignores floating-point overflow and emits no warning.

Because 1^T G = 0 holds for every W, a step moves the column sums of W only
by rounding: from a centered start they stay at rounding level, and
``EpochRecord.max_abs_column_sum`` monitors them at each logged epoch.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certify import RANK_RTOL
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

    ``eta`` is the fixed rate (``bb_mode`` "off"), or under Barzilai-Borwein
    adaptation (``bb_mode`` "bb2") the first step's rate, a rate in the
    metric of the row-moment model M (see the module docstring), where 1 is
    the majorize-minimize step when M = X X^T.  ``seed`` draws the
    initial weights.  Training stops after ``epochs`` epochs, as soon as
    ||grad||_F <= tol_grad, or with reason "nonfinite" at the first epoch
    whose loss or ||grad||_F is not finite (that epoch's record is the
    last) or after a last step that leaves the weights not finite.
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
    """One logged epoch.  ``eta_used`` is the rate of the step that follows:
    the fixed rate under "off", the rate in M's metric under "bb2"."""

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


def _bb_step(dw: np.ndarray, dg: np.ndarray, dp: np.ndarray, fallback: float) -> float:
    """The Barzilai-Borwein rate <dw, dg> / <dg, dp> from the weight,
    gradient and direction changes on the live columns, or ``fallback`` when
    <dg, dp> <= 0 or the rate leaves [``BB_STEP_MIN``, ``BB_STEP_MAX``], as it
    does if <dw, dg> <= 0."""
    den = float(np.sum(dg * dp))
    if den <= 0.0:
        return fallback
    step = float(np.sum(dw * dg)) / den
    if not BB_STEP_MIN <= step <= BB_STEP_MAX:
        return fallback
    return step


def _row_sums(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-row sums of x and of x**2 of one column block."""
    return x.sum(axis=1), np.einsum("ij,ij->i", x, x)


@dataclass(frozen=True)
class _Metric:
    """The row-moment model M = N (diag(s) + mu mu^T) of X X^T, from the
    per-row sums of X and X**2 over its N columns, and
    :meth:`direction`, which applies M^+ in closed form.

    A row is constant when s <= ``RANK_RTOL`` E[x^2]; the bias row is one,
    and so is a row of zeros.  With constant rows "0" (not all zero) and the
    others "+", each row g of G gives, with tau = <g0, mu0> / |mu0|^2,
    z+ = (g+ - tau mu+) / s+ and z0 = mu0 (tau - <mu+, z+>) / |mu0|^2; then
    (diag(s) + mu mu^T) z is g with g0 projected on mu0, and z lies in that
    matrix's range, so z = (diag(s) + mu mu^T)^+ g.  Without such rows z is
    Sherman-Morrison's inverse and z0 = 0.  Only elementwise products and
    numpy sums are used, so no BLAS thread count changes the bits."""

    n: int
    mean: np.ndarray
    var: np.ndarray
    const: np.ndarray

    @classmethod
    def of(cls, sums: tuple[np.ndarray, np.ndarray], n: int) -> _Metric:
        mean, second = sums[0] / n, sums[1] / n
        var = second - mean * mean
        return cls(n, mean, var, var <= RANK_RTOL * second)

    def direction(self, g: np.ndarray) -> np.ndarray:
        """P = 2 G M^+, recentred."""
        const = self.const
        mu0, mu, s = self.mean[const], self.mean[~const], self.var[~const]
        mu0_sq = float(np.sum(mu0 * mu0))
        z = np.zeros_like(g)
        if mu0_sq > 0.0:
            tau = np.sum(g[:, const] * mu0, axis=1) / mu0_sq
            z_pos = (g[:, ~const] - np.multiply.outer(tau, mu)) / s
            z[:, const] = np.multiply.outer(tau - np.sum(z_pos * mu, axis=1), mu0 / mu0_sq)
        else:
            u, v = g[:, ~const] / s, mu / s
            z_pos = u - np.multiply.outer(np.sum(u * mu, axis=1) / (1.0 + np.sum(v * mu)), v)
        z[:, ~const] = z_pos
        # recentred without center_columns' finiteness check: on an epoch
        # whose ||G|| overflows P is not finite, and the run stops there
        p = (2.0 / self.n) * z
        return p - p.mean(axis=0)


def _max_abs_column_sum(w: np.ndarray) -> float:
    return float(np.max(np.abs(w.sum(axis=0))))


def _add_blocks(sums: list) -> tuple[float, np.ndarray]:
    """The blocks' pairs (loss and gradient, or row sums), added in block
    order."""
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
    compared.  The first epoch whose loss or ||G|| is not finite stops the
    run with reason "nonfinite", recording what it computed, as do
    returned weights that are not finite; nothing is raised or warned.

    Each epoch is a sum over ``trace.blocks`` fixed column blocks of the
    rows of X that are nonzero in some sample.  ``data`` is either those
    rows, a :class:`~smxreg.core.LiveRows`, read in place, or a
    :class:`~smxreg.core.Dataset`, which costs one scan of X and, if any
    row is zero in every sample, one copy of the live rows for the call
    (:meth:`~smxreg.core.LiveRows.of`), an extra (live rows / D) x
    ``data.x.nbytes``, unless ``cfg.epochs`` is 0.  Both give the same
    bits.  The weights, the trace and the column sums keep all D columns.
    Under bb2 one more pass over the blocks, before the first epoch,
    gathers the live rows' means and variances.

    The blocks, and those of a live-row copy, run under
    :func:`~smxreg.core.block_runner`, which holds OpenBLAS's process-wide
    thread count at one while it pools: a BLAS product that another
    thread of the process runs then is single-threaded too, and can round
    differently.  A one-block or serial run takes BLAS's own count.
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
    # overflow ends a diverging run by the "nonfinite" rule, not a warning
    with block_runner(len(blocks)) as run, np.errstate(over="ignore", invalid="ignore"):
        parts = [(live.data.x[:, cols], live.data.t[:, cols]) for cols in blocks]
        metric = None
        if cfg.bb_mode == "bb2":
            metric = _Metric.of(_add_blocks(run(lambda part: _row_sums(part[0]), parts)),
                                data.n)

        prev_live = prev_g = prev_p = None
        eta = cfg.eta
        for epoch in range(1, cfg.epochs + 1):
            w_live = live.narrow(w)
            cur_loss, g = _add_blocks(run(
                lambda part: forward(w_live @ part[0], part[1], part[0]), parts))
            grad_norm = float(np.linalg.norm(g))
            p = g if metric is None else metric.direction(g)
            if metric is not None and prev_live is not None:
                eta = _bb_step(w_live - prev_live, g - prev_g, p - prev_p, eta)

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

            prev_live, prev_g, prev_p = w_live, g, p
            w = live.widen(w, w_live - eta * p)
    if not np.isfinite(w).all():  # the last epoch's step overflowed
        trace.stop_reason = STOP_NONFINITE
    return w, trace


def evaluate(w, data: Dataset | LiveRows) -> tuple[float, float]:
    """(cross-entropy in nats, classification accuracy), for C x D weights
    ``w``.  On a :class:`~smxreg.core.LiveRows` it reads only the live rows;
    the loss then agrees with the full X's to rounding.

    Accuracy compares per-column argmax of the outputs against argmax of the
    targets; ties resolve to the lowest class index on both sides.  Softmax
    is strictly increasing, so the activation argmax is used directly.
    The loss is :func:`~smxreg.loss_grad.loss`'s, summed per sample.
    Activations that overflow raise :class:`InvalidInputError`, as there.
    """
    if isinstance(data, LiveRows):
        w, data = data.narrow(check_weights(w, data)), data.data
    a = activations(w, data)
    accuracy = float(np.mean(np.argmax(a, axis=0) == np.argmax(data.t, axis=0)))
    return loss_from_activations(a, data.t), accuracy
