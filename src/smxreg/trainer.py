"""Full-batch gradient descent for the softmax cross-entropy objective.

Each epoch runs  A = W X;  Y = softmax(A);  G = (Y - T) X^T  and steps W at
a fixed rate, or under bb2 along a preconditioned Barzilai-Borwein
direction.  :func:`train` states the epoch, its column blocks, the live rows
and the rule that ends a diverging run; :class:`_Metric` and
:func:`_bb_step` state bb2.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (RANK_RTOL, Dataset, InvalidInputError, LiveRows, activations,
                   block_runner, center_columns, check_weights, column_plan, live_rows)
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

    ``eta`` is the fixed rate (``bb_mode`` "off"), or under "bb2" the first
    step's rate in the metric of :class:`_Metric`.  ``seed`` draws the
    initial weights.  Training stops after ``epochs`` epochs, as soon as
    ||grad||_F <= ``tol_grad``, or by the "nonfinite" rule of :func:`train`.
    ``epochs``, ``seed`` and ``log_every`` must be integers (numpy's
    included) of at least 0, 0 and 1.
    """

    eta: float = 0.1
    epochs: int = 100
    bb_mode: str = "off"
    seed: int = 0
    tol_grad: float = 1e-10
    log_every: int = 1

    def __post_init__(self):
        for name, least in (("epochs", 0), ("seed", 0), ("log_every", 1)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < least:
                raise InvalidInputError(f"{name} must be an integer >= {least}, got {value!r}")
        if not 0.0 < self.eta < float("inf"):
            raise InvalidInputError("eta must be finite and positive")
        if self.bb_mode not in BB_MODES:
            raise InvalidInputError(f"bb_mode must be one of {BB_MODES}")
        if not self.tol_grad > 0.0:
            raise InvalidInputError("tol_grad must be positive")


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
    """Logged epoch records, the stop reason, and the counts of live rows
    and of column blocks that each epoch reads (see :func:`train`)."""

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
    gradient and direction changes on the live columns (Molina & Raydan
    1996), by Cauchy-Schwarz in :class:`_Metric`'s metric the shorter of the
    two such rates.  It is ``fallback``, the previous rate, when
    <dg, dp> <= 0 or the rate leaves [``BB_STEP_MIN``, ``BB_STEP_MAX``], as
    it does if <dw, dg> <= 0."""
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
    """bb2's metric: the row-moment model M = N (diag(s) + mu mu^T) of X X^T,
    from the per-row sums of X and X**2 over its N columns, and
    :meth:`direction`, which applies M^+ in closed form in O(CD).

    M keeps the per-row means mu and variances s and drops the covariances:
    the moments of centred, scaled inputs (LeCun et al. 1998, "Efficient
    BackProp").  It takes the mean direction and the row scales out of the
    condition number of X X^T, which the rate of plain descent carries
    squared.  Where the rows are centred and mutually orthogonal M = X X^T,
    and rate 1 is Bohning's majorize-minimize step.

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
    compared.

    A row of X that is zero in every sample adds nothing to A, and G's
    column for it is zero, so an epoch reads only the live rows
    (``trace.live_rows``): A = W_live X_live, and only the step on W_live
    writes W, so a dead column keeps its starting value.  ``data`` is either
    those rows, a :class:`~smxreg.core.LiveRows`, read in place, or a
    :class:`~smxreg.core.Dataset`, which costs one scan of X and, if a row
    is dead, one copy of the live rows for the call
    (:meth:`~smxreg.core.LiveRows.of`), unless ``cfg.epochs`` is 0.  Both
    give the same bits.  The weights, the trace and the column sums keep
    all D columns.  Since 1^T G = 0, the column sums of a centered start
    stay at rounding level; each record holds the largest.

    The loss and G are sums over samples, so an epoch is a sum over the
    ``trace.blocks`` blocks of :func:`~smxreg.core.column_plan` for the live
    rows' bytes: block b gives its loss and G_b = (Y_b - T_b) X_b^T from
    :func:`~smxreg.loss_grad.forward`, reading its columns of X twice while
    they are in cache, and the calling thread adds them in block order.
    The blocks run under :func:`~smxreg.core.block_runner`.  Under "off"
    the step is W_live -= eta G; under "bb2" one more pass, before the
    first epoch, gathers the live rows' moments (:class:`_Metric`), and
    each epoch steps W_live -= eta P, P = 2 G M^+ recentred, at the rate of
    :func:`_bb_step`.

    A diverging run is an outcome the trace records, so one rule ends it:
    the first epoch whose loss or ||G|| is not finite stops the run with
    reason "nonfinite", and its record, the last, holds the loss, ||G|| and
    rate it computed; non-finite A always gives a non-finite loss.  Weights
    that the last step leaves not finite stop the run "nonfinite" too,
    after that epoch's finite record.  The run, pool threads included,
    ignores floating-point overflow; nothing is raised or warned.
    """
    if w0 is None:
        w = initial_weights(data, cfg)
    else:
        w = check_weights(w0, data).copy()

    live = data if isinstance(data, LiveRows) else None
    rows = live_rows(data.x) if live is None else live.rows
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
