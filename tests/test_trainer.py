import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest

from smxreg import core, trainer
from smxreg.convergence import curvature_bracket, plan
from smxreg.core import Dataset, InvalidInputError, LiveRows, center_columns, one_hot
from smxreg.hessian import HessianOperator
from smxreg.loss_grad import loss_from_activations
from smxreg.softmax import shifted_exp, softmax
from smxreg.trainer import (
    BB_MODES,
    BB_STEP_MAX,
    BB_STEP_MIN,
    STOP_EPOCHS,
    STOP_GRAD_TOL,
    STOP_NONFINITE,
    EpochRecord,
    TrainConfig,
    TrainTrace,
    _add_blocks,
    _bb_step,
    _max_abs_column_sum,
    _Metric,
    _row_sums,
    evaluate,
    initial_weights,
    train,
)


def realizable_instance(seed=0, c=2, d=3, n=10, scale=0.5):
    """Targets generated by a known weight matrix, so a minimizer exists."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d, n))
    w_true = scale * rng.standard_normal((c, d))
    return w_true, Dataset(x, softmax(w_true @ x))


def reference_train(data, cfg, w0=None):
    """The descent loop on the full X with its epoch written as softmax,
    then loss_from_activations, then -(T - Y) X^T; under bb2 the direction
    comes from the library's metric of the full X's row sums, where a dead
    row is a constant row of zeros."""
    w = initial_weights(data, cfg) if w0 is None else np.array(w0, dtype=float)
    trace = TrainTrace()
    with np.errstate(over="ignore", invalid="ignore"):
        metric = None
        if cfg.bb_mode == "bb2":
            metric = _Metric.of(_row_sums(data.x), data.n)
        prev_w = prev_g = prev_p = None
        eta = cfg.eta
        for epoch in range(1, cfg.epochs + 1):
            a = w @ data.x
            if np.isfinite(a).all():
                y = softmax(a)
            else:  # softmax refuses these activations: its e / s unchecked
                _, e, s = shifted_exp(a)
                y = e / s
            g = -(data.t - y) @ data.x.T
            cur_loss = loss_from_activations(a, data.t)
            grad_norm = float(np.linalg.norm(g))
            p = g if metric is None else metric.direction(g)
            if metric is not None and prev_w is not None:
                eta = _bb_step(w - prev_w, g - prev_g, p - prev_p, eta)
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
            prev_w, prev_g, prev_p = w, g, p
            w = w - eta * p
    if not np.isfinite(w).all():
        trace.stop_reason = STOP_NONFINITE
    return w, trace


def _same_records(a, b):
    """Records equal field by field, with NaN equal to NaN."""
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(
            [ra.epoch, ra.loss, ra.grad_norm, ra.eta_used, ra.max_abs_column_sum],
            [rb.epoch, rb.loss, rb.grad_norm, rb.eta_used, rb.max_abs_column_sum])


class TestTrainMatchesReferenceEpoch:
    """``train`` takes loss and gradient in one pass; every record and the
    final weights must equal the three-step epoch exactly."""

    @pytest.mark.parametrize("mode", ["off", "bb2"])
    def test_records_and_weights_are_identical(self, mode):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((12, 200))
        t = softmax(rng.standard_normal((5, 200)))
        data = Dataset(x, t)
        cfg = TrainConfig(eta=0.05, epochs=60, bb_mode=mode, seed=3,
                          tol_grad=1e-300, log_every=1)
        w, trace = train(data, cfg)
        w_ref, trace_ref = reference_train(data, cfg)
        assert trace.records == trace_ref.records
        assert trace.stop_reason == trace_ref.stop_reason
        assert np.array_equal(w, w_ref)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mode", ["off", "bb2"])
    @pytest.mark.parametrize("scale,eta,w_scale", [
        # A finite, ||G|| overflows at epoch 1
        (1e160, {"off": 1.0, "bb2": 1.0}, 0.0),
        # the first step sends A = W X past the range; under bb2 that step
        # changes A by about eta whatever X's row scales, so it needs a rate
        # near the largest double
        (1e100, {"off": 1e150, "bb2": 1e308}, 1.0),
    ], ids=["grad_overflow", "activation_overflow"])
    def test_nonfinite_stop_is_identical(self, mode, scale, eta, w_scale):
        data = Dataset(np.array([[scale, -scale], [1.0, 2.0]]), one_hot([1, 2], 2))
        w0 = w_scale * np.array([[0.0, 1.0], [0.0, -1.0]])
        cfg = TrainConfig(eta=eta[mode], epochs=10, bb_mode=mode, tol_grad=1e-300)
        w, trace = train(data, cfg, w0=w0)
        w_ref, trace_ref = reference_train(data, cfg, w0=w0)
        assert trace.stop_reason == trace_ref.stop_reason == STOP_NONFINITE
        _same_records(trace.records, trace_ref.records)
        assert np.array_equal(w, w_ref)


# Epochs of the runs compared with the full-X reference to 1e-12.
_CLOSE_EPOCHS = {"off": 12, "bb2": 8}


def _dead_row_instance(layout, seed=41, c=4, d=12, n=200):
    """X with a constant-1 bias row and two rows that are zero in every
    sample, placed first, in the middle, or last right after the bias row
    (or none, for layout "none"); returns the dataset and the dead rows.
    Row scales spread over a decade, so descent is slow and G stays far
    above rounding level."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d, n)) * np.logspace(0, 1, d)[rng.permutation(d), None]
    bias, dead = {"first": (d - 1, [0, 1]),
                  "middle": (d - 1, [5, 6]),
                  "last": (d - 3, [d - 2, d - 1]),
                  "none": (d - 1, [])}[layout]
    x[bias] = 1.0
    x[dead] = 0.0
    return Dataset(x, softmax(rng.standard_normal((c, n)))), dead


def _start(data, cfg, dead, dead_shift, uncentered_start):
    """(w0 for ``train``, the start it runs from): the seeded start or a
    standard normal one, with ``dead_shift`` added to the dead columns."""
    w0 = None
    start = initial_weights(data, cfg)
    if uncentered_start:
        w0 = start = np.random.default_rng(5).standard_normal((data.c, data.d))
    if dead_shift:
        start[:, dead] += dead_shift
        w0 = start
    return w0, start


def _assert_close_to_reference(trace, trace_ref, w, w_ref):
    """Same stop and epochs; every record field and weight within 1e-12
    relative (column sums, which are round-off, against the weight scale)."""
    assert trace.stop_reason == trace_ref.stop_reason
    assert [r.epoch for r in trace.records] == [r.epoch for r in trace_ref.records]
    scale = np.max(np.abs(w_ref))
    for r, ref in zip(trace.records, trace_ref.records):
        assert r.loss == pytest.approx(ref.loss, rel=1e-12, abs=0)
        assert r.grad_norm == pytest.approx(ref.grad_norm, rel=1e-12, abs=0)
        assert r.eta_used == pytest.approx(ref.eta_used, rel=1e-12, abs=0)
        assert abs(r.max_abs_column_sum - ref.max_abs_column_sum) <= 1e-12 * scale
    assert np.max(np.abs(w - w_ref)) <= 1e-12 * scale


class TestTrainSkipsDeadRows:
    """Epochs read only the rows of X that are nonzero in some sample; the
    run must match the full-X reference loop to rounding, and W's dead
    columns, which no step writes, must equal the start's exactly.

    The two loops sum G, its norm and the Barzilai-Borwein products in a
    different order, and the Barzilai-Borwein rate amplifies that rounding
    difference as G shrinks.  So the runs stop well before G nears rounding
    level: after ``_CLOSE_EPOCHS[mode]`` epochs, 8 under bb2, whose metric
    takes ||G|| down about 3.5 decades in 8 epochs here.

    ``dead_shift`` is added to the start's dead columns: X's zero rows hide
    it from the loss and no step removes it, so it must survive bit for
    bit."""

    @pytest.mark.parametrize("uncentered_start", [False, True])
    @pytest.mark.parametrize("dead_shift", [0, 10])
    @pytest.mark.parametrize("mode", ["off", "bb2"])
    @pytest.mark.parametrize("layout", ["first", "middle", "last"])
    def test_matches_full_x_reference(self, layout, mode, dead_shift,
                                      uncentered_start):
        data, dead = _dead_row_instance(layout)
        cfg = TrainConfig(eta=0.01, epochs=_CLOSE_EPOCHS[mode], bb_mode=mode, seed=3,
                          tol_grad=1e-300)
        w0, start = _start(data, cfg, dead, dead_shift, uncentered_start)
        w, trace = train(data, cfg, w0=w0)
        w_ref, trace_ref = reference_train(data, cfg, w0=w0)
        assert trace.live_rows == data.d - len(dead)
        _assert_close_to_reference(trace, trace_ref, w, w_ref)
        assert np.array_equal(w[:, dead], start[:, dead])

    # 4000-byte blocks cut the 10 or 12 live rows into four blocks
    @pytest.mark.parametrize("block_bytes", [None, 4000], ids=["one_block", "blocks"])
    @pytest.mark.parametrize("uncentered_start", [False, True])
    @pytest.mark.parametrize("dead_shift", [0, 10])
    @pytest.mark.parametrize("mode", ["off", "bb2"])
    @pytest.mark.parametrize("layout", ["first", "middle", "last", "none"])
    def test_live_rows_give_the_dataset_bits(self, monkeypatch, layout, mode,
                                             dead_shift, uncentered_start,
                                             block_bytes):
        if block_bytes:
            monkeypatch.setattr(core, "PARALLEL_MIN_BYTES", block_bytes)
        data, dead = _dead_row_instance(layout)
        rows = np.setdiff1d(np.arange(data.d), dead)
        live = LiveRows(Dataset(data.x[rows], data.t), rows, data.d)
        cfg = TrainConfig(eta=0.01, epochs=12, bb_mode=mode, seed=3,
                          tol_grad=1e-300)
        w0, _ = _start(data, cfg, dead, dead_shift, uncentered_start)
        w, trace = train(data, cfg, w0=w0)
        w_live, trace_live = train(live, cfg, w0=w0)
        assert trace.blocks == (4 if block_bytes else 1)
        assert trace_live == trace
        assert np.array_equal(w_live, w)
        loss, accuracy = evaluate(w, data)
        loss_live, accuracy_live = evaluate(w, live)
        assert loss_live == pytest.approx(loss, rel=1e-12, abs=0)
        assert accuracy_live == accuracy

    @pytest.mark.parametrize("mode", ["off", "bb2"])
    def test_bias_row_is_the_only_live_row(self, mode):
        x = np.zeros((5, 30))
        x[2] = 1.0
        data = Dataset(x, one_hot(np.arange(30) % 3 + 1, 3))
        cfg = TrainConfig(eta=0.01, epochs=12, bb_mode=mode, seed=2,
                          tol_grad=1e-300)
        w, trace = train(data, cfg)
        w_ref, trace_ref = reference_train(data, cfg)
        assert trace.live_rows == 1
        _assert_close_to_reference(trace, trace_ref, w, w_ref)
        dead = [0, 1, 3, 4]
        assert np.array_equal(w[:, dead], initial_weights(data, cfg)[:, dead])

    def test_all_zero_x_stops_at_zero_gradient(self):
        data = Dataset(np.zeros((3, 8)), one_hot([1, 2] * 4, 2))
        cfg = TrainConfig(eta=0.1, epochs=5)
        w, trace = train(data, cfg)
        w_ref, trace_ref = reference_train(data, cfg)
        assert trace.live_rows == 0
        assert trace.stop_reason == trace_ref.stop_reason == STOP_GRAD_TOL
        assert trace.records == trace_ref.records
        assert np.array_equal(w, w_ref)


# Column blocks of at most 6400 bytes: the live rows of a 12 x 200 X span
# three when all 12 are live and two when 10 are.
_BLOCK_BYTES = 12 * 200 * 8 // 3


class TestLiveRowsOf:
    """``LiveRows.of`` fills contiguous row ranges of its buffer; the
    result equals the fancy-indexed copy bit for bit, in order on the
    calling thread and on a pool.  With every row live it copies nothing."""

    @pytest.mark.parametrize("serial_by", ["one_cpu", "no_setter"])
    @pytest.mark.parametrize("layout", ["first", "middle", "last"])
    def test_equals_a_plain_copy_on_both_paths(self, both_paths, pools, layout,
                                               serial_by):
        data, dead = _dead_row_instance(layout)
        rows = np.setdiff1d(np.arange(data.d), dead)
        *lives, submitted = both_paths(lambda: LiveRows.of(data, rows), serial_by)
        # one pool, given a block per row under 64-byte blocks
        assert len(pools) == 1 and submitted == rows.size
        for live in lives:
            assert live.data.x.tobytes() == data.x[rows].tobytes()
            assert live.data.x.flags.c_contiguous and not live.data.x.flags.writeable
            assert live.data.t is data.t
            assert np.array_equal(live.rows, rows) and live.d == data.d

    def test_every_row_live_is_the_dataset_itself(self, pools):
        data, _ = _dead_row_instance("none")
        live = LiveRows.of(data, np.arange(data.d))
        assert live.data is data and live.d == data.d and pools == []


class TestTrainBlocks:
    """An epoch is a sum over fixed column blocks of X.  The blocks give
    the same bits on a pool as in order on the calling thread, and the run
    matches the one-call reference loop to rounding; an X of one block
    makes no pool and keeps the reference's bits."""

    @pytest.mark.parametrize("serial_by", ["one_cpu", "no_setter"])
    @pytest.mark.parametrize("mode", ["off", "bb2"])
    @pytest.mark.parametrize("layout", ["none", "middle"])
    def test_pool_and_serial_are_identical(self, monkeypatch, both_paths, pools, layout,
                                           mode, serial_by):
        monkeypatch.setattr(core, "PARALLEL_MIN_BYTES", _BLOCK_BYTES)
        data, dead = _dead_row_instance(layout)
        cfg = TrainConfig(eta=0.01, epochs=_CLOSE_EPOCHS[mode], bb_mode=mode, seed=3,
                          tol_grad=1e-300)
        (w_s, trace_s), (w_p, trace_p), _ = both_paths(lambda: train(data, cfg), serial_by)
        # the epochs' pool, and the live-row copy's when a row is dead
        assert len(pools) == 1 + (layout != "none")
        # the plan follows the live rows' bytes: 12 x 200 or 10 x 200 doubles
        assert trace_s.blocks == trace_p.blocks == (3 if layout == "none" else 2)
        assert trace_s.live_rows == trace_p.live_rows == 12 - len(dead)
        assert trace_s.records == trace_p.records
        assert np.array_equal(w_s, w_p)
        w_ref, trace_ref = reference_train(data, cfg)
        _assert_close_to_reference(trace_p, trace_ref, w_p, w_ref)

    @pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
    def test_no_thread_outlives_train(self, monkeypatch, both_paths, pools, fail):
        # with ``fail``, the second block run on a pool thread raises, so
        # the serial run returns and the pooled run raises
        error = KeyError("block")
        calls, pooled, lock = [], [], threading.Lock()

        real_forward = trainer.forward

        def forward(a, t, x):
            with lock:
                calls.append(x.shape[1])
                if threading.current_thread() is not threading.main_thread():
                    pooled.append(x.shape[1])
                    if fail and len(pooled) == 2:
                        raise error
            return real_forward(a, t, x)

        rng = np.random.default_rng(31)
        data = Dataset(rng.standard_normal((12, 200)), one_hot(np.arange(200) % 3 + 1, 3))
        cfg = TrainConfig(eta=0.01, epochs=3, tol_grad=1e-300)
        monkeypatch.setattr(core, "PARALLEL_MIN_BYTES", _BLOCK_BYTES)
        monkeypatch.setattr(trainer, "forward", forward)
        before = threading.active_count()
        if fail:
            with pytest.raises(KeyError) as info:
                both_paths(lambda: train(data, cfg))
            assert info.value is error
        else:
            *_, submitted = both_paths(lambda: train(data, cfg))
            assert sorted(calls) == sorted([66, 67, 67] * 3 * 2)
            assert submitted == len(pooled) == 3 * 3
        # every row is live, so the epochs' pool is the only one
        assert len(pools) == 1
        assert threading.active_count() == before

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale,mode,eta,w_scale,stop_epoch", [
        (1e160, "off", 1.0, 0.0, 1),
        (1e100, "off", 1e150, 1.0, 2),
        # the first step itself overflows W
        (1e100, "off", 1e300, 1.0, 2),
        (1.0, "bb2", 1.7e308, 1.0, 2),
    ], ids=["grad_overflow", "activation_overflow", "step_overflow", "bb2_step_overflow"])
    def test_nonfinite_stop_warns_on_no_path(self, monkeypatch, both_paths, pools,
                                             scale, mode, eta, w_scale, stop_epoch):
        # 12 x 200 X: rows 0 and 1 carry the 2-sample overflow instance
        # X = [[scale, -scale], [1, 2]] of TestTrainMatchesReferenceEpoch,
        # repeated, in every block; they are the live rows, so blocks of
        # 1066 bytes cut them into three
        monkeypatch.setattr(core, "PARALLEL_MIN_BYTES", 2 * 200 * 8 // 3)
        x = np.zeros((12, 200))
        x[0], x[1] = np.tile([scale, -scale], 100), np.tile([1.0, 2.0], 100)
        data = Dataset(x, one_hot([1, 2] * 100, 2))
        w0 = np.zeros((2, 12))
        w0[:, 1] = w_scale * np.array([1.0, -1.0])
        cfg = TrainConfig(eta=eta, epochs=10, bb_mode=mode, tol_grad=1e-300)
        (w_s, trace_s), (w_p, trace_p), _ = both_paths(lambda: train(data, cfg, w0=w0))
        # the epochs' pool and the live-row copy's
        assert len(pools) == 2
        assert trace_s.stop_reason == trace_p.stop_reason == STOP_NONFINITE
        assert trace_p.records[-1].epoch == stop_epoch
        assert trace_p.blocks == 3
        _same_records(trace_s.records, trace_p.records)
        assert np.array_equal(w_s, w_p)

    def test_pooled_bits_ignore_the_callers_blas_threads(self, monkeypatch):
        # A pooled run holds OpenBLAS at one thread, so the count its caller
        # set cannot change its bits.  With one block, this run's weights
        # differ between 1 and 2 OpenBLAS threads.
        setter = core._blas_thread_setter()
        if setter is None:
            pytest.skip("numpy's BLAS has no OpenBLAS thread setter")
        monkeypatch.setattr(core, "usable_cpus", lambda: 2)
        monkeypatch.setattr(core, "PARALLEL_MIN_BYTES", 100 * 3000 * 8 // 2)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((100, 3000))
        x[-1] = 1.0
        data = Dataset(x, softmax(rng.standard_normal((10, 100)) @ x))
        cfg = TrainConfig(eta=1e-3, epochs=10, bb_mode="bb2", seed=1, tol_grad=1e-300)
        runs = []
        for threads in (1, 2):
            before = setter(threads)
            try:
                runs.append(train(data, cfg))
            finally:
                setter(before)
        (w_1, trace_1), (w_2, trace_2) = runs
        assert trace_1.blocks == 2
        assert trace_1.records == trace_2.records
        assert np.array_equal(w_1, w_2)

    def test_blocks_add_in_block_order(self):
        # from the right, 2**-53 + 2**-53 would survive the addition to 1
        tiny = 2.0 ** -53
        sums = [(1.0, np.array([1.0])), (tiny, np.array([tiny])),
                (tiny, np.array([tiny]))]
        cost, g = _add_blocks(sums)
        assert cost == 1.0 and g[0] == 1.0

    @pytest.mark.parametrize("mode", ["off", "bb2"])
    def test_one_block_makes_no_pool_and_keeps_reference_bits(self, pools, mode):
        rng = np.random.default_rng(31)
        data = Dataset(rng.standard_normal((12, 200)),
                       softmax(rng.standard_normal((5, 200))))
        cfg = TrainConfig(eta=0.05, epochs=60, bb_mode=mode, seed=3,
                          tol_grad=1e-300)
        w, trace = train(data, cfg)
        w_ref, trace_ref = reference_train(data, cfg)
        assert pools == []
        assert trace.blocks == 1
        assert trace.records == trace_ref.records
        assert np.array_equal(w, w_ref)


class TestTrainMemory:
    """The epoch copies X only when a row is dead, and then only the live
    rows: the traced peak of ``train`` beyond its inputs bounds that."""

    @pytest.mark.parametrize("dead_rows", [0, 50])
    def test_peak_beyond_x(self, dead_rows):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((200, 20000))
        x[:dead_rows] = 0.0
        data = Dataset(x, one_hot(rng.integers(1, 3, size=20000), 2))
        del x
        cfg = TrainConfig(eta=1e-4, epochs=3, bb_mode="bb2")
        tracemalloc.start()
        try:
            train(data, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        live_share = (200 - dead_rows) / 200 if dead_rows else 0.0
        assert peak < (live_share + 0.1) * data.x.nbytes

    def test_live_rows_are_read_in_place(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((150, 20000))
        live = LiveRows(Dataset(x, one_hot(rng.integers(1, 3, size=20000), 2)),
                        np.arange(50, 200), 200)
        del x
        cfg = TrainConfig(eta=1e-4, epochs=3, bb_mode="bb2")
        tracemalloc.start()
        try:
            _, trace = train(live, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.live_rows == 150
        assert peak < 0.1 * live.data.x.nbytes

    def test_zero_epochs_copy_no_rows(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((200, 20000))
        x[:50] = 0.0
        data = Dataset(x, one_hot(rng.integers(1, 3, size=20000), 2))
        del x
        cfg = TrainConfig(eta=1e-4, epochs=0)
        tracemalloc.start()
        try:
            w, trace = train(data, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.live_rows == 150
        assert trace.records == []
        assert np.array_equal(w, initial_weights(data, cfg))
        assert peak < 0.1 * data.x.nbytes


class TestTrainConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(InvalidInputError):
            TrainConfig(eta=0.0)
        with pytest.raises(InvalidInputError):
            TrainConfig(epochs=-1)
        with pytest.raises(InvalidInputError):
            TrainConfig(bb_mode="bb3")
        with pytest.raises(InvalidInputError):
            TrainConfig(tol_grad=0.0)
        with pytest.raises(InvalidInputError):
            TrainConfig(log_every=0)
        with pytest.raises(InvalidInputError, match="^seed must be an integer >= 0, got -1$"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("eta", [float("inf"), float("nan"), -1.0])
    def test_eta_must_be_finite_and_positive(self, eta):
        with pytest.raises(InvalidInputError, match="eta must be finite and positive"):
            TrainConfig(eta=eta)

    @pytest.mark.parametrize("field", ["epochs", "seed", "log_every"])
    def test_integer_fields_refuse_a_float(self, field):
        # 2.5 epochs would reach range(), 1.5 SeedSequence, and a log_every
        # of 1.5 would log at epochs 3, 6, ...
        least = 1 if field == "log_every" else 0
        with pytest.raises(InvalidInputError,
                           match=f"^{field} must be an integer >= {least}, got 1.5$"):
            TrainConfig(**{field: 1.5})

    def test_integer_fields_take_numpy_integers(self):
        cfg = TrainConfig(epochs=np.int64(3), seed=np.uint32(4), log_every=np.int8(2))
        assert train(Dataset(np.eye(2), one_hot([1, 2], 2)), cfg)[1].records[-1].epoch == 3

    def test_bb1_is_refused_naming_the_modes(self):
        assert BB_MODES == ("off", "bb2")
        with pytest.raises(InvalidInputError, match=r"\('off', 'bb2'\)"):
            TrainConfig(bb_mode="bb1")

    def test_knobs_are_pinned(self):
        # a new knob must be added here as well, so it is visible in review
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "eta", "epochs", "bb_mode", "seed", "tol_grad", "log_every"]


class TestTrain:
    def test_zero_epochs_returns_centered_init(self):
        _, data = realizable_instance()
        w, trace = train(data, TrainConfig(eta=0.1, epochs=0))
        assert trace.records == []
        assert trace.stop_reason == STOP_EPOCHS
        assert np.max(np.abs(w.sum(axis=0))) <= 1e-12
        assert np.array_equal(w, initial_weights(data, TrainConfig(eta=0.1, epochs=0)))

    def test_stops_on_gradient_tolerance(self):
        _, data = realizable_instance()
        cfg = TrainConfig(eta=0.2, epochs=50000, tol_grad=1e-9, log_every=500)
        w, trace = train(data, cfg)
        assert trace.stop_reason == STOP_GRAD_TOL
        assert trace.records[-1].grad_norm <= 1e-9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_stop_is_recorded_not_raised(self):
        data = Dataset(np.array([[1e160, -1e160]]), one_hot([1, 2], 2))
        cfg = TrainConfig(eta=1.0, epochs=10, tol_grad=1e-300)
        w, trace = train(data, cfg, w0=np.zeros((2, 1)))
        assert trace.stop_reason == STOP_NONFINITE
        last = trace.records[-1]
        assert not (np.isfinite(last.loss) and np.isfinite(last.grad_norm))
        # records before the stop are finite
        for r in trace.records[:-1]:
            assert np.isfinite(r.loss)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("epochs", [1, 2])
    def test_overflowing_last_step_stops_nonfinite(self, epochs):
        # epoch 1 is finite and its step overflows W: with one epoch that
        # step is the run's last, with two the next epoch's A overflows
        data = Dataset(np.array([[1e100, -1e100], [1.0, 2.0]]), one_hot([1, 2], 2))
        w, trace = train(data, TrainConfig(eta=1e300, epochs=epochs, tol_grad=1e-300))
        assert trace.stop_reason == STOP_NONFINITE
        assert [r.epoch for r in trace.records] == list(range(1, epochs + 1))
        assert np.isfinite(trace.records[0].loss)
        assert not np.isfinite(w).all()

    @pytest.mark.filterwarnings("error")
    def test_nonfinite_stop_records_the_epochs_gradient(self):
        # A = [[-inf, -1e10], [0, 0]]: -inf without +inf or NaN makes the
        # loss NaN (0 * -inf), while Y = T in both columns, so G is 0
        data = Dataset(np.array([[1e300, 1.0]]), one_hot([2, 2], 2))
        cfg = TrainConfig(eta=1.0, epochs=5, tol_grad=1e-300)
        w, trace = train(data, cfg, w0=np.array([[-1e10], [0.0]]))
        assert trace.stop_reason == STOP_NONFINITE
        (last,) = trace.records
        assert np.isnan(last.loss) and last.grad_norm == 0.0
        assert np.array_equal(w, [[-1e10], [0.0]])

    @pytest.mark.parametrize("seed,epochs", [(1, 500), (5, 2000)])
    def test_column_sums_stay_tiny(self, seed, epochs):
        # initialized in Z: the exact iteration keeps column sums at zero,
        # so only round-off drift can appear
        _, data = realizable_instance(seed=seed)
        cfg = TrainConfig(eta=0.2, epochs=epochs, tol_grad=1e-14)
        _, trace = train(data, cfg)
        assert max(r.max_abs_column_sum for r in trace.records) <= 1e-8

    def test_loss_nonincreasing_at_certified_rate(self):
        # the plan anchored at the minimizer certifies eta*; descent from the
        # standard init never increases the loss at that rate
        _, data = realizable_instance(seed=2, scale=0.3)
        w_hat, _ = train(data, TrainConfig(eta=0.2, epochs=30000, tol_grad=1e-12))
        br = curvature_bracket(HessianOperator(data, w_hat))
        p = plan(br.low, br.high)
        cfg = TrainConfig(eta=p.eta_optimal, epochs=300, tol_grad=1e-15,
                          log_every=1)
        _, trace = train(data, cfg)
        losses = [r.loss for r in trace.records]
        for before, after in zip(losses, losses[1:]):
            assert after <= before + 1e-12

    def test_bit_reproducible(self):
        _, data = realizable_instance(seed=3)
        cfg = TrainConfig(eta=0.1, epochs=40, seed=7)
        w1, t1 = train(data, cfg)
        w2, t2 = train(data, cfg)
        assert np.array_equal(w1, w2)
        assert t1.records == t2.records

    def test_shift_equivariance(self):
        rng = np.random.default_rng(4)
        _, data = realizable_instance(seed=4)
        w0 = rng.standard_normal((2, 3))
        shift = np.outer(np.ones(2), rng.standard_normal(3))
        cfg = TrainConfig(eta=0.1, epochs=60, tol_grad=1e-300)
        wa, ta = train(data, cfg, w0=w0)
        wb, tb = train(data, cfg, w0=w0 + shift)
        for ra, rb in zip(ta.records, tb.records):
            assert abs(ra.loss - rb.loss) <= 1e-10
        assert np.max(np.abs(softmax(wa @ data.x) - softmax(wb @ data.x))) <= 1e-10
        assert np.max(np.abs(center_columns(wa) - center_columns(wb))) <= 1e-10

    def test_bb_modes_reach_tolerance_faster_than_first_log(self):
        _, data = realizable_instance(seed=6)
        cfg = TrainConfig(eta=0.01, epochs=2000, bb_mode="bb2",
                          tol_grad=1e-10, log_every=1)
        _, trace = train(data, cfg)
        assert trace.stop_reason == STOP_GRAD_TOL
        losses = [r.loss for r in trace.records]
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize("layout", ["first", "last"])
    def test_bb2_descends_from_uncentered_start(self, layout):
        # W moves only by -eta G, so a Barzilai-Borwein pair holds no column
        # shift that G did not make, and bb2 keeps descending here
        data, _ = _dead_row_instance(layout)
        w0 = np.random.default_rng(5).standard_normal((data.c, data.d))
        cfg = TrainConfig(eta=0.002, epochs=20, bb_mode="bb2", log_every=1)
        _, trace = train(data, cfg, w0=w0)
        losses = [r.loss for r in trace.records]
        assert len(losses) == 20
        assert max(losses) <= losses[0]

    def test_bb_safeguard_keeps_step_bounded(self):
        _, data = realizable_instance(seed=7)
        cfg = TrainConfig(eta=0.05, epochs=500, bb_mode="bb2", tol_grad=1e-12)
        _, trace = train(data, cfg)
        for r in trace.records:
            assert 1e-12 <= r.eta_used <= 1e12


def _dependent_row_teacher(seed=911, c=4, d=20, n=600):
    """A teacher-style problem whose X has rows with means in [-1, 1], a
    row equal to the sum of rows 2 and 5 and a bias row (rank d + 1 of
    d + 2), and X's unit left null vector v."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d, n)) + rng.uniform(-1.0, 1.0, (d, 1))
    x = np.vstack([x, x[2] + x[5], np.ones((1, n))])
    v = np.zeros(d + 2)
    v[[2, 5, d]] = [1.0, 1.0, -1.0]
    data = Dataset(x, softmax(0.5 * rng.standard_normal((c, d + 2)) @ x))
    return data, v / np.linalg.norm(v)


class TestStepsStayInS:
    """G's rows lie in range(X) and its columns sum to 0, so a step along G
    keeps W - W0 in S = Z kron range(X) on a rank-deficient X."""

    # off at 5e-4, below Bohning's certified rate 4 / ||X||^2 = 7.9e-4
    CONFIGS = {"off": dict(eta=5e-4, epochs=300), "bb2": dict(eta=1e-3, epochs=300)}

    def _weight_change(self, mode):
        data, v = _dependent_row_teacher()
        cfg = TrainConfig(bb_mode=mode, tol_grad=1e-10, **self.CONFIGS[mode])
        w, trace = train(data, cfg)
        dw = w - initial_weights(data, cfg)
        assert trace.stop_reason != STOP_NONFINITE
        assert np.linalg.norm(dw) > 1.0
        return dw, v

    @pytest.mark.parametrize("mode", ["off", "bb2"])
    def test_column_sums_stay_at_rounding_level(self, mode):
        dw, _ = self._weight_change(mode)
        assert np.max(np.abs(dw.sum(axis=0))) <= 1e-13 * np.linalg.norm(dw)

    @pytest.mark.parametrize("mode", ["off", pytest.param("bb2", marks=pytest.mark.xfail(
        strict=True, reason="bb2's row-moment metric N (diag(s) + mu mu^T) does not map "
                            "range(X) into itself when a row of X is a sum of others"))])
    def test_rows_stay_in_the_range_of_x(self, mode):
        dw, v = self._weight_change(mode)
        assert np.linalg.norm(dw @ v) <= 1e-12 * np.linalg.norm(dw)


def _dense_metric(metric):
    """M = N (diag(s) + mu mu^T) as a dense matrix, s taken as 0 on the
    metric's constant rows."""
    s = np.where(metric.const, 0.0, metric.var)
    return metric.n * (np.diag(s) + np.outer(metric.mean, metric.mean))


def _metric_layout(layout, seed=23, d=9, n=300):
    """X of d rows with means in [-1, 1] and scales over a decade: no
    constant row, a bias row, a bias row plus a constant 0.3 row (M is then
    singular), or a bias row and two rows of zeros."""
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal((d, n)) + rng.uniform(-1.0, 1.0, (d, 1))) \
        * np.logspace(0, 1, d)[:, None]
    if layout != "no_constant":
        x[d - 1] = 1.0
    if layout == "bias_and_0.3":
        x[2] = 0.3
    if layout == "dead_rows":
        x[[1, 4]] = 0.0
    return x


class TestMetric:
    """bb2's direction P = 2 G M^+, recentred, with M the row-moment model
    of X X^T, applied in closed form."""

    @pytest.mark.parametrize("layout", ["no_constant", "bias", "bias_and_0.3",
                                        "dead_rows"])
    def test_closed_form_is_the_pseudoinverse(self, layout):
        x = _metric_layout(layout)
        metric = _Metric.of(_row_sums(x), x.shape[1])
        expected_const = {"no_constant": [], "bias": [8], "bias_and_0.3": [2, 8],
                          "dead_rows": [1, 4, 8]}[layout]
        assert list(np.flatnonzero(metric.const)) == expected_const
        g = center_columns(np.random.default_rng(3).standard_normal((4, x.shape[0])))
        if layout == "dead_rows":
            g[:, [1, 4]] = 0.0  # G has no component on a dead row
        p = metric.direction(g)
        p_oracle = center_columns(2.0 * g @ np.linalg.pinv(_dense_metric(metric)))
        assert np.max(np.abs(p - p_oracle)) <= 1e-12 * np.max(np.abs(p_oracle))
        if layout == "dead_rows":
            # the full-X reference agrees with the live rows train reads
            rows = np.setdiff1d(np.arange(x.shape[0]), [1, 4])
            live = _Metric.of(_row_sums(x[rows]), x.shape[1])
            assert np.max(np.abs(p[:, rows] - live.direction(g[:, rows]))) \
                <= 1e-12 * np.max(np.abs(p))
            assert np.all(p[:, [1, 4]] == 0.0)

    def test_exact_on_centred_orthogonal_rows(self):
        # centred, mutually orthogonal rows and a bias row: M = X X^T, so
        # P = 2 G (X X^T)^{-1} and rate 1 is Bohning's majorize-minimize
        # step, which lowers the loss from any start
        rng = np.random.default_rng(8)
        n, d, c = 400, 6, 4
        g = rng.standard_normal((n, d - 1))
        q, _ = np.linalg.qr(g - g.mean(axis=0))
        x = np.vstack([(np.sqrt(n) * np.logspace(0, 1, d - 1))[:, None] * q.T,
                       np.ones((1, n))])
        data = Dataset(x, softmax(rng.standard_normal((c, d)) @ x))
        metric = _Metric.of(_row_sums(x), n)
        cfg = TrainConfig(eta=1.0, epochs=1, bb_mode="bb2", tol_grad=1e-300)
        for seed in range(3):
            w0 = 3.0 * center_columns(np.random.default_rng(seed).standard_normal((c, d)))
            y = softmax(w0 @ x)
            grad = (y - data.t) @ x.T
            p_exact = center_columns(2.0 * grad @ np.linalg.inv(x @ x.T))
            p = metric.direction(grad)
            assert np.max(np.abs(p - p_exact)) <= 1e-12 * np.max(np.abs(p_exact))
            w1, trace = train(data, cfg, w0=w0)
            assert np.max(np.abs(w1 - (w0 - p_exact))) <= 1e-12 * np.max(np.abs(w0))
            assert loss_from_activations(w1 @ x, data.t) < trace.records[0].loss

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("row", [[1e160, 2e160], [1e308, 1.5e308]],
                             ids=["mean_squared", "sum"])
    def test_moments_that_overflow_stop_without_a_warning(self, row):
        # the row's mean squared, or its sum, overflows, and so does ||G||
        # at epoch 1, where the run stops as before the metric
        data = Dataset(np.array([row, [1.0, 2.0]]), one_hot([1, 2], 2))
        cfg = TrainConfig(eta=1.0, epochs=5, bb_mode="bb2", tol_grad=1e-300)
        _, trace = train(data, cfg)
        assert trace.stop_reason == STOP_NONFINITE
        assert [r.epoch for r in trace.records] == [1]

    def test_epochs_to_tolerance_are_pinned(self):
        # a teacher-shaped problem whose rows have means in [-1, 1] and
        # scales 0.9**i: the rule before the metric, <dW, dG> / <dG, dG>
        # with steps along G, took 2784 epochs here
        rng = np.random.default_rng(0)
        d, n = 40, 2000
        x = 0.9 ** np.arange(d - 1)[:, None] \
            * (rng.standard_normal((d - 1, n)) + rng.uniform(-1.0, 1.0, (d - 1, 1)))
        x = np.vstack([x, np.ones((1, n))])
        data = Dataset(x, softmax(0.5 * rng.standard_normal((5, d)) @ x))
        cfg = TrainConfig(eta=1e-3, epochs=2784 // 5, bb_mode="bb2", tol_grad=1e-6,
                          log_every=1000)
        _, trace = train(data, cfg)
        assert trace.stop_reason == STOP_GRAD_TOL
        assert trace.records[-1].epoch <= 56


class TestBbStep:
    """The Barzilai-Borwein rate <dw, dg> / <dg, dp> and each of its
    safeguards, on hand-computed pairs with dp = dg, with fallback 0.5."""

    @pytest.mark.parametrize("dw,dg,expected", [
        ([[3.0, 1.0]], [[1.0, 1.0]], 2.0),                # 4 / 2
        ([[1.0, -2.0], [0.5, 0.0]], [[2.0, 0.0], [0.0, 4.0]], 0.1),  # 2 / 20
        ([[1.0, 2.0]], [[0.0, 0.0]], 0.5),                # dg = 0
        ([[1.0, 0.0]], [[-1.0, 0.0]], 0.5),               # <dw, dg> < 0
        ([[1.0, 0.0]], [[0.0, 1.0]], 0.5),                # <dw, dg> = 0
        ([[BB_STEP_MIN]], [[1.0]], BB_STEP_MIN),          # both ends are kept
        ([[BB_STEP_MAX]], [[1.0]], BB_STEP_MAX),
        ([[1e-14]], [[1.0]], 0.5),                        # below BB_STEP_MIN
        ([[1e14]], [[1.0]], 0.5),                         # above BB_STEP_MAX
    ], ids=["exact", "exact_2x2", "zero_dg", "negative_curvature",
            "orthogonal", "at_min", "at_max", "below_min", "above_max"])
    def test_rate_and_safeguards(self, dw, dg, expected):
        assert _bb_step(np.array(dw), np.array(dg), np.array(dg), 0.5) == expected


class TestEvaluate:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((3, 4))
        x = rng.standard_normal((4, 6))
        y = softmax(w @ x)
        data = Dataset(x, one_hot(np.argmax(y, axis=0) + 1, 3))
        loss_val, acc = evaluate(w, data)
        assert acc == 1.0
        assert loss_val > 0.0

    def test_zero_weights_tie_break(self):
        data = Dataset(np.ones((2, 4)), one_hot([1, 1, 2, 2], 3))
        loss_val, acc = evaluate(np.zeros((3, 2)), data)
        # uniform outputs: argmax ties resolve to class 1
        assert acc == 0.5
        assert loss_val == pytest.approx(4 * np.log(3), rel=1e-12)

    def test_matches_brute_force_count(self):
        rng = np.random.default_rng(9)
        w = rng.standard_normal((4, 5))
        x = rng.standard_normal((5, 30))
        t = softmax(rng.standard_normal((4, 30)))
        data = Dataset(x, t)
        _, acc = evaluate(w, data)
        y = softmax(w @ x)
        hits = 0
        for n in range(30):
            if int(np.argmax(y[:, n])) == int(np.argmax(t[:, n])):
                hits += 1
        assert acc == pytest.approx(hits / 30)
        assert 0.0 <= acc <= 1.0

    def test_columns_past_the_float_range_give_no_warning(self):
        # the certify_saturated data of the CLI's strict-JSON test, with
        # W X finite but spread past the float range in the columns of large
        # |x0|: the shift overflows to -inf there without a warning (the
        # suite turns warnings into errors), and every sample, classified
        # right, adds exactly 0 to the loss, which is summed per sample
        feats = np.random.default_rng(0).standard_normal((40, 3))
        x = np.vstack([feats.T, np.ones((1, 40))])
        data = Dataset(x, one_hot((feats[:, 0] > 0) + 1, 2))
        k = 0.9 * np.finfo(float).max / np.max(np.abs(x[0]))
        w = np.array([[-k, 0.0, 0.0, 0.0], [k, 0.0, 0.0, 0.0]])
        a = w @ x
        assert np.all(np.isfinite(a)) and np.array_equal(a[0], -a[1])
        assert np.sum(np.abs(a[1]) > np.finfo(float).max / 2) >= 5
        loss_val, acc = evaluate(w, data)
        assert loss_val == 0.0
        assert acc == 1.0
        assert np.array_equal(softmax(a), one_hot((feats[:, 0] > 0) + 1, 2))
