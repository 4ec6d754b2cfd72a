import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smxreg import core
from smxreg.convergence import reduce_two_class
from smxreg.core import (
    Dataset,
    DimensionMismatchError,
    InvalidInputError,
    InvalidLabelError,
    as_matrix,
    block_runner,
    center_columns,
    column_blocks,
    freeze,
    one_hot,
)
from smxreg.hessian import HessianOperator
from smxreg.loss_grad import error_covariance, gradient, loss
from smxreg.trainer import TrainConfig, evaluate, train


class TestCenterColumns:
    def test_small_example(self):
        assert np.array_equal(
            center_columns([[1, 2], [3, 4]]), [[-1.0, -1.0], [1.0, 1.0]]
        )

    def test_pure_shift_maps_to_zero(self):
        w = np.outer(np.ones(3), [5.0, -2.0, 0.25, 7.0])
        assert np.array_equal(center_columns(w), np.zeros((3, 4)))

    def test_columns_sum_to_zero_and_minimal_norm(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((3, 4))
        out = center_columns(w)
        assert np.max(np.abs(out.sum(axis=0))) < 1e-12
        # among the equivalence class w + ones c^T, the centered matrix has
        # the smallest Frobenius norm
        for _ in range(100):
            c = rng.standard_normal(4)
            shifted = w + np.outer(np.ones(3), c)
            assert np.linalg.norm(out) <= np.linalg.norm(shifted) + 1e-12

    def test_idempotent_to_one_ulp(self):
        # exact fixed points are unattainable in floats: recentering shaves
        # an eps-sized residual mean off every entry
        rng = np.random.default_rng(1)
        for _ in range(50):
            w = rng.standard_normal((4, 6)) * 10.0 ** rng.integers(-3, 4)
            once = center_columns(w)
            twice = center_columns(once)
            scale = np.max(np.abs(once)) + 1e-300
            assert np.max(np.abs(twice - once)) <= 4e-16 * scale

    @settings(max_examples=50)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_shift_invariance(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((3, 5))
        c = rng.standard_normal(5)
        shifted = w + np.outer(np.ones(3), c)
        assert np.max(np.abs(center_columns(shifted) - center_columns(w))) < 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            center_columns([[1.0, np.nan], [0.0, 1.0]])


class TestOneHot:
    def test_examples(self):
        assert np.array_equal(one_hot([1, 2], 2), [[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(one_hot([3], 3), [[0.0], [0.0], [1.0]])
        assert np.array_equal(one_hot([1, 1, 1], 2), [[1, 1, 1], [0, 0, 0]])

    def test_column_stochastic_and_binary(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(1, 7, size=40)
        t = one_hot(labels, 6)
        assert np.array_equal(t.sum(axis=0), np.ones(40))
        assert set(np.unique(t)) <= {0.0, 1.0}

    def test_out_of_range_label_reports_index(self):
        with pytest.raises(InvalidLabelError) as exc:
            one_hot([1, 2, 5], 4)
        assert exc.value.index == 2
        with pytest.raises(InvalidLabelError):
            one_hot([0], 3)

    def test_non_integer_label_reports_index(self):
        with pytest.raises(InvalidLabelError) as exc:
            one_hot([2, 1.5, 7], 4)
        assert exc.value.index == 1

    def test_empty_labels_give_empty_columns(self):
        assert one_hot([], 3).shape == (3, 0)

    @settings(max_examples=50)
    @given(st.lists(st.integers(-1, 6) | st.floats(-1.0, 6.0), max_size=12),
           st.integers(2, 5))
    def test_matches_loop_reference(self, labels, c):
        try:
            expected = _one_hot_loop(labels, c)
        except InvalidLabelError as exc:
            with pytest.raises(InvalidLabelError) as got:
                one_hot(labels, c)
            assert got.value.index == exc.index
        else:
            assert np.array_equal(one_hot(labels, c), expected)


def _one_hot_loop(labels, c):
    """Per-label reference for :func:`one_hot`."""
    out = np.zeros((c, len(labels)))
    for n, lab in enumerate(labels):
        k = int(lab)
        if k != lab or not 1 <= k <= c:
            raise InvalidLabelError(f"label {lab!r} at position {n}", n)
        out[k - 1, n] = 1.0
    return out


# The layouts the finite probe must handle: C order, F order, and a view
# whose rows and columns are both strided.
_LAYOUTS = [
    lambda x: x,
    np.asfortranarray,
    lambda x: np.repeat(np.repeat(x, 2, axis=0), 3, axis=1)[::2, ::3],
]
_LAYOUT_IDS = ["c-order", "fortran-order", "strided"]


class TestAsMatrix:
    def test_finite_entries_whose_sum_overflows_are_accepted(self):
        out = as_matrix([[1e308, 1e308]])
        assert np.array_equal(out, [[1e308, 1e308]])

    @pytest.mark.parametrize("bad", [
        [[1.0, np.nan]], [[np.inf, 2.0]], [[np.inf, -np.inf]], [[1e308, 1e308, np.nan]],
    ], ids=["nan", "inf", "inf_and_minus_inf", "overflow_and_nan"])
    def test_nonfinite_entries_are_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="^x contains non-finite entries$"):
            as_matrix(bad, "x")

    @pytest.mark.parametrize("layout", _LAYOUTS, ids=_LAYOUT_IDS)
    @pytest.mark.parametrize("value, ok", [
        (np.nan, False), (np.inf, False), (-np.inf, False), (1e308, True),
    ], ids=["nan", "inf", "minus_inf", "sum_overflows"])
    def test_every_layout_is_probed(self, layout, value, ok):
        # row 2 holds the value twice, so 1e308 overflows that row's sum
        x = np.arange(24.0).reshape(4, 6)
        x[2, 1] = x[2, 4] = value
        x = layout(x)
        if ok:
            assert np.array_equal(as_matrix(x), x)
        else:
            with pytest.raises(InvalidInputError, match="non-finite"):
                as_matrix(x)

    @pytest.mark.parametrize("layout", _LAYOUTS, ids=_LAYOUT_IDS)
    def test_probe_allocates_o_d_plus_n(self, layout):
        x = layout(np.random.default_rng(0).standard_normal((400, 3000)))
        d, n = x.shape
        tracemalloc.start()
        try:
            as_matrix(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (d + n) + 4096 < x.nbytes // 50


class TestDataset:
    def test_valid_soft_labels(self):
        t = np.array([[0.25, 0.5], [0.75, 0.5]])
        data = Dataset(np.ones((2, 2)), t)
        assert data.d == 2 and data.c == 2 and data.n == 2

    def test_rejects_bad_column_sums(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.ones((2, 1)), np.array([[0.6], [0.5]]))

    def test_rejects_entries_outside_unit_interval(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.ones((2, 1)), np.array([[1.5], [-0.5]]))

    def test_rejects_nonfinite_features(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.array([[np.inf], [0.0]]), np.array([[1.0], [0.0]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Dataset(np.ones((2, 3)), np.array([[1.0], [0.0]]))

    def test_arrays_are_read_only(self):
        data = Dataset(np.ones((2, 2)), np.eye(2))
        with pytest.raises(ValueError):
            data.x[0, 0] = 5.0


class TestDatasetAdoption:
    T = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])

    def test_frozen_owned_c_array_is_adopted(self):
        x = freeze(np.arange(6.0).reshape(2, 3).copy())
        t = freeze(self.T.copy())
        data = Dataset(x, t)
        assert np.shares_memory(data.x, x)
        assert np.shares_memory(data.t, t)

    def test_writeable_array_is_copied(self):
        x = np.arange(6.0).reshape(2, 3)
        data = Dataset(x, self.T)
        x[0, 0] = 99.0
        assert data.x[0, 0] == 0.0
        assert not np.shares_memory(data.x, x)

    @pytest.mark.parametrize("make", [
        lambda: np.frombuffer(np.arange(6.0).tobytes()).reshape(2, 3),
        lambda: freeze(np.arange(12.0).reshape(2, 6))[:, ::2],
        lambda: freeze(np.asfortranarray(np.arange(6.0).reshape(2, 3))),
    ], ids=["frombuffer", "frozen-slice", "fortran-order"])
    def test_views_and_other_layouts_are_copied(self, make):
        x = make()
        assert not x.flags.writeable
        data = Dataset(x, self.T)
        assert not np.shares_memory(data.x, x)
        assert data.x.flags.c_contiguous and not data.x.flags.writeable
        assert np.array_equal(data.x, x)

    def test_fortran_order_copy_is_the_same_on_both_paths(self, both_paths):
        # 3001 columns: a multiple of neither block count
        x = freeze(np.asfortranarray(np.random.default_rng(8).standard_normal((5, 3001))))
        t = one_hot(np.arange(3001) % 2 + 1, 2)
        serial, parallel, submitted = both_paths(lambda: Dataset(x, t))
        assert submitted == 6  # x and t, three blocks each
        for data in (serial, parallel):
            assert data.x.flags.c_contiguous and not data.x.flags.writeable
        assert serial.x.tobytes() == parallel.x.tobytes() == np.ascontiguousarray(x).tobytes()
        assert np.array_equal(serial.t, parallel.t)

    def test_frozen_nonfinite_array_is_rejected(self):
        x = freeze(np.array([[np.inf, 0.0, 1.0], [0.0, 1.0, 2.0]]))
        with pytest.raises(InvalidInputError):
            Dataset(x, self.T)


class TestActivationsCheck:
    """Every entry point that forms W X rejects an overflowing product with
    one InvalidInputError and no floating-point warning."""

    DATA = Dataset(np.array([[1e300, 1.0]]), one_hot([1, 2], 2))

    @pytest.mark.parametrize("call", [
        loss,
        gradient,
        lambda w, data: HessianOperator(data, w),
        reduce_two_class,
        evaluate,
    ], ids=["loss", "gradient", "HessianOperator", "reduce_two_class", "evaluate"])
    def test_overflow_raises(self, call):
        with pytest.raises(InvalidInputError, match="activations contain non-finite"):
            call(np.array([[1e10], [0.0]]), self.DATA)


class TestWeightShapeCheck:
    """Every entry point that takes weights W, or a Hessian direction U,
    rejects one that is not C x D with DimensionMismatchError naming both
    shapes."""

    DATA = Dataset(np.arange(15.0).reshape(3, 5) % 4, one_hot([1, 2, 1, 2, 2], 2))

    @pytest.mark.parametrize("call", [
        loss,
        gradient,
        error_covariance,
        lambda w, data: HessianOperator(data, w),
        lambda w, data: train(data, TrainConfig(epochs=1), w0=w),
        evaluate,
        reduce_two_class,
        lambda u, data: HessianOperator(data, np.zeros((2, 3))).apply(u),
        lambda u, data: HessianOperator(data, np.zeros((2, 3))).quadratic_form(u),
        lambda u, data: HessianOperator(data, np.zeros((2, 3))).kernel_test(u),
    ], ids=["loss", "gradient", "error_covariance", "HessianOperator", "train_w0",
            "evaluate", "reduce_two_class", "apply", "quadratic_form", "kernel_test"])
    @pytest.mark.parametrize("shape", [(2, 4), (3, 3)], ids=["D+1", "C+1"])
    def test_wrong_shape_raises(self, call, shape):
        with pytest.raises(DimensionMismatchError, match=r"\(2, 3\)") as info:
            call(np.zeros(shape), self.DATA)
        assert str(shape) in str(info.value)


class TestColumnBlocks:
    def test_blocks_cover_every_column_once_on_pool_threads(self, forced_parallel):
        seen, lock = [], threading.Lock()

        def record(cols):
            with lock:
                seen.append((cols, threading.get_ident()))

        column_blocks(record, 10, 0)
        assert sorted((c.start, c.stop) for c, _ in seen) == [(0, 3), (3, 6), (6, 10)]
        assert threading.get_ident() not in {ident for _, ident in seen}

    @pytest.mark.parametrize("cpus, n, floor", [
        (1, 10, 0), (3, 10, 1001), (3, 1, 0), (3, 0, 0),
    ], ids=["one-cpu", "below-the-size-constant", "one-column", "no-columns"])
    def test_serial_path_is_one_call_on_the_calling_thread(self, monkeypatch, cpus,
                                                           n, floor):
        monkeypatch.setattr(core, "PARALLEL_MIN_BYTES", floor)
        monkeypatch.setattr(core, "usable_cpus", lambda: cpus)
        calls = []
        column_blocks(lambda cols: calls.append((cols, threading.get_ident())), n, 1000)
        assert calls == [(slice(0, n), threading.get_ident())]

    def test_usable_cpus_follows_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0, 5, 7},
                            raising=False)
        assert core.usable_cpus() == 3

    @pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
    def test_no_thread_outlives_the_call(self, forced_parallel, fail):
        error = KeyError("block")

        def block(cols):
            if fail and cols.start > 0:
                raise error

        before = threading.active_count()
        if fail:
            with pytest.raises(KeyError) as info:
                column_blocks(block, 9, 0)
            assert info.value is error
        else:
            column_blocks(block, 9, 0)
        assert threading.active_count() == before

    def test_blocks_run_in_the_callers_errstate(self, forced_parallel):
        # numpy 2 keeps np.errstate in a context variable; pytest turns the
        # overflow warning into an error if a block runs without it
        big = np.full(4, 1e308)

        def overflow(cols):
            np.multiply(big[cols], 10.0)

        with np.errstate(over="ignore"):
            column_blocks(overflow, 4, 0)


class TestBlockRunner:
    """``block_runner`` runs calls on a pool with OpenBLAS held to one
    thread, and puts the process's thread count back afterwards."""

    @staticmethod
    def _count(setter):
        count = setter(1)
        setter(count)
        return count

    def test_blas_count_is_one_inside_and_restored(self, monkeypatch):
        setter = core._blas_thread_setter()
        if setter is None:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        monkeypatch.setattr(core, "usable_cpus", lambda: 3)
        before = self._count(setter)
        with block_runner(4) as run:
            inside = run(lambda i: self._count(setter), range(4))
        assert inside == [1] * 4
        assert self._count(setter) == before

    @pytest.mark.parametrize("maps", [
        None,
        "7f00-7f01 r-xp 0 00:00 1 /gone/libopenblas.so (deleted)\n",
        "7f00-7f01 rw-p 0 00:00 0\n",
    ], ids=["no-maps", "deleted-library", "no-openblas"])
    def test_no_setter_without_a_loadable_openblas(self, monkeypatch, maps):
        class FakePath:
            def __init__(self, path):
                pass

            def read_text(self):
                if maps is None:
                    raise OSError("no /proc")
                return maps

        monkeypatch.setattr(core, "Path", FakePath)
        assert core._blas_thread_setter.__wrapped__() is None

    def test_overlapping_runners_restore_the_first_count(self, monkeypatch):
        counts = [7]

        def setter(count):
            counts.append(count)
            return counts[-2]

        monkeypatch.setattr(core, "usable_cpus", lambda: 2)
        monkeypatch.setattr(core, "_blas_thread_setter", lambda: setter)
        with block_runner(2) as outer:
            with block_runner(3) as inner:
                assert inner(lambda i: i * i, range(5)) == [0, 1, 4, 9, 16]
            assert outer(lambda i: -i, [1, 2]) == [-1, -2]
        assert counts == [7, 1, 7]

    def test_concurrent_runners_leave_the_first_count(self, monkeypatch):
        state, lock = {"count": 5}, threading.Lock()

        def setter(count):
            with lock:
                previous, state["count"] = state["count"], count
            return previous

        monkeypatch.setattr(core, "usable_cpus", lambda: 2)
        monkeypatch.setattr(core, "_blas_thread_setter", lambda: setter)
        seen = []

        def user():
            for _ in range(20):
                with block_runner(2) as run:
                    seen.extend(run(lambda i: state["count"], range(2)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            users = [threading.Thread(target=user) for _ in range(8)]
            for thread in users:
                thread.start()
            for thread in users:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in users)
        assert seen == [1] * (8 * 20 * 2)
        assert state["count"] == 5

    @pytest.mark.parametrize("cpus, blocks, setter", [
        (1, 4, True), (3, 1, True), (3, 4, False),
    ], ids=["one-cpu", "one-block", "no-setter"])
    def test_serial_path_runs_in_order_on_the_calling_thread(
            self, monkeypatch, cpus, blocks, setter):
        def refuse(count):
            raise AssertionError("the serial path changed the BLAS thread count")

        monkeypatch.setattr(core, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(core, "_blas_thread_setter",
                            lambda: refuse if setter else None)
        with block_runner(blocks) as run:
            assert run(lambda i: (i, threading.get_ident()), range(blocks)) == [
                (i, threading.get_ident()) for i in range(blocks)]
