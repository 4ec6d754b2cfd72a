import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smxreg import core
from smxreg.core import (
    Dataset,
    DimensionMismatchError,
    InvalidInputError,
    InvalidLabelError,
    LiveRows,
    as_matrix,
    block_runner,
    center_columns,
    check_weights,
    column_blocks,
    column_plan,
    copy_blocks,
    freeze,
    one_hot,
)
from smxreg.hessian import HessianOperator
from smxreg.loss_grad import error_covariance, gradient, loss
from smxreg.trainer import TrainConfig, evaluate, train

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run_python(code: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports the package from ``SRC``."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env, timeout=120)


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


@pytest.fixture(params=["one-block", "three-blocks"])
def plan(request):
    """Run a test with its 4 x 6 arrays in one column block, and in three
    (columns 0-1, 2-3 and 4-5) on pool threads."""
    if request.param == "three-blocks":
        request.getfixturevalue("forced_parallel")


def _grid(*entries):
    """The 4 x 6 array 0..23 with each ``(row, column, value)`` of
    ``entries`` set."""
    x = np.arange(24.0).reshape(4, 6)
    for i, j, value in entries:
        x[i, j] = value
    return x


class TestRefusals:
    """An input of the wrong shape or kind raises exactly this error."""

    @pytest.mark.parametrize("call, error, message", [
        (lambda: as_matrix(np.zeros((2, 2, 2)), "x"), DimensionMismatchError,
         "x must be 2-D, got shape (2, 2, 2)"),
        (lambda: core.check_probability(np.full((2, 2), 0.5), "y", 1),
         DimensionMismatchError, "y must be 1-D, got shape (2, 2)"),
        (lambda: one_hot([[1, 2]], 2), DimensionMismatchError,
         "labels must be a 1-D sequence"),
        (lambda: one_hot([1, 1], 1), InvalidInputError, "need at least 2 classes"),
        (lambda: one_hot(["1", "2"], 2), InvalidLabelError,
         "labels must be numbers, got dtype <U1"),
    ], ids=["as_matrix_3d", "probability_ndim", "labels_2d", "one_class", "string_labels"])
    def test_refused(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error and str(info.value) == message


class TestAsMatrix:
    @pytest.mark.parametrize("entries", [
        [(2, 1, 1e308), (2, 4, 1e308)], [(2, 4, 1e308), (2, 5, 1e308)],
    ], ids=["across_blocks", "inside_the_last_block"])
    def test_finite_entries_whose_sum_overflows_are_accepted(self, plan, entries):
        x = _grid(*entries)
        assert np.array_equal(as_matrix(x), x)

    @pytest.mark.parametrize("entries", [
        [(1, 5, np.nan)],
        [(0, 0, np.inf)],
        [(2, 4, np.inf), (2, 5, -np.inf)],
        [(3, 4, 1e308), (3, 5, 1e308), (0, 4, np.nan)],
    ], ids=["nan_in_the_last_block", "inf", "inf_and_minus_inf", "overflow_and_nan"])
    def test_nonfinite_entries_are_rejected(self, plan, entries):
        with pytest.raises(InvalidInputError, match="^x contains non-finite entries$"):
            as_matrix(_grid(*entries), "x")

    @pytest.mark.parametrize("layout", _LAYOUTS, ids=_LAYOUT_IDS)
    @pytest.mark.parametrize("value, ok", [
        (np.nan, False), (np.inf, False), (-np.inf, False), (1e308, True),
    ], ids=["nan", "inf", "minus_inf", "sum_overflows"])
    @pytest.mark.parametrize("columns", [(1, 4), (4, 5)], ids=["across", "last_block"])
    def test_every_layout_is_probed(self, plan, layout, value, ok, columns):
        # row 2 holds the value twice, so 1e308 overflows that row's sum
        x = layout(_grid(*[(2, j, value) for j in columns]))
        if ok:
            assert np.array_equal(as_matrix(x), x)
        else:
            with pytest.raises(InvalidInputError, match="non-finite"):
                as_matrix(x)

    def test_one_block_asks_for_no_cpu_count(self, monkeypatch):
        # the pool and its import come after the CPU count
        def refuse():
            raise AssertionError("a one-block array asked for the CPU count")

        monkeypatch.setattr(core, "usable_cpus", refuse)
        x = np.ones((300, 700))
        assert len(core.column_plan(700, x.nbytes)) == 1
        assert as_matrix(x) is x

    def test_one_block_never_calls_the_blas_setter(self, monkeypatch):
        # a weight matrix is checked once per Hessian product: its one
        # product X @ 1, on the calling thread, is the whole check
        def refuse(*args):
            raise AssertionError("a one-block array reached the pool's machinery")

        monkeypatch.setattr(core, "usable_cpus", lambda: 3)
        monkeypatch.setattr(core, "_blas_thread_setter", lambda: refuse)
        monkeypatch.setattr(core, "block_runner", refuse)
        w = np.ones((10, 785))
        assert as_matrix(w) is w
        assert np.array_equal(as_matrix(_grid((2, 1, 1e308), (2, 4, 1e308))),
                              _grid((2, 1, 1e308), (2, 4, 1e308)))
        with pytest.raises(InvalidInputError, match="non-finite"):
            as_matrix(_grid((1, 5, np.nan)))

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


    # Dataset(x, t) keeps every O(size) check, whoever built the arrays
    @pytest.mark.parametrize("x, t, match", [
        ([[1.0, np.nan]], [[1.0, 0.0], [0.0, 1.0]], "^x contains non-finite"),
        ([[1.0, np.inf]], [[1.0, 0.0], [0.0, 1.0]], "^x contains non-finite"),
        ([[-np.inf, 1.0]], [[1.0, 0.0], [0.0, 1.0]], "^x contains non-finite"),
        ([[1.0, 2.0]], [[1.0, np.nan], [0.0, 1.0]], "^t contains non-finite"),
        ([[1.0, 2.0]], [[1.0, 0.5], [0.0, 0.6]], "^t columns must sum to 1"),
        ([[1.0, 2.0]], [[1.0, -0.5], [0.0, 1.5]], r"^t entries must lie in \[0, 1\]"),
    ], ids=["nan", "inf", "minus_inf", "t_nan", "t_sum", "t_range"])
    def test_every_value_check_runs_on_frozen_arrays(self, x, t, match):
        with pytest.raises(InvalidInputError, match=match):
            Dataset(freeze(np.array(x)), freeze(np.array(t)))


class TestDatasetAdopt:
    """``Dataset._adopt`` keeps valid-by-construction arrays as they are and
    runs only the shape invariants, never a pass over the values."""

    @pytest.fixture
    def no_value_check(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a value check ran")

        monkeypatch.setattr(core, "as_matrix", refuse)
        monkeypatch.setattr(core, "check_probability", refuse)

    def test_arrays_are_frozen_and_kept(self, no_value_check):
        x, t = np.arange(6.0).reshape(2, 3), one_hot([1, 2, 2], 2)
        data = Dataset._adopt(x, t)
        assert data.x is x and data.t is t
        assert not x.flags.writeable and not t.flags.writeable
        assert (data.d, data.c, data.n) == (2, 2, 3)

    @pytest.mark.parametrize("x, t, error, match", [
        (np.ones((2, 3)), one_hot([1, 2], 2), DimensionMismatchError,
         "^x has 3 columns but t has 2$"),
        (np.ones((0, 3)), one_hot([1, 2, 1], 2), DimensionMismatchError,
         "^x must have at least one row and column$"),
        (np.ones((2, 0)), np.ones((2, 0)), DimensionMismatchError,
         "^x must have at least one row and column$"),
        (np.ones((2, 3)), np.ones((1, 3)), InvalidInputError,
         "^need at least 2 classes$"),
    ], ids=["mismatched_n", "no_feature_row", "no_sample", "one_class"])
    def test_shape_invariants_are_refused_as_by_dataset(self, x, t, error, match):
        with pytest.raises(error, match=match):
            Dataset(x, t)
        with pytest.raises(error, match=match):
            Dataset._adopt(x, t)

    def test_live_rows_of_a_zero_x_have_no_feature_row(self, no_value_check):
        data = Dataset._adopt(np.empty((0, 3)), one_hot([1, 2, 1], 2), min_rows=0)
        assert LiveRows(data, [], 4).data.x.shape == (0, 3)
        with pytest.raises(InvalidInputError, match="need at least 2 classes"):
            Dataset._adopt(np.empty((0, 3)), np.ones((1, 3)), min_rows=0)


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
        lambda: freeze(np.asfortranarray(np.arange(6.0).reshape(2, 3), np.float32)),
    ], ids=["frombuffer", "frozen-slice", "fortran-order", "fortran-float32"])
    def test_views_and_other_layouts_are_copied(self, make):
        x = make()
        assert not x.flags.writeable
        data = Dataset(x, self.T)
        assert not np.shares_memory(data.x, x)
        assert data.x.flags.c_contiguous and not data.x.flags.writeable
        assert np.array_equal(data.x, x)

    @pytest.mark.parametrize("convert", [lambda x: x.astype(np.float32),
                                         lambda x: x.tolist()], ids=["float32", "list"])
    def test_converted_array_is_not_copied_again(self, convert):
        # the conversion makes X's one float64 array, which no one else holds
        x = np.random.default_rng(9).standard_normal((50, 2000)).astype(np.float32)
        source, t = convert(x), freeze(one_hot(np.arange(2000) % 2 + 1, 2))
        tracemalloc.start()
        try:
            data = Dataset(source, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * data.x.nbytes
        assert data.x.flags.c_contiguous and not data.x.flags.writeable
        assert np.array_equal(data.x, x)

    def test_fortran_order_copy_is_the_same_on_both_paths(self, both_paths):
        # 31 columns: x spans 19 forced blocks and t 7, of unequal widths
        x = freeze(np.asfortranarray(np.random.default_rng(8).standard_normal((5, 31))))
        t = one_hot(np.arange(31) % 2 + 1, 2)
        serial, parallel, submitted = both_paths(lambda: Dataset(x, t))
        # x's finite check by columns; x and t copied by their 5 and 2 rows
        assert submitted == 19 + 5 + 2
        for data in (serial, parallel):
            assert data.x.flags.c_contiguous and not data.x.flags.writeable
        assert serial.x.tobytes() == parallel.x.tobytes() == np.ascontiguousarray(x).tobytes()
        assert np.array_equal(serial.t, parallel.t)

    def test_frozen_nonfinite_array_is_rejected(self):
        x = freeze(np.array([[np.inf, 0.0, 1.0], [0.0, 1.0, 2.0]]))
        with pytest.raises(InvalidInputError):
            Dataset(x, self.T)


class TestLiveRows:
    """The live rows of X as a Dataset, their indices and the full width;
    weights move between the widths only through ``narrow`` and ``widen``."""

    def _live(self):
        x = np.arange(1.0, 13.0).reshape(2, 6)
        return LiveRows(Dataset(x, one_hot([1, 2, 1, 2, 1, 2], 2)), [1, 3], 5)

    def test_fields(self):
        live = self._live()
        assert (live.c, live.n, live.d) == (2, 6, 5)
        assert live.rows.dtype == np.intp and not live.rows.flags.writeable

    def test_narrow_and_widen(self):
        live = self._live()
        w = np.arange(10.0).reshape(2, 5)
        assert np.array_equal(live.narrow(w), w[:, [1, 3]])
        wide = live.widen(w, -live.narrow(w))
        assert np.array_equal(wide[:, [0, 2, 4]], w[:, [0, 2, 4]])
        assert np.array_equal(wide[:, [1, 3]], -w[:, [1, 3]])
        assert np.array_equal(w, np.arange(10.0).reshape(2, 5))  # not written

    @pytest.mark.parametrize("rows, d, match", [
        ([1], 5, "rows must list the 2 rows"),
        ([3, 1], 5, "ascend"),
        ([1, 1], 5, "ascend"),
        ([-1, 3], 5, "ascend"),
        ([1, 5], 5, "ascend"),
    ])
    def test_rows_are_checked(self, rows, d, match):
        data = self._live().data
        with pytest.raises((DimensionMismatchError, InvalidInputError), match=match):
            LiveRows(data, rows, d)

    def test_no_live_row(self):
        # an all-zero X: a Dataset of no row, which Dataset itself refuses
        t = one_hot([1, 2, 2], 2)
        live = LiveRows.of(Dataset(np.zeros((4, 3)), t), np.array([], np.intp))
        assert (live.data.d, live.n, live.c, live.d) == (0, 3, 2, 4)
        w = np.ones((2, 4))
        assert live.narrow(w).shape == (2, 0)
        loss_, accuracy = evaluate(w, live)
        assert loss_ == pytest.approx(3 * np.log(2), rel=1e-15)
        assert accuracy == pytest.approx(1 / 3)
        with pytest.raises(DimensionMismatchError, match="at least one row"):
            Dataset(np.empty((0, 3)), t)

    @pytest.mark.parametrize("x", [
        np.array([[0.0, 0, 0, 0], [1, 2, 0, 1], [0, 0, 0, 0], [3, -1, 2, 0], [0, 0, 0, 0]]),
        np.zeros((3, 4)),
    ], ids=["dead_rows", "no_live_row"])
    def test_rank_factors_match_the_full_rank_test(self, x):
        data = Dataset(x, one_hot([1, 2, 2, 1], 2))
        live = LiveRows.of(data, core.live_rows(x))
        s, left = live.rank_factors
        want_s, want_left = core.rank_test(x)
        np.testing.assert_allclose(s, want_s, rtol=1e-13, atol=1e-14 * want_s[0])
        # both orthonormal bases, vector k mapping X to a row of norm s[k]
        for basis in (left, want_left):
            np.testing.assert_allclose(basis @ basis.T, np.eye(x.shape[0]), atol=1e-15)
            np.testing.assert_allclose(np.linalg.norm(basis @ x, axis=1), s,
                                       atol=1e-13 * max(s[0], 1.0))
        # each dead row k gives an exact 0 and e_k, after the live rows
        dead = np.flatnonzero(~x.any(axis=1))
        assert np.all(s[-dead.size:] == 0.0)
        assert np.array_equal(left[-dead.size:], np.eye(x.shape[0])[dead])
        assert not s.flags.writeable and not left.flags.writeable
        assert live.rank_factors is live.rank_factors

    def test_rank_factors_with_every_row_live_are_the_datasets(self):
        data = Dataset(np.arange(1.0, 7.0).reshape(2, 3) ** 2, one_hot([1, 2, 2], 2))
        assert LiveRows.of(data, np.arange(2)).rank_factors is data.rank_factors


class TestActivationsCheck:
    """Every entry point that forms W X rejects an overflowing product with
    one InvalidInputError and no floating-point warning."""

    DATA = Dataset(np.array([[1e300, 1.0]]), one_hot([1, 2], 2))

    @pytest.mark.parametrize("call", [
        loss,
        gradient,
        lambda w, data: HessianOperator(data, w),
        evaluate,
    ], ids=["loss", "gradient", "HessianOperator", "evaluate"])
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
        lambda u, data: HessianOperator(data, np.zeros((2, 3))).apply(u),
        lambda u, data: HessianOperator(data, np.zeros((2, 3))).quadratic_form(u),
        lambda u, data: HessianOperator(data, np.zeros((2, 3))).kernel_test(u),
    ], ids=["loss", "gradient", "error_covariance", "HessianOperator", "train_w0",
            "evaluate", "apply", "quadratic_form", "kernel_test"])
    @pytest.mark.parametrize("shape", [(2, 4), (3, 3)], ids=["D+1", "C+1"])
    def test_wrong_shape_raises(self, call, shape):
        with pytest.raises(DimensionMismatchError, match=r"\(2, 3\)") as info:
            call(np.zeros(shape), self.DATA)
        assert str(shape) in str(info.value)

    def test_one_check_takes_a_stack(self):
        # a (b, C, D) stack passes as it is; a wrong one is refused in the
        # same words as one matrix, and so is a non-finite entry
        u = np.arange(12.0).reshape(2, 2, 3)
        assert np.array_equal(check_weights(u, self.DATA), u)
        with pytest.raises(DimensionMismatchError) as info:
            check_weights(np.zeros((2, 3, 2)), self.DATA)
        assert str(info.value) == "weights have shape (2, 3, 2), expected (2, 2, 3)"
        u[1, 0, 2] = np.inf
        with pytest.raises(InvalidInputError) as info:
            check_weights(u, self.DATA)
        assert str(info.value) == "w contains non-finite entries"
        with pytest.raises(DimensionMismatchError) as info:
            check_weights(np.zeros((1, 2, 2, 3)), self.DATA)
        assert str(info.value) == "w must be 2-D, got shape (1, 2, 2, 3)"


class TestColumnPlan:
    @pytest.mark.parametrize("cpus", [1, 64])
    @pytest.mark.parametrize("n", [0, 1, 7, 60000])
    @pytest.mark.parametrize("units", [0, 0.5, 1, 2.5, 22, 10**6])
    def test_count_is_the_clamped_size_whatever_the_cpus(self, monkeypatch, cpus,
                                                         n, units):
        monkeypatch.setattr(core, "usable_cpus", lambda: cpus)
        nbytes = int(units * core.PARALLEL_MIN_BYTES)
        blocks = column_plan(n, nbytes)
        assert len(blocks) == min(max(nbytes // core.PARALLEL_MIN_BYTES, 1), max(n, 1))
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        widths = {c.stop - c.start for c in blocks}
        assert max(widths) - min(widths) <= 1

    def test_no_columns_is_one_empty_block(self):
        assert column_plan(0, 10**12) == [slice(0, 0)]


class TestCopyBlocks:
    """``copy_blocks`` cuts every source by rows, whatever its layout; the
    copy equals ``np.copyto``'s bit for bit."""

    @pytest.mark.parametrize("make", [
        # 7 x 31 (or 7 x 16) doubles span more forced blocks than rows: 7 rows
        lambda base: base[:7],
        lambda base: np.asfortranarray(base[:7]),
        lambda base: base[::2, ::2],
    ], ids=["c_order", "fortran_order", "strided"])
    def test_equals_a_plain_copy_on_both_paths(self, both_paths, make):
        base = np.random.default_rng(12).standard_normal((13, 31))
        a = make(base)

        def copy():
            out = np.empty(a.shape)
            copy_blocks(out, a)
            return out

        serial, parallel, submitted = both_paths(copy)
        assert submitted == 7
        want = np.empty(a.shape)
        np.copyto(want, a)
        assert serial.tobytes() == parallel.tobytes() == want.tobytes()


class TestColumnBlocks:
    def test_blocks_cover_every_column_once_on_pool_threads(self, forced_parallel):
        seen, lock = [], threading.Lock()

        def record(cols):
            with lock:
                seen.append((cols, threading.get_ident()))
            return cols.start

        assert column_blocks(record, 10, 3 * core.PARALLEL_MIN_BYTES) == [0, 3, 6]
        assert sorted((c.start, c.stop) for c, _ in seen) == [(0, 3), (3, 6), (6, 10)]
        assert threading.get_ident() not in {ident for _, ident in seen}

    @pytest.mark.parametrize("serial_by", ["one_cpu", "no_setter"])
    def test_serial_path_runs_the_blocks_in_order_on_the_calling_thread(
            self, forced_parallel, monkeypatch, pools, serial_by):
        # without OpenBLAS's thread setter, copies and conversions run
        # serially, as the epoch does
        if serial_by == "one_cpu":
            monkeypatch.setattr(core, "usable_cpus", lambda: 1)
        else:
            monkeypatch.setattr(core, "_blas_thread_setter", lambda: None)
        calls = []
        column_blocks(lambda cols: calls.append((cols, threading.get_ident())), 10,
                      3 * core.PARALLEL_MIN_BYTES)
        assert calls == [(slice(a, b), threading.get_ident())
                         for a, b in [(0, 3), (3, 6), (6, 10)]]
        assert pools == []

    @pytest.mark.parametrize("n, blocks", [(10, 1.99), (1, 50), (0, 50)],
                             ids=["below-two-blocks", "one-column", "no-columns"])
    def test_one_block_is_one_call_on_the_calling_thread(self, forced_parallel,
                                                         monkeypatch, n, blocks):
        nbytes = int(blocks * core.PARALLEL_MIN_BYTES)

        def refuse():
            raise AssertionError("a one-block plan asked for the CPU count")

        monkeypatch.setattr(core, "usable_cpus", refuse)
        calls = []
        column_blocks(lambda cols: calls.append((cols, threading.get_ident())), n, nbytes)
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
                column_blocks(block, 9, 3 * core.PARALLEL_MIN_BYTES)
            assert info.value is error
        else:
            column_blocks(block, 9, 3 * core.PARALLEL_MIN_BYTES)
        assert threading.active_count() == before

    def test_blocks_run_in_the_callers_errstate(self, forced_parallel):
        # numpy 2 keeps np.errstate in a context variable; pytest turns the
        # overflow warning into an error if a block runs without it
        big = np.full(4, 1e308)

        def overflow(cols):
            np.multiply(big[cols], 10.0)

        with np.errstate(over="ignore"):
            column_blocks(overflow, 4, 3 * core.PARALLEL_MIN_BYTES)


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

    def test_the_setter_is_numpys_openblas_beside_scipys(self):
        # A fresh process, as the setter is cached: with scipy's OpenBLAS
        # loaded too, the one held must be the library numpy's products
        # use, or numpy's BLAS stays threaded under the pool.
        proc = _run_python("""
            import ctypes, os, sys
            import numpy
            try:
                import scipy.sparse.linalg  # loads scipy's own OpenBLAS
            except ImportError:
                sys.exit(3)
            if not os.path.exists("/proc/self/maps"):
                sys.exit(3)
            from smxreg import core
            fields = [line.split(maxsplit=5) for line in open("/proc/self/maps")]
            libs = {f[5].strip() for f in fields
                    if len(f) == 6 and "openblas" in f[5].lower() and ".so" in f[5]}
            home = os.path.dirname(numpy.__file__)
            own = [p for p in libs if p.startswith((home + os.sep, home + ".libs" + os.sep))]
            if len(own) != 1 or len(libs) < 2:
                sys.exit(3)

            def address(fn):
                return ctypes.cast(fn, ctypes.c_void_p).value

            want = ctypes.CDLL(own[0]).openblas_set_num_threads_local
            print(address(core._blas_thread_setter()) == address(want))
        """)
        if proc.returncode == 3:
            pytest.skip("needs /proc/self/maps and numpy's and scipy's own OpenBLAS")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\n", "")

    def test_small_runs_never_import_the_pool(self, tmp_path):
        # block_runner imports concurrent.futures only to make a pool, which
        # saves every CLI start about 6 ms and 0.6 MB
        csv = tmp_path / "toy.csv"
        csv.write_text("0.0,0.0,0\n1.0,0.0,0\n0.0,1.0,1\n1.0,1.0,1\n")
        proc = _run_python(f"""
            import contextlib, io, sys
            import smxreg.cli
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [smxreg.cli.main(argv) for argv in (
                    ["train", "--csv", {str(csv)!r}, "--classes", "2", "--eta", "0.1"],
                    ["certify", "--csv", {str(csv)!r}, "--classes", "2"],
                    ["spectrum", "--y", "0.25,0.75"])]
            print(codes, "concurrent.futures" in sys.modules)
        """)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[0, 0, 0] False\n", "")

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
