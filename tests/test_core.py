import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smxreg.convergence import reduce_two_class
from smxreg.core import (
    Dataset,
    DimensionMismatchError,
    InvalidInputError,
    InvalidLabelError,
    as_matrix,
    center_columns,
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
