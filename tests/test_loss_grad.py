import numpy as np
import pytest

from smxreg.core import Dataset, DimensionMismatchError, InvalidInputError, one_hot
from smxreg.loss_grad import (
    error_covariance,
    forward,
    gradient,
    loss,
    loss_from_activations,
)
from smxreg.softmax import softmax


def fd_loss_gradient(w, data, h=1e-5):
    """Entrywise central differences of the loss; the independent oracle."""
    out = np.zeros_like(w)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            wp, wm = w.copy(), w.copy()
            wp[i, j] += h
            wm[i, j] -= h
            out[i, j] = (loss(wp, data) - loss(wm, data)) / (2 * h)
    return out


def random_instance(rng, c, d, n):
    x = rng.standard_normal((d, n))
    t = softmax(rng.standard_normal((c, n)))
    return rng.standard_normal((c, d)), Dataset(x, t)


class TestLoss:
    def test_zero_weights_single_sample(self):
        data = Dataset(np.array([[1.0]]), np.array([[1.0], [0.0]]))
        assert loss(np.zeros((2, 1)), data) == pytest.approx(np.log(2), abs=1e-15)

    def test_zero_weights_uniform_output(self):
        c, n = 4, 7
        rng = np.random.default_rng(0)
        data = Dataset(rng.standard_normal((3, n)),
                       one_hot(rng.integers(1, c + 1, size=n), c))
        assert loss(np.zeros((c, 3)), data) == pytest.approx(n * np.log(c),
                                                             rel=1e-14)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        w, data = random_instance(rng, 3, 4, 6)
        base = loss(w, data)
        for _ in range(20):
            shifted = w + np.outer(np.ones(3), rng.standard_normal(4))
            assert abs(loss(shifted, data) - base) <= 1e-12 * max(1.0, abs(base))

    def test_shape_mismatch(self):
        data = Dataset(np.ones((2, 1)), np.array([[1.0], [0.0]]))
        with pytest.raises(DimensionMismatchError):
            loss(np.zeros((2, 3)), data)

    def test_finite_where_softmax_underflows(self):
        # target mass on a class whose softmax output underflows to 0
        data = Dataset(np.array([[1.0]]), np.array([[1.0], [0.0]]))
        w = np.array([[-500.0], [500.0]])
        val = loss(w, data)
        assert np.isfinite(val) and val == pytest.approx(1000.0, rel=1e-12)


class TestForward:
    @pytest.mark.parametrize("spread", [1.0, 50.0, 800.0])
    def test_bit_identical_to_three_step_composition(self, spread):
        # spread 800 underflows some outputs to exactly 0
        rng = np.random.default_rng(11)
        w, data = random_instance(rng, 6, 9, 70)
        a = (spread * w) @ data.x
        cost, g = forward(a, data)
        assert cost == loss_from_activations(a, data.t)
        assert np.array_equal(g, -(data.t - softmax(a)) @ data.x.T)

    def test_gradient_still_rejects_nonfinite_activations(self):
        # W X overflows to inf: the input under test, not a fault to warn of
        data = Dataset(np.array([[1e300, 1.0]]), one_hot([1, 2], 2))
        with np.errstate(over="ignore"), pytest.raises(InvalidInputError, match="activations"):
            gradient(np.array([[1e10], [0.0]]), data)


class TestGradient:
    def test_zero_weight_example(self):
        data = Dataset(np.array([[1.0], [2.0]]), np.array([[1.0], [0.0]]))
        g = gradient(np.zeros((2, 2)), data)
        assert np.allclose(g, [[-0.5, -1.0], [0.5, 1.0]], atol=1e-15)

    def test_vanishes_at_critical_point(self):
        # make the targets exactly the model output: T = softmax(W X)
        rng = np.random.default_rng(2)
        w = rng.standard_normal((3, 4))
        x = rng.standard_normal((4, 5))
        data = Dataset(x, softmax(w @ x))
        assert np.max(np.abs(gradient(w, data))) <= 1e-14

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            w, data = random_instance(rng, 3, 4, 5)
            g = gradient(w, data)
            fd = fd_loss_gradient(w, data)
            scale = np.maximum(np.abs(fd), 1e-3 * np.max(np.abs(fd)))
            assert np.max(np.abs(g - fd) / scale) <= 1e-6

    def test_duality_with_directional_derivative(self):
        rng = np.random.default_rng(4)
        w, data = random_instance(rng, 4, 3, 6)
        g = gradient(w, data)
        h = 1e-5
        for _ in range(10):
            v = rng.standard_normal((4, 3))
            directional = (loss(w + h * v, data) - loss(w - h * v, data)) / (2 * h)
            assert abs(float(np.sum(g * v)) - directional) <= 1e-6 * abs(directional)

    def test_column_sums_vanish(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            w, data = random_instance(rng, 5, 3, 8)
            g = gradient(w, data)
            assert np.max(np.abs(g.sum(axis=0))) <= 1e-10

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        w, data = random_instance(rng, 3, 4, 6)
        g = gradient(w, data)
        shifted = w + np.outer(np.ones(3), rng.standard_normal(4))
        assert np.max(np.abs(gradient(shifted, data) - g)) <= 1e-10


class TestErrorCovariance:
    def test_equals_minus_gradient(self):
        rng = np.random.default_rng(7)
        w, data = random_instance(rng, 3, 2, 4)
        assert np.array_equal(error_covariance(w, data), -gradient(w, data))

    def test_zero_at_critical_point(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((2, 3))
        x = rng.standard_normal((3, 4))
        data = Dataset(x, softmax(w @ x))
        assert np.max(np.abs(error_covariance(w, data))) <= 1e-14

    def test_norm_equals_gradient_norm(self):
        rng = np.random.default_rng(9)
        w, data = random_instance(rng, 4, 4, 9)
        assert np.linalg.norm(error_covariance(w, data)) == pytest.approx(
            np.linalg.norm(gradient(w, data)), rel=1e-15
        )
