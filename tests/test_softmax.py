import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smxreg.core import InvalidInputError
from smxreg.softmax import d_rho, q_matrix, rho, softmax

bounded_activations = st.lists(
    st.floats(min_value=-300.0, max_value=300.0, allow_nan=False),
    min_size=2,
    max_size=8,
).map(lambda vals: np.array(vals))


def central_diff_jacobian(f, a, h=1e-5):
    """Columnwise central differences; the oracle for both Jacobians."""
    c = a.shape[0]
    cols = []
    for k in range(c):
        e = np.zeros(c)
        e[k] = h
        cols.append((f(a + e) - f(a - e)) / (2.0 * h))
    return np.stack(cols, axis=1)


class TestSoftmax:
    def test_uniform(self):
        assert np.allclose(softmax(np.zeros(4)), 0.25, atol=1e-15)

    def test_log3(self):
        assert np.allclose(softmax(np.array([0.0, np.log(3)])), [0.25, 0.75],
                           atol=1e-15)

    def test_large_inputs_do_not_overflow(self):
        out = softmax(np.array([1000.0, 1000.0]))
        assert np.array_equal(out, [0.5, 0.5])

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            softmax(np.array([np.nan, 0.0]))

    def test_batch_matches_columnwise(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 6))
        batch = softmax(a)
        for n in range(6):
            assert np.array_equal(batch[:, n], softmax(a[:, n]))

    @settings(max_examples=100)
    @given(bounded_activations, st.floats(-100.0, 100.0))
    def test_shift_invariance_positivity_stochasticity(self, a, c):
        y = softmax(a)
        assert np.all(y > 0.0)
        assert abs(y.sum() - 1.0) < 1e-12
        shifted = softmax(a + c)
        assert np.max(np.abs(shifted - y)) <= 1e-12


class TestRho:
    def test_uniform(self):
        assert np.allclose(rho(np.zeros(2)), np.log(2.0), atol=1e-15)

    def test_log3(self):
        expected = [np.log(4.0), np.log(4.0) - np.log(3.0)]
        assert np.allclose(rho(np.array([0.0, np.log(3.0)])), expected, atol=1e-12)

    @settings(max_examples=100)
    @given(bounded_activations)
    def test_exp_of_minus_rho_is_softmax(self, a):
        assert np.max(np.abs(np.exp(-rho(a)) - softmax(a))) <= 1e-12

    def test_shift_identity(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(5)
        for c in rng.standard_normal(10):
            assert np.max(np.abs(softmax(a + c) - softmax(a))) <= 1e-12
            # rho picks up the same constant in logsumexp and -a: differences
            # of components are shift-free
            diff = rho(a + c) - rho(a)
            assert np.max(np.abs(diff - diff[0])) <= 1e-12


class TestDSigma:
    def test_half_half(self):
        assert np.allclose(q_matrix(np.array([0.5, 0.5])),
                           [[0.25, -0.25], [-0.25, 0.25]], atol=1e-16)

    def test_boundary_output_degenerates_to_zero(self):
        assert np.array_equal(q_matrix(np.array([1.0, 0.0])), np.zeros((2, 2)))

    def test_symmetry_and_zero_row_sums(self):
        rng = np.random.default_rng(2)
        y = softmax(rng.standard_normal(6))
        m = q_matrix(y)
        assert np.max(np.abs(m - m.T)) <= 1e-15
        assert np.max(np.abs(m @ np.ones(6))) <= 1e-14

    def test_matches_finite_difference_jacobian(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal(5)
            jac = q_matrix(softmax(a))
            fd = central_diff_jacobian(softmax, a)
            assert np.linalg.norm(jac - fd) / np.linalg.norm(fd) <= 1e-6


class TestDRho:
    def test_half_half(self):
        assert np.allclose(d_rho(np.array([0.5, 0.5])),
                           [[-0.5, 0.5], [0.5, -0.5]], atol=1e-16)

    def test_ones_in_kernel(self):
        rng = np.random.default_rng(4)
        y = softmax(rng.standard_normal(7))
        assert np.max(np.abs(d_rho(y) @ np.ones(7))) <= 1e-14

    def test_matches_finite_difference_jacobian(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.standard_normal(4)
            jac = d_rho(softmax(a))
            fd = central_diff_jacobian(rho, a)
            assert np.linalg.norm(jac - fd) / np.linalg.norm(fd) <= 1e-6
