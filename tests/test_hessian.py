import re
import tracemalloc

import numpy as np
import pytest

from smxreg.convergence import dense_hessian_on_z, zero_sum_basis
from smxreg.core import (Dataset, DimensionMismatchError, InvalidInputError,
                         SizeLimitError, check_weights)
from smxreg.hessian import DENSE_LIMIT, HessianOperator
from smxreg.loss_grad import gradient
from smxreg.softmax import q_matrix, softmax


def random_instance(rng, c, d, n):
    x = rng.standard_normal((d, n))
    t = softmax(rng.standard_normal((c, n)))
    return rng.standard_normal((c, d)), Dataset(x, t)


def fd_gradient_directional(w, data, u, eps=1e-5):
    return (gradient(w + eps * u, data) - gradient(w - eps * u, data)) / (2 * eps)


def random_zero_column_sum(rng, c, d):
    b = zero_sum_basis(c)
    return b @ rng.standard_normal((c - 1, d))


class TestQMatrix:
    def test_half_half(self):
        assert np.allclose(q_matrix([0.5, 0.5]), [[0.25, -0.25], [-0.25, 0.25]],
                           atol=1e-16)

    def test_boundary_vector_gives_zero(self):
        assert np.array_equal(q_matrix([0.0, 1.0]), np.zeros((2, 2)))

    def test_uniform_three(self):
        expected = np.eye(3) / 3.0 - np.ones((3, 3)) / 9.0
        assert np.allclose(q_matrix([1 / 3] * 3), expected, atol=1e-16)

    def test_psd_and_ones_in_kernel(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            y = softmax(rng.standard_normal(6))
            q = q_matrix(y)
            assert np.max(np.abs(q - q.T)) <= 1e-15
            assert np.max(np.abs(q @ np.ones(6))) <= 1e-14
            assert np.linalg.eigvalsh(q)[0] >= -1e-12


class TestApply:
    def test_shift_directions_are_annihilated(self):
        rng = np.random.default_rng(1)
        w, data = random_instance(rng, 3, 4, 5)
        op = HessianOperator(data, w)
        for _ in range(10):
            u = np.outer(np.ones(3), rng.standard_normal(4))
            assert np.max(np.abs(op.apply(u))) <= 1e-12

    def test_hand_checked_single_sample(self):
        data = Dataset(np.array([[1.0]]), np.array([[0.5], [0.5]]))
        op = HessianOperator(data, np.zeros((2, 1)))  # y = (1/2, 1/2)
        u = np.array([[1.0], [-1.0]])
        assert np.allclose(op.apply(u), 0.5 * u, atol=1e-15)

    def test_matches_gradient_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            c = int(rng.integers(2, 6))
            d = int(rng.integers(2, 7))
            n = int(rng.integers(1, 9))
            w, data = random_instance(rng, c, d, n)
            op = HessianOperator(data, w)
            u = rng.standard_normal((c, d))
            fd = fd_gradient_directional(w, data, u)
            rel = np.linalg.norm(op.apply(u) - fd) / np.linalg.norm(fd)
            assert rel <= 1e-5

    def test_shape_check(self):
        rng = np.random.default_rng(3)
        w, data = random_instance(rng, 3, 4, 5)
        with pytest.raises(DimensionMismatchError):
            HessianOperator(data, w).apply(np.zeros((4, 3)))

    def test_anchor_outputs_are_cached(self):
        rng = np.random.default_rng(4)
        w, data = random_instance(rng, 3, 4, 5)
        op = HessianOperator(data, w)
        u = rng.standard_normal((3, 4))
        before = op.apply(u)
        w[:] = 0.0  # mutating the caller's anchor must not leak in
        assert np.array_equal(op.apply(u), before)


class TestStackedApply:
    @pytest.mark.parametrize("b", [1, 3, 7])
    def test_stack_equals_single_applies(self, b):
        rng = np.random.default_rng(16)
        w, data = random_instance(rng, 5, 7, 40)
        op = HessianOperator(data, w)
        u = rng.standard_normal((b, 5, 7))
        stacked = op.apply(u)
        assert stacked.shape == (b, 5, 7)
        for k in range(b):
            single = op.apply(u[k])
            assert np.linalg.norm(stacked[k] - single) <= 1e-14 * np.linalg.norm(single)

    def test_single_direction_is_bit_identical_to_the_unstacked_formula(self):
        rng = np.random.default_rng(17)
        w, data = random_instance(rng, 4, 6, 30)
        op = HessianOperator(data, w)
        u = rng.standard_normal((4, 6))
        v = u @ data.x
        s = np.sum(op.y * v, axis=0, keepdims=True)
        qv = op.y * v - op.y * s
        assert np.array_equal(op.apply(u), qv @ data.x.T)

    def test_wrong_shape_stack_names_both_shapes(self):
        rng = np.random.default_rng(18)
        w, data = random_instance(rng, 3, 4, 5)
        op = HessianOperator(data, w)
        with pytest.raises(DimensionMismatchError,
                           match=re.escape("weights have shape (2, 4, 3), "
                                           "expected (2, 3, 4)")):
            op.apply(np.zeros((2, 4, 3)))

    def test_peak_memory_of_a_stack_of_three(self):
        # C=10, D=256, N=8000: V = U X is scaled and reduced in its own
        # buffer, so the peak is V plus one temporary of its size
        rng = np.random.default_rng(20)
        c, d, n, b = 10, 256, 8000, 3
        data = Dataset(rng.standard_normal((d, n)), softmax(rng.standard_normal((c, n))))
        op = HessianOperator(data, 0.3 * rng.standard_normal((c, d)))
        u = rng.standard_normal((b, c, d))
        op.apply(u)
        tracemalloc.start()
        try:
            op.apply(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * b * c * n * 8

    def test_non_finite_stack_is_refused_like_one_direction(self):
        rng = np.random.default_rng(19)
        w, data = random_instance(rng, 3, 4, 5)
        op = HessianOperator(data, w)
        u = np.zeros((2, 3, 4))
        u[1, 2, 0] = np.nan
        with pytest.raises(InvalidInputError) as single:
            check_weights(u[1], data)
        with pytest.raises(InvalidInputError, match=re.escape(str(single.value))):
            op.apply(u)


class TestQuadraticForm:
    def test_shift_direction_gives_zero(self):
        rng = np.random.default_rng(5)
        w, data = random_instance(rng, 4, 3, 6)
        op = HessianOperator(data, w)
        u = np.outer(np.ones(4), rng.standard_normal(3))
        assert abs(op.quadratic_form(u)) <= 1e-12

    def test_hand_checked_value(self):
        data = Dataset(np.array([[1.0]]), np.array([[0.5], [0.5]]))
        op = HessianOperator(data, np.zeros((2, 1)))
        assert op.quadratic_form(np.array([[1.0], [-1.0]])) == pytest.approx(1.0)

    def test_nonnegative_on_random_directions(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            w, data = random_instance(rng, 3, 4, 5)
            op = HessianOperator(data, w)
            for _ in range(50):
                assert op.quadratic_form(rng.standard_normal((3, 4))) >= -1e-10

    def test_projector_factorization_identity(self):
        # per sample, (Ux)^T Q (Ux) = ||R M (Ux)||^2 with M = diag(sqrt y) and
        # R the projector off sqrt(y); summing gives the quadratic form
        rng = np.random.default_rng(7)
        for _ in range(10):
            c, d, n = 4, 3, 6
            w, data = random_instance(rng, c, d, n)
            op = HessianOperator(data, w)
            u = rng.standard_normal((c, d))
            total = 0.0
            for k in range(n):
                root = np.sqrt(op.y[:, k])
                r = np.eye(c) - np.outer(root, root)
                m = np.diag(root)
                total += float(np.sum((r @ m @ (u @ data.x[:, k])) ** 2))
            qf = op.quadratic_form(u)
            assert abs(qf - total) <= 1e-10 * max(1.0, abs(qf))


class TestKernelTest:
    def test_shift_direction(self):
        rng = np.random.default_rng(8)
        w, data = random_instance(rng, 3, 4, 5)
        op = HessianOperator(data, w)
        res = op.kernel_test(np.outer(np.ones(3), rng.standard_normal(4)))
        assert res.in_kernel and res.residual <= 1e-12

    def test_zero_sum_direction_on_full_rank_data(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 8))  # rank 3 almost surely
        data = Dataset(x, softmax(rng.standard_normal((4, 8))))
        op = HessianOperator(data, rng.standard_normal((4, 3)))
        u = random_zero_column_sum(rng, 4, 3)
        assert not op.kernel_test(u).in_kernel

    def test_agrees_with_quadratic_form(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            c = int(rng.integers(2, 5))
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d, d + 6))  # full rank w.h.p.
            w, data = random_instance(rng, c, d, n)
            op = HessianOperator(data, w)
            u_rand = rng.standard_normal((c, d))
            u_kernel = np.outer(np.ones(c), rng.standard_normal(d))
            for u in (u_rand, u_kernel):
                member = op.kernel_test(u).in_kernel
                scale = float(np.linalg.norm(u @ data.x)) ** 2
                vanished = op.quadratic_form(u) <= 1e-12 * max(scale, 1e-30)
                assert member == vanished


class TestDense:
    def test_single_sample_matches_q(self):
        data = Dataset(np.array([[1.0]]), np.array([[0.5], [0.5]]))
        op = HessianOperator(data, np.zeros((2, 1)))
        assert np.allclose(op.dense(), [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)

    def test_spectrum_nonnegative_and_symmetric(self):
        rng = np.random.default_rng(11)
        w, data = random_instance(rng, 3, 4, 6)
        dense = HessianOperator(data, w).dense()
        assert np.max(np.abs(dense - dense.T)) <= 1e-12
        assert np.linalg.eigvalsh(dense)[0] >= -1e-10

    def test_consistent_with_matrix_free_apply(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            c = int(rng.integers(2, 5))
            d = int(rng.integers(1, 5))
            w, data = random_instance(rng, c, d, 5)
            op = HessianOperator(data, w)
            dense = op.dense()
            u = rng.standard_normal((c, d))
            lhs = dense @ u.flatten(order="F")
            rhs = op.apply(u).flatten(order="F")
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_size_guard(self):
        rng = np.random.default_rng(13)
        c, d = 3, DENSE_LIMIT // 3 + 1
        x = rng.standard_normal((d, 2))
        data = Dataset(x, softmax(rng.standard_normal((c, 2))))
        op = HessianOperator(data, np.zeros((c, d)))
        for dense in (HessianOperator.dense, dense_hessian_on_z):
            with pytest.raises(SizeLimitError):
                dense(op)


class TestSymmetryAndConvexity:
    def test_operator_symmetry(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            c = int(rng.integers(2, 6))
            d = int(rng.integers(2, 7))
            w, data = random_instance(rng, c, d, 6)
            op = HessianOperator(data, w)
            u = rng.standard_normal((c, d))
            v = rng.standard_normal((c, d))
            lhs = float(np.sum(op.apply(u) * v))
            rhs = float(np.sum(u * op.apply(v)))
            assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(u) * np.linalg.norm(v)

    def test_strictly_positive_on_z_when_full_rank(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            c, d = 4, 3
            x = rng.standard_normal((d, 10))
            data = Dataset(x, softmax(rng.standard_normal((c, 10))))
            op = HessianOperator(data, rng.standard_normal((c, d)))
            # dense operator restricted to the zero-column-sum subspace
            b = zero_sum_basis(c)
            dense = op.dense()
            basis = []
            for j in range(d):
                for i in range(c - 1):
                    e = np.zeros((c, d))
                    e[:, j] = b[:, i]
                    basis.append(e.flatten(order="F"))
            z = np.stack(basis, axis=1)
            restricted = z.T @ dense @ z
            assert np.linalg.eigvalsh(restricted)[0] > 0.0
