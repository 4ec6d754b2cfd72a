import numpy as np
import pytest

from smxreg import core
from smxreg.certify import certify
from smxreg.convergence import (
    XI,
    condition_bound,
    dense_hessian_on_z,
    determinant_check,
    eta_window,
    extreme_eigenvalues_on_z,
    plan,
    reduce_two_class,
    zero_sum_basis,
)
from smxreg.core import (
    Dataset,
    InvalidInputError,
    RankDeficientError,
    UnsupportedShapeError,
    one_hot,
)
from smxreg.hessian import HessianOperator
from smxreg.softmax import softmax
from smxreg.spectrum import analyze_q


def two_class_instance(rng, d, n):
    x = rng.standard_normal((d, n))
    data = Dataset(x, softmax(rng.standard_normal((2, n))))
    return rng.standard_normal((2, d)), data


def ill_conditioned_operator(c=6, d=40, n=300):
    rng = np.random.default_rng(12)
    x = rng.standard_normal((d, n)) * (0.93 ** np.arange(d))[:, None]
    data = Dataset(x, softmax(rng.standard_normal((c, n))))
    return HessianOperator(data, 0.5 * rng.standard_normal((c, d)))


class TestReduceTwoClass:
    def test_zero_weights_give_uniform_alpha(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 5))
        data = Dataset(x, softmax(rng.standard_normal((2, 5))))
        red = reduce_two_class(np.zeros((2, 3)), data)
        assert np.allclose(red.alpha, 0.5, atol=1e-15)
        assert np.allclose(red.m, 0.5 * x @ x.T, atol=1e-12)

    def test_identity_features(self):
        data = Dataset(np.eye(2), one_hot([1, 2], 2))
        red = reduce_two_class(np.zeros((2, 2)), data)
        assert np.allclose(red.m, np.diag([0.5, 0.5]), atol=1e-15)

    def test_alpha_range_and_m_psd(self):
        rng = np.random.default_rng(1)
        w, data = two_class_instance(rng, 4, 9)
        red = reduce_two_class(w, data)
        assert np.all(red.alpha > 0.0) and np.all(red.alpha <= 0.5)
        assert np.max(np.abs(red.m - red.m.T)) <= 1e-12
        assert np.linalg.eigvalsh(red.m)[0] >= -1e-12

    def test_intertwines_with_hessian(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            d = int(rng.integers(1, 7))
            w, data = two_class_instance(rng, d, int(rng.integers(2, 10)))
            op = HessianOperator(data, w)
            red = reduce_two_class(w, data)
            u = rng.standard_normal(d)
            lhs = op.apply(np.outer(XI, u))
            rhs = np.outer(XI, red.m @ u)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(u)

    def test_rejects_more_classes(self):
        rng = np.random.default_rng(3)
        data = Dataset(rng.standard_normal((2, 4)),
                       softmax(rng.standard_normal((3, 4))))
        with pytest.raises(UnsupportedShapeError):
            reduce_two_class(np.zeros((3, 2)), data)


class TestDeterminantCheck:
    def test_identity_example(self):
        data = Dataset(np.eye(2), one_hot([1, 2], 2))
        red = reduce_two_class(np.zeros((2, 2)), data)
        lhs, rhs = determinant_check(red, data)
        assert lhs == pytest.approx(0.25, rel=1e-12)
        assert rhs == pytest.approx(0.25, rel=1e-12)

    def test_scalar_case(self):
        x = np.array([[1.7]])
        data = Dataset(x, np.array([[0.3], [0.7]]))
        w = np.array([[0.4], [-0.2]])
        red = reduce_two_class(w, data)
        lhs, rhs = determinant_check(red, data)
        y = softmax(w @ x)
        expected = 2.0 * y[0, 0] * y[1, 0] * 1.7 ** 2
        assert lhs == pytest.approx(expected, rel=1e-12)
        assert rhs == pytest.approx(expected, rel=1e-12)

    def test_random_square_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = int(rng.integers(1, 9))
            w, data = two_class_instance(rng, d, d)
            red = reduce_two_class(w, data)
            lhs, rhs = determinant_check(red, data)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_requires_square_x(self):
        rng = np.random.default_rng(5)
        w, data = two_class_instance(rng, 3, 5)
        with pytest.raises(UnsupportedShapeError):
            determinant_check(reduce_two_class(w, data), data)

    def test_general_class_count_ratio_is_constant(self):
        # determinant of the Z-restricted operator divided by
        # det(X)^(2(C-1)) * prod(all y) depends only on (C, D): verified as
        # ratio constancy across random instances, constant not asserted
        rng = np.random.default_rng(6)
        for c, d in ((3, 2), (4, 2), (3, 3)):
            ratios = []
            for _ in range(5):
                x = rng.standard_normal((d, d))
                w = rng.standard_normal((c, d))
                data = Dataset(x, softmax(rng.standard_normal((c, d))))
                op = HessianOperator(data, w)
                det_hz = np.linalg.det(dense_hessian_on_z(op))
                ratios.append(det_hz / (np.linalg.det(x) ** (2 * (c - 1))
                                        * np.prod(op.y)))
            spread = (max(ratios) - min(ratios)) / abs(np.mean(ratios))
            assert spread <= 1e-9


class TestConditionBound:
    def test_identity_features(self):
        data = Dataset(np.eye(2), one_hot([1, 2], 2))
        red = reduce_two_class(np.zeros((2, 2)), data)
        k_exact, k_bound = condition_bound(red, data)
        assert k_exact == pytest.approx(1.0, rel=1e-12)
        assert k_bound == pytest.approx(1.0, rel=1e-12)

    def test_diagonal_features(self):
        data = Dataset(np.diag([1.0, 2.0]), one_hot([1, 2], 2))
        red = reduce_two_class(np.zeros((2, 2)), data)
        k_exact, k_bound = condition_bound(red, data)
        assert k_exact == pytest.approx(4.0, rel=1e-12)
        assert k_bound == pytest.approx(4.0, rel=1e-12)

    def test_bound_never_violated(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(d, d + 8))
            w, data = two_class_instance(rng, d, n)
            red = reduce_two_class(w, data)
            k_exact, k_bound = condition_bound(red, data)
            assert k_exact <= k_bound * (1.0 + 1e-10)

    def test_rank_deficient_features_raise(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
        data = Dataset(x, one_hot([1, 2], 2))
        red = reduce_two_class(np.zeros((2, 2)), data)
        with pytest.raises(RankDeficientError) as exc:
            condition_bound(red, data)
        assert exc.value.sv_min <= 1e-10 * exc.value.sv_max


class TestRankFactorsPerDataset:
    def test_one_rank_test_across_certify_bound_and_anchors(self, monkeypatch):
        calls = []
        original = core.rank_test

        def counting(x):
            calls.append(x.shape)
            return original(x)

        monkeypatch.setattr(core, "rank_test", counting)
        w, data = two_class_instance(np.random.default_rng(21), 4, 30)
        cert = certify(data)
        condition_bound(reduce_two_class(w, data), data)
        for k in range(3):
            extreme_eigenvalues_on_z(HessianOperator(data, k * w))
        assert cert.full_rank
        assert calls == [(4, 30)]

    def test_cached_factors_are_read_only(self):
        _, data = two_class_instance(np.random.default_rng(22), 3, 10)
        s, left = data.rank_factors
        assert data.rank_factors[0] is s
        assert not s.flags.writeable and not left.flags.writeable
        assert np.array_equal(s, core.rank_test(data.x)[0])


class TestPlan:
    def test_one_to_four(self):
        p = plan(1.0, 4.0)
        assert p.k == pytest.approx(4.0)
        assert p.theta == pytest.approx(0.6)
        assert p.eta_window[0] == pytest.approx(0.4, abs=1e-12)
        assert p.eta_window[1] == pytest.approx(0.4, abs=1e-12)
        assert p.eta_optimal == pytest.approx(0.4)

    def test_equal_extremes(self):
        p = plan(1.0, 1.0)
        assert p.theta == 0.0
        assert p.eta_window == (1.0, 1.0)
        assert p.eta_optimal == pytest.approx(1.0)

    def test_theta_depends_only_on_ratio(self):
        assert plan(2.0, 8.0).theta == pytest.approx(plan(1.0, 4.0).theta)

    def test_window_degenerates_to_optimal_eta(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            lo = float(rng.uniform(0.01, 2.0))
            hi = lo * float(rng.uniform(1.0, 50.0))
            p = plan(lo, hi)
            assert abs(p.eta_window[0] - p.eta_optimal) <= 1e-12 * p.eta_optimal
            assert abs(p.eta_window[1] - p.eta_optimal) <= 1e-12 * p.eta_optimal
            # spectral radius of I - eta*H at eta* equals theta at both ends
            radius = max(abs(1 - p.eta_optimal * lo), abs(1 - p.eta_optimal * hi))
            assert radius == pytest.approx(p.theta, abs=1e-12)

    def test_rejects_nonpositive_lambda_min(self):
        with pytest.raises(InvalidInputError):
            plan(0.0, 1.0)
        with pytest.raises(InvalidInputError):
            plan(-1.0, 1.0)

    def test_window_contraction_for_suboptimal_theta(self):
        # a theta above optimum opens a real window; everywhere inside it the
        # iteration matrix I - eta*M has spectral radius < 1
        rng = np.random.default_rng(9)
        w, data = two_class_instance(rng, 3, 8)
        red = reduce_two_class(w, data)
        evals = np.linalg.eigvalsh(red.m)
        lam_min, lam_max = float(evals[0]), float(evals[-1])
        theta_opt = plan(lam_min, lam_max).theta
        theta = 0.5 * (1.0 + theta_opt)
        lo, hi = eta_window(lam_min, lam_max, theta)
        assert lo < hi
        for eta in np.linspace(lo, hi, 7):
            radius = np.max(np.abs(np.linalg.eigvals(np.eye(3) - eta * red.m)))
            bound = max(abs(1 - eta * lam_min), abs(1 - eta * lam_max))
            assert radius <= bound + 1e-12
            if lo < eta < hi:
                assert radius < 1.0


class TestExtremeEigenvaluesOnZ:
    def test_two_class_identity(self):
        data = Dataset(np.eye(2), one_hot([1, 2], 2))
        op = HessianOperator(data, np.zeros((2, 2)))
        lo, hi = extreme_eigenvalues_on_z(op)
        assert lo == pytest.approx(0.5, rel=1e-12)
        assert hi == pytest.approx(0.5, rel=1e-12)

    def test_uniform_identity_matches_q_spectrum(self):
        # W = 0 and X = I make H act as Q on every column; on Z the spectrum
        # is the nontrivial part of the uniform-probability Q.  Every
        # eigenvalue on Z is 1/C, so Lanczos breaks down at every step.
        c, d = 5, 3
        data = Dataset(np.eye(d), one_hot([1, 2, 3], c))
        op = HessianOperator(data, np.zeros((c, d)))
        report = analyze_q(np.full(c, 1.0 / c))
        nontrivial = report.multiset()[1:]
        for use_dense in (True, False):
            lo, hi = extreme_eigenvalues_on_z(op, use_dense=use_dense)
            assert lo == pytest.approx(float(nontrivial[0]), rel=1e-10)
            assert hi == pytest.approx(float(nontrivial[-1]), rel=1e-10)

    def test_iterative_matches_dense(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((5, 12))
        data = Dataset(x, softmax(rng.standard_normal((4, 12))))
        op = HessianOperator(data, rng.standard_normal((4, 5)))
        lo_d, hi_d = extreme_eigenvalues_on_z(op, use_dense=True)
        lo_i, hi_i = extreme_eigenvalues_on_z(op, use_dense=False)
        assert lo_i == pytest.approx(lo_d, rel=1e-8)
        assert hi_i == pytest.approx(hi_d, rel=1e-8)

    def test_iterative_matches_dense_ill_conditioned(self):
        # decaying feature scales give K >= 50, with m = (C-1) D = 200 small
        # enough for the dense oracle
        op = ill_conditioned_operator()
        lo_d, hi_d = extreme_eigenvalues_on_z(op, use_dense=True)
        assert hi_d / lo_d >= 50.0
        lo_i, hi_i = extreme_eigenvalues_on_z(op, use_dense=False)
        assert lo_i == pytest.approx(lo_d, rel=1e-8)
        assert hi_i == pytest.approx(hi_d, rel=1e-8)

    def test_iterative_is_deterministic(self):
        op = ill_conditioned_operator()
        first = extreme_eigenvalues_on_z(op, use_dense=False)
        assert extreme_eigenvalues_on_z(op, use_dense=False) == first

    def test_two_class_matches_reduction(self):
        rng = np.random.default_rng(11)
        w, data = two_class_instance(rng, 4, 10)
        op = HessianOperator(data, w)
        lo, hi = extreme_eigenvalues_on_z(op)
        evals = np.linalg.eigvalsh(reduce_two_class(w, data).m)
        assert lo == pytest.approx(float(evals[0]), rel=1e-10)
        assert hi == pytest.approx(float(evals[-1]), rel=1e-10)

    def test_rank_deficient_raises(self):
        data = Dataset(np.array([[1.0, 2.0], [2.0, 4.0]]), one_hot([1, 2], 2))
        op = HessianOperator(data, np.zeros((2, 2)))
        with pytest.raises(RankDeficientError):
            extreme_eigenvalues_on_z(op)


class TestZeroSumBasis:
    def test_two_class_column_is_xi(self):
        assert np.allclose(zero_sum_basis(2)[:, 0], XI, atol=1e-15)

    def test_orthonormal_and_zero_sum(self):
        for c in (2, 3, 5, 8):
            b = zero_sum_basis(c)
            assert np.max(np.abs(b.T @ b - np.eye(c - 1))) <= 1e-12
            assert np.max(np.abs(b.sum(axis=0))) <= 1e-12
