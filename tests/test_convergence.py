import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from smxreg import convergence, core
from smxreg.convergence import (
    curvature_bracket,
    dense_hessian_on_z,
    determinant_check,
    eta_window,
    extreme_eigenvalues_on_z,
    plan,
    zero_sum_basis,
)
from smxreg.core import (
    Dataset,
    InvalidInputError,
    RankDeficientError,
    SizeLimitError,
    UnsupportedShapeError,
    certify,
    one_hot,
)
from smxreg.hessian import HessianOperator
from smxreg.softmax import q_matrix, softmax
from smxreg.spectrum import DENSE_C_LIMIT, analyze_q, dense_q_spectrum


def two_class_instance(rng, d, n):
    x = rng.standard_normal((d, n))
    data = Dataset(x, softmax(rng.standard_normal((2, n))))
    return rng.standard_normal((2, d)), data


def two_class_bracket(w, data):
    """The bracket at anchor ``w``: for C = 2, alpha = 2 y1 y2 and M."""
    return curvature_bracket(HessianOperator(data, w))


def dense_extremes(op):
    """The oracle: extreme eigenvalues of the dense Z-restricted Hessian."""
    evals = np.linalg.eigvalsh(dense_hessian_on_z(op))
    return float(evals[0]), float(evals[-1])


def ill_conditioned_operator(c=6, d=40, n=300):
    rng = np.random.default_rng(12)
    x = rng.standard_normal((d, n)) * (0.93 ** np.arange(d))[:, None]
    data = Dataset(x, softmax(rng.standard_normal((c, n))))
    return HessianOperator(data, 0.5 * rng.standard_normal((c, d)))


def peaked_operator(c, d, n=60):
    """W X with entries of variance D: sharply peaked softmax outputs, K on Z
    about 1.9e3 at C=12, D=20 and 3.2e2 at C=30, D=8."""
    rng = np.random.default_rng(1220)
    x = rng.standard_normal((d, n))
    data = Dataset(x, softmax(rng.standard_normal((c, n))))
    return HessianOperator(data, rng.standard_normal((c, d)))


def hard_label_operator(rng, most_c, most_d, extra_n, peaked=False):
    """C from 3 to ``most_c``, D from 2 to ``most_d``, N from D+1 to
    3D + ``extra_n``, hard labels, and W X with entries of variance up to
    100, or up to 100 D when ``peaked``."""
    c, d = int(rng.integers(3, most_c + 1)), int(rng.integers(2, most_d + 1))
    n = int(rng.integers(d + 1, 3 * d + extra_n + 1))
    data = Dataset(rng.standard_normal((d, n)), one_hot(rng.integers(1, c + 1, n), c))
    scale = np.sqrt(rng.uniform(0.0, 100.0 * (d if peaked else 1)) / d)
    return HessianOperator(data, scale * rng.standard_normal((c, d)))


def record_stacks(monkeypatch):
    """The shapes of the stacks that ``HessianOperator.apply`` gets from now on."""
    shapes = []
    original = HessianOperator.apply

    def recording(self, u):
        shapes.append(np.shape(u))
        return original(self, u)

    monkeypatch.setattr(HessianOperator, "apply", recording)
    return shapes


class TestTwoClassBracket:
    def test_zero_weights_give_uniform_alpha(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 5))
        data = Dataset(x, softmax(rng.standard_normal((2, 5))))
        br = two_class_bracket(np.zeros((2, 3)), data)
        assert np.allclose(br.mu_low, 0.5, atol=1e-15)
        assert np.allclose(br.gram_low, 0.5 * x @ x.T, atol=1e-12)

    def test_identity_features(self):
        data = Dataset(np.eye(2), one_hot([1, 2], 2))
        br = two_class_bracket(np.zeros((2, 2)), data)
        assert np.allclose(br.gram_low, np.diag([0.5, 0.5]), atol=1e-15)

    def test_one_weight_and_one_gram(self):
        # for two classes both sides of the bracket are alpha = 2 y1 y2 and M,
        # each one object, and M is solved once
        rng = np.random.default_rng(1)
        w, data = two_class_instance(rng, 4, 9)
        br = two_class_bracket(w, data)
        y = softmax(w @ data.x)
        assert np.array_equal(br.mu_low, 2.0 * y[0] * y[1])
        assert br.mu_high is br.mu_low and br.gram_high is br.gram_low
        evals = np.linalg.eigvalsh(br.gram_low)
        assert (br.low, br.high) == (evals[0], evals[-1])
        assert br.k_bracket == evals[-1] / evals[0]

    def test_alpha_range_and_m_psd(self):
        rng = np.random.default_rng(1)
        w, data = two_class_instance(rng, 4, 9)
        br = two_class_bracket(w, data)
        assert np.all(br.mu_low > 0.0) and np.all(br.mu_low <= 0.5)
        assert np.max(np.abs(br.gram_low - br.gram_low.T)) <= 1e-12
        assert np.linalg.eigvalsh(br.gram_low)[0] >= -1e-12

    def test_intertwines_with_hessian(self):
        rng = np.random.default_rng(2)
        xi = zero_sum_basis(2)[:, 0]
        for _ in range(100):
            d = int(rng.integers(1, 7))
            w, data = two_class_instance(rng, d, int(rng.integers(2, 10)))
            op = HessianOperator(data, w)
            br = curvature_bracket(op)
            u = rng.standard_normal(d)
            lhs = op.apply(np.outer(xi, u))
            rhs = np.outer(xi, br.gram_low @ u)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(u)

    def test_extremes_equal_the_dense_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            d = int(rng.integers(1, 9))
            w, data = two_class_instance(rng, d, int(rng.integers(2 * d, 3 * d + 5)))
            op = HessianOperator(data, w)
            br = curvature_bracket(op)
            lo, hi = dense_extremes(op)
            assert abs(br.low - lo) <= 1e-12 * abs(lo)
            assert abs(br.high - hi) <= 1e-12 * abs(hi)


class TestDeterminantCheck:
    def test_identity_example(self):
        data = Dataset(np.eye(2), one_hot([1, 2], 2))
        br = two_class_bracket(np.zeros((2, 2)), data)
        lhs, rhs = determinant_check(br, data)
        assert lhs == pytest.approx(0.25, rel=1e-12)
        assert rhs == pytest.approx(0.25, rel=1e-12)

    def test_scalar_case(self):
        x = np.array([[1.7]])
        data = Dataset(x, np.array([[0.3], [0.7]]))
        w = np.array([[0.4], [-0.2]])
        lhs, rhs = determinant_check(two_class_bracket(w, data), data)
        y = softmax(w @ x)
        expected = 2.0 * y[0, 0] * y[1, 0] * 1.7 ** 2
        assert lhs == pytest.approx(expected, rel=1e-12)
        assert rhs == pytest.approx(expected, rel=1e-12)

    def test_random_square_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = int(rng.integers(1, 9))
            w, data = two_class_instance(rng, d, d)
            lhs, rhs = determinant_check(two_class_bracket(w, data), data)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_requires_square_x(self):
        rng = np.random.default_rng(5)
        w, data = two_class_instance(rng, 3, 5)
        with pytest.raises(UnsupportedShapeError):
            determinant_check(two_class_bracket(w, data), data)

    def test_requires_two_classes(self):
        rng = np.random.default_rng(5)
        data = Dataset(rng.standard_normal((3, 3)), softmax(rng.standard_normal((3, 3))))
        with pytest.raises(UnsupportedShapeError):
            determinant_check(curvature_bracket(HessianOperator(data, np.zeros((3, 3)))),
                              data)

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


class TestBracketBounds:
    def test_identity_features(self):
        data = Dataset(np.eye(2), one_hot([1, 2], 2))
        br = two_class_bracket(np.zeros((2, 2)), data)
        assert br.k_bracket == pytest.approx(1.0, rel=1e-12)
        assert br.k_bound == pytest.approx(1.0, rel=1e-12)

    def test_diagonal_features(self):
        data = Dataset(np.diag([1.0, 2.0]), one_hot([1, 2], 2))
        br = two_class_bracket(np.zeros((2, 2)), data)
        assert br.k_bracket == pytest.approx(4.0, rel=1e-12)
        assert br.k_bound == pytest.approx(4.0, rel=1e-12)

    def test_bound_never_violated(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(d, d + 8))
            w, data = two_class_instance(rng, d, n)
            br = two_class_bracket(w, data)
            assert br.k_bracket <= br.k_bound * (1.0 + 1e-10)

    def test_rank_deficient_features_give_infinite_bounds(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
        data = Dataset(x, one_hot([1, 2], 2))
        br = two_class_bracket(np.zeros((2, 2)), data)
        assert abs(br.low) <= 1e-12 * br.high
        assert br.k_bracket == br.k_bound == np.inf

    @pytest.mark.parametrize("c", [3, 4, 5, 6])
    def test_contains_the_dense_extremes(self, c):
        # random anchors, from uniform to saturated (W X entries up to about
        # 300, where outputs underflow to 0), hard and soft targets
        rng = np.random.default_rng(100 + c)
        for trial in range(40):
            d = int(rng.integers(1, 9))
            n = int(rng.integers(d + 1, 3 * d + 12))
            t = softmax(rng.standard_normal((c, n))) if trial % 2 else \
                one_hot(rng.integers(1, c + 1, n), c)
            data = Dataset(rng.standard_normal((d, n)), t)
            scale = [0.0, 0.3, 3.0, 30.0][trial % 4]
            op = HessianOperator(data, scale * rng.standard_normal((c, d)))
            br = curvature_bracket(op)
            lo, hi = dense_extremes(op)
            # the oracle's rounding: eps-sized errors in each Q, times sum |x|^2
            atol = 1e-14 * np.sum(data.x ** 2)
            assert br.low <= lo + 1e-12 * hi + atol
            assert hi <= br.high * (1.0 + 1e-12) + atol
            if lo > 1e-8 * hi:
                assert hi / lo <= br.k_bracket * (1.0 + 1e-10)
                assert br.k_bracket <= br.k_bound * (1.0 + 1e-10)

    def test_per_sample_values_are_the_q_spectrum_ends(self):
        rng = np.random.default_rng(31)
        c, d, n = 7, 3, 50
        y = softmax(4.0 * rng.standard_normal((c, n)))
        y[:, :5] = softmax(40.0 * rng.standard_normal((c, 5)))
        data = Dataset(rng.standard_normal((d, n)), y)
        op = HessianOperator(data, np.eye(c, d))
        br = curvature_bracket(op)
        for k in range(n):
            spectrum = dense_q_spectrum(op.y[:, k])
            assert br.mu_low[k] == pytest.approx(max(spectrum[1], 0.0), abs=1e-15)
            assert br.mu_high[k] == pytest.approx(spectrum[-1], rel=1e-12)
        assert np.all(br.mu_low >= 0.0)
        assert np.allclose(br.gram_low, (data.x * br.mu_low) @ data.x.T, rtol=0, atol=1e-14)
        assert np.allclose(br.gram_high, (data.x * br.mu_high) @ data.x.T, rtol=0,
                           atol=1e-14)

    def test_stacks_stay_within_one_block(self, monkeypatch):
        # with 2 KiB blocks, the per-sample eigvalsh runs on stacks of at most
        # two blocks' bytes, and the values equal those of one stack
        rng = np.random.default_rng(32)
        c, d, n = 5, 3, 400
        data = Dataset(rng.standard_normal((d, n)), softmax(rng.standard_normal((c, n))))
        op = HessianOperator(data, rng.standard_normal((c, d)))
        whole = curvature_bracket(op)
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a):
            shapes.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(core, "PARALLEL_MIN_BYTES", 2048)
        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        blocked = curvature_bracket(op)
        stacks = [s for s in shapes if len(s) == 3]
        assert len(stacks) == len(core.column_plan(n, n * (c - 1) ** 2 * 8)) == 25
        assert sum(s[0] for s in stacks) == n
        assert all(s[0] * (c - 1) ** 2 * 8 < 2 * 2048 for s in stacks)
        assert np.array_equal(blocked.mu_low, whole.mu_low)
        assert np.array_equal(blocked.mu_high, whole.mu_high)

    def test_saturated_anchor_bound_is_infinite_without_a_warning(self):
        # the certify_saturated data of the CLI's strict-JSON test: at this
        # anchor 2 y1 y2 underflows to 0 where |x0| > 1.5 (the suite turns
        # warnings into errors)
        feats = np.random.default_rng(0).standard_normal((40, 3))
        x = np.vstack([feats.T, np.ones((1, 40))])
        data = Dataset(x, one_hot((feats[:, 0] > 0) + 1, 2))
        br = two_class_bracket(np.array([[0.0, 0, 0, 0], [500, 0, 0, 0]]), data)
        assert np.min(br.mu_low) == 0.0
        assert br.k_bound == np.inf and np.isfinite(br.k_bracket)

    def test_anchor_where_every_weight_underflows_has_infinite_bounds(self):
        # the same data at W = [[0, 0, 0, 0], [1e5, 0, 0, 0]]: every 2 y1 y2
        # is 0, so both Grams are 0 and both bounds are infinite, not 0 / 0
        feats = np.random.default_rng(0).standard_normal((40, 3))
        x = np.vstack([feats.T, np.ones((1, 40))])
        data = Dataset(x, one_hot((feats[:, 0] > 0) + 1, 2))
        br = two_class_bracket(np.array([[0.0, 0, 0, 0], [1e5, 0, 0, 0]]), data)
        assert np.max(br.mu_high) == 0.0 and br.low == br.high == 0.0
        assert br.k_bracket == br.k_bound == np.inf

    def test_more_classes_than_the_dense_limit_are_refused(self):
        c = DENSE_C_LIMIT + 1
        data = Dataset(np.ones((1, 2)), one_hot([1, c], c))
        with pytest.raises(SizeLimitError, match=f"C <= {DENSE_C_LIMIT}, got {c}"):
            curvature_bracket(HessianOperator(data, np.zeros((c, 1))))


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
        two_class_bracket(w, data)
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

    def test_lambda_max_below_lambda_min_is_refused(self):
        with pytest.raises(InvalidInputError) as info:
            plan(2.0, 1.0)
        assert type(info.value) is InvalidInputError
        assert str(info.value) == "lambda_max must be >= lambda_min"

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
        br = two_class_bracket(w, data)
        lam_min, lam_max = br.low, br.high
        theta_opt = plan(lam_min, lam_max).theta
        theta = 0.5 * (1.0 + theta_opt)
        lo, hi = eta_window(lam_min, lam_max, theta)
        assert lo < hi
        for eta in np.linspace(lo, hi, 7):
            radius = np.max(np.abs(np.linalg.eigvals(np.eye(3) - eta * br.gram_low)))
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
        # eigenvalue on Z is 1/C, so the start block is already converged.
        c, d = 5, 3
        data = Dataset(np.eye(d), one_hot([1, 2, 3], c))
        op = HessianOperator(data, np.zeros((c, d)))
        report = analyze_q(np.full(c, 1.0 / c))
        nontrivial = report.multiset()[1:]
        for lo, hi in (dense_extremes(op), extreme_eigenvalues_on_z(op)):
            assert lo == pytest.approx(float(nontrivial[0]), rel=1e-10)
            assert hi == pytest.approx(float(nontrivial[-1]), rel=1e-10)

    def test_iterative_matches_dense(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((5, 12))
        data = Dataset(x, softmax(rng.standard_normal((4, 12))))
        op = HessianOperator(data, rng.standard_normal((4, 5)))
        lo_d, hi_d = dense_extremes(op)
        lo_i, hi_i = extreme_eigenvalues_on_z(op)
        assert lo_i == pytest.approx(lo_d, rel=1e-8)
        assert hi_i == pytest.approx(hi_d, rel=1e-8)

    def test_iterative_matches_dense_ill_conditioned(self):
        # decaying feature scales give K >= 50, with m = (C-1) D = 200 small
        # enough for the dense oracle
        op = ill_conditioned_operator()
        lo_d, hi_d = dense_extremes(op)
        assert hi_d / lo_d >= 50.0
        lo_i, hi_i = extreme_eigenvalues_on_z(op)
        assert lo_i == pytest.approx(lo_d, rel=1e-8)
        assert hi_i == pytest.approx(hi_d, rel=1e-8)

    def test_small_problem_forms_no_dense_matrix(self, monkeypatch):
        # C*D = 20 is far below the dense size guard; LOBPCG still runs
        rng = np.random.default_rng(13)
        data = Dataset(rng.standard_normal((5, 30)),
                       softmax(rng.standard_normal((4, 30))))
        op = HessianOperator(data, rng.standard_normal((4, 5)))
        lo_d, hi_d = dense_extremes(op)

        def refuse(*args):
            raise AssertionError("dense Hessian formed")

        monkeypatch.setattr(HessianOperator, "dense", refuse)
        monkeypatch.setattr(convergence, "dense_hessian_on_z", refuse)
        lo_i, hi_i = extreme_eigenvalues_on_z(op)
        assert lo_i == pytest.approx(lo_d, rel=1e-8)
        assert hi_i == pytest.approx(hi_d, rel=1e-8)

    @pytest.mark.parametrize("c, d", [(12, 20), (30, 8)])
    def test_peaked_softmax_matches_dense(self, c, d):
        op = peaked_operator(c, d)
        lo_d, hi_d = dense_extremes(op)
        assert hi_d / lo_d >= 300.0
        lo_i, hi_i = extreme_eigenvalues_on_z(op)
        assert lo_i == pytest.approx(lo_d, rel=1e-8)
        assert hi_i == pytest.approx(hi_d, rel=1e-8)

    @pytest.mark.parametrize("seed", [41, 325, 693])
    def test_sharply_peaked_problems_end_exactly(self, monkeypatch, seed):
        # m = 99, 161 and 70, K on Z 1.7e5, 2.8e5 and 5.8e5: LOBPCG stalls
        # here for thousands of directions, so the run reaches its budget of
        # 2m and ends on the assembled H_Z
        op = hard_label_operator(np.random.default_rng([7, seed]), 15, 29, 40, peaked=True)
        m = (op.c - 1) * op.d
        lo_d, hi_d = dense_extremes(op)
        shapes = record_stacks(monkeypatch)
        lo_i, hi_i = extreme_eigenvalues_on_z(op)
        assert lo_i == pytest.approx(lo_d, rel=1e-10)
        assert hi_i == pytest.approx(hi_d, rel=1e-10)
        assert 2 * m < sum(s[0] for s in shapes) <= 3 * m

    def test_saturated_anchor_with_no_direction_left_ends(self, monkeypatch):
        # C=3, D=1: the start block spans Z, and outputs within 1.4e-11 of 1
        # leave the products' rounding above the stop tolerance, so every new
        # direction is dropped and the run ends on the assembled H_Z.  The
        # cancellation in Q puts apply and the dense oracle about 1e-6 of
        # lambda_max apart here.
        data = Dataset(np.ones((1, 1)), one_hot([1], 3))
        op = HessianOperator(data, np.array([[25.0], [0.0], [-25.0]]))
        lo_d, hi_d = dense_extremes(op)
        shapes = record_stacks(monkeypatch)
        lo_i, hi_i = extreme_eigenvalues_on_z(op)
        assert sum(s[0] for s in shapes) <= 3 * 2
        assert abs(lo_i - lo_d) <= 1e-5 * hi_d
        assert abs(hi_i - hi_d) <= 1e-5 * hi_d

    def test_every_product_is_one_stack_of_at_most_three(self, monkeypatch):
        # the start block is one stack of three; after it only the lowest
        # and the top Ritz vectors get directions, the guard between them none
        op = ill_conditioned_operator()
        shapes = record_stacks(monkeypatch)
        extreme_eigenvalues_on_z(op)
        assert shapes[0] == (3, op.c, op.d)
        assert all(len(s) == 3 and 1 <= s[0] <= 2 and s[1:] == (op.c, op.d)
                   for s in shapes[1:])

    @pytest.mark.parametrize("make, most", [
        (lambda: peaked_operator(12, 20), 433),
        (lambda: peaked_operator(30, 8), 229),
        (ill_conditioned_operator, 53),
    ], ids=["peaked-12x20", "peaked-30x8", "ill-conditioned"])
    def test_product_totals(self, monkeypatch, make, most):
        # the totals are exact: the start block and the problems are seeded
        op = make()
        shapes = record_stacks(monkeypatch)
        extreme_eigenvalues_on_z(op)
        assert sum(s[0] for s in shapes) <= most

    @pytest.mark.parametrize("seed, peaked, most_k", [
        *(pytest.param(seed, False, 1e4, id=str(seed)) for seed in range(24)),
        *(pytest.param(seed, True, 1e7, id=f"peaked-{seed}") for seed in range(24)),
    ])
    def test_extremes_match_dense_on_random_problems(self, monkeypatch, seed, peaked, most_k):
        # C 3-8, D 2-12, N D+1 to 3D+20, hard labels, activations of variance
        # up to 100, or up to 100 D; a draw with K > most_k on Z is drawn
        # again.  The stop rule bounds both errors by about LOBPCG_TOL *
        # lambda_max, so a start or a guard that settles on a pair that is
        # not extreme fails here; a run past its budget of 2m directions
        # ends on the assembled H_Z, exact to rounding.
        rng = np.random.default_rng([31, seed])
        while True:
            op = hard_label_operator(rng, 8, 12, 20, peaked)
            lo_d, hi_d = dense_extremes(op)
            if hi_d <= most_k * lo_d:
                break
        shapes = record_stacks(monkeypatch)
        lo_i, hi_i = extreme_eigenvalues_on_z(op)
        exact = sum(s[0] for s in shapes) > 2 * (op.c - 1) * op.d
        tol = 1e-12 if exact else 2e-8
        assert abs(lo_i - lo_d) <= tol * hi_d
        assert abs(hi_i - hi_d) <= tol * hi_d

    def test_peak_memory_at_curvature_shape(self, monkeypatch):
        # C=10, D=256, N=8000: the stacked products and three blocks of at
        # most three (C-1) D vectors stay far below one copy of X (16 MiB),
        # and the run ends inside its budget, with no stack of the finish
        rng = np.random.default_rng(23)
        c, d, n = 10, 256, 8000
        x = rng.standard_normal((d - 1, n)) * (0.993 ** np.arange(d - 1))[:, None]
        data = Dataset(np.vstack([x, np.ones((1, n))]), one_hot(rng.integers(1, c + 1, n), c))
        op = HessianOperator(data, 0.3 * rng.standard_normal((c, d)))
        certify(data)  # the rank test copies X; it runs once per dataset
        shapes = record_stacks(monkeypatch)
        tracemalloc.start()
        try:
            extreme_eigenvalues_on_z(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert max(s[0] for s in shapes) <= 3

    def test_peak_memory_of_the_exact_finish(self, monkeypatch):
        # C=10, D=50, N=400, W X of variance 100 D: the run reaches its budget
        # of 2m = 900 directions and assembles H_Z from stacks of D // C = 5
        # directions, whose V = U X is the size of X.  The finish holds H_Z
        # (m^2 floats) and one stacked product, V and one temporary of its
        # size; the LOBPCG blocks, the (X X^T)^-1 factor and the C x D
        # operands of the stack stay below 128 vectors of m floats.
        rng = np.random.default_rng([23, 1])
        c, d, n = 10, 50, 400
        m = (c - 1) * d
        data = Dataset(rng.standard_normal((d, n)), one_hot(rng.integers(1, c + 1, n), c))
        op = HessianOperator(data, 10.0 * rng.standard_normal((c, d)))
        certify(data)
        shapes = record_stacks(monkeypatch)
        tracemalloc.start()
        try:
            extreme_eigenvalues_on_z(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(s[0] for s in shapes) > 2 * m
        assert shapes[-1][0] == 5 and 5 * c * n * 8 == data.x.nbytes
        assert peak <= 8 * m * m + 2.2 * data.x.nbytes + 128 * 8 * m

    def test_iterative_is_deterministic(self):
        op = ill_conditioned_operator()
        first = extreme_eigenvalues_on_z(op)
        assert extreme_eigenvalues_on_z(op) == first

    def test_two_class_matches_reduction(self):
        rng = np.random.default_rng(11)
        w, data = two_class_instance(rng, 4, 10)
        op = HessianOperator(data, w)
        lo, hi = extreme_eigenvalues_on_z(op)
        evals = np.linalg.eigvalsh(two_class_bracket(w, data).gram_low)
        assert lo == pytest.approx(float(evals[0]), rel=1e-10)
        assert hi == pytest.approx(float(evals[-1]), rel=1e-10)

    def test_rank_deficient_raises(self):
        data = Dataset(np.array([[1.0, 2.0], [2.0, 4.0]]), one_hot([1, 2], 2))
        op = HessianOperator(data, np.zeros((2, 2)))
        with pytest.raises(RankDeficientError):
            extreme_eigenvalues_on_z(op)


class TestLobpcgSteps:
    def test_orthonormal_rows_are_orthonormal_and_orthogonal_to_q(self):
        rng = np.random.default_rng(40)
        m = 300
        q = np.linalg.qr(rng.standard_normal((m, 4)))[0].T
        for k in (1, 2, 3, 6):
            w = convergence._orthonormal_rows(rng.standard_normal((k, m)), q)
            assert w.shape == (k, m)
            assert np.max(np.abs(w @ w.T - np.eye(k))) <= 1e-13
            assert np.max(np.abs(w @ q.T)) <= 1e-13
        # rows with only 1e-7 of their length off q: one projection leaves
        # them about 1e-9 inside span(q), the second round removes that
        near = rng.standard_normal((2, 4)) @ q + 1e-7 * rng.standard_normal((2, m))
        w = convergence._orthonormal_rows(near, q)
        assert w.shape == (2, m)
        assert np.max(np.abs(w @ w.T - np.eye(2))) <= 1e-13
        assert np.max(np.abs(w @ q.T)) <= 1e-13

    def test_orthonormal_rows_drop_dependent_rows(self):
        rng = np.random.default_rng(41)
        m = 50
        q = np.linalg.qr(rng.standard_normal((m, 3)))[0].T
        free = rng.standard_normal((2, m))
        inside = rng.standard_normal(3) @ q
        w = convergence._orthonormal_rows(np.vstack([free[0], inside, free[1], free[0]]), q)
        assert w.shape == (2, m)
        assert np.max(np.abs(w @ w.T - np.eye(2))) <= 1e-13
        assert np.max(np.abs(w @ q.T)) <= 1e-13
        # the span is that of the free rows off q
        free_off_q = free - (free @ q.T) @ q
        assert np.linalg.norm(free_off_q - (free_off_q @ w.T) @ w) <= 1e-12
        # more rows than columns: at most m of them are independent
        many = convergence._orthonormal_rows(rng.standard_normal((5, 3)), np.empty((0, 3)))
        assert many.shape == (3, 3)
        assert np.max(np.abs(many @ many.T - np.eye(3))) <= 1e-13

    def test_orthonormal_rows_of_dependent_rows_are_empty(self):
        rng = np.random.default_rng(42)
        m = 40
        q = np.linalg.qr(rng.standard_normal((m, 3)))[0].T
        w = convergence._orthonormal_rows(rng.standard_normal((4, 3)) @ q, q)
        assert w.shape == (0, m)
        assert convergence._orthonormal_rows(np.zeros((2, m)), q).shape == (0, m)

    @pytest.mark.parametrize("decay", [1.0, 0.946], ids=["well-conditioned", "k-1e6"])
    def test_one_product_preconditioner_equals_two_products(self, decay):
        # r (X X^T)^-1 as one product with left^T diag(1/s^2) left, against
        # the two products r left^T diag(1/s^2) and then left
        rng = np.random.default_rng(43)
        d, n = 256, 2000
        x = rng.standard_normal((d, n)) * (decay ** np.arange(d))[:, None]
        data = Dataset(x, softmax(rng.standard_normal((3, n))))
        s, left = data.rank_factors
        if decay < 1.0:
            assert 1e5 <= s[0] / s[-1] <= 1e7
        r = rng.standard_normal((2 * 9, d))
        two = ((r @ left.T) / s**2) @ left
        one = r @ convergence._xxt_inverse(s, left)
        assert np.linalg.norm(one - two) <= 1e-12 * np.linalg.norm(two)


class TestZeroSumBasis:
    def test_two_class_column_is_xi(self):
        assert np.array_equal(zero_sum_basis(2)[:, 0], np.array([1.0, -1.0]) / np.sqrt(2.0))

    def test_orthonormal_and_zero_sum(self):
        for c in (2, 3, 5, 8):
            b = zero_sum_basis(c)
            assert np.max(np.abs(b.T @ b - np.eye(c - 1))) <= 1e-12
            assert np.max(np.abs(b.sum(axis=0))) <= 1e-12

    def test_dense_on_z_is_the_per_sample_sum(self):
        # reference: sum_n kron(x x^T, B^T Q^(n) B), assembled per sample
        rng = np.random.default_rng(14)
        for c, d, n in ((3, 2, 2), (4, 5, 12), (6, 40, 300)):
            data = Dataset(rng.standard_normal((d, n)),
                           softmax(rng.standard_normal((c, n))))
            op = HessianOperator(data, rng.standard_normal((c, d)))
            b = zero_sum_basis(c)
            ref = sum(np.kron(np.outer(x, x), b.T @ q_matrix(y) @ b)
                      for x, y in zip(data.x.T, op.y.T))
            err = np.max(np.abs(dense_hessian_on_z(op) - ref))
            assert err <= 1e-13 * np.max(np.abs(ref))


class TestNumpyOnly:
    def test_import_and_extremes_load_no_scipy(self):
        # the extremes solver is numpy only: no scipy* module after import
        # or after a C > 2 solve
        code = ("import sys, numpy as np, smxreg, smxreg.cli\n"
                "loaded = [m for m in sys.modules if m.startswith('scipy')]\n"
                "rng = np.random.default_rng(0)\n"
                "data = smxreg.Dataset(rng.standard_normal((4, 20)),\n"
                "                      smxreg.softmax(rng.standard_normal((3, 20))))\n"
                "smxreg.extreme_eigenvalues_on_z(smxreg.HessianOperator(data, np.zeros((3, 4))))\n"
                "loaded += [m for m in sys.modules if m.startswith('scipy')]\n"
                "print(sorted(set(loaded)))\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), check=True)
        assert proc.stdout == "[]\n"
