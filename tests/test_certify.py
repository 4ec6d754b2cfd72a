import numpy as np
import pytest

from smxreg.certify import VERDICT_DEGENERATE, VERDICT_STRICT, certify
from smxreg.convergence import zero_sum_basis
from smxreg.core import Dataset, one_hot
from smxreg.hessian import HessianOperator
from smxreg.softmax import softmax


def dataset_from_x(x, c=3, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(x, softmax(rng.standard_normal((c, x.shape[1]))))


class TestCertify:
    def test_identity_features_are_strictly_convex(self):
        cert = certify(Dataset(np.eye(3), one_hot([1, 2, 3], 3)))
        assert cert.full_rank
        assert cert.verdict == VERDICT_STRICT
        assert cert.degeneracy_witness is None

    def test_zero_feature_row_is_degenerate(self):
        x = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        cert = certify(dataset_from_x(x))
        assert not cert.full_rank
        assert cert.verdict == VERDICT_DEGENERATE
        assert cert.degeneracy_witness is not None

    def test_fewer_samples_than_features_is_degenerate(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 3))
        cert = certify(dataset_from_x(x))
        assert not cert.full_rank
        assert cert.sv_min == 0.0

    def test_verdict_equivalent_to_full_rank(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(1, 8))
            x = rng.standard_normal((d, n))
            if rng.random() < 0.4 and d >= 2:
                x[d - 1] = x[0]  # force a dependent row
            cert = certify(dataset_from_x(x))
            assert cert.full_rank == (cert.verdict == VERDICT_STRICT)
            assert cert.full_rank == (np.linalg.matrix_rank(x) == d)

    def test_witness_annihilates_every_sample(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0], [0.5, 1.0]])  # rank 1
        cert = certify(dataset_from_x(x))
        u = cert.degeneracy_witness
        assert np.max(np.abs(u.sum(axis=0))) <= 1e-12  # witness lies in Z
        prod = u @ x
        assert np.linalg.norm(prod) <= 1e-8 * max(np.linalg.norm(u), 1.0)

    def test_witness_has_vanishing_quadratic_form_at_any_anchor(self):
        rng = np.random.default_rng(3)
        x = np.array([[1.0, -1.0, 2.0], [2.0, -2.0, 4.0]])  # rank 1
        data = dataset_from_x(x, c=3)
        cert = certify(data)
        u = cert.degeneracy_witness
        for _ in range(10):
            op = HessianOperator(data, rng.standard_normal((3, 2)))
            scale = max(float(np.sum(u * u)), 1e-30)
            assert op.quadratic_form(u) <= 1e-10 * scale

    def test_strict_verdict_means_positive_form_on_z(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 12))
        data = dataset_from_x(x, c=4)
        cert = certify(data)
        assert cert.full_rank
        b = zero_sum_basis(4)
        for _ in range(100):
            op_anchor = rng.standard_normal((4, 3))
            op = HessianOperator(data, op_anchor)
            u = b @ rng.standard_normal((3, 3))
            assert op.quadratic_form(u) > 0.0


class TestRankTest:
    def test_tall_data_needs_no_n_by_n_factor(self):
        # An N x N factor at this size would take 80 GB.
        rng = np.random.default_rng(5)
        x = rng.standard_normal((5, 100_000))
        cert = certify(dataset_from_x(x, c=2))
        assert cert.full_rank
        s = np.linalg.svd(x, compute_uv=False)
        assert cert.sv_max == pytest.approx(s[0], rel=1e-12)
        assert cert.sv_min == pytest.approx(s[-1], rel=1e-12)

    def test_dependent_row_at_large_n_has_witness(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((50, 20_000))
        x[17] = 0.5 * x[3] - 2.0 * x[40] + x[11]
        cert = certify(dataset_from_x(x))
        assert cert.verdict == VERDICT_DEGENERATE
        u = cert.degeneracy_witness
        assert np.linalg.norm(u @ x) <= 1e-8 * np.linalg.norm(u) * np.linalg.norm(x)

    @pytest.mark.parametrize("gap, full_rank", [(1e-12, False), (1e-6, True)])
    def test_threshold_resolves_nearly_equal_rows(self, gap, full_rank):
        # Squaring X (a Gram-matrix test) would blur sv_min below about
        # 1e-8 * sv_max and call the 1e-12 case full rank.
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 2000))
        r = rng.standard_normal(2000)
        x[2] = x[1] + gap * np.linalg.norm(x[1]) * r / np.linalg.norm(r)
        cert = certify(dataset_from_x(x))
        assert cert.full_rank == full_rank
