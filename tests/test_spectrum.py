import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smxreg.core import InvalidInputError
from smxreg.softmax import q_matrix, softmax
from smxreg.spectrum import (
    BISECT_TOL,
    DEGENERATE_GAP,
    GROUP_TOL,
    KIND_INTERLACED,
    KIND_REPEATED,
    KIND_ZERO,
    analyze_q,
    dense_q_spectrum,
    nullspace_basis,
)

probability_vectors = st.lists(
    st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=8
).map(lambda vals: np.array(vals) / np.sum(vals))


def entry_of_kind(report, kind):
    return [e for e in report.eigenvalues if e.kind == kind]


def scalar_groups(pos_sorted):
    """Reference grouping, one value at a time: a value joins its
    predecessor's group when the two are at most GROUP_TOL apart."""
    groups = []
    for v in pos_sorted:
        if groups and v - groups[-1][-1] <= GROUP_TOL:
            groups[-1].append(float(v))
        else:
            groups.append([float(v)])
    return [float(np.mean(g)) for g in groups], [len(g) for g in groups]


def scalar_roots(values, counts):
    """Reference bisection, one gap and one point at a time.  The batched
    bisection in analyze_q does the same arithmetic, so its roots must be
    equal bit for bit."""
    def f(lam):
        return float(np.sum(counts * values * values / (values - lam)))

    roots = []
    for lo, hi in zip(values[:-1], values[1:]):
        lo, hi = float(lo), float(hi)
        if hi - lo < DEGENERATE_GAP:
            roots.append(lo)
            continue
        pad = 1e-15 * (hi - lo)
        lo2 = max(lo + pad, np.nextafter(lo, hi))
        hi2 = min(hi - pad, np.nextafter(hi, lo))
        if f(lo2) >= 1.0:
            roots.append(float(lo2))
            continue
        if f(hi2) <= 1.0:
            roots.append(float(hi2))
            continue
        while hi2 - lo2 > BISECT_TOL:
            mid = 0.5 * (lo2 + hi2)
            if not lo2 < mid < hi2:
                break
            if f(mid) < 1.0:
                lo2 = mid
            else:
                hi2 = mid
        roots.append(float(0.5 * (lo2 + hi2)))
    return roots


class TestAnalyzeQ:
    def test_uniform_three(self):
        report = analyze_q(np.array([1, 1, 1]) / 3.0)
        assert [(e.value, e.multiplicity) for e in report.eigenvalues] == [
            (0.0, 1),
            (pytest.approx(1 / 3), 2),
        ]
        assert entry_of_kind(report, KIND_REPEATED)[0].multiplicity == 2

    def test_boundary_one_hot(self):
        report = analyze_q(np.array([0.0, 1.0]))
        assert [(e.value, e.multiplicity, e.kind) for e in report.eigenvalues] == [
            (0.0, 2, KIND_ZERO)
        ]
        assert report.support == (1,)

    def test_three_distinct_interlaced(self):
        y = np.array([0.2, 0.3, 0.5])
        report = analyze_q(y)
        interlaced = entry_of_kind(report, KIND_INTERLACED)
        assert len(interlaced) == 2
        assert 0.2 < interlaced[0].value < 0.3
        assert 0.3 < interlaced[1].value < 0.5
        assert np.max(np.abs(report.multiset() - dense_q_spectrum(y))) <= 1e-10

    def test_rejects_non_probability_vectors(self):
        with pytest.raises(InvalidInputError):
            analyze_q(np.array([0.5, 0.6]))
        with pytest.raises(InvalidInputError):
            analyze_q(np.array([-0.1, 1.1]))

    def test_multiplicities_sum_to_c(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = int(rng.integers(2, 10))
            raw = rng.random(c)
            y = raw / raw.sum()
            report = analyze_q(y)
            assert sum(e.multiplicity for e in report.eigenvalues) == c

    def test_zero_multiplicity_counts_zero_coordinates(self):
        y = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
        report = analyze_q(y)
        zero = entry_of_kind(report, KIND_ZERO)[0]
        assert zero.multiplicity == 1 + 3
        assert report.support == (1, 3)

    def test_matches_dense_oracle_with_duplicates_and_zeros(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(200):
            c = int(rng.integers(2, 9))
            raw = rng.random(c)
            if rng.random() < 0.4 and c >= 3:
                j, k = rng.choice(c, size=2, replace=False)
                raw[j] = raw[k]
            if rng.random() < 0.4:
                raw[rng.integers(0, c)] = 0.0
            y = raw / raw.sum()
            delta = np.max(np.abs(analyze_q(y).multiset() - dense_q_spectrum(y)))
            worst = max(worst, float(delta))
        # several repeated groups, singletons and zeros in one vector
        raw = np.concatenate([np.repeat([0.3, 0.7, 1.1, 2.0], [2, 3, 5, 12]),
                              [0.45, 0.9, 1.6], np.zeros(4)])
        y = rng.permutation(raw) / raw.sum()
        report = analyze_q(y)
        assert report.counts == (2, 1, 3, 1, 5, 1, 12)
        delta = np.max(np.abs(report.multiset() - dense_q_spectrum(y)))
        worst = max(worst, float(delta))
        assert worst <= 1e-10

    def test_interlaced_roots_strictly_inside_brackets(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            raw = rng.random(6)
            y = raw / raw.sum()
            for e in entry_of_kind(analyze_q(y), KIND_INTERLACED):
                lo, hi = e.bracket
                assert lo < e.value < hi

    def test_secular_sign_change_across_brackets(self):
        rng = np.random.default_rng(3)
        raw = rng.random(5)
        y = raw / raw.sum()
        report = analyze_q(y)
        a = np.array(report.distinct_values)
        nu = np.array(report.counts)
        for e in entry_of_kind(report, KIND_INTERLACED):
            lo, hi = e.bracket
            eps = 1e-9 * (hi - lo)
            f_lo = float(np.sum(nu * a * a / (a - (lo + eps))))
            f_hi = float(np.sum(nu * a * a / (a - (hi - eps))))
            assert f_lo < 1.0 < f_hi

    def test_trace_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            raw = rng.random(int(rng.integers(2, 9)))
            y = raw / raw.sum()
            total = analyze_q(y).multiset().sum()
            assert abs(total - np.sum(y * (1 - y))) <= 1e-12

    def test_eigenvalues_bounded_by_max_coordinate(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            raw = 0.05 + rng.random(5)
            y = raw / raw.sum()
            ms = analyze_q(y).multiset()
            assert np.all(ms >= 0.0)
            assert ms[-1] <= np.max(y)

    def test_grouping_tolerance_merges_near_equal_coordinates(self):
        base = 0.25
        y = np.array([base, base + 1e-13, base - 1e-13, 0.25])
        y = y / y.sum()
        report = analyze_q(y)
        # all four coordinates collapse to one distinct value
        assert len(report.distinct_values) == 1
        assert report.counts == (4,)

    def test_degenerate_gap_is_flagged_not_bisected(self):
        y = np.array([0.3, 0.3 + 1e-11, 0.4 - 1e-11])
        report = analyze_q(y)
        flagged = [e for e in entry_of_kind(report, KIND_INTERLACED)
                   if e.degenerate_gap]
        assert len(flagged) == 1
        assert flagged[0].value == flagged[0].bracket[0]
        assert np.max(np.abs(report.multiset() - dense_q_spectrum(y))) <= 1e-10

    def test_large_c_matches_eigvalsh(self):
        # above the dense_q_spectrum limit, against the explicit Q
        rng = np.random.default_rng(8)
        y = softmax(2.0 * rng.standard_normal(1000))
        expected = np.linalg.eigvalsh(q_matrix(y))
        assert np.max(np.abs(analyze_q(y).multiset() - expected)) <= 1e-9

    def test_batched_bisection_matches_scalar_reference(self):
        rng = np.random.default_rng(9)
        vectors = [softmax(rng.standard_normal(10)) for _ in range(50)]
        vectors.append(softmax(2.0 * rng.standard_normal(300)))
        for _ in range(100):
            raw = rng.random(int(rng.integers(3, 30)))
            raw[rng.integers(0, raw.size, size=3)] = raw[0]
            raw[rng.integers(0, raw.size)] = 0.0
            vectors.append(raw / raw.sum())
        # a chain of values 0.6e-12 apart groups as one value
        y = np.array([0.2, 0.2 + 6e-13, 0.2 + 1.2e-12, 0.3, 0.3 - 2.4e-12])
        vectors.append(y / y.sum())
        # one large group of near-equal values, averaged as np.mean does
        for _ in range(5):
            raw = np.concatenate([0.002 + 1e-14 * rng.random(400), rng.random(5)])
            vectors.append(raw / raw.sum())
        for y in vectors:
            report = analyze_q(y)
            values, counts = scalar_groups(np.sort(y[y > GROUP_TOL]))
            assert report.distinct_values == tuple(values)
            assert report.counts == tuple(counts)
            roots = [e.value for e in entry_of_kind(report, KIND_INTERLACED)]
            assert roots == scalar_roots(np.array(values), np.array(counts))

    @settings(max_examples=100, deadline=None)
    @given(probability_vectors)
    def test_random_vectors_match_dense(self, y):
        assert np.max(np.abs(analyze_q(y).multiset() - dense_q_spectrum(y))) <= 1e-10


class TestDenseQSpectrum:
    def test_half_half(self):
        # two-class factor has the single nontrivial eigenvalue 2*y1*y2
        assert np.allclose(dense_q_spectrum(np.array([0.5, 0.5])), [0.0, 0.5],
                           atol=1e-15)

    def test_uniform_three(self):
        assert np.allclose(dense_q_spectrum(np.array([1, 1, 1]) / 3.0),
                           [0.0, 1 / 3, 1 / 3], atol=1e-15)

    def test_self_consistency_random_six(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            raw = rng.random(6)
            y = raw / raw.sum()
            assert np.max(np.abs(analyze_q(y).multiset() - dense_q_spectrum(y))) <= 1e-10


class TestNullspaceBasis:
    def test_interior_vector(self):
        basis = nullspace_basis(np.array([0.5, 0.5]))
        assert len(basis) == 1
        assert np.allclose(basis[0], np.ones(2) / np.sqrt(2), atol=1e-15)

    def test_one_hot(self):
        basis = nullspace_basis(np.array([0.0, 1.0]))
        assert np.array_equal(basis[0], [0.0, 1.0])
        assert np.array_equal(basis[1], [1.0, 0.0])

    def test_mixed_support(self):
        basis = nullspace_basis(np.array([0.5, 0.5, 0.0]))
        assert np.allclose(basis[0], [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0])
        assert np.array_equal(basis[1], [0.0, 0.0, 1.0])

    def test_vectors_are_orthonormal_and_annihilated(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            c = int(rng.integers(2, 8))
            raw = rng.random(c)
            raw[rng.integers(0, c)] = 0.0
            y = raw / raw.sum()
            basis = nullspace_basis(y)
            q = q_matrix(y)
            gram = np.array([[float(u @ v) for v in basis] for u in basis])
            assert np.max(np.abs(gram - np.eye(len(basis)))) <= 1e-12
            for v in basis:
                assert np.linalg.norm(q @ v) <= 1e-12
            # dimension matches the zero-eigenvalue multiplicity
            zero = [e for e in analyze_q(y).eigenvalues if e.kind == KIND_ZERO]
            assert len(basis) == zero[0].multiplicity
