import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smxreg import spectrum
from smxreg.core import Dataset, InvalidInputError, SizeLimitError
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


def secular_f(values, counts, lam):
    return float(np.sum(counts * values * values / (values - lam)))


def shrunk_bracket(lo, hi):
    """The gap (lo, hi) shrunk inward as analyze_q shrinks it."""
    pad = 1e-15 * (hi - lo)
    return max(lo + pad, np.nextafter(lo, hi)), min(hi - pad, np.nextafter(hi, lo))


def scalar_roots(values, counts):
    """Reference bisection, one gap and one point at a time, to BISECT_TOL:
    the oracle of analyze_q's interlaced roots."""
    def f(lam):
        return secular_f(values, counts, lam)

    roots = []
    for lo, hi in zip(values[:-1], values[1:]):
        lo, hi = float(lo), float(hi)
        if hi - lo < DEGENERATE_GAP:
            roots.append(lo)
            continue
        lo2, hi2 = shrunk_bracket(lo, hi)
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


def adversarial_vectors(rng):
    """Hard cases for the secular solver: gaps from 10^-9.5 to 10^-3, in
    pairs and next to pairs of nearly equal values; coordinates down to
    1e-11 beside ones of order 1; sharply peaked softmax outputs; C=2000."""
    vectors = []
    for e in np.linspace(-9.5, -3.0, 14):
        raw = rng.random(int(rng.integers(3, 20)))
        raw[rng.integers(1, raw.size)] = raw[0] * (1.0 + 10.0**e * raw.size)
        vectors.append(raw / raw.sum())
        raw = rng.random(int(rng.integers(3, 20)))
        raw = np.concatenate([raw, raw + 10.0**e])
        vectors.append(raw / raw.sum())
    for e in range(-11, -2):
        tiny = 10.0**e * (1.0 + rng.random(int(rng.integers(1, 4))))
        raw = np.concatenate([tiny, rng.random(int(rng.integers(1, 8)))])
        vectors.append(raw / raw.sum())
    for scale in (5.0, 10.0, 20.0, 30.0):
        vectors += [softmax(scale * rng.standard_normal(int(rng.integers(3, 40))))
                    for _ in range(5)]
    vectors.append(softmax(4.0 * rng.standard_normal(2000)))
    return vectors


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
        # One rule serves y here and the target columns of a Dataset.
        for bad in (np.array([0.5, 0.6]), np.array([-0.1, 1.1])):
            with pytest.raises(InvalidInputError):
                analyze_q(bad)
            with pytest.raises(InvalidInputError):
                Dataset(np.ones((1, 1)), bad[:, None])

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

    def test_secular_roots_match_scalar_reference(self, monkeypatch):
        # The pole-aware iteration against the scalar bisection: grouping
        # equal, every root within BISECT_TOL of the oracle with a sign change
        # of f - 1 across it, and at most 8 evaluations of f per vector.
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
        vectors += adversarial_vectors(rng)

        calls = []
        secular = spectrum._secular

        def counting(*args):
            calls[-1] += 1
            return secular(*args)

        monkeypatch.setattr(spectrum, "_secular", counting)
        for y in vectors:
            calls.append(0)
            report = analyze_q(y)
            assert calls[-1] <= 8
            values, counts = scalar_groups(np.sort(y[y > GROUP_TOL]))
            assert report.distinct_values == tuple(values)
            assert report.counts == tuple(counts)
            a, nu = np.array(values), np.array(counts)
            roots = sorted(entry_of_kind(report, KIND_INTERLACED), key=lambda e: e.bracket)
            for e, ref in zip(roots, scalar_roots(a, nu), strict=True):
                assert abs(e.value - ref) <= BISECT_TOL
                if e.degenerate_gap:
                    continue
                lo2, hi2 = shrunk_bracket(*e.bracket)
                left = min(max(e.value - BISECT_TOL / 2, lo2), hi2)
                right = max(min(e.value + BISECT_TOL / 2, hi2), lo2)
                assert secular_f(a, nu, left) <= 1.0 <= secular_f(a, nu, right)

    @pytest.mark.parametrize("model", ["left-of-bracket", "nan"])
    def test_model_root_outside_the_bracket_bisects(self, monkeypatch, model):
        # a model root outside the bracket, or no root at all, is replaced by
        # the bracket's midpoint: every step bisects, and the roots still
        # match the oracle after about 45 steps
        def outside(lo, delta, g, s1, s2):
            return lo - delta if model == "left-of-bracket" else np.full_like(lo, np.nan)

        calls = []
        secular = spectrum._secular

        def counting(*args):
            calls[-1] += 1
            assert calls[-1] <= 60
            return secular(*args)

        monkeypatch.setattr(spectrum, "_pole_root", outside)
        monkeypatch.setattr(spectrum, "_secular", counting)
        rng = np.random.default_rng(10)
        for y in [softmax(rng.standard_normal(10)) for _ in range(5)]:
            calls.append(0)
            report = analyze_q(y)
            values = np.array(report.distinct_values)
            roots = sorted(e.value for e in entry_of_kind(report, KIND_INTERLACED))
            ref = scalar_roots(values, np.array(report.counts))
            assert np.max(np.abs(np.array(roots) - ref)) <= BISECT_TOL
            assert calls[-1] >= 40

    def test_secular_peak_memory_at_c1000(self):
        # the solver reuses one gaps x r buffer per evaluation; at C=1000 it
        # peaks at about 2.5 of them, where bisection took 2.0
        rng = np.random.default_rng(8)
        y = softmax(2.0 * rng.standard_normal(1000))
        report = analyze_q(y)
        r = len(report.distinct_values)
        gaps = sum(not e.degenerate_gap for e in entry_of_kind(report, KIND_INTERLACED))
        tracemalloc.start()
        try:
            analyze_q(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * gaps * r * 8

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

    def test_above_the_size_guard_is_refused(self):
        with pytest.raises(SizeLimitError) as info:
            dense_q_spectrum(np.full(513, 1 / 513))
        assert type(info.value) is SizeLimitError
        assert str(info.value) == "dense spectrum limited to C <= 512"

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
