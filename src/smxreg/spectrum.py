"""Exact spectrum of the curvature factor Q = diag(y) - y y^T.

For a probability vector y (entries in [0, 1], zero coordinates allowed) the
eigenvector equation (y_j - lam) z_j = y_j <y, z> resolves the spectrum by
inspection:

  * 0 is an eigenvalue with multiplicity one more than the number of zero
    coordinates; the nullspace is "constant on the support, free off it";
  * each repeated positive coordinate value contributes itself as an
    eigenvalue, with multiplicity one less than its coordinate multiplicity;
  * one simple root of the secular equation

        f(lam) = sum_s nu_s a_s^2 / (a_s - lam) = 1

    lies strictly inside every gap (a_s, a_{s+1}) between consecutive
    distinct positive coordinate values a_1 < ... < a_r.

f is increasing between its poles and spans (-inf, +inf) on each interior
gap, so the gap is a bracket that always holds the root.  Inside the gap
(a_k, a_{k+1}) f splits into psi, the sum over the poles at or left of a_k,
and phi, the sum over the poles right of it.  The model of f takes each as a
constant plus its nearest pole, c1 + s1/(a_k - lam) and
c2 + s2/(a_{k+1} - lam), so it keeps both poles of the gap, and its root in
the gap is a root of a quadratic (Bunch, Nielsen & Sorensen, Numer. Math. 31,
1978).  The first model goes through the values of psi and phi at both ends
of the gap; each later one matches their values and slopes at the current
point.  The sign of f - 1 there narrows the bracket, and a model root that
leaves the bracket is replaced by the bracket's midpoint, so the iteration
never steps into a pole.  A gap stops once its bracket is at most
``BISECT_TOL`` wide or its step is at most ``BISECT_TOL``/4.  All gaps of
one vector iterate together: each step evaluates f, an O(r) sum, at the
points of the gaps still open.  The roots converge quadratically: a vector
takes about 5 evaluations of f (one at the gap ends, then one per step), at
most 8 on the vectors of the tests, where bisection took about 47.
Coordinates closer than ``GROUP_TOL`` are quantized to one distinct value
before the analysis.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SizeLimitError, check_probability
from .softmax import q_matrix

KIND_ZERO = "zero"
KIND_REPEATED = "repeated-coordinate"
KIND_INTERLACED = "interlaced-root"

# Coordinates within GROUP_TOL of each other count as one distinct value;
# coordinates <= GROUP_TOL count as zero.  The exact statement assumes exact
# multiplicities; this fixed quantization is how rounded inputs meet it.
GROUP_TOL = 1e-12

# Gaps narrower than this are not solved; the root is reported as the
# lower coordinate value and flagged.
DEGENERATE_GAP = 1e-10

# Absolute tolerance of every interlaced root.
BISECT_TOL = 1e-14

DENSE_C_LIMIT = 512


@dataclass(frozen=True)
class Eigenvalue:
    value: float
    multiplicity: int
    kind: str
    bracket: tuple[float, float] | None = None
    degenerate_gap: bool = False


@dataclass(frozen=True)
class SpectrumReport:
    """Complete spectrum of Q: entries sorted ascending, multiplicities
    summing to C, plus the support set and the distinct positive coordinate
    values a_1 < ... < a_r with their counts nu_s."""

    eigenvalues: tuple[Eigenvalue, ...]
    support: tuple[int, ...]
    distinct_values: tuple[float, ...]
    counts: tuple[int, ...]

    def multiset(self) -> np.ndarray:
        """All C eigenvalues expanded by multiplicity, sorted ascending."""
        vals = [e.value for e in self.eigenvalues for _ in range(e.multiplicity)]
        return np.sort(np.asarray(vals, dtype=float))


def _secular(lam: np.ndarray, values: np.ndarray, weights: np.ndarray,
             split: np.ndarray):
    """The two sums of f at every point of ``lam`` and their slopes there:
    over the poles at or left of ``values[split]``, and over those right of
    it.

    ``weights`` holds nu_s a_s^2.  One len(lam) x r buffer holds the terms
    of f, w/(a - lam), and then those of its slope, w/(a - lam)^2.
    """
    u = values - lam[:, None]
    np.divide(weights, u, out=u)
    left = np.arange(values.size) <= split[:, None]
    right = ~left
    psi, phi = np.add.reduce(u, 1, where=left), np.add.reduce(u, 1, where=right)
    u *= u
    u /= weights
    return psi, phi, np.add.reduce(u, 1, where=left), np.add.reduce(u, 1, where=right)


def _pole_root(lo, delta, g, s1, s2):
    """The root in (lo, lo + delta) of the model
    g + s1/(lo - x) + s2/(lo + delta - x) = 0, with s1, s2 > 0.

    With tau = x - lo it is the root in (0, delta) of
    g tau^2 - b tau + s1 delta, b = g delta + s1 + s2, taken in the stable
    form 2 s1 delta / (b + sqrt(b^2 - 4 g s1 delta)), or where b <= 0 (so
    g < 0) as (b - sqrt(...)) / (2 g).
    """
    c = s1 * delta
    b = g * delta + s1 + s2
    sq = np.sqrt(np.maximum(b * b - 4.0 * g * c, 0.0))
    pos = b > 0.0
    return lo + np.where(pos, c + c, b - sq) / np.where(pos, b + sq, g + g)


def _secular_roots(values, counts, lo: np.ndarray, hi: np.ndarray,
                   split: np.ndarray) -> np.ndarray:
    """The root of f = 1 inside every gap (lo_i, hi_i) = (a_k, a_{k+1}),
    k = split_i: the safeguarded pole-aware iteration of the module
    docstring, run on all gaps at once, with :func:`_pole_root` solving each
    model."""
    weights = counts * values * values
    # Shrink inward so the poles at the bracket ends are never evaluated; the
    # relative pad can round away against the ulp of the endpoints, so step
    # at least one representable float into the interval.
    pad = 1e-15 * (hi - lo)
    lo2 = np.maximum(lo + pad, np.nextafter(lo, hi))
    hi2 = np.minimum(hi - pad, np.nextafter(hi, lo))
    # One evaluation at both ends of every bracket.  A root that hides in
    # the excluded sliver next to an end is that end.
    n = lo.size
    psi, phi, _, _ = _secular(np.concatenate([lo2, hi2]), values, weights,
                              np.concatenate([split, split]))
    psi_lo, psi_hi, phi_lo, phi_hi = psi[:n], psi[n:], phi[:n], phi[n:]
    at_lo = psi_lo + phi_lo >= 1.0
    at_hi = ~at_lo & (psi_hi + phi_hi <= 1.0)
    # The first model: c1 + s1/(lo - x) through psi at both ends, and
    # c2 + s2/(hi - x) through phi, with the ends at t and r from the poles.
    t_lo, t_hi, r_lo, r_hi = lo2 - lo, hi2 - lo, hi - lo2, hi - hi2
    s1 = (psi_hi - psi_lo) / (1.0 / t_lo - 1.0 / t_hi)
    s2 = (phi_hi - phi_lo) / (1.0 / r_hi - 1.0 / r_lo)
    delta = hi - lo
    root = _pole_root(lo, delta, psi_hi + s1 / t_hi + phi_lo - s2 / r_lo - 1.0, s1, s2)
    root = np.where((lo2 < root) & (root < hi2), root, 0.5 * (lo2 + hi2))
    root[at_lo] = lo2[at_lo]
    root[at_hi] = hi2[at_hi]
    # The state of the open gaps, compressed whenever some of them stop.
    idx = np.flatnonzero(~at_lo & ~at_hi & (hi2 - lo2 > BISECT_TOL))
    x, lo_k, hi_k, delta_k, k, blo, bhi = (
        v[idx] for v in (root, lo, hi, delta, split, lo2, hi2))
    while idx.size:
        psi, phi, dpsi, dphi = _secular(x, values, weights, k)
        f = psi + phi
        below = f < 1.0
        blo = np.where(below, x, blo)
        bhi = np.where(below, bhi, x)
        # The model through the values and slopes at x, tau and dr from the
        # poles: s1 = psi' tau^2, c1 = psi + psi' tau, s2 = phi' dr^2 and
        # c2 = phi - phi' dr.
        tau, dr = x - lo_k, hi_k - x
        dpsi *= tau
        dphi *= dr
        new = _pole_root(lo_k, delta_k, f - 1.0 + dpsi - dphi, dpsi * tau, dphi * dr)
        small = np.abs(new - x) <= 0.25 * BISECT_TOL
        x = np.where((blo < new) & (new < bhi), new,
                     np.where(small, x, 0.5 * (blo + bhi)))
        done = small | (bhi - blo <= BISECT_TOL)
        if done.any():
            root[idx[done]] = x[done]
            keep = ~done
            idx, x, lo_k, hi_k, delta_k, k, blo, bhi = (
                v[keep] for v in (idx, x, lo_k, hi_k, delta_k, k, blo, bhi))
    return root


def _group_values(pos_sorted: np.ndarray):
    # Chained grouping: a value joins its predecessor's group when the two
    # are at most GROUP_TOL apart.
    starts = np.flatnonzero(np.diff(pos_sorted) > GROUP_TOL) + 1
    starts = np.concatenate(([0], starts))
    counts = np.diff(np.append(starts, pos_sorted.size))
    reps = pos_sorted[starts]
    # np.mean (a pairwise sum) per group, not np.add.reduceat (a sequential
    # sum), so a group's representative is exactly np.mean of its values.
    for g in np.flatnonzero(counts > 1):
        reps[g] = np.mean(pos_sorted[starts[g]:starts[g] + counts[g]])
    return reps, counts


def analyze_q(y) -> SpectrumReport:
    """Assemble the full spectrum of diag(y) - y y^T analytically.

    Interlaced roots are found by one safeguarded pole-aware iteration over
    all gaps at once, to absolute tolerance ``BISECT_TOL``, in about 5
    evaluations of the secular function; gaps narrower than
    ``DEGENERATE_GAP`` are reported as the lower coordinate value with
    ``degenerate_gap=True`` instead of forcing a root between nearly
    coincident poles.
    """
    y = check_probability(y, "y", 1)
    zero_mask = y <= GROUP_TOL
    support = tuple(int(j) for j in np.nonzero(~zero_mask)[0])
    n_zero = int(np.count_nonzero(zero_mask))

    pos_sorted = np.sort(y[~zero_mask])
    values, counts = _group_values(pos_sorted)

    entries = [Eigenvalue(0.0, 1 + n_zero, KIND_ZERO)]
    for a, nu in zip(values, counts):
        if nu >= 2:
            entries.append(Eigenvalue(float(a), int(nu) - 1, KIND_REPEATED))
    lo, hi = values[:-1], values[1:]
    wide = hi - lo >= DEGENERATE_GAP
    roots = lo.copy()
    roots[wide] = _secular_roots(values, counts, lo[wide], hi[wide],
                                 np.flatnonzero(wide))
    for s in range(len(values) - 1):
        entries.append(
            Eigenvalue(float(roots[s]), 1, KIND_INTERLACED,
                       bracket=(float(lo[s]), float(hi[s])),
                       degenerate_gap=not wide[s])
        )

    entries.sort(key=lambda e: e.value)
    return SpectrumReport(
        eigenvalues=tuple(entries),
        support=support,
        distinct_values=tuple(float(a) for a in values),
        counts=tuple(int(nu) for nu in counts),
    )


def dense_q_spectrum(y) -> np.ndarray:
    """Oracle: eigenvalues of the explicitly formed Q, sorted ascending."""
    y = check_probability(y, "y", 1)
    if y.shape[0] > DENSE_C_LIMIT:
        raise SizeLimitError(f"dense spectrum limited to C <= {DENSE_C_LIMIT}")
    return np.sort(np.linalg.eigvalsh(q_matrix(y)))


def nullspace_basis(y) -> list[np.ndarray]:
    """Orthonormal basis of ker Q: the normalized indicator of the support
    first, then the standard basis vector of every zero coordinate in index
    order."""
    y = check_probability(y, "y", 1)
    on_support = y > GROUP_TOL
    indicator = on_support.astype(float)
    basis = [indicator / np.linalg.norm(indicator)]
    for j in np.nonzero(~on_support)[0]:
        e = np.zeros(y.shape[0])
        e[j] = 1.0
        basis.append(e)
    return basis
