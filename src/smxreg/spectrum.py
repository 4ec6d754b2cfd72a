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
gap, so bisection with the gap as bracket converges unconditionally; Newton
would risk stepping into a pole.  All gaps of one vector are bisected in one
batch: each step evaluates f, an O(r) sum, at the midpoints of the gaps still
open, and a gap of width w closes after about log2(w / BISECT_TOL) <= 47
steps.  Coordinates closer than ``GROUP_TOL`` are quantized to one distinct
value before the analysis.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InvalidInputError, SizeLimitError
from .softmax import q_matrix

KIND_ZERO = "zero"
KIND_REPEATED = "repeated-coordinate"
KIND_INTERLACED = "interlaced-root"

# Coordinates within GROUP_TOL of each other count as one distinct value;
# coordinates <= GROUP_TOL count as zero.  This quantization is a knob: the
# exact statement assumes exact multiplicities.
GROUP_TOL = 1e-12

# Gaps narrower than this are not bisected; the root is reported as the
# lower coordinate value and flagged.
DEGENERATE_GAP = 1e-10

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


def _probability_vector(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] < 1:
        raise InvalidInputError("y must be a 1-D probability vector")
    if not np.all(np.isfinite(y)):
        raise InvalidInputError("y contains non-finite entries")
    if np.any(y < 0.0) or np.any(y > 1.0):
        raise InvalidInputError("y entries must lie in [0, 1]")
    dev = abs(float(y.sum()) - 1.0)
    if dev > 1e-12:
        raise InvalidInputError(f"y must sum to 1 (deviation {dev:.3e})")
    return y


def _secular(lam: np.ndarray, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """f at every point of ``lam``; ``weights`` holds nu_s a_s^2."""
    return (weights / (values - lam[:, None])).sum(axis=1)


def _bisect_secular(values, counts, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The root of f = 1 inside every gap (lo_i, hi_i), bisected together.

    A gap stops on its own once its bracket is at most ``BISECT_TOL`` wide or
    narrower than float spacing; only the gaps still open are evaluated.
    """
    weights = counts * values * values
    # Shrink inward so the poles at the bracket ends are never evaluated; the
    # relative pad can round away against the ulp of the endpoints, so step
    # at least one representable float into the interval.
    pad = 1e-15 * (hi - lo)
    lo2 = np.maximum(lo + pad, np.nextafter(lo, hi))
    hi2 = np.minimum(hi - pad, np.nextafter(hi, lo))
    # A root that hides in the excluded sliver next to an end is that end.
    at_lo = _secular(lo2, values, weights) >= 1.0
    at_hi = ~at_lo & (_secular(hi2, values, weights) <= 1.0)
    open_ = np.flatnonzero(~at_lo & ~at_hi & (hi2 - lo2 > BISECT_TOL))
    while open_.size:
        mid = 0.5 * (lo2[open_] + hi2[open_])
        inside = (lo2[open_] < mid) & (mid < hi2[open_])
        open_, mid = open_[inside], mid[inside]
        below = _secular(mid, values, weights) < 1.0
        lo2[open_[below]] = mid[below]
        hi2[open_[~below]] = mid[~below]
        open_ = open_[hi2[open_] - lo2[open_] > BISECT_TOL]
    root = 0.5 * (lo2 + hi2)
    root[at_lo] = lo2[at_lo]
    root[at_hi] = hi2[at_hi]
    return root


def _group_values(pos_sorted: np.ndarray, group_tol: float):
    # Chained grouping: a value joins its predecessor's group when the two
    # are at most group_tol apart.
    starts = np.flatnonzero(np.diff(pos_sorted) > group_tol) + 1
    starts = np.concatenate(([0], starts))
    counts = np.diff(np.append(starts, pos_sorted.size))
    reps = pos_sorted[starts]
    # np.mean (a pairwise sum) per group, not np.add.reduceat (a sequential
    # sum), so a group's representative is exactly np.mean of its values.
    for g in np.flatnonzero(counts > 1):
        reps[g] = np.mean(pos_sorted[starts[g]:starts[g] + counts[g]])
    return reps, counts


def analyze_q(y, group_tol: float = GROUP_TOL) -> SpectrumReport:
    """Assemble the full spectrum of diag(y) - y y^T analytically.

    Interlaced roots are found by one batched bisection over all gaps, to
    absolute tolerance ``BISECT_TOL``; gaps narrower than ``DEGENERATE_GAP``
    are reported as the lower coordinate value with ``degenerate_gap=True``
    instead of forcing a bisection between nearly coincident poles.
    """
    y = _probability_vector(y)
    zero_mask = y <= group_tol
    support = tuple(int(j) for j in np.nonzero(~zero_mask)[0])
    n_zero = int(np.count_nonzero(zero_mask))

    pos_sorted = np.sort(y[~zero_mask])
    values, counts = _group_values(pos_sorted, group_tol)

    entries = [Eigenvalue(0.0, 1 + n_zero, KIND_ZERO)]
    for a, nu in zip(values, counts):
        if nu >= 2:
            entries.append(Eigenvalue(float(a), int(nu) - 1, KIND_REPEATED))
    lo, hi = values[:-1], values[1:]
    wide = hi - lo >= DEGENERATE_GAP
    roots = lo.copy()
    roots[wide] = _bisect_secular(values, counts, lo[wide], hi[wide])
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
    y = _probability_vector(y)
    if y.shape[0] > DENSE_C_LIMIT:
        raise SizeLimitError(f"dense spectrum limited to C <= {DENSE_C_LIMIT}")
    return np.sort(np.linalg.eigvalsh(q_matrix(y)))


def nullspace_basis(y, group_tol: float = GROUP_TOL) -> list[np.ndarray]:
    """Orthonormal basis of ker Q: the normalized indicator of the support
    first, then the standard basis vector of every zero coordinate in index
    order."""
    y = _probability_vector(y)
    on_support = y > group_tol
    indicator = on_support.astype(float)
    basis = [indicator / np.linalg.norm(indicator)]
    for j in np.nonzero(~on_support)[0]:
        e = np.zeros(y.shape[0])
        e[j] = 1.0
        basis.append(e)
    return basis
