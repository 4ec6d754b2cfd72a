"""Exact spectrum of the curvature factor Q = diag(y) - y y^T.

For a probability vector y (entries in [0, 1], zero coordinates allowed) the
eigenvector equation (y_j - lam) z_j = y_j <y, z> resolves the spectrum:

  * 0 is an eigenvalue with multiplicity one more than the number of zero
    coordinates; the nullspace is "constant on the support, free off it";
  * each repeated positive coordinate value contributes itself as an
    eigenvalue, with multiplicity one less than its coordinate multiplicity;
  * one simple root of the secular equation lies strictly inside every gap
    between consecutive distinct positive coordinate values
    (:func:`analyze_q` states the equation and how its roots are found).

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

# The root in a gap narrower than this is reported as the gap's lower
# coordinate value and flagged (see analyze_q).
DEGENERATE_GAP = 1e-10

DENSE_C_LIMIT = 512


@dataclass(frozen=True)
class Eigenvalue:
    """One eigenvalue of Q with its multiplicity and kind.  An interlaced
    root carries its ``bracket`` (a_k, a_{k+1}), the gap that holds it, and
    ``degenerate_gap`` is True when that gap is narrower than
    ``DEGENERATE_GAP`` and ``value`` is a_k."""

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
    """Assemble the full spectrum of diag(y) - y y^T.

    With the distinct positive coordinate values a_1 < ... < a_r and their
    counts nu_s, the root in each gap (a_k, a_{k+1}) solves

        f(lam) = sum_s nu_s a_s^2 / (a_s - lam) = 1.

    By the determinant lemma, det(M - lam I) = prod_s (a_s - lam) (1 - f(lam))
    for the r x r matrix M = diag(a) - v v^T with v_s = sqrt(nu_s) a_s, so
    these roots are M's eigenvalues (Golub, SIAM Review 15, 1973).  They
    interlace with the a_s: the smallest lies at or below a_1 (it is 0 up to
    rounding, since f(0) = sum y = 1) and is dropped, and the k-th of the
    rest lies in gap k.  One ``eigvalsh`` call on M finds them all.  Each
    root is clipped into its gap shrunk by max(1e-15 (hi - lo), one ulp) at
    either end, so it lies strictly inside.  A gap narrower than
    ``DEGENERATE_GAP`` reports its lower coordinate value with
    ``degenerate_gap=True`` instead of a root between nearly coincident
    poles; when every gap is that narrow, M is not formed.
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
    if wide.any():
        v = np.sqrt(counts) * values
        m = np.outer(-v, v)
        m.flat[::values.size + 1] += values
        pad = 1e-15 * (hi - lo)
        lo2 = np.maximum(lo + pad, np.nextafter(lo, hi))
        hi2 = np.minimum(hi - pad, np.nextafter(hi, lo))
        roots[wide] = np.clip(np.linalg.eigvalsh(m)[1:], lo2, hi2)[wide]
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
