"""Strict-convexity certification for a dataset.

The cross-entropy loss is strictly convex on the zero-column-sum subspace Z
exactly when the feature columns span R^D, i.e. rank(X) = D.  Instead of a
probabilistic full-rank argument, the decision here is a deterministic
singular-value test per dataset.  When it fails, an explicit flat direction
U with U X = 1 c^T is produced as a witness: U = (e1 - e2) v^T built from a
left null vector v of X, which lies in Z and annihilates every sample.

Cost: the test (:func:`smxreg.core.rank_test`) takes O(N D^2) time and one
copy of X, with no N x N array, so it runs at the paper's MNIST size
(D = 785, N = 60000).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, rank_test

# Relative singular-value threshold below which X is treated as row-rank
# deficient.
RANK_RTOL = 1e-10

VERDICT_STRICT = "strictly_convex_on_Z"
VERDICT_DEGENERATE = "degenerate"


@dataclass(frozen=True)
class ConvexityCertificate:
    """Outcome of the rank test.  ``degeneracy_witness`` is present exactly
    when the verdict is degenerate; its rows show which feature combination
    is never observed in the data."""

    full_rank: bool
    sv_min: float
    sv_max: float
    verdict: str
    degeneracy_witness: np.ndarray | None = None


def certify(data: Dataset) -> ConvexityCertificate:
    """Decide strict convexity on Z via singular values of X.

    ``sv_min`` is the D-th singular value (0 when N < D); full rank means
    sv_min > RANK_RTOL * sv_max.
    """
    s, left = rank_test(data.x)
    sv_max = float(s[0])
    sv_min = float(s[-1])
    full_rank = sv_min > RANK_RTOL * sv_max
    if full_rank:
        return ConvexityCertificate(True, sv_min, sv_max, VERDICT_STRICT)

    # Left singular vector of the smallest singular value: v^T X ~ 0, so
    # U = (e1 - e2) v^T satisfies U X ~ 0 = 1 * 0^T while 1^T U = 0.
    v = left[-1]
    witness = np.zeros((data.c, data.d))
    witness[0] = v
    witness[1] = -v
    return ConvexityCertificate(False, sv_min, sv_max, VERDICT_DEGENERATE, witness)
