"""Core data types for softmax-regression training problems.

Convention used across the package: samples live in columns.  The feature
matrix is D x N, the target matrix is C x N and a weight matrix is C x D,
so the activations of the whole batch are just ``w @ x``.
"""
from __future__ import annotations

import contextvars
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

# Target columns and the y of the spectrum functions must sum to 1 to this
# tolerance (:func:`check_probability`).
TARGET_COLUMN_SUM_TOL = 1e-12

# A conversion or copy that writes at least this many bytes runs in column
# blocks on several threads (:func:`column_blocks`), and a training epoch
# splits X into one column block per this many bytes (``trainer.train``).
# Below it, starting the threads costs more than they save; X at the paper's
# scale is 376 MB.
PARALLEL_MIN_BYTES = 16 << 20

# OpenBLAS keeps one thread count for the whole process: its
# ``openblas_set_num_threads_local`` calls ``openblas_set_num_threads`` and
# returns the previous count.  So every :func:`block_runner` pool shares one
# holder count, and the first holder's saved count is restored when the
# last one leaves.
_BLAS_LIMIT_LOCK = threading.Lock()
_blas_limit = {"holders": 0, "restore": 0}


class InvalidInputError(ValueError):
    """A numeric input violates a documented precondition."""


class InvalidLabelError(InvalidInputError):
    """A label lies outside 1..C (0..C-1 if 0-based); ``index`` is its position."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class DimensionMismatchError(ValueError):
    """Array shapes do not agree."""


class SizeLimitError(ValueError):
    """A dense materialization would exceed its size guard."""


class UnsupportedShapeError(ValueError):
    """The operation is only defined for a particular class count or shape."""


class RankDeficientError(ValueError):
    """The feature matrix does not have full row rank."""

    def __init__(self, message: str, sv_min: float, sv_max: float):
        super().__init__(message)
        self.sv_min = sv_min
        self.sv_max = sv_max


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask, or
    the machine's CPU count where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def column_slices(n: int, k: int) -> list[slice]:
    """``k`` consecutive column slices covering 0..n, of widths that differ
    by at most one."""
    edges = [n * i // k for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _run_on(pool, fn: Callable, items) -> list:
    """``[fn(item) for item in items]``, each call on ``pool`` in a copy of
    the caller's :mod:`contextvars` context, so the caller's
    ``np.errstate`` holds there too.  The exception of the first item (in
    item order) that raised is re-raised here; the caller's ``with`` on the
    pool waits for the other calls."""
    futures = [pool.submit(contextvars.copy_context().run, fn, item) for item in items]
    return [future.result() for future in futures]


def column_blocks(fn: Callable[[slice], object], n: int, nbytes: int) -> None:
    """Call ``fn(cols)`` on disjoint column slices that together cover 0..n.

    ``fn`` converts or copies the columns ``cols`` of an array and writes
    no other column, so the blocks may run at once.  When the work writes at
    least ``PARALLEL_MIN_BYTES`` (``nbytes``) and :func:`usable_cpus` is 2
    or more, the columns are split into one block per CPU, each run on its
    own thread of a pool that lives for this call only.  Each block runs in
    a copy of the caller's :mod:`contextvars` context, so the caller's
    ``np.errstate`` holds there too.  Otherwise ``fn(slice(0, n))`` runs
    once on the calling thread.  Elementwise work gives the same bits
    either way.  An exception raised by a block propagates unchanged once
    every block has ended.
    """
    k = min(usable_cpus(), n)
    if nbytes < PARALLEL_MIN_BYTES or k < 2:
        fn(slice(0, n))
        return
    # Imported here: the import costs about 6 ms and 0.6 MB of RSS, which
    # every process that never takes this path would pay.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(k) as pool:
        _run_on(pool, fn, column_slices(n, k))


@cache
def _blas_thread_setter() -> Callable[[int], int] | None:
    """OpenBLAS's ``openblas_set_num_threads_local`` from the shared objects
    this process has loaded, or None (another BLAS, or no
    ``/proc/self/maps``).  It sets the thread count and returns the
    previous one."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    import ctypes

    paths = set()
    for line in maps.splitlines():
        fields = line.split(maxsplit=5)  # address perms offset dev inode [path]
        if len(fields) == 6 and "openblas" in fields[5].lower() and ".so" in fields[5]:
            paths.add(fields[5])
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a library replaced on disk since it was loaded
            continue
        setter = getattr(lib, "openblas_set_num_threads_local", None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = ctypes.c_int
            return setter
    return None


@contextmanager
def _one_blas_thread(setter: Callable[[int], int]) -> Iterator[None]:
    """OpenBLAS runs each call on one thread inside this block; the count
    from before the first of any overlapping blocks is restored after the
    last one ends."""
    with _BLAS_LIMIT_LOCK:
        if _blas_limit["holders"] == 0:
            _blas_limit["restore"] = setter(1)
        _blas_limit["holders"] += 1
    try:
        yield
    finally:
        with _BLAS_LIMIT_LOCK:
            _blas_limit["holders"] -= 1
            if _blas_limit["holders"] == 0:
                setter(_blas_limit["restore"])


@contextmanager
def block_runner(blocks: int) -> Iterator[Callable[[Callable, list], list]]:
    """Yield ``run(fn, items)``, which returns ``[fn(item) for item in
    items]`` in the order of ``items``.

    With ``blocks`` >= 2, 2 or more usable CPUs and OpenBLAS as numpy's
    BLAS, the calls run on a pool of min(usable CPUs, ``blocks``) threads
    that lives for the ``with`` block, each in a copy of the caller's
    :mod:`contextvars` context, and OpenBLAS runs every product on one
    thread for that time: BLAS's own split of a skinny product gains less
    than one block per thread.  That count is the process's, restored when
    the block ends; a product that another thread of the process runs
    meanwhile is single-threaded too.  Otherwise the calls run in order on
    the calling thread and nothing is limited.  An exception raised by a
    call propagates once every call has ended, and no thread outlives the
    ``with`` block.
    """
    k = min(usable_cpus(), blocks)
    setter = _blas_thread_setter() if k >= 2 else None
    if setter is None:
        yield lambda fn, items: [fn(item) for item in items]
        return
    from concurrent.futures import ThreadPoolExecutor

    with _one_blas_thread(setter), ThreadPoolExecutor(k) as pool:
        yield lambda fn, items: _run_on(pool, fn, items)


def as_matrix(a, name: str = "array") -> np.ndarray:
    """Coerce to a float64 2-D array, rejecting non-finite entries.

    Finite row sums prove every entry finite.  They come from one BLAS
    product ``X @ 1``, which BLAS spreads over its threads and which
    allocates O(D + N) whatever the layout of X.  Only a row sum that is
    not finite (a NaN or infinity in the row, or finite entries whose sum
    overflows) takes the exact elementwise test.
    """
    out = np.asarray(a, dtype=float)
    if out.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got shape {out.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        sums = out @ np.ones(out.shape[1])
    if not np.all(np.isfinite(sums)) and not np.all(np.isfinite(out)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return out


def check_weights(w, data: Dataset) -> np.ndarray:
    """``w`` as a float64 C x D matrix for ``data``; a wrong shape raises
    :class:`DimensionMismatchError` naming both shapes."""
    w = as_matrix(w, "w")
    if w.shape != (data.c, data.d):
        raise DimensionMismatchError(
            f"weights have shape {w.shape}, expected {(data.c, data.d)}"
        )
    return w


def check_probability(p, name: str, ndim: int) -> np.ndarray:
    """``p`` as a float64 ``ndim``-D array whose columns (``p`` itself when
    1-D) are probability vectors: finite entries in [0, 1] summing to 1
    within ``TARGET_COLUMN_SUM_TOL``."""
    p = np.asarray(p, dtype=float)
    if p.ndim != ndim:
        raise DimensionMismatchError(f"{name} must be {ndim}-D, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise InvalidInputError(f"{name} entries must lie in [0, 1]")
    worst = float(np.max(np.abs(p.sum(axis=0) - 1.0), initial=0.0))
    if worst > TARGET_COLUMN_SUM_TOL:
        sums = "must sum to 1 (" if ndim == 1 else "columns must sum to 1 (worst "
        raise InvalidInputError(f"{name} {sums}deviation {worst:.3e})")
    return p


def activations(w, data: Dataset) -> np.ndarray:
    """A = W X for weights ``w`` checked by :func:`check_weights`; a product
    that overflows raises :class:`InvalidInputError`, without a warning."""
    w = check_weights(w, data)
    with np.errstate(over="ignore", invalid="ignore"):
        a = w @ data.x
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("activations contain non-finite entries")
    return a


@dataclass(frozen=True)
class Dataset:
    """A training set: features ``x`` (D x N) and targets ``t`` (C x N).

    Every target column is a probability vector (entries in [0, 1], summing
    to 1 within ``TARGET_COLUMN_SUM_TOL``).  Hard one-hot labels are the
    special case produced by :func:`one_hot`; soft labels are accepted
    everywhere.  Both arrays end up read-only and C-contiguous, so a dataset
    can be shared across threads.  An array that is already float64,
    C-contiguous, read-only and owns its data (as the loaders and
    :func:`~smxreg.data_io.add_bias_row` return) is adopted without a copy;
    anything else is copied and frozen.  A copy of at least
    ``PARALLEL_MIN_BYTES`` is made in column blocks on one thread per
    usable CPU (:func:`column_blocks`).  Every check runs either way.  The
    adopted array stays the caller's object, so a caller that makes it
    writeable again can still change the dataset.

    :attr:`rank_factors` is computed on first use and kept, so certify,
    the condition bound and every Hessian anchor share one factorization.
    That cache assumes X is not changed after construction; writing to an
    adopted array afterwards leaves it stale.
    """

    x: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        x = as_matrix(self.x, "x")
        t = check_probability(self.t, "t", 2)
        if x.shape[1] != t.shape[1]:
            raise DimensionMismatchError(
                f"x has {x.shape[1]} columns but t has {t.shape[1]}"
            )
        if x.shape[0] < 1 or x.shape[1] < 1:
            raise DimensionMismatchError("x must have at least one row and column")
        if t.shape[0] < 2:
            raise InvalidInputError("need at least 2 classes")
        object.__setattr__(self, "x", _adopt_or_freeze(x))
        object.__setattr__(self, "t", _adopt_or_freeze(t))

    @property
    def d(self) -> int:
        return self.x.shape[0]

    @property
    def c(self) -> int:
        return self.t.shape[0]

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @cached_property
    def rank_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`rank_test` of X: its D singular values and left singular
        vectors, computed once per dataset and read-only."""
        s, left = rank_test(self.x)
        return freeze(s), freeze(left)


def freeze(a: np.ndarray) -> np.ndarray:
    """Mark ``a`` read-only in place and return it."""
    a.setflags(write=False)
    return a


def _adopt_or_freeze(a: np.ndarray) -> np.ndarray:
    """``a`` itself if it is a frozen, owned, C-contiguous float64 array;
    otherwise a frozen C-order copy, made by :func:`column_blocks`."""
    f = a.flags
    if a.dtype == np.float64 and f.c_contiguous and f.owndata and not f.writeable:
        return a
    out = np.empty(a.shape, a.dtype)
    column_blocks(lambda cols: np.copyto(out[:, cols], a[:, cols]),
                  a.shape[1], out.nbytes)
    return freeze(out)


def rank_test(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The D singular values of X (D x N) and its left singular vectors.

    Returns ``(s, left)``: ``s`` descending, length D, zero-padded when
    N < D; row ``k`` of ``left`` (D x D) is the left singular vector of
    ``s[k]``.  :func:`smxreg.certify.certify` decides full row rank from
    ``s[-1]`` and ``s[0]``.

    X^T = Q R reduces X to the min(N, D) x D factor R, and X = R^T Q^T with
    orthonormal Q, so R has X's singular values and R's right singular
    vectors are X's left ones.  Cost: O(N D^2) time, one copy of X, no
    N x N array.  This stays an SVD rather than eigh(X X^T): squaring X
    resolves sv_min only to about sqrt(eps) * sv_max, far above certify's
    rank threshold.
    """
    r = np.linalg.qr(x.T, mode="r")
    _, sv, left = np.linalg.svd(r)
    s = np.zeros(x.shape[0])
    s[: sv.shape[0]] = sv
    return s, left


def center_columns(w) -> np.ndarray:
    """Subtract each column's mean.

    The result is the canonical representative with zero column sums: among
    all matrices ``w + ones c^T`` it is the unique one whose columns sum to
    zero, and the one of minimal Frobenius norm.
    """
    w = as_matrix(w, "w")
    return w - w.mean(axis=0, keepdims=True)


def one_hot(labels, c: int) -> np.ndarray:
    """Encode 1-based class labels as one-hot target columns (C x N).

    A label that is not an integer in 1..C raises :class:`InvalidLabelError`
    naming the first such position.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise DimensionMismatchError("labels must be a 1-D sequence")
    c = int(c)
    if c < 2:
        raise InvalidInputError("need at least 2 classes")
    if labels.dtype.kind not in "biuf":
        raise InvalidLabelError(f"labels must be numbers, got dtype {labels.dtype}", 0)
    with np.errstate(invalid="ignore"):
        bad = np.flatnonzero((labels != np.rint(labels)) | (labels < 1) | (labels > c))
    if bad.size:
        n = int(bad[0])
        raise InvalidLabelError(
            f"label {labels[n].item()!r} at position {n} outside 1..{c}", n
        )
    out = np.zeros((c, labels.shape[0]))
    out[labels.astype(np.intp) - 1, np.arange(labels.shape[0])] = 1.0
    return out
