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

# Bytes per block of :func:`column_plan`: under twice this, an array is one
# block on the calling thread, as starting threads would cost more than they
# save.
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


def column_plan(n: int, nbytes: int) -> list[slice]:
    """The column blocks of an array of ``n`` columns and ``nbytes`` bytes,
    the one cut of every blocked pass: one per ``PARALLEL_MIN_BYTES``, at
    least one and at most one per column, of widths that differ by at most
    one.  The count and order never depend on the CPU count; a sum's bits
    also need fixed BLAS threads, as on a :func:`block_runner` pool, but
    not in a one-block or serial pass.

    A copy into a row-major array (:func:`copy_blocks`,
    :meth:`LiveRows.of`) applies the same rule to the row count and cuts
    rows instead: each block is then one contiguous run of the
    destination's pages, which only its own thread touches first."""
    k = max(1, min(n, nbytes // PARALLEL_MIN_BYTES))
    edges = [n * i // k for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


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
    items]`` in the order of ``items``.  This is the only code that makes a
    thread pool, so one policy holds for every blocked pass: the epochs of
    :func:`~smxreg.trainer.train` and every :func:`column_blocks` pass.

    With ``blocks`` >= 2, 2 or more usable CPUs and OpenBLAS as numpy's
    BLAS, the calls run on a pool of min(usable CPUs, ``blocks``) threads
    that lives for the ``with`` block, each in a copy of the caller's
    :mod:`contextvars` context (so its ``np.errstate`` holds), and OpenBLAS
    runs every product on one thread for that time: BLAS's own split of a
    skinny product gains less than one block per thread.  That count is
    the process's, restored when the block ends; a product that another
    thread of the process runs meanwhile is single-threaded too.
    Otherwise (one block, one usable CPU, or another BLAS) the calls run in
    order on the calling thread and nothing is limited.  An exception
    raised by a call propagates unchanged once every call has ended (the
    first in item order), and no thread outlives the ``with`` block.
    """
    k = min(usable_cpus(), blocks)
    setter = _blas_thread_setter() if k >= 2 else None
    if setter is None:
        yield lambda fn, items: [fn(item) for item in items]
        return
    # Imported here: the import costs about 6 ms and 0.6 MB of RSS, which
    # every process that never pools would pay.
    from concurrent.futures import ThreadPoolExecutor

    def run(fn: Callable, items) -> list:
        futures = [pool.submit(contextvars.copy_context().run, fn, item) for item in items]
        return [future.result() for future in futures]

    with _one_blas_thread(setter), ThreadPoolExecutor(k) as pool:
        yield run


def column_blocks(fn: Callable[[slice], object], n: int, nbytes: int) -> list:
    """``[fn(cols) for cols in column_plan(n, nbytes)]``, for an ``fn`` that
    reads or writes only the columns ``cols`` of an array (or, with ``n``
    its row count, only the rows ``cols``), under :func:`block_runner`.
    One block is one call on the calling thread, which asks for no CPU
    count and leaves BLAS alone."""
    blocks = column_plan(n, nbytes)
    if len(blocks) == 1:
        return [fn(blocks[0])]
    with block_runner(len(blocks)) as run:
        return run(fn, blocks)


def as_matrix(a, name: str = "array") -> np.ndarray:
    """Coerce to a float64 2-D array, rejecting non-finite entries.

    Finite row sums prove every entry finite: each block of
    :func:`column_blocks` takes one BLAS product ``block @ 1``.  Only a
    block whose sums are not finite (a NaN or infinity, or finite entries
    whose sum overflows) takes the exact elementwise test.
    """
    out = np.asarray(a, dtype=float)
    if out.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got shape {out.shape}")

    def finite(cols: slice) -> bool:
        block = out[:, cols]
        return np.isfinite(block @ np.ones(block.shape[1])).all() or np.isfinite(block).all()

    with np.errstate(over="ignore", invalid="ignore"):
        ok = all(column_blocks(finite, out.shape[1], out.nbytes))
    if not ok:
        raise InvalidInputError(f"{name} contains non-finite entries")
    return out


def check_weights(w, data: Dataset | LiveRows) -> np.ndarray:
    """``w`` as a float64 C x D matrix for ``data`` (D the full width of a
    :class:`LiveRows`), or a (b, C, D) stack of b such matrices; a wrong
    shape raises :class:`DimensionMismatchError` naming both shapes, and a
    non-finite entry :class:`InvalidInputError` as :func:`as_matrix`."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 3:
        w = as_matrix(w, "w")
    expected = (*w.shape[:-2], data.c, data.d)
    if w.shape != expected:
        raise DimensionMismatchError(f"weights have shape {w.shape}, expected {expected}")
    if w.ndim == 3:
        as_matrix(w.reshape(-1, data.d), "w")
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


def check_activations(a) -> np.ndarray:
    """``a`` as a float64 array; a non-finite entry raises
    :class:`InvalidInputError`.  The one activation check of the package."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("activations contain non-finite entries")
    return a


def activations(w, data: Dataset) -> np.ndarray:
    """A = W X for weights ``w`` checked by :func:`check_weights`, refused
    by :func:`check_activations` if the product overflows, without a
    warning."""
    w = check_weights(w, data)
    with np.errstate(over="ignore", invalid="ignore"):
        return check_activations(w @ data.x)


@dataclass(frozen=True)
class Dataset:
    """A training set: features ``x`` (D x N) and targets ``t`` (C x N).

    Every target column is a probability vector; hard one-hot labels
    (:func:`one_hot`) are the special case, and soft labels are accepted
    everywhere.  Both arrays end up read-only and C-contiguous, so a dataset
    can be shared across threads.

    ``Dataset(x, t)`` runs every check: X finite (:func:`as_matrix`), T's
    columns probability vectors (:func:`check_probability`), and the shape
    invariants (:func:`_check_shapes`).  A C-contiguous float64 array is
    then adopted without a copy if it is read-only and owns its data (as
    :func:`~smxreg.data_io.add_bias_row` returns), or if the check's
    float64 conversion made it (from a list, a tuple or an array of another
    dtype); anything else is copied (:func:`copy_blocks`) and frozen.  The
    adopted array stays the caller's object, so a caller that makes it
    writeable again can still change the dataset, and leaves
    :attr:`rank_factors` stale.
    """

    x: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        x = as_matrix(self.x, "x")
        t = check_probability(self.t, "t", 2)
        _check_shapes(x, t)
        object.__setattr__(self, "x", _adopt_or_freeze(x, self.x))
        object.__setattr__(self, "t", _adopt_or_freeze(t, self.t))

    @classmethod
    def _adopt(cls, x: np.ndarray, t: np.ndarray, min_rows: int = 1) -> Dataset:
        """The Dataset of fresh C-contiguous float64 arrays whose entries
        are valid by construction: both are frozen and kept, and only the
        shape invariants run, with at least ``min_rows`` rows of X (0 for
        the live rows of a zero X; 2 for a biased X, whose bias row alone
        is no feature).  No O(size) pass runs over X or T.

        Only code whose arrays are valid by construction uses it: every
        loader of :mod:`~smxreg.data_io`, which checks what it reads and
        names the line (CSV) or byte offset (IDX, weights) of a fault, and
        :meth:`LiveRows.of`."""
        _check_shapes(x, t, min_rows)
        data = object.__new__(cls)
        object.__setattr__(data, "x", freeze(x))
        object.__setattr__(data, "t", freeze(t))
        return data

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
        vectors, computed once per dataset and read-only, so certify and
        every Hessian anchor share one factorization."""
        s, left = rank_test(self.x)
        return freeze(s), freeze(left)


def _check_shapes(x: np.ndarray, t: np.ndarray, min_rows: int = 1) -> None:
    """The O(1) invariants of a :class:`Dataset`: X and T share N >= 1,
    X has at least ``min_rows`` rows, and C >= 2."""
    if x.shape[1] != t.shape[1]:
        raise DimensionMismatchError(
            f"x has {x.shape[1]} columns but t has {t.shape[1]}"
        )
    if x.shape[0] < min_rows or x.shape[1] < 1:
        raise DimensionMismatchError("x must have at least one row and column")
    if t.shape[0] < 2:
        raise InvalidInputError("need at least 2 classes")


@dataclass(frozen=True)
class LiveRows:
    """The rows of a D x N feature matrix X that are nonzero in some sample,
    which hold the whole training problem (see
    :func:`~smxreg.trainer.train`).

    ``data`` is the :class:`Dataset` of the live rows (r x N) with X's
    targets, ``rows`` their ascending indices into 0..d-1, and ``d`` X's
    full width.  Weights keep all d columns: :meth:`narrow` takes their
    live columns and :meth:`widen` writes them back.  This class is the
    only code that maps weights between the two widths.  When no row is
    live, ``data`` has no feature row, the one Dataset that
    :class:`Dataset` itself refuses.
    """

    data: Dataset
    rows: np.ndarray
    d: int

    def __post_init__(self):
        rows = np.array(self.rows, dtype=np.intp)
        if rows.shape != (self.data.d,):
            raise DimensionMismatchError(
                f"rows must list the {self.data.d} rows of data.x, got shape {rows.shape}")
        if rows.size and not (0 <= rows[0] and rows[-1] < self.d
                              and np.all(np.diff(rows) > 0)):
            raise InvalidInputError(f"rows must ascend within 0..{self.d - 1}")
        object.__setattr__(self, "rows", freeze(rows))

    @classmethod
    def of(cls, data: Dataset, rows: np.ndarray) -> LiveRows:
        """The LiveRows of ``data`` whose live rows are ``rows``.  When every
        row is live, ``data`` itself holds them, uncopied.  Otherwise they
        are copied by row blocks, as :func:`copy_blocks` copies, with
        ``np.take`` in mode "clip" (the rows lie in range), which writes
        them without a temporary; the copy is adopted."""
        if rows.size == data.d:
            return cls(data, rows, data.d)
        x = np.empty((rows.size, data.n))
        column_blocks(lambda block: np.take(data.x, rows[block], axis=0, out=x[block],
                                            mode="clip"), rows.size, x.nbytes)
        return cls(Dataset._adopt(x, data.t, min_rows=0), rows, data.d)

    @property
    def c(self) -> int:
        return self.data.c

    @property
    def n(self) -> int:
        return self.data.n

    def narrow(self, w: np.ndarray) -> np.ndarray:
        """The live columns of C x d weights ``w``, as a new C x r array."""
        return w[:, self.rows]

    def widen(self, w: np.ndarray, live: np.ndarray) -> np.ndarray:
        """A copy of C x d weights ``w`` whose live columns are ``live``
        (C x r); its dead columns keep ``w``'s values."""
        out = w.copy()
        out[:, self.rows] = live
        return out


def freeze(a: np.ndarray) -> np.ndarray:
    """Mark ``a`` read-only in place and return it."""
    a.setflags(write=False)
    return a


def _adopt_or_freeze(a: np.ndarray, source) -> np.ndarray:
    """``a``, the float64 array of the caller's ``source``, adopted or
    copied by the rule of :class:`Dataset`, and frozen."""
    f = a.flags
    made = isinstance(source, (list, tuple)) or (
        isinstance(source, np.ndarray) and source.dtype != a.dtype)
    if f.c_contiguous and (made or f.owndata and not f.writeable):
        return freeze(a)
    out = np.empty(a.shape, a.dtype)
    copy_blocks(out, a)
    return freeze(out)


def copy_blocks(out: np.ndarray, a: np.ndarray) -> None:
    """``np.copyto(out, a)`` for a C-contiguous 2-D ``out``, cut by rows
    (:func:`column_plan`), for any layout of ``a``."""
    column_blocks(lambda rows: np.copyto(out[rows], a[rows]), a.shape[0], out.nbytes)


def rank_test(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The D singular values of X (D x N) and its left singular vectors.

    Returns ``(s, left)``: ``s`` descending, length D, zero-padded when
    N < D; row ``k`` of ``left`` (D x D) is the left singular vector of
    ``s[k]``.

    X^T = Q R reduces X to the min(N, D) x D factor R, and X = R^T Q^T with
    orthonormal Q, so R has X's singular values and R's right singular
    vectors are X's left ones.  Cost: O(N D^2) time, one copy of X, no
    N x N array, so it runs at the paper's MNIST size.  This stays an SVD
    rather than eigh(X X^T): squaring X resolves sv_min only to about
    sqrt(eps) * sv_max, far above certify's rank threshold.
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
