"""IDX-container, CSV and weights-file I/O, plus dataset assembly helpers.

IDX layout (all integers big-endian):

    [offset 0]  0x00 0x00 dtype ndim     (dtype 0x08 = unsigned byte)
    [offset 4]  ndim u32 dimension sizes
    [after]     payload bytes in C order

Images use magic 0x00000803 (3 dims: count, rows, cols); labels use
0x00000801 (1 dim).  File labels are 0-based while internal classes are
1..C; :func:`load_idx_labels` and :func:`load_csv` each make the shift.

With ``bias=True`` the loaders write the constant-1 feature row of the
affine trick into X as they build it (:func:`_feature_matrix`), bit for
bit ``add_bias_row`` of the unbiased load; :func:`add_bias_row` remains
for arrays already in memory.  Every loader checks what it reads and
adopts the result (:meth:`~smxreg.core.Dataset._adopt`).
"""
from __future__ import annotations

import math
import os
import struct
import warnings
from array import array

import numpy as np

from .core import (Dataset, DimensionMismatchError, InvalidLabelError, LiveRows,
                   column_blocks, copy_blocks, freeze, one_hot)

WEIGHTS_MAGIC = b"SMXW"
IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
DTYPE_UBYTE = 0x08


class IdxFormatError(ValueError):
    """Malformed or truncated IDX or weights file; messages start with the
    file's path, as given, and name the byte offset."""


class CsvParseError(ValueError):
    """Malformed CSV; messages name the 1-based line number."""


def _read_exact(f, count: int, offset: int, what: str) -> np.ndarray:
    """The next ``count`` bytes of ``f``, read in place into a fresh uint8
    array, with no intermediate ``bytes`` object."""
    data = np.empty(count, np.uint8)
    got = f.readinto(data)
    if got != count:
        raise IdxFormatError(
            f"{f.name}: truncated file: wanted {count} bytes of {what} at offset "
            f"{offset}, got {got}"
        )
    return data


def _check_payload_size(f, declared: int, offset: int, what: str) -> None:
    """Compare the payload size the header declares with the file's, before
    anything that large is allocated."""
    held = os.fstat(f.fileno()).st_size - offset
    if declared != held:
        problem = "truncated file" if declared > held else "trailing bytes"
        raise IdxFormatError(
            f"{f.name}: {problem}: header declares {declared} bytes of {what} at "
            f"offset {offset}, file holds {held}"
        )


def _read_header(f, expected_magic: int, kind: str):
    """The dimension sizes of an IDX header whose magic must be
    ``expected_magic``; its last byte is the number of dimensions."""
    b = _read_exact(f, 4, 0, "magic").tobytes()
    if b[0] != 0 or b[1] != 0:
        raise IdxFormatError(
            f"{f.name}: bad magic bytes 0x{b[0]:02x} 0x{b[1]:02x} at offset 0 "
            f"(expected 0x00 0x00)"
        )
    if b[2] != DTYPE_UBYTE:
        raise IdxFormatError(
            f"{f.name}: unsupported dtype 0x{b[2]:02x} at offset 2 "
            f"(only unsigned byte 0x{DTYPE_UBYTE:02x})"
        )
    magic = int.from_bytes(b, "big")
    if magic != expected_magic:
        raise IdxFormatError(
            f"{f.name}: bad {kind} magic 0x{magic:08x} at offset 0 "
            f"(expected 0x{expected_magic:08x})"
        )
    return struct.unpack(f">{b[3]}I", _read_exact(f, 4 * b[3], 4, "dims"))


def read_idx_image_header(path) -> tuple[int, int, int]:
    """(count, rows, cols) of an IDX image file, header validation included."""
    with open(path, "rb") as f:
        n, rows, cols = _read_header(f, IMAGE_MAGIC, "image")
    return int(n), int(rows), int(cols)


def _feature_matrix(d: int, n: int, bias: bool) -> np.ndarray:
    """A C-order (D + bias) x N float64 array whose first D rows the caller
    fills; with ``bias`` its last row is already 1.0."""
    x = np.empty((d + bias, n))
    if bias:
        x[d] = 1.0
    return x


def _read_pixels(path) -> np.ndarray:
    """The N x D uint8 pixels of an IDX image file, one image per row: the
    payload read at once, in place, into one uint8 array."""
    with open(path, "rb") as f:
        n, rows, cols = _read_header(f, IMAGE_MAGIC, "image")
        _check_payload_size(f, n * rows * cols, 16, "pixels")
        payload = _read_exact(f, n * rows * cols, 16, "pixels")
    return payload.reshape(n, rows * cols)


def load_idx_images(path, bias: bool = False) -> np.ndarray:
    """D x N float64 matrix from an IDX image file, image n flattened
    row-major into column n.  Pixels are always mapped to [0, 1] by division
    by 255, since raw bytes would inflate activations and slow descent.
    ``bias=True`` appends a constant-1 row, giving (D+1) x N.  Built by
    :func:`_scaled_pixels`; besides X, only the payload bytes are held.
    """
    return _scaled_pixels(_read_pixels(path), slice(None), bias)


def _scaled_pixels(pixels: np.ndarray, live, bias: bool) -> np.ndarray:
    """The feature rows of the N x D ``pixels``' columns ``live`` (an index
    array, or ``slice(None)`` for all D), the one pixel conversion: each
    block of :func:`~smxreg.core.column_blocks` is gathered (not for
    ``slice(None)``), transposed and scaled into its columns of a fresh
    C-order array by one ``np.divide``.  With ``bias``, a last row of 1.0
    follows."""
    n = pixels.shape[0]
    x = _feature_matrix(pixels[:0, live].shape[1], n, bias)
    r = x.shape[0] - bias
    column_blocks(lambda cols: np.divide(pixels[cols][:, live].T, 255.0, out=x[:r, cols]),
                  n, x.nbytes)
    return x


def _require_bytes(values: np.ndarray, name) -> None:
    """Raise ValueError naming, by ``name(index)``, the first entry of
    ``values`` that is not an integer in 0..255, NaN and infinities included."""
    bad = ~((values >= 0) & (values <= 255) & (values == np.rint(values)))
    if bad.any():
        at = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(f"{name(at)} is not an integer in 0..255")


def write_idx_images(path, x, rows: int, cols: int) -> None:
    """Write a D x N matrix of pixels in [0, 1] back to IDX as bytes
    round(255 x); inverse of :func:`load_idx_images`.  A pixel that is not
    finite or rounds outside 0..255 raises ValueError naming its position."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != rows * cols:
        raise DimensionMismatchError(f"x must be (rows*cols) x N = {rows * cols} x N, "
                                     f"got {x.shape}")
    pixels = np.rint(x * 255.0)
    _require_bytes(pixels, lambda i: f"round(255 x) of pixel x[{i[0]}, {i[1]}] = "
                                     f"{x[i].item()!r}")
    payload = pixels.T.astype(np.uint8).tobytes()
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGE_MAGIC, x.shape[1], rows, cols))
        f.write(payload)


def load_idx_labels(path, c: int) -> np.ndarray:
    """C x N one-hot target matrix from an IDX label file.

    File labels are 0-based bytes; byte b becomes class b+1, so a label must
    satisfy b < c.
    """
    with open(path, "rb") as f:
        (n,) = _read_header(f, LABEL_MAGIC, "label")
        _check_payload_size(f, n, 8, "labels")
        labels = _read_exact(f, n, 8, "labels")
    bad = np.nonzero(labels >= c)[0]
    if bad.size:
        j = int(bad[0])
        raise InvalidLabelError(
            f"label {int(labels[j])} at position {j} >= class count {c}", j
        )
    return one_hot(labels.astype(int) + 1, c)


def write_idx_labels(path, labels0) -> None:
    """Write 0-based byte labels to IDX; inverse of the label reader.  A
    label that is not an integer in 0..255 raises ValueError naming its position."""
    labels0 = np.asarray(labels0)
    _require_bytes(labels0, lambda i: f"label {labels0[i].item()!r} at position {i[0]}")
    with open(path, "wb") as f:
        f.write(struct.pack(">II", LABEL_MAGIC, labels0.shape[0]))
        f.write(labels0.astype(np.uint8).tobytes())


def encode_weights(w) -> bytes:
    """Weights file bytes: magic "SMXW", u32 C, u32 D, then C*D float64 in
    row-major order, all little-endian; inverse of :func:`read_weights`."""
    w = np.asarray(w, dtype=float)
    c, d = w.shape
    return WEIGHTS_MAGIC + struct.pack("<II", c, d) + w.astype("<f8").tobytes(order="C")


def read_weights(path) -> np.ndarray:
    """C x D weights from an :func:`encode_weights` file, size-checked first.
    A weight that is not finite raises :class:`IdxFormatError` naming its
    byte offset, row and column."""
    with open(path, "rb") as f:
        header = _read_exact(f, 12, 0, "weights header").tobytes()
        if header[:4] != WEIGHTS_MAGIC:
            raise IdxFormatError(f"{f.name}: bad weights magic {header[:4]!r} at offset 0")
        c, d = struct.unpack("<II", header[4:])
        _check_payload_size(f, 8 * c * d, 12, "weights")
        payload = _read_exact(f, 8 * c * d, 12, "weights")
    w = np.frombuffer(payload, dtype="<f8").reshape(c, d)
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        i = int(bad[0])
        raise IdxFormatError(f"{f.name}: non-finite weight {float(w.flat[i])!r} at offset "
                             f"{12 + 8 * i} (row {i // d}, column {i % d})")
    return w.copy()


def _read_pair(images_path, labels_path, c: int) -> tuple[np.ndarray, np.ndarray]:
    """The N x D pixels and the C x N targets of an IDX image/label pair,
    after every check of the pair: both files, equal counts, and at least
    one feature and one sample.  No pixel has been converted yet."""
    pixels = _read_pixels(images_path)
    t = load_idx_labels(labels_path, c)
    n, d = pixels.shape
    if n != t.shape[1]:
        raise IdxFormatError(f"image count {n} does not match label count {t.shape[1]}")
    if d < 1 or n < 1:
        raise DimensionMismatchError("x must have at least one row and column")
    return pixels, t


def load_idx_dataset(images_path, labels_path, c: int,
                     bias: bool = False) -> Dataset:
    """Assemble a Dataset from a paired IDX image/label file, with a
    constant-1 feature row appended when ``bias``.  The pair is checked
    (:func:`_read_pair`) before any pixel is converted, and X and T are
    adopted."""
    pixels, t = _read_pair(images_path, labels_path, c)
    return Dataset._adopt(_scaled_pixels(pixels, slice(None), bias), t)


def load_idx_live(images_path, labels_path, c: int, bias: bool = False) -> LiveRows:
    """The live rows of the X of :func:`load_idx_dataset`, bit for bit,
    without building X.

    One reduction over the payload bytes finds the pixels that are zero in
    every image, and only the others (and the bias row, always live) are
    converted by :func:`_scaled_pixels`.  Besides the live rows, only the
    payload bytes are held.  The errors are those of
    :func:`load_idx_dataset`.
    """
    pixels, t = _read_pair(images_path, labels_path, c)
    d = pixels.shape[1]
    live = np.flatnonzero(np.bitwise_or.reduce(pixels, axis=0))
    x = _scaled_pixels(pixels, live, bias)
    rows = np.append(live, d) if bias else live
    return LiveRows(Dataset._adopt(x, t, min_rows=0), rows, d + bias)


def load_csv(path, label_column: int, c: int, header: bool = False,
             bias: bool = False) -> Dataset:
    """Dataset from a rectangular numeric CSV, one sample per row.

    ``label_column`` is the 0-based column holding the 0-based integer class
    label (negative indices count from the end); the remaining columns become
    the feature rows of X in their original order, followed by a constant-1
    row when ``bias``.  Row order is preserved.  A cell that is not a
    number, a feature cell that is not finite, and a label that is not an
    integer in 0..C-1 each raise
    :class:`CsvParseError` naming the line and the cell's text.  A line
    ends at LF, CR LF or a lone CR; lines are numbered from 1, the header
    line included.  The file is decoded as UTF-8 with ``surrogateescape``,
    so a byte that is not UTF-8 can only make its cell non-numeric, and a
    skipped header line may hold any bytes.

    numpy's C reader parses the file into an N x W table of doubles.  It
    converts each cell with ``PyOS_string_to_double``, as ``float()`` does,
    so the values are bit for bit those of ``float()``.  A file it refuses
    (a cell it cannot read, a whitespace-only line, no data rows), or whose
    table holds a label column or a label out of range or a cell that is
    not finite, goes to the line-by-line reader :func:`_load_csv_lines`.
    That one raises the error naming the line, or reads the few cells that
    only ``float()`` accepts, such as ``1_000`` or non-ASCII digits.  So a
    clean CSV costs no Python call per cell.
    """
    table = _read_table(path, label_column, c, header)
    if table is None:
        return _load_csv_lines(path, label_column, c, header, bias)
    return _csv_dataset(table, label_column % table.shape[1], c, bias)


def _read_table(path, label_column: int, c: int, header: bool):
    """The N x W table of finite doubles of a CSV, read by ``np.loadtxt``,
    or None when numpy refuses the file, finds no row, or reads a cell that
    is not finite or a label that is not an integer in 0..C-1."""
    with (open(path, "r", encoding="utf-8", errors="surrogateescape") as f,
          warnings.catch_warnings()):
        # A file without rows is caught by the table's size below.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            table = np.loadtxt(f, delimiter=",", comments=None, dtype=float,
                               ndmin=2, skiprows=int(header))
        except ValueError:
            return None
    width = table.shape[1]
    if not table.size or not -width <= label_column < width:
        return None
    labels = table[:, label_column]
    if not (np.isfinite(table).all()
            and np.all((labels >= 0) & (labels < c) & (np.trunc(labels) == labels))):
        return None
    return table


def _load_csv_lines(path, label_column: int, c: int, header: bool,
                    bias: bool) -> Dataset:
    """:func:`load_csv` by a Python loop over the lines, ``float()`` per cell.

    It runs only on the files :func:`_read_table` refuses: it raises the
    error that names the first refused cell of the first bad line, or it
    returns the Dataset of a file whose cells only ``float()`` reads.  The
    file is read line by line into one flat buffer of doubles, never held
    whole.
    """
    values = array("d")
    width = col = None
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if (header and lineno == 1) or not line.strip():
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
                if not -width <= label_column < width:
                    raise CsvParseError(f"label column {label_column} outside "
                                        f"{-width}..{width - 1}")
                col = label_column % width
            elif len(cells) != width:
                raise CsvParseError(
                    f"line {lineno}: expected {width} fields, got {len(cells)}"
                )
            for i, cell in enumerate(cells):
                try:
                    value = float(cell)
                except ValueError:
                    raise CsvParseError(
                        f"line {lineno}: non-numeric value {cell.strip()!r}"
                    ) from None
                if i == col:
                    if not (0 <= value < c and value.is_integer()):
                        raise CsvParseError(f"line {lineno}: label {cell.strip()}"
                                            f" is not an integer in 0..{c - 1}")
                elif not math.isfinite(value):
                    raise CsvParseError(
                        f"line {lineno}: non-finite value {cell.strip()!r}")
                values.append(value)
    if not values:
        raise CsvParseError("no data rows")
    table = np.frombuffer(values, dtype=float).reshape(-1, width)
    return _csv_dataset(table, col, c, bias)


def _csv_dataset(table: np.ndarray, col: int, c: int, bias: bool) -> Dataset:
    """The Dataset of an N x W table of finite doubles whose column ``col``
    (0..W-1) holds labels already checked to be integers in 0..C-1, adopted
    with at least one feature row besides the bias row.  The features are
    transposed into X on the calling thread: parsing the table costs
    about 100 times as much."""
    d = table.shape[1] - 1
    x = _feature_matrix(d, table.shape[0], bias)
    x[:col] = table[:, :col].T
    x[col:d] = table[:, col + 1:].T
    t = one_hot(table[:, col].astype(int) + 1, c)
    return Dataset._adopt(x, t, min_rows=1 + bias)


def add_bias_row(x) -> np.ndarray:
    """Append a constant-1 feature row (affine trick): result is (D+1) x N.

    The result is a new read-only, C-contiguous array
    (:func:`~smxreg.core.copy_blocks`), which :class:`~smxreg.core.Dataset`
    adopts.  Not idempotent by design; calling twice appends two rows.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise DimensionMismatchError(f"x must be 2-D, got shape {x.shape}")
    out = _feature_matrix(x.shape[0], x.shape[1], True)
    copy_blocks(out[:-1], x)
    return freeze(out)
