"""IDX-container and CSV ingestion, plus dataset assembly helpers.

IDX layout (all integers big-endian):

    [offset 0]  0x00 0x00 dtype ndim     (dtype 0x08 = unsigned byte)
    [offset 4]  ndim u32 dimension sizes
    [after]     payload bytes in C order

Images use magic 0x00000803 (3 dims: count, rows, cols); labels use
0x00000801 (1 dim).  File labels are 0-based while internal classes are
1..C; the shift happens exactly once, in this module.

With ``bias=True`` the loaders append the constant-1 feature row of the
affine trick themselves: they allocate the (D+1) x N array, set its last
row to 1.0 and write the features straight into the first D rows.  The
result equals ``add_bias_row`` applied to the unbiased load, bit for bit,
but X is built and validated once.  :func:`add_bias_row` remains for
arrays already in memory.
"""
from __future__ import annotations

import os
import struct

import numpy as np

from .core import (Dataset, DimensionMismatchError, InvalidLabelError, freeze,
                   one_hot)

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
DTYPE_UBYTE = 0x08

# Images converted per block when :func:`load_idx_images` transposes the
# pixels: a block of 1024 images (784 KB at 28 x 28) stays in cache while
# its columns of X are written.
IDX_BLOCK_IMAGES = 1024


class IdxFormatError(ValueError):
    """Malformed or truncated IDX file; messages name the byte offset."""


class CsvParseError(ValueError):
    """Malformed CSV; messages name the 1-based line number."""


def _read_exact(f, count: int, offset: int, what: str) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise IdxFormatError(
            f"truncated file: wanted {count} bytes of {what} at offset "
            f"{offset}, got {len(data)}"
        )
    return data


def _check_payload_size(f, declared: int, offset: int, what: str) -> None:
    """Compare the payload size the header declares with the file's, before
    anything that large is allocated."""
    held = os.fstat(f.fileno()).st_size - offset
    if declared != held:
        problem = "truncated file" if declared > held else "trailing bytes"
        raise IdxFormatError(
            f"{problem}: header declares {declared} bytes of {what} at offset "
            f"{offset}, file holds {held}"
        )


def _read_header(f, expected_magic: int, expected_ndim: int, kind: str):
    b = _read_exact(f, 4, 0, "magic")
    if b[0] != 0 or b[1] != 0:
        raise IdxFormatError(
            f"bad magic bytes 0x{b[0]:02x} 0x{b[1]:02x} at offset 0 "
            f"(expected 0x00 0x00)"
        )
    if b[2] != DTYPE_UBYTE:
        raise IdxFormatError(
            f"unsupported dtype 0x{b[2]:02x} at offset 2 "
            f"(only unsigned byte 0x{DTYPE_UBYTE:02x})"
        )
    magic = int.from_bytes(b, "big")
    if magic != expected_magic:
        raise IdxFormatError(
            f"bad {kind} magic 0x{magic:08x} at offset 0 "
            f"(expected 0x{expected_magic:08x})"
        )
    if b[3] != expected_ndim:
        raise IdxFormatError(
            f"expected {expected_ndim} dims for {kind} at offset 3, got {b[3]}"
        )
    dims = struct.unpack(
        f">{expected_ndim}I", _read_exact(f, 4 * expected_ndim, 4, "dims")
    )
    return dims


def read_idx_image_header(path) -> tuple[int, int, int]:
    """(count, rows, cols) of an IDX image file, header validation included."""
    with open(path, "rb") as f:
        n, rows, cols = _read_header(f, IMAGE_MAGIC, 3, "image")
    return int(n), int(rows), int(cols)


def _feature_matrix(d: int, n: int, bias: bool) -> np.ndarray:
    """A C-order (D + bias) x N float64 array whose first D rows the caller
    fills; with ``bias`` its last row is already 1.0."""
    x = np.empty((d + bias, n))
    if bias:
        x[d] = 1.0
    return x


def load_idx_images(path, bias: bool = False) -> np.ndarray:
    """D x N float64 matrix from an IDX image file, image n flattened
    row-major into column n.  Pixels are always mapped to [0, 1] by division
    by 255, since raw bytes would inflate activations and slow descent.
    ``bias=True`` appends a constant-1 row, giving (D+1) x N.

    The result is C-contiguous and built in one pass: each block of
    ``IDX_BLOCK_IMAGES`` images is transposed and scaled straight into its
    columns of X.  Besides X, only the payload bytes (1/8 of X) are held.
    """
    with open(path, "rb") as f:
        n, rows, cols = _read_header(f, IMAGE_MAGIC, 3, "image")
        _check_payload_size(f, n * rows * cols, 16, "pixels")
        payload = _read_exact(f, n * rows * cols, 16, "pixels")
    d = rows * cols
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(n, d)
    x = _feature_matrix(d, n, bias)
    for j in range(0, n, IDX_BLOCK_IMAGES):
        block = slice(j, j + IDX_BLOCK_IMAGES)
        np.divide(pixels[block].T, 255.0, out=x[:d, block])
    return x


def write_idx_images(path, x, rows: int, cols: int) -> None:
    """Write a D x N matrix of pixels in [0, 1] back to IDX as bytes
    round(255 x); inverse of :func:`load_idx_images`."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != rows * cols:
        raise DimensionMismatchError(
            f"x must be (rows*cols) x N = {rows * cols} x N, got {x.shape}"
        )
    pixels = np.rint(x * 255.0)
    if np.any(pixels < 0) or np.any(pixels > 255):
        raise ValueError("pixel values fall outside the unsigned byte range")
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
        (n,) = _read_header(f, LABEL_MAGIC, 1, "label")
        _check_payload_size(f, n, 8, "labels")
        payload = _read_exact(f, n, 8, "labels")
    labels = np.frombuffer(payload, dtype=np.uint8)
    bad = np.nonzero(labels >= c)[0]
    if bad.size:
        j = int(bad[0])
        raise InvalidLabelError(
            f"label {int(labels[j])} at position {j} >= class count {c}", j
        )
    return one_hot(labels.astype(int) + 1, c)


def write_idx_labels(path, labels0) -> None:
    """Write 0-based byte labels to IDX; inverse of the label reader."""
    labels0 = np.asarray(labels0)
    if np.any(labels0 < 0) or np.any(labels0 > 255):
        raise ValueError("labels fall outside the unsigned byte range")
    with open(path, "wb") as f:
        f.write(struct.pack(">II", LABEL_MAGIC, labels0.shape[0]))
        f.write(labels0.astype(np.uint8).tobytes())


def load_idx_dataset(images_path, labels_path, c: int,
                     bias: bool = False) -> Dataset:
    """Assemble a Dataset from a paired IDX image/label file, with a
    constant-1 feature row appended when ``bias``.  The Dataset adopts the
    freshly loaded arrays, so X is built and validated exactly once."""
    x = load_idx_images(images_path, bias=bias)
    t = load_idx_labels(labels_path, c)
    if x.shape[1] != t.shape[1]:
        raise IdxFormatError(
            f"image count {x.shape[1]} does not match label count {t.shape[1]}"
        )
    return _dataset(x, t, bias)


def _dataset(x: np.ndarray, t: np.ndarray, bias: bool) -> Dataset:
    """The Dataset adopting fresh arrays.  A bias row alone holds no feature
    and is refused as an empty X would be."""
    if bias and x.shape[0] == 1:
        raise DimensionMismatchError("x must have at least one row and column")
    return Dataset(freeze(x), freeze(t))


def load_csv(path, label_column: int, c: int, header: bool = False,
             bias: bool = False) -> Dataset:
    """Dataset from a rectangular numeric CSV, one sample per row.

    ``label_column`` is the 0-based column holding the 0-based integer class
    label (negative indices count from the end); the remaining columns become
    the feature rows of X in their original order, followed by a constant-1
    row when ``bias``.  Row order is preserved.  X is C-contiguous, and the
    Dataset adopts it without another copy.
    """
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    start = 1 if header else 0
    rows: list[list[float]] = []
    width = None
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
            if label_column < 0:
                label_column += width
            if not 0 <= label_column < width:
                raise CsvParseError(
                    f"label column {label_column} outside 0..{width - 1}"
                )
        elif len(cells) != width:
            raise CsvParseError(
                f"line {lineno}: expected {width} fields, got {len(cells)}"
            )
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError:
            bad = next(cell for cell in cells if not _is_number(cell))
            raise CsvParseError(
                f"line {lineno}: non-numeric value {bad.strip()!r}"
            ) from None
    if not rows:
        raise CsvParseError("no data rows")
    table = np.asarray(rows)
    raw_labels = table[:, label_column]
    if np.any(raw_labels != np.rint(raw_labels)):
        raise CsvParseError("labels must be integers")
    d = width - 1
    x = _feature_matrix(d, len(rows), bias)
    x[:label_column] = table[:, :label_column].T
    x[label_column:d] = table[:, label_column + 1:].T
    t = one_hot(raw_labels.astype(int) + 1, c)
    return _dataset(x, t, bias)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def add_bias_row(x) -> np.ndarray:
    """Append a constant-1 feature row (affine trick): result is (D+1) x N.

    The result is a new read-only, C-contiguous array, which
    :class:`~smxreg.core.Dataset` adopts without copying.  Not idempotent by
    design; calling twice appends two rows.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise DimensionMismatchError(f"x must be 2-D, got shape {x.shape}")
    out = _feature_matrix(x.shape[0], x.shape[1], True)
    out[:-1] = x
    return freeze(out)
