"""IDX-container and CSV ingestion, plus dataset assembly helpers.

IDX layout (all integers big-endian):

    [offset 0]  0x00 0x00 dtype ndim     (dtype 0x08 = unsigned byte)
    [offset 4]  ndim u32 dimension sizes
    [after]     payload bytes in C order

Images use magic 0x00000803 (3 dims: count, rows, cols); labels use
0x00000801 (1 dim).  File labels are 0-based while internal classes are
1..C; the shift happens exactly once, in this module.
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


def load_idx_images(path, scale: bool = True) -> np.ndarray:
    """D x N float64 matrix from an IDX image file, image n flattened
    row-major into column n.  Pixels are mapped to [0, 1] by division by 255
    unless ``scale=False``; unscaled bytes inflate activations and slow
    descent.

    The result is C-contiguous and built in one pass: each block of
    ``IDX_BLOCK_IMAGES`` images is transposed and scaled straight into its
    columns of X.  Besides X, only the payload bytes (1/8 of X) are held.
    """
    with open(path, "rb") as f:
        n, rows, cols = _read_header(f, IMAGE_MAGIC, 3, "image")
        _check_payload_size(f, n * rows * cols, 16, "pixels")
        payload = _read_exact(f, n * rows * cols, 16, "pixels")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(n, rows * cols)
    x = np.empty((rows * cols, n))
    divisor = 255.0 if scale else 1.0
    for j in range(0, n, IDX_BLOCK_IMAGES):
        block = slice(j, j + IDX_BLOCK_IMAGES)
        np.divide(pixels[block].T, divisor, out=x[:, block])
    return x


def write_idx_images(path, x, rows: int, cols: int, scaled: bool = True) -> None:
    """Write a D x N matrix back to IDX; inverse of :func:`load_idx_images`."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != rows * cols:
        raise DimensionMismatchError(
            f"x must be (rows*cols) x N = {rows * cols} x N, got {x.shape}"
        )
    pixels = np.rint(x * 255.0 if scaled else x)
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


def load_idx_dataset(images_path, labels_path, c: int, scale: bool = True) -> Dataset:
    """Assemble a Dataset from a paired IDX image/label file.  The Dataset
    adopts the freshly loaded arrays, so X is built exactly once."""
    x = load_idx_images(images_path, scale=scale)
    t = load_idx_labels(labels_path, c)
    if x.shape[1] != t.shape[1]:
        raise IdxFormatError(
            f"image count {x.shape[1]} does not match label count {t.shape[1]}"
        )
    return Dataset(freeze(x), freeze(t))


def load_csv(path, label_column: int, c: int, header: bool = False) -> Dataset:
    """Dataset from a rectangular numeric CSV, one sample per row.

    ``label_column`` is the 0-based column holding the 0-based integer class
    label (negative indices count from the end); the remaining columns become
    the feature rows of X in their original order.  Row order is preserved.
    X is C-contiguous, and the Dataset adopts it without another copy.
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
    x = np.delete(table, label_column, axis=1).T.copy()
    t = one_hot(raw_labels.astype(int) + 1, c)
    return Dataset(freeze(x), freeze(t))


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
    out = np.empty((x.shape[0] + 1, x.shape[1]))
    out[:-1] = x
    out[-1] = 1.0
    return freeze(out)
