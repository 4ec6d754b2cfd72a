"""Seeded input generators for the benchmark.

Every generator is a pure function of its seed: the same seed gives the same
arrays and the same file bytes.  Files are written with the benchmark's own
writers (IDX, CSV, SMXW), never with the program's, so a fault in the
program's writers cannot hide a matching fault in its readers.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from checks import softmax_cols

# --- mnist-epochs: MNIST-shaped IDX pair ----------------------------------
MNIST_N = 60000
MNIST_ROWS = MNIST_COLS = 28
MNIST_C = 10
# Pixels within MNIST_BORDER of the edge are zero in every image, so X has
# 784 - 24*24 = 208 all-zero rows and is rank deficient.
MNIST_BORDER = 2
# Class prototypes share a common base, skewed towards dark pixels as in
# MNIST (255 * u**MNIST_BASE_SKEW, u uniform), and differ by a small
# per-class offset; per-pixel noise and a share of relabelled samples make
# the classes overlap, so the problem is not separable and the loss stays
# positive.
MNIST_BASE_SKEW = 3.0
MNIST_CLASS_OFFSET = 30.0
MNIST_NOISE = 60.0
MNIST_LABEL_NOISE = 0.1
# The failing certify operation runs on a pair drawn from this fixed seed, so
# its input does not depend on --seed (the fault depends only on N).
CERTIFY_IDX_SEED = 0

# --- teacher-to-tol: soft teacher targets --------------------------------
TEACHER_D = 100          # including the constant row
TEACHER_N = 5000
TEACHER_C = 10
TEACHER_DECAY = 0.97     # feature i (0-based) has scale TEACHER_DECAY**i
TEACHER_W_SCALE = 0.5
TEACHER_PROBLEMS = 5     # problems per round; each round draws new ones
TEACHER_TOL = 1e-6
TEACHER_CSV_INDEX = 0    # problem whose features, with sampled hard labels,
                         # make the CSV that the CLI trains on

# --- curvature ------------------------------------------------------------
CURV_C = 10
CURV_D = 256             # including the constant row; C*D > 2048 -> Lanczos
CURV_N = 8000
CURV_DECAY = 0.993       # feature i has scale CURV_DECAY**i; K on Z ~ 100-185
CURV_ANCHORS = 6         # anchor weights per round, one plan each
CURV_W_SCALE = 0.3
CURV_Q_COLUMNS = 600     # C=10 softmax columns given to analyze_q per round
TWO_N = 6000
TWO_D = 50               # CSV feature columns; --bias adds the constant row
TWO_W_SCALE = 0.2
BIG_C = 1000
BIG_Y_SEED = 1000        # the C=1000 vector does not depend on --seed


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


# --- IDX ------------------------------------------------------------------
def mnist_pixels(seed: int, n: int = MNIST_N) -> tuple[np.ndarray, np.ndarray]:
    """(pixels uint8 n x 784, labels uint8 n) for an MNIST-shaped set."""
    rng = _rng(seed, 1)
    inner = MNIST_ROWS - 2 * MNIST_BORDER
    base = 255.0 * rng.uniform(0.0, 1.0, size=inner * inner) ** MNIST_BASE_SKEW
    protos = base + MNIST_CLASS_OFFSET * rng.standard_normal((MNIST_C, inner * inner))
    labels = rng.integers(0, MNIST_C, size=n).astype(np.uint8)
    relabel = rng.random(n) < MNIST_LABEL_NOISE
    shown = labels.copy()
    shown[relabel] = rng.integers(0, MNIST_C, size=int(relabel.sum()))
    pixels = np.zeros((n, MNIST_ROWS, MNIST_COLS), dtype=np.uint8)
    block = 10000
    for s in range(0, n, block):
        e = min(n, s + block)
        img = protos[labels[s:e]] + MNIST_NOISE * rng.standard_normal((e - s, inner * inner))
        img = np.rint(np.clip(img, 0.0, 255.0)).astype(np.uint8)
        pixels[s:e, MNIST_BORDER:-MNIST_BORDER, MNIST_BORDER:-MNIST_BORDER] = \
            img.reshape(e - s, inner, inner)
    return pixels.reshape(n, MNIST_ROWS * MNIST_COLS), shown


def idx_image_bytes(pixels: np.ndarray) -> bytes:
    n = pixels.shape[0]
    return struct.pack(">IIII", 0x00000803, n, MNIST_ROWS, MNIST_COLS) + pixels.tobytes()


def idx_label_bytes(labels: np.ndarray) -> bytes:
    return struct.pack(">II", 0x00000801, labels.shape[0]) + labels.astype(np.uint8).tobytes()


def write_idx_pair(img_path, lab_path, pixels, labels) -> int:
    """Write the pair; returns the size of the image file in bytes."""
    blob = idx_image_bytes(pixels)
    with open(img_path, "wb") as f:
        f.write(blob)
    with open(lab_path, "wb") as f:
        f.write(idx_label_bytes(labels))
    return len(blob)


# --- in-memory problems ---------------------------------------------------
@dataclass(frozen=True)
class Problem:
    """Features x (D x N, last row constant 1), targets t (C x N) and, where
    the workload needs one, anchor weights w (C x D)."""

    x: np.ndarray
    t: np.ndarray
    w: np.ndarray


def _scaled_features(rng, d: int, n: int, decay: float) -> np.ndarray:
    """D x N features whose Gram matrix is exactly n * diag(decay**(2i), 1):
    d-1 random orthogonal directions, each orthogonal to the ones vector,
    with row i scaled to RMS decay**i, and a constant last row.  Fixing the
    spectrum keeps the conditioning, and so the work, the same across seeds."""
    g = rng.standard_normal((n, d - 1))
    g -= g.mean(axis=0)
    q, _ = np.linalg.qr(g)
    x = (decay ** np.arange(d - 1) * np.sqrt(n))[:, None] * q.T
    return np.vstack([x, np.ones((1, n))])


def teacher_problem(seed: int, index: int) -> Problem:
    """Soft targets T = softmax(W* X) from a seeded teacher W*; w is W*."""
    rng = _rng(seed, 100 + index)
    x = _scaled_features(rng, TEACHER_D, TEACHER_N, TEACHER_DECAY)
    w_star = TEACHER_W_SCALE * rng.standard_normal((TEACHER_C, TEACHER_D))
    return Problem(x, softmax_cols(w_star @ x), w_star)


def teacher_csv(seed: int) -> tuple[str, np.ndarray, np.ndarray]:
    """(CSV text, X with its constant row, 0-based labels) for the CLI: the
    features of teacher problem TEACHER_CSV_INDEX, each label drawn from the
    teacher's softmax column, so the classes overlap and a minimizer exists."""
    p = teacher_problem(seed, TEACHER_CSV_INDEX)
    u = _rng(seed, 6).random(p.t.shape[1])
    labels = np.minimum((u > np.cumsum(p.t, axis=0)).sum(axis=0), TEACHER_C - 1)
    return csv_text(p.x[:-1].T, labels), p.x, labels


def curvature_problem(seed: int) -> Problem:
    """C=10 problem for the Hessian extremes; w holds CURV_ANCHORS
    zero-column-sum anchors, stacked (CURV_ANCHORS x C x D)."""
    rng = _rng(seed, 2)
    x = _scaled_features(rng, CURV_D, CURV_N, CURV_DECAY)
    labels = rng.integers(0, CURV_C, size=CURV_N)
    t = np.zeros((CURV_C, CURV_N))
    t[labels, np.arange(CURV_N)] = 1.0
    w = CURV_W_SCALE * rng.standard_normal((CURV_ANCHORS, CURV_C, CURV_D))
    return Problem(x, t, w - w.mean(axis=1, keepdims=True))


def q_columns(seed: int, prob: Problem) -> np.ndarray:
    """CURV_Q_COLUMNS softmax columns (C=10) at the first curvature anchor."""
    rng = _rng(seed, 3)
    cols = rng.choice(prob.x.shape[1], size=CURV_Q_COLUMNS, replace=False)
    return softmax_cols(prob.w[0] @ prob.x[:, np.sort(cols)])


def big_y() -> np.ndarray:
    """One C=1000 probability vector, fixed (independent of --seed)."""
    rng = _rng(BIG_Y_SEED, 4)
    y = softmax_cols(2.0 * rng.standard_normal((BIG_C, 1)))[:, 0]
    return y


def format_vector(y: np.ndarray) -> str:
    """Comma-separated, 17 significant digits, so parsing gives y back."""
    return ",".join(f"{v:.17g}" for v in y)


def two_class_csv(seed: int) -> tuple[str, np.ndarray, np.ndarray, np.ndarray]:
    """(CSV text, features TWO_N x TWO_D, 0-based labels, anchor w 2 x (D+1)).

    The CSV holds the features then the label (see ``csv_text``).
    """
    rng = _rng(seed, 5)
    feats = rng.standard_normal((TWO_N, TWO_D)) * (0.98 ** np.arange(TWO_D))
    direction = rng.standard_normal(TWO_D)
    labels = (feats @ direction + 0.5 * rng.standard_normal(TWO_N) > 0).astype(int)
    w = TWO_W_SCALE * rng.standard_normal((2, TWO_D + 1))
    return csv_text(feats, labels), feats, labels, w


def csv_text(feats: np.ndarray, labels: np.ndarray) -> str:
    """One row per sample: the features, then the 0-based label.  Values are
    printed with 17 significant digits, so the loader reads back exactly
    these doubles."""
    lines = [",".join(f"{v:.17g}" for v in row) + f",{lab}"
             for row, lab in zip(feats, labels)]
    return "\n".join(lines) + "\n"


def smxw_bytes(w: np.ndarray) -> bytes:
    """SMXW layout: magic, u32 C, u32 D, C*D little-endian float64 row-major."""
    c, d = w.shape
    return b"SMXW" + struct.pack("<II", c, d) + np.ascontiguousarray(w, "<f8").tobytes()
