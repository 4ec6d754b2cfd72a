"""Correctness checks made apart from the program.

Each check recomputes what it needs with the benchmark's own code (SMXW
reader, logsumexp, gradient, Hessian quadratic form, per-sample curvature
spectra through batched ``eigvalsh``) or tests a property the method must
have.  A failed check raises :class:`CheckError`; none compares against a
stored copy of earlier output.
"""
from __future__ import annotations

import math
import struct

import numpy as np

# Relative tolerance for values that the program and the benchmark compute
# in different summation orders.
REL_TOL = 1e-9
# Lanczos extremes are reported at relative tolerance 1e-8.
EIG_REL_TOL = 1e-6


class CheckError(Exception):
    """The program produced a wrong result."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def close(a: float, b: float, rel: float, what: str) -> None:
    require(abs(a - b) <= rel * max(abs(a), abs(b), 1e-300),
            f"{what}: {a!r} vs {b!r} (rel tol {rel:g})")


# --- own readers and formulas ---------------------------------------------
def read_smxw(blob: bytes) -> np.ndarray:
    """Weights from the SMXW layout: b"SMXW", u32 C, u32 D (little-endian),
    then C*D little-endian float64, row-major."""
    require(len(blob) >= 12 and blob[:4] == b"SMXW", "weights file: bad magic or header")
    c, d = struct.unpack("<II", blob[4:12])
    require(len(blob) == 12 + 8 * c * d,
            f"weights file: {len(blob)} bytes for C={c}, D={d}")
    return np.frombuffer(blob, dtype="<f8", offset=12).reshape(c, d).astype(float)


def idx_x(blob: bytes) -> np.ndarray:
    """X with a ones row from IDX image bytes: big-endian u32 magic, count,
    rows, cols, then count*rows*cols unsigned bytes, each mapped to b / 255."""
    require(len(blob) >= 16 and blob[:4] == b"\x00\x00\x08\x03", "IDX image header")
    n, rows, cols = struct.unpack(">III", blob[4:16])
    pix = np.frombuffer(blob, dtype=np.uint8, offset=16).reshape(n, rows * cols)
    return np.vstack([pix.T / 255.0, np.ones((1, n))])


def logsumexp_cols(a: np.ndarray) -> np.ndarray:
    m = a.max(axis=0)
    return m + np.log(np.exp(a - m).sum(axis=0))


def softmax_cols(a: np.ndarray) -> np.ndarray:
    e = np.exp(a - a.max(axis=0, keepdims=True))
    return e / e.sum(axis=0, keepdims=True)


def loss_soft(w: np.ndarray, x: np.ndarray, t: np.ndarray) -> float:
    """Cross-entropy sum_n (logsumexp(a_n) - t_n . a_n), blocked over columns."""
    total = 0.0
    for s in range(0, x.shape[1], 8192):
        a = w @ x[:, s:s + 8192]
        total += float(np.sum(logsumexp_cols(a)) - np.sum(t[:, s:s + 8192] * a))
    return total


def loss_and_accuracy(w: np.ndarray, x: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Loss and accuracy against 0-based hard labels."""
    total, hits = 0.0, 0
    for s in range(0, x.shape[1], 8192):
        a = w @ x[:, s:s + 8192]
        lab = labels[s:s + 8192].astype(np.intp)
        total += float(np.sum(logsumexp_cols(a) - a[lab, np.arange(lab.size)]))
        hits += int(np.count_nonzero(np.argmax(a, axis=0) == lab))
    return total, hits / x.shape[1]


def grad_norm(w: np.ndarray, x: np.ndarray, t: np.ndarray) -> float:
    """||(Y - T) X^T||_F with Y = softmax(W X)."""
    return float(np.linalg.norm((softmax_cols(w @ x) - t) @ x.T))


def entropy(t: np.ndarray) -> float:
    """-sum t log t, with 0 log 0 = 0: the least loss any W can reach."""
    pos = t[t > 0]
    return float(-np.sum(pos * np.log(pos)))


def q_spectra(y: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of diag(y_n) - y_n y_n^T for every column y_n,
    in one batched eigvalsh; result is N x C."""
    yt = y.T
    q = -yt[:, :, None] * yt[:, None, :]
    idx = np.arange(y.shape[0])
    q[:, idx, idx] += yt
    return np.linalg.eigvalsh(q)


def z_rayleigh(x: np.ndarray, y: np.ndarray, u: np.ndarray) -> float:
    """<H(U), U> / <U, U> for a zero-column-sum U, from
    sum_n v_n^T (diag(y_n) - y_n y_n^T) v_n with v = U X."""
    v = u @ x
    quad = float(np.sum(y * v * v) - np.sum(np.sum(y * v, axis=0) ** 2))
    return quad / float(np.sum(u * u))


# --- mnist-epochs ---------------------------------------------------------
def check_loaded_x(x: np.ndarray, pixels: np.ndarray) -> None:
    """X equals pixels / 255 with a ones row appended, exactly."""
    n, d = pixels.shape
    require(x.shape == (d + 1, n), f"loaded X has shape {x.shape}, expected {(d + 1, n)}")
    for s in range(0, n, 8192):
        want = pixels[s:s + 8192].T.astype(float) / 255.0
        require(np.array_equal(x[:d, s:s + 8192], want),
                f"loaded pixels differ from the generator's in columns {s}..")
    require(bool(np.all(x[d] == 1.0)), "bias row is not all ones")


def check_targets(t: np.ndarray, labels: np.ndarray) -> None:
    require(t.shape == (t.shape[0], labels.size), "target shape")
    require(np.array_equal(np.argmax(t, axis=0), labels.astype(np.intp))
            and bool(np.all(t.sum(axis=0) == 1.0)) and bool(np.all(t.max(axis=0) == 1.0)),
            "targets are not the one-hot labels")


def check_trained(w: np.ndarray, x: np.ndarray, labels: np.ndarray, c: int,
                  reported_loss: float | None = None,
                  reported_accuracy: float | None = None) -> None:
    """Loss below N log C, column sums at rounding level and, when given,
    loss and accuracy that match the report."""
    require(w.shape == (c, x.shape[0]), f"weights shape {w.shape}")
    require(bool(np.all(np.isfinite(w))), "weights are not finite")
    loss, acc = loss_and_accuracy(w, x, labels)
    n = x.shape[1]
    require(loss < n * math.log(c), f"final loss {loss} not below N log C = {n * math.log(c)}")
    col = float(np.max(np.abs(w.sum(axis=0))))
    require(col <= 1e-9 * (1.0 + float(np.max(np.abs(w)))),
            f"weight column sums drift to {col:.3e}")
    if reported_loss is not None:
        close(reported_loss, loss, REL_TOL, "reported final loss")
    if reported_accuracy is not None:
        require(abs(reported_accuracy - acc) <= 0.5 / n,
                f"reported accuracy {reported_accuracy} vs {acc}")


def check_degenerate_certificate(result: dict, x: np.ndarray) -> None:
    """Verdict degenerate with a witness U: ||U X|| ~ 0 and 1^T U = 0."""
    require(result.get("verdict") == "degenerate" and result.get("full_rank") is False,
            f"certify verdict {result.get('verdict')!r} for rank-deficient X")
    u = np.asarray(result.get("degeneracy_witness"), dtype=float)
    require(u.ndim == 2 and u.shape[1] == x.shape[0], "witness shape")
    scale = float(np.linalg.norm(u)) * float(np.linalg.norm(x))
    require(float(np.linalg.norm(u @ x)) <= 1e-8 * scale, "witness U has U X != 0")
    require(float(np.max(np.abs(u.sum(axis=0)))) <= 1e-12 * (1.0 + float(np.max(np.abs(u)))),
            "witness U has nonzero column sums")
    require(float(np.linalg.norm(u)) > 0.0, "witness U is zero")


# --- teacher-to-tol -------------------------------------------------------
def check_teacher(w: np.ndarray, x: np.ndarray, t: np.ndarray, tol: float,
                  loss: float | None = None) -> None:
    """Own gradient norm <= tol (0.1% slack for summation order) and a loss
    at least the target entropy and within a small gap of it."""
    g = grad_norm(w, x, t)
    require(g <= tol * 1.001, f"gradient norm {g:.6e} above tol {tol:g}")
    h = entropy(t)
    if loss is None:
        loss = loss_soft(w, x, t)
    require(loss >= h - REL_TOL * abs(h), f"loss {loss!r} below the target entropy {h!r}")
    require(loss - h <= 1e-6 * x.shape[1], f"loss {loss!r} exceeds entropy {h!r} by more than 1e-6 N")


# --- curvature ------------------------------------------------------------
def two_class_m(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M = X diag(2 y1 y2) X^T at anchor weights w (2 x D)."""
    y1 = 1.0 / (1.0 + np.exp((w[1] - w[0]) @ x))
    alpha = 2.0 * y1 * (1.0 - y1)
    return (x * alpha) @ x.T


def check_two_class(report: dict, w: np.ndarray, x: np.ndarray) -> None:
    """Reported lambda_min/max match eigvalsh(M); theta = (K-1)/(K+1);
    K_exact <= K_bound."""
    ev = np.linalg.eigvalsh(two_class_m(w, x))
    close(report["lambda_min"], float(ev[0]), 1e-8, "two-class lambda_min")
    close(report["lambda_max"], float(ev[-1]), 1e-8, "two-class lambda_max")
    k = report["lambda_max"] / report["lambda_min"]
    close(report["theta"], (k - 1.0) / (k + 1.0), 1e-12, "theta")
    close(report["k_exact"], float(ev[-1] / ev[0]), 1e-6, "K_exact")
    require(report["k_exact"] <= report["k_bound"] * (1 + 1e-12),
            f"K_exact {report['k_exact']} above K_bound {report['k_bound']}")


def check_full_rank_certificate(result: dict, x: np.ndarray) -> None:
    ev = np.linalg.eigvalsh(x @ x.T)
    require(result.get("verdict") == "strictly_convex_on_Z" and result.get("full_rank") is True,
            f"certify verdict {result.get('verdict')!r} for full-rank X")
    close(result["sv_max"], math.sqrt(ev[-1]), 1e-8, "sv_max")
    close(result["sv_min"], math.sqrt(ev[0]), 1e-6, "sv_min")


def check_plan(lmin: float, lmax: float, k: float, theta: float, eta_opt: float) -> None:
    close(k, lmax / lmin, 1e-12, "plan K")
    close(theta, (k - 1.0) / (k + 1.0), 1e-12, "plan theta")
    close(eta_opt, 2.0 / (lmin + lmax), 1e-12, "plan eta*")


def check_extremes(lmin: float, lmax: float, x: np.ndarray, y: np.ndarray,
                   rng: np.random.Generator, probes: int = 8) -> None:
    """Per-sample bracket  X diag(l2) X^T <= H_Z <= X diag(lmax) X^T  on the
    extremes, and Rayleigh quotients of random Z directions inside
    [lmin, lmax]."""
    spec = q_spectra(y)
    low = float(np.linalg.eigvalsh((x * spec[:, 1]) @ x.T)[0])
    high = float(np.linalg.eigvalsh((x * spec[:, -1]) @ x.T)[-1])
    require(0.0 < lmin <= lmax, f"extremes {lmin}, {lmax}")
    require(low <= lmin * (1 + EIG_REL_TOL), f"lambda_min {lmin} below the bracket {low}")
    require(lmax <= high * (1 + EIG_REL_TOL), f"lambda_max {lmax} above the bracket {high}")
    c, d = y.shape[0], x.shape[0]
    for _ in range(probes):
        u = rng.standard_normal((c, d))
        u -= u.mean(axis=0, keepdims=True)
        r = z_rayleigh(x, y, u)
        require(lmin * (1 - EIG_REL_TOL) <= r <= lmax * (1 + EIG_REL_TOL),
                f"Rayleigh quotient {r} outside [{lmin}, {lmax}]")


def check_multisets(multisets: list[np.ndarray], y: np.ndarray, atol: float = 1e-10) -> None:
    """Each analytic multiset equals the batched eigvalsh spectrum."""
    spec = q_spectra(y)
    require(len(multisets) == spec.shape[0], "one multiset per column")
    for j, ms in enumerate(multisets):
        ms = np.sort(np.asarray(ms, dtype=float))
        require(ms.shape == spec[j].shape, f"column {j}: {ms.size} eigenvalues")
        err = float(np.max(np.abs(ms - spec[j])))
        require(err <= atol, f"column {j}: spectrum off by {err:.3e}")


def spectrum_report_multiset(result: dict) -> np.ndarray:
    """Expand the eigenvalue list of a ``smxreg spectrum`` report."""
    vals = [e["value"] for e in result["eigenvalues"] for _ in range(int(e["multiplicity"]))]
    return np.asarray(vals, dtype=float)
