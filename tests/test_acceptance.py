"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Criterion 8 uses the canonical IDX files when a directory is
supplied via SMXREG_MNIST_DIR (or ./data/mnist); otherwise it exercises the
identical pipeline on synthetic IDX files written at desk scale.
"""
import os
import time
from pathlib import Path

import numpy as np

from smxreg.convergence import curvature_bracket, determinant_check, plan, zero_sum_basis
from smxreg.core import Dataset, center_columns, one_hot
from smxreg.data_io import (
    load_idx_dataset,
    load_idx_images,
    read_idx_image_header,
    write_idx_images,
    write_idx_labels,
)
from smxreg.hessian import HessianOperator
from smxreg.loss_grad import gradient, loss
from smxreg.softmax import softmax
from smxreg.trainer import TrainConfig, evaluate, train
from smxreg.spectrum import KIND_INTERLACED, KIND_ZERO, analyze_q, dense_q_spectrum


def _criterion(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _random_instance(rng, c, d, n):
    x = rng.standard_normal((d, n))
    t = softmax(rng.standard_normal((c, n)))
    return rng.standard_normal((c, d)), Dataset(x, t)


def _fd_gradient(w, data, h=1e-5):
    out = np.zeros_like(w)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            wp, wm = w.copy(), w.copy()
            wp[i, j] += h
            wm[i, j] -= h
            out[i, j] = (loss(wp, data) - loss(wm, data)) / (2 * h)
    return out


def test_criterion_1_gradient_matches_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        c = int(rng.integers(2, 6))
        d = int(rng.integers(2, 8))
        n = int(rng.integers(1, 11))
        w, data = _random_instance(rng, c, d, n)
        g = gradient(w, data)
        fd = _fd_gradient(w, data)
        scale = np.maximum(np.abs(fd), 1e-3 * np.max(np.abs(fd)))
        worst = max(worst, float(np.max(np.abs(g - fd) / scale)))
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        worst <= 1e-6 and elapsed < 5.0,
        f"gradient vs central differences on 50 instances: max rel err "
        f"{worst:.3e} (tol 1e-6), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_hessian_operator_fd_and_symmetry():
    rng = np.random.default_rng(202)
    worst_fd = 0.0
    worst_sym = 0.0
    eps = 1e-5
    for _ in range(50):
        c = int(rng.integers(2, 6))
        d = int(rng.integers(2, 8))
        n = int(rng.integers(1, 11))
        w, data = _random_instance(rng, c, d, n)
        op = HessianOperator(data, w)
        u = rng.standard_normal((c, d))
        v = rng.standard_normal((c, d))
        fd = (gradient(w + eps * u, data) - gradient(w - eps * u, data)) / (2 * eps)
        worst_fd = max(
            worst_fd,
            float(np.linalg.norm(op.apply(u) - fd) / np.linalg.norm(fd)),
        )
        sym = abs(float(np.sum(op.apply(u) * v)) - float(np.sum(u * op.apply(v))))
        worst_sym = max(
            worst_sym, sym / (np.linalg.norm(u) * np.linalg.norm(v))
        )
    _criterion(
        2,
        worst_fd <= 1e-5 and worst_sym <= 1e-10,
        f"H(U) vs gradient differences: {worst_fd:.3e} (tol 1e-5); "
        f"symmetry defect {worst_sym:.3e} (tol 1e-10)",
    )


def test_criterion_3_psd_kernel_and_strict_convexity():
    rng = np.random.default_rng(303)
    min_form = np.inf
    # PSD over 1000 random directions spread across 20 anchors
    for _ in range(20):
        c = int(rng.integers(2, 6))
        d = int(rng.integers(2, 7))
        w, data = _random_instance(rng, c, d, int(rng.integers(2, 10)))
        op = HessianOperator(data, w)
        for _ in range(50):
            min_form = min(min_form, op.quadratic_form(rng.standard_normal((c, d))))
    psd_ok = min_form >= -1e-10

    # the form vanishes exactly on U X = 1 c^T directions
    kernel_ok = True
    for _ in range(50):
        c = int(rng.integers(2, 6))
        d = int(rng.integers(2, 7))
        w, data = _random_instance(rng, c, d, int(rng.integers(2, 10)))
        op = HessianOperator(data, w)
        u = np.outer(np.ones(c), rng.standard_normal(d))
        scale = max(float(np.linalg.norm(u @ data.x)) ** 2, 1e-30)
        if op.quadratic_form(u) > 1e-12 * scale or not op.kernel_test(u).in_kernel:
            kernel_ok = False

    # strict positivity on Z with full-rank features
    from smxreg.convergence import zero_sum_basis

    x = rng.standard_normal((4, 20))
    data = Dataset(x, softmax(rng.standard_normal((3, 20))))
    op = HessianOperator(data, rng.standard_normal((3, 4)))
    b = zero_sum_basis(3)
    strict_ok = True
    for _ in range(100):
        u = b @ rng.standard_normal((2, 4))
        if op.quadratic_form(u) <= 0.0:
            strict_ok = False
    _criterion(
        3,
        psd_ok and kernel_ok and strict_ok,
        f"min quadratic form {min_form:.3e} >= -1e-10; kernel directions "
        f"vanish: {kernel_ok}; strict positivity on Z: {strict_ok}",
    )


def test_criterion_4_spectrum_matches_dense_eigensolver():
    rng = np.random.default_rng(404)
    worst = 0.0
    zero_mult_ok = True
    interlace_ok = True
    for _ in range(200):
        c = int(rng.integers(2, 9))
        raw = rng.random(c)
        if rng.random() < 0.35 and c >= 3:
            j, k = rng.choice(c, size=2, replace=False)
            raw[j] = raw[k]
        n_zero = 0
        if rng.random() < 0.35:
            raw[rng.integers(0, c)] = 0.0
        n_zero = int(np.count_nonzero(raw == 0.0))
        y = raw / raw.sum()
        report = analyze_q(y)
        worst = max(worst, float(np.max(np.abs(report.multiset() - dense_q_spectrum(y)))))
        zero_entry = [e for e in report.eigenvalues if e.kind == KIND_ZERO][0]
        if zero_entry.multiplicity != 1 + n_zero:
            zero_mult_ok = False
        for e in report.eigenvalues:
            if e.kind == KIND_INTERLACED and not e.degenerate_gap:
                if not e.bracket[0] < e.value < e.bracket[1]:
                    interlace_ok = False
    _criterion(
        4,
        worst <= 1e-10 and zero_mult_ok and interlace_ok,
        f"200 probability vectors: max eigenvalue delta {worst:.3e} "
        f"(tol 1e-10); zero multiplicities correct: {zero_mult_ok}; "
        f"interlacing strict: {interlace_ok}",
    )


def test_criterion_5_two_class_reduction():
    rng = np.random.default_rng(505)
    xi = zero_sum_basis(2)[:, 0]
    inter_worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 7))
        n = int(rng.integers(2, 10))
        x = rng.standard_normal((d, n))
        w = rng.standard_normal((2, d))
        data = Dataset(x, softmax(rng.standard_normal((2, n))))
        op = HessianOperator(data, w)
        m = curvature_bracket(op).gram_low
        u = rng.standard_normal(d)
        delta = np.linalg.norm(op.apply(np.outer(xi, u)) - np.outer(xi, m @ u))
        inter_worst = max(inter_worst, float(delta / np.linalg.norm(u)))

    det_worst = 0.0
    for _ in range(30):
        d = int(rng.integers(1, 9))
        x = rng.standard_normal((d, d))
        w = rng.standard_normal((2, d))
        data = Dataset(x, softmax(rng.standard_normal((2, d))))
        lhs, rhs = determinant_check(curvature_bracket(HessianOperator(data, w)), data)
        det_worst = max(det_worst, abs(lhs - rhs) / abs(rhs))

    bound_ok = True
    for _ in range(50):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(d, d + 8))
        x = rng.standard_normal((d, n))
        w = rng.standard_normal((2, d))
        data = Dataset(x, softmax(rng.standard_normal((2, n))))
        br = curvature_bracket(HessianOperator(data, w))
        if br.k_bracket > br.k_bound * (1 + 1e-10):
            bound_ok = False
    _criterion(
        5,
        inter_worst <= 1e-12 and det_worst <= 1e-10 and bound_ok,
        f"intertwining {inter_worst:.3e} (tol 1e-12); determinant identity "
        f"{det_worst:.3e} (tol 1e-10); condition bound held: {bound_ok}",
    )


def test_criterion_6_convergence_rate():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    d, n = 3, 8
    x = rng.standard_normal((d, n))
    w_true = 0.8 * rng.standard_normal((2, d))
    data = Dataset(x, softmax(w_true @ x))

    # oracle minimizer: 1e5 epochs at a small safe step
    eta_small = 1.0 / (0.5 * np.linalg.eigvalsh(x @ x.T)[-1])
    w = np.zeros((2, d))
    for k in range(100000):
        w -= eta_small * gradient(w, data)
        if k % 128 == 0:
            w = center_columns(w)
    w_hat = center_columns(w)

    br = curvature_bracket(HessianOperator(data, w_hat))
    p = plan(br.low, br.high)

    # fixed-rate run at eta*: tail error ratio converges to theta
    w = center_columns(0.5 * rng.standard_normal((2, d)))
    errs = []
    for _ in range(4000):
        errs.append(float(np.linalg.norm(center_columns(w) - w_hat)))
        w -= p.eta_optimal * gradient(w, data)
    errs = np.array(errs)
    tail = (errs > 1e-11) & (errs < 1e-5)
    ratios = errs[1:][tail[:-1]] / errs[:-1][tail[:-1]]
    mean_ratio = float(np.mean(ratios))
    ratio_gap = abs(mean_ratio - p.theta)

    # stepping 2x beyond the admissible window diverges near the minimizer
    eta_bad = 2.0 * p.eta_window[1]
    w = w_hat + 1e-6 * center_columns(rng.standard_normal((2, d)))
    e_first = float(np.linalg.norm(center_columns(w) - w_hat))
    for _ in range(300):
        w -= eta_bad * gradient(w, data)
    e_last = float(np.linalg.norm(center_columns(w) - w_hat))
    diverged = e_last > 10.0 * e_first

    elapsed = time.perf_counter() - start
    _criterion(
        6,
        len(ratios) >= 10 and ratio_gap <= 0.05 and diverged and elapsed < 30.0,
        f"K = {p.k:.3f}, theta = {p.theta:.6f}, observed mean ratio "
        f"{mean_ratio:.6f}; asymptotic ratio gap |mean - theta| = {ratio_gap:.2e} "
        f"over {len(ratios)} tail steps (tol 0.05); 2x-eta divergence: {diverged}; "
        f"{elapsed:.1f}s (< 30s)",
    )


def test_criterion_7_invariance_suite():
    rng = np.random.default_rng(707)
    shift_ok = True
    for _ in range(20):
        c = int(rng.integers(2, 6))
        d = int(rng.integers(2, 7))
        w, data = _random_instance(rng, c, d, int(rng.integers(2, 10)))
        shift = np.outer(np.ones(c), rng.standard_normal(d))
        dl = abs(loss(w + shift, data) - loss(w, data))
        dg = float(np.max(np.abs(gradient(w + shift, data) - gradient(w, data))))
        if dl > 1e-10 * max(1.0, abs(loss(w, data))) or dg > 1e-10:
            shift_ok = False

    x = rng.standard_normal((4, 12))
    data = Dataset(x, softmax(rng.standard_normal((3, 12))))
    cfg = TrainConfig(eta=0.05, epochs=500, tol_grad=1e-14)
    _, trace = train(data, cfg)
    worst_colsum = max(r.max_abs_column_sum for r in trace.records)
    _criterion(
        7,
        shift_ok and worst_colsum <= 1e-8,
        f"loss/gradient shift invariance: {shift_ok}; max |column sum| along "
        f"centered run {worst_colsum:.3e} (tol 1e-8)",
    )


def _canonical_mnist_dir():
    candidates = []
    env = os.environ.get("SMXREG_MNIST_DIR")
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "mnist")
    for base in candidates:
        if (base / "train-images-idx3-ubyte").exists():
            return base
    return None


def _synthetic_idx_corpus(tmpdir):
    """Digit-like IDX corpus: 10 noisy prototype classes, 8x8 pixels."""
    rng = np.random.default_rng(808)
    c, rows, cols = 10, 8, 8
    protos = rng.integers(0, 256, size=(c, rows * cols)).astype(float)

    def split(n, seed):
        r = np.random.default_rng(seed)
        labels = r.integers(0, c, size=n)
        pix = protos[labels] + r.normal(0.0, 64.0, size=(n, rows * cols))
        pix = np.clip(np.rint(pix), 0, 255)
        return pix, labels

    names = {}
    for name, (n, seed) in {
        "train-images": (2000, 1), "t10k-images": (500, 2),
    }.items():
        pix, labels = split(n, seed)
        img_path = Path(tmpdir) / f"{name}.idx"
        lab_path = Path(tmpdir) / f"{name}-labels.idx"
        write_idx_images(img_path, pix.T / 255.0, rows, cols)
        write_idx_labels(lab_path, labels)
        names[name] = (img_path, lab_path)
    return names["train-images"], names["t10k-images"]


def test_criterion_8_idx_training_smoke(tmp_path):
    start = time.perf_counter()
    canonical = _canonical_mnist_dir()
    if canonical is not None:
        train_imgs = canonical / "train-images-idx3-ubyte"
        train_labs = canonical / "train-labels-idx1-ubyte"
        test_imgs = canonical / "t10k-images-idx3-ubyte"
        test_labs = canonical / "t10k-labels-idx1-ubyte"
        full = load_idx_dataset(train_imgs, train_labs, 10)
        assert (full.d, full.n) == (784, 60000)
        subset = Dataset(full.x[:, :10000], full.t[:, :10000])
        test_ds = load_idx_dataset(test_imgs, test_labs, 10)
        source = "canonical MNIST"
    else:
        (train_imgs, train_labs), (test_imgs, test_labs) = _synthetic_idx_corpus(tmp_path)
        subset = load_idx_dataset(train_imgs, train_labs, 10)
        test_ds = load_idx_dataset(test_imgs, test_labs, 10)
        source = "synthetic IDX fallback (canonical files not supplied)"

    # byte-identical IDX round trip on the training image file
    _, rows, cols = read_idx_image_header(train_imgs)
    rewritten = tmp_path / "roundtrip.idx"
    write_idx_images(rewritten, load_idx_images(train_imgs), rows, cols)
    round_trip_ok = rewritten.read_bytes() == Path(train_imgs).read_bytes()

    cfg = TrainConfig(eta=1e-3, epochs=60, bb_mode="bb2", tol_grad=1e-8,
                      log_every=10)
    w, trace = train(subset, cfg)
    losses = [r.loss for r in trace.records]
    decreasing = all(b < a for a, b in zip(losses, losses[1:]))

    _, accuracy = evaluate(w, test_ds)
    counts = test_ds.t.sum(axis=1)
    baseline = float(np.max(counts) / test_ds.n)

    elapsed = time.perf_counter() - start
    _criterion(
        8,
        round_trip_ok and decreasing and accuracy > baseline and elapsed < 120.0,
        f"{source}: BB loss strictly decreasing over {len(losses)} logged "
        f"epochs: {decreasing}; accuracy {accuracy:.3f} > baseline "
        f"{baseline:.3f}; IDX round trip byte-identical: {round_trip_ok}; "
        f"{elapsed:.1f}s (< 120s)",
    )
