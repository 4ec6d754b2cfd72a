"""Controls for the benchmark's own correctness checks.

Each check must accept a right answer and reject a wrong one; the input
generators must give the same bytes for the same seed.  Run from the root of
the checkout:

    python3 -m pytest -q bench/test_checks.py
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
from checks import CheckError  # noqa: E402
from smxreg import Dataset, TrainConfig, analyze_q, train  # noqa: E402


@pytest.fixture(scope="module")
def small_mnist():
    pixels, labels = inputs.mnist_pixels(3, n=2000)
    x = np.vstack([pixels.T / 255.0, np.ones((1, pixels.shape[0]))])
    t = np.zeros((inputs.MNIST_C, labels.size))
    t[labels, np.arange(labels.size)] = 1.0
    w, _ = train(Dataset(x, t), TrainConfig(eta=1e-6, epochs=20, bb_mode="bb2"))
    return pixels, labels, x, w


def test_trained_weights_accepted_and_perturbed_file_rejected(small_mnist):
    _, labels, x, w = small_mnist
    blob = inputs.smxw_bytes(w)
    loss, acc = checks.loss_and_accuracy(w, x, labels)
    checks.check_trained(checks.read_smxw(blob), x, labels, 10, loss, acc)

    bad = bytearray(blob)
    bad[12 + 8 * 5 + 6] ^= 0x01       # one mantissa bit of W[0, 5]
    with pytest.raises(CheckError):
        checks.check_trained(checks.read_smxw(bytes(bad)), x, labels, 10, loss, acc)
    with pytest.raises(CheckError):
        checks.read_smxw(blob[:-8])
    with pytest.raises(CheckError):
        checks.read_smxw(b"SMXV" + blob[4:])


def test_weights_with_drifting_column_sums_rejected(small_mnist):
    _, labels, x, w = small_mnist
    with pytest.raises(CheckError):
        checks.check_trained(w + 1e-6, x, labels, 10)


def test_loaded_x_must_match_exactly(small_mnist):
    pixels, _, x, _ = small_mnist
    checks.check_loaded_x(x, pixels)
    checks.check_loaded_x(checks.idx_x(inputs.idx_image_bytes(pixels)), pixels)
    off = x.copy()
    off[300, 7] = np.nextafter(off[300, 7], 2.0)
    with pytest.raises(CheckError):
        checks.check_loaded_x(off, pixels)


def test_degenerate_certificate_needs_a_true_witness(small_mnist):
    _, _, x, _ = small_mnist
    u = np.zeros((10, x.shape[0]))
    u[0, 0], u[1, 0] = 1.0, -1.0        # pixel 0 lies in the zero border
    result = {"verdict": "degenerate", "full_rank": False, "degeneracy_witness": u.tolist()}
    checks.check_degenerate_certificate(result, x)
    for bad in ({**result, "verdict": "strictly_convex_on_Z", "full_rank": True},
                {**result, "degeneracy_witness": np.roll(u, 300, axis=1).tolist()},
                {**result, "degeneracy_witness": (u + 0.5 * (u != 0)).tolist()}):
        with pytest.raises(CheckError):
            checks.check_degenerate_certificate(bad, x)


def test_loss_below_entropy_rejected():
    p = inputs.teacher_problem(5, 0)
    x, t = p.x[:, :500], p.t[:, :500]
    h = checks.entropy(t)
    checks.check_teacher(p.w, x, t, 1e-6)           # W* is the exact minimizer
    with pytest.raises(CheckError):
        checks.check_teacher(p.w, x, t, 1e-6, loss=h - 1e-3)
    w = p.w.copy()
    w[0, 0] += 0.01   # (a constant shift of all of W would change nothing)
    with pytest.raises(CheckError):
        checks.check_teacher(w, x, t, 1e-6)


def test_shifted_eigenvalue_rejected():
    y = inputs.softmax_cols(np.random.default_rng(0).standard_normal((10, 20)))
    multisets = [analyze_q(y[:, j]).multiset() for j in range(y.shape[1])]
    checks.check_multisets(multisets, y)
    multisets[4] = multisets[4].copy()
    multisets[4][-1] += 1e-7
    with pytest.raises(CheckError):
        checks.check_multisets(multisets, y)


def test_shifted_two_class_extreme_rejected():
    _, feats, _, w = inputs.two_class_csv(2)
    x = np.vstack([feats.T[:, :400], np.ones((1, 400))])
    ev = np.linalg.eigvalsh(checks.two_class_m(w, x))
    k = ev[-1] / ev[0]
    report = {"lambda_min": ev[0], "lambda_max": ev[-1], "theta": (k - 1) / (k + 1),
              "k_exact": k, "k_bound": 2 * k}
    checks.check_two_class(report, w, x)
    with pytest.raises(CheckError):
        checks.check_two_class({**report, "lambda_min": ev[0] * 1.001}, w, x)
    with pytest.raises(CheckError):
        checks.check_two_class({**report, "k_bound": 0.5 * k}, w, x)


def test_extremes_outside_bracket_rejected():
    rng = np.random.default_rng(1)
    x = np.vstack([rng.standard_normal((6, 300)), np.ones((1, 300))])
    t = inputs.softmax_cols(rng.standard_normal((4, 300)))
    # Exact extremes of H on Z from the dense Z-restricted matrix.
    from smxreg import HessianOperator, dense_hessian_on_z
    h = HessianOperator(Dataset(x, t), 0.5 * rng.standard_normal((4, 7)))
    ev = np.linalg.eigvalsh(dense_hessian_on_z(h))
    yh = h.y
    checks.check_extremes(ev[0], ev[-1], x, yh, np.random.default_rng(2))
    with pytest.raises(CheckError):
        checks.check_extremes(ev[0], ev[-1] * 0.5, x, yh, np.random.default_rng(2))
    with pytest.raises(CheckError):
        checks.check_extremes(ev[0], ev[-1] * 10.0, x, yh, np.random.default_rng(2))


def test_generators_are_byte_identical_per_seed():
    a = inputs.mnist_pixels(7, n=500)
    b = inputs.mnist_pixels(7, n=500)
    assert inputs.idx_image_bytes(a[0]) == inputs.idx_image_bytes(b[0])
    assert inputs.idx_label_bytes(a[1]) == inputs.idx_label_bytes(b[1])
    assert inputs.idx_image_bytes(a[0]) != inputs.idx_image_bytes(inputs.mnist_pixels(8, n=500)[0])
    assert inputs.two_class_csv(7)[0] == inputs.two_class_csv(7)[0]
    assert inputs.teacher_csv(7)[0] == inputs.teacher_csv(7)[0]
    for make in (lambda s: inputs.teacher_problem(s, 1), inputs.curvature_problem):
        p, q = make(7), make(7)
        assert all(np.array_equal(getattr(p, f), getattr(q, f)) for f in ("x", "t", "w"))
    assert np.array_equal(inputs.big_y(), inputs.big_y())


def test_generated_inputs_have_documented_structure():
    pixels, labels = inputs.mnist_pixels(4, n=3000)
    img = pixels.reshape(-1, 28, 28)
    b = inputs.MNIST_BORDER
    assert not img[:, :b].any() and not img[:, -b:].any()
    assert not img[:, :, :b].any() and not img[:, :, -b:].any()
    y = inputs.big_y()
    assert y.size == inputs.BIG_C and abs(y.sum() - 1.0) <= 1e-12
    parsed = np.array([float(v) for v in inputs.format_vector(y).split(",")])
    assert np.array_equal(parsed, y)
    _, x, labels = inputs.teacher_csv(1)
    assert labels.min() >= 0 and labels.max() < inputs.TEACHER_C
    assert np.array_equal(x, inputs.teacher_problem(1, inputs.TEACHER_CSV_INDEX).x)
    assert math.isclose(inputs.TEACHER_DECAY ** (inputs.TEACHER_D - 2),
                        float(np.std(inputs.teacher_problem(1, 0).x[-2])), rel_tol=0.1)
