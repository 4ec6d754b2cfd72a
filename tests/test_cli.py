import argparse
import dataclasses
import json
import os
import re
import shlex
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from smxreg import (HessianOperator, TrainConfig, certify, cli, core, curvature_bracket,
                    data_io, evaluate, fdcheck, softmax, train)
from smxreg.cli import main
from smxreg.data_io import encode_weights, load_csv, load_idx_dataset, read_weights
from smxreg.loss_grad import gradient

SRC = str(Path(__file__).resolve().parent.parent / "src")

TOY_CSV = "0.0,0.0,0\n1.0,0.0,0\n0.0,1.0,1\n1.0,1.0,1\n"
# Features near 1e100: one huge step leaves weights whose W X overflows.
HUGE_CSV = "1e100,1,0\n-1e100,2,1\n3e99,-1,0\n"
# One step at rate 1e8 leaves W X finite but with a column spread beyond the
# float range, so the next loss is infinite.
DIVERGING_CSV = "1e150,0\n1e150,1\n"


def write_saturated_csv(path):
    """40 x 3 standard-normal features from ``default_rng(0)``, labelled by
    x0 > 0: the two-class data whose anchors [[0, 0, 0, 0], [w, 0, 0, 0]]
    saturate some samples (w = 500) or all of them (w = 1e5)."""
    feats = np.random.default_rng(0).standard_normal((40, 3))
    path.write_text("".join(f"{a!r},{b!r},{c!r},{int(a > 0)}\n"
                            for a, b, c in feats.tolist()))


@pytest.fixture
def toy_csv(tmp_path):
    f = tmp_path / "toy.csv"
    f.write_text(TOY_CSV)
    return str(f)


class TestWeightsFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((3, 5))
        path = tmp_path / "w.bin"
        path.write_bytes(encode_weights(w))
        assert np.array_equal(read_weights(path), w)
        blob = path.read_bytes()
        assert blob[:4] == b"SMXW"
        assert len(blob) == 4 + 8 + 8 * 15

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        assert main(["spectrum", "--weights", str(path), "--sample", "0"]) == 2


class TestTrain:
    def test_toy_run_decreases_loss(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "w.bin"
        rep = tmp_path / "rep.json"
        rc = main([
            "train", "--csv", toy_csv, "--classes", "2", "--bias",
            "--eta", "0.5", "--epochs", "100", "--log-every", "10",
            "--out", str(out), "--json", str(rep),
        ])
        assert rc == 0
        report = json.loads(rep.read_text())
        losses = [r["loss"] for r in report["result"]["trace"]]
        assert losses[-1] < losses[0]
        assert read_weights(out).shape == (2, 3)
        captured = capsys.readouterr().out
        assert "epoch" in captured and "stop:" in captured

    def test_reports_live_rows_and_keeps_every_weight_column(self, tmp_path):
        f = tmp_path / "dead.csv"
        f.write_text("0,0.5,0\n0,-1,1\n0,2,0\n")  # feature 0 is zero throughout
        out, rep = tmp_path / "w.bin", tmp_path / "rep.json"
        assert main(["train", "--csv", str(f), "--classes", "2", "--bias",
                     "--eta", "0.1", "--epochs", "5", "--out", str(out),
                     "--json", str(rep)]) == 0
        result = json.loads(rep.read_text())["result"]
        assert (result["live_rows"], result["blocks"]) == (2, 1)
        assert read_weights(out).shape == (2, 3)

    def test_missing_eta_with_bb_off_is_usage_error(self, toy_csv):
        assert main(["train", "--csv", toy_csv, "--classes", "2"]) == 2

    def test_bb_mode_defaults_initial_eta(self, toy_csv):
        rc = main(["train", "--csv", toy_csv, "--classes", "2", "--bias",
                   "--bb", "bb2", "--epochs", "50"])
        assert rc == 0

    def test_zero_epochs_writes_initial_weights(self, toy_csv, tmp_path):
        out = tmp_path / "w.bin"
        rep = tmp_path / "rep.json"
        rc = main(["train", "--csv", toy_csv, "--classes", "2", "--bias",
                   "--eta", "0.1", "--epochs", "0", "--out", str(out),
                   "--json", str(rep)])
        assert rc == 0
        w = read_weights(out)
        assert np.max(np.abs(w.sum(axis=0))) <= 1e-12
        assert json.loads(rep.read_text())["result"]["trace"] == []

    def test_overflowing_final_evaluation_exits_1(self, tmp_path, capsys):
        # the one epoch is finite, but the final weights' W X overflows: the
        # run diverged, a check failure whose files are written
        f = tmp_path / "huge.csv"
        f.write_text(HUGE_CSV)
        out, rep = tmp_path / "w.bin", tmp_path / "rep.json"
        rc = main(["train", "--csv", str(f), "--classes", "2", "--eta", "1e120",
                   "--epochs", "1", "--out", str(out), "--json", str(rep)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-2:] == [
            "stop: epochs_exhausted",
            "final evaluation refused: activations contain non-finite entries"]
        result = json.loads(rep.read_text())["result"]
        assert result["final_loss"] is None and result["accuracy"] is None
        assert np.all(np.isfinite(read_weights(out)))

    def test_unwritable_out_leaves_no_report(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "missing" / "w.bin"
        rc = main(["train", "--csv", toy_csv, "--classes", "2", "--eta", "0.5",
                   "--epochs", "3", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert str(out) in captured.err and ".tmp" not in captured.err

    def test_missing_file_is_format_error(self, tmp_path):
        rc = main(["train", "--csv", str(tmp_path / "nope.csv"),
                   "--classes", "2", "--eta", "0.1"])
        assert rc == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_stop_exit_code(self, tmp_path):
        # the seeded start misclassifies both rows, so the first gradient's
        # norm overflows against 1e160-scale features
        f = tmp_path / "huge.csv"
        f.write_text("1e160,1\n-1e160,0\n")
        rc = main(["train", "--csv", f.as_posix(), "--classes", "2",
                   "--eta", "1.0", "--epochs", "10", "--tol-grad", "1e-300"])
        assert rc == 1

    @pytest.mark.parametrize("epochs", ["1", "2"])
    def test_overflowing_step_stops_nonfinite(self, tmp_path, epochs):
        # epoch 1's step overflows W: with one epoch it is the run's last
        # step, with two the next epoch's A = W X overflows
        f = tmp_path / "f.csv"
        f.write_text("1e100,1,0\n-1e100,2,1\n")
        proc = _run_module(["train", "--csv", str(f), "--classes", "2", "--bb", "off",
                            "--eta", "1e300", "--epochs", epochs])
        assert proc.returncode == 1
        assert proc.stderr == ""
        lines = proc.stdout.splitlines()
        assert len(lines) == int(epochs) + 1
        assert lines[-1] == "stop: nonfinite"

    # with one epoch the final evaluation's loss is infinite; with two,
    # epoch 2's loss is, and the run stops nonfinite
    @pytest.mark.parametrize("epochs, last", [
        ("1", "final loss inf  accuracy 0.5000"), ("2", "stop: nonfinite")],
        ids=["1", "2"])
    def test_nonfinite_final_loss_exits_1(self, tmp_path, epochs, last):
        f = tmp_path / "f.csv"
        f.write_text(DIVERGING_CSV)
        proc = _run_module(["train", "--csv", str(f), "--classes", "2", "--bb", "off",
                            "--eta", "1e8", "--epochs", epochs])
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[-1] == last

    @pytest.mark.parametrize("eta", ["inf", "nan", "0"])
    def test_eta_must_be_finite_and_positive(self, toy_csv, tmp_path, capsys, eta):
        rep = tmp_path / "rep.json"
        assert main(["train", "--csv", toy_csv, "--classes", "2", "--eta", eta,
                     "--epochs", "2", "--json", str(rep)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: eta must be finite and positive\n"
        assert not rep.exists()

    def test_deterministic_reports_are_byte_identical(self, toy_csv, tmp_path):
        reps = []
        for name in ("a.json", "b.json"):
            rep = tmp_path / name
            rc = main(["train", "--csv", toy_csv, "--classes", "2", "--bias",
                       "--eta", "0.5", "--epochs", "30", "--seed", "3",
                       "--json", str(rep), "--deterministic"])
            assert rc == 0
            reps.append(rep.read_bytes())
        assert reps[0] == reps[1]


def _idx_files(tmp_path, images, labels):
    """An IDX image and label file of uint8 ``images`` (N, rows, cols)."""
    imgs, labs = tmp_path / "imgs.idx", tmp_path / "labs.idx"
    n, rows, cols = images.shape
    imgs.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + images.tobytes())
    labs.write_bytes(struct.pack(">II", 0x801, len(labels)) + bytes(labels))
    return str(imgs), str(labs)


class TestTrainIdx:
    """``smxreg train`` loads an IDX pair as its live rows alone."""

    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("mode", ["off", "bb2"])
    def test_matches_the_library_on_the_full_load(self, tmp_path, monkeypatch, bias,
                                                  mode):
        # 120 images of 4 x 5 pixels; the first pixel row and two more
        # pixels are zero in every image.  Blocks of 4 KiB cut the 13 or 14
        # live rows into three blocks.
        monkeypatch.setattr(core, "PARALLEL_MIN_BYTES", 4096)
        rng = np.random.default_rng(21)
        images = rng.integers(0, 256, (120, 4, 5), dtype=np.uint8)
        images[:, 0] = 0
        images[:, 2, [1, 3]] = 0
        labels = rng.integers(0, 3, 120).tolist()
        imgs, labs = _idx_files(tmp_path, images, labels)
        out, rep = tmp_path / "w.bin", tmp_path / "rep.json"
        argv = ["train", "--data", imgs, "--labels", labs, "--classes", "3",
                "--bb", mode, "--eta", "0.05", "--epochs", "15", "--seed", "4",
                "--log-every", "4", "--out", str(out), "--json", str(rep)]
        with monkeypatch.context() as no_copy:
            # the CLI reads the live rows as loaded: train copies none
            no_copy.setattr(core.LiveRows, "of", None)
            assert main(argv + ["--bias"] * bias) == 0
        result = json.loads(rep.read_text())["result"]

        data = load_idx_dataset(imgs, labs, 3, bias=bias)
        w, trace = train(data, TrainConfig(eta=0.05, epochs=15, bb_mode=mode, seed=4,
                                           log_every=4))
        assert out.read_bytes() == encode_weights(w)
        assert result["trace"] == [dataclasses.asdict(r) for r in trace.records]
        assert (result["stop_reason"], result["live_rows"], result["blocks"]) == (
            trace.stop_reason, trace.live_rows, trace.blocks) == (
            "epochs_exhausted", 13 + bias, 3)
        loss, accuracy = evaluate(w, data)
        assert result["final_loss"] == pytest.approx(loss, rel=1e-12, abs=0)
        assert result["accuracy"] == accuracy

    @pytest.mark.parametrize("bias", [False, True])
    def test_all_zero_images(self, tmp_path, capsys, bias):
        imgs, labs = _idx_files(tmp_path, np.zeros((10, 2, 2), dtype=np.uint8),
                                [0, 1, 1, 0, 1, 1, 1, 0, 1, 1])
        rep = tmp_path / "rep.json"
        assert main(["train", "--data", imgs, "--labels", labs, "--classes", "2",
                     "--eta", "0.1", "--epochs", "3", "--json", str(rep)]
                    + ["--bias"] * bias) == 0
        result = json.loads(rep.read_text())["result"]
        assert result["live_rows"] == int(bias)
        if bias:  # the bias row learns the class balance
            assert result["stop_reason"] == "epochs_exhausted"
            assert result["final_loss"] < 10 * np.log(2)
        else:  # nothing to learn: the gradient is zero at the start
            assert result["stop_reason"] == "grad_tol"
            assert [r["epoch"] for r in result["trace"]] == [1]
            assert result["final_loss"] == pytest.approx(10 * np.log(2), rel=1e-15)
            assert result["accuracy"] == 0.3

    @pytest.mark.parametrize("images, labels, message", [
        (struct.pack(">IIII", 0x803, 2, 2, 2) + b"\1" * 7, [0, 1],
         "{imgs}: truncated file: header declares 8 bytes of pixels at offset 16, "
         "file holds 7"),
        (struct.pack(">IIII", 0x803, 3, 2, 2) + b"\1" * 12, [0, 1],
         "image count 3 does not match label count 2"),
        (struct.pack(">IIII", 0x803, 0, 2, 2), [],
         "x must have at least one row and column"),
        (struct.pack(">IIII", 0x803, 2, 0, 2), [0, 1],
         "x must have at least one row and column"),
    ], ids=["truncated", "count_mismatch", "no_images", "no_pixels"])
    @pytest.mark.parametrize("bias", [False, True])
    def test_bad_pairs_exit_2(self, tmp_path, capsys, images, labels, message, bias):
        imgs, labs = tmp_path / "imgs.idx", tmp_path / "labs.idx"
        imgs.write_bytes(images)
        labs.write_bytes(struct.pack(">II", 0x801, len(labels)) + bytes(labels))
        assert main(["train", "--data", str(imgs), "--labels", str(labs),
                     "--classes", "2", "--eta", "0.1"] + ["--bias"] * bias) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message.format(imgs=imgs)}\n"

    # a CSV given as the label file, then as the image file
    @pytest.mark.parametrize("bad", ["labels", "data"])
    def test_bad_file_is_named(self, tmp_path, toy_csv, capsys, bad):
        imgs, labs = _idx_files(tmp_path, np.ones((4, 2, 2), dtype=np.uint8), [0, 1, 1, 0])
        files = {"data": imgs, "labels": labs, bad: toy_csv}
        assert main(["train", "--data", files["data"], "--labels", files["labels"],
                     "--classes", "2", "--eta", "0.1"]) == 2
        assert capsys.readouterr().err == (
            f"error: {toy_csv}: bad magic bytes 0x30 0x2e at offset 0 "
            "(expected 0x00 0x00)\n")


class TestCurvatureIdx:
    """``smxreg spectrum`` and ``certify`` read an IDX pair as its live rows,
    as ``train`` does, and report what the full X gives."""

    @staticmethod
    def _pair(tmp_path, dead):
        # 60 images of 3 x 4 pixels; with ``dead``, the first pixel row and
        # one more pixel are zero in every image
        rng = np.random.default_rng(31)
        images = rng.integers(1, 256, (60, 3, 4), dtype=np.uint8)
        if dead:
            images[:, 0] = 0
            images[:, 2, 1] = 0
        imgs, labs = _idx_files(tmp_path, images, rng.integers(0, 3, 60).tolist())
        return imgs, labs, load_idx_dataset(imgs, labs, 3, bias=True)

    @pytest.mark.parametrize("dead", [False, True])
    def test_spectrum_from_weights(self, tmp_path, dead):
        imgs, labs, full = self._pair(tmp_path, dead)
        w = np.random.default_rng(32).standard_normal((3, 13))
        wfile, rep = tmp_path / "w.bin", tmp_path / "rep.json"
        wfile.write_bytes(encode_weights(w))
        assert main(["spectrum", "--weights", str(wfile), "--data", imgs, "--labels", labs,
                     "--classes", "3", "--bias", "--sample", "5", "--json", str(rep)]) == 0
        # the full X's product, bit for bit
        assert json.loads(rep.read_text())["input"]["y"] == softmax(w @ full.x[:, 5]).tolist()

    def test_certify_from_weights_on_a_full_rank_pair_reports_the_bracket(self, tmp_path):
        imgs, labs, full = self._pair(tmp_path, dead=False)
        w = np.random.default_rng(33).standard_normal((3, 13))
        wfile, rep = tmp_path / "w.bin", tmp_path / "rep.json"
        wfile.write_bytes(encode_weights(w))
        assert main(["certify", "--weights", str(wfile), "--data", imgs, "--labels", labs,
                     "--classes", "3", "--bias", "--json", str(rep)]) == 0
        result = json.loads(rep.read_text())["result"]
        br = curvature_bracket(HessianOperator(full, w))
        assert result["verdict"] == "strictly_convex_on_Z"
        assert result["bracket"] == {"anchor": "supplied", "low": br.low, "high": br.high,
                                     "k_bracket": br.k_bracket, "k_bound": br.k_bound}

    def test_certify_on_dead_rows_has_an_exact_witness(self, tmp_path):
        imgs, labs, full = self._pair(tmp_path, dead=True)
        rep = tmp_path / "rep.json"
        assert main(["certify", "--data", imgs, "--labels", labs, "--classes", "3",
                     "--bias", "--json", str(rep)]) == 0
        result = json.loads(rep.read_text())["result"]
        assert result["verdict"] == "degenerate" and result["full_rank"] is False
        assert result["sv_min"] == 0.0
        assert result["sv_max"] == pytest.approx(certify(full).sv_max, rel=1e-12, abs=0)
        u = np.array(result["degeneracy_witness"])
        assert np.all(u @ full.x == 0.0)
        # nonzero in the last dead pixel's column only: e_9 (row 2, column 1)
        assert np.flatnonzero(np.abs(u).sum(axis=0)).tolist() == [9]
        assert u[:2, 9].tolist() == [1.0, -1.0]


class TestSpectrum:
    def test_probability_vector(self, capsys):
        assert main(["spectrum", "--y", "0.2,0.3,0.5"]) == 0
        out = capsys.readouterr().out
        assert "interlaced-root" in out
        assert "dense-oracle" in out

    def test_boundary_vector(self, capsys):
        assert main(["spectrum", "--y", "0,1"]) == 0
        out = capsys.readouterr().out
        assert "zero" in out

    def test_non_probability_vector_is_usage_error(self):
        assert main(["spectrum", "--y", "0.5,0.6"]) == 2

    def test_failed_command_leaves_no_partial_output(self, tmp_path):
        rep = tmp_path / "rep.json"
        assert main(["spectrum", "--y", "0.5,0.6", "--json", str(rep)]) == 2
        assert not rep.exists()

    @pytest.mark.parametrize("flags, named", [
        (["--weights", "/nonexistent.bin"], "--weights"),
        (["--csv", "/nonexistent.csv"], "--csv"),
        (["--weights", "/nonexistent.bin", "--csv", "/nonexistent.csv"],
         "--weights --csv"),
        (["--data", "i.idx", "--labels", "l.idx", "--classes", "2"],
         "--data --labels --classes"),
        (["--bias"], "--bias"),
        (["--sample", "0", "--label-column", "-1"], "--sample --label-column"),
    ])
    def test_y_with_files_or_data_flags_is_usage_error(self, tmp_path, capsys, flags,
                                                       named):
        rep = tmp_path / "r.json"
        assert main(["spectrum", "--y", "0.5,0.5", "--json", str(rep)] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --y takes no --weights, --sample or data flags, "
                                f"got {named}\n")
        assert not rep.exists()

    def test_above_dense_limit_skips_oracle(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        y = rng.dirichlet(np.ones(600))
        rep = tmp_path / "rep.json"
        assert main(["spectrum", "--y", ",".join(repr(float(v)) for v in y),
                     "--json", str(rep)]) == 0
        assert "dense-oracle: skipped (C > 512)" in capsys.readouterr().out
        result = json.loads(rep.read_text())["result"]
        assert result["dense_max_delta"] is None
        got = np.sort(np.concatenate([[e["value"]] * e["multiplicity"]
                                      for e in result["eigenvalues"]]))
        want = np.linalg.eigvalsh(np.diag(y) - np.outer(y, y))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_from_weights_and_data(self, toy_csv, tmp_path):
        wfile = tmp_path / "w.bin"
        wfile.write_bytes(encode_weights(np.zeros((2, 3))))
        rc = main(["spectrum", "--weights", str(wfile), "--csv", toy_csv,
                   "--classes", "2", "--bias", "--sample", "1"])
        assert rc == 0

    def test_wrong_shape_weights_name_both_shapes(self, toy_csv, tmp_path, capsys):
        wfile = tmp_path / "w.bin"
        wfile.write_bytes(encode_weights(np.zeros((2, 4))))
        rc = main(["spectrum", "--weights", str(wfile), "--csv", toy_csv,
                   "--classes", "2", "--bias", "--sample", "1"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: weights have shape (2, 4), expected (2, 3)\n")


    def test_overflowing_weights_column_is_usage_error(self, tmp_path, capsys):
        f = tmp_path / "huge.csv"
        f.write_text(HUGE_CSV)
        wfile = tmp_path / "w.bin"
        wfile.write_bytes(encode_weights(np.array([[1e300, 0.0, 0.0], [0.0, 0.0, 0.0]])))
        rc = main(["spectrum", "--weights", str(wfile), "--csv", str(f),
                   "--classes", "2", "--bias"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: activations contain non-finite entries\n")


class TestCertify:
    def test_full_rank_two_class_report(self, toy_csv, capsys):
        rc = main(["certify", "--csv", toy_csv, "--classes", "2", "--bias"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "strictly_convex_on_Z" in out
        assert "K_exact" in out

    def test_rank_deficient_reports_degenerate(self, tmp_path, capsys):
        f = tmp_path / "dup.csv"
        f.write_text("1,2,0\n2,4,1\n")  # feature rows proportional
        rc = main(["certify", "--csv", str(f), "--classes", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "not strictly convex" in out

    def test_train_flags_are_gone(self, toy_csv):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--csv", toy_csv, "--classes", "2", "--bias",
                  "--train-epochs", "3"])
        assert exc.value.code == 2

    def test_trained_anchor_is_train_then_weights(self, tmp_path):
        # the anchor of a trained run comes from `train --out` alone
        f = tmp_path / "two.csv"
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((60, 3)).tolist()
        f.write_text("".join(f"{a!r},{b!r},{int(c > 0)}\n" for a, b, c in rows))
        wfile, rep = tmp_path / "w.bin", tmp_path / "rep.json"
        assert main(["train", "--csv", str(f), "--classes", "2", "--bias",
                     "--bb", "bb2", "--epochs", "25", "--seed", "3",
                     "--out", str(wfile)]) == 0
        data = load_csv(f, -1, 2, bias=True)
        w, _ = train(data, TrainConfig(eta=cli.BB_ETA0, epochs=25, bb_mode="bb2", seed=3))
        assert read_weights(wfile).tobytes() == w.tobytes()

        assert main(["certify", "--csv", str(f), "--classes", "2", "--bias",
                     "--weights", str(wfile), "--json", str(rep)]) == 0
        two = json.loads(rep.read_text())["result"]["two_class"]
        y = softmax(w @ data.x)
        evals = np.linalg.eigvalsh((data.x * (2.0 * y[0] * y[1])) @ data.x.T)
        assert two["anchor"] == "supplied"
        assert two["lambda_min"] == evals[0] and two["lambda_max"] == evals[-1]

    @pytest.mark.parametrize("text,classes", [
        ("1,2,0\n2,4,1\n", "2"),                    # rank-deficient X
        ("0,1,0\n1,0,1\n1,1,2\n2,1,0\n", "3"),      # C = 3
    ], ids=["rank_deficient", "three_classes"])
    @pytest.mark.parametrize("weights", ["missing", "malformed", "wrong_shape"])
    def test_bad_weights_file_exits_2_before_the_report(self, tmp_path, capsys,
                                                         text, classes, weights):
        f = tmp_path / "d.csv"
        f.write_text(text)
        wfile = tmp_path / "w.bin"
        if weights == "malformed":
            wfile.write_bytes(b"SMXW\x02\x00")
        elif weights == "wrong_shape":
            wfile.write_bytes(encode_weights(np.zeros((int(classes), 5))))
        rc = main(["certify", "--csv", str(f), "--classes", classes,
                   "--weights", str(wfile), "--json", str(tmp_path / "r.json")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not (tmp_path / "r.json").exists()

    def test_weights_with_three_classes_report_the_bracket(self, tmp_path, capsys):
        f = tmp_path / "three.csv"
        f.write_text("0,1,0\n1,0,1\n1,1,2\n2,1,0\n")
        wfile, rep = tmp_path / "w.bin", tmp_path / "rep.json"
        w = np.array([[0.5, -1.0], [0.0, 2.0], [-0.5, -1.0]])
        wfile.write_bytes(encode_weights(w))
        rc = main(["certify", "--csv", str(f), "--classes", "3",
                   "--weights", str(wfile), "--json", str(rep)])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        assert "curvature bracket at supplied weights:" in captured.out
        result = json.loads(rep.read_text())["result"]
        assert "two_class" not in result
        bracket = result["bracket"]
        # the ends of X diag(mu_2) X^T and X diag(mu_C) X^T, mu from Q's spectra
        x = np.array([[0.0, 1.0, 1.0, 2.0], [1.0, 0.0, 1.0, 1.0]])
        y = softmax(w @ x)
        spectra = np.array([np.linalg.eigvalsh(np.diag(c) - np.outer(c, c)) for c in y.T])
        low = np.linalg.eigvalsh((x * spectra[:, 1]) @ x.T)[0]
        high = np.linalg.eigvalsh((x * spectra[:, -1]) @ x.T)[-1]
        assert bracket["anchor"] == "supplied"
        assert bracket["low"] == pytest.approx(low, rel=1e-12)
        assert bracket["high"] == pytest.approx(high, rel=1e-12)
        assert bracket["k_bracket"] == pytest.approx(high / low, rel=1e-12)
        kx2 = np.linalg.cond(x) ** 2
        assert bracket["k_bound"] == pytest.approx(
            kx2 * spectra[:, -1].max() / spectra[:, 1].min(), rel=1e-10)

    def test_fully_saturated_two_class_anchor_reports_the_bracket(self, tmp_path, capsys):
        # every 2 y1 y2 underflows to 0, so the bracket's low end is 0 and no
        # plan exists: the bracket is reported as for C > 2, its infinite K
        # bounds as null
        f, wfile, rep = tmp_path / "c.csv", tmp_path / "w.bin", tmp_path / "rep.json"
        write_saturated_csv(f)
        wfile.write_bytes(encode_weights(np.array([[0.0, 0, 0, 0], [1e5, 0, 0, 0]])))
        rc = main(["certify", "--csv", str(f), "--classes", "2", "--bias",
                   "--weights", str(wfile), "--json", str(rep)])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        assert captured.out.splitlines()[-3:] == [
            "curvature bracket at supplied weights:",
            "  low 0.000000e+00  high 0.000000e+00",
            "  K_bracket inf  K_bound inf"]
        result = json.loads(rep.read_text())["result"]
        assert result["verdict"] == "strictly_convex_on_Z"
        assert "two_class" not in result
        assert result["bracket"] == {"anchor": "supplied", "low": 0.0, "high": 0.0,
                                     "k_bracket": None, "k_bound": None}

    def test_ten_classes_at_supplied_weights(self, tmp_path, capsys):
        rng = np.random.default_rng(10)
        f, wfile, rep = tmp_path / "ten.csv", tmp_path / "w.bin", tmp_path / "rep.json"
        feats = rng.standard_normal((60, 3))
        f.write_text("".join(f"{a!r},{b!r},{c!r},{k}\n" for (a, b, c), k
                             in zip(feats.tolist(), rng.integers(0, 10, 60))))
        wfile.write_bytes(encode_weights(2.0 * rng.standard_normal((10, 4))))
        rc = main(["certify", "--csv", str(f), "--classes", "10", "--bias",
                   "--weights", str(wfile), "--json", str(rep)])
        assert rc == 0 and capsys.readouterr().err == ""
        bracket = json.loads(rep.read_text())["result"]["bracket"]
        assert 0.0 < bracket["low"] <= bracket["high"]
        assert 1.0 <= bracket["k_bracket"] <= bracket["k_bound"] < np.inf

    def test_zero_weights_bracket_is_uniform(self, tmp_path):
        # at W = 0 every output is 1/C, so both ends are X X^T / C
        f, rep = tmp_path / "three.csv", tmp_path / "rep.json"
        f.write_text("0,1,0\n1,0,1\n1,1,2\n2,1,0\n")
        assert main(["certify", "--csv", str(f), "--classes", "3",
                     "--json", str(rep)]) == 0
        bracket = json.loads(rep.read_text())["result"]["bracket"]
        x = np.array([[0.0, 1.0, 1.0, 2.0], [1.0, 0.0, 1.0, 1.0]])
        evals = np.linalg.eigvalsh(x @ x.T) / 3.0
        assert bracket["anchor"] == "zero"
        assert bracket["low"] == pytest.approx(evals[0], rel=1e-12)
        assert bracket["high"] == pytest.approx(evals[-1], rel=1e-12)
        assert bracket["k_bracket"] == pytest.approx(bracket["k_bound"], rel=1e-12)

    def test_bracket_past_the_dense_limit_is_left_out(self, tmp_path, capsys):
        f, rep = tmp_path / "many.csv", tmp_path / "rep.json"
        f.write_text("0,1,0\n1,0,512\n1,1,3\n")
        assert main(["certify", "--csv", str(f), "--classes", "513",
                     "--json", str(rep)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "certificate: strictly_convex_on_Z"
        result = json.loads(rep.read_text())["result"]
        assert result["verdict"] == "strictly_convex_on_Z"
        assert "bracket" not in result and "two_class" not in result

    def test_two_class_run_solves_m_once(self, toy_csv, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        assert main(["certify", "--csv", toy_csv, "--classes", "2", "--bias"]) == 0
        assert calls == [(3, 3)]

    def test_k_exact_below_bound(self, toy_csv, tmp_path):
        rep = tmp_path / "rep.json"
        rc = main(["certify", "--csv", toy_csv, "--classes", "2", "--bias",
                   "--json", str(rep)])
        assert rc == 0
        two = json.loads(rep.read_text())["result"]["two_class"]
        assert two["k_exact"] <= two["k_bound"] * (1 + 1e-10)


class TestReportSchema:
    """The JSON report layout of every command under --json --deterministic."""

    TOP = {"command", "input", "result", "duration_s"}
    TRACE = {"epoch", "loss", "grad_norm", "eta_used", "max_abs_column_sum"}
    EIGENVALUE = {"value", "multiplicity", "kind", "bracket", "degenerate_gap"}
    TWO_CLASS = {"anchor", "lambda_min", "lambda_max", "k_exact", "k_bound",
                 "theta", "eta_window", "eta_optimal"}
    BRACKET = {"anchor", "low", "high", "k_bracket", "k_bound"}

    def _report(self, tmp_path, argv, rc=0):
        rep = tmp_path / "rep.json"
        assert main(argv + ["--json", str(rep), "--deterministic"]) == rc
        report = json.loads(rep.read_text())
        assert set(report) == self.TOP
        assert report["command"] == argv[0]
        assert report["duration_s"] == 0.0
        return report["result"]

    def test_train(self, toy_csv, tmp_path):
        result = self._report(tmp_path, [
            "train", "--csv", toy_csv, "--classes", "2", "--bias",
            "--eta", "0.5", "--epochs", "20", "--log-every", "7"])
        assert [r["epoch"] for r in result["trace"]] == [7, 14, 20]
        assert result["live_rows"] == 3
        assert result["blocks"] == 1
        for r in result["trace"]:
            assert set(r) == self.TRACE
            assert type(r["epoch"]) is int

    def test_train_without_eta_writes_no_report(self, toy_csv, tmp_path):
        rep = tmp_path / "rep.json"
        assert main(["train", "--csv", toy_csv, "--classes", "2", "--bb", "off",
                     "--json", str(rep), "--deterministic"]) == 2
        assert not rep.exists()

    def test_spectrum(self, tmp_path):
        result = self._report(tmp_path, ["spectrum", "--y", "0,0.25,0.25,0.5"])
        assert set(result) == {"eigenvalues", "support", "distinct_values",
                               "counts", "dense_max_delta"}
        for e in result["eigenvalues"]:
            assert set(e) == self.EIGENVALUE

    def test_certify_full_rank(self, toy_csv, tmp_path):
        result = self._report(tmp_path, ["certify", "--csv", toy_csv,
                                         "--classes", "2", "--bias"])
        assert result["verdict"] == "strictly_convex_on_Z"
        assert "degeneracy_witness" not in result
        assert set(result["two_class"]) == self.TWO_CLASS
        assert "bracket" not in result

    def test_certify_three_classes(self, tmp_path):
        f = tmp_path / "three.csv"
        f.write_text("0,1,0\n1,0,1\n1,1,2\n2,1,0\n")
        result = self._report(tmp_path, ["certify", "--csv", str(f), "--classes", "3"])
        assert set(result["bracket"]) == self.BRACKET
        assert "two_class" not in result

    def test_certify_degenerate(self, tmp_path):
        f = tmp_path / "dup.csv"
        f.write_text("1,2,0\n2,4,1\n")
        result = self._report(tmp_path, ["certify", "--csv", str(f), "--classes", "2"])
        assert result["verdict"] == "degenerate"
        assert np.asarray(result["degeneracy_witness"]).shape == (2, 2)
        assert "two_class" not in result

    def test_checkgrad(self, tmp_path):
        result = self._report(tmp_path, ["checkgrad", "--instances", "3"])
        assert result["passed"] is True

    @pytest.mark.parametrize("case", ["train_nonfinite_stop", "train_infinite_final_loss",
                                      "spectrum", "certify_saturated", "checkgrad"])
    def test_every_report_is_strict_json(self, tmp_path, capsys, case):
        # a non-finite value is null, never NaN or Infinity, and no numpy
        # warning is printed
        diverging, saturated, wfile = (tmp_path / name for name in ("f.csv", "c.csv",
                                                                     "w.bin"))
        diverging.write_text(DIVERGING_CSV)
        # at this anchor 2 y1 y2 underflows to 0 for samples with |x0| > 1.5,
        # so the two-class bound K(X)^2 max alpha / min alpha is infinite
        write_saturated_csv(saturated)
        wfile.write_bytes(encode_weights(np.array([[0.0, 0, 0, 0], [500, 0, 0, 0]])))
        train_argv = ["train", "--csv", str(diverging), "--classes", "2", "--bb", "off",
                      "--eta", "1e8", "--epochs"]
        argv, rc, null = {
            "train_nonfinite_stop": (train_argv + ["2"], 1,
                                     lambda r: r["trace"][-1]["loss"]),
            "train_infinite_final_loss": (train_argv + ["1"], 1,
                                          lambda r: r["final_loss"]),
            "spectrum": (["spectrum", "--y", "0.2,0.3,0.5"], 0, None),
            "certify_saturated": (["certify", "--csv", str(saturated), "--classes", "2",
                                   "--bias", "--weights", str(wfile)], 0,
                                  lambda r: r["two_class"]["k_bound"]),
            "checkgrad": (["checkgrad", "--instances", "3"], 0, None),
        }[case]
        rep = tmp_path / "rep.json"
        assert main(argv + ["--json", str(rep)]) == rc
        assert capsys.readouterr().err == ""

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        result = json.loads(rep.read_text(), parse_constant=refuse)["result"]
        if null:
            assert null(result) is None


class TestRefusals:
    """A command missing what it needs exits 2 with this message and no
    report."""

    @pytest.mark.parametrize("argv, message", [
        (["certify", "--csv", "{csv}"], "--classes is required with --csv"),
        (["certify", "--data", "i.idx", "--labels", "l.idx"],
         "--classes is required with --data/--labels"),
        (["certify", "--data", "i.idx", "--classes", "2"],
         "provide --csv or both --data and --labels"),
        (["spectrum", "--csv", "{csv}", "--classes", "2"],
         "provide --y or --weights with data flags"),
        (["spectrum", "--weights", "{w}", "--csv", "{csv}", "--classes", "2", "--bias",
          "--sample", "4"], "--sample must be in 0..3"),
        (["spectrum", "--weights", "{w}", "--csv", "{csv}", "--classes", "2", "--bias",
          "--sample", "-1"], "--sample must be in 0..3"),
        (["spectrum", "--y", "0.5,abc"], "--y: could not convert string to float: 'abc'"),
        (["spectrum", "--y", "0.5,,0.5"], "--y: could not convert string to float: ''"),
    ], ids=["csv_classes", "idx_classes", "no_data", "spectrum_no_input",
            "sample_past_n", "sample_negative", "y_bad_entry", "y_empty_entry"])
    def test_exits_2(self, toy_csv, tmp_path, capsys, argv, message):
        wfile = tmp_path / "w.bin"
        wfile.write_bytes(encode_weights(np.zeros((2, 3))))
        argv = [arg.format(csv=toy_csv, w=wfile) for arg in argv]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestHostileInput:
    def test_huge_idx_header_exits_2(self, tmp_path, capsys):
        imgs = tmp_path / "imgs.idx"
        labs = tmp_path / "labs.idx"
        imgs.write_bytes(struct.pack(">IIII", 0x803, 2**32 - 1, 28, 28) + b"\x00" * 784)
        labs.write_bytes(struct.pack(">II", 0x801, 1) + b"\x00")
        rc = main(["certify", "--data", str(imgs), "--labels", str(labs),
                   "--classes", "10"])
        assert rc == 2
        assert "offset 16" in capsys.readouterr().err

    def test_csv_label_column_is_named_as_given(self, toy_csv, capsys):
        rc = main(["train", "--csv", toy_csv, "--classes", "2", "--eta", "0.1",
                   "--label-column", "-5"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: label column -5 outside -3..2\n"

    @pytest.mark.parametrize("text, flags", [
        ("", []), ("a,b,label\n", ["--header"]), ("\n\n\n", []),
    ], ids=["empty", "header-only", "blank-lines"])
    def test_csv_without_data_rows_is_one_error_line(self, tmp_path, capsys,
                                                     text, flags):
        f = tmp_path / "empty.csv"
        f.write_text(text)
        assert main(["certify", "--csv", str(f), "--classes", "2", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no data rows\n"

    @pytest.mark.parametrize("cell", [b"inf", b"-inf", b"nan", b"1e999", b"0.\xff"])
    def test_refused_csv_cell_names_its_line(self, tmp_path, capsys, cell):
        f = tmp_path / "bad.csv"
        f.write_bytes(b"0.5,0\n" + cell + b",1\n")
        rc = main(["train", "--csv", str(f), "--classes", "2", "--eta", "0.1",
                   "--out", str(tmp_path / "w.bin"), "--json", str(tmp_path / "r.json")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        kind = "non-numeric" if b"\xff" in cell else "non-finite"
        shown = cell.decode("utf-8", "surrogateescape")
        assert captured.err == f"error: line 2: {kind} value {shown!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["bad.csv"]

    def test_header_that_is_not_utf8_is_skipped(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(data_io, "_load_csv_lines",
                            lambda *a, **k: pytest.fail("reached the line reader"))
        f = tmp_path / "cp1252.csv"
        f.write_bytes("x\u00b9,x\u00b2,\u00e9tiquette\n".encode("cp1252")
                      + TOY_CSV.encode())
        assert main(["certify", "--csv", str(f), "--classes", "2", "--header",
                     "--bias"]) == 0
        assert capsys.readouterr().out.startswith("rank(X): full (= D)")

    @pytest.mark.parametrize("command", ["certify", "spectrum"])
    def test_non_finite_weight_names_file_and_offset(self, toy_csv, tmp_path, capsys,
                                                     command):
        w = np.zeros((2, 3))
        w[1, 2] = np.nan
        wfile = tmp_path / "w.bin"
        wfile.write_bytes(encode_weights(w))
        rc = main([command, "--csv", toy_csv, "--classes", "2", "--bias",
                   "--weights", str(wfile), "--json", str(tmp_path / "r.json")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {wfile}: non-finite weight nan at offset 52 "
                                "(row 1, column 2)\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["toy.csv", "w.bin"]

    def test_memory_error_exits_2(self, toy_csv, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 26.8 GiB")

        monkeypatch.setattr(cli, "load_csv", exhausted)
        assert main(["certify", "--csv", toy_csv, "--classes", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: Unable to allocate")

    def test_memory_error_without_message_says_out_of_memory(self, toy_csv,
                                                              monkeypatch, capsys):
        # a bytes or array allocation raises MemoryError() with no message
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "load_csv", exhausted)
        assert main(["certify", "--csv", toy_csv, "--classes", "2"]) == 2
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_oversized_weights_file_is_refused_before_its_payload(self, toy_csv,
                                                                  tmp_path, capsys):
        wfile = tmp_path / "w.bin"
        with open(wfile, "wb") as f:
            f.write(encode_weights(np.zeros((2, 3))))
            f.truncate(2**26)  # a sparse 64 MiB tail
        tracemalloc.start()
        try:
            rc = main(["certify", "--csv", toy_csv, "--classes", "2", "--bias",
                       "--weights", str(wfile)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        err = capsys.readouterr().err
        assert "trailing bytes" in err and "offset 12" in err
        assert peak < 2**22


class TestCheckgrad:
    def test_default_passes(self, capsys):
        assert main(["checkgrad", "--seed", "0", "--instances", "10"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_corrupted_gradient_fails(self, monkeypatch, capsys):
        # a constant added to every gradient cancels in the Hessian check's
        # central difference of gradients, so only the gradient check fails
        monkeypatch.setattr(fdcheck, "gradient",
                            lambda w, data: gradient(w, data) + 1e-3)
        assert main(["checkgrad", "--seed", "0", "--instances", "5"]) == 1
        assert "checkgrad: FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_no_instances_is_usage_error(self, instances, capsys):
        assert main(["checkgrad", "--instances", instances]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: instances must be >= 1")


class TestOutput:
    """``main`` writes every output file or none, and prints only after."""

    @pytest.mark.parametrize("command", ["train", "spectrum", "certify", "checkgrad"])
    def test_unwritable_json_exits_2_with_nothing_written(self, toy_csv, tmp_path,
                                                          capsys, command):
        argv = {
            "train": ["train", "--csv", toy_csv, "--classes", "2", "--eta", "0.5",
                      "--epochs", "3", "--out", str(tmp_path / "w.bin")],
            "spectrum": ["spectrum", "--y", "0.25,0.75"],
            "certify": ["certify", "--csv", toy_csv, "--classes", "2", "--bias"],
            "checkgrad": ["checkgrad", "--instances", "3"],
        }[command]
        rep = tmp_path / "missing" / "r.json"
        assert main(argv + ["--json", str(rep)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(rep) in captured.err and ".tmp" not in captured.err
        assert [p.name for p in tmp_path.iterdir()] == ["toy.csv"]

    # the second temp file cannot be made, or the second target is a
    # directory; first with no a.bin, then with a.bin holding an earlier file
    @pytest.mark.parametrize("second", ["missing/b.json", "directory"])
    def test_second_file_failing_leaves_neither(self, tmp_path, second):
        (tmp_path / "directory").mkdir()
        first, second = tmp_path / "a.bin", tmp_path / second
        for before in (None, b"earlier"):
            if before is not None:
                first.write_bytes(before)
            with pytest.raises(OSError, match=re.escape(repr(str(second)))):
                cli._write_files({str(first): b"a", str(second): b"b"})
            expected = ["a.bin", "directory"] if before else ["directory"]
            assert sorted(p.name for p in tmp_path.iterdir()) == expected
            assert before is None or first.read_bytes() == before

    # the same file spelled alike, with a leading ./, and through a symlink
    @pytest.mark.parametrize("report", ["w.bin", "./w.bin", "link/w.bin"])
    def test_out_and_json_naming_one_file_exit_2(self, toy_csv, tmp_path, capsys,
                                                  monkeypatch, report):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link").symlink_to(tmp_path)
        called = []
        monkeypatch.setattr(cli, "train", lambda *a, **k: called.append(a))
        argv = ["train", "--csv", toy_csv, "--classes", "2", "--eta", "0.5",
                "--epochs", "3", "--out", "w.bin", "--json", report]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and called == []
        assert captured.err == (f"error: --out 'w.bin' and --json {report!r} "
                                "name the same file\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "toy.csv"]

    # every output option against every input option of its commands
    @pytest.mark.parametrize("command, output, source", [
        ("train", "out", "csv"), ("train", "out", "data"), ("train", "out", "labels"),
        ("certify", "json", "csv"), ("certify", "json", "data"),
        ("certify", "json", "labels"), ("spectrum", "json", "weights"),
    ])
    def test_output_naming_an_input_exits_2(self, tmp_path, capsys, monkeypatch,
                                            command, output, source):
        monkeypatch.chdir(tmp_path)
        files = {"csv": "s.csv", "data": "imgs.idx", "labels": "labs.idx",
                 "weights": "w.bin"}
        for name in files.values():
            (tmp_path / name).write_bytes(b"input")
        monkeypatch.setattr(cli, "load_csv", lambda *a, **k: pytest.fail("loaded"))
        monkeypatch.setattr(cli, "read_weights", lambda *a, **k: pytest.fail("loaded"))
        flags = {"csv": ["--csv", "s.csv"], "weights": ["--weights", "w.bin"]}.get(
            source, ["--data", "imgs.idx", "--labels", "labs.idx"])
        extra = ["--eta", "0.1"] if command == "train" else []
        argv = [command, *flags, "--classes", "2", *extra,
                f"--{output}", f"./{files[source]}"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --{output} './{files[source]}' and --{source} "
                                f"'{files[source]}' name the same file\n")
        assert all((tmp_path / name).read_bytes() == b"input" for name in files.values())

    # an input named like an output's temp file once was (``in.tmp``), an
    # output named so, and an unrelated file named so
    @pytest.mark.parametrize("csv, outputs, other", [
        ("in.tmp", {"out": "in"}, None),
        ("s.csv", {"out": "a.json.tmp", "json": "a.json"}, None),
        ("s.csv", {"json": "pre.json"}, "pre.json.tmp"),
    ], ids=["input", "output", "unrelated"])
    def test_temp_files_touch_no_other_file(self, tmp_path, monkeypatch, csv, outputs,
                                            other):
        monkeypatch.chdir(tmp_path)
        (tmp_path / csv).write_text(TOY_CSV)
        if other:
            (tmp_path / other).write_bytes(b"keep")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        argv = ["train", "--csv", csv, "--classes", "2", "--eta", "0.1", "--epochs", "1"]
        for flag, path in outputs.items():
            argv += [f"--{flag}", path]
        assert main(argv) == 0
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert after.keys() == before.keys() | set(outputs.values())
        assert all(after[name] == blob for name, blob in before.items())
        if "out" in outputs:
            assert read_weights(outputs["out"]).shape == (2, 2)
        if "json" in outputs:
            assert json.loads(after[outputs["json"]])["command"] == "train"

    # the first output's temp name is taken, or the second's, after the
    # first temp file has been made
    @pytest.mark.parametrize("taken", ["w.bin", "r.json"])
    def test_taken_temp_name_exits_2_with_nothing_written(self, toy_csv, tmp_path,
                                                           capsys, taken):
        temp = tmp_path / f"{taken}.{os.getpid()}.tmp"
        temp.write_bytes(b"keep")
        rc = main(["train", "--csv", toy_csv, "--classes", "2", "--eta", "0.1",
                   "--out", str(tmp_path / "w.bin"), "--json", str(tmp_path / "r.json")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 17] File exists: {str(temp)!r}\n"
        assert temp.read_bytes() == b"keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["toy.csv", temp.name])

    def test_write_failing_part_way_leaves_no_temp_file(self, toy_csv, tmp_path):
        # the file size limit stops the report's write after 1 KiB
        resource = pytest.importorskip("resource")

        def limit_file_size():
            resource.setrlimit(resource.RLIMIT_FSIZE, (1024, 1024))

        rep = tmp_path / "r.json"
        proc = _run_module(["train", "--csv", toy_csv, "--classes", "2", "--eta",
                            "0.5", "--epochs", "50", "--json", str(rep)],
                           preexec_fn=limit_file_size)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: [Errno 27] File too large: {str(rep)!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["toy.csv"]


def _run_module(argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "smxreg", *argv],
                          capture_output=True, text=True, env=env, **kwargs)


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, toy_csv):
        proc = _run_module(["spectrum", "--y", "0.25,0.75"])
        assert proc.returncode == 0
        assert "interlaced-root" in proc.stdout

    def test_failed_report_write_prints_nothing(self, toy_csv, tmp_path):
        rep = tmp_path / "missing" / "r.json"
        proc = _run_module(["train", "--csv", toy_csv, "--classes", "2", "--eta",
                            "0.5", "--epochs", "3", "--json", str(rep)])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert str(rep) in proc.stderr


def readme_cli_commands() -> list[list[str]]:
    """The ``smxreg`` commands of the bash block under README's ``## CLI``,
    with ``\\`` continuations joined and comments dropped, each split into
    its words."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if not line.lstrip().startswith("#")]
    return [shlex.split(line) for line in lines if line.startswith("smxreg ")]


README_COMMANDS = readme_cli_commands()


class TestCliSurface:
    """Every option string of every subcommand.  A new flag must be added
    here as well, so each knob is visible in review."""

    DATA = {"--csv", "--label-column", "--header", "--data", "--labels",
            "--classes", "--bias"}
    REPORT = {"--json", "--deterministic"}
    OPTIONS = {
        "train": REPORT | DATA | {"--eta", "--epochs", "--bb", "--seed",
                                  "--tol-grad", "--log-every", "--out"},
        "spectrum": REPORT | DATA | {"--y", "--weights", "--sample"},
        "certify": REPORT | DATA | {"--weights"},
        "checkgrad": REPORT | {"--seed", "--instances"},
    }

    def test_option_strings(self):
        parser = cli._build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        got = {
            name: {opt for a in p._actions if not isinstance(a, argparse._HelpAction)
                   for opt in a.option_strings}
            for name, p in sub.choices.items()
        }
        assert got == self.OPTIONS
        assert sum(map(len, got.values())) == 42
        (bb,) = [a for a in sub.choices["train"]._actions
                 if "--bb" in a.option_strings]
        assert tuple(bb.choices) == ("off", "bb2")

    @pytest.mark.parametrize("command", README_COMMANDS,
                             ids=[f"{i}-{c[1]}" for i, c in enumerate(README_COMMANDS)])
    def test_readme_cli_examples_parse(self, command):
        # a flag removed or renamed in the parser must be removed or renamed
        # in README's examples as well
        try:
            cli._build_parser().parse_args(command[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {' '.join(command)}")

    def test_readme_shows_every_subcommand(self):
        assert {command[1] for command in README_COMMANDS} == set(self.OPTIONS)

    def test_train_defaults_are_the_config_defaults(self):
        # --eta has the CLI's own rule (required under --bb off, BB_ETA0
        # under bb2); every other knob of TrainConfig defaults to its field
        args = cli._build_parser().parse_args(["train"])
        fields = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
        assert {"epochs": args.epochs, "bb_mode": args.bb, "seed": args.seed,
                "tol_grad": args.tol_grad, "log_every": args.log_every,
                "eta": fields["eta"]} == fields
        assert args.eta is None

    def test_bb1_is_not_a_choice(self, toy_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--csv", toy_csv, "--classes", "2", "--bb", "bb1"])
        assert exc.value.code == 2
        assert "invalid choice: 'bb1'" in capsys.readouterr().err
