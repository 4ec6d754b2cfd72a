import argparse
import dataclasses
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from smxreg import TrainConfig, cli, core, evaluate, fdcheck, reduce_two_class, train
from smxreg.cli import main
from smxreg.data_io import encode_weights, load_csv, load_idx_dataset, read_weights
from smxreg.loss_grad import gradient

SRC = str(Path(__file__).resolve().parent.parent / "src")

TOY_CSV = "0.0,0.0,0\n1.0,0.0,0\n0.0,1.0,1\n1.0,1.0,1\n"
# Features near 1e100: one huge step leaves weights whose W X overflows.
HUGE_CSV = "1e100,1,0\n-1e100,2,1\n3e99,-1,0\n"


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

    def test_overflowing_final_evaluation_is_usage_error(self, tmp_path, capsys):
        f = tmp_path / "huge.csv"
        f.write_text(HUGE_CSV)
        out, rep = tmp_path / "w.bin", tmp_path / "rep.json"
        rc = main(["train", "--csv", str(f), "--classes", "2", "--eta", "1e120",
                   "--epochs", "1", "--out", str(out), "--json", str(rep)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: activations contain non-finite entries\n"
        assert not out.exists() and not rep.exists()

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
        evals = np.linalg.eigvalsh(reduce_two_class(w, data).m)
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

    def test_weights_with_three_classes_is_usage_error(self, tmp_path, capsys):
        f = tmp_path / "three.csv"
        f.write_text("0,1,0\n1,0,1\n1,1,2\n2,1,0\n")
        wfile = tmp_path / "w.bin"
        wfile.write_bytes(encode_weights(np.zeros((3, 2))))
        rc = main(["certify", "--csv", str(f), "--classes", "3",
                   "--weights", str(wfile)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == (
            "error: --weights applies to C = 2 only; this dataset has C = 3\n")

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

    def test_custom_sizes(self):
        assert main(["checkgrad", "--seed", "1", "--instances", "5",
                     "--sizes", "C=5,D=7,N=10"]) == 0

    def test_corrupted_gradient_fails(self, monkeypatch, capsys):
        # a constant added to every gradient cancels in the Hessian check's
        # central difference of gradients, so only the gradient check fails
        monkeypatch.setattr(fdcheck, "gradient",
                            lambda w, data: gradient(w, data) + 1e-3)
        assert main(["checkgrad", "--seed", "0", "--instances", "5"]) == 1
        assert "checkgrad: FAILED" in capsys.readouterr().out

    def test_bad_sizes_is_usage_error(self):
        assert main(["checkgrad", "--sizes", "Q=3"]) == 2

    @pytest.mark.parametrize("sizes,message", [
        ("C=1", "sizes C must be >= 2"),
        ("D=1", "sizes D must be >= 2"),
        ("N=0", "sizes N must be >= 1"),
    ])
    def test_sizes_below_the_draws_are_usage_errors(self, sizes, message, capsys):
        assert main(["checkgrad", "--sizes", sizes]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}, got")

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

    # the second temp file cannot be made, or the second rename fails after
    # the first one has put its file in place
    @pytest.mark.parametrize("second", ["missing/b.json", "directory"])
    def test_second_file_failing_leaves_neither(self, tmp_path, second):
        (tmp_path / "directory").mkdir()
        first, second = tmp_path / "a.bin", tmp_path / second
        with pytest.raises(OSError, match=re.escape(repr(str(second)))):
            cli._write_files({str(first): b"a", str(second): b"b"})
        assert [p.name for p in tmp_path.iterdir()] == ["directory"]

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
        "checkgrad": REPORT | {"--seed", "--sizes", "--instances"},
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
        assert sum(map(len, got.values())) == 43
        (bb,) = [a for a in sub.choices["train"]._actions
                 if "--bb" in a.option_strings]
        assert tuple(bb.choices) == ("off", "bb2")

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
