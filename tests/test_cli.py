import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from smxreg import cli
from smxreg.cli import main, read_weights, write_weights

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
        write_weights(path, w)
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
        assert "stop: epochs_exhausted" in captured.out
        assert captured.err == "error: activations contain non-finite entries\n"
        assert not out.exists() and not rep.exists()

    def test_missing_file_is_format_error(self, tmp_path):
        rc = main(["train", "--csv", str(tmp_path / "nope.csv"),
                   "--classes", "2", "--eta", "0.1"])
        assert rc == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_stop_exit_code(self, tmp_path):
        # zero init gives uniform outputs, so the first gradient's norm
        # overflows against 1e160-scale features
        f = tmp_path / "huge.csv"
        f.write_text("1e160,0\n-1e160,1\n")
        rc = main(["train", "--csv", f.as_posix(), "--classes", "2",
                   "--eta", "1.0", "--epochs", "10", "--center-every", "0",
                   "--init-scale", "0.0", "--tol-grad", "1e-300"])
        assert rc == 1

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
        write_weights(wfile, np.zeros((2, 3)))
        rc = main(["spectrum", "--weights", str(wfile), "--csv", toy_csv,
                   "--classes", "2", "--bias", "--sample", "1"])
        assert rc == 0

    def test_wrong_shape_weights_name_both_shapes(self, toy_csv, tmp_path, capsys):
        wfile = tmp_path / "w.bin"
        write_weights(wfile, np.zeros((2, 4)))
        rc = main(["spectrum", "--weights", str(wfile), "--csv", toy_csv,
                   "--classes", "2", "--bias", "--sample", "1"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: weights have shape (2, 4), expected (2, 3)\n")


    def test_overflowing_weights_column_is_usage_error(self, tmp_path, capsys):
        f = tmp_path / "huge.csv"
        f.write_text(HUGE_CSV)
        wfile = tmp_path / "w.bin"
        write_weights(wfile, np.array([[1e300, 0.0, 0.0], [0.0, 0.0, 0.0]]))
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

    def test_zero_eta_for_trained_anchor_is_usage_error(self, toy_csv, capsys):
        rc = main(["certify", "--csv", toy_csv, "--classes", "2", "--bias",
                   "--train-epochs", "3", "--eta", "0"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "eta must be positive" in captured.err
        assert captured.out == ""

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

    def test_memory_error_exits_2(self, toy_csv, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 26.8 GiB")

        monkeypatch.setattr(cli, "load_csv", exhausted)
        assert main(["certify", "--csv", toy_csv, "--classes", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: Unable to allocate")


class TestCheckgrad:
    def test_default_passes(self, capsys):
        assert main(["checkgrad", "--seed", "0", "--instances", "10"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_custom_sizes(self):
        assert main(["checkgrad", "--seed", "1", "--instances", "5",
                     "--sizes", "C=5,D=7,N=10"]) == 0

    def test_corrupted_gradient_fails(self):
        assert main(["checkgrad", "--seed", "0", "--instances", "5",
                     "--corrupt"]) == 1

    def test_bad_sizes_is_usage_error(self):
        assert main(["checkgrad", "--sizes", "Q=3"]) == 2


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, toy_csv):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "smxreg", "spectrum", "--y", "0.25,0.75"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "interlaced-root" in proc.stdout
