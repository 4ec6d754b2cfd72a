import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from smxreg.data_io import load_idx_live, write_idx_images, write_idx_labels

ROOT = Path(__file__).resolve().parent.parent


def _idx_pair(tmp_path, name, rng, n, rows=8, cols=8):
    labels = rng.integers(0, 10, n)
    centers = rng.integers(0, 256, (10, rows * cols))
    pixels = np.clip(centers[labels] + rng.integers(-40, 41, (n, rows * cols)), 0, 255)
    images, label_file = tmp_path / f"{name}-images", tmp_path / f"{name}-labels"
    write_idx_images(images, pixels.T / 255.0, rows, cols)
    write_idx_labels(label_file, labels)
    return str(images), str(label_file)


def _run_train_mnist(tmp_path, subset):
    rng = np.random.default_rng(0)
    train_imgs, train_labs = _idx_pair(tmp_path, "train", rng, 300)
    test_imgs, test_labs = _idx_pair(tmp_path, "test", rng, 100)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "train_mnist.py"),
         "--train-images", train_imgs, "--train-labels", train_labs,
         "--test-images", test_imgs, "--test-labels", test_labs,
         "--subset", str(subset), "--epochs", "3"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    assert "test accuracy" in proc.stdout
    return proc.stdout


def test_train_mnist_script_runs(tmp_path):
    assert "train: D=65 N=300   test: N=100" in _run_train_mnist(tmp_path, 0)


def test_train_mnist_script_subset_keeps_bias_row(tmp_path):
    assert "train: D=65 N=200   test: N=100" in _run_train_mnist(tmp_path, 200)


def test_train_mnist_subset_drops_rows_dead_in_it(tmp_path):
    # pixel 5 is zero in the first 40 images only, pixel 9 in all of them
    rng = np.random.default_rng(3)
    pixels = rng.integers(1, 256, (100, 16))
    pixels[:40, 5] = pixels[:, 9] = 0
    labels = rng.integers(0, 10, 100)
    for name, n in (("all", 100), ("first", 40)):
        write_idx_images(tmp_path / f"{name}-images", pixels[:n].T / 255.0, 4, 4)
        write_idx_labels(tmp_path / f"{name}-labels", labels[:n])
    spec = importlib.util.spec_from_file_location(
        "train_mnist", ROOT / "scripts" / "train_mnist.py")
    train_mnist = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(train_mnist)
    full = load_idx_live(tmp_path / "all-images", tmp_path / "all-labels", 10, bias=True)
    subset = train_mnist.first_samples(full, 40)
    alone = load_idx_live(tmp_path / "first-images", tmp_path / "first-labels", 10,
                          bias=True)
    assert 5 in full.rows and 5 not in subset.rows and subset.d == full.d == 17
    assert np.array_equal(subset.rows, alone.rows)
    assert subset.data.x.tobytes() == alone.data.x.tobytes()
    assert subset.data.t.tobytes() == alone.data.t.tobytes()


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(setup_s, cli_s, failed=0, correct=True, attempted=12):
    """A canned last line of ``bench/run.py --trace 0``."""
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "cli_s": {"value": cli_s, "unit": "s"}}})


def test_bench_pairs_summary_of_canned_result_lines():
    bench_pairs = _bench_pairs()
    assert bench_pairs.parse_seeds("9301-9305") == [9301, 9302, 9303, 9304, 9305]
    assert bench_pairs.parse_seeds("7,3") == [7, 3]
    parent = [0.35, 0.36, 0.34, 0.37, 0.0017963]
    change = [0.28, 0.29, 0.35, 0.27, 0.30]
    pairs = [(seed,
              bench_pairs.result_line(f"{{\"machine\": 1}}\n{_result(p, 1.5)}\n"),
              bench_pairs.result_line(_result(c, 1.5, failed=seed % 2)))
             for seed, p, c in zip(range(1, 6), parent, change)]
    summary = bench_pairs.summarize(pairs)
    assert summary["seeds"] == [1, 2, 3, 4, 5] and summary["pairs"] == 5
    assert summary["runs"]["change"][0] == {
        "seed": 1, "correct": True, "attempted": 12, "failed": 1}
    setup = summary["metrics"]["setup_s"]
    # statistics.quantiles (exclusive) of 0.0017963, 0.34, 0.35, 0.36, 0.37,
    # to 5 significant digits
    assert setup["parent"] == {"median": 0.35, "q1": 0.17090, "q3": 0.365,
                               "values": parent}
    assert setup["change"]["median"] == 0.29
    # the third pair reads 0.34 -> 0.35, the fifth 0.0017963 -> 0.30
    assert setup["change_lower_in_pairs"] == 3
    # equal values are ties, which count for neither side
    assert summary["metrics"]["cli_s"]["change_lower_in_pairs"] == 0


def test_bench_pairs_bound_lines_of_canned_medians():
    bench_pairs = _bench_pairs()
    pairs = [(seed, json.loads(_result(0.35, 1.5)), json.loads(_result(0.30, c)))
             for seed, c in zip(range(1, 4), [1.8, 1.9, 2.0])]
    benchmark = {"end_to_end": [
        {"name": "setup_s", "better": "lower", "bound": 0.25},
        {"name": "cli_s", "better": "lower", "bound": 0.25},
        {"name": "cli_peak_rss_mb", "better": "lower", "bound": 0.05}]}
    # 1.9 is 26.7 % above 1.5; no run reports a peak
    assert bench_pairs.bound_lines(bench_pairs.summarize(pairs), benchmark) == [
        "setup_s: median 0.35 -> 0.3; worse by more than its bound 0.25: no",
        "cli_s: median 1.5 -> 1.9; worse by more than its bound 0.25: YES"]
    benchmark["end_to_end"][1]["better"] = "higher"
    assert bench_pairs.bound_lines(bench_pairs.summarize(pairs), benchmark)[1] == (
        "cli_s: median 1.5 -> 1.9; worse by more than its bound 0.25: no")


def test_bench_pairs_bound_lines_unresolved_when_the_parent_spreads_wider():
    bench_pairs = _bench_pairs()
    benchmark = {"end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.25}]}
    # the parent's q1 0.11 and q3 0.155 are 35 % of its 0.13 median, over the bound
    parent = [0.10, 0.12, 0.13, 0.15, 0.16]

    def line(change, better="lower"):
        benchmark["end_to_end"][0]["better"] = better
        pairs = [(seed, json.loads(_result(p, 1.5)), json.loads(_result(c, 1.5)))
                 for seed, p, c in zip(range(1, 6), parent, change)]
        return bench_pairs.bound_lines(bench_pairs.summarize(pairs), benchmark)[0]

    unresolved = "unresolved (parent q3 - q1 is 35% of its median)"
    assert line([0.12, 0.13, 0.14, 0.15, 0.11]) == (
        f"setup_s: median 0.13 -> 0.13; worse by more than its bound 0.25: {unresolved}")
    # every change run better than every parent run settles it
    assert line([0.05, 0.06, 0.07, 0.08, 0.09]) == (
        "setup_s: median 0.13 -> 0.07; worse by more than its bound 0.25: no")
    higher = [0.17, 0.18, 0.19, 0.20, 0.21]
    assert line(higher).endswith(unresolved)
    assert line(higher, better="higher").endswith("its bound 0.25: no")


def test_bench_pairs_claim_line_of_canned_pairs():
    bench_pairs = _bench_pairs()
    parent = [1.50, 1.52, 1.48, 1.55, 1.45, 1.51, 1.49, 1.53, 1.47, 1.50]
    claim = {"workload": "w", "metric": "cli_s", "better": "lower"}

    def line(change):
        pairs = [(seed, json.loads(_result(0.3, p)), json.loads(_result(0.3, c)))
                 for seed, (p, c) in enumerate(zip(parent, change))]
        return bench_pairs.claim_line(bench_pairs.summarize(pairs), claim)

    # nine wins and a tie; the parent's q1 1.4775 and q3 1.5225
    nine = [p - 0.2 for p in parent[:9]] + [1.50]
    assert line(nine) == (
        "claim w:cli_s: change better in 9 of 10 pairs (needs 9 in 10); median 1.5 -> "
        "1.305, better by 0.195 against parent q3 - q1 0.045: met")
    # a tie counts for neither side: eight wins fall short
    assert line(nine[:8] + [1.49, 1.50]).startswith(
        "claim w:cli_s: change better in 8 of 10 pairs")
    assert line(nine[:8] + [1.49, 1.50]).endswith(": not met")
    # winning every pair by less than the parent's spread is not met either
    assert line([p - 0.01 for p in parent]).endswith(
        "10 of 10 pairs (needs 9 in 10); median 1.5 -> 1.49, better by 0.01 against "
        "parent q3 - q1 0.045: not met")
    claim["better"] = "higher"
    assert line(nine).endswith("0 of 10 pairs (needs 9 in 10); median 1.5 -> 1.305, "
                               "better by -0.195 against parent q3 - q1 0.045: not met")


def test_bench_pairs_keeps_the_scalar_notes_of_each_run():
    bench_pairs = _bench_pairs()
    detail = json.dumps({"workload": "teacher-to-tol", "machine": {"cpus": 2}, "notes": {
        "rounds": 3, "problems": 15, "epochs_to_tol": 64.2, "in_process_certify": "ok",
        "samples": {"solve_s": [0.1, 0.2]}, "plan_k": [1, 2]}})
    with_notes = bench_pairs.result_line(f"{detail}\n{_result(0.3, 1.5)}\n")
    assert with_notes["notes"] == {"rounds": 3, "problems": 15, "epochs_to_tol": 64.2,
                                   "in_process_certify": "ok"}
    bare = bench_pairs.result_line(_result(0.3, 1.5))
    assert "notes" not in bare
    summary = bench_pairs.summarize([(7, bare, with_notes), (8, bare, with_notes)])
    assert summary["runs"]["change"][1] == {
        "seed": 8, "correct": True, "attempted": 12, "failed": 0,
        "notes": {"rounds": 3, "problems": 15, "epochs_to_tol": 64.2,
                  "in_process_certify": "ok"}}
    assert summary["runs"]["parent"][0] == {
        "seed": 7, "correct": True, "attempted": 12, "failed": 0}


def test_bench_pairs_run_lines_of_canned_result_lines():
    bench_pairs = _bench_pairs()

    def lines(parent, change):
        pairs = [(seed, bench_pairs.result_line(p), bench_pairs.result_line(c))
                 for seed, p, c in zip(range(1, 4), parent, change)]
        return bench_pairs.run_lines(bench_pairs.summarize(pairs))

    clean = [_result(0.3, 1.5)] * 3
    assert lines(clean, clean) == [
        "correct: false in parent 0 and change 0 of 3 runs each; any: no",
        "failed operations: parent 0/36 (0.000%) -> change 0/36 (0.000%); "
        "change share larger: no"]
    # one wrong run on either side is enough
    assert lines(clean, clean[:2] + [_result(0.3, 1.5, correct=False)])[0] == (
        "correct: false in parent 0 and change 1 of 3 runs each; any: YES")
    assert lines([_result(0.3, 1.5, correct=False)] * 3, clean)[0] == (
        "correct: false in parent 3 and change 0 of 3 runs each; any: YES")
    # shares, not counts: 2/36 against 3/60 is a smaller share
    parent = [_result(0.3, 1.5, failed=1)] * 2 + [_result(0.3, 1.5)]
    change = [_result(0.3, 1.5, failed=1, attempted=20)] * 3
    assert lines(parent, change)[1] == (
        "failed operations: parent 2/36 (5.556%) -> change 3/60 (5.000%); "
        "change share larger: no")
    assert lines(change, parent)[1] == (
        "failed operations: parent 3/60 (5.000%) -> change 2/36 (5.556%); "
        "change share larger: YES")
    # no operation attempted is a share of 0
    assert lines([_result(0.3, 1.5, attempted=0)] * 3, clean)[1] == (
        "failed operations: parent 0/0 (0.000%) -> change 0/36 (0.000%); "
        "change share larger: no")


def test_bench_pairs_runs_pairs_then_prints_the_bounds(tmp_path, monkeypatch, capsys):
    bench_pairs = _bench_pairs()
    runs = []

    def run(tree, workload, seed, seconds):
        runs.append((tree, seed))
        return json.loads(_result(0.35, 1.5) if tree == tmp_path else _result(0.5, 1.5))

    monkeypatch.setattr(bench_pairs, "_run", run)
    out = tmp_path / "b.json"
    argv = ["--parent", str(tmp_path), "--change", str(ROOT), "--workload", "w",
            "--out", str(out), "--seeds"]
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(argv + ["9301"])
    assert info.value.code == 2 and runs == [] and not out.exists()
    assert "--seeds needs at least 2 seeds for quartiles, got [9301]" in (
        capsys.readouterr().err)

    assert bench_pairs.main(argv + ["1,2"]) == 0
    # the side that runs first alternates, parent first
    assert runs == [(tmp_path, 1), (ROOT, 1), (ROOT, 2), (tmp_path, 2)]
    assert json.loads(out.read_text())["workloads"]["w"]["pairs"] == 2
    assert capsys.readouterr().out.splitlines()[-4:] == [
        "setup_s: median 0.35 -> 0.5; worse by more than its bound 0.25: YES",
        "cli_s: median 1.5 -> 1.5; worse by more than its bound 0.25: no",
        "correct: false in parent 0 and change 0 of 2 runs each; any: no",
        "failed operations: parent 0/24 (0.000%) -> change 0/24 (0.000%); "
        "change share larger: no"]


def test_bench_pairs_prints_the_claim_verdict_last(tmp_path, monkeypatch, capsys):
    bench_pairs = _bench_pairs()
    monkeypatch.setattr(bench_pairs, "_run", lambda tree, workload, seed, seconds: json.loads(
        _result(0.35, 1.5) if tree == tmp_path else _result(0.5, 1.5)))
    argv = ["--parent", str(tmp_path), "--change", str(ROOT), "--workload", "w",
            "--out", str(tmp_path / "b.json"), "--seeds", "1,2"]
    assert bench_pairs.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("failed operations:")
    # the claim's verdict is read from the file's entry for its workload
    assert bench_pairs.main(argv + ["--claim", "w:setup_s"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "claim w:setup_s: change better in 0 of 2 pairs (needs 9 in 10); median 0.35 "
        "-> 0.5, better by -0.15 against parent q3 - q1 0: not met")


def test_loc_counts_code_lines_without_docstrings(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text(
        '"""Module docstring,\n'
        'two lines."""\n'
        "import os  # a trailing comment keeps the line\n"
        "\n"
        "# a comment alone\n"
        "class K:\n"
        '    """Class docstring."""\n'
        "    x = 1\n"
        "\n"
        "    def f(self):\n"
        '        """Method\n'
        '        docstring."""\n'
        '        s = """not a\n'
        'docstring"""\n'
        "        return s\n")
    (pkg / "sub" / "b.py").write_text('def g():\n    "one line"\n    return 2\n')
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "loc.py"), str(pkg)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert [line.split() for line in proc.stdout.splitlines()] == [
        ["module", "lines", "code"],
        ["a.py", "15", "7"],
        ["sub/b.py", "3", "2"],
        ["total", "18", "9"]]
