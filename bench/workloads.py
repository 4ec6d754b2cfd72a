"""The three workloads.  Each is one closed loop in one process: the next
operation starts when the previous one has ended.

Every workload reports the same four end-to-end metrics, each measured on
its own operations (bench/README.md says which):

    setup_s          input -> validated Dataset
    solve_s          the workload's in-process library solve, per problem
    cli_s            wall time of the workload's smxreg process
    cli_peak_rss_mb  peak resident set of that process

Every workload repeats whole rounds of the same operations until
``--seconds`` have passed (at least one round), so the share of failed
operations is the same in every run.

Each figure is the median of its samples, which are spread over the run.
On a shared host one sample now and then takes half as long again or more
(a child that lands in a slow phase of the host, an ARPACK run that needs
twice the usual products), and the median keeps such a sample from moving
the figure.

With tracing on, round 0 runs with the timing wrappers off and later rounds
with them on; the difference is ``trace.overhead_pct``.  After the rounds,
``_layer_pass`` reports every per-layer metric: from the spans the rounds
recorded where the workload calls that layer, and otherwise from direct
calls at the workload's own shapes.
"""
from __future__ import annotations

import json
import math
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs
from checks import CheckError
from procs import ChildResult, llc_bytes, median, run_child
from spans import Tracer

from smxreg import (Dataset, HessianOperator, TrainConfig, analyze_q, certify,
                    extreme_eigenvalues_on_z, gradient, plan, train)
from smxreg import data_io, hessian, trainer
from smxreg.core import one_hot
from smxreg.data_io import add_bias_row, load_csv, load_idx_dataset
from smxreg.loss_grad import loss_from_activations
from smxreg.softmax import softmax

MNIST_EPOCHS = 20
MNIST_ETA = 1e-7          # initial rate; bb2 adapts it from epoch 2
TEACHER_ETA = 1e-3
TEACHER_MAX_EPOCHS = 20000
TEACHER_CLI_EPOCHS = 300  # fixed, so the CLI's work does not vary by seed
UNREACHED_TOL = 1e-14     # a gradient tolerance below rounding level
CLI_REPEATS = 2           # smxreg processes per round on teacher-to-tol and curvature
CSV_SETUPS = 3            # CSV set-ups per curvature round
ANCHORS_PER_ROUND = 3     # curvature solves per round
LAYER_REPEATS = 3         # direct calls per layer function in a traced run
Q_PROBES = 30             # analyze_q columns probed where the rounds make none
TRAIN_PROBE_EPOCHS = 20   # epochs of the trainer probe where the rounds train none
GEMM_REPEATS = 5


@dataclass
class Run:
    seed: int
    seconds: float
    trace: bool
    work: Path
    tracer: Tracer | None = None   # set for a traced run
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)
    check_errors: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    traced_epochs: list = field(default_factory=list)  # per traced train call

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def median_metric(self, name: str, samples: list[float], unit: str) -> None:
        """The median of ``samples``; the samples go to the notes."""
        self.metric(name, median(samples), unit)
        self.notes.setdefault("samples", {})[name] = [round(v, 6) for v in samples]

    def fail(self, op: str, detail: dict) -> None:
        self.failed += 1
        entry = self.failures.setdefault(op, {"count": 0, **detail})
        entry["count"] += 1

    def check(self, op: str, fn, *args, **kwargs) -> None:
        """Run one correctness check; a failure marks the run incorrect."""
        try:
            fn(*args, **kwargs)
        except CheckError as exc:
            self.correct = False
            if len(self.check_errors) < 20:
                self.check_errors.append(f"{op}: {exc}")

    def rounds(self, body) -> int:
        """Run whole rounds until the time is up; a traced run needs one
        untraced and at least one traced round."""
        t0 = time.perf_counter()
        i = 0
        while True:
            if i == 1 and self.trace:
                _wrap_layers(self.tracer)
            body(i)
            i += 1
            if time.perf_counter() - t0 >= self.seconds and i >= 1 + self.trace:
                return i

    def tracing(self, i: int) -> bool:
        return self.trace and i > 0

    def span(self, i: int, name: str):
        """A span in traced rounds (round 0 of a traced run is untraced)."""
        return self.tracer.span(name) if self.tracing(i) else nullcontext()

    def child(self, op: str, args: list[str]) -> ChildResult | None:
        """One smxreg child process as one operation; None if it failed."""
        self.attempted += 1
        res = run_child(args, self.work)
        if res.status != 0:
            self.fail(op, {"status": res.status, "first_error_line": res.first_error_line,
                           "last_error_line": res.last_error_line,
                           "wall_s": round(res.wall_s, 3)})
            return None
        return res

    def end_to_end(self, setups, solves, cli: list[ChildResult]) -> None:
        self.median_metric("setup_s", setups, "s")
        self.median_metric("solve_s", solves, "s")
        self.median_metric("cli_s", [c.wall_s for c in cli], "s")
        self.median_metric("cli_peak_rss_mb", [c.peak_rss_mb for c in cli], "MB")


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def _wrap_layers(tr: Tracer) -> None:
    """Time the layer functions under the names their callers see."""
    tr.wrap(data_io, "one_hot", "core.one_hot")
    tr.wrap(trainer, "softmax", "softmax.softmax")
    tr.wrap(trainer, "loss_from_activations", "loss_grad.loss_from_activations")
    tr.wrap(hessian, "softmax", "softmax.softmax")
    tr.wrap(HessianOperator, "apply", "hessian.apply")


def _vm_bytes() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmSize:"):
            return int(line.split()[1]) * 1024
    raise RuntimeError("VmSize not found in /proc/self/status")


# --- per-layer metrics ------------------------------------------------------
@dataclass
class Layers:
    """What the layer pass of a traced run works on, from one workload."""

    data: Dataset            # the workload's main dataset
    w: np.ndarray            # weights at which curvature layers are probed
    load: Callable[[], Dataset]   # the workload's loader on its input file
    load_bytes: int          # bytes that loader reads
    load_code: str           # the same load, as code for a load-only child
    labels: np.ndarray       # 0-based labels for one_hot
    certify_data: Dataset    # what certify runs on
    inproc: list[float]      # in-process time per unit of work, per round


def _layer(run: Run, name: str, probe: Callable[[int], object],
           reps: int = LAYER_REPEATS) -> float:
    """Median span time of ``name``: from the rounds if they recorded it,
    else from ``reps`` direct calls of ``probe``."""
    tr = run.tracer
    if not tr.durations(name):
        for j in range(reps):
            with tr.span(name):
                probe(j)
    value = median(tr.durations(name))
    run.metric(f"{name}_s", value, "s")
    return value


def _layer_pass(run: Run, lay: Layers) -> None:
    tr = run.tracer
    data, w = lay.data, lay.w
    rng = np.random.default_rng([run.seed, 9])
    run.metric("trace.overhead_pct", 100.0 * (median(lay.inproc[1:]) / lay.inproc[0] - 1.0), "%")

    # Trainer first: where the rounds train nothing, a short probe under the
    # same wrappers gives the epoch figures and softmax/loss spans.
    if not tr.durations("trainer.train"):
        cfg = TrainConfig(eta=TEACHER_ETA, epochs=TRAIN_PROBE_EPOCHS, bb_mode="bb2",
                          tol_grad=UNREACHED_TOL, seed=run.seed)
        for _ in range(LAYER_REPEATS):
            with tr.span("trainer.train"):
                _, trace = train(data, cfg)
            run.traced_epochs.append(trace.records[-1].epoch)
    tr.restore()
    per_epoch, self_per_epoch = [], []
    calls = [s for s in tr.spans if s.name == "trainer.train"]
    for span, epochs in zip(calls, run.traced_epochs):
        dur = span.end - span.start
        inner = (tr.child_time(span, "softmax.softmax")
                 + tr.child_time(span, "loss_grad.loss_from_activations"))
        per_epoch.append(dur / epochs)
        self_per_epoch.append((dur - inner) / epochs)
    epoch_s = median(per_epoch)
    run.metric("trainer.epoch_s", epoch_s, "s")
    run.metric("trainer.self_s", median(self_per_epoch), "s")
    run.metric("trainer.computed_gb_per_s", 2 * data.x.nbytes / epoch_s / 1e9, "GB/s")

    a = w @ data.x
    _layer(run, "softmax.softmax", lambda j: softmax(a))
    _layer(run, "loss_grad.loss_from_activations", lambda j: loss_from_activations(a, data.t))
    _layer(run, "loss_grad.gradient", lambda j: gradient(w, data))
    del a

    load_s = _layer(run, "data_io.load", lambda j: lay.load())
    run.metric("data_io.load_mb_per_s", lay.load_bytes / 1e6 / load_s, "MB/s")
    raw = data.x[:-1]
    _layer(run, "data_io.add_bias_row", lambda j: add_bias_row(raw))
    _layer(run, "core.dataset", lambda j: Dataset(data.x, data.t))
    _layer(run, "core.one_hot", lambda j: one_hot(lay.labels.astype(int) + 1, data.c))
    res = run_child(["-c", lay.load_code], run.work)
    run.metric("data_io.load_peak_rss_ratio", res.peak_rss_mb * 2**20 / data.x.nbytes, "ratio")

    h = HessianOperator(data, w)
    u = rng.standard_normal((data.c, data.d))
    u -= u.mean(axis=0, keepdims=True)
    _layer(run, "hessian.init", lambda j: HessianOperator(data, w))
    _layer(run, "hessian.apply", lambda j: h.apply(u))
    u_kernel = np.ones((data.c, 1)) * rng.standard_normal((1, data.d))
    _layer(run, "hessian.kernel_test", lambda j: h.kernel_test(u_kernel))
    run.check("kernel_test", checks.require, h.kernel_test(u_kernel).in_kernel,
              "1 c^T not in the kernel")

    ycols = h.y[:, :Q_PROBES]
    _layer(run, "spectrum.analyze_q", lambda j: analyze_q(ycols[:, j]), reps=Q_PROBES)
    big = inputs.big_y()
    rep = analyze_q(big)
    run.check("analyze_q C=1000", checks.check_multisets, [rep.multiset()], big[:, None], 1e-9)
    _layer(run, "spectrum.analyze_q_c1000", lambda j: analyze_q(big))
    del h

    # The program's certify on the workload's data, under a cap of 2 GiB
    # above the current address space; at N = 60000 it fails (N x N SVD),
    # and the time until it is refused is what is reported there.
    cap = _vm_bytes() + (2 << 30)
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        with tr.span("certify.certify"):
            certify(lay.certify_data)
        run.notes["in_process_certify"] = "ok"
    except MemoryError as exc:
        run.notes["in_process_certify"] = f"{type(exc).__name__}: {str(exc)[:200]}"
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    run.metric("certify.certify_s", median(tr.durations("certify.certify")), "s")

    walls = [run_child(["-m", "smxreg", "--help"], run.work).wall_s
             for _ in range(LAYER_REPEATS)]
    run.metric("cli.startup_s", median(walls), "s")
    _ref_gemms(run, data.x, data.c)
    _ref_stream(run)


def _ref_gemms(run: Run, x: np.ndarray, c: int) -> None:
    rng = np.random.default_rng([run.seed, 10])
    w = rng.standard_normal((c, x.shape[0]))
    e = rng.standard_normal((c, x.shape[1]))
    wx, ext = [], []
    for _ in range(GEMM_REPEATS):
        t0 = time.perf_counter()
        w @ x
        wx.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        e @ x.T
        ext.append(time.perf_counter() - t0)
    run.metric("ref.gemm_wx_s", median(wx), "s")
    run.metric("ref.gemm_ext_s", median(ext), "s")


def _ref_stream(run: Run) -> None:
    """In-place scale of one array at least 4x the last-level cache: each
    pass reads and writes every byte once."""
    llc = llc_bytes()
    size = max(4 * llc, 256 << 20)
    a = np.ones(size // 8)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        np.multiply(a, 1.0, out=a)
        best = min(best, time.perf_counter() - t0)
    del a
    run.metric("ref.stream_gb_per_s", 2 * size / best / 1e9, "GB/s")
    run.notes["ref_stream"] = {"array_bytes": size, "llc_bytes": llc, "passes": 3,
                               "reported": "best pass, read+write bytes"}


def _load_code(call: str) -> str:
    return ("from smxreg import Dataset\n"
            "from smxreg.data_io import add_bias_row, load_csv, load_idx_dataset\n"
            f"d = {call}\n"
            "data = Dataset(add_bias_row(d.x), d.t)\n")


# --- mnist-epochs -----------------------------------------------------------
def mnist_epochs(run: Run) -> None:
    img, lab = run.work / "train-images-idx3-ubyte", run.work / "train-labels-idx1-ubyte"
    pixels, labels = inputs.mnist_pixels(run.seed)
    img_bytes = inputs.write_idx_pair(img, lab, pixels, labels)
    cimg, clab = run.work / "certify-images-idx3-ubyte", run.work / "certify-labels-idx1-ubyte"
    inputs.write_idx_pair(cimg, clab, *inputs.mnist_pixels(inputs.CERTIFY_IDX_SEED))

    cfg = TrainConfig(eta=MNIST_ETA, epochs=MNIST_EPOCHS, bb_mode="bb2", seed=run.seed)
    train_cli = ["-m", "smxreg", "train", "--data", str(img), "--labels", str(lab),
                 "--classes", str(inputs.MNIST_C), "--bias", "--bb", "bb2",
                 "--eta", repr(MNIST_ETA), "--epochs", str(MNIST_EPOCHS),
                 "--seed", str(run.seed), "--log-every", str(MNIST_EPOCHS),
                 "--out", "w.bin", "--json", "train.json"]
    certify_cli = ["-m", "smxreg", "certify", "--data", str(cimg), "--labels", str(clab),
                   "--classes", str(inputs.MNIST_C), "--bias", "--json", "certify.json"]
    setups, samples, lib_walls, inproc, cli = [], [], [], [], []
    held: dict = {}

    # Warm-up: the first load and epochs of a process pay one-off costs
    # (first-touch page faults, BLAS thread start) that stay out of round 0.
    raw = load_idx_dataset(img, lab, inputs.MNIST_C)
    train(Dataset(add_bias_row(raw.x), raw.t), TrainConfig(
        eta=MNIST_ETA, epochs=2, bb_mode="bb2", seed=run.seed))
    del raw

    def body(i: int) -> None:
        held.clear()  # release the previous round's dataset before loading
        t0 = time.perf_counter()
        with run.span(i, "setup"):
            with run.span(i, "data_io.load"):
                raw = load_idx_dataset(img, lab, inputs.MNIST_C)
            with run.span(i, "data_io.add_bias_row"):
                xb = add_bias_row(raw.x)
            with run.span(i, "core.dataset"):
                data = Dataset(xb, raw.t)
        setups.append(time.perf_counter() - t0)
        del raw, xb
        if i == 0:
            run.check("load", checks.check_loaded_x, data.x, pixels)
            run.check("load", checks.check_targets, data.t, labels)

        run.attempted += 1
        t1 = time.perf_counter()
        with run.span(i, "trainer.train"):
            w, trace = train(data, cfg)
        lib_walls.append(time.perf_counter() - t1)
        inproc.append(time.perf_counter() - t0)
        samples.append(data.n * trace.records[-1].epoch)
        if run.tracing(i):
            run.traced_epochs.append(trace.records[-1].epoch)
        held.update(data=data, w=w)
        run.check("library train", checks.check_trained, w, data.x, labels, inputs.MNIST_C)

        res = run.child("cli train", train_cli)
        if res is not None:
            cli.append(res)
            rep = _json(run.work / "train.json")["result"]
            w_file = checks.read_smxw((run.work / "w.bin").read_bytes())
            run.check("cli train", checks.check_trained, w_file, data.x, labels,
                      inputs.MNIST_C, rep.get("final_loss"), rep.get("accuracy"))

        res = run.child("cli certify (N=60000)", certify_cli)
        if res is not None:
            run.check("cli certify", checks.check_degenerate_certificate,
                      _json(run.work / "certify.json")["result"],
                      checks.idx_x(cimg.read_bytes()))

    n_rounds = run.rounds(body)
    run.end_to_end(setups, lib_walls, cli)
    run.notes.update(rounds=n_rounds, idx_image_bytes=img_bytes,
                     train_samples_per_s=sum(samples) / sum(lib_walls))
    if run.trace:
        _layer_pass(run, Layers(
            data=held["data"], w=held["w"],
            load=lambda: load_idx_dataset(img, lab, inputs.MNIST_C),
            load_bytes=img.stat().st_size + lab.stat().st_size,
            load_code=_load_code(f"load_idx_dataset({str(img)!r}, {str(lab)!r}, "
                                 f"{inputs.MNIST_C})"),
            labels=labels, certify_data=held["data"], inproc=inproc))


# --- teacher-to-tol ---------------------------------------------------------
def teacher_to_tol(run: Run) -> None:
    csv_path = run.work / "teacher.csv"
    text, x_csv, labels_csv = inputs.teacher_csv(run.seed)
    csv_path.write_text(text)
    train_cli = ["-m", "smxreg", "train", "--csv", str(csv_path),
                 "--classes", str(inputs.TEACHER_C), "--bias", "--bb", "bb2",
                 "--eta", repr(TEACHER_ETA), "--epochs", str(TEACHER_CLI_EPOCHS),
                 "--tol-grad", repr(UNREACHED_TOL), "--seed", str(run.seed),
                 "--log-every", str(TEACHER_CLI_EPOCHS), "--out", "w.bin",
                 "--json", "train.json"]
    cfg = TrainConfig(eta=TEACHER_ETA, epochs=TEACHER_MAX_EPOCHS, bb_mode="bb2",
                      seed=run.seed, tol_grad=inputs.TEACHER_TOL,
                      log_every=TEACHER_MAX_EPOCHS)
    setups, walls, epochs, per_epoch, cli = [], [], [], [], []
    held: dict = {}

    def body(i: int) -> None:
        # Each round solves new problems, so a run covers as many as it has
        # time for; they are drawn before the round's timings start.
        first = i * inputs.TEACHER_PROBLEMS
        problems = [inputs.teacher_problem(run.seed, k)
                    for k in range(first, first + inputs.TEACHER_PROBLEMS)]
        for p in problems:
            t0 = time.perf_counter()
            data = Dataset(p.x, p.t)
            setups.append(time.perf_counter() - t0)
            run.attempted += 1
            t0 = time.perf_counter()
            with run.span(i, "trainer.train"):
                w, trace = train(data, cfg)
            walls.append(time.perf_counter() - t0)
            last = trace.records[-1]
            epochs.append(last.epoch)
            if run.tracing(i):
                run.traced_epochs.append(last.epoch)
            held.update(data=data, w=w)
            if trace.stop_reason != "grad_tol":
                run.fail("train to tol", {"stop_reason": trace.stop_reason})
                continue
            run.check("train to tol", checks.check_teacher, w, p.x, p.t,
                      inputs.TEACHER_TOL)
            run.check("train to tol", checks.close, last.loss, checks.loss_soft(w, p.x, p.t),
                      checks.REL_TOL, "reported loss")
        per_epoch.append(sum(walls[-len(problems):]) / sum(epochs[-len(problems):]))

        for _ in range(CLI_REPEATS):
            res = run.child("cli train", train_cli)
            if res is not None:
                cli.append(res)
                rep = _json(run.work / "train.json")["result"]
                w_file = checks.read_smxw((run.work / "w.bin").read_bytes())
                run.check("cli train", checks.check_trained, w_file, x_csv, labels_csv,
                          inputs.TEACHER_C, rep.get("final_loss"), rep.get("accuracy"))

    n_rounds = run.rounds(body)
    run.end_to_end(setups, walls, cli)
    run.notes.update(rounds=n_rounds, problems=len(epochs),
                     epochs_to_tol=sum(epochs) / len(epochs))
    if run.trace:
        _layer_pass(run, Layers(
            data=held["data"], w=held["w"],
            load=lambda: load_csv(csv_path, -1, inputs.TEACHER_C),
            load_bytes=csv_path.stat().st_size,
            load_code=_load_code(f"load_csv({str(csv_path)!r}, -1, {inputs.TEACHER_C})"),
            labels=labels_csv, certify_data=held["data"], inproc=per_epoch))


# --- curvature --------------------------------------------------------------
def curvature(run: Run) -> None:
    csv_text, feats, labels2, w2 = inputs.two_class_csv(run.seed)
    csv_path, w_path = run.work / "two-class.csv", run.work / "anchor.smxw"
    csv_path.write_text(csv_text)
    w_path.write_bytes(inputs.smxw_bytes(w2))
    x2 = np.vstack([feats.T, np.ones((1, feats.shape[0]))])
    prob = inputs.curvature_problem(run.seed)
    cdata = Dataset(prob.x, prob.t)
    y_anchor = [checks.softmax_cols(w @ prob.x) for w in prob.w]
    ycols = inputs.q_columns(run.seed, prob)
    q_batches = np.array_split(np.arange(ycols.shape[1]), len(prob.w))
    big = inputs.big_y()
    setups: list[float] = []
    held: dict = {}

    def setup(i: int) -> Dataset:
        """CSV -> Dataset with the bias row: one set-up sample."""
        t0 = time.perf_counter()
        with run.span(i, "setup"):
            with run.span(i, "data_io.load"):
                raw = load_csv(csv_path, -1, 2)
            with run.span(i, "data_io.add_bias_row"):
                xb = add_bias_row(raw.x)
            with run.span(i, "core.dataset"):
                data = Dataset(xb, raw.t)
        setups.append(time.perf_counter() - t0)
        return data

    # Warm-up: the Lanczos path imports scipy.sparse.linalg on first use;
    # that one-off cost stays out of the first round.
    import scipy.sparse.linalg  # noqa: F401
    data2 = setup(0)
    run.check("load csv", checks.require, np.array_equal(data2.x, x2),
              "CSV features differ from the generator's")
    run.check("load csv", checks.check_targets, data2.t, labels2)

    certify_cli = ["-m", "smxreg", "certify", "--csv", str(csv_path), "--classes", "2",
                   "--bias", "--weights", str(w_path), "--json", "certify.json"]
    spectrum_cli = ["-m", "smxreg", "spectrum", "--y", inputs.format_vector(big),
                    "--json", "spectrum.json"]
    cli, solve_walls, inproc = [], [], []
    plan_walls, q_walls, q_counts, plan_k = [], [], [], []
    probe_rng = np.random.default_rng([run.seed, 7])

    def certify_child() -> None:
        res = run.child("cli certify (two-class)", certify_cli)
        if res is not None:
            cli.append(res)
            rep = _json(run.work / "certify.json")["result"]
            run.check("cli certify", checks.check_full_rank_certificate, rep, x2)
            run.check("cli certify", checks.check_two_class, rep["two_class"], w2, x2)

    def solve(i: int, k: int) -> None:
        w, y, cols = prob.w[k], y_anchor[k], q_batches[k]
        run.attempted += 1
        t1 = time.perf_counter()
        with run.span(i, "plan"):
            with run.span(i, "hessian.init"):
                h = HessianOperator(cdata, w)
            with run.span(i, "convergence.extremes"):
                lo, hi = extreme_eigenvalues_on_z(h)
            p = plan(lo, hi)
        t2 = time.perf_counter()
        multisets = []
        for j in cols:
            run.attempted += 1
            with run.span(i, "spectrum.analyze_q"):
                multisets.append(analyze_q(ycols[:, j]).multiset())
        t3 = time.perf_counter()
        solve_walls.append(t3 - t1)
        plan_walls.append(t2 - t1)
        q_walls.append(t3 - t2)
        q_counts.append(len(cols))
        plan_k.append(p.k)
        run.check("plan", checks.check_plan, p.lambda_min, p.lambda_max, p.k,
                  p.theta, p.eta_optimal)
        run.check("plan", checks.check_extremes, lo, hi, prob.x, y, probe_rng)
        run.check("analyze_q", checks.check_multisets, multisets, ycols[:, cols])

    def body(i: int) -> None:
        certify_child()

        # CSV set-ups, then one solve at each of the next anchors: a plan
        # and analyze_q on that anchor's share of the columns.  A traced run
        # repeats round 0's anchors in its first traced round, which against
        # the untraced round 0 gives the tracing overhead.
        t0 = time.perf_counter()
        for _ in range(CSV_SETUPS):
            setup(i)
        for m in range(ANCHORS_PER_ROUND):
            solve(i, (ANCHORS_PER_ROUND * max(i - run.trace, 0) + m) % len(prob.w))
        inproc.append(time.perf_counter() - t0)
        for _ in range(CLI_REPEATS - 1):
            certify_child()

        res = run.child("cli spectrum (C=1000)", spectrum_cli)
        if res is not None:
            rep = _json(run.work / "spectrum.json")["result"]
            run.check("cli spectrum", checks.check_multisets,
                      [checks.spectrum_report_multiset(rep)], big[:, None], atol=1e-9)

    n_rounds = run.rounds(body)
    run.end_to_end(setups, solve_walls, cli)
    run.notes.update(rounds=n_rounds, plan_k=plan_k[:len(prob.w)],
                     plan_s=sum(plan_walls) / len(plan_walls),
                     spectra_per_s=sum(q_counts) / sum(q_walls))
    if run.trace:
        tr = run.tracer
        run.notes["hessian_apply_calls"] = [
            sum(1 for s in tr.spans if s.name == "hessian.apply" and s.parent == ext.id)
            for ext in tr.spans if ext.name == "convergence.extremes"][:len(prob.w)]
        _layer_pass(run, Layers(
            data=cdata, w=prob.w[0],
            load=lambda: load_csv(csv_path, -1, 2),
            load_bytes=csv_path.stat().st_size,
            load_code=_load_code(f"load_csv({str(csv_path)!r}, -1, 2)"),
            labels=labels2, certify_data=data2, inproc=inproc[:2]))


WORKLOADS = {
    "mnist-epochs": mnist_epochs,
    "teacher-to-tol": teacher_to_tol,
    "curvature": curvature,
}
