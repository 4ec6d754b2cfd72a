"""smxreg benchmark: one workload per invocation.

    python3 bench/run.py --workload {mnist-epochs,teacher-to-tol,curvature}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/`` and its CLI is started as ``python3 -m smxreg`` with ``src`` on
PYTHONPATH.  Inputs are generated from ``--seed``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``.  The line before it holds the machine facts, the
failed operations and other notes; the same record, and in traced runs the
spans, are kept under ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from procs import ROOT, SRC, machine_facts  # noqa: E402
from spans import Tracer  # noqa: E402

WORKLOADS = ("mnist-epochs", "teacher-to-tol", "curvature")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "smxreg" / "__init__.py").is_file():
        print(f"error: no smxreg sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    import smxreg

    if Path(smxreg.__file__).resolve().parent != (SRC / "smxreg").resolve():
        print(f"error: imported smxreg from {smxreg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS as RUNNERS, Run

    out_dir = ROOT / ".bench_out"
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    work.mkdir(parents=True)
    run = Run(seed=args.seed, seconds=args.seconds, trace=bool(args.trace), work=work)
    if run.trace:
        run.tracer = Tracer()
    try:
        RUNNERS[args.workload](run)
    finally:
        if run.trace:
            run.tracer.restore()
        shutil.rmtree(work, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run.trace:
        run.tracer.dump(out_dir / f"{tag}.spans.jsonl")
    # Per-layer metrics are named "<layer>.<metric>"; end-to-end ones have no
    # dot.  A traced run reports the per-layer ones only, since tracing
    # slows the end-to-end figures it would otherwise also produce.
    metrics = {k: v for k, v in run.metrics.items() if ("." in k) == run.trace}
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"]
            for m in manifest["per_layer" if run.trace else "end_to_end"]}
    have = {k: v["unit"] for k, v in metrics.items()}
    if have != want:
        print(f"error: metrics {sorted(have.items())} do not match BENCHMARK.json "
              f"{sorted(want.items())}", file=sys.stderr)
        return 1
    summary = {"correct": run.correct, "attempted": run.attempted,
               "failed": run.failed, "metrics": metrics}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_facts(),
              "failures": run.failures, "check_errors": run.check_errors,
              "notes": run.notes}
    record = {**detail, **summary, "all_metrics": run.metrics}
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
