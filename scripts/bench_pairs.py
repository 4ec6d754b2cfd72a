"""Run the benchmark in alternating parent/change pairs and summarise them.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W \
        --seeds 9301-9310 --out BENCH_24.json [--seconds 25] \
        [--note TEXT] [--claim W:METRIC]

DIR is the root of a source checkout (a clone of the parent commit, and the
tree of the change).  A --parent that is not the root of a git checkout
(``git rev-parse --show-toplevel`` names another directory, or none) is
refused before anything runs, since its commit, recorded as
``parent_commit``, would be missing or another checkout's.  Each tree's
resolved path is recorded too (``parent_tree``, ``change_tree``): paired
results can depend on where a tree sits, not only on its code.  For each seed,
``python3 bench/run.py --workload W --seed S --seconds 25 --trace 0`` runs
once in each tree, from that tree's root; the side that runs first
alternates pair by pair, parent first in the first pair.  Fewer than 2
seeds are refused before anything runs, as quartiles need two runs per
side.  A run that exits non-zero or prints no result line stops the
script with its stderr, and nothing is written.

The summary goes under ``workloads[W]`` of ``--out``, which is created or
updated in place, so one file collects every workload: each side's runs
(seed, correct, attempted, failed, and the scalar notes of the benchmark's
detail line, such as rounds, problems and epochs_to_tol) and, per
end-to-end metric, each side's median, quartiles and values, and the
number of pairs whose change value is lower.  ``--note`` sets the file's ``change`` text and ``--claim`` its
claimed metric.  Last, one line per end-to-end metric says whether the
change's median is worse than the parent's by more than that metric's
``bound`` in the change tree's ``BENCHMARK.json`` (a fraction of the
parent's median), or ``unresolved`` when the parent's own runs spread
wider than that bound (q3 - q1 above bound x median) and not every change
run is better than every parent run.  Two more lines follow: whether any
run on either side reported ``correct: false``, and whether the change's
share of failed operations (failed / attempted over its runs) exceeds the
parent's.  With a claim whose workload the file holds, a last line gives
the pairs the change wins (ties count for neither side) against nine
tenths of the pairs, and the medians' difference against the parent's
q3 - q1, and ends ``met`` when both hold, else ``not met``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

DESCRIPTION = (
    "Before/after medians and quartiles of every end-to-end metric of "
    "BENCHMARK.json, from alternating parent/change pairs of `python3 "
    "bench/run.py --workload W --seed S --seconds 25 --trace 0`, each side run "
    "from its own source tree; the side that runs first alternates pair by "
    "pair. Quartiles are Python's statistics.quantiles(n=4) (exclusive "
    "method). `change_lower_in_pairs` counts the pairs whose change value is "
    "lower. Each run keeps the scalar `notes` of the benchmark's detail line "
    "(its sample lists are left out). The seeds were not used while building "
    "the change.")


def parse_seeds(text: str) -> list[int]:
    """Seeds from "A-B" (inclusive) or "A,B,C"."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def result_line(stdout: str) -> dict:
    """The benchmark's summary: the JSON object on its last output line,
    with the scalar entries of the ``notes`` of the detail line before it
    (such as ``rounds``, ``problems`` and ``epochs_to_tol``), if any, under
    ``notes``; lists and objects, such as timing samples, are left out."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the benchmark printed nothing")
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2]) if len(lines) > 1 else {}
    notes = {k: v for k, v in detail.get("notes", {}).items()
             if isinstance(v, (bool, int, float, str))}
    if notes:
        result["notes"] = notes
    return result


def _round(value: float) -> float:
    """``value`` to 5 significant digits, which keeps a 2 ms setup time and
    a 1200 MB peak alike readable."""
    return float(f"{value:.5g}")


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": _round(statistics.median(values)), "q1": _round(q1),
            "q3": _round(q3), "values": [_round(v) for v in values]}


def summarize(pairs: list[tuple[int, dict, dict]]) -> dict:
    """The ``workloads`` entry of ``(seed, parent result, change result)``
    pairs, results as :func:`result_line` returns them."""
    summary: dict = {"seeds": [seed for seed, _, _ in pairs], "pairs": len(pairs),
                     "runs": {}, "metrics": {}}
    for side, at in (("parent", 1), ("change", 2)):
        summary["runs"][side] = [
            {"seed": pair[0], **{k: pair[at][k] for k in ("correct", "attempted", "failed",
                                                          "notes") if k in pair[at]}}
            for pair in pairs]
    for name in pairs[0][1]["metrics"]:
        parent = [p["metrics"][name]["value"] for _, p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, _, c in pairs]
        summary["metrics"][name] = {
            "parent": _spread(parent), "change": _spread(change),
            "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change))}
    return summary


def _sign(better: str) -> int:
    """+1 when lower is better, -1 when higher is: sign x value is then
    smaller for the better value."""
    return 1 if better == "lower" else -1


def bound_lines(summary: dict, benchmark: dict) -> list[str]:
    """For each end-to-end metric of ``benchmark`` (a parsed
    ``BENCHMARK.json``) in ``summary``, whether the change's median is worse
    than the parent's by more than the metric's ``bound`` times the
    parent's median, or ``unresolved`` when the parent's q3 - q1 exceeds
    that margin and some change run is no better than some parent run."""
    lines = []
    for spec in benchmark["end_to_end"]:
        if spec["name"] not in summary["metrics"]:
            continue
        m = summary["metrics"][spec["name"]]
        parent, change = m["parent"]["median"], m["change"]["median"]
        sign, margin = _sign(spec["better"]), spec["bound"] * abs(parent)
        spread = m["parent"]["q3"] - m["parent"]["q1"]
        separated = (max(sign * v for v in m["change"]["values"])
                     < min(sign * v for v in m["parent"]["values"]))
        if spread > margin and not separated:
            verdict = f"unresolved (parent q3 - q1 is {spread / abs(parent):.0%} of its median)"
        else:
            verdict = "YES" if sign * (change - parent) > margin else "no"
        lines.append(f"{spec['name']}: median {parent:.5g} -> {change:.5g}; worse by more "
                     f"than its bound {spec['bound']:g}: {verdict}")
    return lines


def claim_line(summary: dict, claim: dict) -> str:
    """Whether ``summary`` meets ``claim`` (workload, metric, better): the
    change wins at least nine tenths of the pairs, ties counting for
    neither side, and its median is better than the parent's by more than
    the parent's q3 - q1."""
    m, sign = summary["metrics"][claim["metric"]], _sign(claim["better"])
    pairs = list(zip(m["parent"]["values"], m["change"]["values"]))
    wins = sum(sign * c < sign * p for p, c in pairs)
    parent, change = m["parent"]["median"], m["change"]["median"]
    spread = m["parent"]["q3"] - m["parent"]["q1"]
    met = 10 * wins >= 9 * len(pairs) and sign * (parent - change) > spread
    return (f"claim {claim['workload']}:{claim['metric']}: change better in {wins} of "
            f"{len(pairs)} pairs (needs 9 in 10); median {parent:.5g} -> {change:.5g}, "
            f"better by {sign * (parent - change):.5g} against parent q3 - q1 "
            f"{spread:.5g}: {'met' if met else 'not met'}")


def run_lines(summary: dict) -> list[str]:
    """Whether any run of ``summary`` on either side was ``correct: false``,
    and whether the change's share of failed operations (failed /
    attempted over its runs, 0 with none attempted) exceeds the parent's."""
    runs = summary["runs"]
    wrong = {side: sum(not run["correct"] for run in runs[side]) for side in runs}
    tally = {side: (sum(run["failed"] for run in runs[side]),
                    sum(run["attempted"] for run in runs[side])) for side in runs}
    share = {side: failed / attempted if attempted else 0.0
             for side, (failed, attempted) in tally.items()}
    counts = {side: f"{failed}/{attempted} ({share[side]:.3%})"
              for side, (failed, attempted) in tally.items()}
    return [f"correct: false in parent {wrong['parent']} and change {wrong['change']} of "
            f"{len(runs['change'])} runs each; any: "
            f"{'YES' if wrong['parent'] or wrong['change'] else 'no'}",
            f"failed operations: parent {counts['parent']} -> change {counts['change']}; "
            f"change share larger: {'YES' if share['change'] > share['parent'] else 'no'}"]


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return result_line(proc.stdout)


def checkout_root(tree: Path) -> Path | None:
    """The root of the git checkout that holds ``tree``, or None."""
    if not tree.is_dir():
        return None
    proc = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=tree,
                          capture_output=True, text=True)
    return Path(proc.stdout.strip()).resolve() if proc.returncode == 0 else None


def _host() -> dict:
    import numpy

    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"usable_cpus": len(os.sched_getaffinity(0)),
            "memory_gb": round(memory / 2**30), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "note": "shared host; other tenants' load varies between runs"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--note", help="what the change does (the file's `change`)")
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims to lower")
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error(f"--seeds needs at least 2 seeds for quartiles, got {args.seeds}")
    if checkout_root(args.parent) != args.parent.resolve():
        ap.error(f"--parent {args.parent} is not the root of a git checkout, so its "
                 "commit cannot be recorded")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())

    pairs = []
    for k, seed in enumerate(args.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        got = {side: _run(getattr(args, side), args.workload, seed, args.seconds)
               for side in order}
        pairs.append((seed, got["parent"], got["change"]))
        print(f"{args.workload} seed {seed}: " + "  ".join(
            f"{name} {got['parent']['metrics'][name]['value']:.4g} -> "
            f"{got['change']['metrics'][name]['value']:.4g}"
            for name in got["parent"]["metrics"]), flush=True)

    old = json.loads(args.out.read_text()) if args.out.exists() else {}
    parent_commit = subprocess.run(["git", "rev-parse", "--verify", "-q", "HEAD"],
                                   cwd=args.parent, capture_output=True,
                                   text=True).stdout.strip()
    claim = old.get("claim")
    if args.claim:
        workload, metric = args.claim.split(":")
        claim = {"workload": workload, "metric": metric, "better": "lower"}
    doc = {"description": DESCRIPTION, "change": args.note or old.get("change"),
           "parent_commit": parent_commit or None, "parent_tree": str(args.parent.resolve()),
           "change_tree": str(args.change.resolve()), "claim": claim, "host": _host(),
           "workloads": {**old.get("workloads", {}), args.workload: summarize(pairs)}}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    summary = doc["workloads"][args.workload]
    lines = bound_lines(summary, benchmark) + run_lines(summary)
    if claim and claim["workload"] in doc["workloads"]:
        lines.append(claim_line(doc["workloads"][claim["workload"]], claim))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
