"""Command-line surface: train, spectrum, certify, checkgrad.

Exit codes: 0 success, 1 check failure (including a training run that
stops nonfinite, whose final loss is not finite or whose final weights'
activations overflow), 2 usage or input-format errors, including inputs
too large to hold in memory.  Each ``cmd_*`` prints and writes nothing: it
returns its exit code, input digest, result, stdout lines and output
files, and :func:`main` reports, writes and prints, so exit code 2 leaves
stdout empty and every existing file as it was.
"""
from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from .convergence import curvature_bracket, plan
from .core import InvalidInputError, LiveRows, certify, check_weights, live_rows
from .data_io import encode_weights, load_csv, load_idx_live, read_weights
from .fdcheck import GRAD_TOL, HESS_TOL, gradient_check_suite
from .hessian import HessianOperator
from .softmax import softmax
from .spectrum import DENSE_C_LIMIT, analyze_q, dense_q_spectrum
from .trainer import BB_MODES, STOP_NONFINITE, TrainConfig, evaluate, train

# First-step Barzilai-Borwein rate, in bb2's metric, when train --bb bb2
# omits --eta.
BB_ETA0 = 0.01


def _write_files(files: dict) -> None:
    """Write every ``path: bytes`` item via temp files, then renames.  Each
    temp file is created exclusively, under a name that holds the process
    id, so a name already taken stops the run instead of being replaced.  A
    target that is a directory is refused before the first rename, so no
    later rename fails on it after an earlier one replaced a file.  A
    failure removes each file made here, renamed or not, and names the path
    as given, or the temp file's when that name is taken."""
    made = []
    try:
        for path, blob in files.items():
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            with open(f"{path}.{os.getpid()}.tmp", "xb") as f:
                made.append(f.name)
                f.write(blob)
        for i, path in enumerate(files):
            os.replace(made[i], path)
            made[i] = path
    except OSError as exc:
        for name in made:
            with contextlib.suppress(OSError):
                os.remove(name)
        name = exc.filename if isinstance(exc, FileExistsError) else str(path)
        raise OSError(exc.errno, exc.strerror, name) from None


def _finite_or_none(x):
    """``x`` with every non-finite float in it, at any depth of dicts, lists
    and tuples, replaced by None (JSON has no NaN or Infinity)."""
    if isinstance(x, dict):
        return {k: _finite_or_none(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_or_none(v) for v in x]
    return None if isinstance(x, float) and not np.isfinite(x) else x


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--csv", help="numeric CSV with one sample per row")
    # Unset defaults (None here and for spectrum's --sample) let spectrum
    # --y tell a flag given from one left out.
    p.add_argument("--label-column", type=int,
                   help="0-based CSV column holding the 0-based label (default: last)")
    p.add_argument("--header", action="store_true", help="skip one CSV header row")
    p.add_argument("--data", help="IDX image file")
    p.add_argument("--labels", help="IDX label file")
    p.add_argument("--classes", type=int, help="class count C")
    p.add_argument("--bias", action="store_true", help="append a constant-1 feature row")


def _load_dataset(args) -> LiveRows:
    """The live rows of the data flags' problem, the one type every command
    reads: an IDX pair's as :func:`~smxreg.data_io.load_idx_live` loads
    them, a CSV's by :meth:`~smxreg.core.LiveRows.of` on its Dataset."""
    if args.csv:
        if args.classes is None:
            raise InvalidInputError("--classes is required with --csv")
        label_column = -1 if args.label_column is None else args.label_column
        data = load_csv(args.csv, label_column, args.classes, header=args.header,
                        bias=args.bias)
        return LiveRows.of(data, live_rows(data.x))
    if args.data and args.labels:
        if args.classes is None:
            raise InvalidInputError("--classes is required with --data/--labels")
        return load_idx_live(args.data, args.labels, args.classes, bias=args.bias)
    raise InvalidInputError("provide --csv or both --data and --labels")


def _input_digest(args, data: LiveRows | None) -> dict:
    digest = {key: str(val) for key in ("csv", "data", "labels", "weights")
              if (val := getattr(args, key, None))}
    if data is not None:
        digest.update(d=data.d, c=data.c, n=data.n)
    return digest


def cmd_train(args) -> tuple[int, dict, dict, list, dict]:
    if args.eta is None and args.bb == "off":
        raise InvalidInputError("--eta is required when --bb off")
    cfg = TrainConfig(
        eta=BB_ETA0 if args.eta is None else args.eta,
        epochs=args.epochs,
        bb_mode=args.bb,
        seed=args.seed,
        tol_grad=args.tol_grad,
        log_every=args.log_every,
    )
    data = _load_dataset(args)
    w, trace = train(data, cfg)
    result: dict = {
        "stop_reason": trace.stop_reason,
        "live_rows": trace.live_rows,
        "blocks": trace.blocks,
        "trace": [asdict(r) for r in trace.records],
    }
    lines = [f"epoch {r.epoch:6d}  loss {r.loss:.9f}  grad {r.grad_norm:.6e}"
             f"  eta {r.eta_used:.6e}" for r in trace.records]
    lines.append(f"stop: {trace.stop_reason}")
    # A run that ends with a non-finite loss failed, as a nonfinite stop did.
    code = 1
    if trace.stop_reason != STOP_NONFINITE:
        try:
            final_loss, accuracy = evaluate(w, data)
            lines.append(f"final loss {final_loss:.9f}  accuracy {accuracy:.4f}")
        except InvalidInputError as exc:  # the final W X overflows
            final_loss = accuracy = float("nan")
            lines.append(f"final evaluation refused: {exc}")
        result.update(final_loss=final_loss, accuracy=accuracy)
        code = int(not np.isfinite(final_loss))
    files = {}
    if args.out:
        files[args.out] = encode_weights(w)
        result["weights_file"] = str(args.out)
    return code, _input_digest(args, data), result, lines, files


def cmd_spectrum(args) -> tuple[int, dict, dict, list, dict]:
    if args.y:
        ignored = [flag for flag in ("--weights", "--sample", "--csv", "--label-column",
                                     "--header", "--data", "--labels", "--classes",
                                     "--bias")
                   # unset: None, or False for a switch (0 is a value)
                   if (value := getattr(args, flag[2:].replace("-", "_"))) is not None
                   and value is not False]
        if ignored:
            raise InvalidInputError(
                f"--y takes no --weights, --sample or data flags, got {' '.join(ignored)}")
        try:
            y = np.array([float(tok) for tok in args.y.split(",")])
        except ValueError as exc:  # names the token
            raise InvalidInputError(f"--y: {exc}") from None
        data = None
    else:
        if not args.weights:
            raise InvalidInputError("provide --y or --weights with data flags")
        w = read_weights(args.weights)
        data = _load_dataset(args)
        sample = 0 if args.sample is None else args.sample
        if not 0 <= sample < data.n:
            raise InvalidInputError(f"--sample must be in 0..{data.n - 1}")
        w = check_weights(w, data)
        # The sample's column of X, zero in its dead rows, so the product
        # is the full X's bit for bit.  An overflowing column is refused by
        # softmax.
        x = np.zeros(data.d)
        x[data.rows] = data.data.x[:, sample]
        y = softmax(w @ x)

    report = analyze_q(y)
    max_delta = None
    if y.shape[0] <= DENSE_C_LIMIT:
        max_delta = float(np.max(np.abs(report.multiset() - dense_q_spectrum(y))))

    lines = [f"{'value':>18}  {'mult':>4}  {'kind':<20}  bracket"]
    for e in report.eigenvalues:
        bracket = f"({e.bracket[0]:.12g}, {e.bracket[1]:.12g})" if e.bracket else "-"
        flag = "  [degenerate gap]" if e.degenerate_gap else ""
        lines.append(f"{e.value:18.12f}  {e.multiplicity:>4}  {e.kind:<20}  {bracket}{flag}")
    if max_delta is None:
        lines.append(f"dense-oracle: skipped (C > {DENSE_C_LIMIT})")
    else:
        lines.append(f"dense-oracle max |delta|: {max_delta:.3e}")

    digest = {**_input_digest(args, data), "y": [float(v) for v in y]}
    return 0, digest, {**asdict(report), "dense_max_delta": max_delta}, lines, {}


def cmd_certify(args) -> tuple[int, dict, dict, list, dict]:
    data = _load_dataset(args)
    w, anchor = np.zeros((data.c, data.d)), "zero"
    if args.weights:
        # Checked before the rank test, which a bad file need not wait for.
        w, anchor = check_weights(read_weights(args.weights), data), "supplied"
    cert = certify(data)
    lines = [f"rank(X): {'full (= D)' if cert.full_rank else 'deficient'}"
             f"  sv_min {cert.sv_min:.6e}  sv_max {cert.sv_max:.6e}"]
    if cert.full_rank:
        lines.append(f"certificate: {cert.verdict}")
    else:
        lines.append("certificate: not strictly convex; minimizers form affine family")

    # the witness, as a list, only when there is one
    result = {key: val.tolist() if isinstance(val, np.ndarray) else val
              for key, val in asdict(cert).items() if val is not None}

    # curvature_bracket refuses more than DENSE_C_LIMIT classes.  Full rank
    # leaves no dead row, so data.data is the whole problem.
    if cert.full_rank and data.c <= DENSE_C_LIMIT:
        br = curvature_bracket(HessianOperator(data.data, w))
        if data.c == 2 and br.low > 0.0:
            # The bracket is exact for two classes: a plan, and K_bracket is K.
            p = plan(br.low, br.high)
            lines += [f"two-class analysis at {anchor} weights:",
                      f"  lambda_min {p.lambda_min:.6e}  lambda_max {p.lambda_max:.6e}",
                      f"  K_exact {br.k_bracket:.6e}  K_bound {br.k_bound:.6e}",
                      f"  theta {p.theta:.6f}  eta_window [{p.eta_window[0]:.6e},"
                      f" {p.eta_window[1]:.6e}]  eta* {p.eta_optimal:.6e}"]
            result["two_class"] = {**asdict(p), "anchor": anchor,
                                   "k_exact": br.k_bracket, "k_bound": br.k_bound}
            del result["two_class"]["k"]  # k_exact reports the same ratio
        else:
            # A plan needs the exact extremes, the least one positive; for
            # C > 2 the bracket only bounds them, and at a saturated
            # two-class anchor its low end is 0.
            lines += [f"curvature bracket at {anchor} weights:",
                      f"  low {br.low:.6e}  high {br.high:.6e}",
                      f"  K_bracket {br.k_bracket:.6e}  K_bound {br.k_bound:.6e}"]
            result["bracket"] = {"anchor": anchor, "low": br.low, "high": br.high,
                                 "k_bracket": br.k_bracket, "k_bound": br.k_bound}
    return 0, _input_digest(args, data), result, lines, {}


def cmd_checkgrad(args) -> tuple[int, dict, dict, list, dict]:
    res = gradient_check_suite(args.seed, args.instances)
    lines = [f"gradient: max rel err {res['grad_max_rel_err']:.3e}"
             f" (threshold {GRAD_TOL:g})",
             f"hessian:  max rel err {res['hess_max_rel_err']:.3e}"
             f" (threshold {HESS_TOL:g})",
             "checkgrad: " + ("ok" if res["passed"] else "FAILED")]
    digest = {"seed": args.seed, "instances": args.instances}
    return int(not res["passed"]), digest, res, lines, {}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smxreg",
        description="Softmax regression: training, curvature spectra, "
                    "convexity certificates, derivative checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--json", help="JSON report output file")
    report.add_argument("--deterministic", action="store_true")

    p = sub.add_parser("train", parents=[report], help="full-batch gradient descent")
    _add_data_flags(p)
    p.add_argument("--eta", type=float,
                   help="learning rate; under --bb bb2 the first step's rate in the "
                        "metric of X's row means and variances")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--bb", choices=BB_MODES, default=TrainConfig.bb_mode)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--tol-grad", type=float, default=TrainConfig.tol_grad)
    p.add_argument("--log-every", type=int, default=TrainConfig.log_every)
    p.add_argument("--out", help="weights output file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("spectrum", parents=[report], help="spectrum of diag(y) - y y^T")
    _add_data_flags(p)
    p.add_argument("--y", help="comma-separated probability vector")
    p.add_argument("--weights", help="weights file (alternative to --y)")
    p.add_argument("--sample", type=int,
                   help="0-based sample column used with --weights (default: 0)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("certify", parents=[report], help="strict-convexity certificate")
    _add_data_flags(p)
    p.add_argument("--weights", help="anchor weights file (default: zero weights)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("checkgrad", parents=[report], help="finite-difference derivative checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=20)
    p.set_defaults(func=cmd_checkgrad)

    return parser


def _check_distinct_outputs(args) -> None:
    """Refuse an output (--out, --json) whose ``os.path.realpath`` is that of
    the other output or of an input (--csv, --data, --labels, --weights):
    writing it would replace that file."""
    given = [(flag, path) for flag in ("out", "json", "csv", "data", "labels", "weights")
             if (path := getattr(args, flag, None))]
    for i, (flag, path) in enumerate(given):
        for other, other_path in given[i + 1:]:
            if flag in ("out", "json") and (
                    os.path.realpath(path) == os.path.realpath(other_path)):
                raise InvalidInputError(
                    f"--{flag} {path!r} and --{other} {other_path!r} name the same file")


def main(argv=None) -> int:
    """Run one command and return its exit code.

    An output option naming the file of another output or of an input
    (compared by ``os.path.realpath``) exits 2 before the command runs.
    Every command runs under one ``np.errstate(all="ignore")``, so none
    prints a numpy warning.  The JSON report has sorted keys, every
    non-finite float written as null (``allow_nan=False`` makes a missed
    one raise), and --deterministic zeroes the wall-clock field so
    identical flags and seed give byte-identical files.  Every output file
    is written (:func:`_write_files`) before any line is printed, so exit
    code 2 leaves stdout empty, no temp file, and every existing file as
    it was.
    """
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        _check_distinct_outputs(args)
        with np.errstate(all="ignore"):
            code, digest, result, lines, files = args.func(args)
        if args.json:
            report = {
                "command": args.command,
                "input": digest,
                "result": result,
                "duration_s": 0.0 if args.deterministic else time.perf_counter() - t0,
            }
            text = json.dumps(_finite_or_none(report), sort_keys=True, indent=2,
                              allow_nan=False) + "\n"
            files[args.json] = text.encode("utf-8")
        _write_files(files)
        print(*lines, sep="\n")
        return code
    except (OSError, ValueError, OverflowError, MemoryError) as exc:
        # A bytes or array allocation raises a MemoryError with no message.
        blank = "out of memory" if isinstance(exc, MemoryError) else ""
        print(f"error: {str(exc) or blank}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
