"""Command-line surface: train, spectrum, certify, checkgrad.

Exit codes: 0 success, 1 check failure (including a non-finite training
stop), 2 usage or input-format errors, including inputs too large to hold
in memory.  Each ``cmd_*`` returns its exit code, input digest and result;
``main`` alone times the run and writes the JSON report (sorted keys), with
--deterministic zeroing the wall-clock field so identical flags and seed
give byte-identical report files.  Output files are written via a temp file and rename, so errors
never leave partial output behind.
"""
from __future__ import annotations

import argparse
import json
import os
import struct
import sys
import time
from dataclasses import asdict

import numpy as np

from .certify import certify
from .convergence import condition_bound, plan, reduce_two_class
from .core import Dataset, InvalidInputError, check_weights
from .data_io import load_csv, load_idx_dataset
from .fdcheck import CHECK_SIZES, GRAD_TOL, HESS_TOL, gradient_check_suite
from .softmax import softmax
from .spectrum import DENSE_C_LIMIT, analyze_q, dense_q_spectrum
from .trainer import BB_MODES, STOP_NONFINITE, TrainConfig, evaluate, train

WEIGHTS_MAGIC = b"SMXW"

# Initial Barzilai-Borwein rate when train --bb bb1/bb2 omits --eta.
BB_ETA0 = 0.01


class WeightsFormatError(ValueError):
    """Malformed weights file."""


def write_weights(path, w) -> None:
    """Binary weights: magic "SMXW", u32 C, u32 D, then C*D little-endian
    float64 in row-major order."""
    w = np.asarray(w, dtype=float)
    c, d = w.shape
    blob = WEIGHTS_MAGIC + struct.pack("<II", c, d) + w.astype("<f8").tobytes(order="C")
    _atomic_write_bytes(path, blob)


def read_weights(path) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != WEIGHTS_MAGIC:
        raise WeightsFormatError(f"bad weights magic {blob[:4]!r} at offset 0")
    if len(blob) < 12:
        raise WeightsFormatError("truncated weights header")
    c, d = struct.unpack("<II", blob[4:12])
    expected = 12 + 8 * c * d
    if len(blob) != expected:
        raise WeightsFormatError(
            f"weights payload has {len(blob) - 12} bytes, expected {8 * c * d}"
        )
    return np.frombuffer(blob[12:], dtype="<f8").reshape(c, d).copy()


def _atomic_write_bytes(path, blob: bytes) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(blob)
    os.replace(tmp, path)


def _finite_or_none(x):
    """``x`` with a non-finite float replaced by None (JSON has no NaN)."""
    return None if isinstance(x, float) and not np.isfinite(x) else x


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--csv", help="numeric CSV with one sample per row")
    p.add_argument("--label-column", type=int, default=-1,
                   help="0-based CSV column holding the 0-based label (default: last)")
    p.add_argument("--header", action="store_true", help="skip one CSV header row")
    p.add_argument("--data", help="IDX image file")
    p.add_argument("--labels", help="IDX label file")
    p.add_argument("--classes", type=int, help="class count C")
    p.add_argument("--bias", action="store_true", help="append a constant-1 feature row")


def _load_dataset(args) -> Dataset:
    if args.csv:
        if args.classes is None:
            raise InvalidInputError("--classes is required with --csv")
        return load_csv(args.csv, args.label_column, args.classes,
                        header=args.header, bias=args.bias)
    if args.data and args.labels:
        if args.classes is None:
            raise InvalidInputError("--classes is required with --data/--labels")
        return load_idx_dataset(args.data, args.labels, args.classes, bias=args.bias)
    raise InvalidInputError("provide --csv or both --data and --labels")


def _input_digest(args, data: Dataset | None) -> dict:
    digest: dict = {}
    for key in ("csv", "data", "labels", "weights"):
        val = getattr(args, key, None)
        if val:
            digest[key] = str(val)
    if data is not None:
        digest.update(d=data.d, c=data.c, n=data.n)
    return digest


def cmd_train(args) -> tuple[int, dict, dict]:
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
        "trace": [
            {k: _finite_or_none(v) for k, v in asdict(r).items()} for r in trace.records
        ],
    }
    # Evaluated and written before any printing, so a failing evaluation or
    # weights write leaves no report.
    final = None if trace.stop_reason == STOP_NONFINITE else evaluate(w, data)
    if args.out:
        write_weights(args.out, w)
        result["weights_file"] = str(args.out)
    for r in trace.records:
        print(f"epoch {r.epoch:6d}  loss {r.loss:.9f}  grad {r.grad_norm:.6e}"
              f"  eta {r.eta_used:.6e}")
    print(f"stop: {trace.stop_reason}")
    if final is not None:
        final_loss, accuracy = final
        print(f"final loss {final_loss:.9f}  accuracy {accuracy:.4f}")
        result.update(final_loss=_finite_or_none(final_loss), accuracy=accuracy)
    return int(trace.stop_reason == STOP_NONFINITE), _input_digest(args, data), result


def cmd_spectrum(args) -> tuple[int, dict, dict]:
    if args.y:
        y = np.array([float(tok) for tok in args.y.split(",")])
        data = None
    else:
        if not args.weights:
            raise InvalidInputError("provide --y or --weights with data flags")
        w = read_weights(args.weights)
        data = _load_dataset(args)
        if not 0 <= args.sample < data.n:
            raise InvalidInputError(f"--sample must be in 0..{data.n - 1}")
        w = check_weights(w, data)
        # An overflowing column is refused by softmax, without a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            a = w @ data.x[:, args.sample]
        y = softmax(a)

    report = analyze_q(y)
    max_delta = None
    if y.shape[0] <= DENSE_C_LIMIT:
        max_delta = float(np.max(np.abs(report.multiset() - dense_q_spectrum(y))))

    print(f"{'value':>18}  {'mult':>4}  {'kind':<20}  bracket")
    for e in report.eigenvalues:
        bracket = f"({e.bracket[0]:.12g}, {e.bracket[1]:.12g})" if e.bracket else "-"
        flag = "  [degenerate gap]" if e.degenerate_gap else ""
        print(f"{e.value:18.12f}  {e.multiplicity:>4}  {e.kind:<20}  {bracket}{flag}")
    if max_delta is None:
        print(f"dense-oracle: skipped (C > {DENSE_C_LIMIT})")
    else:
        print(f"dense-oracle max |delta|: {max_delta:.3e}")

    digest = {**_input_digest(args, data), "y": [float(v) for v in y]}
    return 0, digest, {**asdict(report), "dense_max_delta": max_delta}


def cmd_certify(args) -> tuple[int, dict, dict]:
    data = _load_dataset(args)
    w = None
    if args.weights:
        # Checked before the rank test, so a bad file exits 2 with no report.
        w = check_weights(read_weights(args.weights), data)
        if data.c != 2:
            raise InvalidInputError(
                f"--weights applies to C = 2 only; this dataset has C = {data.c}")
    cert = certify(data)
    print(f"rank(X): {'full (= D)' if cert.full_rank else 'deficient'}"
          f"  sv_min {cert.sv_min:.6e}  sv_max {cert.sv_max:.6e}")
    if cert.full_rank:
        print(f"certificate: {cert.verdict}")
    else:
        print(f"certificate: not strictly convex; minimizers form affine family")

    result: dict = {
        "full_rank": cert.full_rank,
        "sv_min": cert.sv_min,
        "sv_max": cert.sv_max,
        "verdict": cert.verdict,
    }
    if cert.degeneracy_witness is not None:
        result["degeneracy_witness"] = cert.degeneracy_witness.tolist()

    if data.c == 2 and cert.full_rank:
        anchor = "supplied"
        if w is None:
            w, anchor = np.zeros((2, data.d)), "zero"
        red = reduce_two_class(w, data)
        p = plan(float(red.evals[0]), float(red.evals[-1]))
        k_exact, k_bound = condition_bound(red, data)
        print(f"two-class analysis at {anchor} weights:")
        print(f"  lambda_min {p.lambda_min:.6e}  lambda_max {p.lambda_max:.6e}")
        print(f"  K_exact {k_exact:.6e}  K_bound {k_bound:.6e}")
        print(f"  theta {p.theta:.6f}  eta_window [{p.eta_window[0]:.6e},"
              f" {p.eta_window[1]:.6e}]  eta* {p.eta_optimal:.6e}")
        two_class = asdict(p)
        del two_class["k"]  # k_exact reports the same ratio
        result["two_class"] = {**two_class, "anchor": anchor,
                               "k_exact": k_exact, "k_bound": k_bound}
    return 0, _input_digest(args, data), result


def _parse_sizes(text: str) -> dict:
    sizes = dict(CHECK_SIZES)
    for part in text.split(","):
        key, sep, val = part.partition("=")
        key = key.strip().upper()
        if not sep or key not in sizes or not val.strip().isdigit():
            raise InvalidInputError(f"bad --sizes component {part!r}")
        sizes[key] = int(val)
    return sizes


def cmd_checkgrad(args) -> tuple[int, dict, dict]:
    sizes = _parse_sizes(args.sizes)
    res = gradient_check_suite(args.seed, sizes, args.instances, args.corrupt)
    print(f"gradient: max rel err {res['grad_max_rel_err']:.3e}"
          f" (threshold {GRAD_TOL:g})")
    print(f"hessian:  max rel err {res['hess_max_rel_err']:.3e}"
          f" (threshold {HESS_TOL:g})")
    print("checkgrad: " + ("ok" if res["passed"] else "FAILED"))
    digest = {"seed": args.seed, "sizes": sizes, "instances": args.instances}
    return int(not res["passed"]), digest, res


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
    p.add_argument("--eta", type=float, help="learning rate (initial rate under --bb)")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--bb", choices=BB_MODES, default="off")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol-grad", type=float, default=1e-10)
    p.add_argument("--log-every", type=int, default=1)
    p.add_argument("--out", help="weights output file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("spectrum", parents=[report], help="spectrum of diag(y) - y y^T")
    _add_data_flags(p)
    p.add_argument("--y", help="comma-separated probability vector")
    p.add_argument("--weights", help="weights file (alternative to --y)")
    p.add_argument("--sample", type=int, default=0,
                   help="0-based sample column used with --weights")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("certify", parents=[report], help="strict-convexity certificate")
    _add_data_flags(p)
    p.add_argument("--weights", help="anchor weights file (C=2 analysis)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("checkgrad", parents=[report], help="finite-difference derivative checks")
    p.add_argument("--seed", type=int, default=0)
    sizes = ",".join(f"{k}={v}" for k, v in CHECK_SIZES.items())
    p.add_argument("--sizes", default=sizes,
                   help=f'maximum instance sizes, e.g. "{sizes}"')
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_checkgrad)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        code, digest, result = args.func(args)
        if args.json:
            report = {
                "command": args.command,
                "input": digest,
                "result": result,
                "duration_s": 0.0 if args.deterministic else time.perf_counter() - t0,
            }
            text = json.dumps(report, sort_keys=True, indent=2) + "\n"
            _atomic_write_bytes(args.json, text.encode("utf-8"))
        return code
    except (OSError, ValueError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
