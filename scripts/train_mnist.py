"""Train the softmax classifier on MNIST-style IDX files.

Expects the standard four uncompressed files.  A bias feature row is added;
stepping uses the second Barzilai-Borwein formula by default.  Both sets are
loaded as their live rows (``load_idx_live``): ``train`` reads them in
place and ``evaluate`` reads only them, so the full X is never built.
"""
import argparse

from smxreg import Dataset, LiveRows, TrainConfig, evaluate, train
from smxreg.data_io import load_idx_live
from smxreg.trainer import BB_MODES


def first_samples(data: LiveRows, k: int) -> LiveRows:
    """The live rows of the first ``k`` samples of ``data``: a row live in
    all of ``data`` may be zero in those ``k``, and is then left out."""
    x = data.data.x[:, :k]
    live = x.any(axis=1)
    return LiveRows(Dataset(x[live], data.data.t[:, :k]), data.rows[live], data.d)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--train-images", required=True)
    ap.add_argument("--train-labels", required=True)
    ap.add_argument("--test-images", required=True)
    ap.add_argument("--test-labels", required=True)
    ap.add_argument("--classes", type=int, default=10)
    ap.add_argument("--subset", type=int, default=10000,
                    help="number of training samples used (0 = all)")
    ap.add_argument("--epochs", type=int, default=60)
    ap.add_argument("--eta", type=float, default=1e-3,
                    help="fixed rate under --bb off; under bb2 the first step's "
                         "rate in the metric of X's row means and variances")
    ap.add_argument("--bb", choices=BB_MODES, default="bb2")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    train_ds = load_idx_live(args.train_images, args.train_labels, args.classes,
                             bias=True)
    if args.subset and args.subset < train_ds.n:
        train_ds = first_samples(train_ds, args.subset)
    test_ds = load_idx_live(args.test_images, args.test_labels, args.classes,
                            bias=True)
    print(f"train: D={train_ds.d} N={train_ds.n}   test: N={test_ds.n}")

    cfg = TrainConfig(eta=args.eta, epochs=args.epochs, bb_mode=args.bb,
                      seed=args.seed, tol_grad=1e-8, log_every=5)
    w, trace = train(train_ds, cfg)
    for r in trace.records:
        print(f"epoch {r.epoch:4d}  loss {r.loss:12.4f}  "
              f"grad {r.grad_norm:.4e}  eta {r.eta_used:.4e}")
    print(f"stop: {trace.stop_reason}")

    train_loss, train_acc = evaluate(w, train_ds)
    test_loss, test_acc = evaluate(w, test_ds)
    print(f"train accuracy {train_acc:.4f}   test accuracy {test_acc:.4f}")


if __name__ == "__main__":
    main()
