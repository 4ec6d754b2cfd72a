import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from smxreg.data_io import write_idx_images, write_idx_labels

ROOT = Path(__file__).resolve().parent.parent


def _idx_pair(tmp_path, name, rng, n, rows=8, cols=8):
    labels = rng.integers(0, 10, n)
    centers = rng.integers(0, 256, (10, rows * cols))
    pixels = np.clip(centers[labels] + rng.integers(-40, 41, (n, rows * cols)), 0, 255)
    images, label_file = tmp_path / f"{name}-images", tmp_path / f"{name}-labels"
    write_idx_images(images, pixels.T, rows, cols, scaled=False)
    write_idx_labels(label_file, labels)
    return str(images), str(label_file)


def test_train_mnist_script_runs(tmp_path):
    rng = np.random.default_rng(0)
    train_imgs, train_labs = _idx_pair(tmp_path, "train", rng, 300)
    test_imgs, test_labs = _idx_pair(tmp_path, "test", rng, 100)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "train_mnist.py"),
         "--train-images", train_imgs, "--train-labels", train_labs,
         "--test-images", test_imgs, "--test-labels", test_labs,
         "--subset", "0", "--epochs", "3"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    assert "test accuracy" in proc.stdout
