"""Child processes, machine facts and simple statistics for the benchmark."""
from __future__ import annotations

import ctypes
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Address-space cap for every smxreg child: far above what training at
# MNIST scale needs, far below the N x N array of a full SVD at N = 60000.
CHILD_AS_CAP = 6 << 30
CHILD_TIMEOUT_S = 120.0


@dataclass
class ChildResult:
    status: int            # exit code, or -signal
    wall_s: float
    peak_rss_mb: float     # ru_maxrss of this child alone (from wait4)
    stderr: str

    @property
    def first_error_line(self) -> str:
        for line in self.stderr.splitlines():
            if line.strip():
                return line.strip()[:300]
        return ""

    @property
    def last_error_line(self) -> str:
        lines = [ln.strip() for ln in self.stderr.splitlines() if ln.strip()]
        return lines[-1][:300] if lines else ""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONSTARTUP", None)
    return env


def run_child(args: list[str], workdir: Path, cap: int = CHILD_AS_CAP,
              timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run ``python3 <args>`` under the address-space cap; wall time is from
    spawn to reap, peak RSS is the child's own high-water mark."""
    argv = [sys.executable, "-S", str(BENCH_DIR / "child.py"), str(cap), sys.executable, *args]
    err_path = workdir / "child.err"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                stdin=subprocess.DEVNULL, env=child_env(), cwd=workdir)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        status=proc.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stderr=err_path.read_text(errors="replace"),
    )


def median(values) -> float:
    return float(statistics.median(values))


# --- machine facts --------------------------------------------------------
def _read(path: Path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _parse_size(text: str) -> int:
    text = text.strip().upper()
    mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1] in mult:
        return int(text[:-1]) * mult[text[-1]]
    return int(text) if text.isdigit() else 0


def llc_bytes() -> int:
    """Size of the highest-level cache cpu0 reports (0 if unknown)."""
    best_level, size = -1, 0
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.exists() else []:
        if _read(idx / "type") == "Instruction":
            continue
        level = int(_read(idx / "level") or 0)
        if level > best_level:
            best_level, size = level, _parse_size(_read(idx / "size"))
    return size


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower() and ".so" in ln}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_bytes": int(ram),
        "llc_bytes": llc_bytes(),
        "cpu": platform.processor() or platform.machine(),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
