import concurrent.futures
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def forced_parallel(monkeypatch):
    """:func:`smxreg.core.column_plan` cuts every array into one block per
    64 bytes (8 doubles, so a 4 x 6 float64 array spans three blocks), and
    three CPUs are usable.  So :func:`smxreg.core.column_blocks` runs any
    array of two blocks or more on pool threads, whatever the machine."""
    from smxreg import core

    monkeypatch.setattr(core, "PARALLEL_MIN_BYTES", 64)
    monkeypatch.setattr(core, "usable_cpus", lambda: 3)


@pytest.fixture
def both_paths(monkeypatch, forced_parallel):
    """``both_paths(call)`` runs ``call()`` under :func:`forced_parallel`
    on both paths of :func:`smxreg.core.column_blocks` and returns
    ``(serial, parallel, submitted)``: the result with the blocks run in
    order on the calling thread (one usable CPU), the result with three
    usable CPUs, and the number of blocks the second run gave to a pool.
    """
    from smxreg import core

    submitted = []

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            submitted.append(args)
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)

    def run(call):
        with monkeypatch.context() as serial_only:
            serial_only.setattr(core, "usable_cpus", lambda: 1)
            serial = call()
        assert not submitted
        parallel = call()
        return serial, parallel, len(submitted)

    return run
