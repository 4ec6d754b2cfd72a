import concurrent.futures
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def pools(monkeypatch):
    """Three usable CPUs and a BLAS thread setter, whatever the machine (a
    setter that does nothing where numpy's BLAS is not OpenBLAS), so
    :func:`smxreg.core.block_runner` pools any two blocks or more.
    Returns the list of thread pools made, which grows as they are; each
    pool's ``submitted`` lists the calls given to it."""
    from smxreg import core

    made = []

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            self.submitted = []
            made.append(self)
            super().__init__(*args, **kwargs)

        def submit(self, *args, **kwargs):
            self.submitted.append(args)
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(core, "usable_cpus", lambda: 3)
    if core._blas_thread_setter() is None:
        monkeypatch.setattr(core, "_blas_thread_setter", lambda: lambda count: 1)
    return made


@pytest.fixture
def forced_parallel(monkeypatch, pools):
    """:func:`pools`, with :func:`smxreg.core.column_plan` cutting every
    array into one block per 64 bytes (8 doubles, so a 4 x 6 float64 array
    spans three blocks).  So :func:`smxreg.core.column_blocks` runs any
    array of two blocks or more on pool threads, whatever the machine."""
    from smxreg import core

    monkeypatch.setattr(core, "PARALLEL_MIN_BYTES", 64)


@pytest.fixture
def both_paths(monkeypatch, forced_parallel, pools):
    """``both_paths(call, serial_by="one_cpu")`` runs ``call()`` under
    :func:`forced_parallel` on both paths of
    :func:`smxreg.core.block_runner` and returns ``(serial, parallel,
    submitted)``: the result with the blocks run in order on the calling
    thread, because one CPU is usable (``"one_cpu"``) or no BLAS thread
    setter is found (``"no_setter"``), the result on pools, and the number
    of calls the second run gave to pools.  A test may cut the blocks
    otherwise by setting ``PARALLEL_MIN_BYTES`` itself; ``pools`` then
    lists the second run's pools."""
    from smxreg import core

    def run(call, serial_by="one_cpu"):
        pools.clear()
        with monkeypatch.context() as serial_only:
            if serial_by == "one_cpu":
                serial_only.setattr(core, "usable_cpus", lambda: 1)
            else:
                serial_only.setattr(core, "_blas_thread_setter", lambda: None)
            serial = call()
        assert not pools
        parallel = call()
        return serial, parallel, sum(len(pool.submitted) for pool in pools)

    return run
