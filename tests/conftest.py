import concurrent.futures
import time

import pytest

from permpat import counting
from permpat.verify import run_suite


@pytest.fixture(scope="session")
def verify_all():
    """One run of every verify suite at seed 0, shared by the session,
    with its wall time in seconds."""
    start = time.perf_counter()
    manifest = run_suite("all", seed=0)
    return manifest, time.perf_counter() - start


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the process pool of the counting and census drivers with an
    inline map that starts no process, and let counts of any size take the
    pool route; returns the list of the max_workers values each pool was
    asked for."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return list(map(fn, *iterables))

    # the drivers import the pool class from here when a pool starts
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(counting, "POOL_MIN_TOTAL", 0)
    return sizes
