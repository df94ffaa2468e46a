import time

import pytest

from permpat.verify import run_suite


@pytest.fixture(scope="session")
def verify_all():
    """One run of every verify suite at seed 0, shared by the session,
    with its wall time in seconds."""
    start = time.perf_counter()
    manifest = run_suite("all", seed=0)
    return manifest, time.perf_counter() - start
