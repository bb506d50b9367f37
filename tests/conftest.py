"""Suite-wide checks."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_process_outlives_a_test():
    """Fail a test after which a child process is still running (a forked
    worker that was neither joined nor killed), and end the leftovers so the
    next test starts clean."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.kill()
        proc.join()
    if left:
        pytest.fail(f"child processes outlived the test: {[p.pid for p in left]}")
