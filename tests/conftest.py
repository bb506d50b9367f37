"""Suite-wide checks."""

import multiprocessing
import threading

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


@pytest.fixture(autouse=True)
def no_thread_outlives_a_test():
    """Fail a test after which a thread that it started is still alive: the
    program runs on forked children, never on threads of its own."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads outlived the test: {[t.name for t in left]}")
