"""One loop of independent items split across two cores.

``split_in_two`` runs the first half of a loop in the calling process and the
second half in one forked child at the same time; marker calibration and the
gradcheck suite use it.  With fewer than two items, or in a process that may
use only one CPU (``two_cpus``, which also places the trainer's twin b
worker), the whole loop runs in process.
"""

import multiprocessing
import os
import signal


def two_cpus():
    """Whether this process may run on two CPUs or more, so that a forked
    second process has a core of its own; platforms without an affinity
    mask (and without fork) count as one."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


def split_in_two(fn, n):
    """``fn(0, n)`` for a ``fn(lo, hi) -> list`` whose items are independent,
    as ``fn(0, n // 2)`` here plus ``fn(n // 2, n)`` in a forked child at the
    same time, concatenated in order.

    With fewer than two items or two CPUs it runs ``fn(0, n)`` in process.
    The child's exception is raised here, unless this process's half raised
    first; a child that dies is a ``RuntimeError``.  The child is joined, or
    killed and joined, before the call returns or raises.
    """
    if n < 2 or not two_cpus():
        return fn(0, n)
    mid = n // 2
    ctx = multiprocessing.get_context("fork")
    conn, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_second_half, args=(fn, mid, n, child, conn), daemon=True)
    proc.start()
    # with the parent's copy closed, the child's death is EOF here
    child.close()
    second = None
    try:
        first = fn(0, mid)
        try:
            second = conn.recv()
        except EOFError:
            proc.join(timeout=1)
            raise RuntimeError(f"worker process (pid {proc.pid}) ended before returning "
                               f"its half, exit code {proc.exitcode}") from None
    finally:
        conn.close()
        if second is None:
            proc.kill()
        proc.join()
    if isinstance(second, Exception):
        raise second
    return first + second


def _second_half(fn, lo, hi, conn, parent_end):
    """Send ``fn(lo, hi)``, or the exception it raised, to the parent."""
    parent_end.close()
    # Ctrl-C reaches the parent, which then kills the child
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        out = fn(lo, hi)
    except Exception as e:
        out = e
    conn.send(out)
