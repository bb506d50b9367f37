"""Forked children, and one loop of independent items split across two cores.

``Child`` is the one way the package starts a second process.  Twin b's
worker (``trainer.TwinB``) is one, and so is the forked half of
``split_in_two``, which marker calibration and the gradcheck suite use.  A
process that may use only one CPU (``two_cpus``) forks neither.
"""

import gc
import multiprocessing
import os
import signal


def two_cpus():
    """Whether this process may run on two CPUs or more, so that a forked
    second process has a core of its own; platforms without an affinity
    mask (and without fork) count as one."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


class Child:
    """A forked child that runs ``target(conn, *args)`` on its end of a pipe.

    ``send`` and ``recv`` exchange picklable messages with it.  A child that
    dies surfaces as a ``RuntimeError`` naming its pid and exit code at the
    next exchange.  ``close`` closes the pipe, kills the child unless it has
    already exited, and joins it.

    Every object the collector tracks is frozen before the fork (``gc.freeze``),
    so no later collection in either process writes their headers.  The fork
    write-protects the parent's heap, and one full collection that touched
    them all would then fault in every page the child shared, about 3,200
    pages after the forks of a test run.  The cost: cyclic garbage alive at
    a fork is never collected.
    """

    def __init__(self, target, *args):
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_serve, args=(target, child, self.conn, args),
                                daemon=True)
        gc.freeze()
        self.proc.start()
        # with the parent's copy closed, the child's death is EOF here
        child.close()

    def send(self, msg):
        try:
            self.conn.send(msg)
        except OSError as e:
            raise self._died() from e

    def recv(self):
        try:
            return self.conn.recv()
        except (EOFError, OSError) as e:
            raise self._died() from e

    def _died(self):
        self.proc.join(timeout=1)
        return RuntimeError(f"worker process (pid {self.proc.pid}) ended mid-exchange, "
                            f"exit code {self.proc.exitcode}")

    def close(self):
        self.conn.close()
        self.proc.kill()  # does nothing to a child that has exited
        self.proc.join()


def _serve(target, conn, parent_end, args):
    """The child's side of ``Child``: ``target(conn, *args)`` until it returns
    or the parent is gone."""
    parent_end.close()
    # Ctrl-C reaches the parent, which then kills the child
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        target(conn, *args)
    except (EOFError, OSError):
        pass  # the parent closed its end


def split_in_two(fn, n):
    """``fn(0, n)`` for a ``fn(lo, hi) -> list`` whose items are independent,
    as ``fn(0, n // 2)`` here plus ``fn(n // 2, n)`` in a forked child at the
    same time, concatenated in order.

    With fewer than two items or two CPUs it runs ``fn(0, n)`` in process.
    The child's exception is raised here, unless this process's half raised
    first; a child that dies is a ``RuntimeError``.  The child is reaped
    before the call returns or raises.
    """
    if n < 2 or not two_cpus():
        return fn(0, n)
    child = Child(_second_half, fn, n // 2, n)
    try:
        first = fn(0, n // 2)
        second = child.recv()
    finally:
        child.close()
    if isinstance(second, Exception):
        raise second
    return first + second


def _second_half(conn, fn, lo, hi):
    """Send ``fn(lo, hi)``, or the exception it raised, to the parent."""
    try:
        out = fn(lo, hi)
    except Exception as e:
        out = e
    conn.send(out)
