"""Contiguous slices of a job list run on every usable core.

``in_slices`` cuts a list of jobs into one contiguous slice per usable core
(``usable_cores``, capped at the number of jobs).  This process
runs the first slice, and one forked child runs each other slice, then
pickles its results back through a pipe, one result at a time.  The
caller receives every result in job order, so the split changes no
output.  The jobs run in this process alone with one usable core or one
job, without ``os.fork`` or ``os.sched_getaffinity``, while another thread
is alive (a forked child could deadlock on a lock that thread held), or
when a fork fails.  The forest grows its batches of trees through it, the
column writer formats its blocks of rows, and the column reader parses its
spans of lines.  The peak RSS of this process (``ru_maxrss``) does not
count the children.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from collections.abc import Sequence


def usable_cores() -> int:
    """The processes ``in_slices`` spreads its jobs over: one per usable core
    (``os.sched_getaffinity``), or 1 without ``os.fork`` or
    ``os.sched_getaffinity`` or while another thread is alive."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        return max(1, len(os.sched_getaffinity(0)))
    return 1


def in_slices(job, jobs: Sequence, take, dead) -> None:
    """``take(job(j))`` for each of ``jobs`` in order, with the jobs cut into
    contiguous slices between this process and forked children.  This
    process takes the results of its own slice as it runs them, then each
    child's as they arrive.  A child's exception is raised here, and a
    child that dies or exits non-zero raises ``dead(pid, status)``.  Every
    child is reaped before this returns or raises."""
    workers = max(1, min(len(jobs), usable_cores()))
    bounds = [len(jobs) * w // workers for w in range(workers + 1)]
    end, children, reaped = len(jobs), [], []
    try:
        # Fork the last slices first, so that this process keeps a prefix
        # of the jobs whatever number of forks succeeds.
        for start in reversed(bounds[1:-1]):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                _child(job, jobs[start:end], read, write)
            os.close(write)
            children.insert(0, (pid, read, end - start))
            end = start
        for j in jobs[:end]:
            take(job(j))
        for pid, read, count in children:
            error = _receive(read, count, take)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped.append(pid)
            if code:
                raise dead(pid, code)
            if error is not None:
                raise error
    except BaseException:
        for pid, _, _ in children:
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read, _ in children:
            os.close(read)
            if pid not in reaped:
                os.waitpid(pid, 0)


def _receive(read: int, count: int, take):
    """Pass the ``count`` results a child pickled to ``read`` to ``take``.
    Returns the child's exception, if any; a stream that ends early returns
    None, and the child's exit status tells why."""
    with open(read, "rb", closefd=False) as fh:
        try:
            error = pickle.load(fh)
            if error is None:
                for _ in range(count):
                    take(pickle.load(fh))
            return error
        except (EOFError, pickle.UnpicklingError):
            return None


def _child(job, jobs: Sequence, read: int, write: int):
    """Run ``jobs`` in a forked child, send back their exception, if any, then
    their results, and end the process without unwinding the caller's stack.
    Every job runs before the first result is sent, so that the child does
    not wait on a full pipe while this process works through its slice."""
    code = 1
    try:
        os.close(read)
        error, results = None, []
        try:
            results = [job(j) for j in jobs]
        except BaseException as exc:
            error = exc
        with open(write, "wb") as fh:
            pickle.dump(error, fh, pickle.HIGHEST_PROTOCOL)
            for result in results:
                pickle.dump(result, fh, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)
