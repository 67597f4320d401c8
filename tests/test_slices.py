import os
import threading

import pytest

from nexica._slices import in_slices


def where(j):
    """The job and the process that ran it."""
    return j, os.getpid()


def dead(pid, status):
    return RuntimeError(f"child {pid} exited with status {status}")


def test_a_failed_fork_leaves_the_unforked_prefix_here(monkeypatch):
    """Three usable cores and nine jobs: the fork of the last slice succeeds,
    the fork of the middle slice fails, so this process runs the first two
    slices, the results arrive in job order, and the one child is reaped."""
    forked, reaped, fork, waitpid = [], [], os.fork, os.waitpid

    def fork_once():
        if forked:
            raise OSError("injected")
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def recording_waitpid(pid, options):
        reaped.append(pid)
        return waitpid(pid, options)

    monkeypatch.setattr(os, "fork", fork_once)
    monkeypatch.setattr(os, "waitpid", recording_waitpid)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    results = []
    in_slices(where, range(9), results.append, dead)
    assert [j for j, _ in results] == list(range(9))
    here = os.getpid()
    assert [pid for _, pid in results] == [here] * 6 + forked * 3
    assert len(forked) == 1 and reaped == forked
    with pytest.raises(ChildProcessError):
        waitpid(-1, os.WNOHANG)


def test_no_fork_while_another_thread_is_alive(monkeypatch):
    """A forked child could deadlock on a lock the other thread held, so the
    jobs all run in this process, in order."""
    forks = []

    def no_fork():
        forks.append(1)
        raise OSError("injected")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        results = []
        in_slices(where, range(9), results.append, dead)
    finally:
        release.set()
        other.join()
    assert results == [(j, os.getpid()) for j in range(9)]
    assert forks == []
