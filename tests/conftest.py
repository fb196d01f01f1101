import math
import mmap
import os
import sys

import numpy as np
import pytest
import scipy.linalg


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "still running" if pid == 0 else f"{pid} exited but was not reaped"
    pytest.fail(f"a child process outlived the test: {state}")


class _Forks(list):
    """The ``os.fork`` calls of the test's process; ``nested`` tells whether
    a forked child forked again."""

    def __init__(self):
        super().__init__()
        self.flag = mmap.mmap(-1, 1)        # shared with the children

    @property
    def nested(self):
        return self.flag[0] == 1


@pytest.fixture
def workers(monkeypatch):
    """``workers(cpus)`` takes the host to have ``cpus`` CPUs and returns the
    ``_Forks`` that count the ``os.fork`` calls from then on."""
    from qcmd import _util

    caller = os.getpid()
    forks = _Forks()

    def counted(_fork=os.fork):
        if os.getpid() == caller:
            forks.append(None)
        else:
            forks.flag[0] = 1
        return _fork()

    def take(cpus):
        monkeypatch.setattr(_util, "_cpu_count", lambda: cpus)
        forks.clear()
        forks.flag[0] = 0
        return forks

    monkeypatch.setattr(os, "fork", counted)
    return take


@pytest.fixture
def eigensolver_calls(monkeypatch):
    """The module of every caller of numpy.linalg.eigh and scipy.linalg.eigh
    while the test runs, in call order."""
    calls = []
    for owner in (np.linalg, scipy.linalg):

        def recorded(*args, _solve=owner.eigh, **kwargs):
            calls.append(sys._getframe(1).f_globals.get("__name__"))
            return _solve(*args, **kwargs)

        monkeypatch.setattr(owner, "eigh", recorded)
    return calls


@pytest.fixture(scope="session")
def sines_agree():
    """Whether math.sin and math.cos give numpy's bits on this host, on a
    sample of arguments; the float loops of ``dynamics`` are bitwise equal
    to the lockstep kernel only where they do."""
    x = np.random.default_rng(0).uniform(-200.0, 200.0, 100_000)
    xs = x.tolist()
    return (np.array_equal(np.sin(x), [math.sin(v) for v in xs])
            and np.array_equal(np.cos(x), [math.cos(v) for v in xs]))
