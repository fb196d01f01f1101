import math
import sys

import numpy as np
import pytest
import scipy.linalg


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
