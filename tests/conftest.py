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
