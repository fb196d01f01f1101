import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import qcmd

MODULES = ["qcmd"] + [f"qcmd.{info.name}" for info in pkgutil.iter_modules(qcmd.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def test_stochastic_runs_load_no_scipy():
    # scipy loads where it is called, so that the corrected Smoluchowski
    # runs and the Gibbs quadrature of criterion 11 never load it
    script = textwrap.dedent("""
        import sys
        import numpy as np
        import qcmd
        from qcmd import ModelSpec, build_model, dynamics, espec, gibbs
        from qcmd._util import periodic_grid, stream_rng

        m = build_model(ModelSpec(family="multi_level", d=3, T=0.08, K=1.0, params={
            "a0": 0.1, "gaps": [[0.8, 0.12], [1.6, 0.16]], "rot": 0.3}))
        corr = gibbs.corrected_potential(
            espec.eigendecompose_field(m, periodic_grid(m.L, 129)), 0.08, 1.0)
        dynamics.simulate(m, dynamics.PhaseState.make(m.L / 3, 0.0), "smoluchowski",
                          T_final=10.0, dt=0.1, rng=stream_rng(22), T=0.08, force=corr.force)
        gibbs.gibbs_observable(m, np.cos, 0.08, n_samples=1000, rng=stream_rng(11))
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
    """)
    src = str(Path(qcmd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.split("\n")[-2] == "[]"
