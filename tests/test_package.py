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
    assert run_fresh(script) == "[]"


def test_mass_sweeps_load_no_scipy_optimize():
    # the energies' root solves run in the package, and crossing detection
    # loads scipy.optimize only for its minimize_scalar fallback; with the
    # module made unimportable, loading it in the caller or in a forked
    # worker would fail the sweep
    script = textwrap.dedent("""
        import os
        import sys
        sys.modules["scipy.optimize"] = None
        from qcmd import ModelSpec, _util, build_model, lab

        _util._cpu_count = lambda: 2
        forks, fork = [], os.fork
        os.fork = lambda: forks.append(None) or fork()
        gap = build_model(ModelSpec(family="two_level_gap", params={"delta": 0.25}, d=2))
        lab.converge(gap, "ehrenfest", [256.0, 1024.0], n_loops=1, k_spread=1)
        cross = build_model(ModelSpec(family="two_level_cross", d=2))
        rec = lab.converge(cross, "bo", [64.0, 256.0], n_loops=1, energy_window=0.7)
        assert rec.per_M[0]["crossings"]
        print(len(forks))
    """)
    assert run_fresh(script) == "2"


def run_fresh(script):
    """The last line that ``script`` prints in a fresh interpreter that
    imports this qcmd."""
    src = str(Path(qcmd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True)
    return out.stdout.split("\n")[-2]
