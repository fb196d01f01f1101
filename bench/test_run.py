"""Tests of bench/run.py: a round that raises must fail the run.

    python3 -m pytest bench
"""

import json

import run
import workloads
from qcmd import CausticError


class CausticSweep:
    """A sweep whose every round meets a caustic, as lab.converge reports one."""

    ops_per_round = 3

    def __init__(self, seed):
        pass

    def run(self, round_index):
        raise CausticError("caustics at M = 64: [0.5]")

    def check(self, out):
        return []

    def summary(self, out):
        return {}


def test_a_round_that_raises_fails_the_run(monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, "caustic", CausticSweep)
    monkeypatch.setattr(run, "setup_probes", lambda workload, seed: [0.5])
    monkeypatch.setattr(run, "RESULTS_DIR", tmp_path)
    assert run.main(["--workload", "caustic", "--seed", "1", "--seconds", "0"]) == 1
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["correct"] is False
    assert (res["attempted"], res["failed"]) == (3, 3)
    detail = json.loads((tmp_path / "caustic-trace0.json").read_text())
    assert detail["check_failures"] == ["round 0: raised, no output (traceback above)"]
