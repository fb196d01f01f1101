import math
import os
import signal
import time

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from qcmd import ModelSpec, _util, build_model, wkb
from qcmd.errors import ResolutionError


@pytest.fixture
def forks(workers):
    """The ``os.fork`` calls while the test runs, on a host taken to have
    two CPUs."""
    return workers(2)


def square_or_fail(i):
    if i == 1:
        raise ResolutionError("grid too coarse for item 1", required=64)
    if i == 2:
        raise ValueError("item 2")
    return i * i


def test_shares_are_consecutive_runs_of_items(monkeypatch):
    monkeypatch.setattr(_util, "_cpu_count", lambda: 2)
    assert _util.fork_shares(3) == [[0], [1], [2]]
    # two processes per CPU at most, the earlier shares the larger
    assert _util.fork_shares(6) == [[0, 1], [2, 3], [4], [5]]
    assert _util.fork_shares(8) == [[0, 1], [2, 3], [4, 5], [6, 7]]
    assert _util.fork_shares(1) == [[0]]
    assert _util.fork_shares(0) == [[]]
    monkeypatch.setattr(_util, "_cpu_count", lambda: 1)
    assert _util.fork_shares(3) == [[0, 1, 2]]


def test_fork_map_returns_results_in_item_order(forks):
    out = _util.fork_map(lambda i: (i, os.getpid()), range(3))
    assert [i for i, _ in out] == [0, 1, 2]
    # the caller runs the first share
    assert out[0][1] == os.getpid() and len({pid for _, pid in out}) == 3
    assert len(forks) == 2


@pytest.mark.parametrize("cpus, n_items", [(1, 3), (2, 1)])
def test_one_cpu_or_one_item_forks_nothing(workers, cpus, n_items):
    forks = workers(cpus)
    assert _util.fork_map(lambda i: i + 1, range(n_items)) == list(range(1, n_items + 1))
    assert forks == []


def test_a_childs_error_keeps_its_type_message_and_fields(forks):
    # items 1 and 2 fail in two children; the serial loop stops at item 1
    with pytest.raises(ResolutionError, match="grid too coarse for item 1") as caught:
        _util.fork_map(square_or_fail, range(3))
    assert caught.value.required == 64
    assert len(forks) == 2


def test_the_lowest_items_error_wins(forks):
    with pytest.raises(ValueError, match="item 2"):
        _util.fork_map(square_or_fail, [0, 2, 1])


def test_the_lowest_items_error_wins_across_uneven_shares(forks):
    def fail_3_and_5(i):
        if i in (3, 5):
            raise ValueError(f"item {i}")
        return i

    # shares [0, 1], [2, 3], [4], [5]: items 3 and 5 fail in two children
    with pytest.raises(ValueError, match="item 3"):
        _util.fork_map(fail_3_and_5, range(6))
    assert len(forks) == 3


def test_a_child_that_dies_names_its_signal(forks):
    def die(i):
        if i == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    with pytest.raises(RuntimeError, match="killed by SIGKILL without a result"):
        _util.fork_map(die, range(3))


def test_an_error_in_the_callers_share_stops_the_children(forks):
    def slow(i):
        if i == 0:
            raise KeyError("caller's item")
        time.sleep(60.0)

    start = time.perf_counter()
    with pytest.raises(KeyError, match="caller's item"):
        _util.fork_map(slow, range(3))
    assert time.perf_counter() - start < 30.0
    assert len(forks) == 2


# f(x) for an offset c; some brackets [a, b] give f one sign at both ends
BRENT_FUNCTIONS = {
    "sine": lambda c: lambda x: math.sin(3.0 * x) - c,
    "cubic": lambda c: lambda x: (x - c) ** 3 + 0.1 * (x - c),
    # numpy scalars, as sums over numpy arrays give them
    "float64": lambda c: lambda x: np.exp(np.float64(x)) - 1.0 - c,
    # values so small that the extrapolation divides by zero in C
    "flat": lambda c: lambda x: 1e-300 * (x - c) * (1.0 + x * x),
    "step": lambda c: lambda x: -1.0 if x < c else 1.0,
}
BRENT_OPTIONS = [{}, {"xtol": 1e-14, "rtol": 1e-15, "maxiter": 200}, {"xtol": 1e-5},
                 {"xtol": 1e-13}, {"maxiter": 3}]


def root_or_error(solve, f, a, b, **options):
    try:
        root = solve(f, a, b, **options)
    except (ValueError, RuntimeError) as exc:
        return type(exc)
    return type(root), root


@pytest.mark.parametrize("name", sorted(BRENT_FUNCTIONS))
def test_brentq_takes_scipys_steps(name):
    rng = np.random.default_rng(16)
    roots = 0
    for i in range(300):
        f = BRENT_FUNCTIONS[name](rng.uniform(-0.5, 0.5))
        a, b = rng.uniform(-2.0, 2.0, 2)
        options = BRENT_OPTIONS[i % len(BRENT_OPTIONS)]
        ours = root_or_error(_util.brentq, f, a, b, **options)
        assert ours == root_or_error(scipy_brentq, f, a, b, **options), (a, b, options)
        roots += isinstance(ours, tuple)
    assert roots > 60


def test_brentq_bisects_where_the_extrapolation_divides_by_zero():
    f = BRENT_FUNCTIONS["flat"](0.3)
    assert root_or_error(_util.brentq, f, -1.0, 2.0) == (float, scipy_brentq(f, -1.0, 2.0))


def test_quantized_energies_are_scipys_roots(monkeypatch):
    same = []

    def both(f, a, b, **options):
        root = _util.brentq(f, a, b, **options)
        same.append(root == scipy_brentq(f, a, b, **options))
        return root

    monkeypatch.setattr(wkb, "brentq", both)
    m = build_model(ModelSpec(family="two_level_gap", params={"delta": 0.25}, d=2))
    for M in (64.0, 1024.0, 65536.0):
        wkb.quantized_energy(m, wkb.bohr_sommerfeld_index(m, 0.6, M), M)
    assert same == [True] * 3


@pytest.mark.parametrize("solve", [_util.brentq, scipy_brentq])
def test_brentq_errors(solve):
    def f(x):
        return x * x - 2.0

    with pytest.raises(ValueError, match="different signs"):
        solve(f, 2.0, 3.0)
    with pytest.raises(RuntimeError):
        solve(f, 0.0, 2.0, maxiter=2)
    with pytest.raises(ValueError, match="NaN"):
        solve(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 2.0)
    with pytest.raises(ValueError, match="rtol too small"):
        solve(f, 0.0, 2.0, rtol=1e-16)
