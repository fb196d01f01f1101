import os
import signal
import time

import pytest

from qcmd import _util
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
