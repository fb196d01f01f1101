"""Small helpers: RNG streams, periodic-grid calculus, and a fork map."""

import os
import pickle
import signal
from contextlib import suppress

import numpy as np


def stream_rng(master_seed, index=0):
    """Counter-based RNG stream derived from (master seed, stream index).

    Streams with distinct indices are statistically independent and the
    result does not depend on scheduling order.
    """
    return np.random.Generator(np.random.Philox(key=None, counter=None,
                                                seed=np.random.SeedSequence((int(master_seed), int(index)))))


def periodic_grid(L, n):
    """Uniform grid on [0, L) with n >= 1 points, endpoint excluded."""
    if n < 1:
        raise ValueError(f"a periodic grid needs n >= 1 points, got {n}")
    return np.arange(n) * (L / n)


def periodic_integral(values, L):
    """Integral over one period of a sampled periodic function.

    The rectangle rule coincides with the trapezoid rule on a periodic
    uniform grid and is spectrally accurate for smooth integrands.
    """
    values = np.asarray(values)
    return values.sum(axis=0) * (L / values.shape[0])


def periodic_antiderivative(values, L):
    """Antiderivative of a sampled periodic function, zero at the first node.

    Spectral: the mean is integrated exactly as a linear ramp and the
    oscillatory part through its Fourier coefficients.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    mean = values.mean()
    k = 2.0 * np.pi / L * np.fft.fftfreq(n, d=1.0 / n)
    coef = np.fft.fft(values - mean)
    with np.errstate(divide="ignore", invalid="ignore"):
        anti = np.where(k != 0.0, coef / (1j * k), 0.0)
    osc = np.fft.ifft(anti).real
    x = periodic_grid(L, n)
    return mean * x + osc - osc[0]


def wrap(x, L):
    """Map coordinates into [0, L)."""
    return np.mod(x, L)


# what forking, exiting and reaping one child costs, in seconds: 8-10 ms
# for a 94 MB process on a 2-core host, 2.7 ms of it in ``os.fork``
FORK_S = 1e-2
# At most this many processes a CPU: time-sharing evens out shares of
# unequal cost, and each process costs a fork.  Float Ehrenfest lanes of
# equal length on a 2-core host: 3 lanes took 0.145 s in 2 shares and
# 0.102 s in 3; 16 lanes of 20k steps 0.58 s in 2, 0.54 s in 4 and 0.69 s
# in 16.
_PROCESSES_PER_CPU = 2


def _cpu_count():
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def fork_shares(cost):
    """Split items of the given estimated costs (seconds) into shares of
    consecutive items, one share per process, in item order.

    A single share means the items run serially in the caller: one CPU, or
    less work than two forks.  Otherwise the shares are of about equal
    cost, as many as there are items, but no more than the work counted in
    forks (``FORK_S``) and ``_PROCESSES_PER_CPU`` a CPU: each item gets a
    process of its own unless the items are many or cheap.
    """
    cost = [float(c) for c in cost]
    total = sum(cost)
    cpus = _cpu_count()
    n = min(len(cost), int(total / FORK_S), _PROCESSES_PER_CPU * cpus) if cpus > 1 else 1
    if n < 2:
        return [list(range(len(cost)))]
    shares = [[] for _ in range(n)]
    done = 0.0
    for i, c in enumerate(cost):
        shares[min(n - 1, int((done + 0.5 * c) * n / total))].append(i)
        done += c
    return [share for share in shares if share]


def fork_map(run, items, cost):
    """``[run(item) for item in items]``, with the shares of ``fork_shares``
    run side by side: the first in the caller, each other one in a forked
    child that sends back its results by pickle.

    Results and errors are those of the serial loop: when items raise, the
    lowest one's error is raised.  A child reports only through its pipe, so
    anything else ``run`` changes stays in the child, except writes into
    shared mappings (``mmap.mmap(-1, n)``).  Every child is reaped before
    the call returns or raises.
    """
    items = list(items)
    shares = fork_shares(cost)
    if len(shares) == 1:
        return [run(item) for item in items]
    children = []           # (pid, read end) of children not yet reaped
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(run, [items[i] for i in share], write)
            os.close(write)
            children.append((pid, read))
        results = [run(items[i]) for i in shares[0]]
        while children:
            pid, read = children[0]
            with open(read, "rb", closefd=False) as pipe:
                reply = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            os.close(read)
            if not reply:
                raise _lost(pid, status)
            ok, value = pickle.loads(reply)
            if not ok:
                raise value
            results += value
        return results
    finally:
        for pid, read in children:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
            os.close(read)


def _child(run, items, write):
    """Run the items in a forked child, send (True, results) or (False, the
    first error) through ``write``, and leave without returning."""
    code = 1
    try:
        results = []
        try:
            for item in items:
                results.append(run(item))
            reply = pickle.dumps((True, results))
        except BaseException as exc:
            reply = pickle.dumps((False, exc))
        with open(write, "wb") as pipe:
            pipe.write(reply)
        code = 0
    finally:
        os._exit(code)


def _lost(pid, status):
    """The error of a child that left without a result."""
    if os.WIFSIGNALED(status):
        how = f"was killed by {signal.Signals(os.WTERMSIG(status)).name}"
    else:
        how = f"exited with status {os.waitstatus_to_exitcode(status)}"
    return RuntimeError(f"worker process {pid} {how} without a result")
