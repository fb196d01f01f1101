"""Small helpers: RNG streams, periodic-grid calculus, a bracketed root
solve, and a fork map."""

import os
import pickle
import signal
import sys
from contextlib import suppress
from math import nan

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


_RTOL = 4.0 * sys.float_info.epsilon


def brentq(f, xa, xb, xtol=2e-12, rtol=_RTOL, maxiter=100):
    """A root of f in [xa, xb], where f(xa) and f(xb) have opposite signs.

    Brent's method (Brent, *Algorithms for Minimization without Derivatives*,
    1973) as scipy.optimize.brentq runs it, step for step after scipy's C
    ``brentq``: the same iterates, so the same root, without loading
    scipy.optimize.  The root returned lies within about ``xtol + rtol |x|``
    of a sign change of f.  Raises ValueError when f has one sign at both
    ends or gives a NaN, and RuntimeError when ``maxiter`` iterations do not
    converge.
    """
    if xtol <= 0.0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")
    xtol, rtol = float(xtol), float(rtol)

    def value(x):
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"the function value at x={x} is NaN; solver cannot continue")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = nan
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:        # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:                   # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # the C code's quotient is then infinite or NaN, which fails
                # the test below and so bisects
                pass
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry     # a good short step
        else:
            spre = scur = sbis          # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"failed to converge after {maxiter} iterations, value is {xcur}")


# At most this many worker processes a CPU (the caller of a forked map only
# waits on them): time-sharing evens out shares of unequal cost.  Float
# Ehrenfest lanes of equal length on a 2-core host: 3 lanes took 0.145 s in
# 2 shares and 0.102 s in 3; 16 lanes of 20k steps 0.58 s in 2, 0.54 s in 4
# and 0.69 s in 16.
_PROCESSES_PER_CPU = 2


def _cpu_count():
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def fork_shares(n_items):
    """Split ``n_items`` items into shares of consecutive items, one share
    per process, in item order.

    A single share means the items run serially in the caller: one CPU, or
    a single item.  Otherwise each item gets a process of its own, up to
    ``_PROCESSES_PER_CPU`` processes a CPU; more items than that are split
    into that many shares, the earlier ones one item larger.
    """
    cpus = _cpu_count()
    n = min(n_items, _PROCESSES_PER_CPU * cpus) if cpus > 1 else 1
    if n < 2:
        return [list(range(n_items))]
    return [share.tolist() for share in np.array_split(np.arange(n_items), n)]


def fork_map(run, items):
    """``[run(item) for item in items]``, with the shares that
    ``fork_shares`` makes of the item count run side by side, each in a
    forked child that sends back its results by pickle.  The caller runs no
    item then: it forks, reads the results in share order and reaps its
    children.  A single share (one CPU, or a single item) runs serially in
    the caller, with no fork.  Items are not weighed: the shares differ by
    one item at most.

    Results and errors are those of the serial loop: when items raise, the
    lowest one's error is raised, and the children not yet read are killed.
    A child reports only through its pipe, so anything else ``run`` changes
    stays in the child, except writes into shared mappings
    (``mmap.mmap(-1, n)``).  Every child is reaped before the call returns
    or raises.
    """
    items = list(items)
    shares = fork_shares(len(items))
    if len(shares) == 1:
        return [run(item) for item in items]
    children = []           # (pid, read end) of children not yet reaped
    try:
        for share in shares:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(run, [items[i] for i in share], write)
            os.close(write)
            children.append((pid, read))
        results = []
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
