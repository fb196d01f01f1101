"""Span tracing of qcmd's public calls, installed from outside the package.

The tracer replaces each public function of the listed qcmd modules by a
wrapper that records one span per call: name, start, end and the index of
the enclosing span.  Spans are kept in flat arrays (24 bytes a span, so a
round of a million calls stays small) and written out once at the end.
Modules call each other through module attributes (``espec.eigen_at``), so
patching the attribute also traces calls made inside the package.
"""

import contextlib
import functools
import inspect
import time
from array import array

import numpy as np

TRACED_MODULES = ("lab", "qref", "dynamics", "espec", "model", "wkb", "gibbs")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.matrix_bytes = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, on_result=None):
        """A wrapper of fn that records a span per call."""
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, package):
        """Patch the public functions of the traced modules; restore on exit."""
        import scipy.linalg

        patches = []
        for mod_name in TRACED_MODULES:
            mod = getattr(package, mod_name)
            for attr, fn in vars(mod).copy().items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                hook = None
                if (mod_name, attr) == ("qref", "assemble_hamiltonian"):
                    hook = lambda H: self.matrix_bytes.append(H.matrix.nbytes)
                patches.append((mod, attr, fn, self.wrap(f"{mod_name}.{attr}", fn, hook)))
        force = package.gibbs.CorrectedPotential.force
        patches.append((package.gibbs.CorrectedPotential, "force", force,
                        self.wrap("gibbs.CorrectedPotential.force", force)))
        # every dense window solve of the reference goes through this call
        patches.append((scipy.linalg, "eigh", scipy.linalg.eigh,
                        self.wrap("scipy.linalg.eigh", scipy.linalg.eigh)))
        for owner, attr, _, new in patches:
            setattr(owner, attr, new)
        try:
            yield self
        finally:
            for owner, attr, old, _ in reversed(patches):
                setattr(owner, attr, old)

    def arrays(self):
        # copies, so the arrays stay growable while the views are alive
        return (np.frombuffer(self.name, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.start).copy(), np.frombuffer(self.end).copy())

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)


def span_cost(n=100_000):
    """Seconds a traced call adds over a direct one, measured on a no-op.

    The no-op takes two positional arguments, like most traced calls
    (``eigen_at(model, X)``); cache effects of the larger working set in a
    real run are not included, so this is a lower estimate.
    """
    def noop(a, b):
        return None

    tracer = Tracer()
    traced = tracer.wrap("noop", noop)
    clock = time.perf_counter
    t0 = clock()
    for i in range(n):
        noop(i, n)
    direct = clock() - t0
    t0 = clock()
    for i in range(n):
        traced(i, n)
    return max(0.0, (clock() - t0 - direct) / n)


class SpanTable:
    """Per-name aggregates of a span list: calls, inclusive and self time."""

    def __init__(self, tracer):
        name, parent, start, end = tracer.arrays()
        self.names = tracer.names
        self.name = name
        self.parent = parent
        dur = end - start
        self.dur = dur
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self.self_time = dur - child
        self.root_time = float(dur[~has_parent].sum())
        self.count = dur.size

    def _mask(self, name):
        if name not in self.names:
            return np.zeros(self.count, dtype=bool)
        return self.name == self.names.index(name)

    def calls(self, name):
        return int(self._mask(name).sum())

    def total(self, name):
        return float(self.dur[self._mask(name)].sum())

    def mean_us(self, name):
        mask = self._mask(name)
        return float(self.dur[mask].mean() * 1e6) if mask.any() else 0.0

    def module_ids(self, module):
        return [i for i, n in enumerate(self.names) if n.startswith(module + ".")]

    def module_self(self, module):
        return float(self.self_time[np.isin(self.name, self.module_ids(module))].sum())

    def module_outer(self, module):
        """Inclusive time of the module's spans not nested in another of its spans."""
        ids = self.module_ids(module)
        inside = np.isin(self.name, ids)
        parent_inside = np.zeros(self.count, dtype=bool)
        has_parent = self.parent >= 0
        parent_inside[has_parent] = np.isin(self.name[self.parent[has_parent]], ids)
        return float(self.dur[inside & ~parent_inside].sum())
