"""Out-of-program tracing of the ncdiff layers.

``Tracer`` wraps every public function defined in an ``ncdiff`` module and,
while installed, rebinds each wrapped name in every ``ncdiff`` module that
binds it (``maps`` imports ``canonicalize`` by name, the package re-exports
most functions), so calls made through any of those names are recorded.

Each call records a span: name, start, end and the index of its parent span
(the innermost wrapped call still open).  A span's self time is its duration
minus the time covered by its direct children.  A few functions also record
work counts computed from their arguments (see ``COUNTERS``).
"""

import inspect
import sys
import time
from array import array

import numpy as np

def _count_canonicalize(tower, degree, coeffs):
    # Pi_p is the identity below degree 2 and whenever D_p = n^p.
    if degree < 2:
        return {"identity": 1, "gflop_computed": 0.0}
    dim = tower.n ** degree
    return {"identity": int(tower.ranks.get(degree) == dim),
            "gflop_computed": 8.0 * dim * dim * tower.m ** 2 / 1e9}


def _count_build_tower(G, max_degree, tol=None):
    n = G.subspace.n
    return {"proj_mb_computed": sum(16.0 * n ** (2 * p) for p in range(2, max_degree + 1)) / 1e6}


def _count_epsilon_check(G, p, tol=None):
    return {"unknowns": (p - 1) * G.subspace.n ** (p - 2) * G.R}


def _count_rank_nullspace(M, tol=None, floor=0.0):
    return {"elems": int(np.size(M))}


COUNTERS = {
    "calculus.canonicalize": _count_canonicalize,
    "calculus.build_tower": _count_build_tower,
    "calculus.epsilon_check": _count_epsilon_check,
    "linalg.rank_nullspace": _count_rank_nullspace,
}


def _public_functions(module):
    short = module.__name__.rsplit(".", 1)[1]
    for name, obj in vars(module).items():
        if (inspect.isfunction(obj) and not name.startswith("_")
                and obj.__module__ == module.__name__):
            yield f"{short}.{name}", obj


class Tracer:
    """Span recorder for one traced pass at a time."""

    def __init__(self):
        self.modules = [mod for name, mod in sorted(sys.modules.items())
                        if name == "ncdiff" or name.startswith("ncdiff.")]
        self.names = []
        self.wrappers = {}
        for mod in self.modules:
            if mod.__name__ == "ncdiff":
                continue
            for qualname, fn in _public_functions(mod):
                self.wrappers[fn] = self._wrap(len(self.names), fn, COUNTERS.get(qualname))
                self.names.append(qualname)
        self.originals = {w: fn for fn, w in self.wrappers.items()}
        self.reset()

    def reset(self):
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.counts = {}

    def _wrap(self, idx, fn, counter):
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(self.span_name)
            self.span_name.append(idx)
            self.span_parent.append(self.stack[-1] if self.stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            if counter is not None:
                counts = self.counts.setdefault(idx, {})
                for k, v in counter(*args, **kwargs).items():
                    counts[k] = counts.get(k, 0) + v
            self.stack.append(i)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.span_start[i] = t0
                self.span_end[i] = t1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _rebind(self, table):
        for mod in self.modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in table:
                    setattr(mod, name, table[obj])

    def install(self):
        self._rebind(self.wrappers)

    def uninstall(self):
        self._rebind(self.originals)

    def aggregate(self):
        """Per-function calls, self and inclusive time, and work counts of the recorded spans."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=self_time, minlength=k)
        total_s = np.bincount(names, weights=dur, minlength=k)
        out = {}
        for i, qualname in enumerate(self.names):
            out[qualname] = {"calls": int(calls[i]), "self_s": float(self_s[i]),
                             "total_s": float(total_s[i]), **self.counts.get(i, {})}
        return out

    def spans(self):
        """The recorded spans as [name, start, end, parent] rows."""
        return [[self.names[n], s, e, p] for n, s, e, p in
                zip(self.span_name, self.span_start, self.span_end, self.span_parent)]
