"""Span tracing of ptsim's modules from outside the package.

``Tracer.install`` replaces each public ptsim function at every module-level
name a caller looks it up by (``ptsim.dynamics.mat_exp``,
``ptsim.cli.distinguishability_series``, ...) with a wrapper that records a
span: name, start, end, parent.  Spans stay in memory until the run ends.
A span's self time is its duration minus the part of it that its child
spans cover; children can overlap when ``cli.main`` fans a sweep out to its
worker threads, so coverage is the union of the child intervals.
"""

import functools
import importlib
import inspect
import itertools
import threading
import time
from array import array

import numpy as np

# modules whose public functions get spans; models only builds 2x2
# constants, so its time stays in its callers' self time
TRACED_MODULES = ("qcore", "dynamics", "embedding", "optics", "tomography", "cli")
ALL_MODULES = TRACED_MODULES + ("models",)

# helpers that run inside every mat_exp call or synthesis objective
# evaluation; a span each would add a few microseconds to calls of tens of
# microseconds, so their time stays in the caller's self time
UNTRACED = frozenset({
    "qcore.check_matrix", "optics.qwp", "optics.hwp", "optics.build_g1",
    "optics.build_g2", "optics.loss_full", "optics.loss_simplified",
})

_FIELDS = 6   # span id, name id, start ns, end ns, parent id, root id


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._records = array("q")
        self._ids = itertools.count()
        self._main = threading.main_thread()
        self._main_stack = []
        self._local = threading.local()
        self._patches = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self):
        stack = self._stack()
        # a worker thread's first span belongs to the main-thread span that
        # is blocked waiting for the pool
        outer = stack or self._main_stack
        sid = next(self._ids)
        parent, root = outer[-1] if outer else (-1, sid)
        stack.append((sid, root))
        return sid, parent, root

    def _end(self, name_id, sid, parent, root, start):
        end = time.perf_counter_ns()
        self._stack().pop()
        # one C call on a tuple of ints: under the interpreter lock it cannot
        # interleave with another thread's extend, so no lock is needed
        self._records.extend((sid, name_id, start, end, parent, root))

    def wrap(self, fn, name):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, root = self._begin()
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(name_id, sid, parent, root, start)

        return traced

    def span(self, name):
        """Context manager recording a span around the benchmark's own code."""
        return _Span(self, self._name_id(name))

    def install(self, package):
        """Wrap every public ptsim function at every module-level name it is
        looked up by."""
        wrappers = {}
        for mod_name in ALL_MODULES:
            module = importlib.import_module(f"{package.__name__}.{mod_name}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = obj.__module__.rpartition(".")[2]
                name = f"{owner}.{obj.__name__}"
                if not obj.__module__.startswith(package.__name__ + ".") \
                        or owner not in TRACED_MODULES or name in UNTRACED:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self.wrap(obj, name)
                self._patches.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])

    def uninstall(self):
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def _table(self):
        return np.array(self._records, dtype=np.int64).reshape(-1, _FIELDS)

    def spans(self):
        """All finished spans as a structured view with self times."""
        rec = self._table()
        sid, name, start, end, parent, root = rec.T
        dur = end - start
        row_of = {s: i for i, s in enumerate(sid.tolist())}
        children = {}
        for i, p in enumerate(parent.tolist()):
            if p >= 0:
                children.setdefault(row_of[p], []).append(i)
        self_ns = dur.copy()
        for row, kids in children.items():
            order = sorted(kids, key=lambda k: start[k])
            covered, reach = 0, start[row]
            for k in order:
                lo, hi = max(start[k], reach), min(end[k], end[row])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            self_ns[row] -= covered
        root_name = {s: name[row_of[s]] for s in set(root.tolist()) if s in row_of}
        return SpanTable(
            names=self.names,
            name=name,
            root=np.array([root_name.get(r, -1) for r in root.tolist()], dtype=np.int64),
            dur_s=dur / 1e9,
            self_s=self_ns / 1e9,
        )

    def write(self, path):
        """Write the spans as tab-separated text, one span a line."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\troot\n")
            for s, n, t0, t1, p, r in self._table().tolist():
                fh.write(f"{s}\t{self.names[n]}\t{t0}\t{t1}\t{p}\t{r}\n")


class _Span:
    def __init__(self, tracer, name_id):
        self._tracer = tracer
        self._name_id = name_id

    def __enter__(self):
        self._ids = self._tracer._begin()
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self._tracer._end(self._name_id, *self._ids, self._start)
        return False


class SpanTable:
    """Spans as parallel arrays; ``root`` holds the name id of the outermost
    span each span ran under (the benchmark's operation)."""

    def __init__(self, names, name, root, dur_s, self_s):
        self.names = names
        self.name = name
        self.root = root
        self.dur_s = dur_s
        self.self_s = self_s

    def select(self, names=(), prefix=None, roots=None, exclude_roots=()):
        ids = {i for i, n in enumerate(self.names)
               if n in names or (prefix is not None and n.startswith(prefix))}
        mask = np.isin(self.name, list(ids))
        if roots is not None:
            mask &= np.isin(self.root, [self.names.index(r) for r in roots if r in self.names])
        if exclude_roots:
            mask &= ~np.isin(self.root, [self.names.index(r) for r in exclude_roots
                                         if r in self.names])
        return mask
