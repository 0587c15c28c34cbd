"""Outside-in span tracer for the latmac benchmark.

The tracer wraps the public functions and methods of the traced latmac
modules in every ``latmac.*`` namespace that binds them, records one span per
call (name, start, end, parent span, job id) in flat arrays, and turns the
spans into per-layer call counts and self times when the run ends.  Nothing
in the package is edited: :meth:`Tracer.install` rebinds names and
:meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter

TRACED_MODULES = ("cli", "latimer", "ideal", "order", "exactla", "quadratic")

# Arithmetic operators count as public methods; they are named without the
# underscores, so FieldElement.__mul__ is the span "order.FieldElement.mul".
OPERATORS = ("__add__", "__sub__", "__mul__", "__neg__", "__truediv__")


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.current_job = -1
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, refine=None, observe=None):
        """Return fn wrapped in a span called name.

        refine(args) may return a more specific span name for one call;
        observe(span_name, result) may return counter increments.
        """
        nid = self._name_id(name)
        clock = self.clock
        stack = self.stack
        names, parents, jobs = self.name, self.parent, self.job
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            i = len(starts)
            span_id = nid if refine is None else self._name_id(refine(args))
            names.append(span_id)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.current_job)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                self.counts.update(observe(self.names[span_id], result))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, modules, refine=None, observe=None):
        """Wrap the public callables defined in modules and rebind them in
        every loaded ``latmac`` namespace.

        refine and observe map span names to the hooks of :meth:`wrap`.
        """
        refine = refine or {}
        observe = observe or {}
        wrapped: dict[int, object] = {}
        for mod in modules:
            prefix = _short(mod.__name__)
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(value, type):
                    continue
                if not callable(value) or getattr(value, "__module__", None) != mod.__name__:
                    continue
                name = f"{prefix}.{attr}"
                wrapped[id(value)] = self.wrap(name, value, refine.get(name),
                                               observe.get(name))
            for cls in vars(mod).values():
                if isinstance(cls, type) and cls.__module__ == mod.__name__:
                    self._install_methods(prefix, cls, refine, observe)
        for ns_name, ns in list(sys.modules.items()):
            if ns is None or not (ns_name == "latmac" or ns_name.startswith("latmac.")):
                continue
            for attr, value in list(vars(ns).items()):
                w = wrapped.get(id(value))
                if w is not None:
                    self._set(ns, attr, w)

    def _install_methods(self, prefix, cls, refine, observe):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                kind, fn = type(raw), raw.__func__
            elif inspect.isfunction(raw):
                kind, fn = None, raw
            else:
                continue  # properties and plain class attributes
            name = f"{prefix}.{cls.__name__}.{attr.strip('_')}"
            w = self.wrap(name, fn, refine.get(name), observe.get(name))
            self._set(cls, attr, w if kind is None else kind(w))

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- analysis ---------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds.

        A span's self time is its duration minus the durations of its direct
        children, which nest inside it because the program is single-threaded.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def root_time(self) -> float:
        """Seconds covered by spans that have no parent."""
        return sum(self.end[i] - self.start[i]
                   for i in range(len(self.start)) if self.parent[i] < 0)

    def calls_by_job(self, name: str) -> Counter:
        nid = self._ids.get(name)
        return Counter(self.job[i] for i in range(len(self.name))
                       if self.name[i] == nid)

    def dump(self, path: str):
        """Write the spans to a compressed .npz file."""
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))
