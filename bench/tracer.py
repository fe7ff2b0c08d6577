"""Span tracer that wraps qspectra's public functions and methods from the
outside, so the library itself carries no tracing code.

Every call of a wrapped function records one span: its name, start, end
and the span that was open when it began (its parent). Spans live in flat
arrays while the workload runs and are written out when it ends; layer
figures are then computed from them. A layer's self time is the time its
spans were open minus the time their child spans covered.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

PACKAGE = "qspectra"
#: Modules whose public names are wrapped, in the order they are patched.
TRACED_MODULES = ("intpoly", "algebraic", "spectrum", "expansions",
                  "witness", "serialize", "cli")


class Tracer:
    """In-memory span store. Span ids are assigned at entry, so a parent's
    id is always smaller than its children's."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self):
        return len(self.name)

    def add_span(self, name: str, parent: int, start: float,
                 end: float) -> int:
        """Record a finished span directly (used by tests)."""
        sid = len(self.name)
        self.name.append(self._name_id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return sid

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        names, parents, starts, ends = (self.name, self.parent, self.start,
                                        self.end)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return span

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method defined in the traced
        modules, and rebind each wrapped function wherever the package's
        modules imported it by name."""
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}")
                for m in TRACED_MODULES}
        replace: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__",
                                                   None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replace[id(obj)] = self.wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(f"{short}.{attr}", obj)
        for mod in [m for n, m in sys.modules.items()
                    if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            for attr, obj in list(vars(mod).items()):
                new = replace.get(id(obj))
                if new is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, new)

    def _wrap_class(self, prefix: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(f"{prefix}.{attr}", raw.__func__))
            elif isinstance(raw, classmethod):
                new = classmethod(self.wrap(f"{prefix}.{attr}", raw.__func__))
            elif inspect.isfunction(raw):
                new = self.wrap(f"{prefix}.{attr}", raw)
            else:
                continue
            self._patched.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as a JSON header line (names, count) followed by
        the raw name, parent, start and end arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self),
                      "arrays": ["name:i32", "parent:i32", "start:f64",
                                 "end:f64"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def self_times(tracer: Tracer) -> array:
    """Per-span self time: duration minus the durations of direct children.

    Children of one span never overlap (one thread, strictly nested calls),
    so the time they cover is the sum of their durations.
    """
    n = len(tracer)
    out = array("d", bytes(8 * n))
    start, end, parent = tracer.start, tracer.end, tracer.parent
    for i in range(n):
        dur = end[i] - start[i]
        out[i] += dur
        p = parent[i]
        if p >= 0:
            out[p] -= dur
    return out


def ancestor_flags(tracer: Tracer, is_marked) -> array:
    """flags[i] = 1 when span i or one of its ancestors has a name for which
    ``is_marked(name)`` holds. Parents precede children, so one pass does."""
    mark = [1 if is_marked(nm) else 0 for nm in tracer.names]
    n = len(tracer)
    flags = array("b", bytes(n))
    name, parent = tracer.name, tracer.parent
    for i in range(n):
        p = parent[i]
        flags[i] = mark[name[i]] or (flags[p] if p >= 0 else 0)
    return flags
