"""Outside-in span tracing of the qdl package.

The package imports names with ``from .x import y``, so a function lives in
several module namespaces at once (``qdl.linalg.hermitian_eigenvalues`` is
also ``qdl.bell.hermitian_eigenvalues`` and ``qdl.infotheory...``).  Wrapping
it in its home module alone would miss every caller elsewhere.  ``Tracer``
therefore rebinds each wrapped function under every name that holds it in any
loaded ``qdl`` module, including values of module-level dicts such as
``verify.SUITES``, and restores all of them on ``uninstall``.

Each call records a span (name, start, end, parent, op id) in memory; the
spans are aggregated into per-layer calls and self time at the end.  Self time
is a span's duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "qdl"
TRACED_MODULES = ("states", "linalg", "bell", "visibility", "infotheory", "figures", "verify", "analysis")


class Tracer:
    """Records one span per call of every public function of the traced modules.

    ``observers`` maps a span name to ``fn(stats, args, kwargs, result)``,
    called after each successful call so a layer's counters (stacked matrices,
    optimizer outcomes) are taken where the work happens.
    """

    def __init__(self, observers=None, clock=time.perf_counter):
        self.clock = clock
        self.observers = dict(observers or {})
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.stats: dict[str, dict] = defaultdict(dict)
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple[dict, object, object]] = []

    def wrap(self, name: str, fn):
        observer = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.starts)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ops.append(self.op)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(self.clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = self.clock()
                self._stack.pop()
            if observer is not None:
                observer(self.stats[name], args, kwargs, result)
            return result

        return traced

    def install(self) -> int:
        """Wrap the public functions of TRACED_MODULES and rebind every reference; returns the count rebound."""
        wrappers: dict[int, tuple[object, object]] = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            namespace = vars(mod)
            for attr, obj in list(namespace.items()):
                self._rebind(namespace, attr, obj, wrappers)
                if isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        self._rebind(obj, key, value, wrappers)
        return len(self._undo)

    def _rebind(self, container: dict, key, value, wrappers) -> None:
        hit = wrappers.get(id(value))
        if hit is not None and hit[0] is value:
            container[key] = hit[1]
            self._undo.append((container, key, value))

    def uninstall(self) -> None:
        for container, key, original in reversed(self._undo):
            container[key] = original
        self._undo.clear()

    def self_times(self) -> list[float]:
        return self_times(self.starts, self.ends, self.parents)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, summed self time and summed inclusive time."""
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for name, start, end, own in zip(self.names, self.starts, self.ends, self.self_times()):
            entry = totals[name]
            entry["calls"] += 1
            entry["self_s"] += own
            entry["total_s"] += end - start
        return dict(totals)

    def write_spans(self, path) -> None:
        """Write all spans as gzip CSV: id,name,start_s,end_s,parent,op (times relative to the first span)."""
        origin = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("id,name,start_s,end_s,parent,op\n")
            for idx, (name, start, end, parent, op) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents, self.ops)
            ):
                fh.write(f"{idx},{name},{start - origin:.9f},{end - origin:.9f},{parent},{op}\n")


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the union of its children's intervals, clipped to the span."""
    children: dict[int, list[int]] = defaultdict(list)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = start
        for child in sorted(children.get(idx, ()), key=lambda c: starts[c]):
            lo = max(starts[child], reach)
            hi = min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out
