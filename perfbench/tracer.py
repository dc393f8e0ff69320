"""Span tracing around the public functions of each stackyfans layer.

The tracer wraps every public module-level function of the layer modules
and patches the wrapper into every ``stackyfans`` module namespace that
bound the original (``snf`` is bound in ``polyhedral``, ``fgab`` and
``constructions`` as well as ``zlinalg``).  Each call records one span:
span id, function, start, end, parent span and request id.  Spans stay in
memory until :meth:`Tracer.write`.

A function's self time is its span time minus the time of its direct child
spans; a layer's self time is the sum over its functions, which equals its
span time minus the time of child spans in other layers.  Probes that
measure a result (coefficient digits, faces found) run after the span
closes and are recorded as spans of the pseudo-layer ``trace``, so their
cost never lands in a layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = ("zlinalg", "fgab", "polyhedral", "stacky", "constructions", "cli")
_PROBE = "trace.probe"


def decimal_digits(x: int) -> int:
    """Decimal digit count of |x| from its bit length (str() caps at 4300 digits)."""
    x = abs(x)
    if x == 0:
        return 1
    d = (x.bit_length() - 1) * 30103 // 100000 + 1
    return d + 1 if x >= 10 ** d else d


def _max_abs(*matrices) -> int:
    best = 0
    for m in matrices:
        for row in m.entries:
            for x in row:
                if x > best or -x > best:
                    best = abs(x)
    return best


def _facet_count(face_list) -> int:
    """Number of facets: the maximal proper faces by ray inclusion."""
    top = max(len(f.rays) for f in face_list)
    proper = [frozenset(f.rays) for f in face_list if len(f.rays) < top]
    return sum(1 for a in proper if not any(a < b for b in proper))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [_PROBE]
        # one span is six consecutive entries: id, function, start ns,
        # end ns, parent id, request id
        self.spans = array("q")
        self.request = 0
        self._ids = itertools.count(1)
        self._stack = [0]
        self._patched: list[tuple[object, str, object]] = []
        self.max_coeff = 0
        self.faces_found = 0
        self.faces_facets: dict[tuple, int] = {}
        self.faces_calls: dict[tuple, int] = defaultdict(int)
        self.all_cones_calls = 0
        self.all_cones_repeats = 0
        self._fans_seen: set = set()
        self._fans_request = -1

    # -- probes ---------------------------------------------------------

    def _probe_snf(self, args, result) -> None:
        self.max_coeff = max(self.max_coeff, _max_abs(result.U, result.V))

    def _probe_hnf(self, args, result) -> None:
        self.max_coeff = max(self.max_coeff, _max_abs(result[1]))

    def _probe_faces(self, args, result) -> None:
        key = args[0].rays
        self.faces_found += len(result)
        self.faces_calls[key] += 1
        if key not in self.faces_facets:
            self.faces_facets[key] = _facet_count(result)

    def _probe_all_cones(self, args, result) -> None:
        if self._fans_request != self.request:
            self._fans_seen.clear()
            self._fans_request = self.request
        fan = args[0]
        self.all_cones_calls += 1
        if fan in self._fans_seen:
            self.all_cones_repeats += 1
        else:
            self._fans_seen.add(fan)

    # -- wrapping -------------------------------------------------------

    def _wrap(self, fn, probe=None):
        fid = len(self.names)
        self.names.append(f"{fn.__module__.split('.')[-1]}.{fn.__name__}")
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.extend((sid, fid, t0, t1, parent, tracer.request))
            if probe is not None:
                p0 = clock()
                probe(args, result)
                spans.extend((next(ids), 0, p0, clock(), parent, tracer.request))
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of every layer and patch all bindings."""
        modules = [importlib.import_module(f"stackyfans.{name}") for name in LAYERS]
        probes = {"zlinalg.snf": self._probe_snf,
                  "zlinalg.hermite_row_form": self._probe_hnf,
                  "polyhedral.faces": self._probe_faces,
                  "polyhedral.all_cones": self._probe_all_cones}
        wrapped = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                key = f"{mod.__name__.split('.')[-1]}.{attr}"
                wrapped[obj] = self._wrap(obj, probes.get(key))
        for name, mod in list(sys.modules.items()):
            if name != "stackyfans" and not name.startswith("stackyfans."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    # -- results --------------------------------------------------------

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per function name, from the spans."""
        s = self.spans
        child = defaultdict(int)
        for k in range(0, len(s), 6):
            child[s[k + 4]] += s[k + 3] - s[k + 2]
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        for k in range(0, len(s), 6):
            name = self.names[s[k + 1]]
            calls[name] += 1
            self_ns[name] += s[k + 3] - s[k + 2] - child.get(s[k], 0)
        return dict(calls), {n: v / 1e9 for n, v in self_ns.items()}

    def span_count(self) -> int:
        return len(self.spans) // 6

    def write(self, path: Path) -> None:
        """Spans as a JSON header line of names followed by raw int64 rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write((json.dumps({"names": self.names,
                                  "fields": ["id", "function", "start_ns", "end_ns",
                                             "parent", "request"]}) + "\n").encode())
            self.spans.tofile(fh)
