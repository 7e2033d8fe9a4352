"""Spans and counters around the public functions of the mgonal layers.

`Tracer.install()` replaces every public function of the traced modules by
a timing wrapper, in every module namespace that holds a reference to it:
the defining module, modules that imported the name, and the package
re-exports.  That is where each caller looks the name up, so intra-module
calls (`localrep.shifted_represents_over_zp` -> `represents_over_zp`) and
function-level imports (`from .polygonal import form_to_shifted`) are seen.
No file of the package changes.

Every wrapped call is counted and timed.  A span (name, start, end, parent,
op id) is kept only for calls made directly by an op and for the coarse
functions in SPANS; the hot per-n functions are counted and their time
summed, so a census run does not keep one span per scanned n.  Self time is
a call's duration minus the time of the wrapped calls it made.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
from pathlib import Path
from time import perf_counter

MODULES = ("regcheck", "localrep", "polygonal", "numth", "density",
           "prodineq", "pipeline", "watson", "cli")

# Arithmetic leaves called inside the engines' inner loops.  Each call costs
# about as much as a wrapper, so they stay unwrapped and their time is the
# caller's self time.
LEAVES = {
    "numth.ord_p", "numth.unit_part", "numth.legendre", "numth.is_prime",
    "numth.smallest_nonresidue", "numth.big_product",
    "polygonal.polygonal_number", "polygonal.constants", "polygonal.delta_of",
    "localrep.hensel_exponent", "localrep.conservative_exponent",
    "prodineq.w_factor", "prodineq.lhs", "prodineq.rhs",
}

# Coarse calls that keep a span at any depth.
SPANS = {
    "cli.main", "pipeline.replay_all", "pipeline.replay_case",
    "pipeline.theorem_bounds", "prodineq.certify_all_t",
    "prodineq.verify_induction_step", "watson.stabilize", "density.eta",
    "regcheck.candidate_scan", "regcheck.regularity_scan",
    "regcheck.represented_set", "regcheck.represents_globally",
}


class Tracer:
    """In-memory spans and per-function counters for one process."""

    def __init__(self):
        # span: (id, parent id, op id, name, start, end, self seconds, depth)
        self.spans = []
        self.calls = {}      # name -> number of calls
        self.total = {}      # name -> seconds inside the call
        self.self_s = {}     # name -> seconds inside, minus wrapped callees
        self.edges = {}      # (caller name, callee name) -> number of calls
        self._stack = []     # open frames: [name, span id, callee seconds]
        self._op = None      # (op id, op start)
        self._ids = itertools.count(1)
        self._patched = []   # (module, attribute, original)

    # ---- ops

    def begin_op(self, op_id: int, name: str) -> None:
        span_id = next(self._ids)
        self._op = (op_id, perf_counter())
        self._stack.append(["op." + name, span_id, 0.0])

    def end_op(self) -> None:
        name, span_id, inner = self._stack.pop()
        op_id, start = self._op
        end = perf_counter()
        self.spans.append((span_id, None, op_id, name, start, end,
                           end - start - inner, 0))
        self._op = None

    # ---- wrapping

    def wrap(self, name: str, fn):
        keep_span = name in SPANS
        stack, spans, ids, edges = self._stack, self.spans, self._ids, self.edges
        calls, total, self_s = self.calls, self.total, self.self_s
        calls[name] = 0
        total[name] = 0.0
        self_s[name] = 0.0

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            depth = len(stack)
            kept = parent is not None and (keep_span or depth == 1)
            # frame[1] is the nearest kept span at or above this call
            frame = [name, next(ids) if kept else (parent and parent[1]), 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                calls[name] += 1
                total[name] += took
                self_s[name] += took - frame[2]
                if parent is not None:
                    parent[2] += took
                    key = (parent[0], name)
                    edges[key] = edges.get(key, 0) + 1
                    if kept:
                        spans.append((frame[1], parent[1], self._op[0], name,
                                      start, end, took - frame[2], depth))

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Patch every reference to a traced function in the loaded mgonal
        modules.  Every layer is imported first so all references exist."""
        for short in MODULES:
            importlib.import_module(f"mgonal.{short}")
        targets = {}
        for short in MODULES:
            mod = sys.modules[f"mgonal.{short}"]
            for attr, fn in vars(mod).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or name in LEAVES
                        or inspect.isgeneratorfunction(fn)):
                    continue
                targets[id(fn)] = (fn, self.wrap(name, fn))
        for key, mod in list(sys.modules.items()):
            if key != "mgonal" and not key.startswith("mgonal."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # ---- reading

    def durations(self, name: str):
        """Durations (s) of the kept spans of `name`, in call order."""
        return [s[5] - s[4] for s in self.spans if s[3] == name]

    def depth1(self, name: str):
        """(op id, seconds) of each call of `name` made directly by an op."""
        return [(s[2], s[5] - s[4]) for s in self.spans
                if s[3] == name and s[7] == 1]

    def module_self_seconds(self) -> dict:
        """Self seconds per module; 'bench' is op time outside any wrapped
        call (building inputs, capturing output, unwrapped constructors)."""
        out = {short: 0.0 for short in MODULES}
        for name, secs in self.self_s.items():
            out[name.split(".", 1)[0]] += secs
        out["bench"] = sum(s[6] for s in self.spans if s[7] == 0)
        return out

    def write(self, path: str, **meta) -> None:
        """Write the spans and counters as one JSON document."""
        doc = dict(meta)
        doc["fields"] = ["id", "parent", "op", "name", "start", "end",
                         "self_s", "depth"]
        doc["spans"] = self.spans
        doc["calls"] = self.calls
        doc["total_s"] = self.total
        doc["self_s"] = self.self_s
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)
