"""Spans recorded around calls into the program's public functions.

The program has no trace hooks of its own, so the tracer wraps functions
from outside: every module of the ``oddcycles`` package that holds a
reference to a traced function gets a wrapper in its place, and callers
inside the package reach the wrapper through their own module globals.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Iterator, Optional

# (module, function) pairs traced, with the attributes kept from each call.
# Each attribute function gets (result, positional args) and returns a dict.
TRACED: dict[tuple[str, str], Optional[Callable[..., dict]]] = {
    ("cli", "main"): None,
    ("resolver", "compute_C"): lambda r, a: {"reason": r.reason.value},
    ("search", "min_odd_cycle"): None,
    ("search", "modified_five_cycle"): lambda r, a: {
        "found": r.found is not None,
        "nodes": r.nodes_examined,
    },
    ("search", "meet_in_middle"): lambda r, a: {
        "n": r.length_tried,
        "found": r.found is not None,
        "nodes": r.nodes_examined,
    },
    ("search", "verify_cycle"): None,
    ("vectors", "vector_set"): lambda r, a: {"vectors": len(r)},
    ("arith", "enumerate_triples"): None,
    ("arith", "classify"): None,
    ("constructions", "triangle_cycle"): None,
    ("store", "append"): lambda r, a: {"bytes": len(a[1].to_json()) + 1},
    ("store", "load"): lambda r, a: {"records": len(r)},
    ("store", "merge"): None,
    ("store", "resolved_keys"): None,
    ("stats", "density_table"): None,
}

# Per-layer metrics taken from the spans, named <span>.<kind>.  Kinds: s is
# the time inside the span, self_s that time less its child spans, calls
# and found_frac count calls, and the others sum the attribute of that name
# (nodes are summed per engine because each engine counts different work).
# search.meet_in_middle.n<length> is the span split by cycle length, and
# resolver.path.<Reason> counts compute_C results by reason.
SPAN_METRICS = (
    "search.modified_five_cycle.s",
    "search.modified_five_cycle.calls",
    "search.modified_five_cycle.found_frac",
    "search.modified_five_cycle.nodes",
    "search.meet_in_middle.s",
    "search.meet_in_middle.calls",
    "search.meet_in_middle.found_frac",
    "search.meet_in_middle.nodes",
    "search.meet_in_middle.n5.s",
    "search.meet_in_middle.n7.s",
    "search.meet_in_middle.n9.s",
    "search.meet_in_middle.n11.s",
    "search.min_odd_cycle.self_s",
    "search.verify_cycle.s",
    "search.verify_cycle.calls",
    "resolver.compute_C.self_s",
    "resolver.compute_C.calls",
    "resolver.path.Triangle",
    "resolver.path.Searched",
    "resolver.path.Unresolved",
    "cli.main.self_s",
    "vectors.vector_set.s",
    "vectors.vector_set.calls",
    "vectors.vector_set.vectors",
    "arith.enumerate_triples.s",
    "arith.classify.s",
    "arith.classify.calls",
    "constructions.triangle_cycle.s",
    "constructions.triangle_cycle.calls",
    "store.append.s",
    "store.append.calls",
    "store.append.bytes",
    "store.load.s",
    "store.load.records",
    "store.merge.s",
    "store.resolved_keys.s",
    "stats.density_table.s",
)
UNITS = {"s": "s", "self_s": "s", "found_frac": "1", "bytes": "B"}


@contextlib.contextmanager
def patched(replacements: dict[int, Callable]) -> Iterator[None]:
    """Swap objects, keyed by id(), in every loaded oddcycles module."""
    saved = []
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name != "oddcycles" and not name.startswith("oddcycles."):
            continue
        for attr, val in list(vars(mod).items()):
            if id(val) in replacements:
                saved.append((mod, attr, val))
                setattr(mod, attr, replacements[id(val)])
    try:
        yield
    finally:
        for mod, attr, val in saved:
            setattr(mod, attr, val)


class Tracer:
    """In-memory spans: (id, parent id, operation id, name, start, end, attrs)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op: Optional[int] = None
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(
                    (sid, parent, self.op, name, start, end, {"error": type(exc).__name__})
                )
                raise
            end = time.perf_counter()
            self._stack.pop()
            extra = attrs(result, args) if attrs else {}
            self.spans.append((sid, parent, self.op, name, start, end, extra))
            return result

        return traced

    def installed(self) -> contextlib.AbstractContextManager:
        """Context in which every TRACED function records spans."""
        repl = {}
        for (mod, fname), attrs in TRACED.items():
            fn = getattr(importlib.import_module(f"oddcycles.{mod}"), fname)
            repl[id(fn)] = self.wrap(f"{mod}.{fname}", fn, attrs)
        return patched(repl)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end, attrs in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "op": op, "name": name,
                         "start": start, "end": end, **attrs}
                    )
                    + "\n"
                )

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer totals per traced pass, as {metric: (value, unit)}."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        s = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        sums = defaultdict(float)
        for sid, _, _, name, start, end, attrs in self.spans:
            dur = end - start
            s[name] += dur
            self_s[name] += dur - child_time[sid]
            calls[name] += 1
            for key in ("nodes", "vectors", "bytes", "records"):
                if key in attrs:
                    sums[f"{name}.{key}"] += attrs[key]
            if attrs.get("found"):
                sums[f"{name}.found"] += 1
            if "reason" in attrs:
                sums[f"resolver.path.{attrs['reason']}"] += 1
            if "n" in attrs:
                s[f"{name}.n{attrs['n']}"] += dur

        p = max(passes, 1)
        out: dict[str, tuple[float, str]] = {}
        for metric in SPAN_METRICS:
            span, _, kind = metric.rpartition(".")
            if kind == "found_frac":
                value = sums[f"{span}.found"] / calls[span] if calls[span] else 0.0
            elif kind in ("s", "self_s", "calls"):
                value = {"s": s, "self_s": self_s, "calls": calls}[kind][span] / p
            else:
                value = sums[metric] / p
            out[metric] = (value, UNITS.get(kind, "count"))
        return out
