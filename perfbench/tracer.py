"""In-memory tracer that wraps cdbg's public functions from outside.

Stage and top-level calls get one span each (name, start, end, parent).
Functions that run thousands to millions of times are aggregated instead:
a count and total time per (parent span, function). An aggregated call
made inside another aggregated call is counted too, but only the
outermost one is subtracted from the parent span, so

    self time = span duration - child span durations - outermost aggregated time

and the self times of all spans under an operation plus its outermost
aggregated time add up to the operation's traced wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.aggregates: dict[tuple[int, str], list[int]] = {}  # count, total_ns, outer_ns
        self._stack: list[int] = []
        self._agg_depth = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start_ns"] = _now()
        try:
            yield rec
        finally:
            rec["end_ns"] = _now()
            self._stack.pop()

    def _span_wrapper(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _aggregate_wrapper(self, fn, name):
        aggregates = self.aggregates
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._agg_depth += 1
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                self._agg_depth -= 1
                key = (stack[-1] if stack else -1, name)
                rec = aggregates.get(key)
                if rec is None:
                    rec = aggregates[key] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dt
                if not self._agg_depth:
                    rec[2] += dt

        return wrapper

    # -- installing wrappers -----------------------------------------------

    def wrap_function(self, module, attr: str, name: str, aggregate: bool) -> None:
        """Wrap module.attr in every loaded module that imported it by name."""
        original = getattr(module, attr)
        wrapped = (self._aggregate_wrapper if aggregate else self._span_wrapper)(original, name)
        prefix = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def wrap_method(self, cls, attr: str, name: str, aggregate: bool) -> None:
        raw = cls.__dict__[attr]
        make = self._aggregate_wrapper if aggregate else self._span_wrapper
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__, name))
        else:
            wrapped = make(raw, name)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def self_times_ns(self) -> dict[int, int]:
        out = {s["id"]: s["end_ns"] - s["start_ns"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end_ns"] - s["start_ns"]
        for (sid, _), (_, _, outer) in self.aggregates.items():
            if sid >= 0:
                out[sid] -= outer
        return out

    def subtree(self, root: int) -> set[int]:
        ids = {root}
        for s in self.spans:  # parents precede children
            if s["parent"] in ids:
                ids.add(s["id"])
        return ids

    def span_seconds(self, name: str, within: set[int] | None = None) -> list[float]:
        return [
            (s["end_ns"] - s["start_ns"]) / 1e9
            for s in self.spans
            if s["name"] == name and (within is None or s["id"] in within)
        ]

    def aggregate_totals(self, name: str, within: set[int] | None = None) -> tuple[int, float, float]:
        """(calls, total seconds, outermost seconds) of an aggregated function."""
        calls = total = outer = 0
        for (sid, fn), (c, t, o) in self.aggregates.items():
            if fn == name and (within is None or sid in within):
                calls += c
                total += t
                outer += o
        return calls, total / 1e9, outer / 1e9

    def to_json(self) -> dict:
        selfs = self.self_times_ns()
        return {
            "spans": [
                {
                    "id": s["id"],
                    "name": s["name"],
                    "parent": s["parent"],
                    "start_ns": s["start_ns"],
                    "end_ns": s["end_ns"],
                    "self_ns": selfs[s["id"]],
                }
                for s in self.spans
            ],
            "aggregates": [
                {"parent": sid, "name": fn, "calls": c, "total_ns": t, "outer_ns": o}
                for (sid, fn), (c, t, o) in sorted(self.aggregates.items())
            ],
        }
