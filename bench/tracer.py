"""Spans around calls into the remodyc layers, recorded from outside.

``Tracer.install`` swaps the public callables of each layer for wrappers
that record one span per call (name, start, end, parent span) in flat
arrays, and ``uninstall`` puts the originals back.  Nothing inside the
library changes; evaluation of single expressions is not wrapped, so its
cost shows as the self time of ``Engine.step``.
"""
from __future__ import annotations

import time
from array import array
from collections import defaultdict

from remodyc import ast, interp, parser, rng, typecheck, units
from remodyc.interp import Engine
from remodyc.memory import FileBackend, InMemoryBackend, MemoryImage

# (owner, attribute, span name, optional count taken from the result)
_TARGETS = (
    (parser, "tokenize", "parser.tokenize", len),
    (parser, "parse_model", "parser.parse", None),
    (parser, "pretty_print", "parser.print", None),
    (typecheck, "check_model", "typecheck.check", len),
    (Engine, "setup", "interp.setup", None),
    (Engine, "step", "interp.step", None),
    (Engine, "resume", "interp.resume", None),
    (rng, "sample_uniform", "rng.sample", None),
    (rng, "sample_normal", "rng.sample", None),
    (rng, "sample_gamma", "rng.sample", None),
    (rng, "sample_loglogistic", "rng.sample", None),
    (MemoryImage, "store", "memory.store", lambda frame: len(frame.values)),
    (MemoryImage, "apply_frame", "memory.apply_frame", None),
    (MemoryImage, "allocate", "memory.allocate", None),
    (MemoryImage, "kill", "memory.kill", None),
    (InMemoryBackend, "append_frame", "memory.append", None),
    (InMemoryBackend, "load_frame", "memory.load", None),
    (FileBackend, "append_frame", "memory.append", None),
    (FileBackend, "load_frame", "memory.load", None),
)
# parse_unit is imported by name into several modules; each copy is swapped.
_UNIT_MODULES = (units, parser, typecheck, interp, ast)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.extra = array("q")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, span_name: str, function, count=None):
        if span_name not in self.names:
            self.names.append(span_name)
        name_id = self.names.index(span_name)
        clock = time.perf_counter_ns
        stack = self._stack
        name, parent, start, end, extra = (
            self.name, self.parent, self.start, self.end, self.extra
        )

        def traced(*args, **kwargs):
            index = len(name)
            name.append(name_id)
            parent.append(stack[-1])
            end.append(0)
            extra.append(0)
            stack.append(index)
            start.append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if count is not None:
                extra[index] = count(result)
            return result

        return traced

    def _swap(self, owner, attribute: str, replacement) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        for owner, attribute, span_name, count in _TARGETS:
            self._swap(owner, attribute, self._wrap(span_name, getattr(owner, attribute), count))
        original = units.parse_unit
        wrapped = self._wrap("units.parse_unit", original)
        for module in _UNIT_MODULES:
            if getattr(module, "parse_unit", None) is original:
                self._swap(module, "parse_unit", wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def mark(self) -> int:
        """Index of the next span, to delimit the spans of one phase."""
        return len(self.name)

    def summary(self, phases: list[range]) -> dict[str, dict[str, float]]:
        """Per span name, over the spans in ``phases``: calls, inclusive
        and self nanoseconds, counted result sizes.  ``rng.sample`` keeps
        only calls not made from another sampler (gamma draws normals)."""
        duration = [e - s for s, e in zip(self.start, self.end)]
        children = [0] * len(duration)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                children[parent] += duration[index]
        sample_id = self.names.index("rng.sample") if "rng.sample" in self.names else -1
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ns": 0, "self_ns": 0, "extra": 0}
        )
        for index in (i for phase in phases for i in phase):
            name_id = self.name[index]
            parent = self.parent[index]
            if name_id == sample_id and parent >= 0 and self.name[parent] == sample_id:
                continue
            entry = totals[self.names[name_id]]
            entry["calls"] += 1
            entry["ns"] += duration[index]
            entry["self_ns"] += duration[index] - children[index]
            entry["extra"] += self.extra[index]
        return totals
