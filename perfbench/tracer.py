"""Per-layer tracing installed from outside the ``shiftlab`` package.

The package imports names by value (``from .core import contains_forbidden``),
so a wrapper must replace the function at every module that holds a
reference to it, not only in the defining module.  ``install`` does that by
scanning every loaded ``shiftlab`` module for the original object.

Two kinds of wrapper:

* span: one record (name, start, end, parent) per call, kept in memory.
  Used for the layer entry points, which are called at most tens of
  thousands of times per job.
* leaf: a counter and accumulated time only, no record.  Used for the hot
  calls (``run_program``, ``contains_forbidden``), which run hundreds of
  thousands of times; their time is charged to the enclosing span so that
  its self time stays right.

A span's self time is its duration minus the time covered by its child spans
and leaf calls.  Calls are sequential in one thread, so the children of a
span never overlap and the covered time is their sum.
"""

from __future__ import annotations

import importlib
import os
import sys
from time import perf_counter

# Span records are lists: [name, start, end, parent index, leaf seconds].
_START, _END, _LEAF = 1, 2, 4


def _dir_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(root, f))
        for root, _, files in os.walk(path)
        for f in files
    )


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        # name -> {"calls": n, "s": seconds, ...extra counters}
        self.leaves: dict[str, dict] = {}
        self.counters: dict[str, int] = {}

    def bump(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def span(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def leaf(self, name, fn, tally=None):
        spans, stack = self.spans, self._stack
        stat = self.leaves.setdefault(name, {"calls": 0, "s": 0.0})

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat["calls"] += 1
                stat["s"] += dt
                if stack:
                    spans[stack[-1]][_LEAF] += dt
            if tally is not None:
                tally(stat, result)
            return result

        return wrapper

    def generator(self, name, fn):
        stat = self.leaves.setdefault(name, {"calls": 0, "yielded": 0})

        def wrapper(*args, **kwargs):
            stat["calls"] += 1
            for item in fn(*args, **kwargs):
                stat["yielded"] += 1
                yield item

        return wrapper

    def summary(self) -> dict:
        """Per-name totals: calls, inclusive seconds and self seconds for
        spans; the raw counters for leaves and generators."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, leaf_s) in enumerate(self.spans):
            stat = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            stat["calls"] += 1
            stat["s"] += end - start
            stat["self_s"] += end - start - child_s[i] - leaf_s
        for name, stat in self.leaves.items():
            out[name] = dict(stat)
        for key, n in self.counters.items():
            name, _, field = key.rpartition(".")
            out.setdefault(name, {"calls": 0})[field] = n
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def span_records(self) -> list[list]:
        return [list(rec[:4]) for rec in self.spans]


def _count(key, predicate):
    def after(tracer, args, kwargs, result):
        tracer.bump(key, int(predicate(result)))

    return after


def _save_bytes(tracer, args, kwargs, result):
    tracer.bump("deepshift.save_family.bytes", _dir_bytes(args[1]))


def _tally_run(stat, outcome):
    stat["halted"] = stat.get("halted", 0) + outcome.halted
    stat["steps"] = stat.get("steps", 0) + outcome.steps


# (module, function, kind, hook).  Metric names are "<module>.<function>".
TARGETS = (
    ("core", "contains_forbidden", "leaf", None),
    ("core", "iter_rect_patterns", "generator", None),
    ("admissibility", "extendable", "span",
     _count("admissibility.extendable.accepted", lambda r: r is not None)),
    ("admissibility", "lex_first_completion", "span", None),
    ("admissibility", "count_admissible", "span", None),
    ("complexity", "run_program", "leaf", _tally_run),
    ("complexity", "printable_strings", "span", None),
    ("complexity", "lex_first_incompressible", "span", None),
    ("complexity", "incompressible_permutations", "span", None),
    ("deepshift", "build_family", "span", None),
    ("deepshift", "save_family", "span", _save_bytes),
    ("deepshift", "load_family", "span", None),
    ("deepshift", "member", "span",
     _count("deepshift.member.accepted", lambda r: r.accepted)),
    ("deepshift", "verify_archive", "span", None),
    ("lowcfg", "build_Pk", "span", None),
    ("lowcfg", "choose_border", "span", None),
    ("lowcfg", "standard_square", "span", None),
    ("lowcfg", "describe_subpattern", "span", None),
    ("lowcfg", "reconstruct_subpattern", "span", None),
    ("lowcfg", "lowcfg_roundtrip", "span", None),
    ("epitomes", "simple_pattern_census", "span", None),
    ("epitomes", "epitome_property_check", "span", None),
    ("epitomes", "verify_enforcer", "span", None),
    ("epitomes", "border_epitome_consistency", "span", None),
    ("cli", "main", "span", None),
)


def install(tracer: Tracer) -> int:
    """Wrap every target at every lookup site; returns the number of module
    attributes replaced."""
    importlib.import_module("shiftlab.cli")  # loads every layer module
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "shiftlab" or name.startswith("shiftlab."))]
    patched = 0
    for modname, fname, kind, hook in TARGETS:
        original = getattr(importlib.import_module(f"shiftlab.{modname}"), fname)
        name = f"{modname}.{fname}"
        if kind == "span":
            wrapped = tracer.span(name, original, hook)
        elif kind == "leaf":
            wrapped = tracer.leaf(name, original, hook)
        else:
            wrapped = tracer.generator(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    patched += 1
    return patched
