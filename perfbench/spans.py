"""Span recorder for the traced run.

The recorder wraps routenet's public layer functions from the outside: each
wrapped call appends one span ``[name, start, end, parent, op]`` to an
in-memory list.  A function is replaced in every ``routenet`` module
namespace that holds it, so a call made through an imported name (for
example ``normalize`` as seen by ``routing``, or ``canonicalize_with_cert``
as seen by ``NetSum.add``) is recorded too.  Modules are fetched through
``importlib``: ``routenet.translate`` as an attribute is the function, not
the submodule.

A span's self time is its duration minus the durations of its direct
children.  Per-layer metrics are sums of self time, call counts and a few
counters that hooks read from arguments and results.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter

# Per-layer time metric -> spans whose self times it sums.
LAYER_TIMES = {
    "lang.parse_s": ("lang.parse_term", "lang.parse_region_ctx"),
    "lang.typecheck_s": ("lang.typecheck_amadio", "lang.typecheck_lthis"),
    "lang.embed_s": ("lang.embed_lthis",),
    "lang.interp_s": ("lang.values",),
    "translate.translate_s": ("translate.translate",),
    "translate.close_s": ("translate.close",),
    "rewrite.normalize_s": ("rewrite.normalize",),
    "rewrite.find_redexes_s": ("rewrite.find_redexes",),
    "rewrite.apply_redex_s": ("rewrite.apply_redex",),
    "rewrite.reduction_graph_s": ("rewrite.reduction_graph",),
    "proofnet.canonicalize_s": ("proofnet.canonicalize_with_cert",),
    "proofnet.serialize_s": ("proofnet.serialize",),
    "proofnet.parse_s": ("proofnet.parse",),
    "routing.build_area_s": ("routing.build_area",),
    "routing.read_area_s": ("routing.read_area",),
    "routing.trace_net_s": ("routing.trace_net",),
    "routing.compose_areas_s": ("routing.compose_areas",),
    "routing.transit_s": ("routing.transit",),
    "routing.semantics_s": ("routing.semantics",),
    "paths.count_paths_all_s": ("paths.count_paths_all",),
}

# Functions recorded as spans named "module.function": every function in
# LAYER_TIMES, and compile_program for its hook.
TRACED = sorted({n for names in LAYER_TIMES.values() for n in names} | {"translate.compile_program"})

# Per-layer call-count metric -> spans it counts.
LAYER_CALLS = {
    "lang.typecheck_calls": ("lang.typecheck_amadio", "lang.typecheck_lthis"),
    "rewrite.find_redexes_calls": ("rewrite.find_redexes",),
    "proofnet.canonicalize_calls": ("proofnet.canonicalize_with_cert",),
    "paths.count_paths_all_calls": ("paths.count_paths_all",),
}

# Every per-layer metric and its unit, in report order.
UNITS = {
    **{m: "s" for m in LAYER_TIMES},
    **{m: "count" for m in LAYER_CALLS},
    "translate.net_cells": "count",
    "rewrite.step_us": "us",
    "rewrite.steps": "count",
    "rewrite.steps_nd": "count",
    "rewrite.summands_created": "count",
    "rewrite.summands_annihilated": "count",
    "rewrite.dedup_ratio": "ratio",
    "proofnet.canonicalize_max_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


# Hooks read counters from a wrapped call: (counts, parent span name,
# result, positional arguments).


def _on_compile(counts, parent, out, args):
    counts["translate.net_cells"] += len(out.cells)


def _on_apply(counts, parent, out, args):
    counts["rewrite.steps"] += 1
    counts["rewrite.steps_nd"] += args[1].rule == "nd"
    counts["rewrite.summands_created"] += len(out)
    counts["rewrite.summands_annihilated"] += not out


def _on_find(counts, parent, out, args):
    if not out and parent == "rewrite.normalize":
        counts["normal_reached"] += 1


def _on_normalize(counts, parent, out, args):
    counts["normal_distinct"] += len(out)


HOOKS = {
    "translate.compile_program": _on_compile,
    "rewrite.apply_redex": _on_apply,
    "rewrite.find_redexes": _on_find,
    "rewrite.normalize": _on_normalize,
}


class Recorder:
    """Records spans of wrapped routenet calls while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = [-1]
        self._op = -1
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent < 0:  # outside an op (oracle checks): not recorded
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, parent, self._op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, spans[parent][0], out, args)
            return out

        return wrapper

    def install(self):
        # keyed by id: module namespaces also hold unhashable values
        wrappers = {}
        for name in TRACED:
            mod, fn_name = name.split(".")
            fn = getattr(importlib.import_module(f"routenet.{mod}"), fn_name)
            wrappers[id(fn)] = self._wrap(name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "routenet" or mod_name.startswith("routenet.")):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    self._installed.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, val in self._installed:
            setattr(mod, attr, val)
        self._installed.clear()

    def op(self, op_id: int, fn):
        """Run one op as a root span; its self time is the op's own glue."""
        self._op = op_id
        rec = ["op", 0.0, 0.0, -1, op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn()
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            self._op = -1

    def self_times(self) -> tuple[Counter, Counter, float]:
        """Self time and call count per span name, and the longest
        canonicalization in ms."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, calls = Counter(), Counter()
        longest = 0.0
        for k, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[k]
            calls[name] += 1
            if name == "proofnet.canonicalize_with_cert":
                longest = max(longest, end - start)
        return self_s, calls, longest * 1000.0

    def metrics(self, passes: int, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics per pass over the workload's inputs."""
        self_s, calls, longest_ms = self.self_times()
        out: dict[str, float] = {}
        for m, names in LAYER_TIMES.items():
            out[m] = sum(self_s[n] for n in names) / passes
        for m, names in LAYER_CALLS.items():
            out[m] = sum(calls[n] for n in names) // passes
        for m in (
            "translate.net_cells",
            "rewrite.steps",
            "rewrite.steps_nd",
            "rewrite.summands_created",
            "rewrite.summands_annihilated",
        ):
            out[m] = self.counts[m] // passes
        steps = self.counts["rewrite.steps"]
        search_apply = self_s["rewrite.find_redexes"] + self_s["rewrite.apply_redex"]
        out["rewrite.step_us"] = search_apply / steps * 1e6 if steps else 0.0
        reached = self.counts["normal_reached"]
        out["rewrite.dedup_ratio"] = self.counts["normal_distinct"] / reached if reached else 0.0
        out["proofnet.canonicalize_max_ms"] = longest_ms
        out["trace.overhead_ratio"] = overhead_ratio
        return {m: out[m] for m in UNITS}

    def write(self, path, stamp: dict):
        """Write the spans, start times relative to the first span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[n], round((a - t0) * 1e6, 3), round((b - a) * 1e6, 3), p, op]
            for n, a, b, p, op in self.spans
        ]
        doc = {
            **stamp,
            "span_fields": ["name", "start_us", "dur_us", "parent", "op"],
            "names": names,
            "spans": rows,
        }
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))
