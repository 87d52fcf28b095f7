"""Spans around every public function of each ``cdcmip`` layer.

Modules import each other's functions by name, so a wrapper is bound at
every module attribute that holds the original function object.  Each call
appends one span (name, start, end, parent) to an in-memory list; the
runner writes the list out when the run ends.  A layer's self time is its
spans' durations minus the part their child spans cover.

Three functions run millions of times per pass and only count their
calls, so that recording them does not swamp the spans around them; their
time stays in the caller's span.  Methods are not wrapped either, except
the constructors of the two input types: their time stays in the span of
the function that calls them.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cdc", "jtree", "cover", "sosk", "transform", "formulate", "geom", "oracle", "cli")
COUNT_ONLY = {"cover.is_biclique", "cdc.is_feasible_set", "sosk.exact_coordinate"}
CONSTRUCTORS = {"cdc": ("IndexSetFamily",), "geom": ("PlanarPartition",)}

# Span names that make up each per-layer time metric (self time, summed).
TIME_METRICS = {
    "cdc.family_s": ["cdc.IndexSetFamily"],
    "cdc.conflict_graph_s": ["cdc.conflict_graph"],
    "jtree.intersection_graph_s": ["jtree.intersection_graph"],
    "jtree.mst_s": ["jtree.maximum_spanning_tree", "jtree.maximum_spanning_tree_of"],
    "jtree.junction_test_s": ["jtree.is_junction_tree"],
    "cover.separation_s": ["cover.separation"],
    "cover.merge_s": ["cover.merge_cover"],
    "cover.verify_s": ["cover.verify_cover"],
    "sosk.cover_s": ["sosk.sosk_cover", "sosk.sosk_merged_cover", "sosk.sosk_base_cover"],
    "transform.rewrite_s": ["transform.build_equivalent_family"],
    "formulate.write_lp_s": ["formulate.write_lp"],
    "geom.partition_s": ["geom.PlanarPartition"],
    "geom.dual_graph_s": ["geom.dual_graph"],
    "geom.to_cdc_s": ["geom.partition_to_cdc"],
    "geom.savings_s": ["geom.savings_report"],
    "oracle.support_s": ["oracle.support_validity"],
    "oracle.ideal_s": ["oracle.is_ideal", "oracle.lp_vertices"],
    "oracle.brute_tree_s": ["oracle.brute_admits_junction_tree"],
    "oracle.min_cover_s": ["oracle.min_biclique_cover_exact"],
}
CALL_METRICS = {
    "jtree.junction_test_calls": "jtree.is_junction_tree",
    "cover.verify_calls": "cover.verify_cover",
    "cover.is_biclique_calls": "cover.is_biclique",
}
ORACLE_VERDICTS = (
    "oracle.support_validity",
    "oracle.is_ideal",
    "oracle.brute_admits_junction_tree",
    "oracle.min_biclique_cover_exact",
)


def _result_counts(name: str, result, counts: Counter) -> None:
    """Sizes read off a layer's output at its boundary."""
    if name == "cdc.conflict_graph":
        counts["cdc.conflict_edges"] += result.edge_count
    elif name == "jtree.intersection_graph":
        counts["jtree.intersection_pairs"] += len(result.mids)
    elif name == "cover.separation":
        counts["cover.bicliques_separated"] += len(result)
    elif name == "cover.merge_cover":
        counts["cover.bicliques_merged"] += len(result)
    elif name == "sosk.sosk_cover":
        counts["sosk.cover_size"] += len(result)
    elif name == "transform.build_equivalent_family":
        counts["transform.extra_continuous"] += result.extra_continuous
    elif name == "formulate.write_lp":
        counts["formulate.lp_bytes"] += len(result.encode())
    elif name in ORACLE_VERDICTS:
        counts["oracle.verdicts"] += 1


class Tracer:
    """Installs and removes the wrappers; holds the spans of the current round."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.counts: Counter = Counter()
        self.builder_depth = 0
        self._bindings: list = []  # (owner, attribute, original)
        self._plan = self._collect()

    @staticmethod
    def _collect():
        modules = [m for n, m in sys.modules.items() if n == "cdcmip" or n.startswith("cdcmip.")]
        plan = []
        for layer in LAYERS:
            mod = sys.modules[f"cdcmip.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                owners = [(m, a) for m in modules for a, v in vars(m).items() if v is obj]
                plan.append((f"{layer}.{attr}", obj, owners))
            for cls_name in CONSTRUCTORS.get(layer, ()):
                cls = getattr(mod, cls_name)
                plan.append((f"{layer}.{cls_name}", cls.__init__, [(cls, "__init__")]))
        return plan

    def install(self) -> None:
        for name, fn, owners in self._plan:
            wrapper = self._counter(name, fn) if name in COUNT_ONLY else self.span(name, fn)
            for owner, attr in owners:
                self._bindings.append((owner, attr, fn))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._bindings):
            setattr(owner, attr, fn)
        self._bindings.clear()

    def reset(self) -> None:
        self.spans = []
        self.stack = [-1]
        self.counts = Counter()

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def span(self, name, fn):
        """``fn`` wrapped to record one span per call."""
        tracer = self
        clock = time.perf_counter_ns
        builder = name.startswith("formulate.build_")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            if builder:
                tracer.builder_depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
                if builder:
                    tracer.builder_depth -= 1
            if builder and tracer.builder_depth == 0:
                tracer.counts["formulate.variables"] += len(result.variables)
            _result_counts(name, result, tracer.counts)
            return result

        return wrapper

    def round_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since ``reset``."""
        child = defaultdict(int)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        for idx, (name, start, end, _) in enumerate(self.spans):
            self_ns[name] += end - start - child[idx]
            calls[name] += 1
        out: dict[str, float] = {}
        for metric, names in TIME_METRICS.items():
            out[metric] = sum(self_ns[n] for n in names) / 1e9
        out["formulate.build_s"] = sum(
            v for n, v in self_ns.items() if n.startswith("formulate.build_")
        ) / 1e9
        for layer in LAYERS:
            prefix = layer + "."
            out[f"{layer}.self_s"] = sum(v for n, v in self_ns.items() if n.startswith(prefix)) / 1e9
            out[f"{layer}.calls"] = sum(v for n, v in calls.items() if n.startswith(prefix)) + sum(
                v for n, v in self.counts.items() if n in COUNT_ONLY and n.startswith(prefix)
            )
        for metric, name in CALL_METRICS.items():
            out[metric] = calls[name] + self.counts[name]
        for metric in (
            "cdc.conflict_edges",
            "jtree.intersection_pairs",
            "cover.bicliques_separated",
            "cover.bicliques_merged",
            "sosk.cover_size",
            "transform.extra_continuous",
            "formulate.variables",
            "formulate.lp_bytes",
            "oracle.verdicts",
        ):
            out[metric] = self.counts[metric]
        sep = out["cover.bicliques_separated"]
        out["cover.merge_ratio"] = out["cover.bicliques_merged"] / sep if sep else 0.0
        out["trace.spans"] = len(self.spans)
        return out


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
