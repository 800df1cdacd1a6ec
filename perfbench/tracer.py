"""Per-layer spans taken from outside the program.

`Tracer` replaces the functions that each layer's callers look up in their
own module namespace (for example `causalbandit.phase1.parent_probabilities`,
which phase 1 imported from `inference`) with wrappers that record one span
per call: layer name, parent span, start, end and what `digest` reads from
the arguments and result. Spans stay in memory; `layer_metrics` folds them
into the per-layer metrics once the traced round has ended.
"""
from __future__ import annotations

import time

import numpy as np

# (module, attribute, layer name): every lookup the traced layers' callers make.
TRACE_POINTS = (
    ("phase1", "parent_probabilities", "inference.parent"),
    ("phase2", "parent_probabilities", "inference.parent"),
    ("allocation", "parent_probabilities", "inference.parent"),
    ("strategies", "target_probabilities", "inference.target"),
    ("strategies", "target_probability", "inference.target"),
    ("inference", "sample_batch", "inference.sample"),
    ("strategies", "run_phase1", "phase1"),
    ("strategies", "run_phase2", "phase2"),
    ("phase2", "minimize", "allocation.minimize"),
    ("allocation", "minimize", "allocation.minimize"),
    ("allocation", "build_exact_objective", "allocation.objective"),
    ("sweep", "run_causal_bandit", "strategies.proposed"),
    ("sweep", "run_successive_rejects", "strategies.baseline"),
    ("sweep", "run_uniform_baseline", "strategies.baseline"),
    ("sweep", "simple_regret", "sweep.regret"),
    ("sweep", "load_structure", "sweep.structure"),
    ("sweep", "build_arms", "sweep.structure"),
    ("sweep", "parse_bif", "bif.parse"),
    ("bif", "parse_bif", "bif.parse"),
    ("sweep", "random_conditional_table", "model.tables"),
)


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _phase1_digest(args, kwargs, result):
    pairs = sum(len(result.seen[n]) for n in result.uncertain_nodes)
    seen = sum(int(result.seen[n].sum()) for n in result.uncertain_nodes)
    return {"pairs": pairs, "seen": seen, "scanned": pairs * result.per_pair}


def _minimize_digest(args, kwargs, result):
    return {"iterations": result.iterations, "converged": result.converged,
            "gap": result.gap, "value": result.value}


def _strategy_digest(args, kwargs, result):
    return {"used": result.experiments_used, "horizon": _arg(args, kwargs, 3, "horizon")}


DIGESTS = {
    "inference.sample": lambda args, kwargs, result: {"draws": _arg(args, kwargs, 3, "count")},
    "phase1": _phase1_digest,
    "phase2": lambda args, kwargs, result: {"draws": result.draws},
    "allocation.minimize": _minimize_digest,
    "allocation.objective": lambda args, kwargs, result: {"terms": result[0].n_terms},
    "strategies.proposed": _strategy_digest,
    "strategies.baseline": _strategy_digest,
}

NO_PARENT = -1


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, package):
        self._package = package
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # one entry per call: [layer, parent index, start, end, digest]
        self.spans: list[list] = []

    def __enter__(self) -> "Tracer":
        for module_name, attribute, layer in TRACE_POINTS:
            module = getattr(self._package, module_name)
            original = getattr(module, attribute)
            self._saved.append((module, attribute, original))
            setattr(module, attribute, self._wrap(original, layer, DIGESTS.get(layer)))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attribute, original = self._saved.pop()
            setattr(module, attribute, original)

    def _wrap(self, original, layer, digest):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [layer, stack[-1] if stack else NO_PARENT, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if digest is not None:
                span[4] = digest(args, kwargs, result)
            return result

        return traced


def layer_table(spans) -> dict[str, dict[str, float]]:
    """Calls, total seconds and self seconds per layer. A span's self time is
    its duration minus the durations of the spans it called directly."""
    child_time = [0.0] * len(spans)
    for layer, parent, start, end, _ in spans:
        if parent != NO_PARENT:
            child_time[parent] += end - start
    table: dict[str, dict[str, float]] = {}
    for i, (layer, _, start, end, _) in enumerate(spans):
        row = table.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[i]
    return table


def layer_metrics(spans, wall_s: float, cells: int) -> dict[str, float]:
    """Every per-layer metric of one traced round. Layers the workload does not
    reach read 0, and so does a ratio whose base is 0."""
    table = layer_table(spans)

    def total(layer):
        return table.get(layer, {}).get("total_s", 0.0)

    def self_time(layer):
        return table.get(layer, {}).get("self_s", 0.0)

    def calls(layer):
        return table.get(layer, {}).get("calls", 0)

    def digests(layer):
        return [s[4] for s in spans if s[0] == layer]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    phase1 = digests("phase1")
    solves = digests("allocation.minimize")
    strategies = digests("strategies.proposed") + digests("strategies.baseline")
    rel_gaps = [d["gap"] / d["value"] for d in solves if d["value"] > 0]
    score_s = sum(end - start for layer, parent, start, end, _ in spans
                  if layer == "inference.target" and parent != NO_PARENT
                  and spans[parent][0] == "strategies.proposed")
    covered = sum(end - start for _, parent, start, end, _ in spans if parent == NO_PARENT)
    return {
        "inference.parent_calls": calls("inference.parent"),
        "inference.parent_s": total("inference.parent"),
        "inference.target_calls": calls("inference.target"),
        "inference.target_s": total("inference.target"),
        "inference.sample_calls": calls("inference.sample"),
        "inference.sample_draws": sum(d["draws"] for d in digests("inference.sample")),
        "inference.sample_s": total("inference.sample"),
        "phase1.s": total("phase1"),
        "phase1.self_s": self_time("phase1"),
        "phase1.pairs": sum(d["pairs"] for d in phase1),
        "phase1.match_ratio": ratio(sum(d["seen"] for d in phase1),
                                    sum(d["scanned"] for d in phase1)),
        "phase2.s": total("phase2"),
        "phase2.self_s": self_time("phase2"),
        "phase2.draws": sum(d["draws"] for d in digests("phase2")),
        "allocation.objective_s": total("allocation.objective"),
        "allocation.terms": sum(d["terms"] for d in digests("allocation.objective")),
        "allocation.minimize_s": total("allocation.minimize"),
        "allocation.solves": len(solves),
        "allocation.iterations": sum(d["iterations"] for d in solves),
        "allocation.converged_ratio": ratio(sum(d["converged"] for d in solves), len(solves)),
        "allocation.rel_gap": float(np.median(rel_gaps)) if rel_gaps else 0.0,
        "strategies.score_s": score_s,
        "strategies.baseline_self_s": self_time("strategies.baseline"),
        "strategies.budget_use": ratio(sum(d["used"] for d in strategies),
                                       sum(d["horizon"] for d in strategies)),
        "sweep.cells": cells,
        "sweep.regret_s": total("sweep.regret"),
        "sweep.structure_calls": calls("sweep.structure"),
        "sweep.structure_s": total("sweep.structure"),
        "bif.parse_s": total("bif.parse"),
        "model.tables_s": total("model.tables"),
        "trace.covered_ratio": ratio(covered, wall_s),
    }
