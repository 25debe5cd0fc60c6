"""In-memory span recorder and the layer wrappers of the traced runs.

Spans are recorded from the benchmark's own files: each wrapper
replaces a public function on the module (or class) attribute that its
caller actually looks up at call time.  ``parametric.py`` imports
``enumerate_root_plans`` by name, so the DP is wrapped as
``repro.optimizer.parametric.enumerate_root_plans``, not on
``repro.optimizer.dp``.  A wrapper on the wrong binding would record
nothing; :func:`cross_check` compares the wrapped call counts with the
program's own ``METRICS`` counters so that shows as a mismatch.

A span is ``[name, layer, start, end, parent, rid, attrs]``.  The
parent comes from a :class:`contextvars.ContextVar`, so nesting is
right both in plain calls and across the server's asyncio tasks.  A
span's self time is its duration minus the time its direct children
cover.
"""

from __future__ import annotations

import contextvars
import functools
import json
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

NAME, LAYER, START, END, PARENT, RID, ATTRS = range(7)


class Tracer:
    """Spans kept in memory until the run writes them out."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._current: contextvars.ContextVar[int] = (
            contextvars.ContextVar("perfbench_span", default=-1)
        )
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------
    def begin(self, name: str, layer: str, rid: Any = None) -> tuple:
        """Open a span that encloses the spans begun until :meth:`end`."""
        index = self.open_span(name, layer, rid)
        return index, self._current.set(index)

    def end(self, handle: tuple, attrs: "dict | None" = None) -> None:
        index, token = handle
        record = self.spans[index]
        record[END] = time.perf_counter()
        if attrs:
            record[ATTRS] = attrs
        self._current.reset(token)

    def open_span(self, name: str, layer: str, rid: Any = None) -> int:
        """A span ended later by :meth:`close_span` (async waits)."""
        index = len(self.spans)
        self.spans.append(
            [name, layer, time.perf_counter(), None,
             self._current.get(), rid, None]
        )
        return index

    def close_span(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()

    # -- wrapping -------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        layer: str,
        attrs: "Callable[..., dict] | None" = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``attrs(result, *args, **kwargs)`` may return per-call numbers
        (sizes, hit flags) stored on the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            handle = tracer.begin(name, layer)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer.end(
                    handle,
                    attrs(result, *args, **kwargs) if attrs else None,
                )

        self.replace(owner, attr, original, wrapper)

    def wrap_async(
        self,
        owner: Any,
        attr: str,
        name: str,
        layer: str,
        rid: "Callable[..., Any] | None" = None,
    ) -> None:
        """:meth:`wrap` for a coroutine function (``ServeApp.decide``)."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            handle = tracer.begin(
                name, layer, rid(*args, **kwargs) if rid else None
            )
            try:
                return await original(*args, **kwargs)
            finally:
                tracer.end(handle)

        self.replace(owner, attr, original, wrapper)

    def replace(self, owner, attr, original, wrapper) -> None:
        """Install ``wrapper`` as ``owner.attr`` until :meth:`uninstall`."""
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------
    def write(self, path: Path) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span[NAME],
                    "layer": span[LAYER],
                    "start_s": span[START] - origin,
                    "end_s": (
                        None if span[END] is None else span[END] - origin
                    ),
                    "parent": span[PARENT],
                    "rid": span[RID],
                    "attrs": span[ATTRS],
                }) + "\n")


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def durations(spans: list[list]) -> np.ndarray:
    return np.array([
        (s[END] - s[START]) if s[END] is not None else 0.0 for s in spans
    ])


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per layer: ``busy`` (outermost spans) and ``self`` seconds.

    ``busy`` sums spans whose parent belongs to another layer, so a
    layer calling itself is not counted twice; ``self`` subtracts the
    direct children's durations from every span.
    """
    dur = durations(spans)
    child_time = np.zeros(len(spans))
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += dur[index]
    totals: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        entry = totals.setdefault(span[LAYER], {"busy": 0.0, "self": 0.0})
        parent = span[PARENT]
        if parent < 0 or spans[parent][LAYER] != span[LAYER]:
            entry["busy"] += dur[index]
        entry["self"] += dur[index] - child_time[index]
    return totals


def count(spans: list[list], name: str) -> int:
    return sum(1 for s in spans if s[NAME] == name)


def attr_sum(spans: list[list], name: str, key: str) -> float:
    return float(sum(
        s[ATTRS][key] for s in spans if s[NAME] == name and s[ATTRS]
    ))


def percentile(values, q: float) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.percentile(values, q)) if values.size else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# The offline layers (figures and census; also the server's warm-up)
# ----------------------------------------------------------------------
def _dp_attrs(result, *args, **kwargs) -> dict:
    return {"root_plans": len(result[0]) if result else 0}


def _candidate_attrs(result, usages, *args, **kwargs) -> dict:
    return {
        "offered": len(usages),
        "kept": len(result) if result is not None else 0,
    }


def _load_attrs(result, *args, **kwargs) -> dict:
    return {"hit": int(result is not None)}


def _gtc_attrs(result, initial, candidates, region, *args, **kwargs):
    rows = int(region.n_vertices)
    return {
        "rows": rows,
        "madds": rows * len(candidates) * len(initial.values),
    }


def _sweep_attrs(result, matrix, costs, *args, **kwargs) -> dict:
    return {"rows": int(costs.shape[0])}


def install_offline(tracer: Tracer) -> None:
    """Wrap the optimizer, cache, kernel, sweep and engine layers."""
    import repro.core.candidates as candidates
    import repro.core.worstcase as worstcase
    import repro.experiments.sweeps as sweeps
    import repro.experiments.usage_analysis as usage_analysis
    import repro.experiments.worst_case as worst_case
    import repro.optimizer.parametric as parametric
    import repro.optimizer.plancache as plancache
    from repro.experiments.engine import get_experiment

    tracer.wrap(parametric, "enumerate_root_plans",
                "dp.enumerate_root_plans", "optimizer.dp", _dp_attrs)
    tracer.wrap(parametric, "candidate_optimal_indices",
                "candidates.candidate_optimal_indices", "core.candidates",
                _candidate_attrs)
    tracer.wrap(candidates, "feasible_point", "lp.feasible_point",
                "core.candidates")
    tracer.wrap(plancache, "candidate_plans",
                "parametric.candidate_plans", "optimizer.parametric")
    tracer.wrap(plancache.PlanCache, "key_for", "plancache.key_for",
                "optimizer.plancache")
    tracer.wrap(plancache.PlanCache, "load", "plancache.load",
                "optimizer.plancache", _load_attrs)
    tracer.wrap(plancache.PlanCache, "store", "plancache.store",
                "optimizer.plancache")
    tracer.wrap(worst_case, "worst_case_curve", "worstcase.curve",
                "core.worstcase")
    tracer.wrap(worstcase, "worst_case_gtc", "worstcase.gtc",
                "core.worstcase", _gtc_attrs)
    tracer.wrap(usage_analysis, "monte_carlo_shares",
                "sweeps.monte_carlo_shares", "experiments.sweeps")
    tracer.wrap(usage_analysis, "sweep_optimal_totals",
                "sweeps.sweep_optimal_totals", "experiments.sweeps")
    tracer.wrap(sweeps, "sweep_winners", "sweeps.sweep_winners",
                "experiments.sweeps", _sweep_attrs)
    for module in (worst_case, usage_analysis):
        tracer.wrap(module, "run_experiment", "engine.run_experiment",
                    "experiments.engine")
    for experiment in ("figure", "census"):
        spec = get_experiment(experiment)
        tracer.wrap(spec, "run_task", "engine.run_task",
                    "experiments.engine")
        tracer.wrap(spec, "absorb", "engine.absorb", "experiments.engine")


def offline_counts(spans: list[list]) -> dict[str, float]:
    """Wrapped counts comparable with ``METRICS`` counters."""
    hits = attr_sum(spans, "plancache.load", "hit")
    return {
        "plancache.hits": hits,
        "plancache.misses": count(spans, "plancache.load") - hits,
        "parametric.candidate_sets": count(
            spans, "parametric.candidate_plans"
        ),
    }


def offline_layer_metrics(
    spans: list[list], passes: int
) -> dict[str, float]:
    """The per-layer metrics of the offline layers, per pass."""
    totals = layer_totals(spans)
    per = 1.0 / passes if passes else 0.0

    def busy(layer):
        return totals.get(layer, {}).get("busy", 0.0) * per

    def self_time(layer):
        return totals.get(layer, {}).get("self", 0.0) * per

    counts = offline_counts(spans)
    hits = counts["plancache.hits"]
    misses = counts["plancache.misses"]

    def named_time(name):
        return float(durations([s for s in spans if s[NAME] == name]).sum())

    return {
        "optimizer.dp.calls": count(spans, "dp.enumerate_root_plans") * per,
        "optimizer.dp.busy_s": busy("optimizer.dp"),
        "optimizer.dp.root_plans": attr_sum(
            spans, "dp.enumerate_root_plans", "root_plans"
        ) * per,
        "core.candidates.busy_s": busy("core.candidates"),
        "core.candidates.lp_solves": count(spans, "lp.feasible_point") * per,
        "core.candidates.kept_ratio": ratio(
            attr_sum(spans, "candidates.candidate_optimal_indices", "kept"),
            attr_sum(
                spans, "candidates.candidate_optimal_indices", "offered"
            ),
        ),
        "optimizer.parametric.calls": (
            counts["parametric.candidate_sets"] * per
        ),
        "optimizer.parametric.self_s": self_time("optimizer.parametric"),
        "optimizer.plancache.hits": hits * per,
        "optimizer.plancache.misses": misses * per,
        "optimizer.plancache.hit_ratio": ratio(hits, hits + misses),
        "optimizer.plancache.key_s": named_time("plancache.key_for") * per,
        "optimizer.plancache.load_s": named_time("plancache.load") * per,
        "optimizer.plancache.store_s": named_time("plancache.store") * per,
        "core.worstcase.calls": count(spans, "worstcase.gtc") * per,
        "core.worstcase.busy_s": busy("core.worstcase"),
        "core.worstcase.vertex_rows": attr_sum(
            spans, "worstcase.gtc", "rows"
        ) * per,
        "core.worstcase.madds_computed": attr_sum(
            spans, "worstcase.gtc", "madds"
        ) * per,
        "experiments.sweeps.calls": count(spans, "sweeps.sweep_winners") * per,
        "experiments.sweeps.busy_s": busy("experiments.sweeps"),
        "experiments.sweeps.rows": attr_sum(
            spans, "sweeps.sweep_winners", "rows"
        ) * per,
        "experiments.engine.tasks": count(spans, "engine.run_task") * per,
        "experiments.engine.self_s": self_time("experiments.engine"),
        "experiments.engine.absorb_s": named_time("engine.absorb") * per,
    }


def attributed_seconds(spans: list[list], root_layer: str) -> float:
    """Self time of every layer except the benchmark's root spans."""
    return sum(
        entry["self"]
        for layer, entry in layer_totals(spans).items()
        if layer != root_layer
    )


def cross_check(
    wrapped: dict[str, float], before: dict, after: dict
) -> list[str]:
    """Counters whose ``METRICS`` delta differs from the wrapped count."""
    mismatches = []
    for name, value in wrapped.items():
        delta = after.get(name, 0) - before.get(name, 0)
        if delta != value:
            mismatches.append(
                f"{name}: wrapped {value:g} vs METRICS {delta:g}"
            )
    return mismatches
