"""One process of a batch workload: set up, print READY, measure passes.

Started by ``run.py`` (never by hand) as::

    python3 perfbench/batch_worker.py --workload census-generated \
        --seed 0 --rep 0 --budget 5 --trace 0 --run-dir DIR \
        [--spans-out FILE]

The parent times the interval from spawning this process to the
``READY`` line (``setup_s``).  Then the worker runs whole passes of the
workload's input until ``--budget`` seconds are used, checks each
pass's output digests against ``reference.json``, and prints one JSON
line with the timed parts of each pass (wall and CPU), checks and
(``--trace 1``) layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: The three figures of Section 8.1 (Figures 5, 6 and 7).
SCENARIOS = ("shared", "split", "colocated")

#: Generated queries per census pass.
CENSUS_N = 200

#: Census seeds every worker process runs, one pass each.  Generated
#: inputs differ in cost from seed to seed, so every run measures the
#: same pool, and each pool seed once per process so that its time is a
#: median; the benchmark seed picks the order of the passes.
CENSUS_POOL = 3


def load_reference() -> dict:
    with open(HERE / "reference.json") as handle:
        return json.load(handle)


class Workload:
    """Set-up and one pass of a batch workload, with output checks."""

    def __init__(
        self, name: str, seed: int, rep: int, run_dir: Path
    ) -> None:
        from repro.experiments import RunContext

        self.name = name
        self.run_dir = run_dir
        self.reference = load_reference()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.passes_run = 0
        if name.startswith("figures"):
            ctx = RunContext()
            self.catalog = ctx.catalog
            self.queries = ctx.queries
            self.tasks_per_pass = len(self.queries) * len(SCENARIOS)
        else:
            self.tasks_per_pass = CENSUS_N
            #: The pool in this process's pass order.
            self.census_seeds = [
                (seed + rep + index) % CENSUS_POOL
                for index in range(CENSUS_POOL)
            ]
        self.cache = None
        if name == "figures-warm":
            from repro.optimizer.plancache import PlanCache

            self.cache = PlanCache(run_dir / "warm-cache")
            self.one_pass()  # the prefill is part of set-up

    def one_pass(self, tracer=None) -> dict:
        """Run one pass; returns its timed parts (checks excluded).

        A part is a figure (its key) or a census (its seed); each maps
        to ``(wall seconds, CPU seconds)``.  A failed pass has no parts.
        """
        self.attempted += self.tasks_per_pass
        self.passes_run += 1
        root = tracer.begin("pass", "workload") if tracer else None
        try:
            if self.name.startswith("figures"):
                parts, failures = self._figures_pass()
            else:
                parts, failures = self._census_pass()
        except Exception as exc:  # a failed task fails the whole pass
            self.failed += self.tasks_per_pass
            self.errors.append(f"pass raised {type(exc).__name__}: {exc}")
            return {}
        finally:
            if root is not None:
                tracer.end(root)
        self.failed += failures
        return parts

    def _figures_pass(self) -> tuple[dict, int]:
        from repro.experiments import figure_to_csv, run_figure
        from repro.optimizer.plancache import PlanCache

        cache = self.cache
        cold_dir = None
        if cache is None:
            cold_dir = self.run_dir / f"cold-cache-{self.passes_run}"
            cache = PlanCache(cold_dir)
        parts = {}
        results = []
        for key in SCENARIOS:
            start, start_cpu = time.perf_counter(), time.process_time()
            result = run_figure(
                key, catalog=self.catalog, queries=self.queries,
                jobs=1, cache=cache,
            )
            parts[key] = (
                time.perf_counter() - start, time.process_time() - start_cpu
            )
            results.append((key, result))
        if cold_dir is not None:
            shutil.rmtree(cold_dir, ignore_errors=True)
        failures = 0
        for key, result in results:
            digest = hashlib.sha256(
                figure_to_csv(result).encode()
            ).hexdigest()
            if digest != self.reference["figures"][key]:
                failures += len(result.curves)
                self.errors.append(
                    f"figure {key}: csv digest {digest[:16]} differs "
                    f"from the reference"
                )
        return parts, failures

    def _census_pass(self) -> tuple[dict, int]:
        from repro.experiments import RunContext, run_generated_census

        seeds = self.census_seeds
        seed = seeds[(self.passes_run - 1) % len(seeds)]
        ctx = RunContext(jobs=1, seed=seed, cache=None)
        start, start_cpu = time.perf_counter(), time.process_time()
        run_generated_census(CENSUS_N, seed=seed, ctx=ctx)
        parts = {str(seed): (
            time.perf_counter() - start, time.process_time() - start_cpu
        )}
        digest = ctx.result_digests.get("generated_census")
        if digest != self.reference["census"]["digests"][seed]:
            self.errors.append(
                f"census seed {seed}: digest "
                f"{(digest or 'missing')[:16]} differs from the reference"
            )
            return parts, CENSUS_N
        return parts, 0


def run_for(workload: Workload, budget: float, tracer=None) -> list[dict]:
    """Whole passes until the next one would overrun ``budget``.

    The census runs the seed pool once instead.  Returns the timed
    parts of each pass (see :meth:`Workload.one_pass`).
    """
    if workload.name == "census-generated":
        return [workload.one_pass(tracer) for _ in workload.census_seeds]
    passes: list[dict] = []
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        passes.append(workload.one_pass(tracer))
        walls.append(sum(wall for wall, _ in passes[-1].values()))
        used = time.perf_counter() - start
        if used + statistics.median(walls) > budget:
            return passes


def traced_measurement(
    workload: Workload, budget: float, spans_out: Path
) -> dict:
    """Traced passes plus the layer metrics and counter cross-check."""
    from repro.obs.metrics import METRICS

    import tracing

    tracer = tracing.Tracer()
    tracing.install_offline(tracer)
    before = METRICS.snapshot()["counters"]
    try:
        passes = run_for(workload, budget, tracer)
    finally:
        tracer.uninstall()
    after = METRICS.snapshot()["counters"]
    spans = tracer.spans
    tracer.write(spans_out)
    return {
        "traced": passes,
        "traced_passes": len(passes),
        "layers": tracing.offline_layer_metrics(spans, len(passes)),
        "attributed_s": tracing.attributed_seconds(spans, "workload"),
        "root_s": tracing.layer_totals(spans)["workload"]["busy"],
        "mismatches": tracing.cross_check(
            tracing.offline_counts(spans), before, after
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args()

    workload = Workload(
        args.workload, args.seed, args.rep, args.run_dir
    )
    print("READY", flush=True)
    report: dict = {}
    budget = args.budget / 2 if args.trace else args.budget
    report["untraced"] = run_for(workload, budget)
    if args.trace:
        report.update(
            traced_measurement(workload, budget, args.spans_out)
        )
    report.update(
        attempted=workload.attempted,
        failed=workload.failed,
        errors=workload.errors,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
