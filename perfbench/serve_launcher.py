"""Start the decision server the way ``repro serve --workers 1`` does.

Run by ``run.py`` as::

    python3 perfbench/serve_launcher.py --cache-dir DIR [--trace-out FILE]

It builds the same :class:`~repro.serve.store.CandidateStore` the CLI
builds, warms all 22 TPC-H queries under ``split`` and calls
:func:`repro.serve.server.run_server`, the entry behind ``repro
serve``.  With ``--trace-out`` it first wraps the serve layers (and
the optimizer layers the warm-up runs); after the SIGTERM drain it
writes the spans next to that file and a JSON summary to it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import tracing
from openloop import request_id

#: The 22 TPC-H queries the store is warmed with.
QUERIES = tuple(f"Q{i}" for i in range(1, 23))
SCENARIO = "split"
DELTA = 100.0


def _probe_attrs(result, entry, costs) -> dict:
    return {"probes": len(costs)}


def _flush_attrs(result, batcher) -> dict:
    return {"keys": int(result or 0)}


def install_serve(tracer: tracing.Tracer) -> None:
    """Wrap protocol, store, batcher, decide kernel and front end."""
    import repro.serve.server as server
    from repro.serve.batcher import MicroBatcher
    from repro.serve.store import CandidateStore

    tracer.wrap(server, "parse_decide_request", "protocol.parse",
                "serve.protocol")
    tracer.wrap(CandidateStore, "entry", "store.entry", "serve.store")
    tracer.wrap(server, "decide_group", "decide.group", "serve.decide",
                _probe_attrs)
    tracer.wrap(MicroBatcher, "flush_now", "batcher.flush",
                "serve.batcher", _flush_attrs)
    tracer.wrap_async(
        server.ServeApp, "decide", "server.decide", "serve.server",
        rid=lambda app, payload: request_id(payload),
    )
    submit = MicroBatcher.submit

    def traced_submit(self, request):
        # The queue wait lasts from submit until the tick resolves the
        # future, so the span is closed from the future's callback.
        index = tracer.open_span("batcher.wait", "serve.batcher")
        future = submit(self, request)
        future.add_done_callback(lambda _: tracer.close_span(index))
        return future

    tracer.replace(MicroBatcher, "submit", submit, traced_submit)


def serve_summary(spans: list[list]) -> dict:
    """Layer numbers and wrapped counts of one server lifetime."""
    def named(name, serving_only=False):
        return [
            s for s in spans if s[tracing.NAME] == name
            and (not serving_only or s[tracing.PARENT] >= 0)
        ]

    groups = named("decide.group")
    flushes = named("batcher.flush")
    decide_by_rid: dict[str, list[float]] = {}
    for span in named("server.decide"):
        if span[tracing.RID] is not None:
            decide_by_rid.setdefault(span[tracing.RID], []).append(
                span[tracing.END] - span[tracing.START]
            )
    probes = sum(s[tracing.ATTRS]["probes"] for s in groups)
    wrapped = tracing.offline_counts(spans)
    wrapped.update({
        "serve.requests": len(named("batcher.wait")),
        "serve.batches": sum(
            1 for s in flushes if s[tracing.ATTRS]["keys"] > 0
        ),
        "serve.empty_ticks": sum(
            1 for s in flushes if s[tracing.ATTRS]["keys"] == 0
        ),
    })
    return {
        "layers": {
            "serve.protocol.parse_us.p50": tracing.percentile(
                tracing.durations(named("protocol.parse")), 50) * 1e6,
            # Entries looked up while serving; warm-up builds have no
            # parent span.
            "serve.store.entry_us.p50": tracing.percentile(
                tracing.durations(named("store.entry", True)), 50) * 1e6,
            "serve.batcher.queue_wait_ms.p50": tracing.percentile(
                tracing.durations(named("batcher.wait")), 50) * 1e3,
            "serve.batcher.queue_wait_ms.p99": tracing.percentile(
                tracing.durations(named("batcher.wait")), 99) * 1e3,
            "serve.decide.busy_us_per_probe": tracing.ratio(
                float(tracing.durations(groups).sum()), probes) * 1e6,
            "serve.decide.probes": float(probes),
            "serve.server.decide_ms.p50": tracing.percentile(
                tracing.durations(named("server.decide")), 50) * 1e3,
        },
        "offline_layers": tracing.offline_layer_metrics(spans, 1),
        "wrapped": wrapped,
        "decide_by_rid": decide_by_rid,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache-dir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args()

    from repro.obs.metrics import METRICS
    from repro.optimizer.plancache import PlanCache
    from repro.serve.server import run_server
    from repro.serve.store import CandidateStore

    tracer = None
    if args.trace_out is not None:
        tracer = tracing.Tracer()
        tracing.install_offline(tracer)
        install_serve(tracer)

    def store_factory() -> CandidateStore:
        return CandidateStore(
            scale=100.0, delta=DELTA, cache=PlanCache(args.cache_dir)
        )

    code = run_server(
        "127.0.0.1", 0, store_factory, warm=QUERIES,
        warm_scenario=SCENARIO, reload_interval=0.0, workers=1,
    )
    if tracer is not None:
        tracer.uninstall()
        summary = serve_summary(tracer.spans)
        summary["counters"] = METRICS.snapshot()["counters"]
        tracer.write(args.trace_out.with_suffix(".spans.jsonl"))
        with open(args.trace_out, "w") as handle:
            json.dump(summary, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
