"""Seeded closed-loop load generator + the serve latency BENCH record.

Drives ``POST /v1/decide`` at a target QPS over ``--connections``
keep-alive connections.  The request stream is fully deterministic in
``--seed``: probes are log-uniform samples from each query's feasible
region (the same :meth:`FeasibleRegion.sample` the Monte-Carlo sweeps
use), quantized with the protocol's significant-digit rule, and
round-robined over the query list — so two runs with one seed issue
byte-identical request bodies, which is what makes the offline digest
verification a meaningful CI gate rather than a tautology.

Output is a schema-versioned ``BENCH_serve.json`` record (the same
schema every benchmark module emits): ``results.decide_latency``
carries the full latency distribution (median/IQR gate through
``repro bench --compare``), ``results.decide_p99`` pins the tail as
its own gated series, and ``extras`` holds achieved QPS, the latency
percentiles, the server's batch-size histogram and the decisions
digest.  Medians are appended to the perf-history store so ``repro
bench trend`` judges serve latency alongside every other series.

``--verify-offline`` replays the request stream through the canonical
single-probe kernel (``serve/decide.py::verify_offline`` — the exact
computation behind offline ``repro explain``) and compares SHA-256
digests of the response cores; ``--p99-gate`` turns the tail latency
into an exit code.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from typing import Any, Mapping, Sequence

import numpy as np

from ..experiments.scenarios import scenario
from ..obs.bench import build_bench_record, write_bench_record
from ..obs.history import append_history, bench_history_entries
from .decide import verify_offline
from .protocol import (
    decisions_digest,
    parse_decide_request,
    quantize_costs,
)
from .store import CandidateStore

__all__ = ["LoadgenResult", "build_requests", "run_loadgen"]


class LoadgenError(RuntimeError):
    """A run-level load generator failure (bad responses, digests)."""


class LoadgenResult:
    """Everything one closed-loop run measured."""

    def __init__(
        self,
        requests: list,
        responses: list,
        latencies: np.ndarray,
        wall_seconds: float,
        target_qps: float,
        errors: int,
        server_metrics: "Mapping[str, Any] | None",
    ) -> None:
        self.requests = requests
        self.responses = responses
        self.latencies = latencies
        self.wall_seconds = wall_seconds
        self.target_qps = target_qps
        self.errors = errors
        self.server_metrics = server_metrics

    @property
    def achieved_qps(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.latencies) / self.wall_seconds

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.latencies, q))

    @property
    def digest(self) -> str:
        return decisions_digest(self.responses)


def build_requests(
    store: CandidateStore,
    queries: Sequence[str],
    scenario_key: str,
    count: int,
    seed: int,
    quant_digits: int,
) -> list[dict[str, Any]]:
    """The deterministic request stream: parsed protocol requests.

    One RNG stream per query (seeded by position), probes sampled
    from the query's feasible region and round-robined — identical
    for any connection count or QPS.
    """
    config = scenario(scenario_key)
    per_query: dict[str, list] = {}
    share = count // len(queries) + 1
    for position, name in enumerate(queries):
        entry = store.entry(name, scenario_key)
        query = store.query_spec(name)
        layout = config.layout_for(query)
        region = config.region(layout, store.delta)
        rng = np.random.default_rng([seed, position])
        samples = region.sample(rng, share)
        per_query[name] = [
            quantize_costs(
                (float(v) for v in sample.values), quant_digits
            )
            for sample in samples
        ]
        assert entry.dimension == len(per_query[name][0])
    requests = []
    for index in range(count):
        name = queries[index % len(queries)]
        cost = per_query[name][index // len(queries)]
        requests.append(
            parse_decide_request(
                {
                    "query": name,
                    "scenario": scenario_key,
                    "cost_vector": list(cost),
                },
                digits=quant_digits,
            )
        )
    return requests


# ----------------------------------------------------------------------
# HTTP client (keep-alive, stdlib asyncio streams)
# ----------------------------------------------------------------------
class _Connection:
    """One keep-alive connection issuing sequential POSTs."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: "asyncio.StreamReader | None" = None
        self.writer: "asyncio.StreamWriter | None" = None

    async def _ensure(self) -> None:
        if self.writer is None or self.writer.is_closing():
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port
            )

    async def post(
        self, path: str, payload: Any
    ) -> tuple[int, Any]:
        await self._ensure()
        body = json.dumps(payload).encode()
        head = (
            f"POST {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        )
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        return await self._read_response()

    async def get(self, path: str) -> tuple[int, Any]:
        await self._ensure()
        head = (
            f"GET {path} HTTP/1.1\r\nHost: {self.host}\r\n\r\n"
        )
        self.writer.write(head.encode("latin-1"))
        await self.writer.drain()
        return await self._read_response()

    async def _read_response(self) -> tuple[int, Any]:
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        close = False
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection":
                close = value.strip().lower() == "close"
        body = await self.reader.readexactly(length) if length else b""
        if close:
            self.writer.close()
            self.writer = None
        return status, json.loads(body.decode() or "null")

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.writer = None


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
async def _drive(
    host: str,
    port: int,
    requests: "list[dict]",
    qps: float,
    connections: int,
    warmup: int,
) -> LoadgenResult:
    """Issue the stream at the target rate; gather latencies.

    Closed-loop per connection: each connection owns the request
    indices ``i % connections == its rank`` and never pipelines; the
    global schedule spaces request ``i`` at ``i / qps`` seconds, so
    an overloaded server pushes achieved QPS below target instead of
    queueing unboundedly.
    """
    conns = [_Connection(host, port) for _ in range(connections)]
    # Warmup probes (first request repeated) prime candidate sets and
    # connections outside the measured window.
    if requests and warmup:
        for _ in range(warmup):
            status, payload = await conns[0].post(
                "/v1/decide", _wire(requests[0])
            )
            if status != 200:
                raise LoadgenError(
                    f"warmup request failed ({status}): {payload}"
                )
    latencies = np.zeros(len(requests))
    responses: list = [None] * len(requests)
    errors = 0
    start = time.perf_counter()

    async def worker(rank: int) -> int:
        failed = 0
        conn = conns[rank]
        for index in range(rank, len(requests), connections):
            due = start + index / qps
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.perf_counter()
            status, payload = await conn.post(
                "/v1/decide", _wire(requests[index])
            )
            latencies[index] = time.perf_counter() - sent
            if status != 200:
                failed += 1
                responses[index] = {"error": payload, "status": status}
            else:
                responses[index] = payload
        return failed

    results = await asyncio.gather(
        *(worker(rank) for rank in range(connections))
    )
    errors = sum(results)
    wall = time.perf_counter() - start
    metrics = None
    try:
        status, metrics = await conns[0].get("/metrics")
        if status != 200:
            metrics = None
    except (ConnectionError, asyncio.IncompleteReadError, OSError):
        metrics = None
    for conn in conns:
        conn.close()
    return LoadgenResult(
        requests=requests,
        responses=responses,
        latencies=latencies,
        wall_seconds=wall,
        target_qps=qps,
        errors=errors,
        server_metrics=metrics,
    )


def _wire(request: Mapping[str, Any]) -> dict[str, Any]:
    """A parsed request back onto the wire shape."""
    return {
        "query": request["query"],
        "scenario": request["scenario"],
        "cost_vector": list(request["cost"]),
    }


# ----------------------------------------------------------------------
# BENCH record assembly
# ----------------------------------------------------------------------
def _stats_block(values: np.ndarray) -> dict[str, float]:
    q25, q50, q75 = np.percentile(values, [25, 50, 75])
    return {
        "median_seconds": float(q50),
        "iqr_seconds": float(q75 - q25),
        "rounds": int(values.size),
        "mean_seconds": float(values.mean()),
        "min_seconds": float(values.min()),
        "max_seconds": float(values.max()),
    }


def _pinned_block(value: float, rounds: int) -> dict[str, float]:
    """A single pinned quantity in the 6-field results shape."""
    return {
        "median_seconds": float(value),
        "iqr_seconds": 0.0,
        "rounds": int(rounds),
        "mean_seconds": float(value),
        "min_seconds": float(value),
        "max_seconds": float(value),
    }


def bench_record_from(
    result: LoadgenResult, catalog_sha: "str | None"
) -> dict[str, Any]:
    """The schema-versioned BENCH record one loadgen run emits."""
    counters = (result.server_metrics or {}).get("counters", {})
    histograms = (result.server_metrics or {}).get("histograms", {})
    extras = {
        "target_qps": result.target_qps,
        "achieved_qps": result.achieved_qps,
        "requests": int(len(result.latencies)),
        "errors": int(result.errors),
        "p50_seconds": result.percentile(50),
        "p95_seconds": result.percentile(95),
        "p99_seconds": result.percentile(99),
        "decisions_digest": result.digest,
        "server_requests": counters.get("serve.requests"),
        "server_coalesced": counters.get("serve.coalesced"),
        "server_empty_ticks": counters.get("serve.empty_ticks"),
        "batch_size": histograms.get("serve.batch_size"),
    }
    results = {
        "decide_latency": _stats_block(result.latencies),
        "decide_p99": _pinned_block(
            result.percentile(99), len(result.latencies)
        ),
    }
    return build_bench_record(
        benchmark="serve",
        results=results,
        extras=extras,
        catalog_sha=catalog_sha,
        metrics=result.server_metrics,
    )


# ----------------------------------------------------------------------
# CLI entry point (behind `repro loadgen`)
# ----------------------------------------------------------------------
def run_loadgen(
    store: CandidateStore,
    queries: Sequence[str],
    scenario_key: str,
    qps: float,
    count: int,
    seed: int,
    connections: int,
    quant_digits: int,
    warmup: int,
    host: "str | None",
    port: "int | None",
    self_serve_app=None,
    bench_out: "str | None" = "BENCH_serve.json",
    verify: bool = False,
    p99_gate: "float | None" = None,
    append_to_history: bool = True,
) -> int:
    """Run the closed loop end to end; returns the exit code.

    With ``self_serve_app`` set (a started :class:`ServeApp` is built
    by the caller), the generator targets an in-process server — the
    mode the bench-smoke CI job and the tests use; otherwise it
    targets ``host:port``.
    """
    requests = build_requests(
        store, queries, scenario_key, count, seed, quant_digits
    )

    async def _run() -> LoadgenResult:
        if self_serve_app is not None:
            app_host, app_port = await self_serve_app.start(
                "127.0.0.1", 0
            )
            try:
                return await _drive(
                    app_host, app_port, requests, qps,
                    connections, warmup,
                )
            finally:
                await self_serve_app.drain()
        return await _drive(
            host, port, requests, qps, connections, warmup
        )

    result = asyncio.run(_run())
    if result.errors:
        print(
            f"loadgen: {result.errors} request(s) failed",
            file=sys.stderr,
        )
        return 1

    record = bench_record_from(result, store.catalog_sha)
    if bench_out:
        target = write_bench_record(record, bench_out)
        print(f"loadgen: wrote {target}", file=sys.stderr)
        if append_to_history:
            entries = bench_history_entries(record, source=str(target))
            history = append_history(entries, None)
            print(
                f"history: appended {len(entries)} series point(s) "
                f"to {history}",
                file=sys.stderr,
            )
    print(
        f"loadgen: {len(result.latencies)} request(s) in "
        f"{result.wall_seconds:.2f}s — achieved "
        f"{result.achieved_qps:.1f}/{result.target_qps:g} qps, "
        f"p50 {result.percentile(50) * 1e3:.2f}ms, "
        f"p95 {result.percentile(95) * 1e3:.2f}ms, "
        f"p99 {result.percentile(99) * 1e3:.2f}ms"
    )

    code = 0
    if verify:
        entries_map = {
            (request["query"], request["scenario"]): store.entry(
                request["query"], request["scenario"]
            )
            for request in requests
        }
        offline = verify_offline(entries_map, requests)
        offline_digest = decisions_digest(offline)
        if offline_digest == result.digest:
            print(
                f"verify-offline: digest parity OK "
                f"({len(requests)} decision(s), "
                f"{result.digest[:16]})"
            )
        else:
            print(
                "verify-offline: DIGEST MISMATCH — online "
                f"{result.digest[:16]} vs offline "
                f"{offline_digest[:16]}",
                file=sys.stderr,
            )
            code = 1
    if p99_gate is not None:
        p99 = result.percentile(99)
        if p99 > p99_gate:
            print(
                f"p99 gate: FAIL — {p99 * 1e3:.2f}ms > "
                f"{p99_gate * 1e3:.2f}ms",
                file=sys.stderr,
            )
            code = 1
        else:
            print(
                f"p99 gate: OK — {p99 * 1e3:.2f}ms <= "
                f"{p99_gate * 1e3:.2f}ms"
            )
    return code
