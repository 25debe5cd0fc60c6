"""The repository benchmark: four workloads, end-to-end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload figures-cold --seed 0 \
        --seconds 12 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``figures-cold`` -- Figures 5/6/7 (22 TPC-H queries, scale 100,
  default deltas, ``jobs=1``) against a fresh empty plan cache per pass;
* ``figures-warm`` -- the same figures against a plan cache filled
  during set-up;
* ``census-generated`` -- ``run_generated_census(200, s)``, colocated,
  no cache, ``jobs=1``, for each ``s`` of a fixed 3-seed pool;
* ``serve-decide`` -- ``repro serve --workers 1`` in its own process,
  warmed with all 22 queries under ``split``, driven over at most
  ``nproc`` (at most 2) keep-alive connections.

Every run prints a table of its metrics (name, value, unit, sample
count) and, as its last line, one JSON object with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
Outputs are checked against ``reference.json`` (figures, census) and
against an offline replay (serve); a mismatch fails the run's
operations and makes the command exit 1.  Nothing is written outside
``.perfbench-out/`` in the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import openloop

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

BATCH = ("figures-cold", "figures-warm", "census-generated")
WORKLOADS = BATCH + ("serve-decide",)

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Every child process must be done by then (the run limit is 180 s).
DEADLINE_S = 165.0

#: Serve workload sizes.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
WALL_REQUESTS = 500
STEP_REQUESTS = 1000
FIXED_RATES = (200.0, 500.0)
SEARCH_FACTOR = 1.5
SEARCH_RESOLUTION = 1.15
SEARCH_MIN_RATE = 50.0
SEARCH_MAX_RATE = 8000.0
#: Seconds of scheduled traffic the ceiling search may add.
SEARCH_BUDGET_S = 10.0
#: Rate steps per server: the fixed rates plus the longest search.
MAX_STEPS = 16

class BenchError(RuntimeError):
    """The benchmark could not run (not: the program gave a wrong answer)."""


class Run:
    """Book-keeping of one benchmark invocation."""

    def __init__(self, args: argparse.Namespace, units: dict) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.units = units
        self.started = time.perf_counter()
        self.dir = OUT / f"run-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: name -> (value, samples)
        self.metrics: dict[str, tuple[float, int]] = {}
        self.notes: list[str] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), str(HERE)] + [
                part for part in [env.get("PYTHONPATH")] if part
            ]
        )
        # The program's default cache and journal roots, kept inside
        # this run's directory so nothing lands in the repository.
        env["REPRO_CACHE_DIR"] = str(self.dir / "repro-cache")
        # Every workload is single-process (``jobs=1``); a BLAS thread
        # pool spinning on a shared two-core machine only adds noise.
        env["OPENBLAS_NUM_THREADS"] = "1"
        env["OMP_NUM_THREADS"] = "1"
        return env

    def put(self, name: str, value: float, samples: int) -> None:
        self.metrics[name] = (float(value), int(samples))


def median(values) -> float:
    values = [v for v in values if v == v]  # drop NaN (failed passes)
    return statistics.median(values) if values else float("nan")


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
def spawn_batch(run: Run, rep: int, budget: float) -> tuple[float, dict]:
    """One worker process; returns (set-up seconds, its report)."""
    command = [
        sys.executable, str(HERE / "batch_worker.py"),
        "--workload", run.workload, "--seed", str(run.seed),
        "--rep", str(rep),
        "--budget", f"{budget:.3f}", "--trace", str(int(run.trace)),
        "--run-dir", str(run.dir / f"rep{rep}"),
        "--spans-out", str(OUT / f"{run.workload}.rep{rep}.spans.jsonl"),
    ]
    start = time.perf_counter()
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=run.env(),
        cwd=ROOT,
    )
    try:
        first = child.stdout.readline()
        setup = time.perf_counter() - start
        if first.strip() != "READY":
            raise BenchError(f"worker set-up failed: {first.strip()!r}")
        rest, _ = child.communicate(timeout=max(1.0, run.remaining()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the deadline") from None
    finally:
        if child.poll() is None:
            child.kill()
        child.wait()
    if child.returncode != 0:
        raise BenchError(f"worker exited with {child.returncode}")
    return setup, json.loads(rest.strip().splitlines()[-1])


def pass_time(workload: str, passes: list[dict], which: int) -> float:
    """Seconds of one pass from the medians of its parts.

    ``which`` picks wall (0) or CPU (1) seconds.  Each part (a figure,
    or a census seed) is timed once per pass; a slow moment of the
    machine then moves one sample of a part instead of the total.  A
    figures pass is all three figures, so its time is the sum of their
    medians; a census pass is one pool seed, so its time is their mean.
    """
    samples: dict[str, list[float]] = {}
    for parts in passes:
        for key, times in parts.items():
            samples.setdefault(key, []).append(times[which])
    if not samples or not all(passes):
        return float("nan")  # a failed pass
    medians = [median(values) for values in samples.values()]
    if workload == "census-generated":
        return statistics.fmean(medians)
    return sum(medians)


def run_batch(run: Run) -> None:
    setups, reports = [], []
    for rep in range(SETUPS):
        setup, report = spawn_batch(run, rep, run.seconds / SETUPS)
        setups.append(setup)
        reports.append(report)
        run.attempted += report["attempted"]
        run.failed += report["failed"]
        run.errors.extend(report["errors"])
    untraced = [parts for r in reports for parts in r["untraced"]]
    run.put("setup_s", median(setups), len(setups))
    # A single-threaded pass's CPU time is its wall time without the
    # moments the shared machine's scheduler holds it off the CPU.
    run.put("cpu_s", pass_time(run.workload, untraced, 1), len(untraced))
    run.put("wall_s", pass_time(run.workload, untraced, 0), len(untraced))
    run.put("pass_s", *run.metrics["cpu_s"])
    run.put("peak_rss_mb", median([r["rss_mb"] for r in reports]),
            len(reports))
    if not run.trace:
        return
    traced = [t for r in reports for t in r["traced"]]
    passes = sum(r["traced_passes"] for r in reports)
    for name in reports[0]["layers"]:
        # Per-pass values, weighted by each process's traced passes.
        run.put(name, sum(
            r["layers"][name] * r["traced_passes"] for r in reports
        ) / passes, passes)
    mismatches = [m for r in reports for m in r["mismatches"]]
    run.errors.extend(f"counter cross-check: {m}" for m in mismatches)
    run.put("obs.counter_mismatches", len(mismatches), passes)
    run.put("obs.trace_overhead_frac",
            pass_time(run.workload, traced, 0) / run.metrics["wall_s"][0]
            - 1.0, len(traced))
    run.put("obs.attributed_frac",
            sum(r["attributed_s"] for r in reports)
            / sum(r["root_s"] for r in reports), passes)
    # The serve layers and the load generator are idle here.
    for name in run.units:
        if name.startswith(("serve.", "loadgen.", "decide_")):
            run.put(name, 0.0, 0)


# ----------------------------------------------------------------------
# Serve workload
# ----------------------------------------------------------------------
class Server:
    """One ``serve_launcher.py`` process, from spawn to drained exit."""

    def __init__(self, run: Run, name: str, trace: bool) -> None:
        self.run = run
        self.dir = run.dir / name
        self.dir.mkdir(parents=True)
        self.log = self.dir / "server.log"
        self.trace_out = (
            OUT / "serve-decide.summary.json" if trace else None
        )
        command = [
            sys.executable, str(HERE / "serve_launcher.py"),
            "--cache-dir", str(self.dir / "plan-cache"),
        ]
        if self.trace_out is not None:
            command += ["--trace-out", str(self.trace_out)]
        start = time.perf_counter()
        with open(self.log, "w") as log:
            self.process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT,
                env=run.env(), cwd=ROOT,
            )
        try:
            self.port = self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_ready(self) -> int:
        port = None
        while self.run.remaining() > 0:
            if self.process.poll() is not None:
                raise BenchError(
                    f"server exited with {self.process.returncode}: "
                    + self.log.read_text()[-2000:]
                )
            if port is None:
                for line in self.log.read_text().splitlines():
                    if line.startswith("serving on http://"):
                        port = int(line.split()[2].rsplit(":", 1)[1])
            if port is not None:
                try:
                    openloop.get_json("127.0.0.1", port, "/healthz")
                    return port
                except (OSError, ConnectionError, TimeoutError):
                    pass
            time.sleep(0.01)
        raise BenchError("server did not become ready in time")

    def metrics(self) -> dict:
        return openloop.get_json("127.0.0.1", self.port, "/metrics")

    def cpu_s(self) -> float:
        """CPU seconds the server's live threads have run.

        Read from each thread's ``schedstat`` (nanoseconds on the CPU)
        rather than ``utime``: the server runs in bursts much shorter
        than a clock tick, which tick-sampled times count only roughly.
        """
        total = 0
        for task in Path(f"/proc/{self.process.pid}/task").iterdir():
            try:
                total += int((task / "schedstat").read_text().split()[0])
            except (FileNotFoundError, ProcessLookupError):
                pass  # the thread ended meanwhile
        return total / 1e9

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM drain; kill if it does not exit in time."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=max(1.0, self.run.remaining()))
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.returncode != 0:
            self.run.errors.append(
                f"server exited with {self.process.returncode}"
            )


class Requests:
    """The seeded request stream and the store to replay it offline."""

    def __init__(self, run: Run, server: Server) -> None:
        from repro.optimizer.plancache import PlanCache
        from repro.serve.loadgen import build_requests
        from repro.serve.protocol import QUANT_DIGITS
        from repro.serve.store import CandidateStore

        from serve_launcher import DELTA, QUERIES, SCENARIO

        # Reading the server's plan cache gives this process the same
        # candidate sets without recomputing them.
        self.store = CandidateStore(
            scale=100.0, delta=DELTA,
            cache=PlanCache(server.dir / "plan-cache"),
        )
        count = WALL_REQUESTS + STEP_REQUESTS * MAX_STEPS
        self.parsed = build_requests(
            self.store, list(QUERIES), SCENARIO, count, run.seed,
            QUANT_DIGITS,
        )
        self.wires = [
            {
                "query": request["query"],
                "scenario": request["scenario"],
                "cost_vector": list(request["cost"]),
            }
            for request in self.parsed
        ]
        self.entries = {
            key: self.store.entry(*key)
            for key in {(r["query"], r["scenario"]) for r in self.parsed}
        }
        self._offline: dict = {}

    def offline_digest(self, part: slice) -> str:
        from repro.serve.decide import verify_offline
        from repro.serve.protocol import decisions_digest

        key = (part.start, part.stop)
        if key not in self._offline:
            self._offline[key] = decisions_digest(
                verify_offline(self.entries, self.parsed[part])
            )
        return self._offline[key]


class Traffic:
    """The measured requests sent to one server."""

    def __init__(self, run: Run, server: Server, requests: Requests) -> None:
        self.run = run
        self.server = server
        self.requests = requests
        self.sent: list = []  # (request slice, openloop.Step)
        self.wall: list = []
        #: Server CPU seconds of each closed-loop pass.
        self.cpu: list = []
        self.steps: dict = {}
        self.max_qps = 0.0
        self.before = server.metrics()
        self.after = self.before

    def _send(self, part: slice, rate: "float | None"):
        wires = self.requests.wires[part]
        host, port = "127.0.0.1", self.server.port
        if rate is None:
            step = openloop.closed_loop(host, port, wires, CONNECTIONS)
        else:
            step = openloop.open_loop(
                host, port, wires, rate, self.rng, CONNECTIONS
            )
        self.run.attempted += step.sent
        self.run.failed += step.failed
        self.run.errors.extend(step.errors[:3])
        self.sent.append((part, step))
        return step

    def wall_passes(self, budget: float, at_least: int) -> None:
        """The first WALL_REQUESTS requests, closed loop, repeated."""
        started = time.perf_counter()
        while True:
            cpu = self.server.cpu_s()
            step = self._send(slice(0, WALL_REQUESTS), None)
            self.cpu.append(self.server.cpu_s() - cpu)
            self.wall.append(step.wall)
            used = time.perf_counter() - started
            if len(self.wall) >= at_least and used + step.wall > budget:
                break
        self.after = self.server.metrics()

    def rate_steps(self) -> None:
        """The fixed rates, then the ceiling search."""
        self.rng = np.random.default_rng([self.run.seed, 7])
        for rate in FIXED_RATES:
            self.step_at(rate)
        self.max_qps = self.search()
        self.after = self.server.metrics()

    def step_at(self, rate: float):
        if rate not in self.steps:
            start = WALL_REQUESTS + STEP_REQUESTS * len(self.steps)
            before = self.server.metrics()
            step = self._send(slice(start, start + STEP_REQUESTS), rate)
            after = self.server.metrics()
            seen = counter_delta(before, after, "serve.requests")
            if seen != step.succeeded:
                self.run.errors.append(
                    f"{rate:g} qps step: server counted {seen:g} requests, "
                    f"{step.succeeded} answered"
                )
            step.batches = counter_delta(before, after, "serve.batches")
            step.empty_ticks = counter_delta(
                before, after, "serve.empty_ticks"
            )
            self.steps[rate] = step
        return self.steps[rate]

    def search(self) -> float:
        """Highest rate meeting the SLO, to within ``SEARCH_RESOLUTION``.

        Starts from the fixed-rate steps, then grows, shrinks or
        bisects geometrically while the next step fits the search
        budget.  Returns 0 when no step met the SLO.
        """
        known = {rate: step.meets_slo for rate, step in self.steps.items()}
        spent = 0.0
        while True:
            passing = max((r for r, ok in known.items() if ok), default=0.0)
            failing = min(
                (r for r, ok in known.items() if not ok and r > passing),
                default=None,
            )
            if failing is None:
                rate = passing * SEARCH_FACTOR
            elif not passing:
                rate = failing / SEARCH_FACTOR
            elif failing / passing <= SEARCH_RESOLUTION:
                return passing
            else:
                rate = (passing * failing) ** 0.5
            rate = round(rate, 1)
            cost = STEP_REQUESTS / rate
            if len(self.steps) >= MAX_STEPS or not (
                SEARCH_MIN_RATE <= rate <= SEARCH_MAX_RATE
            ) or spent + cost > SEARCH_BUDGET_S:
                return passing
            spent += cost
            known[rate] = self.step_at(rate).meets_slo

    def verify(self) -> None:
        """Every response digest must equal the offline replay."""
        from repro.serve.protocol import decisions_digest

        for part, step in self.sent:
            if step.failed:
                continue  # already counted as failed
            if decisions_digest(step.responses) != (
                self.requests.offline_digest(part)
            ):
                self.run.failed += step.sent
                self.run.errors.append(
                    f"decisions digest of requests {part.start}.."
                    f"{part.stop} differs from the offline replay"
                )


def counter_delta(before: dict, after: dict, name: str) -> float:
    return after["counters"].get(name, 0) - before["counters"].get(name, 0)


def histogram_mean_delta(before: dict, after: dict, name: str) -> float:
    new = after["histograms"].get(name, {"count": 0, "sum": 0.0})
    old = before["histograms"].get(name, {"count": 0, "sum": 0.0})
    count = new["count"] - old["count"]
    return (new["sum"] - old["sum"]) / count if count else 0.0


def serve_with(run: Run, name: str, trace: bool, requests, measure):
    """Start a server, run ``measure(traffic)``, drain, check replies."""
    server = Server(run, name, trace)
    try:
        if requests is None:
            requests = Requests(run, server)
        traffic = Traffic(run, server, requests)
        measure(traffic)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    traffic.verify()
    return server, traffic, requests, rss


def run_serve(run: Run) -> None:
    if not run.trace:
        # The open-loop rate steps feed only per-layer metrics, so the
        # untraced run spends its time on closed-loop passes alone.
        setups, walls, cpus, rss, requests = [], [], [], [], None
        for rep in range(SETUPS):

            def measure(traffic):
                traffic.wall_passes(run.seconds / SETUPS, at_least=4)

            server, traffic, requests, peak = serve_with(
                run, f"server{rep}", False, requests, measure
            )
            setups.append(server.setup_s)
            walls.extend(traffic.wall)
            cpus.extend(traffic.cpu)
            rss.append(peak)
        run.put("setup_s", median(setups), len(setups))
        run.put("cpu_s", median(cpus), len(cpus))
        run.put("wall_s", median(walls), len(walls))
        # The server sleeps through most of a pass in its batch tick, so
        # its CPU time per pass varies with the tick timing and the
        # host; the wall time of the burst is the steady measure.
        run.put("pass_s", *run.metrics["wall_s"])
        run.put("peak_rss_mb", median(rss), len(rss))
        return

    wall_budget = run.seconds / (2 * SETUPS)

    def measure(traffic):
        traffic.wall_passes(wall_budget * SETUPS, at_least=4 * SETUPS)
        traffic.rate_steps()

    _, plain, requests, _ = serve_with(run, "plain", False, None, measure)
    server, traced, _, _ = serve_with(run, "traced", True, requests, measure)
    run.put("cpu_s", median(plain.cpu), len(plain.cpu))
    run.put("wall_s", median(plain.wall), len(plain.wall))
    report_rate_steps(run, plain)
    with open(server.trace_out) as handle:
        summary = json.load(handle)
    probes = int(summary["layers"]["serve.decide.probes"])
    for name, value in summary["offline_layers"].items():
        run.put(name, value, 1)
    for name, value in summary["layers"].items():
        run.put(name, value, probes)
    before, after = traced.before, traced.after
    batches = counter_delta(before, after, "serve.batches")
    empty = counter_delta(before, after, "serve.empty_ticks")
    run.put("serve.store.builds",
            counter_delta(before, after, "serve.store_builds"), 1)
    run.put("serve.batcher.batch_size.mean",
            histogram_mean_delta(before, after, "serve.batch_size"),
            int(batches))
    run.put("serve.batcher.empty_tick_ratio",
            empty / (empty + batches) if empty + batches else 0.0,
            int(empty + batches))
    gaps = http_gaps(traced, summary)
    run.put("serve.http_ms.p50",
            float(np.median(gaps)) * 1e3 if gaps else 0.0, len(gaps))
    mismatches = [
        f"{name}: wrapped {value:g} vs METRICS "
        f"{summary['counters'].get(name, 0):g}"
        for name, value in summary["wrapped"].items()
        if summary["counters"].get(name, 0) != value
    ]
    run.errors.extend(f"counter cross-check: {m}" for m in mismatches)
    run.put("obs.counter_mismatches", len(mismatches), 1)
    run.put("obs.trace_overhead_frac",
            median(traced.wall) / median(plain.wall) - 1.0,
            len(traced.wall))
    served = sum(
        float(np.sum(step.service[np.isfinite(step.service)]))
        for _, step in traced.sent
    )
    inside = sum(sum(times) for times in summary["decide_by_rid"].values())
    run.put("obs.attributed_frac", inside / served if served else 0.0,
            probes)


def http_gaps(traffic: Traffic, summary: dict) -> list[float]:
    """Client service time minus the server's ``decide``, per request."""
    server_times = {
        rid: list(times) for rid, times in summary["decide_by_rid"].items()
    }
    gaps = []
    for part, step in traffic.sent:
        for wire, service in zip(traffic.requests.wires[part], step.service):
            times = server_times.get(openloop.request_id(wire))
            if times and np.isfinite(service):
                gaps.append(service - times.pop(0))
    return gaps


def report_rate_steps(run: Run, traffic: Traffic) -> None:
    """Open-loop latencies, the ceiling, and the generator's own numbers."""
    for rate, step in sorted(traffic.steps.items()):
        kind = "fixed rate" if rate in FIXED_RATES else "ceiling search"
        run.notes.append(
            f"{kind} {rate:g} qps: sent {step.sent}, succeeded "
            f"{step.succeeded}, failed {step.failed}, p50 "
            f"{step.p_ms(50):.3f} ms, p99 {step.p_ms(99):.3f} ms, lag p99 "
            f"{float(np.percentile(step.lag, 99)) * 1e3:.3f} ms, lag growth "
            f"{step.lag_growth_ms:.3f} ms, batches {step.batches:g}, empty "
            f"ticks {step.empty_ticks:g} -> "
            f"{'meets' if step.meets_slo else 'misses'} the SLO"
        )
    run.notes.append(
        f"decide_max_qps {traffic.max_qps:g} qps (SLO: p99 <= "
        f"{openloop.SLO_P99_MS:g} ms, no failure, no growing backlog)"
    )
    for rate in FIXED_RATES:
        step = traffic.steps[rate]
        run.put(f"decide_p50_ms.r{rate:g}", step.p_ms(50), step.sent)
        run.put(f"decide_p99_ms.r{rate:g}", step.p_ms(99), step.sent)
    run.put("decide_max_qps", traffic.max_qps, len(traffic.steps))
    steps = list(traffic.steps.values())
    run.put("loadgen.sent", sum(s.sent for s in steps), len(steps))
    run.put("loadgen.failed", sum(s.failed for s in steps), len(steps))
    r500 = traffic.steps[FIXED_RATES[-1]]
    run.put("loadgen.send_lag_ms.p99",
            float(np.percentile(r500.lag, 99)) * 1e3, r500.sent)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def emit(run: Run, names: list[str]) -> int:
    """Print the metric table, then the result line; returns the exit code."""
    correct = not run.errors and run.failed == 0
    print(f"workload {run.workload}  seed {run.seed}  "
          f"trace {int(run.trace)}")
    for note in run.notes:
        print(f"  {note}")
    for name, (value, samples) in run.metrics.items():
        print(f"  {name:40s} {value:16.6f} {run.units[name]:6s} "
              f"n={samples}")
    for error in run.errors[:20]:
        print(f"  ERROR {error}")
    result = {
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed if run.attempted else 1,
        "metrics": {
            name: {"value": run.metrics[name][0], "unit": run.units[name]}
            for name in names
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources under {SRC}; run from the repository "
              "root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    units = {
        metric["name"]: metric["unit"]
        for metric in spec["end_to_end"] + spec["per_layer"]
    }
    names = [
        metric["name"]
        for metric in spec["per_layer" if args.trace else "end_to_end"]
    ]
    run = Run(args, units)
    run.dir.mkdir(parents=True)
    try:
        if run.workload in BATCH:
            run_batch(run)
        else:
            run_serve(run)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    run.put("failed_frac",
            run.failed / run.attempted if run.attempted else 1.0,
            run.attempted)
    missing = [name for name in names if name not in run.metrics]
    if missing:
        print(f"benchmark error: not measured: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    return emit(run, names)


if __name__ == "__main__":
    sys.exit(main())
