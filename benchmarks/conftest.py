"""Shared fixtures + telemetry plugin for the benchmark harness.

Every benchmark regenerates one artefact of the paper's evaluation
(see DESIGN.md's experiment index).  Benchmarks run the real full-size
computation once per measurement (``benchmark.pedantic`` with a single
round) — they are experiment drivers first, timers second.

Telemetry: every test that uses the ``benchmark`` fixture is recorded
automatically, and at session end one schema-versioned
``BENCH_<module>.json`` record per benchmark module (the stem minus
the ``test_bench_`` prefix) is written via
:class:`repro.obs.bench.BenchRecorder` — timing stats per test
(median/IQR/rounds), git SHA, environment, catalog digest, the metrics
snapshot of that module alone (``METRICS`` is reset when each module
starts), plus anything a test attached through the ``bench_extras``
fixture.  ``REPRO_BENCH_DIR`` moves all records.  Gate records
against a baseline with ``repro bench BENCH_x.json --compare
benchmarks/baselines/BENCH_x.json``.

Every flushed record is additionally appended to the perf-history
store (``benchmarks/history.jsonl`` or ``$REPRO_HISTORY_DIR``) — one
``bench:<module>/<test>`` series point per median — feeding the
``repro bench trend`` multi-run regression gate.  Set
``REPRO_NO_HISTORY=1`` to skip the append (throwaway runs).
"""

import logging
import os

import pytest

from repro.catalog import build_tpch_catalog
from repro.obs import catalog_digest
from repro.obs.bench import BenchRecorder, load_bench_record
from repro.obs.metrics import METRICS
from repro.workloads import build_tpch_queries

_RECORDER = BenchRecorder()


def _group_for(request) -> str:
    stem = request.node.path.stem
    return stem.removeprefix("test_bench_") or stem


@pytest.fixture(scope="session")
def catalog():
    """The paper's 100 GB TPC-H statistics."""
    built = build_tpch_catalog(100)
    _RECORDER.catalog_sha = catalog_digest(built)
    return built


@pytest.fixture(scope="session")
def queries(catalog):
    """All 22 TPC-H queries."""
    return build_tpch_queries(catalog)


@pytest.fixture(scope="module", autouse=True)
def _bench_module_metrics(request):
    """Give each module's record only the metrics its tests produced."""
    METRICS.reset()
    yield
    _RECORDER.set_metrics(_group_for(request), METRICS.snapshot())


@pytest.fixture(autouse=True)
def _bench_telemetry(request):
    """Record the timing stats of every benchmarked test."""
    # Grab the fixture object up front: by teardown time pytest has
    # already finalized it and getfixturevalue would refuse.
    fixture = (
        request.getfixturevalue("benchmark")
        if "benchmark" in request.fixturenames
        else None
    )
    yield
    if fixture is None:
        return
    metadata = getattr(fixture, "stats", None)
    stats = getattr(metadata, "stats", None)
    if stats is None:  # fixture requested but never run
        return
    _RECORDER.record(
        _group_for(request),
        request.node.name,
        {
            "median_seconds": stats.median,
            "iqr_seconds": stats.iqr,
            "rounds": stats.rounds,
            "mean_seconds": stats.mean,
            "min_seconds": stats.min,
            "max_seconds": stats.max,
        },
    )


@pytest.fixture
def bench_extras(request):
    """Attach free-form context to this module's BENCH record.

    Usage::

        def test_bench_foo(benchmark, bench_extras):
            ...
            bench_extras("probe_rate", {"speedup": 6.4})
    """
    group = _group_for(request)

    def add(key, value):
        _RECORDER.add_extra(group, key, value)

    return add


def pytest_sessionfinish(session, exitstatus):
    """Flush BENCH records and append them to the history store."""
    from repro.obs.history import append_history, bench_history_entries

    written = _RECORDER.flush()
    if os.environ.get("REPRO_NO_HISTORY"):
        return
    for path in written:
        try:
            record = load_bench_record(path)
            append_history(
                bench_history_entries(record, source=str(path))
            )
        except (OSError, ValueError) as exc:
            # Telemetry must never fail the benchmark session.
            logging.getLogger("repro.bench").warning(
                "could not append %s to the perf history: %s",
                path, exc,
            )
