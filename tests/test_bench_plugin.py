"""The benchmark telemetry plugin, driven end-to-end.

Runs a real (subprocess) pytest session against the *actual*
``benchmarks/conftest.py`` with a tiny synthetic benchmark, then checks
that the session emitted a schema-valid ``BENCH_<module>.json`` record
— the same path every shipped benchmark takes, without paying for a
TPC-H catalog build.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

SYNTHETIC = '''\
def test_bench_addition(benchmark, bench_extras):
    result = benchmark(lambda: sum(range(1000)))
    assert result == 499500
    bench_extras("workload", "synthetic")


def test_unbenchmarked_tests_are_ignored():
    assert True
'''


COUNTING = '''\
from repro.obs.metrics import METRICS


def test_bench_count(benchmark):
    benchmark(lambda: METRICS.counter("{name}.calls").inc())
'''


def _bench_session(site, modules):
    """Run the real plugin over ``modules`` (file name -> source)."""
    shutil.copy(REPO / "benchmarks" / "conftest.py", site / "conftest.py")
    for name, source in modules.items():
        (site / name).write_text(source)
    out_dir = site / "records"
    env = dict(
        os.environ,
        PYTHONPATH=str(REPO / "src"),
        REPRO_BENCH_DIR=str(out_dir),
    )
    completed = subprocess.run(
        [
            sys.executable, "-m", "pytest",
            *(str(site / name) for name in modules),
            "-q", "-p", "no:cacheprovider",
        ],
        cwd=site, env=env, capture_output=True, text=True,
        timeout=300,
    )
    return completed, out_dir


@pytest.fixture(scope="module")
def bench_run(tmp_path_factory):
    site = tmp_path_factory.mktemp("bench-plugin")
    return _bench_session(site, {"test_bench_synthetic.py": SYNTHETIC})


def test_plugin_session_passes(bench_run):
    completed, _ = bench_run
    assert completed.returncode == 0, completed.stdout + completed.stderr


def test_plugin_emits_schema_valid_record(bench_run):
    from repro.obs.bench import load_bench_record

    _, out_dir = bench_run
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "BENCH_synthetic.json"
    ]
    record = load_bench_record(out_dir / "BENCH_synthetic.json")
    assert record["benchmark"] == "synthetic"
    assert record["extras"] == {"workload": "synthetic"}
    result = record["results"]["test_bench_addition"]
    assert result["median_seconds"] > 0
    assert result["rounds"] >= 1
    # Only the benchmarked test is recorded.
    assert list(record["results"]) == ["test_bench_addition"]


def test_record_is_stable_sorted_json(bench_run):
    _, out_dir = bench_run
    text = (out_dir / "BENCH_synthetic.json").read_text()
    data = json.loads(text)
    assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_each_record_holds_only_its_own_modules_metrics(tmp_path):
    from repro.obs.bench import load_bench_record

    completed, out_dir = _bench_session(tmp_path, {
        "test_bench_alpha.py": COUNTING.format(name="alpha"),
        "test_bench_beta.py": COUNTING.format(name="beta"),
    })
    assert completed.returncode == 0, completed.stdout + completed.stderr
    for name in ("alpha", "beta"):
        record = load_bench_record(out_dir / f"BENCH_{name}.json")
        assert set(record["metrics"]["counters"]) == {f"{name}.calls"}
