"""Bench telemetry: record schema, recorder, and the regression gate."""

import json

import pytest

from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    BenchRecorder,
    build_bench_record,
    compare_bench_records,
    load_bench_record,
    render_bench_comparison,
    render_bench_record,
    validate_bench_record,
    write_bench_record,
)

STATS = {
    "median_seconds": 1.0,
    "iqr_seconds": 0.1,
    "rounds": 3,
    "mean_seconds": 1.05,
    "min_seconds": 0.9,
    "max_seconds": 1.2,
}


def _record(**medians):
    return build_bench_record(
        "demo",
        {
            name: dict(STATS, median_seconds=median)
            for name, median in medians.items()
        },
    )


def test_built_record_validates_cleanly():
    record = _record(test_a=1.0)
    assert validate_bench_record(record) == []
    assert record["bench_schema_version"] == BENCH_SCHEMA_VERSION
    assert record["benchmark"] == "demo"
    assert set(record["metrics"]) == {
        "counters", "gauges", "histograms"
    }


def test_validation_rejects_missing_unknown_and_bad_fields():
    record = _record(test_a=1.0)
    del record["environment"]
    record["surprise"] = 1
    record["results"]["test_a"]["median_seconds"] = "fast"
    errors = validate_bench_record(record)
    assert "missing field: environment" in errors
    assert "unknown field: surprise" in errors
    assert any("median_seconds" in error for error in errors)
    assert validate_bench_record([]) == [
        "bench record must be a JSON object"
    ]


def test_future_schema_version_is_rejected():
    record = _record(test_a=1.0)
    record["bench_schema_version"] = BENCH_SCHEMA_VERSION + 1
    assert any(
        "bench_schema_version" in error
        for error in validate_bench_record(record)
    )


def test_write_and_load_roundtrip(tmp_path):
    path = write_bench_record(_record(test_a=1.0), tmp_path / "b.json")
    loaded = load_bench_record(path)
    assert loaded["results"]["test_a"]["median_seconds"] == 1.0


def test_load_rejects_corrupt_and_invalid(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(ValueError, match="cannot read"):
        load_bench_record(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="cannot read"):
        load_bench_record(bad)
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"benchmark": "x"}))
    with pytest.raises(ValueError, match="invalid bench record"):
        load_bench_record(invalid)


def test_self_comparison_is_clean():
    record = _record(test_a=1.0, test_b=0.01)
    comparison = compare_bench_records(record, record)
    assert comparison.ok
    assert [d.status for d in comparison.deltas] == ["ok", "ok"]
    assert "OK" in render_bench_comparison(comparison)


def test_twofold_slowdown_is_a_regression():
    baseline = _record(test_a=1.0)
    slower = _record(test_a=2.0)
    comparison = compare_bench_records(baseline, slower)
    assert not comparison.ok
    (delta,) = comparison.regressions
    assert delta.ratio == pytest.approx(2.0)
    rendered = render_bench_comparison(comparison)
    assert "REGRESSION" in rendered
    assert "2.00x" in rendered


def test_threshold_is_configurable():
    baseline = _record(test_a=1.0)
    slightly = _record(test_a=1.1)
    assert compare_bench_records(baseline, slightly).ok
    assert not compare_bench_records(
        baseline, slightly, threshold=0.05
    ).ok
    # Faster beyond the threshold is an improvement, never a failure.
    faster = _record(test_a=0.5)
    comparison = compare_bench_records(baseline, faster)
    assert comparison.ok
    assert comparison.deltas[0].status == "improvement"
    with pytest.raises(ValueError):
        compare_bench_records(baseline, baseline, threshold=-1)


def test_added_and_removed_tests_never_gate():
    baseline = _record(test_a=1.0, test_gone=1.0)
    current = _record(test_a=1.0, test_new=9.0)
    comparison = compare_bench_records(baseline, current)
    assert comparison.ok
    statuses = {d.name: d.status for d in comparison.deltas}
    assert statuses == {
        "test_a": "ok", "test_gone": "removed", "test_new": "added"
    }


def test_differing_test_sets_report_symmetric_difference():
    """A baseline with a different test set must compare cleanly and
    surface the symmetric difference, not crash."""
    baseline = _record(test_a=1.0, test_gone=1.0, test_also_gone=2.0)
    current = _record(test_a=1.0, test_new=9.0)
    comparison = compare_bench_records(baseline, current)
    assert comparison.ok
    rendered = render_bench_comparison(comparison)
    assert "test sets differ: 1 only in current, 2 only in baseline" \
        in rendered
    assert "+ test_new" in rendered
    assert "- test_gone" in rendered
    assert "- test_also_gone" in rendered
    # Identical sets render no difference section.
    same = render_bench_comparison(
        compare_bench_records(current, current)
    )
    assert "test sets differ" not in same


def test_stats_missing_median_degrade_to_uncomparable():
    """A hand-edited or older-schema baseline without medians must not
    raise a KeyError — the test becomes uncomparable, never gating."""
    baseline = _record(test_a=1.0, test_b=1.0)
    del baseline["results"]["test_a"]["median_seconds"]
    current = _record(test_a=2.0, test_b=2.0, test_new=1.0)
    del current["results"]["test_new"]["median_seconds"]
    comparison = compare_bench_records(baseline, current)
    statuses = {d.name: d.status for d in comparison.deltas}
    assert statuses == {
        "test_a": "ok", "test_b": "regression", "test_new": "added"
    }
    deltas = {d.name: d for d in comparison.deltas}
    assert deltas["test_a"].baseline_median is None
    assert deltas["test_a"].ratio is None
    assert deltas["test_new"].current_median is None
    # The degraded comparison still renders.
    assert "test_a" in render_bench_comparison(comparison)


def test_render_record_lists_tests_and_extras():
    record = _record(test_a=1.0)
    record["extras"]["probe_rate"] = {"speedup": 6.4}
    rendered = render_bench_record(record)
    assert "test_a" in rendered
    assert "probe_rate" in rendered
    empty = build_bench_record("empty", {})
    assert "(none recorded)" in render_bench_record(empty)


# ----------------------------------------------------------------------
# The recorder behind the pytest plugin
# ----------------------------------------------------------------------
def test_recorder_flushes_one_record_per_group(tmp_path):
    recorder = BenchRecorder(out_dir=tmp_path)
    recorder.record("alpha", "test_one", STATS)
    recorder.record("alpha", "test_two", STATS)
    recorder.record("beta", "test_three", STATS)
    recorder.add_extra("alpha", "workload", "Q5/split")
    written = recorder.flush()
    assert sorted(p.name for p in written) == [
        "BENCH_alpha.json", "BENCH_beta.json"
    ]
    alpha = load_bench_record(tmp_path / "BENCH_alpha.json")
    assert sorted(alpha["results"]) == ["test_one", "test_two"]
    assert alpha["extras"] == {"workload": "Q5/split"}
    beta = load_bench_record(tmp_path / "BENCH_beta.json")
    assert beta["extras"] == {}
    # A second flush writes nothing: state was drained.
    assert recorder.flush() == []


def test_recorder_rejects_incomplete_stats(tmp_path):
    recorder = BenchRecorder(out_dir=tmp_path)
    with pytest.raises(ValueError, match="iqr_seconds"):
        recorder.record("alpha", "test_one", {"median_seconds": 1.0})


def test_recorder_honours_bench_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "out"))
    recorder = BenchRecorder()
    recorder.record("alpha", "test_one", STATS)
    (path,) = recorder.flush()
    assert path == tmp_path / "out" / "BENCH_alpha.json"
    assert path.exists()


def test_recorder_stamps_each_group_with_its_own_metrics(tmp_path):
    """Two groups bumping different counters keep them apart."""
    from repro.obs.metrics import MetricsRegistry

    recorder = BenchRecorder(out_dir=tmp_path)
    for group, counter in (("alpha", "alpha.calls"), ("beta", "beta.calls")):
        registry = MetricsRegistry()
        registry.counter(counter).inc(3)
        recorder.record(group, "test_one", STATS)
        recorder.set_metrics(group, registry.snapshot())
    recorder.flush()
    alpha = load_bench_record(tmp_path / "BENCH_alpha.json")
    beta = load_bench_record(tmp_path / "BENCH_beta.json")
    assert alpha["metrics"]["counters"] == {"alpha.calls": 3}
    assert beta["metrics"]["counters"] == {"beta.calls": 3}


def test_recorder_without_metrics_writes_empty_sections(tmp_path):
    from repro.obs.metrics import METRICS

    METRICS.counter("unrelated.calls").inc()
    recorder = BenchRecorder(out_dir=tmp_path)
    recorder.record("alpha", "test_one", STATS)
    (path,) = recorder.flush()
    assert load_bench_record(path)["metrics"]["counters"] == {}
