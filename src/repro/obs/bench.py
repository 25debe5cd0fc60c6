"""Benchmark telemetry: schema-versioned BENCH records + regression gate.

Every benchmark module under ``benchmarks/`` emits one machine-readable
``BENCH_<name>.json`` record through the shared pytest plugin
(``benchmarks/conftest.py``), which feeds a :class:`BenchRecorder`:
per-test timing statistics (median/IQR/rounds and friends from
pytest-benchmark), provenance (git SHA, package version, environment
fingerprint, catalog digest), the metrics snapshot accumulated while
that module's benchmarks ran, and free-form per-module ``extras``
(probe rates, speedups).  The record is the unit of performance history: CI archives
one per benchmark per run, and ``repro bench --compare`` diffs two of
them and exits non-zero when a median regresses beyond a threshold —
the closed loop that keeps "fast" an enforced property instead of a
hope.

The schema is strict and versioned exactly like the run manifest:
:func:`validate_bench_record` rejects missing *and* unknown top-level
fields, so any shape change must bump ``BENCH_SCHEMA_VERSION``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "RESULT_FIELDS",
    "BenchDelta",
    "BenchComparison",
    "BenchRecorder",
    "build_bench_record",
    "validate_bench_record",
    "load_bench_record",
    "write_bench_record",
    "compare_bench_records",
    "render_bench_record",
    "render_bench_comparison",
]

BENCH_SCHEMA_VERSION = 1

#: Default relative median slowdown treated as a regression (15%).
DEFAULT_THRESHOLD = 0.15

#: Top-level record schema: field -> allowed instance types.
_FIELDS: dict[str, tuple] = {
    "bench_schema_version": (int,),
    "benchmark": (str,),
    "package_version": (str,),
    "git_sha": (str, type(None)),
    "created_unix": (int, float),
    "environment": (dict,),
    "catalog_digest": (str, type(None)),
    "metrics": (dict,),
    "results": (dict,),
    "extras": (dict,),
}

#: Per-test timing statistics, all in seconds except ``rounds``.
RESULT_FIELDS = (
    "median_seconds",
    "iqr_seconds",
    "rounds",
    "mean_seconds",
    "min_seconds",
    "max_seconds",
)


def build_bench_record(
    benchmark: str,
    results: Mapping[str, Mapping[str, Any]],
    extras: "Mapping[str, Any] | None" = None,
    catalog_sha: "str | None" = None,
    metrics: "Mapping[str, Any] | None" = None,
) -> dict[str, Any]:
    """Assemble a schema-valid BENCH record for one benchmark module."""
    from .manifest import environment_fingerprint, git_revision
    from .. import __version__

    return {
        "bench_schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": benchmark,
        "package_version": __version__,
        "git_sha": git_revision(),
        "created_unix": time.time(),
        "environment": environment_fingerprint(),
        "catalog_digest": catalog_sha,
        "metrics": dict(
            metrics
            or {"counters": {}, "gauges": {}, "histograms": {}}
        ),
        "results": {
            name: dict(stats) for name, stats in sorted(results.items())
        },
        "extras": dict(extras or {}),
    }


def validate_bench_record(data: Any) -> list[str]:
    """All schema violations in ``data`` (empty list == valid)."""
    if not isinstance(data, dict):
        return ["bench record must be a JSON object"]
    errors: list[str] = []
    for field, types in _FIELDS.items():
        if field not in data:
            errors.append(f"missing field: {field}")
        elif not isinstance(data[field], types):
            errors.append(
                f"field {field}: expected "
                f"{'/'.join(t.__name__ for t in types)}, got "
                f"{type(data[field]).__name__}"
            )
    for field in data:
        if field not in _FIELDS:
            errors.append(f"unknown field: {field}")
    if isinstance(data.get("bench_schema_version"), int):
        if data["bench_schema_version"] != BENCH_SCHEMA_VERSION:
            errors.append(
                f"bench_schema_version {data['bench_schema_version']} "
                f"!= supported {BENCH_SCHEMA_VERSION}"
            )
    results = data.get("results")
    if isinstance(results, dict):
        for name, stats in results.items():
            if not isinstance(stats, dict):
                errors.append(f"results.{name} must be an object")
                continue
            for field in RESULT_FIELDS:
                if not isinstance(stats.get(field), (int, float)):
                    errors.append(
                        f"results.{name}.{field} must be a number"
                    )
    return errors


def write_bench_record(
    record: Mapping[str, Any], path: "str | os.PathLike"
) -> Path:
    """Write a record as stable, sorted, human-diffable JSON."""
    target = Path(path)
    target.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    return target


def load_bench_record(path: "str | os.PathLike") -> dict[str, Any]:
    """Read and validate one record; raises ``ValueError`` if invalid."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read bench record {path}: {exc}")
    errors = validate_bench_record(data)
    if errors:
        raise ValueError(
            f"invalid bench record {path}: " + "; ".join(errors)
        )
    return data


# ----------------------------------------------------------------------
# Comparison (the regression gate)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BenchDelta:
    """One test's median movement between two records."""

    name: str
    baseline_median: "float | None"
    current_median: "float | None"
    #: current/baseline; None when either side is missing.
    ratio: "float | None"
    #: ``regression`` / ``improvement`` / ``ok`` / ``added`` / ``removed``.
    status: str


@dataclass(frozen=True)
class BenchComparison:
    """A full diff of two BENCH records."""

    benchmark: str
    threshold: float
    deltas: tuple[BenchDelta, ...]
    #: Provenance of both sides, so an archived verdict names exactly
    #: which commits and catalogs it compared.
    baseline_git_sha: "str | None" = None
    current_git_sha: "str | None" = None
    baseline_catalog_digest: "str | None" = None
    current_catalog_digest: "str | None" = None

    @property
    def regressions(self) -> tuple[BenchDelta, ...]:
        return tuple(
            d for d in self.deltas if d.status == "regression"
        )

    @property
    def ok(self) -> bool:
        return not self.regressions


def _median_of(stats: Any) -> "float | None":
    """The median of one test's stats blob, or None if unusable.

    Defensive on purpose: a baseline may come from an older schema, a
    hand-edited file or a different branch, and a missing median must
    degrade to "cannot compare" rather than a KeyError.
    """
    if not isinstance(stats, Mapping):
        return None
    value = stats.get("median_seconds")
    return float(value) if isinstance(value, (int, float)) else None


def compare_bench_records(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> BenchComparison:
    """Diff two records: medians per test, flagged beyond ``threshold``.

    A test regresses when its current median exceeds the baseline
    median by more than ``threshold`` (relative, default 15%); it is an
    improvement when it is faster by the same margin.  Records whose
    test sets differ compare cleanly: tests present on only one side
    are reported as the symmetric difference (``added``/``removed``)
    but never gate.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    base_results = baseline.get("results") or {}
    curr_results = current.get("results") or {}
    deltas = []
    for name in sorted(set(base_results) | set(curr_results)):
        base = base_results.get(name)
        curr = curr_results.get(name)
        if base is None:
            deltas.append(BenchDelta(
                name, None, _median_of(curr), None, "added"
            ))
            continue
        if curr is None:
            deltas.append(BenchDelta(
                name, _median_of(base), None, None, "removed"
            ))
            continue
        base_median = _median_of(base)
        curr_median = _median_of(curr)
        ratio = (
            curr_median / base_median
            if base_median and curr_median is not None
            else None
        )
        if ratio is None:
            status = "ok"
        elif ratio > 1.0 + threshold:
            status = "regression"
        elif ratio < 1.0 - threshold:
            status = "improvement"
        else:
            status = "ok"
        deltas.append(BenchDelta(
            name, base_median, curr_median, ratio, status
        ))
    return BenchComparison(
        benchmark=str(current.get("benchmark", "?")),
        threshold=float(threshold),
        deltas=tuple(deltas),
        baseline_git_sha=baseline.get("git_sha"),
        current_git_sha=current.get("git_sha"),
        baseline_catalog_digest=baseline.get("catalog_digest"),
        current_catalog_digest=current.get("catalog_digest"),
    )


def _format_seconds(value: "float | None") -> str:
    if value is None:
        return "-"
    if value < 1e-3:
        return f"{value * 1e6:.1f}us"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.3f}s"


def render_bench_record(record: Mapping[str, Any]) -> str:
    """One record as a human-readable timing table."""
    lines = [
        f"benchmark: {record.get('benchmark', '?')}  "
        f"(schema v{record.get('bench_schema_version', '?')}, "
        f"git {str(record.get('git_sha') or 'unknown')[:12]})"
    ]
    results = record.get("results") or {}
    if not results:
        lines.append("results: (none recorded)")
        return "\n".join(lines)
    header = f"{'test':<52} {'median':>10} {'iqr':>10} {'rounds':>7}"
    lines.append(header)
    lines.append("-" * len(header))
    for name, stats in sorted(results.items()):
        lines.append(
            f"{name:<52} "
            f"{_format_seconds(stats.get('median_seconds')):>10} "
            f"{_format_seconds(stats.get('iqr_seconds')):>10} "
            f"{stats.get('rounds', 0):>7}"
        )
    extras = record.get("extras") or {}
    if extras:
        lines.append("extras: " + ", ".join(sorted(extras)))
    return "\n".join(lines)


def render_bench_comparison(comparison: BenchComparison) -> str:
    """A comparison as a verdict line plus a per-test delta table."""
    lines = [
        f"bench compare: {comparison.benchmark}  "
        f"(threshold {comparison.threshold:.0%})"
    ]
    header = (
        f"{'test':<52} {'baseline':>10} {'current':>10} "
        f"{'ratio':>7}  status"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for delta in comparison.deltas:
        ratio = f"{delta.ratio:.2f}x" if delta.ratio is not None else "-"
        lines.append(
            f"{delta.name:<52} "
            f"{_format_seconds(delta.baseline_median):>10} "
            f"{_format_seconds(delta.current_median):>10} "
            f"{ratio:>7}  {delta.status.upper()}"
        )
    added = [d.name for d in comparison.deltas if d.status == "added"]
    removed = [
        d.name for d in comparison.deltas if d.status == "removed"
    ]
    if added or removed:
        lines.append("")
        lines.append(
            f"test sets differ: {len(added)} only in current, "
            f"{len(removed)} only in baseline (never gate)"
        )
        for name in added:
            lines.append(f"  + {name}")
        for name in removed:
            lines.append(f"  - {name}")
    lines.append("")
    provenance = _comparison_provenance(comparison)
    if comparison.ok:
        lines.append(
            f"verdict: OK — no test regressed beyond "
            f"{comparison.threshold:.0%}  [{provenance}]"
        )
    else:
        worst = max(
            comparison.regressions,
            key=lambda d: d.ratio if d.ratio is not None else 0.0,
        )
        lines.append(
            f"verdict: REGRESSION — "
            f"{len(comparison.regressions)} test(s) slower than "
            f"{comparison.threshold:.0%} (worst: {worst.name} at "
            f"{worst.ratio:.2f}x)  [{provenance}]"
        )
    return "\n".join(lines)


def _comparison_provenance(comparison: BenchComparison) -> str:
    """``git a->b, catalog c->d`` naming exactly what was compared."""

    def short(value: "str | None") -> str:
        return value[:12] if value else "unknown"

    return (
        f"git {short(comparison.baseline_git_sha)} -> "
        f"{short(comparison.current_git_sha)}, catalog "
        f"{short(comparison.baseline_catalog_digest)} -> "
        f"{short(comparison.current_catalog_digest)}"
    )


# ----------------------------------------------------------------------
# The session recorder behind the benchmarks/conftest.py plugin
# ----------------------------------------------------------------------
class BenchRecorder:
    """Collects per-test timing stats and flushes BENCH records.

    The pytest plugin feeds one :meth:`record` call per benchmark test
    (grouped by module) plus optional :meth:`add_extra` context; at
    session end :meth:`flush` writes one ``BENCH_<group>.json`` per
    group into ``out_dir`` (default: ``$REPRO_BENCH_DIR`` or the
    working directory), stamping each with the metrics snapshot handed
    to :meth:`set_metrics` for that group — only the metrics its own
    benchmarks produced (empty sections when none was set).
    """

    def __init__(self, out_dir: "str | os.PathLike | None" = None) -> None:
        self.out_dir = out_dir
        self.catalog_sha: "str | None" = None
        self._results: dict[str, dict[str, dict[str, Any]]] = {}
        self._extras: dict[str, dict[str, Any]] = {}
        self._metrics: dict[str, Mapping[str, Any]] = {}

    def record(
        self, group: str, test: str, stats: Mapping[str, Any]
    ) -> None:
        """Register one test's timing statistics under its group."""
        missing = [f for f in RESULT_FIELDS if f not in stats]
        if missing:
            raise ValueError(
                f"bench stats for {test} missing {', '.join(missing)}"
            )
        self._results.setdefault(group, {})[test] = {
            field: stats[field] for field in RESULT_FIELDS
        }

    def add_extra(self, group: str, key: str, value: Any) -> None:
        """Attach free-form context to a group's record."""
        self._extras.setdefault(group, {})[key] = value

    def set_metrics(self, group: str, snapshot: Mapping[str, Any]) -> None:
        """Stamp a group's record with the metrics its benchmarks made."""
        self._metrics[group] = snapshot

    def _path_for(self, group: str) -> Path:
        root = self.out_dir or os.environ.get("REPRO_BENCH_DIR") or "."
        return Path(root) / f"BENCH_{group}.json"

    def flush(self) -> list[Path]:
        """Write one BENCH record per recorded group; returns paths."""
        written = []
        for group, results in sorted(self._results.items()):
            record = build_bench_record(
                benchmark=group,
                results=results,
                extras=self._extras.get(group),
                catalog_sha=self.catalog_sha,
                metrics=self._metrics.get(group),
            )
            path = self._path_for(group)
            path.parent.mkdir(parents=True, exist_ok=True)
            written.append(write_bench_record(record, path))
        self._results.clear()
        self._extras.clear()
        self._metrics.clear()
        return written
