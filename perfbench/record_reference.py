"""Record the reference output digests the benchmark checks against.

Run from the repository root, on a commit whose outputs are known
good::

    PYTHONPATH=src python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``: the SHA-256 of ``figure_to_csv``
for each of Figures 5/6/7, and the ``generated_census`` result digest
of a ``run_generated_census(200, seed)`` pass for each seed of the
census workload's pool.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from batch_worker import CENSUS_N, CENSUS_POOL, SCENARIOS


def main() -> None:
    from repro.experiments import (
        RunContext,
        figure_to_csv,
        run_figure,
        run_generated_census,
    )

    ctx = RunContext()
    figures = {}
    for key in SCENARIOS:
        result = run_figure(
            key, catalog=ctx.catalog, queries=ctx.queries, jobs=1
        )
        figures[key] = hashlib.sha256(
            figure_to_csv(result).encode()
        ).hexdigest()
    digests = []
    for seed in range(CENSUS_POOL):
        census_ctx = RunContext(jobs=1, seed=seed, cache=None)
        run_generated_census(CENSUS_N, seed=seed, ctx=census_ctx)
        digests.append(census_ctx.result_digests["generated_census"])
    reference = {
        "figures": figures,
        "census": {"n": CENSUS_N, "digests": digests},
    }
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(reference, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
