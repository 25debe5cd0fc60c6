"""The decide kernel: one canonical single-probe computation.

Every response — online in ``repro serve`` and offline in the
``--verify-offline`` replay — is built by :func:`decide_one` through
:func:`repro.obs.explain_probe`, the exact computation behind offline
``repro explain``.  A response is therefore a pure function of
``(query, scenario, quantized C)``, whatever else was queued beside
it, and digests match offline recomputation bit for bit.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..obs.decisions import explain_probe
from ..obs.metrics import METRICS
from .protocol import SERVE_SCHEMA_VERSION

__all__ = ["decide_group", "decide_one", "verify_offline"]


def decide_one(
    entry: Any, cost: Sequence[float]
) -> dict[str, Any]:
    """The canonical decide response for one quantized probe.

    ``entry`` is a :class:`repro.serve.store.StoreEntry` (anything
    with ``query``, ``scenario``, ``matrix`` and ``signatures``).
    This is the function the offline verifier replays — the server
    returns exactly its output.
    """
    probe = np.asarray(cost, dtype=float)
    info = explain_probe(entry.matrix, probe)
    winner = info["winner"]
    runner = info["runner_up"]
    return {
        "serve_schema_version": SERVE_SCHEMA_VERSION,
        "query": entry.query,
        "scenario": entry.scenario,
        "cost": [float(value) for value in cost],
        "candidates": info["candidates"],
        "winner": winner,
        "winner_signature": entry.signatures[winner],
        "winner_total": info["winner_total"],
        "runner_up": runner,
        "runner_up_signature": (
            entry.signatures[runner] if runner is not None else None
        ),
        "runner_up_total": info["runner_up_total"],
        "margin": info["margin"],
        "plane_distance": info["plane_distance"],
        "nearest_rival": info["nearest_rival"],
    }


def decide_group(
    entry: Any, costs: Sequence[Sequence[float]]
) -> list[dict[str, Any]]:
    """Decide every unique probe of one ``(query, scenario)`` group.

    Returns :func:`decide_one` responses in probe order and records
    the serving metrics (probe count, finite-margin histogram,
    near-plane count) from those same responses.
    """
    responses = [decide_one(entry, cost) for cost in costs]
    METRICS.counter("serve.probes").inc(len(responses))
    # explain_probe reports a non-finite margin or distance as None.
    METRICS.histogram("serve.margin").observe_many(
        response["margin"]
        for response in responses
        if response["margin"] is not None
    )
    METRICS.counter("serve.near_plane").inc(
        sum(
            response["plane_distance"] is not None
            and response["plane_distance"] <= 1e-3
            for response in responses
        )
    )
    return responses


def verify_offline(
    entries: Mapping[tuple, Any],
    requests: Sequence[Mapping[str, Any]],
) -> list[dict[str, Any]]:
    """Replay requests through the canonical kernel, no batching.

    ``entries`` maps ``(query, scenario)`` to store entries; each
    request is a parsed/quantized protocol request.  The returned
    responses digest-match what the server produced for the same
    request stream — that equality is the serve-smoke CI gate.
    """
    return [
        decide_one(
            entries[(request["query"], request["scenario"])],
            request["cost"],
        )
        for request in requests
    ]
