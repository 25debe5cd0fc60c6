"""The decide kernel's bitwise-parity contract.

A served response must be a pure function of ``(query, scenario,
quantized C)`` — independent of which micro-batch it rode in — and
field-for-field identical to what offline ``repro explain`` computes
through :func:`repro.obs.decisions.explain_probe`.
"""

import numpy as np

from repro.obs.decisions import explain_probe
from repro.obs.metrics import METRICS
from repro.serve import decide_group, decide_one, verify_offline
from repro.serve.protocol import quantize_costs


def _probes(entry, count, seed=0):
    rng = np.random.default_rng(seed)
    center = np.asarray(entry.center)
    factors = rng.uniform(0.2, 5.0, size=(count, entry.dimension))
    return [
        quantize_costs(center * row) for row in factors
    ]


def test_decide_one_matches_explain_probe_bitwise(q6_entry):
    (probe,) = _probes(q6_entry, 1)
    response = decide_one(q6_entry, probe)
    info = explain_probe(
        q6_entry.matrix, np.asarray(probe, dtype=float)
    )
    assert response["winner"] == info["winner"]
    assert response["winner_total"] == info["winner_total"]
    assert response["runner_up"] == info["runner_up"]
    assert response["runner_up_total"] == info["runner_up_total"]
    assert response["margin"] == info["margin"]
    assert response["plane_distance"] == info["plane_distance"]
    assert response["nearest_rival"] == info["nearest_rival"]
    assert response["candidates"] == q6_entry.plans
    assert (
        response["winner_signature"]
        == q6_entry.signatures[info["winner"]]
    )


def test_decide_group_is_batch_shape_independent(q6_entry):
    """The same probe answered alone and inside a batch of 40 must be
    byte-identical: a response never depends on what was queued
    beside it."""
    probes = _probes(q6_entry, 40, seed=1)
    batched = decide_group(q6_entry, probes)
    for position in (0, 17, 39):
        solo = decide_group(q6_entry, [probes[position]])[0]
        assert solo == batched[position]


def test_decide_group_matches_decide_one_rows(q6_entry):
    probes = _probes(q6_entry, 8, seed=2)
    group = decide_group(q6_entry, probes)
    singles = [decide_one(q6_entry, probe) for probe in probes]
    assert group == singles


def test_decide_group_records_probes_and_finite_margins(q6_entry):
    probes = _probes(q6_entry, 5, seed=3)
    probes_before = METRICS.counter("serve.probes").value
    margins_before = METRICS.histogram("serve.margin").state()["count"]
    responses = decide_group(q6_entry, probes)
    finite = sum(
        response["margin"] is not None
        and np.isfinite(response["margin"])
        for response in responses
    )
    assert METRICS.counter("serve.probes").value == probes_before + 5
    assert (
        METRICS.histogram("serve.margin").state()["count"]
        == margins_before + finite
    )


def test_verify_offline_replays_to_equal_responses(q6_entry):
    probes = _probes(q6_entry, 6, seed=4)
    requests = [
        {"query": "Q6", "scenario": "split", "cost": probe}
        for probe in probes
    ]
    online = decide_group(q6_entry, probes)
    offline = verify_offline(
        {("Q6", "split"): q6_entry}, requests
    )
    assert offline == online
