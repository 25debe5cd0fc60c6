"""The shared sweep helpers against literal dense-kernel oracles."""

import numpy as np
import pytest

from repro.catalog import build_tpch_catalog
from repro.core.feasible import FeasibleRegion
from repro.core.resources import ResourceSpace
from repro.core.vectors import CostVector
from repro.experiments import CensusParams, RunContext, run_experiment
from repro.experiments.sweeps import (
    MC_CHUNK,
    monte_carlo_shares,
    sweep_optimal_totals,
    sweep_winners,
)
from repro.workloads import build_tpch_queries


@pytest.fixture(scope="module")
def catalog():
    return build_tpch_catalog(100)


@pytest.fixture(scope="module")
def queries(catalog):
    return build_tpch_queries(catalog)


def _matrix_and_region(m=120, d=4, seed=0):
    rng = np.random.default_rng(seed)
    pool = np.exp(rng.normal(0.0, 1.0, size=(20, d)))
    matrix = (rng.random((m, 20)) < 0.2) @ pool + 0.01
    space = ResourceSpace.from_names([f"r{i}" for i in range(d)])
    region = FeasibleRegion(
        CostVector(space, np.full(d, 2.0)), 100.0
    )
    return matrix, region


def test_sweep_winners_equals_dense_argmin_oracle():
    matrix, region = _matrix_and_region()
    costs = region.sample_matrix(np.random.default_rng(1), 1000)
    np.testing.assert_array_equal(
        sweep_winners(matrix, costs),
        np.argmin(costs @ matrix.T, axis=1),
    )


def test_sweep_winners_breaks_duplicate_row_ties_low():
    # Small integers keep every total exact, so duplicated rows tie
    # exactly and the oracle below is plain integer arithmetic.
    rng = np.random.default_rng(7)
    base = rng.integers(1, 6, size=(5, 3)).astype(float)
    matrix = np.vstack([base, base[::-1], base])
    costs = rng.integers(1, 6, size=(200, 3)).astype(float)
    winners = sweep_winners(matrix, costs)
    np.testing.assert_array_equal(
        winners, np.argmin(costs @ matrix.T, axis=1)
    )
    for cost, winner in zip(costs.astype(int), winners):
        totals = [int(row @ cost) for row in matrix.astype(int)]
        assert winner == totals.index(min(totals))
    assert (winners < len(base)).all()


def test_sweep_optimal_totals_match_winner_row_einsum():
    matrix, region = _matrix_and_region(seed=2)
    costs = region.sample_matrix(np.random.default_rng(3), 500)
    winners, totals = sweep_optimal_totals(matrix, costs)
    np.testing.assert_array_equal(
        winners, np.argmin(costs @ matrix.T, axis=1)
    )
    # Totals are winner-row dot products, bitwise — not the (block
    # rounded) entries of the dense product.
    np.testing.assert_array_equal(
        totals,
        np.einsum("rd,rd->r", costs, matrix[winners], optimize=True),
    )
    np.testing.assert_allclose(
        totals, (costs @ matrix.T).min(axis=1), rtol=1e-12
    )


def test_monte_carlo_shares_sum_to_one_and_match_dense():
    matrix, region = _matrix_and_region(seed=4)
    n_samples = 6000
    shares = monte_carlo_shares(
        matrix, region, np.random.default_rng(5), n_samples
    )
    assert shares.sum() == pytest.approx(1.0)
    rng = np.random.default_rng(5)
    counts = np.zeros(len(matrix), dtype=np.int64)
    for start in range(0, n_samples, MC_CHUNK):
        samples = region.sample_matrix(
            rng, min(MC_CHUNK, n_samples - start)
        )
        counts += np.bincount(
            np.argmin(samples @ matrix.T, axis=1), minlength=len(matrix)
        )
    np.testing.assert_array_equal(shares, counts / n_samples)


def test_monte_carlo_shares_rejects_nonpositive_samples():
    matrix, region = _matrix_and_region(seed=6)
    with pytest.raises(ValueError, match="positive"):
        monte_carlo_shares(
            matrix, region, np.random.default_rng(0), 0
        )


def test_census_serial_vs_jobs2_digest_parity(catalog, queries):
    params = CensusParams(scenario_key="split")
    subset = {name: queries[name] for name in ("Q6", "Q14")}
    serial_ctx = RunContext(catalog=catalog, queries=subset, jobs=1)
    fanout_ctx = RunContext(catalog=catalog, queries=subset, jobs=2)
    run_experiment("census", params, serial_ctx)
    run_experiment("census", params, fanout_ctx)
    assert serial_ctx.result_digests == fanout_ctx.result_digests
    assert serial_ctx.result_digests
