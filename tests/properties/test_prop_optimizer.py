"""Property-based tests for the optimizer over random workloads."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.vectors import CostVector
from repro.optimizer.config import DEFAULT_PARAMETERS
from repro.optimizer.dp import enumerate_root_plans, optimize_scalar
from repro.storage import StorageLayout
from repro.workloads.generator import JOIN_SHAPES, random_catalog, random_query


def _workload(seed, n_tables, shape):
    rng = np.random.default_rng(seed)
    catalog = random_catalog(rng, n_tables=n_tables)
    query = random_query(rng, catalog, shape=shape)
    layout = StorageLayout.shared_device(query.table_names())
    return catalog, query, layout, seed


@st.composite
def workload(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    n_tables = draw(st.integers(2, 4))
    shape = draw(st.sampled_from(JOIN_SHAPES))
    return _workload(seed, n_tables, shape)


@given(workload())
@settings(max_examples=25, deadline=None)
def test_scalar_optimum_is_in_pareto_set(setup):
    """The scalar DP's choice is never cheaper than the best Pareto
    plan, and never more expensive either — they coincide."""
    catalog, query, layout, seed = setup
    plans, truncated = enumerate_root_plans(
        query, catalog, DEFAULT_PARAMETERS, layout, cell_cap=None
    )
    assert not truncated
    rng = np.random.default_rng(seed)
    for _ in range(3):
        factors = 10.0 ** rng.uniform(-2, 2, layout.space.dimension)
        cost = CostVector(
            layout.space, layout.center_costs().values * factors
        )
        scalar = optimize_scalar(
            query, catalog, DEFAULT_PARAMETERS, layout, cost
        )
        best = min(p.usage.dot(cost) for p in plans)
        assert scalar.usage.dot(cost) == pytest.approx(best, rel=1e-9)


# Exact cost ties: the two plans differ only in the order of two index
# probes (IXPROBE(A1,T1_F)/IXPROBE(A3,T3_F) in the first draw), so
# scaling C rounds their equal totals differently; the pick must still
# not flip.
@given(workload(), st.floats(1e-3, 1e3))
@example(_workload(139, 4, "star"), 5.0)
@example(_workload(329, 4, "star"), 0.1)
@settings(max_examples=25, deadline=None)
def test_observation1_for_the_optimizer(setup, k):
    """Scaling ALL costs by k never changes the chosen plan."""
    catalog, query, layout, __ = setup
    base = layout.center_costs()
    plan_a = optimize_scalar(
        query, catalog, DEFAULT_PARAMETERS, layout, base
    )
    plan_b = optimize_scalar(
        query, catalog, DEFAULT_PARAMETERS, layout, base.scaled(k)
    )
    assert plan_a.signature == plan_b.signature


@given(workload())
@settings(max_examples=25, deadline=None)
def test_plans_cover_all_aliases_with_positive_usage(setup):
    catalog, query, layout, __ = setup
    plans, __ = enumerate_root_plans(
        query, catalog, DEFAULT_PARAMETERS, layout, cell_cap=64
    )
    for plan in plans:
        assert plan.node.aliases() == frozenset(query.aliases)
        assert plan.usage.values.sum() > 0
        assert plan.rows >= 1.0
