"""Parity of the vectorized skyline code with its sequential definitions.

:class:`ParetoPruner` and :func:`pareto_undominated_indices` test each
plan against all others in one broadcast.  The oracles below are the
plain loops they replaced, kept here (not in ``src/``) as the
definition of the semantics: the same kept objects in the same order,
the same ``truncated`` flag and the same index lists, also for exact
duplicates, rows within ``tol`` of each other and mixed orders.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import pareto_undominated_indices
from repro.core.resources import ResourceSpace
from repro.core.vectors import CostVector, UsageVector
from repro.optimizer.dp import ParetoPruner, RawPlan
from repro.optimizer.plans import TableScanNode

ORDERS = (None, ("A", "a"), ("B", "b"))
TOLS = (0.0, 1e-9, 0.25)


def oracle_pareto_prune(plans, tol, cell_cap=None, center=None):
    """The sequential per-plan loop ``ParetoPruner.prune`` replaced."""
    kept = []
    for plan in plans:
        values = plan.values
        dominated = False
        for other in kept:
            if other.order is not None and other.order != plan.order:
                continue
            if np.all(other.values <= values + tol):
                dominated = True
                break
        if dominated:
            continue
        kept = [
            other
            for other in kept
            if not (
                (plan.order is None or plan.order == other.order)
                and np.all(values <= other.values + tol)
            )
        ]
        kept.append(plan)
    truncated = False
    if cell_cap is not None and len(kept) > cell_cap:
        truncated = True
        kept.sort(key=lambda p: float(p.values @ center.values))
        kept = kept[:cell_cap]
    return kept, truncated


def oracle_undominated_indices(matrix, tol=0.0):
    """The O(m^2) scalar loop ``pareto_undominated_indices`` replaced."""
    m = matrix.shape[0]
    keep = []
    for i in range(m):
        row = matrix[i]
        dominated = False
        for j in range(m):
            if i == j:
                continue
            other = matrix[j]
            if np.all(other <= row + tol):
                if np.any(other < row - tol):
                    dominated = True
                    break
                if j < i:
                    dominated = True
                    break
        if not dominated:
            keep.append(i)
    return keep


@st.composite
def usage_matrix(draw, tol):
    """Rows on a coarse grid, jittered by multiples of ``tol``, with
    exact copies of earlier rows mixed in."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(0, 30))
    step = max(tol, 1e-9)
    jitter = st.sampled_from((0.0, 0.0, 0.5, -0.5, 1.0, -1.0, 1.5, 2.0))
    rows = []
    for __ in range(n):
        if rows and draw(st.booleans()) and draw(st.booleans()):
            rows.append(rows[draw(st.integers(0, len(rows) - 1))].copy())
            continue
        grid = draw(st.lists(st.integers(0, 3), min_size=d, max_size=d))
        shift = draw(st.lists(jitter, min_size=d, max_size=d))
        row = np.asarray(grid, float) + 1.0 + np.asarray(shift) * step
        rows.append(row)
    if not rows:
        return np.zeros((0, d))
    return np.vstack(rows)


@st.composite
def pruner_case(draw):
    tol = draw(st.sampled_from(TOLS))
    matrix = draw(usage_matrix(tol))
    orders = draw(
        st.lists(
            st.sampled_from(ORDERS),
            min_size=len(matrix),
            max_size=len(matrix),
        )
    )
    plans = [
        RawPlan(TableScanNode(f"A{i}", "T"), row, 1.0, order)
        for i, (row, order) in enumerate(zip(matrix, orders))
    ]
    cap = draw(st.one_of(st.none(), st.integers(1, 6)))
    center = None
    if cap is not None:
        d = matrix.shape[1]
        space = ResourceSpace.from_names([f"r{k}" for k in range(d)])
        weights = draw(
            st.lists(
                st.sampled_from((1.0, 2.0, 0.5, 3.0)),
                min_size=d,
                max_size=d,
            )
        )
        center = CostVector(space, weights)
    return plans, tol, cap, center


@given(pruner_case())
@settings(max_examples=300, deadline=None)
def test_pareto_pruner_matches_sequential_loop(case):
    plans, tol, cap, center = case
    pruner = ParetoPruner(tol=tol, cell_cap=cap, center=center)
    kept = pruner.prune(list(plans))
    expected, truncated = oracle_pareto_prune(plans, tol, cap, center)
    assert [id(p) for p in kept] == [id(p) for p in expected]
    assert pruner.truncated == truncated


@given(st.sampled_from(TOLS).flatmap(
    lambda tol: st.tuples(st.just(tol), usage_matrix(tol))
))
@settings(max_examples=300, deadline=None)
def test_undominated_indices_match_sequential_loop(case):
    tol, matrix = case
    if not len(matrix):
        return
    expected = oracle_undominated_indices(matrix, tol)
    assert pareto_undominated_indices(matrix, tol=tol) == expected
    space = ResourceSpace.from_names(
        [f"r{k}" for k in range(matrix.shape[1])]
    )
    usages = [UsageVector(space, row) for row in matrix]
    assert pareto_undominated_indices(usages, tol=tol) == expected


def test_pruner_order_rules_on_a_small_cell():
    def plan(i, row, order=None):
        return RawPlan(TableScanNode(f"A{i}", "T"), np.array(row), 1.0, order)

    first = plan(0, [1.0, 2.0])
    twin = plan(1, [1.0, 2.0])  # equal: the first seen wins
    worse = plan(2, [2.0, 3.0], ("A", "a"))  # an unordered plan prunes it
    left = plan(3, [0.5, 3.0], ("A", "a"))
    right = plan(4, [0.5, 3.0], ("B", "b"))  # other order: not pruned
    kept = ParetoPruner().prune([first, twin, worse, left, right])
    assert [p.node.alias for p in kept] == ["A0", "A3", "A4"]
    assert ParetoPruner().prune([]) == []
