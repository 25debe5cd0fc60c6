"""Total, relative and global-relative plan cost (Sections 3 and 5).

* :func:`total_cost` — ``T = U . C`` (Equation 3).
* :func:`relative_total_cost` — ``T_rel(a, b, C)`` (Equation 7), the
  unitless ratio used throughout the sensitivity analysis.
* :func:`global_relative_cost` — ``GTC_rel(a, C)``, the relative total
  cost of plan *a* with respect to the plan that is optimal under ``C``
  (Section 5.2).  ``GTC_rel(a, C) >= 1`` always, with equality iff *a*
  is optimal under ``C``.

The module also exposes :func:`optimal_plan_index` /
:func:`optimal_plan`, the building blocks the experiment harness uses to
evaluate plan sets at many cost vectors at once, and
:func:`dense_owner_batch`, the one batched winner lookup
(``argmin(C @ U.T)``) every vectorised sweep runs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .vectors import CostVector, UsageVector

__all__ = [
    "total_cost",
    "relative_total_cost",
    "global_relative_cost",
    "optimal_plan_index",
    "optimal_plan",
    "dense_owner_batch",
    "usage_matrix",
]


def total_cost(usage: UsageVector, cost: CostVector) -> float:
    """True total cost ``T = U . C`` of a plan (Equation 3)."""
    return usage.dot(cost)


def relative_total_cost(
    usage_a: UsageVector, usage_b: UsageVector, cost: CostVector
) -> float:
    """``T_rel(a, b, C)`` — cost of plan *a* over cost of plan *b*.

    Raises :class:`ZeroDivisionError` if plan *b* has zero total cost
    under ``C`` (only possible for the all-zero usage vector, since cost
    components are strictly positive).
    """
    denominator = usage_b.dot(cost)
    if denominator == 0.0:
        raise ZeroDivisionError(
            "reference plan has zero total cost under the given costs"
        )
    return usage_a.dot(cost) / denominator


def usage_matrix(plans: Sequence[UsageVector]) -> np.ndarray:
    """Stack plan usage vectors into an ``(m, n)`` matrix.

    All plans must share the same resource space.  The matrix layout is
    one row per plan, one column per resource, which is what the
    vectorised sweeps in :mod:`repro.core.worstcase` expect.
    """
    if not plans:
        raise ValueError("need at least one plan")
    space = plans[0].space
    for plan in plans[1:]:
        space.require_same(plan.space)
    return np.vstack([plan.values for plan in plans])


def optimal_plan_index(
    plans: Sequence[UsageVector], cost: CostVector
) -> int:
    """Index of the plan with minimum total cost under ``cost``.

    Ties are broken in favour of the lowest index, which makes the
    function deterministic — important for the black-box optimizer
    facade, whose answers must be reproducible.
    """
    matrix = usage_matrix(plans)
    plans[0].space.require_same(cost.space)
    totals = matrix @ cost.values
    return int(np.argmin(totals))


def dense_owner_batch(
    matrix: np.ndarray, costs: np.ndarray
) -> np.ndarray:
    """The batched winner lookup: ``argmin(C @ U.T)`` per cost row.

    ``np.argmin`` returns the first minimum, so the repo's lowest-index
    tie-break is built in.
    """
    with np.errstate(invalid="ignore"):
        return np.argmin(costs @ matrix.T, axis=1)


def optimal_plan(
    plans: Sequence[UsageVector], cost: CostVector
) -> UsageVector:
    """The plan (usage vector) with minimum total cost under ``cost``."""
    return plans[optimal_plan_index(plans, cost)]


def global_relative_cost(
    usage: UsageVector,
    candidates: Sequence[UsageVector],
    cost: CostVector,
) -> float:
    """``GTC_rel(a, C)``: cost of *a* relative to the optimum under ``C``.

    ``candidates`` must contain every plan that can be optimal somewhere
    in the region of interest (the *candidate optimal plans* of
    Section 4.4); the optimum under ``C`` is then the cheapest candidate.
    The measured plan itself does not need to be in ``candidates`` — if
    it is cheaper than all of them the result is < 1, which callers can
    use to detect an incomplete candidate set.
    """
    best = optimal_plan(candidates, cost)
    return relative_total_cost(usage, best, cost)
