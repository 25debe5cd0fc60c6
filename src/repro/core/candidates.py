"""Candidate optimal plans (Section 4.4).

Of the many plans an optimizer enumerates, only a subset can ever become
optimal as storage access costs vary.  A plan *a* is **candidate
optimal** over a feasible cost region iff there exists a feasible cost
vector ``C`` with ``A . C <= B . C`` for every rival plan *b*.

Two facts make the test cheap:

* A plan that lies in the positive first quadrant relative to another
  plan (``A' >= A`` componentwise, ``A' != A``) is *dominated* and can be
  discarded without solving anything (Figure 3 of the paper).
* For the survivors the question is an LP feasibility problem over the
  feasible region box, solved by :mod:`repro.core.lp`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .feasible import FeasibleRegion
from .lp import feasible_point, max_min_slack
from .vectors import UsageVector

__all__ = [
    "pareto_undominated_indices",
    "is_candidate_optimal",
    "candidate_optimal_indices",
    "witness_cost_vector",
]


def pareto_undominated_indices(
    usages: Sequence[UsageVector] | np.ndarray, tol: float = 0.0
) -> list[int]:
    """Indices of plans not dominated componentwise by any other plan.

    Duplicates are kept once (the first occurrence survives).  ``tol``
    is an absolute slack for float comparisons: *a* dominates *b* when
    ``A <= B + tol`` componentwise and the vectors differ by more than
    ``tol`` somewhere.
    """
    if isinstance(usages, np.ndarray):
        matrix = usages
    else:
        matrix = np.vstack([u.values for u in usages])
    m = matrix.shape[0]
    earlier = np.arange(m)
    keep: list[int] = []
    for i in range(m):
        row = matrix[i]
        # Row j dominates row i when it is <= everywhere (within tol)
        # and either < somewhere or equal within tol and earlier (the
        # earliest of equal rows survives).
        dominated = (matrix <= row + tol).all(1) & (
            (matrix < row - tol).any(1) | (earlier < i)
        )
        dominated[i] = False
        if not dominated.any():
            keep.append(i)
    return keep


def _rival_rows(
    matrix: np.ndarray, index: int
) -> tuple[list[list[float]], list[float]]:
    """Constraint rows ``(B_j - A) . C >= 0`` for the LP test."""
    rows: list[list[float]] = []
    for j in range(matrix.shape[0]):
        if j == index:
            continue
        rows.append((matrix[j] - matrix[index]).tolist())
    rhs = [0.0] * len(rows)
    return rows, rhs


def is_candidate_optimal(
    index: int,
    usages: Sequence[UsageVector],
    region: FeasibleRegion,
    exact: bool = False,
) -> bool:
    """Is plan ``index`` optimal somewhere in ``region``?

    Variation groups of the region are honoured: grouped dimensions
    share one multiplier, which shrinks the LP to one variable per
    group (this is exactly the structure of the paper's Section 8.1.2
    experiment, where each disk's seek/transfer costs move together).
    """
    return witness_cost_vector(index, usages, region, exact=exact) is not None


def witness_cost_vector(
    index: int,
    usages: Sequence[UsageVector],
    region: FeasibleRegion,
    exact: bool = False,
):
    """A feasible cost vector making plan ``index`` optimal, or ``None``.

    The returned value is a :class:`~repro.core.vectors.CostVector`.
    """
    from .vectors import CostVector

    matrix = np.vstack([u.values for u in usages])
    space = usages[0].space
    region.space.require_same(space)

    # Reduce to multiplier space: one variable per variation group, so
    # grouped dimensions provably share a factor.  Fixed dimensions
    # contribute constants.
    groups = region.groups
    center = region.center.values
    g = len(groups)
    diff = matrix - matrix[index]  # rows: B_j - A
    rows: list[list[float]] = []
    rhs: list[float] = []
    fixed = list(region.fixed_dimensions)
    for j in range(matrix.shape[0]):
        if j == index:
            continue
        coeffs = []
        for group in groups:
            coeffs.append(
                float(sum(diff[j, k] * center[k] for k in group.indices))
            )
        constant = float(sum(diff[j, k] * center[k] for k in fixed))
        rows.append(coeffs)
        rhs.append(-constant)
    lo = [1.0 / region.delta] * g
    hi = [region.delta] * g
    point = feasible_point(rows, rhs, lo, hi, exact=exact)
    if point is None:
        return None
    values = center.copy()
    for factor, group in zip(point, groups):
        for k in group.indices:
            values[k] = center[k] * float(factor)
    return CostVector(space, values)


def candidate_optimal_indices(
    usages: Sequence[UsageVector],
    region: FeasibleRegion,
    exact: bool = False,
    prefilter_tol: float = 0.0,
) -> list[int]:
    """All candidate optimal plans among ``usages`` over ``region``.

    Componentwise-dominated plans are discarded first (sound for any
    region in the positive orthant), then each survivor gets an LP
    feasibility test.
    """
    survivors = pareto_undominated_indices(usages, tol=prefilter_tol)
    subset = [usages[i] for i in survivors]
    result = []
    for local_index, global_index in enumerate(survivors):
        if is_candidate_optimal(local_index, subset, region, exact=exact):
            result.append(global_index)
    return result


def region_of_influence_margin(
    index: int,
    usages: Sequence[UsageVector],
    region: FeasibleRegion,
    exact: bool = False,
) -> float | None:
    """Best slack of the system defining plan ``index``'s region.

    Positive margin = the region of influence has nonempty interior
    within the feasible box; zero = the plan is optimal only on a
    lower-dimensional boundary; ``None`` = not candidate optimal at all.
    The slack is measured in multiplier space, so its magnitude is
    comparable across plans.
    """
    matrix = np.vstack([u.values for u in usages])
    groups = region.groups
    center = region.center.values
    diff = matrix - matrix[index]
    rows = []
    rhs = []
    fixed = list(region.fixed_dimensions)
    for j in range(matrix.shape[0]):
        if j == index:
            continue
        coeffs = [
            float(sum(diff[j, k] * center[k] for k in group.indices))
            for group in groups
        ]
        constant = float(sum(diff[j, k] * center[k] for k in fixed))
        rows.append(coeffs)
        rhs.append(-constant)
    lo = [1.0 / region.delta] * len(groups)
    hi = [region.delta] * len(groups)
    result = max_min_slack(rows, rhs, lo, hi, exact=exact)
    if not result.is_optimal or result.objective is None:
        return None
    margin = float(result.objective)
    return margin if margin >= 0 else None
