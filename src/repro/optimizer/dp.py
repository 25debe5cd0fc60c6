"""Join enumeration: Selinger-style DP with pluggable pruning.

One enumerator serves two modes:

* **Scalar mode** (:class:`ScalarPruner`) — classic dynamic programming
  under a fixed cost vector; this is what the black-box facade runs on
  every ``optimize(C)`` call, mirroring how the paper re-ran the DB2
  optimizer at every sampled cost vector.
* **Parametric mode** (:class:`ParetoPruner`) — per-subproblem sets of
  vector-wise undominated plans.  Componentwise domination is sound for
  any positive cost vector under the additive cost model, so the root's
  Pareto set contains every plan that can be optimal anywhere in the
  positive orthant; LP filtering (:mod:`repro.core.candidates`) then
  yields the *exact* candidate optimal plan set.  This is the white-box
  ground truth the paper could not extract from DB2.

The plan space: left-linear join trees over connected subgraphs, with
table scans / index range scans / index-only scans as access paths,
index nested-loop joins (with buffer-pool-aware probe costs), rescan
nested loops for buffer-pool-resident inners, hash joins with either
side as build, and sort-merge joins with sort enforcers and interesting
orders.  GROUP BY and ORDER BY add aggregation/sort at the root.

Pruning soundness relies on two standard properties: plan cost is the
sum of child costs plus operator-local usage (so a componentwise-
dominated subplan cannot become part of a strictly better full plan),
and order-sensitive futures are protected by only pruning a plan
against plans with the same — or no — required order.

Inside the enumerator a plan is a :class:`RawPlan`: its usage is a raw
float64 array.  :meth:`StorageLayout.to_usage` validates each operator's
usage once; sums of validated non-negative finite arrays stay
non-negative, so intermediate plans are never validated again.
Validated :class:`UsageVector` objects are built only for the plans
that leave the enumerator (:meth:`PlanEnumerator.enumerate` returns
:class:`CostedPlan`); a root plan whose usage overflowed to ``inf`` is
rejected there.  :class:`ParetoPruner` holds each cell's plans
struct-of-arrays, so each insertion is one broadcast dominance test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..catalog.statistics import Catalog
from ..core.resources import ResourceSpace
from ..core.vectors import CostVector, UsageVector
from ..storage.layout import IOAccount, StorageLayout
from .config import SystemParameters
from .operators import CostModel
from .plans import (
    AggregateNode,
    HashJoinNode,
    IndexProbeNode,
    IndexScanNode,
    MergeJoinNode,
    NestedLoopJoinNode,
    PlanNode,
    SortNode,
    TableScanNode,
)
from .query import QuerySpec
from .selectivity import CardinalityModel

__all__ = [
    "CostedPlan",
    "RawPlan",
    "ScalarPruner",
    "ParetoPruner",
    "PlanEnumerator",
    "optimize_scalar",
    "enumerate_root_plans",
]

#: Relative gap below which two plan totals are an exact tie in scalar
#: mode (a few ulps of float64).
_TIE_REL_TOL = 1e-12


@dataclass
class CostedPlan:
    """A plan with its usage vector, cardinality and output order."""

    node: PlanNode
    usage: UsageVector
    rows: float
    order: tuple[str, str] | None = None

    @property
    def signature(self) -> str:
        return self.node.signature()


@dataclass(slots=True)
class RawPlan:
    """A plan inside the enumerator: usage as a raw float64 array.

    ``values`` is never validated again after the operator usages it
    sums were (see the module docstring); :meth:`costed` builds the
    validated :class:`CostedPlan` at the enumerator's edge.
    """

    node: PlanNode
    values: np.ndarray
    rows: float
    order: tuple[str, str] | None = None

    @property
    def signature(self) -> str:
        return self.node.signature()

    def costed(self, space: ResourceSpace) -> CostedPlan:
        return CostedPlan(
            self.node, UsageVector(space, self.values), self.rows, self.order
        )


def _cheaper(score: float, plan, lowest: float, best) -> bool:
    """Does ``plan`` (total ``score``) beat ``best`` (total ``lowest``)?

    Totals equal within a few ulps are ties broken by signature, so the
    pick cannot flip when every cost is scaled by the same factor
    (Observation 1): scaling rounds two equal sums differently.
    """
    if math.isclose(score, lowest, rel_tol=_TIE_REL_TOL):
        return plan.signature < best.signature
    return score < lowest


def _cheapest(scored):
    """The plan of the lowest ``(score, plan)`` pair, ties by signature."""
    best, lowest = None, math.inf
    for score, plan in scored:
        if best is None or _cheaper(score, plan, lowest, best):
            best, lowest = plan, score
    return best


class ScalarPruner:
    """Keep the single cheapest plan per order group under a fixed C."""

    def __init__(self, cost: CostVector) -> None:
        self._cost = cost.values

    def prune(self, plans: list[RawPlan]) -> list[RawPlan]:
        best: dict[tuple[str, str] | None, RawPlan] = {}
        scores: dict[tuple[str, str] | None, float] = {}
        for plan in plans:
            score = float(plan.values @ self._cost)
            key = plan.order
            if key not in best or _cheaper(
                score, plan, scores[key], best[key]
            ):
                best[key] = plan
                scores[key] = score
        cheapest = _cheapest(
            (scores[key], plan) for key, plan in best.items()
        )
        # Ordered winners survive (their order may pay off later); the
        # unordered winner survives only if it is the overall cheapest.
        return [
            plan
            for plan in best.values()
            if plan.order is not None or plan is cheapest
        ]


class ParetoPruner:
    """Keep vector-wise undominated plans, respecting orders.

    Plan *a* prunes plan *b* when ``a.usage <= b.usage + tol``
    componentwise and *a* has *b*'s order or no order.  Componentwise-
    equal plans keep the first seen (deduplication); survivors keep
    insertion order.

    The cell is held struct-of-arrays: one ``(n, d + m)`` matrix whose
    first ``d`` columns are the plans' usage and whose last ``m``
    columns one-hot encode the cell's ``m`` distinct orders (all zero
    for no order).  A second copy carries ``usage + tol``.  Order
    compatibility then is the same componentwise ``<=`` on the order
    columns, so each insertion is two broadcasts over the kept rows —
    *dominated*: ``(kept <= plan + tol).all(1).any()``; *evicts*:
    ``(plan <= kept + tol).all(1)`` — with the exact semantics of
    testing the kept plans one by one.

    ``cell_cap`` bounds per-cell set sizes; on overflow the cheapest
    plans under ``center`` survive and :attr:`truncated` is set, so
    callers can report possibly-incomplete candidate sets (the paper
    hit the analogous wall: Section 8.2 covers only 16 of 22 queries in
    its hardest configuration).
    """

    def __init__(
        self,
        tol: float = 1e-9,
        cell_cap: int | None = None,
        center: CostVector | None = None,
    ) -> None:
        if cell_cap is not None and center is None:
            raise ValueError("cell_cap requires a center cost vector")
        self._tol = tol
        self._cap = cell_cap
        self._center = center
        self.truncated = False

    def prune(self, plans: list[RawPlan]) -> list[RawPlan]:
        if not plans:
            return []
        # One column per distinct order after the d usage columns.
        d = plans[0].values.shape[0]
        columns: dict[tuple[str, str], int] = {}
        for plan in plans:
            if plan.order is not None:
                columns.setdefault(plan.order, d + len(columns))
        rows = np.zeros((len(plans), d + len(columns)))
        np.stack([plan.values for plan in plans], out=rows[:, :d])
        for i, plan in enumerate(plans):
            if plan.order is not None:
                rows[i, columns[plan.order]] = 1.0
        shifted = rows.copy()
        shifted[:, :d] += self._tol

        kept_rows = np.empty_like(rows)
        kept_shifted = np.empty_like(rows)
        kept: list[int] = []
        for i in range(len(plans)):
            k = len(kept)
            if k:
                if (kept_rows[:k] <= shifted[i]).all(1).any():
                    continue  # dominated, or equal to an earlier plan
                evicted = (rows[i] <= kept_shifted[:k]).all(1)
                if evicted.any():
                    stay = ~evicted
                    kept = list(itertools.compress(kept, stay))
                    k = len(kept)
                    kept_rows[:k] = kept_rows[: len(stay)][stay]
                    kept_shifted[:k] = kept_shifted[: len(stay)][stay]
            kept_rows[k] = rows[i]
            kept_shifted[k] = shifted[i]
            kept.append(i)

        survivors = [plans[i] for i in kept]
        if self._cap is not None and len(survivors) > self._cap:
            self.truncated = True
            center = self._center.values
            survivors.sort(key=lambda plan: float(plan.values @ center))
            survivors = survivors[: self._cap]
        return survivors


class PlanEnumerator:
    """Enumerates costed plans for one query over one storage layout."""

    def __init__(
        self,
        query: QuerySpec,
        catalog: Catalog,
        params: SystemParameters,
        layout: StorageLayout,
        include_rescans: bool = True,
        include_order_scans: bool = True,
        bushy: bool = False,
    ) -> None:
        self.query = query
        self.model = CardinalityModel(query, catalog)
        self.costs = CostModel(catalog, params)
        self.layout = layout
        self.params = params
        self.catalog = catalog
        self._include_rescans = include_rescans
        self._include_order_scans = include_order_scans
        self._bushy = bushy
        self._base_cache: dict[str, list[RawPlan]] = {}

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _usage(self, account: IOAccount) -> np.ndarray:
        """One operator's usage, validated once by the layout."""
        return self.layout.to_usage(account).values

    def _needed_columns(self, alias: str) -> set[str]:
        """Columns of ``alias`` the rest of the plan must see."""
        needed: set[str] = set()
        for join in self.query.joins:
            if alias in join.aliases():
                needed.add(join.column_for(alias))
        for predicate in self.query.predicates_for(alias):
            if predicate.column is not None:
                needed.add(predicate.column)
            else:
                # Residual predicate over unspecified columns: the full
                # row is required, no index-only access.
                needed.add("*")
        for clause_alias, column in (
            tuple(self.query.group_by) + tuple(self.query.order_by)
        ):
            if clause_alias == alias:
                needed.add(column)
        return needed

    def _index_covers(self, index_name: str, alias: str) -> bool:
        index = self.catalog.index(index_name)
        needed = self._needed_columns(alias)
        return "*" not in needed and needed <= set(index.key_columns)

    def _join_columns(self, alias: str) -> set[str]:
        return {
            join.column_for(alias)
            for join in self.query.joins
            if alias in join.aliases()
        }

    # ------------------------------------------------------------------
    # Base access paths
    # ------------------------------------------------------------------
    def base_plans(self, alias: str) -> list[RawPlan]:
        """All access paths for one alias (cached)."""
        cached = self._base_cache.get(alias)
        if cached is not None:
            return cached
        query = self.query
        table = query.table_of(alias)
        rows_out = self.model.filtered_rows(alias)
        predicates = query.predicates_for(alias)
        plans: list[RawPlan] = []

        scan = self.costs.table_scan(table, len(predicates), rows_out)
        plans.append(
            RawPlan(
                TableScanNode(alias, table),
                self._usage(scan.account),
                rows_out,
            )
        )

        # Index range scans driven by sargable predicates.
        for predicate in predicates:
            if predicate.column is None:
                continue
            for index in self.catalog.indexes_with_leading_column(
                table, predicate.column
            ):
                index_only = self._index_covers(index.name, alias)
                result = self.costs.index_scan(
                    table,
                    index.name,
                    matched_selectivity=predicate.selectivity,
                    n_residual_predicates=len(predicates) - 1,
                    output_rows=rows_out,
                    index_only=index_only,
                )
                node = IndexScanNode(
                    alias, table, index.name, predicate.column, index_only
                )
                plans.append(
                    RawPlan(
                        node,
                        self._usage(result.account),
                        rows_out,
                        order=(alias, predicate.column),
                    )
                )

        # Full index scans that deliver an interesting order on a join
        # column (feeding merge joins without a sort).
        if self._include_order_scans:
            existing = {plan.signature for plan in plans}
            for column in sorted(self._join_columns(alias)):
                for index in self.catalog.indexes_with_leading_column(
                    table, column
                ):
                    index_only = self._index_covers(index.name, alias)
                    node = IndexScanNode(
                        alias, table, index.name, column, index_only
                    )
                    if node.signature() in existing:
                        continue
                    result = self.costs.index_scan(
                        table,
                        index.name,
                        matched_selectivity=1.0,
                        n_residual_predicates=len(predicates),
                        output_rows=rows_out,
                        index_only=index_only,
                    )
                    plans.append(
                        RawPlan(
                            node,
                            self._usage(result.account),
                            rows_out,
                            order=(alias, column),
                        )
                    )
        self._base_cache[alias] = plans
        return plans

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def _sorted_variant(
        self, plan: RawPlan, key: tuple[str, str], width: float
    ) -> RawPlan:
        """Wrap ``plan`` in a sort on ``key`` (no-op if already ordered)."""
        if plan.order == key:
            return plan
        usage = plan.values + self._usage(self.costs.sort(plan.rows, width))
        return RawPlan(
            SortNode(plan.node, (key,)), usage, plan.rows, order=key
        )

    def join_plans(
        self, outer: RawPlan, outer_aliases: frozenset, inner_alias: str
    ) -> list[RawPlan]:
        """All ways to join ``outer`` with base table ``inner_alias``."""
        query = self.query
        model = self.model
        costs = self.costs
        table = query.table_of(inner_alias)
        edges = query.joins_between(outer_aliases, {inner_alias})
        if not edges:
            return []
        combined = outer_aliases | {inner_alias}
        rows_out = model.join_rows(combined)
        predicates = query.predicates_for(inner_alias)
        local_sel = model.local_selectivity(inner_alias)
        matches = model.matches_per_probe(outer_aliases, inner_alias)
        plans: list[RawPlan] = []

        # --- index nested-loop joins ---------------------------------
        inner_join_columns = {edge.column_for(inner_alias) for edge in edges}
        for column in sorted(inner_join_columns):
            for index in self.catalog.indexes_with_leading_column(
                table, column
            ):
                index_only = self._index_covers(index.name, inner_alias)
                # Probes see index entries before local predicates.
                fetched_per_probe = (
                    matches / local_sel if local_sel > 0 else matches
                )
                op_usage = self._usage(
                    costs.index_probes(
                        table,
                        index.name,
                        n_probes=outer.rows,
                        matches_per_probe=fetched_per_probe,
                        n_residual_predicates=len(predicates),
                        index_only=index_only,
                    )
                )
                node = NestedLoopJoinNode(
                    outer.node,
                    IndexProbeNode(
                        inner_alias, table, index.name, column, index_only
                    ),
                )
                plans.append(
                    RawPlan(
                        node,
                        outer.values + op_usage,
                        rows_out,
                        order=outer.order,
                    )
                )

        # --- rescan nested loops (tiny resident inners) ---------------
        table_pages = self.catalog.n_pages(table)
        if self._include_rescans and costs.fits_in_bufferpool(table_pages):
            account = costs.rescans(table, outer.rows, len(predicates))
            account.add_cpu(rows_out * self.params.cpu_per_tuple)
            node = NestedLoopJoinNode(
                outer.node, TableScanNode(inner_alias, table)
            )
            plans.append(
                RawPlan(
                    node,
                    outer.values + self._usage(account),
                    rows_out,
                    order=outer.order,
                )
            )

        # --- hash joins (either side builds) ---------------------------
        width_outer = float(model.tuple_width(outer_aliases))
        width_inner = float(model.carried_width(inner_alias))
        inner_rows = model.filtered_rows(inner_alias)
        for base in self.base_plans(inner_alias):
            build_inner = self._usage(
                costs.hash_join(
                    build_rows=inner_rows,
                    build_width=width_inner,
                    probe_rows=outer.rows,
                    probe_width=width_outer,
                    output_rows=rows_out,
                )
            )
            plans.append(
                RawPlan(
                    HashJoinNode(base.node, outer.node),
                    outer.values + base.values + build_inner,
                    rows_out,
                    order=None,
                )
            )
            build_outer = self._usage(
                costs.hash_join(
                    build_rows=outer.rows,
                    build_width=width_outer,
                    probe_rows=inner_rows,
                    probe_width=width_inner,
                    output_rows=rows_out,
                )
            )
            plans.append(
                RawPlan(
                    HashJoinNode(outer.node, base.node),
                    outer.values + base.values + build_outer,
                    rows_out,
                    order=None,
                )
            )

        # --- sort-merge joins ------------------------------------------
        for edge in edges:
            outer_alias = edge.other(inner_alias)
            outer_key = (outer_alias, edge.column_for(outer_alias))
            inner_key = (inner_alias, edge.column_for(inner_alias))
            sorted_outer = self._sorted_variant(outer, outer_key, width_outer)
            merge_usage = None
            for base in self.base_plans(inner_alias):
                sorted_inner = self._sorted_variant(
                    base, inner_key, width_inner
                )
                if merge_usage is None:
                    merge_usage = self._usage(
                        costs.merge_join(
                            sorted_outer.rows, sorted_inner.rows, rows_out
                        )
                    )
                node = MergeJoinNode(
                    sorted_outer.node,
                    sorted_inner.node,
                    outer_key,
                    inner_key,
                )
                plans.append(
                    RawPlan(
                        node,
                        sorted_outer.values
                        + sorted_inner.values
                        + merge_usage,
                        rows_out,
                        order=outer_key,
                    )
                )
        return plans

    def bushy_join_plans(
        self,
        left: RawPlan,
        right: RawPlan,
        left_set: frozenset,
        right_set: frozenset,
    ) -> list[RawPlan]:
        """Join two composite subplans (bushy trees).

        Composite inners cannot be index-probed or rescanned cheaply,
        so the bushy combinations are hash join (either side builds)
        and sort-merge join per connecting edge.
        """
        query = self.query
        model = self.model
        costs = self.costs
        edges = query.joins_between(left_set, right_set)
        if not edges:
            return []
        rows_out = model.join_rows(left_set | right_set)
        width_left = float(model.tuple_width(left_set))
        width_right = float(model.tuple_width(right_set))
        plans: list[RawPlan] = []
        for build, probe, build_width, probe_width in (
            (left, right, width_left, width_right),
            (right, left, width_right, width_left),
        ):
            usage = self._usage(
                costs.hash_join(
                    build_rows=build.rows,
                    build_width=build_width,
                    probe_rows=probe.rows,
                    probe_width=probe_width,
                    output_rows=rows_out,
                )
            )
            plans.append(
                RawPlan(
                    HashJoinNode(build.node, probe.node),
                    build.values + probe.values + usage,
                    rows_out,
                    order=None,
                )
            )
        for edge in edges:
            left_alias = (
                edge.left_alias
                if edge.left_alias in left_set
                else edge.right_alias
            )
            right_alias = edge.other(left_alias)
            left_key = (left_alias, edge.column_for(left_alias))
            right_key = (right_alias, edge.column_for(right_alias))
            sorted_left = self._sorted_variant(left, left_key, width_left)
            sorted_right = self._sorted_variant(
                right, right_key, width_right
            )
            merge_usage = self._usage(
                costs.merge_join(
                    sorted_left.rows, sorted_right.rows, rows_out
                )
            )
            plans.append(
                RawPlan(
                    MergeJoinNode(
                        sorted_left.node,
                        sorted_right.node,
                        left_key,
                        right_key,
                    ),
                    sorted_left.values + sorted_right.values + merge_usage,
                    rows_out,
                    order=left_key,
                )
            )
        return plans

    # ------------------------------------------------------------------
    # Root enforcers
    # ------------------------------------------------------------------
    def finalize(self, plan: RawPlan) -> RawPlan:
        """Apply GROUP BY aggregation and the final ORDER BY sort."""
        query = self.query
        model = self.model
        result = plan
        if query.group_by:
            groups = model.group_count()
            width = float(model.tuple_width(query.aliases))
            usage = result.values + self._usage(
                self.costs.aggregate(result.rows, width, groups)
            )
            result = RawPlan(
                AggregateNode(result.node, tuple(query.group_by)),
                usage,
                groups,
                order=None,
            )
        if query.order_by:
            keys = tuple(query.order_by)
            already = (
                len(keys) == 1
                and result.order == keys[0]
                and not query.group_by
            )
            if not already:
                width = float(model.tuple_width(query.aliases))
                usage = result.values + self._usage(
                    self.costs.sort(result.rows, width)
                )
                result = RawPlan(
                    SortNode(result.node, keys),
                    usage,
                    result.rows,
                    order=keys[0],
                )
        return result

    # ------------------------------------------------------------------
    # The DP driver
    # ------------------------------------------------------------------
    def enumerate(self, pruner) -> list[RawPlan]:
        """Run the DP and return finalized, pruned root plans."""
        query = self.query
        # Canonical enumeration order: iterating the alias frozenset
        # directly would order subsets (and therefore plan generation
        # and equal-cost tie-breaks) by randomized string hashes.
        aliases = sorted(query.aliases)
        memo: dict[frozenset, list[RawPlan]] = {}
        for alias in aliases:
            memo[frozenset({alias})] = pruner.prune(self.base_plans(alias))

        n = len(aliases)
        for size in range(2, n + 1):
            for subset in itertools.combinations(aliases, size):
                subset_set = frozenset(subset)
                cell: list[RawPlan] = []
                for inner_alias in subset:
                    rest = subset_set - {inner_alias}
                    rest_plans = memo.get(rest)
                    if not rest_plans:
                        continue
                    if not query.joins_between(rest, {inner_alias}):
                        continue  # avoid cross products
                    for outer in rest_plans:
                        cell.extend(
                            self.join_plans(outer, rest, inner_alias)
                        )
                if self._bushy and size >= 4:
                    # Proper partitions with both sides >= 2 aliases;
                    # anchoring the first alias to the left side avoids
                    # enumerating each partition twice.
                    anchor, *others = subset
                    for left_size in range(1, size - 2):
                        for chosen in itertools.combinations(
                            others, left_size
                        ):
                            left_set = frozenset((anchor, *chosen))
                            right_set = subset_set - left_set
                            left_plans = memo.get(left_set)
                            right_plans = memo.get(right_set)
                            if not left_plans or not right_plans:
                                continue
                            if not query.joins_between(
                                left_set, right_set
                            ):
                                continue
                            for left in left_plans:
                                for right in right_plans:
                                    cell.extend(
                                        self.bushy_join_plans(
                                            left, right,
                                            left_set, right_set,
                                        )
                                    )
                if cell:
                    memo[subset_set] = pruner.prune(cell)

        full = frozenset(aliases)
        root_plans = memo.get(full, [])
        if not root_plans:
            if n == 1:
                root_plans = memo[frozenset({aliases[0]})]
            else:
                raise RuntimeError(
                    f"no connected plan covers all tables of {query.name}; "
                    "is the join graph connected?"
                )
        finalized = [self.finalize(plan) for plan in root_plans]
        space = self.layout.space
        return [plan.costed(space) for plan in pruner.prune(finalized)]


# ----------------------------------------------------------------------
# Convenience entry points
# ----------------------------------------------------------------------
def optimize_scalar(
    query: QuerySpec,
    catalog: Catalog,
    params: SystemParameters,
    layout: StorageLayout,
    cost: CostVector,
    bushy: bool = False,
) -> CostedPlan:
    """Classic optimization under a fixed cost vector.

    Returns the cheapest finalized plan; deterministic tie-breaking by
    plan signature.  ``bushy`` widens the search to bushy join trees.
    """
    enumerator = PlanEnumerator(query, catalog, params, layout, bushy=bushy)
    plans = enumerator.enumerate(ScalarPruner(cost))
    return _cheapest((plan.usage.dot(cost), plan) for plan in plans)


def enumerate_root_plans(
    query: QuerySpec,
    catalog: Catalog,
    params: SystemParameters,
    layout: StorageLayout,
    cell_cap: int | None = 64,
    tol: float = 1e-9,
    bushy: bool = False,
) -> tuple[list[CostedPlan], bool]:
    """Parametric enumeration: the root Pareto set of plans.

    Returns ``(plans, truncated)``.  With ``truncated`` False the list
    provably contains every plan that can be optimal for ANY positive
    cost vector; LP-filter it against a feasible region to obtain the
    exact candidate optimal set (see
    :func:`repro.optimizer.parametric.candidate_plans`).
    """
    center = layout.center_costs()
    pruner = ParetoPruner(tol=tol, cell_cap=cell_cap, center=center)
    enumerator = PlanEnumerator(query, catalog, params, layout, bushy=bushy)
    plans = enumerator.enumerate(pruner)
    return plans, pruner.truncated
