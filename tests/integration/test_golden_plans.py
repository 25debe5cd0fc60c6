"""Golden default-cost plans for the 22 TPC-H queries.

Pins the optimizer's choices at the DB2-default cost vector under the
shared-device layout.  A change here is not necessarily a bug — the
cost model is ours, not DB2's — but it silently shifts every figure in
EXPERIMENTS.md, so it must be a conscious decision: update the
signature AND re-run the benchmark harness (the EXPERIMENTS.md tables)
when the plan space or cost formulas change.
"""

import pytest

from repro.catalog import build_tpch_catalog
from repro.optimizer import DEFAULT_PARAMETERS, optimize_scalar
from repro.storage import StorageLayout
from repro.workloads import build_tpch_queries

GOLDEN_PLANS = {
    # Q2/Q5/Q7/Q8/Q9/Q18/Q20 carry exact-cost ties (commuted hash-join
    # builds; the nation join and the PS index probe commute at
    # identical total; L_OK and L_PK probe at identical cost); totals
    # equal within a few ulps are broken by signature, so the pinned
    # member is the lexicographically smallest signature.
    "Q1": "SORT(GRPBY(TBSCAN(L)),L.L_RETURNFLAG+L.L_LINESTATUS)",
    "Q2": "SORT(HSJOIN(HSJOIN(HSJOIN(NLJOIN(TBSCAN(P),IXPROBE(PS,PS_PK)),TBSCAN(S)),TBSCAN(N)),TBSCAN(R)),S.S_ACCTBAL)",
    "Q3": "SORT(GRPBY(MSJOIN(SORT(HSJOIN(TBSCAN(C),TBSCAN(O)),O.O_ORDERKEY),IXSCAN(L,L_OK))),O.O_ORDERDATE)",
    "Q4": "SORT(GRPBY(HSJOIN(TBSCAN(O),TBSCAN(L))),O.O_ORDERPRIORITY)",
    "Q5": "SORT(GRPBY(HSJOIN(TBSCAN(R),HSJOIN(HSJOIN(TBSCAN(S),MSJOIN(SORT(MSJOIN(IXSCAN(C,C_PK),SORT(TBSCAN(O),O.O_CUSTKEY)),O.O_ORDERKEY),IXSCAN(L,L_OK))),TBSCAN(N)))),N.N_NAME)",
    "Q6": "TBSCAN(L)",
    "Q7": "SORT(GRPBY(HSJOIN(TBSCAN(N2),MSJOIN(SORT(MSJOIN(SORT(HSJOIN(HSJOIN(TBSCAN(N1),TBSCAN(S)),TBSCAN(L)),L.L_ORDERKEY),IXSCAN(O,O_PK)),O.O_CUSTKEY),IXSCAN(C,C_PK)))),N1.N_NAME)",
    "Q8": "SORT(GRPBY(HSJOIN(HSJOIN(HSJOIN(HSJOIN(HSJOIN(HSJOIN(NLJOIN(TBSCAN(P),IXPROBE(L,L_PK_SK)),TBSCAN(O)),TBSCAN(C)),TBSCAN(N1)),TBSCAN(R)),TBSCAN(S)),TBSCAN(N2))),O.O_ORDERDATE)",
    "Q9": "SORT(GRPBY(HSJOIN(TBSCAN(N),HSJOIN(TBSCAN(S),NLJOIN(MSJOIN(SORT(HSJOIN(TBSCAN(P),TBSCAN(L)),L.L_ORDERKEY),IXSCAN(O,O_PK)),IXPROBE(PS,PS_PK,IXONLY))))),N.N_NAME)",
    "Q10": "SORT(GRPBY(HSJOIN(TBSCAN(N),HSJOIN(HSJOIN(TBSCAN(O),TBSCAN(L)),TBSCAN(C)))),C.C_ACCTBAL)",
    "Q11": "SORT(GRPBY(HSJOIN(NLJOIN(TBSCAN(N),TBSCAN(S)),TBSCAN(PS))),PS.PS_SUPPLYCOST)",
    "Q12": "SORT(GRPBY(HSJOIN(TBSCAN(L),IXSCAN(O,O_PK,IXONLY))),L.L_SHIPMODE)",
    "Q13": "SORT(GRPBY(NLJOIN(TBSCAN(O),IXPROBE(C,C_PK,IXONLY))),C.C_CUSTKEY)",
    "Q14": "HSJOIN(TBSCAN(L),IXSCAN(P,P_PK,IXONLY))",
    "Q15": "SORT(GRPBY(HSJOIN(IXSCAN(S,S_PK,IXONLY),TBSCAN(L))),S.S_SUPPKEY)",
    "Q16": "SORT(GRPBY(HSJOIN(TBSCAN(P),IXSCAN(PS,PS_PK,IXONLY))),P.P_BRAND)",
    "Q17": "NLJOIN(TBSCAN(P),IXPROBE(L,L_PK_SK))",
    "Q18": "SORT(GRPBY(NLJOIN(NLJOIN(TBSCAN(O),IXPROBE(C,C_PK,IXONLY)),IXPROBE(L,L_OK,IXONLY))),O.O_TOTALPRICE)",
    "Q19": "HSJOIN(TBSCAN(P),TBSCAN(L))",
    "Q20": "SORT(NLJOIN(HSJOIN(HSJOIN(HSJOIN(TBSCAN(P),IXSCAN(PS,PS_PK,IXONLY)),TBSCAN(S)),TBSCAN(N)),IXPROBE(L,L_PK_SK)),S.S_NAME)",
    "Q21": "SORT(GRPBY(MSJOIN(MSJOIN(SORT(HSJOIN(NLJOIN(TBSCAN(N),TBSCAN(S)),TBSCAN(L1)),L1.L_ORDERKEY),IXSCAN(O,O_PK)),IXSCAN(L2,L_OK,IXONLY))),S.S_NAME)",
    "Q22": "SORT(GRPBY(HSJOIN(TBSCAN(C),IXSCAN(O,O_CK,IXONLY))),C.C_PHONE)",
}


@pytest.fixture(scope="module")
def catalog():
    return build_tpch_catalog(100)


@pytest.fixture(scope="module")
def queries(catalog):
    return build_tpch_queries(catalog)


@pytest.mark.parametrize("name", sorted(GOLDEN_PLANS))
def test_default_cost_plan_is_stable(catalog, queries, name):
    query = queries[name]
    layout = StorageLayout.shared_device(query.table_names())
    plan = optimize_scalar(
        query, catalog, DEFAULT_PARAMETERS, layout, layout.center_costs()
    )
    assert plan.signature == GOLDEN_PLANS[name]


def test_golden_plans_reflect_paper_narrative():
    """Spot-check plan shapes the paper discusses."""
    # Q20 filters PARTSUPP through its index before joining
    # (Section 8.1.1's description of the initial plan).
    assert "IXSCAN(PS,PS_PK" in GOLDEN_PLANS["Q20"]
    # Q19's default plan joins LINEITEM and PART with a hash join;
    # the INL alternative appears only when random I/O gets cheap
    # (Section 8.1.1).
    assert GOLDEN_PLANS["Q19"].startswith("HSJOIN")
    # Q1/Q6 are single-table plans.
    assert "JOIN" not in GOLDEN_PLANS["Q6"]
