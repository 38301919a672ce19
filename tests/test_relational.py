"""Planted-fixture tests for relational/events operators whose
interesting behavior the synthetic sf tables don't exercise (every sf
user emits all event types, so the funnel never narrows there)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(autouse=True)
def _ray(ray_session):
    yield


def _write_events(tmp_path, rows):
    t = pa.table({
        "event_id": pa.array(range(len(rows)), pa.int64()),
        "ts": pa.array([pd.Timestamp(r[1]) for r in rows],
                       pa.timestamp("us")),
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "event_type": pa.array([r[2] for r in rows], pa.string()),
        "value": pa.array([1.0] * len(rows), pa.float64()),
        "props": pa.array(["{}"] * len(rows), pa.string()),
    })
    d = tmp_path / "sf"
    d.mkdir(exist_ok=True)
    pq.write_table(t, str(d / "events.parquet"))
    return str(d)


def test_events_funnel_order_sensitivity(tmp_path):
    """The funnel must drop users whose steps happen out of order or
    stop early — the property a per-type count cannot express:
    user 1 completes view->click->purchase in order;
    user 2 clicks BEFORE its first view (click must not count);
    user 3 views and clicks but never purchases;
    user 4 purchases first, then views (reaches only step 0);
    user 5 has no view at all (reaches nothing)."""
    from sotohp_ray.pipelines.relational import events_funnel

    rows = [
        (1, "2026-01-01 10:00", "view"),
        (1, "2026-01-01 10:05", "click"),
        (1, "2026-01-01 10:10", "purchase"),
        (2, "2026-01-01 09:00", "click"),
        (2, "2026-01-01 09:30", "view"),
        (2, "2026-01-01 09:10", "purchase"),
        (3, "2026-01-01 08:00", "view"),
        (3, "2026-01-01 08:01", "click"),
        (4, "2026-01-01 07:00", "purchase"),
        (4, "2026-01-01 07:30", "view"),
        (5, "2026-01-01 06:00", "click"),
        (5, "2026-01-01 06:01", "purchase"),
    ]
    d = _write_events(tmp_path, rows)
    got = events_funnel(d).to_pandas().sort_values("step_idx")
    # view reached by users 1,2,3,4 = 4; click AFTER view by 1,3 = 2;
    # purchase AFTER that click by 1 only = 1
    assert list(got["n_users"]) == [4, 2, 1]
    # oracle agrees on the planted fixture
    import duckdb

    from sotohp_ray.pipelines.relational import events_funnel_sql

    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{d}/events.parquet'")
    sql = con.sql(events_funnel_sql()).df().sort_values("step_idx")
    assert list(sql["n_users"]) == [4, 2, 1]


def test_events_funnel_strictly_later(tmp_path):
    """A same-timestamp next step must NOT count (strictly-later
    contract, shared with the oracle's e.ts > p.t)."""
    from sotohp_ray.pipelines.relational import events_funnel

    rows = [
        (1, "2026-01-01 10:00", "view"),
        (1, "2026-01-01 10:00", "click"),  # same instant: not after
        (2, "2026-01-01 10:00", "view"),
        (2, "2026-01-01 10:01", "click"),
    ]
    d = _write_events(tmp_path, rows)
    got = events_funnel(d).to_pandas().sort_values("step_idx")
    assert list(got["n_users"]) == [2, 1, 0]


def test_basket_pairs_triangular_expansion(tmp_path):
    """Pair counting on a crafted basket set: per-order distinct
    parts, unordered pairs, once per order, support filter and total
    tie order all verified against hand-computed truth."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from sotohp_ray.pipelines.relational import basket_part_pairs

    # order 1: parts {1,2,3} -> (1,2),(1,3),(2,3)
    # order 2: parts {1,2}   -> (1,2)            (dup l_partkey rows!)
    # order 3: parts {2,1}   -> (1,2)  (reversed input order)
    # order 4: part {5}      -> no pairs
    rows = [
        (1, 1), (1, 2), (1, 3),
        (2, 1), (2, 2), (2, 2),
        (3, 2), (3, 1),
        (4, 5),
    ]
    t = pa.table({
        "l_orderkey": pa.array([r[0] for r in rows], pa.int64()),
        "l_partkey": pa.array([r[1] for r in rows], pa.int64()),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, str(d / "lineitem.parquet"))
    out = basket_part_pairs(str(d), min_support=1, k=10).to_pandas()
    got = list(zip(out["part_a"], out["part_b"], out["n_orders"]))
    assert got == [(1, 2, 3), (1, 3, 1), (2, 3, 1)]
    # support filter drops the singletons
    out2 = basket_part_pairs(str(d), min_support=2, k=10).to_pandas()
    assert list(zip(out2["part_a"], out2["part_b"],
                    out2["n_orders"])) == [(1, 2, 3)]


def test_events_range_join_boundaries(tmp_path):
    """Band inclusivity at both ends, self-exclusion, equal-ts
    twins, and cross-user isolation."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from sotohp_ray.pipelines.relational import events_range_join

    H = 3_600_000_000  # 1h in us
    base = np.datetime64("2024-01-01T12:00:00", "us").astype(np.int64)
    rows = [
        # user 1: e0 at t, e1 exactly 1h before (inclusive lower),
        # e2 just over 1h before (excluded), e3 equal ts twin
        (0, 1, base),
        (1, 1, base - H),
        (2, 1, base - H - 1),
        (3, 1, base),
        # user 2 inside user 1's window: must not count
        (4, 2, base - 60),
    ]
    t = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array(
            np.array([r[2] for r in rows], dtype="datetime64[us]")
        ),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, str(d / "events.parquet"))
    out = (
        events_range_join(str(d)).to_pandas()
        .sort_values("event_id").reset_index(drop=True)
    )
    # e0: e1 (exactly 1h back, inclusive lower bound) + e3 (equal-ts
    # twin) = 2; e2 (1us beyond the band) and e4 (other user) do NOT
    # count. e1 sees e2 (1us earlier, inside ITS band) = 1.
    assert list(out["n_prior_in_band"]) == [2, 1, 0, 2, 0]


def test_customers_rfm_quintile_ties(tmp_path):
    """Quintile scoring on a hand-built orders table: score = 1 +
    #cuts strictly below, so a value EQUAL to a cut does not advance
    (the deterministic tie rule)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from sotohp_ray.pipelines.relational import customers_rfm

    # 5 customers with distinct monetary levels 100..500 and equal
    # everything else (same order date, one order each)
    d0 = np.datetime64("1997-01-01", "us")
    t = pa.table({
        "o_orderkey": pa.array(list(range(5)), pa.int64()),
        "o_custkey": pa.array([10, 11, 12, 13, 14], pa.int64()),
        "o_orderdate": pa.array(np.array([d0] * 5)),
        "o_totalprice": pa.array(
            [100.0, 200.0, 300.0, 400.0, 500.0], pa.float64()),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, str(d / "orders.parquet"))
    out = (
        customers_rfm(str(d)).to_pandas()
        .sort_values("c_custkey").reset_index(drop=True)
    )
    # cuts over [10000..50000] cents at q=.2/.4/.6/.8 (n=5, rank
    # ceil(q*5) -> 1,2,3,4) = 10000,20000,30000,40000; score = 1 +
    # #cuts strictly below -> 1,2,3,4,5
    assert list(out["m_score"]) == [1, 2, 3, 4, 5]
    # identical recency/frequency everywhere -> all score 1 (equal to
    # every cut, never strictly above)
    assert list(out["r_score"]) == [1] * 5
    assert list(out["f_score"]) == [1] * 5


def test_q13_zero_order_customers_counted(tmp_path):
    """The LEFT OUTER part: customers with NO orders must land in the
    c_count=0 bucket — the sf tables never exercise it (every customer
    has orders there), so a dropped outer side would stay green in the
    oracle run until the data changed."""
    from sotohp_ray.pipelines.relational import q13_customer_distribution

    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3, 4], pa.int64()),
    }), str(d / "customer.parquet"))
    # customer 1: 2 orders; customer 2: 1; customers 3, 4: none
    pq.write_table(pa.table({
        "o_custkey": pa.array([1, 1, 2], pa.int64()),
    }), str(d / "orders.parquet"))
    out = q13_customer_distribution(str(d)).to_pandas()
    got = dict(zip(out["c_count"], out["custdist"]))
    assert got == {0: 2, 1: 1, 2: 1}
    # ordered custdist DESC, c_count DESC
    assert list(out["c_count"]) == [0, 2, 1]


def test_q18_threshold_strictly_greater(tmp_path):
    """HAVING sum(qty) > T is strict: an order summing exactly to T
    must NOT qualify; quantities arriving split across batches must
    still total per order (the partial-combine path)."""
    from sotohp_ray.pipelines.relational import q18_large_volume_customers

    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(pa.table({
        "l_orderkey": pa.array([10, 10, 20, 20, 30], pa.int64()),
        "l_quantity": pa.array([6.0, 4.0, 5.0, 5.0, 11.0], pa.float64()),
    }), str(d / "lineitem.parquet"))
    pq.write_table(pa.table({
        "o_orderkey": pa.array([10, 20, 30], pa.int64()),
        "o_custkey": pa.array([7, 8, 9], pa.int64()),
        "o_orderdate": pa.array(
            [pd.Timestamp("1996-01-01")] * 3, pa.timestamp("us")),
        "o_totalprice": pa.array([100.0, 200.0, 300.0], pa.float64()),
    }), str(d / "orders.parquet"))
    pq.write_table(pa.table({
        "c_custkey": pa.array([7, 8, 9], pa.int64()),
        "c_name": pa.array(["ann", "bob", "cee"], pa.string()),
    }), str(d / "customer.parquet"))
    out = q18_large_volume_customers(str(d), qty_min=10.0).to_pandas()
    # orders 10 and 20 sum exactly to 10.0 -> excluded; 30 sums to 11
    assert list(out["o_orderkey"]) == [30]
    assert list(out["c_name"]) == ["cee"]
    assert list(out["sum_qty"]) == [11.0]


def test_q22_cutoff_gap_dominates_float_error():
    """q22's only cross-engine float hazard: the avg-balance cutoff is
    computed by two different summation orders (engine partials vs
    DuckDB). Selection flips only if some balance sits within the
    summation error (~|sum| * n * eps) of the cutoff — measure the
    actual gap on the real table and require 6+ orders of headroom
    (the events_value_outliers precedent)."""
    import pyarrow.parquet as _pq

    t = _pq.read_table(
        "/root/testdata/sf0.001/customer.parquet", columns=["c_acctbal"]
    )
    bal = t["c_acctbal"].to_numpy()
    pos = bal[bal > 0.0]
    cutoff = float(np.sum(pos)) / pos.size
    err = abs(np.sum(pos)) * pos.size * np.finfo(np.float64).eps
    gap = np.min(np.abs(bal - cutoff))
    assert gap > 1e6 * err, (gap, err)


def test_q17_threshold_bit_identical_across_summation_orders():
    """q17's correlated threshold (0.2 x per-part avg qty) IS hit
    exactly by some rows (part 1: avg 25.0, threshold 5.0, quantity 5
    exists — gap 0), so 'gap >> error' cannot be the safety argument
    here. The real invariant: quantities are INTEGERS and per-part
    sums stay far below 2^53, so every partial sum is exact in
    float64 regardless of summation order — engine partials and
    DuckDB's streaming avg produce the bit-identical threshold, and
    the strict < resolves the boundary rows the same way on both
    sides. Pin the two facts that proof rests on."""
    import pyarrow.parquet as pq

    from sotohp_ray.pipelines.relational import Q17_BRANDS

    sf = "/root/testdata/sf0.001"
    li = pq.read_table(
        f"{sf}/lineitem.parquet", columns=["l_partkey", "l_quantity"]
    ).to_pandas()
    bp = pq.read_table(
        f"{sf}/part.parquet", columns=["p_partkey", "p_brand"],
        filters=[("p_brand", "in", list(Q17_BRANDS))],
    )["p_partkey"].to_pylist()
    sub = li[li["l_partkey"].isin(bp)]
    q = sub["l_quantity"].to_numpy()
    assert (q == np.floor(q)).all()  # integral quantities
    s = sub.groupby("l_partkey")["l_quantity"].sum()
    assert float(s.max()) < 2.0**53  # sums exact in float64
    # and the boundary case is really present (the test's raison
    # d'etre): some row sits EXACTLY on its part's threshold
    th = 0.2 * sub.groupby("l_partkey")["l_quantity"].mean()
    gaps = np.abs(q - sub["l_partkey"].map(th).to_numpy())
    assert gaps.min() == 0.0


def _write_events_table(tmp_path, n_users=7, n_events=400, seed=0):
    rng = np.random.default_rng(seed)
    users = rng.integers(0, n_users, n_events)
    # non-monotonic timestamps with duplicates across and within users
    ts = pd.Timestamp("2024-01-01") + pd.to_timedelta(
        rng.integers(0, 5000, n_events), unit="m"
    )
    types = rng.choice(["view", "click", "purchase", "error"], n_events)
    t = pa.table({
        "event_id": pa.array(range(n_events), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array(users, pa.int64()),
        "event_type": pa.array(types, pa.string()),
        "value": pa.array(
            np.round(rng.uniform(0.01, 99.99, n_events), 2), pa.float64()
        ),
        "props": pa.array(["{}"] * n_events, pa.string()),
    })
    d = tmp_path / "sf"
    d.mkdir(exist_ok=True)
    pq.write_table(t, str(d / "events.parquet"))
    return str(d), t.to_pandas()


def test_running_total_matches_pandas_cumsum(tmp_path):
    from sotohp_ray.pipelines.relational import events_running_total

    d, df = _write_events_table(tmp_path)
    got = events_running_total(d).to_pandas().sort_values(
        "event_id").reset_index(drop=True)
    df = df.sort_values(["user_id", "ts", "event_id"])
    df["running"] = df.groupby("user_id")["value"].cumsum().round(2)
    want = df.sort_values("event_id")
    got = got.set_index("event_id")
    for _, r in want.iterrows():
        assert got.loc[r["event_id"], "running"] == pytest.approx(
            r["running"], abs=1e-9)


def test_markov_transitions_match_pandas_shift(tmp_path):
    from sotohp_ray.pipelines.relational import events_markov_transitions

    d, df = _write_events_table(tmp_path, seed=1)
    got = events_markov_transitions(d).to_pandas()
    df = df.sort_values(["user_id", "ts", "event_id"])
    df["next"] = df.groupby("user_id")["event_type"].shift(-1)
    want = (
        df.dropna(subset=["next"])
        .groupby(["event_type", "next"]).size()
    )
    assert len(got) == len(want)
    for _, r in got.iterrows():
        assert want[(r["from_type"], r["to_type"])] == r["n"]
    # row-normalized probabilities sum to 1 per from_type
    sums = got.groupby("from_type")["p"].sum()
    assert np.allclose(sums.to_numpy(), 1.0)


def test_attribution_matches_bruteforce(tmp_path):
    from sotohp_ray.pipelines.relational import events_attribution

    d, df = _write_events_table(tmp_path, seed=2)
    got = events_attribution(d).to_pandas().set_index("event_id")
    touches = df[df["event_type"].isin(["view", "click"])]
    targets = df[df["event_type"] == "purchase"]
    assert len(got) == len(targets) > 0
    n_null = 0
    for _, r in targets.iterrows():
        prior = touches[
            (touches["user_id"] == r["user_id"])
            & (touches["ts"] < r["ts"])
        ].sort_values(["ts", "event_id"])
        g = got.loc[r["event_id"]]
        if len(prior):
            assert g["source_event_id"] == prior.iloc[-1]["event_id"]
            assert g["source_type"] == prior.iloc[-1]["event_type"]
        else:
            n_null += 1
            assert pd.isna(g["source_event_id"])
    assert n_null > 0  # the NULL branch is actually exercised


def test_moving_avg_fills_hour_gaps(tmp_path):
    """The sf events table is hourly-dense, so the ES min_doc_count=0
    gap-fill branch never fires in the oracle run — plant a series
    with a 3-hour hole and check the zero buckets, partial head
    windows, and derivative across the hole."""
    from sotohp_ray.pipelines.relational import events_moving_avg

    rows = [  # (hour offset, count)
        (0, 2), (1, 4), (5, 6),  # hours 2, 3, 4 are EMPTY
    ]
    eid, ts = [], []
    for off, n in rows:
        for _ in range(n):
            eid.append(len(eid))
            ts.append(pd.Timestamp("2024-03-01") + pd.Timedelta(hours=off))
    t = pa.table({
        "event_id": pa.array(eid, pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([1] * len(eid), pa.int64()),
        "event_type": pa.array(["view"] * len(eid), pa.string()),
        "value": pa.array([1.0] * len(eid), pa.float64()),
        "props": pa.array(["{}"] * len(eid), pa.string()),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(t, str(d / "events.parquet"))
    out = events_moving_avg(str(d)).to_pandas()
    assert list(out["n"]) == [2, 4, 0, 0, 0, 6]
    assert list(out["mavg"]) == [2.0, 3.0, 2.0, 4.0 / 3.0, 0.0, 2.0]
    assert pd.isna(out["delta"].iloc[0])
    assert list(out["delta"][1:]) == [2.0, -4.0, 0.0, 0.0, 6.0]


def test_join_pyramids_survive_empty_selections(tmp_path):
    """When a selective predicate leaves ZERO qualifying rows, every
    map_groups group returns empty and Ray's to_pandas() comes back
    with NO columns — the driver fold must not KeyError (found by
    probing q7 with a same-bloc-only corpus; guarded via _with_cols
    across the session-3 driver folds)."""
    from sotohp_ray.pipelines.relational import (
        q7_volume_shipping,
        q8_market_share,
    )

    d = tmp_path / "sf"
    d.mkdir()
    # customers and suppliers all in bloc A -> q7 pair set is EMPTY;
    # q8: region-1 customers exist but the target nation never supplies
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2], pa.int64()),
        "c_nationkey": pa.array([1, 2], pa.int32()),
    }), str(d / "customer.parquet"))
    pq.write_table(pa.table({
        "s_suppkey": pa.array([1], pa.int64()),
        "s_nationkey": pa.array([4], pa.int32()),  # not Q8_NATION
    }), str(d / "supplier.parquet"))
    pq.write_table(pa.table({
        "o_orderkey": pa.array([10], pa.int64()),
        "o_custkey": pa.array([1], pa.int64()),
        "o_orderdate": pa.array(
            [np.datetime64("1996-06-01", "us")]),
    }), str(d / "orders.parquet"))
    pq.write_table(pa.table({
        "l_orderkey": pa.array([10], pa.int64()),
        "l_suppkey": pa.array([1], pa.int64()),
        "l_partkey": pa.array([1], pa.int64()),
        "l_shipdate": pa.array([np.datetime64("1996-06-02", "us")]),
        "l_extendedprice": pa.array([100.0]),
        "l_discount": pa.array([0.0]),
    }), str(d / "lineitem.parquet"))
    pq.write_table(pa.table({
        "p_partkey": pa.array([1], pa.int64()),
        "p_type": pa.array(["STANDARD"]),
    }), str(d / "part.parquet"))
    pq.write_table(pa.table({
        "n_nationkey": pa.array([1, 2, 4], pa.int32()),
        "n_regionkey": pa.array([1, 1, 2], pa.int32()),
    }), str(d / "nation.parquet"))
    assert len(q7_volume_shipping(str(d))) == 0
    t8 = q8_market_share(str(d)).to_pandas()
    # the region-1 order exists with nation-3 supplier volume: one
    # year row, zero market share
    assert list(t8["mkt_share"]) == [0.0]


def test_q21_exclusive_late_supplier_semantics(tmp_path):
    """Q21's correlated EXISTS/NOT-EXISTS corners: a single-supplier
    order never qualifies (EXISTS other-supplier fails), two late
    suppliers disqualify BOTH (NOT EXISTS fails), a non-'F' order is
    out entirely, and numwait counts LINEITEM rows — a supplier with
    two late lines in one qualifying order counts twice (TPC-H
    count(*) over l1, not count(DISTINCT order))."""
    from sotohp_ray.pipelines.relational import (
        q21_suppliers_who_kept_waiting,
    )

    d = tmp_path / "sf"
    d.mkdir()
    day0 = np.datetime64("2020-01-01", "us")
    late = day0 + np.timedelta64(90, "D")   # > 60-day threshold
    ontime = day0 + np.timedelta64(10, "D")
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "o_orderdate": pa.array([day0] * 5, pa.timestamp("us")),
        "o_orderstatus": pa.array(["F", "F", "F", "F", "O"]),
    }), str(d / "orders.parquet"))
    rows = [
        # order 1: supp 10 late twice, supp 11 on time -> 10 counts 2
        (1, 10, late), (1, 10, late), (1, 11, ontime),
        # order 2: single supplier, late -> excluded (no other supp)
        (2, 10, late),
        # order 3: two DIFFERENT late suppliers -> both excluded
        (3, 10, late), (3, 11, late),
        # order 4: supp 11 sole late among two -> 11 counts 1
        (4, 11, late), (4, 10, ontime),
        # order 5: status 'O' -> excluded even though sole-late
        (5, 10, late), (5, 11, ontime),
    ]
    pq.write_table(pa.table({
        "l_orderkey": pa.array([r[0] for r in rows], pa.int64()),
        "l_suppkey": pa.array([r[1] for r in rows], pa.int64()),
        "l_shipdate": pa.array(
            [r[2] for r in rows], pa.timestamp("us")),
    }), str(d / "lineitem.parquet"))
    pq.write_table(pa.table({
        "s_suppkey": pa.array([10, 11], pa.int64()),
        "s_name": pa.array(["S10", "S11"]),
        "s_nationkey": pa.array([0, 0], pa.int64()),
    }), str(d / "supplier.parquet"))
    pq.write_table(pa.table({
        "n_nationkey": pa.array([0], pa.int64()),
        "n_name": pa.array(["N0"]),
    }), str(d / "nation.parquet"))
    out = q21_suppliers_who_kept_waiting(str(d)).to_pandas()
    got = dict(zip(out["s_name"], out["numwait"]))
    assert got == {"S10": 2, "S11": 1}
    assert list(out["s_name"]) == ["S10", "S11"]  # numwait DESC


def test_global_running_total_crosses_day_boundaries(tmp_path):
    """The two-phase exclusive scan must compose across its day
    buckets: a fixture spanning three days with deliberately
    shuffled row order (the parquet layout is NOT scan-ordered) must
    reproduce the sequential cumsum exactly, including ts ties broken
    by event_id."""
    from sotohp_ray.pipelines.relational import (
        events_global_running_total,
    )

    d = tmp_path / "sf"
    d.mkdir()
    base = np.datetime64("2024-03-01T22:00:00", "us")
    hours = [0, 3, 26, 26, 30, 49, 51]  # days 1, 2, 3; one ts tie
    eids = [4, 2, 7, 3, 1, 6, 5]        # shuffled vs time order
    vals = [1.25, 2.5, -0.75, 4.0, 10.0, 0.5, 3.25]
    order = np.argsort(np.arange(len(eids)) % 3)  # shuffle file order
    pq.write_table(pa.table({
        "event_id": pa.array(np.array(eids)[order], pa.int64()),
        "ts": pa.array(
            [base + np.timedelta64(hours[i] * 3600, "s")
             for i in order], pa.timestamp("us")),
        "value": pa.array(np.array(vals)[order], pa.float64()),
    }), str(d / "events.parquet"))
    out = events_global_running_total(str(d)).to_pandas()
    # sequential truth in (ts, event_id) order; the ts tie at hour 26
    # orders event 3 before event 7
    seq = np.lexsort((np.array(eids), np.array(hours)))
    want = dict(zip(
        np.array(eids)[seq],
        np.round(np.array(vals)[seq].cumsum(), 2),
    ))
    got = dict(zip(out["event_id"], out["running"]))
    assert got == want


def test_basket_rules_directional_confidence(tmp_path):
    """Association-rule semantics: confidence is DIRECTIONAL —
    s(ab)/s(a) != s(ab)/s(b) when item supports differ — and lift is
    symmetric; a planted 3-basket fixture pins both plus the exact
    ratios."""
    from sotohp_ray.pipelines.relational import basket_rules

    d = tmp_path / "sf"
    d.mkdir()
    # baskets: {1,2} {1,2} {1}  -> s(1)=3, s(2)=2, s(12)=2, N=3
    rows = [(10, 1), (10, 2), (11, 1), (11, 2), (12, 1)]
    pq.write_table(pa.table({
        "l_orderkey": pa.array([r[0] for r in rows], pa.int64()),
        "l_partkey": pa.array([r[1] for r in rows], pa.int64()),
    }), str(d / "lineitem.parquet"))
    out = basket_rules(str(d), min_support=1, k=10).to_pandas()
    r = {(a, c): (cf, lf) for a, c, cf, lf in zip(
        out["antecedent"], out["consequent"],
        out["confidence"], out["lift"])}
    assert r[(1, 2)][0] == round(2 / 3, 6)    # conf(1->2) = 2/3 (6dp)
    assert r[(2, 1)][0] == 1.0                # conf(2->1) = 1
    assert r[(1, 2)][1] == r[(2, 1)][1]       # lift symmetric
    assert r[(1, 2)][1] == 1.0                # lift = (3*2)/(3*2)


def test_cross_correlation_detects_planted_lag(tmp_path):
    """On a fixture where type B's hourly series is EXACTLY type A's
    shifted by +2 hours, the correlogram must peak (r = 1.0) at
    lag = +2 and stay below it elsewhere; the dense grid must zero-fill
    missing hours for the shift to line up."""
    from sotohp_ray.pipelines.relational import (
        events_cross_correlation,
    )

    d = tmp_path / "sf"
    d.mkdir()
    base = np.datetime64("2024-01-01T00:00:00", "us")
    rng = np.random.RandomState(7)
    counts = rng.randint(1, 6, size=24)
    rows = []
    eid = 0
    for h, c in enumerate(counts):
        for _ in range(int(c)):        # A fires in hour h
            rows.append((eid, h, "click")); eid += 1
        for _ in range(int(c)):        # B fires in hour h + 2
            rows.append((eid, h + 2, "purchase")); eid += 1
    pq.write_table(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array(
            [base + np.timedelta64(r[1] * 3600, "s") for r in rows],
            pa.timestamp("us")),
        "event_type": pa.array([r[2] for r in rows]),
    }), str(d / "events.parquet"))
    out = events_cross_correlation(str(d), max_lag=4).to_pandas()
    r = dict(zip(out["lag"], out["r"]))
    assert r[2] == 1.0
    assert all(v < 1.0 for k, v in r.items() if k != 2 and v is not None)


def test_cohort_ltv_attributes_orders_to_first_month(tmp_path):
    """Cohort semantics: every order lands in its customer's FIRST-
    order month cohort at the right month age, across a year boundary
    (Dec cohort, Feb order = age 2); revenue in exact cents."""
    from sotohp_ray.pipelines.relational import customer_cohort_ltv

    d = tmp_path / "sf"
    d.mkdir()
    def ts(s):
        return np.datetime64(s, "us")
    rows = [
        (1, ts("2023-12-15"), 10.00),   # cohort 2023-12, age 0
        (1, ts("2024-02-01"), 20.50),   # age 2 (year boundary)
        (2, ts("2024-02-20"), 5.25),    # cohort 2024-02, age 0
        (2, ts("2024-02-25"), 1.00),    # same month, age 0
    ]
    pq.write_table(pa.table({
        "o_custkey": pa.array([r[0] for r in rows], pa.int64()),
        "o_orderdate": pa.array([r[1] for r in rows],
                                pa.timestamp("us")),
        "o_totalprice": pa.array([r[2] for r in rows], pa.float64()),
    }), str(d / "orders.parquet"))
    out = customer_cohort_ltv(str(d)).to_pandas()
    got = {(c, a): (n, r) for c, a, n, r in zip(
        out["cohort_month"], out["age_months"],
        out["n_orders"], out["revenue_cents"])}
    assert got == {
        ("2023-12", 0): (1, 1000),
        ("2023-12", 2): (1, 2050),
        ("2024-02", 0): (2, 625),
    }


def test_rolling_active_users_window_semantics(tmp_path):
    """WAU semantics on a planted fixture: a user active on one day
    counts toward exactly the next window_days window-end days; two
    events by the SAME user in one window count once; the grid
    zero-fills quiet days."""
    from sotohp_ray.pipelines.relational import (
        events_rolling_active_users,
    )

    d = tmp_path / "sf"
    d.mkdir()
    base = np.datetime64("2024-05-01T12:00:00", "us")
    #           user, day-offset
    rows = [(1, 0), (1, 0), (1, 2),   # u1: days 0 and 2 (dup day 0)
            (2, 0),                   # u2: day 0 only
            (3, 9)]                   # u3: day 9 (gap days 3-8 quiet)
    pq.write_table(pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array(
            [base + np.timedelta64(r[1] * 86400, "s") for r in rows],
            pa.timestamp("us")),
    }), str(d / "events.parquet"))
    out = events_rolling_active_users(str(d), window_days=3) \
        .to_pandas()
    got = dict(zip(out["day"] - int(out["day"].min()),
                   out["active_users"]))
    # grid runs day 0..9; window_days=3 trailing
    assert got == {0: 2, 1: 2, 2: 2,  # u1+u2 (day2 window: u1 twice = once)
                   3: 1, 4: 1,        # only u1's day-2 activity
                   5: 0, 6: 0, 7: 0, 8: 0,  # quiet
                   9: 1}              # u3


def test_skyline_dominance_edge_semantics(tmp_path):
    """Skyline tie rules: duplicated (price, date) points BOTH
    survive (no strict edge); equal-price lower-date is dominated;
    equal-date lower-price is dominated; an incomparable point
    (higher price, lower date) survives."""
    from sotohp_ray.pipelines.relational import orders_skyline

    d = tmp_path / "sf"
    d.mkdir()
    def ts(s):
        return np.datetime64(s, "us")
    rows = [
        (1, 100.0, ts("2024-03-01")),   # dup A
        (2, 100.0, ts("2024-03-01")),   # dup A (both survive)
        (3, 100.0, ts("2024-02-01")),   # same price, older: dominated
        (4, 90.0, ts("2024-03-01")),    # same date, cheaper: dominated
        (5, 120.0, ts("2024-01-01")),   # pricier but older: survives
        (6, 80.0, ts("2024-04-01")),    # cheaper but newest: survives
    ]
    pq.write_table(pa.table({
        "o_orderkey": pa.array([r[0] for r in rows], pa.int64()),
        "o_totalprice": pa.array([r[1] for r in rows], pa.float64()),
        "o_orderdate": pa.array([r[2] for r in rows],
                                pa.timestamp("us")),
    }), str(d / "orders.parquet"))
    out = orders_skyline(str(d)).to_pandas()
    assert list(out["o_orderkey"]) == [1, 2, 5, 6]


def test_gini_of_totals_exact_past_int64():
    """The Gini sums are exact integers where the int64 form wraps:
    for cents (2**61, 2**62, 3 * 2**61) the total is 3 * 2**62 and the
    rank-weighted numerator is 2**63, both past int64."""
    from sotohp_ray.pipelines.relational import _gini_of_totals

    x = np.array([3 << 61, 1 << 61, 1 << 62], np.int64)
    xs = np.sort(x)
    i = np.arange(1, 4, dtype=np.int64)
    # the int64 form wraps: both sums come out negative
    assert int(np.sum((2 * i - 3 - 1) * xs)) < 0 and int(xs.sum()) < 0
    assert _gini_of_totals(x) == (3, 3 << 62, 2 / 9)
    assert _gini_of_totals(np.array([5, 5], np.int64)) == (2, 10, 0.0)
    assert _gini_of_totals(np.array([], np.int64)) == (0, 0, 0.0)


def _engine_vs_duckdb(table: pa.Table, sf_dir: str, sql: str) -> None:
    """The engine's rows equal the DuckDB oracle's, in day/hour order,
    floats to 1e-9."""
    import duckdb

    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{sf_dir}/events.parquet'")
    want = con.sql(sql).fetchall()
    got = [tuple(r.values()) for r in table.to_pylist()]
    assert len(got) == len(want), (got, want)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-9, abs=1e-9), (got, want)


# events on days 0, 1 and 15: days 8-14 have no active user in a
# 7-day window, and days 4-14 none in a 3-day one
_SPARSE_DAYS = [(1, "2026-03-01 10:00", "view"),
                (2, "2026-03-02 11:00", "click"),
                (1, "2026-03-16 09:00", "view")]


def test_rolling_active_users_oracle_zero_fills_gap_days(tmp_path):
    from sotohp_ray.pipelines.relational import (
        events_rolling_active_users,
        events_rolling_active_users_sql,
    )

    d = _write_events(tmp_path, _SPARSE_DAYS)
    out = events_rolling_active_users(d)
    assert out.num_rows == 16 and out["active_users"].to_pylist()[9] == 0
    _engine_vs_duckdb(out, d, events_rolling_active_users_sql())


def test_stickiness_oracle_zero_fills_gap_days(tmp_path):
    from sotohp_ray.pipelines.relational import (
        events_stickiness,
        events_stickiness_sql,
    )

    d = _write_events(tmp_path, _SPARSE_DAYS)
    out = events_stickiness(d, mau_days=3)
    assert out.num_rows == 16 and out["mau"].to_pylist()[9] == 0
    _engine_vs_duckdb(out, d, events_stickiness_sql(mau_days=3))


def test_holt_oracle_single_hour_degenerate_row(tmp_path):
    """A series of one hour returns the level-only row (trend 0) on
    both sides."""
    from sotohp_ray.pipelines.relational import (
        events_hourly_holt,
        events_hourly_holt_sql,
    )

    d = _write_events(tmp_path, [(1, "2026-03-01 10:05", "view"),
                                 (2, "2026-03-01 10:40", "click")])
    out = events_hourly_holt(d)
    assert out.to_pylist() == [{"hr": out["hr"][0].as_py(), "n": 2,
                                "level": 2.0, "trend": 0.0}]
    _engine_vs_duckdb(out, d, events_hourly_holt_sql())


# ---- dangling keys: coarse groups that hold rows of only one side ----
#
# Every two-sided op routes rows to coarse group key & 63. Customers
# 1-3 sit in groups 1-3; custkey 70 (group 6) has orders and events but
# no customer row, and custkey 130 (group 2) shares a group with
# customer 2 without matching it. Customer 3 has no orders, and user 4
# (group 4) has events but no orders.


def _write_dangling(tmp_path) -> str:
    d = tmp_path / "sf"
    d.mkdir(exist_ok=True)
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3], pa.int64()),
        "c_acctbal": pa.array([10.5, -3.25, 7.0], pa.float64()),
        "c_mktsegment": pa.array(["AUTO", "BUILDING", "AUTO"]),
    }), str(d / "customer.parquet"))
    ts = [pd.Timestamp(t) for t in (
        "2026-03-01", "2026-03-03", "2026-03-02", "2026-03-05",
        "2026-03-04", "2026-03-06",
    )]
    pq.write_table(pa.table({
        "o_orderkey": pa.array([10, 11, 12, 13, 14, 15], pa.int64()),
        "o_custkey": pa.array([1, 1, 2, 70, 70, 130], pa.int64()),
        "o_totalprice": pa.array(
            [500_000.0, 100.0, 20.0, 400_000.0, 1.0, 900_000.0],
            pa.float64()),
        "o_orderdate": pa.array(ts, pa.timestamp("us")),
    }), str(d / "orders.parquet"))
    _write_events(tmp_path, [
        (1, "2026-03-02 00:00", "view"),
        (1, "2026-03-03 00:00", "click"),   # ties order 11's date (<=)
        (2, "2026-02-01 00:00", "view"),    # before any order of user 2
        (4, "2026-03-04 00:00", "view"),    # user with no orders at all
        (70, "2026-03-05 12:00", "view"),
    ])
    return str(d)


def _matches_duckdb(out, sf_dir: str, sql: str) -> None:
    """The engine's rows equal the DuckDB oracle's as multisets (the
    join ops promise no row order)."""
    import duckdb

    con = duckdb.connect()
    for t in ("customer", "orders", "events"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
    want = sorted(con.sql(sql).fetchall())
    df = out.to_pandas() if hasattr(out, "to_pandas") else out
    got = sorted(tuple(r) for r in df.itertuples(index=False))
    assert got == want


def test_q13_dangling_order_keys_match_duckdb(tmp_path):
    """Orders of custkey 70 land in a coarse group with no customer at
    all; the LEFT OUTER count must drop them, not index into an empty
    build side."""
    from sotohp_ray.pipelines.relational import (
        q13_customer_distribution,
        q13_customer_distribution_sql,
    )

    d = _write_dangling(tmp_path)
    out = q13_customer_distribution(d)
    # custdist DESC, c_count DESC
    assert out.to_pylist() == [
        {"c_count": 2, "custdist": 1}, {"c_count": 1, "custdist": 1},
        {"c_count": 0, "custdist": 1},
    ]
    _matches_duckdb(out, d, q13_customer_distribution_sql())


def test_orders_with_segment_dangling_keys_match_duckdb(tmp_path):
    from sotohp_ray.pipelines.relational import (
        orders_with_segment,
        orders_with_segment_sql,
    )

    d = _write_dangling(tmp_path)
    out = orders_with_segment(d).to_pandas()
    assert sorted(out["o_orderkey"]) == [10, 11, 12]
    _matches_duckdb(out, d, orders_with_segment_sql())


def test_customers_without_big_orders_dangling_keys_match_duckdb(tmp_path):
    """Big orders of custkeys 70 and 130 sit in groups holding no
    matching customer; they must neither fail nor knock anyone out."""
    from sotohp_ray.pipelines.relational import (
        customers_without_big_orders,
        customers_without_big_orders_sql,
    )

    d = _write_dangling(tmp_path)
    out = customers_without_big_orders(d).to_pandas()
    assert sorted(out["c_custkey"]) == [2, 3]
    _matches_duckdb(out, d, customers_without_big_orders_sql())


def test_events_asof_orders_dangling_keys_match_duckdb(tmp_path):
    """Users with orders and no events (130) and with events and no
    orders (4) both sit alone in their coarse groups."""
    from sotohp_ray.pipelines.relational import (
        events_asof_orders,
        events_asof_orders_sql,
    )

    d = _write_dangling(tmp_path)
    out = events_asof_orders(d).to_pandas().sort_values("event_id")
    assert out["n_prior_orders"].tolist() == [1, 2, 0, 0, 2]
    assert out["last_order_gap_us"].tolist()[2:4] == [-1, -1]
    _matches_duckdb(out, d, events_asof_orders_sql())


# ---- dangling suppkeys: lineitems naming no supplier ----
#
# Suppliers 10, 20 and 30. Lineitem suppkeys 5, 25 and 35 name none of
# them; each sits next to a supplier (5 before 10, whose nation is
# q8's target) that a clamped nearest-key lookup would take instead.


def _write_dangling_suppliers(tmp_path) -> str:
    d = tmp_path / "sf"
    d.mkdir(exist_ok=True)
    tables = {
        "nation": {"n_nationkey": [1, 2, 3, 4, 9],
                   "n_regionkey": [1, 1, 1, 2, 2]},
        "customer": {"c_custkey": [1, 2, 3], "c_nationkey": [1, 2, 9]},
        "supplier": {"s_suppkey": [10, 20, 30],
                     "s_nationkey": [3, 2, 4]},
        "part": {"p_partkey": [1, 2],
                 "p_name": ["blue widget", "red gadget"],
                 "p_type": ["STANDARD", "STANDARD"],
                 "p_retailprice": [10.0, 20.0]},
        "orders": {"o_orderkey": [100, 101, 102], "o_custkey": [1, 2, 3],
                   "o_orderdate": [np.datetime64(t, "us") for t in (
                       "1996-06-01", "1997-03-01", "1996-09-01")]},
    }
    li = [  # (orderkey, partkey, suppkey)
        (100, 1, 10), (100, 1, 5), (100, 2, 20), (101, 1, 25),
        (101, 1, 20), (101, 2, 35), (102, 1, 10), (102, 1, 5),
        (102, 2, 30),
    ]
    tables["lineitem"] = {
        "l_orderkey": [r[0] for r in li],
        "l_partkey": [r[1] for r in li],
        "l_suppkey": [r[2] for r in li],
        "l_quantity": [float(1 + i) for i in range(len(li))],
        "l_extendedprice": [100.25 + 7.5 * i for i in range(len(li))],
        "l_discount": [0.01 * (i % 4) for i in range(len(li))],
        "l_shipdate": [np.datetime64("1996-10-02", "us")] * len(li),
    }
    for name, cols in tables.items():
        pq.write_table(pa.table(cols), str(d / f"{name}.parquet"))
    return str(d)


@pytest.mark.parametrize("op", ["q7_volume_shipping", "q8_market_share",
                                "q9_product_type_profit"])
def test_dangling_suppkeys_match_duckdb(tmp_path, op):
    """An unknown suppkey drops its lineitem (the inner join), and never
    takes a neighbouring supplier's nation."""
    import duckdb

    from sotohp_ray.pipelines import relational

    d = _write_dangling_suppliers(tmp_path)
    got = sorted(tuple(r.values())
                 for r in getattr(relational, op)(d).to_pylist())
    con = duckdb.connect()
    for t in ("nation", "customer", "supplier", "part", "orders",
              "lineitem"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{d}/{t}.parquet'")
    want = sorted(con.sql(getattr(relational, f"{op}_sql")()).fetchall())
    assert got and len(got) == len(want), (got, want)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-12, abs=0), (got, want)
