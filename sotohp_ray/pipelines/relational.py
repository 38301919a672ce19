"""Relational operator coverage over the TPC-H-ish testdata tables —
the aggregate / join / sort / window operator inventory from SURVEY.md
§2.4-2.6 expressed Ray-Data-first, each with a DuckDB-checkable result.

Rounding contract: double aggregates are rounded (noted per op) so the
driver's value-hash compare is robust to summation-order ulps.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from sotohp_ray.utils import agg_select, co_group, combine, sorted_lookup


def _read(sf_dir: str, table: str, columns=None):
    import ray.data

    return ray.data.read_parquet(
        f"{sf_dir}/{table}.parquet", columns=columns
    )


_I64, _F64, _STR, _TS = (
    pa.int64(), pa.float64(), pa.string(), pa.timestamp("us")
)


_EVENT_SCHEMA = pa.schema(
    [("user_id", _I64), ("event_id", _I64), ("ts", _TS)]
)


def _pick(**cols):
    """``co_group`` projection that only selects and renames:
    ``new_name="source_column"``."""
    return lambda b: pa.table({new: b[old] for new, old in cols.items()})


def _join_rows(build_keys, probe_keys):
    """Hash-join probe of one ``co_group`` group: ``(rows, hit)`` where
    ``hit`` marks the probe rows whose key occurs on the build side and
    ``rows`` holds, per hit, the index of its (first) build row."""
    order = np.argsort(build_keys, kind="stable")
    pos, hit = sorted_lookup(build_keys[order], probe_keys)
    return order[pos[hit]], hit


def q1_pricing_summary(sf_dir: str):
    """TPC-H Q1-style multi-aggregate (A2: single-pass multi-aggregate,
    Statistics.scala:49-135 analog): per (returnflag, linestatus).

    Map-side PARTIAL aggregation: each batch collapses to <= 6 rows
    (one per group) with an in-batch Arrow group_by BEFORE the global
    groupby — the shuffle moves group partials, never raw lineitems
    (at 100 TB the difference between shuffling 6 rows/block and
    shuffling the table)."""
    from ray.data.aggregate import Sum

    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"])
        )
        batch = batch.append_column("disc_price", rev)
        g = batch.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("l_quantity", "sum"), ("l_extendedprice", "sum"),
             ("disc_price", "sum"), ([], "count_all")]
        )
        return agg_select(g, {
            "l_returnflag": "l_returnflag", "l_linestatus": "l_linestatus",
            "l_quantity_sum": "sum_qty",
            "l_extendedprice_sum": "sum_base_price",
            "disc_price_sum": "sum_disc_price", "count_all": "count_order",
        })

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("sum_qty", alias_name="sum_qty"),
            Sum("sum_base_price", alias_name="sum_base_price"),
            Sum("sum_disc_price", alias_name="sum_disc_price"),
            Sum("count_order", alias_name="count_order"),
        )
    )

    # monetary sums reported as integer CENTS: at ~5e8 magnitude the
    # double grid (~6e-8) is coarser than 2-decimal rounding, so
    # summation-order ulps would leak into a float column; integers
    # hash identically across engines
    def to_cents(batch: pa.Table) -> pa.Table:
        for c in ("sum_qty", "sum_base_price", "sum_disc_price"):
            i = batch.schema.get_field_index(c)
            cents = pc.round(pc.multiply(batch[c], pa.scalar(100.0))).cast(
                pa.int64()
            )
            batch = batch.set_column(i, c + "_cents", cents)
        return batch

    return out.map_batches(to_cents, batch_format="pyarrow")


def customers_per_region(sf_dir: str):
    """(r_name, n_customers): two-level broadcast join customer ->
    nation -> region (J1: small dimension tables broadcast once, no
    shuffle — the FK-hydration pattern)."""
    import pyarrow.parquet as pq
    import ray

    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    region = pq.read_table(f"{sf_dir}/region.parquet")
    # int-indexed lookup: nationkey -> region-name dictionary code.
    # The big side is mapped with one vectorized np.take per batch and
    # the names materialize as an Arrow dictionary array (no per-row
    # Python, no string duplication).
    nkeys = nation["n_nationkey"].to_numpy(zero_copy_only=False)
    nregs = nation["n_regionkey"].to_numpy(zero_copy_only=False)
    rkeys = region["r_regionkey"].to_numpy(zero_copy_only=False)
    rnames = region["r_name"].to_pylist()
    r_code = np.full(int(rkeys.max()) + 1, -1, dtype=np.int32)
    r_code[rkeys] = np.arange(len(rkeys), dtype=np.int32)
    n2code = np.full(int(nkeys.max()) + 1, -1, dtype=np.int32)
    n2code[nkeys] = r_code[nregs]
    lookup_ref = ray.put((n2code, rnames))
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        # vectorized lookup + map-side count combine: each batch
        # shuffles at most one row per region
        codes_map, names = ray.get(lookup_ref)
        keys = batch["c_nationkey"].to_numpy(zero_copy_only=False)
        codes = np.take(codes_map, keys)
        cnt = np.bincount(codes, minlength=len(names))
        nz = np.flatnonzero(cnt)
        return pa.table({
            "r_name": pa.array([names[i] for i in nz], pa.string()),
            "n_partial": pa.array(cnt[nz], pa.int64()),
        })

    ds = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        partial, batch_format="pyarrow"
    )
    return ds.groupby("r_name").aggregate(
        Sum("n_partial", alias_name="n_customers")
    )


def top_customers_by_spend(sf_dir: str, k: int = 10):
    """(o_custkey, total_spend): groupby-sum then global top-k with
    deterministic tie-break (O6 top-k heap analog)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    agg = ds.groupby("o_custkey").aggregate(
        Sum("o_totalprice", alias_name="total_spend")
    )

    def round_topk(batch: pa.Table) -> pa.Table:
        i = batch.schema.get_field_index("total_spend")
        batch = batch.set_column(
            i, "total_spend", pc.round(batch["total_spend"], 2)
        )
        # per-batch top-k combiner: the aggregate output is one row per
        # customer — still too many rows for a global sort at scale
        v = batch["total_spend"].to_numpy(zero_copy_only=False)
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ck, -v))[: min(k, v.size)]
        return batch.take(pa.array(order))

    cand = agg.map_batches(round_topk, batch_format="pyarrow").to_pandas()
    return (
        cand.sort_values(["total_spend", "o_custkey"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )


def events_hourly(sf_dir: str):
    """(user_id, hour, n_events, sum_value): tumbling 1h window —
    streaming-shaped workload as groupby over (key, window) (§2.9)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        # map-side combine: the shuffle moves (key, partial) rows
        hour = pc.floor_temporal(batch["ts"], unit="hour")
        batch = batch.append_column("hour", hour)
        g = batch.group_by(["user_id", "hour"]).aggregate(
            [([], "count_all"), ("value", "sum")]
        )
        return agg_select(g, {
            "user_id": "user_id", "hour": "hour",
            "count_all": "n_events", "value_sum": "value_sum",
        })

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["user_id", "hour"])
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("value_sum", alias_name="sum_value"),
        )
    )

    def round_col(batch: pa.Table) -> pa.Table:
        i = batch.schema.get_field_index("sum_value")
        return batch.set_column(i, "sum_value", pc.round(batch["sum_value"], 2))

    return out.map_batches(round_col, batch_format="pyarrow")



HOP_WINDOW_US = 7_200_000_000  # 2 h window ...
HOP_US = 3_600_000_000  # ... hopping every 1 h (replication factor 2)


def events_hopping_window(
    sf_dir: str, window_us: int = HOP_WINDOW_US, hop_us: int = HOP_US
):
    """(window_start, n_events, sum_value): HOPPING (sliding) window
    aggregate — overlapping windows of ``window_us`` advancing every
    ``hop_us`` (window/hop must divide evenly). The streaming-window
    generalization of ``events_hourly``'s tumbling case: each event is
    fanned out map-side to the r = window/hop windows covering it,
    pre-aggregated per (window) INSIDE the batch, and only (window,
    partial) rows reach the exchange — the shuffle carries r x
    #distinct-windows-per-block rows, never r x the raw table. The
    replication factor r is the documented cost knob: a 24h window
    hopping hourly is r=24 at the partial stage but still
    window-count-sized on the wire."""
    from ray.data.aggregate import Sum

    if window_us % hop_us:
        raise ValueError("window_us must be a multiple of hop_us")
    r = window_us // hop_us
    ds = _read(sf_dir, "events", ["ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        t = (
            batch["ts"].cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        v = batch["value"].to_numpy(zero_copy_only=False)
        base = t // hop_us * hop_us
        # all r covering window starts per event (start <= ts < end)
        ws = np.repeat(base, r) - np.tile(
            np.arange(r, dtype=np.int64) * hop_us, t.size
        )
        vv = np.repeat(v, r)
        uws, inv = np.unique(ws, return_inverse=True)
        return pa.table({
            "ws": pa.array(uws, pa.int64()),
            "n_partial": pa.array(
                np.bincount(inv).astype(np.int64), pa.int64()
            ),
            "sum_partial": pa.array(
                np.bincount(inv, weights=vv), pa.float64()
            ),
        })

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("ws")
        .aggregate(
            Sum("n_partial", alias_name="n_events"),
            Sum("sum_partial", alias_name="sum_value"),
        )
    )

    def finalize(batch: pa.Table) -> pa.Table:
        # integer-cents total (the q1 discipline): windows aggregate
        # hundreds of values, so a 2-decimal float round still flips
        # on summation-order noise; a cents cast does not
        cents = pc.cast(
            pc.round(pc.multiply(batch["sum_value"], 100.0), 0),
            pa.int64(),
        )
        return pa.table({
            "window_start": batch["ws"].cast(pa.timestamp("us")),
            "n_events": batch["n_events"].cast(pa.int64()),
            "sum_value_cents": cents,
        })

    return out.map_batches(finalize, batch_format="pyarrow")


def events_hopping_window_sql(
    window_us: int = HOP_WINDOW_US, hop_us: int = HOP_US
) -> str:
    r = window_us // hop_us
    return f"""
        WITH g AS (SELECT unnest(range(0, {r})) AS i),
        e AS (SELECT epoch_us(ts) AS t, value FROM events),
        w AS (
          SELECT (t // {hop_us} - g.i) * {hop_us} AS ws, value
          FROM e, g
        )
        SELECT make_timestamp(ws) AS window_start,
               count(*) AS n_events,
               CAST(round(sum(value) * 100.0) AS BIGINT)
                 AS sum_value_cents
        FROM w GROUP BY 1
    """


def orders_with_segment(sf_dir: str):
    """(o_orderkey, c_mktsegment): big-big INNER equi-join as one
    ``co_group`` exchange on custkey (the join family: broadcast
    FK-hydration J1, as-of J4, semi J6, anti below); each group probes
    its orders against its sorted customers. The FK broadcast joins
    remain the right tool only when one side is genuinely dim-sized."""
    import pandas as pd

    def join(c, o) -> pd.DataFrame:
        rows, hit = _join_rows(c["key"], o["key"])
        return pd.DataFrame({
            "o_orderkey": o["okey"][hit], "c_mktsegment": c["seg"][rows],
        })

    return co_group(
        join,
        (_read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]),
         _pick(key="c_custkey", seg="c_mktsegment"),
         pa.schema([("key", _I64), ("seg", _STR)])),
        (_read(sf_dir, "orders", ["o_custkey", "o_orderkey"]),
         _pick(key="o_custkey", okey="o_orderkey"),
         pa.schema([("key", _I64), ("okey", _I64)])),
    )


def orders_with_segment_sql() -> str:
    return """
        SELECT o_orderkey, c_mktsegment
        FROM orders JOIN customer ON o_custkey = c_custkey
    """


def events_distinct_users(sf_dir: str):
    """(event_type, n_users): distributed exact COUNT DISTINCT — the
    two-level distinct discipline: each batch collapses to its
    DISTINCT (event_type, user_id) pairs before the exchange, the
    groupby dedups pairs globally, and a second (tiny) aggregation
    counts pairs per type. The exchange carries distinct-pairs-per-
    block, never raw events; the exact twin of the HLL sketch
    (``events_user_hll``), which replaces the pair exchange with
    fixed 2^p-byte mergeable registers when even distinct pairs are
    too many."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def pair_partial(batch: pa.Table) -> pa.Table:
        return batch.group_by(["event_type", "user_id"]).aggregate([])

    pairs = (
        ds.map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["event_type", "user_id"])
        .aggregate(Count())  # global pair dedup; the count is unused
    )

    def count_partial(batch: pa.Table) -> pa.Table:
        g = (
            pa.table({"event_type": batch["event_type"]})
            .group_by("event_type")
            .aggregate([([], "count_all")])
        )
        from sotohp_ray.utils import agg_select

        return agg_select(
            g, {"event_type": "event_type", "count_all": "n_partial"}
        )

    return (
        pairs.map_batches(count_partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("n_partial", alias_name="n_users"))
    )


def events_distinct_users_sql() -> str:
    return """
        SELECT event_type, count(DISTINCT user_id) AS n_users
        FROM events GROUP BY 1
    """


FUNNEL_STEPS = ("view", "click", "purchase")


def events_funnel(sf_dir: str, steps=FUNNEL_STEPS):
    """(step_idx, step, n_users): ordered funnel analysis — a user
    reaches step i when their FIRST qualifying occurrence of step i is
    STRICTLY LATER than their first qualifying occurrence of step i-1
    (the product-analytics funnel; order matters, which is exactly
    what a per-type count cannot tell you). One co-partitioning
    groupby by user (the sessionize discipline); within each user the
    fold is len(steps) vectorized min-after-threshold scans; the
    exchange output is (users x reached-steps) rows collapsed to a
    steps-sized count table."""
    import pandas as pd

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        ts = df["ts"].to_numpy()
        et = df["event_type"].to_numpy()
        cur = None
        reached = []
        for si, s in enumerate(steps):
            m = et == s
            if cur is not None:
                m &= ts > cur
            if not m.any():
                break
            cur = ts[m].min()
            reached.append(si)
        return pd.DataFrame({
            "step_idx": np.asarray(reached, dtype=np.int64),
        })

    counts = (
        ds.groupby("user_id")
        .map_groups(fold, batch_format="pandas")
        .groupby("step_idx")
        .count()
        .to_pandas()
        .sort_values("step_idx")
    )
    n_of = dict(zip(
        counts["step_idx"].astype(int), counts["count()"].astype(int)
    ))
    return pa.table({
        "step_idx": pa.array(range(len(steps)), pa.int64()),
        "step": pa.array(list(steps), pa.string()),
        "n_users": pa.array(
            [n_of.get(i, 0) for i in range(len(steps))], pa.int64()
        ),
    })


def events_funnel_sql(steps=FUNNEL_STEPS) -> str:
    ctes, prev = [], None
    for i, s in enumerate(steps):
        if prev is None:
            ctes.append(
                f"s{i} AS (SELECT user_id, min(ts) AS t FROM events"
                f" WHERE event_type = '{s}' GROUP BY 1)"
            )
        else:
            ctes.append(
                f"s{i} AS (SELECT e.user_id, min(e.ts) AS t"
                f" FROM events e JOIN s{i - 1} p ON p.user_id = e.user_id"
                f" WHERE e.event_type = '{s}' AND e.ts > p.t GROUP BY 1)"
            )
        prev = s
    selects = " UNION ALL ".join(
        f"SELECT {i} AS step_idx, '{s}' AS step,"
        f" (SELECT count(*) FROM s{i}) AS n_users"
        for i, s in enumerate(steps)
    )
    return f"WITH {', '.join(ctes)} {selects} ORDER BY step_idx"


def events_hourly_pipeline(sf_dir: str):
    """(event_type, hour, n_events, delta, mavg3): the ES PIPELINE
    aggregation family over a dense date_histogram — per event type,
    EVERY hour from that type's first to last bucket (min_doc_count=0
    zero-filling, the gotcha that breaks naive derivative charts),
    with the derivative (delta vs previous hour, NULL at the series
    start) and a 3-bucket trailing moving average (window shrinks at
    the start, the ES moving_fn contract). The distributed part is the
    bucket aggregate (partial+final); the dense series IS the output,
    so the driver-side fill is output-sized by construction."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(batch["ts"], unit="hour")
        g = (
            pa.table({"event_type": batch["event_type"], "hour": hour})
            .group_by(["event_type", "hour"])
            .aggregate([([], "count_all")])
        )
        return agg_select(g, {
            "event_type": "event_type", "hour": "hour",
            "count_all": "n_partial",
        })

    buckets = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "hour"])
        .aggregate(Sum("n_partial", alias_name="n"))
        .to_pandas()
        .sort_values(["event_type", "hour"])
    )
    e_out, h_out, n_out, d_out, m_out = [], [], [], [], []
    for et, g in buckets.groupby("event_type"):
        hrs = g["hour"].to_numpy()
        ns = g["n"].to_numpy().astype(np.int64)
        dense_h = np.arange(
            hrs[0], hrs[-1] + np.timedelta64(1, "h"),
            np.timedelta64(1, "h"),
        )
        dense_n = np.zeros(dense_h.size, dtype=np.int64)
        dense_n[((hrs - hrs[0]) // np.timedelta64(1, "h")).astype(int)] = ns
        delta = np.empty(dense_h.size, dtype=object)
        delta[0] = None
        delta[1:] = (dense_n[1:] - dense_n[:-1]).tolist()
        c = np.concatenate(([0], dense_n.cumsum()))
        idx = np.arange(dense_h.size)
        lo = np.maximum(idx - 2, 0)
        mavg = np.round(
            (c[idx + 1] - c[lo]) / (idx - lo + 1).astype(np.float64), 4
        )
        e_out.extend([et] * dense_h.size)
        h_out.extend(dense_h.tolist())
        n_out.extend(dense_n.tolist())
        d_out.extend(delta.tolist())
        m_out.extend(mavg.tolist())
    return pa.table({
        "event_type": pa.array(e_out, pa.string()),
        "hour": pa.array(h_out, pa.timestamp("us")),
        "n_events": pa.array(n_out, pa.int64()),
        "delta": pa.array(d_out, pa.int64()),
        "mavg3": pa.array(m_out, pa.float64()),
    })


def events_hourly_pipeline_sql() -> str:
    return """
        WITH b AS (
          SELECT event_type, date_trunc('hour', ts) AS hour,
                 count(*) AS n
          FROM events GROUP BY 1, 2),
        spans AS (
          SELECT event_type, min(hour) AS lo, max(hour) AS hi
          FROM b GROUP BY 1),
        dense AS (
          SELECT s.event_type, unnest(generate_series(
                   s.lo, s.hi, INTERVAL 1 HOUR)) AS hour
          FROM spans s),
        filled AS (
          SELECT d.event_type, d.hour,
                 coalesce(b.n, 0)::BIGINT AS n_events
          FROM dense d
          LEFT JOIN b ON b.event_type = d.event_type
                     AND b.hour = d.hour)
        SELECT event_type, hour, n_events,
               (n_events - lag(n_events) OVER w)::BIGINT AS delta,
               round(avg(n_events) OVER (
                 w ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 4)
                 AS mavg3
        FROM filled
        WINDOW w AS (PARTITION BY event_type ORDER BY hour)
        ORDER BY event_type, hour
    """


GEOTILE_ZOOM = 3
_MERC_LAT_MAX = 85.05112878  # Web Mercator latitude clamp


def customer_geotile_grid(sf_dir: str, zoom: int = GEOTILE_ZOOM):
    """(tile_x, tile_y, n_customers, sum_acctbal): the ES
    ``geotile_grid`` aggregation — points bucketed into Web Mercator
    tiles at a fixed zoom (x = floor((lon+180)/360 * 2^z), y from the
    Mercator projection, latitude clamped to +/-85.05112878). The
    engine and the oracle evaluate the IDENTICAL IEEE expression
    (same pi literal, same operation order), so tile-edge floors
    agree bit-for-bit. Coordinates derive from custkey exactly like
    customer_geo_distance (the testdata has no geo columns). One
    vectorized map pass emits per-tile partials; a tiny groupby sums
    them (<= 4^zoom buckets)."""
    import math

    from ray.data.aggregate import Sum

    n_tiles = 1 << zoom

    def partial(batch: pa.Table) -> pa.Table:
        keys = batch["c_custkey"].to_numpy(zero_copy_only=False)
        bal = batch["c_acctbal"].to_numpy(zero_copy_only=False)
        lat = ((keys * 37) % 18000) / 100.0 - 90.0
        lon = ((keys * 91) % 36000) / 100.0 - 180.0
        lat = np.clip(lat, -_MERC_LAT_MAX, _MERC_LAT_MAX)
        tx = np.floor((lon + 180.0) / 360.0 * n_tiles).astype(np.int64)
        tx = np.minimum(tx, n_tiles - 1)
        rad = lat * math.pi / 180.0
        ty = np.floor(
            (1.0 - np.log(np.tan(rad) + 1.0 / np.cos(rad)) / math.pi)
            / 2.0 * n_tiles
        ).astype(np.int64)
        ty = np.clip(ty, 0, n_tiles - 1)
        code = tx * n_tiles + ty
        u, inv = np.unique(code, return_inverse=True)
        cnt = np.bincount(inv)
        sm = np.bincount(inv, weights=bal)
        return pa.table({
            "tile_x": pa.array(u // n_tiles, pa.int64()),
            "tile_y": pa.array(u % n_tiles, pa.int64()),
            "n_partial": pa.array(cnt.astype(np.int64), pa.int64()),
            "s_partial": pa.array(sm, pa.float64()),
        })

    agg = (
        _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["tile_x", "tile_y"])
        .aggregate(
            Sum("n_partial", alias_name="n_customers"),
            Sum("s_partial", alias_name="s"),
        )
        .to_pandas()
        .sort_values(["tile_x", "tile_y"])
    )
    return pa.table({
        "tile_x": pa.array(agg["tile_x"].to_numpy(), pa.int64()),
        "tile_y": pa.array(agg["tile_y"].to_numpy(), pa.int64()),
        "n_customers": pa.array(
            agg["n_customers"].to_numpy().astype(np.int64), pa.int64()
        ),
        "sum_acctbal": pa.array(
            np.round(agg["s"].to_numpy(), 2), pa.float64()
        ),
    })


def customer_geotile_grid_sql(zoom: int = GEOTILE_ZOOM) -> str:
    import math

    n = 1 << zoom
    pi = repr(math.pi)
    return f"""
        WITH pts AS (
          SELECT c_acctbal,
                 least(greatest(
                   ((c_custkey * 37) % 18000) / 100.0 - 90.0,
                   -{_MERC_LAT_MAX}), {_MERC_LAT_MAX}) AS lat,
                 ((c_custkey * 91) % 36000) / 100.0 - 180.0 AS lon
          FROM customer),
        tiles AS (
          SELECT c_acctbal,
                 least(CAST(floor((lon + 180.0) / 360.0 * {n})
                       AS BIGINT), {n - 1}) AS tile_x,
                 least(greatest(CAST(floor(
                   (1.0 - ln(tan(lat * {pi} / 180.0)
                             + 1.0 / cos(lat * {pi} / 180.0)) / {pi})
                   / 2.0 * {n}) AS BIGINT), 0), {n - 1}) AS tile_y
          FROM pts)
        SELECT tile_x, tile_y, count(*) AS n_customers,
               round(sum(c_acctbal), 2) AS sum_acctbal
        FROM tiles GROUP BY 1, 2 ORDER BY 1, 2
    """


COMPOSITE_PAGE = 100


def events_composite_pages(sf_dir: str, page: int = COMPOSITE_PAGE):
    """(page_id, event_type, hour, n_events): the ES ``composite``
    aggregation with after-key pagination — the agg-side deep-scroll:
    buckets stream out in key order, ``page``-sized pages, each page
    resolved by an exclusive after-key filter (not a global offset
    slice, which would re-ship offset+page buckets per page). The
    bucket table is built ONCE with the standard partial+final
    aggregate (groups-sized); pages are then searchsorted windows over
    its sorted key order — pagination state is one after-key, exactly
    the ES contract."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(batch["ts"], unit="hour")
        g = (
            pa.table({"event_type": batch["event_type"], "hour": hour})
            .group_by(["event_type", "hour"])
            .aggregate([([], "count_all")])
        )
        return agg_select(g, {
            "event_type": "event_type", "hour": "hour",
            "count_all": "n_partial",
        })

    buckets = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "hour"])
        .aggregate(Sum("n_partial", alias_name="n_events"))
        .to_pandas()
        .sort_values(["event_type", "hour"])
        .reset_index(drop=True)
    )
    # after-key pagination: on a SORTED table of UNIQUE composite keys
    # the exclusive after-key filter ("first row with key strictly
    # greater than the previous page's last key") selects exactly the
    # next row, so page windows are direct slices — one after-key of
    # resume state, zero per-page rescans
    pages = np.arange(len(buckets), dtype=np.int64) // page
    et = buckets["event_type"].to_numpy()
    return pa.table({
        "page_id": pa.array(pages, pa.int64()),
        "event_type": pa.array(et.astype(str), pa.string()),
        "hour": pa.array(buckets["hour"]),
        "n_events": pa.array(
            buckets["n_events"].to_numpy().astype(np.int64), pa.int64()
        ),
    })


def events_composite_pages_sql(page: int = COMPOSITE_PAGE) -> str:
    return f"""
        SELECT ((row_number() OVER (ORDER BY event_type, hour) - 1)
                 // {page})::BIGINT AS page_id,
               event_type, hour, n_events
        FROM (
          SELECT event_type, date_trunc('hour', ts) AS hour,
                 count(*) AS n_events
          FROM events GROUP BY 1, 2)
        ORDER BY event_type, hour
    """


PCT_RANK_THRESHOLDS = (10.0, 50.0, 100.0, 500.0)


def events_value_percentile_ranks(
    sf_dir: str, thresholds=PCT_RANK_THRESHOLDS
):
    """(event_type, threshold, pct_rank): the ES ``percentile_ranks``
    aggregation (the inverse of percentiles — "what fraction of values
    sit at or below X?"). Exact and shuffle-light: each batch emits
    per-(type, threshold) (n_le, n_total) partials from ONE
    searchsorted per batch over its sorted values, one tiny groupby
    sums them, pct = 100 * n_le / n_total rounded to 4."""
    from ray.data.aggregate import Sum

    th = np.sort(np.asarray(thresholds, dtype=np.float64))

    def partial(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        val = batch["value"].to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        types, e_parts, t_parts, le_parts, n_parts = np.unique(et), [], [], [], []
        for t in types:
            v = np.sort(val[et == t])
            le = np.searchsorted(v, th, side="right")
            e_parts.append(np.full(th.size, t, dtype=object))
            t_parts.append(th)
            le_parts.append(le.astype(np.int64))
            n_parts.append(np.full(th.size, v.size, dtype=np.int64))
        if not e_parts:
            return pa.table({
                "event_type": pa.array([], pa.string()),
                "threshold": pa.array([], pa.float64()),
                "n_le": pa.array([], pa.int64()),
                "n_total": pa.array([], pa.int64()),
            })
        return pa.table({
            "event_type": pa.array(
                np.concatenate(e_parts).astype(str), pa.string()
            ),
            "threshold": pa.array(np.concatenate(t_parts), pa.float64()),
            "n_le": pa.array(np.concatenate(le_parts), pa.int64()),
            "n_total": pa.array(np.concatenate(n_parts), pa.int64()),
        })

    agg = (
        _read(sf_dir, "events", ["event_type", "value"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "threshold"])
        .aggregate(
            Sum("n_le", alias_name="le"),
            Sum("n_total", alias_name="n"),
        )
        .to_pandas()
        .sort_values(["event_type", "threshold"])
    )
    return pa.table({
        "event_type": pa.array(agg["event_type"].tolist(), pa.string()),
        "threshold": pa.array(agg["threshold"].to_numpy(), pa.float64()),
        "pct_rank": pa.array(
            np.round(
                100.0 * agg["le"].to_numpy() / agg["n"].to_numpy(), 4
            ),
            pa.float64(),
        ),
    })


def events_value_percentile_ranks_sql(
    thresholds=PCT_RANK_THRESHOLDS,
) -> str:
    parts = []
    for t in sorted(thresholds):
        parts.append(
            f"SELECT event_type, {t} AS threshold,"
            f" round(100.0 * count(*) FILTER (WHERE value <= {t})"
            f" / count(*), 4) AS pct_rank"
            f" FROM events GROUP BY event_type"
        )
    return " UNION ALL ".join(parts) + " ORDER BY event_type, threshold"


HLL_P = 12  # 4096 registers: sigma = 1.04/sqrt(m) = 1.6%


def events_user_hll(sf_dir: str, p: int = HLL_P):
    """(event_type, approx_users): HyperLogLog approximate COUNT
    DISTINCT (Flajolet et al. 2007) — the mergeable-sketch aggregation
    pattern: each batch folds its user hashes into a fixed 2^p-byte
    register array per event type, the groupby merges sketches with an
    elementwise max, and the estimator runs once per type on the
    driver-visible result. The exchange cost is (types x blocks) rows
    of 2^p bytes — INDEPENDENT of user cardinality, which is the whole
    point: the exact twin ``events_distinct_users`` ships every
    distinct pair, this ships 4 KB per type per block. Not
    SQL-expressible (rows-only entry); accuracy is pytest-gated
    against the exact twin at 3-sigma (sigma = 1.04/sqrt(2^p))."""
    import pandas as pd

    from sotohp_ray.functions.hashing import _fmix64

    if p < 11:
        # the float64-log2 rank path needs the (64-p)-bit suffix to
        # stay below 2^53 (exact integers in a double); p < 11 would
        # silently bias ranks near powers of two
        raise ValueError("p must be >= 11")
    m = 1 << p
    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def sketch_partial(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        u = batch["user_id"].to_numpy(zero_copy_only=False).astype(
            np.uint64
        )
        h = _fmix64(u)
        idx = (h & np.uint64(m - 1)).astype(np.int64)
        w = (h >> np.uint64(p)).astype(np.uint64)
        # rank = leading-zero count of the (64-p)-bit suffix + 1;
        # ints < 2^53 are exact in float64, so log2 is safe at p >= 12
        rank = np.full(w.size, 64 - p + 1, dtype=np.uint8)
        nz = w > 0
        rank[nz] = (
            (64 - p) - np.floor(np.log2(w[nz].astype(np.float64)))
        ).astype(np.uint8)
        types, inv = np.unique(et, return_inverse=True)
        regs = np.zeros((types.size, m), dtype=np.uint8)
        np.maximum.at(regs, (inv, idx), rank)
        return pa.table({
            "event_type": pa.array(types),
            "regs": pa.FixedSizeListArray.from_arrays(
                pa.array(regs.ravel(), pa.uint8()), m
            ),
        })

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        et = g["event_type"].iloc[0]
        regs = np.maximum.reduce(
            np.stack([np.asarray(r, dtype=np.uint8)
                      for r in g["regs"].to_numpy()])
        )
        # bias-corrected raw estimate + small-range linear counting
        alpha = 0.7213 / (1.0 + 1.079 / m)
        est = alpha * m * m / np.sum(
            np.exp2(-regs.astype(np.float64))
        )
        zeros = int((regs == 0).sum())
        if est <= 2.5 * m and zeros:
            est = m * np.log(m / zeros)
        return pd.DataFrame({
            "event_type": [et],
            "approx_users": [int(round(est))],
        })

    return (
        ds.map_batches(sketch_partial, batch_format="pyarrow")
        .groupby("event_type")
        .map_groups(merge, batch_format="pandas")
    )


KLL_K = 256  # compactor width: rank error ~ O(1/k), measured < 1% here


class _KLLSketch:
    """Mergeable quantile sketch (Karnin-Lang-Liberty compactors,
    FOCS 2016, simplified): level-L buffers hold items of weight 2^L;
    a full buffer sorts and keeps alternate items, promoting them one
    level up. Randomness is DETERMINISTIC here (the keep-even/keep-odd
    offset comes from a counter hash) so distributed runs reproduce
    bit-identically; the cost is a worst-case bias adversarial inputs
    could exploit, which the accuracy pytest bounds on the real
    table. Per-sketch size is O(k log(n/k)) floats — the exchange
    ships sketches, never values."""

    def __init__(self, k: int = KLL_K):
        self.k = k
        self.levels: list[np.ndarray] = [np.empty(0, np.float64)]
        self.n = 0
        self._compactions = 0

    def add_batch(self, v: np.ndarray) -> None:
        self.n += v.size
        self.levels[0] = np.concatenate((self.levels[0], v))
        self._compress()

    def merge(self, other: "_KLLSketch") -> None:
        self.n += other.n
        while len(self.levels) < len(other.levels):
            self.levels.append(np.empty(0, np.float64))
        for lv, buf in enumerate(other.levels):
            self.levels[lv] = np.concatenate((self.levels[lv], buf))
        self._compress()

    def _compress(self) -> None:
        lv = 0
        while lv < len(self.levels):
            buf = self.levels[lv]
            if buf.size > self.k:
                buf = np.sort(buf, kind="stable")
                self._compactions += 1
                off = (self._compactions * 2654435761) >> 16 & 1
                keep = buf[off::2]
                if lv + 1 == len(self.levels):
                    self.levels.append(np.empty(0, np.float64))
                self.levels[lv + 1] = np.concatenate(
                    (self.levels[lv + 1], keep)
                )
                self.levels[lv] = np.empty(0, np.float64)
            lv += 1

    def quantile(self, q: float) -> float:
        items = np.concatenate(self.levels)
        w = np.concatenate([
            np.full(b.size, 1 << lv, np.int64)
            for lv, b in enumerate(self.levels)
        ])
        o = np.argsort(items, kind="stable")
        items, w = items[o], w[o]
        cum = np.cumsum(w)
        rank = max(int(np.ceil(np.float64(q) * cum[-1])), 1)
        return float(items[int(np.searchsorted(cum, rank))])


def events_value_quantile_sketch(
    sf_dir: str, qs=(0.25, 0.5, 0.75, 0.9, 0.99), k: int = KLL_K
):
    """(quantile, value_approx): approximate quantiles of the float
    ``value`` column via mergeable KLL compactor sketches — the scale
    path for quantiles when the column's value cardinality is
    unbounded (the exact histogram route, ``doc_length_quantiles``,
    needs bounded-cardinality values). Each batch folds into an
    O(k log n) sketch, sketch rows are the ONLY thing shipped, and
    the driver merges block sketches in deterministic block order.
    Not SQL-expressible (rows-only); rank accuracy is pytest-gated
    against the exact quantiles on the real table."""

    def partial(batch: pa.Table) -> pa.Table:
        sk = _KLLSketch(k)
        sk.add_batch(
            batch["value"].to_numpy(zero_copy_only=False).astype(
                np.float64
            )
        )
        lens = np.array([b.size for b in sk.levels], np.int64)
        return pa.table({
            "n": pa.array([sk.n], pa.int64()),
            "lens": pa.array([lens], pa.list_(pa.int64())),
            "items": pa.array(
                [np.concatenate(sk.levels)], pa.list_(pa.float64())
            ),
        })

    parts = (
        _read(sf_dir, "events", ["value"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()  # sketch-per-block-sized, never value-sized
    )
    total = _KLLSketch(k)
    for _, row in parts.iterrows():
        sk = _KLLSketch(k)
        sk.n = int(row["n"])
        flat = np.asarray(row["items"], np.float64)
        lens = np.asarray(row["lens"], np.int64)
        offs = np.concatenate(([0], np.cumsum(lens)))
        sk.levels = [
            flat[offs[i]:offs[i + 1]] for i in range(lens.size)
        ]
        total.merge(sk)
    out_q = [float(q) for q in qs] if total.n else []
    out_v = [total.quantile(q) for q in qs] if total.n else []
    return pa.table({
        "quantile": pa.array(out_q, pa.float64()),
        "value_approx": pa.array(out_v, pa.float64()),
    })


ROLL_W = 3


def events_rolling_max(sf_dir: str, w: int = ROLL_W):
    """(event_id, roll_max): per-user rolling maximum over the last
    ``w`` events ordered by (ts, event_id) — the sliding-window
    function shape (O7) beside the lag-shaped ``events_prev_gap``.
    max is chosen as the rolling aggregate because it is
    ASSOCIATIVITY-EXACT on floats (a rolling float SUM would hash-
    mismatch any oracle whose window implementation adds in a
    different order). One ``co_group`` exchange on user_id, a
    vectorized shifted-maximum kernel per group."""
    import pandas as pd

    def roll(g) -> pd.DataFrame:
        u, e, v = g["user_id"], g["event_id"], g["value"]
        order = np.lexsort((e, g["ts"].view(np.int64), u))
        u, e, v = u[order], e[order], v[order]
        out = v.copy()
        for k in range(1, w):
            # shifted-by-k value, masked to the same user's run
            ok = np.zeros(v.size, dtype=bool)
            ok[k:] = u[k:] == u[:-k]
            idx = np.flatnonzero(ok)
            out[idx] = np.maximum(out[idx], v[idx - k])
        return pd.DataFrame({
            "event_id": e.astype("int64"),
            "roll_max": out,
        })

    return co_group(roll, (
        _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"]),
        None, _EVENT_SCHEMA.append(pa.field("value", _F64)),
    ))


def events_rolling_max_sql(w: int = ROLL_W) -> str:
    return f"""
        SELECT event_id,
               max(value) OVER (
                 PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN {w - 1} PRECEDING AND CURRENT ROW
               ) AS roll_max
        FROM events
    """


def _with_cols(df, cols: dict):
    """Give an EMPTY driver-side collect its schema back: when every
    group of a ``map_groups`` returns zero rows, ``to_pandas()`` comes
    back with NO columns at all and the driver fold's own groupby
    raises KeyError — an edge the sf tables never hit but a selective
    filter will. ``cols`` is {name: numpy dtype} for the empty case;
    non-empty frames pass through untouched."""
    import pandas as pd

    if len(df) and all(c in df.columns for c in cols):
        return df
    return pd.DataFrame({
        c: pd.Series(dtype=t) for c, t in cols.items()
    })


def events_prev_gap(sf_dir: str):
    """(event_id, gap_us): microseconds since the user's previous event
    — the sorted per-partition window op (J4 locationInduction: walk
    prev/next by sorted timestamp; O7 sliding windows). Partition by
    user, sort by (ts, event_id) within the group, diff.

    gap_us is -1 for each user's first event (the NULL-free contract
    for cross-engine hashing, same as events_asof_orders: a nullable
    Int64 NA vs DuckDB float64 NaN hash-diverges even when values
    agree).

    One ``co_group`` exchange on user_id; inside a group, one
    vectorized sort by (user, ts, id) + diff with resets at user
    boundaries handles every user at once."""
    import pandas as pd

    def gaps(g) -> pd.DataFrame:
        us, u, e = g["ts"].view(np.int64), g["user_id"], g["event_id"]
        order = np.lexsort((e, us, u))
        u, us, e = u[order], us[order], e[order]
        gap = np.empty(us.size, dtype=np.int64)
        gap[0] = -1
        gap[1:] = us[1:] - us[:-1]
        gap[np.flatnonzero(np.diff(u)) + 1] = -1  # first per user
        return pd.DataFrame({"event_id": e, "gap_us": gap})

    return co_group(gaps, (
        _read(sf_dir, "events", ["event_id", "user_id", "ts"]),
        None, _EVENT_SCHEMA,
    ))


def events_type_stats(sf_dir: str):
    """(event_type, n, sum_value): grouped totals (A1-style)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("event_type").aggregate(
            [([], "count_all"), ("value", "sum")]
        )
        return agg_select(g, {
            "event_type": "event_type",
            "count_all": "n", "value_sum": "value_sum",
        })

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("value_sum", alias_name="sum_value"),
        )
    )

    def round_col(batch: pa.Table) -> pa.Table:
        i = batch.schema.get_field_index("sum_value")
        return batch.set_column(i, "sum_value", pc.round(batch["sum_value"], 2))

    return out.map_batches(round_col, batch_format="pyarrow")


def events_topk_by_value(sf_dir: str, k: int = 20):
    """(event_id, value): global top-k with tie-break (O1/O3/O6).
    Per-batch top-k COMBINER (vectorized lexsort) instead of a global
    sort — a full distributed sort for a top-20 would be an
    all-to-all shuffle of every row; the combiner ships at most k rows
    per block and the final merge is output-sized."""
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        e = batch["event_id"].to_numpy(zero_copy_only=False)
        take = min(k, v.size)
        order = np.lexsort((e, -v))[:take]
        return batch.take(pa.array(order))

    cand = (
        _read(sf_dir, "events", ["event_id", "value"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()  # ≤ k rows per block: output-sized
    )
    return (
        cand.sort_values(["value", "event_id"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )


def events_topn_per_user(sf_dir: str, n: int = 3):
    """(user_id, event_id, value): grouped top-N — each user's N
    highest-value events (value desc, event_id asc tie-break), the
    keyed generalization of ``events_topk_by_value`` (O6) and the
    per-group bounded page of O3 (ApiApp.scala:749-753 caps ordered
    reads per request). Two-level top-N: a per-batch vectorized
    combiner keeps at most N rows PER USER PER BLOCK, so the single
    groupby shuffles a candidate set bounded by N x users x blocks —
    independent of how many events a hot user has — and the per-group
    finalize reruns the same lexsort kernel. The naive shape (global
    groupby(user).map_groups(head)) ships EVERY row of a 100 TB table
    through the exchange; this ships at most N per user per block."""
    import pandas as pd

    def _topn(u, e, v):
        order = np.lexsort((e, -v, u))
        us, es, vs = u[order], e[order], v[order]
        starts = np.zeros(us.size, dtype=bool)
        if us.size:
            starts[0] = True
            starts[1:] = us[1:] != us[:-1]
        run_id = np.cumsum(starts) - 1
        run_start = np.flatnonzero(starts)
        pos = np.arange(us.size, dtype=np.int64) - run_start[run_id]
        keep = pos < n
        return us[keep], es[keep], vs[keep]

    def partial(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        e = batch["event_id"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        v = batch["value"].to_numpy(zero_copy_only=False)
        us, es, vs = _topn(u, e, v)
        return pa.table({"user_id": us, "event_id": es, "value": vs})

    def finalize(g) -> pd.DataFrame:
        us, es, vs = _topn(g["user_id"], g["event_id"], g["value"])
        return pd.DataFrame({"user_id": us, "event_id": es, "value": vs})

    return co_group(finalize, (
        _read(sf_dir, "events", ["event_id", "user_id", "value"]),
        partial,
        pa.schema([("user_id", _I64), ("event_id", _I64), ("value", _F64)]),
    ))


def events_topn_per_user_sql(n: int = 3) -> str:
    return f"""
        SELECT user_id, event_id, value FROM events
        QUALIFY row_number() OVER (
          PARTITION BY user_id ORDER BY value DESC, event_id ASC
        ) <= {n}
    """


ANTI_ORDER_MIN = 300_000.0


def customers_without_big_orders(
    sf_dir: str, min_total: float = ANTI_ORDER_MIN
):
    """(c_custkey, c_acctbal): customers with NO order above
    ``min_total`` — a ``co_group`` hash ANTI-join on custkey (the
    negative form of J6's semi-join filter). The probe side collapses
    to DISTINCT qualifying custkeys per batch before the exchange; each
    group keeps its customers whose key never appears on the probe
    side. No small-side assumption: an anti-join against a 100 TB fact
    table cannot broadcast."""
    import pandas as pd

    def big_keys(batch: pa.Table) -> pa.Table:
        tp = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        return pa.table({"key": np.unique(ck[tp > min_total])})

    def anti(c, o) -> pd.DataFrame:
        keep = ~np.isin(c["key"], o["key"])
        return pd.DataFrame({
            "c_custkey": c["key"][keep], "c_acctbal": c["c_acctbal"][keep],
        })

    return co_group(
        anti,
        (_read(sf_dir, "customer", ["c_custkey", "c_acctbal"]),
         _pick(key="c_custkey", c_acctbal="c_acctbal"),
         pa.schema([("key", _I64), ("c_acctbal", _F64)])),
        (_read(sf_dir, "orders", ["o_custkey", "o_totalprice"]),
         big_keys, pa.schema([("key", _I64)])),
    )


def customers_without_big_orders_sql(
    min_total: float = ANTI_ORDER_MIN,
) -> str:
    return f"""
        SELECT c_custkey, c_acctbal FROM customer
        WHERE c_custkey NOT IN (
          SELECT o_custkey FROM orders WHERE o_totalprice > {min_total}
        )
    """


def events_asof_orders(sf_dir: str):
    """(event_id, n_prior_orders, last_order_gap_us): as-of join — for
    each event, the user's most recent order at-or-before the event
    timestamp (J4 locationInduction: nearest-neighbor-in-sorted-order
    join, MediaServiceLive.scala:1413-1454; its per-record index-walk
    cost 7 extra minutes on 114k docs — here one ``co_group`` exchange
    on user key, and inside a group ONE lexsort of the combined stream
    (orders before events at equal ts, the <= semantics) plus running
    cumsum/accumulate kernels answer every user at once).

    gap is -1 when the user has no prior order (NULL-free contract for
    cross-engine hashing).
    """
    import pandas as pd

    def asof(e, o) -> pd.DataFrame:
        u = np.concatenate([o["user_id"], e["user_id"]])
        ts = np.concatenate([o["ts"], e["ts"]]).view(np.int64)
        is_o = np.arange(u.size) < o["user_id"].size
        eid = np.concatenate([np.full(o["user_id"].size, -1), e["event_id"]])
        pri = (~is_o).astype(np.int8)  # orders first at equal ts (<=)
        order = np.lexsort((pri, ts, u))
        u, ts, is_o, eid = u[order], ts[order], is_o[order], eid[order]
        n = u.size
        c = np.cumsum(is_o.astype(np.int64))  # orders seen so far
        starts = np.concatenate(([0], np.flatnonzero(np.diff(u)) + 1))
        # order-count at each row's USER START (broadcast per group)
        sb = np.zeros(n, dtype=np.int64)
        sb[starts] = 1
        gidx = np.cumsum(sb) - 1
        cb_per_group = np.where(starts > 0, c[starts - 1], 0)
        cb = cb_per_group[gidx]
        n_prior = c - cb  # valid at event rows (their own is_o = 0)
        # running position of the most recent order row
        lp = np.where(is_o, np.arange(n, dtype=np.int64), -1)
        lp = np.maximum.accumulate(lp)
        ev_rows = np.flatnonzero(~is_o)
        np_e = n_prior[ev_rows]
        gap = np.where(
            np_e > 0, ts[ev_rows] - ts[np.maximum(lp[ev_rows], 0)], -1
        )
        return pd.DataFrame({
            "event_id": eid[ev_rows],
            "n_prior_orders": np_e.astype("int64"),
            "last_order_gap_us": gap.astype("int64"),
        })

    return co_group(
        asof,
        (_read(sf_dir, "events", ["event_id", "user_id", "ts"]),
         None, _EVENT_SCHEMA),
        (_read(sf_dir, "orders", ["o_custkey", "o_orderdate"]),
         _pick(user_id="o_custkey", ts="o_orderdate"),
         pa.schema([("user_id", _I64), ("ts", _TS)])),
    )


def events_asof_orders_sql() -> str:
    return """
        SELECT e.event_id,
               count(o.o_orderdate) AS n_prior_orders,
               coalesce(epoch_us(e.ts) - epoch_us(max(o.o_orderdate)), -1)
                 AS last_order_gap_us
        FROM events e
        LEFT JOIN orders o
          ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
        GROUP BY e.event_id, e.ts
    """


SESSION_GAP_US = 30 * 60 * 1_000_000


def events_sessionize(sf_dir: str, gap_us: int = SESSION_GAP_US):
    """(event_id, session_seq): streaming-style sessionization — a new
    session starts when a user is idle longer than ``gap_us`` (the
    watermark-free batch formulation of §2.9; per-user sorted cumsum
    over gap breaks, same ``co_group`` as events_prev_gap)."""
    import pandas as pd

    def sess(g) -> pd.DataFrame:
        # coarse group: every user at once — session breaks at idle
        # gaps OR user boundaries, session_seq = cumsum of breaks
        # minus the cumsum value at the user's start (vectorized reset)
        us, u, e = g["ts"].view(np.int64), g["user_id"], g["event_id"]
        order = np.lexsort((e, us, u))
        u, us, e = u[order], us[order], e[order]
        n = us.size
        brk = np.ones(n, dtype=np.int64)
        brk[1:] = ((us[1:] - us[:-1]) > gap_us) | (u[1:] != u[:-1])
        seq = np.cumsum(brk)
        user_starts = np.concatenate(([0], np.flatnonzero(np.diff(u)) + 1))
        base = np.zeros(n, dtype=np.int64)
        base[user_starts] = seq[user_starts]
        base = np.maximum.accumulate(base)
        return pd.DataFrame({
            "event_id": e,
            "session_seq": seq - base,
        })

    return co_group(sess, (
        _read(sf_dir, "events", ["event_id", "user_id", "ts"]),
        None, _EVENT_SCHEMA,
    ))


def events_sessionize_sql(gap_us: int = SESSION_GAP_US) -> str:
    return f"""
        SELECT event_id,
               CAST(sum(CASE WHEN gap_us IS NULL OR gap_us > {gap_us}
                             THEN 1 ELSE 0 END)
                    OVER (PARTITION BY user_id ORDER BY ts, event_id
                          ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT)
                 AS session_seq
        FROM (
          SELECT event_id, user_id, ts,
                 epoch_us(ts) - lag(epoch_us(ts)) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id) AS gap_us
          FROM events)
    """


def events_page(sf_dir: str, offset: int = 100, k: int = 50):
    """(event_id, user_id, ts): ordered page — the bounded ordered walk
    of O3 (`mediaStream(fromKey, limit)`, limit<=200). Per-batch
    smallest-(offset+k) combiner instead of a global sort: each block
    ships at most offset+k rows and the final page slice is
    output-sized on the driver."""
    n = offset + k

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) \
            if not isinstance(batch["ts"], pa.ChunkedArray) \
            else batch["ts"].combine_chunks().cast(pa.int64()).to_numpy(
                zero_copy_only=False)
        e = batch["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((e, ts))[: min(n, e.size)]
        return batch.take(pa.array(order))

    cand = (
        _read(sf_dir, "events", ["event_id", "user_id", "ts"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    page = cand.sort_values(["ts", "event_id"]).reset_index(drop=True)
    return page.iloc[offset:offset + k].reset_index(drop=True)


def events_page_sql(offset: int = 100, k: int = 50) -> str:
    return f"""
        SELECT event_id, user_id, ts FROM events
        ORDER BY ts, event_id LIMIT {k} OFFSET {offset}
    """


CURSOR_EVENT_ID = 5000


def events_cursor_nav(sf_dir: str, cursor_event_id: int = CURSOR_EVENT_ID):
    """(pos, event_id, ts) for pos in first/last/prev/next relative to
    the cursor row — ordered point-cursor navigation (O2:
    mediaFirst/Last/Previous/Next, MediaServiceLive.scala:114-176),
    keyed by the total order (ts, event_id).

    Scale shape: each batch emits at most 4 candidate rows (vectorized
    min/max within the batch — a combiner, not a sort), and the final
    pick runs over <= 4 rows per block on the driver. No global sort,
    no full materialization."""
    import pandas as pd
    import pyarrow.parquet as pq

    ct = pq.read_table(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts"],
        filters=[("event_id", "=", cursor_event_id)],
    )
    has_cursor = ct.num_rows > 0
    if has_cursor:
        c_ts = ct["ts"][0].cast(pa.int64()).as_py()
        c_id = cursor_event_id
    else:
        # nonexistent cursor: degrade like the SQL form (empty cursor
        # CTE) — first/last still answer, prev/next are empty
        c_ts = c_id = 0

    def candidates(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy(zero_copy_only=False)
        ts = batch["ts"].combine_chunks().cast(pa.int64()) \
            if isinstance(batch["ts"], pa.ChunkedArray) \
            else batch["ts"].cast(pa.int64())
        tsv = np.asarray(ts)
        if ids.size == 0:
            return pa.table({
                "pos": pa.array([], pa.string()),
                "event_id": pa.array([], pa.int64()),
                "ts_us": pa.array([], pa.int64()),
            })
        order = np.lexsort((ids, tsv))
        if has_cursor:
            after = (tsv > c_ts) | ((tsv == c_ts) & (ids > c_id))
            before = (tsv < c_ts) | ((tsv == c_ts) & (ids < c_id))
        else:
            after = before = np.zeros(ids.size, dtype=bool)
        pos, eid, tso = [], [], []

        def emit(p, i):
            pos.append(p)
            eid.append(int(ids[i]))
            tso.append(int(tsv[i]))

        emit("first", order[0])
        emit("last", order[-1])
        ai = np.flatnonzero(after)
        if ai.size:
            sub = ai[np.lexsort((ids[ai], tsv[ai]))[0]]
            emit("next", sub)
        bi = np.flatnonzero(before)
        if bi.size:
            sub = bi[np.lexsort((ids[bi], tsv[bi]))[-1]]
            emit("prev", sub)
        return pa.table({
            "pos": pa.array(pos, pa.string()),
            "event_id": pa.array(eid, pa.int64()),
            "ts_us": pa.array(tso, pa.int64()),
        })

    cand = (
        _read(sf_dir, "events", ["event_id", "ts"])
        .map_batches(candidates, batch_format="pyarrow")
        .to_pandas()
    )
    rows = []
    for p in ("first", "last", "next", "prev"):
        g = cand[cand["pos"] == p]
        if g.empty:
            continue
        asc = p in ("first", "next")
        g = g.sort_values(["ts_us", "event_id"], ascending=[asc, asc])
        rows.append(g.iloc[0])
    return pd.DataFrame(rows).reset_index(drop=True)


def events_cursor_nav_sql(cursor_event_id: int = CURSOR_EVENT_ID) -> str:
    return f"""
        WITH c AS (
          SELECT epoch_us(ts) AS ts_us, event_id
          FROM events WHERE event_id = {cursor_event_id}
        )
        (SELECT 'first' AS pos, event_id, epoch_us(ts) AS ts_us
         FROM events ORDER BY ts, event_id LIMIT 1)
        UNION ALL
        (SELECT 'last', event_id, epoch_us(ts) FROM events
         ORDER BY ts DESC, event_id DESC LIMIT 1)
        UNION ALL
        (SELECT 'next', e.event_id, epoch_us(e.ts) FROM events e, c
         WHERE (epoch_us(e.ts), e.event_id) > (c.ts_us, c.event_id)
         ORDER BY e.ts, e.event_id LIMIT 1)
        UNION ALL
        (SELECT 'prev', e.event_id, epoch_us(e.ts) FROM events e, c
         WHERE (epoch_us(e.ts), e.event_id) < (c.ts_us, c.event_id)
         ORDER BY e.ts DESC, e.event_id DESC LIMIT 1)
    """


GEO_REF_LAT, GEO_REF_LON = 47.6, -122.3


def customer_geo_distance(sf_dir: str, k: int = 20):
    """(c_custkey, dist_km): the k customers nearest a reference point
    by haversine distance (M15 geo kernels — Location.scala:53-70
    distanceTo; coordinates derived deterministically from custkey
    because the testdata has no geo columns, same derivation in the
    oracle). Per-batch vectorized distance + top-k combiner, tiny
    final sort."""
    from sotohp_ray.functions.geo import haversine_km

    def score(batch: pa.Table) -> pa.Table:
        keys = batch["c_custkey"].to_numpy(zero_copy_only=False)
        lat = ((keys * 37) % 18000) / 100.0 - 90.0
        lon = ((keys * 91) % 36000) / 100.0 - 180.0
        d = np.round(haversine_km(lat, lon, GEO_REF_LAT, GEO_REF_LON), 2)
        take = min(k, keys.size)
        order = np.lexsort((keys, d))[:take]  # per-batch top-k combiner
        return pa.table({
            "c_custkey": pa.array(keys[order], pa.int64()),
            "dist_km": pa.array(d[order], pa.float64()),
        })

    return (
        _read(sf_dir, "customer", ["c_custkey"])
        .map_batches(score, batch_format="pyarrow")
        .sort(["dist_km", "c_custkey"])
        .limit(k)
    )


def customer_geo_distance_sql(k: int = 20) -> str:
    return f"""
        WITH pts AS (
          SELECT c_custkey,
                 ((c_custkey * 37) % 18000) / 100.0 - 90.0 AS lat,
                 ((c_custkey * 91) % 36000) / 100.0 - 180.0 AS lon
          FROM customer
        )
        SELECT c_custkey,
               round(2 * 6371.0 * asin(sqrt(
                 sin(radians({GEO_REF_LAT} - lat) / 2) ^ 2
                 + cos(radians(lat)) * cos(radians({GEO_REF_LAT}))
                   * sin(radians({GEO_REF_LON} - lon) / 2) ^ 2
               )), 2) AS dist_km
        FROM pts
        ORDER BY dist_km, c_custkey LIMIT {k}
    """


GEO_BBOX = (-80.0, -45.0, -170.0, -80.0)  # lat_lo, lat_hi, lon_lo, lon_hi
GEO_RING_KM = 14000.0


def customer_geo_bbox(sf_dir: str):
    """(c_custkey, lat, lon): customers whose derived point falls in
    a fixed bounding box — the ES geo_bounding_box filter analog
    (M15 geo family; same custkey-derived coordinates and rounding as
    customer_geo_distance so all geo ops share one derivation). Pure
    per-batch predicate: zero shuffle at any scale."""

    def f(batch: pa.Table) -> pa.Table:
        keys = batch["c_custkey"].to_numpy(zero_copy_only=False)
        lat = ((keys * 37) % 18000) / 100.0 - 90.0
        lon = ((keys * 91) % 36000) / 100.0 - 180.0
        lat_lo, lat_hi, lon_lo, lon_hi = GEO_BBOX
        m = (lat >= lat_lo) & (lat <= lat_hi) \
            & (lon >= lon_lo) & (lon <= lon_hi)
        return pa.table({
            "c_custkey": pa.array(keys[m], pa.int64()),
            "lat": pa.array(lat[m], pa.float64()),
            "lon": pa.array(lon[m], pa.float64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        f, batch_format="pyarrow"
    )


def customer_geo_bbox_sql() -> str:
    lat_lo, lat_hi, lon_lo, lon_hi = GEO_BBOX
    return f"""
        WITH pts AS (
          SELECT c_custkey,
                 ((c_custkey * 37) % 18000) / 100.0 - 90.0 AS lat,
                 ((c_custkey * 91) % 36000) / 100.0 - 180.0 AS lon
          FROM customer
        )
        SELECT c_custkey, lat, lon FROM pts
        WHERE lat BETWEEN {lat_lo} AND {lat_hi}
          AND lon BETWEEN {lon_lo} AND {lon_hi}
        ORDER BY c_custkey
    """


def customer_geo_ring(sf_dir: str, radius_km: float = GEO_RING_KM):
    """(c_custkey, dist_km): customers within ``radius_km`` of the
    reference point — the ES geo_distance filter analog. Same
    vectorized haversine kernel as customer_geo_distance; per-batch
    predicate, zero shuffle."""
    from sotohp_ray.functions.geo import haversine_km

    def f(batch: pa.Table) -> pa.Table:
        keys = batch["c_custkey"].to_numpy(zero_copy_only=False)
        lat = ((keys * 37) % 18000) / 100.0 - 90.0
        lon = ((keys * 91) % 36000) / 100.0 - 180.0
        d = np.round(haversine_km(lat, lon, GEO_REF_LAT, GEO_REF_LON), 2)
        m = d <= radius_km
        return pa.table({
            "c_custkey": pa.array(keys[m], pa.int64()),
            "dist_km": pa.array(d[m], pa.float64()),
        })

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        f, batch_format="pyarrow"
    )


def customer_geo_ring_sql(radius_km: float = GEO_RING_KM) -> str:
    return f"""
        WITH pts AS (
          SELECT c_custkey,
                 ((c_custkey * 37) % 18000) / 100.0 - 90.0 AS lat,
                 ((c_custkey * 91) % 36000) / 100.0 - 180.0 AS lon
          FROM customer
        ),
        d AS (
          SELECT c_custkey,
                 round(2 * 6371.0 * asin(sqrt(
                   sin(radians({GEO_REF_LAT} - lat) / 2) ^ 2
                   + cos(radians(lat)) * cos(radians({GEO_REF_LAT}))
                     * sin(radians({GEO_REF_LON} - lon) / 2) ^ 2
                 )), 2) AS dist_km
          FROM pts
        )
        SELECT c_custkey, dist_km FROM d
        WHERE dist_km <= {radius_km}
        ORDER BY c_custkey
    """


def parts_per_brand(sf_dir: str):
    """(p_brand, n_parts, avg_retail): grouped stats with rounding."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "part", ["p_brand", "p_retailprice"])

    def partial(batch: pa.Table) -> pa.Table:
        # mean decomposes into (sum, count) partials for the map-side
        # combine; the final divide happens after the tiny groupby
        g = batch.group_by("p_brand").aggregate(
            [([], "count_all"), ("p_retailprice", "sum")]
        )
        return agg_select(g, {
            "p_brand": "p_brand",
            "count_all": "n_parts", "p_retailprice_sum": "price_sum",
        })

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("p_brand")
        .aggregate(
            Sum("n_parts", alias_name="n_parts"),
            Sum("price_sum", alias_name="price_sum"),
        )
    )

    def finalize(batch: pa.Table) -> pa.Table:
        avg = pc.round(
            pc.divide(batch["price_sum"], pc.cast(batch["n_parts"],
                                                  pa.float64())), 2
        )
        return pa.table({
            "p_brand": batch["p_brand"],
            "n_parts": batch["n_parts"],
            "avg_retail": avg,
        })

    return out.map_batches(finalize, batch_format="pyarrow")


# -------------------------------------------- TPC-H-style join suites

Q3_SEGMENT = "BUILDING"
Q3_CUTOFF = np.datetime64("1998-06-15")


def q3_shipping_priority(sf_dir: str, k: int = 10):
    """(l_orderkey, revenue_cents, o_orderdate, o_orderpriority): the
    TPC-H Q3 shape — revenue of unshipped-as-of-cutoff lineitems for
    one market segment's orders, top-``k`` by revenue. Exercises the
    three-table join pyramid with the right tool per edge: customer is
    DIM-sized -> the segment's custkeys broadcast once (J1 rule);
    orders x lineitem is BIG x BIG -> one ``co_group`` exchange on
    orderkey with lineitem pre-aggregated per batch BEFORE the exchange
    (partial revenue per orderkey — the A1 combiner).
    Revenue in CENTS (round-at-end, the q1 float-free-hash rule);
    ranking (cents desc, orderkey asc) with per-group top-k partials
    and a tiny driver merge."""
    import ray

    import pandas as pd

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def seg_keys(batch: pa.Table) -> pa.Table:
        m = pc.equal(batch["c_mktsegment"], Q3_SEGMENT)
        return pa.table({
            "c_custkey": batch.filter(m)["c_custkey"].cast(pa.int64())
        })

    ck = np.sort(np.concatenate([
        np.asarray(b["c_custkey"], dtype=np.int64) for b in
        cust.map_batches(seg_keys, batch_format="pyarrow")
        .iter_batches(batch_format="numpy", batch_size=None)
    ] + [np.zeros(0, dtype=np.int64)]))
    ckref = ray.put(ck)

    def orders_side(batch: pa.Table) -> pa.Table:
        keys = ray.get(ckref)
        od = batch["o_orderdate"].to_numpy(zero_copy_only=False)
        oc = batch["o_custkey"].to_numpy(zero_copy_only=False)
        m = (od < Q3_CUTOFF) & np.isin(oc, keys, kind="sort")
        return batch.filter(pa.array(m))

    def li_partial(batch: pa.Table) -> pa.Table:
        sd = batch["l_shipdate"].to_numpy(zero_copy_only=False)
        b = batch.filter(pa.array(sd > Q3_CUTOFF))
        okey = b["l_orderkey"].to_numpy(zero_copy_only=False)
        rev = (
            b["l_extendedprice"].to_numpy(zero_copy_only=False)
            * (1.0 - b["l_discount"].to_numpy(zero_copy_only=False))
        )
        uk, inv = np.unique(okey, return_inverse=True)
        part = np.zeros(uk.size, dtype=np.float64)
        np.add.at(part, inv, rev)
        return pa.table({"o_orderkey": uk, "rev": part})

    def join_topk(o, li) -> pd.DataFrame:
        rows, hit = _join_rows(o["o_orderkey"], li["o_orderkey"])
        rev = np.zeros(o["o_orderkey"].size, dtype=np.float64)
        np.add.at(rev, rows, li["rev"][hit])
        sel = np.flatnonzero(rev != 0.0)
        cents = np.round(rev[sel] * 100.0).astype(np.int64)
        top = np.lexsort((o["o_orderkey"][sel], -cents))[: max(k, 1)]
        sel = sel[top]
        return pd.DataFrame({
            "l_orderkey": o["o_orderkey"][sel],
            "revenue_cents": cents[top],
            "o_orderdate": o["o_orderdate"][sel],
            "o_orderpriority": o["o_orderpriority"][sel],
        })

    parts = co_group(
        join_topk,
        (_read(sf_dir, "orders",
               ["o_orderkey", "o_custkey", "o_orderdate",
                "o_orderpriority"]),
         orders_side,
         pa.schema([("o_orderkey", _I64), ("o_orderdate", _TS),
                    ("o_orderpriority", _STR)])),
        (_read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount",
                "l_shipdate"]),
         li_partial, pa.schema([("o_orderkey", _I64), ("rev", _F64)])),
    ).to_pandas()  # <= k rows per coarse group: tiny driver merge
    parts = parts.sort_values(
        ["revenue_cents", "l_orderkey"], ascending=[False, True]
    ).head(k)
    return pa.table({
        "l_orderkey": pa.array(
            parts["l_orderkey"].to_numpy(np.int64)),
        "revenue_cents": pa.array(
            parts["revenue_cents"].to_numpy(np.int64)),
        "o_orderdate": pa.array(parts["o_orderdate"]),
        "o_orderpriority": pa.array(
            parts["o_orderpriority"].astype(str)),
    })


def q3_shipping_priority_sql(k: int = 10) -> str:
    return f"""
SELECT l_orderkey,
       CAST(round(sum(l_extendedprice * (1.0 - l_discount)) * 100.0)
            AS BIGINT) AS revenue_cents,
       o_orderdate, o_orderpriority
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = '{Q3_SEGMENT}'
  AND o_orderdate < TIMESTAMP '1998-06-15'
  AND l_shipdate > TIMESTAMP '1998-06-15'
GROUP BY l_orderkey, o_orderdate, o_orderpriority
ORDER BY revenue_cents DESC, l_orderkey ASC
LIMIT {k}
"""


Q5_REGION = "ASIA"
Q5_LO = np.datetime64("1996-01-01")
Q5_HI = np.datetime64("1997-01-01")


def q5_local_supplier_volume(sf_dir: str):
    """(n_name, revenue_cents): the TPC-H Q5 shape — revenue where
    customer and supplier share a nation inside one region, for one
    order-date year. The join pyramid splits by size: region, nation
    and supplier are TINY dims (broadcast once, J1); customer is
    dim-sized (custkey -> nationkey broadcast, documented assumption —
    at 10^9 customers this edge becomes a second co-partitioned
    exchange); orders x lineitem is the BIG x BIG edge, one
    ``co_group`` exchange on orderkey. Each join group emits
    nation-keyed PARTIAL sums, so the final exchange is
    nations-sized. Revenue in cents, round-at-end (q1 rule)."""
    import ray

    reg = _read(sf_dir, "region").to_pandas()
    nat = _read(sf_dir, "nation").to_pandas()
    rk = set(
        reg.loc[reg["r_name"] == Q5_REGION, "r_regionkey"].astype(int)
    )
    nat_in = nat[nat["n_regionkey"].isin(rk)]
    n_name_of = dict(
        zip(nat_in["n_nationkey"].astype(int), nat_in["n_name"])
    )
    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    sup_df = sup.to_pandas()
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    cust_df = cust.to_pandas()
    s_sorted = np.sort(sup_df["s_suppkey"].to_numpy(np.int64))
    s_nat = sup_df.sort_values("s_suppkey")["s_nationkey"].to_numpy(
        np.int64
    )
    c_sorted = np.sort(cust_df["c_custkey"].to_numpy(np.int64))
    c_nat = cust_df.sort_values("c_custkey")["c_nationkey"].to_numpy(
        np.int64
    )
    dimref = ray.put((s_sorted, s_nat, c_sorted, c_nat, n_name_of))

    def orders_side(batch: pa.Table) -> pa.Table:
        od = batch["o_orderdate"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array((od >= Q5_LO) & (od < Q5_HI)))

    def li_side(batch: pa.Table) -> pa.Table:
        rev = (
            batch["l_extendedprice"].to_numpy(zero_copy_only=False)
            * (1.0 - batch["l_discount"].to_numpy(zero_copy_only=False))
        )
        return batch.append_column("rev", pa.array(rev, pa.float64()))

    def join_partial(o, li) -> pa.Table:
        s_s, s_n, c_s, c_n, names = ray.get(dimref)
        rows, hit = _join_rows(o["o_orderkey"], li["l_orderkey"])
        cnat = c_n[np.searchsorted(c_s, o["o_custkey"][rows])]
        snat = s_n[np.searchsorted(s_s, li["l_suppkey"][hit])]
        same = cnat == snat
        cnat, rev = cnat[same], li["rev"][hit][same]
        keep = np.isin(
            cnat, np.fromiter(names, dtype=np.int64, count=len(names))
        )
        cnat, rev = cnat[keep], rev[keep]
        uk, inv = np.unique(cnat, return_inverse=True)
        tot = np.zeros(uk.size, dtype=np.float64)
        np.add.at(tot, inv, rev)
        return pa.table({
            "n_name": pa.array([names[int(x)] for x in uk], pa.string()),
            "revenue": tot,
        })

    agg = combine(co_group(
        join_partial,
        (_read(sf_dir, "orders",
               ["o_orderkey", "o_custkey", "o_orderdate"]),
         orders_side,
         pa.schema([("o_orderkey", _I64), ("o_custkey", _I64)])),
        (_read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_extendedprice",
                "l_discount"]),
         li_side,
         pa.schema([("l_orderkey", _I64), ("l_suppkey", _I64),
                    ("rev", _F64)])),
    ), ["n_name"], ["revenue"],
        pa.schema([("n_name", _STR), ("revenue", _F64)]))
    return pa.table({
        "n_name": agg["n_name"],
        "revenue_cents": pa.array(np.round(
            agg["revenue"].to_numpy() * 100.0).astype(np.int64)),
    })


def q5_local_supplier_volume_sql() -> str:
    return f"""
SELECT n_name,
       CAST(round(sum(l_extendedprice * (1.0 - l_discount)) * 100.0)
            AS BIGINT) AS revenue_cents
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
JOIN supplier ON l_suppkey = s_suppkey
             AND c_nationkey = s_nationkey
JOIN nation ON s_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
WHERE r_name = '{Q5_REGION}'
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate < TIMESTAMP '1997-01-01'
GROUP BY n_name
ORDER BY n_name
"""


Q10_LO = np.datetime64("1997-01-01")
Q10_HI = np.datetime64("1998-01-01")


def q10_returned_items(sf_dir: str, k: int = 20):
    """(c_custkey, c_name, revenue_cents, c_acctbal, n_name): the
    TPC-H Q10 shape — lost-revenue ranking of customers who returned
    items (l_returnflag = 'R') against orders in a one-year window,
    top-``k`` by revenue. Same sized-tool discipline as Q3/Q5:
    orders x lineitem is BIG x BIG -> one ``co_group`` exchange on
    orderkey with lineitem pre-aggregated per batch (A1 combiner);
    the per-group hash join emits (custkey, cents) partials, a SECOND
    ``co_group`` on custkey totals customers that span orderkey
    groups and keeps per-group top-k partials (O6 rule); the <= 64*k
    survivors merge on the driver and only the k winners hydrate
    name/balance/nation via an output-sized filtered read of the
    DIM-sized customer and nation tables (J1 rule). Revenue in CENTS,
    rounded once at the end (q1 float-free-hash rule); total order
    (cents desc, custkey asc) so the limit boundary is deterministic."""
    import ray  # noqa: F401  (parallel read path)

    import pandas as pd
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    def orders_side(batch: pa.Table) -> pa.Table:
        od = batch["o_orderdate"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array((od >= Q10_LO) & (od < Q10_HI)))

    def li_partial(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch["l_returnflag"], "R"))
        okey = b["l_orderkey"].to_numpy(zero_copy_only=False)
        rev = (
            b["l_extendedprice"].to_numpy(zero_copy_only=False)
            * (1.0 - b["l_discount"].to_numpy(zero_copy_only=False))
        )
        uk, inv = np.unique(okey, return_inverse=True)
        part = np.zeros(uk.size, dtype=np.float64)
        np.add.at(part, inv, rev)
        return pa.table({"o_orderkey": uk, "cents": part})

    def join_custkey(o, li) -> pd.DataFrame:
        rows, hit = _join_rows(o["o_orderkey"], li["o_orderkey"])
        uc, inv = np.unique(o["o_custkey"][rows], return_inverse=True)
        s = np.zeros(uc.size, dtype=np.float64)
        np.add.at(s, inv, li["cents"][hit])
        return pd.DataFrame({"c_custkey": uc, "cents": s})

    def topk_partial(g) -> pd.DataFrame:
        a = pd.Series(g["cents"]).groupby(g["c_custkey"], sort=True).sum()
        cents = np.round(a.to_numpy() * 100.0).astype(np.int64)
        keys = a.index.to_numpy(np.int64)
        top = np.lexsort((keys, -cents))[:k]
        return pd.DataFrame({
            "c_custkey": keys[top],
            "revenue_cents": cents[top],
        })

    joined = co_group(
        join_custkey,
        (_read(sf_dir, "orders",
               ["o_orderkey", "o_custkey", "o_orderdate"]),
         orders_side,
         pa.schema([("o_orderkey", _I64), ("o_custkey", _I64)])),
        (_read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount",
                "l_returnflag"]),
         li_partial, pa.schema([("o_orderkey", _I64), ("cents", _F64)])),
    )
    parts = co_group(topk_partial, (
        joined, None, pa.schema([("c_custkey", _I64), ("cents", _F64)]),
    )).to_pandas()  # <= 64*k rows: tiny driver merge
    win = parts.sort_values(
        ["revenue_cents", "c_custkey"], ascending=[False, True]
    ).head(k)
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey", "c_acctbal"],
        filters=pads.field("c_custkey").isin(
            win["c_custkey"].tolist()
        ),
    ).to_pandas()
    nat = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    out = (
        win.merge(cust, on="c_custkey")
        .merge(nat, left_on="c_nationkey", right_on="n_nationkey")
        .sort_values(["revenue_cents", "c_custkey"],
                     ascending=[False, True])
    )
    return pa.table({
        "c_custkey": pa.array(out["c_custkey"].to_numpy(np.int64)),
        "c_name": pa.array(out["c_name"].astype(str)),
        "revenue_cents": pa.array(
            out["revenue_cents"].to_numpy(np.int64)),
        "c_acctbal": pa.array(out["c_acctbal"].to_numpy(np.float64)),
        "n_name": pa.array(out["n_name"].astype(str)),
    })


PIVOT_TYPES = ("click", "error", "purchase", "signup", "view")


def events_user_pivot(sf_dir: str, types=PIVOT_TYPES):
    """(user_id, n_click, n_error, n_purchase, n_signup, n_view):
    PIVOT — per-user event counts spread into one column per event
    type (long -> wide conditional aggregation, the SQL PIVOT /
    pandas pivot_table shape; the per-user feature vector a churn
    model trains on). Unknown types are ignored (fixed output
    schema). Per-batch (user x type) count combiner, ONE user-keyed
    groupby of width-|types| partial rows — the exchange carries
    combined counts, never raw events."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    cols = [f"n_{t}" for t in types]

    def partial(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        et = batch["event_type"].to_numpy(
            zero_copy_only=False
        ).astype("O")
        uu, inv = np.unique(u, return_inverse=True)
        out = {"user_id": pa.array(uu)}
        for t, c in zip(types, cols):
            m = et == t
            cnt = np.bincount(inv[m], minlength=uu.size)
            out[c] = pa.array(cnt.astype(np.int64))
        return pa.table(out)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(*[Sum(c, alias_name=c) for c in cols])
    )


def events_user_pivot_sql(types=PIVOT_TYPES) -> str:
    sel = ",\n       ".join(
        f"count(*) FILTER (event_type = '{t}')::BIGINT AS n_{t}"
        for t in types
    )
    return f"""
SELECT user_id,
       {sel}
FROM events GROUP BY user_id ORDER BY user_id
"""


RANGE_BAND_US = 3_600_000_000  # 1 hour


def events_range_join(sf_dir: str, band_us: int = RANGE_BAND_US):
    """(event_id, n_prior_in_band): RANGE (banded interval) SELF
    join — for each event, how many of the SAME user's OTHER events
    fall in [ts - band, ts] (burst detection). The one-to-MANY
    sibling of the as-of join (J4): where as-of picks the single
    nearest predecessor, a range join matches every row in the
    window — the shape Ray Data has no native operator for (the
    brief's named custom-operator case). Every event is emitted
    (0 when alone in its window — LEFT-join contract, NULL-free).

    Shape: one ``co_group`` exchange on user_id (the as-of/
    sessionize discipline); inside a group the stream lexsorts once
    by (key, ts) into a 128-bit structured array and EVERY event
    resolves its band with two vectorized searchsorted calls
    (lo: ts - band left, hi: ts right), minus one for itself —
    no broadcast, no per-user loop, group cost = sort + two binary
    searches per row. Partitioning assumption: a user's whole
    history fits one group. Exactly-equal timestamps of DIFFERENT
    events count (matching the SQL BETWEEN semantics)."""
    import pandas as pd

    def _kt(keys: np.ndarray, ts: np.ndarray) -> np.ndarray:
        out = np.empty(keys.size, dtype=[("k", np.int64),
                                         ("t", np.int64)])
        out["k"], out["t"] = keys, ts
        return out

    def band_count(g) -> pd.DataFrame:
        keys, ts, eids = g["user_id"], g["ts"].view(np.int64), g["event_id"]
        o = np.lexsort((ts, keys))
        side = _kt(keys[o], ts[o])
        lo = np.searchsorted(side, _kt(keys, ts - band_us),
                             side="left")
        hi = np.searchsorted(side, _kt(keys, ts), side="right")
        return pd.DataFrame({
            "event_id": eids,
            # hi - lo always includes the event itself (its own ts is
            # inside its own band): subtract it, never goes negative
            "n_prior_in_band": (hi - lo - 1).astype(np.int64),
        })

    return co_group(band_count, (
        _read(sf_dir, "events", ["event_id", "user_id", "ts"]),
        None, _EVENT_SCHEMA,
    ))


def events_range_join_sql(band_us: int = RANGE_BAND_US) -> str:
    return f"""
SELECT e.event_id,
       count(o.event_id)::BIGINT AS n_prior_in_band
FROM events e
LEFT JOIN events o
  ON o.user_id = e.user_id AND o.event_id <> e.event_id
 AND o.ts BETWEEN
       e.ts - INTERVAL {band_us // 1_000_000} SECOND AND e.ts
GROUP BY e.event_id
ORDER BY e.event_id
"""


RFM_QS = (0.2, 0.4, 0.6, 0.8)


def customers_rfm(sf_dir: str, qs=RFM_QS):
    """(c_custkey, n_orders, monetary_cents, r_score, f_score,
    m_score): RFM customer segmentation — recency (last order date),
    frequency (order count), monetary (lifetime spend in cents), each
    scored 1-5 by exact quintile cuts over the customer population
    (score = 1 + #cuts strictly below the value, the
    training_curriculum searchsorted == SQL COUNT rule, so quintile
    ties are deterministic on both engines). Customers with no orders
    are absent (inner-join semantics, matching the oracle).

    Shape: per-batch (custkey -> max date, count, sum) combiner, ONE
    custkey groupby (customer-sized); quintile cuts via the
    doc_length_quantiles discipline — per-batch value histograms per
    metric, one (metric, value)-keyed groupby, driver-side cumsum
    rank arithmetic (ceil(q*N), percentile_disc semantics) — never a
    distributed sort; cuts broadcast once and every batch scores
    itself vectorized."""
    import ray
    from ray.data.aggregate import Max, Sum

    def partial(batch: pa.Table) -> pa.Table:
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        od = batch["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        tp = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        uk, inv = np.unique(ck, return_inverse=True)
        mx = np.full(uk.size, np.iinfo(np.int64).min)
        np.maximum.at(mx, inv, od)
        cnt = np.bincount(inv).astype(np.int64)
        sm = np.zeros(uk.size, dtype=np.float64)
        np.add.at(sm, inv, tp)
        return pa.table({
            "c_custkey": pa.array(uk),
            "last_us": pa.array(mx),
            "n_orders": pa.array(cnt),
            "spend": pa.array(sm, pa.float64()),
        })

    rfm = (
        _read(sf_dir, "orders",
              ["o_custkey", "o_orderdate", "o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("c_custkey")
        .aggregate(
            Max("last_us", alias_name="last_us"),
            Sum("n_orders", alias_name="n_orders"),
            Sum("spend", alias_name="spend"),
        )
    )

    def to_metrics(batch: pa.Table) -> pa.Table:
        cents = np.round(
            batch["spend"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table({
            "c_custkey": batch["c_custkey"].cast(pa.int64()),
            "last_us": batch["last_us"].cast(pa.int64()),
            "n_orders": batch["n_orders"].cast(pa.int64()),
            "monetary_cents": pa.array(cents),
        })

    # consumed twice (histogram pass + score pass): materialize the
    # CUSTOMER-AGGREGATE-sized intermediate once instead of lazily
    # re-running the orders scan + custkey exchange for each consumer
    # (bounded by #customers — the op's own output size, never the
    # raw orders table)
    metrics = rfm.map_batches(
        to_metrics, batch_format="pyarrow"
    ).materialize()

    def hist_partial(batch: pa.Table) -> pa.Table:
        ms, vs, ns = [], [], []
        for mi, col in enumerate(
            ("last_us", "n_orders", "monetary_cents")
        ):
            v = batch[col].to_numpy(zero_copy_only=False)
            uv, cnt = np.unique(v, return_counts=True)
            ms.append(np.full(uv.size, mi, np.int64))
            vs.append(uv.astype(np.int64))
            ns.append(cnt.astype(np.int64))
        return pa.table({
            "metric": pa.array(np.concatenate(ms)),
            "value": pa.array(np.concatenate(vs)),
            "n": pa.array(np.concatenate(ns)),
        })

    # per-block distinct partials fold on the driver — a distributed
    # (metric, value) groupby shipped the SAME rows to the driver
    # afterwards anyway, so its exchange was a pure fixed cost (~2 s
    # of sort/shuffle overhead at any sf)
    hist = combine(
        metrics.map_batches(hist_partial, batch_format="pyarrow"),
        ["metric", "value"], ["n"],
        pa.schema([("metric", _I64), ("value", _I64), ("n", _I64)]),
    ).to_pandas()
    cuts = {}
    for mi in range(3):
        h = hist[hist["metric"] == mi].sort_values("value")
        vals = h["value"].to_numpy(np.int64)
        cum = h["n"].to_numpy(np.int64).cumsum()
        total = int(cum[-1]) if len(cum) else 0
        cs = []
        for q in qs:
            if not total:
                continue
            rank = max(int(np.ceil(np.float64(q) * total)), 1)
            cs.append(int(vals[int(np.searchsorted(cum, rank))]))
        cuts[mi] = np.array(cs, dtype=np.int64)
    cref = ray.put(cuts)

    def score(batch: pa.Table) -> pa.Table:
        c = ray.get(cref)

        def sc(col, mi):
            v = batch[col].to_numpy(zero_copy_only=False)
            return pa.array(
                1 + np.searchsorted(c[mi], v, side="left"), pa.int64()
            )

        return pa.table({
            "c_custkey": batch["c_custkey"],
            "n_orders": batch["n_orders"],
            "monetary_cents": batch["monetary_cents"],
            "r_score": sc("last_us", 0),
            "f_score": sc("n_orders", 1),
            "m_score": sc("monetary_cents", 2),
        })

    return metrics.map_batches(score, batch_format="pyarrow")


def customers_rfm_sql(qs=RFM_QS) -> str:
    qlist = ", ".join(str(q) for q in qs)
    return f"""
WITH rfm AS (
  SELECT o_custkey AS c_custkey,
         max(o_orderdate) AS last_order,
         count(*) AS n_orders,
         CAST(round(sum(o_totalprice) * 100.0) AS BIGINT)
           AS monetary_cents
  FROM orders GROUP BY 1
),
cuts AS (
  SELECT quantile_disc(last_order, [{qlist}]) AS rc,
         quantile_disc(n_orders, [{qlist}]) AS fc,
         quantile_disc(monetary_cents, [{qlist}]) AS mc
  FROM rfm
)
SELECT r.c_custkey, r.n_orders, r.monetary_cents,
       CAST(1 + len(list_filter(c.rc, x -> x < r.last_order))
            AS BIGINT) AS r_score,
       CAST(1 + len(list_filter(c.fc, x -> x < r.n_orders))
            AS BIGINT) AS f_score,
       CAST(1 + len(list_filter(c.mc, x -> x < r.monetary_cents))
            AS BIGINT) AS m_score
FROM rfm r CROSS JOIN cuts c
ORDER BY c_custkey
"""


BASKET_MIN_SUPPORT = 2
BASKET_K = 25


def basket_part_pairs(
    sf_dir: str, min_support: int = BASKET_MIN_SUPPORT,
    k: int = BASKET_K,
):
    """(part_a, part_b, n_orders): the top-``k`` part pairs by basket
    co-occurrence — A-Priori 2-itemset counting (Agrawal & Srikant
    1994, market-basket mining), each pair counted once per order.
    Total order (count desc, part_a asc, part_b asc) so heavy tie
    plateaus stay deterministic.

    Shape: one ``co_group`` exchange on orderkey of per-batch-DISTINCT
    (order, part) rows; per-group VECTORIZED triangular pair
    expansion (segment-offset arithmetic — no per-order Python loop)
    with within-group pair pre-counts packed into ONE int64 pair
    key; a coarse pair-hash exchange sums supports (a multi-key Ray
    groupby here measured 50 s for 119k pair rows at sf0.01 — packed
    single-key coarse folds are the rule); per-group support filter
    + top-k partials (O6) and a tiny driver merge. Pair volume is
    sum_orders L(L-1)/2 ~ a small multiple of lineitem — the
    classic a-priori bound, not all-parts quadratic."""
    import pandas as pd

    def distinct(batch: pa.Table) -> pa.Table:
        return batch.group_by(["l_orderkey", "l_partkey"]).aggregate([])

    def pairs_of(g) -> pd.DataFrame:
        ok, pt = g["l_orderkey"], g["l_partkey"]
        order = np.lexsort((pt, ok))
        ok, pt = ok[order], pt[order]
        # cross-batch dedup of (order, part) (retention discipline)
        uniq = np.ones(ok.size, dtype=bool)
        uniq[1:] = (ok[1:] != ok[:-1]) | (pt[1:] != pt[:-1])
        ok, pt = ok[uniq], pt[uniq]
        # vectorized triangular expansion: row r of an order segment
        # pairs with the (len - 1 - local_r) rows after it
        new = np.ones(ok.size, dtype=bool)
        new[1:] = ok[1:] != ok[:-1]
        seg = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, ok.size))
        local = np.arange(ok.size) - starts[seg]
        reps = lens[seg] - 1 - local
        total = int(reps.sum())
        first = np.repeat(np.arange(ok.size), reps)
        base = np.concatenate(([0], np.cumsum(reps)[:-1]))
        second = first + (np.arange(total) - np.repeat(base, reps)) + 1
        pa_, pb_ = pt[first], pt[second]
        lo = np.minimum(pa_, pb_)
        hi = np.maximum(pa_, pb_)
        # pack the unordered pair into ONE int64 key: a multi-key Ray
        # groupby over the pair table measured 50 s for 119k rows
        # (sf0.01) where this packed single-key coarse fold takes
        # milliseconds — pair keys stay packed until the final unpack
        pkey = (lo << 32) | hi
        uk, cnt = np.unique(pkey, return_counts=True)
        return pd.DataFrame({
            "phash": uk ^ (uk >> 7),  # pair-hash exchange key
            "pkey": uk,
            "n_partial": cnt.astype("int64"),
        })

    def fold_topk(g) -> pd.DataFrame:
        uk, inv = np.unique(g["pkey"], return_inverse=True)
        tot = np.zeros(uk.size, dtype=np.int64)
        np.add.at(tot, inv, g["n_partial"])
        keep = tot >= min_support
        uk, tot = uk[keep], tot[keep]
        take = np.lexsort((uk, -tot))[: min(k, uk.size)]
        return pd.DataFrame({
            "part_a": (uk[take] >> 32).astype("int64"),
            "part_b": (uk[take] & 0xFFFFFFFF).astype("int64"),
            "n_orders": tot[take],
        })

    pairs = co_group(pairs_of, (
        _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"]),
        distinct, pa.schema([("l_orderkey", _I64), ("l_partkey", _I64)]),
    ))
    parts = co_group(fold_topk, (
        pairs, None,
        pa.schema([("phash", _I64), ("pkey", _I64), ("n_partial", _I64)]),
    )).to_pandas()  # <= k per pair-hash group: tiny driver merge
    parts = _with_cols(parts, {
        "part_a": "int64", "part_b": "int64", "n_orders": "int64",
    })
    win = parts.sort_values(
        ["n_orders", "part_a", "part_b"], ascending=[False, True, True]
    ).head(k)
    return pa.table({
        "part_a": pa.array(win["part_a"].to_numpy(np.int64)),
        "part_b": pa.array(win["part_b"].to_numpy(np.int64)),
        "n_orders": pa.array(win["n_orders"].to_numpy(np.int64)),
    })


def basket_part_pairs_sql(
    min_support: int = BASKET_MIN_SUPPORT, k: int = BASKET_K
) -> str:
    return f"""
WITH parts AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
pairs AS (
  SELECT a.l_partkey AS part_a, b.l_partkey AS part_b
  FROM parts a JOIN parts b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
)
SELECT part_a, part_b, count(*)::BIGINT AS n_orders
FROM pairs GROUP BY 1, 2
HAVING count(*) >= {min_support}
ORDER BY n_orders DESC, part_a ASC, part_b ASC
LIMIT {k}
"""


ZSCORE_CUTOFF = 3.0


def events_value_outliers(sf_dir: str, cutoff: float = ZSCORE_CUTOFF):
    """(event_id, event_type, zscore): events whose value sits more
    than ``cutoff`` population standard deviations from their TYPE's
    mean — the classic streaming anomaly-detection shape. Two bounded
    passes: (1) per-type (n, sum, sumsq) moment partials (the A2
    decomposition — mean/std are NOT directly combinable, moments
    are) merged by a types-sized groupby; (2) the tiny moment table
    broadcasts and each batch flags its outliers vectorized. Round-6
    z-scores; population (ddof=0) std, matching the SQL oracle's
    stddev_pop."""
    import ray
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def moments(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        t = pa.table({
            "event_type": batch["event_type"],
            "n": pa.array(np.ones(len(batch), np.int64)),
            "s": batch["value"].cast(pa.float64()),
            "s2": pa.array(v * v, pa.float64()),
        })
        g = t.group_by("event_type").aggregate(
            [("n", "sum"), ("s", "sum"), ("s2", "sum")]
        )
        return agg_select(g, {
            "event_type": "event_type", "n_sum": "n",
            "s_sum": "s", "s2_sum": "s2",
        })

    m = (
        ds.map_batches(moments, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("s", alias_name="s"),
            Sum("s2", alias_name="s2"),
        )
        .to_pandas()  # types-sized
    )
    types = m["event_type"].to_numpy().astype("O")
    n = m["n"].to_numpy(np.float64)
    mean = m["s"].to_numpy() / n
    var = np.maximum(m["s2"].to_numpy() / n - mean * mean, 0.0)
    std = np.sqrt(var)
    stats = {
        t: (mu, sd) for t, mu, sd in zip(types, mean, std)
    }
    sref = ray.put(stats)

    def flag(batch: pa.Table) -> pa.Table:
        st = ray.get(sref)
        et = batch["event_type"].to_numpy(zero_copy_only=False).astype(
            "O"
        )
        v = batch["value"].to_numpy(zero_copy_only=False)
        mu = np.array([st[t][0] for t in et])
        sd = np.array([st[t][1] for t in et])
        ok = sd > 0
        z = np.zeros(v.size, dtype=np.float64)
        z[ok] = (v[ok] - mu[ok]) / sd[ok]
        keep = np.abs(z) > cutoff
        return pa.table({
            "event_id": batch["event_id"].filter(
                pa.array(keep)).cast(pa.int64()),
            "event_type": pa.array(et[keep].tolist(), pa.string()),
            "zscore": pa.array(np.round(z[keep], 6), pa.float64()),
        })

    return ds.map_batches(flag, batch_format="pyarrow")


def events_value_outliers_sql(cutoff: float = ZSCORE_CUTOFF) -> str:
    return f"""
WITH st AS (
  SELECT event_type, avg(value) AS mu, stddev_pop(value) AS sd
  FROM events GROUP BY event_type
)
SELECT e.event_id, e.event_type,
       round((e.value - st.mu) / st.sd, 6) AS zscore
FROM events e JOIN st USING (event_type)
WHERE st.sd > 0 AND abs((e.value - st.mu) / st.sd) > {cutoff}
ORDER BY e.event_id
"""


PROPS_BUCKET = 10


def events_props_stats(sf_dir: str, bucket: int = PROPS_BUCKET):
    """(k_bucket, n_events, sum_value): aggregate over a field parsed
    OUT OF THE SEMI-STRUCTURED ``props`` JSON string column — the ES
    runtime-field / Spark get_json_object shape (the reference's
    metadata JSON parse, M1 family, applied to a query). The integer
    ``k`` is pulled with ONE vectorized RE2 ``pc.extract_regex`` per
    batch — both engines embed RE2 and the oracle uses DuckDB's
    ``regexp_extract`` with the SAME pattern, so parse behavior
    (including malformed rows -> dropped) is identical by
    construction rather than by JSON-library agreement. A1
    partial+final aggregation; rows whose props does not match the
    pattern are skipped (error-carrying stream discipline, S2)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["props", "value"])
    pat = r'"k": (?P<k>-?\d+)'  # Arrow extract_regex needs named groups

    def partial(batch: pa.Table) -> pa.Table:
        ext = pc.extract_regex(batch["props"], pat)
        ok = pc.is_valid(ext)
        ks = pc.cast(
            pc.struct_field(pc.filter(ext, ok), "k"), pa.int64()
        ).to_numpy(zero_copy_only=False)
        vals = batch.filter(ok)["value"].to_numpy(zero_copy_only=False)
        kb = (ks // bucket) * bucket
        ub, inv = np.unique(kb, return_inverse=True)
        cnt = np.bincount(inv).astype(np.int64)
        sm = np.zeros(ub.size, dtype=np.float64)
        np.add.at(sm, inv, vals)
        return pa.table({
            "k_bucket": pa.array(ub, pa.int64()),
            "n_events": pa.array(cnt),
            "value_sum": pa.array(sm, pa.float64()),
        })

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("k_bucket")
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("value_sum", alias_name="sum_value"),
        )
    )

    def round_col(batch: pa.Table) -> pa.Table:
        i = batch.schema.get_field_index("sum_value")
        return batch.set_column(
            i, "sum_value", pc.round(batch["sum_value"], 2)
        )

    return out.map_batches(round_col, batch_format="pyarrow")


def events_props_stats_sql(bucket: int = PROPS_BUCKET) -> str:
    return f"""
WITH e AS (
  SELECT CAST(regexp_extract(props, '"k": (-?\\d+)', 1) AS BIGINT)
           AS k,
         value
  FROM events
  WHERE regexp_extract(props, '"k": (-?\\d+)', 1) <> ''
)
SELECT (k // {bucket}) * {bucket} AS k_bucket,
       count(*)::BIGINT AS n_events,
       round(sum(value), 2) AS sum_value
FROM e GROUP BY 1 ORDER BY 1
"""


def events_retention(sf_dir: str):
    """(cohort, offset_h, n_users): hour-cohort retention — users
    grouped by the hour of their FIRST event (the cohort), counted
    once per later hour-offset they were active in (the classic
    product-analytics retention triangle; ES/Kibana cohort chart).
    Shape: one ``co_group`` exchange on user_id (a user's whole
    history lands in one group), per-group
    vectorized first-event + distinct-(cohort, offset) fold, then
    ``combine`` sums the (cohort x offset)-sized partial counts. No
    broadcast, no global sort; the wide exchange carries (user, hour)
    rows pre-deduplicated per batch."""
    import pandas as pd

    def user_hours(batch: pa.Table) -> pa.Table:
        hr = pc.floor_temporal(batch["ts"], unit="hour")
        t = pa.table({"user_id": batch["user_id"], "hour": hr})
        # per-batch (user, hour) dedup shrinks the exchange
        return t.group_by(["user_id", "hour"]).aggregate([])

    def fold(g) -> pd.DataFrame:
        u, h = g["user_id"], g["hour"]
        order = np.lexsort((h, u))
        u, h = u[order], h[order]
        # the per-batch dedup only collapses within a batch — the
        # same (user, hour) can arrive from two batches, so dedup
        # again post-sort (one boolean diff)
        uniq = np.ones(u.size, dtype=bool)
        uniq[1:] = (u[1:] != u[:-1]) | (h[1:] != h[:-1])
        u, h = u[uniq], h[uniq]
        first = np.ones(u.size, dtype=bool)
        first[1:] = u[1:] != u[:-1]
        starts = np.flatnonzero(first)
        seg = np.cumsum(first) - 1
        t0 = h[starts][seg]  # each user's first-event hour
        # rows are now distinct (user, hour), so size() on
        # (cohort, offset) counts each active user exactly once
        off = ((h - t0) // np.timedelta64(1, "h")).astype(np.int64)
        df = pd.DataFrame({
            "cohort": t0.astype("datetime64[us]"), "offset_h": off,
        })
        return (
            df.groupby(["cohort", "offset_h"]).size()
            .rename("n_users").reset_index()
        )

    return combine(co_group(fold, (
        _read(sf_dir, "events", ["user_id", "ts"]),
        user_hours, pa.schema([("user_id", _I64), ("hour", _TS)]),
    )), ["cohort", "offset_h"], ["n_users"],
        pa.schema([("cohort", _TS), ("offset_h", _I64), ("n_users", _I64)]))


def events_retention_sql() -> str:
    return """
WITH f AS (
  SELECT user_id, date_trunc('hour', min(ts)) AS t0
  FROM events GROUP BY user_id
),
e AS (
  SELECT DISTINCT e.user_id, f.t0 AS cohort,
         date_diff('hour', f.t0, date_trunc('hour', e.ts)) AS offset_h
  FROM events e JOIN f USING (user_id)
)
SELECT cohort, offset_h, count(*)::BIGINT AS n_users
FROM e GROUP BY cohort, offset_h
ORDER BY cohort, offset_h
"""


Q4_LO = np.datetime64("1997-01-01")
Q4_HI = np.datetime64("1997-07-01")


def q4_order_priority(sf_dir: str):
    """(o_orderpriority, n_orders): the TPC-H Q4 shape — orders in a
    window counted per priority, keeping only orders where AT LEAST
    ONE lineitem shipped after the order date (EXISTS semi-join; the
    reference tables carry no commit/receipt dates, so late =
    l_shipdate > o_orderdate — documented analog). The positive twin
    of customers_without_big_orders' anti-join: orders ship (okey,
    priority, orderdate), lineitem pre-aggregates to per-batch MAX
    shipdate per okey (EXISTS only needs the max — the A1 combiner
    collapses the fact side before the exchange), one ``co_group``
    exchange on orderkey joins them, per-group priority counts are
    the partials of ``combine``."""
    import pandas as pd

    def orders_side(batch: pa.Table) -> pa.Table:
        od = batch["o_orderdate"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array((od >= Q4_LO) & (od < Q4_HI)))

    def li_maxship(batch: pa.Table) -> pa.Table:
        okey = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        sd = batch["l_shipdate"].to_numpy(zero_copy_only=False)
        uk, inv = np.unique(okey, return_inverse=True)
        mx = np.full(uk.size, np.datetime64("1970-01-01", "us"))
        np.maximum.at(mx, inv, sd.astype("datetime64[us]"))
        return pa.table({"o_orderkey": uk, "maxship": mx})

    def count_exists(o, li) -> pd.DataFrame:
        rows, hit = _join_rows(o["o_orderkey"], li["o_orderkey"])
        late = np.zeros(o["o_orderkey"].size, dtype=bool)
        late[rows[li["maxship"][hit] > o["o_orderdate"][rows]]] = True
        return (
            pd.DataFrame({"o_orderpriority": o["o_orderpriority"][late]})
            .groupby("o_orderpriority").size().rename("n_orders")
            .reset_index()
        )

    return combine(co_group(
        count_exists,
        (_read(sf_dir, "orders",
               ["o_orderkey", "o_orderdate", "o_orderpriority"]),
         orders_side,
         pa.schema([("o_orderkey", _I64), ("o_orderdate", _TS),
                    ("o_orderpriority", _STR)])),
        (_read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"]),
         li_maxship, pa.schema([("o_orderkey", _I64), ("maxship", _TS)])),
    ), ["o_orderpriority"], ["n_orders"],
        pa.schema([("o_orderpriority", _STR), ("n_orders", _I64)]))


def q4_order_priority_sql() -> str:
    return """
SELECT o_orderpriority, count(*)::BIGINT AS n_orders
FROM orders o
WHERE o_orderdate >= TIMESTAMP '1997-01-01'
  AND o_orderdate < TIMESTAMP '1997-07-01'
  AND EXISTS (
    SELECT 1 FROM lineitem l
    WHERE l.l_orderkey = o.o_orderkey
      AND l.l_shipdate > o.o_orderdate)
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


def q10_returned_items_sql(k: int = 20) -> str:
    return f"""
SELECT c_custkey, c_name,
       CAST(round(sum(l_extendedprice * (1.0 - l_discount)) * 100.0)
            AS BIGINT) AS revenue_cents,
       c_acctbal, n_name
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
JOIN nation ON c_nationkey = n_nationkey
WHERE o_orderdate >= TIMESTAMP '1997-01-01'
  AND o_orderdate < TIMESTAMP '1998-01-01'
  AND l_returnflag = 'R'
GROUP BY c_custkey, c_name, c_acctbal, n_name
ORDER BY revenue_cents DESC, c_custkey ASC
LIMIT {k}
"""

# --- TPC-H scan-aggregate analogs (Q6 / Q14 / Q19) -------------------
# Reference analog: the reference's aggregate passes are per-record
# LMDB fold loops (modules/service/.../MediaServiceLive.scala) — here
# each is one pruned-column streaming scan with per-batch vectorized
# partials and an output-sized (single-row) driver fold.

Q6_LO = np.datetime64("1996-01-01")
Q6_HI = np.datetime64("1997-01-01")
Q6_DISC_LO = 0.05
Q6_DISC_HI = 0.07
Q6_QTY_MAX = 24.0


def q6_forecast_revenue(sf_dir: str):
    """(revenue_cents): the TPC-H Q6 shape — revenue delta from
    eliminating a discount band in a shipdate year, quantity-capped.
    The canonical scan-filter-aggregate: FOUR pruned columns leave
    storage, every predicate and the product are vectorized numpy over
    each batch, each block contributes ONE partial row, and the driver
    fold is a single scalar sum. Discount-band literals are compared
    with the exact same double constants the SQL oracle uses (no
    epsilon), so band membership is bit-identical on both sides;
    cents rounding happens once, at the end (the q1 rule)."""
    li = _read(sf_dir, "lineitem",
               ["l_shipdate", "l_discount", "l_quantity",
                "l_extendedprice"])

    def partial(batch: pa.Table) -> pa.Table:
        sd = batch["l_shipdate"].to_numpy(zero_copy_only=False)
        d = batch["l_discount"].to_numpy(zero_copy_only=False)
        q = batch["l_quantity"].to_numpy(zero_copy_only=False)
        m = (
            (sd >= Q6_LO) & (sd < Q6_HI)
            & (d >= Q6_DISC_LO) & (d <= Q6_DISC_HI)
            & (q < Q6_QTY_MAX)
        )
        ep = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        return pa.table({
            "rev": pa.array([float(np.sum(ep[m] * d[m]))], pa.float64())
        })

    tot = li.map_batches(partial, batch_format="pyarrow").sum("rev")
    return pa.table({
        "revenue_cents": pa.array(
            [int(round(float(tot) * 100.0))], pa.int64()
        )
    })


def q6_forecast_revenue_sql() -> str:
    return f"""
SELECT CAST(round(sum(l_extendedprice * l_discount) * 100.0) AS BIGINT)
       AS revenue_cents
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate < TIMESTAMP '1997-01-01'
  AND l_discount >= {Q6_DISC_LO} AND l_discount <= {Q6_DISC_HI}
  AND l_quantity < {Q6_QTY_MAX}
"""


Q14_LO = np.datetime64("1996-09-01")
Q14_HI = np.datetime64("1996-10-01")


def q14_promo_revenue(sf_dir: str):
    """(promo_revenue_pct): the TPC-H Q14 shape — percentage of a
    month's revenue carried by promotional parts. part is DIM-sized
    (J1 rule): the PROMO partkey set broadcasts ONCE via ``ray.put``
    and each lineitem batch answers membership with one sorted
    ``np.isin``; the scan produces (promo, total) two-scalar partials
    per block and the ratio is computed once on the driver. Rounded to
    6 dp — the ratio's summation-order error is ~1e-12 relative, five
    orders below the rounding grid (events_value_outliers precedent)."""
    import ray

    part = _read(sf_dir, "part", ["p_partkey", "p_type"])
    promo = np.sort(np.concatenate([
        np.asarray(b["p_partkey"], dtype=np.int64)[
            np.asarray(b["p_type"]) == "PROMO"
        ]
        for b in part.iter_batches(batch_format="numpy", batch_size=None)
    ] + [np.zeros(0, dtype=np.int64)]))
    pref = ray.put(promo)

    def partial(batch: pa.Table) -> pa.Table:
        sd = batch["l_shipdate"].to_numpy(zero_copy_only=False)
        m = (sd >= Q14_LO) & (sd < Q14_HI)
        b = batch.filter(pa.array(m))
        rev = (
            b["l_extendedprice"].to_numpy(zero_copy_only=False)
            * (1.0 - b["l_discount"].to_numpy(zero_copy_only=False))
        )
        pk = b["l_partkey"].to_numpy(zero_copy_only=False)
        isp = np.isin(pk, ray.get(pref), kind="sort")
        return pa.table({
            "promo": pa.array([float(np.sum(rev[isp]))], pa.float64()),
            "total": pa.array([float(np.sum(rev))], pa.float64()),
        })

    li = _read(sf_dir, "lineitem",
               ["l_shipdate", "l_partkey", "l_extendedprice",
                "l_discount"])
    import pandas as pd

    parts = li.map_batches(partial, batch_format="pyarrow").to_pandas()
    promo_rev = float(parts["promo"].sum())
    total_rev = float(parts["total"].sum())
    pct = 100.0 * promo_rev / total_rev if total_rev else 0.0
    return pa.table({
        "promo_revenue_pct": pa.array([round(pct, 6)], pa.float64())
    })


def q14_promo_revenue_sql() -> str:
    return """
SELECT round(
    100.0 * sum(CASE WHEN p_type = 'PROMO'
                THEN l_extendedprice * (1.0 - l_discount)
                ELSE 0.0 END)
    / sum(l_extendedprice * (1.0 - l_discount)), 6)
    AS promo_revenue_pct
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE l_shipdate >= TIMESTAMP '1996-09-01'
  AND l_shipdate < TIMESTAMP '1996-10-01'
"""


# (brand, size_lo, size_hi, qty_lo, qty_hi) — Q19's OR-of-ANDs bands,
# adapted to this part table's (p_brand, p_size) domain.
Q19_BANDS = (
    ("Brand#12", 1, 5, 1.0, 11.0),
    ("Brand#20", 1, 10, 10.0, 20.0),
    ("Brand#3", 1, 15, 20.0, 30.0),
)


def q19_discounted_revenue(sf_dir: str, bands=Q19_BANDS):
    """(revenue_cents): the TPC-H Q19 shape — revenue from an
    OR-of-ANDs predicate spanning BOTH join sides (part attributes x
    lineitem quantity). part is DIM-sized: partkey->(brand_id, size)
    broadcasts once as two sorted-aligned arrays; each lineitem batch
    resolves its part attributes with ONE searchsorted and evaluates
    all bands as stacked boolean masks — the disjunction never
    materializes a join, rows matching no band are dropped inside the
    batch. Single-scalar partials per block, cents at the end."""
    import ray

    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"])
    pk, pb, psz = [], [], []
    brand_ids = {b[0]: i for i, b in enumerate(bands)}
    for b in part.iter_batches(batch_format="pyarrow", batch_size=None):
        pk.append(np.asarray(b["p_partkey"], dtype=np.int64))
        pb.append(np.array(
            [brand_ids.get(x, -1) for x in b["p_brand"].to_pylist()],
            dtype=np.int64,
        ))
        psz.append(np.asarray(b["p_size"], dtype=np.int64))
    pk = np.concatenate(pk + [np.zeros(0, np.int64)])
    order = np.argsort(pk)
    side = ray.put((
        pk[order],
        np.concatenate(pb + [np.zeros(0, np.int64)])[order],
        np.concatenate(psz + [np.zeros(0, np.int64)])[order],
    ))

    def partial(batch: pa.Table) -> pa.Table:
        keys, brands, sizes = ray.get(side)
        lk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        q = batch["l_quantity"].to_numpy(zero_copy_only=False)
        pos, hit = sorted_lookup(keys, lk)
        bid = np.full(lk.size, -1, np.int64)
        sz = np.full(lk.size, -1, np.int64)
        bid[hit], sz[hit] = brands[pos[hit]], sizes[pos[hit]]
        m = np.zeros(lk.size, dtype=bool)
        for i, (_, s_lo, s_hi, q_lo, q_hi) in enumerate(bands):
            m |= (
                (bid == i) & (sz >= s_lo) & (sz <= s_hi)
                & (q >= q_lo) & (q <= q_hi)
            )
        rev = (
            batch["l_extendedprice"].to_numpy(zero_copy_only=False)[m]
            * (1.0 - batch["l_discount"].to_numpy(zero_copy_only=False)[m])
        )
        return pa.table({
            "rev": pa.array([float(np.sum(rev))], pa.float64())
        })

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice",
                "l_discount"])
    tot = li.map_batches(partial, batch_format="pyarrow").sum("rev")
    return pa.table({
        "revenue_cents": pa.array(
            [int(round(float(tot) * 100.0))], pa.int64()
        )
    })


def q19_discounted_revenue_sql(bands=Q19_BANDS) -> str:
    ors = " OR ".join(
        f"(p_brand = '{b}' AND p_size BETWEEN {s_lo} AND {s_hi}"
        f" AND l_quantity BETWEEN {q_lo} AND {q_hi})"
        for b, s_lo, s_hi, q_lo, q_hi in bands
    )
    return f"""
SELECT CAST(round(sum(l_extendedprice * (1.0 - l_discount)) * 100.0)
            AS BIGINT) AS revenue_cents
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE {ors}
"""


def q13_customer_distribution(sf_dir: str):
    """(c_count, custdist): the TPC-H Q13 shape — the distribution of
    per-customer order counts INCLUDING zero-order customers, i.e. a
    LEFT OUTER join aggregated twice. customer x orders is BIG x BIG:
    one ``co_group`` exchange on custkey, orders pre-collapsed per
    batch to (custkey, n) count partials (the A1 combiner). Each group
    aligns order-count partials to its customer keys with one
    ``sorted_lookup`` (customers missing from the probe side keep
    count 0 — the OUTER part; orders of unknown customers drop), then
    emits its LOCAL
    histogram (c_count, ncust): the second aggregate's exchange is
    histogram-sized (distinct count values x 64 groups)."""
    import pandas as pd

    def order_counts(batch: pa.Table) -> pa.Table:
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        uk, cnt = np.unique(ck, return_counts=True)
        return pa.table({"key": uk, "cnt": cnt.astype(np.int64)})

    def hist(c, o) -> pd.DataFrame:
        ck = np.unique(c["key"])
        counts = np.zeros(ck.size, dtype=np.int64)
        pos, hit = sorted_lookup(ck, o["key"])
        np.add.at(counts, pos[hit], o["cnt"][hit])
        c_count, ncust = np.unique(counts, return_counts=True)
        return pd.DataFrame({"c_count": c_count, "custdist": ncust})

    out = combine(co_group(
        hist,
        (_read(sf_dir, "customer", ["c_custkey"]),
         _pick(key="c_custkey"), pa.schema([("key", _I64)])),
        (_read(sf_dir, "orders", ["o_custkey"]),
         order_counts, pa.schema([("key", _I64), ("cnt", _I64)])),
    ), ["c_count"], ["custdist"],
        pa.schema([("c_count", _I64), ("custdist", _I64)]))
    return out.sort_by([("custdist", "descending"),
                        ("c_count", "descending")])


def q13_customer_distribution_sql() -> str:
    return """
SELECT c_count, count(*) AS custdist
FROM (
  SELECT c_custkey, count(o_orderkey) AS c_count
  FROM customer LEFT JOIN orders ON c_custkey = o_custkey
  GROUP BY c_custkey
)
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC
"""


Q18_QTY_MIN = 300.0


def q18_large_volume_customers(
    sf_dir: str, qty_min: float = Q18_QTY_MIN, k: int = 20
):
    """(c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice,
    sum_qty): the TPC-H Q18 shape — orders whose total lineitem
    quantity crosses a threshold, hydrated with their customer, top-k
    by order value. Three passes, each the sized tool: (1) lineitem
    collapses per batch to (orderkey, qty) partials before one
    ``co_group`` exchange on orderkey whose groups emit only
    threshold-crossing orders
    (HAVING applied where the group lives — the exchange output is
    qualifying-set-sized, 46 rows at sf0.01); (2) the qualifying set
    broadcasts once and the orders scan keeps matches via sorted
    searchsorted (winners-only — no orders shuffle at all); (3) winner
    custkeys (<= k after the driver's output-sized top-k merge) fetch
    their names via one predicate-pushdown dim read. Quantities are
    integral doubles; sums are exact in float64 and rounded to 2 dp on
    both sides anyway."""
    import ray

    import pandas as pd

    def li_partial(batch: pa.Table) -> pa.Table:
        okey = batch["l_orderkey"].to_numpy(zero_copy_only=False)
        q = batch["l_quantity"].to_numpy(zero_copy_only=False)
        uk, inv = np.unique(okey, return_inverse=True)
        part = np.zeros(uk.size, dtype=np.float64)
        np.add.at(part, inv, q)
        return pa.table({"key": uk, "qty": part})

    def having(g) -> pd.DataFrame:
        uk, inv = np.unique(g["key"], return_inverse=True)
        tot = np.zeros(uk.size, dtype=np.float64)
        np.add.at(tot, inv, g["qty"])
        keep = tot > qty_min
        return pd.DataFrame({"o_orderkey": uk[keep], "sum_qty": tot[keep]})

    qual = co_group(having, (
        _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]),
        li_partial, pa.schema([("key", _I64), ("qty", _F64)]),
    )).to_pandas()  # qualifying-set-sized
    qual = _with_cols(qual, {"o_orderkey": "int64", "sum_qty": "float64"})
    qk = np.sort(qual["o_orderkey"].to_numpy(np.int64))
    qv = qual.set_index("o_orderkey")["sum_qty"].reindex(qk).to_numpy()
    side = ray.put((qk, qv))

    def pick_orders(batch: pa.Table) -> pa.Table:
        keys, qty = ray.get(side)
        ok = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        pos, hit = sorted_lookup(keys, ok)
        b = batch.filter(pa.array(hit))
        return b.append_column("sum_qty", pa.array(qty[pos[hit]], pa.float64()))

    won = (
        _read(sf_dir, "orders",
              ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])
        .map_batches(pick_orders, batch_format="pyarrow")
        .to_pandas()  # qualifying-set-sized
        .sort_values(["o_totalprice", "o_orderkey"],
                     ascending=[False, True])
        .head(k)
    )
    import pyarrow.parquet as _pq

    names = _pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"],
        filters=[("c_custkey", "in",
                  won["o_custkey"].astype("int64").tolist())],
    ).to_pandas()
    won = won.merge(
        names, left_on="o_custkey", right_on="c_custkey", how="left"
    )
    return pa.table({
        "c_name": pa.array(won["c_name"].astype(str)),
        "c_custkey": pa.array(won["o_custkey"].to_numpy(np.int64)),
        "o_orderkey": pa.array(won["o_orderkey"].to_numpy(np.int64)),
        "o_orderdate": pa.array(won["o_orderdate"]),
        "o_totalprice": pa.array(won["o_totalprice"].to_numpy(np.float64)),
        "sum_qty": pa.array(
            np.round(won["sum_qty"].to_numpy(np.float64), 2)
        ),
    })


def q18_large_volume_customers_sql(
    qty_min: float = Q18_QTY_MIN, k: int = 20
) -> str:
    return f"""
SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice,
       round(sq.s, 2) AS sum_qty
FROM orders
JOIN customer ON c_custkey = o_custkey
JOIN (
  SELECT l_orderkey, sum(l_quantity) AS s FROM lineitem
  GROUP BY l_orderkey HAVING sum(l_quantity) > {qty_min}
) sq ON sq.l_orderkey = o_orderkey
ORDER BY o_totalprice DESC, o_orderkey ASC
LIMIT {k}
"""


Q22_SINCE = np.datetime64("1999-01-01")


def q22_sales_opportunity(sf_dir: str):
    """(cntrycode, numcust, totacctbal_cents): the TPC-H Q22 shape —
    above-average-balance customers with NO recent order, grouped by
    country (nationkey stands in for the phone prefix). Composes three
    sized tools: (1) the scalar subquery is a one-pass two-scalar
    partial fold whose cutoff broadcasts by closure; (2) the NOT IN is
    the ``co_group`` hash ANTI-join of customers_without_big_orders
    (the probe side collapses to per-batch DISTINCT recent custkeys);
    (3) each anti group emits (nationkey, n, bal) partials so the final
    aggregate's exchange is nations-sized. Balances are 2-dp decimals:
    the exact group sum is an integer cents value, so cents rounding is
    ulp-proof. The cutoff comparison's summation-order sensitivity is
    measured in a pytest (gap between nearest balance and cutoff vs
    float error), the events_value_outliers precedent."""
    import pandas as pd

    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey", "c_acctbal"])

    def avg_partial(batch: pa.Table) -> pa.Table:
        b = batch["c_acctbal"].to_numpy(zero_copy_only=False)
        pos = b[b > 0.0]
        return pa.table({
            "s": pa.array([float(np.sum(pos))], pa.float64()),
            "n": pa.array([int(pos.size)], pa.int64()),
        })

    parts = cust.map_batches(
        avg_partial, batch_format="pyarrow"
    ).to_pandas()
    cutoff = float(parts["s"].sum()) / max(int(parts["n"].sum()), 1)

    def rich(batch: pa.Table) -> pa.Table:
        bal = batch["c_acctbal"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(bal > cutoff))

    def recent(batch: pa.Table) -> pa.Table:
        od = batch["o_orderdate"].to_numpy(zero_copy_only=False)
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        return pa.table({"c_custkey": np.unique(ck[od >= Q22_SINCE])})

    def anti_partial(c, o) -> pd.DataFrame:
        keep = ~np.isin(c["c_custkey"], o["c_custkey"])
        un, inv = np.unique(c["c_nationkey"][keep], return_inverse=True)
        n = np.bincount(inv, minlength=un.size).astype(np.int64)
        s = np.zeros(un.size, dtype=np.float64)
        np.add.at(s, inv, c["c_acctbal"][keep])
        return pd.DataFrame({"cntrycode": un, "numcust": n, "bal": s})

    out = combine(co_group(
        anti_partial,
        (cust, rich,
         pa.schema([("c_custkey", _I64), ("c_nationkey", _I64),
                    ("c_acctbal", _F64)])),
        (_read(sf_dir, "orders", ["o_custkey", "o_orderdate"]),
         recent, pa.schema([("c_custkey", _I64)])),
    ), ["cntrycode"], ["numcust", "bal"],
        pa.schema([("cntrycode", _I64), ("numcust", _I64), ("bal", _F64)]))
    return pa.table({
        "cntrycode": out["cntrycode"],
        "numcust": out["numcust"],
        "totacctbal_cents": pa.array(
            np.round(out["bal"].to_numpy() * 100.0).astype(np.int64)
        ),
    })


def q22_sales_opportunity_sql() -> str:
    return """
SELECT c_nationkey AS cntrycode, count(*) AS numcust,
       CAST(round(sum(c_acctbal) * 100.0) AS BIGINT)
       AS totacctbal_cents
FROM customer
WHERE c_acctbal > (
    SELECT avg(c_acctbal) FROM customer WHERE c_acctbal > 0.0
)
AND c_custkey NOT IN (
    SELECT o_custkey FROM orders
    WHERE o_orderdate >= TIMESTAMP '1999-01-01'
)
GROUP BY c_nationkey
ORDER BY cntrycode
"""


def events_matrix_stats(sf_dir: str):
    """(n, mean_value, mean_hour, var_value, var_hour, covariance,
    correlation): the ES ``matrix_stats`` aggregation analog over two
    numeric event fields (value x hour-of-day) — one streaming pass of
    six-scalar moment partials per batch (n, Sx, Sy, Sxx, Syy, Sxy);
    moments COMBINE across blocks where means and correlations don't
    (the events_value_outliers rule), so the exchange is six doubles
    per block at any scale. Population variance/covariance, rounded to
    6 dp: the naive-moment summation error here is ~1e-8 absolute
    (means dominate the second moments — no catastrophic cancellation
    on this data shape, asserted in a pytest) vs the 5e-7 grid."""
    import pandas as pd

    ds = _read(sf_dir, "events", ["ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        x = batch["value"].to_numpy(zero_copy_only=False)
        ts = batch["ts"].to_numpy(zero_copy_only=False)
        y = ((ts.astype("datetime64[h]").astype(np.int64)) % 24).astype(
            np.float64
        )
        return pa.table({
            "n": pa.array([x.size], pa.int64()),
            "sx": pa.array([float(np.sum(x))], pa.float64()),
            "sy": pa.array([float(np.sum(y))], pa.float64()),
            "sxx": pa.array([float(np.sum(x * x))], pa.float64()),
            "syy": pa.array([float(np.sum(y * y))], pa.float64()),
            "sxy": pa.array([float(np.sum(x * y))], pa.float64()),
        })

    p = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    n = int(p["n"].sum())
    sx, sy = float(p["sx"].sum()), float(p["sy"].sum())
    sxx, syy = float(p["sxx"].sum()), float(p["syy"].sum())
    sxy = float(p["sxy"].sum())
    mx, my = sx / n, sy / n
    vx = sxx / n - mx * mx
    vy = syy / n - my * my
    cov = sxy / n - mx * my
    corr = cov / np.sqrt(vx * vy) if vx > 0 and vy > 0 else 0.0
    return pa.table({
        "n": pa.array([n], pa.int64()),
        "mean_value": pa.array([round(mx, 6)], pa.float64()),
        "mean_hour": pa.array([round(my, 6)], pa.float64()),
        "var_value": pa.array([round(vx, 6)], pa.float64()),
        "var_hour": pa.array([round(vy, 6)], pa.float64()),
        "covariance": pa.array([round(cov, 6)], pa.float64()),
        "correlation": pa.array([round(corr, 6)], pa.float64()),
    })


def events_matrix_stats_sql() -> str:
    # var_pop/covar_pop/corr recomputed from raw moments so BOTH sides
    # use the same estimator (DuckDB's var_pop is Welford-style and
    # differs in the last ulps; the rounded grid hides that, but the
    # moment form keeps the comparison estimator-identical too)
    return """
WITH xy AS (
  SELECT value AS x,
         CAST(extract(hour FROM ts) AS DOUBLE) AS y
  FROM events
),
m AS (
  SELECT count(*)::BIGINT AS n, sum(x) AS sx, sum(y) AS sy,
         sum(x * x) AS sxx, sum(y * y) AS syy, sum(x * y) AS sxy
  FROM xy
)
SELECT n,
       round(sx / n, 6) AS mean_value,
       round(sy / n, 6) AS mean_hour,
       round(sxx / n - (sx / n) * (sx / n), 6) AS var_value,
       round(syy / n - (sy / n) * (sy / n), 6) AS var_hour,
       round(sxy / n - (sx / n) * (sy / n), 6) AS covariance,
       round((sxy / n - (sx / n) * (sy / n))
             / sqrt((sxx / n - (sx / n) * (sx / n))
                    * (syy / n - (sy / n) * (sy / n))), 6)
       AS correlation
FROM m
"""


def customer_geo_centroid(sf_dir: str):
    """(c_nationkey, n, lat_centroid, lon_centroid): the ES
    ``geo_centroid`` aggregation analog — per-nation centroid of the
    shared custkey-derived coordinates. Per-batch (nation, n, sum_lat,
    sum_lon) partials via one bincount-style fold, nations-sized
    exchange. The coordinates are 2-dp decimals, so the sums are kept
    as EXACT centi-degree int64s and the centroid is ONE division of
    identical integers on both sides — bit-identical doubles with no
    rounding contract (a 6-dp round here actually FAILED: sf0.01
    lands a centroid exactly on the x.xxxxxx5 boundary, where numpy
    rounds half-even and DuckDB half-away)."""

    def partial(batch: pa.Table) -> pa.Table:
        keys = batch["c_custkey"].to_numpy(zero_copy_only=False)
        nat = batch["c_nationkey"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        lat100 = ((keys * 37) % 18000) - 9000
        lon100 = ((keys * 91) % 36000) - 18000
        un, inv = np.unique(nat, return_inverse=True)
        n = np.bincount(inv, minlength=un.size).astype(np.int64)
        slat = np.zeros(un.size, dtype=np.int64)
        slon = np.zeros(un.size, dtype=np.int64)
        np.add.at(slat, inv, lat100)
        np.add.at(slon, inv, lon100)
        return pa.table({
            "c_nationkey": pa.array(un),
            "n": pa.array(n),
            "slat": pa.array(slat, pa.int64()),
            "slon": pa.array(slon, pa.int64()),
        })

    sums = ["n", "slat", "slon"]
    p = combine(
        _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
        .map_batches(partial, batch_format="pyarrow"),
        ["c_nationkey"], sums,
        pa.schema([("c_nationkey", _I64)] + [(c, _I64) for c in sums]),
    )
    n = p["n"].to_numpy()
    return pa.table({
        "c_nationkey": p["c_nationkey"],
        "n": p["n"],
        "lat_centroid": pa.array(p["slat"].to_numpy() / (100.0 * n)),
        "lon_centroid": pa.array(p["slon"].to_numpy() / (100.0 * n)),
    })


def customer_geo_centroid_sql() -> str:
    return """
WITH pts AS (
  SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
         (c_custkey * 37) % 18000 - 9000 AS lat100,
         (c_custkey * 91) % 36000 - 18000 AS lon100
  FROM customer
)
SELECT c_nationkey, count(*) AS n,
       sum(lat100)::DOUBLE / (100.0 * count(*)) AS lat_centroid,
       sum(lon100)::DOUBLE / (100.0 * count(*)) AS lon_centroid
FROM pts GROUP BY c_nationkey ORDER BY c_nationkey
"""


def customer_geo_bounds(sf_dir: str):
    """(c_nationkey, lat_min, lat_max, lon_min, lon_max): the ES
    ``geo_bounds`` aggregation analog — per-nation bounding box of the
    derived coordinates. min/max partials per batch (exact: no
    rounding contract needed — the coordinates are 2-dp decimals and
    min/max never mixes them), nations-sized exchange."""
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        keys = batch["c_custkey"].to_numpy(zero_copy_only=False)
        nat = batch["c_nationkey"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        lat = ((keys * 37) % 18000) / 100.0 - 90.0
        lon = ((keys * 91) % 36000) / 100.0 - 180.0
        un, inv = np.unique(nat, return_inverse=True)
        out = {
            "c_nationkey": pa.array(un),
        }
        for name, arr, fn, init in (
            ("lat_min", lat, np.minimum, np.inf),
            ("lat_max", lat, np.maximum, -np.inf),
            ("lon_min", lon, np.minimum, np.inf),
            ("lon_max", lon, np.maximum, -np.inf),
        ):
            acc = np.full(un.size, init)
            fn.at(acc, inv, arr)
            out[name] = pa.array(acc, pa.float64())
        return pa.table(out)

    p = (
        _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()  # nations x blocks: tiny driver merge
        .groupby("c_nationkey", as_index=False)
        .agg(lat_min=("lat_min", "min"), lat_max=("lat_max", "max"),
             lon_min=("lon_min", "min"), lon_max=("lon_max", "max"))
        .sort_values("c_nationkey")
    )
    return pa.table({
        "c_nationkey": pa.array(p["c_nationkey"].to_numpy(np.int64)),
        "lat_min": pa.array(p["lat_min"].to_numpy(np.float64)),
        "lat_max": pa.array(p["lat_max"].to_numpy(np.float64)),
        "lon_min": pa.array(p["lon_min"].to_numpy(np.float64)),
        "lon_max": pa.array(p["lon_max"].to_numpy(np.float64)),
    })


def customer_geo_bounds_sql() -> str:
    return """
WITH pts AS (
  SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
         ((c_custkey * 37) % 18000) / 100.0 - 90.0 AS lat,
         ((c_custkey * 91) % 36000) / 100.0 - 180.0 AS lon
  FROM customer
)
SELECT c_nationkey,
       min(lat) AS lat_min, max(lat) AS lat_max,
       min(lon) AS lon_min, max(lon) AS lon_max
FROM pts GROUP BY c_nationkey ORDER BY c_nationkey
"""


def _hourly_counts(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """The DENSE hourly event-count series ``(hr, n)``: int64 hours
    since the epoch from the first to the last event hour, empty hours
    counting 0 (ES min_doc_count=0); both arrays are empty for no
    events. Per-batch (hour, n) partials folded by ``combine``."""

    def partial(batch: pa.Table) -> pa.Table:
        hr = pc.divide(
            pc.cast(pc.floor_temporal(batch["ts"], unit="hour"),
                    pa.int64()),
            3600 * 1_000_000,
        )
        g = pa.table({"hr": hr}).group_by("hr").aggregate(
            [([], "count_all")])
        return agg_select(g, {"hr": "hr", "count_all": "n"})

    c = combine(
        _read(sf_dir, "events", ["ts"]).map_batches(
            partial, batch_format="pyarrow"),
        ["hr"], ["n"], pa.schema([("hr", _I64), ("n", _I64)]),
    )
    hr = c["hr"].to_numpy()
    if not hr.size:
        return hr, hr
    grid = np.arange(hr[0], hr[-1] + 1)
    n = np.zeros(grid.size, np.int64)
    n[hr - hr[0]] = c["n"].to_numpy()
    return grid, n


MAVG_W = 3  # trailing window (current + 2 preceding buckets)


def events_moving_avg(sf_dir: str, w: int = MAVG_W):
    """(hour, n, mavg, delta): the ES pipeline-aggregation family over
    a date_histogram — ``moving_fn`` (trailing mean over ``w``
    buckets, partial at the series head like ROWS BETWEEN w-1
    PRECEDING) and ``derivative`` (first difference, NULL at the
    head) over the DENSE hourly series (empty hours count 0, ES
    min_doc_count=0). The window math runs on the hours-sized
    ``_hourly_counts`` series itself.
    mavg = (exact int sum)/count — one division of identical operands
    on both sides, no rounding contract."""
    hours, n = _hourly_counts(sf_dir)
    csum = np.concatenate([[0], np.cumsum(n)])
    start = np.maximum(np.arange(hours.size) - (w - 1), 0)
    wsum = csum[np.arange(1, hours.size + 1)] - csum[start]
    wlen = np.arange(1, hours.size + 1) - start
    mavg = wsum / wlen.astype(np.float64)
    delta = np.full(hours.size, np.nan)
    delta[1:] = (n[1:] - n[:-1]).astype(np.float64)
    return pa.table({
        "hour": pa.array(
            hours.astype("datetime64[h]").astype("datetime64[us]")
        ),
        "n": pa.array(n),
        "mavg": pa.array(mavg, pa.float64()),
        "delta": pa.array(
            [None if np.isnan(d) else d for d in delta], pa.float64()
        ),
    })


def events_moving_avg_sql(w: int = MAVG_W) -> str:
    return f"""
WITH c AS (
  SELECT date_trunc('hour', ts) AS h, count(*) AS n
  FROM events GROUP BY 1
),
span AS (
  SELECT unnest(generate_series(
    (SELECT min(h) FROM c), (SELECT max(h) FROM c),
    INTERVAL 1 HOUR)) AS h
),
d AS (
  SELECT span.h, coalesce(c.n, 0)::BIGINT AS n
  FROM span LEFT JOIN c ON c.h = span.h
)
SELECT h AS hour, n,
       avg(n) OVER (ORDER BY h
                    ROWS BETWEEN {w - 1} PRECEDING AND CURRENT ROW)
         AS mavg,
       CAST(n - lag(n) OVER (ORDER BY h) AS DOUBLE) AS delta
FROM d ORDER BY hour
"""


def events_running_total(sf_dir: str):
    """(event_id, user_id, running): per-user CUMULATIVE value sum in
    (ts, event_id) order — the unbounded-preceding window frame the
    rolling/hopping family doesn't cover (account-balance / lifetime-
    value scans). One ``co_group`` exchange on user_id; each group lexsorts
    once into (user, ts, event_id) order and computes every user's
    running sum with one vectorized segmented cumsum (global cumsum
    minus the value carried in from the previous segment). Rounded to
    2 dp: values are 2-dp decimals so the exact running sums are cent
    multiples, and cumulative float error (~1e-10) is five orders
    below the grid — this also absorbs DuckDB's segment-tree window
    summation order differing from the engine's sequential cumsum."""
    import pandas as pd

    def run(g) -> pd.DataFrame:
        u, e, v = g["user_id"], g["event_id"], g["value"]
        order = np.lexsort((e, g["ts"].view(np.int64), u))
        u, e, v = u[order], e[order], v[order]
        cs = np.cumsum(v)
        starts = np.flatnonzero(np.diff(u, prepend=u[0] - 1))
        lengths = np.diff(np.append(starts, u.size))
        # subtract each segment's carried-in prefix from every row
        # (repeat-based, sign-agnostic)
        running = cs - np.repeat(cs[starts] - v[starts], lengths)
        return pd.DataFrame({
            "event_id": e, "user_id": u, "running": np.round(running, 2),
        })

    return co_group(run, (
        _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"]),
        None, _EVENT_SCHEMA.append(pa.field("value", _F64)),
    ))


def events_running_total_sql() -> str:
    return """
SELECT event_id, user_id,
       round(sum(value) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
       ), 2) AS running
FROM events
"""


# Q7 "trade blocs": nationkeys [0,8) and [8,16) stand in for the two
# named nations so the analog has volume at every test scale
Q7_LO = np.datetime64("1996-01-01")
Q7_HI = np.datetime64("1998-01-01")
Q7_BLOC = 8


def q7_volume_shipping(sf_dir: str):
    """(supp_nation, cust_nation, yr, revenue_e4): the TPC-H Q7
    shape — bilateral shipping volume between two trade blocs by
    year. The one §2 join pyramid needing TWO SEQUENTIAL exchanges on
    DIFFERENT keys: customer x orders is BIG x BIG, a ``co_group`` on
    CUSTKEY (orders leave tagged with their customer's nation — the
    probe side never broadcasts, customers don't fit a worker at
    100 TB), and that tagged stream meets per-batch
    (orderkey, supp_nation, yr) volume partials in a ``co_group`` on
    ORDERKEY. supplier IS dim-sized (J1): suppkey->nation
    broadcasts once. The bloc-pair predicate needs both nations, so
    each side prefilters to bloc members and the exact directional
    test runs where the pair first co-exists; final aggregate is
    (25 x 25 x years)-bounded partials. Volumes are EXACT int64 e-4
    units per item, as in q8/q9, so every sum is integer-exact and
    neither side rounds a float sum."""
    import ray

    import pandas as pd

    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    sk, sn = [], []
    for b in sup.iter_batches(batch_format="numpy", batch_size=None):
        sk.append(np.asarray(b["s_suppkey"], dtype=np.int64))
        sn.append(np.asarray(b["s_nationkey"], dtype=np.int64))
    sk = np.concatenate(sk + [np.zeros(0, np.int64)])
    sn = np.concatenate(sn + [np.zeros(0, np.int64)])
    order = np.argsort(sk)
    side = ray.put((sk[order], sn[order]))

    # ---- exchange 1: orders tagged with cust_nation (custkey)
    def bloc_customers(batch: pa.Table) -> pa.Table:
        nat = batch["c_nationkey"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(nat < 2 * Q7_BLOC))

    def attach_nation(c, o) -> pd.DataFrame:
        rows, hit = _join_rows(c["c_custkey"], o["o_custkey"])
        return pd.DataFrame({
            "okey": o["o_orderkey"][hit],
            "cust_nation": c["c_nationkey"][rows],
        })

    tagged = co_group(
        attach_nation,
        (_read(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
         bloc_customers,
         pa.schema([("c_custkey", _I64), ("c_nationkey", _I64)])),
        (_read(sf_dir, "orders", ["o_orderkey", "o_custkey"]),
         None, pa.schema([("o_custkey", _I64), ("o_orderkey", _I64)])),
    )

    # ---- exchange 2: tagged orders x lineitem partials (orderkey)
    def li_partial(batch: pa.Table) -> pa.Table:
        sd = batch["l_shipdate"].to_numpy(zero_copy_only=False)
        m = (sd >= Q7_LO) & (sd < Q7_HI)
        b = batch.filter(pa.array(m))
        keys, nats = ray.get(side)
        lk = b["l_suppkey"].to_numpy(zero_copy_only=False)
        pos, hit = sorted_lookup(keys, lk)
        supp_nat = np.full(lk.size, 2 * Q7_BLOC)  # unknown: no bloc
        supp_nat[hit] = nats[pos[hit]]
        bloc = supp_nat < 2 * Q7_BLOC
        okey = b["l_orderkey"].to_numpy(zero_copy_only=False)[bloc]
        supp_nat = supp_nat[bloc]
        yr = (
            b["l_shipdate"].to_numpy(zero_copy_only=False)[bloc]
            .astype("datetime64[Y]").astype(np.int64) + 1970
        )
        vol = np.round((
            b["l_extendedprice"].to_numpy(zero_copy_only=False)[bloc]
            * (1.0 - b["l_discount"].to_numpy(zero_copy_only=False)[bloc])
        ) * 10000.0).astype(np.int64)  # exact 4-decimal value
        key = (okey << 16) | (supp_nat << 11) | (yr - 1990)
        uk, inv = np.unique(key, return_inverse=True)
        part = np.zeros(uk.size, dtype=np.int64)
        np.add.at(part, inv, vol)
        return pa.table({
            "okey": uk >> 16,
            "supp_nation": (uk >> 11) & 0x1F,
            "yr": (uk & 0x7FF) + 1990,
            "vol": part,
        })

    def join_fold(o, li) -> pd.DataFrame:
        rows, hit = _join_rows(o["okey"], li["okey"])
        supp, cust = li["supp_nation"][hit], o["cust_nation"][rows]
        # the exact directional bloc-pair predicate, where the pair
        # first co-exists
        keep = ((supp < Q7_BLOC) & (cust >= Q7_BLOC)
                & (cust < 2 * Q7_BLOC)) | (
            (cust < Q7_BLOC) & (supp >= Q7_BLOC) & (supp < 2 * Q7_BLOC)
        )
        supp, cust = supp[keep], cust[keep]
        yr, vol = li["yr"][hit][keep], li["vol"][hit][keep]
        key = (supp << 16) | (cust << 11) | (yr - 1990)
        uk, inv = np.unique(key, return_inverse=True)
        part = np.zeros(uk.size, dtype=np.int64)
        np.add.at(part, inv, vol)
        return pd.DataFrame({
            "supp_nation": uk >> 16,
            "cust_nation": (uk >> 11) & 0x1F,
            "yr": (uk & 0x7FF) + 1990,
            "revenue_e4": part,
        })

    keys = ["supp_nation", "cust_nation", "yr"]
    return combine(co_group(
        join_fold,
        (tagged, None,
         pa.schema([("okey", _I64), ("cust_nation", _I64)])),
        (_read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_shipdate",
                "l_extendedprice", "l_discount"]),
         li_partial,
         pa.schema([("okey", _I64), ("supp_nation", _I64), ("yr", _I64),
                    ("vol", _I64)])),
    ), keys, ["revenue_e4"],
        pa.schema([(k, _I64) for k in keys] + [("revenue_e4", _I64)]))


def q7_volume_shipping_sql() -> str:
    b = Q7_BLOC
    return f"""
SELECT s_nationkey AS supp_nation, c_nationkey AS cust_nation,
       CAST(extract(year FROM l_shipdate) AS BIGINT) AS yr,
       CAST(sum(CAST(round(l_extendedprice * (1.0 - l_discount)
                           * 10000.0) AS BIGINT)) AS BIGINT) AS revenue_e4
FROM supplier
JOIN lineitem ON s_suppkey = l_suppkey
JOIN orders ON o_orderkey = l_orderkey
JOIN customer ON c_custkey = o_custkey
WHERE ((s_nationkey < {b} AND c_nationkey >= {b}
        AND c_nationkey < {2 * b})
    OR (c_nationkey < {b} AND s_nationkey >= {b}
        AND s_nationkey < {2 * b}))
  AND l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate < TIMESTAMP '1998-01-01'
GROUP BY 1, 2, 3
ORDER BY 1, 2, 3
"""


# --- TPC-H Q9 / Q12 / Q15 / Q17 analogs ------------------------------

Q9_PRODUCT = "widget"
Q9_COST_FRAC = 0.6  # retailprice fraction standing in for supplycost


def q9_product_type_profit(sf_dir: str):
    """(supp_nation, yr, profit_e4): the TPC-H Q9 shape — profit on
    one product line by supplier nation and order year, with
    ``Q9_COST_FRAC * p_retailprice`` standing in for the absent
    partsupp supplycost. part and supplier are both DIM-sized: the
    widget partkey->retailprice map and suppkey->nation map broadcast
    once (sorted-aligned arrays, ONE searchsorted each per batch); the
    year lives on orders, so lineitem profit partials
    (orderkey, supp_nation) meet orders (orderkey, year) in one
    ``co_group`` on orderkey; final fold is (nations x years)-bounded.
    A lineitem whose suppkey names no supplier drops out, as in the
    SQL inner join."""
    import ray

    import pandas as pd

    part = _read(sf_dir, "part", ["p_partkey", "p_name", "p_retailprice"])
    pk, pr = [], []
    for b in part.iter_batches(batch_format="pyarrow", batch_size=None):
        m = pc.match_substring(b["p_name"], Q9_PRODUCT).to_numpy(
            zero_copy_only=False
        )
        pk.append(
            b["p_partkey"].to_numpy(zero_copy_only=False)[m].astype(
                np.int64
            )
        )
        pr.append(b["p_retailprice"].to_numpy(zero_copy_only=False)[m])
    pk = np.concatenate(pk + [np.zeros(0, np.int64)])
    pr = np.concatenate(pr + [np.zeros(0)])
    o = np.argsort(pk)
    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    sk, sn = [], []
    for b in sup.iter_batches(batch_format="numpy", batch_size=None):
        sk.append(np.asarray(b["s_suppkey"], dtype=np.int64))
        sn.append(np.asarray(b["s_nationkey"], dtype=np.int64))
    sk = np.concatenate(sk + [np.zeros(0, np.int64)])
    sn = np.concatenate(sn + [np.zeros(0, np.int64)])
    so = np.argsort(sk)
    side = ray.put((pk[o], pr[o], sk[so], sn[so]))

    def li_partial(batch: pa.Table) -> pa.Table:
        keys, price, skeys, snat = ray.get(side)
        pos, hit = sorted_lookup(
            keys, batch["l_partkey"].to_numpy(zero_copy_only=False))
        # an unknown suppkey is dropped (inner join)
        spos, shit = sorted_lookup(
            skeys, batch["l_suppkey"].to_numpy(zero_copy_only=False))
        hit &= shit
        b = batch.filter(pa.array(hit))
        cost = price[pos[hit]]
        nat = snat[spos[hit]]
        # per-item profit is an EXACT 4-decimal value (2dp x 2dp and
        # 0.6 x 2dp x int), so round to int64 e-4 units per ITEM: all
        # downstream sums are integer-exact and the group totals can
        # never land on a rounding half-boundary (one did at sf0.001)
        profit = np.round((
            b["l_extendedprice"].to_numpy(zero_copy_only=False)
            * (1.0 - b["l_discount"].to_numpy(zero_copy_only=False))
            - Q9_COST_FRAC * cost
            * b["l_quantity"].to_numpy(zero_copy_only=False)
        ) * 10000.0).astype(np.int64)
        okey = b["l_orderkey"].to_numpy(zero_copy_only=False)
        key = (okey << 5) | nat
        uk, inv = np.unique(key, return_inverse=True)
        partial = np.zeros(uk.size, dtype=np.int64)
        np.add.at(partial, inv, profit)
        return pa.table({
            "okey": uk >> 5, "nat": uk & 0x1F, "profit": partial,
        })

    def o_side(batch: pa.Table) -> pa.Table:
        yr = (
            batch["o_orderdate"].to_numpy(zero_copy_only=False)
            .astype("datetime64[Y]").astype(np.int64) + 1970
        )
        return pa.table({"okey": batch["o_orderkey"], "yr": yr})

    def join_fold(li, o) -> pd.DataFrame:
        rows, hit = _join_rows(o["okey"], li["okey"])
        nat, yr, pr = li["nat"][hit], o["yr"][rows], li["profit"][hit]
        key = (nat << 11) | (yr - 1990)
        uk, inv = np.unique(key, return_inverse=True)
        partial = np.zeros(uk.size, dtype=np.int64)
        np.add.at(partial, inv, pr)
        return pd.DataFrame({
            "supp_nation": (uk >> 11).astype("int64"),
            "yr": (uk & 0x7FF).astype("int64") + 1990,
            "profit_e4": partial,
        })

    return combine(co_group(
        join_fold,
        (_read(sf_dir, "lineitem",
               ["l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
                "l_extendedprice", "l_discount"]),
         li_partial,
         pa.schema([("okey", _I64), ("nat", _I64), ("profit", _I64)])),
        (_read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]),
         o_side, pa.schema([("okey", _I64), ("yr", _I64)])),
    ), ["supp_nation", "yr"], ["profit_e4"],
        pa.schema([("supp_nation", _I64), ("yr", _I64),
                   ("profit_e4", _I64)]))


def q9_product_type_profit_sql() -> str:
    return f"""
SELECT s_nationkey AS supp_nation,
       CAST(extract(year FROM o_orderdate) AS BIGINT) AS yr,
       CAST(sum(CAST(round((l_extendedprice * (1.0 - l_discount)
                      - {Q9_COST_FRAC} * p_retailprice * l_quantity)
                  * 10000.0) AS BIGINT)) AS BIGINT) AS profit_e4
FROM lineitem
JOIN part ON p_partkey = l_partkey
JOIN supplier ON s_suppkey = l_suppkey
JOIN orders ON o_orderkey = l_orderkey
WHERE p_name LIKE '%{Q9_PRODUCT}%'
GROUP BY 1, 2
ORDER BY 1, 2
"""


Q12_HIGH = ("1-URGENT", "2-HIGH")
Q12_LO_DATE = np.datetime64("1996-01-01")
Q12_HI_DATE = np.datetime64("1997-01-01")


def q12_shipmode_priority(sf_dir: str):
    """(l_returnflag, high_line_count, low_line_count): the TPC-H Q12
    shape — per ship-class (returnflag standing in for the absent
    l_shipmode) counts of lineitems belonging to high- vs low-priority
    orders, over a shipdate year. orders x lineitem BIG x BIG in one
    ``co_group`` on orderkey; lineitem collapses per batch to
    (orderkey, flag, n) count partials, orders ship one boolean per
    row; per-group fold emits (flag, high, low) partials and the final
    exchange is flag-domain-sized. Pure integer counts — no rounding
    contract at all."""
    import pandas as pd

    def o_side(batch: pa.Table) -> pa.Table:
        hi = pc.is_in(
            batch["o_orderpriority"], value_set=pa.array(Q12_HIGH)
        )
        return pa.table({"okey": batch["o_orderkey"], "high": hi})

    def li_partial(batch: pa.Table) -> pa.Table:
        sd = batch["l_shipdate"].to_numpy(zero_copy_only=False)
        b = batch.filter(pa.array((sd >= Q12_LO_DATE) & (sd < Q12_HI_DATE)))
        g = (
            pa.table({"okey": b["l_orderkey"], "flag": b["l_returnflag"]})
            .group_by(["okey", "flag"])
            .aggregate([([], "count_all")])
        )
        return agg_select(g, {
            "okey": "okey", "flag": "flag", "count_all": "n",
        })

    def fold(o, li) -> pd.DataFrame:
        rows, hit = _join_rows(o["okey"], li["okey"])
        df = pd.DataFrame({
            "flag": li["flag"][hit], "hi": o["high"][rows], "n": li["n"][hit],
        })
        out = df.groupby("flag", as_index=False).apply(
            lambda x: pd.Series({
                "high_line_count": int(x["n"][x["hi"]].sum()),
                "low_line_count": int(x["n"][~x["hi"]].sum()),
            }), include_groups=False,
        )
        return out.rename(columns={"flag": "l_returnflag"})

    counts = ["high_line_count", "low_line_count"]
    return combine(co_group(
        fold,
        (_read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]),
         o_side, pa.schema([("okey", _I64), ("high", pa.bool_())])),
        (_read(sf_dir, "lineitem",
               ["l_orderkey", "l_returnflag", "l_shipdate"]),
         li_partial,
         pa.schema([("okey", _I64), ("flag", _STR), ("n", _I64)])),
    ), ["l_returnflag"], counts,
        pa.schema([("l_returnflag", _STR)] + [(c, _I64) for c in counts]))


def q12_shipmode_priority_sql() -> str:
    hi = ", ".join(f"'{p}'" for p in Q12_HIGH)
    return f"""
SELECT l_returnflag,
       count(*) FILTER (o_orderpriority IN ({hi}))
         AS high_line_count,
       count(*) FILTER (o_orderpriority NOT IN ({hi}))
         AS low_line_count
FROM orders JOIN lineitem ON o_orderkey = l_orderkey
WHERE l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate < TIMESTAMP '1997-01-01'
GROUP BY 1 ORDER BY 1
"""


Q15_LO = np.datetime64("1996-01-01")
Q15_HI = np.datetime64("1996-04-01")


def q15_top_supplier(sf_dir: str):
    """(s_suppkey, s_name, total_revenue_cents): the TPC-H Q15 shape —
    the supplier(s) achieving MAX quarterly revenue (the view +
    correlated-max query; ties all returned). Per-batch (suppkey,
    revenue) partials -> ONE suppkey-keyed groupby; the argmax-with-
    ties runs on the supplier-sized revenue table (output-sized) and
    revenue is rounded to CENTS BEFORE the max compare on BOTH sides,
    so tie membership is integer-exact; winner names come from one
    predicate-pushdown dim read."""
    from ray.data.aggregate import Sum

    import pyarrow.parquet as _pq

    def partial(batch: pa.Table) -> pa.Table:
        sd = batch["l_shipdate"].to_numpy(zero_copy_only=False)
        b = batch.filter(pa.array((sd >= Q15_LO) & (sd < Q15_HI)))
        sk = b["l_suppkey"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        rev = (
            b["l_extendedprice"].to_numpy(zero_copy_only=False)
            * (1.0 - b["l_discount"].to_numpy(zero_copy_only=False))
        )
        uk, inv = np.unique(sk, return_inverse=True)
        part = np.zeros(uk.size)
        np.add.at(part, inv, rev)
        return pa.table({
            "s_suppkey": pa.array(uk),
            "rev": pa.array(part, pa.float64()),
        })

    rev = (
        _read(sf_dir, "lineitem",
              ["l_suppkey", "l_shipdate", "l_extendedprice",
               "l_discount"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("s_suppkey")
        .aggregate(Sum("rev", alias_name="rev"))
        .to_pandas()  # supplier-sized
    )
    cents = np.round(rev["rev"].to_numpy() * 100.0).astype(np.int64)
    top = cents.max() if cents.size else 0
    win = rev["s_suppkey"].to_numpy(np.int64)[cents == top]
    wc = cents[cents == top]
    names = _pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"],
        filters=[("s_suppkey", "in", win.tolist())],
    ).to_pandas().set_index("s_suppkey")["s_name"]
    order = np.argsort(win)
    return pa.table({
        "s_suppkey": pa.array(win[order], pa.int64()),
        "s_name": pa.array(
            [names[int(s)] for s in win[order]], pa.string()),
        "total_revenue_cents": pa.array(wc[order], pa.int64()),
    })


def q15_top_supplier_sql() -> str:
    return """
WITH revenue AS (
  SELECT l_suppkey AS s_suppkey,
         CAST(round(sum(l_extendedprice * (1.0 - l_discount)) * 100.0)
              AS BIGINT) AS total_revenue_cents
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate < TIMESTAMP '1996-04-01'
  GROUP BY 1
)
SELECT r.s_suppkey, s.s_name, r.total_revenue_cents
FROM revenue r JOIN supplier s ON s.s_suppkey = r.s_suppkey
WHERE r.total_revenue_cents = (
  SELECT max(total_revenue_cents) FROM revenue
)
ORDER BY r.s_suppkey
"""


Q17_BRANDS = ("Brand#5", "Brand#15")
Q17_QTY_FRAC = 0.2


def q17_small_quantity_revenue(sf_dir: str):
    """(n_lineitems, revenue_cents): the TPC-H Q17 shape — revenue
    from small-quantity orders of selected brands, where 'small' is a
    CORRELATED per-part threshold (qty < 0.2 x that part's average
    quantity). Three sized steps: brand partkeys broadcast (DIM);
    pass 1 folds (partkey, sum_qty, n) partials on a partkey-keyed
    groupby bounded by the brand subset; the per-part thresholds
    (filtered-part-sized) broadcast back and pass 2 is a pure
    streaming filter+sum. The threshold compare's float sensitivity
    (engine partial sums vs DuckDB's avg) is measured in a pytest —
    quantities are integers, thresholds are fractional averages, gap
    >> summation error."""
    import ray

    from ray.data.aggregate import Sum

    import pyarrow.parquet as _pq

    bp = _pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"],
        filters=[("p_brand", "in", list(Q17_BRANDS))],
    )["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    bp = np.sort(bp)
    bref = ray.put(bp)

    def qty_partial(batch: pa.Table) -> pa.Table:
        keys = ray.get(bref)
        lk = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        hit = np.isin(lk, keys, kind="sort")
        b = batch.filter(pa.array(hit))
        pk2 = b["l_partkey"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        q = b["l_quantity"].to_numpy(zero_copy_only=False)
        uk, inv = np.unique(pk2, return_inverse=True)
        s = np.zeros(uk.size)
        np.add.at(s, inv, q)
        n = np.bincount(inv, minlength=uk.size).astype(np.int64)
        return pa.table({
            "p_partkey": pa.array(uk),
            "s": pa.array(s, pa.float64()),
            "n": pa.array(n),
        })

    li_cols = _read(sf_dir, "lineitem",
                    ["l_partkey", "l_quantity", "l_extendedprice"])
    avg = (
        li_cols.map_batches(qty_partial, batch_format="pyarrow")
        .groupby("p_partkey")
        .aggregate(Sum("s", alias_name="s"), Sum("n", alias_name="n"))
        .to_pandas()  # brand-subset-sized
    )
    tk = avg["p_partkey"].to_numpy(np.int64)
    o = np.argsort(tk)
    thresh = (
        Q17_QTY_FRAC
        * (avg["s"].to_numpy() / avg["n"].to_numpy())
    )[o]
    tref = ray.put((tk[o], thresh))

    def rev_partial(batch: pa.Table) -> pa.Table:
        keys, th = ray.get(tref)
        lk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        pos, hit = sorted_lookup(keys, lk)
        q = batch["l_quantity"].to_numpy(zero_copy_only=False)
        small = hit.copy()
        small[hit] = q[hit] < th[pos[hit]]
        ep = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        return pa.table({
            "n": pa.array([int(small.sum())], pa.int64()),
            "rev": pa.array([float(np.sum(ep[small]))], pa.float64()),
        })

    import pandas as pd

    parts = li_cols.map_batches(
        rev_partial, batch_format="pyarrow"
    ).to_pandas()
    return pa.table({
        "n_lineitems": pa.array([int(parts["n"].sum())], pa.int64()),
        "revenue_cents": pa.array(
            [int(round(float(parts["rev"].sum()) * 100.0))], pa.int64()
        ),
    })


def q17_small_quantity_revenue_sql() -> str:
    brands = ", ".join(f"'{b}'" for b in Q17_BRANDS)
    return f"""
SELECT CAST(count(*) AS BIGINT) AS n_lineitems,
       CAST(round(sum(l_extendedprice) * 100.0) AS BIGINT)
         AS revenue_cents
FROM lineitem l1 JOIN part ON p_partkey = l1.l_partkey
WHERE p_brand IN ({brands})
  AND l1.l_quantity < {Q17_QTY_FRAC} * (
    -- the outer table MUST be aliased: an unqualified l_partkey here
    -- binds to the inner l2 (always-true), silently averaging the
    -- whole table
    SELECT avg(l2.l_quantity) FROM lineitem l2
    WHERE l2.l_partkey = l1.l_partkey
  )
"""


Q8_REGION = 1
Q8_TYPE = "STANDARD"
Q8_NATION = 3
Q8_LO = np.datetime64("1996-01-01")
Q8_HI = np.datetime64("1998-01-01")


def q8_market_share(sf_dir: str):
    """(yr, mkt_share): the TPC-H Q8 shape — one supplier nation's
    share of a region's yearly volume in one product line. The Q7
    two-exchange pyramid plus a RATIO aggregate: nation (25 rows) and
    the product partkeys broadcast; customer x orders, a ``co_group``
    on custkey, keeps only in-region orders (tagged with order
    YEAR — the grouping key rides the build side); lineitem collapses
    per batch to (orderkey, is_target_nation) volume partials in
    EXACT int64 e-4 units (volume is a 4-decimal value, so numerator
    and denominator are integer-exact at any summation order and the
    final share is ONE division of identical integers — bit-identical
    both sides, no rounding contract)."""
    import ray

    import pandas as pd

    nat = _read(sf_dir, "nation", ["n_nationkey", "n_regionkey"])
    in_region = np.sort(np.concatenate([
        np.asarray(b["n_nationkey"], dtype=np.int64)[
            np.asarray(b["n_regionkey"], dtype=np.int64) == Q8_REGION
        ]
        for b in nat.iter_batches(batch_format="numpy", batch_size=None)
    ] + [np.zeros(0, np.int64)]))
    part = _read(sf_dir, "part", ["p_partkey", "p_type"])
    pkeys = np.sort(np.concatenate([
        b["p_partkey"].to_numpy(zero_copy_only=False)[
            np.asarray(b["p_type"]) == Q8_TYPE
        ].astype(np.int64)
        for b in part.iter_batches(batch_format="pyarrow",
                                   batch_size=None)
    ] + [np.zeros(0, np.int64)]))
    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    sk, sn = [], []
    for b in sup.iter_batches(batch_format="numpy", batch_size=None):
        sk.append(np.asarray(b["s_suppkey"], dtype=np.int64))
        sn.append(np.asarray(b["s_nationkey"], dtype=np.int64))
    sk = np.concatenate(sk + [np.zeros(0, np.int64)])
    sn = np.concatenate(sn + [np.zeros(0, np.int64)])
    so = np.argsort(sk)
    side = ray.put((in_region, pkeys, sk[so], sn[so]))

    # exchange 1: in-region orders tagged with year (custkey)
    def region_customers(batch: pa.Table) -> pa.Table:
        reg, _, _, _ = ray.get(side)
        cn = batch["c_nationkey"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(np.isin(cn, reg, kind="sort")))

    def window_orders(batch: pa.Table) -> pa.Table:
        od = batch["o_orderdate"].to_numpy(zero_copy_only=False)
        b = batch.filter(pa.array((od >= Q8_LO) & (od < Q8_HI)))
        yr = (
            b["o_orderdate"].to_numpy(zero_copy_only=False)
            .astype("datetime64[Y]").astype(np.int64) + 1970
        )
        return pa.table({
            "o_custkey": b["o_custkey"], "okey": b["o_orderkey"], "yr": yr,
        })

    def semi(c, o) -> pd.DataFrame:
        keep = np.isin(o["o_custkey"], c["c_custkey"])
        return pd.DataFrame({"okey": o["okey"][keep], "yr": o["yr"][keep]})

    tagged = co_group(
        semi,
        (_read(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
         region_customers, pa.schema([("c_custkey", _I64)])),
        (_read(sf_dir, "orders",
               ["o_orderkey", "o_custkey", "o_orderdate"]),
         window_orders,
         pa.schema([("o_custkey", _I64), ("okey", _I64), ("yr", _I64)])),
    )

    # exchange 2: region-order years x lineitem volume partials
    def li_partial(batch: pa.Table) -> pa.Table:
        _, pk2, skeys, snat = ray.get(side)
        lk = batch["l_partkey"].to_numpy(zero_copy_only=False)
        # an unknown suppkey is dropped (inner join)
        spos, hit = sorted_lookup(
            skeys, batch["l_suppkey"].to_numpy(zero_copy_only=False))
        hit &= np.isin(lk, pk2, kind="sort")
        b = batch.filter(pa.array(hit))
        tgt = (snat[spos[hit]] == Q8_NATION).astype(np.int64)
        vol = np.round((
            b["l_extendedprice"].to_numpy(zero_copy_only=False)
            * (1.0 - b["l_discount"].to_numpy(zero_copy_only=False))
        ) * 10000.0).astype(np.int64)  # exact 4-decimal value
        okey = b["l_orderkey"].to_numpy(zero_copy_only=False)
        key = (okey << 1) | tgt
        uk, inv = np.unique(key, return_inverse=True)
        part_ = np.zeros(uk.size, dtype=np.int64)
        np.add.at(part_, inv, vol)
        return pa.table({"okey": uk >> 1, "tgt": uk & 1, "vol": part_})

    def fold(o, li) -> pd.DataFrame:
        rows, hit = _join_rows(o["okey"], li["okey"])
        yr, tgt, vol = o["yr"][rows], li["tgt"][hit], li["vol"][hit]
        key = (yr - 1990) * 2 + tgt
        uk, inv = np.unique(key, return_inverse=True)
        s = np.zeros(uk.size, dtype=np.int64)
        np.add.at(s, inv, vol)
        return pd.DataFrame({
            "yr": uk // 2 + 1990, "tgt": uk % 2, "vol": s,
        })

    agg = combine(co_group(
        fold,
        (tagged, None, pa.schema([("okey", _I64), ("yr", _I64)])),
        (_read(sf_dir, "lineitem",
               ["l_orderkey", "l_partkey", "l_suppkey",
                "l_extendedprice", "l_discount"]),
         li_partial,
         pa.schema([("okey", _I64), ("tgt", _I64), ("vol", _I64)])),
    ), ["yr", "tgt"], ["vol"],
        pa.schema([("yr", _I64), ("tgt", _I64), ("vol", _I64)])).to_pandas()
    years = sorted(agg["yr"].unique())
    num = {
        int(y): int(agg[(agg["yr"] == y) & (agg["tgt"] == 1)]["vol"].sum())
        for y in years
    }
    den = {
        int(y): int(agg[agg["yr"] == y]["vol"].sum()) for y in years
    }
    return pa.table({
        "yr": pa.array([int(y) for y in years], pa.int64()),
        "mkt_share": pa.array(
            [num[y] / den[y] if den[y] else 0.0 for y in years],
            pa.float64(),
        ),
    })


def q8_market_share_sql() -> str:
    e4 = ("CAST(round(l_extendedprice * (1.0 - l_discount) * 10000.0) "
          "AS BIGINT)")
    return f"""
SELECT CAST(extract(year FROM o_orderdate) AS BIGINT) AS yr,
       sum(CASE WHEN s_nationkey = {Q8_NATION} THEN {e4} ELSE 0 END)
         ::DOUBLE / sum({e4}) AS mkt_share
FROM lineitem
JOIN orders ON o_orderkey = l_orderkey
JOIN customer ON c_custkey = o_custkey
JOIN nation ON n_nationkey = c_nationkey
JOIN supplier ON s_suppkey = l_suppkey
JOIN part ON p_partkey = l_partkey
WHERE n_regionkey = {Q8_REGION} AND p_type = '{Q8_TYPE}'
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate < TIMESTAMP '1998-01-01'
GROUP BY 1 ORDER BY 1
"""


def events_markov_transitions(sf_dir: str):
    """(from_type, to_type, n, p): first-order Markov chain estimation
    over per-user event streams — counts of consecutive (from -> to)
    event-type transitions in (ts, event_id) order, with the row-
    normalized transition probability (the user-journey / sequence-
    mining statistic behind funnel design). One ``co_group`` exchange
    on user_id; each group lexsorts once and takes adjacent pairs whose
    successor is the SAME user (vectorized shift compare, no per-user
    loop), emitting (from, to) count partials; the final fold is
    (types^2)-sized. p = n / row_total computed from the SUMMED
    integer counts on both sides — identical division operands, no
    rounding contract."""
    import pandas as pd

    def pairs(g) -> pd.DataFrame:
        u = g["user_id"]
        order = np.lexsort((g["event_id"], g["ts"].view(np.int64), u))
        u, t = u[order], g["event_type"][order]
        same = u[1:] == u[:-1]
        df = pd.DataFrame({
            "from_type": t[:-1][same], "to_type": t[1:][same],
        })
        out = df.groupby(["from_type", "to_type"], as_index=False)
        return out.size().rename(columns={"size": "n"})

    out = combine(co_group(pairs, (
        _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"]),
        None, _EVENT_SCHEMA.append(pa.field("event_type", _STR)),
    )), ["from_type", "to_type"], ["n"],
        pa.schema([("from_type", _STR), ("to_type", _STR), ("n", _I64)]))
    row_tot = out.to_pandas().groupby("from_type")["n"].transform("sum")
    return out.append_column("p", pa.array(
        out["n"].to_numpy() / row_tot.to_numpy(np.float64), _F64))


def events_markov_transitions_sql() -> str:
    return """
WITH seq AS (
  SELECT user_id, event_type,
         lead(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
         ) AS next_type
  FROM events
),
c AS (
  SELECT event_type AS from_type, next_type AS to_type,
         count(*)::BIGINT AS n
  FROM seq WHERE next_type IS NOT NULL
  GROUP BY 1, 2
)
SELECT from_type, to_type, n,
       n::DOUBLE / sum(n) OVER (PARTITION BY from_type) AS p
FROM c
ORDER BY from_type, to_type
"""


ATTR_TARGET = "purchase"
ATTR_SOURCES = ("view", "click")


def events_attribution(sf_dir: str):
    """(event_id, user_id, ts, source_event_id, source_type): LAST-
    TOUCH ATTRIBUTION — each purchase attributed to the same user's
    most recent PRIOR view/click (strictly earlier ts; ties broken by
    the later event_id, NULL when no touch precedes). The as-of join
    turned inward on one table: one ``co_group`` on user_id, each group
    lexsorts once into a 128-bit (user, ts, event_id) struct order
    and answers every purchase with one vectorized searchsorted
    against its touch subsequence — no per-user loop, no window
    materialization."""
    import pandas as pd

    def _kte(k, t, e):
        out = np.empty(k.size, dtype=[("k", np.int64), ("t", np.int64),
                                      ("e", np.int64)])
        out["k"], out["t"], out["e"] = k, t, e
        return out

    def attach(g) -> pd.DataFrame:
        u, ts, e, t = g["user_id"], g["ts"], g["event_id"], g["event_type"]
        tsi = ts.view(np.int64)
        is_src = np.isin(t, ATTR_SOURCES)
        is_tgt = t == ATTR_TARGET
        su, stsi = u[is_src], tsi[is_src]
        se, sty = e[is_src], t[is_src]
        o = np.lexsort((se, stsi, su))
        side = _kte(su[o], stsi[o], se[o])
        tu, ttsi = u[is_tgt], tsi[is_tgt]
        # probe (user, target_ts, INT64_MIN) 'left': lands after every
        # STRICTLY-earlier-ts touch of this user; cut-1 is then the
        # latest-ts, latest-event_id prior touch (the tie rule)
        cut = np.searchsorted(
            side,
            _kte(tu, ttsi, np.full(tu.size, np.iinfo(np.int64).min)),
            side="left",
        )
        hit = cut > 0
        hit[hit] = side["k"][cut[hit] - 1] == tu[hit]
        src_idx = o[cut[hit] - 1]
        # id as float64-with-NaN: the SQL LEFT JOIN surfaces BIGINT
        # NULLs as float64 NaN through pandas, so the engine emits
        # the same physical type for the hash compare
        res_id = np.full(tu.size, np.nan)
        res_ty = np.full(tu.size, None, dtype=object)
        res_id[hit] = se[src_idx].astype(np.float64)
        res_ty[hit] = sty[src_idx]
        return pd.DataFrame({
            "event_id": e[is_tgt],
            "user_id": tu,
            "ts": ts[is_tgt],
            "source_event_id": res_id,
            "source_type": res_ty,
        })

    return co_group(attach, (
        _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"]),
        None, _EVENT_SCHEMA.append(pa.field("event_type", _STR)),
    ))


def events_attribution_sql() -> str:
    srcs = ", ".join(f"'{s}'" for s in ATTR_SOURCES)
    return f"""
WITH touches AS (
  SELECT user_id, event_id, ts, event_type FROM events
  WHERE event_type IN ({srcs})
),
targets AS (
  SELECT user_id, event_id, ts FROM events
  WHERE event_type = '{ATTR_TARGET}'
)
SELECT t.event_id, t.user_id, t.ts,
       s.event_id AS source_event_id,
       s.event_type AS source_type
FROM targets t
LEFT JOIN LATERAL (
  SELECT event_id, event_type FROM touches s
  WHERE s.user_id = t.user_id AND s.ts < t.ts
  ORDER BY s.ts DESC, s.event_id DESC LIMIT 1
) s ON TRUE
"""


AB_GROUP_A = "click"
AB_GROUP_B = "view"


def events_ab_ztest(sf_dir: str):
    """(group_a, group_b, n_a, n_b, mean_a, mean_b, z): two-sample
    z-test on event values between two event-type cohorts — the A/B
    readout every product pipeline computes. ONE streaming pass of
    per-group (n, sum, sumsq) moment partials (three scalars per
    group per block — the matrix_stats discipline);
    z = (m_a - m_b) / sqrt(v_a/n_a + v_b/n_b) with population
    variances from raw moments on BOTH sides (estimator-identical),
    6-dp grid with the usual orders of headroom over summation
    error."""

    def partial(batch: pa.Table) -> pa.Table:
        t = batch["event_type"].to_numpy(zero_copy_only=False)
        v = batch["value"].to_numpy(zero_copy_only=False)
        rows = []
        for g in (AB_GROUP_A, AB_GROUP_B):
            x = v[t == g]
            rows.append((g, x.size, float(np.sum(x)),
                         float(np.sum(x * x))))
        return pa.table({
            "g": pa.array([r[0] for r in rows], pa.string()),
            "n": pa.array([r[1] for r in rows], pa.int64()),
            "s": pa.array([r[2] for r in rows], pa.float64()),
            "ss": pa.array([r[3] for r in rows], pa.float64()),
        })

    p = combine(
        _read(sf_dir, "events", ["event_type", "value"])
        .map_batches(partial, batch_format="pyarrow"),
        ["g"], ["n", "s", "ss"],
        pa.schema([("g", _STR), ("n", _I64), ("s", _F64), ("ss", _F64)]),
    ).to_pandas().set_index("g")
    na, nb = int(p.loc[AB_GROUP_A, "n"]), int(p.loc[AB_GROUP_B, "n"])
    ma = p.loc[AB_GROUP_A, "s"] / na
    mb = p.loc[AB_GROUP_B, "s"] / nb
    va = p.loc[AB_GROUP_A, "ss"] / na - ma * ma
    vb = p.loc[AB_GROUP_B, "ss"] / nb - mb * mb
    z = (ma - mb) / np.sqrt(va / na + vb / nb)
    return pa.table({
        "group_a": pa.array([AB_GROUP_A], pa.string()),
        "group_b": pa.array([AB_GROUP_B], pa.string()),
        "n_a": pa.array([na], pa.int64()),
        "n_b": pa.array([nb], pa.int64()),
        "mean_a": pa.array([round(float(ma), 6)], pa.float64()),
        "mean_b": pa.array([round(float(mb), 6)], pa.float64()),
        "z": pa.array([round(float(z), 6)], pa.float64()),
    })


def events_ab_ztest_sql() -> str:
    return f"""
WITH m AS (
  SELECT event_type AS g, count(*)::BIGINT AS n,
         sum(value) AS s, sum(value * value) AS ss
  FROM events WHERE event_type IN ('{AB_GROUP_A}', '{AB_GROUP_B}')
  GROUP BY 1
),
a AS (SELECT * FROM m WHERE g = '{AB_GROUP_A}'),
b AS (SELECT * FROM m WHERE g = '{AB_GROUP_B}')
SELECT '{AB_GROUP_A}' AS group_a, '{AB_GROUP_B}' AS group_b,
       a.n AS n_a, b.n AS n_b,
       round(a.s / a.n, 6) AS mean_a,
       round(b.s / b.n, 6) AS mean_b,
       round((a.s / a.n - b.s / b.n)
             / sqrt((a.ss / a.n - (a.s / a.n) * (a.s / a.n)) / a.n
                    + (b.ss / b.n - (b.s / b.n) * (b.s / b.n)) / b.n),
             6) AS z
FROM a, b
"""


def customer_spend_gini(sf_dir: str):
    """(n_customers, total_cents, gini): the Gini concentration
    coefficient of customer spend — the inequality statistic behind
    'top x% of customers drive y% of revenue'. Per-customer totals
    fold in one ``co_group`` on custkey (cents partials); the sorted
    rank-weighted sum G = sum((2i - n - 1) * x_(i)) / (n * sum x)
    runs on the customer-totals vector (driver-side here; the
    documented scale path replaces the exact sort with the KLL/
    value-histogram rank machinery the RFM op already uses). Totals
    are exact cents int64, the numerator is an exact integer, and
    gini is ONE division of identical integers — bit-identical both
    sides. Rank ties are safe: within a tied block the coefficient
    sum is permutation-invariant."""
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        cents = np.round(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        uk, inv = np.unique(ck, return_inverse=True)
        s = np.zeros(uk.size, dtype=np.int64)
        np.add.at(s, inv, cents)
        return pa.table({"c": uk, "cents": s})

    def fold(g) -> pd.DataFrame:
        return pd.DataFrame(g).groupby("c", as_index=False)["cents"].sum()

    schema = pa.schema([("c", _I64), ("cents", _I64)])
    totals = combine(co_group(fold, (
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]),
        partial, schema,
    )), ["c"], ["cents"], schema)
    n, total, gini = _gini_of_totals(totals["cents"].to_numpy())
    return pa.table({
        "n_customers": pa.array([n], pa.int64()),
        "total_cents": pa.array([total], pa.int64()),
        "gini": pa.array([gini], pa.float64()),
    })


def _gini_of_totals(cents: np.ndarray) -> tuple[int, int, float]:
    """(n, total, gini) of per-customer integer totals: G = sum((2i -
    n - 1) * x_(i)) / (n * sum x) over the ascending sort. The sums
    are exact Python ints (numpy int64 wraps silently once the
    rank-weighted sum passes 2**63), so gini is one division of exact
    integers."""
    x = np.sort(cents).tolist()
    n = len(x)
    total = sum(x)
    num = sum((2 * i - n - 1) * v for i, v in enumerate(x, 1))
    den = n * total
    return n, total, num / den if den else 0.0


def customer_spend_gini_sql() -> str:
    return """
WITH totals AS (
  SELECT o_custkey,
         sum(CAST(round(o_totalprice * 100.0) AS BIGINT)) AS cents
  FROM orders GROUP BY 1
),
ranked AS (
  SELECT cents,
         row_number() OVER (ORDER BY cents, o_custkey) AS i,
         count(*) OVER () AS n
  FROM totals
)
SELECT max(n)::BIGINT AS n_customers,
       sum(cents)::BIGINT AS total_cents,
       sum((2 * i - n - 1) * cents)::DOUBLE
         / (max(n) * sum(cents)) AS gini
FROM ranked
"""


def events_profile(sf_dir: str):
    """(column, n, n_null, n_distinct, min_num, max_num, min_str,
    max_str): the data-PROFILING operator (the Deequ / TFDV
    statistics pass a pipeline runs before trusting a new drop) over
    every events column. Two sized passes: (1) per-batch scalar
    partials (count, nulls, min, max — six scalars per column per
    block); (2) exact distinct counts via per-batch-DISTINCT
    (column, value) pairs through ONE column-keyed exchange, each
    group counting its unique values (numerics ride as int64 — ts as
    epoch-us, the 2-dp value column on the exact cents grid — and
    strings as strings, so no float-to-text formatting contract is
    needed anywhere). Scale note: the exact-distinct exchange is
    bounded by per-column cardinality; the HLL op
    (events_user_hll) is the documented sketch path when a column's
    distinct set outgrows a group."""
    import pandas as pd

    NUM_COLS = ("event_id", "ts", "user_id", "value")
    STR_COLS = ("event_type", "props")

    def _ival(batch: pa.Table, c: str) -> np.ndarray:
        if c == "ts":
            return batch["ts"].to_numpy(zero_copy_only=False).astype(
                "datetime64[us]"
            ).astype(np.int64)
        if c == "value":
            return np.round(
                batch["value"].to_numpy(zero_copy_only=False) * 100.0
            ).astype(np.int64)
        return batch[c].to_numpy(zero_copy_only=False).astype(np.int64)

    def stats_partial(batch: pa.Table) -> pa.Table:
        rows = []
        for c in NUM_COLS + STR_COLS:
            col = batch[c]
            nn = len(batch) - col.null_count
            if c in NUM_COLS:
                v = _ival(batch, c)
                rows.append((c, len(batch), col.null_count,
                             float(v.min()) if nn else None,
                             float(v.max()) if nn else None,
                             None, None))
            else:
                v = col.to_numpy(zero_copy_only=False)
                rows.append((c, len(batch), col.null_count, None, None,
                             str(v.min()) if nn else None,
                             str(v.max()) if nn else None))
        return pa.table({
            "column": pa.array([r[0] for r in rows], pa.string()),
            "n": pa.array([r[1] for r in rows], pa.int64()),
            "n_null": pa.array([r[2] for r in rows], pa.int64()),
            "min_num": pa.array([r[3] for r in rows], pa.float64()),
            "max_num": pa.array([r[4] for r in rows], pa.float64()),
            "min_str": pa.array([r[5] for r in rows], pa.string()),
            "max_str": pa.array([r[6] for r in rows], pa.string()),
        })

    def pairs_partial(batch: pa.Table) -> pa.Table:
        cols, ivals, svals = [], [], []
        for c in NUM_COLS:
            u = np.unique(_ival(batch, c))
            cols += [c] * u.size
            ivals += u.tolist()
            svals += [None] * u.size
        for c in STR_COLS:
            u = pc.unique(
                batch[c].combine_chunks()
                if isinstance(batch[c], pa.ChunkedArray) else batch[c]
            )
            cols += [c] * len(u)
            ivals += [0] * len(u)
            svals += u.to_pylist()
        return pa.table({
            "column": pa.array(cols, pa.string()),
            "ival": pa.array(ivals, pa.int64()),
            "sval": pa.array(svals, pa.string()),
        })

    def count_distinct(g: pd.DataFrame) -> pd.DataFrame:
        c = g["column"].iloc[0]
        if c in NUM_COLS:
            nd = int(np.unique(g["ival"].to_numpy()).size)
        else:
            nd = int(g["sval"].nunique(dropna=False))
        return pd.DataFrame({"column": [c], "n_distinct": [nd]})

    ds = _read(sf_dir, "events")
    stats = (
        ds.map_batches(stats_partial, batch_format="pyarrow")
        .to_pandas()  # 6 x blocks
    )
    agg = stats.groupby("column").agg(
        n=("n", "sum"), n_null=("n_null", "sum"),
        min_num=("min_num", "min"), max_num=("max_num", "max"),
        min_str=("min_str", "min"), max_str=("max_str", "max"),
    )
    nd = (
        ds.map_batches(pairs_partial, batch_format="pyarrow")
        .groupby("column")
        .map_groups(count_distinct, batch_format="pandas")
        .to_pandas()
        .set_index("column")["n_distinct"]
    )
    names = sorted(NUM_COLS + STR_COLS)
    return pa.table({
        "column": pa.array(names, pa.string()),
        "n": pa.array([int(agg.loc[c, "n"]) for c in names], pa.int64()),
        "n_null": pa.array(
            [int(agg.loc[c, "n_null"]) for c in names], pa.int64()),
        "n_distinct": pa.array(
            [int(nd[c]) for c in names], pa.int64()),
        "min_num": pa.array(
            [agg.loc[c, "min_num"] for c in names], pa.float64()),
        "max_num": pa.array(
            [agg.loc[c, "max_num"] for c in names], pa.float64()),
        "min_str": pa.array(
            [None if pd.isna(agg.loc[c, "min_str"])
             else str(agg.loc[c, "min_str"]) for c in names],
            pa.string()),
        "max_str": pa.array(
            [None if pd.isna(agg.loc[c, "max_str"])
             else str(agg.loc[c, "max_str"]) for c in names],
            pa.string()),
    })


def events_profile_sql() -> str:
    num = {
        "event_id": "event_id",
        "ts": "epoch_us(ts)",
        "user_id": "user_id",
        "value": "CAST(round(value * 100.0) AS BIGINT)",
    }
    parts = []
    for c, expr in num.items():
        parts.append(f"""
(SELECT '{c}' AS "column", count(*)::BIGINT AS n,
        (count(*) - count({c}))::BIGINT AS n_null,
        count(DISTINCT {expr})::BIGINT AS n_distinct,
        CAST(min({expr}) AS DOUBLE) AS min_num,
        CAST(max({expr}) AS DOUBLE) AS max_num,
        NULL::VARCHAR AS min_str, NULL::VARCHAR AS max_str
 FROM events)""")
    for c in ("event_type", "props"):
        parts.append(f"""
(SELECT '{c}' AS "column", count(*)::BIGINT AS n,
        (count(*) - count({c}))::BIGINT AS n_null,
        count(DISTINCT {c})::BIGINT AS n_distinct,
        NULL::DOUBLE AS min_num, NULL::DOUBLE AS max_num,
        min({c}) AS min_str, max({c}) AS max_str
 FROM events)""")
    body = "\nUNION ALL\n".join(parts)
    return f'SELECT * FROM (\n{body}\n) ORDER BY "column"'


Q21_LATE_DAYS = 60


def q21_suppliers_who_kept_waiting(sf_dir: str, k: int = 100):
    """(s_name, n_name, numwait): the TPC-H Q21 shape — for finished
    orders ('F'), count late lineitems whose supplier was the ONLY
    late supplier in a MULTI-supplier order (correlated EXISTS +
    NOT EXISTS against the same fact table — the hardest TPC-H
    subquery shape; reference analog: the multi-way bag assembly of
    SURVEY J2). The reference tables carry no commit/receipt dates,
    so late = l_shipdate > o_orderdate + 60 days — the same
    documented convention as q4_order_priority.

    Shape: orders('F') ship (okey, odate); lineitem ships (okey,
    suppkey, shipdate); one ``co_group`` on orderkey co-locates each
    order with all its lineitems. Inside each group everything is
    vectorized: sorted-lookup odate attach, packed
    (okey<<20|supp) keys for the two distinct-supplier counts, a
    bincount per late row — no per-order Python loop. Partials are
    (suppkey, n) — at most #suppliers rows per group — and the
    supplier/nation names attach from small dims read once on the
    driver (J1 broadcast-dim discipline)."""
    import pandas as pd
    import pyarrow.parquet as _pq

    def finished(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["o_orderstatus"], "F"))

    def _nuniq(pair, orders):
        # distinct packed (order, supplier) pairs per order, per row
        uo, cnt = np.unique(np.unique(pair) >> 20, return_counts=True)
        pos, hit = sorted_lookup(uo, orders)
        out = np.zeros(orders.size, np.int64)
        out[hit] = cnt[pos[hit]]
        return out

    def waiting_partial(o, li) -> pd.DataFrame:
        rows, hit = _join_rows(o["o_orderkey"], li["l_orderkey"])
        pk, ship = li["l_orderkey"][hit], li["l_shipdate"][hit]
        supp = li["l_suppkey"][hit]
        odate = o["o_orderdate"][rows]
        late = ship > odate + np.timedelta64(Q21_LATE_DAYS, "D")
        # packed (order, supplier) keys for the two distinct counts
        # (ValueError, not assert: -O must not strip the guard into
        # silent key collisions — suppkey tops 2^20 past sf~100)
        if pk.size and (supp.max() >= (1 << 20) or pk.max() >= (1 << 43)):
            raise ValueError("q21 pack width exceeded; widen the key")
        pair = (pk << 20) | supp
        n_supp = _nuniq(pair, pk)           # distinct suppliers/order
        n_late = _nuniq(pair[late], pk)     # distinct LATE suppliers
        keep = late & (n_supp >= 2) & (n_late == 1)
        u, c = np.unique(supp[keep], return_counts=True)
        return pd.DataFrame({"supp": u, "numwait": c.astype(np.int64)})

    agg = combine(co_group(
        waiting_partial,
        (_read(sf_dir, "orders",
               ["o_orderkey", "o_orderdate", "o_orderstatus"]),
         finished,
         pa.schema([("o_orderkey", _I64), ("o_orderdate", _TS)])),
        (_read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_shipdate"]),
         None,
         pa.schema([("l_orderkey", _I64), ("l_suppkey", _I64),
                    ("l_shipdate", _TS)])),
    ), ["supp"], ["numwait"],
        pa.schema([("supp", _I64), ("numwait", _I64)]))
    supp = agg["supp"].to_numpy()
    sup = _pq.read_table(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_name", "s_nationkey"],
    ).to_pandas()  # small dim, driver-side (J1)
    nat = _pq.read_table(
        f"{sf_dir}/nation.parquet",
        columns=["n_nationkey", "n_name"],
    ).to_pandas()
    sup = sup.merge(
        nat, left_on="s_nationkey", right_on="n_nationkey"
    ).set_index("s_suppkey")
    df = pd.DataFrame({
        "s_name": sup.loc[supp, "s_name"].to_numpy(),
        "n_name": sup.loc[supp, "n_name"].to_numpy(),
        "numwait": agg["numwait"].to_numpy(),
    }).sort_values(
        ["numwait", "s_name"], ascending=[False, True]
    ).head(k)
    return pa.table({
        "s_name": pa.array(df["s_name"], pa.string()),
        "n_name": pa.array(df["n_name"], pa.string()),
        "numwait": pa.array(df["numwait"].to_numpy(np.int64)),
    })


def q21_suppliers_who_kept_waiting_sql(k: int = 100) -> str:
    return f"""
WITH l AS (
  SELECT l_orderkey, l_suppkey,
         l_shipdate > o_orderdate + INTERVAL {Q21_LATE_DAYS} DAY
           AS late
  FROM lineitem JOIN orders
    ON l_orderkey = o_orderkey AND o_orderstatus = 'F')
SELECT s_name, n_name, count(*)::BIGINT AS numwait
FROM l l1
JOIN supplier ON s_suppkey = l1.l_suppkey
JOIN nation ON n_nationkey = s_nationkey
WHERE l1.late
  AND EXISTS (SELECT 1 FROM l l2
              WHERE l2.l_orderkey = l1.l_orderkey
                AND l2.l_suppkey <> l1.l_suppkey)
  AND NOT EXISTS (SELECT 1 FROM l l3
                  WHERE l3.l_orderkey = l1.l_orderkey
                    AND l3.l_suppkey <> l1.l_suppkey AND l3.late)
GROUP BY s_name, n_name
ORDER BY numwait DESC, s_name
LIMIT {k}
"""


def events_rollup(sf_dir: str):
    """(event_type, hod, n, sum_value): GROUP BY ROLLUP(event_type,
    hour-of-day) — the three aggregation levels (finest, per-type
    subtotal, grand total) of a single pass, NULL marking each
    rolled-up column (the OLAP rollup shape; SURVEY A2's multi-level
    generalization). ONE map_batches pass computes finest-level
    (type, hod) partials per block, ``combine`` folds them once, and
    BOTH coarser levels are derived
    from the folded finest table (no second scan, no extra exchange:
    at 100 TB the rollup costs exactly what the finest groupby
    costs). sum_value rounded to 2dp per level AFTER the fold, the
    module rounding contract."""
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        hod = pc.hour(batch["ts"]).cast(pa.int64())
        t = pa.table({
            "event_type": batch["event_type"].cast(pa.string()),
            "hod": hod,
            "value": batch["value"],
        })
        g = t.group_by(["event_type", "hod"]).aggregate(
            [([], "count_all"), ("value", "sum")]
        )
        return agg_select(g, {
            "event_type": "event_type", "hod": "hod",
            "count_all": "n", "value_sum": "sv",
        })

    fine = combine(
        _read(sf_dir, "events", ["event_type", "ts", "value"])
        .map_batches(partial, batch_format="pyarrow"),
        ["event_type", "hod"], ["n", "sv"],
        pa.schema([("event_type", _STR), ("hod", _I64), ("n", _I64),
                   ("sv", _F64)]),
    ).to_pandas()
    by_type = fine.groupby("event_type", as_index=False).agg(
        n=("n", "sum"), sv=("sv", "sum"))
    by_type["hod"] = pd.array([pd.NA] * len(by_type), dtype="Int64")
    total = pd.DataFrame({
        "event_type": [None],
        "hod": pd.array([pd.NA], dtype="Int64"),
        "n": [int(fine["n"].sum())],
        "sv": [float(fine["sv"].sum())],
    })
    fine["hod"] = fine["hod"].astype("Int64")
    out = pd.concat(
        [fine, by_type, total], ignore_index=True
    )[["event_type", "hod", "n", "sv"]]
    out = out.sort_values(
        ["event_type", "hod"], na_position="first"
    ).reset_index(drop=True)
    return pa.table({
        "event_type": pa.array(
            [None if v is None or v is pd.NA else str(v)
             for v in out["event_type"]], pa.string()),
        "hod": pa.array(
            [None if v is pd.NA else int(v) for v in out["hod"]],
            pa.int64()),
        "n": pa.array(out["n"].to_numpy(np.int64)),
        "sum_value": pa.array(
            np.round(out["sv"].to_numpy(np.float64), 2)),
    })


def events_rollup_sql() -> str:
    return """
SELECT event_type,
       CAST(extract(hour FROM ts) AS BIGINT) AS hod,
       count(*)::BIGINT AS n,
       round(sum(value), 2) AS sum_value
FROM events
GROUP BY ROLLUP(event_type, hod)
ORDER BY event_type NULLS FIRST, hod NULLS FIRST
"""


def events_global_running_total(sf_dir: str):
    """(event_id, running): the GLOBAL cumulative value sum in
    (ts, event_id) order — the distributed prefix-scan primitive
    (running ledger balance / cumulative-traffic curve). Unlike
    ``events_running_total`` there is no partitioning key to hide
    behind: the scan couples every row to every earlier row.

    Two-phase exclusive-scan shape (Blelloch): phase 1 buckets rows
    by calendar day — CONTIGUOUS in the scan order, so bucket sums
    compose — and each group emits (day, sum, rows) partials; the
    driver folds the day-sized table into exclusive prefix OFFSETS;
    phase 2 re-streams each day group, lexsorts (ts, event_id) once,
    cumsums vectorized, and adds the broadcast day offset. No global
    sort, no serial pass: both phases are ONE coarse exchange each,
    and the only driver state is days-sized. Rounded to 2 dp (the
    running_total rounding contract: 2-dp cent grid, float error five
    orders below; also absorbs DuckDB's segment-tree summation
    order)."""
    import pandas as pd
    import ray

    def tag(batch: pa.Table) -> pa.Table:
        day = pc.floor_temporal(batch["ts"], unit="day")
        return pa.table({
            "day": day.cast(pa.int64()),
            "event_id": batch["event_id"].cast(pa.int64()),
            "ts": batch["ts"],
            "value": batch["value"],
        })

    tagged = _read(sf_dir, "events", ["event_id", "ts", "value"]) \
        .map_batches(tag, batch_format="pyarrow")

    def day_partial(batch: pa.Table) -> pa.Table:
        d = batch["day"].to_numpy(zero_copy_only=False)
        v = batch["value"].to_numpy(zero_copy_only=False)
        ud, inv = np.unique(d, return_inverse=True)
        s = np.zeros(ud.size, np.float64)
        np.add.at(s, inv, v)
        return pa.table({
            "day": pa.array(ud),
            "s": pa.array(s, pa.float64()),
        })

    days = combine(
        tagged.map_batches(day_partial, batch_format="pyarrow"),
        ["day"], ["s"], pa.schema([("day", _I64), ("s", _F64)]),
    )
    offsets = dict(zip(
        days["day"].to_numpy(),
        np.concatenate([[0.0], days["s"].to_numpy().cumsum()[:-1]]),
    ))
    oref = ray.put(offsets)

    def scan_day(g: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(oref)[int(g["day"].iloc[0])]
        order = np.lexsort((
            g["event_id"].to_numpy(), g["ts"].to_numpy(),
        ))
        v = g["value"].to_numpy()[order]
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy()[order],
            "running": np.round(v.cumsum() + off, 2),
        })

    return (
        tagged.groupby("day")
        .map_groups(scan_day, batch_format="pandas")
        .select_columns(["event_id", "running"])
    )


def events_global_running_total_sql() -> str:
    return """
SELECT event_id,
       round(sum(value) OVER (
         ORDER BY ts, event_id
         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW), 2)
         AS running
FROM events
ORDER BY ts, event_id
"""


def basket_rules(
    sf_dir: str, min_support: int = BASKET_MIN_SUPPORT,
    k: int = BASKET_K,
):
    """(antecedent, consequent, n_ab, confidence, lift): association
    rules over the surviving top-k 2-itemsets — both directions of
    each pair with confidence = s(ab)/s(a) and lift =
    n_baskets*s(ab) / (s(a)*s(b)) (Agrawal & Srikant 1994's rule
    step on top of basket_part_pairs' candidate step).

    Shape: the pair mining reuses ``basket_part_pairs`` wholesale;
    item supports are then counted for ONLY the parts appearing in
    the top-k rule set (broadcast-needed-set, the bigram_pmi
    discipline) in one ``co_group`` on orderkey that also counts
    distinct baskets via per-group sentinel rows (order-key space is
    partitioned by the exchange, so per-group distinct counts sum
    exactly). Ratios are single divisions of identical integer
    operands on both engines, rounded to 6dp."""
    import pandas as pd
    import ray

    top = basket_part_pairs(sf_dir, min_support, k).to_pandas()
    empty = pa.table({
        "antecedent": pa.array([], pa.int64()),
        "consequent": pa.array([], pa.int64()),
        "n_ab": pa.array([], pa.int64()),
        "confidence": pa.array([], pa.float64()),
        "lift": pa.array([], pa.float64()),
    })
    if not len(top):
        return empty
    need = np.unique(np.concatenate(
        [top["part_a"].to_numpy(np.int64),
         top["part_b"].to_numpy(np.int64)]
    ))
    nref = ray.put(need)

    def tag(batch: pa.Table) -> pa.Table:
        nd = ray.get(nref)
        t = pa.table({
            "okey": batch["l_orderkey"].cast(pa.int64()),
            "part": batch["l_partkey"].cast(pa.int64()),
        }).group_by(["okey", "part"]).aggregate([])
        ok = t["okey"].to_numpy(zero_copy_only=False)
        pt = t["part"].to_numpy(zero_copy_only=False)
        keep = np.isin(pt, nd)
        uok = np.unique(ok)
        okk = np.concatenate([ok[keep], uok])
        ptt = np.concatenate([pt[keep],
                              np.full(uok.size, -1, np.int64)])
        return pa.table({"okey": okk, "part": ptt})

    def support_partial(g) -> pd.DataFrame:
        ok, pt = g["okey"], g["part"]
        order = np.lexsort((pt, ok))
        ok, pt = ok[order], pt[order]
        uniq = np.ones(ok.size, dtype=bool)
        uniq[1:] = (ok[1:] != ok[:-1]) | (pt[1:] != pt[:-1])
        ok, pt = ok[uniq], pt[uniq]
        up, cnt = np.unique(pt, return_counts=True)
        return pd.DataFrame({"part": up, "s": cnt.astype("int64")})

    sup = combine(co_group(support_partial, (
        _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"]),
        tag, pa.schema([("okey", _I64), ("part", _I64)]),
    )), ["part"], ["s"], pa.schema([("part", _I64), ("s", _I64)]))
    smap = dict(zip(sup["part"].to_numpy(), sup["s"].to_numpy()))
    n_baskets = int(smap.pop(-1))
    a = np.concatenate([top["part_a"].to_numpy(np.int64),
                        top["part_b"].to_numpy(np.int64)])
    b = np.concatenate([top["part_b"].to_numpy(np.int64),
                        top["part_a"].to_numpy(np.int64)])
    nab = np.concatenate([top["n_orders"].to_numpy(np.int64)] * 2)
    sa = np.array([smap[x] for x in a], dtype=np.int64)
    sb = np.array([smap[x] for x in b], dtype=np.int64)
    conf = np.round(nab.astype(np.float64) / sa.astype(np.float64), 6)
    lift = np.round(
        (n_baskets * nab).astype(np.float64)
        / (sa * sb).astype(np.float64), 6,
    )
    order = np.lexsort((b, a))
    return pa.table({
        "antecedent": pa.array(a[order]),
        "consequent": pa.array(b[order]),
        "n_ab": pa.array(nab[order]),
        "confidence": pa.array(conf[order], pa.float64()),
        "lift": pa.array(lift[order], pa.float64()),
    })


def basket_rules_sql(
    min_support: int = BASKET_MIN_SUPPORT, k: int = BASKET_K
) -> str:
    top = basket_part_pairs_sql(min_support, k).strip()
    return f"""
WITH top AS ({top}),
bparts AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
isup AS (
  SELECT l_partkey, count(*)::BIGINT AS s FROM bparts GROUP BY 1),
tot AS (
  SELECT count(DISTINCT l_orderkey)::BIGINT AS n_baskets
  FROM lineitem),
rules AS (
  SELECT part_a AS antecedent, part_b AS consequent, n_orders AS n_ab
  FROM top
  UNION ALL
  SELECT part_b, part_a, n_orders FROM top)
SELECT r.antecedent, r.consequent, r.n_ab,
       round(CAST(r.n_ab AS DOUBLE) / CAST(sa.s AS DOUBLE), 6)
         AS confidence,
       round(CAST(t.n_baskets * r.n_ab AS DOUBLE)
             / CAST(sa.s * sb.s AS DOUBLE), 6) AS lift
FROM rules r
JOIN isup sa ON sa.l_partkey = r.antecedent
JOIN isup sb ON sb.l_partkey = r.consequent
CROSS JOIN tot t
ORDER BY antecedent, consequent
"""


XCORR_TYPE_A = "click"
XCORR_TYPE_B = "purchase"
XCORR_MAX_LAG = 6


def events_cross_correlation(
    sf_dir: str, type_a: str = XCORR_TYPE_A, type_b: str = XCORR_TYPE_B,
    max_lag: int = XCORR_MAX_LAG,
):
    """(lag, r): Pearson cross-correlation between the DENSE hourly
    count series of two event types at lags -max_lag..max_lag
    (does `type_a` activity lead `type_b` conversions? — the
    time-series lead/lag diagnostic). Per-batch (type, hour) count
    partials (types x hours-sized) for ``combine``; the dense grid,
    the lag shifts and the moment sums are all hours-sized driver
    math (the events_moving_avg discipline). r is computed from the
    INTEGER moment sums (n, Sx, Sy, Sxx, Syy, Sxy — exact int64 on
    both engines) with one double division, rounded to 6dp — no
    accumulation-order contract needed."""

    def partial(batch: pa.Table) -> pa.Table:
        hr = pc.divide(
            pc.cast(pc.floor_temporal(batch["ts"], unit="hour"),
                    pa.int64()),
            3600 * 1_000_000,
        )
        t = pa.table({
            "event_type": batch["event_type"].cast(pa.string()),
            "hr": hr,
        })
        g = t.group_by(["event_type", "hr"]).aggregate(
            [([], "count_all")]
        )
        return agg_select(g, {
            "event_type": "event_type", "hr": "hr", "count_all": "n",
        })

    parts = combine(
        _read(sf_dir, "events", ["event_type", "ts"])
        .map_batches(partial, batch_format="pyarrow"),
        ["event_type", "hr"], ["n"],
        pa.schema([("event_type", _STR), ("hr", _I64), ("n", _I64)]),
    ).to_pandas()
    if not len(parts):
        return pa.table({
            "lag": pa.array([], pa.int64()),
            "r": pa.array([], pa.float64()),
        })
    lo, hi = int(parts["hr"].min()), int(parts["hr"].max())
    H = hi - lo + 1

    def series(t: str) -> np.ndarray:
        s = np.zeros(H, np.int64)
        sel = parts[parts["event_type"] == t]
        s[sel["hr"].to_numpy(np.int64) - lo] = sel["n"].to_numpy(np.int64)
        return s

    A, B = series(type_a), series(type_b)
    lags, rs = [], []
    for lag in range(-max_lag, max_lag + 1):
        # y = B at (hr + lag): pair A[t] with B[t + lag], both in grid
        if lag >= 0:
            x, y = A[: H - lag], B[lag:]
        else:
            x, y = A[-lag:], B[: H + lag]
        # moment products in PYTHON ints (arbitrary precision): at
        # year-scale windows with large hourly counts n*sxy tops
        # int64 and numpy would wrap silently where the SQL side
        # errors loudly — exactness is kept at any magnitude
        n = int(x.size)
        xi = [int(v) for v in x]  # hours-sized driver lists
        yi = [int(v) for v in y]
        sx, sy = sum(xi), sum(yi)
        sxx = sum(v * v for v in xi)
        syy = sum(v * v for v in yi)
        sxy = sum(a * b for a, b in zip(xi, yi))
        num = float(n * sxy - sx * sy)
        den = np.sqrt(
            float(n * sxx - sx * sx) * float(n * syy - sy * sy)
        )
        lags.append(lag)
        rs.append(round(float(num / den), 6) if den else None)
    return pa.table({
        "lag": pa.array(lags, pa.int64()),
        "r": pa.array(rs, pa.float64()),
    })


def events_cross_correlation_sql(
    type_a: str = XCORR_TYPE_A, type_b: str = XCORR_TYPE_B,
    max_lag: int = XCORR_MAX_LAG,
) -> str:
    return f"""
WITH h AS (
  SELECT CAST(epoch(date_trunc('hour', ts)) / 3600 AS BIGINT) AS hr,
         event_type
  FROM events),
bounds AS (SELECT min(hr) AS lo, max(hr) AS hi FROM h),
grid AS (
  SELECT unnest(generate_series(lo, hi)) AS hr FROM bounds),
a AS (SELECT hr, count(*)::BIGINT AS n FROM h
      WHERE event_type = '{type_a}' GROUP BY 1),
b AS (SELECT hr, count(*)::BIGINT AS n FROM h
      WHERE event_type = '{type_b}' GROUP BY 1),
sa AS (SELECT g.hr, coalesce(a.n, 0)::BIGINT AS x
       FROM grid g LEFT JOIN a USING (hr)),
sb AS (SELECT g.hr, coalesce(b.n, 0)::BIGINT AS y
       FROM grid g LEFT JOIN b USING (hr)),
lags AS (SELECT unnest(generate_series(-{max_lag}, {max_lag})) AS lag),
joined AS (
  SELECT l.lag, sa.x, sb.y
  FROM lags l
  JOIN sa ON TRUE
  JOIN sb ON sb.hr = sa.hr + l.lag),
m AS (
  SELECT lag, count(*)::BIGINT AS n,
         sum(x)::BIGINT AS sx, sum(y)::BIGINT AS sy,
         sum(x * x)::BIGINT AS sxx, sum(y * y)::BIGINT AS syy,
         sum(x * y)::BIGINT AS sxy
  FROM joined GROUP BY lag)
SELECT lag,
       round(CAST(n * sxy - sx * sy AS DOUBLE)
             / sqrt(CAST(n * sxx - sx * sx AS DOUBLE)
                    * CAST(n * syy - sy * sy AS DOUBLE)), 6) AS r
FROM m ORDER BY lag
"""


def customer_cohort_ltv(sf_dir: str):
    """(cohort_month, age_months, n_orders, revenue_cents): cohort
    lifetime-value matrix — customers grouped by FIRST-order month,
    each order attributed to its cohort at its age in months (0 =
    the acquisition month); the cumulative row-sum of revenue_cents
    is the classic LTV curve (events_retention's revenue-weighted
    generalization). One ``co_group`` on custkey co-locates each
    customer's orders; per group a vectorized segment-min finds every
    customer's cohort and every order self-attributes — partials are
    (cohorts x ages)-sized. Revenue
    in exact e-2 cents (int64), the q9/q17 integer-units rule."""
    import pandas as pd

    def tag(batch: pa.Table) -> pa.Table:
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        od = batch["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[M]")
        mon = od.astype(np.int64)  # months since the 1970 epoch
        cents = np.round(
            batch["o_totalprice"].to_numpy(zero_copy_only=False)
            * 100.0
        ).astype(np.int64)
        return pa.table({"ck": ck, "mon": mon, "cents": cents})

    def cohort_partial(g) -> pd.DataFrame:
        ck, mon, cents = g["ck"], g["mon"], g["cents"]
        order = np.lexsort((mon, ck))
        ck, mon, cents = ck[order], mon[order], cents[order]
        new = np.ones(ck.size, dtype=bool)
        new[1:] = ck[1:] != ck[:-1]
        seg = np.cumsum(new) - 1
        first = mon[new][seg]          # per-order cohort month
        age = mon - first
        key = first * 10_000 + age     # packed (cohort, age)
        uk, inv = np.unique(key, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        rev = np.zeros(uk.size, np.int64)
        np.add.at(rev, inv, cents)
        return pd.DataFrame({"key": uk, "n_orders": n, "revenue_cents": rev})

    sums = ["n_orders", "revenue_cents"]
    agg = combine(co_group(cohort_partial, (
        _read(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"]),
        tag, pa.schema([("ck", _I64), ("mon", _I64), ("cents", _I64)]),
    )), ["key"], sums, pa.schema([("key", _I64)] + [(c, _I64) for c in sums]))
    key = agg["key"].to_numpy()
    mon0 = key // 10_000
    yr, mo = mon0 // 12 + 1970, mon0 % 12 + 1
    return pa.table({
        "cohort_month": pa.array(
            [f"{y:04d}-{m:02d}" for y, m in zip(yr, mo)], pa.string()),
        "age_months": pa.array((key % 10_000).astype(np.int64)),
        "n_orders": agg["n_orders"],
        "revenue_cents": agg["revenue_cents"],
    })


def customer_cohort_ltv_sql() -> str:
    return """
WITH o AS (
  SELECT o_custkey,
         (CAST(extract(year FROM o_orderdate) AS BIGINT) * 12
          + CAST(extract(month FROM o_orderdate) AS BIGINT) - 1)
           AS mon,
         CAST(round(o_totalprice * 100.0) AS BIGINT) AS cents
  FROM orders),
c AS (SELECT o_custkey, min(mon) AS first_mon FROM o GROUP BY 1)
SELECT printf('%04d-%02d', first_mon // 12, first_mon % 12 + 1)
         AS cohort_month,
       (o.mon - c.first_mon)::BIGINT AS age_months,
       count(*)::BIGINT AS n_orders,
       sum(o.cents)::BIGINT AS revenue_cents
FROM o JOIN c USING (o_custkey)
GROUP BY c.first_mon, age_months
ORDER BY cohort_month, age_months
"""


RAU_WINDOW_DAYS = 7


def events_rolling_active_users(
    sf_dir: str, window_days: int = RAU_WINDOW_DAYS
):
    """(day, active_users): trailing-window distinct actives — for
    every day in the dense grid, the number of DISTINCT users with an
    event in the last ``window_days`` days (the WAU/rolling-actives
    product metric; COUNT(DISTINCT) OVER a range frame, which window
    engines can't stream). One ``co_group`` on user_id: within a
    group each user's event days expand to the <= 7 window-end days
    they cover and dedup LOCALLY (user is the partition key, so
    per-user dedup IS global dedup — no second distinct exchange);
    partials are (days x groups)-sized per-day user counts, and the
    folded counts zero-fill the grid. Packed (user<<16 | dayidx)
    keys, guarded."""
    import pandas as pd

    def user_days(batch: pa.Table) -> pa.Table:
        day = pc.cast(
            pc.floor_temporal(batch["ts"], unit="day"), pa.int64()
        ).to_numpy(zero_copy_only=False) // (86_400 * 1_000_000)
        t = pa.table({"user_id": batch["user_id"], "day": day})
        return t.group_by(["user_id", "day"]).aggregate([])  # distinct

    def window_partial(g) -> pd.DataFrame:
        u, d = g["user_id"], g["day"]
        base = d.min()
        rel = d - base
        if rel.max() + window_days >= (1 << 16):
            raise ValueError("day span exceeds pack width")
        # expand each (user, day) to its window-end days, dedup per
        # user via the packed key (user is the exchange key: local
        # dedup is global dedup)
        wd = (rel[:, None] + np.arange(window_days)).ravel()
        uu = np.repeat(u, window_days)
        key = np.unique((uu << 16) | wd)
        days = (key & 0xFFFF) + base
        ud, cnt = np.unique(days, return_counts=True)
        return pd.DataFrame({"day": ud, "active_users": cnt.astype("int64")})

    agg = combine(co_group(window_partial, (
        _read(sf_dir, "events", ["user_id", "ts"]),
        user_days, pa.schema([("user_id", _I64), ("day", _I64)]),
    )), ["day"], ["active_users"],
        pa.schema([("day", _I64), ("active_users", _I64)]))
    # the data's day range defines the grid; windows ending past the
    # last observed day are not reported (the SQL grid rule).
    # Window-end days run from min_event_day to max_event_day +
    # window_days - 1; the grid is [min_event_day, max_event_day]
    ev_days, n = agg["day"].to_numpy(), agg["active_users"].to_numpy()
    lo = int(ev_days[0])
    hi = int(ev_days[-1]) - (window_days - 1)
    grid = np.arange(lo, hi + 1, dtype=np.int64)
    vals = np.zeros(grid.size, np.int64)
    inside = ev_days <= hi
    vals[ev_days[inside] - lo] = n[inside]
    return pa.table({
        "day": pa.array(grid),
        "active_users": pa.array(vals),
    })


def events_rolling_active_users_sql(
    window_days: int = RAU_WINDOW_DAYS,
) -> str:
    return f"""
WITH d AS (
  SELECT DISTINCT user_id,
         CAST(epoch(date_trunc('day', ts)) / 86400 AS BIGINT) AS day
  FROM events),
b AS (SELECT min(day) AS lo, max(day) AS hi FROM d),
grid AS (SELECT unnest(generate_series(lo, hi)) AS day FROM b),
w AS (
  SELECT g.day, dd.user_id
  FROM grid g LEFT JOIN d dd
    ON dd.day BETWEEN g.day - {window_days - 1} AND g.day)
SELECT day, count(DISTINCT user_id)::BIGINT AS active_users
FROM w GROUP BY day ORDER BY day
"""


STICKINESS_MAU_DAYS = 28


def events_stickiness(
    sf_dir: str, mau_days: int = STICKINESS_MAU_DAYS
):
    """(day, dau, mau, stickiness): the DAU/MAU engagement ratio per
    dense day (trailing ``mau_days`` actives as the denominator) —
    the product-analytics composition of two rolling-active windows.
    Reuses ``events_rolling_active_users`` wholesale at W=1 and
    W=mau_days (two exchanges total); both grids are the same
    [min_day, max_day] so the join is a driver-side zip. stickiness
    = dau/mau from identical integer operands, 6dp."""
    dau = events_rolling_active_users(sf_dir, 1).to_pandas()
    mau = events_rolling_active_users(sf_dir, mau_days).to_pandas()
    m = dau.merge(mau, on="day", suffixes=("_d", "_m"))
    d = m["active_users_d"].to_numpy(np.int64)
    u = m["active_users_m"].to_numpy(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        st = np.where(
            u > 0,
            np.round(d.astype(np.float64) / u.astype(np.float64), 6),
            np.nan,
        )
    return pa.table({
        "day": pa.array(m["day"].to_numpy(np.int64)),
        "dau": pa.array(d),
        "mau": pa.array(u),
        "stickiness": pa.array(
            [None if not np.isfinite(v) else float(v) for v in st],
            pa.float64()),
    })


def events_stickiness_sql(
    mau_days: int = STICKINESS_MAU_DAYS,
) -> str:
    def win(w: int, name: str) -> str:
        return f"""
{name} AS (
  SELECT g.day, count(DISTINCT dd.user_id)::BIGINT AS n
  FROM grid g LEFT JOIN d dd
    ON dd.day BETWEEN g.day - {w - 1} AND g.day
  GROUP BY g.day)"""

    return f"""
WITH d AS (
  SELECT DISTINCT user_id,
         CAST(epoch(date_trunc('day', ts)) / 86400 AS BIGINT) AS day
  FROM events),
b AS (SELECT min(day) AS lo, max(day) AS hi FROM d),
grid AS (SELECT unnest(generate_series(lo, hi)) AS day FROM b),
{win(1, 'dau_t')},
{win(mau_days, 'mau_t')}
SELECT g.day,
       coalesce(dau_t.n, 0)::BIGINT AS dau,
       coalesce(mau_t.n, 0)::BIGINT AS mau,
       CASE WHEN coalesce(mau_t.n, 0) > 0
            THEN round(CAST(coalesce(dau_t.n, 0) AS DOUBLE)
                       / CAST(mau_t.n AS DOUBLE), 6)
            ELSE NULL END AS stickiness
FROM grid g
LEFT JOIN dau_t ON dau_t.day = g.day
LEFT JOIN mau_t ON mau_t.day = g.day
ORDER BY g.day
"""


def events_type_cooccurrence(sf_dir: str):
    """(type_a, type_b, n_both, n_a, n_b, jaccard): user-level
    co-engagement between event types — for each unordered type pair,
    how many distinct users did BOTH, and the Jaccard overlap
    |A∩B| / |A∪B| (the "users who X also Y" product analytic). One
    ``co_group`` on user_id; within a group each user's distinct
    type set (<= n_types) expands to its triangular type pairs
    VECTORIZED (segment-offset arithmetic, no per-user loop); partials
    are (types^2 + types)-sized. Jaccard divides identical integer
    operands on both engines, 6dp."""
    import pandas as pd

    def distinct(batch: pa.Table) -> pa.Table:
        return batch.group_by(["user_id", "event_type"]).aggregate([])

    def pair_partial(g) -> pd.DataFrame:
        u, ty = g["user_id"], g["event_type"]
        order = np.lexsort((ty, u))
        u, ty = u[order], ty[order]
        uniq = np.ones(u.size, dtype=bool)
        uniq[1:] = (u[1:] != u[:-1]) | (ty[1:] != ty[:-1])
        u, ty = u[uniq], ty[uniq]
        # singles: (t, t) rows carry per-type distinct-user counts
        st, sc = np.unique(ty, return_counts=True)
        rows = [pd.DataFrame({
            "type_a": st, "type_b": st, "n": sc.astype("int64"),
        })]
        # triangular pair expansion per user segment (basket kernel)
        new = np.ones(u.size, dtype=bool)
        new[1:] = u[1:] != u[:-1]
        seg = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, u.size))
        local = np.arange(u.size) - starts[seg]
        reps = lens[seg] - 1 - local
        total = int(reps.sum())
        if total:
            first = np.repeat(np.arange(u.size), reps)
            base = np.concatenate(([0], np.cumsum(reps)[:-1]))
            second = first + (np.arange(total)
                              - np.repeat(base, reps)) + 1
            ta, tb = ty[first], ty[second]  # sorted within user
            pairs = pd.DataFrame({"type_a": ta, "type_b": tb})
            rows.append(
                pairs.groupby(["type_a", "type_b"], as_index=False)
                .size().rename(columns={"size": "n"})
            )
        return pd.concat(rows, ignore_index=True)

    keys = ["type_a", "type_b"]
    agg = combine(co_group(pair_partial, (
        _read(sf_dir, "events", ["user_id", "event_type"]),
        distinct, pa.schema([("user_id", _I64), ("event_type", _STR)]),
    )), keys, ["n"], pa.schema([(k, _STR) for k in keys] + [("n", _I64)]),
    ).to_pandas().set_index(keys)["n"]
    singles = {t: int(agg.loc[(t, t)])
               for (t, tb) in agg.index if t == tb}
    out = []
    for (a, b), nab in agg.items():
        if a == b:
            continue
        na, nb = singles[a], singles[b]
        union = na + nb - int(nab)
        out.append((a, b, int(nab), na, nb,
                    round(int(nab) / union, 6) if union else None))
    out.sort()
    return pa.table({
        "type_a": pa.array([r[0] for r in out], pa.string()),
        "type_b": pa.array([r[1] for r in out], pa.string()),
        "n_both": pa.array([r[2] for r in out], pa.int64()),
        "n_a": pa.array([r[3] for r in out], pa.int64()),
        "n_b": pa.array([r[4] for r in out], pa.int64()),
        "jaccard": pa.array([r[5] for r in out], pa.float64()),
    })


def events_type_cooccurrence_sql() -> str:
    return """
WITH d AS (SELECT DISTINCT user_id, event_type FROM events),
s AS (SELECT event_type, count(*)::BIGINT AS n FROM d GROUP BY 1),
p AS (
  SELECT a.event_type AS type_a, b.event_type AS type_b,
         count(*)::BIGINT AS n_both
  FROM d a JOIN d b
    ON a.user_id = b.user_id AND a.event_type < b.event_type
  GROUP BY 1, 2)
SELECT p.type_a, p.type_b, p.n_both, sa.n AS n_a, sb.n AS n_b,
       round(CAST(p.n_both AS DOUBLE)
             / CAST(sa.n + sb.n - p.n_both AS DOUBLE), 6) AS jaccard
FROM p
JOIN s sa ON sa.event_type = p.type_a
JOIN s sb ON sb.event_type = p.type_b
ORDER BY type_a, type_b
"""


def parts_brand_type_chi2(sf_dir: str):
    """(chi2, dof, n): Pearson chi-square independence statistic over
    the brand x type contingency table of parts — "is product type
    distributed independently of brand?" (the categorical sibling of
    events_ab_ztest's two-sample test; A2 multi-aggregate family).
    Per-batch (brand, type) count partials — (brands x types)-sized —
    for ``combine``; chi2 = sum (O - E)^2 / E with E = row*col/n
    computed from the folded EXACT integer counts identically on both
    engines (row/col/n products as Python ints, one double division
    per cell), rounded to 6dp."""

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "brand": batch["p_brand"].cast(pa.string()),
            "ptype": batch["p_type"].cast(pa.string()),
        })
        g = t.group_by(["brand", "ptype"]).aggregate(
            [([], "count_all")]
        )
        return agg_select(g, {
            "brand": "brand", "ptype": "ptype", "count_all": "n",
        })

    parts = combine(
        _read(sf_dir, "part", ["p_brand", "p_type"])
        .map_batches(partial, batch_format="pyarrow"),
        ["brand", "ptype"], ["n"],
        pa.schema([("brand", _STR), ("ptype", _STR), ("n", _I64)]),
    ).to_pandas()
    if not len(parts):
        return pa.table({
            "chi2": pa.array([None], pa.float64()),
            "dof": pa.array([0], pa.int64()),
            "n": pa.array([0], pa.int64()),
        })
    obs = parts.pivot_table(
        index="brand", columns="ptype", values="n",
        fill_value=0, aggfunc="sum",
    )
    O = obs.to_numpy(np.int64)
    row = O.sum(axis=1)
    col = O.sum(axis=0)
    n = int(O.sum())
    chi2 = 0.0
    for i in range(O.shape[0]):
        for j in range(O.shape[1]):
            e = (int(row[i]) * int(col[j])) / n  # exact ints -> one div
            if e > 0:
                d = float(O[i, j]) - e
                chi2 += d * d / e
    dof = (O.shape[0] - 1) * (O.shape[1] - 1)
    return pa.table({
        "chi2": pa.array([round(chi2, 6)], pa.float64()),
        "dof": pa.array([dof], pa.int64()),
        "n": pa.array([n], pa.int64()),
    })


def parts_brand_type_chi2_sql() -> str:
    return """
WITH o AS (
  SELECT p_brand AS brand, p_type AS ptype, count(*)::BIGINT AS obs
  FROM part GROUP BY 1, 2),
r AS (SELECT brand, sum(obs)::BIGINT AS rn FROM o GROUP BY 1),
c AS (SELECT ptype, sum(obs)::BIGINT AS cn FROM o GROUP BY 1),
t AS (SELECT sum(obs)::BIGINT AS n FROM o),
cells AS (
  SELECT r.brand, c.ptype,
         coalesce(o.obs, 0)::BIGINT AS obs,
         CAST(r.rn * c.cn AS DOUBLE) / t.n AS e
  FROM r CROSS JOIN c CROSS JOIN t
  LEFT JOIN o ON o.brand = r.brand AND o.ptype = c.ptype)
SELECT round(sum((obs - e) * (obs - e) / e), 6) AS chi2,
       ((SELECT count(*) FROM r) - 1)
         * ((SELECT count(*) FROM c) - 1) AS dof,
       (SELECT n FROM t) AS n
FROM cells WHERE e > 0
"""


def orders_skyline(sf_dir: str):
    """(o_orderkey, o_totalprice, o_orderdate): the SKYLINE
    (Pareto-front) preference query — orders not DOMINATED in
    (totalprice, orderdate), where a dominates b iff a is >= on both
    dimensions and > on at least one (Borzsony et al. ICDE 2001).
    Duplicated (price, date) points all survive (no strict edge).

    Distribution soundness: the skyline operator is a semilattice —
    a locally dominated row is globally dominated — so each batch
    emits only ITS skyline (vectorized: per-price-level max date +
    exclusive running max across descending price levels) and the
    driver re-runs the same kernel on the candidate union, which is
    skyline-per-block-sized, never the table."""
    import pandas as pd

    def _sky(p: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Boolean skyline mask, exact tie semantics."""
        keep = np.zeros(p.size, bool)
        if not p.size:
            return keep
        up, inv = np.unique(-p, return_inverse=True)  # price desc
        lvl_max = np.full(up.size, np.iinfo(np.int64).min)
        np.maximum.at(lvl_max, inv, d)
        prevmax = np.concatenate((
            [np.iinfo(np.int64).min],
            np.maximum.accumulate(lvl_max)[:-1],
        ))
        lvl_ok = lvl_max > prevmax
        keep = lvl_ok[inv] & (d == lvl_max[inv])
        return keep

    def partial(batch: pa.Table) -> pa.Table:
        p = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        dt = batch["o_orderdate"].to_numpy(zero_copy_only=False) \
            .astype("datetime64[us]").astype(np.int64)
        keep = _sky(p, dt)
        return pa.table({
            "o_orderkey": batch["o_orderkey"].cast(pa.int64())
            .filter(pa.array(keep)),
            "p": pa.array(p[keep], pa.float64()),
            "d": pa.array(dt[keep]),
        })

    cand = (
        _read(sf_dir, "orders",
              ["o_orderkey", "o_totalprice", "o_orderdate"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()  # skyline-per-block-sized candidates
    )
    if not len(cand):
        return pa.table({
            "o_orderkey": pa.array([], pa.int64()),
            "o_totalprice": pa.array([], pa.float64()),
            "o_orderdate": pa.array([], pa.timestamp("us")),
        })
    p = cand["p"].to_numpy(np.float64)
    dt = cand["d"].to_numpy(np.int64)
    keep = _sky(p, dt)
    out = cand[keep].sort_values("o_orderkey")
    return pa.table({
        "o_orderkey": pa.array(out["o_orderkey"].to_numpy(np.int64)),
        "o_totalprice": pa.array(out["p"].to_numpy(np.float64)),
        "o_orderdate": pa.array(
            out["d"].to_numpy(np.int64).astype("datetime64[us]"),
            pa.timestamp("us")),
    })


def orders_skyline_sql() -> str:
    return """
WITH lv AS (
  SELECT o_totalprice AS p, max(o_orderdate) AS d
  FROM orders GROUP BY 1),
sky AS (
  SELECT p, d FROM (
    SELECT p, d,
           max(d) OVER (ORDER BY p DESC
                        ROWS BETWEEN UNBOUNDED PRECEDING
                        AND 1 PRECEDING) AS prevmax
    FROM lv)
  WHERE prevmax IS NULL OR d > prevmax)
SELECT o.o_orderkey, o.o_totalprice, o.o_orderdate
FROM orders o JOIN sky
  ON o.o_totalprice = sky.p AND o.o_orderdate = sky.d
ORDER BY o_orderkey
"""


EWMA_ALPHA = 0.3


def events_hourly_ewma(sf_dir: str, alpha: float = EWMA_ALPHA):
    """(hr, n, ewma): exponentially weighted moving average over the
    DENSE hourly event-count series — v_t = alpha*x_t +
    (1-alpha)*v_{t-1}, v_0 = x_0 (the ES moving_fn ewma / holt
    family's first member; the recency-weighted smoother the plain
    moving average can't express). The recurrence runs over the
    hours-sized ``_hourly_counts`` series —
    and the SQL oracle is a RECURSIVE CTE evaluating the IDENTICAL
    recurrence, so both engines execute the same float sequence
    (rounded to 6dp at the end only)."""
    grid, n = _hourly_counts(sf_dir)
    ew = n.astype(np.float64)  # v_0 = x_0
    a = float(alpha)
    for i in range(1, grid.size):  # hours-sized driver recurrence
        ew[i] = a * float(n[i]) + (1.0 - a) * ew[i - 1]
    return pa.table({
        "hr": pa.array(grid),
        "n": pa.array(n),
        "ewma": pa.array(np.round(ew, 6), pa.float64()),
    })


def events_hourly_ewma_sql(alpha: float = EWMA_ALPHA) -> str:
    return f"""
WITH RECURSIVE c AS (
  SELECT CAST(epoch(date_trunc('hour', ts)) / 3600 AS BIGINT) AS hr,
         count(*)::BIGINT AS n
  FROM events GROUP BY 1),
b AS (SELECT min(hr) AS lo, max(hr) AS hi FROM c),
grid AS (
  SELECT g.hr, row_number() OVER (ORDER BY g.hr) - 1 AS i,
         coalesce(c.n, 0)::BIGINT AS n
  FROM (SELECT unnest(generate_series(lo, hi)) AS hr FROM b) g
  LEFT JOIN c USING (hr)),
r AS (
  SELECT hr, i, n, CAST(n AS DOUBLE) AS ewma FROM grid WHERE i = 0
  UNION ALL
  SELECT g.hr, g.i, g.n,
         {alpha} * CAST(g.n AS DOUBLE) + (1.0 - {alpha}) * r.ewma
  FROM grid g JOIN r ON g.i = r.i + 1)
SELECT hr, n, round(ewma, 6) AS ewma FROM r ORDER BY hr
"""


HOLT_ALPHA = 0.3
HOLT_BETA = 0.1


def events_hourly_holt(
    sf_dir: str, alpha: float = HOLT_ALPHA, beta: float = HOLT_BETA
):
    """(hr, n, level, trend): Holt double-exponential smoothing over
    the dense hourly count series — level l_t = a*x_t +
    (1-a)*(l_{t-1}+b_{t-1}), trend b_t = g*(l_t-l_{t-1}) +
    (1-g)*b_{t-1}, initialized l_0 = x_0, b_0 = x_1-x_0 (the ES
    moving_fn holt member; EWMA can't express drift). Same shape as
    events_hourly_ewma: one fold, hours-sized driver recurrence; the
    oracle's RECURSIVE CTE evaluates the identical two-variable float
    sequence, 6dp at the end only. Series shorter than 2 hours
    returns the level-only degenerate row (no rows for no events)."""
    grid, n = _hourly_counts(sf_dir)
    if grid.size < 2:
        return pa.table({
            "hr": pa.array(grid),
            "n": pa.array(n),
            "level": pa.array(n.astype(np.float64)),
            "trend": pa.array([0.0] * grid.size, pa.float64()),
        })
    a, g = float(alpha), float(beta)
    lv = np.empty(grid.size, np.float64)
    tr = np.empty(grid.size, np.float64)
    lv[0] = float(n[0])
    tr[0] = float(n[1]) - float(n[0])
    for i in range(1, grid.size):  # hours-sized driver recurrence
        lv[i] = a * float(n[i]) + (1.0 - a) * (lv[i - 1] + tr[i - 1])
        tr[i] = g * (lv[i] - lv[i - 1]) + (1.0 - g) * tr[i - 1]
    return pa.table({
        "hr": pa.array(grid),
        "n": pa.array(n),
        "level": pa.array(np.round(lv, 6), pa.float64()),
        "trend": pa.array(np.round(tr, 6), pa.float64()),
    })


def events_hourly_holt_sql(
    alpha: float = HOLT_ALPHA, beta: float = HOLT_BETA
) -> str:
    return f"""
WITH RECURSIVE c AS (
  SELECT CAST(epoch(date_trunc('hour', ts)) / 3600 AS BIGINT) AS hr,
         count(*)::BIGINT AS n
  FROM events GROUP BY 1),
b AS (SELECT min(hr) AS lo, max(hr) AS hi FROM c),
grid AS (
  SELECT g.hr, row_number() OVER (ORDER BY g.hr) - 1 AS i,
         coalesce(c.n, 0)::BIGINT AS n
  FROM (SELECT unnest(generate_series(lo, hi)) AS hr FROM b) g
  LEFT JOIN c USING (hr)),
r AS (
  SELECT g0.hr, g0.i, g0.n,
         CAST(g0.n AS DOUBLE) AS level,
         coalesce(CAST(g1.n AS DOUBLE) - CAST(g0.n AS DOUBLE), 0.0)
           AS trend
  FROM grid g0 LEFT JOIN grid g1 ON g1.i = 1
  WHERE g0.i = 0
  UNION ALL
  SELECT g.hr, g.i, g.n,
         {alpha} * CAST(g.n AS DOUBLE)
           + (1.0 - {alpha}) * (r.level + r.trend),
         {beta} * (({alpha} * CAST(g.n AS DOUBLE)
                    + (1.0 - {alpha}) * (r.level + r.trend))
                   - r.level)
           + (1.0 - {beta}) * r.trend
  FROM grid g JOIN r ON g.i = r.i + 1)
SELECT hr, n, round(level, 6) AS level, round(trend, 6) AS trend
FROM r ORDER BY hr
"""


def orders_benford(sf_dir: str):
    """(digit, n, observed_p, benford_p, deviation): first-significant-
    digit distribution of order amounts vs Benford's law — the classic
    fraud / data-quality screen (synthetic or fabricated amounts
    rarely follow log-uniform digit frequencies). The digit is
    extracted from EXACT integer cents (v*100 rounded once) by
    repeated integer division — no log10 on doubles, so no libm-ulp
    digit flips at power boundaries. Per-batch 9-bucket partials;
    observed_p = n/total (identical int operands),
    benford_p = log10(1+1/d), deviation = observed - benford, 6dp."""

    def partial(batch: pa.Table) -> pa.Table:
        cents = np.round(
            batch["o_totalprice"].to_numpy(zero_copy_only=False)
            * 100.0
        ).astype(np.int64)
        v = np.abs(cents)
        v = v[v > 0]
        for _ in range(19):  # 19 int divisions >= any int64 magnitude
            big = v >= 10
            if not big.any():
                break
            v = np.where(big, v // 10, v)
        dg, cnt = np.unique(v, return_counts=True)
        return pa.table({
            "digit": pa.array(dg.astype(np.int64)),
            "n": pa.array(cnt.astype(np.int64)),
        })

    agg = combine(
        _read(sf_dir, "orders", ["o_totalprice"])
        .map_batches(partial, batch_format="pyarrow"),
        ["digit"], ["n"], pa.schema([("digit", _I64), ("n", _I64)]),
    )
    digits = np.arange(1, 10, dtype=np.int64)
    n = np.zeros(9, np.int64)
    d = agg["digit"].to_numpy()
    n[d - 1] = agg["n"].to_numpy()  # digits are 1..9 by construction
    total = int(n.sum())
    obs = (np.round(n.astype(np.float64) / total, 6)
           if total else np.full(9, np.nan))
    ben = np.round(np.log10(1.0 + 1.0 / digits.astype(np.float64)), 6)
    return pa.table({
        "digit": pa.array(digits),
        "n": pa.array(n),
        "observed_p": pa.array(obs, pa.float64()),
        "benford_p": pa.array(ben, pa.float64()),
        "deviation": pa.array(np.round(obs - ben, 6), pa.float64()),
    })


def orders_benford_sql() -> str:
    return """
WITH c AS (
  SELECT CAST(substr(CAST(abs(CAST(round(o_totalprice * 100.0)
                                   AS BIGINT)) AS VARCHAR), 1, 1)
              AS BIGINT) AS digit
  FROM orders
  WHERE round(o_totalprice * 100.0) <> 0),
o AS (SELECT digit, count(*)::BIGINT AS n FROM c GROUP BY 1),
t AS (SELECT sum(n)::BIGINT AS total FROM o),
d AS (SELECT unnest(generate_series(1, 9)) AS digit)
SELECT d.digit,
       coalesce(o.n, 0)::BIGINT AS n,
       round(CAST(coalesce(o.n, 0) AS DOUBLE) / t.total, 6)
         AS observed_p,
       round(log10(1.0 + 1.0 / d.digit), 6) AS benford_p,
       round(round(CAST(coalesce(o.n, 0) AS DOUBLE) / t.total, 6)
             - round(log10(1.0 + 1.0 / d.digit), 6), 6) AS deviation
FROM d LEFT JOIN o USING (digit) CROSS JOIN t
ORDER BY d.digit
"""


def events_user_entropy(sf_dir: str):
    """(user_id, n_events, entropy): Shannon entropy of each user's
    event-type distribution — the behavioral-diversity signal (0 =
    single-type bots, ln(n_types) = uniform explorers; the user-level
    sibling of textops.doc_entropy). One ``co_group`` on user_id;
    per group a vectorized (user, type) count fold, then entropy =
    -sum p*ln(p) from each user's <= n_types counts. 6dp (a <= 5-term
    double sum; ulp is 1e-16, ten orders under the grid)."""
    import pandas as pd

    def counts(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["user_id", "event_type"]).aggregate(
            [([], "count_all")]
        )
        return agg_select(g, {
            "user_id": "user_id", "event_type": "event_type",
            "count_all": "n_partial",
        })

    def entropy_fold(g) -> pd.DataFrame:
        agg = pd.DataFrame(g).groupby(["user_id", "event_type"])[
            "n_partial"
        ].sum()
        df = agg.reset_index()
        u = df["user_id"].to_numpy(np.int64)
        c = df["n_partial"].to_numpy(np.int64)
        order = np.argsort(u, kind="stable")
        u, c = u[order], c[order]
        new = np.ones(u.size, dtype=bool)
        new[1:] = u[1:] != u[:-1]
        seg = np.cumsum(new) - 1
        tot = np.zeros(seg[-1] + 1 if u.size else 0, np.int64)
        np.add.at(tot, seg, c)
        p = c / tot[seg]
        contrib = -p * np.log(p)
        ent = np.zeros(tot.size, np.float64)
        np.add.at(ent, seg, contrib)
        return pd.DataFrame({
            "user_id": u[new],
            "n_events": tot,
            "entropy": np.round(ent, 6),
        })

    return co_group(entropy_fold, (
        _read(sf_dir, "events", ["user_id", "event_type"]),
        counts,
        pa.schema([("user_id", _I64), ("event_type", _STR),
                   ("n_partial", _I64)]),
    ))


def events_user_entropy_sql() -> str:
    return """
WITH c AS (
  SELECT user_id, event_type, count(*)::BIGINT AS n
  FROM events GROUP BY 1, 2),
t AS (SELECT user_id, sum(n)::BIGINT AS tot FROM c GROUP BY 1)
SELECT c.user_id, t.tot AS n_events,
       round(-sum((CAST(c.n AS DOUBLE) / t.tot)
                  * ln(CAST(c.n AS DOUBLE) / t.tot)), 6) AS entropy
FROM c JOIN t USING (user_id)
GROUP BY c.user_id, t.tot
ORDER BY c.user_id
"""


def supplier_part_degree_hist(sf_dir: str):
    """(side, degree, n_nodes): degree distributions of BOTH sides of
    the supplier-part bipartite graph induced by lineitem (side 's' =
    distinct parts per supplier, side 'p' = distinct suppliers per
    part) — the graph-shape statistic behind partitioning and
    hot-key decisions (a power-law side predicts skewed joins). Two
    ``co_group`` exchanges (one per side, each co-locating its node's
    edges); per group a vectorized distinct-neighbor fold emits
    (degree, count) partials — histogram-sized — for ``combine``.
    Edges dedup inside the exchange (lineitem repeats pairs)."""
    import pandas as pd

    def side_hist(key_col: str, nbr_col: str, side: str):
        def edges(batch: pa.Table) -> pa.Table:
            t = pa.table({"k": batch[key_col], "nbr": batch[nbr_col]})
            return t.group_by(["k", "nbr"]).aggregate([])

        def fold(g) -> pd.DataFrame:
            k, nb = g["k"], g["nbr"]
            order = np.lexsort((nb, k))
            k, nb = k[order], nb[order]
            uniq = np.ones(k.size, dtype=bool)
            uniq[1:] = (k[1:] != k[:-1]) | (nb[1:] != nb[:-1])
            k = k[uniq]
            uk, deg = np.unique(k, return_counts=True)
            ud, cnt = np.unique(deg, return_counts=True)
            return pd.DataFrame({
                "degree": ud.astype("int64"),
                "n_nodes": cnt.astype("int64"),
            })

        hist = combine(co_group(fold, (
            _read(sf_dir, "lineitem", [key_col, nbr_col]),
            edges, pa.schema([("k", _I64), ("nbr", _I64)]),
        )), ["degree"], ["n_nodes"],
            pa.schema([("degree", _I64), ("n_nodes", _I64)]))
        return hist.add_column(
            0, "side", pa.array([side] * hist.num_rows, _STR))

    # side 's' sorts before 'p': descending side, ascending degree
    return pa.concat_tables([
        side_hist("l_suppkey", "l_partkey", "s"),
        side_hist("l_partkey", "l_suppkey", "p"),
    ])


def supplier_part_degree_hist_sql() -> str:
    return """
WITH e AS (SELECT DISTINCT l_suppkey, l_partkey FROM lineitem),
sd AS (SELECT l_suppkey, count(*)::BIGINT AS degree
       FROM e GROUP BY 1),
pd AS (SELECT l_partkey, count(*)::BIGINT AS degree
       FROM e GROUP BY 1)
SELECT 's' AS side, degree, count(*)::BIGINT AS n_nodes
FROM sd GROUP BY degree
UNION ALL
SELECT 'p' AS side, degree, count(*)::BIGINT AS n_nodes
FROM pd GROUP BY degree
ORDER BY side DESC, degree
"""
