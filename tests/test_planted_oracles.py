"""Seeded random planted fixtures, engine == DuckDB oracle, for ops the
sf corpora check only on one shape: the Benford digit screen, the
per-user event-type entropy (a ``co_group`` exchange) and Holt
smoothing over a multi-hour series with empty hours inside it."""

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _write(d, name, table):
    pq.write_table(table, str(d / f"{name}.parquet"))


def _oracle_rows(sf_dir, tables, sql):
    con = duckdb.connect()
    for t in tables:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
    return con.sql(sql).fetchall()


def _assert_rows_equal(got, want):
    assert len(got) == len(want), (got, want)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=0, abs=1e-9), (got, want)


def _events(d, seed, n_users, n_events, hours):
    rng = np.random.RandomState(seed)
    base = np.datetime64("2026-03-01T00:00:00", "us")
    us = rng.randint(0, hours * 3_600_000_000, n_events).astype(np.int64)
    _write(d, "events", pa.table({
        "event_id": pa.array(np.arange(n_events), pa.int64()),
        "ts": pa.array(base + us, pa.timestamp("us")),
        # skewed users, including ids far apart in the coarse key space
        "user_id": pa.array(
            rng.choice(np.arange(n_users) * 37 + 3, n_events,
                       p=np.linspace(1, 3, n_users) / np.linspace(
                           1, 3, n_users).sum()).astype(np.int64)),
        "event_type": pa.array(rng.choice(
            ["view", "click", "purchase", "share"], n_events,
            p=[0.55, 0.25, 0.15, 0.05])),
        "value": pa.array(rng.rand(n_events), pa.float64()),
        "props": pa.array(["{}"] * n_events),
    }))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_orders_benford_matches_duckdb(tmp_path, seed):
    """Log-uniform amounts across six decades, exact powers of ten,
    cent-sized and zero amounts (dropped by both sides)."""
    from sotohp_ray.pipelines.relational import (
        orders_benford,
        orders_benford_sql,
    )

    rng = np.random.RandomState(seed)
    amounts = np.round(10 ** rng.uniform(-2, 6, 300), 2)
    amounts = np.concatenate([
        amounts, [0.0, 0.01, 1.0, 10.0, 100.0, 999.99, 0.004],
    ])
    _write(tmp_path, "orders", pa.table({
        "o_orderkey": pa.array(np.arange(amounts.size), pa.int64()),
        "o_totalprice": pa.array(amounts, pa.float64()),
    }))
    out = orders_benford(str(tmp_path))
    got = [tuple(r.values()) for r in out.to_pylist()]
    assert [g[0] for g in got] == list(range(1, 10))
    _assert_rows_equal(
        got, _oracle_rows(str(tmp_path), ["orders"], orders_benford_sql()))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_events_user_entropy_matches_duckdb(tmp_path, seed):
    from sotohp_ray.pipelines.relational import (
        events_user_entropy,
        events_user_entropy_sql,
    )

    _events(tmp_path, seed, n_users=9, n_events=250, hours=30)
    out = events_user_entropy(str(tmp_path)).to_pandas()
    got = sorted(tuple(r) for r in out[
        ["user_id", "n_events", "entropy"]
    ].itertuples(index=False))
    want = _oracle_rows(str(tmp_path), ["events"], events_user_entropy_sql())
    _assert_rows_equal(got, want)
    assert sum(g[1] for g in got) == 250


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_events_hourly_holt_multi_hour_matches_duckdb(tmp_path, seed):
    """A sparse multi-hour series: the dense grid must zero-fill the
    empty hours inside it on both sides before the recurrence runs."""
    from sotohp_ray.pipelines.relational import (
        events_hourly_holt,
        events_hourly_holt_sql,
    )

    _events(tmp_path, seed, n_users=4, n_events=40, hours=36)
    out = events_hourly_holt(str(tmp_path))
    got = [tuple(r.values()) for r in out.to_pylist()]
    want = _oracle_rows(str(tmp_path), ["events"], events_hourly_holt_sql())
    assert len(got) > 2 and any(g[1] == 0 for g in got)
    assert [g[0] for g in got] == list(range(got[0][0], got[0][0] + len(got)))
    _assert_rows_equal(got, want)
