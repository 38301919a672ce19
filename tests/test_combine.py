"""Tests of ``sotohp_ray.utils.combine``, the one partial+final
aggregation step (per-block or per-group partials summed on the
driver), and of ``fit_schema``, the cast every partial block goes
through."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from sotohp_ray.utils import co_group, combine, fit_schema

_SCHEMA = pa.schema([
    ("k", pa.string()), ("j", pa.int64()),
    ("n", pa.int64()), ("f", pa.float64()),
])
_KEYS, _SUMS = ["k", "j"], ["n", "f"]


def _blocks(tables):
    import ray.data

    return ray.data.from_arrow(tables)


def test_fit_schema_types_empty_and_untyped_blocks():
    assert fit_schema(pa.table({}), _SCHEMA).equals(_SCHEMA.empty_table())
    untyped = pa.Table.from_pandas(pd.DataFrame({"k": [], "n": []}))
    out = fit_schema(untyped, _SCHEMA)
    assert out.schema.equals(_SCHEMA) and out.num_rows == 0
    # a block with rows: fields selected by name, reordered and cast
    b = pa.table({"f": [1], "n": np.array([2], np.int32),
                  "extra": ["x"], "j": [3], "k": ["a"]})
    out = fit_schema(b, _SCHEMA)
    assert out.schema.equals(_SCHEMA)
    assert out.to_pylist() == [{"k": "a", "j": 3, "n": 2, "f": 1.0}]


def test_combine_empty_input_gives_typed_empty_output(ray_session):
    src = _blocks([pa.table({"x": [1, 2, 3]}), pa.table({"x": [4]})])

    def nothing(batch: pa.Table) -> pa.Table:
        return pa.table({})  # untyped: fit_schema types it

    out = combine(src.map_batches(nothing, batch_format="pyarrow"),
                  _KEYS, _SUMS, _SCHEMA)
    assert out.schema.equals(_SCHEMA) and out.num_rows == 0


def test_combine_empty_partial_blocks_fold_with_typed_ones(ray_session):
    src = _blocks([pa.table({"x": [i]}) for i in range(4)])

    def some(batch: pa.Table) -> pd.DataFrame:
        x = int(batch["x"][0].as_py())
        if x % 2:
            return pd.DataFrame()  # no columns at all
        return pd.DataFrame({"f": [0.5], "n": [x], "j": [1], "k": ["a"]})

    out = combine(src.map_batches(some, batch_format="pyarrow"),
                  _KEYS, _SUMS, _SCHEMA)
    assert out.schema.equals(_SCHEMA)
    assert out.to_pylist() == [{"k": "a", "j": 1, "n": 2, "f": 1.0}]


def test_combine_int64_sums_past_2_53_stay_exact(ray_session):
    big = 2**61 + 1  # three of them sum to 3 * 2**61 + 3 < 2**63
    tables = [
        pa.table({"k": ["a"], "j": [0], "n": [big], "f": [0.0]},
                 schema=_SCHEMA)
        for _ in range(3)
    ]
    out = combine(_blocks(tables), _KEYS, _SUMS, _SCHEMA)
    assert out["n"].type == pa.int64()
    assert out["n"].to_pylist() == [3 * big]
    assert float(3 * big) != 3 * big  # a float64 detour would show


def test_combine_sorts_by_multi_column_keys(ray_session):
    rng = np.random.default_rng(7)
    rows = [(str(rng.choice(list("cab"))), int(rng.integers(-3, 4)),
             int(rng.integers(0, 100))) for _ in range(200)]
    tables = [
        pa.table({
            "k": [r[0] for r in rows[i:i + 25]],
            "j": [r[1] for r in rows[i:i + 25]],
            "n": [r[2] for r in rows[i:i + 25]],
            "f": [float(r[2]) for r in rows[i:i + 25]],
        }, schema=_SCHEMA)
        for i in range(0, len(rows), 25)
    ]
    out = combine(_blocks(tables), _KEYS, _SUMS, _SCHEMA)
    want: dict = {}
    for k, j, n in rows:
        want[(k, j)] = want.get((k, j), 0) + n
    got = [(r["k"], r["j"], r["n"]) for r in out.to_pylist()]
    assert got == [(k, j, want[(k, j)]) for k, j in sorted(want)]
    assert out["f"].to_pylist() == [float(want[kj]) for kj in sorted(want)]


def test_combine_folds_a_co_group_result(ray_session):
    import ray.data

    keys = np.arange(300, dtype=np.int64)
    src = ray.data.from_arrow(pa.table({"key": keys, "v": keys % 7}))

    def per_group(g) -> pd.DataFrame:
        # per-group partial: how many keys of each residue the group saw
        r, c = np.unique(g["v"], return_counts=True)
        return pd.DataFrame({"r": r, "c": c})

    schema = pa.schema([("r", pa.int64()), ("c", pa.int64())])
    out = combine(
        co_group(per_group, (src, None, pa.schema(
            [("key", pa.int64()), ("v", pa.int64())]))),
        ["r"], ["c"], schema,
    )
    r, c = np.unique(keys % 7, return_counts=True)
    assert out.to_pydict() == {"r": r.tolist(), "c": c.tolist()}


def test_combine_folds_a_map_batches_result(ray_session):
    import ray.data

    src = ray.data.range(1000, override_num_blocks=8)

    def partial(batch: pa.Table) -> pa.Table:
        v = batch["id"].to_numpy()
        d, cnt = np.unique(v % 10, return_counts=True)
        return pa.table({"d": d, "n": cnt})

    schema = pa.schema([("d", pa.int64()), ("n", pa.int64())])
    out = combine(src.map_batches(partial, batch_format="pyarrow"),
                  ["d"], ["n"], schema)
    assert out.to_pydict() == {"d": list(range(10)), "n": [100] * 10}


def test_combine_rejects_a_schema_that_is_not_keys_plus_sums():
    with pytest.raises(ValueError):
        combine(None, ["k"], ["n"], _SCHEMA)


def test_ported_ops_on_empty_tables_return_typed_empty_output(
    ray_session, tmp_path
):
    """Ops whose driver fold is ``combine`` answer empty input with a
    typed zero-row table (their hand-rolled folds raised KeyError)."""
    import pyarrow.parquet as pq

    from sotohp_ray.pipelines import relational as rel

    ts = pa.timestamp("us")
    pq.write_table(pa.schema([
        ("event_id", pa.int64()), ("ts", ts), ("user_id", pa.int64()),
        ("event_type", pa.string()), ("value", pa.float64()),
    ]).empty_table(), tmp_path / "events.parquet")
    pq.write_table(pa.schema([
        ("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
        ("o_totalprice", pa.float64()), ("o_orderdate", ts),
    ]).empty_table(), tmp_path / "orders.parquet")
    sf = str(tmp_path)
    i64, f64, s = pa.int64(), pa.float64(), pa.string()
    want = {
        rel.events_hourly_ewma: [i64, i64, f64],
        rel.events_hourly_holt: [i64, i64, f64, f64],
        rel.events_moving_avg: [ts, i64, f64, f64],
        rel.events_retention: [ts, i64, i64],
        rel.events_markov_transitions: [s, s, i64, f64],
        rel.events_type_cooccurrence: [s, s, i64, i64, i64, f64],
        rel.customer_cohort_ltv: [s, i64, i64, i64],
    }
    for op, types in want.items():
        out = op(sf)
        assert out.num_rows == 0, op.__name__
        assert out.schema.types == types, op.__name__
