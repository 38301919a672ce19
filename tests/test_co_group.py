"""Property tests of the shared exchange helpers in ``sotohp_ray.utils``:
``co_group`` (one co-partitioned exchange over 1-3 datasets) and
``sorted_lookup`` (exact-match lookup in a sorted key array)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sotohp_ray.utils import COARSE_GROUPS, co_group, sorted_lookup


# ---- sorted_lookup --------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    keys=st.lists(st.integers(-50, 50), max_size=40),
    probe=st.lists(st.integers(-80, 80), max_size=40),
)
def test_sorted_lookup_matches_dict(keys, probe):
    k = np.sort(np.asarray(keys, np.int64))
    p = np.asarray(probe, np.int64)
    first = {}
    for i, v in enumerate(k.tolist()):
        first.setdefault(v, i)
    pos, hit = sorted_lookup(k, p)
    assert hit.dtype == bool and hit.shape == p.shape
    assert hit.tolist() == [v in first for v in p.tolist()]
    assert pos[hit].tolist() == [first[v] for v in p[hit].tolist()]


def test_sorted_lookup_empty_keys_and_out_of_range():
    pos, hit = sorted_lookup(np.zeros(0, np.int64), np.array([-1, 0, 7]))
    assert not hit.any() and pos[hit].size == 0
    keys = np.array([3, 5, 9], np.int64)
    pos, hit = sorted_lookup(keys, np.array([-4, 3, 4, 9, 10, 99]))
    assert hit.tolist() == [False, True, False, True, False, False]
    assert pos[hit].tolist() == [0, 2]
    # strings work the same way (the dedup sha lookups)
    pos, hit = sorted_lookup(np.array(["a", "c"]), np.array(["c", "b"]))
    assert hit.tolist() == [True, False] and pos[hit].tolist() == [1]


# ---- co_group -------------------------------------------------------


_BASE = np.datetime64("2026-01-01T00:00:00", "us")

# every side carries the int64 key and a globally unique row id; the
# typed payload columns are shared by name across sides
_PAYLOAD = {
    "s": pa.string(),
    "t": pa.timestamp("us"),
    "f": pa.float64(),
}
_NP_DTYPE = {
    "key": np.dtype(np.int64), "rid": np.dtype(np.int64),
    "s": np.dtype(object), "t": np.dtype("datetime64[us]"),
    "f": np.dtype(np.float64),
}

_side = st.fixed_dictionaries({
    "keys": st.one_of(
        st.lists(st.integers(-300, 300), max_size=25),
        # every key in ONE coarse group
        st.lists(st.integers(-4, 4), max_size=25).map(
            lambda xs: [x * COARSE_GROUPS + 5 for x in xs]
        ),
    ),
    "cols": st.sets(st.sampled_from(sorted(_PAYLOAD)), max_size=3),
})


def _side_table(i, spec, rid0):
    n = len(spec["keys"])
    k = np.asarray(spec["keys"], np.int64)
    cols = {"key": k, "rid": np.arange(rid0, rid0 + n, dtype=np.int64)}
    for c in sorted(spec["cols"]):
        if c == "s":
            cols[c] = pa.array([f"side{i}-{j}" for j in range(n)])
        elif c == "t":
            cols[c] = pa.array(_BASE + k * 1_000_003, pa.timestamp("us"))
        else:
            cols[c] = k * 0.5 + i
    schema = pa.schema(
        [("key", pa.int64()), ("rid", pa.int64())]
        + [(c, _PAYLOAD[c]) for c in sorted(spec["cols"])]
    )
    return pa.table(cols, schema=schema), schema


def _recorder():
    """Fold that reports what it saw: one row per input row plus one
    marker row (rid -1) per side carrying the side's dtypes. Built by a
    factory so Ray ships it by value (workers cannot import this test
    module)."""

    def record(*sides):
        import uuid

        call = uuid.uuid4().hex
        rows = []
        for i, cols in enumerate(sides):
            dtypes = ",".join(f"{c}:{a.dtype}" for c, a in cols.items())
            rows.append((call, i, -1, 0, dtypes, ""))
            for r in range(len(cols["key"])):
                vals = repr(tuple(
                    cols[c][r].item() if hasattr(cols[c][r], "item")
                    else cols[c][r]
                    for c in cols if c not in ("key", "rid")
                ))
                rows.append((call, i, int(cols["rid"][r]),
                             int(cols["key"][r]), "", vals))
        return pd.DataFrame(rows, columns=[
            "call", "side", "rid", "key", "dtypes", "vals",
        ])

    return record


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(specs=st.lists(_side, min_size=1, max_size=3))
def test_co_group_delivers_each_group_once_per_fold(ray_session, specs):
    import ray.data

    sides, tables, rid0 = [], [], 0
    for i, spec in enumerate(specs):
        t, schema = _side_table(i, spec, rid0)
        rid0 += t.num_rows
        tables.append(t)
        sides.append((ray.data.from_arrow(t), None, schema))
    out = co_group(_recorder(), *sides).to_pandas()
    if rid0 == 0:
        assert len(out) == 0  # no rows: no group, no fold call
        return
    data = out[out["rid"] >= 0]
    # every input row arrives exactly once, on its own side, with its
    # values intact
    for i, t in enumerate(tables):
        mine = data[data["side"] == i].sort_values("rid")
        assert mine["rid"].tolist() == t["rid"].to_pylist()
        assert mine["key"].tolist() == t["key"].to_pylist()
        want_vals = []
        for r in range(t.num_rows):
            want_vals.append(repr(tuple(
                t[c][r].as_py()
                for c in t.column_names if c not in ("key", "rid")
            )))
        assert mine["vals"].tolist() == want_vals
    # one fold call per coarse group, holding ALL of that group's rows
    group = data["key"].to_numpy() & (COARSE_GROUPS - 1)
    per_call = pd.Series(group).groupby(data["call"].to_numpy()).nunique()
    assert (per_call == 1).all()
    per_group = pd.Series(data["call"].to_numpy()).groupby(group).nunique()
    assert (per_group == 1).all()
    # every call sees every side, absent ones as typed empty arrays
    markers = out[out["rid"] < 0]
    assert markers.groupby("call")["side"].nunique().eq(len(specs)).all()
    for i, t in enumerate(tables):
        want = ",".join(f"{c}:{_NP_DTYPE[c]}" for c in t.column_names)
        assert set(markers[markers["side"] == i]["dtypes"]) == {want}


def test_co_group_rejects_conflicting_field_types(ray_session):
    import ray.data

    a = pa.table({"key": pa.array([1], pa.int64()), "v": [1.0]})
    b = pa.table({"key": pa.array([1], pa.int64()), "v": ["x"]})
    with pytest.raises(TypeError, match="'v'"):
        co_group(
            _recorder(),
            (ray.data.from_arrow(a), None, a.schema),
            (ray.data.from_arrow(b), None, b.schema),
        )
