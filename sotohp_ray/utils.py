"""Small shared runtime helpers."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def agg_select(t, mapping: dict[str, str]):
    """Rename + reorder a ``pa.Table.group_by().aggregate()`` output BY
    NAME: ``mapping`` is {pyarrow_output_name: new_name} covering every
    wanted column. The key-vs-aggregate column ORDER of pyarrow's
    aggregate output has differed across versions, so a positional
    ``rename_columns`` can silently swap keys with sums on an upgrade;
    selecting by name fails loudly (KeyError) instead."""
    return pa.table({new: t[old] for old, new in mapping.items()})


def value_offsets(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy view of a string or binary array of either offset
    width: ``(offs, data)``, value ``i`` being
    ``data[offs[i]:offs[i + 1]]``. ``offs`` has ``len(arr) + 1``
    entries (the array's slice offset applied, int32 or int64 as
    stored) and ``data`` is the whole uint8 data buffer. A null slot
    spans whatever bytes its offsets say."""
    large = pa.types.is_large_string(arr.type) or pa.types.is_large_binary(
        arr.type
    )
    obuf, dbuf = arr.buffers()[1:3]
    if obuf is None:
        offs = np.zeros(len(arr) + 1, dtype=np.int64)
    else:
        offs = np.frombuffer(obuf, dtype=np.int64 if large else np.int32)[
            arr.offset: arr.offset + len(arr) + 1
        ]
    data = (
        np.frombuffer(dbuf, dtype=np.uint8)
        if dbuf is not None
        else np.zeros(0, dtype=np.uint8)
    )
    return offs, data


def cpu_slots(num_cpus: float = 1.0) -> int:
    """How many tasks that each reserve ``num_cpus`` CPUs the cluster
    runs at once: its CPU count, read from ``ray.cluster_resources()``
    (initialising Ray first, as Ray Data's first execution would),
    divided by ``num_cpus``; at least 1. The one place that sizes a
    stage by the cluster."""
    import ray

    if not ray.is_initialized():
        ray.init()
    cpus = float(ray.cluster_resources().get("CPU", 1.0))
    return max(1, int(cpus // num_cpus))


def actor_pool_size(max_frac: float = 1.0, cap: int = 64) -> tuple[int, int]:
    """Autoscaling ``concurrency=(min, max)`` for an actor-pool
    ``map_batches`` stage, derived from the cluster's CPU count
    (``cpu_slots``) instead of a hardcoded constant (a fixed pool of 2
    starves the stage at 32 CPUs and worse on a cluster; a fixed pool
    of 32 deadlocks a small test session when two pools chain). min=1
    lets Ray's streaming executor grow the pool only while the stage is
    the bottleneck.
    """
    hi = max(2, min(cap, int(cpu_slots() * max_frac)))
    return (1, hi)


def map_items(fn, items: list, num_cpus: float = 1.0,
              batch_format: str = "numpy"):
    """Run ``fn`` over ``items`` as ``min(len(items), slots)`` Ray Data
    tasks, ``slots = cpu_slots(num_cpus)``. Each task calls ``fn`` ONCE
    on a batch holding a contiguous run of the items, in order, so a
    stage pays Ray Data's fixed per-task cost (tens of ms of CPU,
    about half of it in the driver) once per CPU slot, not once per
    item. Items are rows of similar cost (input partitions of equal
    size, hash-spread term shards), so equal runs balance without
    finer splitting.

    Returns ``(frame, n_tasks)``: the concatenated outputs of ``fn`` as
    a pandas DataFrame (row order across tasks is not kept) and the
    number of tasks. An empty ``items`` runs nothing and returns an
    empty frame and 0."""
    import pandas as pd
    import ray.data

    if not items:
        return pd.DataFrame(), 0
    n_tasks = min(len(items), cpu_slots(num_cpus))
    ds = ray.data.from_items(items, override_num_blocks=n_tasks)
    frame = ds.map_batches(
        fn, batch_size=None, batch_format=batch_format, num_cpus=num_cpus
    ).to_pandas()
    return frame, n_tasks


COARSE_GROUPS = 64  # width of every coarse-key co-partitioned exchange


def sorted_lookup(keys, probe):
    """Exact-match lookup of ``probe`` in the ascending array ``keys``.

    Returns ``(pos, hit)``: ``hit[i]`` is True when ``probe[i]`` occurs
    in ``keys``, and then ``keys[pos[i]] == probe[i]`` (the first such
    index). Where ``hit`` is False ``pos`` is only the insertion point,
    so index with ``pos[hit]``. An empty ``keys`` misses every probe."""
    pos = np.searchsorted(keys, probe)
    if len(keys) == 0:
        return pos, np.zeros(np.shape(probe), dtype=bool)
    return pos, keys[np.minimum(pos, len(keys) - 1)] == probe


def co_group(fold, *sides):
    """One co-partitioned exchange over one or more datasets.

    Each side is ``(dataset, project, schema)``: ``project(batch)``
    maps a pyarrow batch of ``dataset`` to a ``pa.Table`` of
    ``schema`` (cast to it when the types differ; ``None`` when the
    batch already holds the schema's columns), whose FIRST field is
    the int64 join key. Every projected row is routed to coarse group
    ``key & (COARSE_GROUPS - 1)``, so rows of every side that share a
    key meet in the same group — one shuffle for the whole join, each row moved once, and
    no side has to be small enough to broadcast. Inside a group the
    fold answers every key at once with vectorized sorted kernels
    (``sorted_lookup``, lexsort runs), instead of paying per-key
    pandas overhead.

    The helper tags each row with its side and pads all sides to one
    schema (fields are shared by name; a name must keep one type
    across sides; the other sides' fields are null), so the exchange
    is one ``groupby().map_groups()`` over the union. ``fold`` is
    called once per non-empty group with one dict of numpy columns
    per side, in ``sides`` order; a side with no rows in the group
    gets empty arrays of its schema's dtypes (no empty-side guards in
    the fold). ``fold`` returns any ``map_groups`` batch (DataFrame,
    ``pa.Table`` or dict of numpy columns) and the result is the
    dataset of those batches."""
    schemas = [schema for _, _, schema in sides]
    fields: dict = {}
    for schema in schemas:
        if schema.field(0).type != pa.int64():
            raise TypeError("co_group: the first field must be the int64 key")
        for f in schema:
            if fields.setdefault(f.name, f.type) != f.type:
                raise TypeError(f"co_group: field {f.name!r} changes type")
    wide = pa.schema([("__group", pa.int64()), ("__side", pa.int8())]
                     + list(fields.items()))

    def padder(i, project, schema):
        def pad(batch: pa.Table) -> pa.Table:
            t = project(batch) if project else batch
            if not t.schema.equals(schema):
                t = t.select(schema.names).cast(schema)
            n = t.num_rows
            cols = [
                pc.bit_wise_and(t.column(0), COARSE_GROUPS - 1),
                pa.array(np.full(n, i, np.int8)),
            ]
            for name, typ in fields.items():
                own = schema.get_field_index(name) >= 0
                cols.append(t[name] if own else pa.nulls(n, typ))
            return pa.Table.from_arrays(cols, schema=wide)

        return pad

    union = None
    for i, (ds, project, schema) in enumerate(sides):
        part = ds.map_batches(padder(i, project, schema),
                              batch_format="pyarrow")
        union = part if union is None else union.union(part)

    def per_group(g: pa.Table):
        args = []
        for i, schema in enumerate(schemas):
            sub = g if len(schemas) == 1 else g.filter(
                pc.equal(g["__side"], i)
            )
            args.append({f.name: sub[f.name].to_numpy() for f in schema})
        return fold(*args)

    return union.groupby("__group").map_groups(
        per_group, batch_format="pyarrow"
    )


def fit_schema(batch: pa.Table, schema: pa.Schema) -> pa.Table:
    """``batch`` as a table of exactly ``schema``: its fields selected
    by name and cast. A batch without rows becomes
    ``schema.empty_table()`` whatever columns it has (a fold's untyped
    empty frame, a zero-column table)."""
    if batch.num_rows == 0:
        return schema.empty_table()
    return batch.select(schema.names).cast(schema)


def combine(parts, keys: list[str], sums: list[str],
            schema: pa.Schema) -> pa.Table:
    """The final step of a partial+final aggregation, written once.

    ``parts`` is a Ray dataset of partial rows — the output of a
    per-block ``map_batches`` or of a per-group ``co_group`` fold —
    each row one partial aggregate of the key columns ``keys``, with
    one partial sum per column of ``sums``. Partials are output-sized
    (at most one row per key per block or group), so the final fold
    runs on the driver: no second exchange, and no skew handling.

    ``schema`` holds exactly the ``keys`` and ``sums`` fields; it is
    both the partial schema and the output schema. Every partial block
    is cast to it (``fit_schema``) inside the partial step's own
    tasks, so every block that reaches the driver with rows has that
    schema; the zero-column blocks Ray emits for empty shuffle
    partitions carry no rows and are dropped. The driver folds the
    blocks with one pandas ``groupby(keys, sort=True)[sums].sum()``:
    integer sums stay int64 from end to end (never float64, never a
    NaN reindex), float sums use pandas' compensated summation over
    the partials in block order, and rows with a null key drop, as in
    pandas. The result is one ``pa.Table`` of ``schema`` sorted by
    ``keys``; no partials at all give its zero-row table. Work after
    the fold (dense grids, recurrences, ratios, ordering) runs on the
    returned table."""
    names = set(schema.names)
    if names != set(keys) | set(sums) or len(names) != len(keys) + len(sums):
        raise ValueError("combine: schema must hold exactly keys + sums")
    blocks = parts.map_batches(
        fit_schema, fn_kwargs={"schema": schema}, batch_size=None,
        batch_format="pyarrow",
    ).iter_batches(batch_size=None, batch_format="pyarrow")
    frame = pa.concat_tables(
        [schema.empty_table(), *(b for b in blocks if b.num_rows)]
    ).to_pandas()
    out = frame.groupby(keys, sort=True, as_index=False)[sums].sum()
    return pa.Table.from_pandas(out, schema=schema, preserve_index=False)
