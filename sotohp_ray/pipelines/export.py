"""Resumable cleaned-corpus export sink.

Materializes the post-dedup corpus as SHARDED parquet: one file per
doc-id range, written atomically (tmp + rename, `atomic_write_table`),
plus a final `_EXPORT_DONE.json` manifest. The resumable-output
contract for a 100 TB pipeline:

- never one giant file — shards are bounded doc-id ranges a failed
  run can skip individually;
- a crash mid-run leaves only complete shards (atomic rename) and no
  manifest; the re-run skips every finished shard and writes the rest;
- each shard reads ONLY its rows via parquet predicate pushdown
  (`doc_id` range filter against row-group statistics) — no task
  touches the whole table. Shards run as one Ray Data task per CPU
  slot, each over a contiguous run of shards (`utils.map_items`).

The keep rule is the SAME broadcast mask the cleaned-corpus queries
use (`textops.exact_keep_mask` / `near_keep_mask`), so the exported
rows provably equal `corpus_dedup_exact` / `corpus_dedup_near`'s
doc_ids (pytest-gated).

Reference analog: the bulk S3 upsert sink's retry-safe id-keyed
writes (ElasticOperations.scala:149-167); the shard manifest plays
the role of the per-partition lineage records the index build keeps.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from sotohp_ray.state.lineage import atomic_write_table, write_json
from sotohp_ray.utils import map_items


def _doc_id_bounds(path: str) -> tuple[int, int]:
    """(min, max) doc_id from parquet row-group statistics — no data
    read."""
    md = pq.read_metadata(path)
    idx = md.schema.to_arrow_schema().get_field_index("doc_id")
    lo, hi = None, None
    for rg in range(md.num_row_groups):
        st = md.row_group(rg).column(idx).statistics
        if st is None or not st.has_min_max:
            continue
        lo = st.min if lo is None else min(lo, st.min)
        hi = st.max if hi is None else max(hi, st.max)
    if lo is None:
        t = pq.read_table(path, columns=["doc_id"])
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        if ids.size == 0:
            return 0, -1
        return int(ids.min()), int(ids.max())
    return int(lo), int(hi)


def export_cleaned_corpus(
    sf_dir: str,
    out_dir: str,
    mode: str = "exact",
    threshold: float = 0.6,
    shard_width: int = 65536,
) -> pa.Table:
    """Write the cleaned corpus to ``out_dir`` as atomic per-range
    shards; returns the manifest table (shard_id, lo, hi, n_rows).
    Re-running with the same arguments skips finished shards (resume);
    a completed export short-circuits on the manifest."""
    if mode == "exact":
        from sotohp_ray.pipelines.textops import exact_keep_mask

        mask_of = exact_keep_mask(sf_dir)
    elif mode == "near":
        from sotohp_ray.pipelines.textops import near_keep_mask

        mask_of = near_keep_mask(sf_dir, threshold)
    else:
        raise ValueError(f"mode must be 'exact' or 'near', got {mode!r}")

    src = os.path.join(sf_dir, "documents.parquet")
    done_path = os.path.join(out_dir, "_EXPORT_DONE.json")
    if os.path.exists(done_path):
        with open(done_path) as f:
            prev = json.load(f)
        if prev.get("mode") == mode and prev.get("src") == os.path.abspath(src):
            return pq.read_table(os.path.join(out_dir, "_manifest.parquet"))
        raise ValueError(
            f"{out_dir} already holds an export of "
            f"{prev.get('src')} (mode={prev.get('mode')}); "
            "refusing to mix exports in one directory"
        )

    lo0, hi0 = _doc_id_bounds(src)
    os.makedirs(out_dir, exist_ok=True)
    shards = []
    s = lo0
    sid = 0
    while s <= hi0:
        shards.append({"shard_id": sid, "lo": s, "hi": s + shard_width})
        s += shard_width
        sid += 1

    def write_shard(batch: pa.Table) -> pa.Table:
        import pyarrow.dataset as pads

        out_sid, out_n = [], []
        for row in batch.to_pylist():
            sid, lo, hi = row["shard_id"], row["lo"], row["hi"]
            final = os.path.join(out_dir, f"shard-{sid:05d}.parquet")
            if os.path.exists(final):  # finished by an earlier run
                out_sid.append(sid)
                out_n.append(pq.read_metadata(final).num_rows)
                continue
            t = pads.dataset(src).to_table(
                filter=(pads.field("doc_id") >= lo)
                & (pads.field("doc_id") < hi)
            )
            ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            kept = t.filter(pa.array(mask_of(ids, t)))
            atomic_write_table(kept, final)
            out_sid.append(sid)
            out_n.append(kept.num_rows)
        return pa.table({
            "shard_id": pa.array(out_sid, pa.int64()),
            "n_rows": pa.array(out_n, pa.int64()),
        })

    if not shards:  # empty source table
        manifest = pa.table({
            "shard_id": pa.array([], pa.int64()),
            "lo": pa.array([], pa.int64()),
            "hi": pa.array([], pa.int64()),
            "n_rows": pa.array([], pa.int64()),
        })
        atomic_write_table(
            manifest, os.path.join(out_dir, "_manifest.parquet")
        )
        write_json(done_path, {
            "mode": mode, "src": os.path.abspath(src),
            "n_shards": 0, "n_rows": 0, "shard_width": shard_width,
        })
        return manifest

    counts, _ = map_items(write_shard, shards, batch_format="pyarrow")
    counts = counts.sort_values("shard_id")  # one row per shard
    manifest = pa.table({
        "shard_id": pa.array(counts["shard_id"].to_numpy(), pa.int64()),
        "lo": pa.array([sh["lo"] for sh in shards], pa.int64()),
        "hi": pa.array([sh["hi"] for sh in shards], pa.int64()),
        "n_rows": pa.array(counts["n_rows"].to_numpy(), pa.int64()),
    })
    atomic_write_table(manifest, os.path.join(out_dir, "_manifest.parquet"))
    write_json(done_path, {
        "mode": mode,
        "src": os.path.abspath(src),
        "n_shards": len(shards),
        "n_rows": int(counts["n_rows"].sum()),
        "shard_width": shard_width,
    })
    return manifest
