"""Delete-by-id (tombstones) + compaction — the S5 operator family
(reference analog: ``ElasticOperations.scala:113-130`` deletes a
document from the index by id; the engine's physical layout needs the
two-phase form every LSM-ish store uses):

- ``delete_docs``: logical delete. Resolves ids against docmeta and
  appends an immutable tombstone parquet (atomic tmp+rename, one file
  per call — idempotent, safe under retries). The ``Searcher`` loads
  tombstones and excludes those docs from results immediately; scores
  of surviving docs keep using the pre-delete collection stats until
  compaction (documented stale-stats window, exactly like a deleted-
  but-not-merged segment in Lucene).
- ``compact_index``: physical rewrite. One Ray Data task per CPU slot
  (``utils.map_items``), each over a contiguous run of partitions,
  drops tombstoned postings from partials and rows from docmeta
  (decode -> filter -> re-encode, vectorized per blob, one partition
  at a time; partitions without a deleted doc are decided from
  docmeta alone), lineage metrics are
  updated, and the merge phase reruns so df / N / avgdl and every
  block-max are exact for the surviving corpus — after compaction,
  search results are identical to an index freshly built without the
  deleted docs (pytest-verified). Doc ids stay sparse (no renumbering:
  a renumber would cascade base shifts through every partition);
  ``stats.doc_id_space`` records the dense-array size for searchers.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from sotohp_ray.config import IndexConfig
from sotohp_ray.functions import codec as pcodec
from sotohp_ray.state import lineage as lin
from sotohp_ray.utils import map_items


def tombstones_dir(index_dir: str) -> str:
    return os.path.join(index_dir, "tombstones")


def load_tombstones(index_dir: str) -> np.ndarray:
    """Sorted unique engine doc_ids currently tombstoned."""
    d = tombstones_dir(index_dir)
    if not os.path.isdir(d):
        return np.zeros(0, dtype=np.uint64)
    parts = [
        pq.read_table(os.path.join(d, n), columns=["doc_id"])
        for n in sorted(os.listdir(d))
        if n.endswith(".parquet")
    ]
    if not parts:
        return np.zeros(0, dtype=np.uint64)
    ids = pa.concat_tables(parts)["doc_id"].to_numpy(zero_copy_only=False)
    return np.unique(ids.astype(np.uint64))


def delete_docs(
    index_dir: str,
    doc_uuids=None,
    paths=None,
    engine_doc_ids=None,
) -> int:
    """Tombstone documents by stable id (doc_uuid), source path, or
    engine doc_id. Returns the number of NEW ids tombstoned. The write
    is atomic and append-only; repeating a delete is a no-op."""
    ids: list[int] = []
    if engine_doc_ids is not None:
        want_ids = np.array(sorted({int(x) for x in engine_doc_ids}),
                            dtype=np.uint64)
        st = lin.read_stats(index_dir)
        space = int(st.get("doc_id_space", st["n_docs"]))
        # ids beyond the id space are genuine caller errors (an
        # unvalidated out-of-range tombstone would crash every
        # subsequent Searcher init); ids INSIDE the space but absent
        # from docmeta were already deleted+compacted — dropping them
        # keeps the documented repeat-a-delete-is-a-no-op contract
        bad = want_ids[want_ids >= np.uint64(space)]
        if bad.size:
            raise ValueError(
                f"engine_doc_ids outside the index id space "
                f"(doc_id_space={space}): {bad[:10].tolist()}"
            )
        dm_ids = pq.read_table(
            os.path.join(index_dir, "docmeta"), columns=["doc_id"]
        )["doc_id"].to_numpy(zero_copy_only=False)
        present = want_ids[np.isin(want_ids, dm_ids)]
        ids.extend(int(x) for x in present)
    if doc_uuids or paths:
        dm = pq.read_table(
            os.path.join(index_dir, "docmeta"),
            columns=["doc_id", "doc_uuid", "path"],
        )
        if doc_uuids:
            want = set(doc_uuids)
            for d, u in zip(dm["doc_id"].to_pylist(), dm["doc_uuid"].to_pylist()):
                if u in want:
                    ids.append(int(d))
        if paths:
            want = set(paths)
            for d, p in zip(dm["doc_id"].to_pylist(), dm["path"].to_pylist()):
                if p in want:
                    ids.append(int(d))
    new = np.setdiff1d(
        np.array(sorted(set(ids)), dtype=np.uint64), load_tombstones(index_dir)
    )
    if new.size == 0:
        return 0
    lin.atomic_write_table(
        pa.table({"doc_id": pa.array(new, pa.uint64())}),
        os.path.join(
            tombstones_dir(index_dir), f"batch-{time.time_ns():020d}.parquet"
        ),
    )
    return int(new.size)


def _compact_partition(
    index_dir: str, pid: int, deleted: np.ndarray, config_json: str
) -> dict:
    """Rewrite one partition's docmeta + partials without the deleted
    docs. Returns the updated lineage metrics."""
    from sotohp_ray.pipelines.build_index import write_partials

    cfg = IndexConfig.from_json(config_json)
    enc, dec = pcodec.varint_encode, pcodec.varint_decode

    dm_path = os.path.join(
        index_dir, "docmeta", f"partition-{pid:05d}", "data.parquet"
    )
    dm = pq.read_table(dm_path)
    dm_ids = dm["doc_id"].to_numpy(zero_copy_only=False)
    keep_doc = ~np.isin(dm_ids, deleted, kind="sort")
    removed_docs = int((~keep_doc).sum())
    removed_tokens = int(
        dm["doc_len"].to_numpy(zero_copy_only=False)[~keep_doc].sum()
    )
    if removed_docs == 0:
        # untouched partition: decide from docmeta alone, never read
        # the (much larger) partials file
        return {
            "partition_id": pid, "removed_docs": 0,
            "removed_tokens": 0, "removed_postings": 0,
        }
    lin.atomic_write_table(
        dm.filter(pa.array(keep_doc)), dm_path, use_dictionary=False
    )

    pdir = os.path.join(index_dir, "partials", f"partition-{pid:05d}")
    t = pq.read_table(os.path.join(pdir, "data.parquet"))
    removed_postings = 0

    counts = t["count"].to_numpy(zero_copy_only=False).astype(np.int64)
    doc_blob = t["doc_blob"].combine_chunks()
    import pyarrow.compute as pc

    inline = pc.is_null(doc_blob).to_numpy(zero_copy_only=False)
    doc0 = t["doc0"].to_numpy(zero_copy_only=False)
    # vectorized fate of inline (single-posting) rows
    keep_row = np.ones(t.num_rows, dtype=bool)
    inline_idx = np.flatnonzero(inline)
    drop_inline = np.isin(doc0[inline_idx], deleted, kind="sort")
    keep_row[inline_idx[drop_inline]] = False
    removed_postings += int(drop_inline.sum())

    # multi-posting rows: decode, filter, re-encode (only rows that
    # actually contain a deleted doc are rewritten); occurrence
    # positions are filtered segment-wise with their postings
    tf_blob = t["tf_blob"].combine_chunks()
    dl_blob = t["dl_blob"].combine_chunks()
    pos_blob = t["pos_blob"].combine_chunks()
    cf_part = t["cf_partial"].to_numpy(zero_copy_only=False).astype(np.int64)
    new_cols: dict[int, dict] = {}
    for i in np.flatnonzero(~inline):
        c = int(counts[i])
        gaps = dec(doc_blob[i].as_buffer(), c)
        docs = np.cumsum(gaps, dtype=np.uint64)
        m = ~np.isin(docs, deleted, kind="sort")
        kept = int(m.sum())
        if kept == c:
            continue
        removed_postings += c - kept
        if kept == 0:
            keep_row[i] = False
            continue
        tfs_all = dec(tf_blob[i].as_buffer(), c)
        tfs = tfs_all[m]
        dls = dec(dl_blob[i].as_buffer(), c)[m]
        d = docs[m]
        g = np.empty(kept, dtype=np.uint64)
        g[0] = d[0]
        np.subtract(d[1:], d[:-1], out=g[1:])
        # positions: decode to absolute, keep surviving postings'
        # occurrence segments, re-delta with reset at new starts
        # (positions are always varint, independent of partials codec)
        oc = int(cf_part[i])
        pg = pcodec.varint_decode(pos_blob[i].as_buffer(), oc)
        cum = np.cumsum(pg, dtype=np.uint64)
        lens = tfs_all.astype(np.int64)
        p_starts = np.zeros(c, dtype=np.int64)
        np.cumsum(lens[:-1], out=p_starts[1:])
        base = np.zeros(c, dtype=np.uint64)
        base[1:] = cum[p_starts[1:] - 1]
        occ_abs = cum - np.repeat(base, lens)
        occ_keep = occ_abs[np.repeat(m, lens)]
        new_lens = tfs.astype(np.int64)
        np_starts = np.zeros(kept, dtype=np.int64)
        np.cumsum(new_lens[:-1], out=np_starts[1:])
        npg = occ_keep.copy()
        if npg.size:
            npg[1:] -= occ_keep[:-1]
            npg[np_starts] = occ_keep[np_starts]
        new_cols[i] = {
            "count": kept,
            "doc_blob": enc(g), "tf_blob": enc(tfs), "dl_blob": enc(dls),
            "pos_blob": pcodec.varint_encode(npg),
            "cf_partial": int(tfs.sum()), "max_tf": int(tfs.max()),
        }

    if new_cols or not keep_row.all():
        cols = {name: t[name].to_pylist() for name in
                ("count", "doc_blob", "tf_blob", "dl_blob", "pos_blob",
                 "cf_partial", "max_tf")}
        for i, upd in new_cols.items():
            for k, v in upd.items():
                cols[k][i] = v
        for name, vals in cols.items():
            fi = t.schema.get_field_index(name)
            t = t.set_column(
                fi, name, pa.array(vals, type=t.schema.field(name).type)
            )
        write_partials(t.filter(pa.array(keep_row)), pdir)
    return {
        "partition_id": pid,
        "removed_docs": removed_docs,
        "removed_tokens": removed_tokens,
        "removed_postings": removed_postings,
    }


def compact_index(index_dir: str) -> dict:
    """Apply all tombstones physically and rebuild the dictionary with
    exact post-delete statistics. Returns the updated stats dict."""
    import shutil

    import ray

    from sotohp_ray.pipelines.build_index import (
        _merge_marker,
        commit_lineage,
    )

    deleted = load_tombstones(index_dir)
    with open(os.path.join(index_dir, "config.json")) as f:
        config = IndexConfig.from_json(f.read())
    old_stats = lin.read_stats(index_dir)
    if deleted.size == 0:
        return old_stats

    records = {r["partition_id"]: r for r in lin.done_records(index_dir)}
    cfg_json = config.to_json()
    items = [{"partition_id": p} for p in sorted(records)]
    dref = ray.put(deleted)

    def _one(batch: dict) -> dict:
        dels = ray.get(dref)
        out = {k: [] for k in (
            "partition_id", "removed_docs", "removed_tokens",
            "removed_postings")}
        for pid in batch["partition_id"]:
            m = _compact_partition(index_dir, int(pid), dels, cfg_json)
            for k in out:
                out[k].append(m[k])
        return {k: np.asarray(v, dtype=np.int64) for k, v in out.items()}

    res, _ = map_items(_one, items)

    # fold removals into lineage (so stats recompute consistently and a
    # resumed build keeps the post-delete state for unchanged inputs)
    for _, row in res.iterrows():
        pid = int(row["partition_id"])
        r = records[pid]
        r["doc_count"] = int(r["doc_count"]) - int(row["removed_docs"])
        r["token_count"] = int(r["token_count"]) - int(row["removed_tokens"])
        r["posting_count"] = (
            int(r["posting_count"]) - int(row["removed_postings"])
        )
        r["compacted_out"] = int(r.get("compacted_out", 0)) + int(
            row["removed_docs"]
        )
        lin.write_record(index_dir, r)

    # always re-merge: df and every block-max change with the postings
    marker = _merge_marker(index_dir)
    if os.path.exists(marker):
        os.remove(marker)
    stats, _ = commit_lineage(
        index_dir, config,
        {
            **old_stats,
            # doc ids stay sparse: searchers size dense arrays by the
            # ORIGINAL id space, scoring N is the live count
            "doc_id_space": int(
                old_stats.get("doc_id_space", old_stats["n_docs"])
            ),
            # from lineage, not old stats plus this run's removals: a
            # retry after a failed merge removes nothing more, but the
            # records still hold the first attempt's counts
            "compacted_docs_total": sum(
                int(r.get("compacted_out", 0)) for r in records.values()
            ),
        },
    )

    # tombstones are applied — clear them
    shutil.rmtree(tombstones_dir(index_dir), ignore_errors=True)
    stats["merged"] = True
    return stats
