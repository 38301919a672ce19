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
- ``compact_index``: Lucene-style deletes. A partition's docmeta is
  its live-docs set: one Ray Data task per CPU slot
  (``utils.map_items``), each over a contiguous run of the partitions
  whose id range holds a tombstone, drops the deleted rows from their
  docmeta and never opens their partials. The lineage records take
  the live doc and token counts from docmeta, and the merge phase
  reruns; it drops the postings of every id a compaction took out of
  docmeta (``build_index.merge_phase``), so df / N / avgdl and every
  block-max are exact for the surviving corpus — after compaction,
  search results are identical to an index freshly built without the
  deleted docs (pytest-verified). The partials keep the dead postings
  until their partition is indexed again (a changed input file, or an
  increment consolidation); ``merge_metrics.json`` counts them. Doc
  ids stay sparse (no renumbering: a renumber would cascade base
  shifts through every partition); ``stats.doc_id_space`` records the
  dense-array size for searchers.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from sotohp_ray.config import IndexConfig
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


def _compact_partition(index_dir: str, pid: int, deleted: np.ndarray) -> dict:
    """Drop the deleted docs from one partition's docmeta (an atomic
    rewrite, only when it holds one). The partials are not opened:
    docmeta is the partition's live-docs set, and the merge drops the
    postings of every doc missing from it. Returns the partition's
    live doc and token counts, read from its docmeta as it now stands,
    so a retry after a half-finished compaction computes the same."""
    dm_path = os.path.join(
        index_dir, "docmeta", f"partition-{pid:05d}", "data.parquet"
    )
    dm = pq.read_table(dm_path)
    keep = ~np.isin(
        dm["doc_id"].to_numpy(zero_copy_only=False), deleted, kind="sort"
    )
    if not keep.all():
        dm = dm.filter(pa.array(keep))
        lin.atomic_write_table(dm, dm_path, use_dictionary=False)
    return {
        "partition_id": pid,
        "doc_count": dm.num_rows,
        "token_count": int(
            dm["doc_len"].to_numpy(zero_copy_only=False).sum()
        ),
    }


def compact_index(index_dir: str) -> dict:
    """Apply all tombstones to docmeta and rebuild the dictionary with
    exact post-delete statistics. Returns the updated stats dict, with
    ``partitions_compacted``: how many partitions held a tombstone."""
    import shutil

    import ray

    from sotohp_ray.pipelines.build_index import commit_lineage

    deleted = load_tombstones(index_dir)
    with open(os.path.join(index_dir, "config.json")) as f:
        config = IndexConfig.from_json(f.read())
    old_stats = lin.read_stats(index_dir)
    if deleted.size == 0:
        return {**old_stats, "partitions_compacted": 0}

    # a partition's ids are [base, base + the rows it indexed), the
    # rows now live plus the ones compacted out before; only those
    # that hold a tombstone are read
    records = {r["partition_id"]: r for r in lin.done_records(index_dir)}
    items = []
    for pid, r in sorted(records.items()):
        lo = int(r["base_doc_id"])
        hi = lo + int(r["doc_count"]) + int(r.get("compacted_out", 0))
        if np.searchsorted(deleted, lo) < np.searchsorted(deleted, hi):
            items.append({"partition_id": pid})
    dref = ray.put(deleted)

    def _one(batch: dict) -> dict:
        dels = ray.get(dref)
        out = {k: [] for k in ("partition_id", "doc_count", "token_count")}
        for pid in batch["partition_id"]:
            m = _compact_partition(index_dir, int(pid), dels)
            for k in out:
                out[k].append(m[k])
        return {k: np.asarray(v, dtype=np.int64) for k, v in out.items()}

    res, _ = map_items(_one, items)

    # counts are set, not decremented: a retry after a run that failed
    # partway finds some docmeta already filtered and must still end
    # with the same lineage (and stats) as one run that never failed
    for _, row in res.iterrows():
        r = records[int(row["partition_id"])]
        indexed = int(r["doc_count"]) + int(r.get("compacted_out", 0))
        r["doc_count"] = int(row["doc_count"])
        r["token_count"] = int(row["token_count"])
        r["compacted_out"] = indexed - r["doc_count"]
        lin.write_record(index_dir, r)

    # compacted_out is in the lineage fingerprint, so the merge reruns
    # whenever a partition lost a doc: df and every block-max change
    stats, _ = commit_lineage(
        index_dir, config,
        {
            **old_stats,
            # doc ids stay sparse: searchers size dense arrays by the
            # ORIGINAL id space, scoring N is the live count
            "doc_id_space": int(
                old_stats.get("doc_id_space", old_stats["n_docs"])
            ),
            "compacted_docs_total": sum(
                int(r.get("compacted_out", 0)) for r in records.values()
            ),
        },
    )

    # tombstones are applied — clear them
    shutil.rmtree(tombstones_dir(index_dir), ignore_errors=True)
    stats["merged"] = True
    stats["partitions_compacted"] = len(items)
    return stats
