"""Per-partition lineage: the engine's checkpoint/resume state.

Reference analog: ``State.mediaLastSynchronized`` — each document
carries a marker of its last successful publication, and the sync
pipeline filters already-done work (MediaServiceLive.scala:1317-1349,
resume filter :1522). Here the granularity is an input PARTITION: one
JSON record per partition with the input fingerprint, tokenizer/config
version and token/posting-count metrics. A resumed build skips
partitions whose lineage says ``done`` AND whose fingerprint+config
still match (a config change invalidates the checkpoint — the
reference's non-transactional checkpoint TODO at
MediaServiceLive.scala:1480 is the failure mode this prevents).

This module owns the index-state decision: which partitions are live
(``done_records``), the fingerprint that decides whether the merged
dictionary is current (``lineage_fingerprint``), how a partition is
retired (``drop_partition``), and the writes of ``stats.json`` and the
other JSON sidecars. ``build_index.commit_lineage`` combines them.

All writes are atomic (tmp + rename), and lineage is written only
AFTER the partition's data files are durably in place.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile


def input_fingerprint(file_path: str) -> str:
    """Cheap content-change detector: (name, size, mtime_ns). Size
    alone misses same-size edits; mtime_ns catches any rewrite without
    paying a full content hash per resume check."""
    st = os.stat(file_path)
    payload = f"{os.path.basename(file_path)}:{st.st_size}:{st.st_mtime_ns}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def lineage_dir(index_dir: str) -> str:
    return os.path.join(index_dir, "lineage")


def _path(index_dir: str, partition_id: int) -> str:
    return os.path.join(lineage_dir(index_dir), f"partition-{partition_id:05d}.json")


def write_record(index_dir: str, record: dict) -> None:
    d = lineage_dir(index_dir)
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    with os.fdopen(fd, "w") as f:
        json.dump(record, f, sort_keys=True)
    os.replace(tmp, _path(index_dir, record["partition_id"]))


def read_records(index_dir: str) -> list[dict]:
    d = lineage_dir(index_dir)
    if not os.path.isdir(d):
        return []
    out = []
    for name in sorted(os.listdir(d)):
        if name.startswith("partition-") and name.endswith(".json"):
            with open(os.path.join(d, name)) as f:
                out.append(json.load(f))
    return out


def done_records(index_dir: str) -> list[dict]:
    """The LIVE partitions: every 'done' record, whatever config
    indexed it. Global stats and the merge are derived from exactly
    this set."""
    return [r for r in read_records(index_dir) if r.get("status") == "done"]


def lineage_fingerprint(records: list[dict]) -> str:
    """Fingerprint of the done records the merge was built from.
    ``compacted_out`` is part of it: compaction rewrites partitions in
    place without changing their input, so a crash between its lineage
    writes and its merge must still leave the merge marker stale."""
    return hashlib.sha256(
        json.dumps(
            sorted(
                (r["partition_id"], r["input_fingerprint"],
                 r.get("compacted_out", 0))
                for r in records
            )
        ).encode()
    ).hexdigest()[:16]


def increments_dir(index_dir: str) -> str:
    return os.path.join(index_dir, "increments")


def increment_path(index_dir: str, pid: int, ext: str) -> str:
    """A sync increment's persisted input (``parquet``) or intent
    (``json``)."""
    return os.path.join(
        increments_dir(index_dir), f"partition-{int(pid):05d}.{ext}"
    )


def partition_ids(index_dir: str) -> list[int]:
    """Every partition id with any artifact on disk (lineage record,
    docmeta or partials dir, increment intent or input), including
    half-written ones that have no 'done' record yet."""
    ids = set()
    for d in (lineage_dir(index_dir), increments_dir(index_dir),
              os.path.join(index_dir, "docmeta"),
              os.path.join(index_dir, "partials")):
        if os.path.isdir(d):
            ids.update(
                int(n[len("partition-"):].split(".")[0])
                for n in os.listdir(d) if n.startswith("partition-")
            )
    return sorted(ids)


def drop_partition(index_dir: str, partition_id: int) -> None:
    """Idempotently retire one partition: the increment intent first
    (so the sync's crash replay can never re-index it), then the
    increment input, the lineage record (so its rows no longer feed
    the global stats) and the docmeta/partials dirs (so they no longer
    feed the merge)."""
    for p in (
        increment_path(index_dir, partition_id, "json"),
        increment_path(index_dir, partition_id, "parquet"),
        _path(index_dir, partition_id),
    ):
        if os.path.exists(p):
            os.remove(p)
    for sub in ("docmeta", "partials"):
        shutil.rmtree(
            os.path.join(index_dir, sub, f"partition-{partition_id:05d}"),
            ignore_errors=True,
        )


def read_stats(index_dir: str) -> dict:
    with open(os.path.join(index_dir, "stats.json")) as f:
        return json.load(f)


def write_stats(index_dir: str, stats: dict) -> None:
    # atomic: every Searcher reads stats.json, and a torn write would
    # take the whole index offline
    write_json(os.path.join(index_dir, "stats.json"), stats)


def replace_dir(staging: str, live: str) -> None:
    """Put directory ``staging`` in place of ``live``. The old tree
    waits at ``live + ".old"`` between the two renames: if the second
    rename fails it is renamed back before the error propagates, and
    if the process dies there, ``restore_dir`` (which callers run
    before they start) brings it back."""
    if not os.path.isdir(live):
        os.replace(staging, live)
        return
    old = live + ".old"
    shutil.rmtree(old, ignore_errors=True)
    os.replace(live, old)
    try:
        os.replace(staging, live)
    except BaseException:
        os.replace(old, live)
        raise
    shutil.rmtree(old, ignore_errors=True)


def restore_dir(live: str) -> None:
    """Undo a ``replace_dir`` that died between its two renames."""
    old = live + ".old"
    if not os.path.exists(live) and os.path.isdir(old):
        os.replace(old, live)


def write_json(final_path: str, payload: dict) -> None:
    """Atomic JSON sidecar write (tmp + rename)."""
    d = os.path.dirname(final_path)
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".json.tmp")
    with os.fdopen(fd, "w") as f:
        json.dump(payload, f)
    os.replace(tmp, final_path)


def atomic_write_table(table, final_path: str) -> None:
    """Write a parquet file atomically into place (tmp + rename) —
    idempotent-per-partition output, the retry-safety discipline of the
    reference's bulk sink (ElasticOperations.scala:149-167: retries are
    safe because upserts are id-keyed)."""
    import pyarrow.parquet as pq

    d = os.path.dirname(final_path)
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".parquet.tmp")
    os.close(fd)
    # ZSTD: docmeta's hex digests/uuids compress ~45% vs snappy and the
    # dictionary ~25%, for ~1 ms extra per file — index bytes on disk
    # are also index bytes shuffled/replicated at cluster scale
    pq.write_table(table, tmp, compression="ZSTD")
    os.replace(tmp, final_path)


def atomic_write_bucketed(
    table, key_values, final_path: str
) -> None:
    """Atomically write ``table`` with ONE ROW GROUP PER RUN of the
    (pre-sorted) ``key_values`` array — the shuffle-write side of the
    bucketed merge: row-group statistics then let each per-bucket merge
    task read exactly its rows via filter pushdown, with no groupby
    exchange. ``key_values`` must be sorted ascending and align 1:1
    with ``table`` rows."""
    import numpy as np
    import pyarrow.parquet as pq

    d = os.path.dirname(final_path)
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".parquet.tmp")
    os.close(fd)
    n = len(key_values)
    bounds = (
        np.concatenate(
            ([0], np.flatnonzero(np.diff(key_values)) + 1, [n])
        )
        if n
        else np.array([0, 0])
    )
    # no column statistics (the rgmap sidecar IS the bucket lookup —
    # stats on large_binary blob columns would bloat the footer with
    # min/max blob bytes and dominate merge-side footer parse time).
    # ZSTD halves the partials bytes (tf/dl varint streams are mostly
    # repeated small values; position gaps compress moderately) at
    # ~2 ms/partition encode — partials ARE the shuffle payload, so
    # this halves the exchange volume at cluster scale and the
    # writeback pressure single-node
    writer = pq.ParquetWriter(
        tmp, table.schema, write_statistics=False, compression="ZSTD"
    )
    try:
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi > lo:
                writer.write_table(table.slice(int(lo), int(hi - lo)))
    finally:
        writer.close()
    os.replace(tmp, final_path)
