"""Per-document update/upsert — the hash-resync path (reference
analog: ``MediaServiceLive.scala:1317-1349,1522`` synchronizeState
re-processes only documents whose per-doc state hash changed).

``sync_changed_docs`` takes corpus rows (the sync scan) and re-indexes
only what actually changed:

1. **Detect** — each incoming row's identity is its deterministic
   doc_uuid (repo, path, commit) and its content state is its
   content_sha256. Docmeta is scanned in batches with a hash-set
   membership test (``pc.is_in`` against the incoming uuid set — NOT a
   parquet ``in``-filter expression, whose literal list would be
   corpus-sized for a full resync); a row is *changed* when its sha
   differs and *new* when its uuid is absent. With
   ``remove_missing=True`` the same scan also collects live docs
   ABSENT from the incoming rows, which are then tombstoned — so
   presenting the full current corpus propagates deletions exactly
   like the reference's full re-sync. Unchanged rows cost one hash
   compare and nothing else.
2. **Tombstone + append** — changed docs' old engine ids are
   tombstoned (pipelines/delete.py); the changed+new rows become ONE
   new increment partition appended at ``base_doc_id = doc_id_space``
   (append-only id allocation — no base shifts, so no cascade
   re-indexing of existing partitions). The increment's input rows are
   persisted under ``index_dir/increments/`` plus an INTENT sidecar
   ``partition-N.json`` recording (pid, base, rows) BEFORE any index
   state changes — the crash-recovery record.
3. **Commit** — compaction applies the tombstones to docmeta (the
   live-docs set), then ``build_index.commit_lineage`` (the one
   lineage-to-index step that build, sync, crash repair and compaction
   share) recomputes stats from the done lineage records and reruns the
   bucketed merge, which drops the postings of compacted docs, with
   exact post-update df/N/avgdl, so search results equal an index
   freshly built over the updated corpus (the compaction==fresh-build
   contract, pytest-verified for deletes).

Crash safety: every step is either idempotent or replayable. The
``doc_id_space`` bump is written (atomically) BEFORE the increment is
indexed, so a half-indexed increment can never put docmeta ids beyond
the recorded space (which would crash ``Searcher.__init__``). Every
``sync_changed_docs`` call begins with ``_repair_interrupted``: any
increment intent without a 'done' lineage record is re-indexed from
its persisted input (all partition writes are atomic tmp+rename, so
re-running is safe), pending tombstones trigger the compaction, and
the commit merges if the merge marker does not match the lineage —
the finishing work the interrupted run never reached. A retry
therefore REPAIRS instead of silently no-op'ing on the "detect sees
the new docmeta rows as current" early exit; after a completed sync
the commit finds the marker current and merges nothing.

Source-of-truth caveat: an increment represents state newer than the
original corpus directory. A later full ``build_index`` against that
(unchanged) corpus dir re-derives the index from the corpus: it
retires every increment (lineage, partitions, persisted input and
intent, under any config), so no later sync replays one. One
divergence remains: compaction is recorded in the base partitions'
lineage, and a rebuild keeps the compacted state of unchanged input
files (that is how deletes survive a rebuild: their docmeta stays
filtered, and the merge drops the ids missing from it). So old
versions of docs a compacting sync replaced stay out of a rebuilt
index until their input files change — then the partition is indexed
afresh and its ids are live again — and tombstones still pending at
the rebuild keep hiding them.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from sotohp_ray.config import IndexConfig
from sotohp_ray.state import lineage as lin


_existing_partition_ids = lin.partition_ids
_increments_dir = lin.increments_dir


def _scan_docmeta(
    index_dir: str, uuids: list[str], collect_missing: bool = False
) -> tuple[pa.Table, np.ndarray]:
    """Batched docmeta scan: (rows whose doc_uuid is in ``uuids``,
    doc_ids of live rows NOT in ``uuids`` when requested). Membership
    is one hash-set probe per row (``pc.is_in``) over column-pruned
    64k-row batches — never a corpus-sized filter-expression literal,
    never more than one batch of docmeta in driver memory at a time
    beyond the (incoming-sized) matches."""
    import pyarrow.dataset as pads

    dm_dir = os.path.join(index_dir, "docmeta")
    vs = pa.array(sorted(set(uuids)), pa.string())
    ds = pads.dataset(dm_dir, format="parquet")
    matched, missing = [], []
    scanner = ds.scanner(
        columns=["doc_id", "doc_uuid", "content_sha256"],
        batch_size=65536,
    )
    for b in scanner.to_batches():
        t = pa.Table.from_batches([b])
        m = pc.is_in(t["doc_uuid"], value_set=vs)
        matched.append(t.filter(m))
        if collect_missing:
            missing.append(
                t.filter(pc.invert(m))["doc_id"]
                .to_numpy(zero_copy_only=False)
                .astype(np.uint64)
            )
    tbl = (
        pa.concat_tables(matched)
        if matched
        else pa.table({
            "doc_id": pa.array([], pa.uint64()),
            "doc_uuid": pa.array([], pa.string()),
            "content_sha256": pa.array([], pa.string()),
        })
    )
    miss = (
        np.concatenate(missing)
        if missing
        else np.zeros(0, dtype=np.uint64)
    )
    return tbl, miss


def detect_changes(
    index_dir: str, incoming: pa.Table, collect_missing: bool = False
) -> dict:
    """-> {"changed_rows": int[], "new_rows": int[], "old_ids": int[],
    "missing_ids": uint64[], "uuids": list[str], "shas": list[str]} —
    row indices into ``incoming`` that need re-indexing, the engine
    doc_ids their previous versions occupy, and (when requested) live
    engine ids absent from ``incoming`` (i.e. deletions)."""
    from sotohp_ray.functions.hashing import doc_uuid_column, sha256_column
    from sotohp_ray.pipelines.delete import load_tombstones

    uuids = doc_uuid_column(
        incoming["repo"], incoming["path"], incoming["commit"]
    ).to_pylist()
    shas = sha256_column(
        incoming["content"].combine_chunks()
    ).to_pylist()
    dm, miss = _scan_docmeta(index_dir, uuids, collect_missing)
    # a doc synced twice before compaction has BOTH its tombstoned old
    # row and its live row in docmeta — only the live one is current
    tomb = load_tombstones(index_dir)
    if tomb.size:
        ids = dm["doc_id"].to_numpy(zero_copy_only=False)
        dm = dm.filter(
            pa.array(~np.isin(ids.astype(np.uint64), tomb, kind="sort"))
        )
        if miss.size:
            miss = miss[~np.isin(miss, tomb, kind="sort")]
    prev = {
        u: (int(d), s)
        for d, u, s in zip(
            dm["doc_id"].to_pylist(),
            dm["doc_uuid"].to_pylist(),
            dm["content_sha256"].to_pylist(),
        )
    }
    changed, new, old_ids = [], [], []
    for i, (u, s) in enumerate(zip(uuids, shas)):
        hit = prev.get(u)
        if hit is None:
            new.append(i)
        elif hit[1] != s:
            changed.append(i)
            old_ids.append(hit[0])
    return {
        "changed_rows": changed,
        "new_rows": new,
        "old_ids": old_ids,
        "missing_ids": miss,
        "uuids": uuids,
        "shas": shas,
    }


def _intents(index_dir: str) -> list[dict]:
    """Increment intents {pid, base, rows} on disk, sorted by pid."""
    d = _increments_dir(index_dir)
    out = []
    for name in sorted(os.listdir(d)) if os.path.isdir(d) else []:
        if name.startswith("partition-") and name.endswith(".json"):
            with open(os.path.join(d, name)) as f:
                out.append(json.load(f))
    return sorted(out, key=lambda r: int(r["pid"]))


def _index_increment(
    index_dir: str, config: IndexConfig, intent: dict
) -> None:
    """Index one increment from its persisted input. The doc_id_space
    bump precedes indexing, so docmeta can never hold ids >= the
    recorded space (Searcher arrays size from it)."""
    from sotohp_ray.pipelines.build_index import PartitionIndexer

    pid, base = int(intent["pid"]), int(intent["base"])
    stats = lin.read_stats(index_dir)
    if int(stats.get("doc_id_space", stats["n_docs"])) < base + int(
        intent["rows"]
    ):
        stats["doc_id_space"] = base + int(intent["rows"])
        lin.write_stats(index_dir, stats)
    PartitionIndexer(config.to_json(), index_dir)._index_one(
        pid, lin.increment_path(index_dir, pid, "parquet"), base
    )


def _repair_interrupted(
    index_dir: str, config: IndexConfig, compact: bool | str
) -> None:
    """Replay any work an interrupted sync left behind, in order:

    - a consolidation record is on disk -> roll it forward;
    - an increment intent exists but its partition has no 'done'
      lineage record -> re-index it from the persisted increment input
      (atomic overwrites make the replay safe);
    - tombstones are pending and the caller allows compaction -> the
      interrupted run tombstoned old versions but never compacted;
    - otherwise commit the lineage, which merges only if the merge
      marker is stale (partitions were indexed but the dictionary was
      never rebuilt).
    """
    from sotohp_ray.pipelines import delete
    from sotohp_ray.pipelines.build_index import commit_lineage

    _finish_consolidation(index_dir, config)
    done = {r["partition_id"] for r in lin.done_records(index_dir)}
    for intent in _intents(index_dir):
        if int(intent["pid"]) not in done and os.path.exists(
            lin.increment_path(index_dir, intent["pid"], "parquet")
        ):  # (an intent whose input was lost has nothing to replay)
            _index_increment(index_dir, config, intent)
    if compact is True and delete.load_tombstones(index_dir).size:
        # under compact='auto', pending tombstones are a NORMAL
        # deferred state, not an interrupted run — the policy in the
        # sync body decides when they get applied
        delete.compact_index(index_dir)
    else:
        commit_lineage(index_dir, config, lin.read_stats(index_dir))


AUTO_COMPACT_MAX_INCREMENTS = 8
AUTO_COMPACT_TOMBSTONE_FRAC = 0.10


def _done_increment_intents(index_dir: str) -> list[dict]:
    """Sorted (by pid) increment intents whose partition has a 'done'
    lineage record — the consolidation-eligible backlog."""
    done = {r["partition_id"] for r in lin.done_records(index_dir)}
    return [i for i in _intents(index_dir) if int(i["pid"]) in done]


def _auto_compact_due(index_dir: str) -> bool:
    """The compact='auto' trigger: the increment backlog crossed
    AUTO_COMPACT_MAX_INCREMENTS partitions, or pending tombstones
    crossed AUTO_COMPACT_TOMBSTONE_FRAC of the live corpus. Until the
    trigger fires, syncs pay only the cheap merge — tombstones filter
    results immediately, surviving docs keep pre-compaction scores
    (the standard deferred-delete trade, same as Lucene's deleted
    docs affecting stats until a forced merge)."""
    from sotohp_ray.pipelines.delete import load_tombstones

    if len(_done_increment_intents(index_dir)) >= (
        AUTO_COMPACT_MAX_INCREMENTS
    ):
        return True
    n_docs = int(lin.read_stats(index_dir).get("n_docs", 0))
    tombs = int(load_tombstones(index_dir).size)
    return tombs > 0 and tombs >= AUTO_COMPACT_TOMBSTONE_FRAC * max(
        n_docs, 1
    )


def _finish_consolidation(index_dir: str, config: IndexConfig) -> bool:
    """Forward-only replay of an increment consolidation whose
    ``consolidate.json`` record is on disk: the consolidated input
    parquet is durable BEFORE the record is written, so repair always
    rolls FORWARD — finish retiring the old increments, index the
    consolidated partition if its lineage record is missing, adjust
    doc_id_space, drop the record. Every step is idempotent."""
    cpath = os.path.join(_increments_dir(index_dir), "consolidate.json")
    if not os.path.exists(cpath):
        return False
    with open(cpath) as f:
        c = json.load(f)
    for pid in c["old_pids"]:
        lin.drop_partition(index_dir, int(pid))
    intent = {"pid": int(c["pid"]), "base": c["base"], "rows": c["rows"]}
    if intent["pid"] not in {
        r["partition_id"] for r in lin.done_records(index_dir)
    }:
        lin.write_json(
            lin.increment_path(index_dir, intent["pid"], "json"), intent
        )
        _index_increment(index_dir, config, intent)
    stats = lin.read_stats(index_dir)
    stats["doc_id_space"] = int(c["space"])
    lin.write_stats(index_dir, stats)
    os.remove(cpath)
    return True


def _consolidate_increments(
    index_dir: str, config: IndexConfig
) -> bool:
    """Fold the whole increment backlog into ONE partition (the
    auto-compaction policy's partition-count bound, VERDICT-r4 ask
    #7). Preconditions: >= 2 done increments, contiguous id ranges
    (increments stack at the top of the id space by construction) and
    NO pending tombstones — the caller runs ``compact_index`` first,
    which also clears the backlog's dead rows from docmeta, so "live
    rows of each increment" is exactly its docmeta partition.

    Engine ids of the consolidated docs are REASSIGNED (dense from
    the first increment's base, the fresh-build rule over the
    surviving rows); result-level equality is unaffected because
    every pipeline maps engine ids to original ids through docmeta
    before ranking — the same sparse-vs-dense freedom compaction
    already established. Crash safety is the staged-record discipline
    of ``_finish_consolidation``: the consolidated input parquet is
    durable before the record, the record before any destruction."""
    from sotohp_ray.functions.hashing import doc_uuid_column
    from sotohp_ray.pipelines.delete import load_tombstones

    if load_tombstones(index_dir).size:
        return False  # caller must compact first
    intents = _done_increment_intents(index_dir)
    if len(intents) < 2:
        return False
    for a, b in zip(intents, intents[1:]):
        if int(a["base"]) + int(a["rows"]) != int(b["base"]):
            return False  # non-contiguous: never consolidate a gap
    stats = lin.read_stats(index_dir)
    space = int(stats.get("doc_id_space", stats["n_docs"]))
    last = intents[-1]
    if int(last["base"]) + int(last["rows"]) != space:
        return False  # backlog is not the top of the id space
    parts = []
    for intent in intents:
        pid = int(intent["pid"])
        t = pq.read_table(lin.increment_path(index_dir, pid, "parquet"))
        dm_path = os.path.join(
            index_dir, "docmeta", f"partition-{pid:05d}", "data.parquet"
        )
        live = set(
            pq.read_table(dm_path, columns=["doc_uuid"])
            ["doc_uuid"].to_pylist()
        ) if os.path.exists(dm_path) else set()
        uu = doc_uuid_column(t["repo"], t["path"], t["commit"])
        keep = pc.is_in(
            uu, value_set=pa.array(sorted(live), type=pa.string())
        )
        parts.append(t.filter(keep))
    cat = pa.concat_tables(parts)
    base = int(intents[0]["base"])
    new_pid = (max(_existing_partition_ids(index_dir), default=-1)) + 1
    # durable order: consolidated input FIRST, then the record (the
    # point of no return — repair rolls forward from here), then the
    # retire+index replay shared with crash recovery
    lin.atomic_write_table(
        cat, lin.increment_path(index_dir, new_pid, "parquet")
    )
    lin.write_json(
        os.path.join(_increments_dir(index_dir), "consolidate.json"),
        {
            "old_pids": [int(i["pid"]) for i in intents],
            "pid": new_pid,
            "base": base,
            "rows": cat.num_rows,
            "space": base + cat.num_rows,
        },
    )
    _finish_consolidation(index_dir, config)
    return True


def sync_changed_docs(
    index_dir: str,
    incoming: pa.Table,
    compact: bool | str = True,
    remove_missing: bool = False,
) -> dict:
    """Re-index exactly the incoming rows whose content changed (plus
    brand-new rows); with ``remove_missing=True``, also tombstone live
    docs absent from ``incoming`` (full-corpus resync semantics — only
    pass it when ``incoming`` IS the complete current corpus).
    Idempotent: a second sync with the same rows is a no-op; a retry
    after a crash repairs the interrupted run first. Returns counts +
    the new stats.

    ``compact`` policies: ``True`` (default) compacts whenever this
    sync tombstoned anything — scores always equal a fresh build;
    ``False`` defers forever (caller owns compaction); ``"auto"``
    defers until the increment backlog reaches
    AUTO_COMPACT_MAX_INCREMENTS partitions or pending tombstones reach
    AUTO_COMPACT_TOMBSTONE_FRAC of the corpus, then runs
    ``compact_index`` AND folds the whole increment backlog into ONE
    partition (``_consolidate_increments``) — N repeated syncs keep
    the serving-side partition count and tombstone load BOUNDED
    instead of growing per sync, with the crash-safety contract
    preserved (staged ``consolidate.json`` record, forward-only
    replay)."""
    from sotohp_ray.pipelines.build_index import commit_lineage
    from sotohp_ray.pipelines.delete import compact_index, delete_docs

    with open(os.path.join(index_dir, "config.json")) as f:
        config = IndexConfig.from_json(f.read())
    _repair_interrupted(index_dir, config, compact)
    det = detect_changes(
        index_dir, incoming, collect_missing=remove_missing
    )
    rows = det["changed_rows"] + det["new_rows"]
    missing = det["missing_ids"] if remove_missing else np.zeros(
        0, dtype=np.uint64
    )
    if not rows and not missing.size:
        return {
            "changed": 0, "new": 0, "tombstoned": 0, "removed": 0,
            "stats": lin.read_stats(index_dir),
        }

    dead = list(det["old_ids"]) + [int(i) for i in missing]
    if dead:
        delete_docs(index_dir, engine_doc_ids=dead)

    pid = None
    if rows:
        # one increment partition, ids appended at the top of the
        # space. Durable order matters: (1) increment input parquet,
        # (2) intent json {pid, base, rows} — the replay record,
        # (3) doc_id_space bump + index (_index_increment). A crash
        # between any two steps is repaired by _repair_interrupted on
        # the next call.
        stats = lin.read_stats(index_dir)
        pid = (max(_existing_partition_ids(index_dir), default=-1)) + 1
        inc = incoming.take(pa.array(sorted(rows), pa.int64()))
        lin.atomic_write_table(
            inc, lin.increment_path(index_dir, pid, "parquet")
        )
        intent = {
            "pid": pid,
            "base": int(stats.get("doc_id_space", stats["n_docs"])),
            "rows": inc.num_rows,
        }
        lin.write_json(lin.increment_path(index_dir, pid, "json"), intent)
        _index_increment(index_dir, config, intent)

    if compact is True and dead:
        new_stats = compact_index(index_dir)
    else:
        if compact == "auto" and _auto_compact_due(index_dir):
            compact_index(index_dir)  # applies + clears tombstones
            _consolidate_increments(index_dir, config)
        # pure additions, deferred compaction or a folded backlog:
        # recompute the global stats from lineage and rerun the merge
        # so new partitions are queryable with exact df/N/avgdl
        new_stats, _ = commit_lineage(
            index_dir, config, lin.read_stats(index_dir)
        )
    out = {
        "changed": len(det["changed_rows"]),
        "new": len(det["new_rows"]),
        "tombstoned": len(det["old_ids"]),
        "removed": int(missing.size),
        "stats": new_stats,
    }
    if pid is not None:
        out["increment_partition"] = pid
    return out
