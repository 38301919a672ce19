"""Index build orchestration — two Ray Data phases + tiny driver-side
metadata steps.

Both phases run as ``utils.map_items`` stages: one Ray Data task per
CPU slot of the cluster (at most one per item), each task working
through a contiguous run of the items, so the fixed per-task cost of
Ray Data (tens of ms of CPU, half of it in the driver) is paid once per
slot, not once per partition or shard.

Phase 1 (embarrassingly parallel, resumable per input partition):
  a Dataset of partition descriptors -> task-pool ``map_batches``
  (per-worker cached indexer state). Each task indexes its run of
  partitions one at a time, in order: it reads ONE input Parquet
  partition, runs the vectorized SPIMI stage (stages/spimi.py),
  atomically writes ``docmeta/partition-P/`` and — as the WRITE SIDE of
  the merge shuffle — ``partials/partition-P/data.parquet`` sorted by
  ``term_shard`` with one parquet row group per shard plus an
  ``rgmap.json`` sidecar, then the lineage record, before it starts
  the next partition; a task that fails midway keeps the lineage of
  the partitions it finished. Already-done
  partitions (lineage fingerprint + config match) are skipped before
  the Dataset is even built — the resume filter
  (MediaServiceLive.scala:1522 analog).

  Why descriptors instead of a flat ``read_parquet``: lineage must be
  written per INPUT partition after its outputs are durable. A flat
  read interleaves rows of many files per block, destroying that
  boundary. The descriptor Dataset keeps the pipeline Ray-Data-native
  (streaming, backpressured) while making the partition the unit of
  checkpointing. At 10^12-file scale the descriptor table is itself a
  Dataset read from a manifest.

Phase 2 (the merge — a bucketed shuffle with NO exchange): because the
  shuffle key (``term_shard = hash(term) % S``) is known at write time,
  phase 1 already co-located each shard's partials into dedicated row
  groups; the merge is independent per-shard-range tasks, each merging
  its shards one at a time from exactly their buckets (one
  ``read_row_groups`` per partition file and shard) into
  ``dictionary.merging/shard-SSSSS.parquet``; the finished directory
  then replaces ``dictionary`` whole. This replaces a generic
  ``groupby(term_shard)`` exchange — measured 2x faster at 32 CPUs on
  small data, and at cluster scale it is the classic bucketed shuffle
  write whose reduce side scales linearly with shards. Hot-term
  postings volume per shuffled row stays bounded via salt chunking
  (stages/spimi.py). Docmeta is each partition's live-docs set: a
  compaction filters only docmeta, and the merge drops the postings
  of the ids missing from it (``_dead_ids``). Marked done by
  ``_MERGE_DONE.json`` containing the config + lineage fingerprints,
  so a resumed build redoes the merge iff phase-1 output changed.

``commit_lineage`` is the one step between the two phases, and the
only caller of the merge: it aggregates the global stats (N, total
tokens, avgdl) from the done lineage records (tiny, in-process) — the
A2-style partial+final multi-aggregate (Statistics.scala:49-135
analog) — runs the merge iff the marker is stale, and writes
``stats.json`` after the new dictionary is in place.
``update.sync_changed_docs`` (and its crash repair) and
``delete.compact_index`` go through the same step, so every path from
lineage to a servable index decides staleness the same way. Before
phase 1 a build retires every partition that no corpus file backs,
sync increments included, so the done records are exactly the
corpus partitions.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from sotohp_ray.config import IndexConfig
from sotohp_ray.sources.corpus import corpus_files
from sotohp_ray.stages.spimi import index_partition_table
from sotohp_ray.state import lineage as lin
from sotohp_ray.utils import map_items


def _config_fingerprint(config: IndexConfig) -> str:
    return hashlib.sha256(config.to_json().encode()).hexdigest()[:16]


class PartitionIndexer:
    """Per-worker indexing state: tokenizer + parsed config, built once
    per (worker process, config) and cached in ``for_worker`` — the
    init-once-per-process discipline of the reference's memoized model
    allocators (MediaServiceLive.scala:1879-1891). Called once per
    task on that task's whole run of partition descriptors, which it
    indexes one by one (``_index_one``: outputs, then lineage). Runs
    as a TASK-pool ``map_batches`` stage, not an actor pool: the state
    here is cheap (regex strings), and tasks reuse the session's
    long-lived warm workers, while a dedicated actor pool would pay a
    fresh process spawn + module import (~2 s) on every build. Actor
    pools are reserved for stages whose per-actor state is genuinely
    expensive (model scorers, loaded dictionary shards)."""

    _cache: dict[tuple, "PartitionIndexer"] = {}

    def __init__(self, config_json: str, index_dir: str):
        from sotohp_ray.functions.tokenizer import CodeTokenizer

        self.config = IndexConfig.from_json(config_json)
        self.tokenizer = CodeTokenizer(self.config.tokenizer)
        self.index_dir = index_dir
        self.cfg_fp = _config_fingerprint(self.config)

    @classmethod
    def for_worker(cls, config_json: str, index_dir: str):
        key = (config_json, index_dir)
        inst = cls._cache.get(key)
        if inst is None:
            inst = cls._cache[key] = cls(config_json, index_dir)
        return inst

    def __call__(self, batch: dict) -> dict:
        out = {k: [] for k in ("partition_id", "doc_count", "token_count", "posting_count")}
        for pid, fpath, base in zip(
            batch["partition_id"], batch["file"], batch["base_doc_id"]
        ):
            m = self._index_one(int(pid), str(fpath), int(base))
            for k in out:
                out[k].append(m[k])
        return {k: np.array(v, dtype=np.int64) for k, v in out.items()}

    def _index_one(self, pid: int, fpath: str, base: int) -> dict:
        t = pq.read_table(fpath)
        docmeta, partials, metrics = index_partition_table(
            t, pid, base, self.config, tokenizer=self.tokenizer
        )
        # non-hive directory names: both tables carry a physical
        # partition_id column, and a hive-style "partition_id=" path
        # would make readers infer a conflicting partition field
        lin.atomic_write_table(
            docmeta,
            os.path.join(
                self.index_dir, "docmeta", f"partition-{pid:05d}", "data.parquet"
            ),
            use_dictionary=False,
        )
        shards = partials["term_shard"].to_numpy(zero_copy_only=False)
        write_partials(
            partials.take(pa.array(np.argsort(shards, kind="stable"))),
            os.path.join(self.index_dir, "partials", f"partition-{pid:05d}"),
        )
        record = {
            "partition_id": pid,
            "input_file": os.path.basename(fpath),
            "input_fingerprint": lin.input_fingerprint(fpath),
            "config": self.cfg_fp,
            "tokenizer_version": self.config.tokenizer.version_hash(),
            "base_doc_id": base,
            "status": "done",
            **metrics,
        }
        lin.write_record(self.index_dir, record)
        return metrics


def write_partials(partials: pa.Table, pdir: str) -> None:
    """Shuffle-WRITE side of the merge: ``partials``, sorted by
    term_shard, go to ``pdir/data.parquet`` with one row group per
    shard — the shuffle key is known at write time, so no groupby
    exchange is ever needed (and none of its all-to-all overhead is
    paid). Row-group map sidecar: row group i of data.parquet holds
    exactly shard rgmap[i] — merge tasks seek their bucket by index
    with zero filter/metadata evaluation."""
    shards = partials["term_shard"].to_numpy(zero_copy_only=False)
    lin.atomic_write_bucketed(
        partials, shards, os.path.join(pdir, "data.parquet")
    )
    lin.write_json(
        os.path.join(pdir, "rgmap.json"),
        {"shards": np.unique(shards).astype(int).tolist()},
    )


def build_index(
    corpus_dir: str,
    index_dir: str,
    config: IndexConfig | None = None,
    only_partitions: list[int] | None = None,
) -> dict:
    """Full build (phase 1 + stats + phase 2). Re-entrant: finished
    partitions are skipped via lineage; the merge is redone only when
    phase-1 output changed. ``only_partitions`` restricts phase 1 (used
    by the resume tests to simulate an interrupted build). The returned
    stats add, to those of ``stats.json``, the sizes of the index and
    the Ray Data task counts of both phases (``phase1_tasks``,
    ``merge_tasks``; 0 for a phase that ran nothing)."""
    config = config or IndexConfig()
    cfg_fp = _config_fingerprint(config)
    os.makedirs(index_dir, exist_ok=True)
    with open(os.path.join(index_dir, "config.json"), "w") as f:
        f.write(config.to_json())

    files = corpus_files(corpus_dir)
    counts = [pq.ParquetFile(f).metadata.num_rows for f in files]
    bases = np.zeros(len(files), dtype=np.int64)
    np.cumsum(counts[:-1], out=bases[1:])

    # a full build re-derives the index from the corpus: retire every
    # partition no corpus file backs (sync increments included, and
    # whatever config indexed them), so that the done records are
    # exactly the corpus partitions. Their partials would otherwise
    # still feed the merge and their metrics the global stats.
    names = [os.path.basename(f) for f in files]
    records = {r["partition_id"]: r for r in lin.done_records(index_dir)}
    for p in lin.partition_ids(index_dir):
        r = records.get(p)
        if p >= len(files) or (r and r.get("input_file") != names[p]):
            lin.drop_partition(index_dir, p)
            records.pop(p, None)
    # a crashed consolidation record would replay retired increments
    shutil.rmtree(lin.increments_dir(index_dir), ignore_errors=True)
    # stale-config checkpoints are ignored, i.e. re-done
    done = {p: r for p, r in records.items() if r.get("config") == cfg_fp}
    # stale = content changed OR this partition's doc-id base shifted
    # (an earlier partition's row count changed): doc_ids are dense
    # prefix sums, so a base shift cascades re-indexing downstream —
    # skipping would leave overlapping doc_id ranges in docmeta
    stale = [
        p
        for p, r in done.items()
        if r.get("input_fingerprint") != lin.input_fingerprint(files[p])
        or int(r.get("base_doc_id", -1)) != int(bases[p])
    ]
    for p in stale:
        done.pop(p)
    todo = [
        {"partition_id": p, "file": files[p], "base_doc_id": int(bases[p])}
        for p in range(len(files))
        if p not in done
        and (only_partitions is None or p in only_partitions)
    ]

    t0 = time.perf_counter()
    cfg_json = config.to_json()

    def _index_batch(batch: dict) -> dict:
        ix = PartitionIndexer.for_worker(cfg_json, index_dir)
        return ix(batch)

    _, phase1_tasks = map_items(_index_batch, todo)
    t_phase1 = time.perf_counter() - t0

    fields = {
        "partitions_done": len(done) + len(todo),
        "partitions_total": len(files),
        "config": cfg_fp,
        # dense doc-id space = total corpus rows (ids are partition
        # prefix sums); after a compaction n_docs < space because ids
        # stay sparse — searchers size arrays by space, score with
        # n_docs. Recomputing from the corpus keeps a resumed build
        # after compact_index consistent.
        "doc_id_space": int(bases[-1] + counts[-1]) if files else 0,
    }
    if fields["partitions_done"] < len(files):
        # simulated interrupt (only_partitions): phase 1 incomplete,
        # nothing to commit
        return {**fields, "merged": False, "phase1_tasks": phase1_tasks}

    t1 = time.perf_counter()
    stats, merge_tasks = commit_lineage(index_dir, config, fields)
    stats["merged"] = True
    stats["phase1_tasks"] = phase1_tasks
    stats["merge_tasks"] = merge_tasks or 0
    if merge_tasks is not None:
        stats["t_phase1_sec"] = round(t_phase1, 3)
        stats["t_merge_sec"] = round(time.perf_counter() - t1, 3)
    else:
        stats["merge_skipped"] = True

    def _dir_bytes(d: str) -> int:
        total = 0
        for root, _, names in os.walk(d):
            for nm in names:
                total += os.path.getsize(os.path.join(root, nm))
        return total

    stats["corpus_bytes"] = sum(os.path.getsize(f) for f in files)
    stats["dictionary_bytes"] = _dir_bytes(os.path.join(index_dir, "dictionary"))
    stats["docmeta_bytes"] = _dir_bytes(os.path.join(index_dir, "docmeta"))
    if stats["corpus_bytes"]:
        stats["dictionary_to_corpus_ratio"] = round(
            stats["dictionary_bytes"] / stats["corpus_bytes"], 4
        )
    return stats


def _merge_marker(index_dir: str) -> str:
    return os.path.join(index_dir, "_MERGE_DONE.json")


def commit_lineage(
    index_dir: str, config: IndexConfig, fields: dict
) -> tuple[dict, int | None]:
    """The one step that turns lineage into a servable index, shared by
    build, sync, crash repair and compaction. Global stats (N, total
    tokens, avgdl) are summed from the done lineage records
    (tiny, in-process; the partial+final multi-aggregate of
    Statistics.scala:49-135) together with the caller's ``fields``.
    The merge runs unless ``_MERGE_DONE.json`` already names this
    config and lineage fingerprint; it builds the new dictionary
    beside the live one and swaps it in whole, and only then are
    ``stats.json`` and the marker written (in that order). A merge
    that fails leaves the previous dictionary, stats and marker, so the
    index keeps answering as before and the next commit merges again.
    ``total_postings`` is the merge's own count of the postings it
    wrote (``merge_metrics.json``): a compacted partition's partials
    still hold its deleted docs' postings, which the merge drops.
    Idempotent. Returns (stats, the merge's task count, or None when
    the dictionary already reflected this lineage)."""
    lin.restore_dir(os.path.join(index_dir, "dictionary"))
    records = lin.done_records(index_dir)
    n_docs = sum(r["doc_count"] for r in records)
    total_tokens = sum(r["token_count"] for r in records)
    stats = {
        **fields,
        "n_docs": n_docs,
        "total_tokens": total_tokens,
        "avgdl": (total_tokens / n_docs) if n_docs else 0.0,
    }
    want = {"config": _config_fingerprint(config),
            "lineage": lin.lineage_fingerprint(records)}
    marker = _merge_marker(index_dir)
    merge_tasks = None
    if _read_json(marker) != want:  # dictionary reflects another lineage
        merge_tasks = merge_phase(index_dir, config, n_docs, stats["avgdl"])
    # (merge metrics written before they counted postings: the
    # partials of that merge held exactly the dictionary's postings)
    stats["total_postings"] = _read_json(
        os.path.join(index_dir, "merge_metrics.json")
    ).get("total_postings", sum(r["posting_count"] for r in records))
    lin.write_stats(index_dir, stats)
    if merge_tasks is not None:
        lin.write_json(marker, want)
    return stats, merge_tasks


def _read_json(path: str) -> dict:
    """The parsed JSON file at ``path``; ``{}`` when there is none."""
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def merge_phase(
    index_dir: str,
    config: IndexConfig,
    n_docs: int,
    avgdl: float,
) -> int:
    """Phase 2, run only by ``commit_lineage``: shuffle-free bucketed
    merge of all partials into dictionary shards, written to
    ``dictionary.merging`` and swapped in for ``dictionary``
    (``lin.replace_dir``) once every shard is written, then the merge
    metrics. Docmeta is each partition's live-docs set: the ids a
    compaction took out of it (``compacted_out`` > 0 in its lineage
    record) are dead, and the merge drops their postings, which the
    partials keep until the partition is indexed again. A fresh build
    has no dead ids and reads no docmeta here. Returns the number of
    merge tasks."""
    from sotohp_ray.stages.merge import merge_shard

    partials_dir = os.path.join(index_dir, "partials")
    dict_dir = os.path.join(index_dir, "dictionary")
    staging = dict_dir + ".merging"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)

    # shuffle-free merge: phase 1 already bucketed partials by
    # term_shard (sorted, one row group per shard, ``rgmap.json``), so
    # each shard is merged on its own from exactly its row groups. This
    # replaces groupby(term_shard).map_groups — the generic exchange
    # paid 2x wall time at 32 CPUs on small data and would pay an
    # all-to-all at cluster scale; with a write-side bucketed shuffle
    # the reduce side scales linearly with shards.
    cols = [
        "term_shard", "term", "salt", "count",
        "doc0", "tf0", "dl0",
        "doc_blob", "tf_blob", "dl_blob",
        "pos0", "pos_blob", "cf_partial",
    ]
    config_json = config.to_json()
    dead_ids = _dead_ids(index_dir)
    keys = ("term_shard", "n_terms", "postings", "dead", "seconds")

    part_dirs = sorted(
        os.path.join(partials_dir, d)
        for d in (os.listdir(partials_dir) if os.path.isdir(partials_dir) else [])
        if d.startswith("partition-")
    )

    # task granularity: the shard ids are the items of ``map_items``,
    # so each task merges one contiguous RANGE of shards, one task per
    # CPU slot (reduce width: see IndexConfig.merge_num_cpus). A task
    # parses each partition file's rgmap and footer once, then reads
    # and merges ONE shard at a time, so its memory is one shard's
    # partials however wide its range. Hash-sharded terms spread the
    # hot-term postings volume evenly across ranges.
    def _merge_range(batch: dict) -> dict:
        cfg = IndexConfig.from_json(config_json)
        parts = []  # (partition file, shard -> its row-group indexes)
        for pdir in part_dirs:
            with open(os.path.join(pdir, "rgmap.json")) as f:
                rgs: dict[int, list] = {}
                for i, x in enumerate(json.load(f)["shards"]):
                    rgs.setdefault(x, []).append(i)
            parts.append(
                (pq.ParquetFile(os.path.join(pdir, "data.parquet")), rgs)
            )
        out = {k: [] for k in keys}
        for s in batch["term_shard"].tolist():
            t0 = time.perf_counter()
            pieces = [
                pf.read_row_groups(rgs[s], columns=cols)
                for pf, rgs in parts if s in rgs
            ]
            if not pieces:
                continue
            group = pa.concat_tables(pieces)
            merged = merge_shard(group, n_docs, avgdl, cfg, dead_ids)
            postings = int(pc.sum(merged["df"]).as_py() or 0)
            if merged.num_rows:
                lin.atomic_write_table(
                    merged, os.path.join(staging, f"shard-{s:05d}.parquet"),
                    use_dictionary=False,
                )
            out["term_shard"].append(s)
            out["n_terms"].append(merged.num_rows)
            out["postings"].append(postings)
            out["dead"].append(
                int(pc.sum(group["count"]).as_py()) - postings)
            out["seconds"].append(time.perf_counter() - t0)
        return {k: np.asarray(v, dtype=np.float64 if k == "seconds"
                              else np.int64) for k, v in out.items()}

    try:
        metrics, n_tasks = map_items(
            _merge_range,
            [{"term_shard": s} for s in range(config.num_term_shards)],
            num_cpus=config.merge_num_cpus,
        )
        lin.replace_dir(staging, dict_dir)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    # per-stage metrics alongside the per-partition lineage, per
    # dictionary shard: terms, postings written, dead postings dropped
    # (what compacted partitions' partials still carry) and merge
    # seconds (skew observability for the salting knobs); an empty
    # corpus is still a valid empty index
    rows = sorted(zip(*(metrics[k] for k in keys))) if len(metrics) else []

    def per_shard(i: int, cast=int) -> dict:
        return {str(int(r[0])): cast(r[i]) for r in rows}

    terms, written, dropped = per_shard(1), per_shard(2), per_shard(3)
    lin.write_json(
        os.path.join(index_dir, "merge_metrics.json"),
        {
            "n_shards": len(rows),
            "total_terms": sum(terms.values()),
            "max_shard_terms": max(terms.values(), default=0),
            "min_shard_terms": min(terms.values(), default=0),
            "total_postings": sum(written.values()),
            "dead_postings": sum(dropped.values()),
            "terms_per_shard": terms,
            "postings_per_shard": written,
            "dead_postings_per_shard": dropped,
            "seconds_per_shard": per_shard(4, lambda t: round(float(t), 4)),
        },
    )
    return n_tasks


def _dead_ids(index_dir: str) -> np.ndarray:
    """Sorted engine ids that a compaction took out of their partition's
    docmeta: for each done record with ``compacted_out`` > 0, the ids of
    its range ``[base_doc_id, base_doc_id + doc_count + compacted_out)``
    that its docmeta no longer holds."""
    dead = [np.zeros(0, dtype=np.uint64)]
    for r in lin.done_records(index_dir):
        if int(r.get("compacted_out", 0)) == 0:
            continue
        lo = int(r["base_doc_id"])
        hi = lo + int(r["doc_count"]) + int(r["compacted_out"])
        live = pq.read_table(
            os.path.join(index_dir, "docmeta",
                         f"partition-{r['partition_id']:05d}", "data.parquet"),
            columns=["doc_id"],
        )["doc_id"].to_numpy(zero_copy_only=False)
        dead.append(np.setdiff1d(
            np.arange(lo, hi, dtype=np.uint64), live.astype(np.uint64),
            assume_unique=True))
    return np.sort(np.concatenate(dead))


def _main() -> None:
    """CLI for ``ray job submit -- python -m
    sotohp_ray.pipelines.build_index CORPUS INDEX [...]`` (the batch
    entry-point analog of the reference's SynchronizeAndProcess CLI,
    user-interfaces/cli/SynchronizeAndProcess.scala:16-37)."""
    import argparse

    import ray

    p = argparse.ArgumentParser(description="Build the inverted index")
    p.add_argument("corpus_dir")
    p.add_argument("index_dir")
    p.add_argument("--shards", type=int, default=None,
                   help="term dictionary shards (default: config)")
    p.add_argument("--block-size", type=int, default=None)
    p.add_argument("--codec", choices=("varint", "pfor"), default=None)
    p.add_argument("--salt-rows", type=int, default=None)
    args = p.parse_args()
    kw = {}
    if args.shards is not None:
        kw["num_term_shards"] = args.shards
    if args.block_size is not None:
        kw["block_size"] = args.block_size
    if args.codec is not None:
        kw["codec"] = args.codec
    if args.salt_rows is not None:
        kw["salt_rows"] = args.salt_rows
    config = IndexConfig(**kw) if kw else None
    if not ray.is_initialized():  # ray job submit initialises for us
        ray.init()
    stats = build_index(args.corpus_dir, args.index_dir, config=config)
    print(json.dumps(stats, sort_keys=True))
    ray.shutdown()


if __name__ == "__main__":
    _main()
