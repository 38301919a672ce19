"""Index build orchestration — two Ray Data phases + tiny driver-side
metadata steps.

Phase 1 (embarrassingly parallel, resumable per input partition):
  a Dataset of partition descriptors -> task-pool ``map_batches``
  (per-worker cached indexer state). Each call reads ONE input Parquet
  partition, runs the vectorized SPIMI stage (stages/spimi.py),
  atomically writes ``docmeta/partition-P/`` and — as the WRITE SIDE of
  the merge shuffle — ``partials/partition-P/data.parquet`` sorted by
  ``term_shard`` with one parquet row group per shard plus an
  ``rgmap.json`` sidecar, then the lineage record. Already-done
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
  groups; the merge is independent per-shard-range tasks, each reading
  exactly its buckets by row-group index (one batched
  ``read_row_groups`` per partition file) and writing
  ``dictionary/shard-SSSSS.parquet``. This replaces a generic
  ``groupby(term_shard)`` exchange — measured 2x faster at 32 CPUs on
  small data, and at cluster scale it is the classic bucketed shuffle
  write whose reduce side scales linearly with shards. Hot-term
  postings volume per shuffled row stays bounded via salt chunking
  (stages/spimi.py). Marked done by ``_MERGE_DONE.json`` containing the
  config + lineage fingerprints, so a resumed build redoes the merge
  iff phase-1 output changed.

``commit_lineage`` is the one step between the two phases, and the
only caller of the merge: it aggregates the global stats (N, total
tokens, avgdl) from the done lineage records (tiny, in-process) into
``stats.json`` — the A2-style partial+final multi-aggregate
(Statistics.scala:49-135 analog) — and runs the merge iff the marker
is stale. ``update.sync_changed_docs`` (and its crash repair) and
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
import pyarrow.parquet as pq

from sotohp_ray.config import IndexConfig
from sotohp_ray.sources.corpus import corpus_files
from sotohp_ray.stages.spimi import index_partition_table
from sotohp_ray.state import lineage as lin


def _config_fingerprint(config: IndexConfig) -> str:
    return hashlib.sha256(config.to_json().encode()).hexdigest()[:16]


class PartitionIndexer:
    """Per-worker indexing state: tokenizer + parsed config, built once
    per (worker process, config) and cached in ``for_worker`` — the
    init-once-per-process discipline of the reference's memoized model
    allocators (MediaServiceLive.scala:1879-1891). Runs as a TASK-pool
    ``map_batches`` stage, not an actor pool: the state here is cheap
    (regex strings), and tasks reuse the session's long-lived warm
    workers, while a dedicated actor pool would pay a fresh process
    spawn + module import (~2 s) on every build. Actor pools are
    reserved for stages whose per-actor state is genuinely expensive
    (model scorers, loaded dictionary shards)."""

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
    concurrency: int | tuple | None = None,
    only_partitions: list[int] | None = None,
) -> dict:
    """Full build (phase 1 + stats + phase 2). Re-entrant: finished
    partitions are skipped via lineage; the merge is redone only when
    phase-1 output changed. ``only_partitions`` restricts phase 1 (used
    by the resume tests to simulate an interrupted build)."""
    import ray
    import ray.data

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
    if todo:
        cfg_json = config.to_json()

        def _index_batch(batch: dict) -> dict:
            ix = PartitionIndexer.for_worker(cfg_json, index_dir)
            return ix(batch)

        extra = {} if concurrency is None else {"concurrency": concurrency}
        ds = ray.data.from_items(todo)
        metrics_ds = ds.map_batches(
            _index_batch,
            batch_size=1,
            batch_format="numpy",
            num_cpus=1,
            **extra,
        )
        metrics_ds.materialize()
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
        return {**fields, "merged": False}

    t1 = time.perf_counter()
    stats, merged = commit_lineage(index_dir, config, fields)
    stats["merged"] = True
    if merged:
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
) -> tuple[dict, bool]:
    """The one step that turns lineage into a servable index, shared by
    build, sync, crash repair and compaction. Global stats (N, total
    tokens, avgdl) are summed from the done lineage records
    (tiny, in-process; the partial+final multi-aggregate of
    Statistics.scala:49-135) and written atomically to ``stats.json``
    together with the caller's ``fields``; then the merge runs unless
    ``_MERGE_DONE.json`` already names this config and lineage
    fingerprint. Idempotent. Returns (stats, whether it merged)."""
    records = lin.done_records(index_dir)
    n_docs = sum(r["doc_count"] for r in records)
    total_tokens = sum(r["token_count"] for r in records)
    stats = {
        **fields,
        "n_docs": n_docs,
        "total_tokens": total_tokens,
        "total_postings": sum(r["posting_count"] for r in records),
        "avgdl": (total_tokens / n_docs) if n_docs else 0.0,
    }
    lin.write_stats(index_dir, stats)
    lineage_fp = lin.lineage_fingerprint(records)
    marker = _merge_marker(index_dir)
    if os.path.exists(marker):
        with open(marker) as f:
            if json.load(f) == {
                "config": _config_fingerprint(config), "lineage": lineage_fp
            }:
                return stats, False  # dictionary reflects this lineage
    merge_phase(index_dir, config, n_docs, stats["avgdl"], lineage_fp)
    return stats, True


def merge_phase(
    index_dir: str,
    config: IndexConfig,
    n_docs: int,
    avgdl: float,
    lineage_fp: str,
) -> None:
    """Phase 2, run only by ``commit_lineage``: shuffle-free bucketed
    merge of all partials into dictionary shards, then the merge
    metrics + done marker."""
    import ray
    import ray.data

    from sotohp_ray.stages.merge import merge_shard

    partials_dir = os.path.join(index_dir, "partials")
    dict_dir = os.path.join(index_dir, "dictionary")
    if os.path.isdir(dict_dir):
        shutil.rmtree(dict_dir)
    os.makedirs(dict_dir, exist_ok=True)

    # shuffle-free merge: phase 1 already bucketed partials by
    # term_shard (sorted, one row group per shard), so the merge is S
    # independent tasks, each reading only its bucket's row groups via
    # filter pushdown. This replaces groupby(term_shard).map_groups —
    # the generic exchange paid 2x wall time at 32 CPUs on small data
    # and would pay an all-to-all at cluster scale; with a write-side
    # bucketed shuffle the reduce side scales linearly with shards.
    cols = [
        "term_shard", "term", "salt", "count",
        "doc0", "tf0", "dl0",
        "doc_blob", "tf_blob", "dl_blob",
        "pos0", "pos_blob", "cf_partial",
    ]
    config_json = config.to_json()

    part_dirs = sorted(
        os.path.join(partials_dir, d)
        for d in (os.listdir(partials_dir) if os.path.isdir(partials_dir) else [])
        if d.startswith("partition-")
    )

    # task granularity: one task per contiguous RANGE of shards, sized
    # so tasks >= plausible executor widths while keeping the per-task
    # fixed cost (one footer parse + ONE batched read_row_groups call
    # per partition file) amortized over several shards. Hash-sharded
    # terms spread the hot-term postings volume across ranges.
    S = config.num_term_shards
    n_tasks = min(S, max(32, S // 4))
    per = (S + n_tasks - 1) // n_tasks
    ranges = [
        (lo, min(S, lo + per)) for lo in range(0, S, per)
    ]

    def _merge_range(batch: dict) -> dict:
        cfg = IndexConfig.from_json(config_json)
        out_shards, out_rows = [], []
        for lo, hi in zip(batch["lo"], batch["hi"]):
            lo, hi = int(lo), int(hi)
            pieces: dict[int, list] = {s: [] for s in range(lo, hi)}
            for pdir in part_dirs:
                with open(os.path.join(pdir, "rgmap.json")) as f:
                    rg_shards = json.load(f)["shards"]
                idxs = [
                    i for i, s in enumerate(rg_shards) if lo <= s < hi
                ]
                if not idxs:
                    continue
                pf = pq.ParquetFile(os.path.join(pdir, "data.parquet"))
                t = pf.read_row_groups(idxs, columns=cols)
                off = 0
                for i in idxs:
                    nrg = pf.metadata.row_group(i).num_rows
                    pieces[rg_shards[i]].append(t.slice(off, nrg))
                    off += nrg
            for s in range(lo, hi):
                if not pieces[s]:
                    continue
                group = pa.concat_tables(pieces[s])
                merged = merge_shard(group, n_docs, avgdl, cfg)
                if merged.num_rows:
                    lin.atomic_write_table(
                        merged,
                        os.path.join(dict_dir, f"shard-{s:05d}.parquet"),
                    )
                out_shards.append(s)
                out_rows.append(merged.num_rows)
        return {
            "term_shard": np.asarray(out_shards, dtype=np.int64),
            "n_terms": np.asarray(out_rows, dtype=np.int64),
        }

    shard_ds = ray.data.from_items(
        [{"lo": lo, "hi": hi} for lo, hi in ranges]
    )
    merge_metrics = shard_ds.map_batches(
        _merge_range, batch_size=1, batch_format="numpy",
        # bandwidth-aware reduce width: see IndexConfig.merge_num_cpus
        num_cpus=config.merge_num_cpus,
    ).to_pandas()  # 1 row/shard — tiny; forces execution
    # per-stage metrics alongside the per-partition lineage: term count
    # per dictionary shard (skew observability for the salting knobs)
    if len(merge_metrics):
        lin.write_json(
            os.path.join(index_dir, "merge_metrics.json"),
            {
                "n_shards": int(len(merge_metrics)),
                "total_terms": int(merge_metrics["n_terms"].sum()),
                "max_shard_terms": int(merge_metrics["n_terms"].max()),
                "min_shard_terms": int(merge_metrics["n_terms"].min()),
                "terms_per_shard": {
                    str(int(s)): int(n)
                    for s, n in zip(
                        merge_metrics["term_shard"], merge_metrics["n_terms"]
                    )
                },
            },
        )
    else:  # empty corpus: still a valid (empty) index
        lin.write_json(
            os.path.join(index_dir, "merge_metrics.json"),
            {"n_shards": 0, "total_terms": 0, "max_shard_terms": 0,
             "min_shard_terms": 0, "terms_per_shard": {}},
        )
    lin.write_json(
        _merge_marker(index_dir),
        {"config": _config_fingerprint(config), "lineage": lineage_fp},
    )


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
