"""One Ray Data task per CPU slot (``utils.map_items``): the task count
is ``min(items, slots)``, the index is the same at every slot count,
a multi-partition task that fails midway keeps the lineage of the
partitions it finished, and a merge that fails midway leaves the
previous dictionary and stats serving."""

import json
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from sotohp_ray import utils
from sotohp_ray.config import IndexConfig
from sotohp_ray.pipelines.build_index import build_index
from sotohp_ray.pipelines.query import Searcher
from sotohp_ray.sources.corpus import corpus_files

SHARDS = 16


def _slots(monkeypatch, n):
    monkeypatch.setattr(utils, "cpu_slots", lambda num_cpus=1.0: n)


def _state(index_dir):
    """Everything a build or a sync derives: each dictionary shard's
    table, docmeta in doc-id order and ``stats.json``."""
    d = os.path.join(index_dir, "dictionary")
    dm = pq.read_table(os.path.join(index_dir, "docmeta"))
    with open(os.path.join(index_dir, "stats.json")) as f:
        stats = json.load(f)
    return (
        {n: pq.read_table(os.path.join(d, n))
         for n in sorted(os.listdir(d)) if n.endswith(".parquet")},
        dm.take(pc.sort_indices(dm, sort_keys=[("doc_id", "ascending")])),
        stats,
    )


def _assert_same(a, b):
    assert a[0].keys() == b[0].keys()
    for name in a[0]:
        assert a[0][name].equals(b[0][name]), name
    assert a[1].equals(b[1])
    assert a[2] == b[2]


def _answers(index_dir, queries):
    s = Searcher(index_dir)
    return {q: s.search_exact(q, k=s.space) for q in queries}


@pytest.mark.parametrize("n_items,slots", [(7, 1), (7, 3), (3, 4), (0, 2)])
def test_task_count_is_min_of_items_and_slots(
    ray_session, monkeypatch, n_items, slots
):
    """Each task calls ``fn`` once on a contiguous, in-order run of the
    items; there are ``min(items, slots)`` such calls, and none for an
    empty item list."""
    import numpy as np

    _slots(monkeypatch, slots)

    def fn(batch):
        i = batch["i"]
        return {"first": np.full(len(i), i[0]), "i": i}

    out, n_tasks = utils.map_items(fn, [{"i": i} for i in range(n_items)])
    assert n_tasks == min(n_items, slots)
    if not n_items:
        assert len(out) == 0
        return
    runs = out.groupby("first")["i"].apply(list)
    assert len(runs) == n_tasks
    for first, run in runs.items():
        assert run == list(range(first, first + len(run)))
    assert sorted(out["i"]) == list(range(n_items))


def test_cpu_slots_divides_cluster_cpus(ray_session):
    import ray

    cpus = int(ray.cluster_resources()["CPU"])
    assert utils.cpu_slots() == cpus
    assert utils.cpu_slots(2.0) == max(1, cpus // 2)
    assert utils.cpu_slots(cpus * 4.0) == 1
    assert utils.actor_pool_size() == (1, max(2, cpus))


def test_build_sync_reindex_identical_at_every_slot_count(
    ray_session, tiny_corpus, tmp_path, monkeypatch
):
    """Phase 1, the merge, compaction (through a sync), ``migrate_codec``
    and ``reindex`` give the same index whatever the slot count; the
    build reports ``min(items, slots)`` tasks for both phases."""
    from sotohp_ray.pipelines.migrate import migrate_codec, reindex
    from sotohp_ray.pipelines.update import sync_changed_docs

    corpus_dir, _ = tiny_corpus
    files = corpus_files(corpus_dir)
    t = pa.concat_tables(pq.read_table(f) for f in files)
    cols = ["repo", "path", "commit", "lang", "content"]
    paths = sorted(t["path"].to_pylist())
    texts = [
        x + "\nslotmarker" if p in paths[:3] else x
        for p, x in zip(t["path"].to_pylist(), t["content"].to_pylist())
    ]
    incoming = t.set_column(
        t.schema.get_field_index("content"), "content",
        pa.array(texts, t.schema.field("content").type),
    ).select(cols)

    seen = {}
    for n in (1, 2, 4):
        _slots(monkeypatch, n)
        idx = str(tmp_path / f"idx{n}")
        stats = build_index(
            corpus_dir, idx, config=IndexConfig(num_term_shards=SHARDS)
        )
        assert stats["phase1_tasks"] == min(len(files), n)
        assert stats["merge_tasks"] == min(SHARDS, n)
        built = _state(idx)
        out = sync_changed_docs(idx, incoming)
        assert out["changed"] == 3 and out["tombstoned"] == 3
        synced = _state(idx)
        migrate_codec(idx, "varint")
        migrated = _state(idx)
        re_idx = str(tmp_path / f"re{n}")
        reindex(corpus_dir, re_idx,
                config=IndexConfig(num_term_shards=8, block_size=64))
        seen[n] = (built, synced, migrated, _state(re_idx))
    for n in (2, 4):
        for a, b in zip(seen[1], seen[n]):
            _assert_same(a, b)


def test_resume_after_failure_inside_a_multi_partition_task(
    ray_session, tiny_corpus, tmp_path, monkeypatch
):
    """With one slot, one phase-1 task indexes all partitions in order.
    When partition 2 fails, partitions 0 and 1 are already durable with
    their lineage; the resumed build does not re-index them and equals
    a fresh build."""
    corpus_dir, _ = tiny_corpus
    corpus = str(tmp_path / "corpus")
    shutil.copytree(corpus_dir, corpus)
    files = corpus_files(corpus)
    assert len(files) == 4
    bad = files[2]
    good = pq.read_table(bad)
    # same row count (doc-id bases stay put), but no indexable columns
    pq.write_table(pa.table({"x": list(range(good.num_rows))}), bad)

    _slots(monkeypatch, 1)
    idx = str(tmp_path / "idx")
    cfg = IndexConfig(num_term_shards=SHARDS)
    with pytest.raises(Exception):
        build_index(corpus, idx, config=cfg)
    lineage = os.path.join(idx, "lineage")
    names = sorted(os.listdir(lineage))
    assert names == ["partition-00000.json", "partition-00001.json"]
    mtimes = {n: os.stat(os.path.join(lineage, n)).st_mtime_ns for n in names}
    assert not os.path.exists(os.path.join(idx, "stats.json"))

    pq.write_table(good, bad)
    stats = build_index(corpus, idx, config=cfg)
    assert stats["merged"] and stats["partitions_done"] == 4
    assert stats["phase1_tasks"] == 1
    for n, m in mtimes.items():
        assert os.stat(os.path.join(lineage, n)).st_mtime_ns == m, n

    fresh = str(tmp_path / "fresh")
    build_index(corpus, fresh, config=cfg)
    _assert_same(_state(idx), _state(fresh))


def test_failed_merge_keeps_previous_dictionary_and_stats(
    ray_session, tiny_corpus, tmp_path, monkeypatch
):
    """A compaction whose merge fails after its first shard leaves the
    previous dictionary, stats and marker in place: the index answers
    exactly as before (tombstones still hide the deleted docs). The next
    compaction then equals a fresh build without the deleted docs."""
    from sotohp_ray.pipelines.delete import compact_index, delete_docs
    from sotohp_ray.stages import merge

    corpus_dir, _ = tiny_corpus
    cfg = IndexConfig(num_term_shards=SHARDS)
    idx = str(tmp_path / "idx")
    build_index(corpus_dir, idx, config=cfg)
    dm = pq.read_table(os.path.join(idx, "docmeta"), columns=["path"])
    gone = sorted(dm["path"].to_pylist())[::9]
    assert delete_docs(idx, paths=gone) == len(gone)

    vocab = pq.read_table(
        os.path.join(idx, "dictionary"), columns=["term"]
    )["term"].to_pylist()
    queries = sorted(vocab) + ["def return value", "class data self"]
    before = _answers(idx, queries)
    dict_before, _, stats_before = _state(idx)
    first = min(
        int(n[len("shard-"):-len(".parquet")])
        for n in os.listdir(os.path.join(idx, "dictionary"))
    )

    real = merge.merge_shard

    def fail_after_first(group, *a, **k):
        if int(group["term_shard"][0].as_py()) != first:
            raise RuntimeError("planted merge failure")
        return real(group, *a, **k)

    monkeypatch.setattr(merge, "merge_shard", fail_after_first)
    with pytest.raises(Exception):
        compact_index(idx)
    dict_after, _, stats_after = _state(idx)
    assert dict_after.keys() == dict_before.keys()
    for name, table in dict_before.items():
        assert dict_after[name].equals(table), name
    assert stats_after == stats_before
    assert _answers(idx, queries) == before
    assert not os.path.exists(os.path.join(idx, "dictionary.merging"))

    monkeypatch.setattr(merge, "merge_shard", real)
    compact_index(idx)

    fresh_corpus = tmp_path / "fresh_corpus"
    fresh_corpus.mkdir()
    for f in corpus_files(corpus_dir):
        t = pq.read_table(f)
        keep = pc.invert(pc.is_in(t["path"], pa.array(gone)))
        pq.write_table(t.filter(keep), str(fresh_corpus / os.path.basename(f)))
    fresh = str(tmp_path / "fresh")
    build_index(str(fresh_corpus), fresh, config=cfg)

    def by_path(index_dir):
        d = pq.read_table(
            os.path.join(index_dir, "docmeta"), columns=["doc_id", "path"]
        )
        path = dict(zip(d["doc_id"].to_pylist(), d["path"].to_pylist()))
        return {
            q: sorted((path[i], round(sc, 9)) for i, sc in hits)
            for q, hits in _answers(index_dir, queries).items()
        }

    assert by_path(idx) == by_path(fresh)


def test_dictionary_swap_interrupted_between_renames(
    ray_session, tiny_corpus, tmp_path
):
    """A merge's swap killed between its two renames leaves the live
    dictionary at ``dictionary.old``. The next commit (here a no-op
    rebuild) and ``migrate_codec`` both put it back first; neither
    loses it."""
    from sotohp_ray.pipelines.migrate import migrate_codec

    corpus_dir, _ = tiny_corpus
    cfg = IndexConfig(num_term_shards=SHARDS)
    idx = str(tmp_path / "idx")
    build_index(corpus_dir, idx, config=cfg)
    queries = ["def return value", "class data self", "import numpy"]
    before = _answers(idx, queries)
    live = os.path.join(idx, "dictionary")

    os.replace(live, live + ".old")
    stats = build_index(corpus_dir, idx, config=cfg)
    assert stats.get("merge_skipped") is True
    assert _answers(idx, queries) == before

    os.replace(live, live + ".old")
    migrate_codec(idx, "varint")
    assert not os.path.exists(live + ".old")
    assert _answers(idx, queries) == before
