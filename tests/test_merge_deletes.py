"""Deletes applied at merge time: compaction filters only docmeta (each
partition's live-docs set), the partials keep the deleted docs'
postings, and the merge drops them. These tests pin what that must not
change: stats equal to a fresh build, a compaction retry that ends as
an uninterrupted one does, and rebuilds that neither revive compacted
docs nor keep a stale dead set."""

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from sotohp_ray import utils
from sotohp_ray.pipelines.build_index import build_index
from sotohp_ray.pipelines.delete import compact_index, delete_docs
from sotohp_ray.pipelines.query import Searcher
from sotohp_ray.sources.corpus import corpus_files
from sotohp_ray.state import lineage as lin

QUERY = "def return value"
STAT_KEYS = ("n_docs", "total_tokens", "total_postings", "avgdl")


def _copy_corpus(corpus_dir: str, dest: str) -> str:
    os.makedirs(dest)
    for f in corpus_files(corpus_dir):
        shutil.copy(f, dest)
    return dest


def _paths(index_dir: str) -> dict:
    dm = pq.read_table(
        os.path.join(index_dir, "docmeta"), columns=["doc_id", "path"]
    )
    return dict(zip(dm["doc_id"].to_pylist(), dm["path"].to_pylist()))


def _dictionary(index_dir: str) -> dict:
    d = os.path.join(index_dir, "dictionary")
    return {n: pq.read_table(os.path.join(d, n)) for n in os.listdir(d)}


def _partials_bytes(index_dir: str) -> dict:
    d = os.path.join(index_dir, "partials")
    out = {}
    for p in os.listdir(d):
        with open(os.path.join(d, p, "data.parquet"), "rb") as f:
            out[p] = f.read()
    return out


def _merge_metrics(index_dir: str) -> dict:
    with open(os.path.join(index_dir, "merge_metrics.json")) as f:
        return json.load(f)


def test_compaction_stats_equal_fresh_build(
    ray_session, tiny_corpus, tmp_path
):
    corpus_dir, _ = tiny_corpus
    index_dir = str(tmp_path / "idx")
    build_index(corpus_dir, index_dir)
    paths = _paths(index_dir)
    partials = _partials_bytes(index_dir)
    gone = {paths[i] for i in (3, 20, 21, 40)}
    assert delete_docs(index_dir, paths=sorted(gone)) == 4
    stats = compact_index(index_dir)
    assert stats["partitions_compacted"] == 3
    assert _partials_bytes(index_dir) == partials  # never rewritten

    fresh_corpus = str(tmp_path / "fresh_corpus")
    os.makedirs(fresh_corpus)
    for f in corpus_files(corpus_dir):
        t = pq.read_table(f)
        keep = [p not in gone for p in t["path"].to_pylist()]
        pq.write_table(
            t.filter(pa.array(keep)),
            os.path.join(fresh_corpus, os.path.basename(f)),
        )
    fresh = build_index(fresh_corpus, str(tmp_path / "fresh"))
    assert {k: stats[k] for k in STAT_KEYS} == {
        k: fresh[k] for k in STAT_KEYS
    }
    assert lin.read_stats(index_dir)["total_postings"] == (
        fresh["total_postings"]
    )
    # the partials still hold the deleted docs' postings; the merge
    # reports what it dropped
    m = _merge_metrics(index_dir)
    assert m["total_postings"] == fresh["total_postings"]
    assert m["dead_postings"] > 0
    assert sum(m["dead_postings_per_shard"].values()) == m["dead_postings"]
    assert sum(
        r["posting_count"] for r in lin.done_records(index_dir)
    ) == fresh["total_postings"] + m["dead_postings"]
    assert _merge_metrics(str(tmp_path / "fresh"))["dead_postings"] == 0


def test_compaction_retry_after_failed_partition(
    ray_session, tiny_corpus, tmp_path, monkeypatch
):
    """A compaction whose task fails on partition 1 after partition 0's
    docmeta was filtered: the retry must end with the lineage, stats
    and scores of a compaction that never failed."""
    corpus_dir, _ = tiny_corpus
    # one task, partitions in order: partition 0 is done before 1 fails
    monkeypatch.setattr(utils, "cpu_slots", lambda num_cpus=1.0: 1)
    want_dir, got_dir = str(tmp_path / "want"), str(tmp_path / "got")
    for d in (want_dir, got_dir):
        build_index(corpus_dir, d)
        assert delete_docs(d, engine_doc_ids=[5, 17]) == 2
    want = compact_index(want_dir)

    dm1 = os.path.join(
        got_dir, "docmeta", "partition-00001", "data.parquet"
    )
    with open(dm1, "rb") as f:
        good = f.read()
    with open(dm1, "wb") as f:
        f.write(b"not a parquet file")
    with pytest.raises(Exception):
        compact_index(got_dir)
    with open(dm1, "wb") as f:
        f.write(good)
    assert 5 not in _paths(got_dir)  # partition 0 was filtered
    got = compact_index(got_dir)

    keys = STAT_KEYS + ("compacted_docs_total",)
    assert {k: got[k] for k in keys} == {k: want[k] for k in keys}
    assert lin.done_records(got_dir) == lin.done_records(want_dir)
    assert Searcher(got_dir).search_exact(QUERY, k=10) == (
        Searcher(want_dir).search_exact(QUERY, k=10)
    )


def test_rebuild_keeps_compacted_docs_out(
    ray_session, tiny_corpus, tmp_path
):
    corpus_dir, _ = tiny_corpus
    index_dir = str(tmp_path / "idx")
    build_index(corpus_dir, index_dir)
    delete_docs(index_dir, engine_doc_ids=[2, 33])
    stats = compact_index(index_dir)
    dictionary = _dictionary(index_dir)

    # a rebuild over the unchanged corpus keeps the compacted state; with
    # the merge marker gone it merges again from the partials, which
    # still hold the compacted docs' postings
    os.remove(os.path.join(index_dir, "_MERGE_DONE.json"))
    rebuilt = build_index(corpus_dir, index_dir)
    assert rebuilt["merge_tasks"] > 0
    assert {k: rebuilt[k] for k in STAT_KEYS} == {
        k: stats[k] for k in STAT_KEYS
    }
    assert _merge_metrics(index_dir)["dead_postings"] > 0
    assert not {2, 33} & set(_paths(index_dir))
    got = _dictionary(index_dir)
    assert got.keys() == dictionary.keys()
    assert all(got[n].equals(dictionary[n]) for n in got)


def test_reindexed_partition_revives_its_dead_ids(
    ray_session, tiny_corpus, tmp_path
):
    """When a compacted partition's input file changes, the rebuild
    indexes it afresh: its lineage drops ``compacted_out``, the new
    docs at the formerly dead ids are searchable and the merge drops
    nothing."""
    corpus = _copy_corpus(tiny_corpus[0], str(tmp_path / "corpus"))
    index_dir = str(tmp_path / "idx")
    build_index(corpus, index_dir)
    n_docs = lin.read_stats(index_dir)["n_docs"]
    paths = _paths(index_dir)
    delete_docs(index_dir, engine_doc_ids=[17, 18])
    compact_index(index_dir)
    assert _merge_metrics(index_dir)["dead_postings"] > 0

    # new content for the deleted docs, in partition 1's input file
    f1 = corpus_files(corpus)[1]
    t = pq.read_table(f1)
    tokens = {paths[17]: "zqrevivedone", paths[18]: "zqrevivedtwo"}
    content = [
        c + f" {tokens[p]}" if p in tokens else c
        for p, c in zip(t["path"].to_pylist(), t["content"].to_pylist())
    ]
    t = t.set_column(
        t.schema.get_field_index("content"), "content",
        pa.array(content, t.schema.field("content").type),
    )
    os.remove(f1)
    pq.write_table(t, f1)
    stats = build_index(corpus, index_dir)

    assert stats["n_docs"] == n_docs
    rec = {r["partition_id"]: r for r in lin.done_records(index_dir)}[1]
    assert rec.get("compacted_out", 0) == 0
    assert _merge_metrics(index_dir)["dead_postings"] == 0
    s = Searcher(index_dir)
    assert [d for d, _ in s.search_exact("zqrevivedone", k=5)] == [17]
    assert [d for d, _ in s.search_exact("zqrevivedtwo", k=5)] == [18]
