"""Per-doc update/sync (pipelines/update.py): hash-diff detection,
tombstone + increment partition, and the sync==fresh-build contract."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from sotohp_ray.config import IndexConfig
from sotohp_ray.pipelines.build_index import build_index
from sotohp_ray.pipelines.query import Searcher
from sotohp_ray.pipelines.update import detect_changes, sync_changed_docs

QUERIES = ("def return value", "class data self", "import numpy",
           "changedmarker sentinel")


def _corpus_table(corpus_dir):
    files = sorted(
        os.path.join(corpus_dir, n)
        for n in os.listdir(corpus_dir) if n.endswith(".parquet")
    )
    return pa.concat_tables(pq.read_table(f) for f in files), files


def _results_by_path(index_dir, queries=QUERIES):
    """Engine results keyed by stable doc identity (path) — engine
    doc_ids differ between a synced and a fresh index by design."""
    s = Searcher(index_dir)
    dm = pq.read_table(
        os.path.join(index_dir, "docmeta"), columns=["doc_id", "path"]
    )
    path_of = dict(zip(dm["doc_id"].to_pylist(), dm["path"].to_pylist()))
    out = {}
    for q in queries:
        full = s.search_exact(q, k=s.space)
        out[q] = sorted(
            (path_of[d], round(sc, 9)) for d, sc in full
        )
    return out


@pytest.fixture(scope="module")
def synced_vs_fresh(ray_session, tiny_corpus, tmp_path_factory):
    """Build base; modify 5 docs + add 2 new docs; sync one index and
    fresh-build another from the modified corpus."""
    corpus_dir, _ = tiny_corpus
    base_idx = str(tmp_path_factory.mktemp("idx_sync_base"))
    build_index(corpus_dir, base_idx, config=IndexConfig())

    t, files = _corpus_table(corpus_dir)
    texts = t["content"].to_pylist()
    changed_paths = sorted(t["path"].to_pylist())[:5]
    pathset = set(changed_paths)
    texts = [
        (x + "\nchangedmarker sentinel value")
        if p in pathset else x
        for p, x in zip(t["path"].to_pylist(), texts)
    ]
    mod = t.set_column(
        t.schema.get_field_index("content"), "content",
        pa.array(texts, t.schema.field("content").type),
    )
    new_rows = pa.table({
        "repo": pa.array([t["repo"][0].as_py()] * 2),
        "path": pa.array(["zz_new_a.py", "zz_new_b.py"]),
        "commit": pa.array([t["commit"][0].as_py()] * 2),
        "lang": pa.array(["py", "py"]),
        "content": pa.array(
            ["def new_doc_a(): return 1\nchangedmarker sentinel",
             "class NewDocB: pass"],
            t.schema.field("content").type),
    })
    incoming = pa.concat_tables(
        [mod.select(new_rows.column_names), new_rows]
    )

    # fresh-build reference over the modified corpus
    fresh_corpus = str(tmp_path_factory.mktemp("corpus_mod"))
    step = (incoming.num_rows + 3) // 4
    for p in range(4):
        sl = incoming.slice(p * step, step)
        if sl.num_rows:
            pq.write_table(
                sl, os.path.join(fresh_corpus, f"part-{p:05d}.parquet")
            )
    fresh_idx = str(tmp_path_factory.mktemp("idx_sync_fresh"))
    build_index(fresh_corpus, fresh_idx, config=IndexConfig())

    return base_idx, incoming, fresh_idx, changed_paths


def test_sync_matches_fresh_build(synced_vs_fresh):
    base_idx, incoming, fresh_idx, changed_paths = synced_vs_fresh
    out = sync_changed_docs(base_idx, incoming)
    assert out["changed"] == 5 and out["new"] == 2
    assert out["tombstoned"] == 5
    got = _results_by_path(base_idx)
    want = _results_by_path(fresh_idx)
    for q in QUERIES:
        assert got[q] == want[q], q
    # the sentinel term finds the changed + new docs
    s = Searcher(base_idx)
    hits = s.search_exact("changedmarker", k=s.space)
    assert len(hits) == 6  # 5 changed + 1 new doc containing it


def test_sync_idempotent(synced_vs_fresh):
    """Re-presenting the same corpus after a sync is a no-op (the
    hash-resync idempotency contract)."""
    base_idx, incoming, fresh_idx, _ = synced_vs_fresh
    before = _results_by_path(base_idx)
    out = sync_changed_docs(base_idx, incoming)
    assert out["changed"] == 0 and out["new"] == 0
    assert out["tombstoned"] == 0
    assert _results_by_path(base_idx) == before


def test_sync_remove_missing_propagates_deletions(
    ray_session, tiny_corpus, tmp_path_factory
):
    """Presenting the full current corpus with remove_missing=True must
    tombstone docs that disappeared from it — a full re-sync equals a
    fresh build over the reduced corpus."""
    corpus_dir, _ = tiny_corpus
    idx = str(tmp_path_factory.mktemp("idx_rm"))
    build_index(corpus_dir, idx, config=IndexConfig())
    t, _ = _corpus_table(corpus_dir)
    drop = set(sorted(t["path"].to_pylist())[:3])
    keep = pa.array([p not in drop for p in t["path"].to_pylist()])
    reduced = t.filter(keep).select(
        ["repo", "path", "commit", "lang", "content"]
    )
    out = sync_changed_docs(idx, reduced, remove_missing=True)
    assert out["removed"] == 3
    assert out["changed"] == 0 and out["new"] == 0

    fresh_corpus = str(tmp_path_factory.mktemp("corpus_rm"))
    pq.write_table(
        reduced, os.path.join(fresh_corpus, "part-00000.parquet")
    )
    fresh_idx = str(tmp_path_factory.mktemp("idx_rm_fresh"))
    build_index(fresh_corpus, fresh_idx, config=IndexConfig())
    assert _results_by_path(idx) == _results_by_path(fresh_idx)
    # idempotent: a second identical resync removes nothing
    out2 = sync_changed_docs(idx, reduced, remove_missing=True)
    assert out2["removed"] == 0 and out2["changed"] == 0
    shutil.rmtree(idx, ignore_errors=True)


def test_sync_retry_repairs_crash_before_compaction(
    ray_session, tiny_corpus, tmp_path_factory, monkeypatch
):
    """Kill the sync AFTER the increment is indexed but BEFORE the
    finishing compaction: the old round-2 retry saw the new docmeta
    rows as current, returned changed=0 and never merged — updated
    docs stayed unsearchable forever. The retry must repair."""
    import pyarrow.compute as pc

    import sotohp_ray.pipelines.delete as del_mod

    corpus_dir, _ = tiny_corpus
    idx = str(tmp_path_factory.mktemp("idx_crash"))
    build_index(corpus_dir, idx, config=IndexConfig())
    t, _ = _corpus_table(corpus_dir)
    texts = t["content"].to_pylist()
    changed = set(sorted(t["path"].to_pylist())[:2])
    texts = [
        (x + "\ncrashmarker sentinel") if p in changed else x
        for p, x in zip(t["path"].to_pylist(), texts)
    ]
    incoming = t.set_column(
        t.schema.get_field_index("content"), "content",
        pa.array(texts, t.schema.field("content").type),
    ).select(["repo", "path", "commit", "lang", "content"])

    real_compact = del_mod.compact_index

    def boom(index_dir):
        raise RuntimeError("injected crash before compaction")

    monkeypatch.setattr(del_mod, "compact_index", boom)
    with pytest.raises(RuntimeError, match="injected crash"):
        sync_changed_docs(idx, incoming)
    monkeypatch.setattr(del_mod, "compact_index", real_compact)

    out = sync_changed_docs(idx, incoming)  # retry repairs
    assert out["changed"] == 0 and out["new"] == 0
    s = Searcher(idx)
    hits = s.search_exact("crashmarker", k=s.space)
    assert len(hits) == 2
    # equal to a fresh build over the modified corpus
    fresh_corpus = str(tmp_path_factory.mktemp("corpus_crash"))
    pq.write_table(
        incoming, os.path.join(fresh_corpus, "part-00000.parquet")
    )
    fresh_idx = str(tmp_path_factory.mktemp("idx_crash_fresh"))
    build_index(fresh_corpus, fresh_idx, config=IndexConfig())
    assert _results_by_path(idx) == _results_by_path(fresh_idx)
    shutil.rmtree(idx, ignore_errors=True)


def test_repair_completes_unindexed_increment(
    ray_session, tiny_corpus, tmp_path_factory
):
    """Crash between the intent record and the increment indexing: the
    persisted input + intent json are enough to replay the partition
    on the next sync call, even one that otherwise detects nothing."""
    import json as _json

    from sotohp_ray.pipelines.update import (
        _existing_partition_ids,
        _increments_dir,
    )
    from sotohp_ray.state import lineage as lin

    corpus_dir, _ = tiny_corpus
    idx = str(tmp_path_factory.mktemp("idx_intent"))
    build_index(corpus_dir, idx, config=IndexConfig())
    t, _ = _corpus_table(corpus_dir)
    inc = pa.table({
        "repo": pa.array([t["repo"][0].as_py()]),
        "path": pa.array(["zz_orphan.py"]),
        "commit": pa.array([t["commit"][0].as_py()]),
        "lang": pa.array(["py"]),
        "content": pa.array(
            ["def orphanmarker(): return 42"],
            t.schema.field("content").type,
        ),
    })
    with open(os.path.join(idx, "stats.json")) as f:
        stats = _json.load(f)
    base = int(stats.get("doc_id_space", stats["n_docs"]))
    pid = max(_existing_partition_ids(idx), default=-1) + 1
    lin.atomic_write_table(
        inc, os.path.join(_increments_dir(idx), f"partition-{pid:05d}.parquet")
    )
    lin.write_json(
        os.path.join(_increments_dir(idx), f"partition-{pid:05d}.json"),
        {"pid": pid, "base": base, "rows": 1},
    )
    # sync with the UNCHANGED corpus: detect finds nothing, but the
    # repair pass must still index + merge the orphan increment
    out = sync_changed_docs(
        idx, t.select(["repo", "path", "commit", "lang", "content"])
    )
    assert out["changed"] == 0 and out["new"] == 0
    s = Searcher(idx)
    assert len(s.search_exact("orphanmarker", k=s.space)) == 1
    shutil.rmtree(idx, ignore_errors=True)


def test_detect_changes_ignores_unchanged(
    ray_session, tiny_corpus, tmp_path_factory
):
    corpus_dir, _ = tiny_corpus
    idx = str(tmp_path_factory.mktemp("idx_detect"))
    build_index(corpus_dir, idx, config=IndexConfig())
    t, _ = _corpus_table(corpus_dir)
    det = detect_changes(
        idx, t.select(["repo", "path", "commit", "lang", "content"])
    )
    assert det["changed_rows"] == [] and det["new_rows"] == []
    shutil.rmtree(idx, ignore_errors=True)


def _pure_add_rows(t, n, tag):
    return pa.table({
        "repo": pa.array([t["repo"][0].as_py()] * n),
        "path": pa.array([f"zz_{tag}_{i}.py" for i in range(n)]),
        "commit": pa.array([t["commit"][0].as_py()] * n),
        "lang": pa.array(["py"] * n),
        "content": pa.array(
            [f"def {tag}_{i}(): return {i}  # changedmarker sentinel"
             for i in range(n)],
            t.schema.field("content").type),
    })


def test_auto_compaction_bounds_increments(
    ray_session, tiny_corpus, tmp_path_factory
):
    """compact='auto' (VERDICT-r4 ask #7): ten successive syncs keep
    the increment-partition count and pending-tombstone load BOUNDED —
    at the threshold the backlog compacts and folds into ONE
    consolidated partition — and after the final compaction the index
    equals a fresh build over the final corpus."""
    from sotohp_ray.pipelines.delete import compact_index, load_tombstones
    from sotohp_ray.pipelines.update import (
        AUTO_COMPACT_MAX_INCREMENTS,
        _done_increment_intents,
        sync_changed_docs,
    )

    corpus_dir, _ = tiny_corpus
    idx = str(tmp_path_factory.mktemp("idx_auto"))
    build_index(corpus_dir, idx, config=IndexConfig())
    t, _ = _corpus_table(corpus_dir)
    cols = ["repo", "path", "commit", "lang", "content"]
    incoming = t.select(cols)
    paths = sorted(incoming["path"].to_pylist())
    texts = dict(zip(incoming["path"].to_pylist(),
                     incoming["content"].to_pylist()))
    max_backlog, max_tombs = 0, 0
    consolidated = False
    for i in range(10):
        texts[paths[i]] = texts[paths[i]] + f"\nsyncmarker round{i}"
        cur = pa.table({
            "repo": incoming["repo"],
            "path": incoming["path"],
            "commit": incoming["commit"],
            "lang": incoming["lang"],
            "content": pa.array(
                [texts[p] for p in incoming["path"].to_pylist()],
                incoming.schema.field("content").type),
        })
        r = sync_changed_docs(idx, cur, compact="auto")
        assert r["changed"] == 1 and r["new"] == 0
        backlog = len(_done_increment_intents(idx))
        max_backlog = max(max_backlog, backlog)
        max_tombs = max(max_tombs, int(load_tombstones(idx).size))
        if backlog == 1 and i >= 2:
            consolidated = True  # the fold visibly happened mid-run
        # every sync's results remain tombstone-correct: the changed
        # doc's new content is findable, at most one hit per path
        s = Searcher(idx)
        hits = s.search_exact(f"syncmarker round{i}", k=10)
        assert len(hits) >= 1
    assert consolidated, "backlog never folded"
    assert max_backlog <= AUTO_COMPACT_MAX_INCREMENTS
    assert max_tombs <= AUTO_COMPACT_MAX_INCREMENTS
    # final compaction -> fresh-build equality (the existing contract)
    compact_index(idx)
    fresh_corpus = str(tmp_path_factory.mktemp("corpus_auto_fresh"))
    pq.write_table(cur, os.path.join(fresh_corpus, "part-00000.parquet"))
    fresh_idx = str(tmp_path_factory.mktemp("idx_auto_fresh"))
    build_index(fresh_corpus, fresh_idx, config=IndexConfig())
    assert _results_by_path(idx) == _results_by_path(fresh_idx)


def test_consolidation_crash_replays_forward(
    ray_session, tiny_corpus, tmp_path_factory, monkeypatch
):
    """A crash right after the consolidate.json record is durable (but
    before any retire/index work) must roll FORWARD on the next sync:
    the backlog still folds into one partition and results are
    unchanged."""
    from sotohp_ray.pipelines import update

    corpus_dir, _ = tiny_corpus
    idx = str(tmp_path_factory.mktemp("idx_crash"))
    build_index(corpus_dir, idx, config=IndexConfig())
    t, _ = _corpus_table(corpus_dir)
    cols = ["repo", "path", "commit", "lang", "content"]
    base = t.select(cols)
    # three pure-ADD syncs build a tombstone-free backlog
    grown = base
    for i in range(3):
        grown = pa.concat_tables(
            [grown, _pure_add_rows(t, 2, f"auto{i}")]
        )
        update.sync_changed_docs(idx, grown, compact=False)
    assert len(update._done_increment_intents(idx)) == 3
    before = _results_by_path(idx)
    with open(os.path.join(idx, "config.json")) as f:
        config = IndexConfig.from_json(f.read())
    # "crash": the record is written, nothing destructive ran yet
    monkeypatch.setattr(
        update, "_finish_consolidation", lambda *a, **k: False
    )
    assert update._consolidate_increments(idx, config)
    monkeypatch.undo()
    assert os.path.exists(
        os.path.join(idx, "increments", "consolidate.json")
    )
    # next sync repairs forward before doing its own work
    update.sync_changed_docs(idx, grown, compact="auto")
    assert not os.path.exists(
        os.path.join(idx, "increments", "consolidate.json")
    )
    assert len(update._done_increment_intents(idx)) == 1
    assert _results_by_path(idx) == before


def _with_marker(t, paths, marker):
    """``t``'s sync columns with ``marker`` appended to each doc in
    ``paths``."""
    cols = ["repo", "path", "commit", "lang", "content"]
    texts = [
        (x + "\n" + marker) if p in paths else x
        for p, x in zip(t["path"].to_pylist(), t["content"].to_pylist())
    ]
    return t.set_column(
        t.schema.get_field_index("content"), "content",
        pa.array(texts, t.schema.field("content").type),
    ).select(cols)


def test_second_compacting_sync_merges_once(
    ray_session, tiny_corpus, tmp_path_factory, monkeypatch
):
    """Every compacting sync runs the full merge exactly once, also
    when it follows another compacting sync: the crash-repair check at
    the start of a sync must recognise the merge marker that the
    previous compaction wrote."""
    from sotohp_ray.pipelines import build_index as bi

    corpus_dir, _ = tiny_corpus
    idx = str(tmp_path_factory.mktemp("idx_merge_once"))
    build_index(corpus_dir, idx, config=IndexConfig())
    t, _ = _corpus_table(corpus_dir)
    paths = sorted(t["path"].to_pylist())
    merges = []
    real_merge = bi.merge_phase

    def counting_merge(*a, **k):
        merges.append(a[0])
        return real_merge(*a, **k)

    monkeypatch.setattr(bi, "merge_phase", counting_merge)
    for i in range(2):
        merges.clear()
        out = sync_changed_docs(
            idx, _with_marker(t, set(paths[: i + 1]), "mergeoncemarker")
        )
        assert out["changed"] == 1 and out["tombstoned"] == 1
        assert len(merges) == 1, f"sync {i + 1} merged {len(merges)} times"
    s = Searcher(idx)
    assert len(s.search_exact("mergeoncemarker", k=s.space)) == 2


def test_rebuild_retires_increments(
    ray_session, tiny_corpus, tmp_path_factory
):
    """A full build_index returns the index to the corpus: the synced
    increment is retired with its persisted input and intent, so a
    later no-op sync cannot replay it back into the index."""
    corpus_dir, _ = tiny_corpus
    idx = str(tmp_path_factory.mktemp("idx_rebuild_inc"))
    build_index(corpus_dir, idx, config=IndexConfig())
    t, _ = _corpus_table(corpus_dir)
    base = t.select(["repo", "path", "commit", "lang", "content"])
    out = sync_changed_docs(
        idx, pa.concat_tables([base, _pure_add_rows(t, 1, "resurrect")])
    )
    assert out["new"] == 1 and out["stats"]["n_docs"] == 65

    stats = build_index(corpus_dir, idx, config=IndexConfig())
    assert stats["n_docs"] == 64 and stats.get("merge_skipped") is None
    out = sync_changed_docs(idx, base)
    assert out["changed"] == 0 and out["new"] == 0
    assert out["stats"]["n_docs"] == 64
    s = Searcher(idx)
    assert s.n_docs == 64
    assert s.search_exact("resurrect_0", k=5) == []
    assert not os.path.exists(os.path.join(idx, "increments"))


def test_config_change_rebuild_after_sync(
    ray_session, tiny_corpus, tmp_path_factory
):
    """A rebuild under a new config retires the increment that the old
    config indexed (its lineage record carries the old config), so
    its doc ids cannot outgrow the corpus-derived doc_id_space and the
    index equals a fresh build under the new config."""
    corpus_dir, _ = tiny_corpus
    idx = str(tmp_path_factory.mktemp("idx_cfg_inc"))
    build_index(corpus_dir, idx, config=IndexConfig())
    t, _ = _corpus_table(corpus_dir)
    base = t.select(["repo", "path", "commit", "lang", "content"])
    sync_changed_docs(
        idx, pa.concat_tables([base, _pure_add_rows(t, 1, "cfgsync")])
    )
    cfg = IndexConfig(block_size=64)
    stats = build_index(corpus_dir, idx, config=cfg)
    assert stats["n_docs"] == 64 and stats["doc_id_space"] == 64
    s = Searcher(idx)  # docmeta ids must stay inside the id space
    assert s.n_docs == 64 and s.space == 64
    fresh_idx = str(tmp_path_factory.mktemp("idx_cfg_inc_fresh"))
    build_index(corpus_dir, fresh_idx, config=cfg)
    assert _results_by_path(idx) == _results_by_path(fresh_idx)
