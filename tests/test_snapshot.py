"""ES _snapshot repository analog: snapshots are incremental
(content-addressed blobs), restores are point-in-time exact (search
results bit-identical to the snapshotted state) and atomic, and
repository cleanup never breaks a remaining snapshot."""

import os

import pyarrow.parquet as pq
import pytest

from sotohp_ray.pipelines.build_index import build_index
from sotohp_ray.pipelines.delete import compact_index, delete_docs
from sotohp_ray.pipelines.query import Searcher
from sotohp_ray.pipelines.snapshot import (
    cleanup_repository,
    create_snapshot,
    delete_snapshot,
    list_snapshots,
    restore_snapshot,
)

QUERY = "def return value"


@pytest.fixture(scope="module")
def snap_env(ray_session, tiny_corpus, tmp_path_factory):
    corpus_dir, _ = tiny_corpus
    index_dir = str(tmp_path_factory.mktemp("idx_snap"))
    build_index(corpus_dir, index_dir)
    repo = str(tmp_path_factory.mktemp("snap_repo"))
    return index_dir, repo


def test_snapshot_restore_point_in_time(snap_env, tmp_path_factory):
    index_dir, repo = snap_env
    before = Searcher(index_dir).search_exact(QUERY, k=20)
    s1 = create_snapshot(index_dir, repo, "s1")
    # cold repo: every DISTINCT content is new (n_new_blobs can sit
    # below n_files only by intra-index dedup of identical files)
    assert 0 < s1["n_new_blobs"] <= s1["n_files"]

    # mutate: tombstone the top hit, then compact (physical rewrite)
    victim = before[0][0]
    dm = pq.read_table(
        os.path.join(index_dir, "docmeta"), columns=["doc_id", "doc_uuid"]
    )
    uuid = dict(
        zip(dm["doc_id"].to_pylist(), dm["doc_uuid"].to_pylist())
    )[victim]
    assert delete_docs(index_dir, doc_uuids=[uuid]) == 1
    compact_index(index_dir)
    after = Searcher(index_dir).search_exact(QUERY, k=20)
    assert after != before

    # second snapshot is INCREMENTAL: unchanged files ship no blobs
    s2 = create_snapshot(index_dir, repo, "s2")
    assert 0 < s2["n_new_blobs"] < s2["n_files"]
    assert s2["bytes_copied"] < s2["bytes_total"]
    assert list_snapshots(repo) == ["s1", "s2"]

    # restore s1 to a FRESH dir: pre-delete results, bit-identical
    r1 = str(tmp_path_factory.mktemp("restore")) + "/idx1"
    assert restore_snapshot(repo, "s1", r1) == s1["n_files"]
    assert Searcher(r1).search_exact(QUERY, k=20) == before

    # restore s2 OVER the s1 restore (atomic swap path): post-delete
    assert restore_snapshot(repo, "s2", r1) == s2["n_files"]
    assert Searcher(r1).search_exact(QUERY, k=20) == after

    # drop s1, cleanup: its exclusive blobs go, s2 stays restorable
    delete_snapshot(repo, "s1")
    removed = cleanup_repository(repo)
    assert removed > 0
    r2 = str(tmp_path_factory.mktemp("restore2")) + "/idx2"
    restore_snapshot(repo, "s2", r2)
    assert Searcher(r2).search_exact(QUERY, k=20) == after


def test_reindex_new_tokenizer_atomic_swap(
    ray_session, tiny_corpus, tmp_path_factory
):
    """_reindex analog: rebuilding with a changed tokenizer config
    swaps in atomically; the new behavior (an added stopword stops
    matching) is live after the swap, everything else still ranks,
    and the swap replaced (not merged) the old directory."""
    from sotohp_ray.config import IndexConfig, TokenizerRules
    from sotohp_ray.pipelines.migrate import reindex

    corpus_dir, _ = tiny_corpus
    index_dir = str(tmp_path_factory.mktemp("idx_reindex")) + "/idx"
    build_index(corpus_dir, index_dir)
    s0 = Searcher(index_dir)
    assert s0.search_exact("return", k=5)  # matches before
    keep = s0.search_exact("batch", k=5)
    assert keep

    reindex(
        corpus_dir, index_dir,
        config=IndexConfig(
            tokenizer=TokenizerRules(stopwords=frozenset({"return"}))
        ),
    )
    s1 = Searcher(index_dir)
    assert s1.search_exact("return", k=5) == []  # stopworded away
    got = s1.search_exact("batch", k=5)
    assert [d for d, _ in got] == [d for d, _ in keep]
    assert not os.path.isdir(index_dir + ".old")  # swap cleaned up


@pytest.mark.parametrize("op", ["reindex", "restore"])
def test_failed_swap_keeps_old_index(
    op, ray_session, tiny_corpus, tmp_path_factory, monkeypatch
):
    """Crash injection at the directory swap of ``reindex`` and
    ``restore_snapshot``. A failing second rename must put the old
    index back before the error propagates; a crash between the two
    renames (live dir missing, old one at ``.old``) is undone by the
    next call, even one that then fails itself."""
    from sotohp_ray.config import IndexConfig, TokenizerRules
    from sotohp_ray.pipelines import build_index as bi
    from sotohp_ray.pipelines.migrate import reindex

    corpus_dir, _ = tiny_corpus
    root = str(tmp_path_factory.mktemp(f"swap_{op}"))
    index_dir = os.path.join(root, "idx")
    build_index(corpus_dir, index_dir)
    before = Searcher(index_dir).search_exact(QUERY, k=20)
    repo = os.path.join(root, "repo")
    create_snapshot(index_dir, repo, "s")

    def run():
        if op == "reindex":
            reindex(corpus_dir, index_dir, config=IndexConfig(
                tokenizer=TokenizerRules(stopwords=frozenset({"return"}))
            ))
        else:
            restore_snapshot(repo, "s", index_dir)

    real_replace = os.replace

    def failing_second_rename(src, dst):
        if dst == index_dir and os.path.basename(src).startswith(
            (".reindex-", ".restore-")
        ):
            raise OSError("injected failure of the second rename")
        return real_replace(src, dst)

    with monkeypatch.context() as m:
        m.setattr(os, "replace", failing_second_rename)
        with pytest.raises(OSError, match="injected"):
            run()
    assert Searcher(index_dir).search_exact(QUERY, k=20) == before
    assert not os.path.exists(index_dir + ".old")
    assert not [n for n in os.listdir(root) if n.startswith(".")]

    # a crash between the renames, then a next call that fails early
    os.replace(index_dir, index_dir + ".old")

    def boom(*a, **k):
        raise RuntimeError("injected build failure")

    with monkeypatch.context() as m:
        m.setattr(bi, "build_index", boom)
        with pytest.raises((RuntimeError, FileNotFoundError)):
            if op == "reindex":
                run()
            else:
                restore_snapshot(repo, "missing", index_dir)
    assert Searcher(index_dir).search_exact(QUERY, k=20) == before
    assert not os.path.exists(index_dir + ".old")


def test_cleanup_waits_for_snapshot_in_progress(snap_env, tmp_path,
                                                monkeypatch):
    """A cleanup started while a snapshot has placed blobs but not yet
    written its manifest waits for the manifest, so it removes none of
    those blobs, and the snapshot restores exactly."""
    import threading

    from sotohp_ray.pipelines import snapshot

    index_dir, _ = snap_env
    repo = str(tmp_path / "repo")
    placed, resume = threading.Event(), threading.Event()
    place = snapshot._atomic_place

    def paused_place(tmp, dest):
        place(tmp, dest)
        if os.path.basename(os.path.dirname(dest)) == "blobs":
            placed.set()
            assert resume.wait(30)

    monkeypatch.setattr(snapshot, "_atomic_place", paused_place)
    made, removed = [], []
    snap = threading.Thread(target=lambda: made.append(
        create_snapshot(index_dir, repo, "busy")))
    snap.start()
    assert placed.wait(30)
    clean = threading.Thread(target=lambda: removed.append(
        cleanup_repository(repo)))
    clean.start()
    clean.join(0.5)
    assert clean.is_alive()  # waiting on the snapshot's shared lock
    resume.set()
    snap.join(30)
    clean.join(30)
    assert made and made[0]["n_new_blobs"] > 0 and removed == [0]
    assert restore_snapshot(repo, "busy", str(tmp_path / "restored")) \
        == made[0]["n_files"]
    assert Searcher(str(tmp_path / "restored")).search_exact(QUERY, 20) \
        == Searcher(index_dir).search_exact(QUERY, 20)


def test_restore_from_read_only_repository(snap_env, tmp_path, monkeypatch):
    """A restore needs no write access to the repository: with every
    write-mode open under it failing as on a read-only mount, it
    restores exactly, whether or not the lock file exists."""
    import errno

    index_dir, _ = snap_env
    repo = str(tmp_path / "repo")
    create_snapshot(index_dir, repo, "ro")
    want = Searcher(index_dir).search_exact(QUERY, 20)
    real_open = os.open
    writes = os.O_WRONLY | os.O_RDWR | os.O_CREAT

    def read_only_open(path, flags, *args, **kwargs):
        if str(path).startswith(repo) and flags & writes:
            raise OSError(errno.EROFS, os.strerror(errno.EROFS), path)
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", read_only_open)
    for has_lock in (True, False):
        if not has_lock:
            os.remove(os.path.join(repo, ".lock"))
        dest = str(tmp_path / f"restored-{has_lock}")
        assert restore_snapshot(repo, "ro", dest) > 0
        assert Searcher(dest).search_exact(QUERY, 20) == want
    assert not os.path.exists(os.path.join(repo, ".lock"))
