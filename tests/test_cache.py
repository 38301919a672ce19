"""The durable-artifact cache (``sotohp_ray/cache.py``): keys follow
every rewrite of the source, a publish is all-or-nothing, a new version
evicts only its own stale predecessor, and no other module names the
cache root."""

import os
import pathlib

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from sotohp_ray import cache

REPO = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def root(tmp_path, monkeypatch):
    r = tmp_path / "cache"
    monkeypatch.setattr(cache, "ROOT", str(r))
    return r


@pytest.fixture
def src(tmp_path):
    p = tmp_path / "src.bin"
    p.write_bytes(b"version one")
    return str(p)


def _leftovers(root):
    return sorted(n for n in os.listdir(root) if ".tmp-" in n)


def _write(name):
    def build(staging):
        with open(os.path.join(staging, name), "w") as f:
            f.write(name)
    return build


def test_key_follows_same_size_rewrite(root, src):
    """Size alone is not identity: a same-size rewrite (new mtime) is a
    new key, and so is a different param or kind."""
    a = cache.path("k", src, (1,))
    st = os.stat(src)
    with open(src, "wb") as f:
        f.write(b"version two")
    os.utime(src, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000))
    assert os.path.getsize(src) == st.st_size
    b = cache.path("k", src, (1,))
    assert a != b
    others = {cache.path("k", src, (2,)), cache.path("j", src, (1,))}
    assert len({b} | others) == 3
    assert os.path.dirname(b) == str(root)


def test_publish_builds_once(root, src):
    calls = []

    def build(staging):
        calls.append(staging)
        _write("data")(staging)

    d = cache.artifact("k", src, (1,), build)
    assert cache.artifact("k", src, (1,), build) == d
    assert len(calls) == 1
    assert os.listdir(d) == ["data"]
    with open(d + ".src") as f:
        assert f.read() == cache.tag(src, (1,))
    assert _leftovers(root) == []


def test_publish_crash_leaves_nothing(root, src):
    final = cache.path("k", src, (1,))

    def boom(staging):
        _write("half")(staging)
        raise RuntimeError("injected crash mid-build")

    with pytest.raises(RuntimeError, match="injected"):
        cache.publish(final, boom, cache.tag(src, (1,)))
    assert not os.path.exists(final)
    assert not os.path.exists(final + ".src")
    assert _leftovers(root) == []
    # recovery: the next publish builds cleanly
    assert cache.artifact("k", src, (1,), _write("data")) == final
    assert os.listdir(final) == ["data"]


def test_newer_version_evicts_only_its_own_predecessor(root, src):
    old = cache.artifact("k", src, (1,), _write("old"))
    other_param = cache.artifact("k", src, (2,), _write("p2"))
    other_kind = cache.artifact("j", src, (1,), _write("j"))
    longer_kind = cache.artifact("k-x", src, (1,), _write("kx"))
    with open(src, "wb") as f:
        f.write(b"version two, longer")
    new = cache.artifact("k", src, (1,), _write("new"))
    assert new != old
    assert not os.path.exists(old) and not os.path.exists(old + ".src")
    for kept in (new, other_param, other_kind, longer_kind):
        assert os.path.isdir(kept) and os.path.exists(kept + ".src")
    assert os.listdir(new) == ["new"]


def test_concurrent_loser_drops_its_staging(root, src):
    """A builder that loses the rename to a concurrent one returns the
    winner's artifact and removes its own staging copy."""
    final = cache.path("k", src, (1,))

    def racing(staging):
        _write("loser")(staging)
        os.makedirs(final)  # the concurrent builder renames first
        _write("winner")(final)

    assert cache.publish(final, racing, cache.tag(src, (1,))) == final
    assert os.listdir(final) == ["winner"]
    assert _leftovers(root) == []


def _docs_table(texts):
    n = len(texts)
    return pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * n),
        "source": pa.array(["t"] * n),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })


def test_documents_index_follows_same_size_rewrite(
    ray_session, root, tmp_path
):
    """Rewriting documents.parquet to a file of the SAME size but
    different text must rebuild the documents index: every fulltext
    op answers from the new text, never from the old index."""
    from sotohp_ray.pipelines.fulltext import bm25_topk

    sf = tmp_path / "sf"
    sf.mkdir()
    docs = str(sf / "documents.parquet")
    before = ["alpha bravo", "delta bravo", "kilo lima"]
    after = ["gamma bravo", "delta bravo", "kilo lima"]
    pq.write_table(_docs_table(before), docs, compression="none")
    size = os.path.getsize(docs)
    q = ("alpha", "gamma")
    got = bm25_topk(str(sf), queries=q, k=3).to_pydict()
    assert list(zip(got["query_id"], got["doc_id"])) == [(0, 0)]

    pq.write_table(_docs_table(after), docs, compression="none")
    assert os.path.getsize(docs) == size
    got = bm25_topk(str(sf), queries=q, k=3).to_pydict()
    assert list(zip(got["query_id"], got["doc_id"])) == [(1, 0)]
    # the stale index was swept, not left beside the new one
    assert len([n for n in os.listdir(root) if n.endswith(".src")]) == 1


def test_updated_index_rejects_wrong_sync_count(
    root, tmp_path, monkeypatch
):
    """The sync's changed-doc count is checked by an explicit raise
    (an ``assert`` vanishes under ``python -O``), and a failed sync
    publishes nothing."""
    from sotohp_ray.pipelines import fulltext as ft
    from sotohp_ray.pipelines import update

    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(
        _docs_table([f"doc {i}" for i in range(8)]),
        str(sf / "documents.parquet"),
    )
    base = tmp_path / "base_index"
    base.mkdir()
    (base / "marker").write_text("base")
    monkeypatch.setattr(ft, "documents_index", lambda sf_dir: str(base))
    monkeypatch.setattr(
        update, "sync_changed_docs",
        lambda index_dir, incoming: {"changed": 1, "stats": {}},
    )
    with pytest.raises(RuntimeError, match="expected 5"):
        ft.updated_documents_index(str(sf))
    assert os.listdir(root) == []


def test_cache_root_named_only_in_cache_module():
    """One root: no module, tool or bench script spells the cache
    directory itself."""
    needle = "sotohp_ray" + "_cache"
    files = [REPO / "bench.py"]
    for d in ("sotohp_ray", "tools"):
        files += sorted((REPO / d).rglob("*.py"))
    hits = [
        str(p.relative_to(REPO)) for p in files
        if needle in p.read_text()
    ]
    assert hits == ["sotohp_ray/cache.py"]
