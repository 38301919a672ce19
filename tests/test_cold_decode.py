"""The cold query path: one-gather block decoding, the columnar
dictionary record, and answers on emptied caches.

``codec.decode_postings`` is checked against an independent per-block
reference (a Python big-int bit reader for packed pfor blocks,
``varint_decode`` for varint and fallback blocks); ``Searcher._record``
against the per-scalar pyarrow reading of the dictionary; cold
``search_wand`` against warm, ``search_exact`` and the brute-force
oracle.
"""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sotohp_ray.config import IndexConfig
from sotohp_ray.functions import codec as pcodec
from sotohp_ray.oracle import BruteForceBM25
from sotohp_ray.pipelines.build_index import build_index
from sotohp_ray.pipelines.query import Searcher

# ------------------------------------------------------------- codec


def _block_reference(buf: bytes, count: int) -> list[int]:
    """One encoded pfor block decoded bit by bit: width byte, then
    ``count`` little-endian ``width``-bit fields; width 0xFF is the
    varint fallback."""
    width = buf[0]
    if width == 0xFF:
        return pcodec.varint_decode(buf[1:], count).tolist()
    bits = int.from_bytes(buf[1:], "little")
    mask = (1 << width) - 1
    return [(bits >> (i * width)) & mask for i in range(count)]


def _reference(blob, counts, gap_offs, tf_offs, tf_base, codec):
    """(gaps, tfs) per block, each block decoded on its own."""
    ends_g = list(gap_offs[1:]) + [tf_base]
    ends_t = [tf_base + int(o) for o in tf_offs[1:]] + [len(blob)]
    gaps, tfs = [], []
    for k, cnt in enumerate(counts):
        g = blob[int(gap_offs[k]):int(ends_g[k])]
        t = blob[tf_base + int(tf_offs[k]):int(ends_t[k])]
        if codec == "pfor":
            gaps.append(_block_reference(g, int(cnt)))
            tfs.append(_block_reference(t, int(cnt)))
            # the public one-block decoder agrees with the bit reader
            assert pcodec.pfor_decode(g, int(cnt)).tolist() == gaps[-1]
        else:
            gaps.append(pcodec.varint_decode(g, int(cnt)).tolist())
            tfs.append(pcodec.varint_decode(t, int(cnt)).tolist())
    return gaps, tfs


@st.composite
def _postings(draw):
    """(block_size, docs, tfs, gap widths, tf widths): per block, every
    gap and tf below 2^width with one at 2^(width - 1), so the encoder
    picks exactly that width; width 33-36 makes a varint fallback
    block."""
    bs = draw(st.sampled_from([1, 5, 128]))
    shape = draw(st.sampled_from(["short", "multiple", "partial"]))
    full = draw(st.integers(1, 3))
    if shape == "short" and bs > 1:
        n = draw(st.integers(1, bs - 1))  # df < block_size
    elif shape == "partial" and bs > 1:
        n = bs * full + draw(st.integers(1, bs - 1))
    else:
        n = bs * full
    nblocks = (n + bs - 1) // bs
    widths = st.one_of(st.integers(1, 32), st.integers(33, 36))
    gw = draw(st.lists(widths, min_size=nblocks, max_size=nblocks))
    tw = draw(st.lists(widths, min_size=nblocks, max_size=nblocks))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = np.empty(n, dtype=np.uint64)
    tfs = np.empty(n, dtype=np.uint64)
    for k in range(nblocks):
        lo, hi = k * bs, min(n, (k + 1) * bs)
        for out, w in ((gaps, gw[k]), (tfs, tw[k])):
            v = rng.integers(1, 1 << w, size=hi - lo, dtype=np.uint64)
            v[rng.integers(hi - lo)] = 1 << (w - 1)
            out[lo:hi] = v
    return bs, np.cumsum(gaps, dtype=np.uint64), tfs, gw, tw


@settings(max_examples=80, deadline=None)
@given(_postings(), st.sampled_from(["pfor", "varint"]), st.data())
def test_decode_postings_matches_per_block_reference(
    data, codec, pick
):
    bs, docs, tfs, gw, tw = data
    n = docs.size
    blob, last, goffs, toffs, tf_base, _ = pcodec.encode_postings_blocks(
        docs, tfs, np.ones(n), bs, codec=codec)
    nblocks = last.size
    counts = np.full(nblocks, bs, dtype=np.int64)
    counts[-1] = n - bs * (nblocks - 1)
    if codec == "pfor":
        # the drawn widths are the stored ones (0xFF: varint fallback)
        for offs, base, ws in ((goffs, 0, gw), (toffs, tf_base, tw)):
            assert [blob[base + int(o)] for o in offs] == [
                w if w <= 32 else 0xFF for w in ws]
    gaps, ref_tfs = _reference(blob, counts, goffs, toffs, tf_base, codec)
    assert np.cumsum(np.concatenate(gaps).astype(np.uint64),
                     dtype=np.uint64).tolist() == docs.tolist()
    d, f = pcodec.decode_postings(
        blob, n, tf_base, block_counts=counts, gap_offs=goffs,
        tf_offs=toffs, codec=codec)
    assert d.dtype == f.dtype == np.uint64
    assert d.tolist() == docs.tolist()
    assert f.tolist() == [x for b in ref_tfs for x in b] == tfs.tolist()
    # single blocks decode to the matching slices of the full decode
    blocks = sorted(pick.draw(st.sets(
        st.integers(0, nblocks - 1), min_size=1, max_size=nblocks)))
    for k in blocks:
        od, of = pcodec.decode_one_block(
            blob, k, counts, goffs, toffs, tf_base, last, codec=codec)
        assert od.tolist() == docs[k * bs:k * bs + counts[k]].tolist()
        assert of.tolist() == tfs[k * bs:k * bs + counts[k]].tolist()


# ------------------------------------------------ planted dictionary

N_DOCS = 240
DEAD = [3, 17, 18, 40, 41, 42, 99, 150, 151, 239]
QUERIES = [
    "hotterm", "warmterm", "rareterm", "hotterm warmterm",
    "warmterm rareterm hotterm", "hotterm hotterm rareterm",
    "twiceterm hotterm", "onlyterm7 warmterm", "padword hotterm",
]


def _texts() -> list[str]:
    """Multi-block terms (hotterm in most docs, warmterm in every
    third, padword for length), a few-doc term (rareterm), one
    df=1/tf=1 term per 20th doc (inline, ``onlytermN``) and one df=1
    term repeated in its doc (blob, ``twiceterm``)."""
    rng = np.random.default_rng(7)
    texts = []
    for i in range(N_DOCS):
        words = ["hotterm"] * int(rng.integers(0, 4))
        words += ["warmterm"] * (1 + i % 2) if i % 3 == 0 else []
        words += ["rareterm"] * 3 if i in (5, 77, 160) else []
        words += [f"onlyterm{i}"] if i % 20 == 7 else []
        words += ["twiceterm", "twiceterm"] if i == 123 else []
        words += ["padword"] * int(rng.integers(1, 6))
        rng.shuffle(words)
        texts.append(" ".join(words))
    return texts


@pytest.fixture(scope="module")
def sharded(ray_session, tmp_path_factory):
    """(index, oracle): the planted corpus as one partition, indexed
    with 8-posting blocks into 4 dictionary shard files."""
    texts = _texts()
    d = tmp_path_factory.mktemp("corpus_cold")
    pq.write_table(pa.table({
        "repo": pa.array(["r"] * N_DOCS),
        "path": pa.array([f"f{i:04d}.py" for i in range(N_DOCS)]),
        "commit": pa.array(["0"] * N_DOCS),
        "lang": pa.array(["py"] * N_DOCS),
        "content": pa.array(texts),
    }), str(d / "part-00000.parquet"))
    idx = str(tmp_path_factory.mktemp("idx_cold"))
    build_index(str(d), idx,
                config=IndexConfig(block_size=8, num_term_shards=4))
    return idx, BruteForceBM25(str(d))


def _scalar_record(s: Searcher, term: str) -> dict:
    """The record's fields read one pyarrow scalar per column."""
    i = s._row[term]
    tbl = s._tbl
    if not tbl["blob"][i].is_valid:
        return {"blob": None, "docs": [tbl["doc0"][i].as_py()],
                "tfs": [tbl["tf0"][i].as_py()],
                "block_max": [tbl["max_score"][i].as_py()]}
    return {
        "blob": tbl["blob"][i].as_py(),
        "block_last": tbl["block_last"][i].as_py(),
        "block_gap_offs": tbl["block_gap_offs"][i].as_py(),
        "block_tf_offs": tbl["block_tf_offs"][i].as_py(),
        "tf_base": tbl["tf_base"][i].as_py(),
        "block_max": tbl["block_max"][i].as_py(),
    }


def _check_records(s: Searcher) -> set[str]:
    """Every term's ``_record`` equals the scalar reading; returns the
    kinds of term seen."""
    kinds = set()
    for term, i in s._row.items():
        r, want = s._record(term), _scalar_record(s, term)
        assert r["df"] == int(s._tbl["df"][i].as_py())
        assert r["max_score"] == s._tbl["max_score"][i].as_py()
        assert r["block_max"].dtype == np.float64
        assert r["block_last"].dtype == np.int64
        assert r["block_max"].tolist() == want["block_max"]
        # positions are read through the same views
        _, tfs, occ = s._positions_of(term)
        pb = s._tbl["pos_blob"][i]
        if pb.is_valid:
            gaps = pcodec.varint_decode(
                pb.as_buffer(), int(s._tbl["cf"][i].as_py()))
            lens = tfs.astype(np.int64)
            pos = [np.cumsum(gaps[a:a + n]) for a, n in
                   zip(np.cumsum(lens) - lens, lens)]
            assert occ.tolist() == np.concatenate(pos).tolist(), term
        else:
            assert occ.tolist() == [s._tbl["pos0"][i].as_py()], term
        if want["blob"] is None:
            kinds.add("inline")
            assert r["blob"] is None
            assert r["docs"].tolist() == want["docs"]
            assert r["tfs"].tolist() == want["tfs"]
            continue
        kinds.add("multi-block" if len(want["block_last"]) > 1
                  else "blob df=1" if r["df"] == 1 else "one-block")
        assert bytes(r["blob"]) == want["blob"]
        assert r["tf_base"] == want["tf_base"]
        for col in ("block_last", "block_gap_offs", "block_tf_offs"):
            assert r[col].tolist() == want[col], (term, col)
    return kinds


def test_columnar_record_equals_scalar_reading(sharded):
    idx, _ = sharded
    files = os.listdir(os.path.join(idx, "dictionary"))
    assert len([n for n in files if n.startswith("shard-")]) == 4, files
    s = Searcher(idx)
    assert _check_records(s) >= {"inline", "blob df=1", "multi-block"}
    assert s._record("twiceterm")["df"] == 1
    assert s._record("twiceterm")["blob"] is not None
    # a shard-group searcher holds only its shards' rows
    group = Searcher(idx, shard_range=(1, 3))
    assert 0 < group.n_terms_loaded < s.n_terms_loaded
    _check_records(group)
    # a group that owns no shard file opens on an empty table
    empty = Searcher(idx, shard_range=(100, 200))
    assert empty.n_terms_loaded == 0
    assert empty.search_wand("hotterm", 5) == []


def _cold(s: Searcher) -> None:
    for name in ("_rec_cache", "_dec_cache", "_pos_cache"):
        getattr(s, name).clear()
    s._dec_cache_postings = 0


@pytest.mark.parametrize("tombstones", [False, True])
def test_cold_wand_equals_warm_exact_and_oracle(sharded, tmp_path,
                                                tombstones):
    """For every planted query and k, with the caches emptied before
    each query: cold ``search_wand`` and the pruned kernel run past its
    shortcuts equal their warm answers, ``search_exact`` and the
    oracle (with tombstones: the oracle's ranking less the dead docs,
    whose collection stats stay those of the undeleted corpus)."""
    from sotohp_ray.pipelines.delete import delete_docs

    idx, oracle = sharded
    dead = set()
    if tombstones:
        idx2 = str(tmp_path / "idx")
        shutil.copytree(idx, idx2)
        delete_docs(idx2, engine_doc_ids=DEAD)
        idx, dead = idx2, set(DEAD)
    s = Searcher(idx)
    for q in QUERIES:
        for k in (1, 3, 10, 50):
            want = [x for x in oracle.search(q, N_DOCS)
                    if x[0] not in dead][:k]
            _cold(s)
            cold = s.search_wand(q, k)
            _cold(s)
            cold_kernel = s._interval_top_k(s._query_terms(q), k)
            warm = s.search_wand(q, k)
            warm_kernel = s._interval_top_k(s._query_terms(q), k)
            exact = s.search_exact(q, k)
            assert cold == warm == cold_kernel == warm_kernel == exact, \
                (q, k)
            assert [d for d, _ in exact] == [d for d, _ in want], (q, k)
            for (_, a), (_, b) in zip(exact, want):
                assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


def test_cold_wand_decodes_each_term_once(sharded, monkeypatch):
    """With the shortcut constants set so that every query is past
    them, one cold ``search_wand`` decodes each blob term of the query
    exactly once, and the next call, warm, reaches the pruned kernel
    and decodes nothing."""
    from sotohp_ray.pipelines import query as qmod

    monkeypatch.setattr(qmod, "_WAND_MIN_POSTINGS", 0)
    monkeypatch.setattr(qmod, "_WAND_MAX_DF_FRAC", 1.0)
    decoded = []
    inner = pcodec.decode_postings
    monkeypatch.setattr(pcodec, "decode_postings", lambda blob, *a, **kw: (
        decoded.append(bytes(blob)) or inner(blob, *a, **kw)))
    idx, _ = sharded
    s = Searcher(idx)
    pruned = 0
    for q in QUERIES:
        for k in (1, 3, 10):
            _cold(s)
            blobs = sorted(
                bytes(s._record(t)["blob"]) for t, _ in s._query_terms(q)
                if s._record(t)["blob"] is not None)
            decoded.clear()
            cold = s.search_wand(q, k)
            assert sorted(decoded) == blobs, (q, k)
            decoded.clear()
            kernel = []
            s._interval_top_k = lambda qterms, k_: (
                kernel.append(k_) or Searcher._interval_top_k(s, qterms, k_))
            assert s.search_wand(q, k) == cold == s.search_exact(q, k)
            del s._interval_top_k
            assert decoded == [], (q, k)
            pruned += bool(kernel)
    assert pruned >= 2 * len(QUERIES), pruned
