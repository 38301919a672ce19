"""Cached per-term BM25 impacts and the k-th-impact ranking floor of
``Searcher._top_k``: the floor never changes an answer, including at
ties with the k-th score, with qw = 2 terms and with tombstones (it
ranks live impacts only), and it is off under a mask, which may hide
the docs it counts on."""

import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from sotohp_ray.config import IndexConfig
from sotohp_ray.oracle import BruteForceBM25
from sotohp_ray.pipelines.build_index import build_index
from sotohp_ray.pipelines.query import Searcher, _rank
from sotohp_ray.sources.corpus import reference_queries
from test_query import _kernel_top_k

# docs 10-21 hold "tieterm" once in four tokens, so their tieterm
# impacts tie; docs 30-34 hold it once in eight tokens, lower
TIED = list(range(10, 22))
LOWER = list(range(30, 35))


@pytest.fixture(scope="module")
def planted(ray_session, tmp_path_factory):
    n = 60
    texts = []
    for i in range(n):
        words = ["hotterm"] * (1 + i % 3) + ["padword"] * (i % 2)
        if i in TIED:
            words = ["tieterm", "padword", "padword", "padword"]
        elif i in LOWER:
            words = ["tieterm"] + ["padword"] * 6 + ["hotterm"]
        texts.append(" ".join(words))
    d = tmp_path_factory.mktemp("corpus_ties")
    pq.write_table(pa.table({
        "repo": pa.array(["r"] * n),
        "path": pa.array([f"f{i:04d}.py" for i in range(n)]),
        "commit": pa.array(["0"] * n),
        "lang": pa.array(["py"] * n),
        "content": pa.array(texts),
    }), str(d / "part-00000.parquet"))
    idx = str(tmp_path_factory.mktemp("idx_ties"))
    # 8-posting blocks: several blocks per term
    build_index(str(d), idx, config=IndexConfig(block_size=8))
    return idx, BruteForceBM25(str(d))


def _unfloored(s, query, k, mask=None):
    """The top-k ranked over every positive score, with no floor."""
    scores = s._dense_scores(
        s._interval_postings(s._query_terms(query)), mask)
    nz = np.flatnonzero(scores > 0.0)
    return _rank(nz, scores[nz], k)


def test_ties_at_kth_impact(planted):
    """Twelve docs tie at tieterm's k-th impact for k = 5: the floor
    keeps every one of them and the lowest ids win, as with no floor."""
    idx, oracle = planted
    s = Searcher(idx)
    s.search_exact("tieterm", 5)  # caches the impacts
    imp = s._impacts("tieterm")[1]
    assert s._kth_impact("tieterm", 5) == imp.max()
    assert (imp == imp.max()).sum() == len(TIED)
    for k in (1, 5, 12, 13, 17, 40):
        hits = s.search_exact("tieterm", k)
        assert hits == _unfloored(s, "tieterm", k)
        assert hits == oracle.search("tieterm", k)
    assert [d for d, _ in s.search_exact("tieterm", 5)] == TIED[:5]


@pytest.mark.parametrize("query", [
    "tieterm hotterm", "hotterm tieterm padword",
    # tieterm at qw = 2 gives no floor; hotterm at qw = 1 does
    "tieterm tieterm hotterm", "hotterm hotterm",
])
def test_floor_matches_unfloored_and_oracle(planted, query):
    idx, oracle = planted
    s = Searcher(idx)
    for k in (1, 3, 5, 10, 30):
        # the pruned WAND path too, past search_wand's shortcuts: at
        # theta0 = 0 on the first k, at a warm theta0 after
        pruned = s._interval_top_k(s._query_terms(query), k)
        for hits in (s.search_exact(query, k), s.search_wand(query, k),
                     pruned):
            assert hits == _unfloored(s, query, k), (query, k)
            got, want = [d for d, _ in hits], oracle.search(query, k)
            assert got == [d for d, _ in want], (query, k)
            for (_, a), (_, b) in zip(hits, want):
                assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


def test_qw2_contribs_are_computed_not_cached(planted):
    """A qw = 2 row carries 2-weighted contributions; the cached impacts
    stay those of qw = 1."""
    idx, _ = planted
    s = Searcher(idx)
    (_, _, qw, d, c), = s._interval_postings([("tieterm", 2.0)])
    assert qw == 2.0
    docs, tfs = s._decode_full("tieterm")
    want = s._contrib(2.0, int(s._dfs[s._row["tieterm"]]),
                      tfs.astype(np.float64),
                      s.doc_len[docs.astype(np.intp)])
    np.testing.assert_array_equal(c, want)
    np.testing.assert_array_equal(d, docs)
    assert s._dec_cache["tieterm"][2] is None
    _, imp = s._impacts("tieterm")
    assert not np.array_equal(imp, c)


def test_mask_disables_floor(planted):
    """A mask hiding every doc at or above tieterm's k-th impact leaves
    the lower docs as the answer."""
    idx, _ = planted
    s = Searcher(idx)
    s.search_exact("tieterm", 5)
    mask = np.ones(s.space, dtype=bool)
    mask[TIED] = False
    hits = s.search_exact("tieterm", 5, mask=mask)
    assert sorted(d for d, _ in hits) == LOWER
    assert hits == _unfloored(s, "tieterm", 5, mask)


def _live_floor(s, qterms, k, dead):
    """The largest k-th live impact among the qw = 1.0 terms, ranked
    here from the cached impacts with the ``dead`` docs dropped."""
    floors = []
    for t, qw in qterms:
        d, imp = s._impacts(t)
        live = np.sort(imp[~np.isin(d, dead)])[::-1]
        if qw == 1.0 and live.size >= k:
            floors.append(float(live[k - 1]))
    return max(floors)


def _tombstoned(idx, tmp_path, dead):
    from sotohp_ray.pipelines.delete import delete_docs

    idx2 = str(tmp_path / f"idx{len(dead)}")
    shutil.copytree(idx, idx2)
    delete_docs(idx2, engine_doc_ids=dead)
    return idx2


def test_tombstones_disable_floor(planted, tmp_path):
    """With every doc at or above tieterm's k-th impact deleted (all of
    TIED), the cached impacts still hold them: a floor over the dead
    impacts would leave no live doc to rank. The floor ranks live
    impacts only, so the dead ones are out of it: the answer is LOWER,
    cold and warm, and the warm kernel makes one pass at the k-th live
    impact."""
    idx, _ = planted
    s = Searcher(_tombstoned(idx, tmp_path, TIED))
    for _ in range(2):  # cold, then with the impacts cached
        for search in (s.search_exact, s.search_wand):
            hits = search("tieterm", 5)
            assert sorted(d for d, _ in hits) == LOWER
            assert hits == _unfloored(s, "tieterm", 5)
    assert s._dec_cache["tieterm"][2] is not None
    for k in (5, 1, 3):
        theta0 = s._impact_floor([("tieterm", 1.0)], k)
        assert theta0 == _live_floor(s, [("tieterm", 1.0)], k, TIED) > 0.0
        hits, got = _kernel_top_k(s, "tieterm", k)
        assert got == theta0, k
        assert hits == _unfloored(s, "tieterm", k), k
        assert set(d for d, _ in hits) <= set(LOWER), k


def test_cold_and_tombstoned_kernel_seed_first(planted, tmp_path):
    """A cold searcher has no theta0, so its first ``search_wand``
    answers through ``search_exact``, which seeds the impact cache.
    After it, on the index and on a tombstoned copy, theta0 is the
    k-th largest live impact, the kernel makes one pass at it, and its
    hits equal the unfloored ranking and hold no deleted doc."""
    idx, _ = planted
    dead = TIED[:3]
    for path, gone in ((idx, []), (_tombstoned(idx, tmp_path, dead), dead)):
        for query in ("tieterm", "tieterm hotterm", "hotterm padword"):
            for k in (1, 3, 5, 10):
                s = Searcher(path)
                qterms = s._query_terms(query)
                assert s._impact_floor(qterms, k) == 0.0, (query, k)
                want = _unfloored(s, query, k)
                assert s.search_wand(query, k) == want, (query, k)
                assert not set(gone) & {d for d, _ in want}, (query, k)
                theta0 = s._impact_floor(qterms, k)
                assert theta0 == _live_floor(s, qterms, k, gone) > 0.0, \
                    (query, k)
                hits, got = _kernel_top_k(s, query, k)
                assert got == theta0, (query, k)
                assert hits == s.search_wand(query, k) == want, (query, k)


def _drop(s):
    for name in ("_rec_cache", "_dec_cache", "_pos_cache"):
        getattr(s, name).clear()
    s._dec_cache_postings = 0


def _charge(s):
    """The decode cache's charge, recounted from its entries, after
    checking that its arrays hold at most 16 bytes a charged posting
    (a doc id and a tf, or an impact and at most one top value, and
    half a dense row's 8-byte slots)."""
    nbytes = sum(a.nbytes for e in s._dec_cache.values()
                 for a in e if a is not None)
    assert nbytes <= 16 * s._dec_cache_postings
    return sum(e[0].size * (1 if e[2] is None else 2)
               + (0 if e[4] is None else s.space // 2)
               for e in s._dec_cache.values())


def test_cleared_caches_equal_fresh_searcher(ray_session, tiny_corpus,
                                             tmp_path):
    """Answers from a warm searcher, from the same searcher with its
    caches cleared and from a fresh one are identical, across growing
    and shrinking k, and under a budget so small that entries are
    evicted mid-query; the charge never passes the budget."""
    corpus_dir, _ = tiny_corpus
    idx = str(tmp_path / "idx")
    build_index(corpus_dir, idx)
    queries = [q["q"] for q in reference_queries(corpus_dir)]
    ks = (10, 1, 100, 3, 50, 20)
    warm = Searcher(idx)
    tight = Searcher(idx)
    tight.dec_cache_budget = 40
    for rnd in range(2):
        for i, q in enumerate(queries):
            k = ks[i % len(ks)]
            fresh = Searcher(idx)
            want = (fresh.search_exact(q, k), fresh.search_wand(q, k))
            for s in (warm, tight):
                assert (s.search_exact(q, k), s.search_wand(q, k)) \
                    == want, (rnd, q, k)
                assert s._dec_cache_postings == _charge(s)
            assert tight._dec_cache_postings <= tight.dec_cache_budget
        assert any(e[2] is not None for e in warm._dec_cache.values())
        _drop(warm)


def _corpus_index(tmp_path_factory, name, texts):
    """(corpus, index): ``texts`` as one parquet partition, indexed
    with 8-posting blocks."""
    n = len(texts)
    d = tmp_path_factory.mktemp(f"corpus_{name}")
    pq.write_table(pa.table({
        "repo": pa.array(["r"] * n),
        "path": pa.array([f"f{i:04d}.py" for i in range(n)]),
        "commit": pa.array(["0"] * n),
        "lang": pa.array(["py"] * n),
        "content": pa.array(texts),
    }), str(d / "part-00000.parquet"))
    idx = str(tmp_path_factory.mktemp(f"idx_{name}"))
    build_index(str(d), idx, config=IndexConfig(block_size=8))
    return str(d), idx


def test_pruned_wand_takes_theta0_across_blocks(
    ray_session, tmp_path_factory
):
    """A sparse term whose top-5 impacts sit in five different blocks:
    with its impacts cached, the one pruned pass runs at theta0 and
    answers exactly."""
    top = [0, 80, 160, 240, 320]
    texts = []
    for i in range(400):
        if i in top:
            words = ["sparseterm"] * 3
        elif i % 10 == 0:
            words = ["sparseterm"] + ["padword"] * (4 + i % 7)
        else:
            words = ["padword"] * (1 + i % 5)
        texts.append(" ".join(words))
    corpus, idx = _corpus_index(tmp_path_factory, "sparse", texts)
    s = Searcher(idx)
    want = s.search_exact("sparseterm", 5)  # caches the impacts
    assert [d_ for d_, _ in want] == top
    assert want == BruteForceBM25(corpus).search("sparseterm", 5)
    theta0 = s._impact_floor(s._query_terms("sparseterm"), 5)
    assert theta0 == want[-1][1]
    hits, got = _kernel_top_k(s, "sparseterm", 5)
    assert hits == want
    assert got == theta0


@pytest.mark.parametrize("query", [
    "tieterm hotterm", "hotterm tieterm padword", "tieterm tieterm hotterm",
])
def test_warm_kernel_makes_one_pass_at_theta0(planted, query):
    """With the impacts cached, the pruned path makes exactly one
    ``_interval_postings`` call, at theta0, and answers exactly."""
    idx, _ = planted
    s = Searcher(idx)
    for k in (1, 3, 5, 10, 30):
        want = s.search_exact(query, k)  # caches the impacts
        theta0 = s._impact_floor(s._query_terms(query), k)
        assert theta0 > 0.0, (query, k)
        hits, got = _kernel_top_k(s, query, k)
        assert got == theta0, (query, k)
        assert hits == want == _unfloored(s, query, k), (query, k)
