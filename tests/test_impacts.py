"""Cached per-term BM25 impacts and the k-th-impact ranking floor of
``Searcher._top_k``: the floor never changes an answer, including at
ties with the k-th score and with qw = 2 terms, and it is off under
tombstones and under a mask, where the docs it counts on may be gone."""

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
        # the pruned WAND path too, past search_wand's shortcuts: with
        # warm impacts its seed can fall short of k above theta0
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


def test_tombstones_disable_floor(planted, tmp_path):
    """With every doc at or above tieterm's k-th impact deleted, the
    cached impacts still count them: a floor from them would leave no
    live doc to rank."""
    from sotohp_ray.pipelines.delete import delete_docs

    idx, _ = planted
    idx2 = str(tmp_path / "idx")
    shutil.copytree(idx, idx2)
    delete_docs(idx2, engine_doc_ids=TIED)
    s = Searcher(idx2)
    for _ in range(2):  # cold, then with the impacts cached
        for search in (s.search_exact, s.search_wand):
            hits = search("tieterm", 5)
            assert sorted(d for d, _ in hits) == LOWER
            assert hits == _unfloored(s, "tieterm", 5)
    assert s._dec_cache["tieterm"][2] is not None
    assert s._impact_floor([("tieterm", 1.0)], 5) == 0.0


def _drop(s):
    for name in ("_rec_cache", "_dec_cache", "_pos_cache"):
        getattr(s, name).clear()
    s._dec_cache_postings = 0


def _charge(s):
    """The decode cache's charge, recounted from its entries, after
    checking that its arrays hold at most 16 bytes a charged posting
    (a doc id and a tf, or an impact and at most one top value)."""
    nbytes = sum(a.nbytes for e in s._dec_cache.values()
                 for a in e if a is not None)
    assert nbytes <= 16 * s._dec_cache_postings
    return sum(e[0].size * (1 if e[2] is None else 2)
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


def test_pruned_wand_takes_theta0_when_seed_falls_short(
    ray_session, tmp_path_factory
):
    """The pruned pass runs at the impact floor theta0 wherever the
    seed pass's k-th score falls short of it, and answers exactly.

    Cold: "sparseterm" is in every 10th doc (8-posting blocks of 80
    doc ids, its one strong doc in the first), "rareterm" in six docs
    (one block over the whole doc-id space) that each outscore every
    sparseterm doc. The seed pass keeps only the first interval: it
    decodes rareterm whole, which caches its impacts, and finds one
    rareterm doc and eight sparseterm docs there, so its 5th score is
    a weak sparseterm one, below rareterm's 5th impact. The pruned
    pass runs at that impact, the floor read after the seed pass.

    Warm: a sparse term whose top-5 impacts sit in five different
    blocks; with its impacts cached, the one pruned pass runs at
    theta0."""
    rare = [5, 85, 165, 245, 325, 395]
    texts = []
    for i in range(400):
        if i == 9:
            words = ["sparseterm"] * 4
        elif i % 10 == 9:
            words = ["sparseterm"] + ["padword"] * (4 + i % 7)
        elif i in rare:
            words = ["rareterm"] * 3 + ["padword"] * rare.index(i)
        else:
            words = ["padword"] * (1 + i % 5)
        texts.append(" ".join(words))
    corpus, idx = _corpus_index(tmp_path_factory, "seed_short", texts)
    query = "sparseterm rareterm"
    s = Searcher(idx)
    floors = []
    hits, thetas = _kernel_top_k(s, query, 5, floors)
    fresh = Searcher(idx)
    seed = fresh._top_k(
        fresh._interval_postings(fresh._query_terms(query), thetas[0]), 5)
    assert len(seed) == 5 and floors[0] == 0.0 < seed[-1][1] < floors[1]
    assert thetas[-1] == floors[1]
    assert hits == Searcher(idx).search_exact(query, 5)
    assert hits == BruteForceBM25(corpus).search(query, 5)
    assert [d_ for d_, _ in hits] == rare[:5]

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
    hits, thetas = _kernel_top_k(s, "sparseterm", 5)
    assert hits == want
    assert thetas == [theta0]


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
        hits, thetas = _kernel_top_k(s, query, k)
        assert thetas == [theta0], (query, k)
        assert hits == want == _unfloored(s, query, k), (query, k)


def test_cold_and_tombstoned_kernel_seed_first(planted, tmp_path):
    """With no cached impacts, or with tombstones (cached impacts then
    give no floor), the pruned path runs a seed pass at a positive
    theta before the pruned pass, and answers exactly."""
    from sotohp_ray.pipelines.delete import delete_docs

    idx, _ = planted
    idx2 = str(tmp_path / "idx")
    shutil.copytree(idx, idx2)
    delete_docs(idx2, engine_doc_ids=TIED[:3])
    for query in ("tieterm hotterm", "hotterm padword"):
        for k in (1, 5, 10):
            cold = Searcher(idx)
            assert cold._impact_floor(cold._query_terms(query), k) == 0.0
            hits, thetas = _kernel_top_k(cold, query, k)
            assert len(thetas) == 2 and thetas[0] > 0.0, (query, k)
            assert hits == Searcher(idx).search_exact(query, k)
            dead = Searcher(idx2)
            want = dead.search_exact(query, k)  # caches the impacts
            assert all(dead._dec_cache[t][2] is not None
                       for t, _ in dead._query_terms(query))
            assert dead._impact_floor(dead._query_terms(query), k) == 0.0
            hits, thetas = _kernel_top_k(dead, query, k)
            assert len(thetas) == 2 and thetas[0] > 0.0, (query, k)
            assert hits == want == _unfloored(dead, query, k), (query, k)
            assert not set(TIED[:3]) & {d for d, _ in hits}
