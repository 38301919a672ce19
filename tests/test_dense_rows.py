"""Dense impact rows: a term in at least a quarter of the doc-id space
keeps its qw = 1.0 impacts as a row over the doc-id space in its
decode-cache entry, and TAAT scoring adds the row whole. Answers stay
bit-identical to the brute-force oracle, in the pruned block-max pass
too (where the row also adds the postings of dropped intervals), with
tombstones and under a mask; score arrays handed out stay the caller's;
shard-group searchers build no row; the cache charge counts the rows.
Also: a negative k raises on every scored path."""

import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from sotohp_ray.config import IndexConfig
from sotohp_ray.oracle import BruteForceBM25
from sotohp_ray.pipelines import query as qmod
from sotohp_ray.pipelines.build_index import build_index
from sotohp_ray.pipelines.query import FanoutSearcher, Searcher
from test_impacts import _charge
from test_query import _kernel_top_k

N = 240
# densew is in every odd doc (df 120 = space / 2); rarew is in every
# doc = 1 mod 10, with tf 5 in short docs in its first block (its top-5
# impacts) and tf 1 in long docs after it
RARE_TOP = [1, 11, 21, 31, 41]
QUERIES = ["rarew densew", "densew rarew", "densew densew rarew",
           "densew", "densew padw rarew"]


@pytest.fixture(scope="module")
def planted(ray_session, tmp_path_factory):
    texts = []
    for i in range(N):
        words = ["padw"] * (1 + i % 4)
        if i % 2 == 1:
            words += ["densew"] * (1 + i % 3)
        if i in RARE_TOP:
            words += ["rarew"] * 5
        elif i % 10 == 1:
            words += ["rarew"] + ["padw"] * 12
        texts.append(" ".join(words))
    d = tmp_path_factory.mktemp("corpus_dense")
    pq.write_table(pa.table({
        "repo": pa.array(["r"] * N),
        "path": pa.array([f"f{i:04d}.py" for i in range(N)]),
        "commit": pa.array(["0"] * N),
        "lang": pa.array(["py"] * N),
        "content": pa.array(texts),
    }), str(d / "part-00000.parquet"))
    idx = str(tmp_path_factory.mktemp("idx_dense"))
    # 8-posting blocks: rarew's later blocks bound low
    build_index(str(d), idx, config=IndexConfig(block_size=8))
    return idx, BruteForceBM25(str(d))


def _want(oracle, query, k, drop=()):
    """The oracle's top-k without the docs in ``drop``."""
    drop = set(drop)
    return [h for h in oracle.search(query, N) if h[0] not in drop][:k]


def _tombstoned(idx, tmp_path, dead):
    from sotohp_ray.pipelines.delete import delete_docs

    idx2 = str(tmp_path / "idx_dead")
    shutil.copytree(idx, idx2)
    delete_docs(idx2, engine_doc_ids=dead)
    return idx2


def test_dense_term_gets_a_row_sparse_term_none(planted):
    idx, _ = planted
    s = Searcher(idx)
    s.search_exact("rarew densew", 5)
    assert 4 * s._dfs[s._row["densew"]] >= s.space
    d, imp = s._impacts("densew")
    row = s._dec_cache["densew"][4]
    assert row is not None and row.size == s.space
    np.testing.assert_array_equal(row[d.astype(np.intp)], imp)
    assert np.count_nonzero(row) == d.size
    assert s._dec_cache["rarew"][4] is None


@pytest.mark.parametrize("dead", [[], [1, 21, 101, 103, 151]])
def test_pruned_pass_drops_dense_docs_and_stays_exact(
    planted, tmp_path, monkeypatch, dead
):
    """theta0 (rarew's 5th live impact) drops the intervals past
    rarew's first block, which hold densew docs; the row adds densew
    there anyway. ``search_wand`` (past its size shortcut),
    ``search_exact`` and the kernel run directly all equal the oracle,
    scores bit for bit, with and without tombstones on densew docs."""
    idx, oracle = planted
    monkeypatch.setattr(qmod, "_WAND_MIN_POSTINGS", 0)
    s = Searcher(_tombstoned(idx, tmp_path, dead) if dead else idx)
    df = int(s._dfs[s._row["densew"]])
    dropped = 0
    for query in QUERIES:
        for k in (1, 3, 5, 10):
            want = _want(oracle, query, k, dead)
            assert s.search_exact(query, k) == want, (query, k)
            got = _kernel_top_k(s, query, k)
            if got is None:  # no qw = 1.0 term reaches k live docs
                continue
            hits, theta0 = got
            assert hits == want, (query, k)
            assert s.search_wand(query, k) == want, (query, k)
            assert s._dec_cache["densew"][4] is not None
            qterms = s._query_terms(query)
            kept = {t: d for _, t, _, d, _ in
                    s._interval_postings(qterms, theta0)}
            if dict(qterms)["densew"] == 1.0:
                dropped += "densew" not in kept or kept["densew"].size < df
    assert dropped >= 8


def test_mask_with_dense_rows(planted):
    """A mask hiding rarew's top docs and every third doc: the masked
    exact top-k equals the oracle's over the allowed docs."""
    idx, oracle = planted
    s = Searcher(idx)
    mask = np.ones(s.space, dtype=bool)
    hidden = RARE_TOP[:3] + list(range(0, N, 3))
    mask[hidden] = False
    for query in QUERIES:
        s.search_exact(query, 10)  # rows cached
        for k in (1, 5, 10):
            assert s.search_exact(query, k, mask=mask) == _want(
                oracle, query, k, hidden), (query, k)


def test_taat_scores_are_fresh_arrays(planted):
    """Mutating a returned score array, of a query that starts from a
    row and of one that adds it, changes no later answer and no later
    score array."""
    idx, oracle = planted
    s = Searcher(idx)
    for query in ("densew", "densew rarew", "rarew densew"):
        s.search_exact(query, 5)
        before = s._taat_scores(query).copy()
        s._taat_scores(query)[:] = 1e9
        np.testing.assert_array_equal(s._taat_scores(query), before)
        assert s.search_exact(query, 5) == _want(oracle, query, 5)


def test_shard_group_builds_no_row(planted):
    """A shard-group searcher over every shard answers like the full
    one and holds no row."""
    idx, _ = planted
    full = Searcher(idx)
    g = Searcher(idx, shard_range=(0, full.config.num_term_shards))
    for query in QUERIES:
        for k in (1, 5):
            assert g.search_exact(query, k) == full.search_exact(query, k)
            assert g.search_wand(query, k) == full.search_wand(query, k)
    assert g._dec_cache and all(e[4] is None for e in g._dec_cache.values())
    assert full._dec_cache["densew"][4] is not None


@pytest.mark.parametrize("extra", [0, 1, 200])
def test_tight_budget_counts_rows(planted, extra):
    """Budgets just above and below what densew's entry needs with its
    row: the charge recount equals the incremental count and stays
    within the budget, and every answer equals a fresh searcher's."""
    idx, _ = planted
    s = Searcher(idx)
    with_row = 2 * int(s._dfs[s._row["densew"]]) + s.space // 2
    s.dec_cache_budget = with_row - 1 + extra
    for _ in range(2):
        for query in QUERIES + ["padw", "rarew padw"]:
            for k in (3, 10):
                fresh = Searcher(idx)
                assert s.search_exact(query, k) == fresh.search_exact(
                    query, k), (query, k)
                assert s.search_wand(query, k) == fresh.search_wand(
                    query, k), (query, k)
                assert s._dec_cache_postings == _charge(s)
                assert s._dec_cache_postings <= s.dec_cache_budget
    s.search_exact("densew", 3)
    assert (s._dec_cache["densew"][4] is not None) == (extra > 0)


def test_negative_k_raises(planted):
    idx, _ = planted
    s = Searcher(idx)
    for fn in (s.search, s.search_exact, s.search_wand):
        with pytest.raises(ValueError):
            fn("densew rarew", -1)
    assert s.search_exact("densew rarew", 0) == []
    f = FanoutSearcher(idx, n_groups=2)
    with pytest.raises(ValueError):
        f.search_wand("densew rarew", -1)
    assert f.search_wand("densew rarew", 3) == s.search_wand(
        "densew rarew", 3)
