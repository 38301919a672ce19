"""Rank-identity tests (FIXTURES.md F4): engine top-k must equal the
brute-force BM25 oracle — docIDs rank-identical, scores bit-close —
and block-max WAND must equal exact scoring EXACTLY (WAND skips work,
never changes answers)."""

import pytest

from sotohp_ray.config import IndexConfig
from sotohp_ray.oracle import BruteForceBM25
from sotohp_ray.pipelines.build_index import build_index
from sotohp_ray.pipelines.query import Searcher
from sotohp_ray.sources.corpus import reference_queries


@pytest.fixture(scope="session")
def small_index(ray_session, small_corpus, tmp_path_factory):
    corpus_dir, meta = small_corpus
    index_dir = str(tmp_path_factory.mktemp("idx_small"))
    stats = build_index(corpus_dir, index_dir)
    return corpus_dir, index_dir, meta, stats


@pytest.fixture(scope="session")
def small_oracle(small_corpus):
    return BruteForceBM25(small_corpus[0])


def _assert_rank_identical(engine, oracle, q):
    assert [d for d, _ in engine] == [d for d, _ in oracle], q
    for (_, a), (_, b) in zip(engine, oracle):
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12), q


def test_rank_identical_vs_oracle(small_index, small_oracle):
    _, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    queries = reference_queries(small_index[0])
    assert len(queries) == 60
    for q in queries:
        exact = s.search_exact(q["q"], q["k"])
        ref = small_oracle.search(q["q"], q["k"])
        _assert_rank_identical(exact, ref, q)


def test_wand_equals_exact(small_index):
    _, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    for q in reference_queries(small_index[0]):
        exact = s.search_exact(q["q"], q["k"])
        wand = s.search_wand(q["q"], q["k"])
        assert wand == exact, q  # bit-identical scores AND order


def test_empty_and_absent_queries(small_index):
    _, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    assert s.search("", 10) == []
    assert s.search("42 17", 10) == []  # tokenizes to nothing
    assert s.search("zzznotfound", 10) == []


def test_k_larger_than_matches(small_index):
    _, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    r = s.search("uniq0x0tok", 50)  # df=1 term
    assert len(r) == 1


def _kernel_top_k(s, query, k):
    """search_wand's pruned path run directly, past its shortcuts (no
    query on the test corpora is big enough to reach it): (hits, the
    theta of each ``_interval_postings`` call)."""
    thetas = []
    inner = s._interval_postings

    def spy(qterms, theta=0.0, iv=None):
        thetas.append(theta)
        return inner(qterms, theta, iv)

    s._interval_postings = spy
    try:
        hits = s._interval_top_k(s._query_terms(query), k)
    finally:
        del s._interval_postings
    # the kernel ran: a seed pass with a positive threshold, then the
    # pruned pass
    assert len(thetas) == 2 and thetas[0] > 0.0, (query, thetas)
    return hits, thetas


def test_interval_kernel_equals_exact_and_oracle(small_index, small_oracle):
    """The interval kernel is bit-identical to exact TAAT and
    rank-identical to the brute-force oracle on every reference
    query."""
    _, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    queries = reference_queries(small_index[0])
    assert len(queries) == 60
    ran = 0
    for q in queries:
        if not s._query_terms(q["q"]):
            assert s.search_wand(q["q"], q["k"]) == [], q
            continue
        hits, _ = _kernel_top_k(s, q["q"], q["k"])
        assert hits == s.search_exact(q["q"], q["k"]), q
        _assert_rank_identical(hits, small_oracle.search(q["q"], q["k"]), q)
        ran += 1
    assert ran >= 50


def test_interval_kernel_ignores_tombstoned_top_docs(
    small_index, tmp_path_factory
):
    """theta must come from LIVE scores only. For some queries, every
    doc scoring at or above the pristine index's theta is deleted: a
    seed that counted dead docs would land on that theta again and
    return nothing."""
    import shutil

    from sotohp_ray.pipelines.delete import delete_docs

    _, index_dir, _, _ = small_index
    s0 = Searcher(index_dir)
    queries = [
        q for q in reference_queries(small_index[0])
        if s0.search_exact(q["q"], q["k"])
    ]
    theta0, victims = {}, set()
    for q in queries[:4]:
        _, thetas = _kernel_top_k(s0, q["q"], q["k"])
        theta0[q["q"]] = thetas[1]
        victims |= {
            d for d, sc in s0.search_exact(q["q"], s0.space)
            if sc >= thetas[1]
        }
    idx2 = str(tmp_path_factory.mktemp("idx_kernel_del"))
    shutil.rmtree(idx2)
    shutil.copytree(index_dir, idx2)
    delete_docs(idx2, engine_doc_ids=sorted(victims))
    s = Searcher(idx2)
    for q in queries:
        hits, thetas = _kernel_top_k(s, q["q"], q["k"])
        assert hits == s.search_exact(q["q"], q["k"]), q
        assert not victims & {d for d, _ in hits}, q
        if q["q"] in theta0:
            assert hits and thetas[1] < theta0[q["q"]], q


def test_interval_kernel_shard_scope(small_index):
    """A shard-scoped Searcher runs the kernel on sparse layered sums —
    never a doc-id-space-sized array — and matches the full searcher
    (all shards) or its own exact path (half the shards) bit for
    bit."""
    _, index_dir, _, _ = small_index
    full = Searcher(index_dir)
    S = full.config.num_term_shards

    def no_dense(*a, **kw):
        raise AssertionError("dense score array in a shard group")

    for lo, hi in ((0, S), (0, S // 2)):
        g = Searcher(index_dir, shard_range=(lo, hi))
        g._dense_scores = no_dense
        ref = full if hi == S else g
        for q in reference_queries(small_index[0]):
            if not g._query_terms(q["q"]):
                continue
            hits, _ = _kernel_top_k(g, q["q"], q["k"])
            assert hits == ref.search_exact(q["q"], q["k"]), (lo, hi, q)


def test_interval_kernel_prunes_planted_skew(ray_session, tmp_path_factory):
    """A planted skewed corpus (every top doc in one doc-id range) with
    8-posting blocks: the kernel must drop at least one interval and
    still return the exact and oracle answer."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    n = 400
    texts = []
    for i in range(n):
        hot = 6 if 300 <= i < 312 else 1
        warm = 4 if 300 <= i < 312 else int(i % 3 == 0)
        texts.append(" ".join(
            ["hotterm"] * hot + ["warmterm"] * warm + ["padword"] * 4
        ))
    d = tmp_path_factory.mktemp("corpus_skew")
    pq.write_table(pa.table({
        "repo": pa.array(["r"] * n),
        "path": pa.array([f"f{i:04d}.py" for i in range(n)]),
        "commit": pa.array(["0"] * n),
        "lang": pa.array(["py"] * n),
        "content": pa.array(texts),
    }), str(d / "part-00000.parquet"))
    idx = str(tmp_path_factory.mktemp("idx_skew"))
    build_index(str(d), idx, config=IndexConfig(block_size=8))
    s = Searcher(idx)
    oracle = BruteForceBM25(str(d))
    for query, k in (("hotterm warmterm", 10), ("warmterm hotterm", 5)):
        hits, thetas = _kernel_top_k(s, query, k)
        _, bound = s._block_intervals(s._query_terms(query))
        assert (bound < thetas[1] * (1.0 - 1e-9)).any(), query
        assert hits == s.search_exact(query, k)
        _assert_rank_identical(hits, oracle.search(query, k), query)
        assert {d_ for d_, _ in hits} <= set(range(300, 312))
    assert np.all(s._record("hotterm")["block_max"] > 0)


def test_pfor_codec_same_results(ray_session, tiny_corpus, tmp_path_factory):
    corpus_dir, _ = tiny_corpus
    idx_v = str(tmp_path_factory.mktemp("idx_varint"))
    idx_p = str(tmp_path_factory.mktemp("idx_pfor"))
    build_index(corpus_dir, idx_v, config=IndexConfig(codec="varint"))
    build_index(corpus_dir, idx_p, config=IndexConfig(codec="pfor"))
    sv, sp = Searcher(idx_v), Searcher(idx_p)
    for q in reference_queries(corpus_dir)[:20]:
        assert sv.search(q["q"], q["k"]) == sp.search(q["q"], q["k"])


def test_small_block_size_wand(ray_session, tiny_corpus, tmp_path_factory):
    """Tiny blocks force real block skipping in WAND."""
    corpus_dir, _ = tiny_corpus
    idx = str(tmp_path_factory.mktemp("idx_bs8"))
    build_index(corpus_dir, idx, config=IndexConfig(block_size=8))
    s = Searcher(idx)
    for q in reference_queries(corpus_dir):
        assert s.search_wand(q["q"], q["k"]) == s.search_exact(q["q"], q["k"])


def test_phrase_search_matches_bruteforce(small_index):
    """Positions survive SPIMI -> salt chunks -> merge: phrase results
    equal a per-doc Python scan of the analyzed token streams."""
    import os

    import numpy as np
    import pyarrow.parquet as pq

    from sotohp_ray.functions.tokenizer import CodeTokenizer
    from sotohp_ray.pipelines.query import Searcher
    from sotohp_ray.sources.corpus import corpus_files

    corpus_dir, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    tok = CodeTokenizer()

    # analyzed token stream per engine doc id (via docmeta key order)
    dm = pq.read_table(os.path.join(index_dir, "docmeta"))
    key2id = {
        (r, p, c): d
        for r, p, c, d in zip(
            dm["repo"].to_pylist(), dm["path"].to_pylist(),
            dm["commit"].to_pylist(), dm["doc_id"].to_pylist(),
        )
    }
    streams = {}
    for f in corpus_files(corpus_dir):
        t = pq.read_table(f)
        for r, p, c, content in zip(
            t["repo"].to_pylist(), t["path"].to_pylist(),
            t["commit"].to_pylist(), t["content"].to_pylist(),
        ):
            streams[key2id[(r, p, c)]] = tok.tokens_of(content)

    for phrase in ("query batch", "return self", "sort join merge",
                   "zz qq never together"):
        ptoks = tok.tokens_of(phrase)
        expect = set()
        for d, toks in streams.items():
            for i in range(len(toks) - len(ptoks) + 1):
                if toks[i: i + len(ptoks)] == ptoks:
                    expect.add(d)
                    break
        got = {d for d, _ in s.search_phrase(phrase, k=s.space)}
        assert got == expect, phrase
        assert len(expect) > 0 or phrase == "zz qq never together"


def test_proximity_matches_bruteforce(small_index):
    import os

    import pyarrow.parquet as pq

    from sotohp_ray.functions.tokenizer import CodeTokenizer
    from sotohp_ray.pipelines.query import Searcher
    from sotohp_ray.sources.corpus import corpus_files

    corpus_dir, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    tok = CodeTokenizer()
    dm = pq.read_table(os.path.join(index_dir, "docmeta"))
    key2id = {
        (r, p, c): d
        for r, p, c, d in zip(
            dm["repo"].to_pylist(), dm["path"].to_pylist(),
            dm["commit"].to_pylist(), dm["doc_id"].to_pylist(),
        )
    }
    streams = {}
    for f in corpus_files(corpus_dir):
        t = pq.read_table(f)
        for r, p, c, content in zip(
            t["repo"].to_pylist(), t["path"].to_pylist(),
            t["commit"].to_pylist(), t["content"].to_pylist(),
        ):
            streams[key2id[(r, p, c)]] = tok.tokens_of(content)

    for a, b, w in (("term", "batch", 3), ("join", "filter", 5)):
        expect = set()
        for d, toks in streams.items():
            pa_ = [i for i, t in enumerate(toks) if t == a]
            pb_ = [i for i, t in enumerate(toks) if t == b]
            if any(abs(x - y) <= w for x in pa_ for y in pb_):
                expect.add(d)
        got = {d for d, _ in s.search_proximity(a, b, window=w, k=s.space)}
        assert got == expect, (a, b, w)
        assert expect


def test_phrase_positions_survive_salt_chunking(
    ray_session, tiny_corpus, tmp_path_factory
):
    """salt_rows=4 forces multi-chunk partials; phrase results must be
    identical to the default build."""
    from sotohp_ray.config import IndexConfig
    from sotohp_ray.pipelines.build_index import build_index
    from sotohp_ray.pipelines.query import Searcher

    corpus_dir, _ = tiny_corpus
    base_dir = str(tmp_path_factory.mktemp("idx_pb"))
    salt_dir = str(tmp_path_factory.mktemp("idx_ps"))
    build_index(corpus_dir, base_dir, config=IndexConfig())
    build_index(corpus_dir, salt_dir, config=IndexConfig(salt_rows=4))
    s0, s1 = Searcher(base_dir), Searcher(salt_dir)
    for phrase in ("query batch", "return self", "sort join merge"):
        r0 = s0.search_phrase(phrase, 50)
        assert r0 == s1.search_phrase(phrase, 50)
        assert len(r0) > 0


def test_df1_multi_tf_term_searchable(ray_session, tmp_path_factory):
    """A term occurring multiple times in exactly ONE document goes
    through the blob path in the merge (positions need a stream);
    the Searcher must branch on blob nullness, not df==1 — round-2
    regression where such terms silently vanished from search and
    crashed phrase queries."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from sotohp_ray.pipelines.build_index import build_index

    d = tmp_path_factory.mktemp("corpus_df1tf3")
    t = pa.table({
        "repo": pa.array(["r"] * 3),
        "path": pa.array(["a.py", "b.py", "c.py"]),
        "commit": pa.array(["0"] * 3),
        "lang": pa.array(["py"] * 3),
        "content": pa.array([
            "zebra zebra zebra common word",
            "common word here",
            "word here too",
        ]),
    })
    pq.write_table(t, str(d / "part-00000.parquet"))
    idx = str(tmp_path_factory.mktemp("idx_df1tf3"))
    build_index(str(d), idx)
    s = Searcher(idx)
    hits = s.search_exact("zebra", k=5)
    assert len(hits) == 1 and hits[0][1] > 0
    assert s.search_wand("zebra", k=5) == hits
    # phrase over the repeated term must not crash and must match
    ph = s.search_phrase("zebra zebra", k=5)
    assert [d_ for d_, _ in ph] == [hits[0][0]]
    # proximity with the df==1 term
    pr = s.search_proximity("zebra", "common", window=4, k=5)
    assert [d_ for d_, _ in pr] == [hits[0][0]]


def test_boolean_retrieval_matches_scan(small_index):
    """Index-backed boolean AND/OR equals a Python scan of the
    analyzed token streams; deleted docs are filtered."""
    import os

    import numpy as np
    import pyarrow.parquet as pq

    from sotohp_ray.functions.tokenizer import CodeTokenizer
    from sotohp_ray.sources.corpus import corpus_files

    corpus_dir, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    tok = CodeTokenizer()
    dm = pq.read_table(os.path.join(index_dir, "docmeta"))
    key2id = {
        (r, p, c): d
        for r, p, c, d in zip(
            dm["repo"].to_pylist(), dm["path"].to_pylist(),
            dm["commit"].to_pylist(), dm["doc_id"].to_pylist(),
        )
    }
    streams = {}
    for f in corpus_files(corpus_dir):
        t = pq.read_table(f)
        for r, p, c, content in zip(
            t["repo"].to_pylist(), t["path"].to_pylist(),
            t["commit"].to_pylist(), t["content"].to_pylist(),
        ):
            streams[key2id[(r, p, c)]] = set(tok.tokens_of(content))

    for q, mode in (("query batch", "and"), ("query batch", "or"),
                    ("zzz_absent batch", "and"), ("zzz_absent batch", "or")):
        terms = tok.tokens_of(q)
        if mode == "and":
            expect = {d for d, ts in streams.items()
                      if all(t in ts for t in terms)}
        else:
            expect = {d for d, ts in streams.items()
                      if any(t in ts for t in terms)}
        got = set(s.search_boolean(q, mode=mode).tolist())
        assert got == expect, (q, mode)


def test_fanout_equals_single_searcher(small_index):
    """A 4-group shard fan-out must return bit-identical results to
    the full-dictionary Searcher on every reference query, and each
    group must load only its slice of the vocabulary."""
    from sotohp_ray.pipelines.query import FanoutSearcher

    _, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    f = FanoutSearcher(index_dir, n_groups=4)
    for q in reference_queries(small_index[0]):
        assert f.search_exact(q["q"], q["k"]) == s.search_exact(
            q["q"], q["k"]
        ), q
    # absent/empty queries behave like the single searcher
    assert f.search_exact("", 10) == []
    assert f.search_exact("zzznotfound", 10) == []
    # per-group load scales with the group, and the groups tile the
    # full dictionary exactly
    stats = f.load_stats()
    assert len(stats) == 4
    terms = [st["n_terms"] for st in stats]
    assert sum(terms) == s.n_terms_loaded
    assert max(terms) < s.n_terms_loaded
    assert sum(st["dict_bytes"] for st in stats) == s.dict_bytes_loaded
    assert max(st["dict_bytes"] for st in stats) < s.dict_bytes_loaded


def test_fanout_positions_prefix_fuzzy_equal_single(small_index):
    """The positional/prefix/fuzzy serving surfaces must agree exactly
    between the 4-group fan-out and the full-dictionary Searcher:
    term_positions routes to the single group owning the term's hash
    shard; prefix/fuzzy union per-group hits with summed
    distinct-term counts."""
    import numpy as np

    from sotohp_ray.pipelines.query import FanoutSearcher

    _, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    f = FanoutSearcher(index_dir, n_groups=4)
    vocab = s._tbl["term"].to_pylist()
    terms = sorted(vocab)[:: max(1, len(vocab) // 12)][:12]
    for t in terms:
        sd, st, so = s.term_positions(t)
        fd, ft, fo = f.term_positions(t)
        np.testing.assert_array_equal(sd, fd, err_msg=t)
        np.testing.assert_array_equal(st, ft, err_msg=t)
        np.testing.assert_array_equal(so, fo, err_msg=t)
    prefixes = sorted({t[:2] for t in terms if len(t) >= 2})[:6]
    for p in prefixes + ["zzznot"]:
        sd, sc = s.search_prefix(p)
        fd, fc = f.search_prefix(p)
        np.testing.assert_array_equal(sd, fd, err_msg=p)
        np.testing.assert_array_equal(sc, fc, err_msg=p)
    for q in terms[:4] + [terms[0] + "x", "zzznotfound"]:
        sd, sc = s.search_fuzzy(q)
        fd, fc = f.search_fuzzy(q)
        np.testing.assert_array_equal(sd, fd, err_msg=q)
        np.testing.assert_array_equal(sc, fc, err_msg=q)


def test_fanout_phrase_proximity_boolean_equal_single(small_index):
    """Phrase, proximity and boolean retrieval through the 4-group
    fan-out must be bit-identical to the single Searcher — positions
    route per term to the owning group, scoring reuses the exact
    contribution merge, boolean resolves per-group doc sets."""
    import numpy as np

    from sotohp_ray.pipelines.query import FanoutSearcher

    _, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    f = FanoutSearcher(index_dir, n_groups=4)
    for phrase in ("query batch", "return self", "sort join merge",
                   "zz qq never together", "zebra zebra", ""):
        assert f.search_phrase(phrase, 50) == s.search_phrase(
            phrase, 50
        ), phrase
    for a, b, w in (("term", "batch", 3), ("join", "filter", 5),
                    ("zebra", "common", 4), ("zzznot", "batch", 3)):
        assert f.search_proximity(a, b, window=w, k=50) == (
            s.search_proximity(a, b, window=w, k=50)
        ), (a, b, w)
    for q, mode in (("query batch", "and"), ("query batch", "or"),
                    ("zzz_absent batch", "and"), ("zzz_absent batch", "or"),
                    ("", "and")):
        np.testing.assert_array_equal(
            f.search_boolean(q, mode=mode),
            s.search_boolean(q, mode=mode),
            err_msg=(q, mode),
        )
    import pytest

    with pytest.raises(ValueError, match="mode"):
        f.search_boolean("query", mode="xor")
    with pytest.raises(ValueError, match="one token"):
        f.search_proximity("two words", "batch")


def test_fanout_phrase_respects_tombstones(small_index, tmp_path_factory):
    """Deleting a phrase-matching doc must drop it from the fan-out
    phrase results exactly as it does from the single searcher."""
    import shutil

    from sotohp_ray.pipelines.delete import delete_docs
    from sotohp_ray.pipelines.query import FanoutSearcher

    _, index_dir, _, _ = small_index
    phrase = "query batch"
    victim = Searcher(index_dir).search_phrase(phrase, 1)[0][0]
    idx2 = str(tmp_path_factory.mktemp("idx_fanout_phrase_del"))
    shutil.rmtree(idx2)
    shutil.copytree(index_dir, idx2)
    delete_docs(idx2, engine_doc_ids=[victim])
    s = Searcher(idx2)
    f = FanoutSearcher(idx2, n_groups=4)
    got = f.search_phrase(phrase, 50)
    assert got == s.search_phrase(phrase, 50)
    assert all(d != victim for d, _ in got)


def test_fanout_wand_equals_single(small_index):
    """Distributed block-max WAND (bootstrap seed -> exact theta ->
    per-group survivor scan) must return exactly the single searcher's
    WAND — itself bit-identical to exact TAAT — on every reference
    query, including empty/absent-term edges."""
    from sotohp_ray.pipelines.query import FanoutSearcher

    _, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    f = FanoutSearcher(index_dir, n_groups=4)
    for q in reference_queries(small_index[0]):
        fw = f.search_wand(q["q"], q["k"])
        assert fw == s.search_wand(q["q"], q["k"]), q
        assert fw == s.search_exact(q["q"], q["k"]), q
    assert f.search_wand("", 10) == []
    assert f.search_wand("zzznotfound", 10) == []


def test_fanout_wand_respects_tombstones(small_index, tmp_path_factory):
    """A deleted doc must vanish from distributed-WAND results exactly
    as from the single searcher, even when it seeded theta."""
    import shutil

    from sotohp_ray.pipelines.delete import delete_docs
    from sotohp_ray.pipelines.query import FanoutSearcher

    _, index_dir, _, _ = small_index
    queries = reference_queries(small_index[0])[:6]
    victim = Searcher(index_dir).search_wand(queries[0]["q"], 1)[0][0]
    idx2 = str(tmp_path_factory.mktemp("idx_fanout_wand_del"))
    shutil.rmtree(idx2)
    shutil.copytree(index_dir, idx2)
    delete_docs(idx2, engine_doc_ids=[victim])
    s = Searcher(idx2)
    f = FanoutSearcher(idx2, n_groups=4)
    for q in queries:
        got = f.search_wand(q["q"], q["k"])
        assert got == s.search_wand(q["q"], q["k"]), q
        assert all(d != victim for d, _ in got)


def test_interval_postings_selects_kept_intervals(small_index):
    """``_interval_postings`` at a threshold returns exactly the full
    contributions of the docs in intervals whose bound reaches it —
    cached or uncached, blob or inline df=1 terms — nothing above every
    bound, everything at theta <= 0; ``survivor_contribs`` is the same
    selection, covering every doc whose local score clears theta."""
    import numpy as np

    from sotohp_ray.pipelines.query import _first_appearance, _layered_sums

    _, index_dir, _, _ = small_index
    cached = Searcher(index_dir)
    assert cached._record("uniq0x0tok")["docs"] is not None  # inline
    queries = [q["q"] for q in reference_queries(small_index[0])[::5]]
    hot = max(cached._row, key=lambda t: cached._dfs[cached._row[t]])
    queries.append(f"uniq0x0tok {hot} zzznotfound")
    partial = 0
    for q in queries:
        qterms = _first_appearance(cached.tok.tokens_of(q))
        docs, qis, cs = cached.search_contribs(q)
        if docs.size == 0:
            assert cached._interval_postings(qterms, 1.0) == [], q
            continue
        for t, _ in qterms:
            if t in cached._row:
                cached._decode_full(t)
        full = cached._interval_postings(qterms, 0.0)
        for (_, t, _, d, f), (t2, _) in zip(
            full, [x for x in qterms if x[0] in cached._row]
        ):
            assert t == t2
            np.testing.assert_array_equal(d, cached._decode_full(t)[0])
        hi, bound = cached._block_intervals(qterms)
        ud, sm, _ = _layered_sums(docs, qis, cs)
        for theta in (float(np.median(sm)), float(np.median(bound)),
                      float(bound.min()), float(bound.max()) * 2):
            keep_iv = bound >= theta * (1 - 1e-9)
            partial += 0 < keep_iv.sum() < keep_iv.size
            kept = keep_iv[np.searchsorted(hi, docs)]
            want = (docs[kept], qis[kept], cs[kept])
            uncached = Searcher(index_dir)
            for s in (cached, uncached):
                got = s._contribs(s._interval_postings(qterms, theta))
                for a, b in zip(got, want):
                    np.testing.assert_array_equal(a, b, err_msg=q)
            # a blob term with every block kept is decoded whole, which
            # fills the cache; a partly kept one decodes only its blocks
            for _, t, _, _, _ in uncached._interval_postings(qterms, theta):
                r = uncached._record(t)
                nb = r["block_last"].size
                touched = np.unique(
                    np.searchsorted(r["block_last"], hi[keep_iv])
                )
                whole = (touched < nb).sum() == nb
                assert (t in uncached._dec_cache) == (
                    whole and r.get("docs") is None
                ), (q, t)
            # survivor selection: every doc whose local score clears
            # theta is fully present, with bit-identical sums
            d3, q3, c3 = cached.survivor_contribs(q, theta)
            for a, b in zip((d3, q3, c3), want):
                np.testing.assert_array_equal(a, b, err_msg=q)
            need = sm >= theta
            if need.any():
                ud3, sm3, _ = _layered_sums(d3, q3, c3)
                sel = np.searchsorted(ud3, ud[need])
                np.testing.assert_array_equal(ud3[sel], ud[need])
                np.testing.assert_array_equal(sm3[sel], sm[need])
    assert partial >= len(queries) // 2


def test_group_server_resident_set_scales_with_group(small_index):
    """A shard-scoped Searcher must hold NO doc-id-space-sized heap
    arrays: doc_len serves from the memory-mapped sidecar (0 in-heap
    bytes) and exact scoring takes the sparse layered-sums path —
    bit-identical to the full searcher's dense TAAT, with and without
    a candidate mask."""
    import numpy as np

    _, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    assert s.doclen_bytes_inheap == s.space * 8
    S = s.config.num_term_shards
    g = Searcher(index_dir, shard_range=(0, S))  # all terms, sparse
    assert g.doclen_bytes_inheap == 0
    assert isinstance(g.doc_len, np.memmap)
    np.testing.assert_array_equal(np.asarray(g.doc_len), s.doc_len)
    mask = np.zeros(s.space, dtype=bool)
    mask[::2] = True
    for q in reference_queries(small_index[0])[::7]:
        assert g.search_exact(q["q"], q["k"]) == s.search_exact(
            q["q"], q["k"]
        ), q
        assert g.search_exact(q["q"], q["k"], mask=mask) == (
            s.search_exact(q["q"], q["k"], mask=mask)
        ), q
    # the fan-out group servers report the memmap residency
    from sotohp_ray.pipelines.query import FanoutSearcher

    f = FanoutSearcher(index_dir, n_groups=4)
    assert all(
        st["doclen_bytes_inheap"] == 0 for st in f.load_stats()
    )


def test_fanout_respects_tombstones(small_index, tmp_path_factory):
    """Deleted docs must vanish from fan-out results exactly as they
    do from the single searcher (the merge layer owns the tombstones)."""
    import shutil

    from sotohp_ray.pipelines.delete import delete_docs
    from sotohp_ray.pipelines.query import FanoutSearcher

    _, index_dir, _, _ = small_index
    queries = reference_queries(small_index[0])[:10]
    victim = Searcher(index_dir).search_exact(queries[0]["q"], 1)[0][0]
    idx2 = str(tmp_path_factory.mktemp("idx_fanout_del"))
    shutil.rmtree(idx2)
    shutil.copytree(index_dir, idx2)
    delete_docs(idx2, engine_doc_ids=[victim])
    s = Searcher(idx2)
    f = FanoutSearcher(idx2, n_groups=4)
    for q in queries:
        got = f.search_exact(q["q"], q["k"])
        assert got == s.search_exact(q["q"], q["k"]), q
        assert all(d != victim for d, _ in got)


def test_term_positions_match_token_streams(small_index):
    """term_positions (the term-vector/highlighting primitive) reads
    back EXACTLY the 0-based token subscripts of each analyzed doc
    stream, for hot, mid and df=1 terms alike."""
    import os

    import numpy as np
    import pyarrow.parquet as pq

    from sotohp_ray.functions.tokenizer import CodeTokenizer
    from sotohp_ray.sources.corpus import corpus_files

    corpus_dir, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    tok = CodeTokenizer()
    dm = pq.read_table(os.path.join(index_dir, "docmeta"))
    key2id = {
        (r, p, c): d
        for r, p, c, d in zip(
            dm["repo"].to_pylist(), dm["path"].to_pylist(),
            dm["commit"].to_pylist(), dm["doc_id"].to_pylist(),
        )
    }
    streams = {}
    for f in corpus_files(corpus_dir):
        t = pq.read_table(f)
        for r, p, c, content in zip(
            t["repo"].to_pylist(), t["path"].to_pylist(),
            t["commit"].to_pylist(), t["content"].to_pylist(),
        ):
            streams[key2id[(r, p, c)]] = tok.tokens_of(content)

    # pick a spread of dfs from the dictionary: the hottest term, a
    # mid-df term, and a df=1 term (the blobless pos0 tail)
    import pyarrow.parquet as _pq

    d = _pq.read_table(
        os.path.join(index_dir, "dictionary"), columns=["term", "df"]
    ).to_pandas().sort_values("df")
    probes = [d.iloc[-1]["term"], d.iloc[len(d) // 2]["term"],
              d[d["df"] == 1].iloc[0]["term"]]
    for term in probes:
        docs, tfs, occ = s.term_positions(term)
        got = {}
        o = 0
        for di, tf in zip(docs, tfs):
            got[int(di)] = occ[o:o + int(tf)].astype(int).tolist()
            o += int(tf)
        expect = {
            di: [i for i, t in enumerate(toks) if t == term]
            for di, toks in streams.items()
            if term in toks
        }
        assert got == expect, term
    assert s.term_positions("zzznotfound")[0].size == 0
    with pytest.raises(ValueError):
        s.term_positions("two words")


def test_term_positions_respect_tombstones(small_index, tmp_path_factory):
    import os
    import shutil

    import pyarrow.parquet as pq

    from sotohp_ray.pipelines.delete import delete_docs

    _, index_dir, _, _ = small_index
    d = pq.read_table(
        os.path.join(index_dir, "dictionary"), columns=["term", "df"]
    ).to_pandas().sort_values("df")
    term = d.iloc[-1]["term"]  # hottest term: every doc likely present
    s0 = Searcher(index_dir)
    docs0, tfs0, occ0 = s0.term_positions(term)
    victim = int(docs0[0])
    idx2 = str(tmp_path_factory.mktemp("idx_pos_del"))
    shutil.rmtree(idx2)
    shutil.copytree(index_dir, idx2)
    delete_docs(idx2, engine_doc_ids=[victim])
    docs1, tfs1, occ1 = Searcher(idx2).term_positions(term)
    assert victim not in docs1.astype(int)
    assert docs1.size == docs0.size - 1
    # surviving postings keep their exact positions
    import numpy as np

    keep = docs0.astype(int) != victim
    assert (docs1 == docs0[keep]).all()
    assert (tfs1 == tfs0[keep]).all()
    assert (occ1 == occ0[np.repeat(keep, tfs0.astype(np.int64))]).all()


def test_search_exact_mask_filter_semantics(small_index):
    """mask restricts candidates WITHOUT changing statistics: masked
    results equal the unmasked full ranking filtered to allowed docs
    (same scores), i.e. Lucene filter-query semantics."""
    import numpy as np

    _, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    rng = np.random.default_rng(7)
    mask = rng.random(s.space) < 0.3
    for q in reference_queries(small_index[0])[:15]:
        full = s.search_exact(q["q"], k=s.space)
        expect = [(d, sc) for d, sc in full if mask[d]][: q["k"]]
        got = s.search_exact(q["q"], k=q["k"], mask=mask)
        assert got == expect, q


def test_search_prefix_matches_scan(small_index, tmp_path_factory):
    """prefix* retrieval equals a full-dictionary scan + posting
    union, and tombstoned docs vanish."""
    import os
    import shutil

    import numpy as np
    import pyarrow.parquet as pq

    from sotohp_ray.pipelines.delete import delete_docs

    _, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    d = pq.read_table(
        os.path.join(index_dir, "dictionary"), columns=["term"]
    )["term"].to_pylist()
    for prefix in ("fa", "q", "zzznope"):
        terms = [t for t in d if t.startswith(prefix)]
        expect = {}
        for t in terms:
            for doc in s._decode_full(t)[0].astype(int):
                expect[doc] = expect.get(doc, 0) + 1
        docs, counts = s.search_prefix(prefix)
        assert dict(zip(docs.astype(int), counts.astype(int))) == expect
        assert (np.diff(docs) > 0).all() if docs.size > 1 else True
    with pytest.raises(ValueError):
        s.search_prefix("")
    # tombstones respected
    docs0, _ = s.search_prefix("fa")
    if docs0.size:
        victim = int(docs0[0])
        idx2 = str(tmp_path_factory.mktemp("idx_prefix_del"))
        shutil.rmtree(idx2)
        shutil.copytree(index_dir, idx2)
        delete_docs(idx2, engine_doc_ids=[victim])
        docs1, _ = Searcher(idx2).search_prefix("fa")
        assert victim not in docs1.astype(int)


def _lev(a, b):
    """Brute-force Levenshtein DP — the single oracle definition both
    fuzzy tests validate against."""
    d = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        prev, d[0] = d[0], i
        for j in range(1, len(b) + 1):
            cur = d[j]
            d[j] = min(d[j] + 1, d[j - 1] + 1,
                       prev + (a[i - 1] != b[j - 1]))
            prev = cur
    return d[len(b)]


def test_one_edit_mask_matches_dp():
    """The vectorized one-edit characterization equals brute-force
    Levenshtein<=1, exhaustively over short strings."""
    import itertools

    import numpy as np

    from sotohp_ray.pipelines.query import one_edit_mask

    words = ["".join(w) for L in range(0, 4)
             for w in itertools.product("abc", repeat=L)]
    for q in words:
        mask = one_edit_mask(words, q)
        expect = np.array([_lev(w, q) <= 1 for w in words])
        assert (mask == expect).all(), q


def test_search_fuzzy_matches_scan(small_index):
    """FuzzyQuery retrieval equals a dictionary scan with Python
    Levenshtein + posting union."""
    import os

    import pyarrow.parquet as pq

    _, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    vocab = pq.read_table(
        os.path.join(index_dir, "dictionary"), columns=["term"]
    )["term"].to_pylist()

    for q in ("sort", "qury", "jion", "zzzz"):
        terms = [t for t in vocab if _lev(t, q) <= 1]
        expect = {}
        for t in terms:
            for doc in s._decode_full(t)[0].astype(int):
                expect[doc] = expect.get(doc, 0) + 1
        docs, counts = s.search_fuzzy(q)
        assert dict(zip(docs.astype(int), counts.astype(int))) == expect, q


def test_search_after_pages_reconstruct_full_ranking(small_index):
    """Chained search_after pages (k=7) concatenate to EXACTLY the
    full (round(score,4) desc, doc asc) ranking — pages disjoint, no
    gaps, stable across rounded-tie groups straddling page breaks."""
    _, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    for q in reference_queries(small_index[0])[:15]:
        full = s.search_exact(q["q"], k=s.space)
        expect = sorted(
            ((d, round(sc, 4)) for d, sc in full),
            key=lambda t: (-t[1], t[0]),
        )
        got, after = [], None
        while True:
            page = s.search_after(q["q"], k=7, after=after)
            if not page:
                break
            got.extend(page)
            after = (page[-1][1], page[-1][0])
        assert got == expect, q


def test_fanout_search_after_equals_single(small_index):
    """Cursor-paged retrieval through the 4-group fan-out must produce
    the SAME page sequence as the single Searcher — rounded scores and
    page boundaries bit-identical."""
    from sotohp_ray.pipelines.query import FanoutSearcher

    _, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    f = FanoutSearcher(index_dir, n_groups=4)
    for q in reference_queries(small_index[0])[:10]:
        after_s = after_f = None
        for _ in range(4):  # 4 chained pages of 5
            ps = s.search_after(q["q"], k=5, after=after_s)
            pf = f.search_after(q["q"], k=5, after=after_f)
            assert pf == ps, (q, after_s)
            if not ps:
                break
            after_s = (ps[-1][1], ps[-1][0])
            after_f = (pf[-1][1], pf[-1][0])


def test_boolean_exclude_matches_scan_and_fanout(small_index):
    """MUST_NOT: search_boolean(exclude=) equals the token-stream scan
    (ALL query terms AND NONE of the exclude terms), and the fan-out
    path returns the identical set."""
    import os

    import numpy as np
    import pyarrow.parquet as pq

    from sotohp_ray.functions.tokenizer import CodeTokenizer
    from sotohp_ray.pipelines.query import FanoutSearcher
    from sotohp_ray.sources.corpus import corpus_files

    corpus_dir, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    f = FanoutSearcher(index_dir, n_groups=4)
    tok = CodeTokenizer()
    dm = pq.read_table(os.path.join(index_dir, "docmeta"))
    key2id = {
        (r, p, c): d
        for r, p, c, d in zip(
            dm["repo"].to_pylist(), dm["path"].to_pylist(),
            dm["commit"].to_pylist(), dm["doc_id"].to_pylist(),
        )
    }
    streams = {}
    for fl in corpus_files(corpus_dir):
        t = pq.read_table(fl)
        for r, p, c, content in zip(
            t["repo"].to_pylist(), t["path"].to_pylist(),
            t["commit"].to_pylist(), t["content"].to_pylist(),
        ):
            streams[key2id[(r, p, c)]] = set(tok.tokens_of(content))

    for q, ex in (("query batch", "sort"), ("query", "zzz_absent"),
                  ("query batch", "join filter")):
        qt, et = tok.tokens_of(q), tok.tokens_of(ex)
        expect = {d for d, ts in streams.items()
                  if all(t in ts for t in qt)
                  and not any(t in ts for t in et)}
        got = s.search_boolean(q, mode="and", exclude=ex)
        assert set(got.tolist()) == expect, (q, ex)
        np.testing.assert_array_equal(
            f.search_boolean(q, mode="and", exclude=ex), got,
            err_msg=(q, ex),
        )


def test_suggest_ranks_by_df_then_term(small_index):
    """Completion suggester: df-desc/term-asc ranking, k truncation,
    agreement with the dictionary's own (term, df) rows, and the
    empty-prefix guard."""
    import numpy as np

    _, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    terms = s._tbl["term"].to_pylist()
    dfs = s._dfs.astype(np.int64)
    by_term = dict(zip(terms, (int(d) for d in dfs)))
    # pick the densest first letter in this corpus's vocabulary
    letter = max({t[0] for t in terms},
                 key=lambda c: sum(t.startswith(c) for t in terms))
    want = sorted(
        ((t, by_term[t]) for t in terms if t.startswith(letter)),
        key=lambda x: (-x[1], x[0]),
    )
    got_t, got_d = s.suggest(letter, k=3)
    assert list(zip(got_t, (int(d) for d in got_d))) == want[:3]
    assert len(got_t) <= 3
    # no match -> empty, not an error
    t0, d0 = s.suggest("zzznotfound")
    assert t0 == [] and d0.size == 0
    with pytest.raises(ValueError):
        s.suggest("")


def test_fanout_contains_suggest_equal_single(small_index):
    """The infix-wildcard and suggester surfaces must agree exactly
    between the 4-group fan-out and the full-dictionary Searcher:
    contains unions per-group hits with summed counts; suggest takes
    a global top-k over the groups' disjoint local top-ks."""
    import numpy as np

    from sotohp_ray.pipelines.query import FanoutSearcher

    _, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    f = FanoutSearcher(index_dir, n_groups=4)
    vocab = s._tbl["term"].to_pylist()
    subs = sorted({t[1:3] for t in vocab if len(t) >= 3})[:6]
    for q in subs + ["zzznot"]:
        sd, sc = s.search_contains(q)
        fd, fc = f.search_contains(q)
        np.testing.assert_array_equal(sd, fd, err_msg=q)
        np.testing.assert_array_equal(sc, fc, err_msg=q)
    prefixes = sorted({t[0] for t in vocab})[:8]
    for p in prefixes + ["zzznot"]:
        st, sdf = s.suggest(p, k=5)
        ft, fdf = f.suggest(p, k=5)
        assert st == ft, p
        np.testing.assert_array_equal(sdf, fdf, err_msg=p)


def test_regex_search_matches_token_scan_and_fanout(small_index):
    """Regex retrieval (fourth multi-term rewrite beside prefix, infix
    and fuzzy): the dictionary-scan result must equal a brute-force
    Python-re scan over every doc's token set (distinct-matching-term
    counts included), and the 4-group fan-out union must be exact.
    Python re and RE2 agree on these anchor/dot/class constructs."""
    import os
    import re

    import numpy as np
    import pyarrow.parquet as pq

    from sotohp_ray.functions.tokenizer import CodeTokenizer
    from sotohp_ray.pipelines.query import FanoutSearcher
    from sotohp_ray.sources.corpus import corpus_files

    corpus_dir, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    f = FanoutSearcher(index_dir, n_groups=4)
    tok = CodeTokenizer()
    dm = pq.read_table(os.path.join(index_dir, "docmeta"))
    key2id = {
        (r, p, c): d
        for r, p, c, d in zip(
            dm["repo"].to_pylist(), dm["path"].to_pylist(),
            dm["commit"].to_pylist(), dm["doc_id"].to_pylist(),
        )
    }
    streams = {}
    for fl in corpus_files(corpus_dir):
        t = pq.read_table(fl)
        for r, p, c, content in zip(
            t["repo"].to_pylist(), t["path"].to_pylist(),
            t["commit"].to_pylist(), t["content"].to_pylist(),
        ):
            streams[key2id[(r, p, c)]] = set(tok.tokens_of(content))

    vocab = s._tbl["term"].to_pylist()
    letters = sorted({t[0] for t in vocab})[:3]
    patterns = (
        [f"^{c}." for c in letters]
        + ["er$", "^[a-f]", "zzznotfound"]
    )
    for pat in patterns:
        rx = re.compile(pat)
        expect = {
            d: len(hits)
            for d, ts in streams.items()
            if (hits := {t for t in ts if rx.search(t)})
        }
        docs, counts = s.search_regex(pat)
        got = dict(zip(docs.tolist(), counts.tolist()))
        assert got == expect, pat
        fd, fc = f.search_regex(pat)
        np.testing.assert_array_equal(fd, docs, err_msg=pat)
        np.testing.assert_array_equal(fc, counts, err_msg=pat)
    with pytest.raises(ValueError):
        s.search_regex("")


def test_spell_corrections_rank_by_df_and_fanout(small_index):
    """Spell correction: candidates = dictionary terms within edit
    distance 1 (brute-force DP cross-check), ranked (df desc, term
    asc) with k truncation; 4-group fan-out must equal the single
    searcher. Empty probe raises."""
    import numpy as np

    from sotohp_ray.pipelines.query import FanoutSearcher

    _, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    f = FanoutSearcher(index_dir, n_groups=4)
    terms = s._tbl["term"].to_pylist()
    dfs = s._dfs.astype(np.int64)
    by_term = dict(zip(terms, (int(d) for d in dfs)))

    def lev(a: str, b: str) -> int:
        d = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            nd = [i]
            for j, cb in enumerate(b, 1):
                nd.append(min(d[j] + 1, nd[-1] + 1, d[j - 1] + (ca != cb)))
            d = nd
        return d[-1]

    # probes: one-char deletions of real vocabulary terms + an exact
    # term (distance 0 included) + a no-match probe
    probes = sorted({t[1:] for t in terms if len(t) >= 3})[:5]
    probes += [terms[0], "zzznotfound"]
    for q in probes:
        want = sorted(
            ((t, by_term[t]) for t in terms if lev(t, q) <= 1),
            key=lambda x: (-x[1], x[0]),
        )[:3]
        got_t, got_d = s.suggest_corrections(q, k=3)
        assert list(zip(got_t, (int(d) for d in got_d))) == want, q
        ft, fd = f.suggest_corrections(q, k=3)
        assert ft == got_t, q
        np.testing.assert_array_equal(fd, got_d, err_msg=q)
    with pytest.raises(ValueError):
        s.suggest_corrections("")


def test_suffix_search_matches_bruteforce_and_fanout(small_index):
    """Leading-wildcard retrieval (search_suffix): docs and
    distinct-matching-term counts must equal a brute-force scan over
    the vocabulary + per-term postings, and the 4-group fan-out union
    must equal the single searcher (suffix matches hash anywhere)."""
    import numpy as np

    from sotohp_ray.pipelines.query import FanoutSearcher

    _, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    f = FanoutSearcher(index_dir, n_groups=4)
    vocab = s._tbl["term"].to_pylist()
    suffixes = sorted({t[-2:] for t in vocab if len(t) >= 2})[:6]
    for suf in suffixes + ["zzznot"]:
        docs, counts = s.search_suffix(suf)
        exp: dict[int, int] = {}
        for t in vocab:
            if t.endswith(suf):
                d, _ = s._decode_full(t)
                for x in d:
                    exp[int(x)] = exp.get(int(x), 0) + 1
        assert docs.tolist() == sorted(exp), suf
        assert counts.tolist() == [exp[d] for d in sorted(exp)], suf
        fd, fc = f.search_suffix(suf)
        np.testing.assert_array_equal(docs, fd, err_msg=suf)
        np.testing.assert_array_equal(counts, fc, err_msg=suf)
    with pytest.raises(ValueError):
        s.search_suffix("")


def test_min_should_match_semantics(small_index):
    """minimum_should_match: for every m, the result set must be
    exactly the docs whose DISTINCT matched-term count (from raw
    per-term postings) is >= m, scores must equal the exact TAAT
    scores rounded to 4, and m=1 must reproduce the OR result set."""
    import numpy as np

    _, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    queries = [q["q"] for q in reference_queries(small_index[0])]
    multi = [q for q in queries
             if len(set(s.tok.tokens_of(q))) >= 2][:8]
    assert multi, "fixture queries must include multi-term ones"
    for q in multi:
        terms = [t for t in dict.fromkeys(s.tok.tokens_of(q))
                 if t in s._row]
        nmatch: dict[int, int] = {}
        for t in terms:
            d, _ = s._decode_full(t)
            for x in d:
                nmatch[int(x)] = nmatch.get(int(x), 0) + 1
        exact = dict(s.search_exact(q, k=s.space))
        for m in range(1, len(terms) + 2):
            got = s.search_min_should_match(q, m, k=s.space)
            want_docs = sorted(d for d, c in nmatch.items() if c >= m)
            assert sorted(d for d, _, _ in got) == want_docs, (q, m)
            for d, sc, nm in got:
                assert nm == nmatch[d], (q, m, d)
                assert sc == round(exact[d], 4), (q, m, d)
        # m = 1 degenerates to the OR candidate set
        or_docs = sorted(exact)
        got1 = sorted(d for d, _, _ in
                      s.search_min_should_match(q, 1, k=s.space))
        assert got1 == or_docs, q


def _token_streams(corpus_dir, index_dir):
    """Analyzed token stream per engine doc id (docmeta key order)."""
    import os

    import pyarrow.parquet as pq

    from sotohp_ray.functions.tokenizer import CodeTokenizer
    from sotohp_ray.sources.corpus import corpus_files

    tok = CodeTokenizer()
    dm = pq.read_table(os.path.join(index_dir, "docmeta"))
    key2id = {
        (r, p, c): d
        for r, p, c, d in zip(
            dm["repo"].to_pylist(), dm["path"].to_pylist(),
            dm["commit"].to_pylist(), dm["doc_id"].to_pylist(),
        )
    }
    streams = {}
    for f in corpus_files(corpus_dir):
        t = pq.read_table(f)
        for r, p, c, content in zip(
            t["repo"].to_pylist(), t["path"].to_pylist(),
            t["commit"].to_pylist(), t["content"].to_pylist(),
        ):
            streams[key2id[(r, p, c)]] = tok.tokens_of(content)
    return streams


def test_phrase_prefix_matches_bruteforce_and_fanout(small_index):
    """match_phrase_prefix: docs must equal a per-doc scan matching
    the leading tokens followed by ANY term carrying the prefix, with
    the expansion cap applied in term order; scores equal BM25 over
    the leading terms; 4-group fan-out == single searcher."""
    from sotohp_ray.functions.tokenizer import CodeTokenizer
    from sotohp_ray.pipelines.query import FanoutSearcher

    corpus_dir, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    f = FanoutSearcher(index_dir, n_groups=4)
    tok = CodeTokenizer()
    streams = _token_streams(corpus_dir, index_dir)
    vocab = set(s._tbl["term"].to_pylist())

    # derive phrase-prefix probes from real adjacent pairs
    probes = set()
    for toks in streams.values():
        for a, b in zip(toks, toks[1:]):
            if len(b) >= 3:
                probes.add(f"{a} {b[:2]}")
            if len(probes) >= 5:
                break
        if len(probes) >= 5:
            break
    probes = sorted(probes) + ["zzz qq"]
    for cap in (1, 2, 50):
        for p in probes:
            ptoks = tok.tokens_of(p)
            lead, pfx = ptoks[:-1], ptoks[-1]
            exps = sorted(
                t for t in vocab if t.startswith(pfx)
            )[:cap]
            expect = set()
            for d, toks in streams.items():
                n = len(ptoks)
                for i in range(len(toks) - n + 1):
                    if (toks[i:i + n - 1] == lead
                            and toks[i + n - 1] in exps):
                        expect.add(d)
                        break
            got = s.search_phrase_prefix(p, max_expansions=cap, k=s.space)
            assert {d for d, _ in got} == expect, (p, cap)
            # scores = BM25 over the leading terms on the match set
            exact = dict(s.search_exact(" ".join(lead), k=s.space))
            for d, sc in got:
                assert sc == pytest.approx(exact[d], abs=1e-12), (p, d)
            fg = f.search_phrase_prefix(p, max_expansions=cap, k=s.space)
            assert fg == got, (p, cap)
    with pytest.raises(ValueError):
        s.search_phrase_prefix("single")
    with pytest.raises(ValueError):
        f.search_phrase_prefix("single")


def test_fanout_min_should_match_equals_single(small_index):
    """Fan-out msm: per-group contributions sorted qi-major must give
    BIT-identical rounded scores, match counts and ranking to the
    single searcher for every m."""
    from sotohp_ray.pipelines.query import FanoutSearcher

    _, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    f = FanoutSearcher(index_dir, n_groups=4)
    queries = [q["q"] for q in reference_queries(small_index[0])][:8]
    for q in queries:
        n = len(set(s.tok.tokens_of(q)))
        for m in range(1, n + 1):
            a = s.search_min_should_match(q, m, k=s.space)
            b = f.search_min_should_match(q, m, k=s.space)
            assert a == b, (q, m)


def test_span_near_ordered_matches_bruteforce_and_fanout(small_index):
    """Ordered span-near: match sets must equal a per-doc positional
    scan requiring b AFTER a within the window; the reversed pair must
    differ somewhere on the fixture (direction sensitivity); fan-out
    == single."""
    from sotohp_ray.pipelines.query import FanoutSearcher

    corpus_dir, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    f = FanoutSearcher(index_dir, n_groups=4)
    streams = _token_streams(corpus_dir, index_dir)
    vocab = [t for t in s._tbl["term"].to_pylist()]
    # pick co-occurring pairs from real streams
    pairs = set()
    for toks in streams.values():
        for i in range(len(toks) - 1):
            pairs.add((toks[i], toks[i + 1]))
            if len(pairs) >= 4:
                break
        if len(pairs) >= 4:
            break
    pairs = sorted(pairs)[:4] + [(vocab[0], "zzznot")]
    window = 3
    direction_differs = False
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            if y == "zzznot" or x == "zzznot":
                got = s.search_span_near(x, y, window=window, k=s.space)
                assert got == []
                continue
            expect = set()
            for d, toks in streams.items():
                for i, t in enumerate(toks):
                    if t != x:
                        continue
                    if y in toks[i + 1: i + 1 + window]:
                        expect.add(d)
                        break
            got = s.search_span_near(x, y, window=window, k=s.space)
            assert {d for d, _ in got} == expect, (x, y)
            fg = f.search_span_near(x, y, window=window, k=s.space)
            assert fg == got, (x, y)
        fwd = {d for d, _ in s.search_span_near(a, b, window=window, k=s.space)}
        rev = {d for d, _ in s.search_span_near(b, a, window=window, k=s.space)}
        if fwd != rev:
            direction_differs = True
    assert direction_differs, "fixture shows no direction sensitivity"
    with pytest.raises(ValueError):
        s.search_span_near("two words", "x")


def test_fanout_terms_weighted_equals_single(small_index):
    """Generic weighted-term fan-out retrieval (the serving primitive
    for synonym/MLT rewrites) must be BIT-identical to the single
    searcher's sequential _taat_scores_terms accumulation, including
    fractional weights, absent terms, and duplicate-free qi labeling."""
    import numpy as np

    from sotohp_ray.pipelines.query import FanoutSearcher

    _, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    f = FanoutSearcher(index_dir, n_groups=4)
    vocab = s._tbl["term"].to_pylist()
    cases = [
        [(vocab[0], 1.0), (vocab[3], 2.0), ("zzzabsent", 5.0)],
        [(vocab[1], 0.25), (vocab[2], 1.0), (vocab[5], 3.5)],
        [(t, 1.0) for t in vocab[:8]],
        [("zzzabsent", 1.0)],
    ]
    for qterms in cases:
        scores = s._taat_scores_terms(qterms)
        if scores is None:
            want = []
        else:
            nz = np.flatnonzero(scores > 0.0)
            order = np.lexsort((nz, -scores[nz]))
            want = [(int(d), float(scores[d])) for d in nz[order]]
        got = f.search_terms_weighted(qterms, k=s.space)
        assert got == want, qterms


def test_fanout_group_count_invariance(small_index):
    """Shrink/split resharding: serving results must be IDENTICAL for
    every group count (1, 2, 4, 8) — group boundaries are hash ranges
    over the same dictionary, so regrouping is a pure serving-time
    choice (the ES shrink/split contract, no index rewrite)."""
    from sotohp_ray.pipelines.query import FanoutSearcher

    _, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    queries = [q["q"] for q in reference_queries(small_index[0])][:6]
    baselines = {}
    for q in queries:
        baselines[q] = {
            "exact": s.search_exact(q, 10),
            "wand": s.search_wand(q, 10),
            "msm2": s.search_min_should_match(q, 2, 10),
        }
    for n_groups in (1, 2, 4, 8):
        f = FanoutSearcher(index_dir, n_groups=n_groups)
        for q in queries:
            assert f.search_exact(q, 10) == baselines[q]["exact"], (
                n_groups, q)
            assert f.search_wand(q, 10) == baselines[q]["wand"], (
                n_groups, q)
            assert f.search_min_should_match(q, 2, 10) == \
                baselines[q]["msm2"], (n_groups, q)


def test_fanout_wand_many_bit_identical(small_index):
    """The batched serve protocol (two RPC rounds per BATCH,
    wand_bootstrap_many/survivor_contribs_many) must return
    bit-identical hits to the one-query-at-a-time search_wand for a
    mixed batch — including queries with absent terms ([]), hot
    single terms and multi-term queries — and to the single
    Searcher's WAND."""
    from sotohp_ray.pipelines.query import FanoutSearcher

    _, index_dir, _, _ = small_index
    s = Searcher(index_dir)
    f = FanoutSearcher(index_dir, n_groups=4)
    qs = [q["q"] for q in reference_queries(small_index[0])]
    qs += ["zzznotfound", "", qs[0]]  # misses + a duplicate
    batched = f.search_wand_many(qs, 10)
    assert len(batched) == len(qs)
    for q, hits in zip(qs, batched):
        assert hits == f.search_wand(q, 10), q
        assert hits == s.search_wand(q, 10), q


def test_index_disk_usage_invariants(tmp_path, ray_session):
    """_disk_usage analog: every expected component reported, sizes
    positive, and the component total equals a direct walk."""
    import os

    from sotohp_ray.pipelines.build_index import build_index
    from sotohp_ray.pipelines.fulltext import index_disk_usage
    from sotohp_ray.sources.corpus import generate_corpus

    import pyarrow.parquet as pq

    # index_disk_usage keys the cached documents index off sf_dir;
    # point it at a fresh corpus dir with a documents.parquet
    corpus = tmp_path / "sf"
    corpus.mkdir()
    import numpy as np
    import pyarrow as pa

    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(30, dtype=np.int64)),
        "text": pa.array([f"alpha beta doc{i} gamma" for i in range(30)]),
        "lang": pa.array(["en"] * 30),
        "n_chars": pa.array(np.full(30, 22, np.int64)),
    }), str(corpus / "documents.parquet"))
    out = index_disk_usage(str(corpus)).to_pandas()
    comps = set(out["component"])
    for want in ("dictionary", "docmeta", "lineage", "metadata"):
        assert want in comps, (want, comps)
    assert (out["bytes"] > 0).all() and (out["n_files"] > 0).all()

    from sotohp_ray.pipelines.fulltext import documents_index

    idx = documents_index(str(corpus))
    du = sum(
        os.path.getsize(os.path.join(r, f))
        for r, _d, fs in os.walk(idx) for f in fs
    )
    assert int(out["bytes"].sum()) == du
