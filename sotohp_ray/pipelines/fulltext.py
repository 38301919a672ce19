"""Flagship driver-facing pipeline: BM25 top-k over the ``documents``
testdata table, end-to-end through the real engine (corpus mapping ->
SPIMI build -> merge -> Searcher), with an ANSI-SQL BM25 oracle that
DuckDB can run on the same table.

Ordering/rounding contract (so the SQL compare is deterministic): final
rank per query is by (round(score, 4) DESC, doc_id ASC) LIMIT k; the
returned ``score`` column is the rounded value.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from sotohp_ray.utils import actor_pool_size as _pool
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from sotohp_ray.config import IndexConfig
from sotohp_ray.functions.tokenizer import CodeTokenizer, sql_token_expr

# fixed reference query set over the documents vocabulary
DOC_QUERIES = (
    "spark sort merge",
    "window batch stream",
    "hash join",
    "query data filter",
    "slow big table scan",
    "vector column agg",
    "the fast key",
    "dup group row order",
)

_K1, _B = 1.2, 0.75


def _corpus_from_documents(sf_dir: str, corpus_dir: str, n_parts: int = 4):
    """Map documents -> the engine's corpus shape, STREAMING: rows
    range-partition by doc_id directly (no global sort, no driver-side
    table read — the round-1..4 version pulled and sorted the whole
    documents table on the driver); each partition's writer task sorts
    only its own slice. path is the zero-padded doc_id so
    (repo,path,commit) order == doc_id order and partition files hold
    sorted, disjoint key ranges (the generator's monotone-key
    contract). The only wide op is the n_parts-way range exchange."""
    import pandas as pd
    import ray.data

    from sotohp_ray.state import lineage as lin

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "text"],
    )
    os.makedirs(corpus_dir, exist_ok=True)
    if ds.count() == 0:
        return
    space = int(ds.max("doc_id")) + 1
    step = max(1, (space + n_parts - 1) // n_parts)

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "part", pa.array(ids // step, pa.int64())
        )

    def write_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        p = int(g["part"].iloc[0])
        out = pa.table({
            "repo": pa.array(["docs"] * len(g)),
            "path": pa.array([f"{d:010d}" for d in g["doc_id"]]),
            "commit": pa.array(["0"] * len(g)),
            "lang": pa.array(g["lang"].astype(str), pa.string()),
            "content": pa.array(
                g["text"].astype(str), pa.large_string()
            ),
        })
        lin.atomic_write_table(
            out, os.path.join(corpus_dir, f"part-{p:05d}.parquet")
        )
        return pd.DataFrame({"part": [p], "rows": [len(g)]})

    (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby("part")
        .map_groups(write_part, batch_format="pandas")
        .materialize()  # parts-count-sized stats, not the corpus
    )


def _cache_dir(sf_dir: str) -> str:
    from sotohp_ray.config import INDEX_FORMAT

    st = os.stat(f"{sf_dir}/documents.parquet")
    key = hashlib.sha256(
        f"{os.path.abspath(sf_dir)}:{st.st_size}:fmt{INDEX_FORMAT}".encode()
    ).hexdigest()[:12]
    return os.path.join("/tmp", "sotohp_ray_cache", key)


def documents_index(sf_dir: str) -> str:
    """Build (or reuse a cached) index over the documents table;
    returns the index dir."""
    from sotohp_ray.pipelines.build_index import build_index

    root = _cache_dir(sf_dir)
    corpus_dir = os.path.join(root, "corpus")
    index_dir = os.path.join(root, "index")
    marker = os.path.join(index_dir, "_MERGE_DONE.json")
    if not os.path.exists(marker):
        _corpus_from_documents(sf_dir, corpus_dir)
        build_index(corpus_dir, index_dir, config=IndexConfig())
    return index_dir


def _eng2orig(index_dir: str, space: int, dm: pa.Table | None = None) -> np.ndarray:
    """Engine doc_id -> original doc_id gather array (docmeta path is
    the zero-padded original id). ONE definition — several pipelines
    map results back; a drifting copy would silently mis-map ids.
    Pass ``dm`` (a docmeta read containing doc_id+path) to reuse a
    read the caller already did for its own columns."""
    if dm is None:
        dm = pq.read_table(
            os.path.join(index_dir, "docmeta"), columns=["doc_id", "path"]
        )
    out = np.zeros(space, dtype=np.int64)
    out[dm["doc_id"].to_numpy(zero_copy_only=False)] = pc.cast(
        dm["path"], pa.int64()
    ).to_numpy(zero_copy_only=False)
    return out


def bm25_topk(sf_dir: str, queries=DOC_QUERIES, k: int = 10) -> pa.Table:
    """(query_id, doc_id, score): engine BM25 top-k per query, ranked
    by (round(score,4) desc, doc_id asc)."""
    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    # engine doc_id -> original doc_id via docmeta path (zero-padded)
    eng2orig = _eng2orig(index_dir, s.space)
    rows = []
    for qi, q in enumerate(queries):
        full = s.search_exact(q, k=s.space)  # all matches, exact scores
        # tie-break on ORIGINAL ids (map before sorting): identical to
        # engine-id order for fresh/compacted builds (monotonic map),
        # and stays oracle-correct if the index was ever synced
        ranked = sorted(
            ((int(eng2orig[d]), round(sc, 4)) for d, sc in full),
            key=lambda t: (-t[1], t[0]),
        )[:k]
        for d, sc in ranked:
            rows.append((qi, d, sc))
    return pa.table(
        {
            "query_id": pa.array([r[0] for r in rows], pa.int64()),
            "doc_id": pa.array([r[1] for r in rows], pa.int64()),
            "score": pa.array([r[2] for r in rows], pa.float64()),
        }
    )


def _msm_of(query: str) -> int:
    """minimum_should_match for a query: floor(0.6 * n) of its distinct
    analyzed terms, clamped to [1..n] — ES rounds a positive-percentage
    minimum_should_match DOWN (``"60%"`` of 4 terms = 2, not 3).
    Integer arithmetic — float 0.6*n rounds wrong at n=5."""
    n = len(set(CodeTokenizer().tokens_of(query)))
    return min(n, max(1, (3 * n) // 5))


def bm25_min_should_match(
    sf_dir: str, queries=DOC_QUERIES, k: int = 10
) -> pa.Table:
    """(query_id, doc_id, score, n_matched): BM25 top-k restricted to
    docs matching at least ceil(60%) of each query's distinct analyzed
    terms — the ES ``minimum_should_match`` contract (pure OR rewards
    one hot term, AND is brittle; m-of-n is the standard middle).
    Engine path: Searcher.search_min_should_match (one bincount over
    the per-term contribution rows gives the distinct-match mask and
    the score sums). Ranked (round(score,4) DESC, doc_id ASC)."""
    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    eng2orig = _eng2orig(index_dir, s.space)
    rows = []
    for qi, q in enumerate(queries):
        full = s.search_min_should_match(q, _msm_of(q), k=s.space)
        ranked = sorted(
            ((int(eng2orig[d]), sc, nm) for d, sc, nm in full),
            key=lambda t: (-t[1], t[0]),
        )[:k]
        for d, sc, nm in ranked:
            rows.append((qi, d, sc, nm))
    return pa.table({
        "query_id": pa.array([r[0] for r in rows], pa.int64()),
        "doc_id": pa.array([r[1] for r in rows], pa.int64()),
        "score": pa.array([r[2] for r in rows], pa.float64()),
        "n_matched": pa.array([r[3] for r in rows], pa.int64()),
    })


def bm25_min_should_match_sql(queries=DOC_QUERIES, k: int = 10) -> str:
    """DuckDB oracle: the bm25_oracle_sql scores CTE with a 4th VALUES
    column qm (the per-query minimum) and a distinct-matched-term
    HAVING — count(*) over the (tf JOIN q) group is exactly the
    distinct matched-term count because tf has one row per
    (doc, term)."""
    tok = CodeTokenizer()
    vals = []
    for qi, q in enumerate(queries):
        from collections import Counter

        m = _msm_of(q)
        for term, qtf in sorted(Counter(tok.tokens_of(q)).items()):
            vals.append(f"({qi}, '{term}', {qtf}, {m})")
    values_sql = ", ".join(vals)
    return f"""
WITH {_bm25_cte_prefix()},
q(query_id, term, qtf, qm) AS (VALUES {values_sql}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum({_CONTRIB_EXPR}) AS score,
         count(*) AS n_matched,
         min(q.qm) AS qm
  FROM tf
  JOIN q ON q.term = tf.term
  JOIN df ON df.term = tf.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY 1, 2
)
SELECT query_id, doc_id, round(score, 4) AS score, n_matched
FROM scores WHERE n_matched >= qm
QUALIFY row_number() OVER (
  PARTITION BY query_id ORDER BY round(score, 4) DESC, doc_id ASC
) <= {k}
ORDER BY query_id, doc_id
"""


BOOST_NCHARS = 100.0


def bm25_topk_boosted(
    sf_dir: str, queries=DOC_QUERIES, k: int = 10,
    nchars_div: float = BOOST_NCHARS,
) -> pa.Table:
    """(query_id, doc_id, score): BM25 top-k with a function_score
    field_value_factor boost — score * (1 + ln(1 + n_chars/div)) —
    the ES static-signal boost (recency/popularity/length) applied at
    rank time from document metadata, re-ordering the ranking rather
    than filtering it. The factor table is doc-metadata-sized and
    built once from a 2-column parquet read; at cluster scale it is
    the classic ray.put-broadcast small side."""
    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    eng2orig = _eng2orig(index_dir, s.space)
    nch = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    ids = nch["doc_id"].to_numpy(zero_copy_only=False)
    factor = np.ones(int(ids.max()) + 1, dtype=np.float64)
    # np.log(1.0 + x), NOT log1p: the oracle computes ln(1.0 + x) and
    # the two differ by an ulp — enough to flip a round-to-4 boundary
    factor[ids] = 1.0 + np.log(
        1.0 + nch["n_chars"].to_numpy(zero_copy_only=False) / nchars_div
    )
    rows = []
    for qi, q in enumerate(queries):
        full = s.search_exact(q, k=s.space)
        ranked = sorted(
            (
                (int(eng2orig[d]), round(sc * factor[int(eng2orig[d])], 4))
                for d, sc in full
            ),
            key=lambda t: (-t[1], t[0]),
        )[:k]
        for d, sc in ranked:
            rows.append((qi, d, sc))
    return pa.table({
        "query_id": pa.array([r[0] for r in rows], pa.int64()),
        "doc_id": pa.array([r[1] for r in rows], pa.int64()),
        "score": pa.array([r[2] for r in rows], pa.float64()),
    })


# ES linear-decay parameters over n_chars: pivot = scale/(1-decay)
DECAY_ORIGIN = 300.0
DECAY_OFFSET = 50.0
DECAY_SCALE = 150.0
DECAY_RATE = 0.5


def bm25_decay(
    sf_dir: str, queries=DOC_QUERIES, k: int = 10,
    origin: float = DECAY_ORIGIN, offset: float = DECAY_OFFSET,
    scale: float = DECAY_SCALE, decay: float = DECAY_RATE,
) -> pa.Table:
    """(query_id, doc_id, score): BM25 top-k re-ranked by an ES
    function_score LINEAR decay on document length — the
    recency/proximity decay family (gauss/exp/linear) applied to a
    numeric doc field: mult = max(0, (s - d)/s) with
    d = max(0, |n_chars - origin| - offset) and pivot
    s = scale/(1 - decay), so a doc ``scale`` beyond the offset edge
    scores exactly ``decay``x. Linear (not gauss) is the oracle-gated
    variant deliberately: its multiplier is pure rational arithmetic,
    bit-identical between numpy and DuckDB, where exp()'s libm ulps
    could flip a round-to-4 boundary. Same broadcast-factor shape as
    bm25_topk_boosted (factor table is doc-metadata-sized)."""
    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    eng2orig = _eng2orig(index_dir, s.space)
    nch = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    ids = nch["doc_id"].to_numpy(zero_copy_only=False)
    pivot = scale / (1.0 - decay)
    dist = np.maximum(
        np.abs(
            nch["n_chars"].to_numpy(zero_copy_only=False).astype(
                np.float64
            ) - origin
        ) - offset,
        0.0,
    )
    factor = np.zeros(int(ids.max()) + 1, dtype=np.float64)
    factor[ids] = np.maximum((pivot - dist) / pivot, 0.0)
    rows = []
    for qi, q in enumerate(queries):
        full = s.search_exact(q, k=s.space)
        ranked = sorted(
            (
                (int(eng2orig[d]), round(sc * factor[int(eng2orig[d])], 4))
                for d, sc in full
            ),
            key=lambda t: (-t[1], t[0]),
        )[:k]
        for d, sc in ranked:
            rows.append((qi, d, sc))
    return pa.table({
        "query_id": pa.array([r[0] for r in rows], pa.int64()),
        "doc_id": pa.array([r[1] for r in rows], pa.int64()),
        "score": pa.array([r[2] for r in rows], pa.float64()),
    })


def bm25_decay_sql(
    queries=DOC_QUERIES, k: int = 10,
    origin: float = DECAY_ORIGIN, offset: float = DECAY_OFFSET,
    scale: float = DECAY_SCALE, decay: float = DECAY_RATE,
) -> str:
    tok = CodeTokenizer()
    vals = []
    for qi, q in enumerate(queries):
        from collections import Counter

        for term, qtf in sorted(Counter(tok.tokens_of(q)).items()):
            vals.append(f"({qi}, '{term}', {qtf})")
    values_sql = ", ".join(vals)
    pivot = scale / (1.0 - decay)
    mult = (
        f"greatest(({pivot} - greatest(abs(md.n_chars - {origin})"
        f" - {offset}, 0.0)) / {pivot}, 0.0)"
    )
    return f"""
WITH {_bm25_cte_prefix()},
q(query_id, term, qtf) AS (VALUES {values_sql}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum({_CONTRIB_EXPR}) AS score
  FROM tf
  JOIN q ON q.term = tf.term
  JOIN df ON df.term = tf.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY 1, 2
)
SELECT query_id, s.doc_id AS doc_id,
       round(score * {mult}, 4) AS score
FROM scores s
JOIN documents md ON md.doc_id = s.doc_id
QUALIFY row_number() OVER (
  PARTITION BY query_id
  ORDER BY round(score * {mult}, 4) DESC, s.doc_id ASC
) <= {k}
ORDER BY query_id, doc_id
"""


RANDOM_SEED_MULT = 2654435761  # Knuth multiplicative hash


def bm25_random_score(
    sf_dir: str, queries=DOC_QUERIES, k: int = 10,
    seed: int = 42,
) -> pa.Table:
    """(query_id, doc_id, score): the ES function_score random_score
    analog — a SEEDED, reproducible pseudo-random ordering of each
    query's match set (sampling hits for relevance labelling / A-B
    exposure). score = hash(doc_id, seed)/2^32 via the Knuth
    multiplicative hash in exact BIGINT arithmetic, so the 'random'
    number is the same double on any engine — determinism IS the ES
    contract (same seed + same doc => same score across shards and
    replicas). Match set from the index's boolean OR retrieval;
    scores carry no relevance signal by construction."""
    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    eng2orig = _eng2orig(index_dir, s.space)
    rows = []
    for qi, q in enumerate(queries):
        full = s.search_exact(q, k=s.space)
        ranked = sorted(
            (
                (
                    int(eng2orig[d]),
                    ((int(eng2orig[d]) + seed) * RANDOM_SEED_MULT)
                    % 4294967296 / 4294967296.0,
                )
                for d, _ in full
            ),
            key=lambda t: (-t[1], t[0]),
        )[:k]
        for d, sc in ranked:
            rows.append((qi, d, sc))
    return pa.table({
        "query_id": pa.array([r[0] for r in rows], pa.int64()),
        "doc_id": pa.array([r[1] for r in rows], pa.int64()),
        "score": pa.array([r[2] for r in rows], pa.float64()),
    })


def bm25_random_score_sql(
    queries=DOC_QUERIES, k: int = 10, seed: int = 42,
) -> str:
    tok = CodeTokenizer()
    texpr = sql_token_expr("text")
    vals = []
    for qi, q in enumerate(queries):
        terms = sorted(set(tok.tokens_of(q)))
        lst = ", ".join(f"'{t}'" for t in terms)
        vals.append(f"({qi}, [{lst}])")
    values_sql = ", ".join(vals)
    score = (
        f"((d.doc_id + {seed}) * {RANDOM_SEED_MULT}) % 4294967296"
        f" / 4294967296.0"
    )
    return f"""
WITH q(query_id, terms) AS (VALUES {values_sql}),
hits AS (
  SELECT q.query_id, d.doc_id, {score} AS score
  FROM documents d CROSS JOIN q
  WHERE len(list_intersect({texpr}, q.terms)) > 0
)
SELECT query_id, doc_id, score FROM hits
QUALIFY row_number() OVER (
  PARTITION BY query_id ORDER BY score DESC, doc_id ASC
) <= {k}
ORDER BY query_id, doc_id
"""


def _bm25_cte_prefix() -> str:
    """The shared DuckDB CTE chain computing per-(doc, term) tf, doc
    lengths, corpus stats and df over ``documents`` — the scoring
    substrate every BM25-family oracle builds on."""
    texpr = sql_token_expr("text")
    return f"""toks AS (
  SELECT doc_id, unnest({texpr}) AS term FROM documents
),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM toks GROUP BY 1, 2),
dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM toks GROUP BY 1),
stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
         (SELECT count(*) FROM toks)::DOUBLE
           / (SELECT count(*) FROM documents) AS avgdl
),
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY 1)"""


# one (query term, doc) BM25 contribution — the engine's _contrib
# expression verbatim in SQL (requires tf/df/dl/stats row aliases)
_CONTRIB_EXPR = (
    f"q.qtf * ln(1.0 + (s.n - df.df + 0.5) / (df.df + 0.5))"
    f" * tf.tf * ({_K1} + 1.0)"
    f" / (tf.tf + {_K1} * (1.0 - {_B} + {_B} * dl.dl / s.avgdl))"
)


def _bm25_positional_cte_prefix() -> str:
    """``_bm25_cte_prefix`` with token POSITIONS in the toks CTE — the
    single scoring substrate for every positional oracle (phrase,
    proximity, span-near, phrase-prefix, rescore), so a tokenizer or
    stats fix lands in one place."""
    texpr = sql_token_expr("text")
    return f"""toks AS (
  SELECT doc_id, unnest({texpr}) AS term,
         generate_subscripts({texpr}, 1) AS pos
  FROM documents
),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM toks GROUP BY 1, 2),
dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM toks GROUP BY 1),
stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
         (SELECT count(*) FROM toks)::DOUBLE
           / (SELECT count(*) FROM documents) AS avgdl
),
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY 1)"""


EXPLAIN_K = 3


def bm25_explain(
    sf_dir: str, queries=DOC_QUERIES, k: int = EXPLAIN_K
) -> pa.Table:
    """(query_id, doc_id, term, contrib): the per-term BM25 score
    breakdown for each query's top-k docs — the ES ``explain`` API
    shape (why did this doc rank?). The top-k set is bm25_topk's
    ranking exactly; contributions are search_contribs' rows filtered
    to those docs (matching-postings-sized mask, k x |terms| surviving
    rows), each rounded to 4 like every score column."""
    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    eng2orig = _eng2orig(index_dir, s.space)
    rows = []
    for qid, q in enumerate(queries):
        full = s.search_exact(q, k=s.space)
        ranked = sorted(
            ((int(eng2orig[d]), round(sc, 4), int(d)) for d, sc in full),
            key=lambda t: (-t[1], t[0]),
        )[:k]
        orig_of = {de: do for do, _, de in ranked}
        if not orig_of:
            continue
        docs, qis, cs = s.search_contribs(q)
        # qi -> analyzed term, same first-appearance order the
        # searcher computes (query._first_appearance)
        seen = list(dict.fromkeys(s.tok.tokens_of(q)))
        keep = np.isin(docs, np.fromiter(orig_of, dtype=np.int64))
        for de, ti, c in zip(docs[keep], qis[keep], cs[keep]):
            rows.append(
                (qid, orig_of[int(de)], seen[int(ti)], round(float(c), 4))
            )
    rows.sort()
    return pa.table({
        "query_id": pa.array([r[0] for r in rows], pa.int64()),
        "doc_id": pa.array([r[1] for r in rows], pa.int64()),
        "term": pa.array([r[2] for r in rows], pa.string()),
        "contrib": pa.array([r[3] for r in rows], pa.float64()),
    })


def _q_values(queries, with_clause=False) -> str:
    """VALUES rows '(query_id, term, qtf)' (or with a clause_id) from
    analyzed query strings — the oracle-side query tokenization."""
    from collections import Counter

    tok = CodeTokenizer()
    vals = []
    for qi, q in enumerate(queries):
        clauses = q if with_clause else (q,)
        for ci, clause in enumerate(clauses):
            for term, qtf in sorted(Counter(tok.tokens_of(clause)).items()):
                vals.append(
                    f"({qi}, {ci}, '{term}', {qtf})" if with_clause
                    else f"({qi}, '{term}', {qtf})"
                )
    return ", ".join(vals)


def bm25_explain_sql(queries=DOC_QUERIES, k: int = EXPLAIN_K) -> str:
    return f"""
WITH {_bm25_cte_prefix()},
q(query_id, term, qtf) AS (VALUES {_q_values(queries)}),
contribs AS (
  SELECT q.query_id, tf.doc_id, q.term, {_CONTRIB_EXPR} AS contrib
  FROM tf
  JOIN q ON q.term = tf.term
  JOIN df ON df.term = tf.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
),
scores AS (
  SELECT query_id, doc_id, sum(contrib) AS score
  FROM contribs GROUP BY 1, 2
),
topk AS (
  SELECT query_id, doc_id FROM scores
  QUALIFY row_number() OVER (
    PARTITION BY query_id ORDER BY round(score, 4) DESC, doc_id ASC
  ) <= {k}
)
SELECT c.query_id, c.doc_id, c.term, round(c.contrib, 4) AS contrib
FROM contribs c
JOIN topk t ON t.query_id = c.query_id AND t.doc_id = c.doc_id
ORDER BY 1, 2, 3
"""


DISMAX_QUERIES = (
    ("spark sort merge", "hash join"),
    ("window batch stream", "query data filter"),
    ("slow big table scan", "vector column agg", "the fast key"),
    ("dup group row order", "hash join"),
)
DISMAX_TIE = 0.3


def bm25_dismax(
    sf_dir: str, query_sets=DISMAX_QUERIES, tie: float = DISMAX_TIE,
    k: int = 10,
) -> pa.Table:
    """(query_id, doc_id, score): the ES/Lucene ``dis_max`` query —
    per doc, score = best clause score + tie_breaker * (sum of the
    other clauses). OR blurs which clause won; dis_max keeps the best
    field/phrasing dominant (multi_match best_fields semantics) while
    the tie-breaker still rewards multi-clause agreement. One TAAT
    pass per clause, combined with two vectorized reductions
    (clause-count-bounded; single-searcher harness path like
    bm25_topk)."""
    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    eng2orig = _eng2orig(index_dir, s.space)
    rows = []
    for sid, clauses in enumerate(query_sets):
        arrs = [a for a in (s._taat_scores(c) for c in clauses)
                if a is not None]
        if not arrs:
            continue
        m = np.vstack(arrs)
        best = m.max(axis=0)
        sc = best + tie * (m.sum(axis=0) - best)
        nz = np.flatnonzero(sc > 0.0)
        ranked = sorted(
            ((int(eng2orig[d]), round(float(sc[d]), 4)) for d in nz),
            key=lambda t: (-t[1], t[0]),
        )[:k]
        for d, v in ranked:
            rows.append((sid, d, v))
    return pa.table({
        "query_id": pa.array([r[0] for r in rows], pa.int64()),
        "doc_id": pa.array([r[1] for r in rows], pa.int64()),
        "score": pa.array([r[2] for r in rows], pa.float64()),
    })


def bm25_dismax_sql(
    query_sets=DISMAX_QUERIES, tie: float = DISMAX_TIE, k: int = 10
) -> str:
    return f"""
WITH {_bm25_cte_prefix()},
q(query_id, clause_id, term, qtf) AS (
  VALUES {_q_values(query_sets, with_clause=True)}
),
cs AS (
  SELECT q.query_id, q.clause_id, tf.doc_id, sum({_CONTRIB_EXPR}) AS score
  FROM tf
  JOIN q ON q.term = tf.term
  JOIN df ON df.term = tf.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY 1, 2, 3
),
dm AS (
  SELECT query_id, doc_id,
         max(score) + {tie} * (sum(score) - max(score)) AS score
  FROM cs GROUP BY 1, 2
)
SELECT query_id, doc_id, round(score, 4) AS score
FROM dm
QUALIFY row_number() OVER (
  PARTITION BY query_id ORDER BY round(score, 4) DESC, doc_id ASC
) <= {k}
ORDER BY query_id, doc_id
"""


BOOSTING_QUERIES = (
    # (positive query, negative query, negative_boost)
    ("query data filter", "slow", 0.4),
    ("spark sort merge", "hash", 0.5),
    ("window batch stream", "the fast key", 0.25),
    ("slow big table scan", "join order", 0.5),
)


def bm25_boosting(
    sf_dir: str, specs=BOOSTING_QUERIES, k: int = 10
) -> pa.Table:
    """(query_id, doc_id, score): the ES ``boosting`` query — rank by
    the positive query's BM25 score, DEMOTING (not excluding) docs
    matching any negative-query term by the spec's negative_boost
    multiplier. MUST_NOT is a hard filter; boosting keeps recall and
    just re-orders. The demotion set is the union of the negative
    terms' postings — postings-sized, one factor gather."""
    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    eng2orig = _eng2orig(index_dir, s.space)
    rows = []
    for qid, (pos, neg, nb) in enumerate(specs):
        scores = s._taat_scores(pos)
        if scores is None:
            continue
        factor = np.ones(s.space, dtype=np.float64)
        for t, _w in s._query_terms(neg):
            d, _f = s._decode_full(t)
            factor[d] = nb
        # candidate set = positive matches BEFORE demotion: a doc
        # demoted to 0 (negative_boost=0) stays in the ranking with
        # score 0 — the ES contract (demote, never filter) and the
        # oracle's row set
        nz = np.flatnonzero(scores > 0.0)
        sc = scores * factor
        ranked = sorted(
            ((int(eng2orig[d]), round(float(sc[d]), 4)) for d in nz),
            key=lambda t: (-t[1], t[0]),
        )[:k]
        for d, v in ranked:
            rows.append((qid, d, v))
    return pa.table({
        "query_id": pa.array([r[0] for r in rows], pa.int64()),
        "doc_id": pa.array([r[1] for r in rows], pa.int64()),
        "score": pa.array([r[2] for r in rows], pa.float64()),
    })


def bm25_boosting_sql(specs=BOOSTING_QUERIES, k: int = 10) -> str:
    tok = CodeTokenizer()
    from collections import Counter

    pos_vals, neg_vals, nb_vals = [], [], []
    for qi, (pos, neg, nb) in enumerate(specs):
        for term, qtf in sorted(Counter(tok.tokens_of(pos)).items()):
            pos_vals.append(f"({qi}, '{term}', {qtf})")
        for term in sorted(set(tok.tokens_of(neg))):
            neg_vals.append(f"({qi}, '{term}')")
        nb_vals.append(f"({qi}, {nb})")
    return f"""
WITH {_bm25_cte_prefix()},
q(query_id, term, qtf) AS (VALUES {", ".join(pos_vals)}),
nq(query_id, term) AS (VALUES {", ".join(neg_vals)}),
nbv(query_id, nb) AS (VALUES {", ".join(nb_vals)}),
scores AS (
  SELECT q.query_id, tf.doc_id, sum({_CONTRIB_EXPR}) AS score
  FROM tf
  JOIN q ON q.term = tf.term
  JOIN df ON df.term = tf.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY 1, 2
),
negdocs AS (
  SELECT DISTINCT nq.query_id, tf.doc_id
  FROM tf JOIN nq ON nq.term = tf.term
),
boosted AS (
  SELECT sc.query_id, sc.doc_id,
         sc.score * CASE WHEN nd.doc_id IS NOT NULL
                         THEN b.nb ELSE 1.0 END AS score
  FROM scores sc
  JOIN nbv b ON b.query_id = sc.query_id
  LEFT JOIN negdocs nd
    ON nd.query_id = sc.query_id AND nd.doc_id = sc.doc_id
)
SELECT query_id, doc_id, round(score, 4) AS score
FROM boosted
QUALIFY row_number() OVER (
  PARTITION BY query_id ORDER BY round(score, 4) DESC, doc_id ASC
) <= {k}
ORDER BY query_id, doc_id
"""


ANALYZE_PROBES = (
    "Hello, World! FooBar_baz 42x",
    "snake_case camelCase XMLHttpRequest 1234",
    "MixedCASE tokens-with-dashes a.b.c",
    "",
    "   leading and trailing   ",
)


def analyze_texts(sf_dir: str, probes=ANALYZE_PROBES) -> pa.Table:
    """(text_id, pos, token): the ES ``_analyze`` API — run the
    engine's analyzer over probe strings and return the token stream
    with positions. This is the M7 tokenizer-parity surface exposed
    DIRECTLY: the engine side is the Python CodeTokenizer, the oracle
    side is ``sql_token_expr``'s RE2 pipeline in DuckDB, so the oracle
    compare proves the two analyzer implementations agree token by
    token (every other token query inherits that agreement). Takes
    ``sf_dir`` for the driver-contract signature; the probes are the
    input."""
    tok = CodeTokenizer()
    t_ids, poss, toks = [], [], []
    for ti, p in enumerate(probes):
        for pos, token in enumerate(tok.tokens_of(p)):
            t_ids.append(ti)
            poss.append(pos)
            toks.append(token)
    return pa.table({
        "text_id": pa.array(t_ids, pa.int64()),
        "pos": pa.array(poss, pa.int64()),
        "token": pa.array(toks, pa.string()),
    })


def analyze_texts_sql(probes=ANALYZE_PROBES) -> str:
    texpr = sql_token_expr("text")
    vals = ", ".join(
        f"({ti}, '{_sql_lit(p)}')" for ti, p in enumerate(probes)
    )
    return f"""
        WITH q(text_id, text) AS (VALUES {vals})
        SELECT text_id,
               generate_subscripts({texpr}, 1) - 1 AS pos,
               unnest({texpr}) AS token
        FROM q
    """


def index_disk_usage(sf_dir: str) -> pa.Table:
    """(component, n_files, bytes): the ES _disk_usage API — size of
    every index component (dictionary/postings shards, docmeta,
    partials, lineage, doclen sidecars, metadata JSONs) of the
    documents index. The capacity-planning introspection a fleet
    operator reads before resharding. Rows-only BY DESIGN (filesystem
    stat, not table-derivable); pytest pins the invariants (every
    component present, bytes > 0, totals == du)."""
    index_dir = documents_index(sf_dir)
    comps: dict[str, list[int]] = {}
    for root, _dirs, files in os.walk(index_dir):
        rel = os.path.relpath(root, index_dir)
        top = rel.split(os.sep)[0] if rel != "." else "."
        for f in files:
            p = os.path.join(root, f)
            if top == ".":
                name = (
                    "doclen_sidecar" if f.startswith("doclen-")
                    else "metadata"
                )
            else:
                name = top
            c = comps.setdefault(name, [0, 0])
            c[0] += 1
            c[1] += os.path.getsize(p)
    names = sorted(comps)
    return pa.table({
        "component": pa.array(names, pa.string()),
        "n_files": pa.array(
            [comps[n][0] for n in names], pa.int64()),
        "bytes": pa.array(
            [comps[n][1] for n in names], pa.int64()),
    })


def index_snapshot(sf_dir: str) -> pa.Table:
    """(snapshot, n_files, n_new_blobs, bytes_total, bytes_copied,
    restored_files): the ES _snapshot API surfaced as a query — takes
    TWO successive snapshots of the documents index into a fresh /tmp
    content-addressed repository and restores the second, reporting
    the incrementality telemetry (the second snapshot of an unchanged
    index ships ZERO new blobs) and the restore file count. Rows-only
    BY DESIGN (filesystem state machine, not table-derivable);
    tests/test_snapshot.py pins the point-in-time and atomic-swap
    contracts against real mutations."""
    import shutil
    import tempfile

    from sotohp_ray.pipelines.snapshot import (
        create_snapshot,
        restore_snapshot,
    )

    index_dir = documents_index(sf_dir)
    repo = tempfile.mkdtemp(prefix="snap-repo-")
    try:
        s1 = create_snapshot(index_dir, repo, "s1")
        s2 = create_snapshot(index_dir, repo, "s2")  # unchanged: 0 new
        dest = os.path.join(repo, "restored")
        n_restored = restore_snapshot(repo, "s2", dest)
        rows = [("s1", s1, 0), ("s2", s2, n_restored)]
        return pa.table({
            "snapshot": pa.array([r[0] for r in rows], pa.string()),
            "n_files": pa.array(
                [r[1]["n_files"] for r in rows], pa.int64()),
            "n_new_blobs": pa.array(
                [r[1]["n_new_blobs"] for r in rows], pa.int64()),
            "bytes_total": pa.array(
                [r[1]["bytes_total"] for r in rows], pa.int64()),
            "bytes_copied": pa.array(
                [r[1]["bytes_copied"] for r in rows], pa.int64()),
            "restored_files": pa.array(
                [r[2] for r in rows], pa.int64()),
        })
    finally:
        shutil.rmtree(repo, ignore_errors=True)


TERMVEC_DOC_IDS = (3, 7, 11)


def term_vectors(sf_dir: str, doc_ids=TERMVEC_DOC_IDS) -> pa.Table:
    """(doc_id, term, tf, first_pos): the ES ``_termvectors`` API —
    per requested doc, its analyzed term frequencies and first
    position. Like mget this is a BY-ID point read: a filtered
    (row-group-pruned) read of just the requested docs, analyzed with
    the engine tokenizer — document-sized work, zero shuffle; the SQL
    oracle re-derives the same vectors from the shared analyzer
    expression, extending analyze_texts' parity surface from probe
    strings to corpus docs."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    tbl = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        filters=pads.field("doc_id").isin(list(doc_ids)),
    )
    tok = CodeTokenizer()
    out_d, out_t, out_f, out_p = [], [], [], []
    for did, text in zip(
        tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()
    ):
        tf: dict[str, int] = {}
        first: dict[str, int] = {}
        for pos, t in enumerate(tok.tokens_of(text or "")):
            tf[t] = tf.get(t, 0) + 1
            first.setdefault(t, pos)
        for t in sorted(tf):
            out_d.append(did)
            out_t.append(t)
            out_f.append(tf[t])
            out_p.append(first[t])
    return pa.table({
        "doc_id": pa.array(out_d, pa.int64()),
        "term": pa.array(out_t, pa.string()),
        "tf": pa.array(out_f, pa.int64()),
        "first_pos": pa.array(out_p, pa.int64()),
    })


def term_vectors_sql(doc_ids=TERMVEC_DOC_IDS) -> str:
    texpr = sql_token_expr("text")
    ids = ", ".join(str(i) for i in doc_ids)
    return f"""
        WITH toks AS (
          SELECT doc_id,
                 generate_subscripts({texpr}, 1) - 1 AS pos,
                 unnest({texpr}) AS term
          FROM documents WHERE doc_id IN ({ids})
        )
        SELECT doc_id, term, count(*)::BIGINT AS tf,
               min(pos)::BIGINT AS first_pos
        FROM toks GROUP BY doc_id, term
        ORDER BY doc_id, term
    """


# query-time synonym groups (ES synonym_graph filter): every member
# of a group expands to the whole group at the ORIGINAL term's query
# weight. "large" is deliberately outside the corpus vocabulary — an
# expansion term absent from the index must be a no-op on both sides.
SYNONYM_GROUPS = (("sort", "order"), ("join", "merge"), ("big", "large"))
SYN_QUERIES = ("fast sort", "hash join table", "big row group")


def _expand_synonyms(query: str, groups=SYNONYM_GROUPS):
    """[(term, weight)]: analyzed query terms expanded through the
    synonym groups — each original term contributes its query tf to
    every member of its group (itself included); weights accumulate
    when expansions collide. ONE definition, used by both the engine
    scoring and the oracle's VALUES emission, so the expansion policy
    cannot drift between them."""
    from collections import Counter

    tok = CodeTokenizer()
    of_term = {}
    for g in groups:
        for t in g:
            of_term[t] = g
    w: Counter = Counter()
    for t, qtf in Counter(tok.tokens_of(query)).items():
        for e in of_term.get(t, (t,)):
            w[e] += qtf
    return sorted(w.items())


def synonym_search(
    sf_dir: str, queries=SYN_QUERIES, k: int = 10
) -> pa.Table:
    """(query_id, doc_id, score): BM25 top-k with query-time synonym
    expansion (the ES synonym_graph token-filter contract) — a doc
    mentioning "order" matches a "sort" query at the same query
    weight. Scoring reuses the explicit-term TAAT entry point
    (_taat_scores_terms, the more-like-this path), so expansion is
    pure query rewriting: the index is untouched and the synonym table
    can change without a rebuild."""
    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    eng2orig = _eng2orig(index_dir, s.space)
    rows = []
    for qi, q in enumerate(queries):
        scores = s._taat_scores_terms(
            [(t, float(w)) for t, w in _expand_synonyms(q)]
        )
        if scores is None:
            continue
        nz = np.flatnonzero(scores > 0.0)
        ranked = sorted(
            ((int(eng2orig[d]), round(float(scores[d]), 4)) for d in nz),
            key=lambda t: (-t[1], t[0]),
        )[:k]
        for d, sc in ranked:
            rows.append((qi, d, sc))
    return pa.table({
        "query_id": pa.array([r[0] for r in rows], pa.int64()),
        "doc_id": pa.array([r[1] for r in rows], pa.int64()),
        "score": pa.array([r[2] for r in rows], pa.float64()),
    })


def synonym_search_sql(queries=SYN_QUERIES, k: int = 10) -> str:
    vals = []
    for qi, q in enumerate(queries):
        for term, w in _expand_synonyms(q):
            vals.append(f"({qi}, '{term}', {w})")
    return f"""
WITH {_bm25_cte_prefix()},
q(query_id, term, qtf) AS (VALUES {", ".join(vals)}),
scores AS (
  SELECT q.query_id, tf.doc_id, sum({_CONTRIB_EXPR}) AS score
  FROM tf
  JOIN q ON q.term = tf.term
  JOIN df ON df.term = tf.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY 1, 2
)
SELECT query_id, doc_id, round(score, 4) AS score
FROM scores
QUALIFY row_number() OVER (
  PARTITION BY query_id ORDER BY round(score, 4) DESC, doc_id ASC
) <= {k}
ORDER BY query_id, doc_id
"""


def tfidf_topk(sf_dir: str, queries=DOC_QUERIES, k: int = 10) -> pa.Table:
    """(query_id, doc_id, score): classic TF-IDF ranking — score =
    sum over query terms of qtf * (1 + ln tf) * ln(N/df), normalized
    by 1/sqrt(dl) (the pre-BM25 lnc.ltc cosine family). The point is
    pluggable similarity: the same index primitives (postings decode,
    df table, doc lengths) serve a second scoring function with zero
    index changes — the ES per-field ``similarity`` setting."""
    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    eng2orig = _eng2orig(index_dir, s.space)
    n = float(s.space)
    rows = []
    for qi, q in enumerate(queries):
        scores = np.zeros(s.space, dtype=np.float64)
        for t, qtf in s._query_terms(q):
            d, f = s._decode_full(t)
            df_t = float(s._dfs[s._row[t]])
            dli = s.doc_len[d]
            scores[d] += (
                qtf * (1.0 + np.log(f.astype(np.float64)))
                * np.log(n / df_t) / np.sqrt(dli)
            )
        if s._tomb is not None:
            scores[s._tomb] = 0.0  # deleted docs never rank
        nz = np.flatnonzero(scores > 0.0)
        ranked = sorted(
            ((int(eng2orig[d]), round(float(scores[d]), 4)) for d in nz),
            key=lambda t: (-t[1], t[0]),
        )[:k]
        for d, sc in ranked:
            rows.append((qi, d, sc))
    return pa.table({
        "query_id": pa.array([r[0] for r in rows], pa.int64()),
        "doc_id": pa.array([r[1] for r in rows], pa.int64()),
        "score": pa.array([r[2] for r in rows], pa.float64()),
    })


def tfidf_topk_sql(queries=DOC_QUERIES, k: int = 10) -> str:
    return f"""
WITH {_bm25_cte_prefix()},
q(query_id, term, qtf) AS (VALUES {_q_values(queries)}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum(q.qtf * (1.0 + ln(tf.tf)) * ln(s.n / df.df)
             / sqrt(dl.dl)) AS score
  FROM tf
  JOIN q ON q.term = tf.term
  JOIN df ON df.term = tf.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY 1, 2
)
SELECT query_id, doc_id, round(score, 4) AS score
FROM scores
QUALIFY row_number() OVER (
  PARTITION BY query_id ORDER BY round(score, 4) DESC, doc_id ASC
) <= {k}
ORDER BY query_id, doc_id
"""


PHRASE_QUERIES = (
    "table hash",
    "merge group",
    "part filter",
    "slow hash batch",
    "row column sort",
    "customer part join",
)


def phrase_topk(sf_dir: str, phrases=PHRASE_QUERIES, k: int = 10) -> pa.Table:
    """(query_id, doc_id, score): exact PHRASE search over the
    positional index — documents containing the analyzed tokens at
    consecutive positions, ranked by BM25 over the phrase terms with
    the (round(score,4) DESC, doc_id ASC) contract. The positions
    travel the whole engine (SPIMI partials -> bucketed merge ->
    dictionary pos streams); the SQL oracle recomputes matches from
    token subscripts."""
    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    eng2orig = _eng2orig(index_dir, s.space)
    rows = []
    for qi, p in enumerate(phrases):
        full = s.search_phrase(p, k=s.space)
        # tie-break on ORIGINAL ids (map before sorting): identical to
        # engine-id order for fresh/compacted builds (monotonic map),
        # and stays oracle-correct if the index was ever synced
        ranked = sorted(
            ((int(eng2orig[d]), round(sc, 4)) for d, sc in full),
            key=lambda t: (-t[1], t[0]),
        )[:k]
        for d, sc in ranked:
            rows.append((qi, d, sc))
    return pa.table(
        {
            "query_id": pa.array([r[0] for r in rows], pa.int64()),
            "doc_id": pa.array([r[1] for r in rows], pa.int64()),
            "score": pa.array([r[2] for r in rows], pa.float64()),
        }
    )


RESCORE_WINDOW = 20
RESCORE_BONUS = 2.0
RESCORE_QUERIES = (
    "table hash",
    "slow hash batch",
    "merge group",
    "query data",
)


def bm25_rescore_phrase(
    sf_dir: str, queries=RESCORE_QUERIES, k: int = 10,
    window: int = RESCORE_WINDOW, bonus: float = RESCORE_BONUS,
) -> pa.Table:
    """(query_id, doc_id, score): the ES ``rescore`` query — the cheap
    BM25 pass ranks everything, then ONLY the top-``window`` docs pay
    for the expensive signal (here: an exact-phrase positional check;
    in ES typically a phrase or script score) and are re-sorted by
    base + bonus*has_phrase. Only window docs can receive the bonus —
    the ES window semantics (a doc with the phrase outside the window
    stays ranked by its base score). This harness reuses the shared
    corpus-wide phrase-align kernel for the membership set (its cost
    is postings-bounded); a latency-critical serving path would
    intersect positions for just the window docs. k <= window so the
    final page comes entirely from the rescored window (the ES
    contract when window_size >= size)."""
    from sotohp_ray.pipelines.query import Searcher

    if k > window:
        raise ValueError("k must be <= window (ES rescore contract)")
    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    eng2orig = _eng2orig(index_dir, s.space)
    rows = []
    for qi, q in enumerate(queries):
        full = s.search_exact(q, k=s.space)
        win = sorted(
            ((int(eng2orig[d]), round(sc, 4), int(d)) for d, sc in full),
            key=lambda t: (-t[1], t[0]),
        )[:window]
        if not win:
            continue
        # phrase membership for ONLY the window docs
        phrase_docs = {
            int(d) for d, _ in s.search_phrase(q, k=s.space)
        }
        ranked = sorted(
            (
                (do, round(sc + (bonus if de in phrase_docs else 0.0), 4))
                for do, sc, de in win
            ),
            key=lambda t: (-t[1], t[0]),
        )[:k]
        for d, sc in ranked:
            rows.append((qi, d, sc))
    return pa.table({
        "query_id": pa.array([r[0] for r in rows], pa.int64()),
        "doc_id": pa.array([r[1] for r in rows], pa.int64()),
        "score": pa.array([r[2] for r in rows], pa.float64()),
    })


def bm25_rescore_phrase_sql(
    queries=RESCORE_QUERIES, k: int = 10,
    window: int = RESCORE_WINDOW, bonus: float = RESCORE_BONUS,
) -> str:
    """Base BM25 CTE windowed to top-``window``, LEFT JOIN the
    positional phrase-match set, re-rank by base + bonus."""
    tok = CodeTokenizer()
    from collections import Counter

    qvals, match_parts = [], []
    for qi, p in enumerate(queries):
        toks = tok.tokens_of(p)
        for term, qtf in sorted(Counter(toks).items()):
            qvals.append(f"({qi}, '{term}', {qtf})")
        joins = []
        for off, term in enumerate(toks):
            if off == 0:
                continue
            joins.append(
                f"JOIN toks t{off} ON t{off}.doc_id = t0.doc_id "
                f"AND t{off}.pos = t0.pos + {off} "
                f"AND t{off}.term = '{term}'"
            )
        match_parts.append(
            f"SELECT DISTINCT {qi} AS query_id, t0.doc_id "
            f"FROM toks t0 {' '.join(joins)} "
            f"WHERE t0.term = '{toks[0]}'"
        )
    return f"""
WITH {_bm25_positional_cte_prefix()},
q(query_id, term, qtf) AS (VALUES {", ".join(qvals)}),
base AS (
  SELECT q.query_id, tf.doc_id,
         round(sum({_CONTRIB_EXPR}), 4) AS score
  FROM tf
  JOIN q ON q.term = tf.term
  JOIN df ON df.term = tf.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY 1, 2
),
win AS (
  SELECT query_id, doc_id, score FROM base
  QUALIFY row_number() OVER (
    PARTITION BY query_id ORDER BY score DESC, doc_id ASC
  ) <= {window}
),
phr AS ({" UNION ALL ".join(match_parts)})
SELECT w.query_id, w.doc_id,
       round(w.score + CASE WHEN p.doc_id IS NOT NULL
                            THEN {bonus} ELSE 0.0 END, 4) AS score
FROM win w
LEFT JOIN phr p
  ON p.query_id = w.query_id AND p.doc_id = w.doc_id
QUALIFY row_number() OVER (
  PARTITION BY w.query_id
  ORDER BY round(w.score + CASE WHEN p.doc_id IS NOT NULL
                                THEN {bonus} ELSE 0.0 END, 4) DESC,
           w.doc_id ASC
) <= {k}
ORDER BY w.query_id, w.doc_id
"""


PHRASE_PREFIX_QUERIES = (
    "hash jo",
    "merge gro",
    "row or",
    "slow hash ba",
    "the fast s",
    "table zz",
)
PHRASE_PREFIX_EXPANSIONS = 3  # small so the ES expansion cap BITES


def phrase_prefix_topk(
    sf_dir: str, phrases=PHRASE_PREFIX_QUERIES, k: int = 10,
    max_expansions: int = PHRASE_PREFIX_EXPANSIONS,
) -> pa.Table:
    """(query_id, doc_id, score): ES ``match_phrase_prefix``
    (search-as-you-type) — the phrase's last token is a PREFIX,
    expanded to the first ``max_expansions`` dictionary terms in term
    order, each phrase-aligned on the positional index; ranking = BM25
    over the FIXED leading terms (stable across keystrokes). The cap
    is deliberately small here so its truncation rule is exercised by
    the oracle."""
    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    eng2orig = _eng2orig(index_dir, s.space)
    rows = []
    for qi, p in enumerate(phrases):
        full = s.search_phrase_prefix(
            p, max_expansions=max_expansions, k=s.space
        )
        ranked = sorted(
            ((int(eng2orig[d]), round(sc, 4)) for d, sc in full),
            key=lambda t: (-t[1], t[0]),
        )[:k]
        for d, sc in ranked:
            rows.append((qi, d, sc))
    return pa.table({
        "query_id": pa.array([r[0] for r in rows], pa.int64()),
        "doc_id": pa.array([r[1] for r in rows], pa.int64()),
        "score": pa.array([r[2] for r in rows], pa.float64()),
    })


def phrase_prefix_oracle_sql(
    phrases=PHRASE_PREFIX_QUERIES, k: int = 10,
    max_expansions: int = PHRASE_PREFIX_EXPANSIONS,
) -> str:
    """Match = leading terms at consecutive positions followed by ANY
    of the first ``max_expansions`` distinct corpus terms (term order)
    with the prefix; score = the BM25 CTE over the leading terms
    only."""
    tok = CodeTokenizer()
    from collections import Counter

    qvals, match_parts = [], []
    for qi, p in enumerate(phrases):
        toks = tok.tokens_of(p)
        lead, pfx = toks[:-1], toks[-1]
        for term, qtf in sorted(Counter(lead).items()):
            qvals.append(f"({qi}, '{term}', {qtf})")
        joins = []
        for off, term in enumerate(lead):
            if off == 0:
                continue
            joins.append(
                f"JOIN toks t{off} ON t{off}.doc_id = t0.doc_id "
                f"AND t{off}.pos = t0.pos + {off} "
                f"AND t{off}.term = '{term}'"
            )
        last = len(toks) - 1
        joins.append(
            f"JOIN toks t{last} ON t{last}.doc_id = t0.doc_id "
            f"AND t{last}.pos = t0.pos + {last} "
            f"AND t{last}.term IN ("
            f"SELECT term FROM (SELECT DISTINCT term FROM toks "
            f"WHERE term LIKE '{pfx}%' ORDER BY term "
            f"LIMIT {max_expansions}))"
        )
        match_parts.append(
            f"SELECT DISTINCT {qi} AS query_id, t0.doc_id "
            f"FROM toks t0 {' '.join(joins)} "
            f"WHERE t0.term = '{lead[0]}'"
        )
    return f"""
WITH {_bm25_positional_cte_prefix()},
q(query_id, term, qtf) AS (VALUES {", ".join(qvals)}),
matches AS ({" UNION ALL ".join(match_parts)}),
scores AS (
  SELECT q.query_id, tf.doc_id, sum({_CONTRIB_EXPR}) AS score
  FROM tf
  JOIN q ON q.term = tf.term
  JOIN df ON df.term = tf.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY 1, 2
)
SELECT m.query_id, m.doc_id, round(sc.score, 4) AS score
FROM matches m
JOIN scores sc ON sc.query_id = m.query_id AND sc.doc_id = m.doc_id
QUALIFY row_number() OVER (
  PARTITION BY m.query_id
  ORDER BY round(sc.score, 4) DESC, m.doc_id ASC
) <= {k}
ORDER BY m.query_id, m.doc_id
"""


def phrase_oracle_sql(phrases=PHRASE_QUERIES, k: int = 10) -> str:
    """DuckDB oracle: phrase match via token-subscript self-joins, then
    the same BM25 scoring as bm25_oracle_sql restricted to matching
    docs."""
    tok = CodeTokenizer()
    qvals, match_parts = [], []
    for qi, p in enumerate(phrases):
        toks = tok.tokens_of(p)
        from collections import Counter

        for term, qtf in sorted(Counter(toks).items()):
            qvals.append(f"({qi}, '{term}', {qtf})")
        joins, conds = [], []
        for off, term in enumerate(toks):
            if off == 0:
                conds.append(f"t0.term = '{term}'")
                continue
            joins.append(
                f"JOIN toks t{off} ON t{off}.doc_id = t0.doc_id "
                f"AND t{off}.pos = t0.pos + {off} "
                f"AND t{off}.term = '{term}'"
            )
        match_parts.append(
            f"SELECT DISTINCT {qi} AS query_id, t0.doc_id "
            f"FROM toks t0 {' '.join(joins)} WHERE {conds[0]}"
        )
    values_sql = ", ".join(qvals)
    matches_sql = " UNION ALL ".join(match_parts)
    return f"""
WITH {_bm25_positional_cte_prefix()},
q(query_id, term, qtf) AS (VALUES {values_sql}),
matches AS ({matches_sql}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum({_CONTRIB_EXPR}) AS score
  FROM tf
  JOIN q ON q.term = tf.term
  JOIN df ON df.term = tf.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY 1, 2
)
SELECT s.query_id, s.doc_id, round(s.score, 4) AS score
FROM scores s JOIN matches m
  ON m.query_id = s.query_id AND m.doc_id = s.doc_id
QUALIFY row_number() OVER (
  PARTITION BY s.query_id ORDER BY round(s.score, 4) DESC, s.doc_id ASC
) <= {k}
ORDER BY s.query_id, s.doc_id
"""


# term-positions readback sample: every doc with doc_id % MOD == 0,
# three analyzer-stable vocabulary terms (the sampled-membership
# discipline of sample_random keeps the result output-sized at any sf)
POSITION_TERMS = ("fast", "small", "merge")
POSITION_MOD = 7


def term_positions(
    sf_dir: str, terms=POSITION_TERMS, mod: int = POSITION_MOD
) -> pa.Table:
    """(term, doc_id, pos): every 0-based token position of each term
    in the sampled docs, read BACK FROM THE POSITIONAL INDEX
    (``Searcher.term_positions`` — the term-vector primitive behind
    highlighting). Verifies the position payload itself against SQL
    token subscripts, not just phrase/proximity ranking derived from
    it."""
    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    eng2orig = _eng2orig(index_dir, s.space)
    t_parts, d_parts, p_parts = [], [], []
    for term in terms:
        # oracle parity: the SQL matches the LITERAL term against the
        # analyzed token list — skip terms the analyzer would rewrite
        if s.tok.tokens_of(term) != [term]:
            continue
        docs, tfs, occ = s.term_positions(term)
        if docs.size == 0:
            continue
        orig = eng2orig[docs.astype(np.int64)]
        keep = orig % mod == 0
        occ_keep = np.repeat(keep, tfs.astype(np.int64))
        occ_docs = np.repeat(orig[keep], tfs[keep].astype(np.int64))
        t_parts.append(np.full(occ_docs.size, term, dtype=object))
        d_parts.append(occ_docs)
        p_parts.append(occ[occ_keep].astype(np.int64))
    if not d_parts:
        return pa.table({
            "term": pa.array([], pa.string()),
            "doc_id": pa.array([], pa.int64()),
            "pos": pa.array([], pa.int64()),
        })
    tcol = np.concatenate(t_parts)
    dcol = np.concatenate(d_parts)
    pcol = np.concatenate(p_parts)
    order = np.lexsort((pcol, dcol, tcol))
    return pa.table({
        "term": pa.array(tcol[order], pa.string()),
        "doc_id": pa.array(dcol[order], pa.int64()),
        "pos": pa.array(pcol[order], pa.int64()),
    })


def term_positions_sql(terms=POSITION_TERMS, mod: int = POSITION_MOD) -> str:
    """DuckDB oracle: token subscripts (0-based) of the sampled docs.
    Parallel unnests of equal-length lists align positionally."""
    texpr = sql_token_expr("text")
    in_list = ", ".join(f"'{t}'" for t in terms)
    return f"""
WITH toks AS (
  SELECT doc_id, unnest({texpr}) AS term,
         generate_subscripts({texpr}, 1) - 1 AS pos
  FROM documents WHERE doc_id % {mod} = 0
)
SELECT term, doc_id, pos FROM toks
WHERE term IN ({in_list})
ORDER BY term, doc_id, pos
"""


PREFIX_QUERIES = ("s", "b", "mer")


def _multiterm_retrieval(
    sf_dir: str, queries, method_name: str, key_name: str
) -> pa.Table:
    """Shared shape of every constant-score multi-term rewrite
    (Lucene MultiTermQuery): per query string, a Searcher method
    returns (matching engine doc ids, distinct-matching-term counts);
    rows come back keyed by the query under ``key_name``, mapped to
    original ids and sorted per query."""
    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    eng2orig = _eng2orig(index_dir, s.space)
    k_parts, d_parts, n_parts = [], [], []
    for q in queries:
        docs, counts = getattr(s, method_name)(q)
        if docs.size == 0:
            continue
        orig = eng2orig[docs]
        order = np.argsort(orig)
        k_parts.append(np.full(docs.size, q, dtype=object))
        d_parts.append(orig[order])
        n_parts.append(counts[order])
    if not d_parts:
        return pa.table({
            key_name: pa.array([], pa.string()),
            "doc_id": pa.array([], pa.int64()),
            "n_terms": pa.array([], pa.int64()),
        })
    return pa.table({
        key_name: pa.array(np.concatenate(k_parts), pa.string()),
        "doc_id": pa.array(np.concatenate(d_parts), pa.int64()),
        "n_terms": pa.array(np.concatenate(n_parts), pa.int64()),
    })


def _sql_lit(s: str) -> str:
    """Escape a string for interpolation into a SQL single-quoted
    literal (the update_suffix handling at bm25_oracle_sql)."""
    return str(s).replace("'", "''")


def _multiterm_sql(queries, key_name: str, predicate_fmt: str) -> str:
    """DuckDB oracle for a constant-score multi-term rewrite: per
    query, count the distinct analyzed terms matching
    ``predicate_fmt`` (a format string over {q}) per doc."""
    if not queries:
        raise ValueError("queries must be non-empty (an empty tuple "
                         "would yield an empty UNION body)")
    texpr = sql_token_expr("text")
    parts = [
        f"SELECT '{_sql_lit(q)}' AS {key_name}, doc_id, "
        f"count(*) AS n_terms\n"
        f"FROM dt WHERE {predicate_fmt.format(q=_sql_lit(q))} "
        f"GROUP BY doc_id"
        for q in queries
    ]
    union = "\nUNION ALL\n".join(parts)
    return f"""
WITH toks AS (
  SELECT doc_id, unnest({texpr}) AS term FROM documents
),
dt AS (SELECT DISTINCT doc_id, term FROM toks)
{union}
ORDER BY {key_name}, doc_id
"""


def prefix_search(sf_dir: str, prefixes=PREFIX_QUERIES) -> pa.Table:
    """(prefix, doc_id, n_terms): wildcard ``prefix*`` retrieval from
    the dictionary — docs containing any matching term, with the
    distinct-matching-term count (Searcher.search_prefix; Lucene
    MultiTermQuery shape). Exercises the dictionary as a queryable
    artifact, not just a term->postings lookup table."""
    return _multiterm_retrieval(sf_dir, prefixes, "search_prefix", "prefix")


def prefix_search_sql(prefixes=PREFIX_QUERIES) -> str:
    return _multiterm_sql(prefixes, "prefix", "term LIKE '{q}%'")


CONTAINS_QUERIES = ("ar", "in", "or")


def contains_search(sf_dir: str, queries=CONTAINS_QUERIES) -> pa.Table:
    """(substr, doc_id, n_terms): infix ``*substr*`` retrieval from
    the dictionary (Searcher.search_contains; Lucene WildcardQuery
    shape) — the third member of the multi-term rewrite family beside
    prefix and fuzzy."""
    return _multiterm_retrieval(
        sf_dir, queries, "search_contains", "substr"
    )


def contains_search_sql(queries=CONTAINS_QUERIES) -> str:
    return _multiterm_sql(queries, "substr", "contains(term, '{q}')")


# Both engines run RE2 with partial-match semantics (pyarrow
# match_substring_regex / DuckDB regexp_matches), so parity is by
# construction: anchors, classes and alternation evaluate identically.
REGEX_QUERIES = ("^mer", "er$", "^.a", "^[sw]")


def regex_search(sf_dir: str, patterns=REGEX_QUERIES) -> pa.Table:
    """(pattern, doc_id, n_terms): regex retrieval from the dictionary
    (Searcher.search_regex; Lucene RegexpQuery shape) — the fourth
    multi-term rewrite beside prefix, infix and fuzzy. Reference
    analog: ES regexp query over the keyword dictionary
    (ElasticOperations.scala search surface)."""
    return _multiterm_retrieval(
        sf_dir, patterns, "search_regex", "pattern"
    )


def regex_search_sql(patterns=REGEX_QUERIES) -> str:
    return _multiterm_sql(
        patterns, "pattern", "regexp_matches(term, '{q}')"
    )


SUGGEST_PREFIXES = ("s", "b", "w", "f")
# k below the widest prefix's match count ("s" matches 6 terms on the
# testdata vocabulary), so the df-desc ranking is actually exercised
# by the truncation, not just the ordering
SUGGEST_K = 4


def suggest_terms(
    sf_dir: str, prefixes=SUGGEST_PREFIXES, k: int = SUGGEST_K
) -> pa.Table:
    """(prefix, term, df): completion suggestions — for each query
    prefix, the top-k dictionary terms ranked by document frequency
    (df desc, term asc). The ES completion/term-suggester analog
    (reference: the search UI's keyword suggestions over the ES
    dictionary, ElasticOperations.scala), served entirely from the
    index dictionary — no postings decode, no corpus scan."""
    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    ps: list[str] = []
    ts: list[str] = []
    ds: list[int] = []
    for p in prefixes:
        terms, dfs = s.suggest(p, k=k)
        ps += [p] * len(terms)
        ts += terms
        ds += [int(d) for d in dfs]
    return pa.table({
        "prefix": pa.array(ps, pa.string()),
        "term": pa.array(ts, pa.string()),
        "df": pa.array(ds, pa.int64()),
    })


def suggest_terms_sql(
    prefixes=SUGGEST_PREFIXES, k: int = SUGGEST_K
) -> str:
    from sotohp_ray.functions.tokenizer import sql_token_expr

    texpr = sql_token_expr("text")
    if not prefixes:
        raise ValueError("empty prefixes")
    parts = []
    for p in prefixes:
        q = p.replace("'", "''")
        parts.append(
            f"(SELECT '{q}' AS prefix, term, df FROM df\n"
            f"   WHERE term LIKE '{q}%'\n"
            f"   ORDER BY df DESC, term ASC LIMIT {k})"
        )
    body = "\n  UNION ALL\n".join(parts)
    return f"""
WITH toks AS (SELECT doc_id, unnest({texpr}) AS term FROM documents),
d AS (SELECT DISTINCT doc_id, term FROM toks),
df AS (SELECT term, count(*) AS df FROM d GROUP BY term)
{body}
"""


# "ag" has TWO edit-1 vocabulary matches (a, agg) on the testdata, so
# k=1 makes the df-desc ranking and the truncation both load-bearing
# in the oracle compare (the suggest_terms convention)
SPELL_QUERIES = ("qury", "mrge", "batc", "ag")
SPELL_K = 1


def spell_correct(
    sf_dir: str, queries=SPELL_QUERIES, k: int = SPELL_K
) -> pa.Table:
    """(probe, term, df): spell correction ('did you mean') — for
    each probe token, the top-k dictionary terms within Levenshtein
    distance 1 ranked by document frequency (df desc, term asc). The
    ES term-suggester analog (suggest_mode=always, max_edits pinned
    to 1), answered from the dictionary alone: the fuzzy candidate
    scan + the suggest ranking, zero postings decode."""
    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    ps: list[str] = []
    ts: list[str] = []
    ds: list[int] = []
    for q in queries:
        terms, dfs = s.suggest_corrections(q, k=k)
        ps += [q] * len(terms)
        ts += terms
        ds += [int(d) for d in dfs]
    return pa.table({
        "probe": pa.array(ps, pa.string()),
        "term": pa.array(ts, pa.string()),
        "df": pa.array(ds, pa.int64()),
    })


def spell_correct_sql(queries=SPELL_QUERIES, k: int = SPELL_K) -> str:
    if not queries:
        raise ValueError("empty queries")
    texpr = sql_token_expr("text")
    parts = []
    for q in queries:
        lit = _sql_lit(q)
        parts.append(
            f"(SELECT '{lit}' AS probe, term, df FROM df\n"
            f"   WHERE levenshtein(term, '{lit}') <= 1\n"
            f"   ORDER BY df DESC, term ASC LIMIT {k})"
        )
    body = "\n  UNION ALL\n".join(parts)
    return f"""
WITH toks AS (SELECT doc_id, unnest({texpr}) AS term FROM documents),
d AS (SELECT DISTINCT doc_id, term FROM toks),
df AS (SELECT term, count(*) AS df FROM d GROUP BY term)
{body}
"""


SNIPPET_WINDOW = 5


def search_snippets(
    sf_dir: str, queries=DOC_QUERIES, k: int = 10,
    window: int = SNIPPET_WINDOW,
) -> pa.Table:
    """(query_id, doc_id, first_pos, win_lo, win_hi): highlighting —
    for each BM25 top-k result doc, the EARLIEST position of any query
    term in it (from the positional index) and the surrounding
    +-window token span, clamped to [0, doc_len). The end-to-end
    snippet pipeline: ranking from postings, anchor from positions,
    bounds from docmeta — all three index artifacts in one query."""
    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    eng2orig = _eng2orig(index_dir, s.space)
    rows = []
    for qi, q in enumerate(queries):
        full = s.search_exact(q, k=s.space)
        ranked = sorted(
            ((int(eng2orig[d]), round(sc, 4), d) for d, sc in full),
            key=lambda t: (-t[1], t[0]),
        )[:k]
        if not ranked:
            continue
        topk_eng = np.array([d for _, _, d in ranked], dtype=np.int64)
        first = np.full(topk_eng.size, np.iinfo(np.int64).max, np.int64)
        # dedup analyzed terms: each term's position list is scanned
        # once per query regardless of query-term multiplicity
        for term in dict.fromkeys(s.tok.tokens_of(q)):
            docs, tfs, occ = s.term_positions(term)
            if docs.size == 0:
                continue
            # first occurrence per posting = first element of each
            # posting's occ span (positions are ascending per doc)
            starts_ = np.zeros(docs.size, dtype=np.int64)
            np.cumsum(tfs.astype(np.int64)[:-1], out=starts_[1:])
            pos0 = occ[starts_].astype(np.int64)
            idx = np.searchsorted(docs, topk_eng.astype(np.uint64))
            ok = (idx < docs.size) & (
                docs[np.minimum(idx, docs.size - 1)]
                == topk_eng.astype(np.uint64)
            )
            first[ok] = np.minimum(
                first[ok], pos0[np.minimum(idx, docs.size - 1)[ok]]
            )
        dl = s.doc_len[topk_eng].astype(np.int64)
        lo = np.maximum(first - window, 0)
        hi = np.minimum(first + window, dl - 1)
        for (orig, _, _), f, a, b in zip(ranked, first, lo, hi):
            rows.append((qi, orig, int(f), int(a), int(b)))
    return pa.table({
        "query_id": pa.array([r[0] for r in rows], pa.int64()),
        "doc_id": pa.array([r[1] for r in rows], pa.int64()),
        "first_pos": pa.array([r[2] for r in rows], pa.int64()),
        "win_lo": pa.array([r[3] for r in rows], pa.int64()),
        "win_hi": pa.array([r[4] for r in rows], pa.int64()),
    })


def search_snippets_sql(
    queries=DOC_QUERIES, k: int = 10, window: int = SNIPPET_WINDOW,
) -> str:
    """DuckDB oracle: the bm25 top-k CTE joined to min token subscript
    over the query's analyzed terms, windows clamped to doc length."""
    tok = CodeTokenizer()
    texpr = sql_token_expr("text")
    base = bm25_oracle_sql(queries=queries, k=k).strip().rstrip()
    # reuse the whole ranked-top-k query as a subselect
    qterm_vals = []
    for qi, q in enumerate(queries):
        for term in sorted(set(tok.tokens_of(q))):
            qterm_vals.append(f"({qi}, '{term}')")
    vals = ", ".join(qterm_vals)
    return f"""
WITH topk AS ({base}),
toks AS (
  SELECT doc_id, unnest({texpr}) AS term,
         generate_subscripts({texpr}, 1) - 1 AS pos
  FROM documents
),
dlen AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1),
qt(query_id, term) AS (VALUES {vals}),
firsts AS (
  SELECT qt.query_id, t.doc_id, min(t.pos) AS first_pos
  FROM toks t JOIN qt ON qt.term = t.term
  GROUP BY 1, 2
)
SELECT k.query_id, k.doc_id, f.first_pos,
       greatest(f.first_pos - {window}, 0) AS win_lo,
       least(f.first_pos + {window}, d.dl - 1) AS win_hi
FROM topk k
JOIN firsts f ON f.query_id = k.query_id AND f.doc_id = k.doc_id
JOIN dlen d ON d.doc_id = k.doc_id
ORDER BY k.query_id, k.doc_id
"""


FUZZY_QUERIES = ("sow", "ag", "jain")


def fuzzy_search(sf_dir: str, queries=FUZZY_QUERIES) -> pa.Table:
    """(query, doc_id, n_terms): FuzzyQuery retrieval — docs
    containing any dictionary term within Levenshtein distance 1 of
    the query, with distinct-matching-term counts
    (Searcher.search_fuzzy; the one-edit candidate set comes from a
    vectorized exact characterization over the length-filtered
    vocabulary, property-tested against brute-force DP)."""
    return _multiterm_retrieval(sf_dir, queries, "search_fuzzy", "query")


def fuzzy_search_sql(queries=FUZZY_QUERIES) -> str:
    return _multiterm_sql(queries, "query", "levenshtein(term, '{q}') <= 1")


SUFFIX_QUERIES = ("er", "le", "ow", "t")


def suffix_search(sf_dir: str, suffixes=SUFFIX_QUERIES) -> pa.Table:
    """(suffix, doc_id, n_terms): leading-wildcard ``*suffix``
    retrieval from the dictionary (Searcher.search_suffix) — the fifth
    multi-term rewrite beside prefix, infix, regex and fuzzy. ES
    serves this by indexing a reversed copy of every token (the
    reverse-token analyzer technique); here the vectorized dictionary
    scan already costs the same as the prefix path, so ``ends_with``
    IS the reversed-prefix scan with no second dictionary to sync."""
    return _multiterm_retrieval(sf_dir, suffixes, "search_suffix", "suffix")


def suffix_search_sql(suffixes=SUFFIX_QUERIES) -> str:
    return _multiterm_sql(suffixes, "suffix", "term LIKE '%{q}'")


FILTER_LANG = "es"


def bm25_topk_filtered(
    sf_dir: str, queries=DOC_QUERIES, lang: str = FILTER_LANG, k: int = 10
) -> pa.Table:
    """(query_id, doc_id, score): BM25 top-k restricted to docs whose
    ``lang`` metadata matches — Lucene filter-query semantics (idf /
    avgdl / doc length stay corpus-level; the filter only masks the
    candidate set). The mask comes from the index's own docmeta, so
    this is the serving-side metadata-filtered retrieval path (the
    reference filters ES searches by album/time facets the same way,
    ElasticOperations.scala:91-97)."""
    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    # one docmeta read serves both the lang mask and the eng->orig map
    dm = pq.read_table(
        os.path.join(index_dir, "docmeta"),
        columns=["doc_id", "path", "lang"],
    )
    mask = np.zeros(s.space, dtype=bool)
    ids = dm["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    mask[ids] = np.asarray(dm["lang"].to_pandas() == lang)
    eng2orig = _eng2orig(index_dir, s.space, dm=dm)
    rows = []
    for qi, q in enumerate(queries):
        full = s.search_exact(q, k=s.space, mask=mask)
        ranked = sorted(
            ((int(eng2orig[d]), round(sc, 4)) for d, sc in full),
            key=lambda t: (-t[1], t[0]),
        )[:k]
        for d, sc in ranked:
            rows.append((qi, d, sc))
    return pa.table({
        "query_id": pa.array([r[0] for r in rows], pa.int64()),
        "doc_id": pa.array([r[1] for r in rows], pa.int64()),
        "score": pa.array([r[2] for r in rows], pa.float64()),
    })


PAGE_K = 5
PAGE_COUNT = 3


def bm25_topk_paged(
    sf_dir: str, queries=DOC_QUERIES, k: int = PAGE_K,
    n_pages: int = PAGE_COUNT,
) -> pa.Table:
    """(query_id, page, doc_id, score): cursor-paged BM25 retrieval —
    ``n_pages`` consecutive pages of ``k`` results per query, each
    page fetched with ``Searcher.search_after`` chaining the previous
    page's last (score, doc_id) as the cursor (the Elasticsearch
    search_after deep-pagination shape; the reference pages its
    galleries the same first/next cursor way, ApiApp.scala mediaRoutes
    + the O2 cursor ops). The cursor lives in ORIGINAL doc-id space
    via the eng->orig tiebreak gather, so the page sequence equals the
    oracle's row_number() windows over (round(score,4) DESC, doc_id).
    Between pages the cursor round-trips through the opaque
    order-preserving token surface (functions/cursors.py) — the shape
    a client holds; reference MediaAccessKey analog."""
    from sotohp_ray.functions.cursors import decode_cursor, encode_cursor
    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    eng2orig = _eng2orig(index_dir, s.space)
    rows = []
    for qi, q in enumerate(queries):
        token = None
        for page in range(n_pages):
            after = decode_cursor(token) if token else None
            hits = s.search_after(q, k=k, after=after, tiebreak=eng2orig)
            if not hits:
                break
            for d, sc in hits:
                rows.append((qi, page, d, sc))
            token = encode_cursor(hits[-1][1], hits[-1][0])
    return pa.table({
        "query_id": pa.array([r[0] for r in rows], pa.int64()),
        "page": pa.array([r[1] for r in rows], pa.int64()),
        "doc_id": pa.array([r[2] for r in rows], pa.int64()),
        "score": pa.array([r[3] for r in rows], pa.float64()),
    })


def bm25_topk_filtered_paged(
    sf_dir: str, queries=DOC_QUERIES, lang: str = FILTER_LANG,
    k: int = PAGE_K, n_pages: int = PAGE_COUNT,
) -> pa.Table:
    """(query_id, page, doc_id, score): filtered DEEP pagination — the
    metadata mask of bm25_topk_filtered composed with the
    search_after cursor contract of bm25_topk_paged (the combination
    a serving API actually exposes: 'next page of results in language
    X'). Statistics stay corpus-level; the mask only restricts
    candidates; the cursor round-trips through the opaque token."""
    from sotohp_ray.functions.cursors import decode_cursor, encode_cursor
    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    dm = pq.read_table(
        os.path.join(index_dir, "docmeta"),
        columns=["doc_id", "path", "lang"],
    )
    mask = np.zeros(s.space, dtype=bool)
    ids = dm["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    mask[ids] = np.asarray(dm["lang"].to_pandas() == lang)
    eng2orig = _eng2orig(index_dir, s.space, dm=dm)
    rows = []
    for qi, q in enumerate(queries):
        token = None
        for page in range(n_pages):
            after = decode_cursor(token) if token else None
            hits = s.search_after(
                q, k=k, after=after, tiebreak=eng2orig, mask=mask
            )
            if not hits:
                break
            for d, sc in hits:
                rows.append((qi, page, d, sc))
            token = encode_cursor(hits[-1][1], hits[-1][0])
    return pa.table({
        "query_id": pa.array([r[0] for r in rows], pa.int64()),
        "page": pa.array([r[1] for r in rows], pa.int64()),
        "doc_id": pa.array([r[2] for r in rows], pa.int64()),
        "score": pa.array([r[3] for r in rows], pa.float64()),
    })


def bm25_filtered_paged_sql(
    queries=DOC_QUERIES, lang: str = FILTER_LANG,
    k: int = PAGE_K, n_pages: int = PAGE_COUNT,
) -> str:
    base = bm25_oracle_sql(
        queries=queries, k=k * n_pages, filter_lang=lang
    ).strip()
    return f"""
WITH topk AS ({base})
SELECT query_id,
       (row_number() OVER (
          PARTITION BY query_id ORDER BY score DESC, doc_id ASC
        ) - 1) // {k} AS page,
       doc_id, score
FROM topk
ORDER BY query_id, page, doc_id
"""


def bm25_paged_sql(
    queries=DOC_QUERIES, k: int = PAGE_K, n_pages: int = PAGE_COUNT,
) -> str:
    """DuckDB oracle for cursor-paged retrieval: the standard BM25
    ranking CTE windowed into pages by row_number()."""
    base = bm25_oracle_sql(queries=queries, k=k * n_pages).strip()
    return f"""
WITH topk AS ({base})
SELECT query_id,
       (row_number() OVER (
          PARTITION BY query_id ORDER BY score DESC, doc_id ASC
        ) - 1) // {k} AS page,
       doc_id, score
FROM topk
ORDER BY query_id, page, doc_id
"""


SIMILAR_SEEDS = (3, 47, 101)
SIMILAR_M = 5


def similar_docs(
    sf_dir: str, seeds=SIMILAR_SEEDS, m: int = SIMILAR_M, k: int = 10,
) -> pa.Table:
    """(seed_id, doc_id, score): more-like-this retrieval (Lucene
    MoreLikeThis shape) — each seed doc's top-``m`` TF-IDF keywords
    (tf * ln(N/df), df from the index dictionary) become a unit-weight
    BM25 query; results are the top-``k`` docs excluding the seed,
    under the standard (round(score,4) DESC, doc_id ASC) contract.
    Composes three index artifacts: dictionary df for keyword
    selection, postings for scoring, docmeta for the id map."""
    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    eng2orig = _eng2orig(index_dir, s.space)
    n_docs = float(
        pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    )
    seed_t = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        filters=[("doc_id", "in", [int(x) for x in seeds])],
    )
    texts = dict(zip(
        seed_t["doc_id"].to_pylist(), seed_t["text"].to_pylist()
    ))
    rows = []
    for seed in seeds:
        if seed not in texts:
            continue  # absent seed -> no rows, like the SQL oracle
        from collections import Counter

        tf = Counter(s.tok.tokens_of(texts[seed]))
        scored = []
        for term, f in tf.items():
            if term not in s._row:
                continue
            df = float(s._dfs[s._row[term]])
            scored.append(
                (round(f * float(np.log(n_docs / df)), 6), term)
            )
        # (tfidf desc, term asc) — the doc_keywords rank contract
        scored.sort(key=lambda t: (-t[0], t[1]))
        keywords = [t for _, t in scored[:m]]
        scores = s._taat_scores_terms([(t, 1.0) for t in keywords])
        if scores is None:
            continue
        nz = np.flatnonzero(scores > 0.0)
        ranked = sorted(
            ((int(eng2orig[d]), round(float(scores[d]), 4)) for d in nz),
            key=lambda t: (-t[1], t[0]),
        )
        out = [(d, sc) for d, sc in ranked if d != seed][:k]
        for d, sc in out:
            rows.append((seed, d, sc))
    return pa.table({
        "seed_id": pa.array([r[0] for r in rows], pa.int64()),
        "doc_id": pa.array([r[1] for r in rows], pa.int64()),
        "score": pa.array([r[2] for r in rows], pa.float64()),
    })


def similar_docs_sql(
    seeds=SIMILAR_SEEDS, m: int = SIMILAR_M, k: int = 10,
) -> str:
    """DuckDB oracle: the doc_keywords CTE picks each seed's top-m
    keywords, which feed the standard BM25 scoring CTE as unit-weight
    query terms; the seed itself is excluded from its result page."""
    texpr = sql_token_expr("text")
    seed_list = ", ".join(str(int(x)) for x in seeds)
    return f"""
WITH toks AS (
  SELECT doc_id, unnest({texpr}) AS term FROM documents
),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM toks GROUP BY 1, 2),
dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM toks GROUP BY 1),
stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
         (SELECT count(*) FROM toks)::DOUBLE
           / (SELECT count(*) FROM documents) AS avgdl
),
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY 1),
kw AS (
  SELECT tf.doc_id AS seed_id, tf.term
  FROM tf JOIN df USING (term) CROSS JOIN stats s
  WHERE tf.doc_id IN ({seed_list})
  QUALIFY row_number() OVER (
    PARTITION BY tf.doc_id
    ORDER BY round(tf.tf * ln(s.n / df.df), 6) DESC, tf.term ASC
  ) <= {m}
),
scores AS (
  SELECT kw.seed_id, tf.doc_id,
         sum(ln(1.0 + (s.n - df.df + 0.5) / (df.df + 0.5))
             * tf.tf * ({_K1} + 1.0)
             / (tf.tf + {_K1} * (1.0 - {_B} + {_B} * dl.dl / s.avgdl))
         ) AS score
  FROM tf
  JOIN kw ON kw.term = tf.term
  JOIN df ON df.term = tf.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY 1, 2
)
SELECT seed_id, doc_id, round(score, 4) AS score
FROM scores
WHERE doc_id != seed_id
QUALIFY row_number() OVER (
  PARTITION BY seed_id ORDER BY round(score, 4) DESC, doc_id ASC
) <= {k}
ORDER BY seed_id, doc_id
"""


EXCLUDE_KEYWORDS = ("slow",)


def keyword_search_indexed(sf_dir: str, keywords=("fast", "small")) -> pa.Table:
    """(doc_id,): docs whose analyzed term set contains ALL keywords,
    answered FROM THE INVERTED INDEX (posting-set intersection bounded
    by the keywords' df) instead of the full-corpus scan of
    textops.keyword_search — same answer, same SQL oracle, the
    index-backed retrieval path the reference's naive scan was a
    placeholder for (MediaServiceLive.scala:108-112 'temporary')."""
    return keyword_search_excluding(sf_dir, keywords, exclude=())


def keyword_search_excluding(
    sf_dir: str, keywords=("fast", "small"), exclude=EXCLUDE_KEYWORDS,
) -> pa.Table:
    """(doc_id,): docs containing ALL ``keywords`` and NONE of
    ``exclude`` — boolean MUST + MUST_NOT over the inverted index
    (posting-set intersection minus the exclude union, cost bounded
    by the terms' df)."""
    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    # ORACLE PARITY: the SQL checks LITERAL keywords against the
    # analyzed token list, so a literal the analyzer would drop
    # ("42"), case-fold ("Fast") or split ("fooBar") can never match
    # there. The two clauses point OPPOSITE ways: an unmatchable MUST
    # keyword makes list_has_all false for every doc (empty result);
    # an unmatchable MUST_NOT keyword makes list_has_any false for
    # every doc (it excludes NOTHING) — so drop it, never zero the
    # result over it.
    for kw in keywords:
        if s.tok.tokens_of(kw) != [kw]:
            return pa.table({"doc_id": pa.array([], pa.int64())})
    exclude = tuple(kw for kw in exclude if s.tok.tokens_of(kw) == [kw])
    eng2orig = _eng2orig(index_dir, s.space)
    hits = s.search_boolean(
        " ".join(keywords), mode="and",
        exclude=" ".join(exclude) if exclude else None,
    )
    out = np.sort(eng2orig[hits]) if hits.size else np.zeros(0, np.int64)
    return pa.table({"doc_id": pa.array(out, pa.int64())})


def keyword_search_excluding_sql(
    keywords=("fast", "small"), exclude=EXCLUDE_KEYWORDS,
) -> str:
    from sotohp_ray.functions.tokenizer import sql_token_expr

    lst = ", ".join(f"'{_sql_lit(k)}'" for k in keywords)
    ex = ", ".join(f"'{_sql_lit(k)}'" for k in exclude)
    texpr = sql_token_expr("text")
    return (
        f"SELECT doc_id FROM documents "
        f"WHERE list_has_all({texpr}, [{lst}]) "
        f"AND NOT list_has_any({texpr}, [{ex}])"
    )


def bm25_facets(sf_dir: str, queries=DOC_QUERIES) -> pa.Table:
    """(query_id, lang, n_matches): facet counts over ALL matching
    docs per query — the search-plus-aggregation shape of the
    reference's gallery facets (ApiApp.scala search endpoints return
    hit counts per facet alongside the page). Matching = any query
    term present (score > 0).

    The facet join is DISTRIBUTED: matched-id arrays (posting-sized,
    sorted) broadcast once via ``ray.put``; each docmeta batch counts
    its members per (query, lang) with a searchsorted membership test
    + an Arrow group_by, and the driver sums the output-sized
    partials. The earlier shape — a corpus-sized docmeta read plus a
    doc-id-SPACE-sized codes gather on the driver — is exactly what
    does not survive 10^9 docs."""
    import ray
    import ray.data

    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    match = {}
    for qi, q in enumerate(queries):
        # match set = boolean OR over the index (same score>0 docs as
        # exact scoring, without scoring/sorting/objectifying them)
        ids = s.search_boolean(q, mode="or")
        if ids.size:
            match[qi] = np.sort(ids.astype(np.int64))
    empty = pa.table({
        "query_id": pa.array([], pa.int64()),
        "lang": pa.array([], pa.string()),
        "n_matches": pa.array([], pa.int64()),
    })
    if not match:
        return empty
    mref = ray.put(match)

    def partial(batch: pa.Table) -> pa.Table:
        m = ray.get(mref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        parts = []
        for qi, arr in m.items():
            p = np.searchsorted(arr, ids)
            inb = p < arr.size
            mask = np.zeros(ids.size, dtype=bool)
            mask[inb] = arr[p[inb]] == ids[inb]
            if not mask.any():
                continue
            hit = pa.table({
                "lang": pc.filter(batch["lang"], pa.array(mask)),
            })
            g = hit.group_by("lang").aggregate([([], "count_all")])
            parts.append(pa.table({
                "query_id": pa.array(
                    np.full(g.num_rows, qi, dtype=np.int64)
                ),
                "lang": g["lang"],
                "n_partial": g["count_all"],
            }))
        if not parts:
            return pa.table({
                "query_id": pa.array([], pa.int64()),
                "lang": pa.array([], pa.string()),
                "n_partial": pa.array([], pa.int64()),
            })
        return pa.concat_tables(parts)

    cand = (
        ray.data.read_parquet(
            os.path.join(index_dir, "docmeta"),
            columns=["doc_id", "lang"],
        )
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()  # (queries x langs) rows per block: output-sized
    )
    if not len(cand):
        return empty
    agg = (
        cand.groupby(["query_id", "lang"], as_index=False)["n_partial"]
        .sum()
        .sort_values(["query_id", "lang"])
    )
    return pa.table({
        "query_id": pa.array(agg["query_id"].to_numpy(), pa.int64()),
        "lang": pa.array(agg["lang"].astype(str).to_numpy(), pa.string()),
        "n_matches": pa.array(
            agg["n_partial"].to_numpy().astype(np.int64), pa.int64()
        ),
    })


def bm25_facets_sql(queries=DOC_QUERIES) -> str:
    """Matching docs = docs containing ANY analyzed query term."""
    tok = CodeTokenizer()
    texpr = sql_token_expr("text")
    parts = []
    for qi, q in enumerate(queries):
        terms = sorted(set(tok.tokens_of(q)))
        lst = ", ".join(f"'{t}'" for t in terms)
        parts.append(
            f"SELECT {qi} AS query_id, d.lang, count(DISTINCT d.doc_id)"
            f" AS n_matches FROM documents d WHERE EXISTS ("
            f"SELECT 1 FROM unnest({texpr.replace('text', 'd.text')}) "
            f"AS u(t) WHERE t IN ({lst})) GROUP BY d.lang"
        )
    return " UNION ALL ".join(parts) + " ORDER BY query_id, lang"


FACET_BUCKET = 100


def bm25_length_facets(
    sf_dir: str, queries=DOC_QUERIES, bucket: int = FACET_BUCKET
) -> pa.Table:
    """(query_id, bucket_lo, n_matches): numeric histogram facet over
    each query's match set — matched docs bucketed by n_chars (the ES
    histogram/range aggregation on a query's hits, the numeric sibling
    of bm25_facets' term facet). Same distributed shape: matched-id
    arrays (mapped to original ids) broadcast once; each documents
    batch buckets its members vectorized and the driver sums
    output-sized (queries x buckets) partials."""
    import ray
    import ray.data

    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    eng2orig = _eng2orig(index_dir, s.space)
    match = {}
    for qi, q in enumerate(queries):
        ids = s.search_boolean(q, mode="or")
        if ids.size:
            match[qi] = np.sort(eng2orig[ids].astype(np.int64))
    empty = pa.table({
        "query_id": pa.array([], pa.int64()),
        "bucket_lo": pa.array([], pa.int64()),
        "n_matches": pa.array([], pa.int64()),
    })
    if not match:
        return empty
    mref = ray.put(match)

    def partial(batch: pa.Table) -> pa.Table:
        m = ray.get(mref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        nch = batch["n_chars"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        qs, bs, ns = [], [], []
        for qi, arr in m.items():
            p = np.searchsorted(arr, ids)
            inb = p < arr.size
            mask = np.zeros(ids.size, dtype=bool)
            mask[inb] = arr[p[inb]] == ids[inb]
            if not mask.any():
                continue
            lo = (nch[mask] // bucket) * bucket
            ub, cnt = np.unique(lo, return_counts=True)
            qs.append(np.full(ub.size, qi, dtype=np.int64))
            bs.append(ub)
            ns.append(cnt.astype(np.int64))
        if not qs:
            return empty
        return pa.table({
            "query_id": pa.array(np.concatenate(qs), pa.int64()),
            "bucket_lo": pa.array(np.concatenate(bs), pa.int64()),
            "n_matches": pa.array(np.concatenate(ns), pa.int64()),
        })

    cand = (
        ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "n_chars"],
        )
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()  # (queries x buckets) rows per block: output-sized
    )
    if not len(cand):
        return empty
    agg = (
        cand.groupby(["query_id", "bucket_lo"], as_index=False)[
            "n_matches"
        ]
        .sum()
        .sort_values(["query_id", "bucket_lo"])
    )
    return pa.table({
        "query_id": pa.array(agg["query_id"].to_numpy(), pa.int64()),
        "bucket_lo": pa.array(agg["bucket_lo"].to_numpy(), pa.int64()),
        "n_matches": pa.array(
            agg["n_matches"].to_numpy().astype(np.int64), pa.int64()
        ),
    })


SORT_FIELD_K = 30


def search_sort_by_length(
    sf_dir: str, query: str = DOC_QUERIES[0], k: int = SORT_FIELD_K
) -> pa.Table:
    """(doc_id, n_chars): the ES field-sort search — a query's match
    set ordered by a DOC FIELD (n_chars desc, doc_id asc tiebreak)
    instead of relevance, top-``k`` (the ES ``sort`` clause, where
    _score is skipped entirely). Match = any analyzed query term
    present (the bm25_facets match-set convention).

    Shape: the match-id array (posting-sized, sorted) broadcasts
    once; each documents batch keeps its members and emits a per-batch
    top-k partial on (n_chars desc, doc_id asc) — the O6 rule — and
    the <= k-per-block survivors merge on the driver. No score math,
    no corpus-sized sort."""
    import ray
    import ray.data

    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    empty = pa.table({
        "doc_id": pa.array([], pa.int64()),
        "n_chars": pa.array([], pa.int64()),
    })
    ids = s.search_boolean(query, mode="or")
    if not ids.size:
        return empty
    eng2orig = _eng2orig(index_dir, s.space)
    match = np.sort(eng2orig[ids].astype(np.int64))
    mref = ray.put(match)

    def partial(batch: pa.Table) -> pa.Table:
        arr = ray.get(mref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        nch = batch["n_chars"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        p = np.searchsorted(arr, ids)
        inb = p < arr.size
        mask = np.zeros(ids.size, dtype=bool)
        mask[inb] = arr[p[inb]] == ids[inb]
        if not mask.any():
            return empty
        mi, mn = ids[mask], nch[mask]
        top = np.lexsort((mi, -mn))[: min(k, mi.size)]
        return pa.table({
            "doc_id": pa.array(mi[top], pa.int64()),
            "n_chars": pa.array(mn[top], pa.int64()),
        })

    parts = (
        ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "n_chars"],
        )
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()  # <= k per block: tiny driver merge
    )
    if not len(parts):
        return empty
    parts = parts.sort_values(
        ["n_chars", "doc_id"], ascending=[False, True]
    ).head(k)
    return pa.table({
        "doc_id": pa.array(parts["doc_id"].to_numpy(np.int64)),
        "n_chars": pa.array(parts["n_chars"].to_numpy(np.int64)),
    })


def search_sort_by_length_sql(
    query: str = DOC_QUERIES[0], k: int = SORT_FIELD_K
) -> str:
    from sotohp_ray.functions.tokenizer import sql_token_expr

    texpr = sql_token_expr("text")
    lst = ", ".join(f"'{_sql_lit(t)}'" for t in query.split())
    return (
        f"SELECT doc_id, n_chars FROM documents "
        f"WHERE list_has_any({texpr}, [{lst}]) "
        f"ORDER BY n_chars DESC, doc_id ASC LIMIT {k}"
    )


def bm25_length_facets_sql(
    queries=DOC_QUERIES, bucket: int = FACET_BUCKET
) -> str:
    """Matching docs = docs containing ANY analyzed query term (the
    bm25_facets contract), bucketed by n_chars."""
    tok = CodeTokenizer()
    texpr = sql_token_expr("text")
    parts = []
    for qi, q in enumerate(queries):
        terms = sorted(set(tok.tokens_of(q)))
        lst = ", ".join(f"'{_sql_lit(t)}'" for t in terms)
        parts.append(
            f"SELECT {qi} AS query_id,"
            f" (d.n_chars // {bucket}) * {bucket} AS bucket_lo,"
            f" count(*) AS n_matches FROM documents d WHERE EXISTS ("
            f"SELECT 1 FROM unnest({texpr.replace('text', 'd.text')}) "
            f"AS u(t) WHERE t IN ({lst})) GROUP BY 2"
        )
    return (
        " UNION ALL ".join(parts) + " ORDER BY query_id, bucket_lo"
    )


def bm25_lang_stats(sf_dir: str, queries=DOC_QUERIES) -> pa.Table:
    """(query_id, lang, n_matches, avg_chars, max_chars): the ES
    bucket-plus-metric sub-aggregation shape — a terms agg over each
    query's hits with stats metrics inside each bucket (facets answer
    "how many per lang"; this answers "and what do those hits look
    like"). Same distributed discipline as bm25_length_facets: matched
    original-id arrays broadcast once, each documents batch emits
    per-(query, lang) (count, sum, max) partials via unique/bincount,
    the driver merges output-sized partials (sum, sum, max) and
    finishes avg = sum/count."""
    import ray
    import ray.data

    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    eng2orig = _eng2orig(index_dir, s.space)
    match = {}
    for qi, q in enumerate(queries):
        ids = s.search_boolean(q, mode="or")
        if ids.size:
            match[qi] = np.sort(eng2orig[ids].astype(np.int64))
    empty = pa.table({
        "query_id": pa.array([], pa.int64()),
        "lang": pa.array([], pa.string()),
        "n_matches": pa.array([], pa.int64()),
        "avg_chars": pa.array([], pa.float64()),
        "max_chars": pa.array([], pa.int64()),
    })
    if not match:
        return empty
    mref = ray.put(match)

    def partial(batch: pa.Table) -> pa.Table:
        m = ray.get(mref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        nch = batch["n_chars"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        langs = np.asarray(batch["lang"].to_pylist(), dtype=object)
        qs, ls, cs, ss, ms = [], [], [], [], []
        for qi, arr in m.items():
            p = np.searchsorted(arr, ids)
            inb = p < arr.size
            mask = np.zeros(ids.size, dtype=bool)
            mask[inb] = arr[p[inb]] == ids[inb]
            if not mask.any():
                continue
            u, inv = np.unique(langs[mask], return_inverse=True)
            cnt = np.bincount(inv)
            sm = np.bincount(inv, weights=nch[mask]).astype(np.int64)
            mx = np.full(u.size, np.iinfo(np.int64).min, dtype=np.int64)
            np.maximum.at(mx, inv, nch[mask])
            qs.append(np.full(u.size, qi, dtype=np.int64))
            ls.append(u)
            cs.append(cnt.astype(np.int64))
            ss.append(sm)
            ms.append(mx)
        if not qs:
            return pa.table({
                "query_id": pa.array([], pa.int64()),
                "lang": pa.array([], pa.string()),
                "cnt": pa.array([], pa.int64()),
                "sm": pa.array([], pa.int64()),
                "mx": pa.array([], pa.int64()),
            })
        return pa.table({
            "query_id": pa.array(np.concatenate(qs), pa.int64()),
            "lang": pa.array(
                np.concatenate(ls).astype(str), pa.string()
            ),
            "cnt": pa.array(np.concatenate(cs), pa.int64()),
            "sm": pa.array(np.concatenate(ss), pa.int64()),
            "mx": pa.array(np.concatenate(ms), pa.int64()),
        })

    cand = (
        ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "lang", "n_chars"],
        )
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()  # (queries x langs) rows per block: output-sized
    )
    if not len(cand):
        return empty
    agg = (
        cand.groupby(["query_id", "lang"], as_index=False)
        .agg(cnt=("cnt", "sum"), sm=("sm", "sum"), mx=("mx", "max"))
        .sort_values(["query_id", "lang"])
    )
    return pa.table({
        "query_id": pa.array(agg["query_id"].to_numpy(), pa.int64()),
        "lang": pa.array(agg["lang"].tolist(), pa.string()),
        "n_matches": pa.array(agg["cnt"].to_numpy(), pa.int64()),
        "avg_chars": pa.array(
            np.round(
                agg["sm"].to_numpy() / agg["cnt"].to_numpy(), 4
            ),
            pa.float64(),
        ),
        "max_chars": pa.array(agg["mx"].to_numpy(), pa.int64()),
    })


def bm25_lang_stats_sql(queries=DOC_QUERIES) -> str:
    tok = CodeTokenizer()
    texpr = sql_token_expr("text")
    parts = []
    for qi, q in enumerate(queries):
        terms = sorted(set(tok.tokens_of(q)))
        lst = ", ".join(f"'{_sql_lit(t)}'" for t in terms)
        parts.append(
            f"SELECT {qi} AS query_id, d.lang,"
            f" count(*) AS n_matches,"
            f" round(sum(d.n_chars) / count(*)::DOUBLE, 4) AS avg_chars,"
            f" max(d.n_chars) AS max_chars"
            f" FROM documents d WHERE EXISTS ("
            f"SELECT 1 FROM unnest({texpr.replace('text', 'd.text')}) "
            f"AS u(t) WHERE t IN ({lst})) GROUP BY d.lang"
        )
    return " UNION ALL ".join(parts) + " ORDER BY query_id, lang"


COLLAPSE_N = 2


def bm25_top_per_lang(
    sf_dir: str, queries=DOC_QUERIES, n: int = COLLAPSE_N
) -> pa.Table:
    """(query_id, lang, doc_id, score): field collapsing — per query,
    the top-n BM25 docs WITHIN EACH lang group, ranked by the standard
    (round(score,4) desc, doc_id asc) contract. The ES
    collapse / top_hits-per-bucket shape (reference analog: the
    gallery's grouped search views over ES, ApiApp.scala).

    Distributed combiner: per-query (sorted matched ids, rounded
    scores) broadcast once via ``ray.put`` (matched-set-sized, the
    bm25_facets pattern); each documents batch emits its LOCAL top-n
    per (query, lang) — vectorized lexsort + run-boundary arithmetic,
    no per-group loop over rows — and the driver merges the
    (blocks x queries x langs x n)-sized partials. No corpus-sized
    driver state at any point."""
    import ray
    import ray.data

    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    eng2orig = _eng2orig(index_dir, s.space)
    match = {}
    for qi, q in enumerate(queries):
        full = s.search_exact(q, k=s.space)
        if not full:
            continue
        ids = np.array([int(eng2orig[d]) for d, _ in full], np.int64)
        scs = np.array([round(sc, 4) for _, sc in full], np.float64)
        o = np.argsort(ids)
        match[qi] = (ids[o], scs[o])
    empty = pa.table({
        "query_id": pa.array([], pa.int64()),
        "lang": pa.array([], pa.string()),
        "doc_id": pa.array([], pa.int64()),
        "score": pa.array([], pa.float64()),
    })
    if not match:
        return empty
    mref = ray.put(match)

    def partial(batch: pa.Table) -> pa.Table:
        m = ray.get(mref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        langs = np.asarray(batch["lang"].to_pylist(), dtype=object)
        parts = []
        for qi, (mi, ms) in m.items():
            p = np.searchsorted(mi, ids)
            inb = p < mi.size
            mask = np.zeros(ids.size, dtype=bool)
            mask[inb] = mi[p[inb]] == ids[inb]
            if not mask.any():
                continue
            sid = ids[mask]
            ssc = ms[p[mask]]
            slang, lcode = np.unique(
                langs[mask].astype(str), return_inverse=True
            )
            order = np.lexsort((sid, -ssc, lcode))
            lc = lcode[order]
            run_start = np.concatenate(
                ([0], np.flatnonzero(np.diff(lc)) + 1)
            )
            pos_in_run = np.arange(lc.size) - np.repeat(
                run_start, np.diff(np.concatenate((run_start, [lc.size])))
            )
            keep = order[pos_in_run < n]
            parts.append(pa.table({
                "query_id": pa.array(
                    np.full(keep.size, qi, dtype=np.int64)
                ),
                "lang": pa.array(
                    slang[lcode[keep]].tolist(), pa.string()
                ),
                "doc_id": pa.array(sid[keep], pa.int64()),
                "score": pa.array(ssc[keep], pa.float64()),
            }))
        return pa.concat_tables(parts) if parts else empty

    cand = (
        ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "lang"],
        )
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()  # blocks x queries x langs x n rows: output-sized
    )
    if not len(cand):
        return empty
    cand = cand.sort_values(
        ["query_id", "lang", "score", "doc_id"],
        ascending=[True, True, False, True],
    )
    top = cand.groupby(["query_id", "lang"], sort=True).head(n)
    top = top.sort_values(["query_id", "lang", "doc_id"])
    return pa.table({
        "query_id": pa.array(
            top["query_id"].to_numpy(np.int64), pa.int64()
        ),
        "lang": pa.array(top["lang"].astype(str).tolist(), pa.string()),
        "doc_id": pa.array(top["doc_id"].to_numpy(np.int64), pa.int64()),
        "score": pa.array(
            top["score"].to_numpy(np.float64), pa.float64()
        ),
    })


def bm25_top_per_lang_sql(queries=DOC_QUERIES, n: int = COLLAPSE_N) -> str:
    """DuckDB oracle: the full BM25 ranking CTE re-windowed per
    (query, lang)."""
    bm25 = bm25_oracle_sql(queries=queries, k=1_000_000_000)
    return f"""
WITH fullrank AS (SELECT * FROM ({bm25})),
j AS (
  SELECT f.query_id, d.lang, f.doc_id, f.score
  FROM fullrank f JOIN documents d USING (doc_id)
)
SELECT query_id, lang, doc_id, score FROM j
QUALIFY row_number() OVER (
  PARTITION BY query_id, lang ORDER BY score DESC, doc_id ASC
) <= {n}
ORDER BY query_id, lang, doc_id
"""


RRF_C = 60       # the standard reciprocal-rank-fusion constant
RRF_DEPTH = 20   # per-retriever candidate depth
RRF_K = 10


def hybrid_search_rrf(
    sf_dir: str, k: int = RRF_K, depth: int = RRF_DEPTH,
    rrf_c: int = RRF_C,
) -> pa.Table:
    """(query_id, doc_id, rrf): HYBRID retrieval — the lexical BM25
    top-``depth`` list and the vector cosine top-``depth`` list
    (query i pairs text query DOC_QUERIES[i] with query vector
    embeddings[vec_id == i]; vec_id aligns with doc_id in the
    testdata) fused by reciprocal-rank fusion: rrf = sum over lists
    of 1/(c + rank), absent docs contribute 0 (Cormack et al.
    SIGIR'09; the ES 8.x `rrf` retriever shape — reference analog:
    ES search surface, ElasticOperations.scala). Final top-k by
    (rrf desc, doc_id asc).

    Both retrievers run their existing distributed pipelines
    (bm25_topk through the index, knn_cosine's actor pool); the fuse
    itself touches only 2 x queries x depth rows — output-sized by
    construction, no new scan."""
    import pandas as pd

    from sotohp_ray.pipelines.ann import DEFAULT_QUERY_IDS, knn_cosine

    queries = DOC_QUERIES[: len(DEFAULT_QUERY_IDS)]
    lex = bm25_topk(sf_dir, queries=queries, k=depth).to_pandas()
    vec = knn_cosine(sf_dir, k=depth).to_pandas()
    vec = vec.rename(columns={"vec_id": "doc_id"})

    def ranks(df: pd.DataFrame) -> pd.DataFrame:
        # rank by each list's own ordering contract: (rounded score
        # desc, doc_id asc) within query — same as its SQL row_number
        df = df.sort_values(
            ["query_id", "score", "doc_id"],
            ascending=[True, False, True],
        )
        df["r"] = df.groupby("query_id", sort=False).cumcount() + 1
        return df[["query_id", "doc_id", "r"]]

    lr, vr = ranks(lex), ranks(vec)
    fused = lr.merge(
        vr, on=["query_id", "doc_id"], how="outer",
        suffixes=("_lex", "_vec"),
    )
    contrib_l = np.where(
        fused["r_lex"].notna(),
        1.0 / (float(rrf_c) + fused["r_lex"].to_numpy(dtype=np.float64)),
        0.0,
    )
    contrib_v = np.where(
        fused["r_vec"].notna(),
        1.0 / (float(rrf_c) + fused["r_vec"].to_numpy(dtype=np.float64)),
        0.0,
    )
    fused["rrf"] = np.round(contrib_l + contrib_v, 6)
    fused = fused.sort_values(
        ["query_id", "rrf", "doc_id"], ascending=[True, False, True]
    )
    top = fused.groupby("query_id", sort=True).head(k)
    top = top.sort_values(["query_id", "doc_id"])
    return pa.table({
        "query_id": pa.array(
            top["query_id"].to_numpy(dtype=np.int64), pa.int64()
        ),
        "doc_id": pa.array(
            top["doc_id"].to_numpy(dtype=np.int64), pa.int64()
        ),
        "rrf": pa.array(
            top["rrf"].to_numpy(dtype=np.float64), pa.float64()
        ),
    })


def hybrid_search_rrf_sql(
    k: int = RRF_K, depth: int = RRF_DEPTH, rrf_c: int = RRF_C
) -> str:
    """DuckDB oracle: the BM25 oracle CTE (depth-truncated) and the
    cosine top-depth, each row_number-ranked by its own ordering
    contract, FULL OUTER JOINed and fused with the identical IEEE
    expression (1.0/(c+r) + 1.0/(c+r), coalesced to 0)."""
    from sotohp_ray.pipelines.ann import DEFAULT_QUERY_IDS

    queries = DOC_QUERIES[: len(DEFAULT_QUERY_IDS)]
    ids = ", ".join(str(int(i)) for i in DEFAULT_QUERY_IDS)
    bm25 = bm25_oracle_sql(queries=queries, k=depth)
    return f"""
WITH lex AS (
  SELECT query_id, doc_id,
         row_number() OVER (
           PARTITION BY query_id ORDER BY score DESC, doc_id ASC
         ) AS r
  FROM ({bm25})
),
vecq AS (
  SELECT vec_id AS query_id, embedding AS qe
  FROM embeddings WHERE vec_id IN ({ids})
),
vecs AS (
  SELECT q.query_id, e.vec_id AS doc_id,
         round(list_cosine_similarity(
           e.embedding::DOUBLE[], q.qe::DOUBLE[]), 5) AS score
  FROM embeddings e CROSS JOIN vecq q
  WHERE e.vec_id <> q.query_id
),
vec AS (
  SELECT query_id, doc_id,
         row_number() OVER (
           PARTITION BY query_id ORDER BY score DESC, doc_id ASC
         ) AS r
  FROM vecs
  QUALIFY r <= {depth}
),
fused AS (
  SELECT coalesce(l.query_id, v.query_id) AS query_id,
         coalesce(l.doc_id, v.doc_id) AS doc_id,
         round(coalesce(1.0 / ({rrf_c} + l.r), 0)
               + coalesce(1.0 / ({rrf_c} + v.r), 0), 6) AS rrf
  FROM lex l
  FULL OUTER JOIN vec v
    ON l.query_id = v.query_id AND l.doc_id = v.doc_id
)
SELECT query_id, doc_id, rrf FROM fused
QUALIFY row_number() OVER (
  PARTITION BY query_id ORDER BY rrf DESC, doc_id ASC
) <= {k}
ORDER BY query_id, doc_id
"""


SIGTERM_QUERIES = ("sort merge", "query batch")
SIGTERM_K = 10


def significant_terms(
    sf_dir: str, queries=SIGTERM_QUERIES, k: int = SIGTERM_K
) -> pa.Table:
    """(query_id, term, df_fg, df_bg, score): the ES
    significant_terms aggregation — for each query, the top-k terms
    most overrepresented in the query's match set (foreground =
    index-backed boolean AND match) versus the whole corpus
    (background), JLH-scored: (fg_rate - bg_rate) * (fg_rate /
    bg_rate) over document-frequency rates (the ES default heuristic;
    reference analog: ES aggregations beside the search endpoints,
    ElasticOperations.scala).

    Shape: match sets come from the index (search_boolean, engine ids
    mapped to original ids) and broadcast once via ``ray.put``
    (match-set-sized); ONE corpus token pass emits per-batch per-term
    partials (df_bg plus one fg column per query, membership by
    searchsorted); a vocabulary-keyed groupby sums them; per-batch
    top-k combiners + a tiny driver merge pick winners — the
    events_topk_by_value discipline, never a full-vocabulary sort."""
    import ray
    import ray.data

    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    eng2orig = _eng2orig(index_dir, s.space)
    match = {}
    for qi, q in enumerate(queries):
        ids = s.search_boolean(q, mode="and")
        if ids.size:
            match[qi] = np.sort(eng2orig[ids].astype(np.int64))
    empty = pa.table({
        "query_id": pa.array([], pa.int64()),
        "term": pa.array([], pa.string()),
        "df_fg": pa.array([], pa.int64()),
        "df_bg": pa.array([], pa.int64()),
        "score": pa.array([], pa.float64()),
    })
    if not match:
        return empty
    n_fg = {qi: float(arr.size) for qi, arr in match.items()}
    mref = ray.put(match)
    tok = CodeTokenizer()
    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
    )
    n_docs = float(docs.count())  # parquet metadata, no scan
    fg_cols = sorted(match)

    def partial(batch: pa.Table) -> pa.Table:
        m = ray.get(mref)
        tf = tok.term_frequencies(
            batch["text"].combine_chunks().cast(pa.large_string())
        )
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        doc = ids[tf["row_idx"].to_numpy(zero_copy_only=False)]
        cols = {
            "term": tf["term"],
            "df_bg": pa.array(np.ones(len(tf), np.int64)),
        }
        for qi in fg_cols:
            arr = m[qi]
            p = np.searchsorted(arr, doc)
            inb = p < arr.size
            hit = np.zeros(doc.size, dtype=np.int64)
            hit[inb] = (arr[p[inb]] == doc[inb]).astype(np.int64)
            cols[f"fg_{qi}"] = pa.array(hit)
        t = pa.table(cols)
        return t.group_by("term").aggregate(
            [("df_bg", "sum")] + [(f"fg_{qi}", "sum") for qi in fg_cols]
        )

    from ray.data.aggregate import Sum

    agg = docs.map_batches(partial, batch_format="pyarrow").groupby(
        "term"
    ).aggregate(
        Sum("df_bg_sum", alias_name="df_bg"),
        *[Sum(f"fg_{qi}_sum", alias_name=f"fg_{qi}") for qi in fg_cols],
    )

    def topk_partial(tbl: pa.Table) -> pa.Table:
        terms = np.asarray(tbl["term"].to_pylist(), dtype=object)
        bg = tbl["df_bg"].to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        parts = []
        for qi in fg_cols:
            fg = tbl[f"fg_{qi}"].to_numpy(zero_copy_only=False).astype(
                np.float64
            )
            mask = fg > 0
            if not mask.any():
                continue
            fr = fg[mask] / n_fg[qi]
            br = bg[mask] / n_docs
            score = np.round((fr - br) * (fr / br), 6)
            tm = terms[mask].astype(str)
            order = np.lexsort((tm, -score))[:k]
            parts.append(pa.table({
                "query_id": pa.array(
                    np.full(order.size, qi, dtype=np.int64)
                ),
                "term": pa.array(tm[order], pa.string()),
                "df_fg": pa.array(fg[mask][order].astype(np.int64)),
                "df_bg": pa.array(bg[mask][order].astype(np.int64)),
                "score": pa.array(score[order], pa.float64()),
            }))
        if not parts:
            return empty
        return pa.concat_tables(parts)

    cand = agg.map_batches(
        topk_partial, batch_format="pyarrow"
    ).to_pandas()  # <= (blocks x queries x k) rows: output-sized
    if not len(cand):
        return empty
    cand = cand.sort_values(
        ["query_id", "score", "term"], ascending=[True, False, True]
    )
    top = cand.groupby("query_id", sort=True).head(k)
    return pa.Table.from_pandas(top, preserve_index=False)


def significant_terms_sql(
    queries=SIGTERM_QUERIES, k: int = SIGTERM_K
) -> str:
    """DuckDB oracle: same JLH expression shape ((fr - br) * (fr /
    br), each rate one IEEE division) so doubles agree bit-for-bit
    before the shared round(, 6)."""
    tok = CodeTokenizer()
    texpr = sql_token_expr("text")
    blocks, selects = [], []
    for qi, q in enumerate(queries):
        terms = sorted(set(tok.tokens_of(q)))
        lst = ", ".join(f"'{_sql_lit(t)}'" for t in terms)
        blocks.append(f"""
fg{qi} AS (
  SELECT doc_id FROM documents WHERE list_has_all({texpr}, [{lst}])
),
fgc{qi} AS (
  SELECT dt.term, count(*)::BIGINT AS df_fg
  FROM dt JOIN fg{qi} USING (doc_id) GROUP BY dt.term
),
nf{qi} AS (SELECT count(*)::DOUBLE AS nf FROM fg{qi}),
sc{qi} AS (
  SELECT {qi} AS query_id, f.term, f.df_fg, b.df_bg,
         round((f.df_fg / nf.nf - b.df_bg / n.n_docs)
               * ((f.df_fg / nf.nf) / (b.df_bg / n.n_docs)), 6)
           AS score
  FROM fgc{qi} f JOIN bg b USING (term), nf{qi} nf, n
),
top{qi} AS (
  SELECT * FROM sc{qi}
  QUALIFY row_number() OVER (ORDER BY score DESC, term ASC) <= {k}
)""")
        selects.append(f"SELECT * FROM top{qi}")
    body = ",".join(blocks)
    union = "\nUNION ALL\n".join(selects)
    return f"""
WITH toks AS (
  SELECT doc_id, unnest({texpr}) AS term FROM documents
),
dt AS (SELECT DISTINCT doc_id, term FROM toks),
bg AS (SELECT term, count(*)::BIGINT AS df_bg FROM dt GROUP BY term),
n AS (SELECT count(*)::DOUBLE AS n_docs FROM documents),
{body}
{union}
ORDER BY query_id, score DESC, term
"""


PROXIMITY_QUERIES = (
    ("slow", "batch"),
    ("customer", "join"),
    ("window", "query"),
    ("row", "sort"),
)
PROXIMITY_WINDOW = 3


def proximity_topk(
    sf_dir: str, pairs=PROXIMITY_QUERIES, window: int = PROXIMITY_WINDOW,
    k: int = 10,
) -> pa.Table:
    """(query_id, doc_id, score): proximity search — docs where the two
    terms occur within ``window`` positions (either order), BM25-ranked
    with the standard rounding contract."""
    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    eng2orig = _eng2orig(index_dir, s.space)
    rows = []
    for qi, (a, b) in enumerate(pairs):
        full = s.search_proximity(a, b, window=window, k=s.space)
        # tie-break on ORIGINAL ids (map before sorting): identical to
        # engine-id order for fresh/compacted builds (monotonic map),
        # and stays oracle-correct if the index was ever synced
        ranked = sorted(
            ((int(eng2orig[d]), round(sc, 4)) for d, sc in full),
            key=lambda t: (-t[1], t[0]),
        )[:k]
        for d, sc in ranked:
            rows.append((qi, d, sc))
    return pa.table(
        {
            "query_id": pa.array([r[0] for r in rows], pa.int64()),
            "doc_id": pa.array([r[1] for r in rows], pa.int64()),
            "score": pa.array([r[2] for r in rows], pa.float64()),
        }
    )


def proximity_oracle_sql(
    pairs=PROXIMITY_QUERIES, window: int = PROXIMITY_WINDOW, k: int = 10
) -> str:
    tok = CodeTokenizer()
    qvals, match_parts = [], []
    for qi, (a, b) in enumerate(pairs):
        ta, tb = tok.tokens_of(a)[0], tok.tokens_of(b)[0]
        from collections import Counter

        for term, qtf in sorted(Counter([ta, tb]).items()):
            qvals.append(f"({qi}, '{term}', {qtf})")
        match_parts.append(
            f"SELECT DISTINCT {qi} AS query_id, t0.doc_id "
            f"FROM toks t0 JOIN toks t1 ON t1.doc_id = t0.doc_id "
            f"AND abs(t1.pos - t0.pos) <= {window} "
            f"AND t1.term = '{tb}' WHERE t0.term = '{ta}'"
        )
    values_sql = ", ".join(qvals)
    matches_sql = " UNION ALL ".join(match_parts)
    return f"""
WITH {_bm25_positional_cte_prefix()},
q(query_id, term, qtf) AS (VALUES {values_sql}),
matches AS ({matches_sql}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum({_CONTRIB_EXPR}) AS score
  FROM tf
  JOIN q ON q.term = tf.term
  JOIN df ON df.term = tf.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY 1, 2
)
SELECT s.query_id, s.doc_id, round(s.score, 4) AS score
FROM scores s JOIN matches m
  ON m.query_id = s.query_id AND m.doc_id = s.doc_id
QUALIFY row_number() OVER (
  PARTITION BY s.query_id ORDER BY round(s.score, 4) DESC, s.doc_id ASC
) <= {k}
ORDER BY s.query_id, s.doc_id
"""


PINNED_IDS = (42, 7, 256)  # promoted in THIS order, ahead of organic


def bm25_pinned(
    sf_dir: str, queries=DOC_QUERIES, pins=PINNED_IDS, k: int = 10
) -> pa.Table:
    """(query_id, rank, doc_id, score, pinned): the ES ``pinned``
    query — editorially promoted documents occupy the first ranks IN
    THE GIVEN ORDER regardless of relevance (score NULL, the ES
    behavior of synthetic pin scores), then the organic BM25 ranking
    fills the remaining slots with the pinned ids excluded. The
    promoted list is an exact-k curation tool (sponsored results,
    canonical answers); organic ranking statistics are untouched.
    Only pins that EXIST in the index (and are not tombstoned) are
    promoted — the ES pinned query cannot surface a document the
    index does not hold, so absent ids are skipped, not emitted as
    phantom rows."""
    from sotohp_ray.pipelines.delete import load_tombstones
    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    dm = pq.read_table(
        os.path.join(index_dir, "docmeta"), columns=["doc_id", "path"]
    )
    eng2orig = _eng2orig(index_dir, s.space, dm=dm)
    eng = dm["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    orig = pc.cast(dm["path"], pa.int64()).to_numpy(zero_copy_only=False)
    tomb = load_tombstones(index_dir)
    live_orig = set(
        (orig[~np.isin(eng, tomb)] if tomb.size else orig).tolist()
    )
    live_pins = [int(p) for p in pins if int(p) in live_orig]
    pin_set = set(live_pins)
    rows = []
    for qi, q in enumerate(queries):
        rank = 0
        for p in live_pins:
            if rank >= k:
                break
            rows.append((qi, rank, int(p), None, True))
            rank += 1
        full = s.search_exact(q, k=s.space)
        organic = sorted(
            ((int(eng2orig[d]), round(sc, 4)) for d, sc in full
             if int(eng2orig[d]) not in pin_set),
            key=lambda t: (-t[1], t[0]),
        )
        for d, sc in organic[: max(0, k - rank)]:
            rows.append((qi, rank, d, sc, False))
            rank += 1
    return pa.table({
        "query_id": pa.array([r[0] for r in rows], pa.int64()),
        "rank": pa.array([r[1] for r in rows], pa.int64()),
        "doc_id": pa.array([r[2] for r in rows], pa.int64()),
        "score": pa.array([r[3] for r in rows], pa.float64()),
        "pinned": pa.array([r[4] for r in rows], pa.bool_()),
    })


def bm25_pinned_sql(
    queries=DOC_QUERIES, pins=PINNED_IDS, k: int = 10
) -> str:
    pin_vals = ", ".join(
        f"({i}, {int(p)})" for i, p in enumerate(pins)
    )
    return f"""
WITH {_bm25_cte_prefix()},
q(query_id, term, qtf) AS (VALUES {_q_values(queries)}),
qids AS (SELECT DISTINCT query_id FROM q),
pinrows(prank, doc_id) AS (VALUES {pin_vals}),
-- only pins that exist in the corpus are promoted (ES pinned skips
-- absent ids); surviving pins keep their configured relative order
livepins AS (
  SELECT row_number() OVER (ORDER BY prank) - 1 AS prank, doc_id
  FROM pinrows p
  WHERE p.doc_id IN (SELECT doc_id FROM documents)
),
scores AS (
  SELECT q.query_id, tf.doc_id, sum({_CONTRIB_EXPR}) AS score
  FROM tf
  JOIN q ON q.term = tf.term
  JOIN df ON df.term = tf.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY 1, 2
),
organic AS (
  SELECT query_id, doc_id, round(score, 4) AS score,
         row_number() OVER (
           PARTITION BY query_id
           ORDER BY round(score, 4) DESC, doc_id ASC
         ) - 1 + (SELECT count(*) FROM livepins) AS rank
  FROM scores
  WHERE doc_id NOT IN (SELECT doc_id FROM livepins)
),
unioned AS (
  SELECT qids.query_id, p.prank AS rank, p.doc_id,
         NULL::DOUBLE AS score, TRUE AS pinned
  FROM qids CROSS JOIN livepins p
  UNION ALL
  SELECT query_id, rank, doc_id, score, FALSE AS pinned FROM organic
)
SELECT query_id, rank::BIGINT AS rank, doc_id, score, pinned
FROM unioned WHERE rank < {k}
ORDER BY query_id, rank
"""


FUZZY_MATCH_QUERIES = (
    "spark sorr merge",
    "hash joim",
    "windoq batch",
    "qery data filtr",
)


def bm25_fuzzy_topk(
    sf_dir: str, queries=FUZZY_MATCH_QUERIES, k: int = 10
) -> pa.Table:
    """(query_id, doc_id, score): the ES ``match`` query with
    fuzziness — SCORED fuzzy retrieval, unlike the constant-score
    ``fuzzy_search`` rewrite: every analyzed query term expands to the
    dictionary terms within edit distance 1 (itself included when
    present), and a doc's score SUMS the BM25 contribution of every
    (query term, expansion) pair, each expansion scored with ITS OWN
    tf and df (rare corrections rank higher than common ones — the
    behavior that makes typo tolerance useful). The
    SHOULD-over-expansions contract is shared verbatim with the
    oracle. Expansion uses the vectorized exact one-edit kernel
    (``fuzzy_terms``), whose parity with DuckDB ``levenshtein`` is
    already oracle-proven by fuzzy_search."""
    from collections import Counter

    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    eng2orig = _eng2orig(index_dir, s.space)
    rows = []
    for qi, q in enumerate(queries):
        scores = np.zeros(s.space, dtype=np.float64)
        for t, w in sorted(Counter(s.tok.tokens_of(q)).items()):
            for e in s.fuzzy_terms(t):
                d, f = s._decode_full(e)
                scores[d] += s._contrib(
                    float(w), int(s._dfs[s._row[e]]),
                    f.astype(np.float64), s.doc_len[d],
                )
        if s._tomb is not None:
            scores[s._tomb] = 0.0
        nz = np.flatnonzero(scores > 0.0)
        ranked = sorted(
            ((int(eng2orig[d]), round(float(scores[d]), 4)) for d in nz),
            key=lambda t: (-t[1], t[0]),
        )[:k]
        for d, sc in ranked:
            rows.append((qi, d, sc))
    return pa.table({
        "query_id": pa.array([r[0] for r in rows], pa.int64()),
        "doc_id": pa.array([r[1] for r in rows], pa.int64()),
        "score": pa.array([r[2] for r in rows], pa.float64()),
    })


def bm25_fuzzy_topk_sql(queries=FUZZY_MATCH_QUERIES, k: int = 10) -> str:
    from collections import Counter

    tok = CodeTokenizer()
    vals = []
    for qi, q in enumerate(queries):
        for term, qtf in sorted(Counter(tok.tokens_of(q)).items()):
            vals.append(f"({qi}, '{term}', {qtf})")
    contrib = _CONTRIB_EXPR.replace("q.qtf", "e.qtf")
    return f"""
WITH {_bm25_cte_prefix()},
qv(query_id, qterm, qtf) AS (VALUES {", ".join(vals)}),
dict AS (SELECT DISTINCT term FROM toks),
e AS (
  SELECT v.query_id, v.qtf, d.term
  FROM qv v JOIN dict d ON levenshtein(d.term, v.qterm) <= 1
),
scores AS (
  SELECT e.query_id, tf.doc_id, sum({contrib}) AS score
  FROM tf
  JOIN e ON e.term = tf.term
  JOIN df ON df.term = tf.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY 1, 2
)
SELECT query_id, doc_id, round(score, 4) AS score
FROM scores
QUALIFY row_number() OVER (
  PARTITION BY query_id ORDER BY round(score, 4) DESC, doc_id ASC
) <= {k}
ORDER BY query_id, doc_id
"""


ADJACENCY_TERMS = ("hash", "join", "sort", "merge", "window", "stream")


def term_adjacency_matrix(
    sf_dir: str, terms=ADJACENCY_TERMS
) -> pa.Table:
    """(t1, t2, n_docs): the ES ``adjacency_matrix`` aggregation —
    for every unordered pair of named filters (here: single-term
    filters, t1 <= t2, diagonal included), the number of docs matching
    BOTH. Answered entirely from the index: each term's posting doc
    set decodes once, pairs are sorted-array intersections — df-
    bounded, no corpus scan, no shuffle."""
    from sotohp_ray.pipelines.query import Searcher

    s = Searcher(documents_index(sf_dir))
    tok = CodeTokenizer()
    sets = {}
    for t in terms:
        at = tok.tokens_of(t)
        if len(at) != 1:
            raise ValueError("adjacency filters must be single terms")
        a = at[0]
        if a in s._row:
            d, _ = s._decode_full(a)
            d = d.astype(np.int64)
            if s._tomb is not None:
                d = d[s._live_mask(d)]
            sets[a] = d
        else:
            sets[a] = np.zeros(0, dtype=np.int64)
    names = sorted(sets)
    rows = []
    for i, a in enumerate(names):
        for b in names[i:]:
            if a == b:
                n = sets[a].size
            else:
                n = int(np.isin(
                    sets[a], sets[b], assume_unique=True, kind="sort"
                ).sum())
            rows.append((a, b, n))
    return pa.table({
        "t1": pa.array([r[0] for r in rows], pa.string()),
        "t2": pa.array([r[1] for r in rows], pa.string()),
        "n_docs": pa.array([r[2] for r in rows], pa.int64()),
    })


def term_adjacency_matrix_sql(terms=ADJACENCY_TERMS) -> str:
    tok = CodeTokenizer()
    texpr = sql_token_expr("text")
    names = sorted({tok.tokens_of(t)[0] for t in terms})
    parts = []
    for i, a in enumerate(names):
        for b in names[i:]:
            cond = (
                f"list_contains({texpr}, '{a}')"
                if a == b else
                f"list_contains({texpr}, '{a}')"
                f" AND list_contains({texpr}, '{b}')"
            )
            parts.append(
                f"SELECT '{a}' AS t1, '{b}' AS t2,"
                f" count(*) FILTER (WHERE {cond}) AS n_docs"
                f" FROM documents"
            )
    return " UNION ALL ".join(parts) + " ORDER BY t1, t2"


MGET_DOC_IDS = (0, 7, 42, 123, 404, 499, 1_000_000)  # last id absent


def docs_mget(sf_dir: str, doc_ids=MGET_DOC_IDS) -> pa.Table:
    """(doc_id, lang, content_sha256, n_tokens): point reads from the
    INDEX's denormalized docmeta store — the ES ``_mget`` endpoint and
    the M12 search-doc-projection READBACK: the oracle recomputes the
    same fields from the RAW documents table (DuckDB sha256 + the RE2
    token-count expression), so a green row proves the denormalized
    projection survives the build byte-for-byte. Absent ids are
    omitted (ES found=false). The docmeta read is predicate-pushdown
    on path (the zero-padded original id) — id-list-sized, never a
    table scan. Tombstoned docs are omitted too (ES _mget reports
    found=false for deleted documents): the engine doc_id rides along
    in the fetch and is checked against the tombstone set."""
    from sotohp_ray.pipelines.delete import load_tombstones

    index_dir = documents_index(sf_dir)
    keys = [f"{int(d):010d}" for d in doc_ids]
    t = pq.read_table(
        os.path.join(index_dir, "docmeta"),
        columns=["doc_id", "path", "lang", "content_sha256", "doc_len"],
        filters=[("path", "in", keys)],
    )
    tomb = load_tombstones(index_dir)
    if tomb.size:
        eng = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        t = t.filter(pa.array(~np.isin(eng, tomb)))
    ids = pc.cast(t["path"], pa.int64())
    order = pc.sort_indices(ids)
    return pa.table({
        "doc_id": ids.take(order),
        "lang": t["lang"].take(order).combine_chunks().cast(pa.string()),
        "content_sha256": t["content_sha256"].take(order)
        .combine_chunks().cast(pa.string()),
        "n_tokens": t["doc_len"].take(order).combine_chunks()
        .cast(pa.int64()),
    })


def docs_mget_sql(doc_ids=MGET_DOC_IDS) -> str:
    texpr = sql_token_expr("text")
    ids = ", ".join(str(int(d)) for d in doc_ids)
    return f"""
        SELECT doc_id, lang, sha256(text) AS content_sha256,
               CAST(coalesce(len({texpr}), 0) AS BIGINT) AS n_tokens
        FROM documents WHERE doc_id IN ({ids}) ORDER BY doc_id
    """


def search_count(sf_dir: str, queries=DOC_QUERIES) -> pa.Table:
    """(query_id, n_matches): the ES ``_count`` endpoint — match-set
    sizes straight from the index (boolean OR over the query terms,
    df-bounded posting reads), no scoring, no paging, no fetch."""
    from sotohp_ray.pipelines.query import Searcher

    s = Searcher(documents_index(sf_dir))
    rows = [
        (qi, int(s.search_boolean(q, mode="or").size))
        for qi, q in enumerate(queries)
    ]
    return pa.table({
        "query_id": pa.array([r[0] for r in rows], pa.int64()),
        "n_matches": pa.array([r[1] for r in rows], pa.int64()),
    })


def search_count_sql(queries=DOC_QUERIES) -> str:
    tok = CodeTokenizer()
    texpr = sql_token_expr("text")
    parts = []
    for qi, q in enumerate(queries):
        terms = sorted(set(tok.tokens_of(q)))
        lst = ", ".join(f"'{_sql_lit(t)}'" for t in terms)
        parts.append(
            f"SELECT {qi} AS query_id, count(*) AS n_matches"
            f" FROM documents d WHERE EXISTS ("
            f"SELECT 1 FROM unnest({texpr.replace('text', 'd.text')}) "
            f"AS u(t) WHERE t IN ({lst}))"
        )
    return " UNION ALL ".join(parts) + " ORDER BY query_id"


SPAN_NEAR_QUERIES = (
    ("slow", "batch"),
    ("hash", "join"),
    ("join", "hash"),  # direction sensitivity: reverse of the above
    ("window", "query"),
)
SPAN_NEAR_WINDOW = 3


def span_near_topk(
    sf_dir: str, pairs=SPAN_NEAR_QUERIES, window: int = SPAN_NEAR_WINDOW,
    k: int = 10,
) -> pa.Table:
    """(query_id, doc_id, score): ORDERED span-near (Lucene span_near
    in_order=true) — docs where the second term FOLLOWS the first
    within ``window`` positions, BM25-ranked; the direction-sensitive
    sibling of proximity_topk (the fixture includes a reversed pair to
    prove direction matters)."""
    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    eng2orig = _eng2orig(index_dir, s.space)
    rows = []
    for qi, (a, b) in enumerate(pairs):
        full = s.search_span_near(a, b, window=window, k=s.space)
        ranked = sorted(
            ((int(eng2orig[d]), round(sc, 4)) for d, sc in full),
            key=lambda t: (-t[1], t[0]),
        )[:k]
        for d, sc in ranked:
            rows.append((qi, d, sc))
    return pa.table({
        "query_id": pa.array([r[0] for r in rows], pa.int64()),
        "doc_id": pa.array([r[1] for r in rows], pa.int64()),
        "score": pa.array([r[2] for r in rows], pa.float64()),
    })


def span_near_oracle_sql(
    pairs=SPAN_NEAR_QUERIES, window: int = SPAN_NEAR_WINDOW, k: int = 10
) -> str:
    """Like the proximity oracle but the positional join is ordered:
    t1.pos BETWEEN t0.pos + 1 AND t0.pos + window."""
    tok = CodeTokenizer()
    from collections import Counter

    qvals, match_parts = [], []
    for qi, (a, b) in enumerate(pairs):
        ta, tb = tok.tokens_of(a)[0], tok.tokens_of(b)[0]
        for term, qtf in sorted(Counter([ta, tb]).items()):
            qvals.append(f"({qi}, '{term}', {qtf})")
        match_parts.append(
            f"SELECT DISTINCT {qi} AS query_id, t0.doc_id "
            f"FROM toks t0 JOIN toks t1 ON t1.doc_id = t0.doc_id "
            f"AND t1.pos BETWEEN t0.pos + 1 AND t0.pos + {window} "
            f"AND t1.term = '{tb}' WHERE t0.term = '{ta}'"
        )
    return f"""
WITH {_bm25_positional_cte_prefix()},
q(query_id, term, qtf) AS (VALUES {", ".join(qvals)}),
matches AS ({" UNION ALL ".join(match_parts)}),
scores AS (
  SELECT q.query_id, tf.doc_id, sum({_CONTRIB_EXPR}) AS score
  FROM tf
  JOIN q ON q.term = tf.term
  JOIN df ON df.term = tf.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY 1, 2
)
SELECT s.query_id, s.doc_id, round(s.score, 4) AS score
FROM scores s JOIN matches m
  ON m.query_id = s.query_id AND m.doc_id = s.doc_id
QUALIFY row_number() OVER (
  PARTITION BY s.query_id ORDER BY round(s.score, 4) DESC, s.doc_id ASC
) <= {k}
ORDER BY s.query_id, s.doc_id
"""


DELETED_DOC_IDS = (3, 17, 54, 121, 200)


def deleted_documents_index(
    sf_dir: str, deleted_ids=DELETED_DOC_IDS
) -> str:
    """A copy of the documents index with ``deleted_ids`` tombstoned
    and compacted (cached per (corpus, id-set)). The delete+compact
    path of S5 — ElasticOperations.scala:113-130 analog."""
    import shutil

    from sotohp_ray.pipelines.delete import compact_index, delete_docs

    base = documents_index(sf_dir)
    key = hashlib.sha256(
        ("del:" + ",".join(str(i) for i in deleted_ids)).encode()
    ).hexdigest()[:8]
    index_dir = os.path.join(_cache_dir(sf_dir), f"index-del-{key}")
    marker = os.path.join(index_dir, "_DELETE_DONE.json")
    if os.path.exists(marker):
        return index_dir
    if os.path.isdir(index_dir):
        shutil.rmtree(index_dir)
    shutil.copytree(base, index_dir)
    n = delete_docs(
        index_dir, paths=[f"{i:010d}" for i in deleted_ids]
    )
    compact_index(index_dir)
    import json as _json

    with open(marker, "w") as f:
        _json.dump({"deleted": list(deleted_ids), "tombstoned": n}, f)
    return index_dir


def bm25_topk_deleted(
    sf_dir: str, queries=DOC_QUERIES, k: int = 10,
    deleted_ids=DELETED_DOC_IDS,
) -> pa.Table:
    """(query_id, doc_id, score) AFTER deleting ``deleted_ids`` and
    compacting — must equal a from-scratch BM25 over the surviving
    docs (the oracle recomputes df/N/avgdl on the filtered table)."""
    from sotohp_ray.pipelines.query import Searcher

    index_dir = deleted_documents_index(sf_dir, deleted_ids)
    s = Searcher(index_dir)
    eng2orig = _eng2orig(index_dir, s.space)
    rows = []
    for qi, q in enumerate(queries):
        full = s.search_exact(q, k=s.space)
        # tie-break on ORIGINAL ids (map before sorting): identical to
        # engine-id order for fresh/compacted builds (monotonic map),
        # and stays oracle-correct if the index was ever synced
        ranked = sorted(
            ((int(eng2orig[d]), round(sc, 4)) for d, sc in full),
            key=lambda t: (-t[1], t[0]),
        )[:k]
        for d, sc in ranked:
            rows.append((qi, d, sc))
    return pa.table(
        {
            "query_id": pa.array([r[0] for r in rows], pa.int64()),
            "doc_id": pa.array([r[1] for r in rows], pa.int64()),
            "score": pa.array([r[2] for r in rows], pa.float64()),
        }
    )


DELETE_QUERY = "hash join"
def bm25_topk_delete_by_query(
    sf_dir: str, queries=DOC_QUERIES, k: int = 10,
    delete_query: str = DELETE_QUERY,
) -> pa.Table:
    """(query_id, doc_id, score): the ES _delete_by_query API — docs
    matching ALL analyzed terms of ``delete_query`` are tombstoned and
    compacted, then the standard BM25 suite runs over the survivors
    (statistics fully recomputed, same contract as bm25_topk_deleted).
    The delete set comes from the index itself (search_boolean
    mode=and, posting-set-intersection cost), composing S5's
    tombstone+compact path with J6's boolean retrieval; the oracle
    excludes via the same all-terms match on the analyzed token list."""
    from sotohp_ray.pipelines.query import Searcher

    base = documents_index(sf_dir)
    s0 = Searcher(base)
    hits = s0.search_boolean(delete_query, mode="and")
    e2o = _eng2orig(base, s0.space)
    del_ids = tuple(sorted(int(i) for i in e2o[hits]))
    index_dir = deleted_documents_index(sf_dir, del_ids)
    s = Searcher(index_dir)
    eng2orig = _eng2orig(index_dir, s.space)
    rows = []
    for qi, q in enumerate(queries):
        full = s.search_exact(q, k=s.space)
        ranked = sorted(
            ((int(eng2orig[d]), round(sc, 4)) for d, sc in full),
            key=lambda t: (-t[1], t[0]),
        )[:k]
        for d, sc in ranked:
            rows.append((qi, d, sc))
    return pa.table(
        {
            "query_id": pa.array([r[0] for r in rows], pa.int64()),
            "doc_id": pa.array([r[1] for r in rows], pa.int64()),
            "score": pa.array([r[2] for r in rows], pa.float64()),
        }
    )


class _ShardSearcher:
    """Actor-pool batch-query stage: the Searcher (dictionary shard
    group + doc lengths) is loaded ONCE per actor in ``__init__`` — the
    genuinely-expensive-state case the actor-pool pattern exists for
    (DJL predictor pattern, FacesProcessor.scala:167-192; the
    broadcast small side is the eng->orig docid map, ray.put once,
    FaceInference.scala:63-76 pattern). At fleet scale one pool serves
    each dictionary-shard group and queries fan out."""

    def __init__(self, index_dir: str, k: int, mapref=None,
                 mode: str = "oracle", group_actors=None):
        import ray

        from sotohp_ray.pipelines.query import FanoutSearcher, Searcher

        if group_actors is not None:
            # sharded serving: this pool actor holds NO dictionary at
            # all — exact scoring fans out to the shard-group servers
            # and merges per-term contributions (bit-identical to a
            # full-dictionary search_exact; see FanoutSearcher), and
            # serve-mode top-k runs the distributed block-max WAND
            # threshold-exchange (FanoutSearcher.search_wand); phrase
            # and proximity route per-term to the owning groups
            self.searcher = FanoutSearcher(
                index_dir, n_groups=len(group_actors),
                actors=group_actors,
            )
        else:
            self.searcher = Searcher(index_dir)
        self.k = k
        self.eng2orig = ray.get(mapref) if mapref is not None else None
        self.mode = mode

    def _serve_batch(self, batch: pa.Table) -> pa.Table:
        """Production serving path: adaptive block-max WAND, top-k
        only. Query-syntax routing: "quoted" -> phrase; a NEAR/3 b ->
        proximity; else free terms (Lucene-ish surface). Plain term
        queries are BATCHED through ``search_wand_many``: a sharded
        searcher answers the batch in two RPC rounds, so fan-out RPC
        latency amortizes across the batch instead of repeating per
        query."""
        q_ids, doc_ids, scores = [], [], []
        qis = batch["query_id"].to_pylist()
        qs = batch["query"].to_pylist()
        hits_of: list = [None] * len(qs)
        plain: list[int] = []
        for r, q in enumerate(qs):
            if q.startswith('"') and q.endswith('"') and len(q) > 2:
                hits_of[r] = self.searcher.search_phrase(q[1:-1], self.k)
            elif " NEAR/" in q:
                try:
                    left, rest = q.split(" NEAR/", 1)
                    w, right = rest.split(" ", 1)
                    hits_of[r] = self.searcher.search_proximity(
                        left.strip(), right.strip(), window=int(w),
                        k=self.k,
                    )
                except ValueError:
                    # malformed NEAR syntax must not kill the serving
                    # actor — degrade to term search
                    plain.append(r)
            else:
                plain.append(r)
        for r, h in zip(plain, self.searcher.search_wand_many(
            [qs[r] for r in plain], self.k
        )):
            hits_of[r] = h
        for qi, hits in zip(qis, hits_of):
            for d, sc in hits:
                q_ids.append(qi)
                doc_ids.append(
                    int(self.eng2orig[d])
                    if self.eng2orig is not None
                    else int(d)
                )
                scores.append(sc)
        return pa.table(
            {
                "query_id": pa.array(q_ids, pa.int64()),
                "doc_id": pa.array(doc_ids, pa.int64()),
                "score": pa.array(scores, pa.float64()),
            }
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        q_ids, doc_ids, scores = [], [], []
        if self.mode == "serve":
            return self._serve_batch(batch)
        for qi, q in zip(
            batch["query_id"].to_pylist(), batch["query"].to_pylist()
        ):
            # oracle path: exact scores over all matches, then the
            # rounding contract (round(score,4) desc, doc_id asc) —
            # identical ranking rule to the SQL oracle
            full = self.searcher.search_exact(q, k=self.searcher.space)
            ranked = sorted(
                ((int(self.eng2orig[d]), round(sc, 4)) for d, sc in full),
                key=lambda t: (-t[1], t[0]),
            )[: self.k]
            for d, sc in ranked:
                q_ids.append(qi)
                doc_ids.append(d)
                scores.append(sc)
        return pa.table(
            {
                "query_id": pa.array(q_ids, pa.int64()),
                "doc_id": pa.array(doc_ids, pa.int64()),
                "score": pa.array(scores, pa.float64()),
            }
        )


def bm25_topk_distributed(
    sf_dir: str, queries=DOC_QUERIES, k: int = 10, n_groups: int = 4
):
    """Same result as ``bm25_topk`` but served THROUGH Ray Data with
    the index SHARDED: one ``_GroupServer`` actor per dictionary shard
    group (each loads ONLY its shards — per-actor dictionary memory
    scales with the group, not the vocabulary), a pool of stateless
    query workers fanning each query's terms out to the groups that
    own them and merging exact BM25 contributions (verified against
    the same SQL oracle). The sharded-serving path the reference gets
    from Elasticsearch (ElasticOperations.scala:91-97)."""
    import ray
    import ray.data

    from sotohp_ray.pipelines.query import FanoutSearcher

    index_dir = documents_index(sf_dir)
    dm = pq.read_table(
        os.path.join(index_dir, "docmeta"), columns=["doc_id"]
    )
    space = int(np.max(dm["doc_id"].to_numpy(zero_copy_only=False)) + 1)
    mapref = ray.put(_eng2orig(index_dir, space))
    group_actors = FanoutSearcher(index_dir, n_groups).actors
    qds = ray.data.from_items(
        [{"query_id": i, "query": q} for i, q in enumerate(queries)]
    )
    return qds.map_batches(
        _ShardSearcher,
        fn_constructor_kwargs={
            "index_dir": index_dir, "k": k, "mapref": mapref,
            "group_actors": group_actors,
        },
        batch_format="pyarrow",
        concurrency=_pool(max_frac=0.5),
        batch_size=4,
    )


UPDATED_DOC_IDS = (7, 42, 99, 123, 250)
UPDATE_SUFFIX = " zanzibar quartz flux batch window"


def updated_documents_index(
    sf_dir: str, updated_ids=UPDATED_DOC_IDS, suffix=UPDATE_SUFFIX
) -> str:
    """A copy of the documents index brought up to date via the
    per-doc SYNC path (pipelines/update.py): the full corpus is
    re-presented with ``updated_ids``' texts modified; sync detects
    exactly those K docs by content hash, tombstones their old engine
    ids, indexes them as one increment partition, and compacts. Cached
    per (corpus, id-set). Reference analog: synchronizeState hash
    resync, MediaServiceLive.scala:1317-1349."""
    import shutil

    from sotohp_ray.pipelines.update import sync_changed_docs

    base = documents_index(sf_dir)
    key = hashlib.sha256(
        ("upd:" + ",".join(str(i) for i in updated_ids) + suffix).encode()
    ).hexdigest()[:8]
    index_dir = os.path.join(_cache_dir(sf_dir), f"index-upd-{key}")
    marker = os.path.join(index_dir, "_SYNC_DONE.json")
    if os.path.exists(marker):
        return index_dir
    if os.path.isdir(index_dir):
        shutil.rmtree(index_dir)
    shutil.copytree(base, index_dir)

    t = pq.read_table(f"{sf_dir}/documents.parquet")
    ids = t["doc_id"].to_numpy(zero_copy_only=False)
    texts = t["text"].to_pylist()
    upd = set(int(i) for i in updated_ids)
    texts = [
        (x + suffix) if int(i) in upd else x for i, x in zip(ids, texts)
    ]
    incoming = pa.table({
        "repo": pa.array(["docs"] * len(ids)),
        "path": pa.array([f"{int(d):010d}" for d in ids]),
        "commit": pa.array(["0"] * len(ids)),
        "lang": t["lang"].combine_chunks().cast(pa.string()),
        "content": pa.array(texts, pa.large_string()),
    })
    out = sync_changed_docs(index_dir, incoming)
    assert out["changed"] == len(upd), out
    import json as _json

    with open(marker, "w") as f:
        _json.dump({"updated": sorted(upd), **{
            k: v for k, v in out.items() if k != "stats"}}, f)
    return index_dir


def bm25_topk_updated(
    sf_dir: str, queries=DOC_QUERIES, k: int = 10,
    updated_ids=UPDATED_DOC_IDS, suffix=UPDATE_SUFFIX,
) -> pa.Table:
    """(query_id, doc_id, score) AFTER the per-doc sync updated
    ``updated_ids``' texts — must equal a from-scratch BM25 over the
    MODIFIED table (the oracle rewrites those docs' text in SQL and
    recomputes df/N/avgdl)."""
    from sotohp_ray.pipelines.query import Searcher

    index_dir = updated_documents_index(sf_dir, updated_ids, suffix)
    s = Searcher(index_dir)
    eng2orig = _eng2orig(index_dir, s.space)
    rows = []
    for qi, q in enumerate(queries):
        full = s.search_exact(q, k=s.space)
        # map to ORIGINAL ids BEFORE the tie-break sort: in a synced
        # index the updated docs sit at the TOP of the engine id space,
        # so engine-id order is NOT original-id order and a
        # round(score,4) tie at the k boundary would resolve
        # differently than the SQL oracle's ORDER BY doc_id ASC
        ranked = sorted(
            ((int(eng2orig[d]), round(sc, 4)) for d, sc in full),
            key=lambda t: (-t[1], t[0]),
        )[:k]
        for d, sc in ranked:
            rows.append((qi, d, sc))
    return pa.table(
        {
            "query_id": pa.array([r[0] for r in rows], pa.int64()),
            "doc_id": pa.array([r[1] for r in rows], pa.int64()),
            "score": pa.array([r[2] for r in rows], pa.float64()),
        }
    )


UPDATE_QUERY = "query data filter"


def bm25_topk_update_by_query(
    sf_dir: str, queries=DOC_QUERIES, k: int = 10,
    update_query: str = UPDATE_QUERY, suffix: str = UPDATE_SUFFIX,
) -> pa.Table:
    """(query_id, doc_id, score): the ES _update_by_query API — every
    doc matching ALL analyzed terms of ``update_query`` gets its text
    rewritten (suffix append) through the per-doc SYNC path
    (hash-diff detect, tombstone, increment, compact — the
    bm25_topk_updated machinery), then the BM25 suite re-scores with
    fully recomputed statistics. The update set comes from the index
    (boolean AND retrieval); the oracle rewrites via the same
    all-terms match on the analyzed token list."""
    from sotohp_ray.pipelines.query import Searcher

    base = documents_index(sf_dir)
    s0 = Searcher(base)
    hits = s0.search_boolean(update_query, mode="and")
    ids = tuple(sorted(int(i) for i in _eng2orig(base, s0.space)[hits]))
    return bm25_topk_updated(
        sf_dir, queries, k, updated_ids=ids, suffix=suffix
    )


def bm25_oracle_sql(
    queries=DOC_QUERIES, k: int = 10, exclude_ids=None,
    update_ids=None, update_suffix=UPDATE_SUFFIX, filter_lang=None,
    boost_nchars: float | None = None, exclude_match_terms=None,
    update_match_terms=None,
) -> str:
    """DuckDB SQL computing the same BM25 top-k on ``documents``.
    Query tokenization happens here in Python (same tokenizer), emitted
    as a VALUES list of (query_id, term, qtf). ``exclude_ids`` filters
    the collection first — the oracle for the delete+compact pipeline;
    ``update_ids`` rewrites those docs' text (append ``update_suffix``)
    — the oracle for the per-doc sync pipeline. Every statistic is
    recomputed over the modified collection. ``filter_lang`` instead
    masks only the CANDIDATE set after scoring (statistics stay
    corpus-level) — the filter-query oracle for bm25_topk_filtered."""
    tok = CodeTokenizer()
    vals = []
    for qi, q in enumerate(queries):
        from collections import Counter

        for term, qtf in sorted(Counter(tok.tokens_of(q)).items()):
            vals.append(f"({qi}, '{term}', {qtf})")
    values_sql = ", ".join(vals)
    texpr = sql_token_expr("text")
    if exclude_match_terms:
        # delete_by_query: the collection minus docs matching ALL the
        # analyzed terms (the engine deletes search_boolean(mode=and))
        lst = ", ".join(f"'{_sql_lit(t)}'" for t in exclude_match_terms)
        src = (
            f"(SELECT * FROM documents "
            f"WHERE NOT list_has_all({texpr}, [{lst}]))"
        )
    elif exclude_ids:
        lst = ", ".join(str(int(i)) for i in exclude_ids)
        src = f"(SELECT * FROM documents WHERE doc_id NOT IN ({lst}))"
    elif update_match_terms:
        # update_by_query: append the suffix to every doc matching
        # ALL the analyzed terms (engine updates search_boolean and)
        lst = ", ".join(f"'{_sql_lit(t)}'" for t in update_match_terms)
        sfx = update_suffix.replace("'", "''")
        src = (
            f"(SELECT doc_id, CASE WHEN list_has_all({texpr}, [{lst}]) "
            f"THEN text || '{sfx}' ELSE text END AS text FROM documents)"
        )
    elif update_ids:
        lst = ", ".join(str(int(i)) for i in update_ids)
        sfx = update_suffix.replace("'", "''")
        src = (
            f"(SELECT doc_id, CASE WHEN doc_id IN ({lst}) "
            f"THEN text || '{sfx}' ELSE text END AS text FROM documents)"
        )
    else:
        src = "documents"
    filter_join = ""
    if filter_lang:
        filter_join = (
            f"\nJOIN documents fd ON fd.doc_id = s.doc_id"
            f" AND fd.lang = '{filter_lang}'"
        )
    # function_score field_value_factor: boost by document length
    # metadata (the engine shares the exact formula, bm25_topk_boosted)
    score_expr, boost_join = "score", ""
    if boost_nchars is not None:
        score_expr = (
            f"score * (1.0 + ln(1.0 + bd.n_chars / {boost_nchars}))"
        )
        boost_join = "\nJOIN documents bd ON bd.doc_id = s.doc_id"
    return f"""
WITH docs_src AS (SELECT * FROM {src}),
toks AS (
  SELECT doc_id, unnest({texpr}) AS term FROM docs_src
),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM toks GROUP BY 1, 2),
dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM toks GROUP BY 1),
stats AS (
  SELECT (SELECT count(*) FROM docs_src)::DOUBLE AS n,
         (SELECT count(*) FROM toks)::DOUBLE
           / (SELECT count(*) FROM docs_src) AS avgdl
),
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY 1),
q(query_id, term, qtf) AS (VALUES {values_sql}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum({_CONTRIB_EXPR}) AS score
  FROM tf
  JOIN q ON q.term = tf.term
  JOIN df ON df.term = tf.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY 1, 2
)
SELECT query_id, s.doc_id AS doc_id, round({score_expr}, 4) AS score
FROM scores s{boost_join}{filter_join}
QUALIFY row_number() OVER (
  PARTITION BY query_id ORDER BY round({score_expr}, 4) DESC, s.doc_id ASC
) <= {k}
ORDER BY query_id, doc_id
"""


TERMS_SET = ("hash", "join", "index", "sort")


def terms_set_search(sf_dir: str, terms=TERMS_SET) -> pa.Table:
    """(doc_id, matched, required): the ES ``terms_set`` query —
    boolean OR where the minimum number of matching terms is NOT a
    query constant but a PER-DOCUMENT value
    (minimum_should_match_field; here derived as 1 + doc_id % 3, the
    same expression on both sides). Answered from the inverted index:
    one posting decode per term (cost bounded by the terms' df), a
    doc-multiplicity count over the distinct-term posting union, and a
    vectorized per-doc threshold compare — never a corpus scan. The
    same analyzer-literal guard as keyword_search_indexed: a term the
    analyzer would rewrite can never match the SQL side's literal
    intersect, so it contributes nothing on either side."""
    from sotohp_ray.pipelines.query import Searcher

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    live = [
        t for t in dict.fromkeys(terms)
        if s.tok.tokens_of(t) == [t] and t in s._row
    ]
    empty = pa.table({
        "doc_id": pa.array([], pa.int64()),
        "matched": pa.array([], pa.int64()),
        "required": pa.array([], pa.int64()),
    })
    if not live:
        return empty
    docs = np.concatenate(
        [s._decode_full(t)[0].astype(np.int64) for t in live]
    )
    ud, matched = np.unique(docs, return_counts=True)
    if ud.size:
        alive = s._live_mask(ud)
        ud, matched = ud[alive], matched[alive]
    if not ud.size:
        return empty
    eng2orig = _eng2orig(index_dir, s.space)
    orig = eng2orig[ud]
    required = 1 + orig % 3
    keep = matched >= required
    order = np.argsort(orig[keep])
    return pa.table({
        "doc_id": pa.array(orig[keep][order], pa.int64()),
        "matched": pa.array(
            matched[keep][order].astype(np.int64), pa.int64()),
        "required": pa.array(required[keep][order], pa.int64()),
    })


def terms_set_search_sql(terms=TERMS_SET) -> str:
    texpr = sql_token_expr("text")
    lst = ", ".join(f"'{t}'" for t in dict.fromkeys(terms))
    return f"""
SELECT doc_id,
       CAST(len(list_intersect({texpr}, [{lst}])) AS BIGINT) AS matched,
       1 + doc_id % 3 AS required
FROM documents
WHERE len(list_intersect({texpr}, [{lst}])) >= 1 + doc_id % 3
ORDER BY doc_id
"""


PHRASE_SUGGEST_QUERIES = (("hash", "joinn"), ("merge", "sortt"))
PHRASE_SUGGEST_K = 3


def suggest_phrase(
    sf_dir: str, queries=PHRASE_SUGGEST_QUERIES,
    k: int = PHRASE_SUGGEST_K,
) -> pa.Table:
    """(probe, suggestion, bigram_n, df): the ES PHRASE suggester —
    'did you mean' for a two-term query whose second term is
    misspelled: candidates come from the dictionary (edit distance
    <= 1, the term suggester's generator) and are RE-RANKED by the
    collection bigram count of (context_term, candidate) — the
    language-model smoothing step that makes 'hash joni' -> 'hash
    join' beat higher-df but contextually wrong corrections.
    Candidate generation is dictionary-only (zero postings decode);
    bigram support is ONE pass over the analyzed-tokens sidecar with
    vectorized adjacent-pair masks (doc-boundary positions excluded),
    per-batch partials folded on the driver (candidate-set-sized).
    Zero-support candidates stay, ranked after supported ones
    (ES suggest_mode=always)."""
    from sotohp_ray.pipelines.query import Searcher
    from sotohp_ray.pipelines.textops import _docs_tokens

    index_dir = documents_index(sf_dir)
    s = Searcher(index_dir)
    probes = []
    for t1, t2 in queries:
        cands, dfs = s.suggest_corrections(t2, k=10**9)
        probes.append((t1, t2, list(cands),
                       {c: int(d) for c, d in zip(cands, dfs)}))

    cand_sets = [
        (t1, pa.array(cands, pa.string()))
        for t1, _t2, cands, _ in probes
    ]

    def partial(batch: pa.Table) -> pa.Table:
        lists = batch["toks"]
        lists = (
            lists.combine_chunks()
            if isinstance(lists, pa.ChunkedArray) else lists
        )
        n = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        flat = lists.flatten()
        total = len(flat)
        out_p, out_c, out_n = [], [], []
        if total >= 2:
            # positions whose successor crosses a doc boundary
            ends = np.cumsum(n[n > 0]) - 1
            valid = np.ones(total - 1, dtype=bool)
            valid[ends[ends < total - 1]] = False
            first = flat.slice(0, total - 1)
            second = flat.slice(1)
            for pi, (t1, cset) in enumerate(cand_sets):
                m = (
                    pc.equal(first, t1).to_numpy(zero_copy_only=False)
                    & valid
                    & pc.is_in(second, value_set=cset).to_numpy(
                        zero_copy_only=False)
                )
                if not m.any():
                    continue
                hits = second.take(pa.array(np.flatnonzero(m)))
                g = pa.table({"c": hits}).group_by("c").aggregate(
                    [([], "count_all")]
                )
                out_p += [pi] * len(g)
                out_c += g["c"].to_pylist()
                out_n += g["count_all"].to_pylist()
        return pa.table({
            "probe_i": pa.array(out_p, pa.int64()),
            "cand": pa.array(out_c, pa.string()),
            "n": pa.array(out_n, pa.int64()),
        })

    import pandas as pd

    parts = (
        _docs_tokens(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()  # candidate-set x blocks: tiny
    )
    counts = (
        parts.groupby(["probe_i", "cand"])["n"].sum()
        if len(parts) else pd.Series(dtype="int64")
    )
    rows = []
    for pi, (t1, t2, cands, dfs) in enumerate(probes):
        scored = sorted(
            (
                (
                    -int(counts.get((pi, c), 0)),
                    -dfs[c], c,
                )
                for c in cands
            ),
        )[:k]
        for negn, negdf, c in scored:
            rows.append((f"{t1} {t2}", c, -negn, -negdf))
    return pa.table({
        "probe": pa.array([r[0] for r in rows], pa.string()),
        "suggestion": pa.array([r[1] for r in rows], pa.string()),
        "bigram_n": pa.array([r[2] for r in rows], pa.int64()),
        "df": pa.array([r[3] for r in rows], pa.int64()),
    })


def suggest_phrase_sql(
    queries=PHRASE_SUGGEST_QUERIES, k: int = PHRASE_SUGGEST_K,
) -> str:
    texpr = sql_token_expr("text")
    parts = []
    for t1, t2 in queries:
        l1, l2 = _sql_lit(t1), _sql_lit(t2)
        parts.append(f"""
(SELECT '{l1} {l2}' AS probe, d.term AS suggestion,
        coalesce(b.n, 0) AS bigram_n, d.df
 FROM df d
 LEFT JOIN big b ON b.t1 = '{l1}' AND b.t2 = d.term
 WHERE levenshtein(d.term, '{l2}') <= 1
 ORDER BY bigram_n DESC, d.df DESC, d.term ASC LIMIT {k})""")
    body = "\n  UNION ALL\n".join(parts)
    return f"""
WITH toks AS (
  SELECT doc_id, unnest({texpr}) AS term,
         generate_subscripts({texpr}, 1) AS pos
  FROM documents
),
big AS (
  SELECT a.term AS t1, b.term AS t2, count(*) AS n
  FROM toks a JOIN toks b
    ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
  GROUP BY 1, 2
),
d0 AS (SELECT DISTINCT doc_id, term FROM toks),
df AS (SELECT term, count(*) AS df FROM d0 GROUP BY term)
{body}
"""
