"""Text-analysis and dedup operators over a ``documents`` table
(doc_id:int64, text:string, lang:string, source:string, n_chars:int64).

These are the training-data-pipeline operators a 100 TB corpus engine
needs alongside the inverted index: exact dedup (reference analog:
duplicate detection by SHA-256 group-count, Statistics.scala:77-81 and
GoogleTakeoutTooling dedup D1), MinHash-LSH / SimHash / n-gram-Jaccard
near-dup, language guessing, quality metrics, token counting and
fingerprinting (reference analog: the keyword tokenizer + per-store
term-frequency aggregate A1, MediaServiceLive.scala:1678-1690).

All are streaming Ray Data pipelines: vectorized per-batch combiners
first, then a small ``groupby`` over partials — never a shuffle of raw
rows where a pre-aggregate can shrink them.
"""

from __future__ import annotations

import hashlib
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from sotohp_ray import cache
from sotohp_ray.functions.hashing import minhash_params
from sotohp_ray.functions.tokenizer import CodeTokenizer, sql_token_expr
from sotohp_ray.utils import (
    agg_select, co_group, combine, sorted_lookup, value_offsets,
)

_TOK = CodeTokenizer()

EN_MARKERS = ("the", "a", "fast", "slow", "small")


def _docs(sf_dir: str, columns=None):
    import ray.data

    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=columns
    )


def _text_col(batch: pa.Table) -> pa.Array:
    t = batch["text"]
    t = t.combine_chunks() if isinstance(t, pa.ChunkedArray) else t
    return t.cast(pa.large_string())


# ---- shared analyzed-tokens artifact (one tokenize pass per corpus) --


def _tokens_key(sf_dir: str):
    return (
        "tokens", f"{sf_dir}/documents.parquet",
        (f"tok{_TOK.rules.version_hash()}",),
    )


def _tokens_cache_dir(sf_dir: str) -> str:
    return cache.path(*_tokens_key(sf_dir))


def _docs_tokens(sf_dir: str):
    """Dataset (doc_id, lang, toks:large_list<string>, n_tokens)
    served from the fingerprinted analyzed-tokens sidecar: the corpus
    is tokenized ONCE per (corpus, tokenizer version_hash) and every
    token-based operator streams the analyzed lists instead of
    re-running the regex chain per pass — ~40 operators shared 2-3
    tokenize passes EACH before this artifact existed (VERDICT-r4 ask
    #6). The key covers corpus identity AND the tokenizer config hash
    (M8 discipline: a config change invalidates, never silently mixes
    two tokenizations); sidecars of a rewritten corpus are evicted by
    ``cache.publish``. Written partitioned by Ray (one file per
    block), read back streaming — never a driver materialization."""
    import ray.data

    def tok_batch(batch: pa.Table) -> pa.Table:
        lists = _TOK.token_lists(_text_col(batch))
        return pa.table({
            "doc_id": batch["doc_id"],
            "lang": batch["lang"],
            "toks": lists,
            "n_tokens": pc.list_value_length(lists).cast(pa.int64()),
        })

    def build(staging: str) -> None:
        _docs(sf_dir, ["doc_id", "lang", "text"]).map_batches(
            tok_batch, batch_format="pyarrow"
        ).write_parquet(staging)

    return ray.data.read_parquet(
        cache.artifact(*_tokens_key(sf_dir), build)
    )


def _toklists_of(batch: pa.Table) -> pa.Array:
    t = batch["toks"]
    return t.combine_chunks() if isinstance(t, pa.ChunkedArray) else t


def _exploded_of(batch: pa.Table):
    """(parent_row_index, term) from a tokens-sidecar batch — the
    zero-regex twin of ``CodeTokenizer.exploded``; row order within a
    doc is the analyzed token order (positional consumers rely on
    it)."""
    lists = _toklists_of(batch)
    flat = pc.list_flatten(lists)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    return pc.list_parent_indices(lists), flat.cast(pa.large_string())


def _term_freqs_of(batch: pa.Table) -> pa.Table:
    """(row_idx, term, tf) within-batch combiner from a tokens-sidecar
    batch — the zero-regex twin of ``CodeTokenizer.term_frequencies``."""
    parents, flat = _exploded_of(batch)
    t = pa.table({"row_idx": parents, "term": flat})
    g = t.group_by(["row_idx", "term"]).aggregate([("term", "count")])
    return agg_select(
        g, {"row_idx": "row_idx", "term": "term", "term_count": "tf"}
    )


# ---------------------------------------------------------------- sha256


def doc_sha256(sf_dir: str):
    """(doc_id, sha) — the per-row content-hash invariant (M3)."""

    def f(batch: pa.Table) -> pa.Table:
        text = _text_col(batch)
        sha = pa.array(
            [hashlib.sha256(v.as_buffer()).hexdigest() for v in text],
            type=pa.string(),
        )
        return pa.table({"doc_id": batch["doc_id"], "sha": sha})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


# ------------------------------------------------------------ tokenizing


def token_counts(sf_dir: str):
    """(doc_id, n_tokens) with zero-token docs included."""

    def f(batch: pa.Table) -> pa.Table:
        lists = _TOK.token_lists(_text_col(batch))
        n = pc.list_value_length(lists).cast(pa.int64())
        return pa.table({"doc_id": batch["doc_id"], "n_tokens": n})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


BPE_CHUNK = 4  # chars per subword unit in the estimator


def token_estimate(sf_dir: str, chunk: int = BPE_CHUNK):
    """(doc_id, n_subwords): BPE-ish token-count estimator — analyzed
    tokens split into ceil(len/chunk) subword units (the ~4-chars-per-
    token rule real BPE vocabularies average out to). Vectorized: one
    list_value_length + flatten per batch, no per-row Python."""

    def f(batch: pa.Table) -> pa.Table:
        lists = _TOK.token_lists(_text_col(batch))
        flat = pc.list_flatten(lists)
        parents = pc.list_parent_indices(lists)
        n = batch.num_rows
        lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
        units = -(-lens // chunk)  # ceil
        out = np.zeros(n, dtype=np.int64)
        pn = parents.to_numpy(zero_copy_only=False)
        if pn.size:
            out = np.bincount(pn, weights=units, minlength=n).astype(
                np.int64
            )
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_subwords": pa.array(out, pa.int64()),
        })

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


def token_estimate_sql(chunk: int = BPE_CHUNK) -> str:
    from sotohp_ray.functions.tokenizer import sql_token_expr

    texpr = sql_token_expr("text")
    return f"""
        SELECT doc_id,
               CAST(coalesce(list_sum(list_transform({texpr},
                 t -> CAST(ceil(length(t) / {chunk}.0) AS BIGINT))), 0)
                 AS BIGINT) AS n_subwords
        FROM documents
    """


def term_df(sf_dir: str):
    """(term, df) document frequencies — per-batch combiner then a tiny
    groupby over partials (A1: explicit partial+final aggregation)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        tf = _term_freqs_of(batch)
        g = (
            pa.table({"term": tf["term"]})
            .group_by("term")
            .aggregate([([], "count_all")])
        )
        return agg_select(g, {"term": "term", "count_all": "df_partial"})

    ds = _docs_tokens(sf_dir).map_batches(partial, batch_format="pyarrow")
    out = ds.groupby("term").aggregate(Sum("df_partial", alias_name="df"))
    return out


RARE_TERMS_K = 10


def rare_terms(sf_dir: str, k: int = RARE_TERMS_K):
    """(term, df): the ES rare_terms aggregation analog — the ``k``
    LONGEST-TAIL terms by document frequency (df asc, term asc; ES
    rare_terms is likewise df-ascending). Rank-based rather than an
    absolute max_doc_count cutoff so the op is meaningful at every
    corpus scale. The term_df partial+final pipeline, then per-block
    bottom-k partials (O6 rule) and a tiny driver merge."""
    import pandas as pd

    def bottomk_partial(batch: pa.Table) -> pa.Table:
        t = batch["term"].to_numpy(zero_copy_only=False).astype("O")
        d = batch["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        top = np.lexsort((t, d))[: min(k, t.size)]
        return pa.table({
            "term": pa.array(t[top].tolist(), pa.string()),
            "df": pa.array(d[top], pa.int64()),
        })

    parts = (
        term_df(sf_dir)
        .map_batches(bottomk_partial, batch_format="pyarrow")
        .to_pandas()  # <= k per block: tiny driver merge
    )
    parts = parts.sort_values(["df", "term"]).head(k)
    return pa.table({
        "term": pa.array(parts["term"].astype(str)),
        "df": pa.array(parts["df"].to_numpy(np.int64)),
    })


def rare_terms_sql(k: int = RARE_TERMS_K) -> str:
    from sotohp_ray.functions.tokenizer import sql_token_expr

    texpr = sql_token_expr("text")
    return f"""
WITH toks AS (
  SELECT doc_id, unnest({texpr}) AS term FROM documents
)
SELECT term, count(DISTINCT doc_id)::BIGINT AS df
FROM toks GROUP BY term
ORDER BY df ASC, term ASC
LIMIT {k}
"""


HH_K = 50
_CMS_WIDTH = 8192
_CMS_DEPTH = 4
_CMS_SEEDS = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
     0x165667B19E3779F9, 0x27D4EB2F165667C5],
    dtype=np.uint64,
)


def _term_count_rows(
    batch: pa.Table, term_name: str = "term",
    count_name: str = "cnt", term_type=None,
) -> pa.Table:
    """Per-batch (term, count) collection-frequency combiner over the
    analyzed-token lists — ONE definition for every cf partial
    (term_heavy_hitters, nb_lang_scores' vocab pass, corpus_zipf_fit,
    training's LM vocab pass), so dtype/null-handling changes can't
    diverge between them."""
    _p, flat = _exploded_of(batch)
    vc = flat.value_counts()
    terms = vc.field("values")
    if term_type is not None:
        terms = terms.cast(term_type)
    return pa.table({
        term_name: terms,
        count_name: vc.field("counts").cast(pa.int64()),
    })


def term_heavy_hitters(sf_dir: str, k: int = HH_K):
    """(term, cf): top-``k`` terms by COLLECTION frequency (total
    occurrences), total order (cf desc, term asc) — the exact twin
    that oracle-gates the Count-Min variant below (the HLL/KLL
    exact-twin discipline). Per-batch value_counts combiner, one
    vocab-keyed groupby, per-block top-k partials (O6 rule), tiny
    driver merge."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        return _term_count_rows(
            batch, "term", "cf_partial", pa.large_string())

    cf = (
        _docs_tokens(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("cf_partial", alias_name="cf"))
    )

    def topk_partial(batch: pa.Table) -> pa.Table:
        t = batch["term"].to_numpy(zero_copy_only=False).astype("O")
        c = batch["cf"].to_numpy(zero_copy_only=False).astype(np.int64)
        top = np.lexsort((t, -c))[: min(k, t.size)]
        return pa.table({
            "term": pa.array(t[top].tolist(), pa.string()),
            "cf": pa.array(c[top], pa.int64()),
        })

    parts = cf.map_batches(topk_partial, batch_format="pyarrow") \
        .to_pandas()  # <= k per block: tiny driver merge
    parts = parts.sort_values(
        ["cf", "term"], ascending=[False, True]
    ).head(k)
    return pa.table({
        "term": pa.array(parts["term"].astype(str)),
        "cf": pa.array(parts["cf"].to_numpy(np.int64)),
    })


def term_heavy_hitters_sql(k: int = HH_K) -> str:
    from sotohp_ray.functions.tokenizer import sql_token_expr

    texpr = sql_token_expr("text")
    return f"""
WITH toks AS (
  SELECT unnest({texpr}) AS term FROM documents
)
SELECT term, count(*)::BIGINT AS cf
FROM toks GROUP BY term
ORDER BY cf DESC, term ASC
LIMIT {k}
"""


def _cms_slots(terms: pa.Array, width: int, depth: int) -> np.ndarray:
    """(depth, n_terms) CMS column per hash row — fmix64-finalized
    FNV with per-row seed XOR, the standard independent-row trick."""
    from sotohp_ray.functions.hashing import _fmix64, fnv1a64_array

    h = fnv1a64_array(terms)
    return np.stack([
        (_fmix64(h ^ _CMS_SEEDS[d]) % np.uint64(width)).astype(np.int64)
        for d in range(depth)
    ])


def term_heavy_hitters_cms(
    sf_dir: str, k: int = HH_K,
    width: int = _CMS_WIDTH, depth: int = _CMS_DEPTH,
):
    """(term, est_cf): the top-``k`` heavy hitters ESTIMATED from a
    Count-Min sketch (Cormode & Muthukrishnan 2005) — the
    sketch-family member for frequency: like the HLL/KLL entries its
    exchange cost is SKETCH-sized (<= depth*width count rows summed
    by slot), independent of vocabulary size, and its exact twin
    ``term_heavy_hitters`` carries the SQL oracle. Rows-only BY
    DESIGN (estimates); pytests pin the one-sided guarantee
    (est >= true cf, always) and top-k recall vs the exact twin.

    Shape: per batch, ONE value_counts + depth vectorized hash rows
    folded into a dense local sketch (np.add.at), emitted as nonzero
    (slot, cnt) rows; candidates are per-batch local top-4k terms.
    One slot-keyed groupby merges sketches (CMS is mergeable by
    addition); candidates dedup through a term groupby; both streams
    are sketch-/candidate-sized at any corpus scale."""
    import ray
    from ray.data.aggregate import Sum

    cand_m = 4 * k

    def sketch_rows(batch: pa.Table) -> pa.Table:
        _p, flat = _exploded_of(batch)
        vc = flat.value_counts()
        terms = vc.field("values")
        cnts = vc.field("counts").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        if len(terms) == 0:
            return pa.table({
                "slot": pa.array([], pa.int64()),
                "cnt": pa.array([], pa.int64()),
            })
        cols = _cms_slots(terms, width, depth)  # (depth, n)
        dense = np.zeros(depth * width, dtype=np.int64)
        for d in range(depth):
            np.add.at(dense, d * width + cols[d], cnts)
        nz = np.flatnonzero(dense)
        return pa.table({
            "slot": pa.array(nz.astype(np.int64)),
            "cnt": pa.array(dense[nz]),
        })

    def cand_rows(batch: pa.Table) -> pa.Table:
        _p, flat = _exploded_of(batch)
        vc = flat.value_counts()
        t = vc.field("values").to_numpy(zero_copy_only=False).astype("O")
        c = vc.field("counts").to_numpy(zero_copy_only=False)
        top = np.lexsort((t, -c))[: min(cand_m, t.size)]
        return pa.table({"term": pa.array(t[top].tolist(), pa.string())})

    toks = _docs_tokens(sf_dir)
    cms = (
        toks.map_batches(sketch_rows, batch_format="pyarrow")
        .groupby("slot")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()  # <= depth*width rows: sketch-sized by definition
    )
    dense = np.zeros(depth * width, dtype=np.int64)
    if len(cms):
        dense[cms["slot"].to_numpy(np.int64)] = cms["cnt"].to_numpy(
            np.int64
        )
    table = dense.reshape(depth, width)
    cands = (
        toks.map_batches(cand_rows, batch_format="pyarrow")
        .groupby("term").count().to_pandas()  # candidate-sized dedup
    )
    terms = cands["term"].to_numpy().astype("O")
    if terms.size == 0:
        return pa.table({
            "term": pa.array([], pa.string()),
            "est_cf": pa.array([], pa.int64()),
        })
    cols = _cms_slots(pa.array(terms.tolist(), pa.string()), width, depth)
    est = np.min(
        np.stack([table[d, cols[d]] for d in range(depth)]), axis=0
    )
    top = np.lexsort((terms, -est))[: min(k, terms.size)]
    return pa.table({
        "term": pa.array(terms[top].tolist(), pa.string()),
        "est_cf": pa.array(est[top].astype(np.int64)),
    })


def vocabulary_stats(sf_dir: str):
    """One-row vocabulary summary — n_terms (distinct), n_postings
    (distinct doc,term pairs), max_df, singleton_terms (df=1): the
    index-introspection numbers a capacity plan starts from. Shape:
    the term_df pipeline (per-batch partial + small term groupby)
    finished by ONE tiny aggregate over the vocabulary-sized df
    table."""
    import pandas as pd

    df = term_df(sf_dir)

    def finalize(batch: pa.Table) -> pa.Table:
        d = batch["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "n_terms": pa.array([len(d)], pa.int64()),
            "n_postings": pa.array([int(d.sum())], pa.int64()),
            "max_df": pa.array([int(d.max()) if len(d) else 0], pa.int64()),
            "singleton_terms": pa.array([int((d == 1).sum())], pa.int64()),
        })

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        # empty vocabulary (no docs / zero-token docs) -> one zero row,
        # matching the coalesce(...) contract of the SQL oracle
        return pd.DataFrame({
            "n_terms": [int(g["n_terms"].sum()) if len(g) else 0],
            "n_postings": [int(g["n_postings"].sum()) if len(g) else 0],
            "max_df": [int(g["max_df"].max()) if len(g) else 0],
            "singleton_terms": [
                int(g["singleton_terms"].sum()) if len(g) else 0
            ],
        })

    partials = df.map_batches(finalize, batch_format="pyarrow").to_pandas()
    return pa.Table.from_pandas(merge(partials), preserve_index=False)


def vocabulary_stats_sql() -> str:
    from sotohp_ray.functions.tokenizer import sql_token_expr

    texpr = sql_token_expr("text")
    return f"""
WITH toks AS (
  SELECT doc_id, unnest({texpr}) AS term FROM documents
),
df AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM toks GROUP BY term
)
SELECT count(*) AS n_terms,
       coalesce(sum(df), 0)::BIGINT AS n_postings,
       coalesce(max(df), 0)::BIGINT AS max_df,
       coalesce(sum(CASE WHEN df = 1 THEN 1 ELSE 0 END), 0)::BIGINT
         AS singleton_terms
FROM df
"""


def doc_keywords(sf_dir: str, top_n: int = 5):
    """(doc_id, term, tfidf) top-``top_n`` TF-IDF keywords per doc —
    the keyword-extraction op of a training-data pipeline (reference
    analog: ``keywordList``'s per-record term bags,
    MediaServiceLive.scala:1678-1690, here scored corpus-wide).

    Shape: one vectorized map pass emits distinct (doc, term, tf)
    rows already keyed by a 256-way term-hash coarse bucket; ONE
    term-keyed shuffle attaches df (all rows of a term land in its
    bucket, so within-bucket row count per term IS the global df) and
    scores tf*ln(N/df); one ``co_group`` on doc_id takes the per-doc
    top-n (rounded-score desc, term asc — the deterministic SQL-parity
    rank). The 256-bucket term width is the cluster-parallelism knob
    of the first shuffle."""
    import pandas as pd

    from sotohp_ray.functions.hashing import token_hash_array

    docs = _docs_tokens(sf_dir)
    n_docs = float(docs.count())  # parquet metadata count, no scan

    def tf_rows(batch: pa.Table) -> pa.Table:
        tf = _term_freqs_of(batch)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        doc = ids[tf["row_idx"].to_numpy(zero_copy_only=False)]
        coarse = (token_hash_array(tf["term"]) & np.uint64(0xFF)).astype(
            np.int64
        )
        return pa.table({
            "coarse": pa.array(coarse, pa.int64()),
            "doc_id": pa.array(doc, pa.int64()),
            "term": tf["term"],
            "tf": tf["tf"],
        })

    rows = docs.map_batches(tf_rows, batch_format="pyarrow")

    def attach_score(g: pd.DataFrame) -> pd.DataFrame:
        # rows are distinct (doc, term), so per-term row count = df
        df = g.groupby("term", sort=False)["doc_id"].transform("size")
        score = g["tf"].to_numpy() * np.log(n_docs / df.to_numpy())
        out = g[["doc_id", "term"]].copy()
        out["tfidf"] = np.round(score, 6)
        return out

    scored = rows.groupby("coarse").map_groups(
        attach_score, batch_format="pandas"
    )

    def top_per_doc(g) -> pd.DataFrame:
        g = pd.DataFrame(g).sort_values(
            ["doc_id", "tfidf", "term"], ascending=[True, False, True]
        )
        return g.groupby("doc_id", sort=False).head(top_n)

    return co_group(top_per_doc, (
        scored, None,
        pa.schema([("doc_id", pa.int64()), ("term", pa.string()),
                   ("tfidf", pa.float64())]),
    ))


def doc_keywords_sql(top_n: int = 5) -> str:
    from sotohp_ray.functions.tokenizer import sql_token_expr

    texpr = sql_token_expr("text")
    return f"""
WITH toks AS (
  SELECT doc_id, unnest({texpr}) AS term FROM documents
),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM toks GROUP BY 1, 2),
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY 1),
n AS (SELECT count(*)::DOUBLE AS n FROM documents),
scored AS (
  SELECT tf.doc_id, tf.term, round(tf.tf * ln(n.n / df.df), 6) AS tfidf
  FROM tf JOIN df USING (term) CROSS JOIN n
)
SELECT doc_id, term, tfidf FROM scored
QUALIFY row_number() OVER (
  PARTITION BY doc_id ORDER BY tfidf DESC, term ASC
) <= {top_n}
ORDER BY doc_id, term
"""


def quality_stats(sf_dir: str):
    """(doc_id, n_chars, n_tokens, n_distinct_terms) — integer quality
    metrics (SQL-expressible; float-free so the oracle hash is exact)."""

    def f(batch: pa.Table) -> pa.Table:
        text = _text_col(batch)
        lists = _TOK.token_lists(text)
        n_tok = pc.list_value_length(lists).cast(pa.int64())
        parents = pc.list_parent_indices(lists)
        flat = pc.list_flatten(lists)
        n = batch.num_rows
        distinct = np.zeros(n, dtype=np.int64)
        if len(flat) > 0:
            pairs = pa.table({"d": parents, "t": flat}).group_by(["d", "t"]).aggregate([])
            cnt = (
                pa.table({"d": pairs["d"]})
                .group_by("d")
                .aggregate([([], "count_all")])
            )
            distinct[cnt["d"].to_numpy(zero_copy_only=False)] = cnt[
                "count_all"
            ].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_chars": pc.utf8_length(text).cast(pa.int64()),
                "n_tokens": n_tok,
                "n_distinct_terms": pa.array(distinct, type=pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


QF_MIN_TOKENS = 20
QF_MAX_TOKENS = 100_000
QF_MIN_DISTINCT_PCT = 10  # distinct terms >= 10% of tokens


def corpus_quality_filter(
    sf_dir: str, min_tokens: int = QF_MIN_TOKENS,
    max_tokens: int = QF_MAX_TOKENS,
    min_distinct_pct: int = QF_MIN_DISTINCT_PCT,
):
    """(doc_id, n_tokens, n_distinct_terms): docs PASSING the quality
    gate — token count in [min, max] and distinct-term ratio at least
    ``min_distinct_pct``% (the repetitive-boilerplate cut) — the
    heuristic quality filter of a training-data pipeline, fused into
    the same single vectorized pass as quality_stats (one filter
    expression per batch; nothing materializes driver-side). The
    ratio test is integer-exact (distinct*100 >= pct*tokens), so the
    oracle hash is float-free.

    ``min_tokens`` must be >= 1: quality_stats emits a row for
    zero-token docs, but the SQL oracle's agg CTE groups over unnested
    tokens so such docs never appear there — at min_tokens=0 the two
    sides would legitimately disagree."""
    if min_tokens < 1:
        raise ValueError("min_tokens must be >= 1 (zero-token docs "
                         "have no oracle row; see docstring)")
    stats = quality_stats(sf_dir)

    def keep(batch: pa.Table) -> pa.Table:
        nt = batch["n_tokens"].to_numpy(zero_copy_only=False)
        nd = batch["n_distinct_terms"].to_numpy(zero_copy_only=False)
        m = (
            (nt >= min_tokens) & (nt <= max_tokens)
            & (nd * 100 >= min_distinct_pct * nt)
        )
        out = batch.filter(pa.array(m))
        return out.select(["doc_id", "n_tokens", "n_distinct_terms"])

    return stats.map_batches(keep, batch_format="pyarrow")


def corpus_quality_filter_sql(
    min_tokens: int = QF_MIN_TOKENS, max_tokens: int = QF_MAX_TOKENS,
    min_distinct_pct: int = QF_MIN_DISTINCT_PCT,
) -> str:
    from sotohp_ray.functions.tokenizer import sql_token_expr

    texpr = sql_token_expr("text")
    return f"""
WITH t AS (
  SELECT doc_id, unnest({texpr}) AS term FROM documents
),
agg AS (
  SELECT doc_id, count(*) AS n_tokens,
         count(DISTINCT term) AS n_distinct_terms
  FROM t GROUP BY doc_id
)
SELECT doc_id, n_tokens, n_distinct_terms FROM agg
WHERE n_tokens BETWEEN {min_tokens} AND {max_tokens}
  AND n_distinct_terms * 100 >= {min_distinct_pct} * n_tokens
ORDER BY doc_id
"""


def doc_repetition(sf_dir: str):
    """(doc_id, n_bigrams, n_distinct_bigrams, dup_bigrams): the
    duplicated-adjacent-bigram count per document — the Gopher-family
    repetition quality signal (Rae et al. 2021 'Scaling Language
    Models' repetition filters; RefinedWeb applies the same n-gram
    family) used to cut boilerplate/looping text from training
    corpora. Integer counts only, so the oracle hash is exact.

    ONE map pass, NO shuffle at any scale: a document never spans
    batches, so every per-doc count completes inside its batch."""

    def f(batch: pa.Table) -> pa.Table:
        parents, flat = _TOK.exploded(_text_col(batch))
        n = batch.num_rows
        pn = parents.to_numpy(zero_copy_only=False)
        nb = np.zeros(n, dtype=np.int64)
        nd = np.zeros(n, dtype=np.int64)
        nt = len(flat)
        top = np.zeros(n, dtype=np.int64)
        if nt >= 2:
            same = pn[:-1] == pn[1:]
            d = pn[:-1][same]
            if d.size:
                nb = np.bincount(d, minlength=n).astype(np.int64)
                t = pa.table({
                    "d": pa.array(d),
                    "t1": flat.slice(0, nt - 1).filter(pa.array(same)),
                    "t2": flat.slice(1, nt - 1).filter(pa.array(same)),
                })
                g = t.group_by(["d", "t1", "t2"]).aggregate(
                    [([], "count_all")]
                )
                gd = g["d"].to_numpy(zero_copy_only=False)
                gc = g["count_all"].to_numpy(zero_copy_only=False)
                nd = np.bincount(gd, minlength=n).astype(np.int64)
                # most-frequent-bigram occurrence count per doc (the
                # top-n-gram-coverage Gopher signal)
                np.maximum.at(top, gd, gc)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_bigrams": pa.array(nb, pa.int64()),
            "n_distinct_bigrams": pa.array(nd, pa.int64()),
            "dup_bigrams": pa.array(nb - nd, pa.int64()),
            "top_bigram_n": pa.array(top, pa.int64()),
        })

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


def doc_quality_signals(sf_dir: str):
    """(doc_id, n_chars, n_tokens, n_stopword_tokens, n_punct_chars):
    the length/punctuation/stopword quality-ratio inputs (the other
    half of the Gopher-family heuristics next to doc_repetition).
    Integer counts only; the punctuation class is evaluated by RE2 on
    BOTH sides (pyarrow and DuckDB embed the same regex engine), so
    the oracle hash is exact. One map pass, zero shuffle."""

    def f(batch: pa.Table) -> pa.Table:
        text = _text_col(batch)
        lists = _TOK.token_lists(text)
        n_tok = pc.list_value_length(lists).cast(pa.int64())
        parents = pc.list_parent_indices(lists)
        flat = pc.list_flatten(lists)
        n = batch.num_rows
        sw = np.zeros(n, dtype=np.int64)
        if len(flat) > 0:
            hit = pc.is_in(
                flat, value_set=pa.array(EN_MARKERS).cast(flat.type)
            )
            par = pc.filter(parents, hit).to_numpy(zero_copy_only=False)
            if par.size:
                sw = np.bincount(
                    par.astype(np.int64), minlength=n
                ).astype(np.int64)
        punct = pc.count_substring_regex(
            text, QS_PUNCT_RE
        ).cast(pa.int64())
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_chars": pc.utf8_length(text).cast(pa.int64()),
            "n_tokens": n_tok,
            "n_stopword_tokens": pa.array(sw, pa.int64()),
            "n_punct_chars": punct,
        })

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


QS_PUNCT_RE = r"[^A-Za-z0-9\s]"


def doc_quality_signals_sql() -> str:
    from sotohp_ray.functions.tokenizer import sql_token_expr

    texpr = sql_token_expr("text")
    markers = ", ".join(f"'{m}'" for m in EN_MARKERS)
    return f"""
WITH toks AS (
  SELECT doc_id, unnest({texpr}) AS term FROM documents
),
tc AS (
  SELECT doc_id, count(*) AS n_tok FROM toks GROUP BY doc_id
),
sw AS (
  SELECT doc_id, count(*) AS n_sw FROM toks
  WHERE term IN ({markers}) GROUP BY doc_id
)
SELECT d.doc_id, length(d.text) AS n_chars,
       coalesce(tc.n_tok, 0) AS n_tokens,
       coalesce(s.n_sw, 0) AS n_stopword_tokens,
       length(d.text) - length(
         regexp_replace(d.text, '{QS_PUNCT_RE}', '', 'g')
       ) AS n_punct_chars
FROM documents d
LEFT JOIN tc USING (doc_id)
LEFT JOIN sw s USING (doc_id)
ORDER BY d.doc_id
"""


def doc_entropy(sf_dir: str):
    """(doc_id, n_tokens, entropy): Shannon entropy (nats) of each
    document's OWN unigram token distribution — the classic
    repetitiveness/boilerplate quality signal (low entropy = a few
    tokens dominate; high = diverse vocabulary). Complements
    doc_repetition (which measures n-gram repetition) with a
    distribution-level measure. Zero-token docs are excluded (no
    distribution to measure — the same rows the oracle's join drops).

    One streaming pass over the analyzed-tokens sidecar: per-batch
    term frequencies (vectorized groupby), p = tf/n, entropy summed
    per row with one bincount. Round-6 like the other per-doc float
    aggregates (doc_lm_score precedent)."""

    def f(batch: pa.Table) -> pa.Table:
        tf = _term_freqs_of(batch)
        row = tf["row_idx"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        c = tf["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = batch["n_tokens"].to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        h = np.zeros(batch.num_rows, dtype=np.float64)
        if row.size:
            p = c / n[row]
            h = np.bincount(
                row, weights=-p * np.log(p), minlength=batch.num_rows
            )
        keep = n > 0
        return pa.table({
            "doc_id": pa.array(
                batch["doc_id"].to_numpy(zero_copy_only=False)[keep],
                pa.int64(),
            ),
            "n_tokens": pa.array(n[keep].astype(np.int64), pa.int64()),
            "entropy": pa.array(np.round(h[keep], 6), pa.float64()),
        })

    return _docs_tokens(sf_dir).map_batches(f, batch_format="pyarrow")


def doc_entropy_sql() -> str:
    from sotohp_ray.functions.tokenizer import sql_token_expr

    texpr = sql_token_expr("text")
    return f"""
WITH toks AS (
  SELECT doc_id, unnest({texpr}) AS term FROM documents
),
tf AS (SELECT doc_id, term, count(*) AS c FROM toks GROUP BY 1, 2),
n AS (SELECT doc_id, sum(c) AS n FROM tf GROUP BY 1)
SELECT tf.doc_id,
       CAST(n.n AS BIGINT) AS n_tokens,
       round(-sum((c / n.n) * ln(c / n.n)), 6) AS entropy
FROM tf JOIN n ON n.doc_id = tf.doc_id
GROUP BY 1, 2
"""


def doc_compress_ratio(sf_dir: str, level: int = 6):
    """(doc_id, n_bytes, n_compressed, ratio): zlib (deflate level 6)
    compression ratio of the raw text — the classic cheap
    boilerplate/repetition quality signal (highly compressible text is
    templated or repeated content; the Gopher/MassiveText-family rule
    input). Deterministic (zlib is), but not SQL-expressible:
    rows-only with a direct-zlib pytest. The per-row loop is
    unavoidable (zlib has no columnar kernel) but each call is C code
    over the row's bytes — the accepted binary-codec pattern
    (media_codec); the stage streams as a plain task pool. ``ratio``
    is n_compressed / max(n_bytes, 1), round 6."""
    import zlib

    def f(batch: pa.Table) -> pa.Table:
        texts = _text_col(batch)
        raw = pc.binary_length(texts).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        comp = np.fromiter(
            (len(zlib.compress(t.as_py().encode(), level))
             for t in texts),
            dtype=np.int64, count=len(texts),
        )
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_bytes": pa.array(raw, pa.int64()),
            "n_compressed": pa.array(comp, pa.int64()),
            "ratio": pa.array(
                np.round(comp / np.maximum(raw, 1), 6), pa.float64()
            ),
        })

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


def doc_repetition_sql() -> str:
    from sotohp_ray.functions.tokenizer import sql_token_expr

    texpr = sql_token_expr("text")
    return f"""
WITH toks AS (
  SELECT doc_id, unnest({texpr}) AS term,
         generate_subscripts({texpr}, 1) AS pos
  FROM documents
),
bi AS (
  SELECT a.doc_id, a.term AS t1, b.term AS t2
  FROM toks a JOIN toks b
    ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
),
pair_counts AS (
  SELECT doc_id, t1, t2, count(*) AS c FROM bi GROUP BY 1, 2, 3
),
agg AS (
  SELECT doc_id, sum(c)::BIGINT AS n_bigrams,
         count(*) AS n_distinct_bigrams,
         max(c) AS top_bigram_n
  FROM pair_counts GROUP BY doc_id
)
SELECT d.doc_id,
       coalesce(a.n_bigrams, 0) AS n_bigrams,
       coalesce(a.n_distinct_bigrams, 0) AS n_distinct_bigrams,
       coalesce(a.n_bigrams, 0) - coalesce(a.n_distinct_bigrams, 0)
         AS dup_bigrams,
       coalesce(a.top_bigram_n, 0) AS top_bigram_n
FROM documents d LEFT JOIN agg a USING (doc_id)
ORDER BY doc_id
"""


# ------------------------------------------------ exact substring dedup

DUP_GRAM_L = 16
_DG_B1 = np.uint64(1000003)         # two independent polynomial bases:
_DG_B2 = np.uint64(0x100000001B3)   # collision needs BOTH to collide
_DG_COARSE = 256                    # gram-hash shuffle width


def _codepoints_flat(text: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(flat codepoints as uint64, per-doc char lengths) for a batch:
    zero-copy from the Arrow UTF-8 data buffer when the batch is pure
    ASCII (code corpora overwhelmingly are — one vectorized
    bytes==chars test), one utf-32 decode otherwise. Gram boundaries
    are CHARACTER positions either way, matching SQL substr()."""
    lens = pc.utf8_length(text).to_numpy(zero_copy_only=False).astype(
        np.int64
    )
    n_bytes = pc.binary_length(text).to_numpy(zero_copy_only=False)
    if int(n_bytes.sum()) == int(lens.sum()):
        # string i occupies data[off[i]:off[i+1]) by the Arrow layout,
        # so data[off[0]:off[-1]] IS the concatenation
        off, data = value_offsets(text)
        return data[off[0] : off[-1]].astype(np.uint64), lens
    joined = "".join(text.to_pylist())  # cold path: non-ASCII batch
    flat = np.frombuffer(joined.encode("utf-32-le"), np.uint32)
    return flat.astype(np.uint64), lens


def _gram_hashes(
    flat: np.ndarray, lens: np.ndarray, L: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Two windowed 64-bit polynomial hashes (natural uint64
    wraparound) over the flat codepoint stream — L vectorized
    multiply-adds for the whole batch, no per-doc loop — masked to
    windows that do not cross doc boundaries. Returns (h1, h2,
    doc_index, char_pos_in_doc) per valid gram instance; positions
    are 0-based codepoint offsets (== SQL substr position - 1)."""
    n_pos = flat.size - L + 1
    if n_pos <= 0:
        z = np.zeros(0, np.uint64)
        zi = np.zeros(0, np.int64)
        return z, z, zi, zi
    h1 = np.zeros(n_pos, np.uint64)
    h2 = np.zeros(n_pos, np.uint64)
    for i in range(L):
        w = flat[i : i + n_pos]
        h1 = h1 * _DG_B1 + w
        h2 = h2 * _DG_B2 + w
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    p = np.arange(n_pos)
    did = np.searchsorted(starts, p, side="right") - 1
    pos = p - starts[did]
    valid = pos <= (lens[did] - L)
    return h1[valid], h2[valid], did[valid], pos[valid]


def doc_dup_grams(sf_dir: str, L: int = DUP_GRAM_L):
    """(doc_id, n_grams, n_dup_grams): per doc, how many of its
    character-L-gram instances occur >= 2 times in the WHOLE corpus
    (within-doc repeats included) — the exact-substring duplication
    signal of Lee et al. 2021 ('Deduplicating Training Data Makes
    Language Models Better'), whose suffix-array detection this
    realizes distributed as rolling-hash L-grams: a duplicated span of
    length >= L duplicates every one of its L-grams, so per-doc
    duplicated-gram mass is the span-coverage signal the paper cuts
    on. Reference analog: duplicate detection by content digest (D2,
    Statistics.scala:77-81) generalized from whole docs to substrings.
    Integer counts only, so the oracle hash is exact (hash collisions
    need BOTH independent 64-bit hashes to collide: ~2^-128/pair).

    Shape: one map pass hashes each batch's flat codepoint stream (L
    vectorized adds) and pre-aggregates (gram, doc) instance counts;
    ONE gram-hash coarse shuffle totals each gram globally (all rows
    of a gram land in its bucket) and emits per-doc dup partials; a
    ``co_group`` on doc_id with the documents spine sums partials and
    keeps zero/short docs. The 256-bucket gram width is the
    parallelism knob (doc_keywords convention)."""
    import pandas as pd

    def gram_rows(batch: pa.Table) -> pa.Table:
        text = _text_col(batch)
        flat, lens = _codepoints_flat(text)
        h1, h2, did, _gpos = _gram_hashes(flat, lens, L)
        if h1.size == 0:
            return pa.table({
                "coarse": pa.array([], pa.int64()),
                "h1": pa.array([], pa.uint64()),
                "h2": pa.array([], pa.uint64()),
                "doc_id": pa.array([], pa.int64()),
                "cnt": pa.array([], pa.int64()),
            })
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        order = np.lexsort((did, h2, h1))
        h1s, h2s, ds_ = h1[order], h2[order], did[order]
        new = np.empty(h1s.size, dtype=bool)
        new[0] = True
        new[1:] = (
            (h1s[1:] != h1s[:-1])
            | (h2s[1:] != h2s[:-1])
            | (ds_[1:] != ds_[:-1])
        )
        idx = np.flatnonzero(new)
        cnt = np.diff(np.append(idx, h1s.size)).astype(np.int64)
        return pa.table({
            "coarse": pa.array(
                (h1s[idx] & np.uint64(_DG_COARSE - 1)).astype(np.int64)
            ),
            "h1": pa.array(h1s[idx], pa.uint64()),
            "h2": pa.array(h2s[idx], pa.uint64()),
            "doc_id": pa.array(ids[ds_[idx]], pa.int64()),
            "cnt": pa.array(cnt, pa.int64()),
        })

    def dup_partials(g: pa.Table) -> pa.Table:
        # arrow in/out: the output unions with the arrow-block spine
        h1 = g["h1"].to_numpy(zero_copy_only=False)
        h2 = g["h2"].to_numpy(zero_copy_only=False)
        cnt = g["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        doc = g["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((h2, h1))
        h1s, h2s, cs, ds_ = h1[order], h2[order], cnt[order], doc[order]
        new = np.empty(h1s.size, dtype=bool)
        new[0] = True
        new[1:] = (h1s[1:] != h1s[:-1]) | (h2s[1:] != h2s[:-1])
        seg = np.cumsum(new) - 1
        totals = np.bincount(seg, weights=cs)
        dup = totals[seg] >= 2
        dd, inv = np.unique(ds_[dup], return_inverse=True)
        sums = np.bincount(inv, weights=cs[dup]).astype(np.int64)
        return pa.table({"doc_id": dd, "n_dup_grams": sums})

    def spine(batch: pa.Table) -> pa.Table:
        lens = pc.utf8_length(_text_col(batch)).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        ng = np.maximum(lens - L + 1, 0)
        return pa.table({"doc_id": batch["doc_id"], "n_grams": ng})

    def finalize(sp, dp) -> pd.DataFrame:
        n = sp["doc_id"].size
        ids, inv = np.unique(
            np.concatenate([sp["doc_id"], dp["doc_id"]]), return_inverse=True
        )
        n_grams = np.zeros(ids.size, np.int64)
        n_dup = np.zeros(ids.size, np.int64)
        np.add.at(n_grams, inv[:n], sp["n_grams"])
        np.add.at(n_dup, inv[n:], dp["n_dup_grams"])
        return pd.DataFrame({
            "doc_id": ids, "n_grams": n_grams, "n_dup_grams": n_dup,
        })

    docs = _docs(sf_dir, ["doc_id", "text"])
    rows = docs.map_batches(gram_rows, batch_format="pyarrow")
    partials = rows.groupby("coarse").map_groups(
        dup_partials, batch_format="pyarrow"
    )
    return co_group(
        finalize,
        (docs, spine,
         pa.schema([("doc_id", pa.int64()), ("n_grams", pa.int64())])),
        (partials, None,
         pa.schema([("doc_id", pa.int64()), ("n_dup_grams", pa.int64())])),
    )


DECON_BENCH_DOCS = 3  # doc_id < 3 plays the held-out benchmark set


def _pair_struct(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """(h1, h2) rows as a sortable structured array — exact 128-bit
    membership tests via searchsorted, no lossy key packing."""
    out = np.empty(h1.size, dtype=[("a", np.uint64), ("b", np.uint64)])
    out["a"], out["b"] = h1, h2
    return out


def decontaminate(
    sf_dir: str, n_bench: int = DECON_BENCH_DOCS, L: int = DUP_GRAM_L
):
    """(doc_id, n_contaminated): per corpus doc (benchmark docs
    excluded), how many of its character-L-gram instances also occur
    in the benchmark set (here: doc_id < ``n_bench`` plays the
    held-out eval set) — training-data DECONTAMINATION, the n-gram
    overlap filter of GPT-3 appendix C / PaLM: any doc sharing a
    >= L-char span with an eval document gets flagged. Only
    contaminated docs are emitted.

    Shape: the benchmark is small by definition, so its distinct gram
    hashes broadcast once via ``ray.put`` (the small-side-broadcast
    rule); ONE map pass over the corpus computes the same two rolling
    64-bit hashes as doc_dup_grams and counts membership by
    searchsorted over the 128-bit pair set — ZERO shuffle at any
    scale."""
    import ray

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    bench = pq.read_table(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        filters=pads.field("doc_id") < n_bench,
    )
    btext = bench["text"].combine_chunks().cast(pa.large_string())
    bflat, blens = _codepoints_flat(btext)
    bh1, bh2, _, _bp = _gram_hashes(bflat, blens, L)
    bset = np.unique(_pair_struct(bh1, bh2))
    bref = ray.put(bset)

    def f(batch: pa.Table) -> pa.Table:
        bs = ray.get(bref)
        text = _text_col(batch)
        flat, lens = _codepoints_flat(text)
        h1, h2, did, _gpos = _gram_hashes(flat, lens, L)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        empty = pa.table({
            "doc_id": pa.array([], pa.int64()),
            "n_contaminated": pa.array([], pa.int64()),
        })
        if h1.size == 0 or bs.size == 0:
            return empty
        keep = ids[did] >= n_bench  # benchmark rows don't flag selves
        h = _pair_struct(h1[keep], h2[keep])
        did = did[keep]
        p = np.searchsorted(bs, h)
        inb = p < bs.size
        hit = np.zeros(h.size, dtype=bool)
        hit[inb] = bs[p[inb]] == h[inb]
        if not hit.any():
            return empty
        n = np.bincount(did[hit], minlength=ids.size)
        nz = np.flatnonzero(n)
        return pa.table({
            "doc_id": pa.array(ids[nz], pa.int64()),
            "n_contaminated": pa.array(n[nz].astype(np.int64)),
        })

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


def decontaminate_sql(
    n_bench: int = DECON_BENCH_DOCS, L: int = DUP_GRAM_L
) -> str:
    return f"""
WITH bg AS (
  SELECT DISTINCT
         substr(text, unnest(generate_series(1, length(text) - {L - 1})),
                {L}) AS g
  FROM documents WHERE doc_id < {n_bench}
),
grams AS (
  SELECT doc_id,
         substr(text, unnest(generate_series(1, length(text) - {L - 1})),
                {L}) AS g
  FROM documents WHERE doc_id >= {n_bench}
)
SELECT doc_id, count(*)::BIGINT AS n_contaminated
FROM grams JOIN bg USING (g)
GROUP BY doc_id
ORDER BY doc_id
"""


BLOOM_BITS_PER_GRAM = 16
BLOOM_K = 8


def _bloom_mix(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — avalanches the rolling hashes' weak low
    bits before the power-of-two mask takes them."""
    h = h.astype(np.uint64, copy=True)
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return h


def _bloom_build(h1: np.ndarray, h2: np.ndarray,
                 bits_per_item: int = BLOOM_BITS_PER_GRAM,
                 k: int = BLOOM_K) -> np.ndarray:
    """Packed-bit Bloom filter over 128-bit gram hashes via
    Kirsch-Mitzenmacher double hashing (probe_i = h1 + i*h2, all
    uint64 wraparound). m is the next power of two >= n*bits_per_item
    so the mask is one AND."""
    n = max(int(h1.size), 1)
    m = 1 << max(int(n * bits_per_item - 1).bit_length(), 6)
    bits = np.zeros(m >> 3, np.uint8)
    mask = np.uint64(m - 1)
    h1 = _bloom_mix(h1)
    h2 = (_bloom_mix(h2) << np.uint64(1)) | np.uint64(1)  # odd stride
    for i in range(k):                        # probes mod 2^log2(m)
        idx = (h1 + np.uint64(i) * h2) & mask
        np.bitwise_or.at(bits, (idx >> np.uint64(3)).astype(np.int64),
                         np.uint8(1) << (idx & np.uint64(7)).astype(np.uint8))
    return bits


def _bloom_test(bits: np.ndarray, h1: np.ndarray, h2: np.ndarray,
                k: int = BLOOM_K) -> np.ndarray:
    m = np.uint64(bits.size << 3)
    mask = m - np.uint64(1)
    hit = np.ones(h1.size, bool)
    h1 = _bloom_mix(h1)
    h2 = (_bloom_mix(h2) << np.uint64(1)) | np.uint64(1)
    for i in range(k):
        idx = (h1 + np.uint64(i) * h2) & mask
        b = bits[(idx >> np.uint64(3)).astype(np.int64)]
        hit &= (b >> (idx & np.uint64(7)).astype(np.uint8)) & 1 == 1
        if not hit.any():
            break
    return hit


def decontaminate_bloom(
    sf_dir: str, n_bench: int = DECON_BENCH_DOCS, L: int = DUP_GRAM_L,
    bits_per_gram: int = BLOOM_BITS_PER_GRAM, k: int = BLOOM_K,
):
    """(doc_id, n_contaminated): ``decontaminate``'s scale path — the
    benchmark gram set broadcast as a BLOOM FILTER instead of the
    exact sorted hash array. At 100 TB the eval suite itself can be
    large (every held-out benchmark x every paraphrase); the exact
    set costs 16 bytes/gram to broadcast and log(n) probes, the Bloom
    costs ``bits_per_gram``/8 bytes (8x smaller at defaults) and k=8
    O(1) probes. Contract: NO false negatives — every contaminated
    gram instance is counted; false positives can only ADD counts
    (over-flagging is the safe direction for decontamination: you
    drop a clean doc, never keep a contaminated one). Probes are
    splitmix64-avalanched Kirsch-Mitzenmacher double hashes with an
    odd stride, so power-of-two masking keeps the designed FP rate
    (~(1-e^(-k*n/m))^k ~ 4e-5 at 16 bits/gram). Rows-only by design —
    FPs are inherent to the sketch; the pytest pins the superset
    contract (flagged-docs superset, per-doc counts >= the exact
    twin's) and bit-identity to the exact twin at 64 bits/gram."""
    import ray

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    bench = pq.read_table(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        filters=pads.field("doc_id") < n_bench,
    )
    btext = bench["text"].combine_chunks().cast(pa.large_string())
    bflat, blens = _codepoints_flat(btext)
    bh1, bh2, _, _bp = _gram_hashes(bflat, blens, L)
    bu = np.unique(_pair_struct(bh1, bh2))
    bits = _bloom_build(
        bu["a"], bu["b"], bits_per_item=bits_per_gram, k=k,
    )
    bref = ray.put(bits)

    def f(batch: pa.Table) -> pa.Table:
        bs = ray.get(bref)
        text = _text_col(batch)
        flat, lens = _codepoints_flat(text)
        h1, h2, did, _gpos = _gram_hashes(flat, lens, L)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        empty = pa.table({
            "doc_id": pa.array([], pa.int64()),
            "n_contaminated": pa.array([], pa.int64()),
        })
        if h1.size == 0:
            return empty
        keep = ids[did] >= n_bench
        h1, h2, did = h1[keep], h2[keep], did[keep]
        hit = _bloom_test(bs, h1, h2, k=k)
        if not hit.any():
            return empty
        n = np.bincount(did[hit], minlength=ids.size)
        nz = np.flatnonzero(n)
        return pa.table({
            "doc_id": pa.array(ids[nz], pa.int64()),
            "n_contaminated": pa.array(n[nz].astype(np.int64)),
        })

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


def doc_dup_grams_sql(L: int = DUP_GRAM_L) -> str:
    return f"""
WITH grams AS (
  SELECT doc_id,
         substr(text, unnest(generate_series(1, length(text) - {L - 1})),
                {L}) AS g
  FROM documents
),
tot AS (SELECT g, count(*) AS c FROM grams GROUP BY g),
perdoc AS (
  SELECT gr.doc_id, count(*) AS n_dup
  FROM grams gr JOIN tot USING (g)
  WHERE tot.c >= 2
  GROUP BY gr.doc_id
)
SELECT d.doc_id,
       greatest(length(d.text) - {L - 1}, 0)::BIGINT AS n_grams,
       coalesce(p.n_dup, 0)::BIGINT AS n_dup_grams
FROM documents d LEFT JOIN perdoc p USING (doc_id)
ORDER BY doc_id
"""


_HIT_SCHEMA = pa.schema([("doc_id", pa.int64()), ("pos", pa.int64())])


def _dup_gram_hits(sf_dir: str, L: int):
    """Shared pass for the exact-substring (ExactSubstr) family:
    positions of every gram instance whose L-gram occurs >= 2 times
    corpus-wide. One map pass emits (coarse, h1, h2, doc_id, pos) per
    gram instance — positions cannot pre-aggregate, so unlike
    doc_dup_grams this ships ~one fixed-width row per corpus
    CHARACTER; that is the honest cost of exact-substring detection
    (Lee et al. 2021 pay the same via suffix arrays) and the coarse
    width (_DG_COARSE) is the knob that keeps per-bucket size =
    corpus_chars / width bounded at fleet scale. The gram-hash
    groupby keeps only instances of globally-duplicated grams —
    output is dup-mass-sized, typically a tiny fraction of input."""

    def gram_rows(batch: pa.Table) -> pa.Table:
        text = _text_col(batch)
        flat, lens = _codepoints_flat(text)
        h1, h2, did, pos = _gram_hashes(flat, lens, L)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table({
            "coarse": pa.array(
                (h1 & np.uint64(_DG_COARSE - 1)).astype(np.int64)
            ),
            "h1": pa.array(h1, pa.uint64()),
            "h2": pa.array(h2, pa.uint64()),
            "doc_id": pa.array(
                ids[did] if did.size else np.zeros(0, np.int64),
                pa.int64(),
            ),
            "pos": pa.array(pos, pa.int64()),
        })

    def dup_instances(g: pa.Table) -> pa.Table:
        h1 = g["h1"].to_numpy(zero_copy_only=False)
        h2 = g["h2"].to_numpy(zero_copy_only=False)
        doc = g["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = g["pos"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((h2, h1))
        h1s, h2s = h1[order], h2[order]
        new = np.empty(h1s.size, dtype=bool)
        new[0] = True
        new[1:] = (h1s[1:] != h1s[:-1]) | (h2s[1:] != h2s[:-1])
        seg = np.cumsum(new) - 1
        totals = np.bincount(seg)
        dup = order[totals[seg] >= 2]
        return pa.table({"doc_id": doc[dup], "pos": pos[dup]})

    rows = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        gram_rows, batch_format="pyarrow"
    )
    return rows.groupby("coarse").map_groups(
        dup_instances, batch_format="pyarrow"
    )


def _merged_spans(doc: np.ndarray, pos: np.ndarray, L: int):
    """Vectorized interval merge of [pos, pos+L) per doc over a
    (doc, pos)-lexsorted stream: returns (span_doc, span_start,
    span_end) for the maximal merged duplicated spans. Adjacent-or-
    overlapping windows chain (break when the gap exceeds L), the
    gaps-and-islands rule the SQL oracle mirrors with lag()."""
    if doc.size == 0:
        z = np.zeros(0, np.int64)
        return z, z, z
    order = np.lexsort((pos, doc))
    d, p = doc[order], pos[order]
    brk = np.empty(d.size, dtype=bool)
    brk[0] = True
    brk[1:] = (d[1:] != d[:-1]) | ((p[1:] - p[:-1]) > L)
    starts = np.flatnonzero(brk)
    ends = np.append(starts[1:], d.size) - 1
    return d[starts], p[starts], p[ends] + L


def doc_dup_spans(sf_dir: str, L: int = DUP_GRAM_L):
    """(doc_id, n_dup_spans, n_chars_removed): per doc, the maximal
    merged spans of characters covered by corpus-duplicated L-grams —
    the spans ExactSubstr deduplication (Lee et al. 2021 §4.1) cuts —
    and their total character mass. Every doc is emitted (0/0 when
    clean). Reference analog: duplicate detection by content digest
    (D2, Statistics.scala:77-81) sharpened from whole docs to the
    duplicated substrings themselves.

    Shape: the shared ``_dup_gram_hits`` gram-hash shuffle (see its
    scale note), then one ``co_group`` on doc_id of a doc spine and
    the dup-mass-sized hit stream; per-group interval merge is a
    single lexsort + flag diff. Counts are integers, so the SQL
    oracle hash is exact."""
    import pandas as pd

    def finalize(sp, h) -> pd.DataFrame:
        sd, ss, se = _merged_spans(h["doc_id"], h["pos"], L)
        all_ids = np.unique(sp["doc_id"])
        n_spans = np.zeros(all_ids.size, np.int64)
        n_chars = np.zeros(all_ids.size, np.int64)
        di = np.searchsorted(all_ids, sd)  # every hit doc is in the spine
        np.add.at(n_spans, di, 1)
        np.add.at(n_chars, di, se - ss)
        return pd.DataFrame({
            "doc_id": all_ids,
            "n_dup_spans": n_spans,
            "n_chars_removed": n_chars,
        })

    return co_group(
        finalize,
        (_docs(sf_dir, ["doc_id"]), None,
         pa.schema([("doc_id", pa.int64())])),
        (_dup_gram_hits(sf_dir, L), None, _HIT_SCHEMA),
    )


def doc_dup_spans_sql(L: int = DUP_GRAM_L) -> str:
    return f"""
WITH posn AS (
  SELECT doc_id, text,
         unnest(generate_series(1, length(text) - {L - 1})) AS p
  FROM documents
),
grams AS (SELECT doc_id, p, substr(text, p, {L}) AS g FROM posn),
tot AS (SELECT g, count(*) AS c FROM grams GROUP BY g),
hits AS (
  SELECT gr.doc_id, gr.p FROM grams gr JOIN tot USING (g)
  WHERE tot.c >= 2
),
flags AS (
  SELECT doc_id, p,
         CASE WHEN p - lag(p) OVER (PARTITION BY doc_id ORDER BY p)
                   <= {L} THEN 0 ELSE 1 END AS brk
  FROM hits
),
isl AS (
  SELECT doc_id, p,
         sum(brk) OVER (PARTITION BY doc_id ORDER BY p) AS isl_id
  FROM flags
),
spans AS (
  SELECT doc_id, isl_id, min(p) AS s, max(p) + {L} AS e
  FROM isl GROUP BY 1, 2
),
per AS (
  SELECT doc_id, count(*) AS n_spans, sum(e - s) AS chars
  FROM spans GROUP BY 1
)
SELECT d.doc_id,
       coalesce(per.n_spans, 0)::BIGINT AS n_dup_spans,
       coalesce(per.chars, 0)::BIGINT AS n_chars_removed
FROM documents d LEFT JOIN per USING (doc_id)
ORDER BY doc_id
"""


def corpus_dedup_substrings(sf_dir: str, L: int = DUP_GRAM_L):
    """(doc_id, text): the corpus with every duplicated span CUT —
    ExactSubstr deduplication proper (Lee et al. 2021 §4.1: remove
    all copies of any substring of >= L chars that appears more than
    once corpus-wide). Rows-only BY DESIGN (multi-span string surgery
    is not reasonably SQL-expressible); exactness is carried by the
    ``doc_dup_spans`` oracle plus the pytest invariant
    len(text) - n_chars_removed == len(cleaned) per doc and a
    planted-shared-span fixture.

    Shape: the shared ``_dup_gram_hits`` stream and a text-carrying
    doc spine meet in one ``co_group`` on doc_id (the text ships
    once — it is the op's output anyway), per-group span merge then
    per-doc segment splice (string surgery is inherently per-doc;
    the span math above it is vectorized)."""
    import pandas as pd

    def spine(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch["doc_id"], "text": _text_col(batch)})

    def finalize(sp, h) -> pd.DataFrame:
        sd, ss, se = _merged_spans(h["doc_id"], h["pos"], L)
        order = np.argsort(sp["doc_id"], kind="stable")
        ids, out = sp["doc_id"][order], sp["text"][order]
        lo = np.searchsorted(sd, ids, side="left")
        hi = np.searchsorted(sd, ids, side="right")
        for i in np.flatnonzero(hi > lo):
            s = out[i]
            parts, at = [], 0
            for a, b in zip(ss[lo[i]:hi[i]], se[lo[i]:hi[i]]):
                parts.append(s[at:a])
                at = b
            parts.append(s[at:])
            out[i] = "".join(parts)
        return pd.DataFrame({"doc_id": ids, "text": out})

    return co_group(
        finalize,
        (_docs(sf_dir, ["doc_id", "text"]), spine,
         pa.schema([("doc_id", pa.int64()), ("text", pa.large_string())])),
        (_dup_gram_hits(sf_dir, L), None, _HIT_SCHEMA),
    )


def lang_guess(sf_dir: str):
    """(doc_id, lang_guess, marker_hits) — n-gram-free marker-word
    language heuristic (count of distinct EN marker terms present)."""

    def f(batch: pa.Table) -> pa.Table:
        lists = _TOK.token_lists(_text_col(batch))
        parents = pc.list_parent_indices(lists)
        flat = pc.list_flatten(lists)
        keep = pc.is_in(flat, value_set=pa.array(EN_MARKERS))
        par = pc.filter(parents, keep)
        fl = pc.filter(flat, keep)
        n = batch.num_rows
        hits = np.zeros(n, dtype=np.int64)
        if len(fl) > 0:
            pairs = pa.table({"d": par, "t": fl}).group_by(["d", "t"]).aggregate([])
            cnt = (
                pa.table({"d": pairs["d"]})
                .group_by("d")
                .aggregate([([], "count_all")])
            )
            hits[cnt["d"].to_numpy(zero_copy_only=False)] = cnt[
                "count_all"
            ].to_numpy(zero_copy_only=False)
        guess = pa.array(
            np.where(hits > 0, "en", "und"), type=pa.string()
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang_guess": guess,
                "marker_hits": pa.array(hits, type=pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


def lang_confusion(sf_dir: str):
    """(lang, lang_guess, n_docs): the label-vs-classifier CONFUSION
    MATRIX between the table's lang labels and the marker-word
    heuristic — the audit every labeled corpus needs before trusting
    either side (per-cell counts localize WHERE the disagreement
    lives, which neither accuracy number does). One pass: each batch
    computes the guess with lang_guess's exact kernel and emits
    (lang, guess) count partials; a (langs x 2)-sized groupby sums
    them."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        lists = _TOK.token_lists(_text_col(batch))
        parents = pc.list_parent_indices(lists)
        flat = pc.list_flatten(lists)
        keep = pc.is_in(flat, value_set=pa.array(EN_MARKERS))
        par = pc.filter(parents, keep)
        fl = pc.filter(flat, keep)
        hits = np.zeros(batch.num_rows, dtype=np.int64)
        if len(fl) > 0:
            pairs = pa.table({"d": par, "t": fl}).group_by(
                ["d", "t"]).aggregate([])
            cnt = (
                pa.table({"d": pairs["d"]})
                .group_by("d").aggregate([([], "count_all")])
            )
            hits[cnt["d"].to_numpy(zero_copy_only=False)] = cnt[
                "count_all"].to_numpy(zero_copy_only=False)
        g = pa.table({
            "lang": batch["lang"],
            "lang_guess": pa.array(
                np.where(hits > 0, "en", "und"), type=pa.string()
            ),
        }).group_by(["lang", "lang_guess"]).aggregate([([], "count_all")])
        return agg_select(g, {
            "lang": "lang", "lang_guess": "lang_guess",
            "count_all": "n_partial",
        })

    return (
        _docs(sf_dir, ["doc_id", "lang", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "lang_guess"])
        .aggregate(Sum("n_partial", alias_name="n_docs"))
    )


def lang_confusion_sql() -> str:
    from sotohp_ray.functions.tokenizer import sql_token_expr

    texpr = sql_token_expr("text")
    markers = ", ".join(f"'{m}'" for m in EN_MARKERS)
    return f"""
        WITH t AS (
          SELECT doc_id, unnest({texpr}) AS term FROM documents),
        hits AS (
          SELECT doc_id, count(DISTINCT term) AS h
          FROM t WHERE term IN ({markers}) GROUP BY doc_id)
        SELECT d.lang,
               CASE WHEN coalesce(h.h, 0) > 0 THEN 'en' ELSE 'und' END
                 AS lang_guess,
               count(*) AS n_docs
        FROM documents d LEFT JOIN hits h USING (doc_id)
        GROUP BY 1, 2
    """


# ----------------------------------------------------------------- dedup


NB_VOCAB_SIZE = 2048


def nb_lang_scores(sf_dir: str, vocab_size: int = NB_VOCAB_SIZE):
    """(doc_id, lang, score): add-one-smoothed multinomial Naive Bayes
    log-posterior (unnormalized) of every document under EACH language
    class, trained on the corpus itself (the ``lang`` column as
    labels): score(d,l) = ln P(l) + sum_t tf_dt * ln((c(l,t)+1) /
    (c(l,.)+V)) over the corpus top-``vocab_size`` vocabulary
    (out-of-vocabulary tokens are skipped — the bounded-model rule of
    ``doc_lm_score``). This is supervised MODEL TRAINING expressed as
    pure counting, which makes the trained model itself — not just a
    prediction accuracy — SQL-expressible and oracle-gated. Round 6
    (the per-doc float-aggregate precedent).

    Three bounded passes over the analyzed-tokens sidecar: (1) top-V
    vocabulary (A1 partial+final count); (2) (lang, term) counts —
    per-batch combiner then a <= L*V-row groupby — plus the L-row
    prior counts; (3) scoring with the dense (V, L) log-prob matrix
    broadcast once via ray.put, one gather + one np.add.at per batch.
    At fleet scale every exchange is model-sized (L*V), never
    corpus-sized."""
    import ray
    from ray.data.aggregate import Sum

    # ---- pass 1: top-V vocabulary by collection frequency ----
    def counts(batch: pa.Table) -> pa.Table:
        return _term_count_rows(batch, "term", "cnt", pa.string())

    top = (
        _docs_tokens(sf_dir)
        .map_batches(counts, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("cnt", alias_name="cf"))
        .to_pandas()
        .sort_values(["cf", "term"], ascending=[False, True])
        .head(vocab_size)
    )
    vocab = np.sort(top["term"].to_numpy().astype("O"))
    v = len(vocab)
    vref = ray.put(pa.array(vocab.tolist(), pa.large_string()))

    # ---- pass 2: priors + per-language term counts ----
    def lt_partial(batch: pa.Table) -> pa.Table:
        parents, flat = _exploded_of(batch)
        pn = parents.to_numpy(zero_copy_only=False)
        lg = batch["lang"].to_numpy(zero_copy_only=False).astype("O")
        keep = pc.is_in(
            flat, value_set=ray.get(vref).cast(flat.type)
        ).to_numpy(zero_copy_only=False)
        t = pa.table({
            "lang": pa.array(lg[pn[keep]]),
            "term": pc.filter(flat, pa.array(keep)).cast(pa.string()),
        })
        g = t.group_by(["lang", "term"]).aggregate([([], "count_all")])
        return agg_select(
            g, {"lang": "lang", "term": "term", "count_all": "c_partial"}
        )

    lt = (
        _docs_tokens(sf_dir)
        .map_batches(lt_partial, batch_format="pyarrow")
        .groupby(["lang", "term"])
        .aggregate(Sum("c_partial", alias_name="c"))
        .to_pandas()
    )
    priors = (
        _docs_tokens(sf_dir)
        .groupby("lang")
        .count()
        .to_pandas()
        .rename(columns={"count()": "nd"})
    )
    langs = np.sort(priors["lang"].to_numpy().astype("O"))
    lrow = {g: i for i, g in enumerate(langs)}
    n_total = float(priors["nd"].sum())
    prior = np.zeros(langs.size, dtype=np.float64)
    prior[[lrow[g] for g in priors["lang"]]] = np.log(
        priors["nd"].to_numpy(np.float64) / n_total
    )
    C = np.zeros((v, langs.size), dtype=np.float64)
    if len(lt):
        ti = np.searchsorted(vocab, lt["term"].to_numpy().astype("O"))
        li = np.array([lrow[g] for g in lt["lang"]], dtype=np.int64)
        C[ti, li] = lt["c"].to_numpy(np.float64)
    ct = C.sum(axis=0)  # c(l, .)
    logp = np.log((C + 1.0) / (ct + v)[None, :])  # (V, L)
    mref = ray.put((logp, prior, langs))

    # ---- pass 3: score every doc under every class ----
    def score(batch: pa.Table) -> pa.Table:
        lp, pr, lgs = ray.get(mref)
        parents, flat = _exploded_of(batch)
        pn = parents.to_numpy(zero_copy_only=False)
        vid = pc.fill_null(
            pc.index_in(flat, value_set=ray.get(vref).cast(flat.type)),
            -1,
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        inv = vid >= 0
        s = np.tile(pr, (batch.num_rows, 1))
        if inv.any():
            np.add.at(s, pn[inv], lp[vid[inv]])
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        L = lgs.size
        return pa.table({
            "doc_id": pa.array(np.repeat(ids, L), pa.int64()),
            "lang": pa.array(np.tile(lgs, ids.size).astype("O")),
            "score": pa.array(
                np.round(s.ravel(), 6), pa.float64()
            ),
        })

    return _docs_tokens(sf_dir).map_batches(
        score, batch_format="pyarrow"
    )


def nb_lang_scores_sql(vocab_size: int = NB_VOCAB_SIZE) -> str:
    from sotohp_ray.functions.tokenizer import sql_token_expr

    texpr = sql_token_expr("text")
    return f"""
WITH toks AS (
  SELECT d.doc_id, d.lang, unnest({texpr}) AS term FROM documents d
),
vocab AS (
  SELECT term FROM toks GROUP BY term
  ORDER BY count(*) DESC, term ASC LIMIT {vocab_size}
),
vsize AS (SELECT count(*) AS v FROM vocab),
vtoks AS (SELECT t.* FROM toks t JOIN vocab USING (term)),
langs AS (SELECT lang, count(*) AS nd FROM documents GROUP BY 1),
total AS (SELECT count(*) AS n FROM documents),
counts AS (SELECT lang, term, count(*) AS c FROM vtoks GROUP BY 1, 2),
ltot AS (SELECT lang, sum(c) AS ct FROM counts GROUP BY 1),
dt AS (SELECT doc_id, term, count(*) AS tf FROM vtoks GROUP BY 1, 2),
pairs AS (
  SELECT d.doc_id, l.lang, l.nd, coalesce(lt.ct, 0) AS ct
  FROM (SELECT DISTINCT doc_id FROM documents) d
  CROSS JOIN langs l
  LEFT JOIN ltot lt ON lt.lang = l.lang
)
SELECT p.doc_id, p.lang,
       round(
         ln(CAST(p.nd AS DOUBLE) / (SELECT n FROM total))
         + coalesce(sum(
             dt.tf * ln((coalesce(c.c, 0) + 1.0)
                        / (p.ct + (SELECT v FROM vsize)))
           ), 0.0),
         6) AS score
FROM pairs p
LEFT JOIN dt ON dt.doc_id = p.doc_id
LEFT JOIN counts c ON c.lang = p.lang AND c.term = dt.term
GROUP BY p.doc_id, p.lang, p.nd, p.ct
"""


def nb_lang_predictions(sf_dir: str, vocab_size: int = NB_VOCAB_SIZE):
    """(doc_id, lang_true, lang_pred): argmax over the oracle-gated
    ``nb_lang_scores`` table (score desc, lang asc tie) joined back to
    the label — the classify side. Rows-only BY DESIGN: the argmax of
    round-6 scores can flip on sub-1e-6 knife edges between engines,
    so exactness lives in the SCORES oracle while predictions are
    pytest-gated (disjoint-vocabulary planted corpus = 100% accuracy;
    consistency with the scores argmax)."""
    import pandas as pd

    scores = nb_lang_scores(sf_dir, vocab_size)

    def pick(g) -> pd.DataFrame:
        g = pd.DataFrame(g).sort_values(["doc_id", "score", "lang"],
                                        ascending=[True, False, True])
        top = g.groupby("doc_id", sort=False).head(1)
        return top[["doc_id", "lang"]].rename(
            columns={"lang": "lang_pred"}
        )

    pred = co_group(pick, (
        scores, None,
        pa.schema([("doc_id", pa.int64()), ("lang", pa.string()),
                   ("score", pa.float64())]),
    )).to_pandas()
    truth = _docs(sf_dir, ["doc_id", "lang"]).to_pandas().rename(
        columns={"lang": "lang_true"}
    )
    out = truth.merge(pred, on="doc_id").sort_values("doc_id")
    return pa.table({
        "doc_id": pa.array(out["doc_id"].to_numpy(np.int64)),
        "lang_true": pa.array(out["lang_true"].astype(str)),
        "lang_pred": pa.array(out["lang_pred"].astype(str)),
    })


def _sha_hex_np(text: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Per-row sha256 hex digests as a numpy '<U64' array — ONE
    definition feeding both the dedup groupby key and the
    cleaned-corpus drop filter (drifting hash rules would silently
    split clusters)."""
    return np.array(
        [hashlib.sha256(v.as_buffer()).hexdigest() for v in text],
        dtype="<U64",
    )


def dedup_exact(sf_dir: str):
    """(sha, keep_id, n_dups): exact dedup by content hash —
    hash-partitioned groupby keeping the lowest doc_id (D1/D2)."""
    from ray.data.aggregate import Count, Min

    def add_sha(batch: pa.Table) -> pa.Table:
        sha = pa.array(_sha_hex_np(_text_col(batch)), type=pa.string())
        return pa.table({"doc_id": batch["doc_id"], "sha": sha})

    ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        add_sha, batch_format="pyarrow"
    )
    return ds.groupby("sha").aggregate(
        Min("doc_id", alias_name="keep_id"), Count(alias_name="n_dups")
    )


def _kept_doc_lengths(sf_dir: str, mask_of):
    """(doc_id, n_chars) for rows passing ``mask_of(ids, batch)`` —
    the shared projection of both cleaned-corpus ops (one definition,
    so empty-batch/schema fixes can't drift between them)."""
    def f(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        out = batch.filter(pa.array(mask_of(ids, batch)))
        return pa.table({
            "doc_id": out["doc_id"],
            "n_chars": pc.utf8_length(_text_col(out)).cast(pa.int64()),
        })

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


def corpus_dedup_exact(sf_dir: str):
    """(doc_id, n_chars): the CLEANED corpus after exact dedup — one
    row per distinct content (the sha cluster's min doc_id). The
    broadcast is DUPLICATE-CLUSTER-sized, not corpus-sized: only
    (sha, keep_id) rows of clusters with n_dups > 1 ship (a
    mostly-unique corpus broadcasts almost nothing); each batch
    recomputes its rows' shas (one streaming hash pass) and drops the
    rows of a dup cluster that aren't its keeper."""
    return _kept_doc_lengths(sf_dir, exact_keep_mask(sf_dir))


def exact_keep_mask(sf_dir: str):
    """-> ``mask_of(ids, batch) -> bool[]`` dropping every exact-dup
    row that is not its sha cluster's keeper. Broadcast state is
    DUPLICATE-CLUSTER-sized; shared by the cleaned-corpus query and
    the export sink so the keep rule cannot drift between them."""
    import ray

    dd = dedup_exact(sf_dir).map_batches(
        lambda b: b.filter(pc.greater(b["n_dups"], 1)),
        batch_format="pyarrow",
    ).to_pandas()
    if len(dd) and "sha" in dd.columns:
        sha_arr = dd["sha"].to_numpy().astype("<U64")
        keep_arr = dd["keep_id"].to_numpy().astype(np.int64)
    else:  # no dup clusters (an all-empty filter drops the schema too)
        sha_arr = np.zeros(0, dtype="<U64")
        keep_arr = np.zeros(0, dtype=np.int64)
    order = np.argsort(sha_arr)
    ref = ray.put((sha_arr[order], keep_arr[order]))

    def mask_of(ids: np.ndarray, batch: pa.Table) -> np.ndarray:
        sha_s, keep_s = ray.get(ref)
        if sha_s.size == 0:
            return np.ones(ids.size, dtype=bool)
        shas = _sha_hex_np(_text_col(batch))
        pos, in_dup = sorted_lookup(sha_s, shas)
        keep = np.ones(ids.size, dtype=bool)
        keep[in_dup] = ids[in_dup] == keep_s[pos[in_dup]]
        return keep

    return mask_of


def corpus_dedup_exact_sql() -> str:
    return """
SELECT doc_id, length(text) AS n_chars FROM documents
QUALIFY row_number() OVER (
  PARTITION BY sha256(text) ORDER BY doc_id
) = 1
ORDER BY doc_id
"""


def corpus_dedup_near(sf_dir: str, threshold: float = 0.6):
    """(doc_id, n_chars): the cleaned corpus after NEAR-dup removal —
    drops every clustered doc except its cluster's canonical
    (near_dup_dedup), keeping unclustered docs. The drop set is
    output-sized; broadcast + ``np.isin`` per batch. Rows-only (the
    MinHash candidate set is not SQL-expressible); the keep/drop
    arithmetic is pytest-gated."""
    return _kept_doc_lengths(sf_dir, near_keep_mask(sf_dir, threshold))


def near_keep_mask(sf_dir: str, threshold: float = 0.6):
    """-> ``mask_of(ids, batch) -> bool[]`` dropping every near-dup
    cluster member except its canonical. Broadcast DROP set is
    cluster-member-sized; shared by the cleaned-corpus query and the
    export sink."""
    import ray

    cl = near_dup_dedup(sf_dir, threshold)
    d = cl["doc_id"].to_numpy()
    c = cl["canonical_id"].to_numpy()
    dref = ray.put(np.sort(d[d != c]))

    def mask_of(ids: np.ndarray, batch: pa.Table) -> np.ndarray:
        dr = ray.get(dref)
        return ~np.isin(ids, dr, assume_unique=True, kind="sort")

    return mask_of



def exact_drop_ids(sf_dir: str) -> np.ndarray:
    """Sorted doc_ids DROPPED by exact dedup (every dup-cluster member
    except its keeper) — dup-cluster-sized, computed by one streaming
    hash pass that emits only the dropped ids."""
    mask_of = exact_keep_mask(sf_dir)

    def dropped(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        m = mask_of(ids, batch)
        return pa.table({"doc_id": pa.array(ids[~m], pa.int64())})

    out = []
    ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        dropped, batch_format="pyarrow"
    )
    for blk in ds.iter_batches(batch_format="numpy", batch_size=None):
        if blk["doc_id"].size:
            out.append(np.asarray(blk["doc_id"], dtype=np.int64))
    return (
        np.sort(np.concatenate(out)) if out
        else np.zeros(0, dtype=np.int64)
    )


def corpus_prepare(
    sf_dir: str,
    threshold: float = 0.6,
    min_tokens: int = QF_MIN_TOKENS,
    max_tokens: int = QF_MAX_TOKENS,
    min_distinct_pct: int = QF_MIN_DISTINCT_PCT,
    n_bench: int = DECON_BENCH_DOCS,
    L: int = DUP_GRAM_L,
):
    """(doc_id, n_tokens): the end-to-end CLEANED TRAINING CORPUS —
    the composition a real data pipeline runs before tokenizer/shard
    export, as ONE operator with ONE composed SQL oracle. A document
    survives iff it passes ALL FOUR independent keep predicates, each
    evaluated on the RAW corpus:

    1. exact-dedup keeper (sha cluster min-id rule, D1);
    2. near-dedup keeper — canonical of the EXACT set-similarity
       components (the oracle-friendly guaranteed-recall twin of the
       MinHash path; same clustering contract as near_dup_dedup);
    3. heuristic quality gate (token count in [min, max], distinct
       ratio >= pct — corpus_quality_filter's integer-exact rule);
    4. decontamination: not a benchmark doc (doc_id < n_bench) and
       ZERO benchmark character-L-gram overlap (GPT-3 appendix C).

    Intersection-of-independent-predicates semantics are deliberately
    ORDER-FREE — that is what keeps the whole composition
    SQL-expressible (sequential filtering would make each stage's
    input depend on the previous stage's output and the oracle would
    have to replicate the exact staging).

    Cost shape: quality_stats' streaming pass carries the survivors;
    the three drop sets broadcast output-sized (dup members, near-dup
    members, contaminated ids); the near-dup components come from the
    DURABLE setjoin pair cache, so a session that already ran the
    join pays nothing."""
    import ray

    comp = similarity_components(sf_dir, threshold).to_pandas()
    near_drop = comp.loc[
        comp["doc_id"] != comp["canonical_id"], "doc_id"
    ].to_numpy().astype(np.int64)
    cont = decontaminate(sf_dir, n_bench, L).to_pandas()
    cont_ids = cont.loc[
        cont["n_contaminated"] > 0, "doc_id"
    ].to_numpy().astype(np.int64)
    drops = np.unique(np.concatenate((
        exact_drop_ids(sf_dir), near_drop, cont_ids
    )))
    dref = ray.put(drops)

    def keep(batch: pa.Table) -> pa.Table:
        dr = ray.get(dref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        nt = batch["n_tokens"].to_numpy(zero_copy_only=False)
        nd = batch["n_distinct_terms"].to_numpy(zero_copy_only=False)
        m = (
            (ids >= n_bench)
            & (nt >= min_tokens) & (nt <= max_tokens)
            & (nd * 100 >= min_distinct_pct * nt)
            & ~np.isin(ids, dr, kind="sort")
        )
        out = batch.filter(pa.array(m))
        return out.select(["doc_id", "n_tokens"])

    return quality_stats(sf_dir).map_batches(
        keep, batch_format="pyarrow"
    )


def corpus_prepare_sql(
    threshold: float = 0.6,
    shingle_n: int = 3,
    min_tokens: int = QF_MIN_TOKENS,
    max_tokens: int = QF_MAX_TOKENS,
    min_distinct_pct: int = QF_MIN_DISTINCT_PCT,
    n_bench: int = DECON_BENCH_DOCS,
    L: int = DUP_GRAM_L,
) -> str:
    from sotohp_ray.functions.tokenizer import sql_token_expr

    texpr = sql_token_expr("text")
    pair_sql = set_similarity_join_sql(threshold, shingle_n)
    return f"""
WITH RECURSIVE pairs AS ({pair_sql}),
simedges AS (
  SELECT doc_a AS a, doc_b AS b FROM pairs
  UNION ALL
  SELECT doc_b, doc_a FROM pairs
),
reach(doc_id, lbl) AS (
  SELECT a, a FROM simedges
  UNION
  SELECT e.a, r.lbl FROM simedges e JOIN reach r ON r.doc_id = e.b
),
comp AS (SELECT doc_id, min(lbl) AS canonical_id FROM reach
         GROUP BY doc_id),
near_drop AS (SELECT doc_id FROM comp WHERE doc_id <> canonical_id),
exact_keep AS (
  SELECT doc_id FROM documents
  QUALIFY row_number() OVER (
    PARTITION BY sha256(text) ORDER BY doc_id
  ) = 1
),
qtoks AS (SELECT doc_id, unnest({texpr}) AS term FROM documents),
agg AS (
  SELECT doc_id, count(*) AS n_tokens,
         count(DISTINCT term) AS nd
  FROM qtoks GROUP BY doc_id
),
bg AS (
  SELECT DISTINCT
         substr(text, unnest(generate_series(1, length(text) - {L - 1})),
                {L}) AS g
  FROM documents WHERE doc_id < {n_bench}
),
grams AS (
  SELECT doc_id,
         substr(text, unnest(generate_series(1, length(text) - {L - 1})),
                {L}) AS g
  FROM documents WHERE doc_id >= {n_bench}
),
cont AS (SELECT DISTINCT doc_id FROM grams JOIN bg USING (g))
SELECT a.doc_id AS doc_id, CAST(a.n_tokens AS BIGINT) AS n_tokens
FROM agg a
JOIN exact_keep ek ON ek.doc_id = a.doc_id
WHERE a.doc_id >= {n_bench}
  AND a.n_tokens BETWEEN {min_tokens} AND {max_tokens}
  AND a.nd * 100 >= {min_distinct_pct} * a.n_tokens
  AND a.doc_id NOT IN (SELECT doc_id FROM near_drop)
  AND a.doc_id NOT IN (SELECT doc_id FROM cont)
ORDER BY a.doc_id
"""


class MinHashStage:
    """LSH band emission. Runs as a TASK-pool ``map_batches`` stage
    with per-worker cached state (``for_worker``): the permutation
    coefficients are cheap to build, and a dedicated actor pool would
    pay a fresh process spawn (~2 s) per pipeline run — the
    PartitionIndexer discipline (build_index.py). The whole batch is
    one vectorized pass (token hashing per unique token, windowed
    shingle mixing, signature minima and band hashes all in numpy —
    no per-doc Python loop)."""

    _cache: dict[tuple, "MinHashStage"] = {}

    def __init__(self, num_perm: int = 64, bands: int = 16, shingle_n: int = 3):
        self.a, self.b = minhash_params(num_perm)
        self.num_perm = num_perm
        self.bands = bands
        self.shingle_n = shingle_n

    @classmethod
    def for_worker(cls, num_perm: int, bands: int, shingle_n: int = 3):
        key = (num_perm, bands, shingle_n)
        inst = cls._cache.get(key)
        if inst is None:
            inst = cls._cache[key] = cls(num_perm, bands, shingle_n)
        return inst

    def __call__(self, batch: pa.Table) -> pa.Table:
        from sotohp_ray.functions.hashing import (
            _fmix64,
            band_hashes,
            batch_minhash_signatures,
            token_hash_array,
        )

        parents, flat = _TOK.exploded(_text_col(batch))
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        n = len(batch)
        sig = batch_minhash_signatures(
            parents.to_numpy(zero_copy_only=False),
            token_hash_array(flat),
            n, self.a, self.b, self.shingle_n,
        )
        bh = band_hashes(sig, self.bands)  # (n, bands)
        bands_idx = np.tile(np.arange(self.bands, dtype=np.int32), n)
        # bkey: ONE int64 mixing (band, band_hash) — the single-column
        # bucket key every downstream pass groups/filters on (a rare
        # mix collision only merges two buckets for the count pass; the
        # real groupby is still on (band, band_hash))
        bkey = _fmix64(
            bh.reshape(-1).astype(np.uint64)
            ^ (bands_idx.astype(np.uint64) + np.uint64(0x9E3779B9))
        ).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(
                    np.repeat(doc_ids.astype(np.int64), self.bands),
                    type=pa.int64(),
                ),
                "band": pa.array(bands_idx, type=pa.int32()),
                "band_hash": pa.array(
                    bh.reshape(-1).astype(np.int64), type=pa.int64()
                ),
                "bkey": pa.array(bkey, type=pa.int64()),
            }
        )


def _dup_members(ds):
    """Rows of ``ds`` whose int64 ``bkey`` occurs more than once.

    Two-pass dup-bucket detection that never runs per-group Python over
    singleton buckets: (1) a vectorized count groupby on the single
    int64 key finds dup keys (output is dup-bucket-sized, tiny on a
    mostly-unique corpus); (2) dup keys broadcast ONCE via ``ray.put``
    and each batch filters with one sorted ``np.isin`` — no per-row
    Python membership tests. Returns (members_ds, n_dup_keys).
    """
    import ray
    from ray.data.aggregate import Count

    counts = ds.groupby("bkey").aggregate(Count(alias_name="n"))

    def _dups_only(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater(batch["n"], 1)).select(["bkey"])

    dup_df = counts.map_batches(
        _dups_only, batch_format="pyarrow"
    ).to_pandas()
    # an all-unique corpus yields an empty frame that LOSES its schema
    # in to_pandas — guard before the column access
    dup_keys = (
        np.sort(dup_df["bkey"].to_numpy())
        if len(dup_df)
        else np.zeros(0, dtype=np.int64)
    )
    if dup_keys.size == 0:
        return None, 0
    keyref = ray.put(dup_keys)

    def _member(batch: pa.Table) -> pa.Table:
        keys = ray.get(keyref)
        bk = batch["bkey"].to_numpy(zero_copy_only=False)
        mask = np.isin(bk, keys, assume_unique=False, kind="sort")
        out = batch.filter(pa.array(mask))
        # coarse partition key: ~256 groups, each holding many whole
        # buckets — downstream passes groupby THIS and run vectorized
        # within-group joins/groupbys instead of per-bucket map_groups
        coarse = (
            out["bkey"].to_numpy(zero_copy_only=False) & 0xFF
        ).astype(np.int64)
        return out.append_column("coarse", pa.array(coarse, pa.int64()))

    return ds.map_batches(_member, batch_format="pyarrow"), int(dup_keys.size)


def _minhash_band_index(sf_dir: str, num_perm: int = 64, bands: int = 16):
    """The MinHash BAND INDEX as a durable derived artifact: (doc_id,
    band, band_hash, bkey) rows, written once per (corpus, params) to
    a cache dir and streamed thereafter (band rows are 4 ints per
    (doc, band) — tiny next to the corpus). This is the artifact a
    production dedup pipeline persists: signature computation is the
    expensive pass, every candidate/verify consumer is a cheap scan
    over it. Published by ``cache.artifact`` (private staging dir,
    atomic rename: idempotent under concurrent builds)."""
    import ray.data

    def stage(batch: pa.Table) -> pa.Table:
        return MinHashStage.for_worker(num_perm, bands)(batch)

    def build(staging: str) -> None:
        _docs(sf_dir, ["doc_id", "text"]).map_batches(
            stage, batch_format="pyarrow"
        ).write_parquet(staging)

    return ray.data.read_parquet(cache.artifact(
        "bands", f"{sf_dir}/documents.parquet", (num_perm, bands), build
    ))


def _minhash_members(sf_dir: str, num_perm: int = 64, bands: int = 16):
    """Band rows restricted to dup buckets: (doc_id, band, band_hash,
    bkey, coarse) for every (doc, band) whose bucket has >1 member.
    Cached like the band index (a pure function of it): the dup-count
    groupby + membership filter run once per corpus, and both
    minhash_candidates and near_dup_pairs stream the result. An empty
    artifact means the corpus has no dup buckets."""
    import os

    import ray.data

    def build(staging: str) -> None:
        members, _ = _dup_members(_minhash_band_index(sf_dir, num_perm, bands))
        if members is not None:
            members.write_parquet(staging)

    d = cache.artifact(
        "band-members", f"{sf_dir}/documents.parquet", (num_perm, bands),
        build,
    )
    return ray.data.read_parquet(d) if os.listdir(d) else None


def minhash_candidates(sf_dir: str, num_perm: int = 64, bands: int = 16):
    """(band, band_hash, n_docs, doc_ids) LSH buckets with >1 doc —
    near-dup candidate groups. shingle->minhash->band->bucket.

    Fully distributed: dup buckets found by a count groupby on the
    mixed int64 bucket key, members re-selected with a broadcast
    ``np.isin`` filter, and the bucket rows assembled in a
    ``groupby(bucket).map_groups`` that only ever sees dup buckets
    (never one DataFrame per singleton bucket)."""
    import pandas as pd

    members = _minhash_members(sf_dir, num_perm, bands)
    if members is None:
        return pa.table({
            "band": pa.array([], pa.int32()),
            "band_hash": pa.array([], pa.int64()),
            "n_docs": pa.array([], pa.int64()),
            "doc_ids": pa.array([], pa.string()),
        })

    def bucket_rows(g: pd.DataFrame) -> pd.DataFrame:
        # one COARSE group holds many buckets; assemble them all with
        # one vectorized pandas groupby (per-bucket map_groups paid
        # ~1 ms of per-group overhead per bucket — thousands of dup
        # buckets made that the wall)
        g = g.sort_values(["band", "band_hash", "doc_id"])
        out = g.groupby(["band", "band_hash"], sort=True).agg(
            n_docs=("doc_id", "size"),
            doc_ids=("doc_id", lambda s: ",".join(map(str, s))),
        ).reset_index()
        return out[out["n_docs"] > 1]  # bkey mix collision artifacts

    rows = (
        members.groupby("coarse")
        .map_groups(bucket_rows, batch_format="pandas")
        .to_pandas()  # output-sized: one row per dup bucket
    )
    return pa.Table.from_pandas(
        rows.sort_values(["band", "band_hash"]).reset_index(drop=True)[
            ["band", "band_hash", "n_docs", "doc_ids"]
        ],
        preserve_index=False,
    )


def _finalize_pairs(pairs_ds, a_parts, b_parts, j_parts=None):
    """Output-sized finalize shared by the near-dup pipelines: drain
    the distributed verify output into numpy, then dedup+order the
    full pair list with ONE lexsort and a run-boundary mask. A crawl
    mega-clique makes this list huge (B identical docs = B(B-1)/2
    pairs), so pandas concat/drop_duplicates/sort_values — which
    re-factorize the columns several times — is replaced by a single
    sort pass. Returns None when there are no pairs; ``j_parts`` adds
    an optional float column (jaccard) carried through the dedup."""
    for blk in pairs_ds.iter_batches(batch_format="numpy", batch_size=None):
        if blk["doc_a"].size:
            a_parts.append(np.asarray(blk["doc_a"], dtype=np.int64))
            b_parts.append(np.asarray(blk["doc_b"], dtype=np.int64))
            if j_parts is not None:
                j_parts.append(np.asarray(blk["jaccard"], dtype=np.float64))
    if not a_parts:
        return None
    da = np.concatenate(a_parts)
    db = np.concatenate(b_parts)
    order = np.lexsort((db, da))
    da, db = da[order], db[order]
    keep = np.ones(da.size, dtype=bool)
    keep[1:] = (np.diff(da) != 0) | (np.diff(db) != 0)
    cols = {
        "doc_a": pa.array(da[keep], pa.int64()),
        "doc_b": pa.array(db[keep], pa.int64()),
    }
    if j_parts is not None:
        jj = np.concatenate(j_parts)[order]
        cols["jaccard"] = pa.array(jj[keep], pa.float64())
    return pa.table(cols)


def _shingle_sets(texts: pa.Array, shingle_n: int):
    """Per-row DISTINCT shingle sets over analyzed tokens — the ONE
    set definition shared by the whole near-dup family (the
    LSH-candidate ``near_dup_pairs`` path and the exact-recall
    ``set_similarity_join``): n-token window hashes for rows with at
    least ``shingle_n`` tokens, one order-insensitive whole-row hash
    for shorter non-empty rows (the ``batch_minhash_signatures``
    segment-sum rule, so short identical docs still pair up).

    Returns ``(offsets, sh_val, ckey)``: ``offsets`` int64 row
    boundaries (n+1), ``sh_val`` the distinct uint64 shingle values
    sorted ascending WITHIN each row (verify stages rely on the
    within-row order), ``ckey`` an int64 content key per row — equal
    sets => equal key; unequal sets collide with 64-bit-hash
    probability (only set-equality discrimination is required)."""
    from sotohp_ray.functions.hashing import (
        _WIN_MULS, _fmix64, token_hash_array,
    )

    n = len(texts)
    parents, flat = _TOK.exploded(texts)
    pn = parents.to_numpy(zero_copy_only=False).astype(np.int64)
    th = token_hash_array(flat)
    nt = th.size
    sh_par = np.zeros(0, dtype=np.int64)
    sh_val = np.zeros(0, dtype=np.uint64)
    if nt >= shingle_n:
        w = np.lib.stride_tricks.sliding_window_view(th, shingle_n)
        valid = pn[: nt - shingle_n + 1] == pn[shingle_n - 1:]
        sh_val = _fmix64(
            (w * _WIN_MULS[:shingle_n]).sum(axis=1, dtype=np.uint64)
        )[valid]
        sh_par = pn[: nt - shingle_n + 1][valid]
    # short rows (0 < len < shingle_n): one whole-row shingle
    row_len = np.bincount(pn, minlength=n) if nt else np.zeros(
        n, dtype=np.int64
    )
    short = np.flatnonzero((row_len > 0) & (row_len < shingle_n))
    if short.size:
        offsets0 = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(row_len, out=offsets0[1:])
        pre = _fmix64(th * _WIN_MULS[0])
        csum = np.concatenate(
            ([np.uint64(0)], np.cumsum(pre, dtype=np.uint64))
        )
        sums = csum[offsets0[short + 1]] - csum[offsets0[short]]
        sh_par = np.concatenate((sh_par, short))
        sh_val = np.concatenate((sh_val, _fmix64(sums)))
    # distinct shingles per row, grouped by row (ascending within row)
    order = np.lexsort((sh_val, sh_par))
    sh_par, sh_val = sh_par[order], sh_val[order]
    keep = np.ones(sh_par.size, dtype=bool)
    keep[1:] = (np.diff(sh_par) != 0) | (np.diff(sh_val) != 0)
    sh_par, sh_val = sh_par[keep], sh_val[keep]
    lengths = np.bincount(sh_par, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets, sh_val, _ckey_of(offsets, sh_val)


def _ckey_of(offsets: np.ndarray, sh_val: np.ndarray) -> np.ndarray:
    """64-bit content key per row over (row-sorted, distinct) shingle
    segments — each element avalanche-mixed with its LOCAL position,
    segments reduced by a csum-diff sum, the sum mixed with the
    length. Equal sets => equal keys; unequal sets collide with
    64-bit-hash probability (only set-equality discrimination is
    required). No per-row Python digest anywhere."""
    from sotohp_ray.functions.hashing import _WIN_MULS, _fmix64

    lengths = np.diff(offsets)
    local_pos = (
        np.arange(sh_val.size, dtype=np.uint64)
        - np.repeat(offsets[:-1].astype(np.uint64), lengths)
    )
    mixed = _fmix64(
        sh_val ^ _fmix64((local_pos + np.uint64(1)) * _WIN_MULS[0])
    )
    mcs = np.concatenate(
        ([np.uint64(0)], np.cumsum(mixed, dtype=np.uint64))
    )
    seg_sum = mcs[offsets[1:]] - mcs[offsets[:-1]]
    return _fmix64(
        seg_sum
        ^ _fmix64(lengths.astype(np.uint64) * _WIN_MULS[0] + np.uint64(1))
    ).astype(np.int64)


def _capped_sets(texts: pa.Array, shingle_n: int, cap: int | None):
    """Family shingle sets, optionally bottom-k sampled: with ``cap``,
    each row keeps its ``cap`` SMALLEST-hash shingles (rows are
    hash-sorted already, so the bottom-k is a positional slice) and
    content keys are recomputed over the capped sets so the clique
    collapse still groups equal SAMPLES."""
    offsets, sh_val, ck = _shingle_sets(texts, shingle_n)
    if cap is None:
        return offsets, sh_val, ck
    lens = np.diff(offsets)
    pos = np.arange(sh_val.size, dtype=np.int64) - np.repeat(
        offsets[:-1], lens
    )
    keep = pos < cap
    new_off = np.zeros(offsets.size, dtype=np.int64)
    np.cumsum(np.minimum(lens, cap), out=new_off[1:])
    sv = sh_val[keep]
    return new_off, sv, _ckey_of(new_off, sv)


def _tri_pair_indices(L: int):
    """(i, j) index pairs with i < j for a clique of size ``L`` in
    O(pairs) time and memory — flat arithmetic, no L×L triu mask
    (``np.triu_indices(5000)`` walks a 25M-cell matrix; a crawl
    mega-clique makes that the driver hot spot)."""
    counts = np.arange(L - 1, 0, -1, dtype=np.int64)  # pairs per i
    i = np.repeat(np.arange(L - 1, dtype=np.int64), counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    j = np.arange(i.size, dtype=np.int64) - starts[i] + i + 1
    return i, j


def _clique_pairs(keys: np.ndarray, ids: np.ndarray):
    """All within-group pairs (doc_a < doc_b) for rows grouped by
    ``keys`` — vectorized per distinct group SIZE (one gather per
    size, not one Python iteration per pair). Used to expand
    identical-content cliques exactly once."""
    order = np.lexsort((ids, keys))
    k, v = keys[order], np.ascontiguousarray(ids[order], dtype=np.int64)
    if k.size == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    starts = np.concatenate(([0], np.flatnonzero(np.diff(k)) + 1))
    lens = np.diff(np.concatenate((starts, [k.size])))
    pa_, pb_ = [], []
    for L in np.unique(lens):
        if L < 2:
            continue
        S = starts[lens == L]
        iu, ju = _tri_pair_indices(int(L))
        # one flat gather per (group, pair-slot): v[S + iu] is sorted
        # ascending within a group, so doc_a < doc_b holds by
        # construction — no minimum/maximum pass needed
        pa_.append(v[(S[:, None] + iu[None, :]).ravel()])
        pb_.append(v[(S[:, None] + ju[None, :]).ravel()])
    if not pa_:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    return np.concatenate(pa_), np.concatenate(pb_)


def near_dup_pairs(sf_dir: str, threshold: float = 0.6, shingle_n: int = 3):
    """Verified near-dup pairs, served from the durable pair cache:
    the expensive shingle + verify pass runs ONCE per (corpus,
    threshold, shingle_n) and every downstream consumer —
    near_dup_dedup, corpus_dedup_near, repeated pair queries — streams
    the cached table (a ``cache.artifact`` like the band index). The
    table is pair-set-sized (output), so caching it costs what the
    caller materializes anyway."""
    return _cached_table(
        "ndpairs", sf_dir, (threshold, shingle_n),
        lambda: _near_dup_pairs_compute(sf_dir, threshold, shingle_n),
    )


def _cached_table(kind: str, sf_dir: str, params: tuple, compute):
    """The ``compute()`` table of the corpus, published once as the
    ``kind`` artifact and read back from it."""
    import os

    import pyarrow.parquet as pq

    def build(staging: str) -> None:
        pq.write_table(compute(), os.path.join(staging, "table.parquet"))

    d = cache.artifact(kind, f"{sf_dir}/documents.parquet", params, build)
    return pq.read_table(os.path.join(d, "table.parquet"))


def _near_dup_pairs_compute(
    sf_dir: str, threshold: float = 0.6, shingle_n: int = 3
):
    """Verified near-dup pairs: LSH candidates -> exact n-gram Jaccard
    check, with the VERIFICATION distributed too (the round-1 version
    read the whole corpus into a driver dict).

    Shape: ONE map pass + ONE shuffle. The dup-bucket member list is
    read to the driver once (candidate-set-sized, never corpus-sized)
    and the doc→bucket map is broadcast via ``ray.put``; the shingle
    stage
    computes each candidate doc's shingle set once (fully vectorized)
    and emits its rows already keyed by bucket, so the only wide op is
    the ``groupby(coarse-bucket)`` verify. Identical-content cliques
    are detected driver-side from candidate-sized (doc, ckey) columns.
    Pair dedup across buckets is output-sized. No full-corpus driver
    read, no all-pairs — matches the reference's grouped dedup
    discipline (GoogleTakeoutTooling.scala:49-95)."""
    import pandas as pd
    import ray

    members = _minhash_members(sf_dir)
    empty = pa.table(
        {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64()),
         "jaccard": pa.array([], pa.float64())}
    )
    if members is None:
        return empty
    mdf = members.select_columns(["doc_id", "bkey"]).to_pandas()
    if not len(mdf):
        return empty
    m_doc = mdf["doc_id"].to_numpy().astype(np.int64)
    m_bk = mdf["bkey"].to_numpy().astype(np.int64)
    order = np.argsort(m_doc, kind="stable")
    m_doc, m_bk = m_doc[order], m_bk[order]
    mapref = ray.put((m_doc, m_bk))

    # Shingles are computed ONCE per candidate doc in a fully
    # vectorized batch pass (the same token-hash + strided-window
    # kernels as MinHash) — no per-doc tokenizer calls anywhere —
    # then each doc's shingle row is replicated per bucket membership
    # (bkey looked up in the broadcast map), landing pre-keyed for the
    # verify groupby.
    def _cand_shingles(batch: pa.Table) -> pa.Table:
        md, mb = ray.get(mapref)
        bd = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lo_all = np.searchsorted(md, bd)
        hi_all = np.searchsorted(md, bd, side="right")
        out = batch.filter(pa.array(hi_all > lo_all))
        if out.num_rows == 0:
            return pa.table({
                "coarse": pa.array([], pa.int64()),
                "bkey": pa.array([], pa.int64()),
                "doc_id": pa.array([], pa.int64()),
                "shingles": pa.array([], pa.large_list(pa.uint64())),
                "ckey": pa.array([], pa.int64()),
                "n_sh": pa.array([], pa.int64()),
            })
        # distinct shingle sets + content keys: the family-shared
        # kernel (``_shingle_sets``) — docs with equal ckey have
        # IDENTICAL shingle sets, so the verify stage collapses them
        # to one representative (the mega-bucket fix: a crawl cluster
        # of B identical boilerplate docs costs 1 rep, not B^2/2 pair
        # checks per band bucket).
        n = out.num_rows
        offsets, sh_val, ckey = _shingle_sets(_text_col(out), shingle_n)
        shingles = pa.LargeListArray.from_arrays(
            pa.array(offsets, pa.int64()),
            pa.array(sh_val, pa.uint64()),
        )
        # n_sh lets the clique path exclude empty shingle sets (their
        # jaccard is 0 against everything — the union-0 contract — so
        # a shared empty-set ckey must never form an "identical"
        # clique). Kept as a plain int64 column, NOT a null mask: a
        # nullable int64 becomes float64 in pandas and float64 cannot
        # represent a full-range 64-bit content key exactly.
        # Expand to one row per (doc, bucket) membership, keyed by the
        # coarse bucket partition the verify groupby shuffles on.
        d = out["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lo = np.searchsorted(md, d)
        reps = np.searchsorted(md, d, side="right") - lo
        total = int(reps.sum())
        run_starts = np.cumsum(reps) - reps
        idx = np.repeat(lo - run_starts, reps) + np.arange(total)
        bk = mb[idx]
        par = np.repeat(np.arange(n, dtype=np.int64), reps)
        n_sh = (offsets[1:] - offsets[:-1]).astype(np.int64)
        return pa.table({
            "coarse": pa.array((bk & 0xFF).astype(np.int64), pa.int64()),
            "bkey": pa.array(bk, pa.int64()),
            "doc_id": pa.array(d[par], pa.int64()),
            "shingles": shingles.take(pa.array(par, pa.int64())),
            "ckey": pa.array(ckey[par], pa.int64()),
            "n_sh": pa.array(n_sh[par], pa.int64()),
        })

    # materialized: the shingle rows feed BOTH the bucket-verify path
    # and the identical-clique path below — without this the expensive
    # shingle stage would execute twice (membership-sized, spillable)
    bucketed = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        _cand_shingles, batch_format="pyarrow"
    ).materialize()

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        # One coarse group = many whole buckets. The mega-bucket fix
        # rests on one invariant: equal shingle SETS (equal ckey) =>
        # equal MinHash signature => equal band hashes => identical
        # bucket membership. So:
        # (1) collapse the GROUP to its distinct content keys once
        #     (members per ckey are the same in every bucket);
        # (2) per bucket, verify REP pairs only — exact Jaccard,
        #     vectorized as a sort-merge over the concatenated rep
        #     shingle arrays (runs of an equal shingle value contribute
        #     1 to every rep pair in the run — no per-pair
        #     np.intersect1d) — and dedup rep pairs across buckets;
        # (3) expand passing rep pairs to the members' cross product
        #     ONCE per group. Same-content (same-ckey) pairs are NOT
        #     emitted here at all — the dedicated clique path in
        #     ``near_dup_pairs`` emits each identical-content clique
        #     exactly once globally. A crawl cluster of B identical
        #     docs costs one rep here, not B^2/2 pair checks per band
        #     bucket.
        uniq_docs = g.drop_duplicates("doc_id")
        dids = uniq_docs["doc_id"].to_numpy()
        shs = uniq_docs["shingles"].to_numpy()
        cks = uniq_docs["ckey"].to_numpy().astype(np.int64)
        lens = np.fromiter(
            (len(s) for s in shs), count=dids.size, dtype=np.int64
        )
        # a doc with no shingles has jaccard 0 against everything
        # (including another empty doc — union 0 -> 0.0 contract)
        nz = lens > 0
        dids, shs, cks, lens = dids[nz], shs[nz], cks[nz], lens[nz]
        empty = pd.DataFrame({
            "doc_a": pd.Series(dtype="int64"),
            "doc_b": pd.Series(dtype="int64"),
            "jaccard": pd.Series(dtype="float64"),
        })
        if dids.size < 2:
            return empty
        uniq_ck, inv = np.unique(cks, return_inverse=True)
        R = uniq_ck.size
        # members sorted by doc_id within each rep group
        morder = np.lexsort((dids, inv))
        msort = dids[morder]
        starts = np.zeros(R + 1, dtype=np.int64)
        np.cumsum(np.bincount(inv, minlength=R), out=starts[1:])
        rep_rows = morder[starts[:-1]]
        rlens = lens[rep_rows]
        passing: dict[tuple[int, int], float] = {}
        for _, b in g.groupby("bkey", sort=False):
            bck = np.unique(b["ckey"].to_numpy().astype(np.int64))
            # map bucket ckeys -> group rep indices (drop empty-shingle
            # ckeys, which were filtered from uniq_ck)
            pos = np.searchsorted(uniq_ck, bck)
            valid = pos < R
            pos, bv = pos[valid], bck[valid]
            ridx_all = pos[uniq_ck[pos] == bv]
            Rb = ridx_all.size
            if Rb < 2:
                continue
            vals = np.concatenate(
                [np.asarray(shs[rep_rows[r]], dtype=np.uint64)
                 for r in ridx_all]
            )
            ridx = np.repeat(ridx_all, rlens[ridx_all])
            o2 = np.argsort(vals, kind="stable")
            sv, si = vals[o2], ridx[o2]
            bnd = np.flatnonzero(np.diff(sv)) + 1
            rstarts = np.concatenate(([0], bnd))
            rl = np.diff(np.concatenate((rstarts, [sv.size])))
            key_parts = []
            for L in np.unique(rl):
                if L < 2:
                    continue
                S = rstarts[rl == L]
                iu, ju = _tri_pair_indices(int(L))
                A = si[(S[:, None] + iu[None, :]).ravel()]
                B = si[(S[:, None] + ju[None, :]).ravel()]
                key_parts.append(np.minimum(A, B) * R + np.maximum(A, B))
            if not key_parts:
                continue
            uk, inter = np.unique(
                np.concatenate(key_parts), return_counts=True
            )
            lo, hi = uk // R, uk % R
            union = rlens[lo] + rlens[hi] - inter
            jac = inter / union
            ok = jac >= threshold
            for a_r, b_r, j in zip(lo[ok], hi[ok], jac[ok]):
                passing.setdefault((int(a_r), int(b_r)), float(j))
        ra, rb, rj = [], [], []
        # cross-content expansion, once per passing rep pair
        for (a_r, b_r), j in passing.items():
            ma = msort[starts[a_r]:starts[a_r + 1]]
            mb = msort[starts[b_r]:starts[b_r + 1]]
            A = np.repeat(ma, mb.size)
            B = np.tile(mb, ma.size)
            ra.append(np.minimum(A, B))
            rb.append(np.maximum(A, B))
            rj.append(np.full(A.size, round(j, 6)))
        if not ra:
            return empty
        out = pd.DataFrame({
            "doc_a": np.concatenate(ra).astype("int64"),
            "doc_b": np.concatenate(rb).astype("int64"),
            "jaccard": np.concatenate(rj),
        })
        return out.drop_duplicates(["doc_a", "doc_b"])

    pairs = bucketed.groupby("coarse").map_groups(
        verify, batch_format="pandas"
    )

    # identical-content cliques (jaccard exactly 1.0), emitted ONCE
    # globally: equal shingle sets => equal MinHash signature =>
    # identical bucket membership, so every same-ckey pair is a
    # guaranteed LSH candidate and needs no verification. The doc-level
    # (doc_id, ckey) list is candidate-set-sized — the same scale as
    # the member list already on the driver — so the dup-ckey clique
    # expansion runs locally, without another distributed groupby.
    a_parts, b_parts, j_parts = [], [], []
    if threshold <= 1.0:
        ck = (
            bucketed.select_columns(["doc_id", "ckey", "n_sh"])
            .to_pandas()
            .drop_duplicates("doc_id")
        )
        ck = ck[ck["n_sh"] > 0]
        a, b = _clique_pairs(
            ck["ckey"].to_numpy().astype(np.int64),
            ck["doc_id"].to_numpy().astype(np.int64),
        )
        if a.size:
            a_parts.append(a)
            b_parts.append(b)
            j_parts.append(np.full(a.size, 1.0))

    # cross-group dedup + ordering on the RESULT set (output-sized —
    # the verified pair list is what the caller materializes anyway;
    # within-group dupes were already dropped distributed)
    out = _finalize_pairs(pairs, a_parts, b_parts, j_parts)
    return out if out is not None else empty


SETJOIN_TELEMETRY: dict = {}  # last compute's kernel + shipping stats


def set_similarity_join(
    sf_dir: str,
    threshold: float = 0.6,
    shingle_n: int = 3,
    top_freq: int = 2048,
    max_shingles: int | None = None,
    kernel: str = "auto",
):
    """EXACT set-similarity self-join with prefix filtering (Vernica,
    Carey & Li, "Efficient Parallel Set-Similarity Joins Using
    MapReduce", SIGMOD 2010): every doc pair whose shingle-set Jaccard
    is >= ``threshold``, with GUARANTEED recall — no LSH miss — which
    is what makes this pipeline SQL-expressible and oracle-gated,
    unlike the candidate-driven ``near_dup_pairs``. Set semantics are
    the family's (``_shingle_sets``): distinct token n-gram hashes,
    order-insensitive whole-row hash for short docs. At equal
    (threshold, shingle_n) the LSH path's output is a SUBSET of this
    one (tested), so this is also the recall oracle for the LSH knobs.

    TWO exact kernels, selected by record-length shape (``kernel``):

    - ``"prefix"`` — Vernica's set-with-prefix kernel: each doc ships
      its whole sorted shingle set once per prefix shingle (ONE
      shuffle, zero extra passes). Shipping ~(1-t)*L^2 values per doc
      — ideal for bounded-L records (titles, URLs, code lines, web
      docs), quadratic-in-L for heavy-tailed corpora.
    - ``"basic"`` — Vernica's basic kernel, LINEAR shipping: the
      prefix pass emits (prefix-bucket, doc_id) rows only (~(1-t)*L
      rows/doc); candidate rep pairs come out of the bucket groupby;
      ONE re-fetch exchange then re-shingles ONLY the candidate docs
      (broadcast id filter) and routes each set once per pair-bucket
      it participates in, where the same vectorized lexsort verify
      runs. Costs one extra (filtered) corpus pass + one extra
      (candidate-sized) exchange; wins whenever L^2 dominates.
    - ``"auto"`` (default) — a zero-tokenize length probe (byte
      lengths from Arrow offsets, one cheap column pass) estimates
      the p95 shingle count; above ``_SETJOIN_L_SWITCH`` the basic
      kernel is chosen. Both kernels produce the identical exact pair
      set (pytest-gated), so the choice is pure performance.

    The result is served from a DURABLE pair cache (a
    ``cache.artifact``, like the near-dup pair table): the expensive
    shingle+verify pass runs once per (corpus, threshold, shingle_n,
    top_freq, max_shingles) and every downstream consumer —
    ``similarity_components``, repeated join calls — streams the
    cached table. ``kernel`` is deliberately NOT in the key: both
    kernels compute the identical exact pair set, so a result computed
    by either serves every consumer. Shipped-volume
    telemetry for each compute lands in ``SETJOIN_TELEMETRY`` and the
    module log.

    ``max_shingles`` keeps only each doc's ``max_shingles``
    SMALLEST-hash shingles (bottom-k sketch — hash order is a uniform
    random order, so Jaccard over bottom-k sets is the classic
    unbiased estimate): APPROXIMATE, hence no SQL oracle; the default
    (None) is the exact, oracle-gated path.

    Reference analog: grouped duplicate detection
    (GoogleTakeoutTooling.scala:49-95), upgraded from exact-key
    equality to threshold similarity."""
    return _cached_table(
        "setjoin", sf_dir, (threshold, shingle_n, top_freq, max_shingles),
        lambda: _set_similarity_join_compute(
            sf_dir, threshold, shingle_n, top_freq, max_shingles, kernel
        ),
    )


_SETJOIN_L_SWITCH = 512  # est. p95 shingles above which basic kernel wins
_SETJOIN_BYTES_PER_SHINGLE = 6.5  # tokens ~ bytes/6.5; shingles ~ tokens


def _est_shingle_p95(sf_dir: str, max_shingles: int | None) -> float:
    """Cheap record-length probe for kernel selection: a log2
    histogram of text BYTE lengths (Arrow offset arithmetic — no
    tokenization, no utf8 scan), p95 read off the histogram and
    converted to an estimated shingle count. Order-of-magnitude is
    all the kernel switch needs."""
    def hist_part(batch: pa.Table) -> pa.Table:
        ln = pc.binary_length(
            _text_col(batch)
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        b = np.minimum(63, np.log2(ln + 1).astype(np.int64))
        return pa.table({
            "b": pa.array(np.arange(64), pa.int64()),
            "c": pa.array(np.bincount(b, minlength=64), pa.int64()),
        })

    hist = combine(
        _docs(sf_dir, ["text"]).map_batches(hist_part, batch_format="pyarrow"),
        ["b"], ["c"], pa.schema([("b", pa.int64()), ("c", pa.int64())]),
    )["c"].to_numpy()  # all 64 buckets, or none for no docs
    total = int(hist.sum())
    if total == 0:
        return 0.0
    b95 = int(np.searchsorted(np.cumsum(hist), 0.95 * total))
    est = (2.0 ** (b95 + 1)) / _SETJOIN_BYTES_PER_SHINGLE
    if max_shingles is not None:
        est = min(est, float(max_shingles))
    return est


def _set_similarity_join_compute(
    sf_dir: str,
    threshold: float,
    shingle_n: int,
    top_freq: int,
    max_shingles: int | None,
    kernel: str = "auto",
):
    """Kernel dispatcher + the shared pass 1. Pass 1 computes the
    top-K most-frequent shingles (per-batch combiner -> small groupby
    -> per-batch top-K -> tiny driver merge). Only the TOP-K shingles
    are broadcast (O(top_freq), never vocabulary-sized): they define
    the global prefix order with rare-first semantics (rare shingles
    produce the fewest candidates); shingles outside the top-K order
    among themselves by hash and before every frequent one — still
    ONE consistent total order, which is all prefix correctness
    requires."""
    import ray
    from ray.data.aggregate import Sum

    empty = pa.table({
        "doc_a": pa.array([], pa.int64()),
        "doc_b": pa.array([], pa.int64()),
        "jaccard": pa.array([], pa.float64()),
    })

    # ---- pass 1: top-K most-frequent shingles (bounded broadcast) --
    def df_partial(batch: pa.Table) -> pa.Table:
        _off, sh_val, _ck = _capped_sets(
            _text_col(batch), shingle_n, max_shingles
        )
        u, c = np.unique(sh_val, return_counts=True)
        return pa.table({
            "h": pa.array(u.view(np.int64), pa.int64()),
            "df_partial": pa.array(c, pa.int64()),
        })

    def topk_combine(batch: pa.Table) -> pa.Table:
        h = batch["h"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        if h.size > top_freq:
            sel = np.argpartition(d, -top_freq)[-top_freq:]
            h, d = h[sel], d[sel]
        return pa.table({
            "h": pa.array(h, pa.int64()),
            "df": pa.array(d, pa.int64()),
        })

    cand = (
        _docs(sf_dir, ["text"])
        .map_batches(df_partial, batch_format="pyarrow")
        .groupby("h")
        .aggregate(Sum("df_partial", alias_name="df"))
        .map_batches(topk_combine, batch_format="pyarrow")
        .to_pandas()  # <= top_freq rows per block, tiny
    )
    if "h" not in cand.columns:
        # zero shingles corpus-wide (all docs empty): the aggregate
        # yields a column-less frame
        cand = cand.reindex(columns=["h", "df"])
    if len(cand) > top_freq:
        cand = cand.nlargest(top_freq, "df")
    hk = cand["h"].to_numpy().astype(np.int64).view(np.uint64)
    dk = cand["df"].to_numpy().astype(np.int64)
    o = np.lexsort((hk, dk))  # ascending df = rarer top-K first
    rank = np.empty(o.size, dtype=np.int64)
    rank[o] = np.arange(o.size)
    srt = np.argsort(hk)
    look_h, look_rank = hk[srt], rank[srt]
    mapref = ray.put((look_h, look_rank))

    if kernel == "auto":
        est = _est_shingle_p95(sf_dir, max_shingles)
        kernel = "basic" if est > _SETJOIN_L_SWITCH else "prefix"
        SETJOIN_TELEMETRY["est_p95_shingles"] = est
    else:
        SETJOIN_TELEMETRY.pop("est_p95_shingles", None)
    if kernel == "basic":
        return _setjoin_basic(
            sf_dir, threshold, shingle_n, max_shingles, mapref, empty
        )
    return _setjoin_prefix(
        sf_dir, threshold, shingle_n, max_shingles, mapref, empty
    )


def _setjoin_prefix_rows(batch: pa.Table, mapref, threshold, shingle_n,
                         max_shingles, with_sets: bool) -> dict:
    """Shared prefix computation for both kernels: per-doc prefix rows
    under the broadcast rare-first order. Returns the column dict;
    ``with_sets`` additionally attaches each row's whole shingle set
    (the set-with-prefix kernel's payload)."""
    import ray

    lk_h, lk_r = ray.get(mapref)
    n = batch.num_rows
    offsets, sh_val, ck = _capped_sets(
        _text_col(batch), shingle_n, max_shingles
    )
    lens = np.diff(offsets)
    par = np.repeat(np.arange(n, dtype=np.int64), lens)
    pos = np.searchsorted(lk_h, sh_val)
    freq = np.zeros(sh_val.size, dtype=bool)
    inb = pos < lk_h.size
    freq[inb] = lk_h[pos[inb]] == sh_val[inb]
    tieb = sh_val.copy()
    tieb[freq] = lk_r[pos[freq]].astype(np.uint64)
    # prefix order per doc: (in-top-K flag asc, rank-or-hash asc);
    # par is the primary lexsort key, so segments stay contiguous
    # and par[order] == par elementwise
    order = np.lexsort((tieb, freq, par))
    pos_in = np.arange(sh_val.size, dtype=np.int64) - np.repeat(
        offsets[:-1], lens
    )
    # alpha = ceil(t*L): the 1e-9 slack only ever LENGTHENS the
    # prefix — float ceil must never round 0.6*5 =
    # 3.0000000000000004 up to 4 and silently cut recall
    alpha = np.ceil(threshold * lens - 1e-9).astype(np.int64)
    p = np.maximum(lens - alpha + 1, 1)
    keep = pos_in < p[par]
    pref_par = par[keep]
    pref_h = sh_val[order][keep]
    first = pos_in[keep] == 0
    dids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
        np.int64
    )
    pk = pref_h.view(np.int64)
    cols = {
        "coarse": pa.array(pk & 0xFF, pa.int64()),
        "pkey": pa.array(pk, pa.int64()),
        "doc_id": pa.array(dids[pref_par], pa.int64()),
        "n_sh": pa.array(lens[pref_par], pa.int64()),
        "ckey": pa.array(ck[pref_par], pa.int64()),
        "is_first": pa.array(first),
    }
    if with_sets:
        sets_arr = pa.LargeListArray.from_arrays(
            pa.array(offsets, pa.int64()), pa.array(sh_val, pa.uint64())
        )
        cols["sset"] = sets_arr.take(pa.array(pref_par, pa.int64()))
    return cols


def _setjoin_candidates_of_group(g, threshold):
    """Candidate rep pairs within one coarse group, shared dedup
    discipline: docs collapse to one representative per content key
    (min doc_id — global, since equal sets share every prefix
    bucket); rep pairs come from same-pkey runs, are deduped, and
    length-filtered (J >= t forces min >= t*max). Returns
    (rep_docs, rep_lens, msort, starts, lo, hi) — rep metadata plus
    the surviving candidate index pairs — or None when the group has
    < 2 distinct content keys."""
    uniq = g.drop_duplicates("doc_id")
    dids = uniq["doc_id"].to_numpy().astype(np.int64)
    cks = uniq["ckey"].to_numpy().astype(np.int64)
    lens = uniq["n_sh"].to_numpy().astype(np.int64)
    so = np.argsort(dids, kind="stable")
    dids, cks, lens = dids[so], cks[so], lens[so]
    uniq_ck, inv = np.unique(cks, return_inverse=True)
    R = uniq_ck.size
    if R < 2:
        return None
    morder = np.lexsort((dids, inv))
    msort = dids[morder]
    starts = np.zeros(R + 1, dtype=np.int64)
    np.cumsum(np.bincount(inv, minlength=R), out=starts[1:])
    rep_rows = morder[starts[:-1]]
    rlens = lens[rep_rows]
    rdocs = dids[rep_rows]
    # candidate rep pairs: reps sharing a prefix shingle
    rowdoc = g["doc_id"].to_numpy().astype(np.int64)
    rowpk = g["pkey"].to_numpy().astype(np.int64)
    rrep = inv[np.searchsorted(dids, rowdoc)]
    o2 = np.lexsort((rrep, rowpk))
    pk_s, rp_s = rowpk[o2], rrep[o2]
    dup = np.ones(pk_s.size, dtype=bool)
    dup[1:] = (np.diff(pk_s) != 0) | (np.diff(rp_s) != 0)
    pk_s, rp_s = pk_s[dup], rp_s[dup]
    bnd = np.flatnonzero(np.diff(pk_s)) + 1
    rstarts = np.concatenate(([0], bnd))
    rl = np.diff(np.concatenate((rstarts, [pk_s.size])))
    key_parts = []
    for L in np.unique(rl):
        if L < 2:
            continue
        S = rstarts[rl == L]
        iu, ju = _tri_pair_indices(int(L))
        A = rp_s[(S[:, None] + iu[None, :]).ravel()]
        B = rp_s[(S[:, None] + ju[None, :]).ravel()]
        key_parts.append(np.minimum(A, B) * R + np.maximum(A, B))
    if not key_parts:
        return None
    uk = np.unique(np.concatenate(key_parts))
    lo, hi = uk // R, uk % R
    ne = lo != hi  # same-ckey pairs belong to the clique path
    lo, hi = lo[ne], hi[ne]
    la, lb = rlens[lo], rlens[hi]
    okl = np.minimum(la, lb) >= threshold * np.maximum(la, lb)
    lo, hi = lo[okl], hi[okl]
    if not lo.size:
        return None
    return rdocs, rlens, msort, starts, rep_rows, lo, hi


def _jaccard_of_pairs(flat_vals, seg_len, threshold):
    """Vectorized Jaccard for P pairs whose two (distinct-valued,
    per-side) sets are concatenated in ``flat_vals`` with per-segment
    lengths ``seg_len`` (2P segments, pair p owns segments 2p/2p+1):
    ONE lexsort pass — a value adjacent-equal within a pair appears
    on both sides = one shared shingle. Returns (jaccard, mask>=t)."""
    P = seg_len.size // 2
    pid = np.repeat(np.arange(2 * P, dtype=np.int64) // 2, seg_len)
    o3 = np.lexsort((flat_vals, pid))
    v_s, p_s = flat_vals[o3], pid[o3]
    eqm = np.zeros(v_s.size, dtype=bool)
    if v_s.size > 1:
        eqm[1:] = (np.diff(p_s) == 0) & (v_s[1:] == v_s[:-1])
    inter = np.bincount(p_s[eqm], minlength=P)
    sizes = seg_len[0::2] + seg_len[1::2]
    jac = inter / (sizes - inter)
    return jac, jac >= threshold


def _setjoin_prefix(
    sf_dir, threshold, shingle_n, max_shingles, mapref, empty
):
    """Set-with-prefix kernel (ONE shuffle): each doc's sorted set
    rides with every prefix row; the coarse-bucket groupby verifies
    locally. Identical-set cliques are emitted exactly once globally
    by the doc's FIRST-prefix owner group (same set => same prefix
    order => same owner group — the designated-owner discipline)."""
    import logging

    import pandas as pd

    def emit(batch: pa.Table) -> pa.Table:
        return pa.table(_setjoin_prefix_rows(
            batch, mapref, threshold, shingle_n, max_shingles,
            with_sets=True,
        ))

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        empty_df = pd.DataFrame({
            "doc_a": pd.Series(dtype="int64"),
            "doc_b": pd.Series(dtype="int64"),
            "jaccard": pd.Series(dtype="float64"),
        })
        if not len(g):
            return empty_df
        parts_a: list[np.ndarray] = []
        parts_b: list[np.ndarray] = []
        parts_j: list[np.ndarray] = []

        # identical-set cliques, once globally via first-prefix owner
        fr = g[g["is_first"]]
        if len(fr):
            ca, cb = _clique_pairs(
                fr["ckey"].to_numpy().astype(np.int64),
                fr["doc_id"].to_numpy().astype(np.int64),
            )
            if ca.size:
                parts_a.append(ca)
                parts_b.append(cb)
                parts_j.append(np.ones(ca.size, dtype=np.float64))

        cres = _setjoin_candidates_of_group(g, threshold)
        if cres is not None:
            rdocs, rlens, msort, starts, rep_rows, lo, hi = cres
            uniq = g.drop_duplicates("doc_id")
            udids = uniq["doc_id"].to_numpy().astype(np.int64)
            so = np.argsort(udids, kind="stable")
            shs = uniq["sset"].to_numpy()[so]
            P = lo.size
            # ALL pair intersections in one lexsort pass
            flat = np.concatenate(
                [np.asarray(shs[r], dtype=np.uint64) for r in rep_rows]
            )
            R = rep_rows.size
            rlens_all = np.array(
                [len(shs[r]) for r in rep_rows], dtype=np.int64
            )
            roff = np.zeros(R + 1, dtype=np.int64)
            np.cumsum(rlens_all, out=roff[1:])
            seg_rep = np.empty(2 * P, dtype=np.int64)
            seg_rep[0::2] = lo
            seg_rep[1::2] = hi
            seg_len = rlens_all[seg_rep]
            seg_start = np.cumsum(seg_len) - seg_len
            total = int(seg_len.sum())
            pos2 = np.arange(total, dtype=np.int64) - np.repeat(
                seg_start, seg_len
            )
            src = pos2 + np.repeat(roff[seg_rep], seg_len)
            vals = flat[src]
            jac, okj = _jaccard_of_pairs(vals, seg_len, threshold)
            # member expansion, once per passing rep pair
            for a_r, b_r, j in zip(lo[okj], hi[okj], jac[okj]):
                ma = msort[starts[a_r]:starts[a_r + 1]]
                mb = msort[starts[b_r]:starts[b_r + 1]]
                A = np.repeat(ma, mb.size)
                B = np.tile(mb, ma.size)
                parts_a.append(np.minimum(A, B))
                parts_b.append(np.maximum(A, B))
                parts_j.append(np.full(A.size, float(j)))
        if not parts_a:
            return empty_df
        out = pd.DataFrame({
            "doc_a": np.concatenate(parts_a).astype("int64"),
            "doc_b": np.concatenate(parts_b).astype("int64"),
            "jaccard": np.concatenate(parts_j),
        })
        return out.drop_duplicates(["doc_a", "doc_b"])

    emitted = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        emit, batch_format="pyarrow"
    )
    pairs = emitted.groupby("coarse").map_groups(
        verify, batch_format="pandas"
    )
    out = _finalize_pairs(pairs, [], [], [])
    SETJOIN_TELEMETRY.update(kernel="prefix")
    logging.getLogger(__name__).info(
        "set_similarity_join prefix kernel done (%d pairs)",
        out.num_rows if out is not None else 0,
    )
    return out if out is not None else empty


def _setjoin_basic(
    sf_dir, threshold, shingle_n, max_shingles, mapref, empty
):
    """Vernica basic kernel — linear shipping for heavy-tailed L:

    (a) prefix pass emits (prefix-bucket, doc_id, n_sh, ckey) ROWS
        ONLY (~(1-t)*L+1 fixed-width rows per doc, no sets);
    (b) the coarse-bucket groupby yields candidate REP pairs (content
        keys collapse docs to representatives; cliques and clique
        membership are emitted once globally by the first-prefix
        owner group), globally deduped driver-side — candidate-sized,
        the same class of driver work as the family's components/
        finalize steps;
    (c) ONE re-fetch exchange: candidate doc ids broadcast as a
        filter, candidate docs re-shingled (one filtered corpus
        pass), each set routed ONCE per pair-bucket it participates
        in; the vectorized lexsort verify runs per bucket.

    Shipping is Sum(prefix rows) + Sum_over_pair_participations(L) —
    linear in L — vs the set-with-prefix kernel's ~(1-t)*L^2 values
    per doc. Exact-output-identical to the prefix kernel (pytest)."""
    import logging

    import pandas as pd
    import ray

    log = logging.getLogger(__name__)

    def emit_ids(batch: pa.Table) -> pa.Table:
        return pa.table(_setjoin_prefix_rows(
            batch, mapref, threshold, shingle_n, max_shingles,
            with_sets=False,
        ))

    def candgen(g: pd.DataFrame) -> pd.DataFrame:
        cols = ("kind", "a", "b", "la", "lb")
        empty_df = pd.DataFrame(
            {c: pd.Series(dtype="int64") for c in cols}
        )
        if not len(g):
            return empty_df
        kk, aa, bb, ll_a, ll_b = [], [], [], [], []

        def add(kind, a, b, la=None, lb=None):
            kk.append(np.full(a.size, kind, dtype=np.int64))
            aa.append(a.astype(np.int64))
            bb.append(b.astype(np.int64))
            ll_a.append(
                np.zeros(a.size, np.int64) if la is None
                else la.astype(np.int64)
            )
            ll_b.append(
                np.zeros(a.size, np.int64) if lb is None
                else lb.astype(np.int64)
            )

        # kind=3 stats row: a = this group's prefix rows (basic-kernel
        # shipping), b = Sum n_sh over rows (the values the
        # set-with-prefix kernel would have shipped here) — exact
        # telemetry for the kernel A/B, essentially free
        add(
            3,
            np.array([len(g)]),
            np.array([int(g["n_sh"].to_numpy().sum())]),
        )
        # identical-set cliques + their membership, once globally via
        # the first-prefix owner group
        fr = g[g["is_first"]]
        if len(fr):
            fk = fr["ckey"].to_numpy().astype(np.int64)
            fd = fr["doc_id"].to_numpy().astype(np.int64)
            ca, cb = _clique_pairs(fk, fd)
            if ca.size:
                add(1, ca, cb)
            # membership rows (rep=min doc, member) for cliques >= 2
            o = np.lexsort((fd, fk))
            k_s, v_s = fk[o], fd[o]
            gs = np.concatenate(([0], np.flatnonzero(np.diff(k_s)) + 1))
            gl = np.diff(np.concatenate((gs, [k_s.size])))
            rep_of_row = np.repeat(v_s[gs], gl)
            big = np.repeat(gl, gl) >= 2
            if big.any():
                add(2, rep_of_row[big], v_s[big])
        cres = _setjoin_candidates_of_group(g, threshold)
        if cres is not None:
            rdocs, rlens, _msort, _starts, _rep_rows, lo, hi = cres
            A, B = rdocs[lo], rdocs[hi]
            la, lb = rlens[lo], rlens[hi]
            swap = A > B
            A2 = np.where(swap, B, A)
            B2 = np.where(swap, A, B)
            la2 = np.where(swap, lb, la)
            lb2 = np.where(swap, la, lb)
            add(0, A2, B2, la2, lb2)
        return pd.DataFrame({
            "kind": np.concatenate(kk),
            "a": np.concatenate(aa),
            "b": np.concatenate(bb),
            "la": np.concatenate(ll_a),
            "lb": np.concatenate(ll_b),
        })

    cg = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(emit_ids, batch_format="pyarrow")
        .groupby("coarse")
        .map_groups(candgen, batch_format="pandas")
    )
    kinds, a_l, b_l, la_l, lb_l = [], [], [], [], []
    for blk in cg.iter_batches(batch_format="numpy", batch_size=None):
        if blk["kind"].size:
            kinds.append(np.asarray(blk["kind"], dtype=np.int64))
            a_l.append(np.asarray(blk["a"], dtype=np.int64))
            b_l.append(np.asarray(blk["b"], dtype=np.int64))
            la_l.append(np.asarray(blk["la"], dtype=np.int64))
            lb_l.append(np.asarray(blk["lb"], dtype=np.int64))
    if not kinds:
        SETJOIN_TELEMETRY.update(
            kernel="basic", prefix_rows=0, would_prefix_values=0,
            candidate_pairs=0, refetch_values=0,
        )
        return empty
    kind = np.concatenate(kinds)
    a = np.concatenate(a_l)
    b = np.concatenate(b_l)
    la = np.concatenate(la_l)
    lb = np.concatenate(lb_l)
    prefix_rows = int(a[kind == 3].sum())
    would_values = int(b[kind == 3].sum())
    cl_a, cl_b = a[kind == 1], b[kind == 1]
    # rep -> member lists (sorted by rep for slice lookup)
    m_rep, m_mem = a[kind == 2], b[kind == 2]
    mo = np.lexsort((m_mem, m_rep))
    m_rep, m_mem = m_rep[mo], m_mem[mo]
    # global candidate dedup (the same rep pair can surface from
    # several prefix buckets)
    ca, cb, cla, clb = a[kind == 0], b[kind == 0], la[kind == 0], \
        lb[kind == 0]
    if ca.size:
        o = np.lexsort((cb, ca))
        ca, cb, cla, clb = ca[o], cb[o], cla[o], clb[o]
        keep = np.ones(ca.size, dtype=bool)
        keep[1:] = (np.diff(ca) != 0) | (np.diff(cb) != 0)
        ca, cb, cla, clb = ca[keep], cb[keep], cla[keep], clb[keep]
    P = ca.size
    parts_a = [cl_a] if cl_a.size else []
    parts_b = [cl_b] if cl_b.size else []
    parts_j = [np.ones(cl_a.size, np.float64)] if cl_a.size else []
    refetch_values = 0
    if P:
        NB = 64
        C1, C2 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xC2B2AE3D27D4EB4F)
        pb = (
            (ca.astype(np.uint64) * C1) ^ (cb.astype(np.uint64) * C2)
        ) % np.uint64(NB)
        pb = pb.astype(np.int64)
        # doc -> unique buckets (CSR), for set routing
        d2 = np.concatenate((ca, cb))
        k2 = np.concatenate((pb, pb))
        l2 = np.concatenate((cla, clb))
        o = np.lexsort((k2, d2))
        d2, k2, l2 = d2[o], k2[o], l2[o]
        u = np.ones(d2.size, dtype=bool)
        u[1:] = (np.diff(d2) != 0) | (np.diff(k2) != 0)
        d2, k2, l2 = d2[u], k2[u], l2[u]
        refetch_values = int(l2.sum())
        cd_sorted = np.unique(d2)
        csr_off = np.zeros(cd_sorted.size + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(
                np.searchsorted(cd_sorted, d2),
                minlength=cd_sorted.size,
            ),
            out=csr_off[1:],
        )
        routeref = ray.put((cd_sorted, csr_off, k2))
        # pairs grouped by bucket for the verify stage
        po = np.argsort(pb, kind="stable")
        pb_s, pa_s, pbb_s = pb[po], ca[po], cb[po]
        sz_s = (cla + clb)[po]
        poff = np.searchsorted(pb_s, np.arange(NB + 1))
        pairsref = ray.put((poff, pa_s, pbb_s, sz_s))

        def refetch(batch: pa.Table) -> pa.Table:
            cd, coff, cbk = ray.get(routeref)
            dids = batch["doc_id"].to_numpy(
                zero_copy_only=False
            ).astype(np.int64)
            pos = np.searchsorted(cd, dids)
            hit = pos < cd.size
            hit[hit] = cd[pos[hit]] == dids[hit]
            sel = np.flatnonzero(hit)
            if not sel.size:
                return pa.table({
                    "bucket": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.int64()),
                    "sset": pa.array(
                        [], pa.large_list(pa.uint64())
                    ),
                })
            texts = _text_col(batch).take(pa.array(sel, pa.int64()))
            offsets, sh_val, _ck = _capped_sets(
                texts, shingle_n, max_shingles
            )
            sets_arr = pa.LargeListArray.from_arrays(
                pa.array(offsets, pa.int64()),
                pa.array(sh_val, pa.uint64()),
            )
            rows = pos[sel]
            cnt = coff[rows + 1] - coff[rows]
            rep = np.repeat(np.arange(sel.size, dtype=np.int64), cnt)
            # gather each selected doc's bucket slice
            flat_pos = (
                np.arange(int(cnt.sum()), dtype=np.int64)
                - np.repeat(np.cumsum(cnt) - cnt, cnt)
                + np.repeat(coff[rows], cnt)
            )
            return pa.table({
                "bucket": pa.array(cbk[flat_pos], pa.int64()),
                "doc_id": pa.array(
                    dids[sel][rep], pa.int64()
                ),
                "sset": sets_arr.take(pa.array(rep, pa.int64())),
            })

        def bucket_verify(g: pd.DataFrame) -> pd.DataFrame:
            empty_df = pd.DataFrame({
                "doc_a": pd.Series(dtype="int64"),
                "doc_b": pd.Series(dtype="int64"),
                "jaccard": pd.Series(dtype="float64"),
            })
            if not len(g):
                return empty_df
            bkt = int(g["bucket"].iloc[0])
            poff_, pa_, pb_, _sz = ray.get(pairsref)
            s, e = int(poff_[bkt]), int(poff_[bkt + 1])
            if s == e:
                return empty_df
            qa, qb = pa_[s:e], pb_[s:e]
            dloc = g["doc_id"].to_numpy().astype(np.int64)
            sloc = g["sset"].to_numpy()
            so = np.argsort(dloc, kind="stable")
            dloc, sloc = dloc[so], sloc[so]
            ra = np.searchsorted(dloc, qa)
            rb = np.searchsorted(dloc, qb)
            Pq = qa.size
            seg_rows = np.empty(2 * Pq, dtype=np.int64)
            seg_rows[0::2] = ra
            seg_rows[1::2] = rb
            seg_sets = [
                np.asarray(sloc[r], dtype=np.uint64) for r in seg_rows
            ]
            seg_len = np.array(
                [sv.size for sv in seg_sets], dtype=np.int64
            )
            flat = (
                np.concatenate(seg_sets) if seg_sets
                else np.zeros(0, np.uint64)
            )
            jac, okj = _jaccard_of_pairs(flat, seg_len, threshold)
            if not okj.any():
                return empty_df
            return pd.DataFrame({
                "doc_a": qa[okj].astype("int64"),
                "doc_b": qb[okj].astype("int64"),
                "jaccard": jac[okj],
            })

        verified = (
            _docs(sf_dir, ["doc_id", "text"])
            .map_batches(refetch, batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(bucket_verify, batch_format="pandas")
        )
        va, vb, vj = [], [], []
        for blk in verified.iter_batches(
            batch_format="numpy", batch_size=None
        ):
            if blk["doc_a"].size:
                va.append(np.asarray(blk["doc_a"], dtype=np.int64))
                vb.append(np.asarray(blk["doc_b"], dtype=np.int64))
                vj.append(np.asarray(blk["jaccard"], dtype=np.float64))
        if va:
            va = np.concatenate(va)
            vb = np.concatenate(vb)
            vj = np.concatenate(vj)
            # expand verified rep pairs to clique members (members
            # share the rep's exact set, so the jaccard carries over)
            ms = np.searchsorted(m_rep, va, side="left")
            me = np.searchsorted(m_rep, va, side="right")
            ns = np.searchsorted(m_rep, vb, side="left")
            ne_ = np.searchsorted(m_rep, vb, side="right")
            for i in range(va.size):
                ma = (
                    m_mem[ms[i]:me[i]] if me[i] > ms[i]
                    else va[i:i + 1]
                )
                mb = (
                    m_mem[ns[i]:ne_[i]] if ne_[i] > ns[i]
                    else vb[i:i + 1]
                )
                A = np.repeat(ma, mb.size)
                B = np.tile(mb, ma.size)
                parts_a.append(np.minimum(A, B))
                parts_b.append(np.maximum(A, B))
                parts_j.append(np.full(A.size, float(vj[i])))
    SETJOIN_TELEMETRY.update(
        kernel="basic",
        prefix_rows=prefix_rows,
        would_prefix_values=would_values,
        candidate_pairs=int(P),
        refetch_values=refetch_values,
    )
    log.info(
        "set_similarity_join basic kernel: %d prefix rows + %d "
        "refetch values shipped for %d candidate pairs "
        "(set-with-prefix kernel would ship %d values)",
        prefix_rows, refetch_values, int(P), would_values,
    )
    if not parts_a:
        return empty
    da = np.concatenate(parts_a)
    db = np.concatenate(parts_b)
    jj = np.concatenate(parts_j)
    order = np.lexsort((db, da))
    da, db, jj = da[order], db[order], jj[order]
    keep = np.ones(da.size, dtype=bool)
    keep[1:] = (np.diff(da) != 0) | (np.diff(db) != 0)
    return pa.table({
        "doc_a": pa.array(da[keep], pa.int64()),
        "doc_b": pa.array(db[keep], pa.int64()),
        "jaccard": pa.array(jj[keep], pa.float64()),
    })


def set_similarity_join_sql(
    threshold: float = 0.6, shingle_n: int = 3
) -> str:
    """Brute-force oracle for ``set_similarity_join``: the same
    distinct-shingle sets built in SQL (token n-grams via list_slice
    over the parity tokenizer expression; sorted whole-row string for
    short docs — order-insensitive, multiset-faithful, matching the
    engine's segment-sum rule), then all-pairs Jaccard through a
    shingle-equality self-join. Feasible precisely because the engine
    path is exact-recall."""
    from sotohp_ray.functions.tokenizer import sql_token_expr

    texpr = sql_token_expr("text")
    n = shingle_n
    return f"""
WITH toks AS (SELECT doc_id, {texpr} AS t FROM documents),
tri AS (
  SELECT doc_id,
         array_to_string(list_slice(t, i.i, i.i + {n} - 1), chr(1)) AS s
  FROM toks, LATERAL (SELECT unnest(range(1, len(t) - {n} + 2)) AS i) i
  WHERE len(t) >= {n}
),
whole AS (
  SELECT doc_id, array_to_string(list_sort(t), chr(1)) AS s
  FROM toks WHERE len(t) BETWEEN 1 AND {n} - 1
),
d AS (SELECT DISTINCT doc_id, s
      FROM (SELECT * FROM tri UNION ALL SELECT * FROM whole)),
card AS (SELECT doc_id, count(*) AS n FROM d GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS c
  FROM d a JOIN d b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT doc_a, doc_b,
       CAST(c AS DOUBLE) / (na.n + nb.n - c) AS jaccard
FROM inter
JOIN card na ON na.doc_id = doc_a
JOIN card nb ON nb.doc_id = doc_b
WHERE CAST(c AS DOUBLE) / (na.n + nb.n - c) >= {threshold}
"""


def near_dup_dedup(sf_dir: str, threshold: float = 0.6):
    """(doc_id, canonical_id): connected-component clustering of the
    verified near-dup pairs — every doc in ANY near-dup cluster maps
    to its cluster's MINIMUM doc id (the canonical keeper; the same
    min-keeper rule as dedup_exact). Docs with no near-dup are absent
    (they keep themselves). This is the op that actually removes
    near-dups from a training corpus: filter out rows whose doc_id !=
    canonical_id. Clustering is transitive (A~B, B~C puts A,C in one
    cluster even if A!~C) — the standard near-dup dedup contract.

    The pair set is output-sized (the near_dup_pairs result the caller
    materializes anyway), so components run driver-side: vectorized
    min-label propagation with pointer halving — O(E) numpy work per
    round, rounds logarithmic in the largest cluster's diameter (a
    clique converges in one round). No SQL oracle: the candidate set
    is MinHash-LSH (not SQL-expressible); correctness is pytest-gated
    against brute-force clustering on planted fixtures."""
    return _components(near_dup_pairs(sf_dir, threshold))


def _components(pairs: pa.Table) -> pa.Table:
    """(doc_id, canonical_id) connected components over an edge table
    (doc_a, doc_b): vectorized min-label propagation with pointer
    halving — O(E) numpy work per round, rounds logarithmic in the
    largest cluster's diameter (a clique converges in one round).
    Driver-side because the edge set is output-sized."""
    a = pairs["doc_a"].to_numpy()
    b = pairs["doc_b"].to_numpy()
    if a.size == 0:
        return pa.table({
            "doc_id": pa.array([], pa.int64()),
            "canonical_id": pa.array([], pa.int64()),
        })
    ids = np.unique(np.concatenate((a, b)))
    ai = np.searchsorted(ids, a)
    bi = np.searchsorted(ids, b)
    label = np.arange(ids.size, dtype=np.int64)
    while True:
        m = np.minimum(label[ai], label[bi])
        new = label.copy()
        np.minimum.at(new, ai, m)
        np.minimum.at(new, bi, m)
        new = new[new]  # pointer halving
        if np.array_equal(new, label):
            break
        label = new
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "canonical_id": pa.array(ids[label], pa.int64()),
    })


def similarity_components(sf_dir: str, threshold: float = 0.6):
    """(doc_id, canonical_id): connected-component clustering over the
    EXACT set-similarity join's pairs — the guaranteed-recall twin of
    ``near_dup_dedup``, and the one that earns the component operator
    an ORACLE: because the edge set is SQL-expressible, the transitive
    closure itself is verified end-to-end by a recursive-CTE min-label
    closure in DuckDB (``similarity_components_sql``) — the clustering
    semantics, not just the edges, are driver-gated."""
    return _components(set_similarity_join(sf_dir, threshold))


def similarity_components_sql(
    threshold: float = 0.6, shingle_n: int = 3
) -> str:
    pair_sql = set_similarity_join_sql(threshold, shingle_n)
    return f"""
WITH RECURSIVE pairs AS ({pair_sql}),
edges AS (
  SELECT doc_a AS a, doc_b AS b FROM pairs
  UNION ALL
  SELECT doc_b, doc_a FROM pairs
),
reach(doc_id, lbl) AS (
  SELECT a, a FROM edges
  UNION
  SELECT e.a, r.lbl FROM edges e JOIN reach r ON r.doc_id = e.b
)
SELECT doc_id, min(lbl) AS canonical_id FROM reach GROUP BY doc_id
"""


PR_DAMPING = 0.85
PR_ITERS = 30


def similarity_pagerank(
    sf_dir: str,
    threshold: float = 0.6,
    d: float = PR_DAMPING,
    iters: int = PR_ITERS,
):
    """(doc_id, rank): PageRank (Brin & Page 1998) over the UNDIRECTED
    exact set-similarity graph — the iterative-algorithm member of the
    dedup family: within a near-dup cluster the highest-rank doc is
    the most central copy (a keep-policy signal richer than min-id),
    and across the corpus rank mass localizes boilerplate hubs.
    Standard damped formulation with uniform teleport and dangling
    (isolated-doc) mass redistribution; ``iters`` fixed power-iteration
    rounds, round-6 output, fully deterministic. Rows-only BY DESIGN
    (fixed-point iteration is not reasonably SQL-expressible); pytest
    verifies against an independent dense-matrix power iteration plus
    the mass-conservation and symmetry invariants.

    Shape: edges come from the DURABLE pair cache (``set_similarity_
    join`` — warm second consumers do zero shingle work, the
    components discipline), and the iteration is edge-set + node-
    vector-sized vectorized driver work (np.add.at gather-scatter per
    round), the `_components` precedent. At fleet scale the same
    update is the bucketed SpMV: edges hash-partitioned by src bucket,
    rank partitions co-located, one (dst, contrib) exchange per round
    — swap the driver fold for that groupby when the node vector
    outgrows one machine."""
    pairs = set_similarity_join(sf_dir, threshold)
    ids = (
        _docs(sf_dir, ["doc_id"]).to_pandas()["doc_id"]
        .to_numpy(np.int64)
    )
    ids = np.sort(ids)
    n = ids.size
    if n == 0:
        return pa.table({
            "doc_id": pa.array([], pa.int64()),
            "rank": pa.array([], pa.float64()),
        })
    a = np.searchsorted(ids, pairs["doc_a"].to_numpy())
    b = np.searchsorted(ids, pairs["doc_b"].to_numpy())
    # undirected: each edge contributes both ways
    src = np.concatenate((a, b))
    dst = np.concatenate((b, a))
    deg = np.bincount(src, minlength=n).astype(np.float64)
    dangling = deg == 0.0
    inv_deg = np.zeros(n, dtype=np.float64)
    inv_deg[~dangling] = 1.0 / deg[~dangling]
    r = np.full(n, 1.0 / n, dtype=np.float64)
    for _ in range(iters):
        contrib = r * inv_deg
        nxt = np.zeros(n, dtype=np.float64)
        np.add.at(nxt, dst, contrib[src])
        dangle_mass = float(r[dangling].sum())
        r = (1.0 - d) / n + d * (nxt + dangle_mass / n)
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "rank": pa.array(np.round(r, 6), pa.float64()),
    })


def _simhash_sig_batch(batch: pa.Table) -> tuple[pa.Array, np.ndarray]:
    """(doc_id column, uint64 sig array) for one batch — vectorized:
    FNV-1a over the UNIQUE-token dictionary (``fnv1a64_array``: one
    masked array op per byte position, no per-token Python hashing),
    then per-bit signed occurrence counts via bincount (summing +-1
    per occurrence equals the tf-weighted definition in
    ``simhash64``)."""
    from sotohp_ray.functions.hashing import fnv1a64_array

    parents, flat = _TOK.exploded(_text_col(batch))
    n = len(batch)
    d = pc.dictionary_encode(flat)
    d = d.combine_chunks() if isinstance(d, pa.ChunkedArray) else d
    uniq_hv = fnv1a64_array(d.dictionary)
    hv = uniq_hv[d.indices.to_numpy(zero_copy_only=False)]
    pn = parents.to_numpy(zero_copy_only=False)
    sig = np.zeros(n, dtype=np.uint64)
    for b in range(64):
        contrib = (
            ((hv >> np.uint64(b)) & np.uint64(1)).astype(np.float64)
            * 2.0 - 1.0
        )
        acc = np.bincount(pn, weights=contrib, minlength=n)
        sig |= (acc > 0).astype(np.uint64) << np.uint64(b)
    return batch["doc_id"], sig


def simhash_fingerprints(sf_dir: str):
    """(doc_id, simhash_hex) 64-bit SimHash per doc (hex is the
    public fingerprint format; ``simhash_near_dups`` consumes the raw
    uint64 sigs from the same kernel without the hex round-trip)."""

    def f(batch: pa.Table) -> pa.Table:
        ids, sig = _simhash_sig_batch(batch)
        hexes = [f"{int(s):016x}" for s in sig]
        return pa.table({"doc_id": ids, "simhash_hex": pa.array(hexes)})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


def simhash_near_dups(sf_dir: str, max_hamming: int = 8):
    """Pairs of docs whose SimHashes differ by <= max_hamming bits
    (4x16-bit band blocking, then exact hamming verify) — fully
    distributed: band rows -> dup-bucket filter (count groupby +
    broadcast ``np.isin``) -> per-bucket hamming verify in
    ``groupby(bucket).map_groups`` -> global pair dedup. The round-1
    version pulled every fingerprint to the driver with take_all()."""
    import pandas as pd

    from sotohp_ray.functions.hashing import _fmix64

    def band_rows(batch: pa.Table) -> pa.Table:
        # simhash kernel inlined (raw uint64 sigs, no hex round-trip):
        # (doc_id, sig) -> 4 band rows each
        id_col, sigs = _simhash_sig_batch(batch)
        ids = id_col.to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(ids)
        bands = np.tile(np.arange(4, dtype=np.int64), n)
        rep_sig = np.repeat(sigs, 4)
        band16 = (rep_sig >> (bands.astype(np.uint64) * np.uint64(16))) \
            & np.uint64(0xFFFF)
        bkey = _fmix64(
            band16 ^ ((bands.astype(np.uint64) + np.uint64(1)) << np.uint64(48))
        ).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(np.repeat(ids, 4), pa.int64()),
            "sig": pa.array(rep_sig.astype(np.int64), pa.int64()),
            "bkey": pa.array(bkey, pa.int64()),
        })

    ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        band_rows, batch_format="pyarrow"
    ).materialize()
    members, _ = _dup_members(ds)
    empty = pa.table(
        {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())}
    )
    if members is None:
        return empty

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        # One coarse group = many whole buckets. Bucket membership is a
        # function of the SIGNATURE (band16 slices of it), so docs with
        # identical sigs collapse to one representative for the whole
        # group: per bucket only the DISTINCT sigs present are
        # pairwise-hammed (in bounded row chunks), passing rep pairs
        # are deduped across buckets and expanded ONCE to the members'
        # cross product. Identical-sig (hamming-0) cliques are emitted
        # below by their designated owner group (min band key), so a
        # mega-bucket of B identical docs costs one rep in the hamming
        # pass, not a B x B matrix per band.
        uniq_docs = g.drop_duplicates("doc_id")
        dids = uniq_docs["doc_id"].to_numpy()
        sgs = uniq_docs["sig"].to_numpy().astype(np.uint64)
        empty = pd.DataFrame({
            "doc_a": pd.Series(dtype="int64"),
            "doc_b": pd.Series(dtype="int64")})
        if dids.size < 2:
            return empty
        uniq, inv = np.unique(sgs, return_inverse=True)
        R = uniq.size
        morder = np.lexsort((dids, inv))
        msort = dids[morder]  # ascending within each sig group
        starts = np.zeros(R + 1, dtype=np.int64)
        np.cumsum(np.bincount(inv, minlength=R), out=starts[1:])
        # identical-sig cliques (hamming 0), emitted here EXACTLY once
        # globally with no extra pass: a sig's 4 band keys are a pure
        # function of the sig, so the group owning the MINIMUM of the
        # four (by coarse key) is the unique designated emitter, and
        # it always sees every member (equal sigs share all buckets,
        # all of which are dup buckets when the sig has >= 2 docs)
        clique_parts = []
        counts_r = np.diff(starts)
        multi = np.flatnonzero(counts_r > 1)
        if multi.size:
            ks = np.arange(4, dtype=np.uint64)
            band16 = (
                uniq[multi][:, None] >> (ks * np.uint64(16))[None, :]
            ) & np.uint64(0xFFFF)
            k4 = _fmix64(
                band16 ^ ((ks + np.uint64(1)) << np.uint64(48))[None, :]
            ).astype(np.int64)
            gcoarse = int(g["coarse"].iloc[0])
            owner = (k4.min(axis=1) & 0xFF) == gcoarse
            for r in multi[owner]:
                m = msort[starts[r]:starts[r + 1]]
                iu, ju = _tri_pair_indices(m.size)
                clique_parts.append((m[iu], m[ju]))
        passing: set[tuple[int, int]] = set()
        CHUNK = 2048  # caps the xor matrix at CHUNK x Rb
        for _, b in g.groupby("bkey", sort=False):
            bsig = np.unique(b["sig"].to_numpy().astype(np.uint64))
            ridx = np.searchsorted(uniq, bsig)
            Rb = ridx.size
            if Rb < 2:
                continue
            bu = uniq[ridx]
            for c0 in range(0, Rb, CHUNK):
                chunk = bu[c0:c0 + CHUNK]
                x = chunk[:, None] ^ bu[None, :]
                ham = np.unpackbits(
                    x.view(np.uint8).reshape(chunk.size, Rb, 8), axis=2
                ).sum(axis=2)
                ci, cj = np.nonzero(ham <= max_hamming)
                gi, gj = ridx[ci + c0], ridx[cj]
                keep = gi < gj  # upper triangle only; skips same-sig
                for a_r, b_r in zip(gi[keep], gj[keep]):
                    passing.add((int(a_r), int(b_r)))
        pa_ = [a for a, _ in clique_parts]
        pb_ = [b for _, b in clique_parts]
        for a_r, b_r in passing:
            ma = msort[starts[a_r]:starts[a_r + 1]]
            mb = msort[starts[b_r]:starts[b_r + 1]]
            A = np.repeat(ma, mb.size)
            B = np.tile(mb, ma.size)
            pa_.append(np.minimum(A, B))
            pb_.append(np.maximum(A, B))
        if not pa_:
            return empty
        out = pd.DataFrame({
            "doc_a": np.concatenate(pa_).astype("int64"),
            "doc_b": np.concatenate(pb_).astype("int64"),
        })
        return out.drop_duplicates(["doc_a", "doc_b"])

    pairs = members.groupby("coarse").map_groups(
        verify, batch_format="pandas"
    )

    # output-sized finalize (shared lexsort + run-boundary dedup);
    # identical-sig cliques were already emitted inside verify by
    # their designated min-band-key owner group
    out = _finalize_pairs(pairs, [], [])
    return out if out is not None else empty


def doc_fingerprint(sf_dir: str, window: int = 4, shingle_n: int = 3):
    """(doc_id, n_fingerprints) winnowing-style document fingerprinting
    (Schleimer et al., SIGMOD 2003): count of distinct sliding-window
    minima over the doc's shingle-hash sequence. Vectorized over the
    whole batch with the same token-hash + strided-window kernels as
    MinHash (functions/hashing.py) — no per-doc Python loop.

    Contract per doc with L tokens: L < shingle_n -> 0; shingle count
    (L - shingle_n + 1) <= window -> 1; else distinct window minima."""
    from sotohp_ray.functions.hashing import _WIN_MULS, _fmix64, token_hash_array

    def f(batch: pa.Table) -> pa.Table:
        parents, flat = _TOK.exploded(_text_col(batch))
        pn = parents.to_numpy(zero_copy_only=False).astype(np.int64)
        th = token_hash_array(flat)
        n = batch.num_rows
        lengths = np.bincount(pn, minlength=n) if pn.size else np.zeros(
            n, dtype=np.int64
        )
        counts = np.zeros(n, dtype=np.int64)
        shlen = np.maximum(lengths - (shingle_n - 1), 0)
        counts[(lengths >= shingle_n) & (shlen <= window)] = 1
        nt = th.size
        if nt >= shingle_n:
            w = np.lib.stride_tricks.sliding_window_view(th, shingle_n)
            valid = pn[: nt - shingle_n + 1] == pn[shingle_n - 1:]
            sh_val = _fmix64(
                (w * _WIN_MULS[:shingle_n]).sum(axis=1, dtype=np.uint64)
            )[valid]
            sh_par = pn[: nt - shingle_n + 1][valid]
            ns = sh_val.size
            if ns >= window:
                wv = np.lib.stride_tricks.sliding_window_view(sh_val, window)
                wvalid = sh_par[: ns - window + 1] == sh_par[window - 1:]
                mins = wv.min(axis=1)[wvalid]
                mpar = sh_par[: ns - window + 1][wvalid]
                if mins.size:
                    order = np.lexsort((mins, mpar))
                    mpar, mins = mpar[order], mins[order]
                    keep = np.ones(mpar.size, dtype=bool)
                    keep[1:] = (np.diff(mpar) != 0) | (np.diff(mins) != 0)
                    distinct = np.bincount(mpar[keep], minlength=n)
                    big = shlen > window
                    counts[big] = distinct[big]
        return pa.table(
            {"doc_id": batch["doc_id"],
             "n_fingerprints": pa.array(counts, pa.int64())}
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


KEYWORD_QUERY = ("fast", "small")


def keyword_search(sf_dir: str, keywords=KEYWORD_QUERY):
    """(doc_id,) — documents whose analyzed term set contains ALL the
    requested keywords: the reference's naive keyword search
    (`mediaSearch` forall-contains predicate, MediaServiceLive.scala:
    108-112, M9 — the full-scan path its author marked "temporary";
    the inverted index in pipelines/query.py is the real answer, this
    operator keeps the scan-shaped semantics as a streaming filter)."""
    kws = tuple(keywords)

    def f(batch: pa.Table) -> pa.Table:
        parents, flat = _TOK.exploded(_text_col(batch))
        ok = np.ones(len(batch), dtype=bool)
        import pyarrow.compute as _pc

        pn = parents.to_numpy(zero_copy_only=False)
        for kw in kws:
            hit = np.zeros(len(batch), dtype=bool)
            m = _pc.equal(flat, kw)
            hit[pn[m.to_numpy(zero_copy_only=False)]] = True
            ok &= hit
        return batch.filter(pa.array(ok)).select(["doc_id"])

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


def keyword_search_sql(keywords=KEYWORD_QUERY) -> str:
    from sotohp_ray.functions.tokenizer import sql_token_expr

    lst = ", ".join(f"'{k}'" for k in keywords)
    return (
        f"SELECT doc_id FROM documents "
        f"WHERE list_has_all({sql_token_expr('text')}, [{lst}])"
    )


# Registered percolator queries: (query_id, MUST terms, MUST_NOT
# terms). Fixed and tiny — the percolator's contract is "queries are
# registered ahead of the stream"; terms are analyzed tokens.
PERCOLATE_QUERIES: tuple[tuple[int, tuple[str, ...], tuple[str, ...]], ...] = (
    (1, ("sort", "merge"), ()),
    (2, ("window",), ("hash",)),
    (3, ("stream", "batch", "join"), ()),
    (4, ("scan",), ("merge", "sort")),
    (5, ("the", "fast"), ()),
    (6, ("zzz_unmatched_term",), ()),  # empty-result edge
)


def percolate(sf_dir: str, queries=PERCOLATE_QUERIES):
    """(query_id, doc_id): the ES percolator, reverse search — a small
    REGISTERED query set is matched against the document stream
    (reference serves search through Elasticsearch, whose percolator
    is this exact operation; the reference's own scan-shaped analog is
    the M9 forall-contains predicate, MediaServiceLive.scala:108-112).

    One tokenize pass per batch; every query evaluates against a
    shared (docs x vocab) presence matrix built by a single
    ``pc.index_in`` over the flattened tokens — per-query work is a
    handful of vectorized column ANDs, so adding queries is ~free.
    The registered set is broadcast by closure (queries are the SMALL
    side; documents stream)."""
    qs = tuple(queries)
    vocab = sorted({t for _, must, mnot in qs for t in must + mnot})
    vpos = {t: i for i, t in enumerate(vocab)}

    def f(batch: pa.Table) -> pa.Table:
        parents, flat = _TOK.exploded(_text_col(batch))
        pn = parents.to_numpy(zero_copy_only=False)
        idx = pc.fill_null(
            pc.index_in(flat, value_set=pa.array(vocab).cast(flat.type)),
            -1,
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        present = np.zeros((batch.num_rows, len(vocab)), dtype=bool)
        hit = idx >= 0
        present[pn[hit], idx[hit]] = True
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        out_q: list[np.ndarray] = []
        out_d: list[np.ndarray] = []
        for qid, must, mnot in qs:
            ok = np.ones(batch.num_rows, dtype=bool)
            for t in must:
                ok &= present[:, vpos[t]]
            for t in mnot:
                ok &= ~present[:, vpos[t]]
            n = int(ok.sum())
            if n:
                out_q.append(np.full(n, qid, dtype=np.int64))
                out_d.append(ids[ok])
        if not out_q:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                "doc_id": pa.array(
                    np.concatenate(out_d).astype(np.int64), pa.int64()
                ),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


def percolate_sql(queries=PERCOLATE_QUERIES) -> str:
    from sotohp_ray.functions.tokenizer import sql_token_expr

    texpr = sql_token_expr("text")
    parts = []
    for qid, must, mnot in queries:
        conds = []
        if must:
            lst = ", ".join(f"'{t}'" for t in must)
            conds.append(f"list_has_all(toks, [{lst}])")
        if mnot:
            lst = ", ".join(f"'{t}'" for t in mnot)
            conds.append(f"NOT list_has_any(toks, [{lst}])")
        where = " AND ".join(conds) if conds else "TRUE"
        parts.append(
            f"SELECT CAST({qid} AS BIGINT) AS query_id, doc_id "
            f"FROM t WHERE {where}"
        )
    body = "\nUNION ALL\n".join(parts)
    return f"WITH t AS (SELECT doc_id, {texpr} AS toks FROM documents)\n{body}"


def corpus_stats(sf_dir: str):
    """Single-row multi-aggregate over the corpus (A2: the Statistics
    single-pass fold, Statistics.scala:49-135,179-185 — counts, min/max
    key, distinct-facet counts in ONE scan): per-batch partials shrink
    to one tiny row each, then one 1-key groupby finalizes — no raw-row
    shuffle."""
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "k": pa.array([0], pa.int64()),
            "n_docs": pa.array([len(batch)], pa.int64()),
            "total_chars": pa.array(
                [int(pc.sum(batch["n_chars"]).as_py() or 0)], pa.int64()),
            "min_doc_id": pa.array([int(ids.min())], pa.int64()),
            "max_doc_id": pa.array([int(ids.max())], pa.int64()),
            "langs": pa.array(
                [pc.unique(batch["lang"]).to_pylist()],
                pa.list_(pa.string())),
            "sources": pa.array(
                [pc.unique(batch["source"]).to_pylist()],
                pa.list_(pa.string())),
        })

    def final(g: pd.DataFrame) -> pd.DataFrame:
        langs = set().union(*g["langs"])
        sources = set().union(*g["sources"])
        return pd.DataFrame({
            "n_docs": [int(g["n_docs"].sum())],
            "total_chars": [int(g["total_chars"].sum())],
            "min_doc_id": [int(g["min_doc_id"].min())],
            "max_doc_id": [int(g["max_doc_id"].max())],
            "n_langs": [len(langs)],
            "n_sources": [len(sources)],
        })

    return (
        _docs(sf_dir, ["doc_id", "n_chars", "lang", "source"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("k")
        .map_groups(final, batch_format="pandas")
    )


def corpus_stats_sql() -> str:
    return """
        SELECT count(*) AS n_docs,
               CAST(sum(n_chars) AS BIGINT) AS total_chars,
               min(doc_id) AS min_doc_id, max(doc_id) AS max_doc_id,
               count(DISTINCT lang) AS n_langs,
               count(DISTINCT source) AS n_sources
        FROM documents
    """


def bigram_counts(sf_dir: str, min_count: int = 5):
    """(t1, t2, n): corpus-wide bigram frequencies over analyzed
    tokens (adjacent within a document), n >= min_count. Per-batch
    vectorized pairing + within-batch combiner, then one small groupby
    over partial counts (A1 partial+final discipline)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        parents, flat = _exploded_of(batch)
        pn = parents.to_numpy(zero_copy_only=False)
        nt = len(flat)
        if nt < 2:
            return pa.table({
                "t1": pa.array([], pa.large_string()),
                "t2": pa.array([], pa.large_string()),
                "n_partial": pa.array([], pa.int64()),
            })
        same_doc = pn[:-1] == pn[1:]
        t = pa.table({
            "t1": flat.slice(0, nt - 1).filter(pa.array(same_doc)),
            "t2": flat.slice(1, nt - 1).filter(pa.array(same_doc)),
        })
        g = t.group_by(["t1", "t2"]).aggregate([("t1", "count")])
        return agg_select(
            g, {"t1": "t1", "t2": "t2", "t1_count": "n_partial"}
        )

    agg = (
        _docs_tokens(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["t1", "t2"])
        .aggregate(Sum("n_partial", alias_name="n"))
    )

    def threshold(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch["n"], min_count))

    return agg.map_batches(threshold, batch_format="pyarrow")


def bigram_pmi(sf_dir: str, min_count: int = 5):
    """(t1, t2, n, pmi): pointwise mutual information of the surviving
    bigrams — ln( (n/M) / ((c1/N)*(c2/N)) ) with N = total tokens,
    M = total adjacent pairs, c = unigram occurrence counts — the
    collocation-mining op (Church & Hanks 1990). Unigram counts are
    fetched for ONLY the terms appearing in the (already min_count-
    thresholded, output-sized) bigram survivor set: the term set is
    broadcast and each batch counts just those terms, so the corpus
    streams once with no vocabulary-sized state anywhere."""
    import ray

    bi = bigram_counts(sf_dir, min_count).to_pandas()
    if not len(bi):
        return pa.table({
            "t1": pa.array([], pa.string()),
            "t2": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
            "pmi": pa.array([], pa.float64()),
        })
    need = np.unique(np.concatenate(
        [bi["t1"].to_numpy().astype("O"), bi["t2"].to_numpy().astype("O")]
    ))
    nref = ray.put(pa.array(need.tolist(), pa.string()))

    def partial(batch: pa.Table) -> pa.Table:
        needed = ray.get(nref)
        parents, flat = _exploded_of(batch)
        pn = parents.to_numpy(zero_copy_only=False)
        nt = len(flat)
        # totals: N tokens; M adjacent same-doc pairs
        m = int((pn[:-1] == pn[1:]).sum()) if nt >= 2 else 0
        keep = pc.is_in(flat, value_set=needed.cast(flat.type))
        t = pa.table({"term": pc.filter(flat, keep)})
        g = t.group_by("term").aggregate([([], "count_all")])
        out = agg_select(g, {"term": "term", "count_all": "c_partial"})
        tot = pa.table({
            "term": pa.array(
                ["\x00N", "\x00M"], type=out.schema.field("term").type
            ),
            "c_partial": pa.array(
                [nt, m], out.schema.field("c_partial").type
            ),
        })
        return pa.concat_tables([out, tot])

    from ray.data.aggregate import Sum

    counts = (
        _docs_tokens(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("c_partial", alias_name="c"))
        .to_pandas()
    )
    cmap = dict(zip(counts["term"], counts["c"].astype(np.int64)))
    N = float(cmap.pop("\x00N", 0))
    M = float(cmap.pop("\x00M", 0))
    c1 = np.array([cmap[t] for t in bi["t1"]], dtype=np.float64)
    c2 = np.array([cmap[t] for t in bi["t2"]], dtype=np.float64)
    nn = bi["n"].to_numpy().astype(np.float64)
    pmi = np.round(np.log((nn / M) / ((c1 / N) * (c2 / N))), 6)
    order = np.lexsort((bi["t2"].to_numpy().astype("O"),
                        bi["t1"].to_numpy().astype("O")))
    return pa.table({
        "t1": pa.array(bi["t1"].to_numpy()[order], pa.string()),
        "t2": pa.array(bi["t2"].to_numpy()[order], pa.string()),
        "n": pa.array(bi["n"].to_numpy().astype(np.int64)[order]),
        "pmi": pa.array(pmi[order], pa.float64()),
    })


def bigram_pmi_sql(min_count: int = 5) -> str:
    from sotohp_ray.functions.tokenizer import sql_token_expr

    texpr = sql_token_expr("text")
    return f"""
WITH toks AS (
  SELECT doc_id, unnest({texpr}) AS term,
         generate_subscripts({texpr}, 1) AS pos
  FROM documents
),
bi AS (
  SELECT a.term AS t1, b.term AS t2, count(*) AS n
  FROM toks a JOIN toks b
    ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
  GROUP BY 1, 2 HAVING count(*) >= {min_count}
),
uni AS (SELECT term, count(*)::DOUBLE AS c FROM toks GROUP BY term),
tot AS (
  SELECT (SELECT count(*) FROM toks)::DOUBLE AS n_tok,
         (SELECT count(*) FROM toks a JOIN toks b
            ON b.doc_id = a.doc_id AND b.pos = a.pos + 1)::DOUBLE AS m
)
SELECT bi.t1, bi.t2, bi.n,
       round(ln((bi.n / t.m) / ((u1.c / t.n_tok) * (u2.c / t.n_tok))), 6)
         AS pmi
FROM bi
JOIN uni u1 ON u1.term = bi.t1
JOIN uni u2 ON u2.term = bi.t2
CROSS JOIN tot t
ORDER BY t1, t2
"""


def bigram_counts_sql(min_count: int = 5) -> str:
    from sotohp_ray.functions.tokenizer import sql_token_expr

    texpr = sql_token_expr("text")
    return f"""
        WITH toks AS (
          SELECT doc_id,
                 unnest({texpr}) AS term,
                 generate_subscripts({texpr}, 1) AS pos
          FROM documents
        )
        SELECT a.term AS t1, b.term AS t2, count(*) AS n
        FROM toks a JOIN toks b
          ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
        GROUP BY 1, 2
        HAVING count(*) >= {min_count}
    """


def doc_length_histogram(sf_dir: str, bucket: int = 100):
    """(bucket_lo, n_docs): corpus length histogram — the bucketed
    count-by-facet aggregate of A2 (Statistics.scala:84-93 counts by
    focal-length bucket; here the facet is n_chars). Per-batch
    vectorized bucket+count combiner, then one tiny groupby over
    partials."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        lo = pc.multiply(
            pc.divide(batch["n_chars"], bucket), pa.scalar(bucket)
        )
        g = (
            pa.table({"bucket_lo": lo})
            .group_by("bucket_lo")
            .aggregate([([], "count_all")])
        )
        return agg_select(
            g, {"bucket_lo": "bucket_lo", "count_all": "n_partial"}
        )

    return (
        _docs(sf_dir, ["n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("bucket_lo")
        .aggregate(Sum("n_partial", alias_name="n_docs"))
    )


def doc_length_histogram_sql(bucket: int = 100) -> str:
    return f"""
        SELECT (n_chars // {bucket}) * {bucket} AS bucket_lo,
               count(*) AS n_docs
        FROM documents GROUP BY 1
    """


QUANTILE_QS = (0.25, 0.5, 0.75, 0.9, 0.99)


def doc_length_quantiles(sf_dir: str, qs=QUANTILE_QS):
    """(quantile, n_chars): EXACT discrete corpus quantiles
    (percentile_disc: the value at 1-based rank ceil(q*N) of the
    sorted stream) WITHOUT a distributed sort. Lengths are
    bounded-cardinality values, so a per-batch value-histogram
    combiner + one tiny groupby + a driver-side cumsum answer every
    quantile exactly; the exchange carries (distinct lengths x
    blocks) partial rows instead of the full table an order-by
    quantile would shuffle. Rank arithmetic is the same IEEE double
    ceil(q*N) on both the engine and the SQL oracle, so boundary
    quantiles (0.9*500) agree bit-for-bit. Reference analog: the
    statistics rollups of A2 (Statistics.scala:84-93), upgraded from
    mean/max to full percentiles."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        g = (
            pa.table({"n_chars": batch["n_chars"]})
            .group_by("n_chars")
            .aggregate([([], "count_all")])
        )
        return agg_select(
            g, {"n_chars": "n_chars", "count_all": "n_partial"}
        )

    hist = (
        _docs(sf_dir, ["n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("n_chars")
        .aggregate(Sum("n_partial", alias_name="n"))
        .to_pandas()  # distinct-length-sized, never corpus-sized
        .sort_values("n_chars")
        .reset_index(drop=True)
    )
    vals = hist["n_chars"].to_numpy().astype(np.int64)
    cum = hist["n"].to_numpy().astype(np.int64).cumsum()
    total = int(cum[-1]) if len(cum) else 0
    out_q: list[float] = []
    out_v: list[int] = []
    for q in qs:
        if not total:
            continue
        rank = max(int(np.ceil(np.float64(q) * total)), 1)
        out_q.append(float(q))
        out_v.append(int(vals[int(np.searchsorted(cum, rank))]))
    return pa.table({
        "quantile": pa.array(out_q, pa.float64()),
        "n_chars": pa.array(out_v, pa.int64()),
    })


def doc_length_quantiles_sql(qs=QUANTILE_QS) -> str:
    values = ", ".join(f"({q}::DOUBLE)" for q in qs)
    return f"""
WITH o AS (
  SELECT n_chars, row_number() OVER (ORDER BY n_chars) AS rn,
         count(*) OVER () AS n
  FROM documents
)
SELECT q.q AS quantile, min(o.n_chars) AS n_chars
FROM (VALUES {values}) q(q)
JOIN o ON o.rn >= ceil(q.q * o.n)
GROUP BY 1
"""


SAMPLE_RATE_PPM = 100_000  # 10%
_SAMPLE_MUL = 2654435761  # Knuth multiplicative hash (public constant)


def sample_random(sf_dir: str, rate_ppm: int = SAMPLE_RATE_PPM):
    """(doc_id, lang): uniform pseudo-random sample at ``rate_ppm``
    parts-per-million — O5 (`mediaSelectRandom`, ApiApp.scala:804-814)
    made reproducible: membership is a multiplicative hash of doc_id
    against a fixed threshold, so the sample is deterministic, seedable
    (change the multiplier), selected WITHOUT any coordination between
    partitions, and exactly reproducible in SQL."""
    threshold = (rate_ppm * (1 << 32)) // 1_000_000

    def f(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = (ids * np.uint64(_SAMPLE_MUL)) % np.uint64(1 << 32)
        return batch.filter(pa.array(h < np.uint64(threshold)))

    return _docs(sf_dir, ["doc_id", "lang"]).map_batches(
        f, batch_format="pyarrow"
    )


def sample_random_sql(rate_ppm: int = SAMPLE_RATE_PPM) -> str:
    # HUGEINT (int128) product, then % 2^32: BIGINT would overflow
    # (error) for doc_id above ~3.5e9, while the engine path wraps in
    # uint64 — and (id*MUL mod 2^64) mod 2^32 == (id*MUL) mod 2^32
    # exactly (2^32 divides 2^64), so the int128 form matches the
    # numpy wrap for every non-negative doc_id
    threshold = (rate_ppm * (1 << 32)) // 1_000_000
    return f"""
        SELECT doc_id, lang FROM documents
        WHERE (doc_id::HUGEINT * {_SAMPLE_MUL}) % 4294967296 < {threshold}
    """


SAMPLE_W_K = 50
_SW_MUL = 2654435761  # Knuth multiplicative hash (public constant)


def sample_weighted(sf_dir: str, k: int = SAMPLE_W_K):
    """(doc_id, n_chars): deterministic WEIGHTED sample without
    replacement — Efraimidis & Spirakis (2006) A-Res: each doc draws
    a pseudo-uniform u from a multiplicative doc_id hash (no RNG
    state, the sample_stratified reproducibility rule) and the k
    largest ln(u)/weight keys win; weight = n_chars, so longer docs
    are proportionally likelier (quality-weighted data selection).
    The IDENTICAL IEEE expression runs on both engines, so the SQL
    oracle agrees exactly.

    Per-batch top-k combiner over a 2-column read, tiny driver merge
    — never a global sort."""
    import pandas as pd

    def key_of(ids: np.ndarray, nch: np.ndarray) -> np.ndarray:
        u = ((ids * _SW_MUL) % 4294967296 + 1) / 4294967297.0
        return np.log(u) / np.maximum(nch, 1)

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        nch = batch["n_chars"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        kk = key_of(ids, nch)
        top = np.lexsort((ids, -kk))[: min(k, ids.size)]
        return pa.table({
            "doc_id": pa.array(ids[top]),
            "n_chars": pa.array(nch[top]),
        })

    cand = (
        _docs(sf_dir, ["doc_id", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()  # <= k rows per block
    )
    ids = cand["doc_id"].to_numpy(np.int64)
    nch = cand["n_chars"].to_numpy(np.int64)
    kk = key_of(ids, nch)
    top = np.lexsort((ids, -kk))[: min(k, ids.size)]
    return pa.table({
        "doc_id": pa.array(ids[top]),
        "n_chars": pa.array(nch[top]),
    })


def sample_weighted_sql(k: int = SAMPLE_W_K) -> str:
    return f"""
SELECT doc_id, n_chars FROM (
  SELECT doc_id, n_chars,
         ln((((doc_id * {_SW_MUL}) % 4294967296) + 1)
            / 4294967297.0) / greatest(n_chars, 1) AS kk
  FROM documents)
ORDER BY kk DESC, doc_id ASC
LIMIT {k}
"""


def sample_stratified(sf_dir: str, per_group: int = 20):
    """(doc_id, lang): deterministic stratified sample — the first
    ``per_group`` doc_ids of each lang (O5 random-select made
    reproducible: rank within stratum, not RNG, so the SQL oracle
    agrees exactly).

    Per-batch COMBINER (the ``events_topk_by_value`` discipline): each
    block keeps at most ``per_group`` rows per lang, so the final merge
    is (n_langs x per_group x n_blocks)-sized — never a
    ``groupby(lang)`` shuffle of the raw corpus on a ~6-value skewed
    key, which at 100 TB would route most of the table into one
    map_groups task just to keep 20 rows of it."""
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select(["doc_id", "lang"]).to_pandas()
        idx = (
            df.sort_values(["lang", "doc_id"])
            .groupby("lang", sort=False)
            .head(per_group)
            .index.to_numpy()
        )
        return batch.select(["doc_id", "lang"]).take(pa.array(np.sort(idx)))

    cand = (
        _docs(sf_dir, ["doc_id", "lang"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()  # ≤ n_langs * per_group rows per block: output-sized
    )
    return (
        cand.sort_values(["lang", "doc_id"])
        .groupby("lang", sort=False)
        .head(per_group)
        .reset_index(drop=True)
    )


def sample_stratified_sql(per_group: int = 20) -> str:
    return f"""
        SELECT doc_id, lang FROM documents
        QUALIFY row_number() OVER (
          PARTITION BY lang ORDER BY doc_id) <= {per_group}
    """


CTFIDF_K = 10


def lang_ctfidf(sf_dir: str, k: int = CTFIDF_K):
    """(lang, term, score): per-language DISTINCTIVE terms by
    class-TF-IDF (the BERTopic c-TF-IDF shape, Grootendorst 2022:
    treat each group's concatenated docs as one document; score =
    group collection frequency x ln(n_groups / groups_containing)).
    Distribution: per-batch (lang, term) count partials from the
    analyzed-tokens sidecar -> ONE term-keyed exchange whose groups
    hold every language's partials for that term (so gdf and the
    per-lang totals are computed where the term lives) -> vocab-sized
    score rows -> per-block top-k partials keyed by lang (O6) and an
    output-sized driver merge. n_groups is a scalar read from the
    lang dictionary column, broadcast by closure."""
    import pandas as pd

    import pyarrow.parquet as _pq

    n_groups = len(
        _pq.read_table(
            f"{sf_dir}/documents.parquet", columns=["lang"]
        )["lang"].unique()
    )

    def partial(batch: pa.Table) -> pa.Table:
        lists = batch["toks"]
        lists = (
            lists.combine_chunks()
            if isinstance(lists, pa.ChunkedArray) else lists
        )
        n = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        lang = batch["lang"].to_numpy(zero_copy_only=False)
        rep = pa.array(np.repeat(lang, n))
        g = (
            pa.table({"lang": rep, "term": lists.flatten()})
            .group_by(["lang", "term"])
            .aggregate([([], "count_all")])
        )
        return agg_select(g, {
            "lang": "lang", "term": "term", "count_all": "cnt",
        })

    def score_term(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby("lang", as_index=False)["cnt"].sum()
        gdf = len(tot)
        score = np.round(
            tot["cnt"].to_numpy(np.float64) * np.log(n_groups / gdf), 4
        )
        return pd.DataFrame({
            "lang": tot["lang"],
            "term": g["term"].iloc[0],
            "score": score,
        })

    def topk_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        return pa.Table.from_pandas(
            df.sort_values(["score", "term"], ascending=[False, True])
            .groupby("lang", as_index=False)
            .head(k),
            preserve_index=False,
        )

    parts = (
        _docs_tokens(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("term")
        .map_groups(score_term, batch_format="pandas")
        .map_batches(topk_partial, batch_format="pyarrow")
        .to_pandas()  # <= k rows per (block, lang): output-sized
    )
    out = (
        parts.sort_values(["score", "term"], ascending=[False, True])
        .groupby("lang", as_index=False)
        .head(k)
        .sort_values(["lang", "term"])
    )
    return pa.table({
        "lang": pa.array(out["lang"].astype(str)),
        "term": pa.array(out["term"].astype(str)),
        "score": pa.array(out["score"].to_numpy(np.float64)),
    })


def lang_ctfidf_sql(k: int = CTFIDF_K) -> str:
    texpr = sql_token_expr("text")
    return f"""
WITH toks AS (
  SELECT lang, unnest({texpr}) AS term FROM documents
),
ct AS (SELECT lang, term, count(*) AS cnt FROM toks GROUP BY 1, 2),
gdf AS (SELECT term, count(DISTINCT lang) AS g FROM ct GROUP BY 1),
n AS (SELECT count(DISTINCT lang) AS n FROM documents)
SELECT ct.lang, ct.term,
       round(ct.cnt * ln(n.n / CAST(gdf.g AS DOUBLE)), 4) AS score
FROM ct JOIN gdf ON gdf.term = ct.term CROSS JOIN n
QUALIFY row_number() OVER (
  PARTITION BY ct.lang
  ORDER BY round(ct.cnt * ln(n.n / CAST(gdf.g AS DOUBLE)), 4) DESC,
           ct.term ASC
) <= {k}
ORDER BY lang, ct.term
"""


def lang_token_fertility(sf_dir: str):
    """(lang, n_docs, n_tokens, n_chars, fertility): tokenizer
    FERTILITY by language — tokens emitted per input character, the
    standard tokenizer-quality metric a multilingual pipeline tracks
    before committing a vocab (a lang whose fertility spikes is being
    shredded). Two tiny passes of integer partials: token counts from
    the analyzed-tokens sidecar, char counts from the raw table's
    n_chars column; fertility is ONE division of identical integer
    sums on both sides — bit-identical, no rounding contract."""
    import pyarrow.parquet as _pq

    def tok_partial(batch: pa.Table) -> pa.Table:
        g = (
            pa.table({
                "lang": batch["lang"],
                "n_tokens": batch["n_tokens"],
            })
            .group_by("lang")
            .aggregate([("n_tokens", "sum"), ([], "count_all")])
        )
        return agg_select(g, {
            "lang": "lang", "n_tokens_sum": "n_tokens",
            "count_all": "n_docs",
        })

    toks = combine(
        _docs_tokens(sf_dir).map_batches(tok_partial, batch_format="pyarrow"),
        ["lang"], ["n_tokens", "n_docs"],
        pa.schema([("lang", pa.string()), ("n_tokens", pa.int64()),
                   ("n_docs", pa.int64())]),
    ).to_pandas()
    ch = (
        _pq.read_table(
            f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"]
        )
        .to_pandas()
        .groupby("lang", as_index=False)["n_chars"].sum()
    )
    out = toks.merge(ch, on="lang").sort_values("lang")
    return pa.table({
        "lang": pa.array(out["lang"].astype(str)),
        "n_docs": pa.array(out["n_docs"].to_numpy(np.int64)),
        "n_tokens": pa.array(out["n_tokens"].to_numpy(np.int64)),
        "n_chars": pa.array(out["n_chars"].to_numpy(np.int64)),
        "fertility": pa.array(
            out["n_tokens"].to_numpy(np.int64)
            / out["n_chars"].to_numpy(np.int64).astype(np.float64)
        ),
    })


def lang_token_fertility_sql() -> str:
    texpr = sql_token_expr("text")
    return f"""
SELECT lang,
       count(*)::BIGINT AS n_docs,
       sum(coalesce(len({texpr}), 0))::BIGINT AS n_tokens,
       sum(n_chars)::BIGINT AS n_chars,
       sum(coalesce(len({texpr}), 0))::DOUBLE / sum(n_chars)
         AS fertility
FROM documents
GROUP BY lang
ORDER BY lang
"""


SKIPGRAM_WINDOW = 4


def skipgram_counts(
    sf_dir: str, window: int = SKIPGRAM_WINDOW, min_count: int = 5
):
    """(t1, t2, n): DIRECTIONAL skip-gram co-occurrence frequencies —
    (t1 at position p, t2 at p+d) for 1 <= d <= ``window`` within a
    document, n >= min_count — the window statistic word2vec/GloVe
    train on (bigram_counts is the window=1 special case). Per batch:
    ``window`` vectorized shifted-slice compares (no per-token loop),
    an in-batch Arrow combiner, then ONE (t1, t2) exchange of
    partials."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        parents, flat = _exploded_of(batch)
        pn = parents.to_numpy(zero_copy_only=False)
        nt = len(flat)
        parts = []
        for d in range(1, window + 1):
            if nt <= d:
                break
            same = pa.array(pn[:-d] == pn[d:])
            parts.append(pa.table({
                "t1": flat.slice(0, nt - d).filter(same),
                "t2": flat.slice(d, nt - d).filter(same),
            }))
        if not parts:
            return pa.table({
                "t1": pa.array([], pa.large_string()),
                "t2": pa.array([], pa.large_string()),
                "n_partial": pa.array([], pa.int64()),
            })
        t = pa.concat_tables(parts)
        g = t.group_by(["t1", "t2"]).aggregate([("t1", "count")])
        return agg_select(
            g, {"t1": "t1", "t2": "t2", "t1_count": "n_partial"}
        )

    agg = (
        _docs_tokens(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["t1", "t2"])
        .aggregate(Sum("n_partial", alias_name="n"))
    )

    def threshold(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch["n"], min_count))

    return agg.map_batches(threshold, batch_format="pyarrow")


def skipgram_pmi(
    sf_dir: str, window: int = SKIPGRAM_WINDOW, min_count: int = 5
):
    """(t1, t2, n, pmi): PMI over the skip-gram window pairs —
    ln( (n/M) / ((c1/N)(c2/N)) ) with M = total within-window pairs —
    the distributional-association statistic behind embedding
    objectives (Levy & Goldberg 2014: SGNS factorizes shifted PMI).
    Same discipline as bigram_pmi: the survivor term set broadcasts,
    each batch counts ONLY those unigrams plus its (N, M) totals, one
    small exchange folds them."""
    import ray

    bi = skipgram_counts(sf_dir, window, min_count).to_pandas()
    if not len(bi):
        return pa.table({
            "t1": pa.array([], pa.string()),
            "t2": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
            "pmi": pa.array([], pa.float64()),
        })
    need = np.unique(np.concatenate(
        [bi["t1"].to_numpy().astype("O"), bi["t2"].to_numpy().astype("O")]
    ))
    nref = ray.put(pa.array(need.tolist(), pa.string()))

    def partial(batch: pa.Table) -> pa.Table:
        needed = ray.get(nref)
        parents, flat = _exploded_of(batch)
        pn = parents.to_numpy(zero_copy_only=False)
        nt = len(flat)
        m = sum(
            int((pn[:-d] == pn[d:]).sum())
            for d in range(1, window + 1) if nt > d
        )
        keep = pc.is_in(flat, value_set=needed.cast(flat.type))
        t = pa.table({"term": pc.filter(flat, keep)})
        g = t.group_by("term").aggregate([([], "count_all")])
        out = agg_select(g, {"term": "term", "count_all": "c_partial"})
        tot = pa.table({
            "term": pa.array(
                ["\x00N", "\x00M"], type=out.schema.field("term").type
            ),
            "c_partial": pa.array(
                [nt, m], out.schema.field("c_partial").type
            ),
        })
        return pa.concat_tables([out, tot])

    from ray.data.aggregate import Sum

    counts = (
        _docs_tokens(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("c_partial", alias_name="c"))
        .to_pandas()
    )
    cmap = dict(zip(counts["term"], counts["c"].astype(np.int64)))
    N = float(cmap.pop("\x00N", 0))
    M = float(cmap.pop("\x00M", 0))
    c1 = np.array([cmap[t] for t in bi["t1"]], dtype=np.float64)
    c2 = np.array([cmap[t] for t in bi["t2"]], dtype=np.float64)
    nn = bi["n"].to_numpy().astype(np.float64)
    pmi = np.round(np.log((nn / M) / ((c1 / N) * (c2 / N))), 6)
    order = np.lexsort((bi["t2"].to_numpy().astype("O"),
                        bi["t1"].to_numpy().astype("O")))
    return pa.table({
        "t1": pa.array(bi["t1"].to_numpy()[order], pa.string()),
        "t2": pa.array(bi["t2"].to_numpy()[order], pa.string()),
        "n": pa.array(bi["n"].to_numpy().astype(np.int64)[order]),
        "pmi": pa.array(pmi[order], pa.float64()),
    })


def skipgram_pmi_sql(
    window: int = SKIPGRAM_WINDOW, min_count: int = 5
) -> str:
    from sotohp_ray.functions.tokenizer import sql_token_expr

    texpr = sql_token_expr("text")
    return f"""
WITH toks AS (
  SELECT doc_id, unnest({texpr}) AS term,
         generate_subscripts({texpr}, 1) AS pos
  FROM documents
),
pairs AS (
  SELECT a.term AS t1, b.term AS t2
  FROM toks a JOIN toks b
    ON b.doc_id = a.doc_id
   AND b.pos BETWEEN a.pos + 1 AND a.pos + {window}
),
bi AS (
  SELECT t1, t2, count(*) AS n FROM pairs
  GROUP BY 1, 2 HAVING count(*) >= {min_count}
),
uni AS (SELECT term, count(*)::DOUBLE AS c FROM toks GROUP BY term),
tot AS (
  SELECT (SELECT count(*) FROM toks)::DOUBLE AS n_tok,
         (SELECT count(*) FROM pairs)::DOUBLE AS m
)
SELECT bi.t1, bi.t2, bi.n,
       round(ln((bi.n / t.m) / ((u1.c / t.n_tok) * (u2.c / t.n_tok))), 6)
         AS pmi
FROM bi
JOIN uni u1 ON u1.term = bi.t1
JOIN uni u2 ON u2.term = bi.t2
CROSS JOIN tot t
ORDER BY t1, t2
"""


ZIPF_TOP_R = 1000


def corpus_zipf_fit(sf_dir: str, top_r: int = ZIPF_TOP_R):
    """(n_terms, slope, intercept): least-squares fit of
    ln(frequency) ~ slope * ln(rank) + intercept over the top-``top_r``
    collection-frequency terms — the Zipf exponent (slope ~ -1 for
    natural language; deviations flag templated/boilerplate corpora,
    a corpus-health diagnostic next to doc_entropy). ONE vocab-sized
    count exchange (A1 partial+final, cardinality needs it), then the
    rank/log/moment math is top_r-sized on the driver; slope and
    intercept are single divisions of double moment sums, rounded to
    6dp (the summation-order contract: ~1e-12 relative error, six
    orders under the grid)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        return _term_count_rows(batch, "term", "c_partial", pa.string())

    cf = (
        _docs_tokens(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("c_partial", alias_name="c"))
        .to_pandas()
        .sort_values(["c", "term"], ascending=[False, True])
        .head(top_r)
    )
    n = len(cf)
    if n < 2:
        return pa.table({
            "n_terms": pa.array([n], pa.int64()),
            "slope": pa.array([None], pa.float64()),
            "intercept": pa.array([None], pa.float64()),
        })
    x = np.log(np.arange(1, n + 1, dtype=np.float64))
    y = np.log(cf["c"].to_numpy(np.float64))
    sx, sy = x.sum(), y.sum()
    sxx, sxy = (x * x).sum(), (x * y).sum()
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    return pa.table({
        "n_terms": pa.array([n], pa.int64()),
        "slope": pa.array([round(float(slope), 6)], pa.float64()),
        "intercept": pa.array(
            [round(float(intercept), 6)], pa.float64()),
    })


def corpus_zipf_fit_sql(top_r: int = ZIPF_TOP_R) -> str:
    from sotohp_ray.functions.tokenizer import sql_token_expr

    texpr = sql_token_expr("text")
    return f"""
WITH toks AS (SELECT unnest({texpr}) AS term FROM documents),
cf AS (SELECT term, count(*)::BIGINT AS c FROM toks GROUP BY 1),
ranked AS (
  SELECT ln(CAST(row_number() OVER (ORDER BY c DESC, term)
             AS DOUBLE)) AS x,
         ln(CAST(c AS DOUBLE)) AS y,
         row_number() OVER (ORDER BY c DESC, term) AS rn
  FROM cf),
top AS (SELECT x, y FROM ranked WHERE rn <= {top_r}),
m AS (SELECT count(*)::BIGINT AS n, sum(x) AS sx, sum(y) AS sy,
             sum(x * x) AS sxx, sum(x * y) AS sxy
      FROM top)
SELECT n AS n_terms,
       round((n * sxy - sx * sy) / (n * sxx - sx * sx), 6) AS slope,
       round((sy - ((n * sxy - sx * sy) / (n * sxx - sx * sx)) * sx)
             / n, 6) AS intercept
FROM m
"""
