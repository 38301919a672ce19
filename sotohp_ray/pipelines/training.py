"""Training-data preparation operators over the ``documents`` table:
mixture sampling to a token budget, PII redaction, fixed-window
chunking, and out-of-vocabulary scoring.

These are the corpus-shaping steps a 100 TB LLM-training pipeline runs
AFTER dedup/quality filtering (textops.py) and BEFORE tokenized-shard
export: decide how much of each language/domain to keep
(token_budget_mixture), scrub identifier-like spans (docs_pii_redacted),
split documents into model-context-sized windows (doc_chunks), and
measure vocabulary coverage (doc_oov_rate).

Reference analogs: the mixture sampler generalizes the reference's
random selection O5 (``mediaSelectRandom``, ApiApp.scala:804-814) from
"one uniform row" to "a deterministic weighted prefix per stratum";
redaction reuses the analyzer's RE2 discipline (M7); chunking is the
windowed cousin of the O7 sliding-window operators.

Every operator here is a streaming Ray Data pipeline with per-batch
vectorized kernels; the only driver-side state is output-sized or
bucket-sized (documented per operator).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from sotohp_ray import cache
from sotohp_ray.functions.tokenizer import sql_token_expr
from sotohp_ray.pipelines.textops import (
    _TOK, _docs, _docs_tokens, _text_col, _tokens_key, _toklists_of,
)

_MIX_MUL = 2654435761  # Knuth multiplicative hash (public constant)
_MIX_BUCKETS = 4096  # priority-hash buckets for the budget threshold

# per-lang token budget. Test-scale default sized BELOW every lang's
# sf0.001 total (4-11k tokens) so the cutoff logic engages in every
# stratum; production callers pass their real budget.
MIX_BUDGET_TOKENS = 2_000


# ------------------------------------------------- token_budget_mixture


def token_budget_mixture(sf_dir: str, budget: int = MIX_BUDGET_TOKENS):
    """(doc_id, lang, n_tokens): deterministic mixture sampling — per
    lang, documents are ordered by a multiplicative priority hash of
    doc_id (a reproducible shuffle) and kept while the running token
    total stays within ``budget``. The standard "sample each domain to
    a token budget" step when composing a training mixture.

    Scale shape (NO per-lang shuffle, NO global sort): the running-sum
    cutoff is found with a two-pass threshold scheme.

    1. One streaming pass aggregates token counts into
       (lang, priority-bucket) cells, where bucket = top 12 bits of the
       32-bit priority hash — a (n_langs x 4096)-sized table, tiny on
       the driver.
    2. Per lang, the bucket prefix-sum locates the CUTOFF bucket (the
       first whose running total exceeds the budget). Every doc in an
       earlier bucket is in; every doc in a later bucket is out (the
       running sum is monotone). Only the cutoff bucket — ~1/4096 of
       that lang's rows — is pulled to the driver, exactly
       cumsum-ordered by (hash, doc_id), and resolved to a keep-set.
    3. A second streaming pass keeps (bucket < cutoff) or (doc_id in
       the broadcast cutoff keep-set).

    Matches ``QUALIFY sum(n_tokens) OVER (PARTITION BY lang ORDER BY
    pr, doc_id) <= budget`` exactly, including zero-token rows at the
    boundary (the running sum is non-decreasing, so everything after
    the first overflow row is excluded).
    """
    import ray.data
    from ray.data.aggregate import Sum

    def tok_batch(batch: pa.Table) -> pa.Table:
        # token counts come straight off the analyzed-tokens sidecar —
        # this operator's three passes used to re-tokenize each time
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        pr = (ids * np.uint64(_MIX_MUL)) % np.uint64(1 << 32)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["lang"],
                "n_tokens": batch["n_tokens"],
                "pr": pa.array(pr, pa.uint64()),
                "bucket": pa.array(
                    (pr >> np.uint64(20)).astype(np.int64), pa.int64()
                ),
            }
        )

    def tokens_ds():
        return _docs_tokens(sf_dir).map_batches(
            tok_batch, batch_format="pyarrow"
        )

    # pass 1: (lang, bucket) token totals — the aggregate is over at
    # most n_langs * 4096 groups, after per-block partial aggregation
    cells = (
        tokens_ds()
        .select_columns(["lang", "bucket", "n_tokens"])
        .groupby(["lang", "bucket"])
        .aggregate(Sum("n_tokens", alias_name="tok"))
        .to_pandas()
    )

    cutoff_bucket: dict[str, int] = {}
    prefix_before: dict[str, int] = {}
    for lang, sub in cells.groupby("lang"):
        sub = sub.sort_values("bucket")
        run = sub["tok"].cumsum()
        over = run > budget
        if not over.any():
            cutoff_bucket[lang] = _MIX_BUCKETS  # everything fits
            prefix_before[lang] = int(run.iloc[-1]) if len(run) else 0
            continue
        i = int(np.argmax(over.to_numpy()))
        cutoff_bucket[lang] = int(sub["bucket"].iloc[i])
        prefix_before[lang] = int(run.iloc[i - 1]) if i else 0

    # resolve the cutoff buckets exactly: pull ONLY those rows
    # (~1/4096 of each lang) and replay the QUALIFY cumsum
    cb_arr = {k: v for k, v in cutoff_bucket.items() if v < _MIX_BUCKETS}
    keep_ids: list[int] = []
    if cb_arr:
        langs = list(cb_arr)
        buckets = np.asarray([cb_arr[g] for g in langs], dtype=np.int64)

        def in_cutoff(batch: pa.Table) -> pa.Table:
            lg = batch["lang"].to_numpy(zero_copy_only=False)
            bk = batch["bucket"].to_numpy(zero_copy_only=False)
            m = np.zeros(len(bk), dtype=bool)
            for g, b in zip(langs, buckets):
                m |= (lg == g) & (bk == b)
            return batch.filter(pa.array(m))

        edge = tokens_ds().map_batches(
            in_cutoff, batch_format="pyarrow"
        ).to_pandas()
        for g in langs:
            sub = edge[edge["lang"] == g].sort_values(["pr", "doc_id"])
            rem = budget - prefix_before[g]
            ok = sub["n_tokens"].cumsum() <= rem
            keep_ids.extend(sub["doc_id"][ok].tolist())
    keep = np.sort(np.asarray(keep_ids, dtype=np.int64))

    def final(batch: pa.Table) -> pa.Table:
        lg = batch["lang"].to_numpy(zero_copy_only=False)
        bk = batch["bucket"].to_numpy(zero_copy_only=False)
        m = np.zeros(len(bk), dtype=bool)
        for g in set(lg):
            m |= (lg == g) & (bk < cutoff_bucket.get(g, _MIX_BUCKETS))
        if keep.size:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(keep, ids)
            pos[pos == keep.size] = 0
            m |= keep[np.clip(pos, 0, keep.size - 1)] == ids
        return batch.select(["doc_id", "lang", "n_tokens"]).filter(
            pa.array(m)
        )

    return tokens_ds().map_batches(final, batch_format="pyarrow")


def token_budget_mixture_sql(budget: int = MIX_BUDGET_TOKENS) -> str:
    texpr = sql_token_expr("text")
    return f"""
        WITH tk AS (
          SELECT doc_id, lang,
                 CAST(coalesce(len({texpr}), 0) AS BIGINT) AS n_tokens,
                 (doc_id::HUGEINT * {_MIX_MUL}) % 4294967296 AS pr
          FROM documents)
        SELECT doc_id, lang, n_tokens FROM tk
        QUALIFY sum(n_tokens) OVER (
          PARTITION BY lang ORDER BY pr, doc_id
          ROWS UNBOUNDED PRECEDING) <= {budget}
    """


# --------------------------------------------------- docs_pii_redacted

# RE2 patterns (pyarrow and DuckDB both run RE2, so the semantics are
# bit-identical on both sides of the oracle). Order matters and is
# fixed: emails first (their local parts may contain digit runs), then
# IPv4, then bare long digit runs (9+, i.e. id-/phone-like; an IPv4
# octet is at most 3 digits so the classes never overlap).
PII_RULES: tuple[tuple[str, str], ...] = (
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    (r"\d{9,}", "<NUM>"),
)


def docs_pii_redacted(sf_dir: str):
    """(doc_id, text_redacted, n_redactions): PII scrubbing — emails,
    IPv4 addresses and long digit runs replaced by typed sentinels, with
    a per-doc redaction count. One vectorized RE2 pass per rule per
    batch (pc.count_substring_regex + pc.replace_substring_regex); no
    per-row Python."""

    def f(batch: pa.Table) -> pa.Table:
        text = _text_col(batch)
        total = np.zeros(batch.num_rows, dtype=np.int64)
        for pat, repl in PII_RULES:
            cnt = pc.count_substring_regex(text, pat)
            total += cnt.to_numpy(zero_copy_only=False).astype(np.int64)
            text = pc.replace_substring_regex(text, pat, repl)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "text_redacted": text.cast(pa.string()),
                "n_redactions": pa.array(total, pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


def docs_pii_redacted_sql() -> str:
    expr = "text"
    counts = []
    for pat, repl in PII_RULES:
        # DuckDB single-quoted strings are RAW (no backslash escapes):
        # only quote-double; the regex text passes through verbatim
        pat_sql = pat.replace("'", "''")
        counts.append(
            f"len(regexp_extract_all({expr}, '{pat_sql}'))"
        )
        expr = f"regexp_replace({expr}, '{pat_sql}', '{repl}', 'g')"
    n_red = " + ".join(counts)
    return f"""
        SELECT doc_id,
               {expr} AS text_redacted,
               CAST({n_red} AS BIGINT) AS n_redactions
        FROM documents
    """


# ---------------------------------------------------------- doc_chunks

# window defaults sized so the sf corpora (~40-60 tokens/doc) emit
# MULTI-chunk documents and exercise the overlap arithmetic;
# production callers pass their model's real context size.
CHUNK_TOKENS = 32
CHUNK_OVERLAP = 8


def doc_chunks(
    sf_dir: str,
    chunk: int = CHUNK_TOKENS,
    overlap: int = CHUNK_OVERLAP,
):
    """(doc_id, chunk_id, chunk_tokens, first_tok, last_tok): fixed
    token-window chunking with overlap — the context-window packing
    step before tokenized-shard export. Window starts step by
    ``chunk - overlap``; a document emits
    ``1 + max(0, ceil((n - chunk) / stride))`` chunks (zero-token docs
    emit none), so no chunk is a pure suffix of its predecessor.

    Emits chunk METADATA (sizes + boundary tokens), not the token
    text — the metadata pins the exact window arithmetic against the
    SQL oracle while keeping the output narrow; a shard exporter would
    slice the same offsets. Fully vectorized: one tokenize + flatten
    per batch, boundary tokens gathered by flat offset arithmetic."""
    if chunk <= overlap:
        raise ValueError("chunk must exceed overlap")
    stride = chunk - overlap

    def f(batch: pa.Table) -> pa.Table:
        lists = _toklists_of(batch)
        n = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        n = n.astype(np.int64)
        flat = pc.list_flatten(lists)
        # flat start offset of each doc's token run
        doc_off = np.zeros(len(n), dtype=np.int64)
        np.cumsum(n[:-1], out=doc_off[1:])

        n_chunks = np.where(
            n > 0, 1 + np.maximum(0, -(-(n - chunk) // stride)), 0
        )
        total = int(n_chunks.sum())
        if not total:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "chunk_id": pa.array([], pa.int64()),
                    "chunk_tokens": pa.array([], pa.int64()),
                    "first_tok": pa.array([], pa.string()),
                    "last_tok": pa.array([], pa.string()),
                }
            )
        rows = np.flatnonzero(n_chunks)
        rep = n_chunks[rows]
        doc_sel = np.repeat(rows, rep)
        starts_of = np.zeros(rows.size, dtype=np.int64)
        np.cumsum(rep[:-1], out=starts_of[1:])
        chunk_id = np.arange(total, dtype=np.int64) - np.repeat(
            starts_of, rep
        )
        s = chunk_id * stride
        nn = n[doc_sel]
        size = np.minimum(nn - s, chunk)
        first_idx = doc_off[doc_sel] + s
        last_idx = doc_off[doc_sel] + np.minimum(s + chunk, nn) - 1
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)[doc_sel]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "chunk_id": pa.array(chunk_id, pa.int64()),
                "chunk_tokens": pa.array(size, pa.int64()),
                "first_tok": flat.take(pa.array(first_idx)).cast(
                    pa.string()
                ),
                "last_tok": flat.take(pa.array(last_idx)).cast(
                    pa.string()
                ),
            }
        )

    return _docs_tokens(sf_dir).map_batches(
        f, batch_format="pyarrow"
    )


def doc_chunks_sql(
    chunk: int = CHUNK_TOKENS, overlap: int = CHUNK_OVERLAP
) -> str:
    stride = chunk - overlap
    texpr = sql_token_expr("text")
    return f"""
        WITH t AS (
          SELECT doc_id, {texpr} AS toks,
                 CAST(coalesce(len({texpr}), 0) AS BIGINT) AS n
          FROM documents),
        c AS (
          SELECT doc_id, toks, n,
                 1 + greatest(0::BIGINT,
                   CAST(ceil((n - {chunk}) / {stride}.0) AS BIGINT))
                   AS n_chunks
          FROM t WHERE n > 0)
        SELECT doc_id,
          unnest(generate_series(0, n_chunks - 1)) AS chunk_id,
          unnest(list_transform(generate_series(0, n_chunks - 1),
            g -> least(n - g * {stride}, {chunk}))) AS chunk_tokens,
          unnest(list_transform(generate_series(0, n_chunks - 1),
            g -> toks[g * {stride} + 1])) AS first_tok,
          unnest(list_transform(generate_series(0, n_chunks - 1),
            g -> toks[least(g * {stride} + {chunk}, n)])) AS last_tok
        FROM c
    """


# -------------------------------------------------------- doc_oov_rate

OOV_VOCAB_SIZE = 1000


def doc_oov_rate(sf_dir: str, vocab_size: int = OOV_VOCAB_SIZE):
    """(doc_id, n_tokens, n_oov, oov_rate): per-document
    out-of-vocabulary rate against the corpus top-``vocab_size``
    vocabulary by collection frequency (ties broken by term, so the
    vocabulary is deterministic). Vocabulary coverage is the standard
    gate before committing to a tokenizer/vocab for training.

    Two streaming passes: (1) the A1 partial+final term-count aggregate
    keeps only the top-V rows (output-sized driver state); (2) the
    vocabulary is broadcast and each batch scores membership with ONE
    vectorized ``pc.is_in`` over its flattened tokens."""
    import ray.data
    from ray.data.aggregate import Sum

    def counts(batch: pa.Table) -> pa.Table:
        lists = _toklists_of(batch)
        flat = pc.list_flatten(lists)
        vc = flat.value_counts()
        return pa.table(
            {
                "term": vc.field("values").cast(pa.string()),
                "cnt": vc.field("counts").cast(pa.int64()),
            }
        )

    top = (
        _docs_tokens(sf_dir)
        .map_batches(counts, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("cnt", alias_name="cf"))
        .to_pandas()
        .sort_values(["cf", "term"], ascending=[False, True])
        .head(vocab_size)
    )
    vocab = pa.array(top["term"].tolist(), pa.large_string())

    def score(batch: pa.Table) -> pa.Table:
        lists = _toklists_of(batch)
        n = pc.list_value_length(lists).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        flat = pc.list_flatten(lists)
        parents = pc.list_parent_indices(lists).to_numpy(
            zero_copy_only=False
        )
        inv = pc.is_in(flat, value_set=vocab).to_numpy(
            zero_copy_only=False
        )
        n_oov = np.zeros(batch.num_rows, dtype=np.int64)
        if parents.size:
            n_oov = np.bincount(
                parents, weights=~inv, minlength=batch.num_rows
            ).astype(np.int64)
        rate = np.divide(
            n_oov, n, out=np.zeros(len(n), dtype=np.float64), where=n > 0
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n, pa.int64()),
                "n_oov": pa.array(n_oov, pa.int64()),
                "oov_rate": pa.array(np.round(rate, 6), pa.float64()),
            }
        )

    return _docs_tokens(sf_dir).map_batches(
        score, batch_format="pyarrow"
    )


# ------------------------------------------------------ training_shards

SHARD_COUNT = 16


def training_shards(sf_dir: str, n_shards: int = SHARD_COUNT):
    """(doc_id, shard_id, pos): reproducible global shuffle + shard
    assignment for training-shard export — priority = the same 32-bit
    multiplicative doc_id hash the mixture sampler uses, shard =
    pr % n_shards, pos = rank within the shard by (pr, doc_id).
    Decorrelates source-adjacent documents with ZERO random state:
    byte-identical output on every run and cluster size (a
    random_shuffle would not be reproducible across executions).

    Scale shape: one stateless map pass assigns (pr, shard); ranks are
    computed WITHIN each shard (shard-sized sort tasks, no global
    sort). Production exports size n_shards so one shard fits a task —
    thousands of shards at 100 TB — the same per-shard discipline as
    export_cleaned_corpus."""
    import pandas as pd

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(
            zero_copy_only=False
        ).astype(np.uint64)
        pr = (ids * np.uint64(_MIX_MUL)) % np.uint64(1 << 32)
        return pa.table({
            "doc_id": batch["doc_id"],
            "shard_id": pa.array(
                (pr % np.uint64(n_shards)).astype(np.int64), pa.int64()
            ),
            "pr": pa.array(pr.astype(np.int64), pa.int64()),
        })

    def rank(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["pr", "doc_id"]).reset_index(drop=True)
        df["pos"] = np.arange(len(df), dtype=np.int64)
        return df[["doc_id", "shard_id", "pos"]]

    return (
        _docs(sf_dir, ["doc_id"])
        .map_batches(assign, batch_format="pyarrow")
        .groupby("shard_id")
        .map_groups(rank, batch_format="pandas")
    )


def training_shards_sql(n_shards: int = SHARD_COUNT) -> str:
    return f"""
        WITH tk AS (
          SELECT doc_id,
                 (doc_id::HUGEINT * {_MIX_MUL}) % 4294967296 AS pr
          FROM documents)
        SELECT doc_id,
               (pr % {n_shards})::BIGINT AS shard_id,
               (row_number() OVER (
                  PARTITION BY pr % {n_shards} ORDER BY pr, doc_id
                ) - 1)::BIGINT AS pos
        FROM tk
    """


# --------------------------------------------------------- doc_packing

PACK_SEQ_TOKENS = 256


def doc_packing(
    sf_dir: str, seq_tokens: int = PACK_SEQ_TOKENS,
    n_shards: int = SHARD_COUNT,
):
    """(doc_id, shard_id, seq_id, n_tokens, offset): greedy NEXT-FIT
    packing of whole documents into fixed-capacity training sequences
    (the "sequence packing" step that turns a cleaned corpus into
    dense model inputs; docs are never split — an oversized doc gets
    its own overflowing sequence, the standard don't-truncate rule).
    Packing order is the deterministic shard shuffle (training_shards'
    (pr, doc_id) order within hash shards), so output is reproducible
    and shards pack INDEPENDENTLY — the parallel unit at 100 TB is the
    shard, exactly like the shard ranking.

    The per-shard fold is not a per-doc Python loop: with prefix sums
    P over the shard's ordered token counts, each sequence's span is
    one ``searchsorted(P, base + capacity)`` — the loop runs once per
    OUTPUT sequence, not per doc."""
    import pandas as pd

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(
            zero_copy_only=False
        ).astype(np.uint64)
        pr = (ids * np.uint64(_MIX_MUL)) % np.uint64(1 << 32)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_tokens": batch["n_tokens"],
            "shard_id": pa.array(
                (pr % np.uint64(n_shards)).astype(np.int64), pa.int64()
            ),
            "pr": pa.array(pr.astype(np.int64), pa.int64()),
        })

    def pack(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["pr", "doc_id"]).reset_index(drop=True)
        sizes = df["n_tokens"].to_numpy(np.int64)
        csum = np.cumsum(sizes)
        n = len(df)
        seq = np.zeros(n, dtype=np.int64)
        start, base, k = 0, 0, 0
        while start < n:
            j = int(np.searchsorted(csum, base + seq_tokens, side="right"))
            if j == start:  # oversized doc: its own sequence
                j = start + 1
            seq[start:j] = k
            base = csum[j - 1]
            start, k = j, k + 1
        # offset of each doc inside its sequence
        seq_base = np.concatenate(([0], csum))[
            np.searchsorted(seq, seq, side="left")
        ]
        out = pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(np.int64),
            "shard_id": df["shard_id"].to_numpy(np.int64),
            "seq_id": seq,
            "n_tokens": sizes,
            "offset": csum - sizes - seq_base,
        })
        return out

    return (
        _docs_tokens(sf_dir)
        .map_batches(assign, batch_format="pyarrow")
        .groupby("shard_id")
        .map_groups(pack, batch_format="pandas")
    )


def doc_packing_sql(
    seq_tokens: int = PACK_SEQ_TOKENS, n_shards: int = SHARD_COUNT
) -> str:
    """Next-fit is a sequential fold, expressed as a recursive CTE
    that advances every shard one document per iteration (the
    recursive term sees only the previous iteration's rows, so each
    step joins the frontier row of each shard to its successor) —
    depth = max docs per shard."""
    texpr = sql_token_expr("text")
    return f"""
        WITH RECURSIVE tk AS (
          SELECT doc_id,
                 CAST(coalesce(len({texpr}), 0) AS BIGINT) AS n_tokens,
                 ((doc_id::HUGEINT * {_MIX_MUL}) % 4294967296)
                   % {n_shards} AS shard_id,
                 row_number() OVER (
                   PARTITION BY ((doc_id::HUGEINT * {_MIX_MUL})
                                 % 4294967296) % {n_shards}
                   ORDER BY (doc_id::HUGEINT * {_MIX_MUL}) % 4294967296,
                            doc_id
                 ) AS rn
          FROM documents),
        walk(shard_id, rn, doc_id, n_tokens, seq_id, fill) AS (
          SELECT shard_id, rn, doc_id, n_tokens, 0::BIGINT, n_tokens
          FROM tk WHERE rn = 1
          UNION ALL
          SELECT t.shard_id, t.rn, t.doc_id, t.n_tokens,
                 CASE WHEN w.fill + t.n_tokens <= {seq_tokens}
                      THEN w.seq_id ELSE w.seq_id + 1 END,
                 CASE WHEN w.fill + t.n_tokens <= {seq_tokens}
                      THEN w.fill + t.n_tokens ELSE t.n_tokens END
          FROM walk w JOIN tk t
            ON t.shard_id = w.shard_id AND t.rn = w.rn + 1)
        SELECT doc_id, shard_id::BIGINT AS shard_id, seq_id, n_tokens,
               (sum(n_tokens) OVER (
                  PARTITION BY shard_id, seq_id ORDER BY rn
                ) - n_tokens)::BIGINT AS offset
        FROM walk
    """


# ------------------------------------------------- training_curriculum

CURRICULUM_STAGES = 4


def training_curriculum(
    sf_dir: str, n_stages: int = CURRICULUM_STAGES,
    vocab_size: int = 512,
):
    """(doc_id, ce_q, stage): curriculum staging — documents bucketed
    into ``n_stages`` quantile bands of their bigram-LM cross-entropy
    (doc_lm_score), lowest-CE (most fluent/typical) band = stage 0.
    The standard easy-to-hard ordering signal for curriculum training
    schedules, composed entirely from oracle-gated pieces.

    Exactness without a distributed sort: cross-entropy is QUANTIZED
    to 2 decimals (both sides — bounded-cardinality histogram), the
    stage cutoffs are exact percentile_disc values over that histogram
    (the doc_length_quantiles rank arithmetic, ceil(f*N) in the same
    IEEE doubles), and stage = count of cutoffs strictly below the
    doc's quantized score (searchsorted left == the SQL COUNT — ties
    land identically). The slim (doc_id, ce_q) projection is
    materialized ONCE as the branch point for the histogram pass and
    the staging pass (16 B/doc — re-running the 3-pass LM scoring
    twice would cost more than holding the projection)."""
    from ray.data.aggregate import Sum

    scores = doc_lm_score(sf_dir, vocab_size)

    def quant(batch: pa.Table) -> pa.Table:
        q = np.round(
            batch["cross_entropy"].to_numpy(zero_copy_only=False), 2
        )
        return pa.table({
            "doc_id": batch["doc_id"],
            "ce_q": pa.array(q, pa.float64()),
        })

    qd = scores.map_batches(quant, batch_format="pyarrow").materialize()

    def hpartial(batch: pa.Table) -> pa.Table:
        g = (
            pa.table({"ce_q": batch["ce_q"]})
            .group_by("ce_q").aggregate([([], "count_all")])
        )
        from sotohp_ray.utils import agg_select

        return agg_select(g, {"ce_q": "ce_q", "count_all": "n_partial"})

    hist = (
        qd.map_batches(hpartial, batch_format="pyarrow")
        .groupby("ce_q")
        .aggregate(Sum("n_partial", alias_name="n"))
        .to_pandas()
        .sort_values("ce_q")
        .reset_index(drop=True)
    )
    vals = hist["ce_q"].to_numpy()
    cum = hist["n"].to_numpy().astype(np.int64).cumsum()
    total = int(cum[-1]) if len(cum) else 0
    cuts = []
    for i in range(1, n_stages):
        if not total:
            break
        rank = max(int(np.ceil(np.float64(i / n_stages) * total)), 1)
        cuts.append(float(vals[int(np.searchsorted(cum, rank))]))
    cuts_arr = np.asarray(sorted(cuts), dtype=np.float64)

    def stage(batch: pa.Table) -> pa.Table:
        q = batch["ce_q"].to_numpy(zero_copy_only=False)
        st = np.searchsorted(cuts_arr, q, side="left").astype(np.int64)
        return pa.table({
            "doc_id": batch["doc_id"],
            "ce_q": batch["ce_q"],
            "stage": pa.array(st, pa.int64()),
        })

    return qd.map_batches(stage, batch_format="pyarrow")


def training_curriculum_sql(
    n_stages: int = CURRICULUM_STAGES, vocab_size: int = 512
) -> str:
    texpr = sql_token_expr("text")
    fracs = ", ".join(
        f"({i / n_stages!r}::DOUBLE)" for i in range(1, n_stages)
    )
    return f"""
        WITH toks AS (
          SELECT doc_id, unnest({texpr}) AS term,
                 generate_subscripts({texpr}, 1) AS pos
          FROM documents),
        vocab AS (
          SELECT term FROM toks GROUP BY term
          ORDER BY count(*) DESC, term LIMIT {vocab_size}),
        nv AS (SELECT count(*)::DOUBLE AS v FROM vocab),
        m AS (
          SELECT t.doc_id, t.pos,
                 CASE WHEN v.term IS NULL THEN chr(0) ELSE t.term END
                   AS term
          FROM toks t LEFT JOIN vocab v USING (term)),
        bg AS (
          SELECT a.doc_id, a.term AS w1, b.term AS w2
          FROM m a JOIN m b
            ON b.doc_id = a.doc_id AND b.pos = a.pos + 1),
        bc AS (SELECT w1, w2, count(*)::DOUBLE AS c FROM bg GROUP BY 1, 2),
        uc AS (SELECT w1, sum(c) AS u FROM bc GROUP BY 1),
        ce AS (
          SELECT g.doc_id,
                 round(round(-avg(ln((bc.c + 1.0) / (uc.u + nv.v + 1.0))),
                             6), 2) AS ce_q
          FROM bg g
          JOIN bc ON bc.w1 = g.w1 AND bc.w2 = g.w2
          JOIN uc ON uc.w1 = g.w1
          CROSS JOIN nv
          GROUP BY g.doc_id, nv.v),
        o AS (
          SELECT ce_q, row_number() OVER (ORDER BY ce_q) AS rn,
                 count(*) OVER () AS n
          FROM ce),
        cuts AS (
          SELECT f.f, min(o.ce_q) AS cut
          FROM (VALUES {fracs}) f(f)
          JOIN o ON o.rn >= greatest(ceil(f.f * o.n), 1)
          GROUP BY 1)
        SELECT c.doc_id, c.ce_q,
               (SELECT count(*) FROM cuts k WHERE k.cut < c.ce_q)
                 ::BIGINT AS stage
        FROM ce c
    """


# -------------------------------------------------------- doc_lm_score

LM_VOCAB_SIZE = 512


_LM_MEMO: dict = {}


def _lm_model(sf_dir: str, vocab_size: int):
    """(v, vocab_terms, bigram_counts, start_counts) of the add-one
    bigram LM — trained ONCE per (corpus, tokenizer-config,
    vocab_size) and served from an in-process memo plus a durable
    .npz published by ``cache.artifact``: doc_lm_score,
    training_curriculum and any future LM consumer share the two
    training passes instead of each re-running them."""
    import os

    import ray
    from ray.data.aggregate import Sum

    _, src, tok_params = _tokens_key(sf_dir)
    params = (*tok_params, vocab_size)
    key = f"{os.path.basename(cache.path('lm', src, params))}-v{vocab_size}"
    if key in _LM_MEMO:
        return _LM_MEMO[key]

    def build(staging: str) -> None:
        from sotohp_ray.pipelines.textops import _term_count_rows

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
        v = len(top)  # actual vocabulary size (may be < vocab_size)
        terms = [str(t) for t in top["term"].tolist()]
        vref = ray.put(pa.array(terms, pa.large_string()))

        def bpartial(batch: pa.Table) -> pa.Table:
            lists = _toklists_of(batch)
            flat = pc.list_flatten(lists)
            parents = pc.list_parent_indices(lists).to_numpy(
                zero_copy_only=False
            )
            ids = pc.fill_null(
                pc.index_in(flat, value_set=ray.get(vref)), v
            ).to_numpy(zero_copy_only=False).astype(np.int64)
            if ids.size < 2:
                return pa.table({
                    "key": pa.array([], pa.int64()),
                    "n_partial": pa.array([], pa.int64()),
                })
            same = parents[:-1] == parents[1:]
            keys = ids[:-1][same] * (v + 1) + ids[1:][same]
            uk, cnt = np.unique(keys, return_counts=True)
            return pa.table({
                "key": pa.array(uk, pa.int64()),
                "n_partial": pa.array(cnt, pa.int64()),
            })

        model = (
            _docs_tokens(sf_dir)
            .map_batches(bpartial, batch_format="pyarrow")
            .groupby("key")
            .aggregate(Sum("n_partial", alias_name="n"))
            .to_pandas()
        )
        bc = np.zeros((v + 1) * (v + 1), dtype=np.float64)
        if len(model):
            bc[model["key"].to_numpy()] = model["n"].to_numpy()
        uc = bc.reshape(v + 1, v + 1).sum(axis=1)
        np.savez(os.path.join(staging, "model.npz"), v=np.int64(v),
                 terms=np.array(terms, dtype=np.str_), bc=bc, uc=uc)

    z = np.load(os.path.join(cache.artifact("lm", src, params, build),
                             "model.npz"), allow_pickle=False)
    out = (int(z["v"]), [str(t) for t in z["terms"]], z["bc"], z["uc"])
    _LM_MEMO[key] = out
    return out


def doc_lm_score(sf_dir: str, vocab_size: int = LM_VOCAB_SIZE):
    """(doc_id, n_bigrams, cross_entropy): per-document cross-entropy
    under an add-one-smoothed bigram language model trained on the
    corpus itself — the CCNet/Wenzek-style "perplexity under a
    reference LM" quality signal (low = fluent/typical, high =
    boilerplate, noise, or wrong-register text), computable without
    external model weights. Tokens outside the top-``vocab_size``
    vocabulary (by collection frequency, term-asc ties) map to an
    ``<unk>`` id, so the model is bounded by (V+1)^2 REGARDLESS of
    corpus size. P(w2|w1) = (c(w1,w2)+1) / (c(w1·)+V+1) with c(w1·)
    the bigram-start count (sum over w2 of c(w1,w2)), which makes the
    distribution proper per w1 row.

    Three streaming passes, zero wide shuffles beyond tiny aggregates:
    (1) top-V vocabulary via the A1 partial+final count (doc_oov_rate's
    pass); (2) bigram counts as int64 keys id1*(V+1)+id2 — per-batch
    ``np.unique`` combiner then one (<= (V+1)^2)-row groupby; (3) the
    dense (V+1)^2 count array (2 MB at V=512; a sparse/hash layout is
    the large-V variant) broadcast via ray.put, each batch scores its
    adjacent same-doc pairs with two gathers + one log + one bincount.
    Docs with < 2 tokens have no bigrams and are excluded (same rows
    the oracle's bigram join drops)."""
    import ray

    v, terms, bc, uc = _lm_model(sf_dir, vocab_size)
    vref = ray.put(pa.array(terms, pa.large_string()))

    def _adj_ids(batch: pa.Table):
        """(parents, ids): per-token doc row index and vocab id
        (v = <unk>) for the batch's flattened analyzed tokens."""
        lists = _toklists_of(batch)
        flat = pc.list_flatten(lists)
        parents = pc.list_parent_indices(lists).to_numpy(
            zero_copy_only=False
        )
        ids = pc.fill_null(
            pc.index_in(flat, value_set=ray.get(vref)), v
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        return parents, ids

    bref, uref = ray.put(bc), ray.put(uc)

    def score(batch: pa.Table) -> pa.Table:
        b, u = ray.get(bref), ray.get(uref)
        parents, ids = _adj_ids(batch)
        nb = np.zeros(batch.num_rows, dtype=np.int64)
        s = np.zeros(batch.num_rows, dtype=np.float64)
        if ids.size >= 2:
            same = parents[:-1] == parents[1:]
            w1 = ids[:-1][same]
            keys = w1 * (v + 1) + ids[1:][same]
            par = parents[:-1][same]
            ll = np.log((b[keys] + 1.0) / (u[w1] + v + 1.0))
            nb = np.bincount(par, minlength=batch.num_rows)
            s = np.bincount(par, weights=ll, minlength=batch.num_rows)
        keep = nb > 0
        return pa.table({
            "doc_id": pa.array(
                batch["doc_id"].to_numpy(zero_copy_only=False)[keep],
                pa.int64(),
            ),
            "n_bigrams": pa.array(nb[keep], pa.int64()),
            "cross_entropy": pa.array(
                np.round(-(s[keep] / nb[keep]), 6), pa.float64()
            ),
        })

    return _docs_tokens(sf_dir).map_batches(
        score, batch_format="pyarrow"
    )


def doc_lm_score_sql(vocab_size: int = LM_VOCAB_SIZE) -> str:
    texpr = sql_token_expr("text")
    return f"""
        WITH toks AS (
          SELECT doc_id, unnest({texpr}) AS term,
                 generate_subscripts({texpr}, 1) AS pos
          FROM documents),
        vocab AS (
          SELECT term FROM toks GROUP BY term
          ORDER BY count(*) DESC, term LIMIT {vocab_size}),
        nv AS (SELECT count(*)::DOUBLE AS v FROM vocab),
        m AS (
          SELECT t.doc_id, t.pos,
                 CASE WHEN v.term IS NULL THEN chr(0) ELSE t.term END
                   AS term
          FROM toks t LEFT JOIN vocab v USING (term)),
        bg AS (
          SELECT a.doc_id, a.term AS w1, b.term AS w2
          FROM m a JOIN m b
            ON b.doc_id = a.doc_id AND b.pos = a.pos + 1),
        bc AS (SELECT w1, w2, count(*)::DOUBLE AS c FROM bg GROUP BY 1, 2),
        uc AS (SELECT w1, sum(c) AS u FROM bc GROUP BY 1)
        SELECT g.doc_id, count(*) AS n_bigrams,
               round(-avg(ln((bc.c + 1.0) / (uc.u + nv.v + 1.0))), 6)
                 AS cross_entropy
        FROM bg g
        JOIN bc ON bc.w1 = g.w1 AND bc.w2 = g.w2
        JOIN uc ON uc.w1 = g.w1
        CROSS JOIN nv
        GROUP BY g.doc_id, nv.v
    """


def doc_oov_rate_sql(vocab_size: int = OOV_VOCAB_SIZE) -> str:
    texpr = sql_token_expr("text")
    return f"""
        WITH toks AS (
          SELECT doc_id, unnest({texpr}) AS term FROM documents),
        vocab AS (
          SELECT term FROM toks GROUP BY term
          ORDER BY count(*) DESC, term LIMIT {vocab_size}),
        per_doc AS (
          SELECT t.doc_id,
                 count(*) AS n_tokens,
                 count(*) FILTER (WHERE v.term IS NULL) AS n_oov
          FROM toks t LEFT JOIN vocab v USING (term)
          GROUP BY t.doc_id)
        SELECT d.doc_id,
               CAST(coalesce(p.n_tokens, 0) AS BIGINT) AS n_tokens,
               CAST(coalesce(p.n_oov, 0) AS BIGINT) AS n_oov,
               round(coalesce(p.n_oov / p.n_tokens::DOUBLE, 0.0), 6)
                 AS oov_rate
        FROM documents d LEFT JOIN per_doc p USING (doc_id)
    """


DSIR_TARGET_LANG = "en"


def dsir_weights(
    sf_dir: str,
    target_lang: str = DSIR_TARGET_LANG,
    vocab_size: int = LM_VOCAB_SIZE,
):
    """(doc_id, n_tokens, log_ratio): DSIR importance weights (Xie et
    al. 2023, 'Data Selection for Language Models via Importance
    Resampling') — per doc, the sum over token instances of
    ln p_target(w) - ln p_raw(w) under two add-one-smoothed unigram
    bag-of-words models sharing the corpus top-``vocab_size``
    vocabulary (+ <unk>): target = the docs labeled ``target_lang``
    (the in-repo stand-in for a target-domain sample), raw = the
    whole corpus. High weight = target-like; DSIR's selection step is
    then a weighted sample by these weights. Every doc is emitted
    (0 / 0.0 for token-less docs). Round-6 float aggregate (the
    nb_lang_scores precedent), so the SQL oracle hash is exact.

    Three streaming passes, zero wide shuffles beyond tiny
    aggregates: (1) top-V vocabulary (A1 partial+final); (2) ONE pass
    emitting per-batch (vocab_id -> raw_count, target_count) partials
    — two bincounts — merged by a (V+1)-row groupby; (3) the dense
    log-ratio vector ((V+1) float64s) broadcast via ray.put, each
    batch scores itself with one gather + one bincount."""
    import ray
    from ray.data.aggregate import Sum

    from sotohp_ray.pipelines.textops import _exploded_of

    # ---- pass 1: top-V vocabulary by collection frequency ----
    def counts(batch: pa.Table) -> pa.Table:
        _p, flat = _exploded_of(batch)
        vc = flat.value_counts()
        return pa.table({
            "term": vc.field("values").cast(pa.string()),
            "cnt": vc.field("counts").cast(pa.int64()),
        })

    top = (
        _docs_tokens(sf_dir)
        .map_batches(counts, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("cnt", alias_name="cf"))
        .to_pandas()
        .sort_values(["cf", "term"], ascending=[False, True])
        .head(vocab_size)
    )
    v = len(top)
    vref = ray.put(pa.array(top["term"].tolist(), pa.large_string()))

    def _ids_of(batch: pa.Table):
        parents, flat = _exploded_of(batch)
        ids = pc.fill_null(
            pc.index_in(flat, value_set=ray.get(vref)), v
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        return parents.to_numpy(zero_copy_only=False), ids

    # ---- pass 2: raw + target unigram counts in one pass ----
    def upartial(batch: pa.Table) -> pa.Table:
        parents, ids = _ids_of(batch)
        lg = batch["lang"].to_numpy(zero_copy_only=False).astype("O")
        c_raw = np.bincount(ids, minlength=v + 1).astype(np.int64)
        tgt = lg[parents] == target_lang
        c_tgt = np.bincount(
            ids[tgt], minlength=v + 1
        ).astype(np.int64)
        nz = np.flatnonzero(c_raw)
        return pa.table({
            "vid": pa.array(nz.astype(np.int64)),
            "c_raw": pa.array(c_raw[nz]),
            "c_tgt": pa.array(c_tgt[nz]),
        })

    model = (
        _docs_tokens(sf_dir)
        .map_batches(upartial, batch_format="pyarrow")
        .groupby("vid")
        .aggregate(
            Sum("c_raw", alias_name="c_raw"),
            Sum("c_tgt", alias_name="c_tgt"),
        )
        .to_pandas()  # <= V+1 rows: model-sized by construction
    )
    cr = np.zeros(v + 1, dtype=np.float64)
    ct = np.zeros(v + 1, dtype=np.float64)
    if len(model):
        cr[model["vid"].to_numpy(np.int64)] = model["c_raw"].to_numpy()
        ct[model["vid"].to_numpy(np.int64)] = model["c_tgt"].to_numpy()
    n_raw, n_tgt = cr.sum(), ct.sum()
    logr = (
        np.log((ct + 1.0) / (n_tgt + v + 1.0))
        - np.log((cr + 1.0) / (n_raw + v + 1.0))
    )
    lref = ray.put(logr)

    # ---- pass 3: per-doc weight ----
    def score(batch: pa.Table) -> pa.Table:
        lr = ray.get(lref)
        parents, ids = _ids_of(batch)
        n = np.bincount(parents, minlength=batch.num_rows)
        s = np.bincount(
            parents, weights=lr[ids], minlength=batch.num_rows
        )
        return pa.table({
            "doc_id": batch["doc_id"].cast(pa.int64()),
            "n_tokens": pa.array(n.astype(np.int64)),
            "log_ratio": pa.array(np.round(s, 6), pa.float64()),
        })

    return _docs_tokens(sf_dir).map_batches(
        score, batch_format="pyarrow"
    )


def dsir_weights_sql(
    target_lang: str = DSIR_TARGET_LANG,
    vocab_size: int = LM_VOCAB_SIZE,
) -> str:
    texpr = sql_token_expr("text")
    return f"""
        WITH toks AS (
          SELECT doc_id, unnest({texpr}) AS term FROM documents),
        vocab AS (
          SELECT term FROM toks GROUP BY term
          ORDER BY count(*) DESC, term LIMIT {vocab_size}),
        nv AS (SELECT count(*)::DOUBLE AS v FROM vocab),
        m AS (
          SELECT t.doc_id,
                 CASE WHEN v.term IS NULL THEN chr(0) ELSE t.term END
                   AS term
          FROM toks t LEFT JOIN vocab v USING (term)),
        tgt AS (SELECT doc_id FROM documents
                WHERE lang = '{target_lang}'),
        craw AS (SELECT term, count(*)::DOUBLE AS c FROM m GROUP BY 1),
        ctgt AS (SELECT term, count(*)::DOUBLE AS c
                 FROM m JOIN tgt USING (doc_id) GROUP BY 1),
        nraw AS (SELECT sum(c) AS n FROM craw),
        ntgt AS (SELECT coalesce(sum(c), 0) AS n FROM ctgt),
        lr AS (
          SELECT m.doc_id,
                 ln((coalesce(ct.c, 0) + 1.0)
                    / ((SELECT n FROM ntgt) + nv.v + 1.0))
               - ln((cr.c + 1.0)
                    / ((SELECT n FROM nraw) + nv.v + 1.0)) AS l
          FROM m
          JOIN craw cr USING (term)
          LEFT JOIN ctgt ct USING (term)
          CROSS JOIN nv)
        SELECT d.doc_id,
               count(l)::BIGINT AS n_tokens,
               round(coalesce(sum(l), 0.0), 6) AS log_ratio
        FROM documents d LEFT JOIN lr USING (doc_id)
        GROUP BY d.doc_id
    """


# ----------------------------------------------------- BPE induction

BPE_MERGES = 64
BPE_MAX_WORDS = 65536


def _bpe_word_counts(sf_dir: str, max_words: int):
    """(word, cf) collection-frequency table, capped at the top
    ``max_words`` by (cf desc, word asc) — the word HISTOGRAM is the
    whole training input of word-level BPE (Sennrich et al. 2016):
    one corpus pass, then everything downstream is histogram-sized.
    The cap bounds driver state the way doc_lm_score's top-V does;
    at 100 TB you'd raise it, not remove it."""
    from ray.data.aggregate import Sum

    from sotohp_ray.pipelines.textops import _docs_tokens, _exploded_of

    def counts(batch):
        _p, flat = _exploded_of(batch)
        vc = flat.value_counts()
        return pa.table({
            "word": vc.field("values").cast(pa.string()),
            "cnt": vc.field("counts").cast(pa.int64()),
        })

    top = (
        _docs_tokens(sf_dir)
        .map_batches(counts, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("cnt", alias_name="cf"))
        .to_pandas()
        .sort_values(["cf", "word"], ascending=[False, True])
        .head(max_words)
    )
    return (
        top["word"].to_numpy().astype("O"),
        top["cf"].to_numpy().astype(np.int64),
    )


def _bpe_merge_table(words, freqs, n_merges: int):
    """Greedy BPE merge induction over a word histogram. Exact greedy
    semantics, deterministic: per round, the (count desc, pair
    lexicographic asc) argmax of position-weighted adjacent-pair
    counts; stops early when the best pair's count < 2 (merging
    singletons never helps). Symbols start as the word's characters
    (no end-of-word marker — the simplest of the standard variants,
    pinned by the reference-equality pytest)."""
    from collections import Counter

    seqs = [list(w) for w in words]
    merges: list[tuple[str, str, int]] = []
    for _rank in range(n_merges):
        pc_ = Counter()
        for s, f in zip(seqs, freqs):
            for i in range(len(s) - 1):
                pc_[(s[i], s[i + 1])] += int(f)
        if not pc_:
            break
        best = min(pc_.items(), key=lambda kv: (-kv[1], kv[0]))
        (l, r), c = best
        if c < 2:
            break
        merges.append((l, r, int(c)))
        lr = l + r
        for si, s in enumerate(seqs):
            if len(s) < 2:
                continue
            out = []
            i = 0
            while i < len(s):
                if i + 1 < len(s) and s[i] == l and s[i + 1] == r:
                    out.append(lr)
                    i += 2
                else:
                    out.append(s[i])
                    i += 1
            seqs[si] = out
    return merges, seqs


def bpe_train(
    sf_dir: str, n_merges: int = BPE_MERGES,
    max_words: int = BPE_MAX_WORDS,
):
    """(rank, left, right, count): BPE tokenizer induction over the
    analyzed corpus (Sennrich, Haddow & Birch, ACL 2016) — the
    subword-vocabulary training step of an LLM data pipeline. The
    distributed part is the ONE histogram pass (word collection
    frequencies via the A1 partial+final aggregate over the tokens
    sidecar); the merge loop then runs over the bounded histogram —
    BPE's training input is the word histogram, never the corpus, so
    corpus scale only affects the already-distributed pass. Iterative
    greedy argmax is not SQL-expressible: rows-only, pinned by an
    exact-equality pytest against an independent reference
    implementation."""
    words, freqs = _bpe_word_counts(sf_dir, max_words)
    merges, _seqs = _bpe_merge_table(words, freqs, n_merges)
    return pa.table({
        "rank": pa.array(range(len(merges)), pa.int64()),
        "left": pa.array([m[0] for m in merges], pa.string()),
        "right": pa.array([m[1] for m in merges], pa.string()),
        "count": pa.array([m[2] for m in merges], pa.int64()),
    })


class _BPECounter:
    """Actor-pool stage: the learned merge ranks load once per actor;
    per batch, only NEW distinct words pay the encode loop (per-actor
    memo — the same hot-path discipline as the model-in-init
    stages). Word encode applies merges in rank order (the standard
    deterministic BPE encoder)."""

    def __init__(self, mref):
        import ray

        words, lens, merges = ray.get(mref)
        self.known = dict(zip(words, lens.tolist()))
        self.rank = {(l, r): i for i, (l, r, _c) in enumerate(merges)}

    def _encode_len(self, w: str) -> int:
        s = list(w)
        if len(s) < 2:
            return len(s)
        while True:
            best, bi = None, -1
            for i in range(len(s) - 1):
                rk = self.rank.get((s[i], s[i + 1]))
                if rk is not None and (best is None or rk < best):
                    best, bi = rk, i
            if best is None:
                return len(s)
            s[bi:bi + 2] = [s[bi] + s[bi + 1]]

    def __call__(self, batch: pa.Table) -> pa.Table:
        from sotohp_ray.pipelines.textops import _exploded_of

        parents, flat = _exploded_of(batch)
        pn = parents.to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(
            np.asarray(flat.to_pylist(), dtype=object),
            return_inverse=True,
        ) if len(flat) else (np.zeros(0, dtype=object),
                             np.zeros(0, dtype=np.int64))
        lens = np.empty(uniq.size, dtype=np.int64)
        for i, w in enumerate(uniq):
            got = self.known.get(w)
            if got is None:
                got = self._encode_len(w)
                self.known[w] = got
            lens[i] = got
        nb = np.zeros(batch.num_rows, dtype=np.int64)
        if pn.size:
            nb = np.bincount(
                pn, weights=lens[inv], minlength=batch.num_rows
            ).astype(np.int64)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_words": batch["n_tokens"],
            "n_bpe_tokens": pa.array(nb, pa.int64()),
        })


def bpe_token_count(
    sf_dir: str, n_merges: int = BPE_MERGES,
    max_words: int = BPE_MAX_WORDS,
):
    """(doc_id, n_words, n_bpe_tokens): corpus token counts under the
    ``bpe_train``-induced subword vocabulary — the budget number an
    LLM pipeline actually plans with (docs cost subwords, not words).
    Top-``max_words`` words ship with their PRE-COMPUTED subword
    lengths (training already holds their final segmentations); tail
    words are encoded on demand in the actor with a per-actor memo.
    Rows-only (inherits bpe_train's iterative core); pinned by the
    reference-equality pytest."""
    import ray

    from sotohp_ray.pipelines.textops import _docs_tokens

    words, freqs = _bpe_word_counts(sf_dir, max_words)
    merges, seqs = _bpe_merge_table(words, freqs, n_merges)
    lens = np.array([len(s) for s in seqs], dtype=np.int64)
    mref = ray.put((words.tolist(), lens, merges))
    return _docs_tokens(sf_dir).map_batches(
        _BPECounter,
        fn_constructor_kwargs={"mref": mref},
        batch_format="pyarrow",
        concurrency=2,
    )


# T5-style span corruption (Raffel et al. 2020 §3.1.4): block-aligned
# deterministic span selection so the mask is pure integer arithmetic
# on both engine and oracle sides.
SPAN_BLOCK = 3  # mean corrupted-span length
SPAN_MOD = 2147483647  # Lehmer MINSTD modulus (2^31 - 1)
SPAN_MULT = 48271
SPAN_NOISE = 0.15
SPAN_THRESH = int(SPAN_NOISE * SPAN_MOD)  # 322122547


def doc_span_corruption(sf_dir: str, block: int = SPAN_BLOCK):
    """(doc_id, sentinel_id, span_start, span_len): the T5 span-
    corruption schedule — ~15% of each document's tokens masked in
    ``block``-aligned spans, each masked span numbered by its sentinel
    ordinal (<extra_id_k>). Emits span METADATA, not assembled text
    (the doc_chunks discipline: offsets pin the exact schedule against
    the SQL oracle; a shard exporter slices the same offsets — the
    input sequence is the unmasked gaps, the target is the spans in
    sentinel order, and together they reconstruct the document by
    construction since spans are disjoint and sorted). Span selection
    is a two-step Lehmer hash of (doc_id, block) in exact int64
    arithmetic — bit-identical in numpy and DuckDB, no float noise
    schedule to disagree over. Fully vectorized per batch (repeat /
    arange / segmented-cumsum offset math, no per-doc loop)."""

    def f(batch: pa.Table) -> pa.Table:
        lists = _toklists_of(batch)
        n = pc.list_value_length(lists).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        n_blocks = -(-n // block)
        rows = np.flatnonzero(n_blocks)
        rep = n_blocks[rows]
        empty = pa.table({
            "doc_id": pa.array([], pa.int64()),
            "sentinel_id": pa.array([], pa.int64()),
            "span_start": pa.array([], pa.int64()),
            "span_len": pa.array([], pa.int64()),
        })
        if not rows.size:
            return empty
        doc_sel = np.repeat(rows, rep)
        seg_off = np.zeros(rows.size, dtype=np.int64)
        np.cumsum(rep[:-1], out=seg_off[1:])
        b = np.arange(rep.sum(), dtype=np.int64) - np.repeat(seg_off, rep)
        h = (ids[doc_sel] * 1000003 + b) % SPAN_MOD
        h = (h * SPAN_MULT) % SPAN_MOD
        masked = h < SPAN_THRESH
        if not masked.any():
            return empty
        # sentinel ordinal within each doc: segmented cumsum of the
        # mask (global cumsum minus the carry at each doc's start)
        cs = np.cumsum(masked)
        carry = np.repeat(cs[seg_off] - masked[seg_off], rep)
        sentinel = (cs - carry - 1)[masked]
        start = (b * block)[masked]
        length = np.minimum(block, n[doc_sel][masked] - start)
        return pa.table({
            "doc_id": pa.array(ids[doc_sel][masked], pa.int64()),
            "sentinel_id": pa.array(sentinel.astype(np.int64)),
            "span_start": pa.array(start, pa.int64()),
            "span_len": pa.array(length, pa.int64()),
        })

    return _docs_tokens(sf_dir).map_batches(f, batch_format="pyarrow")


def doc_span_corruption_sql(block: int = SPAN_BLOCK) -> str:
    texpr = sql_token_expr("text")
    return f"""
WITH dl AS (
  SELECT doc_id, CAST(coalesce(len({texpr}), 0) AS BIGINT) AS n
  FROM documents
),
blocks AS (
  SELECT doc_id, n,
         unnest(generate_series(
           0, CAST(ceil(n / {block}.0) AS BIGINT) - 1)) AS b
  FROM dl WHERE n > 0
),
masked AS (
  SELECT doc_id, n, b FROM blocks
  WHERE ((doc_id * 1000003 + b) % {SPAN_MOD}) * {SPAN_MULT}
        % {SPAN_MOD} < {SPAN_THRESH}
)
SELECT doc_id,
       row_number() OVER (PARTITION BY doc_id ORDER BY b) - 1
         AS sentinel_id,
       b * {block} AS span_start,
       least({block}, n - b * {block}) AS span_len
FROM masked
ORDER BY doc_id, span_start
"""


SPLIT_MULT = 2654435761  # Knuth multiplicative hash (shared constant)
SPLIT_FRACS = (0.8, 0.1)  # train, val; test = remainder


def dataset_split(sf_dir: str, fracs=SPLIT_FRACS):
    """(doc_id, split): deterministic TRAIN/VAL/TEST assignment — the
    first operator every training pipeline runs and the one that must
    NEVER depend on row order, partitioning, or cluster size: split =
    pure function of doc_id (Knuth hash bucketed by cumulative
    fractions in exact integer arithmetic), so re-runs, resumes and
    repartitions assign identically, and a joined table can recover
    the same split from the key alone. One stateless map over a
    single pruned column; thresholds compare in integers (no float
    fraction-of-hash), bit-identical to the SQL oracle."""
    import ray.data

    t_train = int(fracs[0] * 4294967296)
    t_val = int((fracs[0] + fracs[1]) * 4294967296)

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        h = (ids * SPLIT_MULT) % 4294967296
        split = np.where(
            h < t_train, "train", np.where(h < t_val, "val", "test")
        )
        return pa.table({
            "doc_id": pa.array(ids),
            "split": pa.array(split.astype("O").tolist(), pa.string()),
        })

    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    ).map_batches(assign, batch_format="pyarrow")


def dataset_split_sql(fracs=SPLIT_FRACS) -> str:
    t_train = int(fracs[0] * 4294967296)
    t_val = int((fracs[0] + fracs[1]) * 4294967296)
    return f"""
SELECT doc_id,
       CASE WHEN (doc_id * {SPLIT_MULT}) % 4294967296 < {t_train}
            THEN 'train'
            WHEN (doc_id * {SPLIT_MULT}) % 4294967296 < {t_val}
            THEN 'val'
            ELSE 'test' END AS split
FROM documents
"""
