"""Query serving: top-k BM25 over the compressed index.

Two scoring paths over the SAME postings, both selected by one
kernel (``Searcher._interval_postings``):
- ``exact``: decode every query term's full postings, accumulate
  float64 scores (term-at-a-time), top-k with (score desc, doc_id asc)
  tie-break. The verification baseline.
- ``wand``: block-max pruning (Ding & Suel, SIGIR 2011 — public
  literature) at doc-interval granularity: the doc-id space is cut at
  the query terms' block boundaries, each interval's score bound is
  the sum of the covering blocks' maxima, and only intervals whose
  bound reaches a seeded threshold theta are decoded and scored, with
  the same term-at-a-time accumulation. MUST return rank-identical
  results to ``exact`` — pruning changes the work done, never the
  answer. The fan-out survivor scan runs the same kernel per shard
  group.

Every other operator (phrase, proximity, span, boolean, the multi-term
rewrites, the suggesters, min-should-match) is written ONCE, on
``_Operators``, against four primitives: the raw positions of analyzed
tokens, the posting doc sets of tokens, the (doc, qi, contrib) rows of
weighted terms (optionally at a sorted match-doc set), and one
dictionary-scan result per shard group. ``Searcher`` answers them
in-process — the one-group case; ``FanoutSearcher`` routes them to the
``_GroupServer`` actor (a shard-range ``Searcher``) owning each term,
or to every actor for dictionary scans.

Float determinism (FIXTURES.md F4): per-doc score = sum of per-term
contributions accumulated in FIRST-APPEARANCE query-term order in
float64 in both paths (and in the brute-force oracle), so sums are
bit-identical. Duplicate query terms contribute multiplicity (qtf).

Reference analog: search is delegated to Elasticsearch in the
reference (ElasticOperations.scala); this module is the from-scratch
replacement; tie-break-by-id and bounded page caps mirror the
reference's ordered navigation (ApiApp.scala:749-753).
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from sotohp_ray.config import IndexConfig
from sotohp_ray.functions import codec as pcodec
from sotohp_ray.functions.tokenizer import CodeTokenizer


# search_wand answers through search_exact when the query's terms hold
# at most this many postings in total (one vectorized TAAT pass costs
# less than cutting and bounding intervals first) ...
_WAND_MIN_POSTINGS = 1 << 16
# ... or when its rarest term is in more than this fraction of the live
# docs: nearly every interval then carries every term's block maximum,
# so theta can prune almost nothing
_WAND_MAX_DF_FRAC = 0.5
# search_wand seeds theta from the highest-bound intervals covering this
# many doc ids per requested hit: covering only k ids finds weak seeds
# (on a 24k-doc index, ~13k docs still clear theta and get ranked),
# 16 * k ranks ~1.4k at a few hundred seed docs
_WAND_SEED_IDS_PER_HIT = 16


def _first_appearance(toks: list[str]) -> list[tuple[str, float]]:
    """[(term, qtf)] over the distinct tokens in first-appearance
    order. A term's index in this list is its ``qi``: every scoring
    path (single, shard group, fan-out merge, oracle) adds per-term
    contributions in qi order, which keeps their float64 sums
    bit-identical (FIXTURES.md F4)."""
    qtf = Counter(toks)
    return [(t, float(qtf[t])) for t in dict.fromkeys(toks)]


def _rank(
    ids: np.ndarray, scores: np.ndarray, k: int
) -> list[tuple[int, float]]:
    """Top-k (id, score) pairs ordered by (score desc, id asc) — the
    ranking contract of every scored retrieval path."""
    top = np.lexsort((ids, -scores))[:k]
    return [(int(ids[i]), float(scores[i])) for i in top]


def _slice_runs(
    d: np.ndarray, f: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The postings of sorted ``d`` (with their ``f``) whose doc lies in
    one of the sorted, disjoint, inclusive doc ranges [lo[i], hi[i]]:
    two searchsorteds per range, then one gather — cost scales with the
    ranges and the postings kept, not a per-posting range lookup."""
    s = np.searchsorted(d, lo.astype(d.dtype))
    n = np.searchsorted(d, hi.astype(d.dtype), side="right") - s
    total = int(n.sum())
    if total == d.size:
        return d, f
    idx = np.arange(total) + np.repeat(s - (np.cumsum(n) - n), n)
    return d[idx], f[idx]


def one_edit_mask(cand: list[str], q: str) -> np.ndarray:
    """Bool mask: which candidate strings are within Levenshtein
    distance 1 of ``q``. Exact distance-1 characterization —
    ``|len(a)-len(b)| <= 1 AND common_prefix + common_suffix >=
    max(len)-1`` (each capped at min(len)) — computed with padded
    code-point-matrix comparisons: no per-candidate Python DP.
    Candidates whose length differs from ``len(q)`` by more than 1 are
    False. Distances are CHARACTER-level (UTF-32 code points, one cell
    per char), matching the DuckDB ``levenshtein`` oracle and the
    ``pc.utf8_length`` prefilter — a byte-level matrix would overcount
    edits on multi-byte UTF-8 (e.g. 'café' vs 'cafe' is 1 char edit
    but 2 byte edits) even though the code tokenizer itself only emits
    ASCII terms."""
    if not cand:
        return np.zeros(0, dtype=bool)
    n = len(cand)
    # code-point matrices; terms are NUL-free by tokenizer construction
    joined = "\x00".join(cand)
    flat = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
    seps = np.flatnonzero(flat == 0)
    starts = np.concatenate(([0], seps + 1))
    clens = np.diff(np.concatenate((starts, [flat.size + 1]))) - 1
    qb = np.frombuffer(q.encode("utf-32-le"), dtype=np.uint32)
    lq = qb.size
    W = max(int(clens.max()), lq, 1)
    mat = np.zeros((n, W), dtype=np.uint32)
    rows = np.repeat(np.arange(n), clens)
    cols = (np.arange(flat.size, dtype=np.int64)[flat != 0]
            - np.repeat(starts, clens))
    nz = flat[flat != 0]
    mat[rows, cols] = nz
    qm = np.zeros(W, dtype=np.uint32)
    qm[:lq] = qb
    eq_fwd = mat == qm[None, :]
    cp = np.where(
        eq_fwd.all(axis=1), np.maximum(clens, lq), eq_fwd.argmin(axis=1)
    )
    # right-aligned for the common suffix
    mat_r = np.zeros((n, W), dtype=np.uint32)
    mat_r[rows, W - clens[rows] + cols] = nz
    qr = np.zeros(W, dtype=np.uint32)
    if lq:
        qr[W - lq:] = qb
    eq_bwd = (mat_r == qr[None, :])[:, ::-1]
    cs = np.where(
        eq_bwd.all(axis=1), np.maximum(clens, lq), eq_bwd.argmin(axis=1)
    )
    lmax = np.maximum(clens, lq)
    lmin = np.minimum(clens, lq)
    return (
        (np.abs(clens - lq) <= 1)
        & (np.minimum(cp, lmin) + np.minimum(cs, lmin) >= lmax - 1)
    )


_POS_SHIFT = 32  # (doc << 32 | position) packing used by all kernels


def _phrase_align(pos_list, m: int) -> np.ndarray:
    """Phrase-alignment kernel of phrase and phrase-prefix search.
    ``pos_list`` is [(docs, tfs, occ)] per token offset; each term's (doc,
    pos - offset) pairs become one uint64 key and a phrase start is a
    key appearing in EVERY term's set, found with one sort +
    run-length over the concatenated keys. Returns sorted unique
    matching doc ids (pre-tombstone)."""
    SH = np.uint64(_POS_SHIFT)
    key_parts = []
    for off, (docs, tfs, occ) in enumerate(pos_list):
        if docs.size == 0:  # vocabulary miss (or df=0): no match
            return np.zeros(0, dtype=np.int64)
        occ_docs = np.repeat(docs, tfs.astype(np.int64))
        # shift by (m - off) keeps keys positive at pos 0; duplicate
        # phrase terms contribute the SAME (doc,pos) set at different
        # shifts; within one (term, off) keys are unique because
        # positions are unique per (term, doc)
        key_parts.append(
            (occ_docs << SH) | (occ.astype(np.uint64) + np.uint64(m - off))
        )
    allk = np.concatenate(key_parts)
    allk.sort()
    if allk.size == 0:
        return np.zeros(0, dtype=np.int64)
    bounds = np.flatnonzero(np.diff(allk)) + 1
    starts = np.concatenate(([0], bounds))
    runs = np.diff(np.concatenate((starts, [allk.size])))
    hit_keys = allk[starts[runs == m]]
    if hit_keys.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.unique((hit_keys >> SH).astype(np.int64))


def _proximity_match(pos_a, pos_b, window: int) -> np.ndarray:
    """Proximity kernel: docs where the two terms occur within
    ``window`` positions (either order). Each a-occurrence probes the
    sorted (doc<<32|pos) key array of b with one searchsorted; its two
    neighbors are the only possible within-window partners. Returns
    sorted unique matching doc ids (pre-tombstone)."""
    docs_a, tfs_a, occ_a = pos_a
    docs_b, tfs_b, occ_b = pos_b
    SH = np.uint64(_POS_SHIFT)
    ka = (np.repeat(docs_a, tfs_a.astype(np.int64)) << SH) | occ_a
    kb = (np.repeat(docs_b, tfs_b.astype(np.int64)) << SH) | occ_b
    if ka.size == 0 or kb.size == 0:
        return np.zeros(0, dtype=np.int64)
    idx = np.searchsorted(kb, ka)
    hit = np.zeros(ka.size, dtype=bool)
    for nb in (idx - 1, idx):
        valid = (nb >= 0) & (nb < kb.size)
        kv = kb[np.clip(nb, 0, max(kb.size - 1, 0))]
        same_doc = (kv >> SH) == (ka >> SH)
        dist = np.abs(
            (kv & np.uint64(0xFFFFFFFF)).astype(np.int64)
            - (ka & np.uint64(0xFFFFFFFF)).astype(np.int64)
        )
        hit |= valid & same_doc & (dist <= window)
    return np.unique((ka[hit] >> SH).astype(np.int64))


def _span_near_ordered_match(pos_a, pos_b, window: int) -> np.ndarray:
    """Ordered-span kernel (Lucene span_near in_order=true): docs
    where some occurrence of b FOLLOWS an occurrence of a by 1..window
    positions. Each a-occurrence probes only its nearest SUBSEQUENT
    b occurrence (searchsorted side='right' on the (doc<<32|pos) key
    array): if any b qualifies, the nearest subsequent one does.
    Returns sorted unique matching doc ids (pre-tombstone)."""
    docs_a, tfs_a, occ_a = pos_a
    docs_b, tfs_b, occ_b = pos_b
    SH = np.uint64(_POS_SHIFT)
    ka = (np.repeat(docs_a, tfs_a.astype(np.int64)) << SH) | occ_a
    kb = (np.repeat(docs_b, tfs_b.astype(np.int64)) << SH) | occ_b
    if ka.size == 0 or kb.size == 0:
        return np.zeros(0, dtype=np.int64)
    idx = np.searchsorted(kb, ka, side="right")
    valid = idx < kb.size
    kv = kb[np.clip(idx, 0, max(kb.size - 1, 0))]
    same_doc = (kv >> SH) == (ka >> SH)
    dist = (
        (kv & np.uint64(0xFFFFFFFF)).astype(np.int64)
        - (ka & np.uint64(0xFFFFFFFF)).astype(np.int64)
    )
    hit = valid & same_doc & (dist >= 1) & (dist <= window)
    return np.unique((ka[hit] >> SH).astype(np.int64))


# dictionary-scan matchers of the multi-term rewrites, by kind (the
# fifth kind, "fuzzy", is Searcher._fuzzy_rows)
_MATCHERS = {
    "prefix": pc.starts_with,
    "contains": pc.match_substring,
    "suffix": pc.ends_with,
    "regex": pc.match_substring_regex,
}


def _top_terms(parts, k: int, by_df: bool = True):
    """The first k (terms, dfs) over per-group candidate (terms, dfs)
    lists, by (df desc, term asc), or by term alone when not ``by_df``.
    Each term lives in exactly one shard group, so the top-k over the
    groups' own top-ks is exact."""
    terms = np.array([t for ts, _ in parts for t in ts], dtype=object)
    if terms.size == 0:
        return [], np.zeros(0, dtype=np.int64)
    dfs = np.concatenate([np.asarray(d, dtype=np.int64) for _, d in parts])
    keys = (terms.astype(str), -dfs) if by_df else (terms.astype(str),)
    order = np.lexsort(keys)[:k]
    return terms[order].tolist(), dfs[order]


def _concat_rows(parts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One (doc, qi, contrib) row triple from per-group triples."""
    if not parts:
        z = np.zeros(0, dtype=np.int64)
        return z, z, np.zeros(0, dtype=np.float64)
    return tuple(np.concatenate(col) for col in zip(*parts))


class _Operators:
    """The query operators, written once for ``Searcher`` and
    ``FanoutSearcher``. Both implement four primitives:

    - ``raw_positions(tokens)``: {token: (docs, tfs, occ)} per analyzed
      token, empty arrays on a vocabulary miss, tombstones NOT applied;
    - ``term_docs(tokens)``: {token: sorted int64 posting docs} for the
      analyzed tokens the index holds;
    - ``contribs(qterms, docs=None)``: (doc, qi, contrib) rows for
      [(term, qw)], qi = the term's index in ``qterms``, only the rows
      at the sorted ``docs`` when given;
    - ``_scans(kind, arg, k=None, by_df=True)``: one
      ``Searcher.dict_scan`` result per shard group.

    Tombstones are logical deletes not yet compacted: excluded from
    every result, while surviving docs score with pre-delete stats
    until compact_index runs (the Lucene deleted-docs contract). They
    are held as a SORTED id array, not a doc-id-space-sized bool mask:
    the mask costs 1 B/doc per searcher (1 GB per actor at 10^9 docs)
    while the set is deletion-sized; membership is a searchsorted."""

    tok: CodeTokenizer
    _tomb: np.ndarray | None

    def _load_tombstones(self, index_dir: str) -> None:
        from sotohp_ray.pipelines.delete import load_tombstones

        tomb = load_tombstones(index_dir)
        self._tomb = (
            np.unique(tomb.astype(np.int64)) if tomb.size else None
        )

    def _live_mask(self, ids: np.ndarray) -> np.ndarray:
        """Bool mask: which of ``ids`` are NOT tombstoned."""
        t = self._tomb
        if t is None or ids.size == 0:
            return np.ones(ids.size, dtype=bool)
        ids = ids.astype(np.int64, copy=False)
        pos = np.searchsorted(t, ids)
        dead = np.zeros(ids.size, dtype=bool)
        inb = pos < t.size
        dead[inb] = t[pos[inb]] == ids[inb]
        return ~dead

    def _merge_contribs(
        self, docs: np.ndarray, qis: np.ndarray, cs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """``_layered_sums`` of (doc, qi, contrib) rows, restricted to
        live docs with a positive sum; None when none is left — the
        one merge behind sparse exact, paged, min-should-match,
        match-set and distributed-WAND retrieval."""
        if docs.size == 0:
            return None
        udocs, sums, nterms = _layered_sums(docs, qis, cs)
        keep = self._live_mask(udocs) & (sums > 0.0)
        if not keep.any():
            return None
        return udocs[keep], sums[keep], nterms[keep]

    # ---- scored retrieval ------------------------------------------

    def search(self, query: str, k: int = 10, mode: str = "wand"):
        if mode == "exact":
            return self.search_exact(query, k)
        return self.search_wand(query, k)

    def search_wand_many(self, queries, k: int = 10):
        """WAND top-k for each query of a serving batch (the fan-out
        overrides this with its two-RPC-rounds-per-batch protocol)."""
        return [self.search_wand(q, k) for q in queries]

    def search_contribs(self, query: str):
        """``contribs`` for the analyzed query's distinct terms, where
        ``qi`` is the term's first-appearance index over the WHOLE
        analyzed query (computed identically by every shard group, so
        merged contributions sorted by (doc, qi) and summed
        left-to-right reproduce ``search_exact``'s float64 accumulation
        order bit-for-bit). Tombstone filtering happens at the
        merge."""
        return self.contribs(_first_appearance(self.tok.tokens_of(query)))

    def _score_match_docs(
        self, query: str, match_docs: np.ndarray, k: int
    ) -> list[tuple[int, float]]:
        """BM25 top-k over the analyzed ``query`` terms at the live docs
        of the sorted ``match_docs`` — the one scoring step of every
        match-set operator: contributions at the match docs only, then
        the layered qi-ordered sums of exact search."""
        if match_docs.size == 0:
            return []
        got = self._merge_contribs(*self.contribs(
            _first_appearance(self.tok.tokens_of(query)), match_docs
        ))
        return [] if got is None else _rank(got[0], got[1], k)

    def search_min_should_match(
        self, query: str, m: int, k: int = 10,
    ) -> list[tuple[int, float, int]]:
        """ES ``minimum_should_match`` retrieval: BM25 top-k over the
        docs matching at least ``m`` DISTINCT analyzed query terms
        (a pure OR rewards one hot term; AND is brittle; m-of-n is the
        standard middle). Returns (doc_id, score, n_matched). Built on
        ``search_contribs`` — its rows are exactly the (distinct term,
        doc) match pairs, so the merge's per-doc row count IS the
        distinct matched-term count (matching-postings-sized, never
        doc-space loops). Ranking contract: (round(score,4) DESC,
        doc_id ASC)."""
        got = self._merge_contribs(*self.search_contribs(query))
        if got is None:
            return []
        udocs, sums, nmatch = got
        keep = nmatch >= m
        udocs, r, nmatch = udocs[keep], np.round(sums[keep], 4), nmatch[keep]
        top = np.lexsort((udocs, -r))[:k]
        return [(int(udocs[i]), float(r[i]), int(nmatch[i])) for i in top]

    # ---- positional ------------------------------------------------

    def term_positions(
        self, term: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Public positional readback for one analyzed term — the
        term-vector primitive behind highlighting/snippets: (docs, tfs,
        occ) where ``occ`` holds every occurrence's absolute 0-based
        token position, posting-ordered (posting i owns
        ``occ[sum(tfs[:i]):sum(tfs[:i+1])]``). ``term`` must analyze
        to exactly one token; a vocabulary miss returns empty arrays.
        Tombstoned docs are excluded (same contract as search)."""
        toks = self.tok.tokens_of(term)
        if len(toks) != 1:
            raise ValueError("term_positions takes a single-token term")
        docs, tfs, occ = self.raw_positions(toks)[toks[0]]
        if self._tomb is not None and docs.size:
            live = self._live_mask(docs)
            if not live.all():
                keep_occ = np.repeat(live, tfs.astype(np.int64))
                docs, tfs, occ = docs[live], tfs[live], occ[keep_occ]
        return docs, tfs, occ

    def search_phrase(self, phrase: str, k: int = 10) -> list[tuple[int, float]]:
        """Exact phrase search: documents containing the analyzed
        phrase tokens at consecutive positions (``_phrase_align``),
        ranked by BM25 over the phrase terms (same rounding/tie-break
        contract as exact search)."""
        toks = self.tok.tokens_of(phrase)
        if not toks:
            return []
        pos = self.raw_positions(toks)
        return self._score_match_docs(
            phrase, _phrase_align([pos[t] for t in toks], len(toks)), k
        )

    def search_phrase_prefix(
        self, phrase: str, max_expansions: int = 50, k: int = 10
    ) -> list[tuple[int, float]]:
        """ES ``match_phrase_prefix`` (search-as-you-type): the
        analyzed phrase must appear at consecutive positions with its
        LAST token as a PREFIX of the final term. The prefix expands
        to the first ``max_expansions`` dictionary terms in term order
        (prefix_terms), each expansion runs the phrase-align kernel,
        and the match sets union. Ranking: BM25 over the FIXED leading
        terms only — expansions gate the match but do not perturb the
        score, so ranking stays stable keystroke to keystroke (and the
        oracle shares the exact contract)."""
        toks = self.tok.tokens_of(phrase)
        if len(toks) < 2:
            raise ValueError(
                "phrase_prefix needs >= 2 analyzed tokens"
            )
        lead, pfx = toks[:-1], toks[-1]
        exps = self.prefix_terms(pfx, max_expansions)
        if not exps:
            return []
        pos = self.raw_positions(lead + exps)
        lead_pos = [pos[t] for t in lead]
        match_docs = np.unique(np.concatenate([
            _phrase_align(lead_pos + [pos[e]], len(toks)) for e in exps
        ]))
        return self._score_match_docs(" ".join(lead), match_docs, k)

    def _pair_match(
        self, kernel, what: str, term_a: str, term_b: str, window: int,
        k: int,
    ) -> list[tuple[int, float]]:
        """Two single-token terms matched by a positional ``kernel``
        within ``window``, ranked by BM25 over the two terms."""
        ta = self.tok.tokens_of(term_a)
        tb = self.tok.tokens_of(term_b)
        if len(ta) != 1 or len(tb) != 1:
            raise ValueError(f"{what} terms must analyze to one token")
        pos = self.raw_positions([ta[0], tb[0]])
        return self._score_match_docs(
            f"{term_a} {term_b}", kernel(pos[ta[0]], pos[tb[0]], window), k
        )

    def search_proximity(
        self, term_a: str, term_b: str, window: int = 3, k: int = 10
    ) -> list[tuple[int, float]]:
        """Proximity search: docs where ``term_a`` and ``term_b`` occur
        within ``window`` token positions (either order), ranked by
        BM25 over the two terms. Neighbor-probe kernel:
        ``_proximity_match``."""
        return self._pair_match(
            _proximity_match, "proximity", term_a, term_b, window, k
        )

    def search_span_near(
        self, term_a: str, term_b: str, window: int = 3, k: int = 10
    ) -> list[tuple[int, float]]:
        """ORDERED span-near (Lucene span_near in_order=true): docs
        where ``term_b`` follows ``term_a`` within ``window``
        positions, ranked by BM25 over the two terms — the
        direction-sensitive sibling of search_proximity ("hash join"
        near-misses where only "join ... hash" appears). Kernel:
        ``_span_near_ordered_match``."""
        return self._pair_match(
            _span_near_ordered_match, "span", term_a, term_b, window, k
        )

    # ---- boolean ---------------------------------------------------

    def search_boolean(
        self, query: str, mode: str = "and", exclude: str | None = None
    ) -> np.ndarray:
        """Unranked boolean retrieval over the inverted index: sorted
        doc_ids containing ALL (``and``) or ANY (``or``) analyzed
        query terms — the index-backed counterpart of the reference's
        naive forall-contains scan (MediaServiceLive.scala:108-112).
        ``exclude`` subtracts docs containing ANY of its analyzed
        terms (Lucene MUST_NOT). Set algebra over sorted posting doc
        arrays, so cost is bounded by the query terms' df, not the
        corpus: OR is one concat + unique, AND intersects
        smallest-first."""
        if mode not in ("and", "or"):
            raise ValueError(f"mode must be 'and' or 'or', got {mode!r}")
        seen = list(dict.fromkeys(self.tok.tokens_of(query)))
        got = self.term_docs(seen)
        sets = [got[t] for t in seen if t in got]
        if not sets or (mode == "and" and len(sets) != len(seen)):
            return np.zeros(0, dtype=np.int64)  # a term matches nothing
        if mode == "or":
            out = np.unique(np.concatenate(sets))
        else:
            sets.sort(key=len)
            out = sets[0]
            for d in sets[1:]:
                out = out[np.isin(out, d, assume_unique=True, kind="sort")]
                if out.size == 0:
                    break
        if exclude and out.size:
            ex = self.term_docs(
                list(dict.fromkeys(self.tok.tokens_of(exclude)))
            )
            if ex:
                out = out[~np.isin(
                    out, np.unique(np.concatenate(list(ex.values()))),
                    assume_unique=True, kind="sort",
                )]
        return out[self._live_mask(out)]

    # ---- dictionary scans ------------------------------------------

    def prefix_terms(
        self, prefix: str, max_expansions: int = 50
    ) -> list[str]:
        """The first ``max_expansions`` dictionary terms starting with
        ``prefix``, in TERM order — the deterministic multi-term
        expansion list (the ES expansion cap is part of the query
        contract, so the cap rule must be order-stable). Capping each
        group at the global cap is exact: the global first-m set draws
        at most m terms from any group, all within that group's first
        m."""
        if not prefix:
            raise ValueError("empty prefix")
        parts = self._scans("prefix", prefix, max_expansions, False)
        return _top_terms(parts, max_expansions, by_df=False)[0]

    def _constant_score(
        self, kind: str, arg: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids, n_terms) of a multi-term rewrite (Lucene
        MultiTermQuery's constant-score shape; no per-term scoring):
        sorted live docs containing ANY dictionary term matching
        ``arg``, with the count of DISTINCT matching terms each doc
        contains. Each term lives in exactly one shard group, so
        summing the groups' per-doc counts is exact."""
        parts = self._scans(kind, arg)
        docs = np.concatenate([p[0] for p in parts])
        if docs.size == 0:
            z = np.zeros(0, dtype=np.int64)
            return z, z
        udocs, inv = np.unique(docs, return_inverse=True)
        counts = np.zeros(udocs.size, dtype=np.int64)
        np.add.at(counts, inv, np.concatenate([p[1] for p in parts]))
        live = self._live_mask(udocs)
        return udocs[live], counts[live]

    def search_prefix(self, prefix: str) -> tuple[np.ndarray, np.ndarray]:
        """Wildcard (``prefix*``) retrieval: the constant-score rewrite
        over one vectorized ``starts_with`` dictionary scan — cost is
        vocabulary-sized, then bounded by the matched terms' total df.
        Term->shard routing is hash-based, so a shard-range searcher
        sees only its group's terms; the fan-out scans every group."""
        if not prefix:
            raise ValueError("empty prefix")
        return self._constant_score("prefix", prefix)

    def search_contains(self, substr: str) -> tuple[np.ndarray, np.ndarray]:
        """Infix wildcard (``*substr*``) retrieval: the constant-score
        rewrite over terms with ``substr`` as a substring (the Lucene
        WildcardQuery shape beside ``search_prefix``)."""
        if not substr:
            raise ValueError("empty substring")
        return self._constant_score("contains", substr)

    def search_suffix(self, suffix: str) -> tuple[np.ndarray, np.ndarray]:
        """Leading-wildcard (``*suffix``) retrieval: the constant-score
        rewrite over terms ending with ``suffix``. ES serves this by
        indexing a REVERSED copy of each token so the leading wildcard
        becomes a prefix scan; here ``ends_with`` over the term column
        IS the reversed-prefix scan (same cost as ``search_prefix``,
        no second dictionary copy to keep in sync)."""
        if not suffix:
            raise ValueError("empty suffix")
        return self._constant_score("suffix", suffix)

    def search_regex(self, pattern: str) -> tuple[np.ndarray, np.ndarray]:
        """Regex retrieval (Lucene RegexpQuery shape): the
        constant-score rewrite over terms matching ``pattern`` (RE2
        partial-match, i.e. unanchored unless the pattern anchors
        itself; ``pc.match_substring_regex`` compiles RE2 once per
        call). Oracle parity is exact because DuckDB's
        ``regexp_matches`` is the same RE2 engine with the same
        partial-match contract."""
        if not pattern:
            raise ValueError("empty pattern")
        return self._constant_score("regex", pattern)

    def search_fuzzy(self, q: str) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids, n_terms): the constant-score rewrite over the
        terms within edit distance 1 of ``q``."""
        return self._constant_score("fuzzy", q)

    def suggest(self, prefix: str, k: int = 10):
        """Completion suggester: the top-k dictionary terms starting
        with ``prefix``, ranked by document frequency (df desc, term
        asc) — the ES term/completion-suggester analog
        (ElasticOperations.scala keyword dictionary), answered
        straight from the dictionary with ZERO postings decode (df is
        a dictionary column); k rows per shard group on the wire. df
        is index-time df: per-doc deletes narrow retrieval via
        tombstone masks, but suggestion counts refresh at compaction
        (the same staleness contract ES document-frequency stats have
        between merges)."""
        if not prefix:
            raise ValueError("empty prefix")
        return _top_terms(self._scans("prefix", prefix, k), k)

    def suggest_corrections(self, q: str, k: int = 3):
        """Spell correction ('did you mean'): the top-k dictionary
        terms within edit distance 1 of ``q`` (exact match included —
        ES term-suggester suggest_mode=always with max_edits pinned),
        ranked like ``suggest`` (df desc, term asc, index-time df)."""
        if not q:
            raise ValueError("empty query")
        return _top_terms(self._scans("fuzzy", q, k), k)


class Searcher(_Operators):
    """Loads the dictionary + doc lengths once (init-once worker state)
    and answers the ``_Operators`` primitives in-process: a single
    shard group that is itself.

    Two scopes:
    - full (``shard_range=None``): every dictionary shard — the
      single-replica serving object (phrase/proximity/WAND need the
      whole vocabulary present to distinguish "term not in corpus"
      from "term not in my shards").
    - shard group (``shard_range=(lo, hi)``): ONLY the dictionary
      shards with ``lo <= term_shard < hi`` are read and held — the
      per-actor memory footprint scales with the group, not the
      corpus vocabulary. As a ``_GroupServer`` actor it answers a
      ``FanoutSearcher``'s primitives for the terms it owns; merged
      contributions are bit-identical to full-dictionary
      ``search_exact``.
      Per-doc stats (doc lengths, tombstones) are still held whole:
      any document can appear in any term shard (Lucene's norms-like
      footprint, 8 B/doc — the remaining per-doc state).

    Reference analog: Elasticsearch-side sharded indices
    (ElasticOperations.scala:91-97 time-partitioned indices)."""

    def __init__(self, index_dir: str, config: IndexConfig | None = None,
                 shard_range: tuple[int, int] | None = None):
        import time as _time

        _t0 = _time.perf_counter()
        self.index_dir = index_dir
        self.shard_range = shard_range
        with open(os.path.join(index_dir, "stats.json")) as f:
            self.stats = json.load(f)
        cfgp = os.path.join(index_dir, "config.json")
        if config is None:
            # config.json carries the FULL tokenizer rules, so the
            # query-side analyzer is guaranteed identical to the one
            # the index was built with (from_json raises on a
            # version/rules mismatch rather than silently diverging)
            with open(cfgp) as f:
                config = IndexConfig.from_json(f.read())
        self.config = config
        self.tok = CodeTokenizer(config.tokenizer)
        self.n_docs = int(self.stats["n_docs"])  # LIVE docs (scoring N)
        # dense-array size: doc ids stay sparse after compaction (no
        # renumber), so arrays are sized by the original id space
        self.space = int(self.stats.get("doc_id_space", self.stats["n_docs"]))
        self.avgdl = float(self.stats["avgdl"])
        self._load_tombstones(index_dir)

        # columnar dictionary: term -> row index; blobs/block metadata
        # are materialized lazily per queried term (and cached).
        # Loading every blob into Python objects up front would cost
        # seconds for a 100k-term vocabulary. With shard_range set,
        # only that group's shard files are read — per-actor memory
        # scales with the group size.
        dict_dir = os.path.join(index_dir, "dictionary")
        if shard_range is None:
            t = pq.read_table(dict_dir)
            self.dict_bytes_loaded = sum(
                os.path.getsize(os.path.join(dict_dir, n))
                for n in os.listdir(dict_dir) if n.endswith(".parquet")
            )
        else:
            lo, hi = shard_range
            files = []
            self.dict_bytes_loaded = 0
            for n in sorted(os.listdir(dict_dir)):
                if not (n.startswith("shard-") and n.endswith(".parquet")):
                    continue
                sid = int(n[len("shard-"):-len(".parquet")])
                if lo <= sid < hi:
                    p = os.path.join(dict_dir, n)
                    files.append(p)
                    self.dict_bytes_loaded += os.path.getsize(p)
            if files:
                t = pq.read_table(files)
            else:
                # group owns no terms in this corpus: an empty table
                # with the dictionary schema, from a SCHEMA-ONLY read —
                # materializing the whole dictionary just to slice row
                # 0 would cost this one actor the full-vocabulary load
                # the shard-group design exists to avoid
                any_shard = next(
                    (
                        os.path.join(dict_dir, n)
                        for n in sorted(os.listdir(dict_dir))
                        if n.startswith("shard-") and n.endswith(".parquet")
                    ),
                    None,
                )
                if any_shard is not None:
                    t = pq.read_schema(any_shard).empty_table()
                else:
                    t = pq.read_table(dict_dir).slice(0, 0)
        self._tbl = t.combine_chunks()
        self._row: dict[str, int] = {
            term: i for i, term in enumerate(t["term"].to_pylist())
        }
        self._dfs = t["df"].to_numpy(zero_copy_only=False)
        self._cfs = t["cf"].to_numpy(zero_copy_only=False)
        self._maxs = t["max_score"].to_numpy(zero_copy_only=False)
        self._doc0 = t["doc0"].to_numpy(zero_copy_only=False)
        self._tf0 = t["tf0"].to_numpy(zero_copy_only=False)
        self._rec_cache: dict[str, dict] = {}
        # decoded-postings cache (the serving-side block cache every
        # production engine keeps): term -> (doc_ids, tfs), bounded by
        # total cached postings; insertion-order eviction
        self._dec_cache: dict[str, tuple] = {}
        # decoded-positions cache (phrase/proximity serving): bounded
        # by entry count; positions are ~1 value per occurrence
        self._pos_cache: dict[str, tuple] = {}
        self._dec_cache_postings = 0
        self.dec_cache_budget = 8_000_000
        if shard_range is None:
            self.doc_len = self._build_doclen()
        else:
            # shard-group servers must not hold doc-id-SPACE-sized
            # heap arrays (8 B/doc = ~8 GB per actor at 10^9 docs,
            # regardless of group width): doc_len comes from a derived
            # raw-f64 sidecar, memory-MAPPED read-only — the resident
            # set is the pages its postings actually touch, and the OS
            # page cache shares one copy across every actor on a node
            self.doc_len = self._doclen_view()
        self.doclen_bytes_inheap = (
            0 if isinstance(self.doc_len, np.memmap)
            else self.doc_len.nbytes
        )
        self.n_terms_loaded = len(self._row)
        self.load_sec = _time.perf_counter() - _t0

    def _build_doclen(self) -> np.ndarray:
        """Dense doc_len array scatter-built from docmeta — the ONE
        definition shared by the full searcher's in-heap load and the
        sidecar derivation."""
        dm = pq.read_table(
            os.path.join(self.index_dir, "docmeta"),
            columns=["doc_id", "doc_len"],
        )
        dl = np.zeros(self.space, dtype=np.float64)
        dl[dm["doc_id"].to_numpy(zero_copy_only=False)] = dm[
            "doc_len"
        ].to_numpy(zero_copy_only=False)
        return dl

    def _doclen_view(self) -> np.ndarray:
        """Memory-mapped doc_len array over the doc-id space, backed
        by a derived ``doclen-<fp>.f64`` sidecar next to docmeta. The
        fingerprint covers the docmeta files (name/size/mtime) and the
        space, so compaction or an update sync — which rewrite docmeta
        — atomically invalidates by NAME; derivation is idempotent
        (tmp + rename) and race-safe across actors. Falls back to an
        in-heap array if the index dir is not writable, or if a
        concurrent searcher with a NEWER docmeta fingerprint evicted
        this one's sidecar between the existence check and the mmap
        open (docmeta changed mid-construction: the array we derived
        is still self-consistent for this searcher's view)."""
        import hashlib

        dm_dir = os.path.join(self.index_dir, "docmeta")
        h = hashlib.sha1(str(self.space).encode())
        for n in sorted(os.listdir(dm_dir)):
            st = os.stat(os.path.join(dm_dir, n))
            h.update(f"{n}:{st.st_size}:{st.st_mtime_ns}".encode())
        fp = h.hexdigest()[:16]
        path = os.path.join(self.index_dir, f"doclen-{fp}.f64")
        dl = None
        if not os.path.exists(path):
            dl = self._build_doclen()
            try:
                tmp = f"{path}.tmp.{os.getpid()}"
                with open(tmp, "wb") as f:
                    f.write(dl.tobytes())
                os.replace(tmp, path)
                for n in os.listdir(self.index_dir):
                    if (
                        n.startswith("doclen-")
                        and n.endswith(".f64")
                        and n != os.path.basename(path)
                    ):
                        try:
                            os.unlink(os.path.join(self.index_dir, n))
                        except OSError:
                            pass
            except OSError:
                return dl  # read-only index dir: serve from heap
        try:
            return np.memmap(
                path, dtype=np.float64, mode="r", shape=(self.space,)
            )
        except (FileNotFoundError, ValueError):
            # evicted (or truncated) by a concurrent newer-fingerprint
            # derivation: fall back to heap rather than dying
            return dl if dl is not None else self._build_doclen()

    # ---- shared helpers --------------------------------------------

    def _idf(self, df: int) -> float:
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))

    def _record(self, term: str) -> dict:
        """Lazy per-term record (cached): inline posting for the
        blobless tail (df==1 AND tf==1 — a df==1 term whose single doc
        repeats it goes through the blob path so its positions fit),
        blob + block metadata views otherwise. The branch is on blob
        NULLNESS, not df: branching on df==1 alone silently read the
        zeroed inline columns for df==1/tf>1 terms."""
        rec = self._rec_cache.get(term)
        if rec is not None:
            return rec
        i = self._row[term]
        df = int(self._dfs[i])
        if not self._tbl["blob"][i].is_valid:
            d = np.array([self._doc0[i]], dtype=np.uint64)
            f = np.array([self._tf0[i]], dtype=np.uint64)
            rec = {
                "df": 1,
                "max_score": float(self._maxs[i]),
                "docs": d,
                "tfs": f,
                "blob": None,
                "block_last": d.astype(np.int64),
                "block_gap_offs": np.zeros(1, dtype=np.uint32),
                "block_tf_offs": np.zeros(1, dtype=np.uint32),
                "tf_base": 0,
                "block_max": np.array([self._maxs[i]], dtype=np.float32),
                "block_size": 1,
            }
        else:
            rec = {
                "df": df,
                "max_score": float(self._maxs[i]),
                "blob": self._tbl["blob"][i].as_buffer(),
                "block_last": self._tbl["block_last"][i]
                .values.to_numpy(zero_copy_only=False)
                .astype(np.int64),
                "block_gap_offs": self._tbl["block_gap_offs"][i].values.to_numpy(
                    zero_copy_only=False
                ),
                "block_tf_offs": self._tbl["block_tf_offs"][i].values.to_numpy(
                    zero_copy_only=False
                ),
                "tf_base": int(self._tbl["tf_base"][i].as_py()),
                "block_max": self._tbl["block_max"][i].values.to_numpy(
                    zero_copy_only=False
                ),
                "block_size": self.config.block_size,
            }
        self._rec_cache[term] = rec
        return rec

    def _query_terms(self, query: str) -> list[tuple[str, float]]:
        """-> [(term, qtf)] in first-appearance order, present terms only."""
        return [
            (t, w) for t, w in _first_appearance(self.tok.tokens_of(query))
            if t in self._row
        ]

    def _decode_full(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        hit = self._dec_cache.get(term)
        if hit is not None:
            return hit
        r = self._record(term)
        if r.get("docs") is not None:
            return r["docs"], r["tfs"]
        nblocks = r["block_last"].size
        counts = np.full(nblocks, r["block_size"], dtype=np.int64)
        counts[-1] = r["df"] - r["block_size"] * (nblocks - 1)
        out = pcodec.decode_postings(
            r["blob"], r["df"], r["tf_base"],
            block_counts=counts, gap_offs=r["block_gap_offs"],
            tf_offs=r["block_tf_offs"], codec=self.config.codec,
        )
        n = out[0].size
        if n <= self.dec_cache_budget:
            while (
                self._dec_cache_postings + n > self.dec_cache_budget
                and self._dec_cache
            ):
                old = next(iter(self._dec_cache))
                self._dec_cache_postings -= self._dec_cache.pop(old)[0].size
            self._dec_cache[term] = out
            self._dec_cache_postings += n
        return out

    def _positions_of(self, term: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(docs, tfs, occ_positions): absolute token positions of
        every occurrence, concatenated in posting order (posting i owns
        occ[sum(tfs[:i]) : sum(tfs[:i+1])]). Positions are stored as
        ONE varint stream per term (decoded wholesale — phrase queries
        always touch the full list)."""
        hit = self._pos_cache.get(term)
        if hit is not None:
            return hit
        i = self._row[term]
        docs, tfs = self._decode_full(term)
        cf = int(self._cfs[i])
        pb = self._tbl["pos_blob"][i]
        if not pb.is_valid:  # blobless tail: df==1 AND tf==1
            out = (
                docs, tfs,
                np.array([self._tbl["pos0"][i].as_py()], dtype=np.uint64),
            )
            self._pos_cache_put(term, out)
            return out
        pg = pcodec.varint_decode(pb.as_buffer(), cf)
        cum = np.cumsum(pg, dtype=np.uint64)
        lens = tfs.astype(np.int64)
        p_starts = np.zeros(lens.size, dtype=np.int64)
        np.cumsum(lens[:-1], out=p_starts[1:])
        base = np.zeros(lens.size, dtype=np.uint64)
        base[1:] = cum[p_starts[1:] - 1]
        occ = cum - np.repeat(base, lens)
        self._pos_cache_put(term, (docs, tfs, occ))
        return docs, tfs, occ

    def _pos_cache_put(self, term: str, out: tuple) -> None:
        """Bounded insert (covers BOTH the blob and blobless paths —
        the df==1 tail is the bulk of a real vocabulary, so an
        unbounded blobless path would grow forever in a serving
        actor)."""
        if len(self._pos_cache) > 256:
            self._pos_cache.pop(next(iter(self._pos_cache)))
        self._pos_cache[term] = out

    def _contrib(self, qw: float, df: int, tf, dl):
        k1, b = self.config.bm25.k1, self.config.bm25.b
        idf = self._idf(df)
        denom = tf + k1 * (1.0 - b + b * dl / self.avgdl)
        return qw * idf * (tf * (k1 + 1.0)) / denom

    # ---- exact (term-at-a-time) ------------------------------------

    def _taat_scores(
        self, query: str, mask: np.ndarray | None = None
    ) -> np.ndarray | None:
        """Full TAAT BM25 score array over the doc-id space (tombstoned
        and ``mask``-excluded docs zeroed), or None when the query
        analyzes to nothing. Shared by exact top-k and cursor-paged
        retrieval."""
        return self._taat_scores_terms(self._query_terms(query), mask)

    def _taat_scores_terms(
        self, qterms: list[tuple[str, float]],
        mask: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """TAAT scoring over an explicit [(analyzed term, weight)]
        list — the entry point for callers whose terms didn't come
        from a query string (e.g. more-like-this keyword sets, which
        must not round-trip through the tokenizer)."""
        postings = self._interval_postings(qterms)
        if not postings:
            return None
        return self._dense_scores(postings, mask)

    def _dense_scores(
        self, postings: list, mask: np.ndarray | None = None
    ) -> np.ndarray:
        """Term-at-a-time accumulation of ``_interval_postings`` rows
        into a score array over the doc-id space, one term after the
        other in qi order (tombstoned and ``mask``-excluded docs
        zeroed)."""
        scores = np.zeros(self.space, dtype=np.float64)
        for _, term, qw, d, f in postings:
            scores[d] += self._contrib(
                qw, int(self._dfs[self._row[term]]), f.astype(np.float64),
                self.doc_len[d],
            )
        if self._tomb is not None:
            scores[self._tomb] = 0.0
        if mask is not None:
            scores[~mask] = 0.0
        return scores

    def _top_k(
        self, postings: list, k: int, mask: np.ndarray | None = None,
        theta: float = 0.0,
    ) -> list[tuple[int, float]]:
        """Top-k live docs by the BM25 sums of ``_interval_postings``
        rows, ranking only positive sums >= ``theta`` (a caller passes
        a theta that at least k docs reach). The full searcher
        accumulates into a dense array; a shard group must never
        allocate a doc-id-SPACE-sized one (8 B/doc = ~8 GB per actor at
        10^9 docs), so it sums sparse contributions with the fan-out
        merge kernel instead. Both add in qi order, so the scores are
        bit-identical."""
        if not postings:
            return []
        if self.shard_range is not None:
            got = self._merge_contribs(*self._contribs(postings))
            if got is None:
                return []
            udocs, sums, _ = got
            keep = sums >= theta
            if mask is not None:
                keep &= mask[udocs]
            return _rank(udocs[keep], sums[keep], k)
        scores = self._dense_scores(postings, mask)
        nz = np.flatnonzero(scores >= theta if theta > 0.0 else scores > 0.0)
        return _rank(nz, scores[nz], k)

    def search_exact(
        self, query: str, k: int = 10, mask: np.ndarray | None = None
    ) -> list[tuple[int, float]]:
        """Exact TAAT BM25 top-k. ``mask`` (bool array over the doc-id
        space, True = allowed) restricts the CANDIDATE set without
        changing any statistic — Lucene filter-query semantics: idf,
        avgdl and doc lengths stay corpus-level, the filter only
        masks which docs may appear in results."""
        return self._top_k(
            self._interval_postings(self._query_terms(query)), k, mask
        )

    def search_after(
        self, query: str, k: int = 10,
        after: tuple[float, int] | None = None,
        tiebreak: np.ndarray | None = None,
        mask: np.ndarray | None = None,
    ) -> list[tuple[int, float]]:
        """Cursor-paged exact retrieval — the Elasticsearch
        ``search_after`` deep-pagination contract: return the k
        results ranked strictly AFTER the cursor in
        (round(score, 4) DESC, id ASC) order, without materializing or
        shipping the full ranking (deep pages cost the same one TAAT
        pass + vectorized cursor filter as page one; a from+size
        offset ranking would sort and ship offset+k rows). Ranking
        uses ROUNDED scores so page boundaries are stable and match
        the SQL oracle's ``row_number() OVER (ORDER BY round(score,4)
        DESC, doc_id)`` exactly, including rounded-tie groups
        straddling pages. ``tiebreak`` maps engine ids to the caller's
        public id domain (e.g. original doc ids) so the cursor lives
        in the ids the caller paginates by; ``after`` is the last
        returned (score, id). Returns (id, score) in that domain."""
        scores = self._taat_scores(query, mask)
        if scores is None:
            return []
        nz = np.flatnonzero(scores > 0.0)
        if nz.size == 0:
            return []
        r = np.round(scores[nz], 4)
        tb = tiebreak[nz] if tiebreak is not None else nz
        if after is not None:
            s_a, t_a = after
            sel = (r < s_a) | ((r == s_a) & (tb > t_a))
            tb, r = tb[sel], r[sel]
        return _rank(tb, r, k)

    def _contribs(
        self, postings: list
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(doc_ids:int64[], qi:int64[], contrib:float64[]) rows of
        ``_interval_postings`` output, qi-major."""
        rows = []
        for qi, term, qw, d, f in postings:
            di = d.astype(np.int64)
            rows.append((
                di, np.full(di.size, qi, dtype=np.int64),
                self._contrib(
                    qw, int(self._dfs[self._row[term]]),
                    f.astype(np.float64), self.doc_len[di],
                ),
            ))
        return _concat_rows(rows)

    # ---- the four primitives, answered in-process (one group) -------

    def raw_positions(self, tokens) -> dict:
        """{token: (docs, tfs, occ)} for analyzed ``tokens`` — empty
        arrays on a vocabulary miss (or a token outside this shard
        range); tombstones NOT applied."""
        z64 = np.zeros(0, dtype=np.uint64)
        miss = (z64, np.zeros(0, dtype=np.uint32), z64)
        return {
            t: self._positions_of(t) if t in self._row else miss
            for t in tokens
        }

    def term_docs(self, tokens) -> dict:
        """{token: sorted int64 posting docs} for the analyzed
        ``tokens`` this dictionary holds (absent tokens omitted —
        presence is part of a boolean AND's answer)."""
        return {
            t: self._decode_full(t)[0].astype(np.int64)
            for t in tokens if t in self._row
        }

    def contribs(
        self, qterms: list[tuple[str, float]],
        docs: np.ndarray | None = None,
    ):
        """(doc_ids:int64[], qi:int64[], contrib:float64[]) rows for
        the terms of [(analyzed term, weight)] this dictionary owns:
        qi = the term's index IN ``qterms``, fixed by the caller so
        every shard group labels contributions identically. With
        ``docs`` (sorted), only the rows at those docs."""
        postings = self._interval_postings(qterms)
        if docs is not None:
            postings = [
                (qi, t, qw, *_slice_runs(d, f, docs, docs))
                for qi, t, qw, d, f in postings
            ]
        return self._contribs(postings)

    def _scans(self, kind: str, arg: str, k: int | None = None,
               by_df: bool = True) -> list:
        return [self.dict_scan(kind, arg, k, by_df)]

    def dict_scan(self, kind: str, arg: str, k: int | None = None,
                  by_df: bool = True):
        """This dictionary's share of a dictionary-scan operator over
        the terms matching ``arg`` (a ``_MATCHERS`` kind, or "fuzzy"):
        one vectorized vocabulary-sized scan, one matched-set-sized
        gather. With ``k`` None, the constant-score hits: (docs, number
        of distinct matching terms per doc), tombstones NOT applied
        (each term's doc list is unique, so doc multiplicity is that
        count); else the first k matching (terms, dfs) in
        ``_top_terms`` order, with no postings decode."""
        if kind == "fuzzy":
            rows = self._fuzzy_rows(arg)
        else:
            rows = np.flatnonzero(
                _MATCHERS[kind](self._tbl["term"], arg)
                .to_numpy(zero_copy_only=False)
            )
        terms = self._tbl["term"].take(pa.array(rows, pa.int64())).to_pylist()
        if k is not None:
            return _top_terms([(terms, self._dfs[rows])], k, by_df)
        if not terms:
            z = np.zeros(0, dtype=np.int64)
            return z, z
        return np.unique(
            np.concatenate(
                [self._decode_full(t)[0].astype(np.int64) for t in terms]
            ),
            return_counts=True,
        )

    def _fuzzy_rows(self, q: str) -> np.ndarray:
        """Dictionary row indices of the terms within Levenshtein
        distance 1 of ``q`` (Lucene FuzzyQuery, fixed max-edits=1), via
        ``one_edit_mask`` over the length-filtered vocabulary slice —
        vocabulary-bounded like every multi-term rewrite (Lucene walks
        a Levenshtein automaton over the same term dictionary)."""
        terms = self._tbl["term"]
        lens = pc.utf8_length(terms).to_numpy(zero_copy_only=False)
        cand = np.flatnonzero(np.abs(lens - len(q)) <= 1)
        if cand.size == 0:
            return cand
        return cand[one_edit_mask(
            terms.take(pa.array(cand, pa.int64())).to_pylist(), q
        )]

    def fuzzy_terms(self, q: str) -> list[str]:
        """Dictionary terms within Levenshtein distance 1 of ``q``, in
        dictionary order."""
        return self._tbl["term"].take(
            pa.array(self._fuzzy_rows(q), pa.int64())
        ).to_pylist()

    # ---- block-max pruning -----------------------------------------

    def _decode_blocks(
        self, r: dict, bidx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(docs, tfs) concatenated over the given block indices of one
        term record — the selective-decode primitive: cost scales with
        the blocks touched, not the term's df."""
        nblocks = r["block_last"].size
        counts = np.full(nblocks, r["block_size"], dtype=np.int64)
        counts[-1] = r["df"] - r["block_size"] * (nblocks - 1)
        d_parts, f_parts = [], []
        for kb in bidx:
            d, f = pcodec.decode_one_block(
                r["blob"], int(kb), counts, r["block_gap_offs"],
                r["block_tf_offs"], r["tf_base"], r["block_last"],
                codec=self.config.codec,
            )
            d_parts.append(d)
            f_parts.append(f)
        return np.concatenate(d_parts), np.concatenate(f_parts)

    def _block_intervals(
        self, qterms: list[tuple[str, float]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(hi, bound) for the present terms of ``qterms``: the doc-id
        space cut at the union of their ``block_last`` boundaries —
        interval j holds the doc ids (hi[j-1], hi[j]], the first one
        from 0 — and bound[j], the sum of qw * block_max over the one
        block of each term that spans interval j. No doc in interval j
        can score above bound[j]: this is Ding & Suel's block-max bound
        (SIGIR 2011), applied to doc ranges instead of single docs.
        block_max is rounded UP to float32 at merge time, and adding
        in qi order keeps float rounding monotone."""
        rows = [
            (qw, self._record(t)) for t, qw in qterms if t in self._row
        ]
        hi = np.unique(np.concatenate([r["block_last"] for _, r in rows]))
        bound = np.zeros(hi.size, dtype=np.float64)
        for qw, r in rows:
            b = np.searchsorted(r["block_last"], hi)
            inb = b < r["block_last"].size
            bound[inb] += (
                float(qw) * r["block_max"][b[inb]].astype(np.float64)
            )
        return hi, bound

    def _interval_postings(
        self, qterms: list[tuple[str, float]], theta: float = 0.0,
        iv: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> list[tuple[int, str, float, np.ndarray, np.ndarray]]:
        """[(qi, term, qw, docs, tfs)] — the postings every BM25 path
        scores, for the present terms of ``qterms`` (qi = the term's
        index in ``qterms``), restricted to the ``_block_intervals``
        (``iv``, computed when not given) whose bound is >= ``theta``.

        A doc in a kept interval keeps the postings of every term, so
        its sum is exact; a doc in a dropped interval scores below
        theta. Ties stay: the comparison is deflated by 1e-9 so float
        rounding can only keep more. theta <= 0 prunes nothing and
        skips the interval work. Per term: a cached term is sliced; a
        term whose every block is kept is decoded through
        ``_decode_full`` (which fills the cache); otherwise only the
        kept blocks are decoded."""
        rows = [
            (qi, t, float(qw))
            for qi, (t, qw) in enumerate(qterms) if t in self._row
        ]
        if theta <= 0.0:
            return [
                (qi, t, qw, *self._decode_full(t)) for qi, t, qw in rows
            ]
        if not rows:
            return []
        hi, bound = self._block_intervals(qterms) if iv is None else iv
        keep = bound >= theta * (1.0 - 1e-9)
        # kept doc ranges: runs of consecutive kept intervals
        edge = np.diff(np.concatenate(([0], keep.astype(np.int8), [0])))
        first = np.flatnonzero(edge == 1)
        last = np.flatnonzero(edge == -1) - 1
        run_lo = np.where(first > 0, hi[first - 1] + 1, 0)
        run_hi = hi[last]
        kept_hi = hi[keep]
        out = []
        for qi, t, qw in rows:
            r = self._record(t)
            b = np.unique(np.searchsorted(r["block_last"], kept_hi))
            b = b[b < r["block_last"].size]
            if b.size == 0:
                continue
            if b.size == r["block_last"].size or t in self._dec_cache:
                d, f = self._decode_full(t)
            else:
                d, f = self._decode_blocks(r, b)
            d, f = _slice_runs(d, f, run_lo, run_hi)
            if d.size:
                out.append((qi, t, qw, d, f))
        return out

    def search_wand(
        self, query: str, k: int = 10
    ) -> list[tuple[int, float]]:
        """Block-max top-k: BM25 top-k bit-identical to
        ``search_exact``, scoring only the doc intervals whose
        ``_block_intervals`` bound can reach the k-th score.

        Two upfront shortcuts answer through ``search_exact``, because
        pruning cannot pay for itself there: the terms hold at most
        ``_WAND_MIN_POSTINGS`` postings, or the rarest term is in more
        than ``_WAND_MAX_DF_FRAC`` of the live docs. Otherwise
        ``_interval_top_k`` answers.
        """
        qterms = self._query_terms(query)
        if not qterms:
            return []
        dfs = [int(self._dfs[self._row[t]]) for t, _ in qterms]
        if (
            sum(dfs) <= _WAND_MIN_POSTINGS
            or min(dfs) > _WAND_MAX_DF_FRAC * self.n_docs
        ):
            return self.search_exact(query, k)
        return self._interval_top_k(qterms, k)

    def _interval_top_k(
        self, qterms: list[tuple[str, float]], k: int
    ) -> list[tuple[int, float]]:
        """``search_wand``'s pruned path over present [(term, qw)]:

        1. seed theta with the exact, live-only k-th score over the
           highest-bound intervals that together cover at least
           ``_WAND_SEED_IDS_PER_HIT`` * k doc ids (0 when they hold
           fewer than k positive scores) — the seeded threshold of SAP
           (ICDE 2018);
        2. keep every interval whose bound is >= theta (ties stay);
        3. score the kept intervals with ``search_exact``'s per-term
           accumulation and rank the docs scoring >= theta. Every doc
           scoring >= theta sits in a kept interval with all of its
           postings, and the seed docs put k of them there, so the
           top-k and its scores are exact.
        """
        iv = hi, bound = self._block_intervals(qterms)
        order = np.argsort(-bound, kind="stable")
        covered = np.cumsum(np.diff(hi, prepend=-1)[order])
        j = min(
            int(np.searchsorted(covered, k * _WAND_SEED_IDS_PER_HIT)),
            order.size - 1,
        )
        seed = self._top_k(
            self._interval_postings(qterms, float(bound[order[j]]), iv), k
        )
        theta = seed[-1][1] if len(seed) == k > 0 else 0.0
        return self._top_k(
            self._interval_postings(qterms, theta, iv), k, theta=theta
        )


def _layered_sums(
    docs: np.ndarray, qis: np.ndarray, cs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-doc contribution sums in query-term (qi) order, with
    strictly SEQUENTIAL left-to-right adds (layered adds across
    segments, one layer per query-term slot): reduceat /
    add.reduce use unrolled/pairwise accumulation, which differs
    from the single searcher's ((c0+c1)+c2) binary-add order in
    the last ulp — and bit-identity is the contract. Returns (docs,
    sums, rows per doc) — the row count is the number of distinct
    terms a doc matched."""
    order = np.lexsort((qis, docs))
    d, c = docs[order], cs[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(d)) + 1))
    seg_lens = np.diff(np.concatenate((starts, [d.size])))
    sums = c[starts].copy()
    for kk in range(1, int(seg_lens.max())):
        m = seg_lens > kk
        sums[m] += c[starts[m] + kk]
    return d[starts], sums, seg_lens


class _GroupServer(Searcher):
    """Ray actor body: a shard-range ``Searcher`` (one dictionary shard
    group, loaded once) answering the fan-out's primitives, plus the
    group side of the distributed-WAND threshold exchange.

    The exchange's methods are defined here, not inherited: Ray wraps
    every method of an actor class in the driver and ships the
    wrappers by value, so a driver-side wrapper installed on this
    class (``perfbench/trace.py`` wraps ``wand_bootstrap`` and
    ``survivor_contribs``) is shipped by reference only when it is
    importable under its own ``_GroupServer`` name."""

    def wand_bootstrap(self, query: str, k: int):
        """(ub_sum, local_topk_docs, local_scores): the group's share
        of the global score upper bound (qw * max_score over the query
        terms it owns) plus a k-bounded candidate seed from group-local
        block-max WAND. The local scores are exact sums over THIS
        group's terms only, i.e. LOWER bounds on the docs' true scores
        (contributions are non-negative) — the coordinator may sum them
        across groups into a sound pruning threshold without a rescore
        round."""
        ub = float(sum(
            qw * float(self._record(t)["max_score"])
            for t, qw in self._query_terms(query)
        ))
        hits = self.search_wand(query, k)
        return (
            ub,
            np.array([d for d, _ in hits], dtype=np.int64),
            np.array([s for _, s in hits], dtype=np.float64),
        )

    def wand_bootstrap_many(self, queries, k: int):
        """Batched bootstrap: ONE RPC carries every query of a serving
        batch that this group owns."""
        return [self.wand_bootstrap(q, k) for q in queries]

    def survivor_contribs(self, query: str, theta_g: float):
        """``search_contribs`` restricted to the intervals whose bound
        over THIS group's terms reaches the fan-out coordinator's
        group-effective threshold ``theta_g`` = theta - R_g, where R_g
        upper-bounds every OTHER group's terms. A doc with true score
        >= theta has local score >= theta_g, so its interval is kept
        and its local contributions are all returned; theta_g <= 0
        (other groups' mass alone can reach theta, or no theta at all)
        prunes nothing."""
        return self._contribs(self._interval_postings(
            _first_appearance(self.tok.tokens_of(query)), theta_g
        ))

    def survivor_contribs_many(self, queries, thetas):
        """Batched survivor round: ONE RPC carries every query of the
        batch with its ``theta_g``."""
        return [
            self.survivor_contribs(q, th) for q, th in zip(queries, thetas)
        ]

    def load_stats(self) -> dict:
        return {
            "n_terms": self.n_terms_loaded,
            "dict_bytes": self.dict_bytes_loaded,
            # 0 when doc_len is served from the memory-mapped sidecar:
            # the actor's heap holds NO doc-id-space-sized array
            "doclen_bytes_inheap": self.doclen_bytes_inheap,
            "load_sec": self.load_sec,
        }


def group_bounds(num_term_shards: int, n_groups: int) -> list[tuple[int, int]]:
    """``n_groups`` contiguous shard ranges tiling [0, S) (capped at S
    groups), their sizes differing by at most one."""
    S = num_term_shards
    n = max(1, min(n_groups, S))
    return [(i * S // n, (i + 1) * S // n) for i in range(n)]


class FanoutSearcher(_Operators):
    """Sharded serving: queries fan out to one ``_GroupServer`` actor
    per dictionary shard group (each holding ONLY its shards —
    per-actor memory scales with the group, the ES-style sharded-index
    analog of ElasticOperations.scala:91-97). The shared operators run
    here on the four primitives, routed to the group owning each
    analyzed token's hash shard (``term_shard_of``), or to every group
    for dictionary scans; match-set operators send their match docs to
    the owning groups and get back only the contributions there.

    The merge is BIT-IDENTICAL to a full-dictionary
    ``Searcher.search_exact``: contributions are sorted by (doc_id,
    query-term index) and summed left-to-right per doc — the same
    float64 accumulation order as the single searcher's term-at-a-time
    loop. Top-k serving can also prune: ``search_wand_many`` runs the
    threshold-exchange protocol (group-local block-max seeds -> a
    lower-bound theta -> per-group interval pruning with
    ``_GroupServer.survivor_contribs``, the single searcher's kernel), so
    hot-query cost no longer grows with df the way exact TAAT does."""

    def __init__(self, index_dir: str, n_groups: int = 4, actors=None):
        import ray

        with open(os.path.join(index_dir, "config.json")) as f:
            self.config = IndexConfig.from_json(f.read())
        with open(os.path.join(index_dir, "stats.json")) as f:
            self.stats = json.load(f)
        self.tok = CodeTokenizer(self.config.tokenizer)
        self.space = int(
            self.stats.get("doc_id_space", self.stats["n_docs"])
        )
        self.bounds = group_bounds(self.config.num_term_shards, n_groups)
        self._load_tombstones(index_dir)
        if actors is None:
            # num_cpus=0: group servers are IO/lookup-bound between
            # short decode bursts; reserving whole CPUs for them can
            # deadlock a small session when they coexist with an
            # actor-pool stage (a real cluster would give each group
            # its own node-level resources instead)
            cls = ray.remote(num_cpus=0)(_GroupServer)
            actors = [
                cls.remote(index_dir, shard_range=b) for b in self.bounds
            ]
        self.actors = actors

    def _group_of_token(self, tok: str) -> int:
        """The shard group owning an analyzed token's hash shard — the
        one shard -> group routing rule."""
        from sotohp_ray.functions.hashing import term_shard_of

        s = term_shard_of(tok, self.config.num_term_shards)
        for gi, (lo, hi) in enumerate(self.bounds):
            if lo <= s < hi:
                return gi
        raise AssertionError("shard outside every group range")

    def _groups_for(self, tokens) -> list[int]:
        """Sorted ids of the groups owning any of ``tokens``."""
        return sorted({self._group_of_token(t) for t in tokens})

    # ---- the four primitives, routed to the owning groups -----------

    def _routed(self, method: str, tokens) -> dict:
        """The merged {token: ...} replies of the group method
        ``method``, each owning group asked once for its tokens."""
        import ray

        by_group: dict[int, list[str]] = {}
        for t in dict.fromkeys(tokens):
            by_group.setdefault(self._group_of_token(t), []).append(t)
        got: dict = {}
        for part in ray.get([
            getattr(self.actors[g], method).remote(ts)
            for g, ts in by_group.items()
        ]):
            got.update(part)
        return got

    def raw_positions(self, tokens) -> dict:
        return self._routed("raw_positions", tokens)

    def term_docs(self, tokens) -> dict:
        return self._routed("term_docs", tokens)

    def contribs(
        self, qterms: list[tuple[str, float]],
        docs: np.ndarray | None = None,
    ):
        import ray

        return _concat_rows(ray.get([
            self.actors[g].contribs.remote(qterms, docs)
            for g in self._groups_for(t for t, _ in qterms)
        ]))

    def _scans(self, kind: str, arg: str, k: int | None = None,
               by_df: bool = True) -> list:
        import ray

        return ray.get(
            [a.dict_scan.remote(kind, arg, k, by_df) for a in self.actors]
        )

    # ---- exact, paged and weighted top-k ----------------------------

    def _ranked(self, rows, k: int) -> list[tuple[int, float]]:
        got = self._merge_contribs(*rows)
        return [] if got is None else _rank(got[0], got[1], k)

    def search_exact(self, query: str, k: int = 10):
        return self._ranked(self.search_contribs(query), k)

    def search_terms_weighted(
        self, qterms: list[tuple[str, float]], k: int = 10,
    ) -> list[tuple[int, float]]:
        """Distributed retrieval over an EXPLICIT weighted term list —
        the fan-out twin of ``Searcher._taat_scores_terms`` and the
        serving primitive for every query REWRITER (synonym expansion,
        more-like-this keyword sets, curriculum probes), with scores
        bit-identical to the single searcher's sequential term
        accumulation."""
        return self._ranked(self.contribs(qterms), k)

    def search_after(
        self, query: str, k: int = 10,
        after: tuple[float, int] | None = None,
        tiebreak: np.ndarray | None = None,
    ) -> list[tuple[int, float]]:
        """Cursor-paged retrieval through the shard fan-out — the same
        (round(score,4) DESC, id ASC) page contract as the single
        Searcher's search_after. Per-group contributions fan out once
        per page; the layered sums reproduce the single searcher's
        float accumulation order, so rounded scores — and therefore
        page boundaries — are bit-identical (pytest-enforced)."""
        got = self._merge_contribs(*self.search_contribs(query))
        if got is None:
            return []
        udocs, sums, _ = got
        r = np.round(sums, 4)
        tb = tiebreak[udocs] if tiebreak is not None else udocs
        if after is not None:
            s_a, t_a = after
            sel = (r < s_a) | ((r == s_a) & (tb > t_a))
            r, tb = r[sel], tb[sel]
        return _rank(tb, r, k)

    # ---- distributed block-max WAND ----------------------------------

    def search_wand(self, query: str, k: int = 10):
        """``search_wand_many`` for one query: the same two RPC
        rounds."""
        return self.search_wand_many([query], k)[0]

    def _group_thresholds(self, boots, k: int):
        """Per-group effective thresholds from the bootstrap replies.
        theta without a rescore round: a seed doc's local scores sum
        (across the groups that seeded it) is a LOWER bound on its
        true score, so the k-th largest summed bound lower-bounds the
        final k-th score — one fewer RPC round per query than the
        rescore-the-seeds protocol, at slightly looser (still sound)
        pruning. Returns None when no query term exists anywhere;
        zeros when pruning has no lower bound to work against (fewer
        than k positive seeds: the survivor scan then returns every
        contribution); else the per-group theta - R_g values
        (eps-loosened — float safety may only ever LOOSEN a
        threshold)."""
        ubs = np.array([b[0] for b in boots], dtype=np.float64)
        total_ub = float(ubs.sum())
        if total_ub <= 0.0:
            return None
        alldocs = np.concatenate(
            [b[1] for b in boots] + [np.zeros(0, dtype=np.int64)]
        )
        allsc = np.concatenate(
            [b[2] for b in boots] + [np.zeros(0, dtype=np.float64)]
        )
        theta = 0.0
        if alldocs.size:
            ud, inv = np.unique(alldocs, return_inverse=True)
            lower = np.zeros(ud.size, dtype=np.float64)
            np.add.at(lower, inv, allsc)
            lower = lower[self._live_mask(ud)]
            if lower.size >= k:
                theta = float(np.sort(lower)[::-1][k - 1])
        if theta <= 0.0:
            return [0.0] * len(boots)
        eps = 1e-9 * total_ub + 1e-12
        return [
            theta - (total_ub - float(ubs[i])) - eps
            for i in range(len(boots))
        ]

    def search_wand_many(self, queries, k: int = 10):
        """Distributed block-max WAND over the TERM-partitioned fan-out
        for a whole serving batch, in two RPC rounds per batch (the
        threshold-exchange shape of Lucene's distributed BMW;
        reference analog: ES sharded top-k with score thresholds,
        ElasticOperations.scala:91-97):

        1. bootstrap — each group gets ONE ``wand_bootstrap_many``
           carrying every query it owns a term of, and returns per
           query its local block-max WAND top-k (doc ids + exact LOCAL
           scores) plus its share of the global upper bound;
        2. the coordinator sums each seed doc's local scores across
           the groups that returned it — a LOWER bound on its true
           score, since contributions are non-negative — and sets
           theta = the k-th largest bound (sound: those k docs each
           truly score >= theta, so the final k-th score does too);
        3. theta goes back as per-group effective thresholds
           theta - R_g (R_g = the other groups' upper-bound mass) in
           ONE ``survivor_contribs_many`` per group; each group returns
           exact contributions only for the doc intervals whose bound
           over its terms reaches theta - R_g
           (``_GroupServer.survivor_contribs``, the single searcher's
           interval kernel), or all of them for a query with fewer
           than k positive seeds (theta 0: nothing to prune
           against);
        4. each query's rows merge through the same layered qi-ordered
           sums as search_exact — scores stay bit-identical to the
           single searcher (pytest-enforced).

        Soundness: for any doc with true score >= theta,
        s_g + R_g >= score >= theta holds in EVERY group, so each
        group's survivor scan covers all of that doc's local postings;
        docs the scan drops are provably below theta, and at least k
        exactly-scored docs sit at or above it."""
        import ray

        gids_per = [
            self._groups_for(self.tok.tokens_of(q)) for q in queries
        ]
        owned: dict[int, list[int]] = {}
        for i, gids in enumerate(gids_per):
            for g in gids:
                owned.setdefault(g, []).append(i)
        results: list[list] = [[] for _ in queries]
        if not owned:
            return results
        # ---- RPC round 1: batched bootstrap, one call per group ----
        boots_of: dict[tuple[int, int], tuple] = {}
        for g, blist in zip(owned, ray.get([
            self.actors[g].wand_bootstrap_many.remote(
                [queries[i] for i in idx], k
            )
            for g, idx in owned.items()
        ])):
            boots_of.update(((i, g), b) for i, b in zip(owned[g], blist))
        # ---- per-query thresholds (driver-side, no RPC) ----
        plan: dict[int, list[tuple[int, float]]] = {}
        for i, gids in enumerate(gids_per):
            if not gids:
                continue
            thetas = self._group_thresholds(
                [boots_of[(i, g)] for g in gids], k
            )
            if thetas is None:
                continue  # no term exists: []
            for g, th in zip(gids, thetas):
                plan.setdefault(g, []).append((i, th))
        if not plan:
            return results
        # ---- RPC round 2: batched survivor scan, one call per group
        parts_of: dict[int, list] = {}
        for g, plist in zip(plan, ray.get([
            self.actors[g].survivor_contribs_many.remote(
                [queries[i] for i, _ in p], [th for _, th in p]
            )
            for g, p in plan.items()
        ])):
            for (i, _), rows in zip(plan[g], plist):
                parts_of.setdefault(i, []).append(rows)
        for i, parts in parts_of.items():
            results[i] = self._ranked(_concat_rows(parts), k)
        return results

    def load_stats(self) -> list[dict]:
        import ray

        return ray.get([a.load_stats.remote() for a in self.actors])


def _main() -> None:
    """CLI for ``python -m sotohp_ray.pipelines.query INDEX 'terms...'``
    (the serving entry point; reference analog: the API's search
    routes, ApiApp.scala:706-791)."""
    import argparse
    import time

    p = argparse.ArgumentParser(description="Top-k BM25 query")
    p.add_argument("index_dir")
    p.add_argument("query")
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--mode", choices=("wand", "exact"), default="wand")
    p.add_argument("--repeat", type=int, default=1,
                   help="repeat for latency measurement")
    args = p.parse_args()
    s = Searcher(args.index_dir)
    lats = []
    results = []
    for _ in range(args.repeat):
        t0 = time.perf_counter()
        results = s.search(args.query, k=args.k, mode=args.mode)
        lats.append(time.perf_counter() - t0)
    out = {
        "query": args.query,
        "mode": args.mode,
        "results": [
            {"doc_id": d, "score": round(sc, 6)} for d, sc in results
        ],
        "latency_ms_p50": round(
            1000 * sorted(lats)[len(lats) // 2], 3
        ),
    }
    print(json.dumps(out))


if __name__ == "__main__":
    _main()
