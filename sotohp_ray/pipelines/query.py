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
    """Phrase-alignment kernel shared by Searcher and FanoutSearcher
    (bit-identity between the two paths is pytest-enforced — ONE
    definition so a fix can't land on only one copy). ``pos_list`` is
    [(docs, tfs, occ)] per token offset; each term's (doc,
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
    """Proximity kernel shared by Searcher and FanoutSearcher: docs
    where the two terms occur within ``window`` positions (either
    order). Each a-occurrence probes the sorted (doc<<32|pos) key
    array of b with one searchsorted; its two neighbors are the only
    possible within-window partners. Returns sorted unique matching
    doc ids (pre-tombstone)."""
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


def _boolean_combine(sets: list, mode: str) -> np.ndarray:
    """Boolean set algebra shared by Searcher and FanoutSearcher:
    ``sets`` holds each present term's sorted doc array. OR is one
    concat + unique (beats T incremental union re-sorts); AND
    intersects smallest-first so cost is bounded by the rarest
    term."""
    if mode == "or":
        return np.unique(np.concatenate(sets))
    sets = sorted(sets, key=len)
    out = sets[0]
    for d in sets[1:]:
        out = out[np.isin(out, d, assume_unique=True, kind="sort")]
        if out.size == 0:
            break
    return out


def _min_should_match(got, m: int, k: int) -> list[tuple[int, float, int]]:
    """Top-k (doc, round(score, 4), n_matched) over ``_merge_contribs``
    output, restricted to docs matching at least ``m`` distinct terms
    and ranked by (round(score,4) DESC, doc_id ASC)."""
    if got is None:
        return []
    udocs, sums, nmatch = got
    keep = nmatch >= m
    udocs, r, nmatch = udocs[keep], np.round(sums[keep], 4), nmatch[keep]
    top = np.lexsort((udocs, -r))[:k]
    return [(int(udocs[i]), float(r[i]), int(nmatch[i])) for i in top]


class _LiveFilter:
    """Tombstone filtering and the contribution merge, shared by
    ``Searcher`` and ``FanoutSearcher``. Tombstones are logical deletes
    not yet compacted: excluded from every result, while surviving
    docs score with pre-delete stats until compact_index runs (the
    Lucene deleted-docs contract). They are held as a SORTED id array,
    not a doc-id-space-sized bool mask: the mask costs 1 B/doc per
    searcher (1 GB per actor at 10^9 docs) while the set is
    deletion-sized; membership is a searchsorted."""

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
        one merge behind sparse exact, paged, min-should-match and
        distributed-WAND retrieval."""
        if docs.size == 0:
            return None
        udocs, sums, nterms = _layered_sums(docs, qis, cs)
        keep = self._live_mask(udocs) & (sums > 0.0)
        if not keep.any():
            return None
        return udocs[keep], sums[keep], nterms[keep]


class Searcher(_LiveFilter):
    """Loads the dictionary + doc lengths once (init-once worker state).

    Two scopes:
    - full (``shard_range=None``): every dictionary shard — the
      single-replica serving object (phrase/proximity/WAND need the
      whole vocabulary present to distinguish "term not in corpus"
      from "term not in my shards").
    - shard group (``shard_range=(lo, hi)``): ONLY the dictionary
      shards with ``lo <= term_shard < hi`` are read and held — the
      per-actor memory footprint scales with the group, not the
      corpus vocabulary. Group searchers serve per-term score
      contributions (``search_contribs``) that a ``FanoutSearcher``
      merges bit-identically to full-dictionary ``search_exact``.
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

    _POS_SHIFT = _POS_SHIFT  # phrase-alignment key = doc << 32 | pos

    def search_phrase(self, phrase: str, k: int = 10) -> list[tuple[int, float]]:
        """Exact phrase search: documents containing the analyzed
        phrase tokens at consecutive positions, ranked by BM25 over the
        phrase terms (same rounding/tie-break contract as exact
        search). Alignment kernel: ``_phrase_align`` (shared with the
        fan-out path)."""
        toks = self.tok.tokens_of(phrase)
        if not toks or any(t not in self._row for t in toks):
            return []
        match_docs = _phrase_align(
            [self._positions_of(t) for t in toks], len(toks)
        )
        if match_docs.size:
            match_docs = match_docs[self._live_mask(match_docs)]
        if match_docs.size == 0:
            return []
        # BM25 over the phrase terms, restricted to matching docs
        scores = np.zeros(match_docs.size, dtype=np.float64)
        for term, qw in self._query_terms(phrase):
            docs, tfs = self._decode_full(term)
            idx = np.searchsorted(docs, match_docs.astype(np.uint64))
            tf = tfs[idx].astype(np.float64)
            scores += self._contrib(
                qw, int(self._dfs[self._row[term]]), tf,
                self.doc_len[match_docs],
            )
        return _rank(match_docs, scores, k)

    def search_span_near(
        self, term_a: str, term_b: str, window: int = 3, k: int = 10
    ) -> list[tuple[int, float]]:
        """ORDERED span-near (Lucene span_near in_order=true): docs
        where ``term_b`` follows ``term_a`` within ``window``
        positions, ranked by BM25 over the two terms — the
        direction-sensitive sibling of search_proximity ("hash join"
        near-misses where only "join ... hash" appears). Kernel:
        ``_span_near_ordered_match`` (shared with the fan-out
        path)."""
        ta = self.tok.tokens_of(term_a)
        tb = self.tok.tokens_of(term_b)
        if len(ta) != 1 or len(tb) != 1:
            raise ValueError("span terms must analyze to one token")
        a, b = ta[0], tb[0]
        if a not in self._row or b not in self._row:
            return []
        match_docs = _span_near_ordered_match(
            self._positions_of(a), self._positions_of(b), window
        )
        if match_docs.size:
            match_docs = match_docs[self._live_mask(match_docs)]
        if match_docs.size == 0:
            return []
        scores = np.zeros(match_docs.size, dtype=np.float64)
        for term, qw in self._query_terms(f"{term_a} {term_b}"):
            docs, tfs = self._decode_full(term)
            i2 = np.searchsorted(docs, match_docs.astype(np.uint64))
            scores += self._contrib(
                qw, int(self._dfs[self._row[term]]),
                tfs[i2].astype(np.float64), self.doc_len[match_docs],
            )
        return _rank(match_docs, scores, k)

    def prefix_terms(
        self, prefix: str, max_expansions: int = 50
    ) -> list[str]:
        """The first ``max_expansions`` dictionary terms starting with
        ``prefix``, in TERM order — the deterministic multi-term
        expansion list (the ES expansion cap is part of the query
        contract, so the cap rule must be order-stable)."""
        if not prefix:
            raise ValueError("empty prefix")
        hits = pc.starts_with(self._tbl["term"], prefix)
        idx = np.flatnonzero(hits.to_numpy(zero_copy_only=False))
        if idx.size == 0:
            return []
        terms = self._tbl["term"].take(
            pa.array(idx, pa.int64())
        ).to_pylist()
        return sorted(terms)[:max_expansions]

    def search_phrase_prefix(
        self, phrase: str, max_expansions: int = 50, k: int = 10
    ) -> list[tuple[int, float]]:
        """ES ``match_phrase_prefix`` (search-as-you-type): the
        analyzed phrase must appear at consecutive positions with its
        LAST token as a PREFIX of the final term. The prefix expands
        to the first ``max_expansions`` dictionary terms in term order
        (prefix_terms), each expansion runs the shared phrase-align
        kernel, and the match sets union. Ranking: BM25 over the FIXED
        leading terms only — expansions gate the match but do not
        perturb the score, so ranking stays stable keystroke to
        keystroke (and the oracle shares the exact contract)."""
        toks = self.tok.tokens_of(phrase)
        if len(toks) < 2:
            raise ValueError(
                "phrase_prefix needs >= 2 analyzed tokens"
            )
        lead, pfx = toks[:-1], toks[-1]
        if any(t not in self._row for t in lead):
            return []
        lead_pos = [self._positions_of(t) for t in lead]
        parts = []
        for e in self.prefix_terms(pfx, max_expansions):
            md = _phrase_align(
                lead_pos + [self._positions_of(e)], len(toks)
            )
            if md.size:
                parts.append(md)
        if not parts:
            return []
        match_docs = np.unique(np.concatenate(parts))
        match_docs = match_docs[self._live_mask(match_docs)]
        if match_docs.size == 0:
            return []
        scores = np.zeros(match_docs.size, dtype=np.float64)
        for term, qw in self._query_terms(" ".join(lead)):
            docs, tfs = self._decode_full(term)
            idx = np.searchsorted(docs, match_docs.astype(np.uint64))
            scores += self._contrib(
                qw, int(self._dfs[self._row[term]]),
                tfs[idx].astype(np.float64), self.doc_len[match_docs],
            )
        return _rank(match_docs, scores, k)

    def search_proximity(
        self, term_a: str, term_b: str, window: int = 3, k: int = 10
    ) -> list[tuple[int, float]]:
        """Proximity search: docs where ``term_a`` and ``term_b`` occur
        within ``window`` token positions (either order), ranked by
        BM25 over the two terms. Neighbor-probe kernel:
        ``_proximity_match`` (shared with the fan-out path)."""
        ta = self.tok.tokens_of(term_a)
        tb = self.tok.tokens_of(term_b)
        if len(ta) != 1 or len(tb) != 1:
            raise ValueError("proximity terms must analyze to one token")
        a, b = ta[0], tb[0]
        if a not in self._row or b not in self._row:
            return []
        match_docs = _proximity_match(
            self._positions_of(a), self._positions_of(b), window
        )
        if match_docs.size:
            match_docs = match_docs[self._live_mask(match_docs)]
        if match_docs.size == 0:
            return []
        scores = np.zeros(match_docs.size, dtype=np.float64)
        for term, qw in self._query_terms(f"{term_a} {term_b}"):
            docs, tfs = self._decode_full(term)
            i2 = np.searchsorted(docs, match_docs.astype(np.uint64))
            scores += self._contrib(
                qw, int(self._dfs[self._row[term]]),
                tfs[i2].astype(np.float64), self.doc_len[match_docs],
            )
        return _rank(match_docs, scores, k)

    def _contrib(self, qw: float, df: int, tf, dl):
        k1, b = self.config.bm25.k1, self.config.bm25.b
        idf = self._idf(df)
        denom = tf + k1 * (1.0 - b + b * dl / self.avgdl)
        return qw * idf * (tf * (k1 + 1.0)) / denom

    # ---- exact (term-at-a-time) ------------------------------------

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
        t = toks[0]
        if t not in self._row:
            z64 = np.zeros(0, dtype=np.uint64)
            return z64, np.zeros(0, dtype=np.uint32), z64
        docs, tfs, occ = self._positions_of(t)
        if self._tomb is not None and docs.size:
            live = self._live_mask(docs)
            if not live.all():
                keep_occ = np.repeat(live, tfs.astype(np.int64))
                docs, tfs, occ = docs[live], tfs[live], occ[keep_occ]
        return docs, tfs, occ

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
        return _min_should_match(
            self._merge_contribs(*self.search_contribs(query)), m, k
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
        if not postings:
            z = np.zeros(0, dtype=np.int64)
            return z, z, np.zeros(0, dtype=np.float64)
        d_parts, q_parts, c_parts = [], [], []
        for qi, term, qw, d, f in postings:
            di = d.astype(np.int64)
            d_parts.append(di)
            q_parts.append(np.full(di.size, qi, dtype=np.int64))
            c_parts.append(self._contrib(
                qw, int(self._dfs[self._row[term]]),
                f.astype(np.float64), self.doc_len[di],
            ))
        return (
            np.concatenate(d_parts),
            np.concatenate(q_parts),
            np.concatenate(c_parts),
        )

    def contribs_terms(self, qterms: list[tuple[str, float]]):
        """``search_contribs`` for an EXPLICIT [(analyzed term,
        weight)] list (the _taat_scores_terms entry point made
        fan-out-servable): qi = the term's index IN THE PASSED LIST,
        fixed by the caller so every shard group labels contributions
        identically; only terms this dictionary owns (and that fall in
        this searcher's shard range) emit rows."""
        return self._contribs(self._interval_postings(qterms))

    def search_contribs(self, query: str):
        """Per-term BM25 contributions for the query terms THIS
        searcher's dictionary owns: (doc_ids:int64[], qi:int64[],
        contrib:float64[]), where ``qi`` is the term's first-appearance
        index over the whole analyzed query (computed identically by
        every shard group, so merged contributions sorted by (doc, qi)
        and summed left-to-right reproduce ``search_exact``'s float64
        accumulation order bit-for-bit). Tombstone filtering happens at
        the merge — the fan-out layer holds the (small) tombstone set."""
        return self.contribs_terms(
            _first_appearance(self.tok.tokens_of(query))
        )

    # ---- block-max pruning -----------------------------------------

    def query_ub(self, query: str) -> float:
        """Sum of qw * max_score over the query terms THIS searcher's
        dictionary owns — the global per-term score upper bounds the
        fan-out WAND coordinator turns into per-group remainders."""
        return float(sum(
            qw * float(self._record(t)["max_score"])
            for t, qw in self._query_terms(query)
        ))

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

    def survivor_contribs(self, query: str, theta_g: float):
        """``search_contribs`` restricted to the intervals whose bound
        over THIS group's terms reaches the fan-out coordinator's
        group-effective threshold ``theta_g`` = theta - R_g, where R_g
        upper-bounds every OTHER group's terms. A doc with true score
        >= theta has local score >= theta_g, so its interval is kept
        and its local contributions are all returned; theta_g <= 0
        (other groups' mass alone can reach theta) prunes nothing."""
        return self._contribs(self._interval_postings(
            _first_appearance(self.tok.tokens_of(query)), theta_g
        ))

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

    def search_boolean(
        self, query: str, mode: str = "and", exclude: str | None = None
    ) -> np.ndarray:
        """Unranked boolean retrieval over the inverted index: sorted
        doc_ids containing ALL (``and``) or ANY (``or``) analyzed
        query terms — the index-backed counterpart of the reference's
        naive forall-contains scan (MediaServiceLive.scala:108-112).
        ``exclude`` subtracts docs containing ANY of its analyzed
        terms (Lucene MUST_NOT). Set algebra over decoded posting doc
        arrays (each sorted), so cost is bounded by the query terms'
        df, not the corpus."""
        if mode not in ("and", "or"):
            raise ValueError(f"mode must be 'and' or 'or', got {mode!r}")
        seen = list(dict.fromkeys(self.tok.tokens_of(query)))
        present = [t for t in seen if t in self._row]
        if mode == "and" and len(present) != len(seen):
            return np.zeros(0, dtype=np.int64)  # a term matches nothing
        if not present:
            return np.zeros(0, dtype=np.int64)
        sets = []
        for t in present:
            d, _ = self._decode_full(t)
            sets.append(d.astype(np.int64))
        out = _boolean_combine(sets, mode)
        if exclude and out.size:
            ex = [
                t for t in dict.fromkeys(self.tok.tokens_of(exclude))
                if t in self._row
            ]
            if ex:
                ex_docs = np.unique(np.concatenate(
                    [self._decode_full(t)[0].astype(np.int64) for t in ex]
                ))
                out = out[~np.isin(
                    out, ex_docs, assume_unique=True, kind="sort"
                )]
        if out.size:
            out = out[self._live_mask(out)]
        return out

    def search_prefix(self, prefix: str) -> tuple[np.ndarray, np.ndarray]:
        """Wildcard (``prefix*``) retrieval: (doc_ids, n_terms) —
        sorted docs containing ANY dictionary term starting with
        ``prefix``, with the count of DISTINCT matching terms each doc
        contains (Lucene MultiTermQuery's constant-score shape; no
        per-term scoring). The dictionary is scanned once with a
        vectorized ``starts_with`` — cost is vocabulary-sized, then
        bounded by the matched terms' total df. With shard-group scope
        the scan covers only the group's terms (term->shard routing is
        hash-based, so prefix queries need the full searcher or a
        fan-out union across every group)."""
        if not prefix:
            raise ValueError("empty prefix")
        return self._constant_score_scan(
            pc.starts_with(self._tbl["term"], prefix)
        )

    def _constant_score_scan(
        self, hits
    ) -> tuple[np.ndarray, np.ndarray]:
        """Shared tail of every dictionary-scan multi-term rewrite
        (prefix, infix): one vectorized dictionary gather
        (matched-set-sized), per-term postings decode — no per-element
        Arrow .as_py() — then a doc-multiplicity union (each term's
        doc list is unique, so multiplicity == the
        distinct-matching-term count) and the tombstone mask."""
        idx = np.flatnonzero(hits.to_numpy(zero_copy_only=False))
        if idx.size == 0:
            z = np.zeros(0, dtype=np.int64)
            return z, z
        matched = self._tbl["term"].take(
            pa.array(idx, pa.int64())
        ).to_pylist()
        parts = [self._decode_full(t)[0].astype(np.int64) for t in matched]
        docs, counts = np.unique(np.concatenate(parts), return_counts=True)
        if self._tomb is not None and docs.size:
            live = self._live_mask(docs)
            docs, counts = docs[live], counts[live]
        return docs, counts.astype(np.int64)

    def search_contains(self, substr: str) -> tuple[np.ndarray, np.ndarray]:
        """Infix wildcard (``*substr*``) retrieval: (doc_ids, n_terms)
        — docs containing ANY dictionary term with ``substr`` as a
        substring, with distinct-matching-term counts (the Lucene
        WildcardQuery shape beside ``search_prefix``; same vectorized
        dictionary scan, same constant-score rewrite, same shard-group
        caveat: infix queries need the full searcher or a fan-out
        union, term->shard routing being hash-based)."""
        if not substr:
            raise ValueError("empty substring")
        return self._constant_score_scan(
            pc.match_substring(self._tbl["term"], substr)
        )

    def search_suffix(self, suffix: str) -> tuple[np.ndarray, np.ndarray]:
        """Leading-wildcard (``*suffix``) retrieval: (doc_ids, n_terms)
        — docs containing ANY dictionary term ending with ``suffix``,
        with distinct-matching-term counts. ES serves this by indexing
        a REVERSED copy of each token so the leading wildcard becomes
        a prefix scan (the reverse-token analyzer technique); this
        dictionary's multi-term rewrites are already one vectorized
        vocabulary-sized kernel, so ``ends_with`` over the term column
        IS the reversed-prefix scan (same cost as ``search_prefix``,
        no second dictionary copy to keep in sync). Same constant-score
        rewrite and shard-group caveat as prefix/infix: suffix matches
        hash anywhere, so group scope needs a fan-out union."""
        if not suffix:
            raise ValueError("empty suffix")
        return self._constant_score_scan(
            pc.ends_with(self._tbl["term"], suffix)
        )

    def search_regex(self, pattern: str) -> tuple[np.ndarray, np.ndarray]:
        """Regex retrieval (Lucene RegexpQuery shape): (doc_ids,
        n_terms) — docs containing ANY dictionary term matching
        ``pattern`` (RE2 partial-match, i.e. unanchored unless the
        pattern anchors itself), with distinct-matching-term counts.
        Fourth member of the multi-term rewrite family beside prefix,
        infix and fuzzy — same vectorized dictionary scan
        (``pc.match_substring_regex`` compiles RE2 once per call),
        same constant-score rewrite, same shard-group caveat (regex
        matches can hash anywhere: full searcher or fan-out union).
        Oracle parity is exact because DuckDB's ``regexp_matches`` is
        the same RE2 engine with the same partial-match contract."""
        if not pattern:
            raise ValueError("empty pattern")
        return self._constant_score_scan(
            pc.match_substring_regex(self._tbl["term"], pattern)
        )

    def suggest(self, prefix: str, k: int = 10):
        """Completion suggester: the top-k dictionary terms starting
        with ``prefix``, ranked by document frequency (df desc, term
        asc) — the ES term/completion-suggester analog
        (ElasticOperations.scala keyword dictionary), answered
        straight from the dictionary with ZERO postings decode (df is
        a dictionary column). Vocabulary-sized vectorized scan,
        matched-set-sized lexsort. df is index-time df: per-doc
        deletes narrow retrieval via tombstone masks, but suggestion
        counts refresh at compaction (the same staleness contract ES
        document-frequency stats have between merges)."""
        if not prefix:
            raise ValueError("empty prefix")
        hits = pc.starts_with(self._tbl["term"], prefix)
        idx = np.flatnonzero(hits.to_numpy(zero_copy_only=False))
        if idx.size == 0:
            return [], np.zeros(0, dtype=np.int64)
        dfs = self._dfs[idx].astype(np.int64)
        terms = np.array(
            self._tbl["term"].take(pa.array(idx, pa.int64())).to_pylist()
        )
        order = np.lexsort((terms, -dfs))[:k]
        return terms[order].tolist(), dfs[order]

    def _fuzzy_term_rows(self, q: str) -> tuple[list[str], np.ndarray]:
        """(terms, dictionary row indices) within Levenshtein distance
        1 of ``q`` — the shared candidate scan behind fuzzy retrieval
        and spell correction."""
        tbl_terms = self._tbl["term"]
        lens = pc.utf8_length(tbl_terms).to_numpy(zero_copy_only=False)
        cand_idx = np.flatnonzero(np.abs(lens - len(q)) <= 1)
        if cand_idx.size == 0:
            return [], np.zeros(0, dtype=np.int64)
        cand = tbl_terms.take(pa.array(cand_idx, pa.int64())).to_pylist()
        hit = np.asarray(one_edit_mask(cand, q), dtype=bool)
        return (
            [t for t, h in zip(cand, hit) if h],
            cand_idx[hit].astype(np.int64),
        )

    def fuzzy_terms(self, q: str) -> list[str]:
        """Dictionary terms within Levenshtein distance 1 of ``q``
        (Lucene FuzzyQuery, fixed max-edits=1), via the vectorized
        one-edit characterization in ``one_edit_mask`` over the
        length-filtered vocabulary slice. Vocabulary-bounded like
        every multi-term rewrite (Lucene walks a Levenshtein automaton
        over the same term dictionary)."""
        return self._fuzzy_term_rows(q)[0]

    def suggest_corrections(self, q: str, k: int = 3):
        """Spell correction ('did you mean'): the top-k dictionary
        terms within edit distance 1 of ``q`` (exact match included —
        ES term-suggester suggest_mode=always with max_edits pinned),
        ranked by document frequency (df desc, term asc) straight from
        the dictionary — zero postings decode, like ``suggest``. df is
        index-time df (same compaction-refresh staleness contract)."""
        if not q:
            raise ValueError("empty query")
        terms, idx = self._fuzzy_term_rows(q)
        if not terms:
            return [], np.zeros(0, dtype=np.int64)
        dfs = self._dfs[idx].astype(np.int64)
        order = np.lexsort((np.array(terms, dtype=object).astype(str),
                            -dfs))[:k]
        return [terms[i] for i in order], dfs[order]

    def search_fuzzy(self, q: str) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids, n_terms): docs containing any term within edit
        distance 1 of ``q``, with distinct-matching-term counts (the
        constant-score MultiTermQuery shape, like search_prefix)."""
        terms = self.fuzzy_terms(q)
        if not terms:
            z = np.zeros(0, dtype=np.int64)
            return z, z
        parts = [self._decode_full(t)[0].astype(np.int64) for t in terms]
        docs, counts = np.unique(np.concatenate(parts), return_counts=True)
        if self._tomb is not None and docs.size:
            live = self._live_mask(docs)
            docs, counts = docs[live], counts[live]
        return docs, counts.astype(np.int64)

    def search(self, query: str, k: int = 10, mode: str = "wand"):
        if mode == "exact":
            return self.search_exact(query, k)
        return self.search_wand(query, k)


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


class _GroupServer:
    """Ray actor body: one dictionary shard group, loaded once."""

    def __init__(self, index_dir: str, lo: int, hi: int):
        self.searcher = Searcher(index_dir, shard_range=(lo, hi))

    def contribs(self, query: str):
        return self.searcher.search_contribs(query)

    def contribs_terms(self, qterms):
        return self.searcher.contribs_terms(qterms)

    def wand_bootstrap(self, query: str, k: int):
        """(ub_sum, local_topk_docs, local_scores): the group's share
        of the global score upper bound plus a k-bounded candidate
        seed from group-local block-max WAND. The local scores are
        exact sums over THIS group's terms only, i.e. LOWER bounds on
        the docs' true scores (contributions are non-negative) — the
        coordinator may sum them across groups into a sound pruning
        threshold without a rescore round."""
        ub = self.searcher.query_ub(query)
        hits = self.searcher.search_wand(query, k)
        return (
            ub,
            np.array([d for d, _ in hits], dtype=np.int64),
            np.array([s for _, s in hits], dtype=np.float64),
        )

    def survivor_contribs(self, query: str, theta_g: float):
        return self.searcher.survivor_contribs(query, theta_g)

    def wand_bootstrap_many(self, queries, k: int):
        """Batched bootstrap: ONE RPC carries every query of a serving
        batch that this group owns — the per-query round trips were
        the fan-out's dominant serve-mode cost (VERDICT r4 #4)."""
        return [self.wand_bootstrap(q, k) for q in queries]

    def survivor_contribs_many(self, queries, thetas):
        """Batched survivor round; ``theta is None`` marks a query in
        the <k-positive-seeds fallback, which is served with FULL
        exact contributions (what ``FanoutSearcher.search_exact``
        would have fetched)."""
        return [
            self.searcher.search_contribs(q) if th is None
            else self.searcher.survivor_contribs(q, th)
            for q, th in zip(queries, thetas)
        ]

    def term_positions(self, term: str):
        return self.searcher.term_positions(term)

    def prefix_hits(self, prefix: str):
        return self.searcher.search_prefix(prefix)

    def fuzzy_hits(self, q: str):
        return self.searcher.search_fuzzy(q)

    def contains_hits(self, substr: str):
        return self.searcher.search_contains(substr)

    def regex_hits(self, pattern: str):
        return self.searcher.search_regex(pattern)

    def suffix_hits(self, suffix: str):
        return self.searcher.search_suffix(suffix)

    def prefix_terms_local(self, prefix: str, max_expansions: int):
        """Group-local prefix expansion candidates in term order.
        Capping per group at the global cap is EXACT: the global
        first-m set draws at most m terms from any group, all within
        that group's first m."""
        return self.searcher.prefix_terms(prefix, max_expansions)

    def suggest_local(self, prefix: str, k: int):
        """Group-local completion candidates: (terms, dfs). Each term
        is hash-routed to exactly one shard group, so group results
        are DISJOINT and the coordinator's global top-k over the
        union is exact."""
        return self.searcher.suggest(prefix, k=k)

    def corrections_local(self, q: str, k: int):
        """Group-local spell-correction candidates (same disjointness
        argument as suggest_local)."""
        return self.searcher.suggest_corrections(q, k=k)

    def raw_positions(self, token: str):
        """Unfiltered positional readback for one ALREADY-ANALYZED
        token (docs, tfs, occ; empty on vocabulary miss). Tombstones
        are NOT applied — the fan-out merge filters match docs at the
        end, exactly where the single Searcher's phrase/proximity
        paths do."""
        s = self.searcher
        if token not in s._row:
            z64 = np.zeros(0, dtype=np.uint64)
            return z64, np.zeros(0, dtype=np.uint32), z64
        return s._positions_of(token)

    def term_docs(self, tokens: list[str]) -> dict:
        """Raw posting doc arrays for the given ALREADY-ANALYZED
        tokens this group owns (absent tokens omitted — presence is
        part of the answer for boolean AND)."""
        s = self.searcher
        return {
            t: s._decode_full(t)[0].astype(np.int64)
            for t in tokens
            if t in s._row
        }

    def load_stats(self) -> dict:
        s = self.searcher
        return {
            "n_terms": s.n_terms_loaded,
            "dict_bytes": s.dict_bytes_loaded,
            # 0 when doc_len is served from the memory-mapped sidecar:
            # the actor's heap holds NO doc-id-space-sized array
            "doclen_bytes_inheap": s.doclen_bytes_inheap,
            "load_sec": s.load_sec,
        }


def group_bounds(num_term_shards: int, n_groups: int) -> list[tuple[int, int]]:
    """Contiguous shard ranges covering [0, S) as evenly as possible."""
    n_groups = max(1, min(n_groups, num_term_shards))
    step = (num_term_shards + n_groups - 1) // n_groups
    return [
        (lo, min(num_term_shards, lo + step))
        for lo in range(0, num_term_shards, step)
    ]


class FanoutSearcher(_LiveFilter):
    """Sharded serving: queries fan out to one actor per dictionary
    shard group (each holding ONLY its shards — per-actor memory
    scales with the group, the ES-style sharded-index analog of
    ElasticOperations.scala:91-97), and per-term contributions merge
    into exact BM25 scores. Routing: a group is called only if it owns
    at least one analyzed query term (``term_shard_of``).

    The merge is BIT-IDENTICAL to a full-dictionary
    ``Searcher.search_exact``: contributions are sorted by (doc_id,
    query-term index) and summed left-to-right per doc — the same
    float64 accumulation order as the single searcher's term-at-a-time
    loop. Top-k serving can also prune: ``search_wand`` runs the
    threshold-exchange protocol (group-local block-max seeds -> a
    lower-bound theta -> per-group interval pruning with
    ``Searcher.survivor_contribs``, the single searcher's kernel), so
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
        S = self.config.num_term_shards
        self.bounds = group_bounds(S, n_groups)
        self._load_tombstones(index_dir)
        if actors is None:
            # num_cpus=0: group servers are IO/lookup-bound between
            # short decode bursts; reserving whole CPUs for them can
            # deadlock a small session when they coexist with an
            # actor-pool stage (a real cluster would give each group
            # its own node-level resources instead)
            cls = ray.remote(num_cpus=0)(_GroupServer)
            actors = [
                cls.remote(index_dir, lo, hi) for lo, hi in self.bounds
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

    def _contrib_parts(self, query: str) -> list:
        """Per-group ``search_contribs`` triples for ``query``, from the
        groups owning at least one of its analyzed terms."""
        import ray

        gids = self._groups_for(self.tok.tokens_of(query))
        return ray.get(
            [self.actors[g].contribs.remote(query) for g in gids]
        )

    def _merge_contrib_parts(
        self, parts
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """``_merge_contribs`` over per-group contribution triples:
        layered qi-ordered sums reproduce the single searcher's float
        accumulation exactly, so the bit-identity contract with the
        single Searcher lives in one place."""
        if not parts:
            return None
        return self._merge_contribs(
            *(np.concatenate(col) for col in zip(*parts))
        )

    def search_wand(self, query: str, k: int = 10):
        """Distributed block-max WAND over the TERM-partitioned fan-out
        (the threshold-exchange shape of Lucene's distributed BMW;
        reference analog: ES sharded top-k with score thresholds,
        ElasticOperations.scala:91-97):

        1. bootstrap — every owning group returns its local block-max
           WAND top-k (doc ids + exact LOCAL scores) plus its share of
           the global upper bound;
        2. the coordinator sums each seed doc's local scores across
           the groups that returned it — a LOWER bound on its true
           score, since contributions are non-negative — and sets
           theta = the k-th largest bound (sound: those k docs each
           truly score >= theta, so the final k-th score does too);
        3. theta broadcasts back as per-group effective thresholds
           theta - R_g (R_g = the other groups' upper-bound mass);
           each group returns exact contributions only for the doc
           intervals whose bound over its terms reaches theta - R_g
           (``Searcher.survivor_contribs``, the single searcher's
           interval kernel);
        4. the union merges through the same layered qi-ordered sums
           as search_exact — scores stay bit-identical to the single
           searcher (pytest-enforced).

        Two RPC rounds per query; an earlier variant spent a third
        round rescoring the seeds for a tighter theta — the looser
        bound only grows the survivor superset, never the answer.

        Soundness: for any doc with true score >= theta,
        s_g + R_g >= score >= theta holds in EVERY group, so each
        group's survivor scan covers all of that doc's local postings;
        docs the scan drops are provably below theta, and at least k
        exactly-scored docs sit at or above it."""
        import ray

        gids = self._groups_for(self.tok.tokens_of(query))
        if not gids:
            return []
        boots = ray.get([
            self.actors[g].wand_bootstrap.remote(query, k) for g in gids
        ])
        thetas = self._group_thresholds(boots, k)
        if thetas is None:
            return []  # no query term exists anywhere in the index
        if thetas[0] is None:
            # fewer than k positive seeds: there is no lower bound for
            # pruning to work against — serve the exact fan-out
            return self.search_exact(query, k)
        parts = ray.get([
            self.actors[g].survivor_contribs.remote(query, thetas[i])
            for i, g in enumerate(gids)
        ])
        got = self._merge_contrib_parts(parts)
        if got is None:
            return []
        return _rank(got[0], got[1], k)

    def _group_thresholds(self, boots, k: int):
        """Per-group effective thresholds from the bootstrap replies.
        theta without a rescore round: a seed doc's local scores sum
        (across the groups that seeded it) is a LOWER bound on its
        true score, so the k-th largest summed bound lower-bounds the
        final k-th score — one fewer RPC round per query than the
        rescore-the-seeds protocol, at slightly looser (still sound)
        pruning. Returns None when no query term exists anywhere; a
        list of [None]*len(boots) when pruning has no lower bound to
        work against (the exact-fallback marker); else the per-group
        theta - R_g values (eps-loosened — float safety may only ever
        LOOSEN a threshold)."""
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
            return [None] * len(boots)
        eps = 1e-9 * total_ub + 1e-12
        return [
            theta - (total_ub - float(ubs[i])) - eps
            for i in range(len(boots))
        ]

    def search_wand_many(self, queries, k: int = 10):
        """Distributed block-max WAND for a WHOLE serving batch in the
        SAME two RPC rounds the single-query protocol pays: round 1
        sends each group ONE ``wand_bootstrap_many`` carrying every
        owned query; the coordinator derives every query's thresholds;
        round 2 sends each group ONE ``survivor_contribs_many``.
        Per-query math is shared with ``search_wand`` (same bootstrap,
        ``_group_thresholds``, merge), so results are bit-identical to
        the one-at-a-time path (pytest-enforced). This is what lets
        the serving actor pool amortize fan-out RPC latency across a
        batch instead of paying 2 x n_groups round trips per query
        (VERDICT r4 ask #4)."""
        import ray

        n = len(queries)
        results: list[list] = [[] for _ in range(n)]
        gids_per = [
            self._groups_for(self.tok.tokens_of(q)) for q in queries
        ]
        owned: dict[int, list[int]] = {}
        for i, gids in enumerate(gids_per):
            for g in gids:
                owned.setdefault(g, []).append(i)
        if not owned:
            return results
        # ---- RPC round 1: batched bootstrap, one call per group ----
        glist = sorted(owned)
        boot_lists = ray.get([
            self.actors[g].wand_bootstrap_many.remote(
                [queries[i] for i in owned[g]], k
            )
            for g in glist
        ])
        boots_of: dict[tuple[int, int], tuple] = {}
        for g, blist in zip(glist, boot_lists):
            for i, b in zip(owned[g], blist):
                boots_of[(i, g)] = b
        # ---- per-query thresholds (driver-side, no RPC) ----
        plan: dict[int, tuple[list, list]] = {g: ([], []) for g in glist}
        pending: list[int] = []
        for i in range(n):
            gids = gids_per[i]
            if not gids:
                continue
            boots = [boots_of[(i, g)] for g in gids]
            thetas = self._group_thresholds(boots, k)
            if thetas is None:
                continue  # no term exists: []
            for pos, g in enumerate(gids):
                plan[g][0].append(queries[i])
                plan[g][1].append(thetas[pos])
            pending.append(i)
        if not pending:
            return results
        # ---- RPC round 2: batched survivor scan, one call per group
        part_lists = ray.get([
            self.actors[g].survivor_contribs_many.remote(*plan[g])
            for g in glist if plan[g][0]
        ])
        parts_of: dict[int, list] = {i: [] for i in pending}
        for g, plist in zip(
            [g for g in glist if plan[g][0]], part_lists
        ):
            it = iter(plist)
            for i in pending:
                if g in gids_per[i]:
                    parts_of[i].append(next(it))
        for i in pending:
            got = self._merge_contrib_parts(parts_of[i])
            if got is not None:
                results[i] = _rank(got[0], got[1], k)
        return results

    def search_exact(self, query: str, k: int = 10):
        got = self._merge_contrib_parts(self._contrib_parts(query))
        if got is None:
            return []
        return _rank(got[0], got[1], k)

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
        got = self._merge_contrib_parts(self._contrib_parts(query))
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

    def search(self, query: str, k: int = 10, mode: str = "wand"):
        """Same dispatch surface as the single ``Searcher.search``."""
        if mode == "exact":
            return self.search_exact(query, k)
        return self.search_wand(query, k)

    def term_positions(self, term: str):
        """Positional readback through the shard groups: the analyzed
        token hashes to exactly ONE term shard, so exactly one group
        actor is called (group searchers apply the tombstone mask
        themselves — same contract as the single Searcher)."""
        import ray

        toks = self.tok.tokens_of(term)
        if len(toks) != 1:
            raise ValueError("term_positions takes a single-token term")
        g = self._group_of_token(toks[0])
        return ray.get(self.actors[g].term_positions.remote(term))

    @staticmethod
    def _union_counts(parts) -> tuple[np.ndarray, np.ndarray]:
        """Merge per-group (docs, n_terms) multi-term results: term →
        shard routing is hash-based so every group may own matching
        terms, but each TERM lives in exactly one group — summing the
        per-group distinct-term counts per doc is exact."""
        docs = np.concatenate([p[0] for p in parts])
        cnts = np.concatenate([p[1] for p in parts])
        if docs.size == 0:
            z = np.zeros(0, dtype=np.int64)
            return z, z
        udocs, inv = np.unique(docs, return_inverse=True)
        sums = np.zeros(udocs.size, dtype=np.int64)
        np.add.at(sums, inv, cnts)
        return udocs, sums

    def search_prefix(self, prefix: str) -> tuple[np.ndarray, np.ndarray]:
        """Prefix retrieval across every shard group (prefix matches
        can hash anywhere, so this is a full fan-out union — see
        Searcher.search_prefix's scoping note)."""
        import ray

        parts = ray.get(
            [a.prefix_hits.remote(prefix) for a in self.actors]
        )
        return self._union_counts(parts)

    def search_contains(self, substr: str) -> tuple[np.ndarray, np.ndarray]:
        """Infix retrieval across every shard group (substring matches
        can hash anywhere — same full fan-out union as prefix)."""
        import ray

        parts = ray.get(
            [a.contains_hits.remote(substr) for a in self.actors]
        )
        return self._union_counts(parts)

    def search_regex(self, pattern: str) -> tuple[np.ndarray, np.ndarray]:
        """Regex retrieval across every shard group (regex matches can
        hash anywhere — same full fan-out union as prefix/infix)."""
        import ray

        parts = ray.get(
            [a.regex_hits.remote(pattern) for a in self.actors]
        )
        return self._union_counts(parts)

    def search_suffix(self, suffix: str) -> tuple[np.ndarray, np.ndarray]:
        """Leading-wildcard retrieval across every shard group (suffix
        matches can hash anywhere — same full fan-out union as
        prefix/infix/regex)."""
        import ray

        parts = ray.get(
            [a.suffix_hits.remote(suffix) for a in self.actors]
        )
        return self._union_counts(parts)

    def suggest(self, prefix: str, k: int = 10):
        """Completion suggestions across every shard group: each group
        returns its local df-desc top-k (terms are hash-disjoint
        across groups, so k per group suffices) and the coordinator
        takes the global top-k over the tiny union — k * n_groups
        candidate rows on the wire, never a dictionary scan's
        worth."""
        import ray

        parts = ray.get(
            [a.suggest_local.remote(prefix, k) for a in self.actors]
        )
        terms = np.array(
            [t for ts, _ in parts for t in ts], dtype=object
        )
        dfs = np.concatenate(
            [np.asarray(d, dtype=np.int64) for _, d in parts]
        ) if parts else np.zeros(0, np.int64)
        if terms.size == 0:
            return [], np.zeros(0, dtype=np.int64)
        order = np.lexsort((terms.astype(str), -dfs))[:k]
        return terms[order].tolist(), dfs[order]

    def search_fuzzy(self, q: str) -> tuple[np.ndarray, np.ndarray]:
        """Edit-distance-1 retrieval across every shard group (same
        full fan-out union shape as search_prefix)."""
        import ray

        parts = ray.get([a.fuzzy_hits.remote(q) for a in self.actors])
        return self._union_counts(parts)

    def suggest_corrections(self, q: str, k: int = 3):
        """Spell correction across every shard group: disjoint local
        top-ks, global (df desc, term asc) top-k over the tiny union
        (the suggest merge shape)."""
        import ray

        parts = ray.get(
            [a.corrections_local.remote(q, k) for a in self.actors]
        )
        terms = np.array(
            [t for ts, _ in parts for t in ts], dtype=object
        )
        dfs = np.concatenate(
            [np.asarray(d, dtype=np.int64) for _, d in parts]
        ) if parts else np.zeros(0, np.int64)
        if terms.size == 0:
            return [], np.zeros(0, dtype=np.int64)
        order = np.lexsort((terms.astype(str), -dfs))[:k]
        return terms[order].tolist(), dfs[order]

    def _positions_fanout(self, toks: list[str]) -> dict:
        """Raw (untombstoned) positions per distinct analyzed token,
        each fetched from the single group owning its hash shard."""
        import ray

        uniq = list(dict.fromkeys(toks))
        refs = [
            self.actors[self._group_of_token(t)].raw_positions.remote(t)
            for t in uniq
        ]
        return dict(zip(uniq, ray.get(refs)))

    def _score_match_docs(
        self, query: str, match_docs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """BM25 over the query terms restricted to ``match_docs``
        (sorted): per-group contributions masked to the match set,
        then the same layered qi-ordered sums as search_exact — the
        float64 accumulation order of the single searcher's
        phrase/proximity scoring loops. Every match doc contains every
        query term, so the output docs equal ``match_docs``."""
        docs, qis, cs = (
            np.concatenate(col) for col in zip(*self._contrib_parts(query))
        )
        keep = np.isin(docs, match_docs, kind="sort")
        return _layered_sums(docs[keep], qis[keep], cs[keep])[:2]

    def search_phrase(self, phrase: str, k: int = 10):
        """Distributed exact phrase search: positions fan out per term
        to the owning shard group; the alignment kernel and the
        scoring contract are the single Searcher's (bit-identical
        results, pytest-enforced)."""
        toks = self.tok.tokens_of(phrase)
        if not toks:
            return []
        pos = self._positions_fanout(toks)
        match_docs = _phrase_align([pos[t] for t in toks], len(toks))
        if match_docs.size:
            match_docs = match_docs[self._live_mask(match_docs)]
        if match_docs.size == 0:
            return []
        udocs, sums = self._score_match_docs(phrase, match_docs)
        return _rank(udocs, sums, k)

    def search_terms_weighted(
        self, qterms: list[tuple[str, float]], k: int = 10,
    ) -> list[tuple[int, float]]:
        """Distributed retrieval over an EXPLICIT weighted term list —
        the fan-out twin of ``Searcher._taat_scores_terms`` and the
        serving primitive for every query REWRITER (synonym expansion,
        more-like-this keyword sets, curriculum probes): terms route
        to the groups owning their hash shards, per-group
        contributions merge through the layered qi-ordered sums, so
        scores are bit-identical to the single searcher's sequential
        term accumulation."""
        import ray

        got = self._merge_contrib_parts(ray.get([
            self.actors[g].contribs_terms.remote(qterms)
            for g in self._groups_for(t for t, _ in qterms)
        ]))
        if got is None:
            return []
        return _rank(got[0], got[1], k)

    def search_min_should_match(
        self, query: str, m: int, k: int = 10,
    ) -> list[tuple[int, float, int]]:
        """Distributed minimum_should_match: per-group contributions
        through the single searcher's merge (layered qi-ordered sums,
        whose per-doc row count is the distinct-match count) and
        ranking, so results are bit-identical."""
        return _min_should_match(
            self._merge_contrib_parts(self._contrib_parts(query)), m, k
        )

    def search_phrase_prefix(
        self, phrase: str, max_expansions: int = 50, k: int = 10
    ):
        """Distributed match_phrase_prefix: per-group prefix expansion
        (hash-disjoint dictionaries, per-group cap then one global
        term-order cap — exact, see prefix_terms_local), per-term
        position fan-out, the single Searcher's phrase-align kernel
        per expansion, and the shared match-doc scoring contract (BM25
        over the fixed leading terms)."""
        import ray

        toks = self.tok.tokens_of(phrase)
        if len(toks) < 2:
            raise ValueError(
                "phrase_prefix needs >= 2 analyzed tokens"
            )
        lead, pfx = toks[:-1], toks[-1]
        exp_parts = ray.get([
            a.prefix_terms_local.remote(pfx, max_expansions)
            for a in self.actors
        ])
        exps = sorted(
            set().union(*(set(p) for p in exp_parts))
        )[:max_expansions]
        if not exps:
            return []
        pos = self._positions_fanout(lead + exps)
        parts = []
        for e in exps:
            md = _phrase_align(
                [pos[t] for t in lead] + [pos[e]], len(toks)
            )
            if md.size:
                parts.append(md)
        if not parts:
            return []
        match_docs = np.unique(np.concatenate(parts))
        match_docs = match_docs[self._live_mask(match_docs)]
        if match_docs.size == 0:
            return []
        udocs, sums = self._score_match_docs(" ".join(lead), match_docs)
        return _rank(udocs, sums, k)

    def search_span_near(
        self, term_a: str, term_b: str, window: int = 3, k: int = 10
    ):
        """Distributed ORDERED span-near: per-term position fan-out +
        the single Searcher's ordered kernel and scoring contract."""
        ta = self.tok.tokens_of(term_a)
        tb = self.tok.tokens_of(term_b)
        if len(ta) != 1 or len(tb) != 1:
            raise ValueError("span terms must analyze to one token")
        pos = self._positions_fanout([ta[0], tb[0]])
        match_docs = _span_near_ordered_match(
            pos[ta[0]], pos[tb[0]], window
        )
        if match_docs.size:
            match_docs = match_docs[self._live_mask(match_docs)]
        if match_docs.size == 0:
            return []
        udocs, sums = self._score_match_docs(
            f"{term_a} {term_b}", match_docs
        )
        return _rank(udocs, sums, k)

    def search_proximity(
        self, term_a: str, term_b: str, window: int = 3, k: int = 10
    ):
        """Distributed proximity search (either order, ≤ ``window``
        positions apart): per-term position fan-out + the single
        Searcher's neighbor-probe kernel and scoring contract."""
        ta = self.tok.tokens_of(term_a)
        tb = self.tok.tokens_of(term_b)
        if len(ta) != 1 or len(tb) != 1:
            raise ValueError("proximity terms must analyze to one token")
        pos = self._positions_fanout([ta[0], tb[0]])
        match_docs = _proximity_match(pos[ta[0]], pos[tb[0]], window)
        if match_docs.size:
            match_docs = match_docs[self._live_mask(match_docs)]
        if match_docs.size == 0:
            return []
        udocs, sums = self._score_match_docs(
            f"{term_a} {term_b}", match_docs
        )
        return _rank(udocs, sums, k)

    def _term_docs_fanout(self, toks: list[str]) -> dict:
        """Posting doc sets per analyzed token, each fetched from the
        single group owning its hash shard; absent tokens are absent
        from the result."""
        import ray

        by_group: dict[int, list[str]] = {}
        for t in toks:
            by_group.setdefault(self._group_of_token(t), []).append(t)
        got: dict[str, np.ndarray] = {}
        for r in ray.get(
            [
                self.actors[g].term_docs.remote(ts)
                for g, ts in by_group.items()
            ]
        ):
            got.update(r)
        return got

    def search_boolean(
        self, query: str, mode: str = "and", exclude: str | None = None
    ) -> np.ndarray:
        """Distributed unranked boolean retrieval: each group resolves
        the posting doc sets for the analyzed tokens it owns (absence
        included in the answer — an AND with any vocabulary miss is
        empty); set algebra, MUST_NOT subtraction and tombstone
        filtering happen at the merge, mirroring the single
        Searcher."""
        if mode not in ("and", "or"):
            raise ValueError(f"mode must be 'and' or 'or', got {mode!r}")
        seen = list(dict.fromkeys(self.tok.tokens_of(query)))
        if not seen:
            return np.zeros(0, dtype=np.int64)
        got = self._term_docs_fanout(seen)
        present = [t for t in seen if t in got]
        if mode == "and" and len(present) != len(seen):
            return np.zeros(0, dtype=np.int64)
        if not present:
            return np.zeros(0, dtype=np.int64)
        out = _boolean_combine([got[t] for t in present], mode)
        if exclude and out.size:
            ex = list(dict.fromkeys(self.tok.tokens_of(exclude)))
            got_ex = self._term_docs_fanout(ex) if ex else {}
            ex_sets = [got_ex[t] for t in ex if t in got_ex]
            if ex_sets:
                ex_docs = np.unique(np.concatenate(ex_sets))
                out = out[~np.isin(
                    out, ex_docs, assume_unique=True, kind="sort"
                )]
        if out.size:
            out = out[self._live_mask(out)]
        return out

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
