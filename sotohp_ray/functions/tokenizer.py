"""Vectorized code-aware tokenizer.

Modeled on the behavior of the reference's ``extractKeywords``
(MediaServiceLive.scala:1641-1668): ordered regex rewritings, separator
split, camelCase split (``camelTokenize``), per-token mapping table,
pure-number drop, lowercase, stopword removal — re-expressed as a chain
of pyarrow.compute kernels over a ``large_string`` column (RE2, zero
Python per-row work in the hot path).

The same chain is expressible in DuckDB SQL (RE2 ``regexp_replace`` /
``regexp_split_to_array``), which is what makes the driver's SQL-oracle
comparison possible — see ``sql_token_expr`` below.
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

from sotohp_ray.config import TokenizerRules

# camelCase boundary insertion, RE2-safe (no lookarounds):
#   fooBar  -> foo Bar      ([a-z0-9])([A-Z])
#   XMLHttp -> XML Http     ([A-Z]+)([A-Z][a-z])
_CAMEL1 = (r"([a-z0-9])([A-Z])", r"\1 \2")
_CAMEL2 = (r"([A-Z]+)([A-Z][a-z])", r"\1 \2")
_SPLIT = r"[^a-z0-9]+"
_DROP = r"^[0-9]*$"  # empty or pure-number tokens
# the same patterns for Python ``re`` (``tokens_of`` on ASCII text)
_CAMEL1_RE = re.compile(_CAMEL1[0])
_CAMEL2_RE = re.compile(_CAMEL2[0])
_SPLIT_RE = re.compile(_SPLIT)


class CodeTokenizer:
    """Stateful-per-worker analyzer: config is parsed once per instance
    (the reference loads its KeywordRules once per store —
    MediaServiceLive.scala:1670-1676); per-batch work is all Arrow
    kernels."""

    def __init__(self, rules: TokenizerRules | None = None):
        self.rules = rules or TokenizerRules()
        self._mapping = self.rules.mapping_dict()
        self._stops = (
            pa.array(sorted(self.rules.stopwords), type=pa.string())
            if self.rules.stopwords
            else None
        )
        # rewritings are RE2 patterns and replacements, which Python
        # ``re`` need not read the same way: only the Arrow chain runs
        # them
        self._re_ok = not self.rules.rewritings

    # ---- core chain -------------------------------------------------

    def token_lists(self, content: pa.Array | pa.ChunkedArray) -> pa.Array:
        """content column -> list<string> of analyzed terms per row.
        Order within a row is preserved (needed for positional features
        like fingerprinting); filtering keeps relative order."""
        s = content
        for pat, rep in self.rules.rewritings:
            s = pc.replace_substring_regex(s, pat, rep)
        s = pc.replace_substring_regex(s, _CAMEL1[0], _CAMEL1[1])
        s = pc.replace_substring_regex(s, _CAMEL2[0], _CAMEL2[1])
        s = pc.utf8_lower(s)
        lists = pc.split_pattern_regex(s, _SPLIT)

        flat = pc.list_flatten(lists)
        parents = pc.list_parent_indices(lists)
        parents, flat = self._filter_map(flat, parents)
        # Rebuild list array from (parents, flat); parents are
        # monotonically non-decreasing by construction.
        n_rows = len(lists)
        counts = pc.value_counts(parents)
        import numpy as np

        lengths = np.zeros(n_rows, dtype=np.int64)
        if len(counts) > 0:
            idx = counts.field("values").to_numpy(zero_copy_only=False)
            cnt = counts.field("counts").to_numpy(zero_copy_only=False)
            lengths[idx] = cnt
        offsets = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return pa.LargeListArray.from_arrays(
            pa.array(offsets, type=pa.int64()), flat.combine_chunks()
            if isinstance(flat, pa.ChunkedArray)
            else flat,
        )

    def exploded(
        self, content: pa.Array | pa.ChunkedArray
    ) -> tuple[pa.Array, pa.Array]:
        """content column -> (parent_row_index, term) exploded arrays,
        analyzed. The fast path for index building (no list rebuild)."""
        s = content
        for pat, rep in self.rules.rewritings:
            s = pc.replace_substring_regex(s, pat, rep)
        s = pc.replace_substring_regex(s, _CAMEL1[0], _CAMEL1[1])
        s = pc.replace_substring_regex(s, _CAMEL2[0], _CAMEL2[1])
        s = pc.utf8_lower(s)
        lists = pc.split_pattern_regex(s, _SPLIT)
        flat = pc.list_flatten(lists)
        parents = pc.list_parent_indices(lists)
        return self._filter_map(flat, parents)

    def term_frequencies(
        self, content: pa.Array | pa.ChunkedArray
    ) -> pa.Table:
        """content column -> table (row_idx:int64, term:string,
        tf:int64) — within-batch combiner (reference analog: the
        per-record ``groupMapReduce`` partial in ``keywordList``,
        MediaServiceLive.scala:1678-1690)."""
        parents, flat = self.exploded(content)
        t = pa.table({"row_idx": parents, "term": flat})
        g = t.group_by(["row_idx", "term"]).aggregate([("term", "count")])
        from sotohp_ray.utils import agg_select

        return agg_select(
            g, {"row_idx": "row_idx", "term": "term", "term_count": "tf"}
        )

    def term_frequency_codes(
        self, content: pa.Array | pa.ChunkedArray
    ) -> tuple:
        """Numpy fast path for the index build: content column ->
        (row_idx:int64[], code:int64[], tf:int64[], dictionary) with
        postings sorted by (code, row_idx).

        One dictionary-encode + ONE int64 argsort replaces the generic
        Arrow hash-groupby of ``term_frequencies`` AND the downstream
        (doc, term) lexsort in the SPIMI stage. Thin wrapper over the
        positions variant (one kernel to maintain)."""
        row_r, code_r, tf, dic, _ = self.term_frequency_codes_positions(
            content
        )
        return row_r, code_r, tf, dic

    def term_frequency_codes_positions(
        self, content: pa.Array | pa.ChunkedArray
    ) -> tuple:
        """Like ``term_frequency_codes`` but also returns token
        POSITIONS (0-based index in the analyzed token stream of each
        row) per occurrence: (row_idx, code, tf, dictionary,
        occ_positions) where ``occ_positions`` holds every occurrence's
        position, grouped by (code, row) in ascending position order —
        aligned 1:1 with the postings via ``tf`` (posting i owns
        occ_positions[sum(tf[:i]) : sum(tf[:i+1])])."""
        import numpy as np

        parents, flat = self.exploded(content)
        d = pc.dictionary_encode(flat)
        d = d.combine_chunks() if isinstance(d, pa.ChunkedArray) else d
        codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        pn = parents.to_numpy(zero_copy_only=False).astype(np.int64)
        if codes.size == 0:
            z = np.zeros(0, dtype=np.int64)
            return z, z, z, d.dictionary, z
        n_rows = int(pn.max()) + 1
        # position within row: exploded order is document order and pn
        # is nondecreasing, so each row's first index is a searchsorted
        row_first = np.searchsorted(pn, np.arange(n_rows), side="left")
        positions = np.arange(pn.size, dtype=np.int64) - row_first[pn]
        key = codes.astype(np.uint64) * np.uint64(n_rows) + pn.astype(
            np.uint64
        )
        order = np.argsort(key, kind="stable")  # stable: positions stay
        # ascending within each (code, row) pair
        key_s = key[order]
        occ_pos = positions[order]
        bounds = np.flatnonzero(np.diff(key_s)) + 1
        starts = np.concatenate(([0], bounds))
        tf = np.diff(np.concatenate((starts, [key_s.size])))
        uk = key_s[starts]
        code_r = (uk // np.uint64(n_rows)).astype(np.int64)
        row_r = (uk % np.uint64(n_rows)).astype(np.int64)
        return row_r, code_r, tf.astype(np.int64), d.dictionary, occ_pos

    def tokens_of(self, text: str) -> list[str]:
        """Single-string analysis (query parsing, tests): the tokens
        ``token_lists`` gives for ``[text]``.

        An ASCII string under rules without rewritings is analyzed with
        Python ``re`` in place of the eleven or so Arrow kernel calls
        of the batch chain, which cost about 200 us a query. The result
        is identical: the camelCase and split patterns are the same and
        both engines match leftmost-first, ``str.lower`` equals
        ``utf8_lower`` on ASCII, an empty or ``isdigit`` token is
        exactly one matching ``^[0-9]*$``, and the mapping and the
        stopwords run in ``_filter_map``'s order. Every other string
        takes the Arrow chain: outside ASCII the two lowercasings
        differ (Arrow lowercases ``'İstanbul'`` to ``'istanbul'``,
        ``str.lower`` to ``'i\\u0307stanbul'``, which splits into
        ``['i', 'stanbul']``)."""
        if not (self._re_ok and text.isascii()):
            lists = self.token_lists(pa.array([text], type=pa.large_string()))
            return lists[0].as_py()
        s = _CAMEL2_RE.sub(_CAMEL2[1], _CAMEL1_RE.sub(_CAMEL1[1], text))
        toks = [
            t for t in _SPLIT_RE.split(s.lower()) if t and not t.isdigit()
        ]
        if self._mapping:
            toks = [self._mapping.get(t, t) for t in toks]
        return [t for t in toks if t not in self.rules.stopwords]

    # ---- helpers ----------------------------------------------------

    def _filter_map(self, flat, parents):
        keep = pc.invert(pc.match_substring_regex(flat, _DROP))
        flat = pc.filter(flat, keep)
        parents = pc.filter(parents, keep)
        if self._mapping:
            # dictionary-encode so the Python mapping runs once per
            # UNIQUE token, not per token occurrence
            d = pc.dictionary_encode(flat)
            d = d.combine_chunks() if isinstance(d, pa.ChunkedArray) else d
            uniq = d.dictionary.to_pylist()
            mapped = pa.array(
                [self._mapping.get(u, u) for u in uniq], type=flat.type
            )
            flat = pc.take(mapped, d.indices)
        if self._stops is not None:
            keep = pc.invert(pc.is_in(flat, value_set=self._stops))
            flat = pc.filter(flat, keep)
            parents = pc.filter(parents, keep)
        return (
            parents.combine_chunks() if isinstance(parents, pa.ChunkedArray) else parents,
            flat.combine_chunks() if isinstance(flat, pa.ChunkedArray) else flat,
        )


def sql_token_expr(text_col: str = "text") -> str:
    """DuckDB SQL expression producing the same token array as
    ``CodeTokenizer`` with DEFAULT rules (no rewritings / mappings /
    stopwords) — used by the oracle_sql() side of the driver's
    correctness gate. DuckDB and pyarrow both use RE2, so semantics
    match exactly."""
    camel1 = (
        f"regexp_replace({text_col}, '([a-z0-9])([A-Z])', '\\1 \\2', 'g')"
    )
    camel2 = (
        f"regexp_replace({camel1}, '([A-Z]+)([A-Z][a-z])', '\\1 \\2', 'g')"
    )
    split = f"regexp_split_to_array(lower({camel2}), '[^a-z0-9]+')"
    return (
        f"list_filter({split}, t -> NOT regexp_full_match(t, '[0-9]*'))"
    )
