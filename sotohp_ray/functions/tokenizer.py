"""Vectorized code-aware tokenizer.

Modeled on the behavior of the reference's ``extractKeywords``
(MediaServiceLive.scala:1641-1668): ordered regex rewritings, separator
split, camelCase split (``camelTokenize``), per-token mapping table,
pure-number drop, lowercase, stopword removal.

Batches are analyzed by one of two equal paths, with no Python per
token on either: an all-ASCII batch without nulls by ``_ascii_kernel``,
one byte-class pass over the column's UTF-8 buffer in numpy, and every
other batch (and every batch under rules with rewritings) by a chain of
pyarrow.compute RE2 kernels over the string column
(``CodeTokenizer._arrow_chain``).
Single strings take Python ``re`` when ASCII (``tokens_of``).

The chain is expressible in DuckDB SQL (RE2 ``regexp_replace`` /
``regexp_split_to_array``), which is what makes the driver's SQL-oracle
comparison possible — see ``sql_token_expr`` below.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from sotohp_ray.config import TokenizerRules
from sotohp_ray.utils import value_offsets

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
    MediaServiceLive.scala:1670-1676); per-batch work is all numpy and
    Arrow kernels."""

    def __init__(self, rules: TokenizerRules | None = None):
        self.rules = rules or TokenizerRules()
        self._mapping = self.rules.mapping_dict()
        self._stops = (
            pa.array(sorted(self.rules.stopwords), type=pa.string())
            if self.rules.stopwords
            else None
        )
        # rewritings are RE2 patterns and replacements, which Python
        # ``re`` and the byte kernel need not read the same way: only
        # the Arrow chain runs them
        self._re_ok = not self.rules.rewritings

    # ---- core chain -------------------------------------------------

    def token_lists(self, content: pa.Array | pa.ChunkedArray) -> pa.Array:
        """content column -> list<string> of analyzed terms per row.
        Order within a row is preserved (needed for positional features
        like fingerprinting); filtering keeps relative order."""
        parents, flat = self.exploded(content)
        lengths = np.bincount(
            parents.to_numpy(zero_copy_only=False), minlength=len(content)
        )
        offsets = np.zeros(len(content) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return pa.LargeListArray.from_arrays(pa.array(offsets), flat)

    def exploded(
        self, content: pa.Array | pa.ChunkedArray
    ) -> tuple[pa.Array, pa.Array]:
        """content column -> (parent_row_index, term) exploded arrays,
        analyzed. The fast path for index building (no list rebuild).

        Routing is per batch: an all-ASCII batch without nulls, under
        rules without rewritings, goes through ``_ascii_kernel`` chunk
        by chunk; any other batch goes through the Arrow chain."""
        if not (
            self._re_ok
            and content.null_count == 0
            and np.all(pc.string_is_ascii(content).to_numpy(
                zero_copy_only=False
            ))
        ):
            return self._map_stop(*self._arrow_chain(content))
        if not isinstance(content, pa.ChunkedArray):
            return self._map_stop(*_ascii_kernel(content))
        parts, base = [], 0
        for chunk in content.chunks or [pa.array([], type=content.type)]:
            p, f = _ascii_kernel(chunk)
            parts.append((p + base, f))
            base += len(chunk)
        return self._map_stop(
            np.concatenate([p for p, _ in parts]),
            pa.concat_arrays([f for _, f in parts]),
        )

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
        parents, flat = self.exploded(content)
        d = pc.dictionary_encode(flat)
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
        # a stable sort by code alone orders the exploded (row, position)
        # stream by (code, row, position), the stable key order; Arrow's
        # small-range integer sort takes 0.6 ms where numpy's stable
        # argsort of the keys takes 6.9 ms (one 1,500-doc partition)
        order = pc.sort_indices(d.indices).to_numpy()
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
        stopwords run in ``_map_stop``'s order. Every other string
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

    def _arrow_chain(
        self, content: pa.Array | pa.ChunkedArray
    ) -> tuple[np.ndarray, pa.Array]:
        """The RE2 analysis chain (rewritings, the two camelCase
        rewrites, ``utf8_lower``, split, pure-number drop) -> (parents,
        terms) before mapping and stopwords. Runs every batch that holds
        a non-ASCII or null row, and every batch under rules with
        rewritings."""
        s = content
        for pat, rep in self.rules.rewritings:
            s = pc.replace_substring_regex(s, pat, rep)
        s = pc.replace_substring_regex(s, _CAMEL1[0], _CAMEL1[1])
        s = pc.replace_substring_regex(s, _CAMEL2[0], _CAMEL2[1])
        lists = pc.split_pattern_regex(pc.utf8_lower(s), _SPLIT)
        flat = pc.list_flatten(lists)
        parents = pc.list_parent_indices(lists)
        keep = pc.invert(pc.match_substring_regex(flat, _DROP))
        flat = _combined(pc.filter(flat, keep))
        parents = _combined(pc.filter(parents, keep))
        return parents.to_numpy(zero_copy_only=False), flat

    def _map_stop(
        self, parents: np.ndarray, flat: pa.Array
    ) -> tuple[pa.Array, pa.Array]:
        """Per-token mapping table, then stopword removal."""
        if self._mapping:
            # dictionary-encode so the Python mapping runs once per
            # UNIQUE token, not per token occurrence
            d = pc.dictionary_encode(flat)
            uniq = d.dictionary.to_pylist()
            mapped = pa.array(
                [self._mapping.get(u, u) for u in uniq], type=flat.type
            )
            flat = pc.take(mapped, d.indices)
        if self._stops is not None:
            keep = pc.invert(pc.is_in(flat, value_set=self._stops))
            flat = pc.filter(flat, keep)
            parents = parents[keep.to_numpy(zero_copy_only=False)]
        return pa.array(parents, type=pa.int64()), flat


def _combined(a: pa.Array | pa.ChunkedArray) -> pa.Array:
    return a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a


def _ascii_kernel(arr: pa.Array) -> tuple[np.ndarray, pa.Array]:
    """An ASCII array without nulls -> (parents, terms) before mapping
    and stopwords, equal to ``_arrow_chain``'s, in one byte-class pass
    over the column's UTF-8 buffer.

    On ASCII the chain's cuts are exactly these token starts: an alnum
    byte first in its row or after a non-alnum byte, an ``[A-Z]`` after
    ``[a-z0-9]`` (the first camel rewrite), and the last capital of a
    run of two or more capitals followed by ``[a-z]`` (the second; it
    runs after the first, which never splits a run of capitals). A
    token is digit-only exactly when it starts with a digit run that is
    not followed by ``[a-z]`` in its row (an ``[A-Z]`` there starts a
    new token). Every per-byte step is a compare or a shift: a table
    lookup costs about as much as all of them together."""
    large = pa.types.is_large_string(arr.type)
    offs, data = value_offsets(arr)
    offs = offs.astype(np.int64)
    lo, hi = int(offs[0]), int(offs[-1])
    if hi == lo:
        return np.zeros(0, dtype=np.int64), pa.array([], type=arr.type)
    b = data[lo:hi]
    filled = np.flatnonzero(offs[:-1] < offs[1:])
    row_first = offs[filled] - lo
    row_last = offs[filled + 1] - lo - 1

    def shifted(x: np.ndarray, by: int, edge: np.ndarray) -> np.ndarray:
        # x[i - by] at i, False where that byte is in another row
        out = np.zeros_like(x)
        if by > 0:
            out[by:] = x[:-by]
        else:
            out[:by] = x[-by:]
        out[edge] = False
        return out

    # in-place steps keep the per-byte temporaries to a few bytes a byte
    digit = (b - np.uint8(ord("0"))) < 10
    upper = (b - np.uint8(ord("A"))) < 26
    lower = (b - np.uint8(ord("a"))) < 26
    next_lower = shifted(lower, -1, row_last)
    lower |= digit
    start = shifted(lower, 1, row_first)  # after [a-z0-9]
    lower |= upper
    alnum = lower
    del lower
    start |= shifted(upper, 1, row_first) & next_lower
    start &= upper
    start |= ~shifted(alnum, 1, row_first)
    start &= alnum
    # digit-only tokens: a digit run ends where the next byte in the
    # row is no digit; the token keeps a letter iff that byte is [a-z]
    led = np.flatnonzero(start & digit)
    if led.size:
        run_ends = np.flatnonzero(digit & ~shifted(digit, -1, row_last))
        ends = run_ends[np.searchsorted(run_ends, led)]
        drop = ~next_lower[ends]
        first, lens = led[drop], ends[drop] - led[drop] + 1
        if first.size:
            seg = np.cumsum(lens)
            alnum[np.arange(seg[-1]) + np.repeat(first - seg + lens, lens)] = (
                False
            )
            start[first] = False
    # lowercase [A-Z] (bit 5) and flag token starts in bit 7, then keep
    # the token bytes
    packed = b | (upper.view(np.uint8) << 5)
    packed |= start.view(np.uint8) << 7
    packed = np.compress(alnum, packed)
    heads = np.flatnonzero(packed & 0x80)
    packed &= 0x7F
    per_row = np.add.reduceat(start, row_first, dtype=np.int64)
    parents = np.repeat(filled.astype(np.int64), per_row)
    out_offs = np.empty(heads.size + 1, dtype=np.int64 if large else np.int32)
    out_offs[:-1] = heads
    out_offs[-1] = packed.size
    flat = pa.Array.from_buffers(
        arr.type, heads.size,
        [None, pa.py_buffer(out_offs), pa.py_buffer(packed)],
    )
    return parents, flat


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
