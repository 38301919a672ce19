"""Merge stage: partial postings -> final docID-sorted, block-compressed
posting lists + per-shard sorted dictionary.

Called once per dictionary shard by the merge tasks of
``build_index.merge_phase`` — the reduce side of the build's one
shuffle (SURVEY.md §7.4), whose map side wrote each shard's partials
to its own row groups. One call = one dictionary shard; inside it
everything is vectorized numpy (decode all partial blobs, lexsort by
(term, doc), segment, block-encode).

Because df, N and avgdl are all known at merge time, exact per-posting
BM25 scores are computed here and the per-block MAX (rounded up to
float32) is stored as block-max metadata for query-time WAND skipping.

Reference analog: the LMDB secondary-index build
(``withIndexFull`` upserts key -> sorted id lists,
MediaServiceLive.scala:1806-1841) — the same "key -> docID-sorted
postings" product, built here as one vectorized shuffle instead of
per-record index walks (the reference's own performance note at
MediaServiceLive.scala:1412 shows why per-record walks don't scale).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from sotohp_ray.config import IndexConfig
from sotohp_ray.functions import codec as pcodec
from sotohp_ray.utils import value_offsets

DICT_SCHEMA = pa.schema(
    [
        ("term_shard", pa.uint32()),
        ("term", pa.string()),
        ("df", pa.uint64()),
        ("cf", pa.uint64()),
        ("max_score", pa.float32()),
        # df == 1 fast path: the single posting inlined (blob columns
        # null) — vectorized for the long identifier tail
        ("doc0", pa.uint64()),
        ("tf0", pa.uint64()),
        ("blob", pa.large_binary()),
        ("block_last", pa.large_list(pa.uint64())),
        ("block_gap_offs", pa.large_list(pa.uint32())),
        ("block_tf_offs", pa.large_list(pa.uint32())),
        ("tf_base", pa.uint32()),
        ("block_max", pa.large_list(pa.float32())),
        # positional postings (phrase/proximity): pos0 inlined for the
        # df==1 & tf==1 tail; otherwise pos_blob = varint stream of
        # per-occurrence position deltas (absolute at each posting
        # start), cf occurrences total. Positions are always varint —
        # they are only decoded wholesale on phrase queries, so block
        # alignment buys nothing.
        ("pos0", pa.uint64()),
        ("pos_blob", pa.large_binary()),
    ]
)


def _blob_bytes(col: pa.Array, rows: np.ndarray) -> tuple:
    """The values of ``rows`` (non-null) of a binary column, concatenated
    in row order, as uint8, and each row's byte offset into them
    (``len(rows) + 1`` entries). ``take`` copies exactly those values,
    so the bytes a null slot's offsets may span never leak in."""
    offs, data = value_offsets(col.take(pa.array(rows)))
    offs = offs.astype(np.int64)
    return data[offs[0]: offs[-1]], offs - offs[0]


def _decode_rows(
    col: pa.Array, rows: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """The varint values of ``rows`` (non-null) of a blob column, in
    one decode. Each row must hold exactly its ``counts`` entry of
    whole values, as a decode per row would demand; a check of the
    total alone would pass a row with a value too many next to one
    with a value too few, or a row whose last value runs on into the
    next row, and move postings to other terms or docs."""
    b, offs = _blob_bytes(col, rows)
    ends = np.zeros(b.size + 1, dtype=np.int64)
    np.cumsum(b < 0x80, out=ends[1:])
    per_row = ends[offs[1:]] - ends[offs[:-1]]
    filled = offs[1:] > offs[:-1]
    cut = np.zeros(rows.size, dtype=bool)
    cut[filled] = b[offs[1:][filled] - 1] >= 0x80
    bad = np.flatnonzero((per_row != counts) | cut)
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"merge: partial row {int(rows[i])} holds {int(per_row[i])}"
            f" whole values{' and a cut one' if cut[i] else ''}, its"
            f" count is {int(counts[i])}"
        )
    return pcodec.varint_decode(b, int(counts.sum()))


def decode_postings(
    group: pa.Table, counts: np.ndarray, row_starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every posting of a shard's partial rows, in row order, as
    (doc ids, tfs, dls); ``counts`` are the rows' posting counts and
    ``row_starts`` their prefix sums. Each blob column decodes in ONE
    varint pass over the bytes of its non-null rows."""
    # Inline rows are the ones with NO blob (the df_partial==1 fast
    # path); count==1 alone is NOT sufficient: a salt remainder chunk
    # can hold exactly one posting yet store it in the blob with the
    # inline columns zeroed.
    total = int(counts.sum())
    docs = np.empty(total, dtype=np.uint64)
    tfs = np.empty(total, dtype=np.uint64)
    dls = np.empty(total, dtype=np.uint64)
    doc_blob_col = group["doc_blob"].combine_chunks()
    inline = pc.is_null(doc_blob_col).to_numpy(zero_copy_only=False)
    inline_rows = np.flatnonzero(inline)
    if inline_rows.size:
        p = row_starts[inline_rows]
        docs[p] = group["doc0"].to_numpy(zero_copy_only=False)[inline_rows]
        tfs[p] = group["tf0"].to_numpy(zero_copy_only=False)[inline_rows]
        dls[p] = group["dl0"].to_numpy(zero_copy_only=False)[inline_rows]
    blob_rows = np.flatnonzero(~inline)
    if blob_rows.size:
        bcounts = counts[blob_rows]
        n_blob = int(bcounts.sum())
        seg = np.zeros(blob_rows.size + 1, dtype=np.int64)
        np.cumsum(bcounts, out=seg[1:])
        # each blob row's postings land at its row start
        dest = np.arange(n_blob, dtype=np.int64) + np.repeat(
            row_starts[blob_rows] - seg[:-1], bcounts
        )
        # every chunk's gap stream starts with an absolute doc id, so a
        # cumsum restarted at each chunk restores the ids (uint64 wraps
        # cancel in the difference)
        gaps = _decode_rows(doc_blob_col, blob_rows, bcounts)
        run = np.cumsum(gaps, dtype=np.uint64)
        before = np.zeros(blob_rows.size, dtype=np.uint64)
        before[1:] = run[seg[1:-1] - 1]
        docs[dest] = run - np.repeat(before, bcounts)
        tfs[dest] = _decode_rows(
            group["tf_blob"].combine_chunks(), blob_rows, bcounts
        )
        dls[dest] = _decode_rows(
            group["dl_blob"].combine_chunks(), blob_rows, bcounts
        )
    return docs, tfs, dls


def merge_shard(
    group: pa.Table, n_docs: int, avgdl: float, config: IndexConfig
) -> pa.Table:
    """All partial rows of one term_shard -> final dictionary rows,
    sorted by term."""
    k1, b = config.bm25.k1, config.bm25.b
    nrows = group.num_rows
    if nrows == 0:
        return DICT_SCHEMA.empty_table()
    shard = int(group["term_shard"][0].as_py())
    counts = group["count"].to_numpy(zero_copy_only=False).astype(np.int64)
    total = int(counts.sum())

    row_starts = np.zeros(nrows, dtype=np.int64)
    np.cumsum(counts[:-1], out=row_starts[1:])
    docs, tfs, dls = decode_postings(group, counts, row_starts)

    # ---- occurrence positions: ZERO decode/encode --------------------
    # A posting's position stream (absolute first value, deltas after)
    # is INVARIANT under posting reorder, so the merge only moves BYTE
    # RANGES: per-posting byte spans come from varint terminator bits
    # (one vectorized pass over the raw bytes), inline pos0 values are
    # batch-encoded once, and the sorted per-term streams are a single
    # fancy-index gather over the concatenated byte buffer.
    lens_all = tfs.astype(np.int64)
    post_bstart = np.zeros(total, dtype=np.int64)
    post_blen = np.zeros(total, dtype=np.int64)
    pos_col = group["pos_blob"].combine_chunks()
    pos_null = pc.is_null(pos_col).to_numpy(zero_copy_only=False)
    blob_rows = np.flatnonzero(~pos_null)
    if blob_rows.size:
        b_np = _blob_bytes(pos_col, blob_rows)[0]
        # byte boundary after each varint value
        vb = np.concatenate(
            ([0], np.flatnonzero(b_np < 0x80) + 1)
        ).astype(np.int64)
        # flat posting selector for blob rows, in stream order
        bcounts = counts[blob_rows]
        tot_post = int(bcounts.sum())
        sel_cum = np.zeros(blob_rows.size + 1, dtype=np.int64)
        np.cumsum(bcounts, out=sel_cum[1:])
        within = np.arange(tot_post, dtype=np.int64) - np.repeat(
            sel_cum[:-1], bcounts
        )
        post_sel = np.repeat(row_starts[blob_rows], bcounts) + within
        seg_lens = lens_all[post_sel]
        pv = np.zeros(seg_lens.size + 1, dtype=np.int64)
        np.cumsum(seg_lens, out=pv[1:])
        post_bstart[post_sel] = vb[pv[:-1]]
        post_blen[post_sel] = vb[pv[1:]] - vb[pv[:-1]]
    else:
        b_np = np.zeros(0, dtype=np.uint8)
    pos0_rows = np.flatnonzero(pos_null)
    if pos0_rows.size:
        p0vals = group["pos0"].to_numpy(zero_copy_only=False)[pos0_rows]
        p0buf, p0lens = pcodec.varint_encode_with_lengths(
            p0vals.astype(np.uint64)
        )
        p0start = np.zeros(p0lens.size, dtype=np.int64)
        np.cumsum(p0lens[:-1], out=p0start[1:])
        sel = row_starts[pos0_rows]
        post_bstart[sel] = p0start + b_np.size  # after the blob buffer
        post_blen[sel] = p0lens
        buf_all = np.concatenate(
            (b_np, np.frombuffer(p0buf, dtype=np.uint8))
        )
    else:
        buf_all = b_np

    # term code per posting
    tcodes_arr = pc.dictionary_encode(group["term"].combine_chunks())
    tcodes_arr = (
        tcodes_arr.combine_chunks()
        if isinstance(tcodes_arr, pa.ChunkedArray)
        else tcodes_arr
    )
    term_dict = tcodes_arr.dictionary
    row_codes = tcodes_arr.indices.to_numpy(zero_copy_only=False).astype(
        np.int64
    )
    post_codes = np.repeat(row_codes, counts)

    order = np.lexsort((docs, post_codes))
    codes_s = post_codes[order]
    docs_s = docs[order]
    tfs_s = tfs[order]
    dls_s = dls[order]

    # permute position byte-spans with their postings and materialize
    # the sorted stream with ONE gather; per-term blobs are then plain
    # byte slices at term boundaries
    sb = post_bstart[order]
    sl = post_blen[order]
    out_boff = np.zeros(sl.size + 1, dtype=np.int64)
    np.cumsum(sl, out=out_boff[1:])
    total_b = int(out_boff[-1])
    if total_b:
        # gather indices WITHOUT np.repeat(counts): millions of 1-3
        # byte segments make per-segment repeat a straggler; instead
        # write each segment's jump delta at its start and cumsum
        # (every posting has >= 1 position byte, so segment starts are
        # strictly increasing)
        jump = np.ones(total_b, dtype=np.int64)
        jump[0] = sb[0]
        if sl.size > 1:
            jump[out_boff[1:-1]] = sb[1:] - (sb[:-1] + sl[:-1]) + 1
        pos_sorted = buf_all[np.cumsum(jump)]
    else:
        pos_sorted = np.zeros(0, dtype=np.uint8)

    bounds = np.flatnonzero(np.diff(codes_s)) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [codes_s.size]))
    seg_len = ends - starts

    # df == 1 & tf == 1 terms (the long identifier tail): fully
    # vectorized — exact BM25 score, no blocks, posting + position
    # inlined. df==1 rows with tf>1 need a position blob, so they take
    # the multi path.
    single = (seg_len == 1) & (tfs_s[starts] == 1)
    s_idx = np.flatnonzero(single)
    m_idx = np.flatnonzero(~single)
    s_pos = starts[s_idx]
    s_docs = docs_s[s_pos]
    s_tfs = tfs_s[s_pos]
    # singles' positions: decode one varint each, vectorized over byte
    # lanes (a tf==1 posting's stream is exactly one absolute value)
    s_pos0 = np.zeros(s_idx.size, dtype=np.uint64)
    if s_idx.size:
        sp_off = out_boff[s_pos]
        sp_len = sl[s_pos]
        for j in range(int(sp_len.max()) if sp_len.size else 0):
            has = sp_len > j
            byt = pos_sorted[
                np.minimum(sp_off + j, max(total_b - 1, 0))
            ].astype(np.uint64)
            s_pos0[has] |= (byt[has] & np.uint64(0x7F)) << np.uint64(7 * j)
    s_f = s_tfs.astype(np.float64)
    s_dl = dls_s[s_pos].astype(np.float64)
    idf1 = math.log(1.0 + (n_docs - 1 + 0.5) / (1 + 0.5))
    s_scores = idf1 * (s_f * (k1 + 1.0)) / (
        s_f + k1 * (1.0 - b + b * s_dl / avgdl)
    )
    # float32 rounded UP so it stays an upper bound
    s_max = s_scores.astype(np.float32)
    lows = s_max.astype(np.float64) < s_scores
    s_max[lows] = np.nextafter(s_max[lows], np.float32(np.inf))

    # multi-posting terms: per-term loop, vectorized inside
    uniq_multi = (
        term_dict.take(pa.array(codes_s[starts[m_idx]], type=pa.int64()))
        if m_idx.size
        else pa.array([], type=pa.string())
    )
    uniq_list = uniq_multi.to_pylist()
    o_df, o_cf, o_max, o_tfbase = [], [], [], []
    o_blob, o_last, o_goffs, o_toffs, o_bmax, o_pos = [], [], [], [], [], []
    for j, k in enumerate(m_idx):
        lo, hi = int(starts[k]), int(ends[k])
        df = hi - lo
        d = docs_s[lo:hi]
        f = tfs_s[lo:hi].astype(np.float64)
        dl = dls_s[lo:hi].astype(np.float64)
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        denom = f + k1 * (1.0 - b + b * dl / avgdl)
        scores = idf * (f * (k1 + 1.0)) / denom
        blob, last, goffs, toffs, tf_base, bmax = pcodec.encode_postings_blocks(
            d, tfs_s[lo:hi], scores, config.block_size, codec=config.codec
        )
        # positions: byte-range slice of the sorted stream
        o_pos.append(pos_sorted[out_boff[lo]: out_boff[hi]].tobytes())
        o_df.append(df)
        o_cf.append(int(tfs_s[lo:hi].sum()))
        o_max.append(float(bmax.max()))
        o_blob.append(blob)
        o_last.append(last)
        o_goffs.append(goffs)
        o_toffs.append(toffs)
        o_tfbase.append(tf_base)
        o_bmax.append(bmax)

    n_m, n_s = len(o_df), s_idx.size
    uniq_single = (
        term_dict.take(pa.array(codes_s[s_pos], type=pa.int64()))
        if n_s
        else pa.array([], type=pa.string())
    )
    empty_list_u64 = pa.nulls(n_s, type=pa.large_list(pa.uint64()))
    empty_list_u32 = pa.nulls(n_s, type=pa.large_list(pa.uint32()))
    empty_list_f32 = pa.nulls(n_s, type=pa.large_list(pa.float32()))
    out = pa.table(
        {
            "term_shard": pa.array(
                np.full(n_m + n_s, shard, dtype=np.uint32), type=pa.uint32()
            ),
            "term": pa.concat_arrays(
                [
                    uniq_multi.cast(pa.string()),
                    uniq_single.cast(pa.string()),
                ]
            ),
            "df": pa.array(
                np.concatenate(
                    [np.asarray(o_df, dtype=np.uint64),
                     np.ones(n_s, dtype=np.uint64)]
                ),
                type=pa.uint64(),
            ),
            "cf": pa.array(
                np.concatenate(
                    [np.asarray(o_cf, dtype=np.uint64), s_tfs]
                ),
                type=pa.uint64(),
            ),
            "max_score": pa.array(
                np.concatenate(
                    [np.asarray(o_max, dtype=np.float32), s_max]
                ),
                type=pa.float32(),
            ),
            "doc0": pa.array(
                np.concatenate([np.zeros(n_m, dtype=np.uint64), s_docs]),
                type=pa.uint64(),
            ),
            "tf0": pa.array(
                np.concatenate([np.zeros(n_m, dtype=np.uint64), s_tfs]),
                type=pa.uint64(),
            ),
            "blob": pa.concat_arrays(
                [
                    pa.array(o_blob, type=pa.large_binary()),
                    pa.nulls(n_s, type=pa.large_binary()),
                ]
            ),
            "block_last": pa.concat_arrays(
                [
                    pa.array(
                        [x.tolist() for x in o_last],
                        type=pa.large_list(pa.uint64()),
                    ),
                    empty_list_u64,
                ]
            ),
            "block_gap_offs": pa.concat_arrays(
                [
                    pa.array(
                        [x.tolist() for x in o_goffs],
                        type=pa.large_list(pa.uint32()),
                    ),
                    empty_list_u32,
                ]
            ),
            "block_tf_offs": pa.concat_arrays(
                [
                    pa.array(
                        [x.tolist() for x in o_toffs],
                        type=pa.large_list(pa.uint32()),
                    ),
                    empty_list_u32,
                ]
            ),
            "tf_base": pa.array(
                np.concatenate(
                    [np.asarray(o_tfbase, dtype=np.uint32),
                     np.zeros(n_s, dtype=np.uint32)]
                ),
                type=pa.uint32(),
            ),
            "block_max": pa.concat_arrays(
                [
                    pa.array(
                        [x.tolist() for x in o_bmax],
                        type=pa.large_list(pa.float32()),
                    ),
                    empty_list_f32,
                ]
            ),
            "pos0": pa.array(
                np.concatenate(
                    [np.zeros(n_m, dtype=np.uint64), s_pos0]
                ),
                type=pa.uint64(),
            ),
            "pos_blob": pa.concat_arrays(
                [
                    pa.array(o_pos, type=pa.large_binary()),
                    pa.nulls(n_s, type=pa.large_binary()),
                ]
            ),
        },
        schema=DICT_SCHEMA,
    )
    # dictionary sorted by term within the shard (ordered navigation /
    # seek — the reference's sorted-key iteration discipline, O1/O2)
    idx = pc.sort_indices(out, sort_keys=[("term", "ascending")])
    return out.take(idx)
