"""SPIMI partition indexing stage: one input partition -> docmeta +
partial postings + lineage.

The per-partition work is the analog of the reference's synchronize
chain (scan -> originalFromFile parse -> sha256 state -> tokenize ->
publish; MediaServiceLive.scala:1503-1535), re-expressed as vectorized
Arrow kernels:

  read partition -> sort by (repo,path,commit) -> dense docIDs =
  partition base offset + row index (the positional-index /
  zipWithIndex pattern, MediaServiceLive.scala:1591-1600) -> sha256 +
  uuid5 -> tokenize -> per-(doc,term) tf -> delta+varint-encoded
  partial posting rows keyed by (term_shard, term, salt).

Salt chunks: one term's postings within a partition are chunked into
docID-contiguous sub-rows of <= salt_rows postings, so a hot term
(``def`` in ~100% of docs) never produces an unboundedly large shuffled
row. Chunks stay docID-sorted, so the merge concatenates them without
a global re-sort.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from sotohp_ray.config import IndexConfig
from sotohp_ray.functions import codec as pcodec
from sotohp_ray.functions.hashing import (
    doc_uuid_column,
    sha256_column,
    term_shard_ids,
)
from sotohp_ray.functions.tokenizer import CodeTokenizer

DOCMETA_SCHEMA = pa.schema(
    [
        ("doc_id", pa.uint64()),
        ("doc_uuid", pa.string()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("content_sha256", pa.string()),
        ("doc_len", pa.uint32()),
        ("partition_id", pa.uint32()),
    ]
)

PARTIALS_SCHEMA = pa.schema(
    [
        ("term_shard", pa.uint32()),
        ("term", pa.string()),
        ("salt", pa.uint32()),
        ("partition_id", pa.uint32()),
        ("count", pa.uint32()),
        # count == 1 fast path: posting inlined as plain columns (blobs
        # null) — the df=1 long tail is ~half of all postings rows in a
        # code corpus and a per-term Python encode loop over it would
        # dominate the build; inline rows are assembled fully vectorized
        ("doc0", pa.uint64()),
        ("tf0", pa.uint64()),
        ("dl0", pa.uint64()),
        ("doc_blob", pa.large_binary()),
        ("tf_blob", pa.large_binary()),
        ("dl_blob", pa.large_binary()),
        # positions: pos0 inlined for the (count==1, tf==1) tail;
        # otherwise pos_blob = delta-encoded occurrence positions
        # (absolute at each posting start), cf_partial occurrences
        ("pos0", pa.uint64()),
        ("pos_blob", pa.large_binary()),
        ("cf_partial", pa.uint64()),
        ("max_tf", pa.uint32()),
    ]
)


def index_partition_table(
    t: pa.Table, partition_id: int, base_doc_id: int, config: IndexConfig,
    tokenizer: CodeTokenizer | None = None,
) -> tuple[pa.Table, pa.Table, dict]:
    """Pure function: input-partition table -> (docmeta, partials,
    metrics). Separated from I/O so it is unit-testable and reusable in
    a plain ``read_parquet -> map_batches`` pipeline."""
    tok = tokenizer or CodeTokenizer(config.tokenizer)
    # S1 include/ignore masks: vectorized RE2 path filter before any
    # other work (FileSystemSearch.scala:56-77 analog). Doc ids stay
    # partition-base + kept-row index — dense within the partition,
    # gapped across partitions when rows were masked out (the same
    # sparse-id contract compaction already established).
    if config.path_include is not None:
        t = t.filter(
            pc.match_substring_regex(t["path"], config.path_include)
        )
    if config.path_ignore is not None:
        t = t.filter(
            pc.invert(
                pc.match_substring_regex(t["path"], config.path_ignore)
            )
        )
    n = t.num_rows
    idx = pc.sort_indices(
        t,
        sort_keys=[
            ("repo", "ascending"),
            ("path", "ascending"),
            ("commit", "ascending"),
        ],
    )
    t = t.take(idx)
    doc_ids = np.arange(base_doc_id, base_doc_id + n, dtype=np.uint64)
    content = t["content"].combine_chunks()
    sha = sha256_column(content)
    uuids = doc_uuid_column(t["repo"], t["path"], t["commit"])

    # numpy TF fast path: postings come back already sorted by
    # (term_code, row) — with dense ascending doc_ids that IS the
    # (term, doc) postings order, so no lexsort is needed below.
    # occ_pos carries every occurrence's token position (phrase /
    # proximity support), aligned with postings via tf.
    rows, tcodes_s, tf_i, term_dict, occ_pos = (
        tok.term_frequency_codes_positions(content)
    )
    tfs = tf_i.astype(np.uint64)

    doc_len = (
        np.bincount(rows, weights=tf_i, minlength=n).astype(np.uint64)
        if rows.size
        else np.zeros(n, dtype=np.uint64)
    )

    docmeta = pa.table(
        {
            "doc_id": pa.array(doc_ids, type=pa.uint64()),
            "doc_uuid": uuids,
            "repo": t["repo"].combine_chunks(),
            "path": t["path"].combine_chunks(),
            "commit": t["commit"].combine_chunks(),
            "lang": t["lang"].combine_chunks(),
            "content_sha256": sha,
            "doc_len": pa.array(doc_len.astype(np.uint32), type=pa.uint32()),
            "partition_id": pa.array(
                np.full(n, partition_id, dtype=np.uint32), type=pa.uint32()
            ),
        },
        schema=DOCMETA_SCHEMA,
    )

    # ---- partial postings, vectorized ------------------------------
    # already in (term_code, doc) order from term_frequency_codes
    docs_s = doc_ids[rows]
    tfs_s = tfs
    dls_s = doc_len[rows]

    # segment boundaries per term
    if tcodes_s.size == 0:
        starts = np.zeros(0, dtype=np.int64)
        ends = starts
        uniq_terms = pa.array([], type=pa.string())
        shard_per_term = np.zeros(0, dtype=np.uint32)
    else:
        bounds = np.flatnonzero(np.diff(tcodes_s)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [tcodes_s.size]))
        uniq_terms = term_dict.take(pa.array(tcodes_s[starts], type=pa.int64()))
        shard_per_term = term_shard_ids(uniq_terms, config.num_term_shards)

    # per-occurrence position gaps (absolute value at each posting
    # start so any posting range slices self-contained)
    n_post = tfs_s.size
    occ_starts = np.zeros(n_post + 1, dtype=np.int64)
    np.cumsum(tf_i, out=occ_starts[1:])
    pos_u = occ_pos.astype(np.uint64)
    pos_gaps = np.empty(pos_u.size, dtype=np.uint64)
    if pos_u.size:
        pos_gaps[0] = pos_u[0]
        np.subtract(pos_u[1:], pos_u[:-1], out=pos_gaps[1:])
        pos_gaps[occ_starts[:-1]] = pos_u[occ_starts[:-1]]

    # positions are ALWAYS varint in partials (self-delimiting, so the
    # whole partition's stream encodes ONCE and every chunk/row slices
    # its byte range — zero per-chunk position encodes)
    pos_bytes_all, pos_lens_all = pcodec.varint_encode_with_lengths(pos_gaps)
    pos_bcum = np.zeros(pos_gaps.size + 1, dtype=np.int64)
    np.cumsum(pos_lens_all, out=pos_bcum[1:])

    salt_rows = config.salt_rows
    seg_len = ends - starts
    single = seg_len == 1  # df_partial == 1 tail: fully vectorized
    multi_idx = np.flatnonzero(~single)
    single_idx = np.flatnonzero(single)

    col_doc, col_tf, col_dl, col_pos = [], [], [], []
    shard_multi = np.zeros(0, dtype=np.uint32)
    term_multi = pa.array([], type=pa.string())
    salt_multi = np.zeros(0, dtype=np.uint32)
    count_multi = np.zeros(0, dtype=np.uint32)
    cf_multi = np.zeros(0, dtype=np.uint64)
    maxtf_multi = np.zeros(0, dtype=np.uint32)
    if multi_idx.size:
        # --- vectorized salt chunking (the positions-stream pattern):
        # the partition's gap/tf/dl streams varint-encode ONCE with
        # per-value byte lengths; every chunk row slices its byte
        # range — zero per-chunk Python encodes. Valid because varint
        # is per-value self-delimiting, so a slice of the whole-stream
        # encoding is bit-identical to encoding the chunk alone.
        mlo, mhi = starts[multi_idx], ends[multi_idx]
        n_chunks = (mhi - mlo + salt_rows - 1) // salt_rows
        tot = int(n_chunks.sum())
        tkc = np.repeat(np.arange(multi_idx.size), n_chunks)
        csum0 = np.zeros(multi_idx.size + 1, dtype=np.int64)
        np.cumsum(n_chunks, out=csum0[1:])
        salt_multi = (
            np.arange(tot, dtype=np.int64) - csum0[:-1][tkc]
        ).astype(np.uint32)
        c0 = mlo[tkc] + salt_multi.astype(np.int64) * salt_rows
        c1 = np.minimum(mhi[tkc], c0 + salt_rows)
        # doc gaps, reset to the absolute doc id at EVERY segment and
        # chunk start (single-term resets avoid cross-term uint64
        # wraparound gaps bloating the shared stream encode)
        gaps_all = np.empty(docs_s.size, dtype=np.uint64)
        gaps_all[0] = docs_s[0]
        np.subtract(docs_s[1:], docs_s[:-1], out=gaps_all[1:])
        gaps_all[starts] = docs_s[starts]
        gaps_all[c0] = docs_s[c0]
        gbytes, glens = pcodec.varint_encode_with_lengths(gaps_all)
        tbytes, tlens = pcodec.varint_encode_with_lengths(tfs_s)
        lbytes, llens = pcodec.varint_encode_with_lengths(dls_s)
        gcum = np.zeros(docs_s.size + 1, dtype=np.int64)
        tcum = np.zeros(docs_s.size + 1, dtype=np.int64)
        lcum = np.zeros(docs_s.size + 1, dtype=np.int64)
        np.cumsum(glens, out=gcum[1:])
        np.cumsum(tlens, out=tcum[1:])
        np.cumsum(llens, out=lcum[1:])
        col_doc = [gbytes[gcum[a]:gcum[b]] for a, b in zip(c0, c1)]
        col_tf = [tbytes[tcum[a]:tcum[b]] for a, b in zip(c0, c1)]
        col_dl = [lbytes[lcum[a]:lcum[b]] for a, b in zip(c0, c1)]
        col_pos = [
            pos_bytes_all[pos_bcum[occ_starts[a]]:pos_bcum[occ_starts[b]]]
            for a, b in zip(c0, c1)
        ]
        shard_multi = shard_per_term[multi_idx][tkc].astype(np.uint32)
        term_multi = uniq_terms.take(
            pa.array(multi_idx[tkc], type=pa.int64())
        ).cast(pa.string())
        count_multi = (c1 - c0).astype(np.uint32)
        # cf per chunk from the occurrence prefix sums; max_tf via the
        # reduceat boundary-pair trick (odd outputs discarded)
        cf_multi = (occ_starts[c1] - occ_starts[c0]).astype(np.uint64)
        tf_pad = np.concatenate(
            (tfs_s, np.zeros(1, dtype=tfs_s.dtype))
        )
        bnds = np.empty(2 * tot, dtype=np.int64)
        bnds[0::2] = c0
        bnds[1::2] = c1
        maxtf_multi = np.maximum.reduceat(tf_pad, bnds)[0::2].astype(
            np.uint32
        )
    n_multi = len(col_doc)
    n_single = single_idx.size
    s_pos = starts[single_idx]
    # singles: tf==1 inlines its position as pos0 (null blob); tf>1
    # slices its byte range from the partition stream
    s_tf1 = tfs_s[s_pos] == 1
    single_pos_blobs = [
        None
        if one
        else pos_bytes_all[
            pos_bcum[occ_starts[p]]: pos_bcum[occ_starts[p + 1]]
        ]
        for p, one in zip(s_pos, s_tf1)
    ]

    partials = pa.table(
        {
            "term_shard": pa.array(
                np.concatenate(
                    [shard_multi, shard_per_term[single_idx].astype(np.uint32)]
                ),
                type=pa.uint32(),
            ),
            "term": pa.concat_arrays(
                [
                    term_multi,
                    uniq_terms.take(pa.array(single_idx)).cast(pa.string()),
                ]
            ),
            "salt": pa.array(
                np.concatenate(
                    [salt_multi, np.zeros(n_single, dtype=np.uint32)]
                ),
                type=pa.uint32(),
            ),
            "partition_id": pa.array(
                np.full(n_multi + n_single, partition_id, dtype=np.uint32),
                type=pa.uint32(),
            ),
            "count": pa.array(
                np.concatenate(
                    [count_multi, np.ones(n_single, dtype=np.uint32)]
                ),
                type=pa.uint32(),
            ),
            "doc0": pa.array(
                np.concatenate(
                    [np.zeros(n_multi, dtype=np.uint64), docs_s[s_pos]]
                ),
                type=pa.uint64(),
            ),
            "tf0": pa.array(
                np.concatenate(
                    [np.zeros(n_multi, dtype=np.uint64), tfs_s[s_pos]]
                ),
                type=pa.uint64(),
            ),
            "dl0": pa.array(
                np.concatenate(
                    [np.zeros(n_multi, dtype=np.uint64), dls_s[s_pos]]
                ),
                type=pa.uint64(),
            ),
            "doc_blob": pa.concat_arrays(
                [
                    pa.array(col_doc, type=pa.large_binary()),
                    pa.nulls(n_single, type=pa.large_binary()),
                ]
            ),
            "tf_blob": pa.concat_arrays(
                [
                    pa.array(col_tf, type=pa.large_binary()),
                    pa.nulls(n_single, type=pa.large_binary()),
                ]
            ),
            "dl_blob": pa.concat_arrays(
                [
                    pa.array(col_dl, type=pa.large_binary()),
                    pa.nulls(n_single, type=pa.large_binary()),
                ]
            ),
            "pos0": pa.array(
                np.concatenate(
                    [np.zeros(n_multi, dtype=np.uint64),
                     np.where(
                         s_tf1, pos_u[occ_starts[s_pos]], np.uint64(0)
                     ) if n_single else np.zeros(0, dtype=np.uint64)]
                ),
                type=pa.uint64(),
            ),
            "pos_blob": pa.concat_arrays(
                [
                    pa.array(col_pos, type=pa.large_binary()),
                    pa.array(single_pos_blobs, type=pa.large_binary()),
                ]
            ),
            "cf_partial": pa.array(
                np.concatenate([cf_multi, tfs_s[s_pos]]),
                type=pa.uint64(),
            ),
            "max_tf": pa.array(
                np.concatenate(
                    [maxtf_multi, tfs_s[s_pos].astype(np.uint32)]
                ),
                type=pa.uint32(),
            ),
        },
        schema=PARTIALS_SCHEMA,
    )

    metrics = {
        "partition_id": partition_id,
        "doc_count": n,
        "token_count": int(doc_len.sum()),
        "posting_count": int(tfs.size),
        "distinct_terms": int(starts.size),
    }
    return docmeta, partials, metrics
