"""Posting-list compression codecs (numpy-vectorized, no Python loops
over postings or blocks).

Two codecs behind one interface (public-literature algorithms —
delta + LEB128 varint, and delta + per-block frame-of-reference bit
packing, the exception-free core of PForDelta):

- ``varint``: docID gaps and tf values LEB128-encoded.
- ``pfor``: per block, gaps stored as fixed ``b``-bit integers where
  ``b = bits(max gap in block)`` (one byte header), tfs likewise.

Posting lists are stored in docID-sorted blocks of ``block_size`` docs.
Per block we keep skip metadata (last_doc, byte offset, max BM25 score
upper bound) so query-time block-max WAND can skip whole blocks without
decoding them.

Decoding a term, whole or one of its blocks, is one kernel call over
both of its streams: for pfor, one gather of a 64-bit word pair
per value, shifted and masked to the block's width, whatever the mix
of widths (vectorized bit unpacking after Lemire & Boytsov, "Decoding
billions of integers per second through vectorization", SPE 2015).

Reference analog: sotohp's sortable binary key packing
(model/package.scala:48-100 — monotone byte encodings so lexicographic
order == logical order) is the same discipline applied here to docID
gap encodings.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------- varint


def varint_encode_with_lengths(
    values: np.ndarray,
) -> tuple[bytes, np.ndarray]:
    """LEB128-encode a uint64 array, vectorized; also return the byte
    length of each value's encoding so callers can compute sub-stream
    offsets (per-block boundaries) without re-encoding per block."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return b"", np.zeros(0, dtype=np.int64)
    # 7-bit groups per value (>=1); bit_length via a shift loop (<=10 iters,
    # log2 is unsafe for uint64)
    tmp = v.copy()
    nbytes = np.ones(v.shape, dtype=np.int64)
    tmp >>= np.uint64(7)
    while tmp.any():
        nbytes += (tmp > 0).astype(np.int64)
        tmp >>= np.uint64(7)
    total = int(nbytes.sum())
    out = np.zeros(total, dtype=np.uint8)
    starts = np.zeros(v.shape, dtype=np.int64)
    np.cumsum(nbytes[:-1], out=starts[1:])
    maxb = int(nbytes.max())
    for j in range(maxb):
        mask = nbytes > j
        chunk = (v[mask] >> np.uint64(7 * j)) & np.uint64(0x7F)
        cont = (nbytes[mask] > (j + 1)).astype(np.uint8) << 7
        out[starts[mask] + j] = chunk.astype(np.uint8) | cont
    return out.tobytes(), nbytes


def varint_encode(values: np.ndarray) -> bytes:
    """LEB128-encode a uint64 array, vectorized."""
    return varint_encode_with_lengths(values)[0]


def varint_decode(buf: bytes | memoryview, count: int | None = None) -> np.ndarray:
    """Decode LEB128 buffer into a uint64 array, vectorized."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.zeros(0, dtype=np.uint64)
    is_end = b < 0x80
    # value index per byte: 0-based, increments after each end byte
    vidx = np.zeros(b.shape, dtype=np.int64)
    vidx[1:] = np.cumsum(is_end[:-1])
    nvals = int(is_end.sum())
    starts = np.zeros(nvals, dtype=np.int64)
    # start position of each value = positions where previous byte ended
    end_pos = np.flatnonzero(is_end)
    starts[1:] = end_pos[:-1] + 1
    pos_in_group = np.arange(b.size, dtype=np.int64) - starts[vidx]
    out = np.zeros(nvals, dtype=np.uint64)
    contrib = (b.astype(np.uint64) & np.uint64(0x7F)) << (
        np.uint64(7) * pos_in_group.astype(np.uint64)
    )
    np.add.at(out, vidx, contrib)
    if count is not None and nvals != count:
        raise ValueError(f"varint_decode: expected {count} values, got {nvals}")
    return out


# ------------------------------------------------------------------ pfor


def _bits_needed(maxval: int) -> int:
    return max(1, int(maxval).bit_length())


def pfor_encode(values: np.ndarray) -> bytes:
    """Frame-of-reference bit packing: 1-byte width header + count as
    varint is NOT stored (caller knows count) + packed little-endian
    bitstream. Values must fit in 32 bits after delta (docID gaps and
    tfs do; enforced)."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return b"\x00"
    mx = int(v.max())
    if mx >= (1 << 32):
        # fall back to varint for pathological gaps; tag width=0xFF
        return b"\xff" + varint_encode(v)
    width = _bits_needed(mx)
    # pack: place each value's bits into a flat bit buffer
    nbits_total = width * v.size
    out = np.zeros((nbits_total + 7) // 8 + 1, dtype=np.uint8)
    out[0] = width
    bitpos = np.arange(v.size, dtype=np.int64) * width
    # write up to ceil(width/8)+1 bytes per value
    for j in range((width + 7) // 8 + 1):
        byte_idx = (bitpos >> 3) + j
        shift = (bitpos & 7).astype(np.uint64)
        part = (v << shift) >> np.uint64(8 * j)
        valid = byte_idx < (out.size - 1)
        np.bitwise_or.at(
            out[1:], byte_idx[valid], (part[valid] & np.uint64(0xFF)).astype(np.uint8)
        )
    return out.tobytes()


def pfor_decode(buf: bytes | memoryview, count: int) -> np.ndarray:
    """Decode one ``pfor_encode`` block of ``count`` values."""
    b = np.frombuffer(buf, dtype=np.uint8)
    return _pfor_unpack(b, np.zeros(1, dtype=np.int64),
                        np.array([b.size]), np.array([count]))


CODECS = {
    "varint": (varint_encode, varint_decode),
    "pfor": (pfor_encode, pfor_decode),
}


# ------------------------------------------------- block-level structure


def encode_postings_blocks(
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    scores: np.ndarray,
    block_size: int,
    codec: str = "varint",
) -> tuple[bytes, np.ndarray, np.ndarray, np.ndarray, int, np.ndarray]:
    """Encode one term's docID-sorted postings into stream-of-blocks
    format: blob = [gap stream][tf stream], each stream the
    concatenation of per-block encodings.

    Returns (blob, block_last_docs:uint64[], gap_offs:uint32[],
    tf_offs:uint32[], tf_base:int, block_max_scores:float32[]);
    gap_offs/tf_offs are byte offsets of each block WITHIN its stream,
    tf_base = len(gap stream) = where the tf stream starts.

    Every gap is the delta from the previous posting (block boundaries
    do NOT reset deltas), so a full decode is ONE pass over each stream
    plus one global cumsum for the varint codec — no per-block loop on
    the query hot path. Single-block random access still works via the
    per-block offsets.

    ``scores`` are the exact float64 BM25 per-posting scores (df, N and
    avgdl are known at merge time); the stored per-block bound is the
    block max rounded UP to float32 so it stays an upper bound.
    """
    n = doc_ids.size
    doc_ids = doc_ids.astype(np.uint64)
    tfs = tfs.astype(np.uint64)
    nblocks = (n + block_size - 1) // block_size
    starts = np.arange(nblocks, dtype=np.int64) * block_size
    ends = np.minimum(starts + block_size, n)
    last_docs = doc_ids[ends - 1].astype(np.uint64)
    gaps = np.empty(n, dtype=np.uint64)
    gaps[0] = doc_ids[0]
    np.subtract(doc_ids[1:], doc_ids[:-1], out=gaps[1:])

    # block-max upper bounds, vectorized: segment max then round UP to
    # float32 so the bound stays an upper bound after narrowing
    seg_max = np.maximum.reduceat(scores.astype(np.float64), starts)
    maxscores = seg_max.astype(np.float32)
    low = maxscores.astype(np.float64) < seg_max
    maxscores[low] = np.nextafter(maxscores[low], np.float32(np.inf))

    if codec == "varint":
        # ONE encode per stream; per-block byte offsets derive from the
        # per-value encoded lengths (no per-block Python loop — the
        # hot-term straggler fix: a df=600k term is 4700 blocks)
        gbytes, glens = varint_encode_with_lengths(gaps)
        tbytes, tlens = varint_encode_with_lengths(tfs)
        gcum = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(glens, out=gcum[1:])
        tcum = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(tlens, out=tcum[1:])
        gap_offs = gcum[starts].astype(np.uint32)
        tf_offs = tcum[starts].astype(np.uint32)
        blob = gbytes + tbytes
        return blob, last_docs, gap_offs, tf_offs, len(gbytes), maxscores

    if codec == "pfor":
        gbytes, gap_offs = _pfor_encode_stream(gaps, starts, ends)
        tbytes, tf_offs = _pfor_encode_stream(tfs, starts, ends)
        blob = gbytes + tbytes
        return (blob, last_docs, gap_offs, tf_offs, len(gbytes),
                maxscores)

    enc, _ = CODECS[codec]
    gap_offs = np.zeros(nblocks, dtype=np.uint32)
    tf_offs = np.zeros(nblocks, dtype=np.uint32)
    gparts: list[bytes] = []
    tparts: list[bytes] = []
    gpos = tpos = 0
    for k in range(nblocks):
        lo, hi = int(starts[k]), int(ends[k])
        g = enc(gaps[lo:hi])
        t = enc(tfs[lo:hi])
        gap_offs[k] = gpos
        tf_offs[k] = tpos
        gparts.append(g)
        tparts.append(t)
        gpos += len(g)
        tpos += len(t)
    blob = b"".join(gparts) + b"".join(tparts)
    return blob, last_docs, gap_offs, tf_offs, gpos, maxscores


def _pfor_encode_stream(
    values: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[bytes, np.ndarray]:
    """Encode a sequence of blocks (slices of ``values``) as one
    concatenated pfor stream without a per-block Python loop: blocks
    group by (width, count) and each class bit-packs as one 2-D
    scatter. Per-block layout matches ``pfor_decode``'s expectations
    (width byte + packed little-endian bitstream; one trailing pad
    byte per block absorbs the last value's byte-lane spill). Blocks
    with >32-bit values fall back to the tagged varint path
    individually (pathological)."""
    nblocks = starts.size
    # per-block max -> width (vectorized bit_length via shift loop)
    seg_max = np.maximum.reduceat(values, starts)
    widths = np.ones(nblocks, dtype=np.int64)
    tmp = seg_max.copy() >> np.uint64(1)
    while tmp.any():
        widths += (tmp > 0).astype(np.int64)
        tmp >>= np.uint64(1)
    counts = (ends - starts).astype(np.int64)
    big = seg_max >= np.uint64(1 << 32)
    # encoded size per block: 1 width byte + packed bits (+1 pad byte,
    # matching pfor_encode's out buffer) — varint-fallback blocks sized
    # exactly
    sizes = np.where(
        big, 0, 1 + (widths * counts + 7) // 8 + 1
    )
    chunks: dict[int, bytes] = {}
    for k in np.flatnonzero(big):
        b = b"\xff" + varint_encode(values[starts[k]: ends[k]])
        chunks[int(k)] = b
        sizes[k] = len(b)
    offs64 = np.zeros(nblocks, dtype=np.int64)
    np.cumsum(sizes[:-1], out=offs64[1:])
    total = int(sizes.sum())
    out = np.zeros(total, dtype=np.uint8)
    out[offs64] = np.where(big, 0xFF, widths).astype(np.uint8)
    for k, b in chunks.items():
        out[offs64[k]: offs64[k] + len(b)] = np.frombuffer(b, np.uint8)
    small = np.flatnonzero(~big)
    if small.size:
        for w in np.unique(widths[small]):
            w_i = int(w)
            nbytes = (w_i + 7) // 8 + 1
            wsel = small[widths[small] == w]
            for cnt in np.unique(counts[wsel]):
                cls = wsel[counts[wsel] == cnt]
                cnt = int(cnt)
                v = values[
                    starts[cls][:, None] + np.arange(cnt)[None, :]
                ]
                # bit-matrix pack: unpack the low byte lanes of each
                # value (little-endian) to bits, keep the w low bits,
                # then packbits little-endian == our bitstream layout.
                # All uint8 — no 64-bit broadcast temporaries.
                lanes = (w_i + 7) // 8
                vb = (
                    np.ascontiguousarray(v.astype("<u8"))
                    .view(np.uint8)
                    .reshape(cls.size, cnt, 8)[:, :, :lanes]
                )
                bits = np.unpackbits(
                    np.ascontiguousarray(vb), axis=2, bitorder="little"
                )[:, :, :w_i]
                packed = np.packbits(
                    bits.reshape(cls.size, cnt * w_i),
                    axis=1, bitorder="little",
                )
                region = (cnt * w_i + 7) // 8
                idx = (
                    offs64[cls][:, None]
                    + 1
                    + np.arange(region)[None, :]
                )
                out[idx.reshape(-1)] = packed[:, :region].reshape(-1)
    return out.tobytes(), offs64.astype(np.uint32)


def decode_postings(
    blob: bytes | memoryview,
    total: int,
    tf_base: int,
    block_counts: np.ndarray | None = None,
    gap_offs: np.ndarray | None = None,
    tf_offs: np.ndarray | None = None,
    codec: str = "varint",
) -> tuple[np.ndarray, np.ndarray]:
    """Decode all ``total`` of a term's postings -> (doc_ids, tfs).

    A varint decode is two stream decodes + one cumsum and needs no
    block metadata. A pfor decode is one ``_decode_blocks`` call: one
    gather per value over the gap and tf streams of every block, then
    one cumsum."""
    if codec == "varint":
        mv = memoryview(blob)
        gaps = varint_decode(mv[:tf_base], total)
        tfs = varint_decode(mv[tf_base:], total)
        return np.cumsum(gaps, dtype=np.uint64), tfs
    return _decode_blocks(blob, None, block_counts, gap_offs, tf_offs,
                          tf_base, None, codec)


def decode_one_block(
    blob: bytes | memoryview,
    block_idx: int,
    block_counts: np.ndarray,
    gap_offs: np.ndarray,
    tf_offs: np.ndarray,
    tf_base: int,
    block_last_docs: np.ndarray,
    codec: str = "varint",
) -> tuple[np.ndarray, np.ndarray]:
    """Decode a single block -> (doc_ids, tfs), the doc ids continuing
    from ``block_last_docs[block_idx - 1]``."""
    return _decode_blocks(blob, block_idx, block_counts, gap_offs, tf_offs,
                          tf_base, block_last_docs, codec)


def _decode_blocks(
    blob: bytes | memoryview,
    block: int | None,
    block_counts: np.ndarray,
    gap_offs: np.ndarray,
    tf_offs: np.ndarray,
    tf_base: int,
    block_last_docs: np.ndarray | None,
    codec: str,
) -> tuple[np.ndarray, np.ndarray]:
    """(doc_ids, tfs) of every block of one term, or of the one block
    ``block``, from ONE kernel call over the gap blocks followed by
    the tf blocks. The two results are views of one buffer: the gaps
    become doc ids by an in-place cumsum, after a lone block's first
    gap is raised by the last doc id before it."""
    buf = np.frombuffer(blob, dtype=np.uint8)
    counts = np.asarray(block_counts, dtype=np.int64)
    # the gap blocks, then the tf blocks, back to back: block span j is
    # [bounds[j], bounds[j + 1]), the last one ending the blob
    bounds = np.concatenate((
        gap_offs, tf_base + np.asarray(tf_offs, dtype=np.int64), [buf.size]))
    if block is None:
        starts, stops, cnt = bounds[:-1], bounds[1:], counts
    else:
        j = np.array([block, block + counts.size])
        starts, stops, cnt = bounds[j], bounds[j + 1], counts[[block]]
    both = np.concatenate((cnt, cnt))
    if codec == "varint":
        # self-delimiting: the blocks' bytes decode as one stream
        vals = varint_decode(buf[_ranges(starts, stops)], int(both.sum()))
    else:
        vals = _pfor_unpack(buf, starts, stops, both)
    m = vals.size // 2
    gaps, tfs = vals[:m], vals[m:]
    if block and m:
        gaps[0] += np.uint64(block_last_docs[block - 1])
    np.cumsum(gaps, out=gaps)
    return gaps, tfs


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The integers of the ranges [lo[j], hi[j]), concatenated."""
    n = hi - lo
    return np.arange(int(n.sum()), dtype=np.int64) + np.repeat(
        lo - (np.cumsum(n) - n), n)


def _pfor_unpack(
    buf: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """The values of the pfor blocks at ``buf[starts[j]:stops[j]]``,
    concatenated, as uint64, with one gather per value and no loop over
    blocks or widths (Lemire & Boytsov's vectorized bit unpacking).

    Lane i of a block of width w starting at byte s holds stream bits
    [p, p + w), p = (s + 1) * 8 + i * w (the + 1 skips the width byte).
    The blob is copied once into zero-padded little-endian uint32
    words, each paired with the next as one uint64, so the pair at
    p >> 5 holds bits [p & ~31, (p & ~31) + 64): a value is that pair
    shifted right by p & 31 and masked to w bits (w <= 32 keeps it
    inside). Blocks in the varint fallback (width byte 0xFF, values
    >= 2^32) gather nothing (w = 0); their bytes decode in one
    ``varint_decode`` and are written over their zeros."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.uint64)
    width = buf[starts].astype(np.int64)
    fallback = width == 0xFF
    w = np.where(fallback, 0, width)
    # bit positions in uint64 (cheaper shifts than int64); the
    # per-block offset folds in the lane origin and may wrap, which
    # the modular add undoes
    first = np.cumsum(counts) - counts
    origin = ((starts + 1) * 8 - first * w).view(np.uint64)
    p = np.arange(total, dtype=np.uint64) * np.repeat(
        w.astype(np.uint64), counts)
    p += np.repeat(origin, counts)
    words = np.zeros(buf.size // 4 + 3, dtype="<u4")
    words.view(np.uint8)[: buf.size] = buf
    pairs = words[:-1].astype(np.uint64)
    pairs |= words[1:].astype(np.uint64) << np.uint64(32)
    out = pairs[(p >> np.uint64(5)).view(np.int64)]
    out >>= p & np.uint64(31)
    out &= np.repeat(
        (np.uint64(1) << w.astype(np.uint64)) - np.uint64(1), counts)
    if fallback.any():
        f = np.flatnonzero(fallback)
        out[_ranges(first[f], first[f] + counts[f])] = varint_decode(
            buf[_ranges(starts[f] + 1, stops[f])], int(counts[f].sum()))
    return out
