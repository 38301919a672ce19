"""Hashing primitives: content sha256 (the per-row invariant vs the
input table — reference analog: streaming SHA-256 file digest,
core/HashOperations.scala:39-60), deterministic doc UUIDs (reference:
name-based UUID from owner:path, core/OriginalBuilder.scala:33-40),
stable term-shard routing (reference: SHA-1 string hash,
core/HashOperations.scala:18-37), and MinHash/SimHash fingerprints for
near-dup detection.
"""

from __future__ import annotations

import hashlib
import uuid
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from sotohp_ray.utils import value_offsets

_NS = uuid.UUID("6ba7b811-9dad-11d1-80b4-00c04fd430c8")  # RFC 4122 URL ns


def _value_slices(col: pa.Array | pa.ChunkedArray) -> list[memoryview]:
    """Zero-copy memoryview of every value of a string or binary
    column (a null slot gives whatever bytes its offsets span)."""
    if isinstance(col, pa.ChunkedArray):
        return [v for c in col.chunks for v in _value_slices(c)]
    offs, data = value_offsets(col)
    mv = memoryview(data)
    offs = offs.tolist()
    return [mv[a:b] for a, b in zip(offs[:-1], offs[1:])]


_HEX = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


def _hex_column(digests: bytes, width: int, dashes: tuple = ()) -> pa.Array:
    """Concatenated fixed-width digests -> their lowercase hex strings,
    with a dash inserted before each hex position in ``dashes``, as
    one string column built in numpy."""
    raw = np.frombuffer(digests, dtype=np.uint8).reshape(-1, width)
    hexed = np.empty((raw.shape[0], 2 * width), dtype=np.uint8)
    hexed[:, 0::2] = _HEX[raw >> 4]
    hexed[:, 1::2] = _HEX[raw & 0x0F]
    if dashes:
        hexed = np.insert(hexed, list(dashes), ord("-"), axis=1)
    n, w = hexed.shape
    offs = np.arange(0, (n + 1) * w, w, dtype=np.int32)
    return pa.Array.from_buffers(
        pa.string(), n,
        [None, pa.py_buffer(offs), pa.py_buffer(np.ascontiguousarray(hexed))],
    )


def sha256_column(content: pa.Array | pa.ChunkedArray) -> pa.Array:
    """hex sha256 per row (null for a null row): one hashlib call per
    row over a zero-copy slice of the column's data buffer; the hex
    digits are written for the whole column in numpy."""
    digests = b"".join(
        [hashlib.sha256(v).digest() for v in _value_slices(content)]
    )
    out = _hex_column(digests, 32)
    if content.null_count:
        valid = pc.is_valid(content)
        if isinstance(valid, pa.ChunkedArray):
            valid = valid.combine_chunks()
        out = pc.if_else(valid, out, None)
    return out


_NS_SHA1 = hashlib.sha1(_NS.bytes)


def doc_uuid_column(repo, path, commit) -> pa.Array:
    """uuid5(url_ns, f"{repo}:{path}@{commit}") per row — same file =>
    same id across runs (idempotent re-sync, the reference's
    insert-if-absent discipline, MediaServiceLive.scala:1286-1292).

    The names are joined by Arrow, each is hashed with one SHA-1 call
    over a zero-copy slice (continuing a hash of the namespace), and
    the version bits, hex digits and dashes are applied to the whole
    column in numpy: the RFC 4122 string ``uuid.uuid5`` gives. A null
    part formats as ``None``, as in the f-string."""
    def part(col):
        col = col.cast(pa.string()) if col.type != pa.string() else col
        return pc.fill_null(col, "None") if col.null_count else col

    names = pc.binary_join_element_wise(
        part(repo), ":", part(path), "@", part(commit), ""
    )

    def sha1(v: memoryview) -> bytes:
        h = _NS_SHA1.copy()
        h.update(v)
        return h.digest()

    digests = b"".join(map(sha1, _value_slices(names)))
    raw = np.frombuffer(digests, dtype=np.uint8).reshape(-1, 20)[:, :16]
    raw = raw.copy()
    raw[:, 6] = (raw[:, 6] & 0x0F) | 0x50
    raw[:, 8] = (raw[:, 8] & 0x3F) | 0x80
    return _hex_column(raw.tobytes(), 16, (8, 12, 16, 20))


def term_shard_ids(terms: pa.Array, num_shards: int) -> np.ndarray:
    """Stable (process-independent) shard id per term: crc32 % S.
    Computed once per UNIQUE term via dictionary encoding."""
    import pyarrow.compute as pc

    d = pc.dictionary_encode(terms)
    d = d.combine_chunks() if isinstance(d, pa.ChunkedArray) else d
    uniq = d.dictionary
    shards = np.array(
        [zlib.crc32(u.as_py().encode()) % num_shards for u in uniq],
        dtype=np.uint32,
    )
    return shards[d.indices.to_numpy(zero_copy_only=False)]


def term_shard_of(term: str, num_shards: int) -> int:
    return zlib.crc32(term.encode()) % num_shards


# ------------------------------------------------------------- near-dup

_MERSENNE = (1 << 31) - 1  # working prime: multiplication must WRAP
# many times mod p or the linear hash is near-monotone in h and the
# min-hash estimator collapses (a*h with a,h < 2^31 wraps ~2^30 times
# mod 2^31-1; exact in uint64, no 128-bit arithmetic needed)


def minhash_params(num_perm: int, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=num_perm).astype(np.uint64)
    b = rng.randint(0, _MERSENNE, size=num_perm).astype(np.uint64)
    return a, b


def shingle_hashes(tokens: list[str], n: int = 3) -> np.ndarray:
    """Distinct crc32 hashes of word n-gram shingles."""
    if len(tokens) < n:
        joined = [" ".join(tokens)] if tokens else []
    else:
        joined = [" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]
    return np.unique(
        np.array([zlib.crc32(s.encode()) for s in joined], dtype=np.uint64)
    )


def minhash_signature(
    hashes: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """num_perm-wide MinHash signature of a 32-bit shingle-hash set.
    Vectorized outer product (num_perm, n_shingles); h reduced mod
    2^31-1 first so a*h < 2^62 is exact in uint64."""
    if hashes.size == 0:
        return np.full(a.size, np.uint64(_MERSENNE), dtype=np.uint64)
    h = hashes.astype(np.uint64) % np.uint64(_MERSENNE)
    vals = (a[:, None] * h[None, :] + b[:, None]) % np.uint64(_MERSENNE)
    return vals.min(axis=1)


_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def fnv1a64(data: bytes) -> int:
    """Scalar 64-bit FNV-1a — the reference definition the vectorized
    array form must match byte-for-byte."""
    h = _FNV_OFFSET
    with np.errstate(over="ignore"):  # uint64 wrap IS the definition
        for b in data:
            h = (h ^ np.uint64(b)) * _FNV_PRIME
    return int(h)


def fnv1a64_array(strs: pa.Array) -> np.ndarray:
    """Vectorized 64-bit FNV-1a per string: one masked pass per BYTE
    POSITION (bounded by the longest string), each pass an array op
    over every string — no per-string Python hashing (the round-2
    simhash stage paid one blake2b call per unique token)."""
    s = strs.combine_chunks() if isinstance(strs, pa.ChunkedArray) else strs
    n = len(s)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    offs, data = value_offsets(s)
    lens = np.diff(offs)
    starts = offs[:-1]
    h = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    for j in range(int(lens.max()) if n else 0):
        m = lens > j
        h[m] = (h[m] ^ data[starts[m] + j].astype(np.uint64)) * _FNV_PRIME
    return h


def simhash64(tokens: list[str]) -> int:
    """64-bit SimHash over token multiset (weights = tf). Token hash =
    64-bit FNV-1a (vectorizable — see ``fnv1a64_array``; the batch
    simhash stage must produce identical fingerprints)."""
    if not tokens:
        return 0
    acc = np.zeros(64, dtype=np.int64)
    from collections import Counter

    for tok, w in Counter(tokens).items():
        hv = fnv1a64(tok.encode())
        bits = (np.uint64(hv) >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
        acc += np.where(bits.astype(bool), w, -w)
    out = 0
    for i in range(64):
        if acc[i] > 0:
            out |= 1 << i
    return out


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


# ------------------------------------------- vectorized batch MinHash

_FMIX_C1 = np.uint64(0xFF51AFD7ED558CCD)
_FMIX_C2 = np.uint64(0xC4CEB9FE1A85EC53)
_WIN_MULS = np.array(
    [0x9E3779B185EBCA87, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
     0x27D4EB2F165667C5, 0x85EBCA77C2B2AE63], dtype=np.uint64,
)


def _fmix64(x: np.ndarray) -> np.ndarray:
    """murmur3 finalizer — vectorized 64-bit avalanche (wrapping
    uint64 arithmetic is intentional)."""
    x = x.copy()
    x ^= x >> np.uint64(33)
    x *= _FMIX_C1
    x ^= x >> np.uint64(33)
    x *= _FMIX_C2
    x ^= x >> np.uint64(33)
    return x


def token_hash_array(flat: pa.Array) -> np.ndarray:
    """uint64 hash per token occurrence; crc32 runs once per UNIQUE
    token (dictionary encoding), the gather is vectorized."""
    import pyarrow.compute as pc

    d = pc.dictionary_encode(flat)
    d = d.combine_chunks() if isinstance(d, pa.ChunkedArray) else d
    uniq = np.array(
        [zlib.crc32(u.as_py().encode()) for u in d.dictionary],
        dtype=np.uint64,
    )
    return uniq[d.indices.to_numpy(zero_copy_only=False)]


def batch_minhash_signatures(
    parents: np.ndarray,
    token_hashes: np.ndarray,
    n_rows: int,
    a: np.ndarray,
    b: np.ndarray,
    shingle_n: int = 3,
) -> np.ndarray:
    """(n_rows, num_perm) MinHash signature matrix for a whole batch,
    no per-row Python loop. Shingles are mixed hashes of ``shingle_n``
    consecutive token hashes (windows never cross row boundaries);
    rows shorter than the window contribute one whole-row shingle;
    empty rows get the identity signature (all MERSENNE)."""
    sh_par_parts: list[np.ndarray] = []
    sh_val_parts: list[np.ndarray] = []
    nt = token_hashes.size
    if nt >= shingle_n:
        w = np.lib.stride_tricks.sliding_window_view(
            token_hashes, shingle_n
        )
        valid = parents[: nt - shingle_n + 1] == parents[shingle_n - 1:]
        mixed = _fmix64(
            (w * _WIN_MULS[:shingle_n]).sum(axis=1, dtype=np.uint64)
        )
        sh_par_parts.append(parents[: nt - shingle_n + 1][valid])
        sh_val_parts.append(mixed[valid])
    lengths = np.bincount(parents, minlength=n_rows) if nt else np.zeros(
        n_rows, dtype=np.int64
    )
    short = np.flatnonzero((lengths > 0) & (lengths < shingle_n))
    if short.size:
        offsets = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        pre = _fmix64(token_hashes * _WIN_MULS[0])
        # true per-row segment sums via cumsum differences (uint64
        # wrap is fine): reduceat would sum from a short row's start
        # to the NEXT short row's start, folding in other rows' tokens
        csum = np.concatenate(([np.uint64(0)], np.cumsum(pre, dtype=np.uint64)))
        sums = csum[offsets[short + 1]] - csum[offsets[short]]
        sh_par_parts.append(short.astype(parents.dtype))
        sh_val_parts.append(_fmix64(sums))
    sig = np.full((n_rows, a.size), np.uint64(_MERSENNE), dtype=np.uint64)
    if not sh_par_parts:
        return sig
    sh_par = np.concatenate(sh_par_parts)
    sh_val = np.concatenate(sh_val_parts)
    # distinct shingles per row
    order = np.lexsort((sh_val, sh_par))
    sh_par = sh_par[order]
    sh_val = sh_val[order]
    keep = np.ones(sh_par.size, dtype=bool)
    keep[1:] = (np.diff(sh_par) != 0) | (np.diff(sh_val) != 0)
    sh_par = sh_par[keep]
    sh_val = sh_val[keep]
    # (num_perm, n_shingles) permuted values, min per row segment
    h = sh_val % np.uint64(_MERSENNE)
    vals = (a[:, None] * h[None, :] + b[:, None]) % np.uint64(_MERSENNE)
    row_starts = np.concatenate(
        ([0], np.flatnonzero(np.diff(sh_par)) + 1)
    )
    present = sh_par[row_starts]
    mins = np.minimum.reduceat(vals, row_starts, axis=1)  # (perm, rows')
    sig[present] = mins.T
    return sig


def band_hashes(sig: np.ndarray, bands: int) -> np.ndarray:
    """(n_rows, bands) uint64 LSH band hash from a signature matrix —
    vectorized mix of each band's signature segment."""
    n_rows, num_perm = sig.shape
    rpb = num_perm // bands
    seg = sig[:, : bands * rpb].reshape(n_rows, bands, rpb)
    muls = _fmix64(np.arange(1, rpb + 1, dtype=np.uint64) * _WIN_MULS[1])
    return _fmix64((seg * muls).sum(axis=2, dtype=np.uint64))
