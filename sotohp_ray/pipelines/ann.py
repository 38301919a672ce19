"""Similarity search over an embedding column (list<float>).

- ``knn_cosine``: brute-force cosine top-k — the correctness baseline.
  Query matrix is broadcast ONCE via ``ray.put`` and read per actor in
  ``__init__`` (the broadcast-small-side join pattern, reference analog
  FaceInference.scala:33-186: all identified faces collected once,
  nearest-neighbor per record by cosine distance); per batch a single
  numpy matmul scores batch × queries, and only per-batch top-k rows
  survive (combiner) before the tiny final merge.
- ``ann_lsh_search``: the scale path — multi-table random-hyperplane
  LSH with the candidate test AND exact re-rank fused into one
  streaming actor-pool pass (no driver-side matrix, no extra shuffle);
  recall is tested against the brute-force baseline in pytest.
- ``embedding_near_dup``: all-pairs above a cosine threshold. Small
  inputs use the broadcast path (exact); above ``BUCKETED_ROWS`` the
  same operator runs per-LSH-bucket so no actor ever holds the full
  matrix — the bucketed path's pair set equals brute force on the
  planted-dup pytest fixture.

Ordering/rounding contract (for the SQL-oracle compare): final rank is
by (round(score, 5) DESC, vec_id ASC); scores are float64 cosines
rounded to 5 decimals, making the result set deterministic across
engines.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from sotohp_ray import cache
from sotohp_ray.utils import actor_pool_size as _pool

DEFAULT_QUERY_IDS = (0, 1, 2, 3, 4)


def _emb(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")


def _emb_matrix(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    ids = batch["vec_id"].to_numpy(zero_copy_only=False)
    col = batch["embedding"]
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    dim = len(col[0])
    return ids, flat.reshape(len(ids), dim)


def _normalize(X: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(X, axis=1)
    norms[norms == 0] = 1.0
    return X / norms[:, None]


def _query_matrix(sf_dir: str, query_ids) -> tuple[np.ndarray, np.ndarray]:
    """(q_ids, normalized Q) — reads ONLY the query rows via parquet
    predicate pushdown (row-group pruning), never the full table."""
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", list(query_ids))],
    )
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    col = t["embedding"].combine_chunks()
    dim = len(col[0])
    Q = (
        col.flatten().to_numpy(zero_copy_only=False)
        .astype(np.float64).reshape(len(ids), dim)
    )
    return ids, _normalize(Q)


def _emb_dim(sf_dir: str) -> int:
    import pyarrow.parquet as pq

    f = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    first = f.read_row_group(0, columns=["embedding"])
    return len(first["embedding"][0])


def _emb_rows(sf_dir: str) -> int:
    import pyarrow.parquet as pq

    return pq.ParquetFile(f"{sf_dir}/embeddings.parquet").metadata.num_rows


class _BruteScorer:
    """Actor-pool stage: query matrix fetched once per actor."""

    def __init__(self, qref, k: int):
        import ray

        self.q_ids, self.Q = ray.get(qref)  # (m,), (m, dim) L2-normalized
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, X = _emb_matrix(batch)
        Xn = _normalize(X)
        S = Xn @ self.Q.T  # (batch, m)
        out_q, out_v, out_s = [], [], []
        m = self.q_ids.size
        for j in range(m):
            s = S[:, j]
            mask = ids != self.q_ids[j]  # exclude self
            cand_ids = ids[mask]
            cand_s = np.round(s[mask], 5)
            take = min(self.k, cand_ids.size)
            # per-batch top-k by (rounded score desc, vec_id asc)
            order = np.lexsort((cand_ids, -cand_s))[:take]
            out_q.extend([int(self.q_ids[j])] * take)
            out_v.extend(cand_ids[order].tolist())
            out_s.extend(cand_s[order].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "score": pa.array(out_s, pa.float64()),
            }
        )


def _topk_merge(ds, k: int):
    import pandas as pd

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        return group.sort_values(
            ["score", "vec_id"], ascending=[False, True]
        ).head(k)

    return ds.groupby("query_id").map_groups(merge, batch_format="pandas")


def knn_cosine(
    sf_dir: str, query_ids=DEFAULT_QUERY_IDS, k: int = 10
):
    """(query_id, vec_id, score): top-k cosine neighbors of each query
    vector (self excluded), score rounded to 5 decimals."""
    import ray

    q_ids, Q = _query_matrix(sf_dir, query_ids)
    qref = ray.put((q_ids, Q))

    ds = _emb(sf_dir).map_batches(
        _BruteScorer,
        fn_constructor_kwargs={"qref": qref, "k": k},
        batch_format="pyarrow",
        concurrency=_pool(),
        batch_size=4096,
    )
    return _topk_merge(ds, k)


MMR_LAMBDA = 0.7
MMR_DEPTH = 50


def knn_mmr(
    sf_dir: str, query_ids=DEFAULT_QUERY_IDS, k: int = 10,
    depth: int = MMR_DEPTH, lam: float = MMR_LAMBDA,
):
    """(query_id, rank, vec_id, score, mmr): DIVERSIFIED top-k via
    maximal marginal relevance (Carbonell & Goldstein, SIGIR 1998; the
    ES diversified-sampler / result-diversification shape): greedily
    pick argmax of lam*sim(q,d) - (1-lam)*max_{s in picked} sim(d,s)
    over the top-``depth`` cosine candidates, so near-duplicate
    neighbors don't crowd the result page. ``score`` is the plain
    cosine; ``mmr`` the value at selection time (round 6, ties broken
    by vec_id asc — the determinism contract).

    Distribution: candidate retrieval IS knn_cosine's actor pool over
    the full table; the greedy re-rank is k iterations on a
    (depth x depth) similarity matrix per query — candidate-sized
    driver work (predicate-pushdown vector fetch), never
    corpus-sized. Iterative argmax is not SQL-expressible: rows-only
    driver row + brute-force/planted-duplicate pytests."""
    import pyarrow.parquet as pq

    cands = knn_cosine(sf_dir, query_ids, k=depth).to_pandas()
    if not len(cands):
        return pa.table({
            "query_id": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64()),
            "vec_id": pa.array([], pa.int64()),
            "score": pa.array([], pa.float64()),
            "mmr": pa.array([], pa.float64()),
        })
    # candidates only: relevance comes from knn_cosine's scores and
    # the diversity matrix is candidate-vs-candidate
    need = sorted(set(cands["vec_id"].astype(int)))
    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", need)],
    )
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    col = t["embedding"].combine_chunks()
    dim = len(col[0])
    V = _normalize(
        col.flatten().to_numpy(zero_copy_only=False)
        .astype(np.float64).reshape(len(ids), dim)
    )
    row_of = {int(v): i for i, v in enumerate(ids)}
    rows = []
    for qid, g in cands.groupby("query_id"):
        g = g.sort_values(
            ["score", "vec_id"], ascending=[False, True]
        ).reset_index(drop=True)
        cvec = V[[row_of[int(v)] for v in g["vec_id"]]]
        rel = g["score"].to_numpy(np.float64)
        vids = g["vec_id"].to_numpy(np.int64)
        sim = cvec @ cvec.T
        picked: list[int] = []
        avail = np.ones(len(g), dtype=bool)
        while avail.any() and len(picked) < k:
            if picked:
                maxsim = sim[:, picked].max(axis=1)
                mmr = lam * rel - (1.0 - lam) * maxsim
            else:
                mmr = lam * rel
            r = np.round(mmr, 6)
            r[~avail] = -np.inf
            # argmax with vec_id-asc tie-break
            cand = np.flatnonzero(r == r.max())
            i = int(cand[np.argmin(vids[cand])])
            rows.append((
                int(qid), len(picked), int(vids[i]),
                float(rel[i]), float(r[i]),
            ))
            picked.append(i)
            avail[i] = False
    return pa.table({
        "query_id": pa.array([r[0] for r in rows], pa.int64()),
        "rank": pa.array([r[1] for r in rows], pa.int64()),
        "vec_id": pa.array([r[2] for r in rows], pa.int64()),
        "score": pa.array([r[3] for r in rows], pa.float64()),
        "mmr": pa.array([r[4] for r in rows], pa.float64()),
    })


QUANT_DEPTH = 32


class _QuantScorer:
    """Actor-pool stage: int8 scalar-quantized candidate scan + exact
    float re-rank of the per-batch top-``depth`` (the Lucene/ES
    int8-quantized-vector + rescore shape, FAISS SQ8). Quantization:
    unit vectors -> round(x * 127) clamped to [-127, 127]; the int32
    dot approximates cosine * 127^2 well enough to pick candidates,
    and ONLY the depth-sized candidate set pays a float dot."""

    def __init__(self, qref, k: int, depth: int):
        import ray

        self.q_ids, self.Q = ray.get(qref)  # (m,), (m, dim) normalized
        self.Qq = np.clip(
            np.round(self.Q * 127.0), -127, 127
        ).astype(np.int8)
        self.k = k
        self.depth = depth

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, X = _emb_matrix(batch)
        Xn = _normalize(X)
        Xq = np.clip(np.round(Xn * 127.0), -127, 127).astype(np.int8)
        # int32 accumulate: int8 @ int8 would overflow at dim > 2
        A = Xq.astype(np.int32) @ self.Qq.T.astype(np.int32)
        out_q, out_v, out_s = [], [], []
        for j in range(self.q_ids.size):
            mask = ids != self.q_ids[j]  # exclude self (knn contract)
            cand_ids = ids[mask]
            if cand_ids.size == 0:
                continue
            approx = A[mask, j]
            d = min(self.depth, cand_ids.size)
            order = np.lexsort((cand_ids, -approx))[:d]
            exact = np.round(Xn[mask][order] @ self.Q[j], 5)
            take = min(self.k, d)
            fin = np.lexsort((cand_ids[order], -exact))[:take]
            out_q.extend([int(self.q_ids[j])] * take)
            out_v.extend(cand_ids[order][fin].tolist())
            out_s.extend(exact[fin].tolist())
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(out_v, pa.int64()),
            "score": pa.array(out_s, pa.float64()),
        })


def knn_cosine_quantized(
    sf_dir: str, query_ids=DEFAULT_QUERY_IDS, k: int = 10,
    depth: int = QUANT_DEPTH,
):
    """(query_id, vec_id, score): quantized vector search — int8
    scalar-quantized approximate scan picks per-batch top-``depth``
    candidates, exact float cosine re-ranks them, global merge takes
    top-k by exact score. At ``depth`` >= batch size the candidate set
    is every row and the result EQUALS brute-force knn_cosine (the
    oracle-gated fullrerank twin); at small depth it trades recall for
    a 4x-smaller scan and a depth-bounded float cost — the 100 TB
    scale path (memory-bound scans read int8, not float32)."""
    import ray

    q_ids, Q = _query_matrix(sf_dir, query_ids)
    qref = ray.put((q_ids, Q))
    ds = _emb(sf_dir).map_batches(
        _QuantScorer,
        fn_constructor_kwargs={"qref": qref, "k": k, "depth": depth},
        batch_format="pyarrow",
        concurrency=_pool(),
        batch_size=4096,
    )
    return _topk_merge(ds, k)


PQ_M = 8        # subspaces
PQ_KSUB = 256   # centroids per subspace (8-bit codes, FAISS standard)
PQ_DEPTH = 64   # measured: recall@10 = 1.0 on sf0.01 at these defaults


def _train_pq_codebooks(
    sf_dir: str, m: int = PQ_M, ksub: int = PQ_KSUB,
    sample_rows: int = 4096, iters: int = 8, seed: int = 42,
) -> np.ndarray:
    """Product-quantization codebooks (Jegou et al. 2011): the
    embedding space splits into ``m`` contiguous subspaces and each
    gets its own Euclidean Lloyd's k-means with ``ksub`` centroids,
    trained on the shared unbiased hash sample. Returns
    (m, ksub, dsub) float64. The codebook is tiny (m*ksub*dsub
    floats) — the ray.put-broadcast small side."""
    Xn = _unbiased_sample_matrix(sf_dir, sample_rows)
    n, dim = Xn.shape
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m={m}")
    dsub = dim // m
    rng = np.random.RandomState(seed)
    k = min(ksub, n)
    books = np.zeros((m, k, dsub), dtype=np.float64)
    for s in range(m):
        Xs = Xn[:, s * dsub:(s + 1) * dsub]
        C = Xs[rng.choice(n, size=k, replace=False)].copy()
        for _ in range(iters):
            # argmin ||x - c||^2 == argmax x.c - ||c||^2/2
            assign = np.argmax(
                Xs @ C.T - 0.5 * (C * C).sum(axis=1), axis=1
            )
            for j in range(k):
                sel = assign == j
                if sel.any():
                    C[j] = Xs[sel].mean(axis=0)
        books[s] = C
    return books


class _PQScorer:
    """Actor-pool stage: PQ asymmetric-distance scan + exact float
    re-rank of the per-batch top-``depth`` (FAISS PQ/ADC + rescore).
    Per actor: codebooks + per-query dot TABLES (m x ksub each) built
    once in __init__. Per batch: vectors ENCODE to (batch, m) uint8
    codes (one matmul per subspace), a query's approximate score is m
    table gathers summed — the scan never touches floats per
    dimension, which is the 100 TB memory-bandwidth story (codes are
    m bytes/vector vs 4*dim)."""

    def __init__(self, ref, k: int, depth: int):
        import ray

        self.q_ids, self.Q, self.books = ray.get(ref)
        m, ksub, dsub = self.books.shape
        self.m, self.dsub = m, dsub
        # per-query ADC tables: T[j][s, c] = Q[j]_s . books[s, c]
        self.T = np.einsum(
            "qsd,scd->qsc",
            self.Q.reshape(self.q_ids.size, m, dsub),
            self.books,
        )
        # encode constant: -||c||^2 / 2 per (s, c)
        self.cnorm = -0.5 * (self.books * self.books).sum(axis=2)
        self.k = k
        self.depth = depth

    def _encode(self, Xn: np.ndarray) -> np.ndarray:
        codes = np.empty((Xn.shape[0], self.m), dtype=np.int64)
        for s in range(self.m):
            Xs = Xn[:, s * self.dsub:(s + 1) * self.dsub]
            codes[:, s] = np.argmax(
                Xs @ self.books[s].T + self.cnorm[s], axis=1
            )
        return codes

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, X = _emb_matrix(batch)
        Xn = _normalize(X)
        codes = self._encode(Xn)
        rows_m = np.arange(self.m)
        out_q, out_v, out_s = [], [], []
        for j in range(self.q_ids.size):
            approx = self.T[j][rows_m[None, :], codes].sum(axis=1)
            rows = np.flatnonzero(ids != self.q_ids[j])
            if rows.size == 0:
                continue
            d = min(self.depth, rows.size)
            order = rows[np.lexsort((ids[rows], -approx[rows]))[:d]]
            # float rows touched: exactly `depth` (no full-batch copy)
            exact = np.round(Xn[order] @ self.Q[j], 5)
            take = min(self.k, d)
            fin = np.lexsort((ids[order], -exact))[:take]
            out_q.extend([int(self.q_ids[j])] * take)
            out_v.extend(ids[order][fin].tolist())
            out_s.extend(exact[fin].tolist())
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(out_v, pa.int64()),
            "score": pa.array(out_s, pa.float64()),
        })


def knn_cosine_pq(
    sf_dir: str, query_ids=DEFAULT_QUERY_IDS, k: int = 10,
    depth: int = PQ_DEPTH, m: int = PQ_M, ksub: int = PQ_KSUB,
):
    """(query_id, vec_id, score): product-quantized vector search
    (Jegou et al. 2011; the FAISS PQ + rescore shape) — ADC scan over
    m-byte codes picks per-batch top-``depth`` candidates, exact float
    cosine re-ranks them, global merge takes top-k by exact score. At
    ``depth`` >= batch size the result EQUALS brute force (the
    oracle-gated fullrerank twin below); at small depth the scan reads
    m bytes/vector instead of 4*dim — the memory-bandwidth path PQ
    exists for."""
    import ray

    q_ids, Q = _query_matrix(sf_dir, query_ids)
    books = _train_pq_codebooks(sf_dir, m=m, ksub=ksub)
    ref = ray.put((q_ids, Q, books))
    ds = _emb(sf_dir).map_batches(
        _PQScorer,
        fn_constructor_kwargs={"ref": ref, "k": k, "depth": depth},
        batch_format="pyarrow",
        concurrency=_pool(),
        batch_size=4096,
    )
    return _topk_merge(ds, k)


def knn_cosine_pq_fullrerank(
    sf_dir: str, query_ids=DEFAULT_QUERY_IDS, k: int = 10
):
    """PQ twin at depth = everything: the candidate set is every row,
    so the exact re-rank IS brute force and the kNN SQL oracle gates
    the whole PQ plumbing (encode, tables, gathers, merge)."""
    return knn_cosine_pq(sf_dir, query_ids, k=k, depth=1 << 62)


FILTER_LABEL = 3


def knn_cosine_filtered(
    sf_dir: str,
    query_ids=DEFAULT_QUERY_IDS,
    k: int = 10,
    label: int = FILTER_LABEL,
):
    """(query_id, vec_id, score): FILTERED vector search — top-k
    cosine neighbors restricted to vectors whose metadata ``label``
    matches. The filter is applied as a PRE-filter: parquet predicate
    pushdown at the read plus nothing else — the actor pool scores
    only qualifying vectors, so k always fills from the filtered set.
    (Post-filtering a plain top-k is the classic filtered-ANN
    pitfall: a selective predicate under-fills k unless the search is
    re-run with a larger k.) Reference analog: kNN face matching
    constrained by prior labels, FaceInference.scala:98-116."""
    import ray
    import ray.data
    from pyarrow import dataset as pads

    q_ids, Q = _query_matrix(sf_dir, query_ids)
    qref = ray.put((q_ids, Q))
    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filter=pads.field("label") == label,
    )
    scored = ds.map_batches(
        _BruteScorer,
        fn_constructor_kwargs={"qref": qref, "k": k},
        batch_format="pyarrow",
        concurrency=_pool(),
        batch_size=4096,
    )
    return _topk_merge(scored, k)


def ann_ivf_search_filtered(
    sf_dir: str, query_ids=DEFAULT_QUERY_IDS, k: int = 10,
    label: int = FILTER_LABEL, n_centroids: int = 32, n_probe: int = 8,
):
    """(query_id, vec_id, score): FILTERED approximate search — the
    composition real filtered-ANN serving needs: the metadata filter
    applies as a PRE-filter (parquet predicate pushdown, so k fills
    from the qualifying set — post-filtering an unfiltered top-k is
    the classic under-fill pitfall) and the IVF probe bounds which
    cells of the qualifying rows are scored. Centroids train on the
    UNFILTERED sample (the index is built once; filters vary per
    query). At n_probe == n_centroids this equals brute filtered
    search — the oracle-gated twin below."""
    import ray
    import ray.data
    from pyarrow import dataset as pads

    C = _train_centroids(sf_dir, n_centroids)
    q_ids, Q = _query_matrix(sf_dir, query_ids)
    qc = Q @ C.T
    probes = np.argsort(-qc, axis=1)[:, :n_probe]
    ref = ray.put(
        (q_ids, Q, C, [probes[j] for j in range(q_ids.size)])
    )
    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filter=pads.field("label") == label,
    )
    scored = ds.map_batches(
        _IVFScorer,
        fn_constructor_kwargs={"ref": ref, "k": k},
        batch_format="pyarrow",
        concurrency=_pool(),
        batch_size=4096,
    )
    return _topk_merge(scored, k)


def ann_ivf_filtered_fullprobe(
    sf_dir: str, query_ids=DEFAULT_QUERY_IDS, k: int = 10,
    label: int = FILTER_LABEL, n_centroids: int = 32,
):
    """Filtered-IVF twin probing every cell: equals brute filtered
    search, so the filtered-kNN SQL oracle gates the pre-filter + IVF
    composition end-to-end."""
    return ann_ivf_search_filtered(
        sf_dir, query_ids, k=k, label=label,
        n_centroids=n_centroids, n_probe=n_centroids,
    )


def knn_cosine_filtered_sql(
    query_ids=DEFAULT_QUERY_IDS, k: int = 10, label: int = FILTER_LABEL
) -> str:
    ids = ", ".join(str(int(i)) for i in query_ids)
    return f"""
    WITH q AS (
      SELECT vec_id AS query_id, embedding AS qe
      FROM embeddings WHERE vec_id IN ({ids})
    ),
    s AS (
      SELECT q.query_id, e.vec_id,
             round(list_cosine_similarity(
               e.embedding::DOUBLE[], q.qe::DOUBLE[]), 5) AS score
      FROM embeddings e CROSS JOIN q
      WHERE e.vec_id <> q.query_id AND e.label = {label}
    )
    SELECT query_id, vec_id, score FROM s
    QUALIFY row_number() OVER (
      PARTITION BY query_id ORDER BY score DESC, vec_id ASC
    ) <= {k}
"""


RANGE_THRESHOLD = 0.2


class _RangeScorer:
    """Actor-pool stage for cosine RANGE search: every (query, vec)
    pair at or above the similarity threshold, streamed out per batch
    — no top-k state, output bounded by the match set itself (Lucene
    range-query / radius-search shape, vs knn's fixed k)."""

    def __init__(self, qref, threshold: float):
        import ray

        self.q_ids, self.Q = ray.get(qref)
        self.threshold = float(threshold)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, X = _emb_matrix(batch)
        Xn = _normalize(X)
        S = np.round(Xn @ self.Q.T, 5)  # (batch, m)
        hit = S >= self.threshold
        # exclude self-matches
        hit &= ids[:, None] != self.q_ids[None, :]
        bi, qj = np.nonzero(hit)
        return pa.table({
            "query_id": pa.array(self.q_ids[qj], pa.int64()),
            "vec_id": pa.array(ids[bi], pa.int64()),
            "score": pa.array(S[bi, qj], pa.float64()),
        })


def knn_range_search(
    sf_dir: str, query_ids=DEFAULT_QUERY_IDS,
    threshold: float = RANGE_THRESHOLD,
):
    """(query_id, vec_id, score): ALL vectors within cosine similarity
    >= ``threshold`` of each query (self excluded) — the radius-search
    counterpart of knn_cosine. Fully streaming: each batch emits its
    own matches; there is no per-query top-k state to merge, so the
    pipeline scales with the match count, not the corpus."""
    import ray

    q_ids, Q = _query_matrix(sf_dir, query_ids)
    qref = ray.put((q_ids, Q))
    return _emb(sf_dir).map_batches(
        _RangeScorer,
        fn_constructor_kwargs={"qref": qref, "threshold": threshold},
        batch_format="pyarrow",
        concurrency=_pool(),
        batch_size=4096,
    )


def knn_range_search_sql(
    query_ids=DEFAULT_QUERY_IDS, threshold: float = RANGE_THRESHOLD,
) -> str:
    ids = ", ".join(str(int(i)) for i in query_ids)
    return f"""
WITH q AS (
  SELECT vec_id AS query_id, embedding AS qe
  FROM embeddings WHERE vec_id IN ({ids})
)
SELECT q.query_id, e.vec_id,
       round(list_cosine_similarity(
         e.embedding::DOUBLE[], q.qe::DOUBLE[]), 5) AS score
FROM embeddings e CROSS JOIN q
WHERE e.vec_id <> q.query_id
  AND round(list_cosine_similarity(
        e.embedding::DOUBLE[], q.qe::DOUBLE[]), 5) >= {threshold}
ORDER BY query_id, vec_id
"""


class _LSHStage:
    """Random-hyperplane signatures; planes built once per actor from a
    fixed seed so every actor brackets identically."""

    def __init__(self, dim: int, n_planes: int = 12, seed: int = 42):
        rng = np.random.RandomState(seed)
        self.P = rng.randn(dim, n_planes)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, X = _emb_matrix(batch)
        sig = _plane_sig(X, self.P)
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "bucket": pa.array(sig, pa.int64()),
            }
        )


def _plane_sig(X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """int64 signature: sign bit per hyperplane (scale-invariant, so
    raw and normalized vectors bracket identically)."""
    bits = (X @ P) > 0
    sig = np.zeros(X.shape[0], dtype=np.int64)
    for j in range(P.shape[1]):
        sig |= bits[:, j].astype(np.int64) << j
    return sig


def ann_lsh_buckets(sf_dir: str, n_planes: int = 12):
    """(vec_id, bucket) hyperplane-LSH bucket assignment — the IVF/LSH
    scale path for ANN: query-time searches only matching buckets."""
    return _emb(sf_dir).map_batches(
        _LSHStage,
        fn_constructor_kwargs={"dim": _emb_dim(sf_dir), "n_planes": n_planes},
        batch_format="pyarrow",
        concurrency=_pool(),
    )


class _LSHScorer:
    """Multi-table LSH candidate test + exact re-rank FUSED into one
    streaming stage: planes + query signatures built once per actor;
    per batch, a vectorized signature compare selects each query's
    candidates and only those rows are scored (one small matmul per
    query). Per-batch top-k keeps the combiner discipline."""

    def __init__(self, qref, k: int, dim: int, n_planes: int,
                 n_tables: int, seed: int = 42):
        import ray

        self.q_ids, self.Q = ray.get(qref)  # normalized queries
        self.k = k
        rng = np.random.RandomState(seed)
        self.planes = [rng.randn(dim, n_planes) for _ in range(n_tables)]
        # (m, L) query signatures — computed from the normalized
        # queries; sign bits are scale-invariant
        self.qsigs = np.stack(
            [_plane_sig(self.Q, P) for P in self.planes], axis=1
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, X = _emb_matrix(batch)
        Xn = _normalize(X)
        sigs = np.stack([_plane_sig(X, P) for P in self.planes], axis=1)
        # (batch, m): candidate iff ANY table's signature matches
        cand = (sigs[:, None, :] == self.qsigs[None, :, :]).any(axis=2)
        out_q, out_v, out_s = [], [], []
        for j in range(self.q_ids.size):
            rows = np.flatnonzero(cand[:, j] & (ids != self.q_ids[j]))
            if rows.size == 0:
                continue
            s = np.round(Xn[rows] @ self.Q[j], 5)
            take = min(self.k, rows.size)
            order = np.lexsort((ids[rows], -s))[:take]
            out_q.extend([int(self.q_ids[j])] * take)
            out_v.extend(ids[rows][order].tolist())
            out_s.extend(s[order].tolist())
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(out_v, pa.int64()),
            "score": pa.array(out_s, pa.float64()),
        })


def ann_lsh_search(
    sf_dir: str, query_ids=DEFAULT_QUERY_IDS, k: int = 10,
    n_planes: int = 4, n_tables: int = 8,
):
    """ANN via multi-table hyperplane LSH: L tables of k planes each;
    candidates = union over tables of the query's bucket; exact cosine
    re-rank on candidates only. For near-orthogonal data (random
    embeddings: top-1 cosine ~0.3 => per-plane agreement ~0.6) a single
    table cannot reach useful recall — multiple small tables trade
    candidate volume for recall, which is the honest knob at scale.

    Distributed end-to-end (round 1 ran entirely on the driver): the
    candidate test and exact re-rank stream through one actor-pool
    ``map_batches`` (planes + query sigs once per actor in __init__),
    and the final top-k merge is a tiny per-query groupby. The driver
    only ever touches the query rows (parquet predicate pushdown)."""
    import ray

    q_ids, Q = _query_matrix(sf_dir, query_ids)
    qref = ray.put((q_ids, Q))
    ds = _emb(sf_dir).map_batches(
        _LSHScorer,
        fn_constructor_kwargs={
            "qref": qref, "k": k, "dim": _emb_dim(sf_dir),
            "n_planes": n_planes, "n_tables": n_tables,
        },
        batch_format="pyarrow",
        concurrency=_pool(),
        batch_size=4096,
    )
    return _topk_merge(ds, k)


def _unbiased_sample_matrix(
    sf_dir: str, sample_rows: int = 4096
) -> np.ndarray:
    """L2-normalized matrix of an UNBIASED hash sample of the
    embedding table. Membership is the same multiplicative-hash filter
    as ``sample_random`` (vec_id * Knuth mul mod 2^32 under a
    threshold), evaluated DISTRIBUTED per batch — so a table
    physically sorted by any latent cluster key still yields a uniform
    sample. The driver only ever sees ~2x sample_rows hash-selected
    rows, deterministically truncated to sample_rows by (hash, vec_id)
    order regardless of partitioning. Shared by the IVF and PQ
    trainers."""
    import pyarrow.parquet as pq
    import ray
    import ray.data

    n_total = pq.ParquetFile(
        f"{sf_dir}/embeddings.parquet"
    ).metadata.num_rows
    frac = min(1.0, (2.0 * sample_rows) / max(n_total, 1))
    thr = np.uint64(min(int(frac * (1 << 32)) + 1, 1 << 32))
    mul = np.uint64(2654435761)  # Knuth multiplicative hash constant

    def pick(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        hv = (ids.astype(np.uint64) * mul) % np.uint64(1 << 32)
        keep = hv < thr
        return batch.filter(pa.array(keep)).append_column(
            "_hv", pa.array(hv[keep].astype(np.int64))
        )

    import pyarrow as _pa

    # one execution of the read plan, every block as Arrow
    # (``to_arrow_refs`` runs the plan again for the schema, and can
    # hand back pandas blocks)
    blocks = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(pick, batch_format="pyarrow").iter_batches(
        batch_size=None, batch_format="pyarrow"
    )
    t = _pa.concat_tables(list(blocks), promote_options="default")
    order = _pa.compute.sort_indices(
        t, sort_keys=[("_hv", "ascending"), ("vec_id", "ascending")]
    )
    t = t.take(order.slice(0, min(t.num_rows, sample_rows)))
    _, X = _emb_matrix(t)
    return _normalize(X)


def _train_centroids(
    sf_dir: str, n_centroids: int, sample_rows: int = 4096,
    iters: int = 8, seed: int = 42,
) -> np.ndarray:
    """Seeded Lloyd's k-means on the shared unbiased hash sample
    (``_unbiased_sample_matrix``). Returns L2-normalized centroids
    (spherical k-means: cosine assignment == dot with normalized
    centroids)."""
    Xn = _unbiased_sample_matrix(sf_dir, sample_rows)
    rng = np.random.RandomState(seed)
    k = min(n_centroids, Xn.shape[0])
    C = Xn[rng.choice(Xn.shape[0], size=k, replace=False)]
    for _ in range(iters):
        assign = np.argmax(Xn @ C.T, axis=1)
        for j in range(k):
            m = assign == j
            if m.any():
                C[j] = Xn[m].mean(axis=0)
        C = _normalize(C)
    return C


class _IVFScorer:
    """IVF probe + exact re-rank fused in one streaming stage:
    centroids + per-query probe sets built once per actor; per batch,
    vectors are assigned to their centroid (one matmul) and only rows
    whose centroid is probed by a query get scored for it."""

    def __init__(self, ref, k: int):
        import ray

        self.q_ids, self.Q, self.C, self.probes = ray.get(ref)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, X = _emb_matrix(batch)
        Xn = _normalize(X)
        cent = np.argmax(Xn @ self.C.T, axis=1)  # (batch,)
        out_q, out_v, out_s = [], [], []
        for j in range(self.q_ids.size):
            rows = np.flatnonzero(
                np.isin(cent, self.probes[j]) & (ids != self.q_ids[j])
            )
            if rows.size == 0:
                continue
            s = np.round(Xn[rows] @ self.Q[j], 5)
            take = min(self.k, rows.size)
            order = np.lexsort((ids[rows], -s))[:take]
            out_q.extend([int(self.q_ids[j])] * take)
            out_v.extend(ids[rows][order].tolist())
            out_s.extend(s[order].tolist())
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(out_v, pa.int64()),
            "score": pa.array(out_s, pa.float64()),
        })


def ann_ivf_search(
    sf_dir: str, query_ids=DEFAULT_QUERY_IDS, k: int = 10,
    n_centroids: int = 32, n_probe: int = 8,
):
    """(query_id, vec_id, score): IVF approximate nearest neighbors —
    the trained-partition scale path alongside LSH. Centroids are
    k-means-trained on a sample (driver-side, seeded), every vector is
    assigned to its nearest centroid, and each query scores ONLY the
    ``n_probe`` closest centroid buckets (exact cosine re-rank inside).
    At cluster scale the assignment is the partitioner: vectors are
    written bucketed by centroid and a query touches n_probe/n_centroids
    of the data. Recall vs brute force is pytest-gated."""
    import ray

    C = _train_centroids(sf_dir, n_centroids)
    q_ids, Q = _query_matrix(sf_dir, query_ids)
    qc = Q @ C.T  # (m, k)
    probes = np.argsort(-qc, axis=1)[:, :n_probe]
    ref = ray.put((q_ids, Q, C, [probes[j] for j in range(q_ids.size)]))
    ds = _emb(sf_dir).map_batches(
        _IVFScorer,
        fn_constructor_kwargs={"ref": ref, "k": k},
        batch_format="pyarrow",
        concurrency=_pool(),
        batch_size=4096,
    )
    return _topk_merge(ds, k)


class _IVFPQScorer:
    """IVF-PQ (Jegou et al. 2011, the billion-scale FAISS layout):
    coarse assignment picks the probed cells, RESIDUAL PQ codes score
    the candidates without touching floats per dimension, exact float
    re-rank pays only for the per-batch top-``depth``. The residual
    decomposition dot(q, x) ~= dot(q, c_x) + sum_m T[m, code_m] means
    one centroid-dot gather + m table gathers per candidate."""

    def __init__(self, ref, k: int, depth: int):
        import ray

        (self.q_ids, self.Q, self.C, self.probes,
         self.books) = ray.get(ref)
        m, ksub, dsub = self.books.shape
        self.m, self.dsub = m, dsub
        self.T = np.einsum(
            "qsd,scd->qsc",
            self.Q.reshape(self.q_ids.size, m, dsub),
            self.books,
        )
        self.qc = self.Q @ self.C.T  # (queries, centroids)
        self.cnorm = -0.5 * (self.books * self.books).sum(axis=2)
        self.k = k
        self.depth = depth

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, X = _emb_matrix(batch)
        Xn = _normalize(X)
        cent = np.argmax(Xn @ self.C.T, axis=1)
        resid = Xn - self.C[cent]
        codes = np.empty((Xn.shape[0], self.m), dtype=np.int64)
        for s in range(self.m):
            Rs = resid[:, s * self.dsub:(s + 1) * self.dsub]
            codes[:, s] = np.argmax(
                Rs @ self.books[s].T + self.cnorm[s], axis=1
            )
        rows_m = np.arange(self.m)
        out_q, out_v, out_s = [], [], []
        for j in range(self.q_ids.size):
            rows = np.flatnonzero(
                np.isin(cent, self.probes[j]) & (ids != self.q_ids[j])
            )
            if rows.size == 0:
                continue
            approx = (
                self.qc[j][cent[rows]]
                + self.T[j][rows_m[None, :], codes[rows]].sum(axis=1)
            )
            d = min(self.depth, rows.size)
            order = np.lexsort((ids[rows], -approx))[:d]
            sel = rows[order]
            exact = np.round(Xn[sel] @ self.Q[j], 5)
            take = min(self.k, d)
            fin = np.lexsort((ids[sel], -exact))[:take]
            out_q.extend([int(self.q_ids[j])] * take)
            out_v.extend(ids[sel][fin].tolist())
            out_s.extend(exact[fin].tolist())
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(out_v, pa.int64()),
            "score": pa.array(out_s, pa.float64()),
        })


def _train_residual_books(
    sf_dir: str, C: np.ndarray, m: int = PQ_M, ksub: int = PQ_KSUB,
    seed: int = 42,
) -> np.ndarray:
    """Residual PQ codebooks trained on (sample - assigned centroid)
    — the classic accuracy win over raw-vector PQ. Seeded and shared
    by the inline IVF-PQ search and the persisted ANN index so both
    paths encode identically."""
    Xn = _unbiased_sample_matrix(sf_dir)
    assign = np.argmax(Xn @ C.T, axis=1)
    resid = Xn - C[assign]
    n, dim = resid.shape
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m={m}")
    dsub = dim // m
    rng = np.random.RandomState(seed)
    kk = min(ksub, n)
    books = np.zeros((m, kk, dsub), dtype=np.float64)
    for s in range(m):
        Rs = resid[:, s * dsub:(s + 1) * dsub]
        Cb = Rs[rng.choice(n, size=kk, replace=False)].copy()
        for _ in range(8):
            a = np.argmax(Rs @ Cb.T - 0.5 * (Cb * Cb).sum(axis=1), axis=1)
            for j in range(kk):
                sel = a == j
                if sel.any():
                    Cb[j] = Rs[sel].mean(axis=0)
        books[s] = Cb
    return books


def ann_ivfpq_search(
    sf_dir: str, query_ids=DEFAULT_QUERY_IDS, k: int = 10,
    n_centroids: int = 32, n_probe: int = 8,
    m: int = PQ_M, ksub: int = PQ_KSUB, depth: int = PQ_DEPTH,
):
    """(query_id, vec_id, score): IVF-PQ approximate search — the
    composition the billion-scale deployments actually run: the coarse
    quantizer bounds WHICH cells a query reads (n_probe/n_centroids of
    the data), residual PQ codes bound the BYTES per candidate
    (m + 4), and the exact re-rank bounds the float work (depth rows).
    Residual codebooks train on (sample - assigned centroid), the
    classic accuracy win over raw-vector PQ. Recall is pytest-gated;
    the fullprobe+fullrerank twin below is oracle-gated."""
    import ray

    C = _train_centroids(sf_dir, n_centroids)
    books = _train_residual_books(sf_dir, C, m=m, ksub=ksub)
    q_ids, Q = _query_matrix(sf_dir, query_ids)
    qc = Q @ C.T
    probes = np.argsort(-qc, axis=1)[:, :n_probe]
    ref = ray.put((
        q_ids, Q, C, [probes[j] for j in range(q_ids.size)], books
    ))
    ds = _emb(sf_dir).map_batches(
        _IVFPQScorer,
        fn_constructor_kwargs={"ref": ref, "k": k, "depth": depth},
        batch_format="pyarrow",
        concurrency=_pool(),
        batch_size=4096,
    )
    return _topk_merge(ds, k)


def ann_ivfpq_fullprobe_fullrerank(
    sf_dir: str, query_ids=DEFAULT_QUERY_IDS, k: int = 10,
    n_centroids: int = 32,
):
    """IVF-PQ twin with every cell probed and every candidate exactly
    re-ranked: equals brute force, so the kNN SQL oracle gates the
    whole IVF-PQ plumbing (coarse assignment, residual encode, ADC
    tables, probe routing, merge)."""
    return ann_ivfpq_search(
        sf_dir, query_ids, k=k, n_centroids=n_centroids,
        n_probe=n_centroids, depth=1 << 62,
    )


def ann_ivf_buckets(sf_dir: str, n_centroids: int = 32):
    """(vec_id, centroid): the IVF partition assignment — the
    write-side bucketing a cluster deployment persists (one partition
    dir per centroid) so probes read only their buckets."""
    import ray

    C = _train_centroids(sf_dir, n_centroids)
    cref = ray.put(C)

    def assign(batch: pa.Table) -> pa.Table:
        import ray as _ray

        Cm = _ray.get(cref)
        ids, X = _emb_matrix(batch)
        cent = np.argmax(_normalize(X) @ Cm.T, axis=1)
        return pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "centroid": pa.array(cent.astype(np.int64), pa.int64()),
        })

    return _emb(sf_dir).map_batches(assign, batch_format="pyarrow")


def knn_label_consensus(
    sf_dir: str, query_ids=DEFAULT_QUERY_IDS, k: int = 10
):
    """(query_id, pred_label, top2_agree): classify each query vector
    by its neighbors' labels — majority vote over the top-k cosine
    neighbors (ties broken by smaller label), plus the reference's
    top-2 agreement signal (the two nearest neighbors carry the same
    label => confident; FaceInference.scala:112-146's consensus rule,
    J3). Labels are attached OUTPUT-SIZED: the <= m*k kNN result rows
    come back to the driver, and ONLY those neighbors' labels are read
    via parquet predicate pushdown (row-group pruning) — the round-2
    version built a driver array sized by max(vec_id), which is 8 GB
    at 10^9 vectors regardless of how few queries ran."""
    import pandas as pd
    import pyarrow.parquet as pq

    knn = knn_cosine(sf_dir, query_ids, k).to_pandas()  # <= m*k rows
    need = sorted({int(v) for v in knn["vec_id"]})
    lt = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "label"],
        filters=[("vec_id", "in", need)],
    )
    lab_of = dict(zip(lt["vec_id"].to_pylist(), lt["label"].to_pylist()))
    knn["label"] = knn["vec_id"].map(lab_of).astype(np.int64)

    rows = []
    for qid, g in knn.groupby("query_id", sort=True):
        g = g.sort_values(["score", "vec_id"], ascending=[False, True])
        labels = g["label"].to_numpy()
        vals, counts = np.unique(labels, return_counts=True)
        order = np.lexsort((vals, -counts))
        rows.append({
            "query_id": int(qid),
            "pred_label": int(vals[order[0]]),
            "top2_agree": int(labels.size >= 2 and labels[0] == labels[1]),
        })
    return pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False)


def knn_label_consensus_sql(query_ids=DEFAULT_QUERY_IDS, k: int = 10) -> str:
    ids = ", ".join(str(q) for q in query_ids)
    return f"""
        WITH q AS (
          SELECT vec_id AS query_id, embedding AS qe
          FROM embeddings WHERE vec_id IN ({ids})
        ),
        s AS (
          SELECT q.query_id, e.vec_id, e.label,
                 round(list_cosine_similarity(
                   e.embedding::DOUBLE[], q.qe::DOUBLE[]), 5) AS score
          FROM embeddings e CROSS JOIN q
          WHERE e.vec_id <> q.query_id
        ),
        topk AS (
          SELECT query_id, vec_id, label, score,
                 row_number() OVER (
                   PARTITION BY query_id ORDER BY score DESC, vec_id ASC
                 ) AS rn
          FROM s QUALIFY rn <= {k}
        ),
        vote AS (
          SELECT query_id, label, count(*) AS c FROM topk GROUP BY 1, 2
        ),
        pred AS (
          SELECT query_id, label AS pred_label FROM vote
          QUALIFY row_number() OVER (
            PARTITION BY query_id ORDER BY c DESC, label ASC) = 1
        ),
        agree AS (
          SELECT query_id,
                 CAST(max(CASE WHEN rn = 1 THEN label END)
                      = max(CASE WHEN rn = 2 THEN label END) AS BIGINT)
                   AS top2_agree
          FROM topk GROUP BY query_id
        )
        SELECT p.query_id, p.pred_label, a.top2_agree
        FROM pred p JOIN agree a USING (query_id)
    """


NEAR_DUP_THRESHOLD = 0.4
BUCKETED_ROWS = 200_000  # above this, embedding_near_dup goes per-bucket


class _NearDupScorer:
    """Full matrix broadcast once per actor; per batch one matmul
    against it, emit only pairs above threshold (a<b)."""

    def __init__(self, ref, threshold: float):
        import ray

        self.ids, self.Xn = ray.get(ref)
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, X = _emb_matrix(batch)
        S = np.round(_normalize(X) @ self.Xn.T, 5)
        mask = (S >= self.threshold) & (ids[:, None] < self.ids[None, :])
        i, j = np.nonzero(mask)
        return pa.table({
            "vec_id_a": pa.array(ids[i], pa.int64()),
            "vec_id_b": pa.array(self.ids[j], pa.int64()),
            "score": pa.array(S[i, j], pa.float64()),
        })


def embedding_near_dup(
    sf_dir: str, threshold: float = NEAR_DUP_THRESHOLD,
    bucketed: bool | None = None,
    lsh_planes: int = 8, lsh_tables: int = 16,
):
    """(vec_id_a, vec_id_b, score): embedding-cosine near-duplicate
    pairs above ``threshold`` (a<b; score rounded to 5dp).

    Two physical plans, same operator:
    - broadcast (default below ``BUCKETED_ROWS``): the normalized
      matrix is `ray.put` once and read per actor
      (FaceInference.scala:63-76 broadcast-kNN pattern); exact.
    - bucketed (default above): ``lsh_tables`` independent hyperplane
      tables; each table shuffles rows by bucket and verifies
      all-pairs WITHIN buckets only, then pairs dedup in one final
      groupby. No actor ever holds the full matrix. Recall per pair =
      1-(1-p^planes)^tables with p = 1 - theta/pi; at real near-dup
      thresholds (>= 0.9 cosine) the defaults give > 99% — the
      planted-dup pytest asserts pair-set equality with brute force.
    """
    if bucketed is None:
        bucketed = _emb_rows(sf_dir) > BUCKETED_ROWS
    if not bucketed:
        import pyarrow.parquet as pq
        import ray

        t = pq.read_table(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        )
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        col = t["embedding"].combine_chunks()
        dim = len(col[0])
        X = (col.flatten().to_numpy(zero_copy_only=False)
             .astype(np.float64).reshape(len(ids), dim))
        ref = ray.put((ids, _normalize(X)))
        return _emb(sf_dir).map_batches(
            _NearDupScorer,
            fn_constructor_kwargs={"ref": ref, "threshold": threshold},
            batch_format="pyarrow", concurrency=_pool(), batch_size=4096,
        )
    return _embedding_near_dup_bucketed(
        sf_dir, threshold, lsh_planes, lsh_tables
    )


def _embedding_near_dup_bucketed(
    sf_dir: str, threshold: float, n_planes: int, n_tables: int
):
    import pandas as pd
    import ray

    dim = _emb_dim(sf_dir)
    rng = np.random.RandomState(42)
    planes = [rng.randn(dim, n_planes) for _ in range(n_tables)]
    planes_ref = ray.put(planes)  # broadcast once, read per task

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["vec_id"].to_numpy()
        X = np.stack(g["embedding"].to_numpy()).astype(np.float64)
        Xn = _normalize(X)
        S = np.round(Xn @ Xn.T, 5)
        mask = (S >= threshold) & (ids[:, None] < ids[None, :])
        i, j = np.nonzero(mask)
        return pd.DataFrame({
            "vec_id_a": ids[i].astype("int64"),
            "vec_id_b": ids[j].astype("int64"),
            "score": S[i, j],
        })

    def bucketer(t: int):
        # stateless task-pool stage (a chain of actor pools would
        # deadlock small sessions; cheap state travels by broadcast)
        def f(batch: pa.Table) -> pa.Table:
            P = ray.get(planes_ref)[t]
            ids, X = _emb_matrix(batch)
            return pa.table({
                "vec_id": pa.array(ids, pa.int64()),
                "bucket": pa.array(_plane_sig(X, P), pa.int64()),
                "embedding": batch["embedding"],
            })
        return f

    per_table = []
    for t in range(n_tables):
        ds = _emb(sf_dir).map_batches(bucketer(t), batch_format="pyarrow")
        per_table.append(
            ds.groupby("bucket").map_groups(verify, batch_format="pandas")
        )
    allp = per_table[0]
    for d in per_table[1:]:
        allp = allp.union(d)

    # cross-table pair dedup on a coarse hash partition (vectorized
    # drop_duplicates inside each group — never one map_groups call
    # per pair)
    def add_pkey(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["pkey"] = (g["vec_id_a"].to_numpy() & 0x3F).astype("int64")
        return g

    def dedup(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["vec_id_a", "vec_id_b"])

    return (
        allp.map_batches(add_pkey, batch_format="pandas")
        .groupby("pkey")
        .map_groups(dedup, batch_format="pandas")
        .select_columns(["vec_id_a", "vec_id_b", "score"])
    )


def embedding_near_dup_sql(threshold: float = NEAR_DUP_THRESHOLD) -> str:
    return f"""
        SELECT a.vec_id AS vec_id_a, b.vec_id AS vec_id_b,
               round(list_cosine_similarity(
                 a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 5) AS score
        FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
        WHERE round(list_cosine_similarity(
                 a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 5)
              >= {threshold}
    """


class _HardNegScorer:
    """Actor-pool stage for hard-negative mining: query matrix AND
    query labels fetched once per actor; each batch contributes only
    vectors whose label DIFFERS from the query's."""

    def __init__(self, qref, k: int):
        import ray

        self.q_ids, self.Q, self.q_labels = ray.get(qref)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, X = _emb_matrix(batch)
        labels = batch["label"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        Xn = _normalize(X)
        S = Xn @ self.Q.T  # (batch, m)
        out_q, out_v, out_s = [], [], []
        for j in range(self.q_ids.size):
            mask = (labels != self.q_labels[j]) & (ids != self.q_ids[j])
            cand_ids = ids[mask]
            cand_s = np.round(S[mask, j], 5)
            take = min(self.k, cand_ids.size)
            order = np.lexsort((cand_ids, -cand_s))[:take]
            out_q.extend([int(self.q_ids[j])] * take)
            out_v.extend(cand_ids[order].tolist())
            out_s.extend(cand_s[order].tolist())
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(out_v, pa.int64()),
            "score": pa.array(out_s, pa.float64()),
        })


def knn_hard_negatives(
    sf_dir: str, query_ids=DEFAULT_QUERY_IDS, k: int = 10
):
    """(query_id, vec_id, score): HARD-NEGATIVE MINING for contrastive
    / metric-learning training data — each query's top-k most-similar
    vectors whose label DIFFERS from the query's own (the highest-loss
    negatives; random negatives are mostly easy and carry no
    gradient). Same broadcast + actor-pool + per-batch-top-k shape as
    knn_cosine; the label condition is per-QUERY (not a global
    predicate like knn_cosine_filtered), so the mask is built inside
    the kernel from the broadcast (q_ids, q_labels)."""
    import ray

    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
        filters=[("vec_id", "in", list(query_ids))],
    )
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    col = t["embedding"].combine_chunks()
    dim = len(col[0])
    Q = _normalize(
        col.flatten().to_numpy(zero_copy_only=False)
        .astype(np.float64).reshape(len(ids), dim)
    )
    q_labels = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
    qref = ray.put((ids, Q, q_labels))
    ds = _emb(sf_dir).map_batches(
        _HardNegScorer,
        fn_constructor_kwargs={"qref": qref, "k": k},
        batch_format="pyarrow",
        concurrency=_pool(),
        batch_size=4096,
    )
    return _topk_merge(ds, k)


def knn_hard_negatives_sql(
    query_ids=DEFAULT_QUERY_IDS, k: int = 10
) -> str:
    ids = ", ".join(str(int(i)) for i in query_ids)
    return f"""
    WITH q AS (
      SELECT vec_id AS query_id, embedding AS qe, label AS ql
      FROM embeddings WHERE vec_id IN ({ids})
    ),
    s AS (
      SELECT q.query_id, e.vec_id,
             round(list_cosine_similarity(
               e.embedding::DOUBLE[], q.qe::DOUBLE[]), 5) AS score
      FROM embeddings e CROSS JOIN q
      WHERE e.vec_id <> q.query_id AND e.label <> q.ql
    )
    SELECT query_id, vec_id, score FROM s
    QUALIFY row_number() OVER (
      PARTITION BY query_id ORDER BY score DESC, vec_id ASC
    ) <= {k}
"""


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
BINARY_DEPTH = 150  # recall@10 0.94-0.96 on the testdata; 64-bit
# sign codes are coarse, so the re-rank budget carries the recall


class _BinScorer:
    """Actor-pool stage: 1-bit (sign) binary-quantized scan + exact
    float re-rank. Per actor: the queries' packed sign bits. Per
    batch: vectors pack to ceil(dim/8) BYTES each (32x smaller than
    float32), approximate similarity = dim - 2 x hamming computed as
    one XOR + a uint8 popcount gather — no float touched until the
    top-``depth`` re-rank."""

    def __init__(self, ref, k: int, depth: int):
        import ray

        self.q_ids, self.Q = ray.get(ref)
        self.Qbits = np.packbits(self.Q > 0.0, axis=1)
        self.k = k
        self.depth = depth

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, X = _emb_matrix(batch)
        Xn = _normalize(X)
        bits = np.packbits(Xn > 0.0, axis=1)  # (batch, dim/8) uint8
        out_q, out_v, out_s = [], [], []
        for j in range(self.q_ids.size):
            ham = _POP8[bits ^ self.Qbits[j][None, :]].sum(
                axis=1
            ).astype(np.int64)
            rows = np.flatnonzero(ids != self.q_ids[j])
            if rows.size == 0:
                continue
            d = min(self.depth, rows.size)
            order = rows[np.lexsort((ids[rows], ham[rows]))[:d]]
            exact = np.round(Xn[order] @ self.Q[j], 5)
            take = min(self.k, d)
            fin = np.lexsort((ids[order], -exact))[:take]
            out_q.extend([int(self.q_ids[j])] * take)
            out_v.extend(ids[order][fin].tolist())
            out_s.extend(exact[fin].tolist())
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(out_v, pa.int64()),
            "score": pa.array(out_s, pa.float64()),
        })


def knn_cosine_binary(
    sf_dir: str, query_ids=DEFAULT_QUERY_IDS, k: int = 10,
    depth: int = BINARY_DEPTH,
):
    """(query_id, vec_id, score): BINARY-quantized vector search —
    sign-bit codes (1 bit/dimension, 32x compression vs float32) with
    hamming-distance candidate scan and exact float re-rank of the
    per-batch top-``depth``. The modern first-stage filter for
    billion-vector search (the memory-bandwidth story PQ tells, at a
    byte budget even PQ can't meet); at ``depth`` >= batch size the
    re-rank IS brute force (the oracle-gated fullrerank twin)."""
    import ray

    q_ids, Q = _query_matrix(sf_dir, query_ids)
    ref = ray.put((q_ids, Q))
    ds = _emb(sf_dir).map_batches(
        _BinScorer,
        fn_constructor_kwargs={"ref": ref, "k": k, "depth": depth},
        batch_format="pyarrow",
        concurrency=_pool(),
        batch_size=4096,
    )
    return _topk_merge(ds, k)


def knn_cosine_binary_fullrerank(
    sf_dir: str, query_ids=DEFAULT_QUERY_IDS, k: int = 10
):
    """Binary twin at depth = everything: the exact re-rank IS brute
    force, so the kNN SQL oracle gates the pack/XOR/popcount/merge
    plumbing end to end."""
    return knn_cosine_binary(sf_dir, query_ids, k=k, depth=1 << 62)


SEMDEDUP_CLUSTERS = 8
SEMDEDUP_TAU = 0.30


class _ClusterAssigner:
    """Actor-pool assignment stage: the (tiny) centroid matrix is
    fetched ONCE per actor from the object store; each batch is one
    matmul batch x K. Tie-break on equal rounded similarity is the
    LOWEST centroid id (np.argmax returns the first maximum and the
    columns are cid-ascending — the SQL oracle's row_number ORDER BY
    sim DESC, cid)."""

    def __init__(self, cref):
        import ray

        self.cids, self.C = ray.get(cref)  # C already normalized

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, X = _emb_matrix(batch)
        Xn = _normalize(X)
        S = np.round(Xn @ self.C.T, 5)  # (batch, K)
        a = np.argmax(S, axis=1)
        return pa.table({
            "vec_id": pa.array(ids.astype(np.int64)),
            "cluster": pa.array(self.cids[a].astype(np.int64)),
            "embedding": batch["embedding"],
        })


def semdedup(
    sf_dir: str,
    n_clusters: int = SEMDEDUP_CLUSTERS,
    tau: float = SEMDEDUP_TAU,
):
    """(vec_id, cluster): SemDeDup-style semantic deduplication
    (Abbas et al. 2023, arXiv:2303.09540) — cluster the embedding
    space, then drop near-duplicates WITHIN each cluster so the
    pairwise work is K small problems instead of one N^2 one. Kept =
    vectors with NO same-cluster neighbor of lower vec_id at
    round(cosine, 5) >= tau (the anti-join keep-lowest-id rule; the
    paper keeps the member farthest from the centroid — the
    deterministic id rule is chosen so the whole operator is
    SQL-expressible and driver-gated). Centroids are the embeddings
    of vec_id < n_clusters (deterministic, shared with the oracle;
    a production run would plug sampled k-means means from the IVF
    trainer here — same shape, no oracle).

    Scale shape: centroids broadcast once via ray.put (K x dim);
    assignment is one actor-pool matmul pass; ONE groupby exchange
    co-locates each cluster; the in-cluster pair test is a chunked
    matmul bounded by cluster size (K scales with N so clusters stay
    ~N/K — the paper's point). No all-pairs, no driver-side matrix."""
    import pandas as pd
    import ray

    c_ids, C = _query_matrix(sf_dir, list(range(n_clusters)))
    cref = ray.put((c_ids.astype(np.int64), C))

    def cluster_dedup(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["vec_id"].to_numpy()
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        emb = np.stack(g["embedding"].to_numpy()[order]).astype(
            np.float64
        )
        Xn = _normalize(emb)
        keep = np.ones(ids.size, bool)
        # chunked lower-triangle test: x is dropped iff ANY y < x
        # (kept or not — the anti-join rule) has sim >= tau; the
        # triangle mask is vectorized per chunk (no per-row loop)
        step = 1024
        for lo in range(1, ids.size, step):
            hi = min(lo + step, ids.size)
            S = np.round(Xn[lo:hi] @ Xn[:hi].T, 5)  # rows lo..hi
            tri = (np.arange(hi)[None, :]
                   < (lo + np.arange(hi - lo))[:, None])
            keep[lo:hi] = ~((S >= tau) & tri).any(axis=1)
        return pd.DataFrame({
            "vec_id": ids[keep].astype(np.int64),
            "cluster": g["cluster"].to_numpy()[order][keep].astype(
                np.int64
            ),
        })

    out = (
        _emb(sf_dir)
        .map_batches(
            _ClusterAssigner,
            fn_constructor_args=(cref,),
            concurrency=_pool(),
            batch_format="pyarrow",
        )
        .groupby("cluster")
        .map_groups(cluster_dedup, batch_format="pandas")
        .to_pandas()
    )
    out = out.sort_values("vec_id").reset_index(drop=True)
    return pa.table({
        "vec_id": pa.array(out["vec_id"].to_numpy(np.int64)),
        "cluster": pa.array(out["cluster"].to_numpy(np.int64)),
    })


def semdedup_sql(
    n_clusters: int = SEMDEDUP_CLUSTERS, tau: float = SEMDEDUP_TAU
) -> str:
    return f"""
WITH c AS (
  SELECT vec_id AS cid, embedding AS cemb
  FROM embeddings WHERE vec_id < {n_clusters}),
s AS (
  SELECT e.vec_id, c.cid,
         round(list_cosine_similarity(
           e.embedding::DOUBLE[], c.cemb::DOUBLE[]), 5) AS sim
  FROM embeddings e CROSS JOIN c),
a AS (
  SELECT vec_id, cid AS cluster FROM (
    SELECT vec_id, cid,
           row_number() OVER (
             PARTITION BY vec_id ORDER BY sim DESC, cid) AS rn
    FROM s) WHERE rn = 1)
SELECT a.vec_id, a.cluster
FROM a
WHERE NOT EXISTS (
  SELECT 1
  FROM a a2
  JOIN embeddings e1 ON e1.vec_id = a.vec_id
  JOIN embeddings e2 ON e2.vec_id = a2.vec_id
  WHERE a2.cluster = a.cluster AND a2.vec_id < a.vec_id
    AND round(list_cosine_similarity(
          e1.embedding::DOUBLE[], e2.embedding::DOUBLE[]), 5)
        >= {tau})
ORDER BY a.vec_id
"""


# ---- persisted ANN index (build once, query many) -------------------

ANN_INDEX_VERSION = 1


def _ann_index_key(sf_dir: str, n_centroids: int, m: int, ksub: int):
    return (
        "annidx", f"{sf_dir}/embeddings.parquet",
        (n_centroids, m, ksub, ANN_INDEX_VERSION),
    )


def _ann_index_dir(
    sf_dir: str, n_centroids: int, m: int, ksub: int
) -> str:
    return cache.path(*_ann_index_key(sf_dir, n_centroids, m, ksub))


class _IndexEncoder:
    """Build-side actor stage: centroids + codebooks fetched once per
    actor; each batch is assigned (one matmul) and residual-PQ-encoded
    (m small matmuls). Emits the ORIGINAL float32 embedding alongside
    the code so query-time exact re-rank uses bit-identical operands
    to the brute-force baseline (normalize-in-float64-at-read, never a
    stored normalized float32)."""

    def __init__(self, ref):
        import ray

        self.C, self.books = ray.get(ref)
        m, _, dsub = self.books.shape
        self.m, self.dsub = m, dsub
        self.cnorm = -0.5 * (self.books * self.books).sum(axis=2)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, X = _emb_matrix(batch)
        Xn = _normalize(X)
        cent = np.argmax(Xn @ self.C.T, axis=1)
        resid = Xn - self.C[cent]
        codes = np.empty((Xn.shape[0], self.m), dtype=np.uint8)
        for s in range(self.m):
            Rs = resid[:, s * self.dsub:(s + 1) * self.dsub]
            codes[:, s] = np.argmax(
                Rs @ self.books[s].T + self.cnorm[s], axis=1
            )
        return pa.table({
            "vec_id": pa.array(ids.astype(np.int64)),
            # `cell` rides INSIDE the files; `cluster` becomes the hive
            # partition directory (and is stripped from the files), so
            # partition-dir reads keep the assignment column
            "cell": pa.array(cent.astype(np.int64)),
            "code": pa.FixedSizeListArray.from_arrays(
                pa.array(codes.reshape(-1), pa.uint8()), self.m
            ),
            "embedding": batch["embedding"],
            "cluster": pa.array(cent.astype(np.int64)),
        })


def build_ann_index(
    sf_dir: str, n_centroids: int = 32, m: int = PQ_M,
    ksub: int = PQ_KSUB,
) -> str:
    """Build the PERSISTED IVF-PQ index artifact and return its
    directory — the vector-side mirror of the fulltext index's
    build-once/serve-many discipline (reference analog: the search
    index the reference maintains beside its stores, SURVEY S6/J7).
    Layout: ``vectors/cluster=<cell>/*.parquet`` (hive-partitioned by
    coarse cell: a query touching n_probe of n_centroids cells reads
    ONLY those directories off disk — at 100 TB the pruning happens at
    the STORAGE layer, not after a full scan), plus ``centroids.npy``
    / ``books.npy`` / ``meta.json``. Published by
    ``cache.artifact`` (corpus identity + params + format version in
    the key; atomic staging rename, concurrent-builder safe)."""
    import json
    import os

    import ray

    if ksub > 256:
        # codes persist as uint8 (the FAISS 8-bit layout); a larger
        # ksub would wrap silently on assignment
        raise ValueError("persisted index requires ksub <= 256")

    def build(staging: str) -> None:
        C = _train_centroids(sf_dir, n_centroids)
        books = _train_residual_books(sf_dir, C, m=m, ksub=ksub)
        ref = ray.put((C, books))
        _emb(sf_dir).map_batches(
            _IndexEncoder,
            fn_constructor_args=(ref,),
            concurrency=_pool(),
            batch_format="pyarrow",
        ).write_parquet(
            os.path.join(staging, "vectors"), partition_cols=["cluster"]
        )
        np.save(os.path.join(staging, "centroids.npy"), C)
        np.save(os.path.join(staging, "books.npy"), books)
        with open(os.path.join(staging, "meta.json"), "w") as f:
            json.dump({
                "version": ANN_INDEX_VERSION,
                "n_centroids": int(C.shape[0]), "m": int(m),
                "ksub": int(ksub), "dim": int(C.shape[1]),
            }, f)

    return cache.artifact(
        *_ann_index_key(sf_dir, n_centroids, m, ksub), build
    )


class _IndexScorer:
    """Query-side actor stage over PRE-ENCODED index partitions: no
    assignment, no encoding — gather the centroid dot + m table
    lookups per candidate (ADC), exact-re-rank the per-batch
    top-``depth`` from the stored raw floats."""

    def __init__(self, ref, k: int, depth: int):
        import ray

        (self.q_ids, self.Q, self.C, self.probes,
         self.books) = ray.get(ref)
        m, _, dsub = self.books.shape
        self.m, self.dsub = m, dsub
        self.T = np.einsum(
            "qsd,scd->qsc",
            self.Q.reshape(self.q_ids.size, m, dsub),
            self.books,
        )
        self.qc = self.Q @ self.C.T
        self.k, self.depth = k, depth

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, X = _emb_matrix(batch)
        Xn = _normalize(X)
        cell = batch["cell"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        code_col = batch["code"]
        code_col = (code_col.combine_chunks()
                    if isinstance(code_col, pa.ChunkedArray) else code_col)
        codes = code_col.flatten().to_numpy(
            zero_copy_only=False
        ).reshape(len(ids), self.m).astype(np.int64)
        rows_m = np.arange(self.m)
        out_q, out_v, out_s = [], [], []
        for j in range(self.q_ids.size):
            rows = np.flatnonzero(
                np.isin(cell, self.probes[j]) & (ids != self.q_ids[j])
            )
            if rows.size == 0:
                continue
            approx = (
                self.qc[j][cell[rows]]
                + self.T[j][rows_m[None, :], codes[rows]].sum(axis=1)
            )
            d = min(self.depth, rows.size)
            order = np.lexsort((ids[rows], -approx))[:d]
            sel = rows[order]
            exact = np.round(Xn[sel] @ self.Q[j], 5)
            take = min(self.k, d)
            fin = np.lexsort((ids[sel], -exact))[:take]
            out_q.extend([int(self.q_ids[j])] * take)
            out_v.extend(ids[sel][fin].tolist())
            out_s.extend(exact[fin].tolist())
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(out_v, pa.int64()),
            "score": pa.array(out_s, pa.float64()),
        })


def ann_index_search(
    sf_dir: str, query_ids=DEFAULT_QUERY_IDS, k: int = 10,
    n_probe: int = 8, depth: int = PQ_DEPTH,
    n_centroids: int = 32, m: int = PQ_M, ksub: int = PQ_KSUB,
    index_dir: str | None = None,
):
    """(query_id, vec_id, score): IVF-PQ search over the PERSISTED
    index — builds (or cache-hits) the artifact, then reads ONLY the
    probed ``cluster=<cell>`` partition directories: pruning is
    structural (directory selection), not a post-scan filter, so at
    scale a default query reads n_probe/n_centroids of the index
    bytes. Scoring matches the inline IVF-PQ path (same centroids,
    same codebooks, same ADC + exact-re-rank rule); the full-probe
    full-re-rank twin below degenerates to brute-force kNN and shares
    its SQL oracle."""
    import os

    import ray
    import ray.data

    d = index_dir or build_ann_index(
        sf_dir, n_centroids=n_centroids, m=m, ksub=ksub
    )
    C = np.load(os.path.join(d, "centroids.npy"))
    books = np.load(os.path.join(d, "books.npy"))
    q_ids, Q = _query_matrix(sf_dir, query_ids)
    qc = Q @ C.T
    npb = min(n_probe, C.shape[0])
    probes = np.argsort(-qc, axis=1)[:, :npb]
    probed = np.unique(probes)
    import glob

    dirs = [
        f for c in probed
        for f in sorted(glob.glob(os.path.join(
            d, "vectors", f"cluster={int(c)}", "*.parquet")))
    ]
    if not dirs:
        return pa.table({
            "query_id": pa.array([], pa.int64()),
            "vec_id": pa.array([], pa.int64()),
            "score": pa.array([], pa.float64()),
        })
    ref = ray.put((
        q_ids, Q, C, [probes[j] for j in range(q_ids.size)], books
    ))
    ds = ray.data.read_parquet(dirs).map_batches(
        _IndexScorer,
        fn_constructor_kwargs={"ref": ref, "k": k, "depth": depth},
        batch_format="pyarrow",
        concurrency=_pool(),
        batch_size=4096,
    )
    return _topk_merge(ds, k)


def ann_index_fullprobe(
    sf_dir: str, query_ids=DEFAULT_QUERY_IDS, k: int = 10
):
    """Persisted-index twin at probe = every cell, depth = everything:
    the ADC order is fully re-ranked exactly, so the result IS
    brute-force kNN — the index build + partition read + decode
    plumbing gated end-to-end by the kNN SQL oracle."""
    return ann_index_search(
        sf_dir, query_ids, k=k, n_probe=1 << 30, depth=1 << 62
    )
