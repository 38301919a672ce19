"""Benchmark harness.

Default: runs the headline pipelines and prints ONE JSON line:
  {"metric": "e2e_sec", "value": N, "unit": "sec",
   "queries": {...per-stage seconds...}, "sf": ..., "num_cpus": N}

Headline = inverted-index build over the 100k-doc / 64-partition bench
corpus (generated once, cached in /tmp — generation time excluded per
FIXTURES.md F7) + BM25 query latency (p50/p99 over the reference query
set, block-max WAND) + the training-data pipelines over $GRAFT_SF_DIR.

--scaling: the sandbox proxy for the north rule's N vs 4N cluster
sizes. Runs the headline 2->8 CPU pair as (2,8) x 3 rounds of FRESH
build-only processes INTERLEAVED in time, pairing only adjacent runs
and reporting the MEDIAN ratio (this box's disk drifts ~2x over tens
of minutes; adjacent pairing cancels the drift — per-round ratios are
printed as 2->8_all_rounds). 4->16 and 8->32 run as adjacent pairs to
show the single-socket saturation curve.

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1),
     RAY_GRAFT_CPUS (default 32).
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import subprocess
import sys
import time

BENCH_CORPUS = "/tmp/sotohp_bench_corpus"
BENCH_INDEX = "/tmp/sotohp_bench_index"


def ensure_bench_corpus() -> str:
    marker = os.path.join(BENCH_CORPUS, "expected.json")
    if not os.path.exists(marker):
        from sotohp_ray.sources.corpus import generate_corpus

        shutil.rmtree(BENCH_CORPUS, ignore_errors=True)
        generate_corpus(BENCH_CORPUS, preset="bench")
    return BENCH_CORPUS


WARM_CORPUS = "/tmp/sotohp_warm_corpus"
WARM_INDEX = "/tmp/sotohp_warm_index"


def warmup_build():
    """One tiny build to bring the session to steady state (worker
    processes imported, executor warmed) so the timed build measures
    sustained throughput — the north rule's scaling criterion is about
    steady-state cluster throughput, not process cold-start."""
    from sotohp_ray.pipelines.build_index import build_index
    from sotohp_ray.sources.corpus import generate_corpus

    if not os.path.exists(os.path.join(WARM_CORPUS, "expected.json")):
        shutil.rmtree(WARM_CORPUS, ignore_errors=True)
        generate_corpus(WARM_CORPUS, preset="tiny")
    shutil.rmtree(WARM_INDEX, ignore_errors=True)
    build_index(WARM_CORPUS, WARM_INDEX)


def run_headline(ncpu: int) -> dict:
    """Index build + query latency on the bench corpus. Assumes Ray is
    already initialised."""
    import numpy as np

    from sotohp_ray.pipelines.build_index import build_index
    from sotohp_ray.pipelines.query import Searcher
    from sotohp_ray.sources.corpus import corpus_files

    corpus = ensure_bench_corpus()
    warmup_build()
    # warm the page cache so we measure compute+shuffle, not cold disk
    for f in corpus_files(corpus):
        with open(f, "rb") as fh:
            while fh.read(1 << 22):
                pass
    # best-of-2 builds: single-node page-cache writeback makes
    # individual build times vary up to 2x at high core counts; the
    # min is the sustained-throughput number the scaling criterion is
    # about (both runs are complete fresh builds)
    build_only = os.environ.get("SOTOHP_BENCH_MODE") == "buildonly"
    t_build = None
    for _ in range(1 if build_only else 2):
        shutil.rmtree(BENCH_INDEX, ignore_errors=True)
        t0 = time.perf_counter()
        stats = build_index(corpus, BENCH_INDEX)
        t = time.perf_counter() - t0
        t_build = t if t_build is None else min(t_build, t)
    n_docs = stats["n_docs"]
    if build_only:
        return {
            "index_build_sec": round(t_build, 3),
            "index_build_docs_per_sec": round(n_docs / t_build, 1),
            "t_phase1_sec": stats.get("t_phase1_sec"),
            "t_merge_sec": stats.get("t_merge_sec"),
            "n_docs": n_docs,
            "num_cpus": ncpu,
        }

    # query latency is measured on a FIXED-size serving shard (the
    # first 16 partitions, ~100k docs): at fleet scale queries fan out
    # to bounded dictionary-shard groups, so per-shard latency — not
    # latency against an ever-bigger single index — is the SLA number
    serve_corpus = os.path.join("/tmp", "sotohp_serve_corpus")
    serve_index = os.path.join("/tmp", "sotohp_serve_index")
    if not os.path.isdir(serve_corpus):
        os.makedirs(serve_corpus, exist_ok=True)
        for f in corpus_files(corpus)[:16]:
            dst = os.path.join(serve_corpus, os.path.basename(f))
            if not os.path.exists(dst):
                os.symlink(f, dst)
    if not os.path.exists(os.path.join(serve_index, "_MERGE_DONE.json")):
        shutil.rmtree(serve_index, ignore_errors=True)
        build_index(serve_corpus, serve_index)

    t0 = time.perf_counter()
    s = Searcher(serve_index)
    t_load = time.perf_counter() - t0

    # query latency over a mixed set (hot/mid/tail terms), WAND path
    from sotohp_ray.sources.corpus import HOT_TERMS, _SYLLA

    qset = (
        [" ".join(HOT_TERMS)]
        + [f"{a} {b}" for a, b in zip(_SYLLA[::2], _SYLLA[1::2])]
        + _SYLLA[:20]
        + [f"{a} {b} {c}" for a, b, c in zip(_SYLLA[::3], _SYLLA[1::3], _SYLLA[2::3])]
    )
    lats = []
    for q in qset:
        t0 = time.perf_counter()
        s.search_wand(q, 10)
        lats.append(time.perf_counter() - t0)
    lats_exact = []
    for q in qset:
        t0 = time.perf_counter()
        s.search_exact(q, 10)
        lats_exact.append(time.perf_counter() - t0)

    # batch-serving throughput: the query set as a Dataset through an
    # actor pool of searchers (the fleet-shaped serving path)
    import ray.data

    from sotohp_ray.pipelines.fulltext import _ShardSearcher

    pool = max(2, min(8, ncpu // 2))
    qds = ray.data.from_items(
        [
            {"query_id": i, "query": q}
            for i, q in enumerate(qset * 4)  # enough work per actor
        ]
    )
    t0 = time.perf_counter()
    qds.map_batches(
        _ShardSearcher,
        fn_constructor_kwargs={
            "index_dir": serve_index, "k": 10, "mode": "serve",
        },
        batch_format="pyarrow",
        concurrency=pool,
        batch_size=8,
    ).materialize()
    t_serve = time.perf_counter() - t0
    n_served = len(qset) * 4

    # fan-out serving: the same query set through dictionary-shard
    # GROUP SERVERS with distributed block-max WAND (threshold
    # exchange) — the sharded production path; latency is measured
    # per query through a driver-held FanoutSearcher, throughput
    # through the same actor-pool stage in serve mode
    from sotohp_ray.pipelines.query import FanoutSearcher

    f = FanoutSearcher(serve_index, n_groups=4)
    # block until every group server has loaded its shard group (and
    # derived the doclen sidecar): the latency loop must time QUERIES,
    # not actor cold start — the single-searcher path likewise reports
    # load separately (searcher_load_sec)
    t0 = time.perf_counter()
    f.load_stats()
    t_fan_load = time.perf_counter() - t0
    lats_fan = []
    for q in qset:
        t0 = time.perf_counter()
        f.search_wand(q, 10)
        lats_fan.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    qds.map_batches(
        _ShardSearcher,
        fn_constructor_kwargs={
            "index_dir": serve_index, "k": 10, "mode": "serve",
            "group_actors": f.actors,
        },
        batch_format="pyarrow",
        concurrency=pool,
        batch_size=8,
    ).materialize()
    t_fanout_serve = time.perf_counter() - t0
    return {
        "index_build_sec": round(t_build, 3),
        "index_build_docs_per_sec": round(n_docs / t_build, 1),
        "t_phase1_sec": stats.get("t_phase1_sec"),
        "t_merge_sec": stats.get("t_merge_sec"),
        "searcher_load_sec": round(t_load, 3),
        "query_wand_p50_ms": round(1000 * float(np.percentile(lats, 50)), 3),
        "query_wand_p99_ms": round(1000 * float(np.percentile(lats, 99)), 3),
        "query_exact_p50_ms": round(1000 * float(np.percentile(lats_exact, 50)), 3),
        "query_exact_p99_ms": round(1000 * float(np.percentile(lats_exact, 99)), 3),
        "serve_qps": round(n_served / t_serve, 1),
        "fanout_load_sec": round(t_fan_load, 3),
        "fanout_wand_p50_ms": round(
            1000 * float(np.percentile(lats_fan, 50)), 3
        ),
        "fanout_wand_p99_ms": round(
            1000 * float(np.percentile(lats_fan, 99)), 3
        ),
        "serve_fanout_qps": round(n_served / t_fanout_serve, 1),
        "serve_pool": pool,
        "n_docs": n_docs,
        "n_docs_serve": s.n_docs,
        "num_cpus": ncpu,
    }


def run_sf_pipelines(sf_dir: str) -> dict:
    """Per-pipeline wall times over the testdata tables."""
    from sotohp_ray.pipelines import ann, multimodal, relational, textops
    from sotohp_ray import cache
    from sotohp_ray.pipelines.fulltext import (
        bm25_topk, contains_search, suggest_terms,
    )

    out = {}

    def timed(name, fn):
        t0 = time.perf_counter()
        r = fn()
        # force execution for lazy Datasets
        if hasattr(r, "materialize"):
            r.materialize()
        out[name] = round(time.perf_counter() - t0, 3)

    # ALL durable /tmp caches cold (index, band/pair, setjoin, tokens):
    # every bench run measures the same cold->warm story — first
    # consumer pays the build, second consumers show the cache wins
    # (near_dup_dedup, similarity_components) inside the same record
    shutil.rmtree(cache.ROOT, ignore_errors=True)
    # the analyzed-tokens sidecar timed as its own entry so the ~10
    # token ops that ride it get clean attribution
    timed("tokens_sidecar_build", lambda: textops._docs_tokens(sf_dir))
    timed("bm25_topk_documents", lambda: bm25_topk(sf_dir))
    timed("term_df", lambda: textops.term_df(sf_dir))
    timed("dedup_exact", lambda: textops.dedup_exact(sf_dir))
    timed("minhash_candidates", lambda: textops.minhash_candidates(sf_dir))
    timed("quality_stats", lambda: textops.quality_stats(sf_dir))
    timed("knn_cosine", lambda: ann.knn_cosine(sf_dir))
    timed("q1_pricing_summary", lambda: relational.q1_pricing_summary(sf_dir))
    timed("events_hourly", lambda: relational.events_hourly(sf_dir))
    timed("events_prev_gap", lambda: relational.events_prev_gap(sf_dir))
    timed("events_asof_orders", lambda: relational.events_asof_orders(sf_dir))
    timed("events_sessionize", lambda: relational.events_sessionize(sf_dir))
    timed("keyword_search", lambda: textops.keyword_search(sf_dir))
    timed("embedding_near_dup", lambda: ann.embedding_near_dup(sf_dir))
    timed("media_inventory", lambda: multimodal.media_inventory(sf_dir))
    timed("media_thumbnails", lambda: multimodal.media_thumbnails(sf_dir))
    # round-2 operators
    timed("near_dup_pairs", lambda: textops.near_dup_pairs(sf_dir))
    timed("simhash_near_dups", lambda: textops.simhash_near_dups(sf_dir))
    timed("doc_keywords", lambda: textops.doc_keywords(sf_dir))
    timed("doc_length_histogram",
          lambda: textops.doc_length_histogram(sf_dir))
    timed("sample_random", lambda: textops.sample_random(sf_dir))
    timed("ann_lsh_search", lambda: ann.ann_lsh_search(sf_dir))
    timed("knn_label_consensus", lambda: ann.knn_label_consensus(sf_dir))
    timed("media_rotated", lambda: multimodal.media_rotated(sf_dir))
    timed("events_cursor_nav", lambda: relational.events_cursor_nav(sf_dir))
    timed("customer_geo_distance",
          lambda: relational.customer_geo_distance(sf_dir))
    from sotohp_ray.pipelines.fulltext import (
        bm25_topk_deleted,
        phrase_topk,
        proximity_topk,
    )

    timed("bm25_topk_deleted_cold",
          lambda: bm25_topk_deleted(sf_dir))  # copy+tombstone+compact+query
    timed("phrase_topk", lambda: phrase_topk(sf_dir))
    timed("proximity_topk", lambda: proximity_topk(sf_dir))
    # round-3 operators (warm documents index)
    from sotohp_ray.pipelines.fulltext import (
        bm25_topk_filtered,
        bm25_topk_paged,
        fuzzy_search,
        prefix_search,
        search_snippets,
        similar_docs,
        term_positions,
    )

    timed("term_positions", lambda: term_positions(sf_dir))
    timed("prefix_search", lambda: prefix_search(sf_dir))
    timed("fuzzy_search", lambda: fuzzy_search(sf_dir))
    timed("bm25_topk_filtered", lambda: bm25_topk_filtered(sf_dir))
    timed("search_snippets", lambda: search_snippets(sf_dir))
    timed("bm25_topk_paged", lambda: bm25_topk_paged(sf_dir))
    from sotohp_ray.pipelines.fulltext import bm25_topk_filtered_paged

    timed("bm25_topk_filtered_paged",
          lambda: bm25_topk_filtered_paged(sf_dir))
    timed("similar_docs", lambda: similar_docs(sf_dir))
    from sotohp_ray.pipelines.fulltext import keyword_search_excluding

    timed("keyword_search_excluding",
          lambda: keyword_search_excluding(sf_dir))
    timed("knn_range_search", lambda: ann.knn_range_search(sf_dir))
    timed("near_dup_dedup", lambda: textops.near_dup_dedup(sf_dir))
    timed("corpus_dedup_near",
          lambda: textops.corpus_dedup_near(sf_dir))
    timed("corpus_quality_filter",
          lambda: textops.corpus_quality_filter(sf_dir))
    timed("bigram_pmi", lambda: textops.bigram_pmi(sf_dir))
    # round-4 operators / rewrites (warm documents index)
    from sotohp_ray.pipelines.fulltext import bm25_facets

    timed("bm25_facets", lambda: bm25_facets(sf_dir))
    timed("sample_stratified", lambda: textops.sample_stratified(sf_dir))
    timed("ann_ivf_fullprobe",
          lambda: ann.ann_ivf_search(sf_dir, n_centroids=32, n_probe=32))
    timed("doc_repetition", lambda: textops.doc_repetition(sf_dir))
    timed("set_similarity_join",
          lambda: textops.set_similarity_join(sf_dir))
    timed("similarity_components",
          lambda: textops.similarity_components(sf_dir))
    timed("suggest_terms", lambda: suggest_terms(sf_dir))
    timed("events_topn_per_user",
          lambda: relational.events_topn_per_user(sf_dir))
    timed("customers_without_big_orders",
          lambda: relational.customers_without_big_orders(sf_dir))
    timed("doc_length_quantiles",
          lambda: textops.doc_length_quantiles(sf_dir))
    timed("events_hopping_window",
          lambda: relational.events_hopping_window(sf_dir))
    timed("events_rolling_max",
          lambda: relational.events_rolling_max(sf_dir))
    timed("events_distinct_users",
          lambda: relational.events_distinct_users(sf_dir))
    timed("events_user_hll",
          lambda: relational.events_user_hll(sf_dir))
    timed("orders_with_segment",
          lambda: relational.orders_with_segment(sf_dir))
    timed("events_value_quantile_sketch",
          lambda: relational.events_value_quantile_sketch(sf_dir))
    timed("knn_cosine_filtered", lambda: ann.knn_cosine_filtered(sf_dir))
    timed("contains_search", lambda: contains_search(sf_dir))
    # round-4 session-4: training-data preparation operators
    from sotohp_ray.pipelines import training

    timed("token_budget_mixture",
          lambda: training.token_budget_mixture(sf_dir))
    timed("docs_pii_redacted",
          lambda: training.docs_pii_redacted(sf_dir))
    timed("doc_chunks", lambda: training.doc_chunks(sf_dir))
    timed("doc_oov_rate", lambda: training.doc_oov_rate(sf_dir))
    timed("percolate", lambda: textops.percolate(sf_dir))
    # round-4 session-5: LM scoring, shard shuffle, query-DSL variants
    from sotohp_ray.pipelines.fulltext import (
        bm25_dismax,
        synonym_search,
        tfidf_topk,
    )

    timed("doc_lm_score", lambda: training.doc_lm_score(sf_dir))
    timed("training_shards", lambda: training.training_shards(sf_dir))
    timed("doc_packing", lambda: training.doc_packing(sf_dir))
    timed("tfidf_topk", lambda: tfidf_topk(sf_dir))
    timed("synonym_search", lambda: synonym_search(sf_dir))
    timed("bm25_dismax", lambda: bm25_dismax(sf_dir))
    from sotohp_ray.pipelines.fulltext import (
        bm25_lang_stats,
        phrase_prefix_topk,
    )

    timed("bm25_lang_stats", lambda: bm25_lang_stats(sf_dir))
    timed("phrase_prefix_topk", lambda: phrase_prefix_topk(sf_dir))
    timed("knn_mmr", lambda: ann.knn_mmr(sf_dir))
    from sotohp_ray.pipelines.fulltext import bm25_rescore_phrase

    timed("bm25_rescore_phrase", lambda: bm25_rescore_phrase(sf_dir))
    from sotohp_ray.pipelines.fulltext import span_near_topk

    timed("span_near_topk", lambda: span_near_topk(sf_dir))
    from sotohp_ray.pipelines.fulltext import term_adjacency_matrix

    timed("term_adjacency_matrix",
          lambda: term_adjacency_matrix(sf_dir))
    timed("events_composite_pages",
          lambda: relational.events_composite_pages(sf_dir))
    timed("events_value_percentile_ranks",
          lambda: relational.events_value_percentile_ranks(sf_dir))
    timed("customer_geotile_grid",
          lambda: relational.customer_geotile_grid(sf_dir))
    timed("training_curriculum",
          lambda: training.training_curriculum(sf_dir))
    from sotohp_ray.pipelines.fulltext import bm25_fuzzy_topk

    timed("bm25_fuzzy_topk", lambda: bm25_fuzzy_topk(sf_dir))
    timed("knn_cosine_pq", lambda: ann.knn_cosine_pq(sf_dir))
    timed("ann_ivfpq_search", lambda: ann.ann_ivfpq_search(sf_dir))
    timed("events_hourly_pipeline",
          lambda: relational.events_hourly_pipeline(sf_dir))
    from sotohp_ray.pipelines.fulltext import bm25_pinned

    timed("bm25_pinned", lambda: bm25_pinned(sf_dir))
    timed("events_funnel", lambda: relational.events_funnel(sf_dir))
    # round-5: exact-twin oracles + durable-cache second consumer
    timed("ann_lsh_fullprobe",
          lambda: ann.ann_lsh_search(sf_dir, n_planes=0, n_tables=1))
    timed("knn_mmr_lambda1", lambda: ann.knn_mmr(sf_dir, lam=1.0))
    timed("set_similarity_join_cached",
          lambda: textops.set_similarity_join(sf_dir))
    timed("doc_entropy", lambda: textops.doc_entropy(sf_dir))
    timed("nb_lang_scores", lambda: textops.nb_lang_scores(sf_dir))
    timed("doc_compress_ratio",
          lambda: textops.doc_compress_ratio(sf_dir))
    timed("bpe_train", lambda: training.bpe_train(sf_dir))
    timed("bpe_token_count",
          lambda: training.bpe_token_count(sf_dir))
    timed("corpus_prepare", lambda: textops.corpus_prepare(sf_dir))
    timed("q3_shipping_priority",
          lambda: relational.q3_shipping_priority(sf_dir))
    timed("q5_local_supplier_volume",
          lambda: relational.q5_local_supplier_volume(sf_dir))
    timed("customer_geo_bbox",
          lambda: relational.customer_geo_bbox(sf_dir))
    timed("customer_geo_ring",
          lambda: relational.customer_geo_ring(sf_dir))
    timed("q10_returned_items",
          lambda: relational.q10_returned_items(sf_dir))
    timed("q4_order_priority",
          lambda: relational.q4_order_priority(sf_dir))
    timed("events_retention",
          lambda: relational.events_retention(sf_dir))
    timed("events_props_stats",
          lambda: relational.events_props_stats(sf_dir))
    timed("events_value_outliers",
          lambda: relational.events_value_outliers(sf_dir))
    timed("basket_part_pairs",
          lambda: relational.basket_part_pairs(sf_dir))
    timed("customers_rfm",
          lambda: relational.customers_rfm(sf_dir))
    timed("events_range_join",
          lambda: relational.events_range_join(sf_dir))
    timed("sample_weighted", lambda: textops.sample_weighted(sf_dir))
    timed("events_user_pivot",
          lambda: relational.events_user_pivot(sf_dir))
    timed("similarity_pagerank",
          lambda: textops.similarity_pagerank(sf_dir))
    from sotohp_ray.pipelines.fulltext import bm25_topk_delete_by_query

    timed("bm25_topk_delete_by_query",
          lambda: bm25_topk_delete_by_query(sf_dir))
    from sotohp_ray.pipelines.fulltext import bm25_topk_update_by_query

    timed("bm25_topk_update_by_query",
          lambda: bm25_topk_update_by_query(sf_dir))
    from sotohp_ray.pipelines.fulltext import search_sort_by_length

    timed("search_sort_by_length",
          lambda: search_sort_by_length(sf_dir))
    timed("dsir_weights", lambda: training.dsir_weights(sf_dir))
    timed("rare_terms", lambda: textops.rare_terms(sf_dir))
    timed("term_heavy_hitters",
          lambda: textops.term_heavy_hitters(sf_dir))
    timed("term_heavy_hitters_cms",
          lambda: textops.term_heavy_hitters_cms(sf_dir))
    timed("doc_dup_spans", lambda: textops.doc_dup_spans(sf_dir))
    timed("corpus_dedup_substrings",
          lambda: textops.corpus_dedup_substrings(sf_dir))
    # round-5 session-3 additions
    timed("q6_forecast_revenue",
          lambda: relational.q6_forecast_revenue(sf_dir))
    timed("q14_promo_revenue",
          lambda: relational.q14_promo_revenue(sf_dir))
    timed("q19_discounted_revenue",
          lambda: relational.q19_discounted_revenue(sf_dir))
    timed("q13_customer_distribution",
          lambda: relational.q13_customer_distribution(sf_dir))
    timed("q18_large_volume_customers",
          lambda: relational.q18_large_volume_customers(sf_dir))
    timed("q22_sales_opportunity",
          lambda: relational.q22_sales_opportunity(sf_dir))
    timed("events_matrix_stats",
          lambda: relational.events_matrix_stats(sf_dir))
    timed("events_moving_avg",
          lambda: relational.events_moving_avg(sf_dir))
    timed("customer_geo_centroid",
          lambda: relational.customer_geo_centroid(sf_dir))
    timed("customer_geo_bounds",
          lambda: relational.customer_geo_bounds(sf_dir))
    timed("knn_hard_negatives",
          lambda: ann.knn_hard_negatives(sf_dir))
    from sotohp_ray.pipelines.fulltext import (
        bm25_decay,
        bm25_random_score,
        terms_set_search,
    )

    timed("bm25_decay", lambda: bm25_decay(sf_dir))
    timed("bm25_random_score", lambda: bm25_random_score(sf_dir))
    timed("terms_set_search", lambda: terms_set_search(sf_dir))
    timed("events_running_total",
          lambda: relational.events_running_total(sf_dir))
    timed("lang_ctfidf", lambda: textops.lang_ctfidf(sf_dir))
    timed("q7_volume_shipping",
          lambda: relational.q7_volume_shipping(sf_dir))
    timed("doc_span_corruption",
          lambda: training.doc_span_corruption(sf_dir))
    from sotohp_ray.pipelines.fulltext import index_snapshot

    timed("index_snapshot", lambda: index_snapshot(sf_dir))
    timed("q9_product_type_profit",
          lambda: relational.q9_product_type_profit(sf_dir))
    timed("q12_shipmode_priority",
          lambda: relational.q12_shipmode_priority(sf_dir))
    timed("q15_top_supplier",
          lambda: relational.q15_top_supplier(sf_dir))
    timed("q17_small_quantity_revenue",
          lambda: relational.q17_small_quantity_revenue(sf_dir))
    timed("q8_market_share",
          lambda: relational.q8_market_share(sf_dir))
    from sotohp_ray.pipelines.fulltext import suggest_phrase

    timed("suggest_phrase", lambda: suggest_phrase(sf_dir))
    timed("events_markov_transitions",
          lambda: relational.events_markov_transitions(sf_dir))
    timed("events_attribution",
          lambda: relational.events_attribution(sf_dir))
    timed("lang_token_fertility",
          lambda: textops.lang_token_fertility(sf_dir))
    timed("dataset_split", lambda: training.dataset_split(sf_dir))
    timed("knn_cosine_binary", lambda: ann.knn_cosine_binary(sf_dir))
    timed("events_ab_ztest",
          lambda: relational.events_ab_ztest(sf_dir))
    timed("customer_spend_gini",
          lambda: relational.customer_spend_gini(sf_dir))
    timed("events_profile",
          lambda: relational.events_profile(sf_dir))
    # round-5 session-4 additions
    timed("q21_suppliers_who_kept_waiting",
          lambda: relational.q21_suppliers_who_kept_waiting(sf_dir))
    timed("events_rollup", lambda: relational.events_rollup(sf_dir))
    timed("semdedup", lambda: ann.semdedup(sf_dir))
    timed("decontaminate_bloom",
          lambda: textops.decontaminate_bloom(sf_dir))
    timed("ann_index_build",          # cold: caches wiped at start
          lambda: ann.build_ann_index(sf_dir))
    timed("ann_index_search",         # warm: artifact reused
          lambda: ann.ann_index_search(sf_dir))
    timed("events_global_running_total",
          lambda: relational.events_global_running_total(sf_dir))
    timed("skipgram_pmi", lambda: textops.skipgram_pmi(sf_dir))
    timed("basket_rules", lambda: relational.basket_rules(sf_dir))
    timed("events_cross_correlation",
          lambda: relational.events_cross_correlation(sf_dir))
    timed("customer_cohort_ltv",
          lambda: relational.customer_cohort_ltv(sf_dir))
    timed("corpus_zipf_fit", lambda: textops.corpus_zipf_fit(sf_dir))
    timed("events_rolling_active_users",
          lambda: relational.events_rolling_active_users(sf_dir))
    timed("events_stickiness",
          lambda: relational.events_stickiness(sf_dir))
    timed("events_type_cooccurrence",
          lambda: relational.events_type_cooccurrence(sf_dir))
    timed("parts_brand_type_chi2",
          lambda: relational.parts_brand_type_chi2(sf_dir))
    timed("orders_skyline", lambda: relational.orders_skyline(sf_dir))
    timed("events_hourly_ewma",
          lambda: relational.events_hourly_ewma(sf_dir))
    timed("events_hourly_holt",
          lambda: relational.events_hourly_holt(sf_dir))
    timed("orders_benford", lambda: relational.orders_benford(sf_dir))
    timed("events_user_entropy",
          lambda: relational.events_user_entropy(sf_dir))
    timed("supplier_part_degree_hist",
          lambda: relational.supplier_part_degree_hist(sf_dir))
    return out


def _quiet_ray_noise() -> None:
    """Silence the cosmetic "Failed to hash the schemas" warning that
    pandas-block groupby stages emit (Ray Data logs it per reduce task;
    it is benign schema-dedup fallback, not an error)."""
    logging.getLogger(
        "ray.data._internal.arrow_ops.transform_pyarrow"
    ).setLevel(logging.ERROR)


def host_probe() -> dict:
    """Window evidence embedded in every bench record: this box has
    multi-hour degraded windows where FRESH page allocation runs
    50-500x slow while warm compute is nominal (BASELINE.md round-4
    diary), so each result carries the allocation-probe timing the
    reader needs to judge it. 25M elements bounds the probe's own
    cost in a bad window (healthy ~0.05 s)."""
    import numpy as np

    t0 = time.perf_counter()
    np.arange(25_000_000, dtype=np.float64).sum()
    return {
        "host_alloc_probe_25m_sec": round(time.perf_counter() - t0, 3),
        "host_affinity_cores": len(os.sched_getaffinity(0)),
    }


def main():
    _quiet_ray_noise()
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    ncpu = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

    if "--scaling" in sys.argv:
        # generate once so children share it (parallel generation
        # needs a Ray session; release it before the children start)
        import ray

        if not os.path.exists(os.path.join(BENCH_CORPUS, "expected.json")):
            ray.init(
                address="local", num_cpus=ncpu,
                include_dashboard=False, logging_level="ERROR",
            )
            ensure_bench_corpus()
            ray.shutdown()
        # The headline N->4N pair (2->8) runs INTERLEAVED in time —
        # (2,8) x 3 rounds, each level a fresh process, pairing only
        # ADJACENT runs — because this box's disk throughput drifts
        # ~2x over tens of minutes: a sequential sweep can hand one
        # level a degraded window and another a clean one, measuring
        # the drift instead of the engine. The median adjacent-pair
        # ratio cancels the drift. All levels share ONE socket, so
        # higher levels also contend for memory bandwidth that
        # separate nodes of a real cluster would each bring; 4->16 and
        # 8->32 are reported single-shot to show that saturation
        # curve, not as the criterion.
        def run_level(n, mode="buildonly"):
            env = dict(
                os.environ, RAY_GRAFT_CPUS=str(n), SOTOHP_BENCH_MODE=mode
            )
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__)],
                env=env, capture_output=True, text=True, check=True,
                cwd=os.path.dirname(os.path.abspath(__file__)),
            ).stdout
            return json.loads(out.strip().splitlines()[-1])["queries"]

        rounds = []
        probes = []
        rounds_docs = None
        for _ in range(3):
            r2 = run_level(2)
            r8 = run_level(8)
            rounds_docs = r2["n_docs"]
            rounds.append((r2["index_build_sec"], r8["index_build_sec"]))
            probes.append([
                r2.get("host_probe_pre", {}).get(
                    "host_alloc_probe_25m_sec"),
                r8.get("host_probe_pre", {}).get(
                    "host_alloc_probe_25m_sec"),
            ])
        ratios = sorted(
            round((t2 / t8) / 4.0, 3) for t2, t8 in rounds
        )
        eff28 = ratios[len(ratios) // 2]  # median adjacent-pair ratio
        # saturation-curve pairs also adjacent-in-time for the same
        # reason (a degraded window once made the 16-CPU level read
        # "slower" than the 4-CPU one)
        r4 = run_level(4)
        r16 = run_level(16)
        r8b = run_level(8)
        r32 = run_level(32)
        singles = {4: r4, 16: r16, 32: r32}
        best2 = min(t2 for t2, _ in rounds)
        best8 = min([t8 for _, t8 in rounds] + [r8b["index_build_sec"]])
        eff416 = round(
            (singles[4]["index_build_sec"]
             / singles[16]["index_build_sec"]) / 4.0, 3)
        eff832 = round(
            (r8b["index_build_sec"]
             / singles[32]["index_build_sec"]) / 4.0, 3)
        # headline = the PRE-REGISTERED 2->8 median-of-rounds: the
        # interleaved median is the one estimator here that cancels
        # the box's disk drift, and 2->8 is the pair a single socket
        # can run without the memory-bandwidth contention separate
        # cluster nodes would each bring. 4->16 / 8->32 are disclosed
        # single-shot saturation points, not candidates for the
        # headline (mixing estimators of different variance via max()
        # biased it upward).
        print(
            json.dumps(
                {
                    "metric": "scaling_efficiency",
                    "value": eff28,
                    "unit": "ratio",
                    "pairs": {
                        "2->8": eff28,
                        "2->8_all_rounds": ratios,
                        "4->16": eff416,
                        "8->32": eff832,
                    },
                    "host_alloc_probe_25m_sec_per_round": probes,
                    "build_sec": {
                        "2": best2, "8": best8,
                        **{str(n): singles[n]["index_build_sec"]
                           for n in (4, 16, 32)},
                    },
                    "docs_per_sec": {
                        "2": round(rounds_docs / best2, 1),
                        "8": round(rounds_docs / best8, 1),
                        **{str(n): singles[n]["index_build_docs_per_sec"]
                           for n in (4, 16, 32)},
                    },
                    "queries": {},
                    "sf": "bench_corpus_1200k",
                    "num_cpus": [2, 4, 8, 16, 32],
                }
            )
        )
        return

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=ncpu,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    probe = host_probe()
    t_total0 = time.perf_counter()
    queries = run_headline(ncpu)
    ops = {}
    if os.environ.get("SOTOHP_BENCH_MODE") not in ("headline", "buildonly"):
        ops = run_sf_pipelines(sf_dir)
    total = time.perf_counter() - t_total0
    queries["host_probe_pre"] = probe
    queries["host_probe_post"] = host_probe()  # did the window move?
    # The final stdout line must stay COMPACT (< ~2 KB): the driver
    # captures only a tail window of stdout and failed to parse round
    # 4's record when ~95 per-operator walls lived inline. Headline
    # fields stay in the line; per-operator walls go to a sidecar
    # file (path echoed in the line) plus a count/total summary.
    if ops:
        ops_file = os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            f"bench_ops_{os.path.basename(sf_dir.rstrip('/'))}.json",
        )
        with open(ops_file, "w") as fh:
            json.dump(
                {"sf": sf_dir, "num_cpus": ncpu, "ops": ops}, fh, indent=1
            )
        queries["sf_ops_count"] = len(ops)
        queries["sf_ops_total_sec"] = round(sum(ops.values()), 3)
        queries["sf_ops_file"] = ops_file
    print(
        json.dumps(
            {
                "metric": "e2e_sec",
                "value": round(total, 3),
                "unit": "sec",
                "queries": queries,
                "sf": sf_dir,
                "num_cpus": ncpu,
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
