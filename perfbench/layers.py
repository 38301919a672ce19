"""Per-layer metrics from the traced run's spans.

Each benchmark operation is a window ``(kind, t0, t1, traced)`` measured
by the benchmark around one call: a build, a WAND/exact/fan-out query, a
serving pass, an update sync or a post-update query. A layer metric is
computed per operation of the kind that owns the layer and reported as
the median over the traced operations (``mean`` where noted), so it does
not grow with the run length.

Self time is a span's duration minus its same-process children. Client
spans that wait for Ray tasks (``build_index``, ``update.sync``,
``delete.compact`` and the ``raydata.execute`` calls inside them) have
self time that overlaps the worker spans that did the work, so it is
left out of layer sums. What remains of each ``raydata.execute`` once
the worker spans are taken out is orchestration: Ray Data planning,
scheduling, task and actor start, transfers. Coverage is layer self
time plus orchestration over the operation's wall; the rest is client
code of the engine that no layer span names.
"""

from __future__ import annotations

import numpy as np

from perfbench import trace

WAITING = {"build_index", "update.sync", "delete.compact",
           "raydata.execute"}

# name -> unit, in report order; each is documented where computed
UNITS = {
    "sources.read_s": "s",
    "tokenizer.tokenize_s": "s",
    "tokenizer.tokens": "count",
    "tokenizer.analyze_us": "us",
    "spimi.invert_self_s": "s",
    "spimi.partials_bytes": "bytes",
    "codec.encode_s": "s",
    "codec.encode_calls": "count",
    "codec.decode_s": "s",
    "codec.postings_decoded": "count",
    "lineage.write_s": "s",
    "lineage.bytes_written": "bytes",
    "lineage.bytes_written_per_changed_doc": "bytes",
    "merge.read_s": "s",
    "merge.shard_s": "s",
    "merge.shard_s_max_over_median": "ratio",
    "build_index.orchestration_s": "s",
    "update.orchestration_s": "s",
    "query.load_s": "s",
    "query.score_self_ms": "ms",
    "query.postings_per_query": "count",
    "query.wand_shortcut_frac": "ratio",
    "query.decode_cache_hit_rate": "ratio",
    "fanout.rpc_rounds_per_query": "count",
    "fanout.overhead_ms": "ms",
    "serve.actor_start_s": "s",
    "update.detect_s": "s",
    "delete.tombstone_s": "s",
    "update.index_increment_s": "s",
    "delete.compact_s": "s",
    "trace.build_coverage": "ratio",
    "trace.query_coverage": "ratio",
    "trace.update_coverage": "ratio",
    "trace.overhead_frac": "ratio",
}


def _med(xs) -> float:
    return float(np.median(xs)) if len(xs) else 0.0


def _sum(spans, key="self", pred=lambda s: True) -> float:
    return float(sum(s[key] for s in spans if pred(s)))


def _dur(s) -> float:
    return s["end"] - s["start"]


def _is(prefix):
    return lambda s: s["name"].startswith(prefix)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``,
    sorted by start."""
    total, end = 0.0, lo
    for a, b in intervals:
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _orchestration(w, client_pid: int) -> float:
    """Client time inside ``raydata.execute`` spans that no worker span
    covers."""
    workers = sorted((s["start"], s["end"]) for s in w
                     if s["pid"] != client_pid)
    return float(sum(s["self"] - _covered(workers, s["start"], s["end"])
                     for s in w if s["name"] == "raydata.execute"))


def _layers(w) -> float:
    return _sum(w, pred=lambda s: s["name"] not in WAITING)


def compute(spans: list[dict], ops: list[dict], focus: str,
            client_pid: int) -> dict:
    """All per-layer metrics from ``spans`` (see ``trace.collect``) and
    the benchmark's operation windows ``ops``; ``focus`` is the operation
    kind the workload times, used for tracing overhead."""
    trace.with_self_times(spans)
    pname = trace.parent_names(spans)
    for s in spans:
        s["parent_name"] = pname.get((s["pid"], s["parent"]))
        s["dur"] = _dur(s)
    spans.sort(key=lambda s: s["start"])
    starts = np.array([s["start"] for s in spans])

    def win(op):
        lo = int(np.searchsorted(starts, op["t0"], side="left"))
        hi = int(np.searchsorted(starts, op["t1"], side="right"))
        return [s for s in spans[lo:hi] if s["end"] <= op["t1"]]

    traced = [o for o in ops if o["traced"]]
    by_kind: dict[str, list] = {}
    for o in traced:
        by_kind.setdefault(o["kind"], []).append((o, win(o)))
    m: dict[str, float] = {}

    # ---- build: per traced build_index call
    builds = by_kind.get("build", [])
    per = {k: [] for k in (
        "read", "tok", "tokens", "inv", "pbytes", "enc", "encn", "lw",
        "lb", "mread", "mshard", "skew", "orch")}
    for o, w in builds:
        per["read"].append(_sum(w, "dur", lambda s: s["name"] ==
                                "parquet.read_table" and s["parent_name"]
                                == "build_index.index_one"))
        per["tok"].append(_sum(w, pred=_is("tokenizer.tokenize")))
        per["tokens"].append(_sum(w, "count", _is("tokenizer.tokenize")))
        per["inv"].append(_sum(w, pred=_is("spimi.invert")))
        per["pbytes"].append(_sum(w, "count", _is("lineage.write_partials")))
        per["enc"].append(_sum(w, pred=_is("codec.encode")))
        per["encn"].append(float(sum(
            1 for s in w if s["name"].startswith("codec.encode")
            and not (s["parent_name"] or "").startswith("codec."))))
        per["lw"].append(_sum(w, pred=_is("lineage.")))
        per["lb"].append(_sum(w, "count", _is("lineage.")))
        per["mread"].append(_sum(w, "dur", _is("parquet.read_row_groups")))
        shard = [s["dur"] for s in w if s["name"] == "merge.shard"]
        per["mshard"].append(float(sum(shard)))
        per["skew"].append(max(shard) / _med(shard) if shard else 1.0)
        per["orch"].append(_orchestration(w, client_pid))
    for key, name in (
        ("read", "sources.read_s"), ("tok", "tokenizer.tokenize_s"),
        ("tokens", "tokenizer.tokens"), ("inv", "spimi.invert_self_s"),
        ("pbytes", "spimi.partials_bytes"), ("enc", "codec.encode_s"),
        ("encn", "codec.encode_calls"), ("lw", "lineage.write_s"),
        ("lb", "lineage.bytes_written"), ("mread", "merge.read_s"),
        ("mshard", "merge.shard_s"),
        ("skew", "merge.shard_s_max_over_median"),
        ("orch", "build_index.orchestration_s"),
    ):
        m[name] = _med(per[key])

    # ---- queries in the client: WAND, exact and post-update WAND
    wand = by_kind.get("wand", []) + by_kind.get("burst", [])
    queries = wand + by_kind.get("exact", [])
    m["tokenizer.analyze_us"] = 1e6 * _med(
        [_sum(w, "dur", _is("tokenizer.analyze")) for _, w in wand])
    m["query.score_self_ms"] = 1e3 * _med(
        [_sum(w, pred=_is("query.")) for _, w in wand])
    m["query.postings_per_query"] = _med(
        [_sum(w, "count", lambda s: s["name"] == "query.terms")
         for _, w in wand])
    # mean, not median: after warm-up most queries decode nothing, and
    # the decodes that remain are what moves the tail
    n_q = max(1, len(queries))
    m["codec.decode_s"] = sum(
        _sum(w, pred=_is("codec.decode")) for _, w in queries) / n_q
    m["codec.postings_decoded"] = sum(
        _sum(w, "count", lambda s: s["name"].startswith("codec.decode")
             and not (s["parent_name"] or "").startswith("codec."))
        for _, w in queries) / n_q
    top_wand = [s for _, w in wand for s in w
                if s["name"] == "query.search_wand" and not s["parent"]]
    shortcut = {(s["pid"], s["parent"]) for _, w in wand for s in w
                if s["name"] == "query.search_exact"
                and s["parent_name"] == "query.search_wand"}
    m["query.wand_shortcut_frac"] = (
        sum(1 for s in top_wand if (s["pid"], s["id"]) in shortcut)
        / max(1, len(top_wand)))
    cacheable = sum(_sum(w, "count", lambda s: s["name"] ==
                         "query.decode_full") for _, w in queries)
    misses = sum(1 for _, w in queries for s in w
                 if s["name"] == "codec.decode.decode_postings"
                 and s["parent_name"] == "query.decode_full")
    m["query.decode_cache_hit_rate"] = (
        1.0 - misses / cacheable if cacheable else 1.0)
    m["query.load_s"] = _med([s["dur"] for s in spans
                              if s["name"] == "query.load"
                              and s["pid"] == client_pid])

    # ---- fan-out: RPC rounds and time outside the group servers
    fan = by_kind.get("fanout", [])
    m["fanout.rpc_rounds_per_query"] = (
        sum(sum(1 for s in w if s["name"] == "fanout.rpc") for _, w in fan)
        / max(1, len(fan)))
    m["fanout.overhead_ms"] = 1e3 * _med([
        (o["t1"] - o["t0"]) - _sum(w, "dur", lambda s: s["name"]
                                   .startswith("group.") and not s["parent"])
        for o, w in fan])

    # ---- serving stage: pass start until the first batch runs
    serve = by_kind.get("serve", [])
    m["serve.actor_start_s"] = _med([
        min((s["start"] for s in w if s["name"] == "serve.batch"),
            default=o["t1"]) - o["t0"] for o, w in serve])

    # ---- update syncs
    syncs = by_kind.get("sync", [])
    m["update.detect_s"] = _med([_sum(w, "dur", _is("update.detect"))
                                 for _, w in syncs])
    m["delete.tombstone_s"] = _med([_sum(w, "dur", _is("delete.tombstone"))
                                    for _, w in syncs])
    m["update.index_increment_s"] = _med([
        _sum(w, "dur", lambda s: s["name"] == "build_index.index_one"
             and s["parent_name"] == "update.sync") for _, w in syncs])
    m["delete.compact_s"] = _med([
        _sum(w, "dur", lambda s: s["name"] == "delete.compact")
        for _, w in syncs])
    m["lineage.bytes_written_per_changed_doc"] = _med([
        _sum(w, "count", _is("lineage.")) / max(1, o["docs"])
        for o, w in syncs])
    m["update.orchestration_s"] = _med([_orchestration(w, client_pid)
                                        for _, w in syncs])

    # ---- coverage of each operation kind; tracing overhead of the
    # workload's own operation
    for kind, name in (("build", "build"), ("wand", "query"),
                       ("sync", "update")):
        m[f"trace.{name}_coverage"] = _med([
            (_layers(w) + _orchestration(w, client_pid))
            / (o["t1"] - o["t0"]) for o, w in by_kind.get(kind, [])])
    on = [o["t1"] - o["t0"] for o in ops if o["kind"] == focus
          and o["traced"] and o.get("paired")]
    off = [o["t1"] - o["t0"] for o in ops if o["kind"] == focus
           and not o["traced"]]
    m["trace.overhead_frac"] = (
        _med(on) / _med(off) - 1.0 if on and off else 0.0)
    return m

