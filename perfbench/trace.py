"""Layer-boundary spans for the traced benchmark run.

Spans are recorded by wrapping the engine's public functions from the
benchmark's own files; no engine file is edited. A span is
``(id, parent, name, start, end, pid, run, count)``: ``count`` carries the
work done at that boundary (tokens, bytes, postings), so ratios are
measured where the work happens.

Ray worker processes install the same wrappers through Ray's
``worker_process_setup_hook`` (``worker_setup`` below). Spans stay in
process memory. A worker appends its buffered spans to
``<trace dir>/spans-<pid>.jsonl`` only when its outermost span closes,
because Ray gives the client process no way to call into a pooled task
worker at the end of a run. The client keeps its spans in memory until
``collect``.

``time.perf_counter`` is CLOCK_MONOTONIC on Linux, shared by every
process on the host, so client and worker spans share one time axis.
The benchmark runs one client, so a worker span that falls inside a
client operation's window belongs to that operation.

Tracing can be switched off while the wrappers stay installed (the
``enabled`` flag in the client, a flag file for the workers); the traced
run uses this to time the same operation with and without spans and
report the overhead.
"""

from __future__ import annotations

import functools
import json
import os
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
RUN_ID_ENV = "PERFBENCH_RUN_ID"
_FLAG = "ENABLED"


class Tracer:
    """Per-process span recorder with a stack of open spans."""

    def __init__(self, trace_dir: str | None, run_id: str, flush: bool):
        self.trace_dir = trace_dir
        self.run_id = run_id
        self.flush_on_close = flush
        self.enabled = True
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.names: list[str] = []
        self._next = 0
        self.pid = os.getpid()

    def is_on(self) -> bool:
        if self.flush_on_close:
            # workers follow the client's switch through the flag file
            return os.path.exists(os.path.join(self.trace_dir, _FLAG))
        return self.enabled

    def set_enabled(self, on: bool) -> None:
        """Client side: switch tracing for this process and the workers."""
        self.enabled = on
        if self.trace_dir:
            flag = os.path.join(self.trace_dir, _FLAG)
            if on:
                open(flag, "w").close()
            elif os.path.exists(flag):
                os.remove(flag)

    def open(self, name: str) -> tuple[int, int]:
        self._next += 1
        sid = self._next
        parent = self.stack[-1] if self.stack else 0
        self.stack.append(sid)
        self.names.append(name)
        return sid, parent

    def close(self, sid, parent, name, t0, t1, count) -> None:
        self.stack.pop()
        self.names.pop()
        self.spans.append(
            (sid, parent, name, t0, t1, self.pid, self.run_id, count))
        if self.flush_on_close and not self.stack:
            path = os.path.join(self.trace_dir, f"spans-{self.pid}.jsonl")
            with open(path, "a") as f:
                for s in self.spans:
                    f.write(json.dumps(s) + "\n")
            self.spans.clear()

    def in_span(self, name: str) -> bool:
        return name in self.names


TRACER: Tracer | None = None


def span(name: str, fn, count=None):
    """Wrap ``fn`` so each call records a span named ``name``.
    ``count(args, kwargs, result)`` gives the span's work count."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr = TRACER
        if tr is None or not tr.is_on():
            return fn(*args, **kwargs)
        sid, parent = tr.open(name)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tr.close(sid, parent, name, t0, time.perf_counter(), None)
            raise
        t1 = time.perf_counter()
        tr.close(sid, parent, name, t0, t1,
                 count(args, kwargs, out) if count else None)
        return out

    wrapper.__perfbench_original__ = fn
    return wrapper


def _patch(owner, attr: str, name: str, count=None) -> None:
    fn = getattr(owner, attr)
    if getattr(fn, "__perfbench_original__", None) is None:
        setattr(owner, attr, span(name, fn, count))


def _file_bytes(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _install_common() -> None:
    """Wrappers for code that runs both in the client and in workers."""
    import pyarrow.parquet as pq

    from sotohp_ray.functions import codec
    from sotohp_ray.functions.tokenizer import CodeTokenizer
    from sotohp_ray.pipelines import build_index as bi
    from sotohp_ray.state import lineage as lin

    # codec: every encode/decode entry point, plus the codec table the
    # block encoder and the partials writer index by name
    for attr in ("varint_encode_with_lengths", "varint_encode",
                 "pfor_encode", "encode_postings_blocks"):
        _patch(codec, attr, f"codec.encode.{attr}")
    for attr in ("varint_decode", "pfor_decode", "decode_one_block"):
        _patch(codec, attr, f"codec.decode.{attr}",
               lambda a, k, out: int(out[0].size if isinstance(out, tuple)
                                     else out.size))
    _patch(codec, "decode_postings", "codec.decode.decode_postings",
           lambda a, k, out: int(out[0].size))
    codec.CODECS.update({
        "varint": (codec.varint_encode, codec.varint_decode),
        "pfor": (codec.pfor_encode, codec.pfor_decode),
    })

    _patch(CodeTokenizer, "term_frequency_codes_positions",
           "tokenizer.tokenize", lambda a, k, out: int(out[4].size))
    _patch(CodeTokenizer, "tokens_of", "tokenizer.analyze")

    _patch(bi.PartitionIndexer, "_index_one", "build_index.index_one")
    _patch(bi, "index_partition_table", "spimi.invert")
    # parquet reads: attributed to a layer by the enclosing span
    _patch(pq, "read_table", "parquet.read_table")
    _patch(pq.ParquetFile, "read_row_groups", "parquet.read_row_groups")

    _patch(lin, "write_record", "lineage.write_record",
           lambda a, k, out: _file_bytes(
               lin._path(a[0], int(a[1]["partition_id"]))))
    _patch(lin, "write_json", "lineage.write_json",
           lambda a, k, out: _file_bytes(a[0]))
    _patch(lin, "atomic_write_table", "lineage.write_table",
           lambda a, k, out: _file_bytes(a[1]))
    _patch(lin, "atomic_write_bucketed", "lineage.write_partials",
           lambda a, k, out: _file_bytes(a[2]))

    from sotohp_ray.pipelines.query import Searcher, _GroupServer

    _patch(Searcher, "__init__", "query.load")
    _patch(Searcher, "search_wand", "query.search_wand")
    _patch(Searcher, "search_exact", "query.search_exact")
    _patch(Searcher, "_query_terms", "query.terms",
           lambda a, k, out: int(sum(
               int(a[0]._dfs[a[0]._row[t]]) for t, _ in out)))
    # count 1 when the term has a postings blob, i.e. can be cached; a
    # decode_postings child span under it is a cache miss
    _patch(Searcher, "_decode_full", "query.decode_full",
           lambda a, k, out: int(a[0]._record(a[1]).get("docs") is None))
    for attr in ("wand_bootstrap", "survivor_contribs", "contribs"):
        _patch(_GroupServer, attr, f"group.{attr}")


def install_client(trace_dir: str, run_id: str) -> Tracer:
    """Install the client process's wrappers. Functions that the engine ships to
    Ray tasks inside closures (``merge_shard``, ``_compact_partition``)
    are wrapped in workers only: wrapping them here would make
    cloudpickle ship the wrapper by value instead of by reference."""
    global TRACER
    TRACER = Tracer(trace_dir, run_id, flush=False)
    _install_common()

    import ray

    from sotohp_ray.pipelines import build_index as bi
    from sotohp_ray.pipelines import delete, update
    from sotohp_ray.pipelines.query import FanoutSearcher

    _patch(bi, "build_index", "build_index")
    _patch(update, "sync_changed_docs", "update.sync")
    _patch(update, "detect_changes", "update.detect")
    _patch(delete, "delete_docs", "delete.tombstone")
    _patch(delete, "compact_index", "delete.compact")
    _patch(FanoutSearcher, "search_wand", "fanout.search_wand")
    # the client's waits on Ray Data executions, which run the workers'
    # layers; the rest of such a wait is orchestration
    import ray.data

    for attr in ("materialize", "to_pandas"):
        _patch(ray.data.Dataset, attr, "raydata.execute")

    # one span per RPC round a fan-out query waits on; other ray.get
    # callers (Ray Data internals) stay unwrapped
    get = ray.get
    traced_get = span("fanout.rpc", get)

    @functools.wraps(get)
    def rpc_get(*args, **kwargs):
        tr = TRACER
        if tr is not None and tr.is_on() and tr.in_span(
            "fanout.search_wand"
        ):
            return traced_get(*args, **kwargs)
        return get(*args, **kwargs)

    ray.get = rpc_get
    TRACER.set_enabled(True)
    return TRACER


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: install the wrappers in a Ray
    worker or actor process when the traced run asked for it."""
    global TRACER
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir:
        return
    TRACER = Tracer(trace_dir, os.environ.get(RUN_ID_ENV, ""), flush=True)
    _install_common()

    from sotohp_ray.pipelines import delete
    from sotohp_ray.pipelines.fulltext import _ShardSearcher
    from sotohp_ray.stages import merge

    _patch(merge, "merge_shard", "merge.shard")
    _patch(delete, "_compact_partition", "delete.compact_partition")
    _patch(_ShardSearcher, "__call__", "serve.batch")


def collect(tracer: Tracer) -> list[dict]:
    """Client spans plus every worker's flushed spans, as dicts."""
    rows = list(tracer.spans)
    if tracer.trace_dir and os.path.isdir(tracer.trace_dir):
        for n in sorted(os.listdir(tracer.trace_dir)):
            if n.startswith("spans-") and n.endswith(".jsonl"):
                with open(os.path.join(tracer.trace_dir, n)) as f:
                    rows.extend(tuple(json.loads(x)) for x in f)
    keys = ("id", "parent", "name", "start", "end", "pid", "run", "count")
    return [dict(zip(keys, r)) for r in rows]


def with_self_times(spans: list[dict]) -> list[dict]:
    """Add ``self``: a span's duration minus its children's durations
    (children are the spans of the same process naming it as parent)."""
    child = {}
    for s in spans:
        if s["parent"]:
            key = (s["pid"], s["parent"])
            child[key] = child.get(key, 0.0) + (s["end"] - s["start"])
    for s in spans:
        s["self"] = (s["end"] - s["start"]) - child.get(
            (s["pid"], s["id"]), 0.0
        )
    return spans


def parent_names(spans: list[dict]) -> dict:
    """(pid, span id) -> span name, to attribute spans by their caller."""
    return {(s["pid"], s["id"]): s["name"] for s in spans}


def dump(spans: list[dict], path: str) -> None:
    """Write the run's spans, one JSON object per line."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        for s in spans:
            f.write(json.dumps(s) + "\n")
