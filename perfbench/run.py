"""Engine benchmark for sotohp_ray: index build, BM25 query and update.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {build,query,update} --seed N \\
        --seconds S --trace {0,1}

Every run makes its inputs from ``--seed`` and a fixed corpus (see
``workload.py``), sizes Ray to ``nproc`` and drives the engine from this
one client process. Every answer is checked against
``sotohp_ray.oracle``. A run has three parts:

1. set-up (``setup_s``): start Ray, generate the corpus (once per
   checkout) and build it once (the warm-up build, whose index the
   queries use), construct the brute-force oracle, and generate and
   index the smaller update corpus with the run's seeded update batch
   and an oracle over its result;
2. query warm-up: one pass of every distinct query through
   ``Searcher.search`` (WAND) and ``Searcher.search_exact``, on two
   ``Searcher``s so both time against the same cache state;
3. ``CYCLES`` measuring cycles, each of
   - build: a fresh ``build_index`` run of the corpus;
   - update: ``ROUNDS_PER_CYCLE`` rounds, each of which restores the
     pristine update index, runs ``sync_changed_docs`` on the batch,
     reopens a ``Searcher`` and runs a burst of half the distinct
     queries, each on a cold cache;
   - query: a slice of the seeded stream from one closed-loop client,
     every query through WAND, every ``EXACT_EVERY``-th through exact.

The workload names the operation that gets the ``--seconds`` budget,
spread evenly over the cycles; the others run a fixed quota per cycle,
so every run reports every end-to-end metric. Interleaving spreads each
operation's samples over the whole run: a shared host's speed can drift
over tens of seconds, and a median over the run follows that less than
one over a block of it. The traced run (``--trace 1``) wraps the engine's
layer functions (``trace.py``), reports per-layer metrics
(``layers.py``) and, after the cycles, times the fan-out once per
distinct query and a serving pass of the stream's head through the Ray
Data ``_ShardSearcher`` stage.

The last stdout line is the JSON result. Lines before it give each
metric with its unit and sample count, and the run's context (nproc, CPU
affinity, an allocation probe, per-step times).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("build", "query", "update")
# Ray's unix sockets live under its temp dir and must stay below the
# 107-byte socket path limit
_RAY_TMP_MAX = 44
# a run that has not finished by then is stopped and fails
_WATCHDOG_S = 170

END_TO_END = {
    "setup_s": "s",
    "build_docs_per_cpu_s": "docs/cpu_s",
    "build_peak_rss_mb": "MB",
    "index_bytes_per_corpus_byte": "ratio",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "exact_p50_ms": "ms",
    "update_sync_cpu_s": "s",
    "update_query_p50_ms": "ms",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ------------------------------------------------------------- context


def _descendants(pid: int) -> list[int]:
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(d))
    out, todo = [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


def reset_peak_rss() -> None:
    """Reset this process's VmHWM to its current RSS, so the next
    ``peak_rss_mb`` excludes the benchmark's own earlier allocations."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    """VmHWM of this client process plus every live Ray worker it started."""
    me = os.getpid()
    pids = [me] + [p for p in _descendants(me) if _is_ray_worker(p)]
    return sum(_status_kb(p, "VmHWM") for p in pids) / 1024.0


def cpu_seconds() -> float:
    """User plus system CPU time of this client process and every process
    it started: Ray's workers and daemons. A process that exits between
    two readings takes its time with it; Ray keeps its workers for the
    whole session."""
    me = os.getpid()
    ticks = 0
    for pid in [me] + _descendants(me):
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def alloc_probe_ms() -> float:
    """Time to allocate and touch 64 MiB: a host-speed reading recorded
    with every run so drifting hosts can be told apart."""
    import numpy as np

    t0 = time.perf_counter()
    a = np.ones(8 << 20, dtype=np.float64)
    a[::512] += 1.0
    return 1e3 * (time.perf_counter() - t0)


# ---------------------------------------------------------------- run


class Run:
    """State of one benchmark run: inputs, engine handles, samples."""

    def __init__(self, args, work: str):
        from perfbench import workload as wl

        self.wl = wl
        self.args = args
        self.work = work
        self.trace = bool(args.trace)
        self.ncpu = wl.nproc()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.ops: list[dict] = []
        self.steps: dict[str, float] = {}
        self._step_t = time.perf_counter()
        self.tracer = None
        self.build_walls: list[float] = []
        self.rounds = 0
        self.qpos = 0

    # -- bookkeeping
    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def step(self, name: str) -> None:
        """Add the time since the previous step to ``name``, as run
        context."""
        now = time.perf_counter()
        self.steps[name] = round(self.steps.get(name, 0.0)
                                 + now - self._step_t, 3)
        self._step_t = now

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def timed(self, kind: str, fn, *a, focus_pair=None, cpu=False):
        """Call ``fn`` as one benchmark operation and record its window,
        with ``cpu`` also the CPU time the run's processes spent in it
        (``cpu_s``). In the traced run ``focus_pair`` alternates tracing
        off and on for the workload's own operation, to measure tracing
        overhead."""
        traced = self.trace
        if self.trace and focus_pair is not None:
            # untraced first, so a slower first operation does not count
            # as tracing overhead
            traced = focus_pair % 2 == 1
            self.tracer.set_enabled(traced)
        c0 = cpu_seconds() if cpu else 0.0
        t0 = time.perf_counter()
        out = fn(*a)
        t1 = time.perf_counter()
        if self.trace and focus_pair is not None and not traced:
            self.tracer.set_enabled(True)
        self.ops.append({"kind": kind, "t0": t0, "t1": t1,
                         "traced": traced,
                         "paired": focus_pair is not None})
        if cpu:
            self.ops[-1]["cpu_s"] = cpu_seconds() - c0
        return out, t1 - t0

    def focus(self, phase: str) -> bool:
        return self.args.workload == phase

    # -- phases
    def start_ray(self) -> None:
        import ray

        from perfbench import trace

        os.environ["PYTHONPATH"] = os.pathsep.join(
            [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(
                os.pathsep) if p])
        kw = {}
        if self.trace:
            tdir = os.path.join(self.work, "trace")
            os.makedirs(tdir)
            run_id = f"{self.args.workload}-{self.args.seed}-{os.getpid()}"
            os.environ[trace.TRACE_DIR_ENV] = tdir
            os.environ[trace.RUN_ID_ENV] = run_id
            kw["runtime_env"] = {
                "worker_process_setup_hook": "perfbench.trace.worker_setup"
            }
            self.tracer = trace.install_client(tdir, run_id)
        ray_tmp = os.path.join(os.path.dirname(self.work), "ray")
        if len(ray_tmp) <= _RAY_TMP_MAX:
            kw["_temp_dir"] = ray_tmp
        self.ray_tmp = kw.get("_temp_dir", "(ray default)")
        t0 = time.perf_counter()
        ray.init(
            num_cpus=self.ncpu, include_dashboard=False,
            logging_level="ERROR", log_to_driver=False,
            object_store_memory=256 << 20, **kw,
        )
        self.ray_init_s = time.perf_counter() - t0
        import logging

        import ray.data

        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)

    def build(self, corpus: str, index: str, n_docs: int,
              focus_pair=None, kind: str = "build",
              shards: int | None = None, cpu: bool = False) -> dict:
        from sotohp_ray.config import IndexConfig
        from sotohp_ray.pipelines import build_index as bi

        config = IndexConfig(num_term_shards=shards or self.wl.TERM_SHARDS)
        shutil.rmtree(index, ignore_errors=True)
        stats, dt = self.timed(
            kind, lambda: bi.build_index(corpus, index, config),
            focus_pair=focus_pair, cpu=cpu)
        self.check(stats.get("merged") and stats["n_docs"] == n_docs,
                   f"build of {corpus}: {stats.get('n_docs')} docs")
        return stats, dt

    def generate(self, name: str, rows: int, partitions: int) -> str:
        """The directory of generated corpus ``name``. A corpus depends
        only on its size, the fixed generator seed and the generator's
        code, so the checkout keeps each one it generated and later runs
        read it from there: generating both corpora takes about 8 s of
        every run otherwise. The first run of a checkout pays for it in
        ``setup_s``."""
        import hashlib

        from sotohp_ray.sources import corpus as gen

        with open(gen.__file__, "rb") as f:
            key = hashlib.sha256(f.read() + repr(
                (rows, partitions, self.wl.CORPUS_SEED)).encode())
        corpus = os.path.join(os.path.dirname(self.work), "corpora",
                              f"{name}-{key.hexdigest()[:16]}")
        if not os.path.isdir(corpus):
            tmp = f"{corpus}.tmp-{os.getpid()}"
            gen.generate_corpus(tmp, preset="bench", rows=rows,
                                partitions=partitions,
                                seed=self.wl.CORPUS_SEED)
            os.rename(tmp, corpus)
        return corpus

    def setup(self) -> None:
        """Generate the corpus and build its index once, as the untimed
        warm-up build; the queries run against this index and the build
        cycles build the corpus afresh."""
        wl = self.wl
        t0 = time.perf_counter()
        self.corpus = self.generate("corpus", wl.DOCS, wl.PARTITIONS)
        self.step("setup.generate")
        # peak RSS is read over this build, before the oracle is held
        reset_peak_rss()
        self.index = os.path.join(self.work, "index")
        # its own kind: the session's first build starts Ray's workers,
        # so the layer metrics leave it out
        self.stats, _ = self.build(self.corpus, self.index, wl.DOCS,
                                   kind="warmup_build")
        self.rss_mb = peak_rss_mb()
        self.setup_s = self.ray_init_s + time.perf_counter() - t0
        self.step("setup.build")

    def setup_oracle(self) -> None:
        """The rest of the set-up: the oracle, the distinct queries and
        the update inputs. ``setup_s`` is Ray start-up plus every set-up
        step, the warm-up build included."""
        from sotohp_ray.oracle import BruteForceBM25

        wl = self.wl
        t0 = time.perf_counter()
        self.oracle = BruteForceBM25(self.corpus)
        self.queries = wl.make_queries(self.args.seed, self.corpus)
        self.step("setup.oracle")
        self.setup_update()
        freeze_heap()
        self.setup_s += time.perf_counter() - t0
        self.step("setup.update")

    def setup_update(self) -> None:
        """The update corpus, its pristine index, the run's seeded batch
        and an oracle over the corpus as the batch leaves it. Every round
        syncs that batch into a fresh copy of the pristine index, so the
        rounds are alike: on one index, each sync adds a partition that
        the next sync has to work through, and sync times climb."""
        import pyarrow as pa
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        from sotohp_ray.functions.hashing import doc_uuid_column
        from sotohp_ray.oracle import BruteForceBM25
        from sotohp_ray.sources.corpus import corpus_files

        wl = self.wl
        corpus = self.generate("upd_corpus", wl.UPDATE_DOCS,
                               wl.UPDATE_PARTITIONS)
        self.upd_base = os.path.join(self.work, "upd_base")
        self.upd_index = os.path.join(self.work, "upd_index")
        self.build(corpus, self.upd_base, wl.UPDATE_DOCS,
                   kind="update_build", shards=wl.UPDATE_PARTITIONS)
        table = pa.concat_tables(
            pq.read_table(f) for f in corpus_files(corpus))
        self.batch = wl.make_update_batch(self.args.seed, 0, table, set())
        table = self.batch["table"]
        odir = os.path.join(self.work, "upd_oracle")
        os.makedirs(odir)
        pq.write_table(table, os.path.join(odir, "part-00000.parquet"))
        self.upd_oracle = BruteForceBM25(odir)
        self._upd_want: dict = {}
        # identities by doc_uuid: the oracle numbers the docs in
        # (repo, path, commit) order
        order = pc.sort_indices(table, sort_keys=[
            ("repo", "ascending"), ("path", "ascending"),
            ("commit", "ascending")])
        self.o_uuid = doc_uuid_column(
            table["repo"].take(order), table["path"].take(order),
            table["commit"].take(order)).to_pylist()
        self.key_uuid = dict(zip(
            wl.doc_keys(table),
            doc_uuid_column(table["repo"], table["path"],
                            table["commit"]).to_pylist()))

    def measure(self) -> None:
        """``CYCLES`` cycles of build, update round and query slice. The
        workload's own operation runs for ``--seconds / CYCLES`` in each
        cycle, at least its quota."""
        share = self.args.seconds / self.wl.CYCLES
        for _ in range(self.wl.CYCLES):
            self.build_slice(share)
            self.update_slice(share)
            self.query_slice(share)

    def build_slice(self, seconds: float) -> None:
        """One fresh build of the corpus; in the build workload
        ``FOCUS_BUILDS`` and more until ``seconds`` have passed."""
        idx = os.path.join(self.work, "build")
        focus = self.focus("build")
        quota = self.wl.FOCUS_BUILDS if focus else 1
        t_end = time.perf_counter() + seconds
        n = 0
        while n < quota or (focus and time.perf_counter() < t_end):
            _, dt = self.build(
                self.corpus, idx, self.wl.DOCS,
                focus_pair=len(self.build_walls) if focus else None,
                cpu=True)
            self.build_walls.append(dt)
            self.add("build_cpu_s", self.ops[-1]["cpu_s"])
            n += 1
        shutil.rmtree(idx, ignore_errors=True)
        self.step("build")

    def want(self, qi: int):
        q = self.queries[qi]
        key = (q["q"], q["k"])
        hit = self._want.get(key)
        if hit is None:
            hit = self._want[key] = self.oracle.search(q["q"], q["k"])
        return hit

    def query_open(self) -> None:
        """Open the WAND and exact searchers and warm them with one
        checked pass of every distinct query."""
        from sotohp_ray.pipelines.query import Searcher

        wl = self.wl
        self._want = {}
        # two searchers warmed by the same pass, so WAND and exact time
        # against the same decoded-postings cache state
        (s_wand, _), (s_exact, _) = (
            self.timed("load", Searcher, self.index) for _ in range(2))
        paths = [("wand", s_wand.search), ("exact", s_exact.search_exact)]
        self.step("query.open")
        # the warm pass also counts the WAND calls that shortcut to exact
        # TAAT: if every answered query did, the stream never times the
        # pivot loop and the run fails
        shortcuts = []
        s_wand.search_exact = lambda q, k: (
            shortcuts.append(q) or Searcher.search_exact(s_wand, q, k))
        self.wand_pivot_queries = 0
        for qi, q in enumerate(self.queries):
            for name, fn in paths:
                n_short = len(shortcuts)
                got = fn(q["q"], q["k"])
                self.check(wl.topk_matches(got, self.want(qi)),
                           f"warm {name} {q}")
                if name == "wand" and got and len(shortcuts) == n_short:
                    self.wand_pivot_queries += 1
        del s_wand.search_exact
        self.check(self.wand_pivot_queries > 0,
                   "every WAND query shortcut to exact TAAT")
        self.step("query.warm")
        self.s_wand, self.s_exact = s_wand, s_exact
        self.stream = wl.query_stream(self.args.seed, len(self.queries),
                                      1 << 17)

    def query_slice(self, seconds: float) -> None:
        """The next ``QUERIES_PER_CYCLE`` queries of the stream; in the
        query workload, queries until ``seconds`` have passed."""
        wl = self.wl
        focus = self.focus("query")
        t_end = time.perf_counter() + seconds
        n = 0
        while n < wl.QUERIES_PER_CYCLE or (
                focus and time.perf_counter() < t_end):
            i = self.qpos
            qi = self.stream[i]
            q, want = self.queries[qi], self.want(qi)
            got, dt = self.timed("wand", self.s_wand.search, q["q"], q["k"],
                                 focus_pair=i if focus else None)
            if self.check(wl.topk_matches(got, want), f"wand {q}"):
                self.add("query_ms", 1e3 * dt)
            if i % wl.EXACT_EVERY == 0:
                got, dt = self.timed("exact", self.s_exact.search_exact,
                                     q["q"], q["k"])
                if self.check(wl.topk_matches(got, want), f"exact {q}"):
                    self.add("exact_ms", 1e3 * dt)
            self.qpos += 1
            n += 1
        self.step("query.timed")

    def actor_paths(self) -> None:
        """The traced run's fan-out and serving passes. Their latencies
        are set mostly by how the host schedules the Ray actors' processes
        (spreads of 0.2-0.8 between untraced runs on a shared one-CPU
        host), so they give layer metrics only. Fan-out latency spans the
        distinct queries' wide range of costs, so every distinct query is
        timed once, in a seeded order, after a checked warm-up pass."""
        import ray

        from sotohp_ray.pipelines.query import FanoutSearcher

        fan = FanoutSearcher(self.index, n_groups=self.wl.FANOUT_GROUPS)
        fan.load_stats()
        for qi, q in enumerate(self.queries):
            self.check(self.wl.topk_matches(fan.search_wand(q["q"], q["k"]),
                                            self.want(qi)),
                       f"warm fanout {q}")
        for qi in self.wl.permutation(self.args.seed, len(self.queries),
                                      "fanout"):
            q = self.queries[qi]
            got, _ = self.timed("fanout", fan.search_wand, q["q"], q["k"])
            self.check(self.wl.topk_matches(got, self.want(qi)),
                       f"fanout {q}")
        self.serve(self.stream[: self.wl.SERVE_QUERIES])
        for a in fan.actors:
            ray.kill(a)
        self.wait_idle()
        self.step("query.actor_paths")

    def wait_idle(self, timeout: float = 60.0) -> None:
        """Block until Ray has every CPU free again: the serving stage's
        actor pool and the fan-out actors release theirs asynchronously,
        and the next phase's tasks would otherwise queue behind them."""
        import gc

        import ray

        # the finished Dataset sits in reference cycles; collecting it
        # shuts its actor pool down
        gc.collect()
        deadline = time.perf_counter() + timeout
        while ray.available_resources().get("CPU", 0) < self.ncpu:
            if time.perf_counter() > deadline:
                raise RuntimeError("Ray CPUs still held after a phase")
            time.sleep(0.05)

    def serve(self, stream) -> None:
        """One pass of the Ray Data serving stage over ``stream``: actor
        start, then batches of WAND top-10 queries, each checked against
        the oracle."""
        import ray.data

        from sotohp_ray.pipelines.fulltext import _ShardSearcher

        qs = [self.queries[qi]["q"] for qi in stream]
        ds = ray.data.from_items(
            [{"query_id": i, "query": q} for i, q in enumerate(qs)])
        out, _ = self.timed("serve", lambda: ds.map_batches(
            _ShardSearcher,
            fn_constructor_kwargs={"index_dir": self.index, "k": 10,
                                   "mode": "serve"},
            batch_format="pyarrow", concurrency=self.ncpu, batch_size=8,
        ).to_pandas())
        hits: dict[int, list] = {}
        for qid, d, sc in zip(out["query_id"], out["doc_id"], out["score"]):
            hits.setdefault(int(qid), []).append((int(d), float(sc)))
        for i, q in enumerate(qs):
            self.check(
                self.wl.topk_matches(hits.get(i, []),
                                     self.oracle.search(q, 10)),
                f"serve {q}")

    def update_slice(self, seconds: float) -> None:
        """``ROUNDS_PER_CYCLE`` update rounds; in the update workload,
        rounds until ``seconds`` have passed."""
        t_end = time.perf_counter() + seconds
        n = 0
        while n < self.wl.ROUNDS_PER_CYCLE or (
                self.focus("update") and time.perf_counter() < t_end):
            self.update_round(self.rounds)
            self.rounds += 1
            n += 1

    def update_round(self, rnd: int) -> None:
        """Restore the pristine update index, sync the run's batch into
        it and reopen a ``Searcher`` until the first changed doc is
        visible; then run every distinct query on a cold cache and check
        that changed and new docs are visible and old versions gone."""
        import pyarrow.parquet as pq

        from sotohp_ray.pipelines import update
        from sotohp_ray.pipelines.query import Searcher

        wl, batch, key_uuid = self.wl, self.batch, self.key_uuid
        shutil.rmtree(self.upd_index, ignore_errors=True)
        shutil.copytree(self.upd_base, self.upd_index)
        t0 = time.perf_counter()
        out, dt = self.timed(
            "sync", update.sync_changed_docs, self.upd_index,
            batch["incoming"],
            focus_pair=rnd if self.focus("update") else None, cpu=True)
        self.ops[-1]["docs"] = len(batch["changed"]) + len(batch["new"])
        self.add("sync_cpu_s", self.ops[-1]["cpu_s"])
        self.check(out["changed"] == len(batch["changed"])
                   and out["new"] == len(batch["new"]),
                   f"sync round {rnd}: {out['changed']}/{out['new']}")
        self.add("sync_s", dt)
        s, _ = self.timed("load", Searcher, self.upd_index)
        first = batch["changed"][0]
        hits = s.search_wand(first["new"], 10)
        visible = time.perf_counter() - t0
        self.step("update.sync")
        dm = pq.read_table(os.path.join(self.upd_index, "docmeta"),
                           columns=["doc_id", "doc_uuid"])
        uuid_of = dict(zip(dm["doc_id"].to_pylist(),
                           dm["doc_uuid"].to_pylist()))
        if self.check([uuid_of[d] for d, _ in hits]
                      == [key_uuid[first["key"]]],
                      f"round {rnd}: changed doc not visible"):
            self.add("visible_s", visible)
        self.wait_idle()
        # half of the distinct queries, the two halves of a seeded order
        # taking turns, each on a cold searcher
        order = wl.permutation(self.args.seed, len(self.queries), "burst")
        half = (len(order) + 1) // 2
        for qi in order[half:] if rnd % 2 else order[:half]:
            drop_caches(s)
            self.burst_query(s, self.queries[qi], uuid_of, rnd)
        for c in batch["changed"]:
            got = [uuid_of[d] for d, _ in s.search_exact(c["new"], 5)]
            self.check(got == [key_uuid[c["key"]]],
                       f"round {rnd}: {c['new']} not visible")
            self.check(s.search_exact(c["old"], 5) == [],
                       f"round {rnd}: {c['old']} still indexed")
        for n in batch["new"]:
            got = [uuid_of[d] for d, _ in s.search_exact(n["new"], 5)]
            self.check(got == [key_uuid[n["key"]]],
                       f"round {rnd}: new doc {n['new']} not visible")
        self.step("update.burst")

    def burst_query(self, s, q, uuid_of, rnd) -> None:
        """One timed post-update query, checked against the oracle over
        the updated corpus by document identity."""
        wl, oracle, o_uuid = self.wl, self.upd_oracle, self.o_uuid
        got, dt = self.timed("burst", s.search_wand, q["q"], q["k"])
        got = [(uuid_of[d], sc) for d, sc in got]
        # the oracle's ranking far enough past k to hold every doc tied
        # with the k-th; the whole ranking only if that is not enough
        for depth in (4 * q["k"], oracle.n_docs):
            key = (q["q"], depth)
            if key not in self._upd_want:
                self._upd_want[key] = [
                    (o_uuid[d], sc) for d, sc in oracle.search(q["q"], depth)]
            full = self._upd_want[key]
            if wl.topk_matches_by_identity(got, full, q["k"]):
                break
        if self.check(wl.topk_matches_by_identity(got, full, q["k"]),
                      f"round {rnd} burst {q}"):
            self.add("update_query_ms", 1e3 * dt)

    # -- results
    def end_to_end(self) -> dict:
        """Every end-to-end metric as ``(value, samples)``. Builds and
        syncs count the CPU time of every process of the run, not wall
        time: they hand work between a dozen processes, and on a shared
        host with one CPU their wall time follows how often the host
        deschedules those processes (up to 1.6x between runs minutes
        apart, against 1.1x for their CPU time)."""
        wl = self.wl
        st = self.stats
        qms = self.samples.get("query_ms", [])
        cpu = self.samples.get("build_cpu_s", [])
        vals = {
            "setup_s": (self.setup_s, 1),
            "build_docs_per_cpu_s": (
                st["n_docs"] / wl.median(cpu) if cpu else None, len(cpu)),
            "build_peak_rss_mb": (self.rss_mb, 1),
            "index_bytes_per_corpus_byte": (
                (st["dictionary_bytes"] + st["docmeta_bytes"])
                / st["corpus_bytes"], 1),
            "query_p50_ms": (wl.median(qms), len(qms)),
            "query_p99_ms": (wl.tail_percentile(qms, 99), len(qms)),
        }
        for name, key in (
            ("exact_p50_ms", "exact_ms"), ("update_sync_cpu_s", "sync_cpu_s"),
            ("update_query_p50_ms", "update_query_ms"),
        ):
            xs = self.samples.get(key, [])
            vals[name] = (wl.median(xs) if xs else None, len(xs))
        return vals

    def wall(self) -> dict:
        """Wall-clock medians of builds and syncs, printed as context."""
        wl = self.wl
        out = {"build_docs_per_s": round(
            self.stats["n_docs"] / wl.median(self.build_walls), 1)}
        for name, key in (("update_sync_s", "sync_s"),
                          ("update_visible_s", "visible_s")):
            xs = self.samples.get(key, [])
            out[name] = round(wl.median(xs), 4) if xs else None
        return out


def freeze_heap() -> None:
    """Move every object alive now, the oracle's among them, out of the
    garbage collector's reach, so the engine's collections during timed
    calls do not traverse the benchmark's own heap."""
    import gc

    gc.collect()
    gc.freeze()


def drop_caches(searcher) -> None:
    """Empty a ``Searcher``'s per-term record and decoded-postings caches,
    so the next query reads and decodes its terms as on a freshly opened
    searcher. Raises if the engine renamed a cache, rather than timing a
    warm searcher by mistake."""
    for name in ("_rec_cache", "_dec_cache", "_pos_cache"):
        getattr(searcher, name).clear()
    if not hasattr(searcher, "_dec_cache_postings"):
        raise AttributeError("Searcher has no _dec_cache_postings")
    searcher._dec_cache_postings = 0


def _live_children() -> list[int]:
    """Descendants still running. Exited direct children are reaped
    here; an exited process is never waited for."""
    live = []
    for pid in _descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/stat") as f:
                state = f.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if state in ("Z", "X"):
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        else:
            live.append(pid)
    return live


def _stop_children(timeout: float = 20.0) -> None:
    """Wait for every process this run started to end; kill stragglers."""
    deadline = time.time() + timeout
    while _live_children() and time.time() < deadline:
        time.sleep(0.2)
    for pid in _live_children():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.time() + 10
    while _live_children() and time.time() < deadline:
        time.sleep(0.2)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "sotohp_ray")):
        print(f"no sotohp_ray package under {ROOT}: run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)

    base = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(base, f"run-{os.getpid()}")
    os.makedirs(work)
    run = Run(args, work)
    context = {
        "nproc": run.ncpu,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }
    import ray

    def _expired(signum, frame):
        raise TimeoutError(f"run still going after {_WATCHDOG_S} s")

    signal.signal(signal.SIGALRM, _expired)
    signal.alarm(_WATCHDOG_S)
    phases = {}
    try:
        steps = [("ray", run.start_ray), ("setup", run.setup),
                 ("oracle", run.setup_oracle), ("warm", run.query_open),
                 ("cycles", run.measure)]
        if run.trace:
            steps.append(("actor_paths", run.actor_paths))
        for name, fn in steps:
            t0 = time.perf_counter()
            fn()
            phases[name] = round(time.perf_counter() - t0, 3)
        context["ray_temp_dir"] = run.ray_tmp
        if run.trace:
            from perfbench import layers, trace

            run.tracer.set_enabled(False)
            ray.shutdown()
            spans = trace.collect(run.tracer)
            trace_file = os.path.join(base, "traces",
                                      f"{run.tracer.run_id}.jsonl")
            trace.dump(spans, trace_file)
            context["trace_file"] = os.path.relpath(trace_file, ROOT)
    finally:
        if ray.is_initialized():
            ray.shutdown()
        _stop_children()
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
        # only this run's Ray session: another run may share the dir
        for d in glob.glob(os.path.join(base, "ray",
                                        f"session_*_{os.getpid()}")):
            shutil.rmtree(d, ignore_errors=True)

    # after the run, so its 64 MiB stay out of the peak RSS
    context["alloc_probe_ms"] = round(alloc_probe_ms(), 3)
    context["wand_pivot_queries"] = getattr(run, "wand_pivot_queries", 0)
    context["samples"] = {k: len(v) for k, v in run.samples.items()}
    context["phase_s"] = phases
    if run.build_walls:
        context["wall"] = run.wall()
    context["steps_s"] = run.steps
    print("context " + json.dumps(context, sort_keys=True))
    for f in run.failures:
        print("FAILED " + f)
    if run.trace:
        focus = {"build": "build", "query": "wand", "update": "sync"}[
            args.workload]
        vals = layers.compute(spans, run.ops, focus, os.getpid())
        metrics = {k: {"value": vals[k], "unit": u}
                   for k, u in layers.UNITS.items()}
        for k, v in metrics.items():
            print(f"{k:40s} {v['value']:.6g} {v['unit']}")
    else:
        vals = run.end_to_end()
        metrics = {}
        for k, u in END_TO_END.items():
            v, n = vals[k]
            if v is None:
                print(f"{k}: no value from {n} samples", file=sys.stderr)
                return 1
            metrics[k] = {"value": v, "unit": u}
            print(f"{k:28s} {v:.6g} {u} (n={n})")
    print(f"ops_failed_frac {run.failed / max(1, run.attempted):.6g} "
          f"({run.failed}/{run.attempted})")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
