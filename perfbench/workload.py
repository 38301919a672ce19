"""Seeded inputs, percentile summaries and the correctness gate.

The corpora come from one fixed generator seed; everything else the
engine is asked to do in a run is derived here from the ``--seed``
argument: the distinct queries, the query stream and the update batches.
The engine sees only the generated inputs. Nothing in this module starts
Ray, so the self-tests import it directly.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess

import numpy as np
import pyarrow as pa

# The build and query corpus. WAND's pivot loop runs only for queries
# with more than 65,536 postings whose rarest term is in at most half the
# docs; at 24k docs 5 to 15 of a run's ~100 distinct queries qualify in
# trials, at 20k almost none. Generating, indexing and constructing the
# oracle for the ~100k docs of a paper-scale run would take about 45 s
# of every run on a one-CPU host. 16 partitions, as in that build.
DOCS = 24000
PARTITIONS = 16
# The generator draws the corpus vocabulary from its seed, and with it
# every term's df: across corpus seeds, query and fan-out latency differ
# by up to 1.5x. A fixed corpus keeps that out of the run-to-run spread;
# 42 is the generator's default.
CORPUS_SEED = 42
# The update corpus: a smaller index, so that the oracle over the updated
# corpus stays cheap. A sync's time is mostly per-task Ray overhead of its
# compaction (one task per partition) and merge (one per term shard); 4 of
# each keep a round short.
UPDATE_DOCS = 5000
UPDATE_PARTITIONS = 4
TERM_SHARDS = 16
FANOUT_GROUPS = 4

# A run measures in CYCLES cycles of one build, ROUNDS_PER_CYCLE update
# rounds and QUERIES_PER_CYCLE timed queries; the workload's own
# operation gets --seconds spread over the cycles, and the build workload
# at least FOCUS_BUILDS builds a cycle. Four cycles put at least four
# builds and four syncs in every run, spread over it, within about a
# minute a run.
CYCLES = 4
FOCUS_BUILDS = 2
ROUNDS_PER_CYCLE = 1

# reference query sets drawn per run: more sets make the query mix, and
# so the latency percentiles, depend less on the seed (with two sets,
# 2 to 12 of a run's queries reach WAND's pivot loop, and the p99 follows)
QUERY_SETS = 4
# 1000 timed queries a run at least, so ten lie beyond the p99
QUERIES_PER_CYCLE = 250
EXACT_EVERY = 2
SERVE_QUERIES = 240
KS = (10, 20, 50, 100)

UPDATE_CHANGED = 40
UPDATE_NEW = 10

REL_TOL = 1e-9


def nproc() -> int:
    """CPUs this process may use, as ``nproc`` reports them (it honours
    ``OMP_NUM_THREADS`` and the affinity mask)."""
    try:
        out = subprocess.run(
            ["nproc"], capture_output=True, text=True, timeout=10,
            check=True,
        ).stdout
        return max(1, int(out.strip()))
    except (OSError, subprocess.SubprocessError, ValueError):
        return max(1, len(os.sched_getaffinity(0)))


# ---------------------------------------------------------------- stats


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    if not len(values):
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail_percentile(values, q: float) -> float | None:
    """Percentile ``q``, or None when fewer than ten samples lie beyond
    it: a p99 of 60 samples is the maximum, not a p99."""
    n = len(values)
    if n == 0 or n * (100.0 - q) / 100.0 < 10.0:
        return None
    return percentile(values, q)


def median(values) -> float:
    return percentile(values, 50)


# ------------------------------------------------------------- queries


def _rng(seed: int, *salt) -> np.random.Generator:
    key = hashlib.sha256(repr((seed,) + salt).encode()).digest()
    return np.random.default_rng(int.from_bytes(key[:8], "little"))


def make_queries(seed: int, corpus_dir: str) -> list[dict]:
    """The distinct queries: ``QUERY_SETS`` draws of the engine's
    ``reference_queries`` (hot, mid, df=1 and absent single terms, bags
    of 2-5 terms and adversarial shapes), with its default k of 10 spread
    over ``KS``."""
    from sotohp_ray.sources.corpus import reference_queries

    ref = [q for j in range(QUERY_SETS) for q in reference_queries(
        corpus_dir, (seed * QUERY_SETS + j) % (1 << 31))]
    out = []
    for i, q in enumerate(ref):
        q = {"q": q["q"], "k": KS[i % len(KS)] if q["k"] == 10 else q["k"]}
        if q not in out:
            out.append(q)
    return out


def query_stream(seed: int, n_distinct: int, length: int,
                 *salt) -> list[int]:
    """Indices into the distinct query list, in the order the single
    closed-loop client sends them; ``salt`` names an independent stream."""
    return [int(i) for i in _rng(seed, "stream", *salt).integers(
        0, n_distinct, length)]


def permutation(seed: int, n: int, *salt) -> list[int]:
    """A seeded order of ``range(n)``."""
    return [int(i) for i in _rng(seed, "perm", *salt).permutation(n)]


# ------------------------------------------------------------- updates


def _marker(text: str) -> str:
    """The df=1 ``uniq<p>x<i>tok`` token the generator puts in the last
    line of every document."""
    last = text.rsplit("\n", 1)[-1]
    if not last.startswith("# "):
        raise ValueError("document has no marker line")
    return last[2:]


def doc_keys(table: pa.Table) -> list[str]:
    """Stable document identity, the string the engine's ``doc_uuid``
    is derived from."""
    return [
        f"{r}:{p}@{c}" for r, p, c in zip(
            table["repo"].to_pylist(), table["path"].to_pylist(),
            table["commit"].to_pylist(),
        )
    ]


def make_update_batch(seed: int, rnd: int, table: pa.Table,
                      done: set) -> dict:
    """One update round: ``UPDATE_CHANGED`` never-changed docs get their
    marker replaced by a new df=1 marker (the old version must vanish),
    and ``UPDATE_NEW`` new docs, copies of seeded existing docs under a
    new path with their own marker, are added. Returns the incoming rows,
    the updated corpus table and what must be visible or gone."""
    rng = _rng(seed, "update", rnd)
    keys = doc_keys(table)
    free = [i for i in range(table.num_rows) if keys[i] not in done]
    pick = sorted(int(i) for i in rng.choice(
        len(free), size=UPDATE_CHANGED, replace=False))
    rows = [free[i] for i in pick]
    contents = table["content"].to_pylist()
    changed = []
    for j, r in enumerate(rows):
        old = _marker(contents[r])
        new = f"upd{rnd}x{j}tok"
        contents[r] = contents[r][: -len(old)] + new
        changed.append({"key": keys[r], "old": old, "new": new})
        done.add(keys[r])
    ctype = table.schema.field("content").type
    updated = table.set_column(
        table.schema.get_field_index("content"), "content",
        pa.array(contents, ctype),
    )
    added = {"repo": [], "path": [], "commit": [], "lang": [],
             "content": []}
    for j, r in enumerate(rng.choice(table.num_rows, size=UPDATE_NEW,
                                     replace=False)):
        body = contents[int(r)]
        added["repo"].append("org9999/added")
        added["path"].append(f"src/added/r{rnd:04d}n{j:03d}.py")
        added["commit"].append(
            hashlib.sha1(f"{seed}:{rnd}:{j}".encode()).hexdigest())
        added["lang"].append("py")
        added["content"].append(
            body[: -len(_marker(body))] + f"add{rnd}x{j}tok")
    new_tbl = pa.table(
        {k: pa.array(v, table.schema.field(k).type)
         for k, v in added.items()},
        schema=table.schema,
    )
    new_docs = [
        {"key": k, "new": f"add{rnd}x{j}tok"}
        for j, k in enumerate(doc_keys(new_tbl))
    ]
    for d in new_docs:
        done.add(d["key"])
    return {
        "incoming": pa.concat_tables(
            [updated.take(pa.array(rows, pa.int64())), new_tbl]),
        "table": pa.concat_tables([updated, new_tbl]),
        "changed": changed,
        "new": new_docs,
    }


# ------------------------------------------------------ correctness gate


def topk_matches(got, want, rel: float = REL_TOL) -> bool:
    """Engine top-k equals the oracle's: doc ids identical and in the
    same order, scores within relative ``rel``."""
    if len(got) != len(want):
        return False
    for (gd, gs), (wd, ws) in zip(got, want):
        if int(gd) != int(wd):
            return False
        if not math.isclose(float(gs), float(ws), rel_tol=rel, abs_tol=0.0):
            return False
    return True


def topk_matches_by_identity(got, want_full, k: int,
                              rel: float = REL_TOL) -> bool:
    """Top-k check across two doc-id spaces (an updated index keeps
    sparse, appended ids; the oracle numbers docs densely). ``got`` is
    [(identity, score)] from the engine, ``want_full`` the oracle's whole
    ranking as [(identity, score)]. The score sequences must agree and
    every returned doc must carry its own oracle score, so only the order
    of docs with equal scores may differ."""
    want = want_full[:k]
    if len(got) != len(want) or len({d for d, _ in got}) != len(got):
        return False
    score_of = dict(want_full)
    for (gd, gs), (_, ws) in zip(got, want):
        if gd not in score_of:
            return False
        for ref in (ws, score_of[gd]):
            if not math.isclose(float(gs), float(ref), rel_tol=rel,
                                abs_tol=0.0):
                return False
    return True
