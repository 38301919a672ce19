"""Time the pruned block-max WAND kernel against exact TAAT, query by query.

Usage:
    python tools/wand_probe.py [INDEX] [--seeds 711,1801] [--work DIR]

The queries are ``perfbench/workload.py``'s ``make_queries`` of each
seed over the benchmark's build corpus (``DOCS`` docs in
``PARTITIONS`` partitions, generator seed ``CORPUS_SEED``, preset
``bench``), generated into the work directory. INDEX is a built index
of that corpus; without one, the corpus is built there with the
benchmark's index config. Both steps run ``tools/index_diff.py``'s
scripts with this checkout.

One ``Searcher`` is warmed with a pass of ``search_wand`` and
``search_exact`` over every distinct query of every seed, in order, as
the benchmark warms its searchers. For every distinct query whose
``search_wand`` made a pruned pass during that warm-up (a
``Searcher._interval_postings`` call at a theta above 0), it prints:

- the warm ``search_wand`` and ``search_exact`` medians over
  ``REPEAT`` alternating calls, and their ratio;
- the share of the query terms' postings that the kept intervals hold
  at the pruned pass's theta;
- whether ``search_wand``'s answer is identical to ``search_exact``'s.

After the warm rows, each kernel query is timed cold too: the median
``search_wand`` wall over ``REPEAT`` calls, each made right after
emptying the searcher's four per-term caches with the benchmark's own
``drop_caches`` (as its post-update queries are), and every cold answer
must also be identical to ``search_exact``'s.

Then a summary line. Exits 1 when any answer differs.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO not in sys.path:
    sys.path.insert(0, REPO)

from perfbench.run import drop_caches  # noqa: E402
from tools.index_diff import BUILD, GENERATE, run_in  # noqa: E402

# timed calls of each path per query
REPEAT = 15


def distinct_queries(seeds: list[int], corpus: str) -> list[dict]:
    from perfbench import workload as wl

    out: list[dict] = []
    for seed in seeds:
        out += [q for q in wl.make_queries(seed, corpus) if q not in out]
    return out


def wall_ms(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return 1e3 * (time.perf_counter() - t0)


def probe(s, q: dict) -> dict:
    """One kernel query's medians, kept-postings share and identity."""
    query, k = q["q"], q["k"]
    wand = s.search_wand(query, k)
    qterms = s._query_terms(query)
    theta = s._impact_floor(qterms, k)
    total = sum(r[3].size for r in s._interval_postings(qterms))
    kept = sum(r[3].size for r in s._interval_postings(qterms, theta))
    walls = {"wand": [], "exact": []}
    for _ in range(REPEAT):
        walls["wand"].append(wall_ms(s.search_wand, query, k))
        walls["exact"].append(wall_ms(s.search_exact, query, k))
    wand_ms = float(np.median(walls["wand"]))
    exact_ms = float(np.median(walls["exact"]))
    return {
        "q": query, "k": k,
        "wand_ms": wand_ms, "exact_ms": exact_ms,
        "ratio": wand_ms / exact_ms,
        "kept_frac": kept / total if total else 1.0,
        "identical": wand == s.search_exact(query, k),
    }


def cold(s, row: dict) -> None:
    """Add the query's cold ``search_wand`` median to ``row``, and
    clear its ``identical`` when a cold answer differs."""
    query, k = row["q"], row["k"]
    want = s.search_exact(query, k)
    walls = []
    for _ in range(REPEAT):
        drop_caches(s)
        t0 = time.perf_counter()
        got = s.search_wand(query, k)
        walls.append(1e3 * (time.perf_counter() - t0))
        row["identical"] &= got == want
    row["cold_ms"] = float(np.median(walls))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("index", nargs="?")
    p.add_argument("--seeds", default="711,1801",
                   help="comma-separated query seeds")
    p.add_argument("--work", help="directory for the generated corpus and "
                   "index (a fresh temporary directory by default)")
    args = p.parse_args()
    from sotohp_ray.pipelines.query import Searcher

    work = os.path.abspath(
        args.work or tempfile.mkdtemp(prefix="wand_probe-"))
    os.makedirs(work, exist_ok=True)
    corpus = os.path.join(work, "corpus")
    if not os.path.isdir(corpus):
        run_in(REPO, GENERATE, corpus)
    index = args.index
    if index is None:
        index = os.path.join(work, "index")
        if not os.path.exists(os.path.join(index, "stats.json")):
            run_in(REPO, BUILD, corpus, index, "1")
    seeds = [int(x) for x in args.seeds.split(",")]
    queries = distinct_queries(seeds, corpus)

    s = Searcher(index)
    pruned = []
    inner = s._interval_postings

    def spy(qterms, theta=0.0):
        pruned.append(theta > 0.0)
        return inner(qterms, theta)

    s._interval_postings = spy
    kernel = []
    for q in queries:
        n = len(pruned)
        s.search_wand(q["q"], q["k"])
        if any(pruned[n:]):
            kernel.append(q)
        s.search_exact(q["q"], q["k"])
    del s._interval_postings

    rows = [probe(s, q) for q in kernel]
    for r in rows:
        cold(s, r)
    print(f"index {index}  seeds {seeds}  distinct queries {len(queries)}"
          f"  kernel queries {len(rows)}")
    print(f"{'wand_ms':>8} {'exact_ms':>8} {'ratio':>6} {'kept':>7} "
          f"{'cold_ms':>8} {'same':>5}  k  query")
    for r in rows:
        print(f"{r['wand_ms']:8.3f} {r['exact_ms']:8.3f} {r['ratio']:6.2f} "
              f"{r['kept_frac']:7.2%} {r['cold_ms']:8.3f} "
              f"{'yes' if r['identical'] else 'NO':>5} {r['k']:>3}  {r['q']}")
    bad = [r for r in rows if not r["identical"]]
    if rows:
        ratios = [r["ratio"] for r in rows]
        print(f"kernel/exact ratio: median {np.median(ratios):.2f}  "
              f"min {min(ratios):.2f}  max {max(ratios):.2f}  "
              f"cold median {np.median([r['cold_ms'] for r in rows]):.3f} ms"
              f"  mismatches {len(bad)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
