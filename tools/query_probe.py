"""Time two checkouts' ``Searcher`` on one index, and compare every answer.

Usage:
    python tools/query_probe.py PARENT CHANGE [--seeds 711,1801,3001] \\
        [--passes 6] [--work DIR]

PARENT and CHANGE are git refs, exported with ``git archive`` into their
own directories under the work directory, or directories that already
hold a checkout. The benchmark's build corpus (``DOCS`` docs in
``PARTITIONS`` partitions, generator seed ``CORPUS_SEED``, preset
``bench``) is generated and indexed once, with CHANGE's engine and the
benchmark's index config, through ``tools/index_diff.py``'s scripts; a
work directory that already holds both is reused. Both checkouts'
``Searcher`` then load that one index in this process, each from its
own copy of the ``sotohp_ray`` package.

The queries are ``perfbench/workload.py``'s ``make_queries`` of each
seed, distinct over the seeds. Each side opens two searchers: a warm
one, warmed with a pass of ``search_wand`` and ``search_exact`` over
every query as the benchmark warms its searchers, and a cold one, whose
caches are emptied with the benchmark's own ``drop_caches`` before each
call (as its post-update queries run). Each of ``--passes`` passes times
every query on both sides, the side that goes first alternating between
passes: warm ``search_wand``, warm ``search_exact``, cold
``search_wand``.

Prints, per number of query terms present in the index, the median
wall of each timing on each side and the change/parent ratio; then the
dense rows the change's warm searcher holds in its decode cache (count
and bytes). Every answer of the change is compared with the parent's,
warm and cold, bit for bit; exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import tempfile
import time
from collections import defaultdict

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO not in sys.path:
    sys.path.insert(0, REPO)

from perfbench.run import drop_caches  # noqa: E402
from tools.ab_bench import SIDES, checkout  # noqa: E402
from tools.index_diff import BUILD, GENERATE, run_in  # noqa: E402
from tools.wand_probe import distinct_queries  # noqa: E402

TIMINGS = ("wand", "exact", "cold")


def open_searchers(tree: str, index: str) -> tuple:
    """(warm, cold) ``Searcher``s of ``index`` from the ``sotohp_ray``
    package in ``tree``. The package is imported afresh, and the
    searchers are opened while it is the imported one: the engine's
    lazy imports resolve by module name."""
    for name in [m for m in sys.modules
                 if m == "sotohp_ray" or m.startswith("sotohp_ray.")]:
        del sys.modules[name]
    sys.path.insert(0, tree)
    try:
        mod = importlib.import_module("sotohp_ray.pipelines.query")
        if not mod.__file__.startswith(tree + os.sep):
            raise RuntimeError(f"sotohp_ray did not load from {tree}")
        return mod.Searcher(index), mod.Searcher(index)
    finally:
        sys.path.remove(tree)


def wall_ms(fn, *args):
    t0 = time.perf_counter()
    got = fn(*args)
    return 1e3 * (time.perf_counter() - t0), got


def one_pass(warm, cold, queries) -> tuple[dict, dict]:
    """({timing: [ms per query]}, {timing: [answer per query]})."""
    walls = {t: [] for t in TIMINGS}
    answers = {t: [] for t in TIMINGS}
    for q in queries:
        for name, fn in (("wand", warm.search_wand),
                         ("exact", warm.search_exact)):
            ms, got = wall_ms(fn, q["q"], q["k"])
            walls[name].append(ms)
            answers[name].append(got)
    for q in queries:
        drop_caches(cold)
        ms, got = wall_ms(cold.search_wand, q["q"], q["k"])
        walls["cold"].append(ms)
        answers["cold"].append(got)
    return walls, answers


def dense_rows(s) -> tuple[int, int]:
    """(count, bytes) of the dense rows in ``s``'s decode cache."""
    rows = [e[4] for e in s._dec_cache.values()
            if len(e) > 4 and e[4] is not None]
    return len(rows), sum(r.nbytes for r in rows)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--seeds", default="711,1801,3001",
                   help="comma-separated query seeds")
    p.add_argument("--passes", type=int, default=6)
    p.add_argument("--work", help="directory for the checkouts, corpus and "
                   "index (a fresh temporary directory by default)")
    args = p.parse_args()
    work = os.path.abspath(
        args.work or tempfile.mkdtemp(prefix="query_probe-"))
    os.makedirs(work, exist_ok=True)
    trees = {
        side: (os.path.abspath(ref) if os.path.isdir(ref)
               else os.path.join(work, side))
        for side, ref in zip(SIDES, (args.parent, args.change))
    }
    for side, ref in zip(SIDES, (args.parent, args.change)):
        if not os.path.isdir(trees[side]):
            checkout(ref, trees[side])
    corpus = os.path.join(work, "corpus")
    if not os.path.isdir(corpus):
        run_in(trees["change"], GENERATE, corpus, "")
    index = os.path.join(work, "index")
    if not os.path.exists(os.path.join(index, "stats.json")):
        run_in(trees["change"], BUILD, corpus, index, "1")
    seeds = [int(x) for x in args.seeds.split(",")]

    searchers = {side: open_searchers(trees[side], index) for side in SIDES}
    queries = distinct_queries(seeds, corpus)
    nterms = [len(searchers["change"][0]._query_terms(q["q"]))
              for q in queries]
    for warm, _ in searchers.values():
        for q in queries:
            warm.search_wand(q["q"], q["k"])
            warm.search_exact(q["q"], q["k"])

    # walls[side][timing][query] -> [ms per pass]
    walls = {side: {t: defaultdict(list) for t in TIMINGS} for side in SIDES}
    mismatches = defaultdict(int)
    for i in range(args.passes):
        got = {}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            w, got[side] = one_pass(*searchers[side], queries)
            for t in TIMINGS:
                for j, ms in enumerate(w[t]):
                    walls[side][t][j].append(ms)
        for t in TIMINGS:
            mismatches[t] += sum(
                a != b for a, b in zip(got["parent"][t], got["change"][t]))

    print(f"index {index}  seeds {seeds}  distinct queries {len(queries)}  "
          f"passes {args.passes}")
    head = "  ".join(f"{t + '_' + s[0]:>8}" for t in TIMINGS for s in SIDES)
    ratios = "  ".join(f"{t + '_x':>7}" for t in TIMINGS)
    print(f"{'terms':>5} {'n':>4}  {head}  {ratios}")
    groups = sorted(set(nterms)) + ["all"]
    for g in groups:
        js = [j for j, n in enumerate(nterms) if g == "all" or n == g]
        med = {(side, t): float(np.median(
                   [ms for j in js for ms in walls[side][t][j]]))
               for side in SIDES for t in TIMINGS}
        cells = "  ".join(f"{med[side, t]:8.3f}"
                          for t in TIMINGS for side in SIDES)
        x = "  ".join(f"{med['change', t] / med['parent', t]:7.2f}"
                      for t in TIMINGS)
        print(f"{g:>5} {len(js):>4}  {cells}  {x}")
    n, nbytes = dense_rows(searchers["change"][0])
    print(f"dense rows in the change's warm searcher: {n}, "
          f"{nbytes / 2**20:.2f} MiB")
    bad = sum(mismatches.values())
    print("answer mismatches: " + "  ".join(
        f"{t} {mismatches[t]}" for t in TIMINGS)
        + f"  (of {len(queries) * args.passes} each)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
