"""Build one corpus with two checkouts and compare the two indexes.

Usage:
    python tools/index_diff.py CHECKOUT_A CHECKOUT_B [CORPUS] \\
        [--work DIR] [--cpus 2]

CHECKOUT_A and CHECKOUT_B are directories that hold a checkout of this
repository (a ``git archive`` export, a clone, or the working tree).
Each build runs ``build_index`` in its own subprocess whose
``PYTHONPATH`` is that checkout, so the Ray workers import that
checkout's engine too, with the benchmark's index config
(``num_term_shards`` = ``perfbench/workload.py``'s ``TERM_SHARDS``).

CORPUS defaults to the benchmark's build corpus (``DOCS`` docs in
``PARTITIONS`` partitions, generator seed ``CORPUS_SEED``, preset
``bench``), generated with checkout A's generator into the work
directory.

The indexes are compared by Arrow table equality, not by file bytes, so
a change of parquet encoding alone reads as equal:

- dictionary: every term-shard table, matched by path;
- docmeta: every partition's table, matched by path;
- stats: the parsed ``stats.json`` dicts.

Prints one verdict line for each and exits 1 when any differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

GENERATE = """
import sys
from perfbench import workload as wl
from sotohp_ray.sources.corpus import generate_corpus
generate_corpus(sys.argv[1], preset="bench", rows=wl.DOCS,
                partitions=wl.PARTITIONS, seed=wl.CORPUS_SEED)
"""

BUILD = """
import logging
import sys
import ray
from perfbench import workload as wl
from sotohp_ray.config import IndexConfig
from sotohp_ray.pipelines.build_index import build_index
ray.init(num_cpus=int(sys.argv[3]), include_dashboard=False,
         logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
logging.getLogger("ray.data").setLevel(logging.ERROR)
build_index(sys.argv[1], sys.argv[2],
            IndexConfig(num_term_shards=wl.TERM_SHARDS))
ray.shutdown()
"""


def run_in(checkout: str, script: str, *args: str) -> None:
    """Run ``script`` with ``checkout``'s engine on ``PYTHONPATH``."""
    env = {**os.environ, "PYTHONPATH": checkout}
    subprocess.run([sys.executable, "-c", script, *args], cwd=checkout,
                   env=env, check=True)


def tables(index: str, sub: str) -> dict:
    """``{relative path: table}`` of the parquet files under
    ``index/sub``."""
    import pyarrow.parquet as pq

    root = os.path.join(index, sub)
    out = {}
    for d, _, names in os.walk(root):
        for name in names:
            if name.endswith(".parquet"):
                path = os.path.join(d, name)
                out[os.path.relpath(path, root)] = pq.read_table(path)
    return dict(sorted(out.items()))


def compare_tables(a: dict, b: dict) -> str:
    if a.keys() != b.keys():
        only = sorted(set(a) ^ set(b))
        return f"DIFFERENT: files present on one side only: {only[:5]}"
    bad = [name for name in a if not a[name].equals(b[name])]
    if bad:
        return f"DIFFERENT: {len(bad)} of {len(a)} tables, first {bad[0]}"
    rows = sum(t.num_rows for t in a.values())
    return f"equal ({len(a)} tables, {rows} rows)"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("checkout_a")
    p.add_argument("checkout_b")
    p.add_argument("corpus", nargs="?")
    p.add_argument("--work", help="directory for the corpus and indexes "
                   "(a fresh temporary directory by default)")
    p.add_argument("--cpus", type=int, default=2,
                   help="CPUs of each build's Ray session")
    args = p.parse_args()
    a, b = (os.path.abspath(c) for c in (args.checkout_a, args.checkout_b))
    work = args.work or tempfile.mkdtemp(prefix="index_diff-")
    os.makedirs(work, exist_ok=True)
    corpus = args.corpus and os.path.abspath(args.corpus)
    if corpus is None:
        corpus = os.path.join(work, "corpus")
        if not os.path.isdir(corpus):
            run_in(a, GENERATE, corpus)
    indexes = []
    for side, checkout in (("a", a), ("b", b)):
        index = os.path.join(work, f"index-{side}")
        if os.path.exists(index):
            import shutil

            shutil.rmtree(index)
        run_in(checkout, BUILD, corpus, index, str(args.cpus))
        indexes.append(index)

    verdicts = {
        sub: compare_tables(*(tables(ix, sub) for ix in indexes))
        for sub in ("dictionary", "docmeta")
    }
    stats = []
    for ix in indexes:
        with open(os.path.join(ix, "stats.json")) as f:
            stats.append(json.load(f))
    diff = sorted(k for k in stats[0].keys() | stats[1].keys()
                  if stats[0].get(k) != stats[1].get(k))
    verdicts["stats"] = (f"DIFFERENT: keys {diff}" if diff
                         else f"equal ({len(stats[0])} keys)")
    print(f"corpus {corpus}")
    for name, verdict in verdicts.items():
        print(f"{name}: {verdict}")
    same = all(v.startswith("equal") for v in verdicts.values())
    print("INDEX EQUAL" if same else "INDEX DIFFERENT")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
