"""Build one corpus with two checkouts and compare the two indexes.

Usage:
    python tools/index_diff.py CHECKOUT_A CHECKOUT_B [CORPUS] \\
        [--work DIR] [--cpus 2] [--sync SEED]

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

With ``--sync SEED`` each side instead builds the benchmark's update
corpus (``UPDATE_DOCS`` docs in ``UPDATE_PARTITIONS`` partitions, as
many term shards) and then applies the update batch
``make_update_batch(SEED, 0, ...)`` through ``sync_changed_docs``, whose
default compaction rewrites the partitions that held an old version;
the indexes are compared after that sync. CORPUS, when given, replaces
the update corpus.

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

# argv[2] is the prefix of the workload constants: "" for the build
# corpus, "UPDATE_" for the update corpus
GENERATE = """
import sys
from perfbench import workload as wl
from sotohp_ray.sources.corpus import generate_corpus
pre = sys.argv[2]
generate_corpus(sys.argv[1], preset="bench", rows=getattr(wl, pre + "DOCS"),
                partitions=getattr(wl, pre + "PARTITIONS"),
                seed=wl.CORPUS_SEED)
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

SYNC = """
import logging
import sys
import pyarrow as pa
import pyarrow.parquet as pq
import ray
from perfbench import workload as wl
from sotohp_ray.config import IndexConfig
from sotohp_ray.pipelines.build_index import build_index
from sotohp_ray.pipelines.update import sync_changed_docs
from sotohp_ray.sources.corpus import corpus_files
ray.init(num_cpus=int(sys.argv[3]), include_dashboard=False,
         logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
logging.getLogger("ray.data").setLevel(logging.ERROR)
build_index(sys.argv[1], sys.argv[2],
            IndexConfig(num_term_shards=wl.UPDATE_PARTITIONS))
table = pa.concat_tables(pq.read_table(f) for f in corpus_files(sys.argv[1]))
batch = wl.make_update_batch(int(sys.argv[4]), 0, table, set())
out = sync_changed_docs(sys.argv[2], batch["incoming"])
print(f"sync: {out['changed']} changed, {out['new']} new, "
      f"{out['tombstoned']} tombstoned")
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
    p.add_argument("--sync", type=int, metavar="SEED",
                   help="compare the update corpus's indexes after the "
                   "seeded update batch is synced into them")
    args = p.parse_args()
    sync = args.sync is not None
    a, b = (os.path.abspath(c) for c in (args.checkout_a, args.checkout_b))
    work = args.work or tempfile.mkdtemp(prefix="index_diff-")
    os.makedirs(work, exist_ok=True)
    corpus = args.corpus and os.path.abspath(args.corpus)
    if corpus is None:
        corpus = os.path.join(work, "upd_corpus" if sync else "corpus")
        if not os.path.isdir(corpus):
            run_in(a, GENERATE, corpus, "UPDATE_" if sync else "")
    indexes = []
    for side, checkout in (("a", a), ("b", b)):
        index = os.path.join(work, f"index-{side}")
        if os.path.exists(index):
            import shutil

            shutil.rmtree(index)
        if sync:
            run_in(checkout, SYNC, corpus, index, str(args.cpus),
                   str(args.sync))
        else:
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
