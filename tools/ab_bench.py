"""Interleaved A/B of two commits on the benchmark (``perfbench/run.py``).

Usage:
    python tools/ab_bench.py PARENT CHANGE [--pairs 10] \\
        [--workload query] [--seconds 8] [--seed 611] [--work DIR]

PARENT and CHANGE are git refs, exported with ``git archive`` into their
own directories under ``--work`` (a fresh temporary directory by
default), or directories that already hold a checkout. Pair i runs both
checkouts' own ``perfbench/run.py`` on seed ``--seed`` + i, one after the
other, the parent first in even pairs and the change first in odd ones:
a shared host's speed drifts over minutes, and adjacent runs in
alternating order cancel most of it. The first run of each checkout also
generates its corpora, so pair 0's ``setup_s`` is larger on both sides.

Prints one JSON line per pair (every end-to-end metric of both runs,
their failed/attempted operations and the run's allocation probe), then
a table: per metric, each side's q1/median/q3 over the pairs, the pairs
the change won (ties count for neither) and whether the gain claim rule
holds — the change wins at least 9 in 10 pairs and its median is better
than the parent's by more than the parent's interquartile range. Failed
runs and failed operations are reported per side; a pair with a failed
run counts for neither side.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def checkout(ref: str, dest: str) -> str:
    """A directory holding ``ref``: ``ref`` itself when it is one, else
    a ``git archive`` export of the commit into ``dest``."""
    if os.path.isdir(ref):
        return os.path.abspath(ref)
    os.makedirs(dest)
    archive = subprocess.run(
        ["git", "-C", REPO, "archive", "--format=tar", ref],
        check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return dest


def run_one(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its result JSON (the last stdout
    line) plus the run's allocation probe, or an ``error``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: "
                         f"{proc.stderr.strip()[-300:]}"}
    out = json.loads(lines[-1])
    for line in lines:
        if line.startswith("context "):
            out["alloc_probe_ms"] = json.loads(
                line[len("context "):]).get("alloc_probe_ms")
    out["metrics"] = {k: v["value"] for k, v in out["metrics"].items()}
    return out


def quartiles(xs) -> tuple[float, float, float]:
    q1, med, q3 = np.percentile(np.asarray(xs, dtype=np.float64),
                                [25, 50, 75])
    return float(q1), float(med), float(q3)


def summarize(pairs: list[dict], better: dict) -> list[str]:
    """The per-metric table over the pairs where both runs succeeded."""
    ok = [p for p in pairs if all("error" not in p[s] for s in SIDES)]
    lines = [f"{len(ok)}/{len(pairs)} pairs with both runs complete"]
    for s in SIDES:
        runs = [p[s] for p in pairs]
        lines.append(
            f"{s}: failed runs {sum('error' in r for r in runs)}, "
            f"failed ops {sum(r.get('failed', 0) for r in runs)}/"
            f"{sum(r.get('attempted', 0) for r in runs)}")
    if not ok:
        return lines
    lines.append(f"{'metric':28s} {'parent q1/med/q3':>30s} "
                 f"{'change q1/med/q3':>30s} {'wins':>6s} claim")
    for name, direction in better.items():
        a = [p["parent"]["metrics"][name] for p in ok]
        b = [p["change"]["metrics"][name] for p in ok]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        claim = (wins >= 0.9 * len(ok)
                 and sign * (qa[1] - qb[1]) > qa[2] - qa[0])
        lines.append(
            f"{name:28s} {'/'.join(f'{v:.4g}' for v in qa):>30s} "
            f"{'/'.join(f'{v:.4g}' for v in qb):>30s} "
            f"{wins:>3d}/{len(ok):<2d} {'yes' if claim else 'no'}")
    return lines


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", default="query")
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--seed", type=int, default=611)
    ap.add_argument("--work", default=None)
    args = ap.parse_args()

    work = args.work or tempfile.mkdtemp(prefix="ab_bench_")
    trees = {s: checkout(ref, os.path.join(work, s))
             for s, ref in zip(SIDES, (args.parent, args.change))}
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"]
                  for m in json.load(f)["end_to_end"]}
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        rec = {"pair": i, "seed": seed, "first": order[0]}
        for s in order:
            rec[s] = run_one(trees[s], args.workload, seed, args.seconds)
        pairs.append(rec)
        print(json.dumps(rec), flush=True)
    for line in summarize(pairs, better):
        print(line, flush=True)


if __name__ == "__main__":
    main()
