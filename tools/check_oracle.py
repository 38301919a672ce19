"""Local simulation of the driver's correctness gate: run every
queries() entry and its oracle_sql() side-by-side over one sf dir,
compare row count, column names, and order-insensitive values. Each
line carries the op's wall time (the engine side only, not the oracle).

Usage: PYTHONPATH=. python tools/check_oracle.py SF_DIR [--only REGEX]
       [--dump DIR]

``--only REGEX`` runs just the entries whose name matches REGEX
(``re.search``), e.g. ``--only '^q1[38]_|asof'``.

``--dump DIR`` also writes each entry's output to ``DIR/<name>.parquet``
with its rows in a canonical order (sorted on all columns, object
columns by their text), so two checkouts' outputs compare with
``diff -r DIR_A DIR_B``: same bytes, same output.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time

import numpy as np
import pandas as pd


TABLES = (
    "region nation customer supplier part orders lineitem events "
    "documents embeddings"
).split()


def to_pandas(x):
    import pyarrow as pa

    if isinstance(x, pd.DataFrame):
        return x
    if isinstance(x, pa.Table):
        return x.to_pandas()
    return x.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def dump(path: str, df: pd.DataFrame) -> None:
    """Write ``df`` to parquet, its columns and dtypes kept and its rows
    sorted on all columns (object columns by their text)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    key = df.reset_index(drop=True)
    key = key.assign(**{
        c: key[c].astype(str) for c in key.columns if key[c].dtype == object
    })
    order = key.sort_values(list(key.columns)).index if len(df.columns) else []
    out = df.reset_index(drop=True).iloc[list(order)].reset_index(drop=True)
    pq.write_table(pa.Table.from_pandas(out, preserve_index=False), path)


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> list[str]:
    errs = []
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        errs.append(f"columns: ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}")
        return errs
    if len(ray_df) != len(sql_df):
        errs.append(f"rows: ray={len(ray_df)} sql={len(sql_df)}")
    a, b = canon(ray_df), canon(sql_df)
    if len(a) == len(b):
        for c in a.columns:
            av, bv = a[c].values, b[c].values
            if np.issubdtype(np.asarray(av).dtype, np.floating):
                eq = np.allclose(
                    av.astype(float), bv.astype(float), rtol=0, atol=1e-9,
                    equal_nan=True,
                )
            else:
                eq = (pd.Series(av).fillna("<NA>") == pd.Series(bv).fillna("<NA>")).all()
            if not eq:
                mism = (pd.Series(av).fillna("<NA>") != pd.Series(bv).fillna("<NA>"))
                i = int(np.argmax(mism.values))
                errs.append(
                    f"col {c}: first mismatch at sorted-row {i}: ray={av[i]!r} sql={bv[i]!r}"
                )
    return errs


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("sf_dir", help="directory of the sf parquet tables")
    ap.add_argument("--only", default=None, metavar="REGEX",
                    help="run only the entries whose name matches")
    ap.add_argument("--dump", default=None, metavar="DIR",
                    help="write each entry's output to DIR/<name>.parquet")
    args = ap.parse_args()
    sf_dir = args.sf_dir
    import duckdb
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=8, include_dashboard=False,
            logging_level="ERROR",
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e

    con = duckdb.connect()
    for t in TABLES:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'"
        )

    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
    qs, oracles = e.queries(), e.oracle_sql()
    n_fail = 0
    for name, fn in qs.items():
        if args.only and not re.search(args.only, name):
            continue
        t0 = time.perf_counter()
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as ex:
            print(f"FAIL {name}: query raised {type(ex).__name__}: {ex}")
            n_fail += 1
            continue
        wall = f"[{time.perf_counter() - t0:.3f}s]"
        if args.dump:
            try:
                dump(os.path.join(args.dump, f"{name}.parquet"), ray_df)
            except Exception as ex:
                print(f"FAIL {name}: dump raised {type(ex).__name__}: {ex}")
                n_fail += 1
        if name not in oracles:
            print(f"ok   {name}: rows-only ({len(ray_df)} rows) {wall}")
            continue
        try:
            sql_df = con.sql(oracles[name]).df()
        except Exception as ex:
            print(f"FAIL {name}: oracle raised {type(ex).__name__}: {ex}")
            n_fail += 1
            continue
        errs = compare(name, ray_df, sql_df)
        if errs:
            n_fail += 1
            print(f"FAIL {name}: " + "; ".join(errs) + f" {wall}")
        else:
            print(f"OK   {name}: {len(ray_df)} rows match oracle {wall}")
    print(f"\n{'ALL OK' if n_fail == 0 else f'{n_fail} FAILURES'}")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()
