"""Local stand-in for the driver's correctness gate: run every
``queries()[name](sf_dir)`` and its ``oracle_sql()[name]`` via DuckDB with
the sf tables registered as views, compare row count, column names, and an
order-insensitive value hash. Usage:

    python tools/check_contract.py [sf_dir] [name ...]

Pass ``--demoted`` to sweep the demoted registry (variants kept outside
the driver's 50-row window) instead of the main one.
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import pandas as pd

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    """Driver-style canonicalization: sort columns by name, sort rows, and
    compare values EXACTLY (the driver hashes values — float sums that
    differ at ULP level fail it, so no rounding here)."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
        elif str(df[c].dtype) == "uint64":
            pass  # keep exact
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def main() -> int:
    args = [a for a in sys.argv[1:] if a != "--demoted"]
    demoted = "--demoted" in sys.argv[1:]
    sf_dir = args[0] if args else "/root/testdata/sf0.01"
    only = set(args[1:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    # this checkout's registry, wherever it lives
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import __ray_entry__ as entry

    if demoted:
        qs, oracles = entry.demoted_queries(), entry.demoted_oracle_sql()
    else:
        qs, oracles = entry.queries(), entry.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            raw = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL  {name}: ray query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            # rows-only queries may carry binary columns — don't canon them
            print(f"ROWS  {name}: {len(raw)} rows, cols={list(raw.columns)} ({dt:.1f}s)")
            continue
        ours = canon(raw)
        try:
            theirs = canon(con.sql(oracles[name]).df())
        except Exception as e:
            print(f"FAIL  {name}: oracle raised {type(e).__name__}: {e}")
            failures += 1
            continue
        problems = []
        if len(ours) != len(theirs):
            problems.append(f"rowcount {len(ours)} vs {len(theirs)}")
        if list(ours.columns) != list(theirs.columns):
            problems.append(f"cols {list(ours.columns)} vs {list(theirs.columns)}")
        if not problems:
            try:
                pd.testing.assert_frame_equal(
                    ours, theirs, check_dtype=False, check_exact=True
                )
            except AssertionError as e:
                problems.append("values: " + str(e).split("\n")[0])
        if problems:
            print(f"FAIL  {name}: {'; '.join(problems)} ({dt:.1f}s)")
            failures += 1
        else:
            print(f"OK    {name}: {len(ours)} rows ({dt:.1f}s)")
    return failures


if __name__ == "__main__":
    rc = main()
    import ray

    ray.shutdown()
    sys.exit(1 if rc else 0)
