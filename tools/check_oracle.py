"""Driver-mimic: run queries() vs oracle_sql() and compare, floats exact.

Usage: python tools/check_oracle.py [SF_DIR] [query ...]

Runs from any cwd: the repo root is found from this file and exported to
the Ray workers.  Ray starts with the tier-1 suite's arguments
(tests/conftest.py) and is shut down even when a query raises.
"""
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)
# workers inherit the driver's environment at ray.init
os.environ["PYTHONPATH"] = os.pathsep.join(
    [REPO] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)

import duckdb  # noqa: E402
import numpy as np  # noqa: E402
import pandas as pd  # noqa: E402
import ray  # noqa: E402


def norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def to_df(res):
    import pyarrow as pa
    import ray.data as rd

    if isinstance(res, (rd.Dataset, pa.Table)):
        return res.to_pandas()
    return res


def values_equal(a: pd.DataFrame, b: pd.DataFrame) -> bool:
    for c in a.columns:
        av, bv = a[c], b[c]
        # driver hashes raw values: int 132654 vs float 132654.0
        # hash-differ even when numerically equal (q12 bug class)
        if av.dtype.kind != bv.dtype.kind and {av.dtype.kind, bv.dtype.kind} <= {"i", "u", "f"}:
            print(f"  DTYPE-KIND mismatch col={c}: mine={av.dtype} want={bv.dtype}")
            return False
        if av.dtype.kind == "f" or bv.dtype.kind == "f":
            if not np.allclose(av.astype(float), bv.astype(float), rtol=0, atol=0, equal_nan=True):
                return False
        elif not (av.astype(str).values == bv.astype(str).values).all():
            return False
    return True


def check(sf: str, only) -> list:
    import __ray_entry__ as e

    con = duckdb.connect()
    for t in "region nation customer supplier part orders lineitem events documents embeddings".split():
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')")
    qs, sqls = e.queries(), e.oracle_sql()
    fails = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            mine = norm(to_df(fn(sf)))
        except Exception as ex:
            print(f"{name:28s} ENGINE-ERROR {type(ex).__name__}: {str(ex)[:140]}")
            fails.append(name)
            continue
        dt = time.perf_counter() - t0
        if name not in sqls:
            print(f"{name:28s} rows={len(mine):6d} (rows-only) {dt:5.1f}s")
            continue
        try:
            want = norm(con.sql(sqls[name]).df())
        except Exception as ex:
            print(f"{name:28s} SQL-ERROR {ex}")
            fails.append(name)
            continue
        ok_rows = len(mine) == len(want)
        ok_schema = list(mine.columns) == list(want.columns)
        try:
            ok_vals = ok_rows and ok_schema and values_equal(mine, want)
        except Exception:
            ok_vals = False
        if ok_vals:
            print(f"{name:28s} OK rows={len(mine):6d} {dt:5.1f}s")
            continue
        fails.append(name)
        print(f"{name:28s} MISMATCH rows={ok_rows}({len(mine)}/{len(want)}) "
              f"schema={ok_schema} vals={ok_vals} {dt:5.1f}s")
        print("  mine cols:", list(mine.columns), " dtypes:", [str(d) for d in mine.dtypes])
        print("  want cols:", list(want.columns), " dtypes:", [str(d) for d in want.dtypes])
        print("  mine head:", mine.head(2).to_dict("records"))
        print("  want head:", want.head(2).to_dict("records"))
    return fails


def main() -> None:
    import logging

    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = sys.argv[2:] or None
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    try:
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        fails = check(sf, only)
        print("FAILS:", fails if fails else "none")
    finally:
        from terrier_ray.raycompat import quiesce_ray_data_stats

        quiesce_ray_data_stats()
        ray.shutdown()


if __name__ == "__main__":
    main()
