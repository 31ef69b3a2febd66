"""Operator mini-runner: per-operator micro-latencies over argument sweeps.

The reference trains its self-driving models from exactly this artifact —
generated argument sweeps over scans/joins/aggs/sorts reporting µs per
operating unit (/root/reference/benchmark/runner/execution_runners.cpp:288,
700,1296-1907; util/runner/execution_runners_argument_generator.cpp).  This
is the Ray Data analog: each relational operator timed over synthesized
Arrow tables at several row counts / key cardinalities, reporting wall time
and ns/row.  Output: one JSON line (list of records) — append-friendly for a
cost model.

Usage: python tools/microbench.py [--rows 100000,1000000] [--repeat 3]
(This is a CLI entry point; it owns its Ray session.)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# make the package importable in this process AND in Ray workers (which
# inherit the env, not the driver's sys.path)
_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO)
os.environ["PYTHONPATH"] = _REPO + os.pathsep + os.environ.get("PYTHONPATH", "")


def make_table(n: int, n_keys: int, seed: int = 7) -> pa.Table:
    rng = np.random.default_rng(seed)
    return pa.table(
        {
            "k": rng.integers(0, n_keys, n),
            "k2": rng.integers(0, 97, n),
            "v": rng.random(n),
            "w": rng.integers(-1000, 1000, n).astype(np.int64),
            "s": pa.array(
                np.char.add("id_", rng.integers(0, n_keys, n).astype(str))
            ),
        }
    )


def timed(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--rows", default="100000,1000000")
    ap.add_argument("--keys", default="100,10000")
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    import logging

    import ray.data as rd
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from terrier_ray.ops.orderagg import grouped_quantiles
    from terrier_ray.ops.relational import (
        grouped_topk,
        broadcast_join,
        distinct,
        filter_batches,
        grouped_aggregate,
        partitioned_join,
        topk,
        with_columns,
    )
    from terrier_ray.ops.rangejoin import range_join
    from terrier_ray.ops.sample import bernoulli_sample
    from terrier_ray.ops.sketch import approx_percentile
    from terrier_ray.ops.window import windowed

    # 32 overlapping intervals over the v∈[0,1) domain
    _lo = np.linspace(0.0, 0.9, 32)
    _intervals32 = pa.table(
        {"ivl": np.arange(32, dtype=np.int64), "lo": _lo, "hi": _lo + 0.1}
    )

    rows = [int(x) for x in args.rows.split(",")]
    keyset = [int(x) for x in args.keys.split(",")]
    out: list[dict] = []

    def record(op: str, n: int, extra: dict, secs: float) -> None:
        out.append(
            {
                "op": op,
                "rows": n,
                **extra,
                "sec": round(secs, 4),
                "ns_per_row": round(secs / n * 1e9, 1),
            }
        )

    for n in rows:
        for n_keys in keyset:
            t = make_table(n, n_keys)
            ds0 = rd.from_arrow(t)
            small = pa.table(
                {
                    "k": np.arange(n_keys),
                    "label": np.char.add("L", np.arange(n_keys).astype(str)),
                }
            )

            cases = {
                "filter": lambda: filter_batches(
                    ds0, lambda b: pc.greater(b.column("v"), 0.5)
                ).count(),
                # materialize(): count() can answer from input metadata for
                # row-preserving ops without executing them
                "project": lambda: with_columns(
                    ds0, {"x": lambda b: pc.multiply(b.column("v"), 2.0)}
                ).materialize(),
                "grouped_agg_sum": lambda: grouped_aggregate(
                    ds0, ["k"], [("sum", "w", "sw")]
                ).count(),
                "broadcast_join": lambda: broadcast_join(
                    ds0, small, keys=["k"]
                ).count(),
                "topk100": lambda: topk(ds0, ["v"], 100).num_rows,
                "distinct": lambda: distinct(ds0, ["k", "k2"]).count(),
                "window_row_number": lambda: windowed(
                    ds0, ["k"], ["v"], [("row_number", None, "rn")]
                ).count(),
                "grouped_median": lambda: grouped_quantiles(
                    ds0, ["k"], [("percentile_cont", "w", 0.5, "m")]
                ).count(),
                "window_moving_avg": lambda: windowed(
                    ds0, ["k"], ["v"], [("moving_avg", "w", "ma", 8)]
                ).count(),
                "bernoulli_sample": lambda: bernoulli_sample(
                    ds0, "k", 100
                ).count(),
                "tdigest_p50_p99": lambda: len(
                    approx_percentile(ds0, "v", [0.5, 0.99])
                ),
                "range_join_32ivl": lambda: range_join(
                    ds0, _intervals32, "v", "lo", "hi"
                ).count(),
                # same semantics two ways: the dedicated operator prunes to
                # <=3 rows/key/batch BEFORE the shuffle; the window plan
                # ships every row
                "top3_per_key_grouped": lambda: grouped_topk(
                    ds0, ["k"], "v", 3
                ).count(),
                "top3_per_key_window": lambda: filter_batches(
                    windowed(ds0, ["k"], ["v"], [("row_number", None, "rn")],
                             descending=True),
                    lambda b: pc.less_equal(b.column("rn"), 3),
                ).count(),
            }
            for name, fn in cases.items():
                record(name, n, {"n_keys": n_keys}, timed(fn, args.repeat))

        # joins / sort sweep only once per row count (key-cardinality fixed)
        t = make_table(n, 1000)
        ds0 = rd.from_arrow(t)
        right = pa.table(
            {"rk": np.arange(1000), "pay": np.arange(1000, dtype=np.int64)}
        )
        ds_r = rd.from_arrow(right)
        record(
            "partitioned_join",
            n,
            {"n_keys": 1000},
            timed(
                lambda: partitioned_join(
                    ds0, ds_r, on=["k"], right_on=["rk"]
                ).count(),
                args.repeat,
            ),
        )
        record(
            "sort",
            n,
            {"n_keys": 1000},
            timed(lambda: rd.from_arrow(t).sort("v").materialize(), args.repeat),
        )

        # exact-dedup shape: min+count grouped on a ~one-distinct-per-row
        # hash key — the high-NDV regime where Ray's native sort-shuffle
        # groupby cost grows with cardinality while the bucket path doesn't
        th = t.append_column(
            "h", pa.array(np.random.default_rng(3).permutation(n))
        )
        ds_h = rd.from_arrow(th)
        record(
            "exact_dedup_bucket",
            n,
            {"n_keys": n},
            timed(
                lambda: grouped_aggregate(
                    ds_h, ["h"], [("min", "w", "mn"), ("count", "w", "c")]
                ).count(),
                args.repeat,
            ),
        )

    print(json.dumps(out))
    from terrier_ray.raycompat import quiesce_ray_data_stats

    quiesce_ray_data_stats()
    ray.shutdown()


if __name__ == "__main__":
    main()
