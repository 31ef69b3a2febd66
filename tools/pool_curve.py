"""QPS-vs-actor-count curve for the warm BM25 serving pool.

VERDICT round-2 item 6: the query pool scaled 2->8 actors at only ~2.3x
(memory-bandwidth-bound posting decode when every actor decodes its own
lists cold).  Round-3 query-path work (per-term weight cache, searchsorted
scatter-merge, full-query-set warm-up) moves the steady-state window to
cached-weight scoring; this tool measures the resulting curve.

Usage:
    python tools/pool_curve.py [index_dir] [--docs 960000] [--actors 2,4,8,16]
                               [--work-dir DIR]

Runs from any cwd: the repo root is found from this file and exported to
the Ray workers.  One Ray session, started with the tier-1 suite's
arguments (num_cpus=4, or $RAY_GRAFT_CPUS) and shut down in a ``finally``;
one index.  Without ``index_dir`` the corpus and index are built under
DIR (kept) or a fresh temporary directory (removed at exit).  Per actor
count: fresh actors, full warm pass (untimed), then the timed window over
the same 2,000 queries.  Prints one JSON line per actor count plus a
summary.  Run on a QUIET host and never concurrently with bench.py
--scaling; an actor count above the session's cpus queues actors.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)
# workers inherit the driver's environment at ray.init
os.environ["PYTHONPATH"] = os.pathsep.join(
    [REPO] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)


def curve(idx_dir: str, actor_counts: "list[int]") -> None:
    import ray

    from terrier_ray.datagen.webtext import generate_queries
    from terrier_ray.index.bm25 import BM25Scorer

    queries = generate_queries(2000)
    rows = []
    for n in actor_counts:
        with open("/proc/loadavg") as f:
            load = float(f.read().split()[0])
        RemoteScorer = ray.remote(num_cpus=1)(BM25Scorer)
        actors = [RemoteScorer.remote(index_dir=idx_dir, k=10) for _ in range(n)]
        ray.get([a.__call__.remote(queries) for a in actors])  # full warm, untimed
        # Tile the (warm) query set with the actor count so every leg's timed
        # window stays seconds-long — a fixed 2000 queries at 32 actors is a
        # ~0.2 s window where dispatch overhead, not scoring, is measured.
        reps = max(1, n // 2)
        n_slices = n * 4
        per = max(1, -(-queries.num_rows // n_slices))
        slices = [
            queries.slice(i * per, per)
            for i in range(n_slices)
            if i * per < queries.num_rows
        ]
        timed = [s for _ in range(reps) for s in slices]
        t0 = time.perf_counter()
        ray.get([actors[i % n].__call__.remote(s) for i, s in enumerate(timed)])
        wall = time.perf_counter() - t0
        for a in actors:
            ray.kill(a)
        qps = reps * queries.num_rows / wall
        rows.append({"actors": n, "wall_s": round(wall, 3),
                     "qps": round(qps, 1), "load_pre": load})
        print(json.dumps(rows[-1]))
    base = rows[0]
    print(json.dumps({
        "metric": "pool_scaling_curve",
        "index": idx_dir,
        "rows": rows,
        "speedup_vs_first": [
            round(r["qps"] / base["qps"], 2) for r in rows
        ],
        "ideal": [r["actors"] // base["actors"] for r in rows],
    }))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("index_dir", nargs="?", default=None)
    ap.add_argument("--docs", type=int, default=960_000)
    ap.add_argument("--actors", default="2,4,8,16")
    ap.add_argument("--work-dir", default=None)
    args = ap.parse_args()
    actor_counts = [int(x) for x in args.actors.split(",")]

    import ray

    work = args.work_dir or tempfile.mkdtemp(prefix="pool_curve_")
    ray.init(address="local",
             num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "4")),
             include_dashboard=False, logging_level="ERROR")
    try:
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        idx_dir = args.index_dir
        if idx_dir is None:
            from terrier_ray.datagen.webtext import generate_webtext_parquet
            from terrier_ray.index.build import build_index

            web = generate_webtext_parquet(
                os.path.join(work, f"webtext-{args.docs}"), num_docs=args.docs,
                seed=42,
            )
            idx_dir = os.path.join(work, f"index-{args.docs}")
            build_index(web, idx_dir, num_buckets=256, num_salts=4)
        curve(idx_dir, actor_counts)
    finally:
        from terrier_ray.raycompat import quiesce_ray_data_stats

        quiesce_ray_data_stats()
        ray.shutdown()
        if args.work_dir is None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
