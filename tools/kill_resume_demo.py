"""Kill-and-resume demonstration over the index build's epoch commit points.

Builds an uninterrupted reference index, then, for each commit point of
``build_index``'s epoch runner (the manifest of corpus, stats, doclens,
docvalues and docvalues_ts), launches a build in a child process, SIGKILLs
it as soon as that epoch's manifest lands, resumes in a fresh process and
checks that

(a) every epoch committed before the kill is skipped on resume, and
(b) the resumed index is byte-identical to the reference: postings,
    positions, the three docid sidecars, the corpus, stats.json and
    bucket_metrics.parquet byte for byte; manifests without wall_s,
    finished_at and the input files' mtimes (the resumed corpus files are
    newer than the reference's).

One more run kills mid-epoch: as soon as the postings epoch's first
bucket file lands, before its manifest.
Each child starts Ray as the tier-1 suite does (num_cpus=4) and shuts it
down in a ``finally``.

Usage: python tools/kill_resume_demo.py [--num-docs N] [--work-dir DIR]
Runs from any cwd.  Scratch indexes go under DIR (kept) or a fresh
temporary directory (removed at exit).  Prints one JSON line; exits 1 if
a check fails.
"""

from __future__ import annotations

import argparse
import filecmp
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: build_index's commit points, in the order the runner writes them
EPOCHS = ("corpus", "stats", "doclens", "docvalues", "docvalues_ts")

CHILD = r"""
import json, sys
import ray
ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
try:
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    from terrier_ray.index.build import build_index
    stats = build_index(sys.argv[1], sys.argv[2], num_buckets=8, num_salts=4,
                        docvalues=True, positions=True)
    print("TIMINGS " + json.dumps(sorted(stats["timings"])), flush=True)
finally:
    from terrier_ray.raycompat import quiesce_ray_data_stats
    quiesce_ray_data_stats()
    ray.shutdown()
"""


def run_build(web: str, out_dir: str, kill_when: str | None = None) -> dict:
    """One build in a child process; with ``kill_when`` (a glob under
    ``out_dir``), SIGKILL its whole process group (driver and the Ray
    processes it started) as soon as a file matches."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [REPO] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    p = subprocess.Popen(
        [sys.executable, "-c", CHILD, web, out_dir],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
        start_new_session=True,
    )
    killed = False
    if kill_when:
        marker = os.path.join(out_dir, kill_when)
        deadline = time.time() + 300
        while time.time() < deadline and p.poll() is None:
            if glob.glob(marker):
                os.killpg(p.pid, signal.SIGKILL)
                killed = True
                break
            time.sleep(0.005)
    out, _ = p.communicate()
    timings = None
    for line in out.splitlines():
        if line.startswith("TIMINGS "):
            timings = json.loads(line[len("TIMINGS "):])
    return {"killed": killed, "returncode": p.returncode, "timings": timings}


def committed(out_dir: str) -> list[str]:
    return sorted(
        os.path.basename(f)[: -len(".json")]
        for f in glob.glob(os.path.join(out_dir, "_manifest", "*.json"))
    )


def index_diff(ref: str, got: str) -> list[str]:
    """Files that differ between two index dirs (see the module docstring
    for what is compared how); [] when identical."""

    def files(d):
        return {
            os.path.relpath(os.path.join(r, f), d)
            for r, _, fs in os.walk(d)
            for f in fs
        }

    def manifest(d, rel):
        with open(os.path.join(d, rel)) as f:
            m = json.load(f)
        m.pop("wall_s", None)
        m.pop("finished_at", None)
        m["inputs"]["files"] = [f[:2] for f in m["inputs"]["files"]]
        return m

    fr, fg = files(ref), files(got)
    diff = sorted(fr ^ fg)
    for rel in sorted(fr & fg):
        if rel.startswith("_manifest" + os.sep):
            same = manifest(ref, rel) == manifest(got, rel)
        else:
            same = filecmp.cmp(os.path.join(ref, rel), os.path.join(got, rel),
                               shallow=False)
        if not same:
            diff.append(rel)
    return diff


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--num-docs", type=int, default=8000)
    ap.add_argument("--work-dir", default=None,
                    help="scratch directory (kept); default: a temporary one")
    args = ap.parse_args()
    sys.path.insert(0, REPO)
    from terrier_ray.datagen.webtext import generate_webtext_parquet

    work = args.work_dir or tempfile.mkdtemp(prefix="kill_resume_")
    os.makedirs(work, exist_ok=True)
    try:
        web = os.path.join(work, f"webtext-{args.num_docs}")
        generate_webtext_parquet(web, num_docs=args.num_docs, seed=42)
        ref = os.path.join(work, "idx_reference")
        shutil.rmtree(ref, ignore_errors=True)
        run_build(web, ref)

        cases = [(e, os.path.join("_manifest", f"{e}.json")) for e in EPOCHS]
        cases.append(("mid-postings", os.path.join("postings", "bucket-*.parquet")))
        rows = []
        for name, kill_when in cases:
            out = os.path.join(work, f"idx_killed_{name}")
            shutil.rmtree(out, ignore_errors=True)
            r1 = run_build(web, out, kill_when=kill_when)
            at_kill = committed(out)
            r2 = run_build(web, out)
            rerun = [t[: -len("_s")] for t in (r2["timings"] or [])]
            rows.append({
                "kill_at": name,
                "killed": r1["killed"],
                "committed_at_kill": at_kill,
                "resumed_epochs": rerun,
                "resume_ok": r2["returncode"] == 0,
                "skipped_committed": not set(at_kill) & set(rerun),
                "diff_vs_reference": index_diff(ref, out),
            })
    finally:
        if args.work_dir is None:
            shutil.rmtree(work, ignore_errors=True)

    ok = all(
        r["killed"] and r["resume_ok"] and r["skipped_committed"]
        and not r["diff_vs_reference"]
        for r in rows
    )
    print(json.dumps({
        "metric": "kill_resume",
        "ok": ok,
        "resume_skipped_corpus": all("corpus" not in r["resumed_epochs"] for r in rows),
        "byte_identical_to_reference": all(not r["diff_vs_reference"] for r in rows),
        "cases": rows,
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
