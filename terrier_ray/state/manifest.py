"""Lineage manifests + resumable epochs: the one freshness decision.

The reference's durability story is WAL + recovery replay
(/root/reference/src/include/storage/write_ahead_log/log_manager.h:30-39,
storage/recovery/recovery_manager.h:42).  A batch engine does it the batch
way (SURVEY.md §7.2 M5): every pipeline epoch writes its outputs, then
atomically drops a manifest recording inputs, outputs, row counts and
metrics.  A restarted job skips any epoch whose manifest verifies against
the same inputs — idempotent outputs instead of log replay.

Every derived artifact goes through the two functions here: the index
build's epochs, the clustered point-lookup layout, the IVF cells and the
decimal lineitem copy.  ``fingerprint`` is the input side and
``run_epoch`` the runner.  Manifests hold no absolute path (outputs are
relative to ``out_dir``, source files relative to their source), so an
artifact directory can move and still verify.

Layout for a job rooted at ``out_dir``::

    out_dir/
      <epoch outputs>...     # parquet etc.
      _manifest/<epoch>.json # written LAST, atomically (tmp + fsync + rename)
"""

from __future__ import annotations

import json
import os
import shutil
import time
from typing import Any, Callable


def parquet_files(source: str) -> "list[str]":
    """Every parquet file under ``source`` (``source`` itself when it is a
    file), sorted; symlinked dirs and files are followed, so a corpus dir
    of links fingerprints the linked files."""
    if not os.path.isdir(source):
        return [source]
    return sorted(
        os.path.join(root, f)
        for root, _, files in os.walk(source, followlinks=True)
        for f in files
        if f.endswith(".parquet")
    )


def fingerprint(sources: "list[str]", **params: Any) -> "dict[str, Any]":
    """An epoch's inputs: ``[path relative to its source, size, mtime_ns]``
    for every parquet file under each source, plus ``params``.  JSON-stable
    only with list (not tuple) values: JSON round-trips tuples into lists,
    so a loaded manifest would never match."""
    files = []
    for src in sources:
        base = src if os.path.isdir(src) else os.path.dirname(src)
        for f in parquet_files(src):
            st = os.stat(f)
            files.append([os.path.relpath(f, base), st.st_size, st.st_mtime_ns])
    return {"files": files, **params}


def _manifest_path(out_dir: str, epoch: str) -> str:
    return os.path.join(out_dir, "_manifest", f"{epoch}.json")


def epoch_done(out_dir: str, epoch: str, inputs: "dict[str, Any]") -> bool:
    """True iff a readable manifest for ``epoch`` matches ``inputs`` and all
    its recorded outputs still exist; a missing or corrupt one is False."""
    try:
        with open(_manifest_path(out_dir, epoch)) as f:
            m = json.load(f)
    except (OSError, ValueError):
        return False
    if not isinstance(m, dict) or m.get("inputs") != inputs:
        return False
    return all(os.path.exists(os.path.join(out_dir, p)) for p in m.get("outputs", []))


def run_epoch(
    out_dir: str,
    name: str,
    inputs: "dict[str, Any]",
    run: "Callable[[], tuple[list[str], dict[str, Any]]]",
    clear: "tuple[str, ...]" = (),
    force: bool = False,
) -> "float | None":
    """Run one resumable epoch unless its manifest verifies.

    ``clear`` paths are removed first, then ``out_dir`` is (re)made;
    ``run()`` returns the epoch's (output paths under ``out_dir``,
    metrics).  The manifest is written last, so a killed run restarts from
    the last committed epoch.  Returns the wall seconds when the epoch ran,
    None when it was skipped."""
    if not force and epoch_done(out_dir, name, inputs):
        return None
    t0 = time.perf_counter()
    for d in clear:
        shutil.rmtree(d, ignore_errors=True)
    os.makedirs(os.path.join(out_dir, "_manifest"), exist_ok=True)
    outputs, metrics = run()
    wall = time.perf_counter() - t0
    path = _manifest_path(out_dir, name)
    payload = {
        "epoch": name,
        "inputs": inputs,
        "outputs": [os.path.relpath(p, out_dir) for p in outputs],
        "metrics": metrics,
        "wall_s": round(wall, 3),
        "finished_at": time.time(),
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(payload, f, indent=1)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    return wall
