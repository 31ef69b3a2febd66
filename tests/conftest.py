"""Shared fixtures. Ray is initialised ONCE per pytest session."""

from __future__ import annotations

import os

import pytest

SF_SMOKE = "/root/testdata/sf0.001"
SF_CORRECT = "/root/testdata/sf0.01"


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    # avoid the StatsManager-thread vs shutdown race (raycompat docstring)
    from terrier_ray.raycompat import quiesce_ray_data_stats

    quiesce_ray_data_stats()
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_smoke() -> str:
    return SF_SMOKE


@pytest.fixture(scope="session")
def sf_correct() -> str:
    return SF_CORRECT


@pytest.fixture(scope="session")
def tmp_root(tmp_path_factory):
    return tmp_path_factory.mktemp("terrier_ray")


@pytest.fixture(scope="session")
def webtext_small(tmp_root):
    """Deterministic webtext parquet (small) shared across tests."""
    from terrier_ray.datagen.webtext import generate_webtext_parquet

    path = os.path.join(str(tmp_root), "webtext_small")
    generate_webtext_parquet(path, num_docs=400, seed=42)
    return path


@pytest.fixture
def force_prune(monkeypatch):
    """``force_prune(pruned)`` forces the BM25 executor's path rule
    (``bm25.PRUNE_MIN_DF``) for the rest of the test: True sends every
    top-k OR plan to MaxScore, False to exact TAAT.  It patches this
    process and returns ``_unit_task`` under the same rule as a Ray task,
    for a distributed reader's ``_task``."""
    from terrier_ray.index import bm25

    def force(pruned: bool):
        import ray

        cut = 0 if pruned else float("inf")
        monkeypatch.setattr(bm25, "PRUNE_MIN_DF", cut)

        def task(*args):
            from terrier_ray.index import bm25 as worker_bm25

            saved, worker_bm25.PRUNE_MIN_DF = worker_bm25.PRUNE_MIN_DF, cut
            try:
                return worker_bm25._unit_task(*args)
            finally:
                worker_bm25.PRUNE_MIN_DF = saved

        return ray.remote(task)

    return force
