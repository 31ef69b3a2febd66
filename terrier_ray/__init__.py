"""terrier_ray — a Ray-Data-native data-processing engine.

A from-scratch reimplementation of the query/data-processing capabilities of
the reference system (CMU NoisePage, /root/reference) as idiomatic
``ray.data.Dataset`` pipelines: zero-copy Arrow ``map_batches`` stages, actor
pools for stateful steps, and ``groupby``/``sort`` shuffles for the wide ones.

Flagship workload (BASELINE.json north_rule): inverted-index build + BM25
top-k retrieval over Common-Crawl-style webtext
``(url, warc_ts, html, text, lang)``.

Layout
------
- ``terrier_ray.datagen``   deterministic synthetic webtext + query fixtures
- ``terrier_ray.extract``   HTML→text extraction (reference + pipeline stage)
- ``terrier_ray.text``      tokenization, language-ID, quality, fingerprints
- ``terrier_ray.index``     posting codec, index build, BM25 (exact / MaxScore)
- ``terrier_ray.ops``       relational operators over Datasets (scan/filter/
                            join/aggregate/sort/topk — SURVEY.md §2 parity)
- ``terrier_ray.pipelines`` end-user pipelines (TPC-H-ish, dedup, similarity,
                            multimodal plumbing)
- ``terrier_ray.state``     lineage manifests + resumable epochs

No module here calls ``ray.init``; sessions are owned by bench.py / tests.
"""

__version__ = "0.1.0"


def _tune_data_context() -> None:
    """Engine-wide Ray Data execution settings (no ray.init here).

    ``op_resource_reservation_enabled = False``: on this Ray (2.49) the
    streaming executor's per-operator resource reservation throttles upstream
    map stages whenever a downstream all-to-all (groupby/sort) sits in the
    same plan — measured 3.9x map wall-time (102 s vs 26.5 s, identical task
    counts) on a heavy fused map chain feeding a tiny groupby at 4 cpus.
    Every terrier_ray pipeline is a batch job that owns its Ray session, so
    greedy operator scheduling is strictly better here.
    """
    try:
        from ray.data import DataContext

        DataContext.get_current().op_resource_reservation_enabled = False
    except Exception:  # pragma: no cover - ray absent/changed API
        pass


_tune_data_context()
