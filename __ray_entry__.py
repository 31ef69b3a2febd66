"""Driver contract (Ray Data target).

``entry()`` runs the flagship fulltext pipeline (webtext → inverted index →
BM25 top-k) at sf0.001.  ``queries()`` exposes every implemented pipeline
from SURVEY.md §2; ``oracle_sql()`` gives the DuckDB equivalent for the
SQL-expressible ones (identical column names + float rounding).

A relational query has one way to run: every name in ``_SQL_FRONTEND`` and
``_SQL_TEXT`` executes its oracle text through the SQL front-end
(``terrier_ray.sql.sql``: parse → lower → rewrite → build).  Hand-built
pipelines remain only for work whose oracle text the front-end cannot run
(index, model, stateful and iterative pipelines, and SQL forms it does not
parse) or runs more than 2× slower than the hand pipeline;
``tests/test_sql.py::HAND_BUILT`` lists the oracled keeps whose text plans,
with the reason for each.  Ray is initialised by the caller BEFORE import —
nothing here calls ray.init.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from terrier_ray.pipelines import analyze, decimalq, extra, functions2, functions3, hygiene, textops, tpch, tpch2, tpch3
from terrier_ray.pipelines import orderagg as orderaggq
from terrier_ray.pipelines import sampling, specdemo
from terrier_ray.pipelines import window as windowq
from terrier_ray.pipelines.dedup import (
    approx_distinct_custkeys,
    dup_clusters,
    heavy_hitter_terms,
    minhash_lsh_pairs,
    ngram_jaccard_pairs,
    simhash_signatures,
)
from terrier_ray.pipelines.fulltext import (
    bm25_snippets,
    bm25_topk,
    bm25_topk_distributed,
    boolean_matches,
    index_corpus_stats,
    phrase_matches,
)
from terrier_ray.pipelines.multimodal import media_features, media_frames, media_resized
from terrier_ray.pipelines.similarity import (
    embedding_near_dup_pairs,
    knn_cosine,
    knn_cosine_ivf,
    knn_cosine_lsh,
)


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001; driver checks rows>=0."""
    return bm25_topk("/root/testdata/sf0.001", k=10, num_queries=20)


#: oracled queries executed from their oracle strings through the SQL
#: front-end, so the driver compares the front-end end-to-end against
#: DuckDB.  Each also answers to an ``sql_<name>`` alias (same callable).
_SQL_FRONTEND = [
    "q1_pricing_summary", "q3_shipping_priority", "q5_local_supplier_volume",
    "q6_forecast_revenue", "q7_volume_shipping", "q8_market_share",
    "q9_product_profit", "q10_returned_items", "q12_priority_counts",
    "q14_promo_revenue", "q16_supplier_cnt", "q19_disjunctive_revenue",
    "top10_orders", "distinct_segments", "count_distinct_segments",
    "string_functions", "like_filter", "date_functions", "date_functions3",
    "events_hourly", "events_type_pivot", "case_expression",
    "nation_balance_stats", "lineitem_global_stats", "cube_order_stats",
    "rollup_order_stats", "spec_big_orders_by_nation",
    "sample_bernoulli_customers", "sample_fixed_orders",
    "cross_join_mismatched", "price_histogram", "cast_functions",
    "in_between_filter", "trig_functions", "null_handling", "limit_offset",
    "docs_by_lang", "exact_dedup", "union_names", "intersect_nations",
    "except_sizes", "intersect_all_nations", "except_all_sizes",
    # subquery / CTE / decorrelation coverage (EXISTS→semi, NOT EXISTS→anti,
    # IN(SELECT)→semi, scalar subqueries→literals, WITH→views)
    "q2_min_cost_supplier", "q4_order_priority", "q11_important_customers",
    "q13_customer_distribution", "q15_top_supplier",
    "q17_small_quantity_revenue", "q18_large_volume", "q20_volume_suppliers",
    "q22_sales_opportunity", "semi_join_urgent", "anti_join_no_urgent",
    "bloom_semi_join_urgent", "left_join_order_counts",
    "full_join_nation_presence", "discount_variance", "scalar_subquery",
    # window functions (ROW_NUMBER OVER in a derived table + rank filter)
    "top2_orders_per_priority", "window_order_rank",
]

#: further oracled queries whose oracle text runs through the SQL front-end
#: bit-exact (no ``sql_`` alias)
_SQL_TEXT = [
    "window_ntile", "window_percentiles", "window_first_last",
    "window_dense_rank", "p75_disc_order_value", "sql_window_frames",
    "sql_percentile_within_group",
    # integer //, date parts, INTERVAL literals, DATEDIFF, windows over
    # expressions, QUALIFY, simple CASE, VALUES lists, MEDIAN /
    # QUANTILE_CONT / STRING_AGG, string, regex and JSON builtins
    "math_functions", "date_functions2",
    "median_order_value", "p90_order_value", "events_watermark",
    "sessionize", "math_functions3",
    "window_order_gap_days", "window_moving_spend", "window_running_spend",
    "string_functions2", "string_functions3", "nations_csv",
    "mixture_sample_documents", "stratified_sample_documents",
    "pii_redact", "bpe_token_counts", "token_counts", "json_extract_props",
    "events_hopping",
]


def queries() -> dict[str, Callable[[str], Any]]:
    q: dict[str, Callable[[str], Any]] = {}
    q.update(tpch3.QUERIES)
    q.update(orderaggq.QUERIES)
    q.update(sampling.QUERIES)
    q.update(extra.QUERIES)
    q.update(analyze.QUERIES)
    q.update(decimalq.QUERIES)
    q["term_doc_frequency"] = textops.term_doc_frequency
    q["tfidf_top_terms"] = textops.tfidf_top_terms
    q["quality_scores"] = textops.quality_scores
    q["lang_id"] = textops.lang_id
    q["fingerprints"] = textops.fingerprints
    q["cm_term_counts"] = textops.cm_term_counts
    q["lm_quality_scores"] = textops.lm_quality_scores
    q.update(hygiene.QUERIES)
    from terrier_ray.pipelines import selection

    q.update(selection.QUERIES)
    from terrier_ray.pipelines.similarity import semdedup

    q["semdedup"] = semdedup
    from terrier_ray.pipelines.dedup import segment_dedup

    q["segment_dedup"] = segment_dedup
    from terrier_ray.pipelines.curate import curate_documents

    q["curate_documents"] = curate_documents
    from terrier_ray.pipelines.curate import QUERIES as _curate_queries

    q["curate_documents_distributed"] = _curate_queries[
        "curate_documents_distributed"
    ]
    q["curate_documents_full"] = _curate_queries["curate_documents_full"]
    q["approx_distinct_custkeys"] = approx_distinct_custkeys
    q["heavy_hitter_terms"] = heavy_hitter_terms
    q["minhash_lsh_pairs"] = minhash_lsh_pairs
    q["ngram_jaccard_pairs"] = ngram_jaccard_pairs
    q["simhash_signatures"] = simhash_signatures
    from terrier_ray.pipelines.dedup import simhash_near_dup_pairs

    q["simhash_near_dup_pairs"] = simhash_near_dup_pairs
    q["knn_cosine"] = knn_cosine
    q["knn_cosine_lsh"] = knn_cosine_lsh
    q["knn_cosine_ivf"] = knn_cosine_ivf
    from terrier_ray.pipelines.similarity import knn_cosine_ivf_indexed

    q["knn_cosine_ivf_indexed"] = knn_cosine_ivf_indexed
    q["dup_clusters"] = dup_clusters
    from terrier_ray.pipelines.dedup import dup_clusters_distributed

    q["dup_clusters_distributed"] = dup_clusters_distributed
    q["embedding_near_dup_pairs"] = embedding_near_dup_pairs
    q["bm25_topk"] = bm25_topk
    q["bm25_topk_distributed"] = bm25_topk_distributed
    from terrier_ray.pipelines.fulltext import bm25_topk_sharded

    q["bm25_topk_sharded"] = bm25_topk_sharded
    q["index_corpus_stats"] = index_corpus_stats
    q["boolean_matches"] = boolean_matches
    q["bm25_snippets"] = bm25_snippets
    q["phrase_matches"] = phrase_matches
    from terrier_ray.pipelines.fulltext import phrase_matches_positional

    q["phrase_matches_positional"] = phrase_matches_positional
    from terrier_ray.pipelines.fulltext import proximity_matches

    q["proximity_matches"] = proximity_matches
    from terrier_ray.pipelines.fulltext import search_explain

    q["search_explain"] = search_explain
    from terrier_ray.pipelines.fulltext import bm25_filtered_topk

    q["bm25_filtered_topk"] = bm25_filtered_topk
    from terrier_ray.pipelines.fulltext import bm25_time_filtered_topk

    q["bm25_time_filtered_topk"] = bm25_time_filtered_topk
    from terrier_ray.pipelines.fulltext import (
        bm25_date_histogram,
        bm25_sorted_by_time,
    )

    q["bm25_sorted_by_time"] = bm25_sorted_by_time
    q["bm25_date_histogram"] = bm25_date_histogram
    from terrier_ray.pipelines.fulltext import fuzzy_topk

    q["fuzzy_topk"] = fuzzy_topk
    from terrier_ray.pipelines.fulltext import bm25f_topk

    q["bm25f_topk"] = bm25f_topk
    from terrier_ray.pipelines.fulltext import bm25_facets, more_like_this

    q["more_like_this"] = more_like_this
    q["bm25_facets"] = bm25_facets
    from terrier_ray.pipelines.fulltext import feedback_topk

    q["feedback_topk"] = feedback_topk
    from terrier_ray.pipelines.fulltext import did_you_mean, suggest_terms

    q["suggest_terms"] = suggest_terms
    q["did_you_mean"] = did_you_mean
    from terrier_ray.pipelines.fulltext import bm25f_true_topk

    q["bm25f_true_topk"] = bm25f_true_topk
    from terrier_ray.pipelines.fulltext import search_query_string

    q["search_query_string"] = search_query_string
    q["search_query_string_distributed"] = lambda sf_dir: search_query_string(
        sf_dir, distributed=True
    )
    from terrier_ray.pipelines.fulltext import prefix_terms, terms_desc_limit

    q["prefix_terms"] = prefix_terms
    q["terms_desc_limit"] = terms_desc_limit
    from terrier_ray.pipelines import dml as dmlq

    q.update(dmlq.QUERIES)
    q["media_features"] = lambda sf_dir: media_features(200)
    q["media_resized"] = lambda sf_dir: media_resized(200)
    q["media_frames"] = lambda sf_dir: media_frames(200)

    from terrier_ray.sql import sql as _sql

    base_sql = oracle_sql()
    for name in _SQL_FRONTEND + _SQL_TEXT:
        q[name] = lambda sf_dir, s=base_sql[name]: _sql(s, sf_dir)
    for name in _SQL_FRONTEND:
        q[f"sql_{name}"] = q[name]

    def sql_explain_q3(sf_dir: str):
        """EXPLAIN surface (traffic_cop.cpp EXPLAIN analog): the optimizer's
        plan for q3's SQL as one row per plan line — deterministic text, no
        execution; rows-only check (EXPLAIN output is engine-specific)."""
        import pyarrow as _pa

        from terrier_ray.sql import explain as _explain

        lines = _explain(base_sql["q3_shipping_priority"], sf_dir).splitlines()
        return _pa.table(
            {
                "step": _pa.array(range(len(lines)), type=_pa.int64()),
                "plan": _pa.array(lines, type=_pa.string()),
            }
        )

    q["sql_explain_q3"] = sql_explain_q3

    def sql_explain_analyze_agg(sf_dir: str):
        """EXPLAIN ANALYZE surface: execute a grouped aggregate from SQL
        text and report the streaming executor's per-operator runtime rows
        (reference analog: per-pipeline operating-unit recording,
        self_driving/modeling/operating_unit_recorder.cpp).  Timing columns
        are runtime-dependent → rows-only check on the deterministic
        operator list; rows_out is plan-determined."""
        from terrier_ray.sql import explain_analyze as _ea

        _res, metrics = _ea(
            "SELECT o_orderpriority, count(*) AS n FROM orders "
            "GROUP BY o_orderpriority ORDER BY o_orderpriority",
            sf_dir,
        )
        return metrics.select(["operator", "rows_out"])

    q["sql_explain_analyze_agg"] = sql_explain_analyze_agg
    return q


def oracle_sql() -> dict[str, str]:
    sql: dict[str, str] = {}
    sql.update(tpch.SQL)
    sql.update(tpch2.SQL)
    sql.update(tpch3.SQL)
    sql.update(windowq.SQL)
    sql.update(orderaggq.SQL)
    sql.update(specdemo.SQL)
    sql.update(sampling.SQL)
    sql.update(extra.SQL)
    sql.update(analyze.SQL)
    sql.update(functions2.SQL)
    sql.update(decimalq.SQL)
    sql.update(functions3.SQL)
    sql.update(textops.SQL)
    sql.update(hygiene.SQL)
    from terrier_ray.pipelines import selection

    sql.update(selection.SQL)
    sql["exact_dedup"] = """
        SELECT MIN(doc_id) AS doc_id, COUNT(*) AS n_copies
        FROM documents GROUP BY text
    """
    # duplicate-span removal at word-5-window granularity: keep-first per
    # distinct full-width segment (enc = doc_id*2^20 + seg_no mirrors the
    # engine's winner encoding), ragged tails always kept, docs rebuilt
    # from kept segments in order
    sql["segment_dedup"] = """
        WITH ws AS (
            SELECT doc_id, string_split(text, ' ') AS w FROM documents
        ), segs AS (
            SELECT doc_id, CAST(i AS BIGINT) AS seg_no,
                   list_aggregate(w[i*5+1 : i*5+5], 'string_agg', ' ') AS seg,
                   len(w[i*5+1 : i*5+5]) AS seg_words
            FROM ws, unnest(range(0, CAST(ceil(len(w) / 5.0) AS BIGINT))) AS t(i)
        ), winners AS (
            SELECT seg, MIN(doc_id * 1048576 + seg_no) AS wenc
            FROM segs WHERE seg_words = 5 GROUP BY seg
        ), kept AS (
            SELECT s.doc_id, s.seg_no, s.seg
            FROM segs s LEFT JOIN winners w ON s.seg = w.seg
            WHERE s.seg_words < 5 OR s.doc_id * 1048576 + s.seg_no = w.wenc
        )
        SELECT doc_id,
               string_agg(seg, ' ' ORDER BY seg_no) AS text,
               COUNT(*) AS n_segments_kept
        FROM kept GROUP BY doc_id
    """
    # the DOUBLE[] casts make DuckDB compute the cosine in float64 like the
    # engine (bare list_cosine_similarity over list<float> runs in float32,
    # a ~1e-7 relative divergence that can flip the 4-decimal rounding)
    sql["knn_cosine"] = """
        SELECT e2.vec_id AS vec_id,
               CAST(ROUND(list_cosine_similarity(CAST(e1.embedding AS DOUBLE[]),
                                                 CAST(e2.embedding AS DOUBLE[]))
                          * 10000, 0) AS BIGINT) / 10000.0 AS sim
        FROM embeddings e1, embeddings e2
        WHERE e1.vec_id = 0 AND e2.vec_id <> 0
        ORDER BY sim DESC, vec_id
        LIMIT 10
    """
    # non-SQL-expressible (stateful/model/iterative): minhash_lsh_pairs,
    # simhash_signatures, knn_cosine_lsh, embedding_near_dup_pairs,
    # quality_scores, lang_id, fingerprints, bm25_topk, index_corpus_stats,
    # media_features → rows-only checks.
    from terrier_ray.pipelines import dml as dmlq

    sql.update(dmlq.ORACLE_SQL)
    for name in _SQL_FRONTEND:
        sql[f"sql_{name}"] = sql[name]
    return sql
