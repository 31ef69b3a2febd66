"""ops.orderagg — grouped quantiles / string_agg vs DuckDB and pandas oracles."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from terrier_ray.ops.orderagg import grouped_quantiles


@pytest.fixture()
def df() -> pd.DataFrame:
    rng = np.random.default_rng(11)
    n = 3000
    return pd.DataFrame(
        {
            "k": rng.integers(0, 23, n),
            "v": rng.integers(-1000, 1000, n).astype(np.int64),
            "s": [f"w{w}" for w in rng.integers(0, 99, n)],
        }
    )


def _ds(df):
    import ray.data as rd

    return rd.from_arrow(pa.Table.from_pandas(df))


@pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 0.9, 1.0])
def test_grouped_quantile_matches_duckdb(ray_session, df, q):
    """Bit-identical vs DuckDB QUANTILE_CONT (the engine the driver's
    value-hash gate compares against; numpy's lerp differs by ulps)."""
    import duckdb

    out = (
        grouped_quantiles(_ds(df), ["k"], [("percentile_cont", "v", q, "qv")],
                          num_partitions=7)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = duckdb.sql(
        f"SELECT k, QUANTILE_CONT(v, {q}) AS qv FROM df GROUP BY k ORDER BY k"
    ).df()
    assert len(out) == df["k"].nunique()
    np.testing.assert_array_equal(out["k"].values, want["k"].values)
    np.testing.assert_allclose(out["qv"].values, want["qv"].values, rtol=0, atol=0)


def test_grouped_string_agg_ordered(ray_session, df):
    out = (
        grouped_quantiles(
            _ds(df), ["k"], [("string_agg", "s", "|", "joined")], num_partitions=7
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = (
        df.sort_values(["k", "s"])
        .groupby("k")["s"]
        .agg("|".join)
        .reset_index(name="joined")
    )
    assert (out["joined"].values == want["joined"].values).all()


def test_dense_rank_matches_pandas(ray_session, df):
    from terrier_ray.ops.window import windowed

    out = (
        windowed(_ds(df.assign(uid=np.arange(len(df)))), ["k"], ["v"],
                 [("dense_rank", None, "dr")], num_partitions=7)
        .to_pandas()
        .sort_values("uid")
        .reset_index(drop=True)
    )
    want = df.groupby("k")["v"].rank(method="dense").astype(np.int64)
    assert (out["dr"].values == want.values).all()


def test_quantile_disc_vs_duckdb(ray_session):
    import duckdb
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    rng = np.random.default_rng(3)
    t = pa.table(
        {
            "k": rng.integers(0, 7, 500),
            "v": np.round(rng.normal(100, 30, 500), 2),
        }
    )
    for q in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0):
        got = (
            grouped_quantiles(rd.from_arrow(t), ["k"],
                              [("percentile_disc", "v", q, "dv")], 4)
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        want = (
            duckdb.connect()
            .execute(
                f"SELECT k, PERCENTILE_DISC({q}) WITHIN GROUP (ORDER BY v) AS dv "
                "FROM t GROUP BY k ORDER BY k"
            )
            .df()
        )
        assert (got["k"].values == want["k"].values).all(), q
        assert (got["dv"].values == want["dv"].values).all(), q  # exact
