"""DECIMAL-typed user data pipelines.

The testdata tables carry float64 money columns, so these pipelines first
synthesize a decimal128 parquet deterministically FROM the sf lineitem
(cast float64 → decimal128(12,2), the exact same rounding DuckDB's
``CAST(x AS DECIMAL(12,2))`` performs), then run the engine over the
decimal file via the scan-edge int64 scaling in ops/decimal.py.  The
oracle never sees the synthesized file — it applies the identical CAST to
the registered view, so a value match proves the decimal read + exact
fixed-point aggregation end to end.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from terrier_ray.ops.decimal import read_decimal_table
from terrier_ray.ops.relational import grouped_aggregate, with_columns
from terrier_ray.state.manifest import fingerprint, run_epoch

_DEC_COLS = ["l_returnflag", "l_extendedprice", "l_discount", "l_quantity"]


def _decimal_lineitem_path(sf_dir: str) -> str:
    """Idempotent per-sf synthesis of the decimal128 lineitem projection,
    one fingerprinted epoch (state/manifest.run_epoch) — regenerated
    testdata never reuses a stale file."""
    src = f"{sf_dir.rstrip('/')}/lineitem.parquet"
    out_dir = os.path.join(
        "/tmp/terrier_ray_decimal", os.path.basename(sf_dir.rstrip("/")) or "sf"
    )
    out = os.path.join(out_dir, "lineitem_dec.parquet")

    def build():
        t = pq.read_table(src, columns=_DEC_COLS)
        for col in ("l_extendedprice", "l_discount", "l_quantity"):
            i = t.column_names.index(col)
            t = t.set_column(i, col, pc.cast(t.column(col), pa.decimal128(12, 2)))
        tmp = out + ".tmp"
        pq.write_table(t, tmp)
        os.replace(tmp, out)  # atomic: concurrent readers see whole files only
        return [out], {"rows": t.num_rows}

    run_epoch(out_dir, "lineitem_dec", fingerprint([src], columns=_DEC_COLS), build)
    return out


def decimal_revenue(sf_dir: str):
    """Exact decimal aggregation over decimal128 parquet: per returnflag,
    SUM(price × (1 − discount)) with DECIMAL semantics (exact in any
    accumulation order), plus an exact average price.

    Engine path: decimal128(12,2) → unscaled int64 cents at the scan; the
    product cents × (100 − disc_cents) is an exact scale-4 int64; integer
    sums shuffle through the bucket aggregate; one final ÷10^4 / ÷10^2
    emits the double DuckDB gets from its own decimal arithmetic."""
    path = _decimal_lineitem_path(sf_dir)
    ds, scales = read_decimal_table(path)
    assert scales == {"l_extendedprice": 2, "l_discount": 2, "l_quantity": 2}

    def rev(b: pa.Table) -> pa.Array:
        price = b.column("l_extendedprice")  # cents
        disc = b.column("l_discount")  # cents
        return pc.multiply(price, pc.subtract(pa.scalar(100, pa.int64()), disc))

    ds = with_columns(ds, {"__rev4": rev})
    agg = grouped_aggregate(
        ds,
        ["l_returnflag"],
        [
            ("sum", "__rev4", "__rev_sum"),
            ("sum", "l_extendedprice", "__price_sum"),
            ("count", "l_extendedprice", "n_items"),
        ],
    )

    def finalize(b: pa.Table) -> pa.Table:
        rev_sum = pc.divide(pc.cast(b.column("__rev_sum"), pa.float64()), 1e4)
        price_cents = pc.cast(b.column("__price_sum"), pa.float64())
        avg_price = pc.divide(
            pc.divide(price_cents, 100.0),
            pc.cast(b.column("n_items"), pa.float64()),
        )
        return pa.table(
            {
                "l_returnflag": b.column("l_returnflag"),
                "revenue": rev_sum,
                "avg_price": avg_price,
                "n_items": b.column("n_items"),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow", zero_copy_batch=True)


QUERIES = {"decimal_revenue": decimal_revenue}

SQL = {
    # identical CAST on the registered view — DECIMAL(12,2) × DECIMAL
    # products and sums are exact, so the engine's int64 fixed-point path
    # must land on the same doubles bit for bit
    "decimal_revenue": """
        SELECT l_returnflag,
               CAST(SUM(CAST(l_extendedprice AS DECIMAL(12,2))
                        * (1 - CAST(l_discount AS DECIMAL(12,2)))) AS DOUBLE)
                   AS revenue,
               CAST(SUM(CAST(l_extendedprice AS DECIMAL(12,2))) AS DOUBLE)
                   / COUNT(*) AS avg_price,
               COUNT(*) AS n_items
        FROM lineitem
        GROUP BY l_returnflag
    """,
}
