"""ops.sample determinism, the SQL sampling queries' hash-rank arithmetic,
and ops.packing guarantees."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from terrier_ray.ops.sample import bernoulli_sample


def _ds(n=5000, seed=0):
    import ray.data as rd

    rng = np.random.default_rng(seed)
    return rd.from_arrow(
        pa.table(
            {
                "k": np.arange(n, dtype=np.int64),
                "v": rng.integers(0, 1000, n),
            }
        )
    )


def test_bernoulli_sample_deterministic_and_unbiased(ray_session):
    a = bernoulli_sample(_ds(), "k", 100).to_pandas()
    b = bernoulli_sample(_ds(), "k", 100).to_pandas()
    assert sorted(a["k"]) == sorted(b["k"])  # replay-identical
    # ~10% with a loose tolerance (deterministic, so this never flakes)
    assert 0.05 < len(a) / 5000 < 0.15


def _documents(sf_dir):
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])
    return t.column("doc_id").to_numpy(), np.asarray(t.column("source").to_pylist())


def test_mixture_sample_exact_arithmetic(ray_session, sf_smoke):
    """The per-source mixture (SQL: hash rank < CASE source ... END) keeps
    exactly the rows a numpy replay of the arithmetic keeps."""
    import __ray_entry__ as entry

    from terrier_ray.ops.sample import _MULT, _PREMOD

    got = entry.queries()["mixture_sample_documents"](sf_smoke).to_pandas()
    keys, srcs = _documents(sf_smoke)
    rates = {"src0": 1000, "src1": 750, "src2": 500, "src3": 250}
    rank = (keys % _PREMOD) * _MULT % 1000
    exp_keep = np.array([rates.get(s, 100) for s in srcs]) > rank
    assert sorted(got["doc_id"]) == sorted(keys[exp_keep].tolist())
    assert 0 < len(got) < len(keys)


def test_pack_bins_invariants_and_determinism(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from terrier_ray.ops.packing import pack_bins

    rng = np.random.default_rng(7)
    n, budget = 500, 1000
    lens = rng.integers(50, 700, size=n, endpoint=True)
    lens[0] = 1500  # oversize item must still get (its own) bin
    ds = rd.from_arrow(
        pa.table({"doc_id": np.arange(n, dtype=np.int64), "L": lens})
    )
    out = pack_bins(ds, "doc_id", "L", budget=budget, num_buckets=8).to_pandas()
    assert sorted(out["doc_id"]) == list(range(n))  # every item exactly once
    fills = out.groupby("bin_id")["L"].sum()
    oversize_bins = set(out[out["L"] > budget]["bin_id"])
    for bid, f in fills.items():
        if bid in oversize_bins:
            assert (out["bin_id"] == bid).sum() == 1  # oversize rides alone
        else:
            assert f <= budget
    # bin_fill column = its bin's final total
    merged = out.merge(fills.rename("expect_fill"), on="bin_id")
    assert (merged["bin_fill"] == merged["expect_fill"]).all()
    # lower bound: can't beat ceil(total/budget) bins
    assert out["bin_id"].nunique() >= int(np.ceil(lens.sum() / budget))
    # determinism across runs (bucketed FFD is partition-independent)
    out2 = pack_bins(ds, "doc_id", "L", budget=budget, num_buckets=8).to_pandas()
    a = out.sort_values("doc_id").reset_index(drop=True)
    b = out2.sort_values("doc_id").reset_index(drop=True)
    assert (a["bin_id"].values == b["bin_id"].values).all()


def test_pack_bins_matches_reference_ffd(ray_session):
    """Bucket-0-only input → output must equal a straight FFD replay."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from terrier_ray.ops.packing import pack_bins
    from terrier_ray.ops.sample import _MULT, _PREMOD

    nb, budget = 4, 100
    keys = np.array(
        [k for k in range(400) if (k % _PREMOD) * _MULT % nb == 0],
        dtype=np.int64,
    )[:40]
    rng = np.random.default_rng(3)
    lens = rng.integers(10, 90, size=len(keys), endpoint=True)
    ds = rd.from_arrow(pa.table({"doc_id": keys, "L": lens}))
    out = (
        pack_bins(ds, "doc_id", "L", budget=budget, num_buckets=nb)
        .to_pandas()
        .set_index("doc_id")
    )
    order = np.lexsort((keys, -lens))
    fills, assign = [], {}
    for i in order:
        ln = int(lens[i])
        for j, f in enumerate(fills):
            if f + ln <= budget:
                fills[j] += ln
                assign[int(keys[i])] = j
                break
        else:
            assign[int(keys[i])] = len(fills)
            fills.append(ln)
    for k, local in assign.items():
        assert out.loc[k, "bin_id"] == local  # bucket 0 → no id offset


def test_stratified_sample_exact_n_and_arithmetic(ray_session, sf_smoke):
    """QUALIFY row_number() OVER (PARTITION BY source ORDER BY hash rank)
    <= 5 keeps exactly the 5 lowest-ranked rows of each source."""
    import __ray_entry__ as entry

    from terrier_ray.ops.sample import _MULT, _PREMOD

    got = entry.queries()["stratified_sample_documents"](sf_smoke).to_pandas()
    keys, grp = _documents(sf_smoke)
    rank = (keys % _PREMOD) * _MULT % 1_000_000_007
    srank = rank * (1 << 31) + (keys % (1 << 31))
    exp = set()
    for g in set(grp):
        m = grp == g
        exp |= set(keys[m][np.argsort(srank[m], kind="stable")][:5].tolist())
    assert got.groupby("source").size().to_dict() == {
        g: min(5, int((grp == g).sum())) for g in set(grp)
    }
    assert set(got["doc_id"]) == exp
