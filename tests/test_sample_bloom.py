"""ops.sample determinism + ops.packing guarantees."""

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


def test_mixture_sample_exact_arithmetic(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from terrier_ray.ops.sample import _MULT, _PREMOD, mixture_sample

    n = 3000
    keys = np.arange(n, dtype=np.int64)
    srcs = np.array(["a", "b", "c"], dtype=object)[keys % 3]
    ds = rd.from_arrow(pa.table({"k": keys, "s": pa.array(srcs.tolist())}))
    rates = {"a": 1000, "b": 300, "c": 0}
    got = mixture_sample(ds, "s", "k", rates).to_pandas()
    rank = (keys % _PREMOD) * _MULT % 1000
    exp_keep = np.array([rates[s] for s in srcs]) > rank
    assert sorted(got["k"]) == sorted(keys[exp_keep].tolist())
    assert set(got["s"]) == {"a", "b"}  # rate-0 source fully excluded


def test_mixture_sample_default_and_clamp(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from terrier_ray.ops.sample import mixture_sample

    ds = rd.from_arrow(
        pa.table({"k": list(range(100)), "s": ["x"] * 50 + ["y"] * 50})
    )
    # unknown source falls to default; rate > 1000 clamps to keep-all
    got = mixture_sample(ds, "s", "k", {"x": 5000}, default_permil=1000)
    assert got.count() == 100


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


def test_stratified_sample_exact_n_and_arithmetic(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from terrier_ray.ops.sample import _MULT, _PREMOD, stratified_sample

    n = 900
    keys = np.arange(n, dtype=np.int64)
    grp = np.array(["g0", "g1", "g2"], dtype=object)[keys % 3]
    ds = rd.from_arrow(pa.table({"k": keys, "g": pa.array(grp.tolist())}))
    got = stratified_sample(ds, "g", "k", 7).to_pandas()
    assert got.groupby("g").size().to_dict() == {"g0": 7, "g1": 7, "g2": 7}
    # replay the exact arithmetic
    rank = (keys % _PREMOD) * _MULT % 1_000_000_007
    srank = rank * (1 << 31) + (keys % (1 << 31))
    exp = set()
    for g in ("g0", "g1", "g2"):
        m = grp == g
        exp |= set(keys[m][np.argsort(srank[m], kind="stable")][:7].tolist())
    assert set(got["k"]) == exp
    # small group: returns the whole group, not an error
    ds2 = rd.from_arrow(pa.table({"k": [1, 2], "g": ["a", "a"]}))
    assert stratified_sample(ds2, "g", "k", 7).count() == 2
