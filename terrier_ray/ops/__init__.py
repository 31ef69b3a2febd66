from terrier_ray.ops.relational import (  # noqa: F401
    read_table,
    filter_expr,
    filter_batches,
    with_columns,
    project,
    broadcast_join,
    partitioned_join,
    grouped_aggregate,
    grouped_topk,
    grouping_sets_aggregate,
    cube_aggregate,
    rollup_aggregate,
    global_aggregate,
    sort_limit,
    topk,
    distinct,
    setop_all,
    union_all,
    unpivot,
    round_columns,
)
from terrier_ray.ops.orderagg import grouped_quantiles  # noqa: F401
from terrier_ray.ops.rangejoin import range_join  # noqa: F401
from terrier_ray.ops.sample import bernoulli_sample  # noqa: F401
from terrier_ray.ops.sketch import (  # noqa: F401
    approx_percentile,
    hll_count_distinct,
    mg_heavy_hitters,
)
from terrier_ray.ops.window import windowed  # noqa: F401
