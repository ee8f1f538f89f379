"""Relational pipelines over the TPC-H-ish test tables.

These are the crawl engine's aggregation/join/sort operators (SURVEY §2.4
J4, §2.5 A1–A4, §2.6 L2) exercised against the driver's pre-registered
relational views, where DuckDB gives a fully independent oracle.

Physical patterns (ray_guide):
- prune at the read (``columns=[...]``);
- groups with tiny cardinality (Q1 flags, hourly buckets): partial
  aggregation inside ``map_batches`` + driver combine — no shuffle at all;
- groups with real cardinality (users, customers): Ray ``groupby`` shuffle;
- small dimension side (nation, customer segment): broadcast via
  ``ray.put`` + per-batch numpy/dict lookup — no shuffle join;
- both-sides-large: ``Dataset.join`` (hash-partitioned).

Float determinism: every money/value aggregate is accumulated in exact
integer units (``floor(x*scale + 0.5)`` per row, int64 sums) and converted
to float only once at the end. Summation is therefore order-independent —
the same result bit-for-bit on every run and in the DuckDB oracle, which
mirrors the identical expressions (the driver compares via an exact value
hash; plain float64 sums differ run-to-run at ULP level and fail it).
All inputs are 2-decimal fixed-point by construction, so scale=100 (and
10000 for price×discount products) is lossless.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from raycrawl.kernels import knuth_key32, table_from_pandas
import pyarrow.compute as pc
import pyarrow.parquet as pq


def _t(sf_dir: str, name: str, columns=None):
    from raycrawl.kernels import read_parquet_clean

    return read_parquet_clean(os.path.join(sf_dir, f"{name}.parquet"),
                              columns=columns)


def _broadcast_ok(sf_dir: str, table: str,
                  default_max_bytes: int = 256 << 20) -> bool:
    """Auto-gate for broadcast joins: broadcast a dimension only while its
    on-disk footprint stays under a budget (compressed parquet is a lower
    bound on the in-memory table, so the budget is conservative by the
    compression ratio). Above it, the caller must fall back to a
    hash-partitioned ``Dataset.join`` — a 'small' side is an sf-scaled
    assumption, not a fact, and a silently growing broadcast is how a
    driver OOMs at 100 TB. ``RAYCRAWL_BROADCAST_MAX_BYTES`` overrides the
    budget (tests force 0 to pin the join fallback's equality)."""
    budget = int(os.environ.get("RAYCRAWL_BROADCAST_MAX_BYTES",
                                default_max_bytes))
    return os.path.getsize(os.path.join(sf_dir, f"{table}.parquet")) <= budget


def _iunits(arr, scale: float) -> pa.Array:
    """float64 column → exact int64 units: floor(x*scale + 0.5).

    The SQL oracle mirrors this as CAST(floor(x * scale + 0.5) AS BIGINT);
    both sides run the identical IEEE-754 double ops, so the ints agree
    bit-for-bit."""
    a = np.asarray(arr, dtype=np.float64)
    return pa.array(np.floor(a * scale + 0.5).astype(np.int64))


def q1_pricing_summary(sf_dir: str, cutoff: str = "1998-09-01") -> pa.Table:
    """TPC-H Q1-style pricing summary: tiny group space (flag × status) →
    per-batch pyarrow partial aggregation, driver combine. Zero shuffle."""
    cutoff_ts = pa.scalar(np.datetime64(cutoff, "us"))

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["l_shipdate"], cutoff_ts))
        ext = t["l_extendedprice"].to_numpy()
        disc = t["l_discount"].to_numpy()
        t2 = pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "qty_i": _iunits(t["l_quantity"].to_numpy(), 100.0),
                "base_i": _iunits(ext, 100.0),
                "dp_i": _iunits(ext * (1.0 - disc) * 100.0, 100.0),
                "disc_i": _iunits(disc, 100.0),
                "cnt": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            }
        )
        return t2.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty_i", "sum"), ("base_i", "sum"), ("dp_i", "sum"),
             ("disc_i", "sum"), ("cnt", "sum")]
        )

    parts = (
        _t(sf_dir, "lineitem",
           ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
            "l_discount", "l_shipdate"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    g = parts.groupby(["l_returnflag", "l_linestatus"], as_index=False).sum()
    cnt = g["cnt_sum"].to_numpy().astype(np.float64)
    out = pd.DataFrame(
        {
            "l_returnflag": g["l_returnflag"],
            "l_linestatus": g["l_linestatus"],
            "sum_qty": g["qty_i_sum"].to_numpy() / 100.0,
            "sum_base_price": g["base_i_sum"].to_numpy() / 100.0,
            "sum_disc_price": g["dp_i_sum"].to_numpy() / 10000.0,
            "avg_qty": g["qty_i_sum"].to_numpy() / 100.0 / cnt,
            "avg_price": g["base_i_sum"].to_numpy() / 100.0 / cnt,
            "avg_disc": g["disc_i_sum"].to_numpy() / 100.0 / cnt,
            "count_order": g["cnt_sum"].astype("int64"),
        }
    ).sort_values(["l_returnflag", "l_linestatus"])
    return table_from_pandas(out)


def q1_oracle_sql() -> str:
    return """
    WITH l AS (
      SELECT l_returnflag, l_linestatus,
             CAST(floor(l_quantity * 100.0 + 0.5) AS BIGINT)       AS qty_i,
             CAST(floor(l_extendedprice * 100.0 + 0.5) AS BIGINT)  AS base_i,
             CAST(floor(l_extendedprice * (1.0 - l_discount) * 100.0 * 100.0 + 0.5) AS BIGINT) AS dp_i,
             CAST(floor(l_discount * 100.0 + 0.5) AS BIGINT)       AS disc_i
      FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-01')
    SELECT l_returnflag, l_linestatus,
           CAST(sum(qty_i) AS DOUBLE) / 100.0                      AS sum_qty,
           CAST(sum(base_i) AS DOUBLE) / 100.0                     AS sum_base_price,
           CAST(sum(dp_i) AS DOUBLE) / 10000.0                     AS sum_disc_price,
           CAST(sum(qty_i) AS DOUBLE) / 100.0 / count(*)           AS avg_qty,
           CAST(sum(base_i) AS DOUBLE) / 100.0 / count(*)          AS avg_price,
           CAST(sum(disc_i) AS DOUBLE) / 100.0 / count(*)          AS avg_disc,
           CAST(count(*) AS BIGINT)                                AS count_order
    FROM l GROUP BY l_returnflag, l_linestatus
    ORDER BY l_returnflag, l_linestatus
    """


def revenue_by_nation(sf_dir: str) -> pa.Table:
    """orders ⋈ customer ⋈ nation → revenue per nation.

    nation (25 rows) is always broadcast; customer is broadcast only
    while the ``_broadcast_ok`` size gate holds (ray.put once, numpy
    searchsorted per batch) — above the budget it switches to a
    hash-partitioned ``Dataset.join`` on custkey. orders streams either
    way; both plans are pinned output-equal by pytest.
    """
    import ray

    nation = _t(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    n_name = dict(zip(nation["n_nationkey"], nation["n_name"]))
    orders = _t(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    if _broadcast_ok(sf_dir, "customer"):
        cust = _t(sf_dir, "customer", ["c_custkey", "c_nationkey"]).to_pandas()
        cust_sorted = cust.sort_values("c_custkey")
        ref = ray.put(
            (
                cust_sorted["c_custkey"].to_numpy(),
                cust_sorted["c_nationkey"].map(n_name).to_numpy(),
            )
        )

        def partial(t: pa.Table) -> pa.Table:
            keys, names = ray.get(ref)
            ck = t["o_custkey"].to_numpy()
            price = t["o_totalprice"].to_numpy()
            pos = np.clip(np.searchsorted(keys, ck), 0, len(keys) - 1)
            valid = keys[pos] == ck
            t2 = pa.table(
                {
                    "n_name": pa.array(names[pos][valid]),
                    "rev_i": _iunits(price[valid], 100.0),
                    "n_orders": pa.array(np.ones(int(valid.sum()), dtype=np.int64)),
                }
            )
            return t2.group_by("n_name").aggregate(
                [("rev_i", "sum"), ("n_orders", "sum")]
            )

        joined = orders
    else:
        import ray.data as rd  # noqa: F401  (symmetry with other join ops)

        cust_ds = _t(sf_dir, "customer", ["c_custkey", "c_nationkey"])
        n_parts = max(2, min(16, int(ray.cluster_resources().get("CPU", 4))))
        nsort = nation.sort_values("n_nationkey")
        nref = ray.put((nsort["n_nationkey"].to_numpy(),
                        nsort["n_name"].to_numpy()))

        def partial(t: pa.Table) -> pa.Table:
            nkeys, nnames = ray.get(nref)
            nk = t["c_nationkey"].to_numpy()
            price = t["o_totalprice"].to_numpy()
            pos = np.clip(np.searchsorted(nkeys, nk), 0, len(nkeys) - 1)
            t2 = pa.table(
                {
                    "n_name": pa.array(nnames[pos]),
                    "rev_i": _iunits(price, 100.0),
                    "n_orders": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                }
            )
            return t2.group_by("n_name").aggregate(
                [("rev_i", "sum"), ("n_orders", "sum")]
            )

        joined = orders.join(cust_ds, join_type="inner",
                             num_partitions=n_parts,
                             on=("o_custkey",), right_on=("c_custkey",))

    parts = joined.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("n_name", as_index=False).sum()
    out = pd.DataFrame(
        {
            "n_name": g["n_name"],
            "revenue": g["rev_i_sum"].to_numpy() / 100.0,
            "n_orders": g["n_orders_sum"].astype("int64"),
        }
    ).sort_values("n_name")
    return table_from_pandas(out)


def revenue_by_nation_sql() -> str:
    return """
    SELECT n_name,
           CAST(sum(CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT)) AS DOUBLE) / 100.0 AS revenue,
           CAST(count(*) AS BIGINT) AS n_orders
    FROM orders JOIN customer ON o_custkey = c_custkey
                JOIN nation   ON c_nationkey = n_nationkey
    GROUP BY n_name ORDER BY n_name
    """


def _topk_desc(ds, val_col: str, key_col: str, k: int) -> pd.DataFrame:
    """Top-k by (val desc, key asc) WITHOUT a global sort: per-block partial
    top-k inside map_batches (each block emits ≤ k rows), then a driver
    merge of the tiny partials — the post-groupby Dataset never moves
    through a second all-to-all sort shuffle."""

    def block_topk(t: pa.Table) -> pa.Table:
        if t.num_rows > k:
            order = np.lexsort((t[key_col].to_numpy(),
                                -t[val_col].to_numpy()))[:k]
            t = t.take(pa.array(order))
        return t

    parts = ds.map_batches(block_topk, batch_format="pyarrow").to_pandas()
    order = np.lexsort((parts[key_col].to_numpy(),
                        -parts[val_col].to_numpy()))[:k]
    return parts.iloc[order].reset_index(drop=True)


def top_customers_by_spend(sf_dir: str, k: int = 10) -> pa.Table:
    """Real-cardinality groupby (Ray shuffle) + partial top-k (L2 analogue).

    Spend accumulates as int cents (exact, order-independent) so the sort
    key and output are deterministic; the top-k is per-block partials +
    driver merge, not a global sort."""
    from ray.data.aggregate import Count, Sum

    def to_units(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": t["o_custkey"],
                "spend_i": _iunits(t["o_totalprice"].to_numpy(), 100.0),
            }
        )

    agg = (
        _t(sf_dir, "orders", ["o_custkey", "o_totalprice"])
        .map_batches(to_units, batch_format="pyarrow")
        .groupby("o_custkey")
        .aggregate(Sum("spend_i", alias_name="spend_i"),
                   Count(alias_name="n_orders"))
    )
    df = _topk_desc(agg, "spend_i", "o_custkey", k)
    out = pd.DataFrame(
        {
            "o_custkey": df["o_custkey"],
            "total_spend": df["spend_i"].to_numpy() / 100.0,
            "n_orders": df["n_orders"].astype("int64"),
        }
    )
    return table_from_pandas(out)


def top_customers_sql(k: int = 10) -> str:
    return f"""
    SELECT o_custkey,
           CAST(sum(CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT)) AS DOUBLE) / 100.0 AS total_spend,
           CAST(count(*) AS BIGINT) AS n_orders
    FROM orders GROUP BY o_custkey
    ORDER BY sum(CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT)) DESC, o_custkey LIMIT {k}
    """


def order_lineitem_join_stats(sf_dir: str) -> pa.Table:
    """Both-sides-large join: lineitem ⋈ orders via Dataset.join
    (hash-partitioned), then order-priority rollup of line revenue."""
    import ray

    li = _t(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    orders = _t(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    # CPU-sized like the sibling joins: Ray Data reserves memory for each
    # hash-shuffle aggregator, and a fixed 16 outgrows small clusters
    n_parts = max(2, min(16, int(ray.cluster_resources().get("CPU", 4))))
    joined = li.join(
        orders, join_type="inner", num_partitions=n_parts,
        on=("l_orderkey",), right_on=("o_orderkey",),
    )

    def partial(t: pa.Table) -> pa.Table:
        ext = t["l_extendedprice"].to_numpy()
        disc = t["l_discount"].to_numpy()
        t2 = pa.table(
            {
                "o_orderpriority": t["o_orderpriority"],
                "rev_i": _iunits(ext * (1.0 - disc) * 100.0, 100.0),
                "n_lines": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            }
        )
        return t2.group_by("o_orderpriority").aggregate(
            [("rev_i", "sum"), ("n_lines", "sum")]
        )

    parts = joined.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("o_orderpriority", as_index=False).sum()
    out = pd.DataFrame(
        {
            "o_orderpriority": g["o_orderpriority"],
            "revenue": g["rev_i_sum"].to_numpy() / 10000.0,
            "n_lines": g["n_lines_sum"].astype("int64"),
        }
    ).sort_values("o_orderpriority")
    return table_from_pandas(out)


def order_lineitem_join_sql() -> str:
    return """
    SELECT o_orderpriority,
           CAST(sum(CAST(floor(l_extendedprice * (1.0 - l_discount) * 100.0 * 100.0 + 0.5) AS BIGINT)) AS DOUBLE) / 10000.0 AS revenue,
           CAST(count(*) AS BIGINT) AS n_lines
    FROM lineitem JOIN orders ON l_orderkey = o_orderkey
    GROUP BY o_orderpriority ORDER BY o_orderpriority
    """


def events_hourly(sf_dir: str) -> pa.Table:
    """Tumbling 1-hour window per event_type over the events stream table
    (streaming-shaped workload → event-time bucket groupby; ray_guide
    'Streaming-shaped workloads'). Bounded group space → partial + combine."""

    def partial(t: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(t["ts"], unit="hour")
        t2 = pa.table(
            {
                "event_type": t["event_type"],
                "hour": hour,
                "n_events": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                "val_i": _iunits(t["value"].to_numpy(), 100.0),
            }
        )
        return t2.group_by(["event_type", "hour"]).aggregate(
            [("n_events", "sum"), ("val_i", "sum")]
        )

    parts = (
        _t(sf_dir, "events", ["ts", "event_type", "value"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    g = parts.groupby(["event_type", "hour"], as_index=False).sum()
    out = pd.DataFrame(
        {
            "event_type": g["event_type"],
            "hour": g["hour"],
            "n_events": g["n_events_sum"].astype("int64"),
            "sum_value": g["val_i_sum"].to_numpy() / 100.0,
        }
    ).sort_values(["event_type", "hour"])
    return table_from_pandas(out)


def events_hourly_sql() -> str:
    return """
    SELECT event_type, date_trunc('hour', ts) AS hour,
           CAST(count(*) AS BIGINT) AS n_events,
           CAST(sum(CAST(floor(value * 100.0 + 0.5) AS BIGINT)) AS DOUBLE) / 100.0 AS sum_value
    FROM events GROUP BY event_type, date_trunc('hour', ts)
    ORDER BY event_type, hour
    """


def events_hourly_moving_avg(sf_dir: str, window: int = 3) -> pa.Table:
    """Sliding-window aggregate (window-function family): 3-bucket moving
    average of hourly event value per event_type.

    The distributed part is the tumbling-hour rollup (identical plan to
    events_hourly — partial + combine over a bounded bucket space); the
    window pass then runs over the pre-aggregated rollup, whose size is
    bounded by hours × types, not event volume, so a vectorized driver
    rolling-sum is the scale-correct plan (a per-event shuffle would be
    strictly worse). Sums stay int64 until one final division mirrored in
    the oracle's window expression."""

    def partial(t: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(t["ts"], unit="hour")
        t2 = pa.table(
            {
                "event_type": t["event_type"],
                "hour": hour,
                "n_events": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                "val_i": _iunits(t["value"].to_numpy(), 100.0),
            }
        )
        return t2.group_by(["event_type", "hour"]).aggregate(
            [("n_events", "sum"), ("val_i", "sum")]
        )

    parts = (
        _t(sf_dir, "events", ["ts", "event_type", "value"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    g = (
        parts.groupby(["event_type", "hour"], as_index=False)
        .sum()
        .sort_values(["event_type", "hour"])
        .reset_index(drop=True)
    )
    vi = g["val_i_sum"].to_numpy()
    ne = g["n_events_sum"].to_numpy()
    # per-type rolling sums over the ordered hour buckets
    ma_vi = np.empty(len(g), dtype=np.int64)
    ma_ne = np.empty(len(g), dtype=np.int64)
    for _, idx in g.groupby("event_type").indices.items():
        v, n = vi[idx], ne[idx]
        cv, cn = np.concatenate(([0], v.cumsum())), np.concatenate(([0], n.cumsum()))
        lo = np.maximum(np.arange(len(v)) - (window - 1), 0)
        hi = np.arange(len(v)) + 1
        ma_vi[idx] = cv[hi] - cv[lo]
        ma_ne[idx] = cn[hi] - cn[lo]
    out = pd.DataFrame(
        {
            "event_type": g["event_type"],
            "hour": g["hour"],
            "n_events": ne.astype(np.int64),
            "sum_value": vi / 100.0,
            "ma_value": ma_vi.astype(np.float64) / 100.0 / ma_ne,
        }
    )
    return table_from_pandas(out)


def events_hourly_moving_avg_sql(window: int = 3) -> str:
    p = window - 1
    return f"""
    WITH h AS (
      SELECT event_type, date_trunc('hour', ts) AS hour,
             CAST(count(*) AS BIGINT) AS n_events,
             sum(CAST(floor(value * 100.0 + 0.5) AS BIGINT)) AS val_i
      FROM events GROUP BY 1, 2)
    SELECT event_type, hour, n_events,
           CAST(val_i AS DOUBLE) / 100.0 AS sum_value,
           CAST(sum(val_i) OVER w AS DOUBLE) / 100.0
             / sum(n_events) OVER w AS ma_value
    FROM h
    WINDOW w AS (PARTITION BY event_type ORDER BY hour
                 ROWS BETWEEN {p} PRECEDING AND CURRENT ROW)
    ORDER BY event_type, hour
    """


def events_user_distinct(sf_dir: str) -> pa.Table:
    """Exact count(DISTINCT user) per event_type in ONE scan + ONE shuffle:
    per-batch unique (type, user) pairs with partial event counts, a
    hash-shuffled groupby on the pair (global dedup, carrying the count
    sum), then per-batch partials over the deduped pairs — the final
    driver combine sees only rows bounded by the type count."""
    from ray.data.aggregate import Sum

    def pair_partial(t: pa.Table) -> pa.Table:
        t2 = pa.table(
            {
                "event_type": t["event_type"],
                "user_id": t["user_id"],
                "cnt": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            }
        )
        return t2.group_by(["event_type", "user_id"]).aggregate([("cnt", "sum")])

    def type_partial(t: pa.Table) -> pa.Table:
        t2 = pa.table(
            {
                "event_type": t["event_type"],
                "n_users": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                "n_events": t["cnt"],
            }
        )
        return t2.group_by("event_type").aggregate(
            [("n_users", "sum"), ("n_events", "sum")]
        )

    parts = (
        _t(sf_dir, "events", ["event_type", "user_id"])
        .map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["event_type", "user_id"])
        .aggregate(Sum("cnt_sum", alias_name="cnt"))
        .map_batches(type_partial, batch_format="pyarrow")
        .to_pandas()
    )
    g = parts.groupby("event_type", as_index=False).sum().sort_values("event_type")
    out = pd.DataFrame(
        {
            "event_type": g["event_type"],
            "n_users": g["n_users_sum"].astype("int64"),
            "n_events": g["n_events_sum"].astype("int64"),
        }
    )
    return table_from_pandas(out)


def events_user_distinct_sql() -> str:
    return """
    SELECT event_type,
           CAST(count(DISTINCT user_id) AS BIGINT) AS n_users,
           CAST(count(*) AS BIGINT) AS n_events
    FROM events GROUP BY event_type ORDER BY event_type
    """


def top_users_by_value(sf_dir: str, k: int = 25) -> pa.Table:
    """Per-user rollup (real-cardinality Ray groupby shuffle) + per-block
    partial top-k merged on the driver (no global sort shuffle)."""
    from ray.data.aggregate import Count, Sum

    def to_units(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t["user_id"],
                "val_i": _iunits(t["value"].to_numpy(), 100.0),
            }
        )

    agg = (
        _t(sf_dir, "events", ["user_id", "value"])
        .map_batches(to_units, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("val_i", alias_name="val_i"),
                   Count(alias_name="n_events"))
    )
    df = _topk_desc(agg, "val_i", "user_id", k)
    out = pd.DataFrame(
        {
            "user_id": df["user_id"],
            "total_value": df["val_i"].to_numpy() / 100.0,
            "n_events": df["n_events"].astype("int64"),
        }
    )
    return table_from_pandas(out)


def top_users_by_events(sf_dir: str, k: int = 10) -> pa.Table:
    """Exact top-k users by event COUNT (the oracled twin of the
    Misra-Gries sketch ``sketches.events_user_heavy_hitters``): per-user
    count via one hash-shuffled groupby, partial top-k merged on the
    driver. Tiebreak: count DESC, user_id ASC."""
    from ray.data.aggregate import Count

    agg = (
        _t(sf_dir, "events", ["user_id"])
        .groupby("user_id")
        .aggregate(Count(alias_name="n_events"))
    )
    df = _topk_desc(agg, "n_events", "user_id", k)
    out = pd.DataFrame({
        "user_id": df["user_id"],
        "n_events": df["n_events"].astype("int64"),
    })
    return table_from_pandas(out)


def top_users_by_events_sql(k: int = 10) -> str:
    return f"""
    SELECT user_id, CAST(count(*) AS BIGINT) AS n_events
    FROM events GROUP BY user_id
    ORDER BY count(*) DESC, user_id LIMIT {k}
    """


def top_users_sql(k: int = 25) -> str:
    return f"""
    SELECT user_id,
           CAST(sum(CAST(floor(value * 100.0 + 0.5) AS BIGINT)) AS DOUBLE) / 100.0 AS total_value,
           CAST(count(*) AS BIGINT) AS n_events
    FROM events GROUP BY user_id
    ORDER BY sum(CAST(floor(value * 100.0 + 0.5) AS BIGINT)) DESC, user_id LIMIT {k}
    """


def parts_by_brand(sf_dir: str) -> pa.Table:
    """Simple dimension rollup (groupby + avg) — avg from exact int cents."""
    from ray.data.aggregate import Count, Sum

    def to_units(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_brand": t["p_brand"],
                "price_i": _iunits(t["p_retailprice"].to_numpy(), 100.0),
            }
        )

    agg = (
        _t(sf_dir, "part", ["p_brand", "p_retailprice"])
        .map_batches(to_units, batch_format="pyarrow")
        .groupby("p_brand")
        .aggregate(Count(alias_name="n_parts"),
                   Sum("price_i", alias_name="price_i"))
        .sort("p_brand")
    )
    df = agg.to_pandas()
    n = df["n_parts"].to_numpy().astype(np.float64)
    out = pd.DataFrame(
        {
            "p_brand": df["p_brand"],
            "n_parts": df["n_parts"].astype("int64"),
            "avg_price": df["price_i"].to_numpy() / 100.0 / n,
        }
    )
    return table_from_pandas(out)


def parts_by_brand_sql() -> str:
    return """
    SELECT p_brand, CAST(count(*) AS BIGINT) AS n_parts,
           CAST(sum(CAST(floor(p_retailprice * 100.0 + 0.5) AS BIGINT)) AS DOUBLE) / 100.0 / count(*) AS avg_price
    FROM part GROUP BY p_brand ORDER BY p_brand
    """


def _events_group_topk(t: pa.Table, k: int) -> pa.Table:
    """Per-user top-k by (value DESC, event_id): the shared
    ``group_ranked_head`` kernel over this table's columns."""
    from raycrawl.kernels import group_ranked_head

    uid = t["user_id"].to_numpy()
    val = t["value"].to_numpy()
    eid = t["event_id"].to_numpy()
    idx, rnk = group_ranked_head(uid, (eid, -val), k)
    return pa.table(
        {
            "user_id": pa.array(uid[idx], pa.int64()),
            "rnk": pa.array(rnk, pa.int64()),
            "event_id": pa.array(eid[idx], pa.int64()),
            "value": pa.array(val[idx], pa.float64()),
        }
    )


def top_events_per_user(sf_dir: str, k: int = 3) -> pa.Table:
    """Grouped top-k — the window-function analogue
    (ROW_NUMBER() OVER (PARTITION BY user ORDER BY value DESC, event_id)).

    Two-stage combiner plan: per-batch partial top-k per user inside
    map_batches (each block shrinks to ≤ k rows per user — the shuffle
    input is bounded by k × users, not event volume), then ONE
    hash(user)%P exchange whose per-PARTITION finalize ranks every user
    in it at once (``group_ranked_head`` is multi-group vectorized — the
    same kernel both stages share; never one Python call per user).
    ``value`` is copied verbatim (no float arithmetic), so the driver's
    value hash is deterministic. Tiebreak: value DESC, event_id ASC.
    """
    from raycrawl.sessions import by_user_parts

    final = (
        by_user_parts(
            _t(sf_dir, "events", ["event_id", "user_id", "value"])
            .map_batches(
                lambda t: _events_group_topk(t, k).drop_columns(["rnk"]),
                batch_format="pyarrow"))
        .map_groups(lambda t: _events_group_topk(t, k),
                    batch_format="pyarrow")
        .to_pandas()
    )
    out = final.sort_values(["user_id", "rnk"]).reset_index(drop=True)
    return table_from_pandas(out)


def top_events_per_user_sql(k: int = 3) -> str:
    return f"""
    SELECT user_id, rnk, event_id, value FROM (
      SELECT user_id, event_id, value,
             ROW_NUMBER() OVER (PARTITION BY user_id
                                ORDER BY value DESC, event_id) AS rnk
      FROM events) WHERE rnk <= {k}
    ORDER BY user_id, rnk
    """


def customers_without_urgent_orders(sf_dir: str) -> pa.Table:
    """Anti-semi-join: customers with no '1-URGENT'-priority order.

    Same broadcast anti-join shape as the crawl's seen-filter prefilter
    (SURVEY §2.4 J1): the build side is DISTINCT custkeys of the filtered
    fact table — bounded by customer cardinality, not order volume — built
    with per-batch np.unique partials, unioned once on the driver, shipped
    via a single ray.put; probe batches drop matches with a searchsorted
    membership test. No shuffle on either side.
    """
    import ray

    def urgent_keys(t: pa.Table) -> pa.Table:
        m = pc.equal(t["o_orderpriority"], "1-URGENT")
        ck = t.filter(m)["o_custkey"].to_numpy()
        return pa.table({"k": pa.array(np.unique(ck), pa.int64())})

    cust = _t(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal"])

    if _broadcast_ok(sf_dir, "customer"):
        # the distinct urgent-key array is bounded by |customer|, so the
        # customer gate bounds the broadcast side too
        parts = (
            _t(sf_dir, "orders", ["o_custkey", "o_orderpriority"])
            .map_batches(urgent_keys, batch_format="pyarrow")
            .to_pandas()
        )
        have = np.unique(parts["k"].to_numpy())
        ref = ray.put(have)

        def probe(t: pa.Table) -> pa.Table:
            keys = ray.get(ref)
            ck = t["c_custkey"].to_numpy()
            pos = np.clip(np.searchsorted(keys, ck), 0, max(len(keys) - 1, 0))
            hit = (keys[pos] == ck) if len(keys) else np.zeros(len(ck), bool)
            return t.filter(pa.array(~hit))

        out = (
            cust.map_batches(probe, batch_format="pyarrow")
            .to_pandas()
            .sort_values("c_custkey")
            .reset_index(drop=True)
        )
        return table_from_pandas(out)

    # above the gate: distributed anti-join = left_outer Dataset.join on
    # the deduped urgent-key Dataset, keep the null (non-matched) side
    n_parts = max(2, min(16, int(ray.cluster_resources().get("CPU", 4))))
    # the join coalesces the key columns, so the right side carries an
    # explicit match flag; anti = rows whose flag is null after left_outer
    urgent_ds = (
        _t(sf_dir, "orders", ["o_custkey", "o_orderpriority"])
        .map_batches(urgent_keys, batch_format="pyarrow")
        .groupby("k").map_groups(
            lambda g: g.slice(0, 1).append_column(
                "hit", pa.array(np.ones(min(1, g.num_rows), np.int64))),
            batch_format="pyarrow")
    )
    joined = cust.join(urgent_ds, join_type="left_outer",
                       num_partitions=n_parts,
                       on=("c_custkey",), right_on=("k",))
    out = (
        joined.map_batches(
            lambda t: t.filter(pc.is_null(t["hit"]))
                       .select(["c_custkey", "c_name", "c_acctbal"]),
            batch_format="pyarrow")
        .to_pandas()
        .sort_values("c_custkey")
        .reset_index(drop=True)
    )
    return table_from_pandas(out)


def customers_without_urgent_orders_sql() -> str:
    return """
    SELECT c_custkey, c_name, c_acctbal FROM customer c
    WHERE NOT EXISTS (SELECT 1 FROM orders o
                      WHERE o.o_custkey = c.c_custkey
                        AND o.o_orderpriority = '1-URGENT')
    ORDER BY c_custkey
    """


def documents_hash_sample(sf_dir: str, pct: int = 20) -> pa.Table:
    """Deterministic hash sampling: keep a document iff
    ((doc_id % 2^32) * 2654435761) % 2^32 < 2^32 × pct/100 (Knuth
    multiplicative hash). Embarrassingly parallel — a stateless per-batch
    filter, stable across runs, partitionings and cluster sizes, and
    exactly mirrored in SQL. The id is reduced mod 2^32 BEFORE the
    multiply — algebraically identical mod 2^32, and it keeps the product
    under 2^63.9 so numpy uint64 never wraps and the oracle's HUGEINT
    never overflows: both sides are exact for every doc_id < 2^63
    (ADVICE r2: the old int64 form diverged from the oracle above
    ~3.47e9)."""
    thresh = np.uint64((1 << 32) * pct // 100)

    def pick(t: pa.Table) -> pa.Table:
        h = knuth_key32(t["doc_id"].to_numpy())
        return t.filter(pa.array(h < thresh))

    out = (
        _t(sf_dir, "documents", ["doc_id", "lang", "source", "n_chars"])
        .map_batches(pick, batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    return table_from_pandas(out)


def documents_shuffled(sf_dir: str, seed: int = 7) -> pa.Table:
    """Reproducible global shuffle — the pre-training permutation step.
    Randomized order is produced DETERMINISTICALLY by sorting on a
    seed-salted Knuth hash of doc_id (ties broken by doc_id), so the
    permutation is identical across runs, partitionings and cluster
    sizes, and the SQL oracle reproduces it exactly — none of which a
    random_shuffle() gives you. Physically this is one all-to-all range
    sort of the id+key columns; the mod-2^32 reduction keeps both sides
    exact for every doc_id < 2^63 (same algebra as documents_hash_sample).
    Output carries the shuffle position so equality is order-sensitive."""
    def key(t: pa.Table) -> pa.Table:
        h = knuth_key32(t["doc_id"].to_numpy(), seed)
        return t.append_column("shuffle_key", pa.array(h.astype(np.int64)))

    out = (
        _t(sf_dir, "documents", ["doc_id", "lang"])
        .map_batches(key, batch_format="pyarrow")
        .sort(["shuffle_key", "doc_id"])
        .to_pandas()
        .reset_index(drop=True)
    )
    out["pos"] = np.arange(len(out), dtype=np.int64)
    return table_from_pandas(
        out[["pos", "doc_id", "lang", "shuffle_key"]])


def documents_shuffled_sql(seed: int = 7) -> str:
    salt = (seed * 2654435761) % (1 << 32)
    return f"""
    SELECT CAST(row_number() OVER w - 1 AS BIGINT) AS pos,
           doc_id, lang,
           CAST(CAST(xor(CAST(doc_id % 4294967296 AS BIGINT), {salt})
                     AS HUGEINT) * 2654435761 % 4294967296 AS BIGINT)
             AS shuffle_key
    FROM documents
    WINDOW w AS (ORDER BY CAST(xor(CAST(doc_id % 4294967296 AS BIGINT),
                                   {salt}) AS HUGEINT)
                          * 2654435761 % 4294967296, doc_id)
    ORDER BY pos
    """


def pack_sequences(sf_dir: str, budget: int = 2048, seed: int = 7,
                   bucket_bits: int = 8) -> pa.Table:
    """Concat-and-chunk sequence packing — the pre-training step after the
    reproducible shuffle: lay the shuffled corpus out as ONE conceptual
    stream and cut it into fixed-``budget``-unit training sequences. Each
    doc gets its stream ``start_off`` (exclusive prefix sum of lengths in
    shuffle order), its first ``pack_id`` (start_off // budget) and
    ``spans`` (how many packs the doc straddles) — exactly the assignment
    a tokenizer worker needs to emit pack files independently.

    Distributed shape — a global PREFIX SUM without a global sort:
    the shuffle key is a uniform 32-bit hash, so its top ``bucket_bits``
    bits range-partition the global order into 2^bits contiguous,
    balanced buckets. Pass 1 computes per-bucket length totals as
    map_batches partials (zero shuffle, 2^bits rows to the driver);
    the driver's exclusive scan over ordered buckets (tiny) broadcasts
    each bucket's stream offset. Pass 2 is ONE hash shuffle
    (groupby(bucket)), each group cumsums its rows in shuffle order and
    adds its bucket offset — no stage ever sees more than one bucket.
    At 100 TB raise ``bucket_bits`` so a bucket fits a worker (uniform
    hash ⇒ even buckets; 2^16 driver rows is still trivial).

    Lengths are ``n_chars`` (the table's materialized length column) so
    the SQL oracle (SUM() OVER the same key order) is exact."""
    ds, _total = _stream_offsets(sf_dir, seed, bucket_bits)

    def fin(t: pa.Table) -> pa.Table:
        start = t["start_off"].to_numpy()
        ln = t["n_chars"].to_numpy()
        end = start + ln
        pack = start // budget
        last = np.maximum(end - 1, start) // budget  # len-0 docs span 1
        return pa.table({
            "doc_id": t["doc_id"],
            "start_off": t["start_off"],
            "pack_id": pa.array(pack),
            "spans": pa.array(last - pack + 1)})

    out = (ds.map_batches(fin, batch_format="pyarrow")
             .to_pandas()
             .sort_values("start_off").reset_index(drop=True))
    return table_from_pandas(out)


def _stream_offsets(sf_dir: str, seed: int, bucket_bits: int):
    """Shared distributed-prefix-sum layout for the sequence-packing and
    balanced-shard lanes: every document's EXCLUSIVE stream offset in
    reproducible-shuffle order (the bucket plan is documented on
    ``pack_sequences``). Returns ``(dataset, total_chars)`` where the
    dataset's rows are ``(doc_id, n_chars, start_off)`` — int64, exact —
    and ``total_chars`` is the global length sum (free: it is the
    inclusive scan's last element, already on the driver)."""
    import ray

    shift = np.uint64(32 - bucket_bits)
    nb = 1 << bucket_bits

    def keyed(t: pa.Table) -> pa.Table:
        h = knuth_key32(t["doc_id"].to_numpy(), seed)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_chars": t["n_chars"],
            "shuffle_key": pa.array(h.astype(np.int64)),
            "bucket": pa.array((h >> shift).astype(np.int64)),
        })

    ds = (_t(sf_dir, "documents", ["doc_id", "n_chars"])
          .map_batches(keyed, batch_format="pyarrow"))

    def bucket_partial(t: pa.Table) -> pa.Table:
        b = t["bucket"].to_numpy()
        ln = t["n_chars"].to_numpy()
        tot = np.zeros(nb, dtype=np.int64)  # exact int accumulation
        np.add.at(tot, b, ln.astype(np.int64))
        nz = np.flatnonzero(tot)
        return pa.table({"bucket": pa.array(nz.astype(np.int64)),
                         "total": pa.array(tot[nz].astype(np.int64))})

    parts = ds.map_batches(bucket_partial, batch_format="pyarrow").to_pandas()
    totals = np.zeros(nb, dtype=np.int64)
    np.add.at(totals, parts["bucket"].to_numpy(), parts["total"].to_numpy())
    offsets = np.zeros(nb, dtype=np.int64)
    np.cumsum(totals[:-1], out=offsets[1:])  # exclusive scan
    off_ref = ray.put(offsets)

    def offs_group(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0:
            return pa.table({c: pa.array([], pa.int64())
                             for c in ("doc_id", "n_chars", "start_off")})
        g = g.sort_values(["shuffle_key", "doc_id"])
        ln = g["n_chars"].to_numpy().astype(np.int64)
        base = int(ray.get(off_ref)[int(g["bucket"].iloc[0])])
        start = base + np.concatenate(([0], np.cumsum(ln[:-1])))
        # Arrow output keeps block schemas metadata-free (hashable)
        return pa.table({
            "doc_id": pa.array(g["doc_id"].to_numpy().astype(np.int64)),
            "n_chars": pa.array(ln), "start_off": pa.array(start)})

    out = ds.groupby("bucket").map_groups(offs_group, batch_format="pandas")
    return out, int(totals.sum())


def documents_balanced_shards(sf_dir: str, n_shards: int = 16,
                              seed: int = 7, bucket_bits: int = 8) -> pa.Table:
    """Token-balanced contiguous shard layout — the export-time sibling of
    ``pack_sequences``: cut the shuffled corpus stream into ``n_shards``
    ranges of ~equal total characters (so every writer/trainer rank gets
    the same byte budget, not the same doc COUNT — doc-count sharding
    skews badly under heavy-tailed doc lengths). Each doc's shard is
    ``min(n_shards-1, start_off * n_shards // total_chars)`` over the same
    distributed prefix sum (one partial pass + one bucket shuffle; the
    global total is the scan's last element, free on the driver).
    Integer-exact — and oracle-equal — while
    ``total_chars * n_shards < 2^63`` (100 TB × 1024 shards ≈ 2^57: safe).
    Output is the per-doc assignment (doc_id order) so the driver hash
    pins every placement, not just the per-shard totals."""
    ds, total = _stream_offsets(sf_dir, seed, bucket_bits)
    k = int(n_shards)
    tot = max(1, total)

    def fin(t: pa.Table) -> pa.Table:
        start = t["start_off"].to_numpy()
        shard = np.minimum(k - 1, start * k // tot)
        return pa.table({
            "doc_id": t["doc_id"], "n_chars": t["n_chars"],
            "start_off": t["start_off"], "shard": pa.array(shard)})

    out = (ds.map_batches(fin, batch_format="pyarrow")
             .to_pandas()
             .sort_values("doc_id").reset_index(drop=True))
    return table_from_pandas(out)


def documents_balanced_shards_sql(n_shards: int = 16, seed: int = 7) -> str:
    salt = (seed * 2654435761) % (1 << 32)
    key = (f"CAST(xor(CAST(doc_id % 4294967296 AS BIGINT), {salt}) "
           f"AS HUGEINT) * 2654435761 % 4294967296")
    return f"""
    WITH s AS (
      SELECT doc_id, n_chars,
             CAST(coalesce(SUM(n_chars) OVER (
                 ORDER BY {key}, doc_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
               0) AS BIGINT) AS start_off
      FROM documents),
    t AS (SELECT CAST(SUM(n_chars) AS BIGINT) AS tot FROM documents)
    SELECT s.doc_id, CAST(s.n_chars AS BIGINT) AS n_chars, s.start_off,
           CAST(least({n_shards} - 1,
                      s.start_off * {n_shards} // greatest(t.tot, 1))
                AS BIGINT) AS shard
    FROM s, t ORDER BY s.doc_id
    """


def documents_split_assignment(sf_dir: str, test_bp: int = 500,
                               val_bp: int = 500, seed: int = 13) -> pa.Table:
    """Deterministic train/val/test split — the held-out-set step every
    training-data pipeline runs before export. Membership is a pure
    function of ``doc_id`` (seed-salted Knuth hash against basis-point
    thresholds), so the split is stable across runs, partitionings and
    cluster sizes, re-derivable for any doc without a membership table,
    and disjoint by construction. Embarrassingly parallel: a stateless
    per-batch map, zero shuffle. Same mod-2^32 algebra as
    ``documents_shuffled`` keeps Ray and the HUGEINT oracle bit-equal
    for every doc_id < 2^63."""
    t_test = np.uint64(((1 << 32) * test_bp) // 10000)
    t_val = np.uint64(int(t_test) + ((1 << 32) * val_bp) // 10000)

    def assign(t: pa.Table) -> pa.Table:
        h = knuth_key32(t["doc_id"].to_numpy(), seed)
        split = np.full(len(h), "train", dtype=object)
        split[h < t_val] = "val"
        split[h < t_test] = "test"
        return pa.table({"doc_id": t["doc_id"], "lang": t["lang"],
                         "split": pa.array(split, pa.string())})

    out = (
        _t(sf_dir, "documents", ["doc_id", "lang"])
        .map_batches(assign, batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    return table_from_pandas(out)


def documents_split_assignment_sql(test_bp: int = 500, val_bp: int = 500,
                                   seed: int = 13) -> str:
    salt = (seed * 2654435761) % (1 << 32)
    key = (f"CAST(xor(CAST(doc_id % 4294967296 AS BIGINT), {salt}) "
           f"AS HUGEINT) * 2654435761 % 4294967296")
    t_test = ((1 << 32) * test_bp) // 10000
    t_val = t_test + ((1 << 32) * val_bp) // 10000
    return f"""
    SELECT doc_id, lang,
           CASE WHEN {key} < {t_test} THEN 'test'
                WHEN {key} < {t_val} THEN 'val'
                ELSE 'train' END AS split
    FROM documents ORDER BY doc_id
    """


def pack_sequences_sql(budget: int = 2048, seed: int = 7) -> str:
    salt = (seed * 2654435761) % (1 << 32)
    key = (f"CAST(xor(CAST(doc_id % 4294967296 AS BIGINT), {salt}) "
           f"AS HUGEINT) * 2654435761 % 4294967296")
    return f"""
    WITH s AS (
      SELECT doc_id, n_chars,
             CAST(coalesce(SUM(n_chars) OVER (
                 ORDER BY {key}, doc_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
               0) AS BIGINT) AS start_off
      FROM documents)
    SELECT doc_id, start_off,
           start_off // {budget} AS pack_id,
           greatest(start_off + n_chars - 1, start_off) // {budget}
             - start_off // {budget} + 1 AS spans
    FROM s ORDER BY start_off
    """


def events_value_quantiles(sf_dir: str, qs=(0.25, 0.5, 0.75, 0.95)) -> pa.Table:
    """Distributed EXACT quantiles per event_type — no sampling, no sketch.

    The values are 2-decimal fixed-point by construction, so the full value
    distribution compresses losslessly into a (event_type, value_i)
    histogram whose size is bounded by distinct values, not row count:
    per-batch partial counts → Ray hash-shuffled groupby sum → tiny driver
    cumsum per type picking the discrete-quantile rank ceil(q·n)−1 (DuckDB
    ``quantile_disc`` semantics, pinned by test). value_i/100.0 reproduces
    the original doubles bit-for-bit (correctly-rounded division), so the
    driver's value hash matches the oracle exactly."""
    import math

    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        t2 = pa.table(
            {
                "event_type": t["event_type"],
                "value_i": _iunits(t["value"].to_numpy(), 100.0),
                "cnt": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            }
        )
        return t2.group_by(["event_type", "value_i"]).aggregate([("cnt", "sum")])

    hist = (
        _t(sf_dir, "events", ["event_type", "value"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "value_i"])
        .aggregate(Sum("cnt_sum", alias_name="cnt"))
        .to_pandas()
    )
    rows = []
    for et, g in hist.groupby("event_type"):
        g = g.sort_values("value_i")
        cum = g["cnt"].to_numpy().cumsum()
        vals = g["value_i"].to_numpy()
        n = int(cum[-1])
        row = {"event_type": et, "n_events": n}
        for q in qs:
            r = max(0, math.ceil(q * n) - 1)
            row[f"q{int(q * 100)}"] = vals[np.searchsorted(cum, r + 1)] / 100.0
        rows.append(row)
    out = pd.DataFrame(rows).sort_values("event_type").reset_index(drop=True)
    return table_from_pandas(out)


def events_value_quantiles_sql(qs=(0.25, 0.5, 0.75, 0.95)) -> str:
    cols = ",\n           ".join(
        f"quantile_disc(value, {q}) AS q{int(q * 100)}" for q in qs
    )
    return f"""
    SELECT event_type, CAST(count(*) AS BIGINT) AS n_events,
           {cols}
    FROM events GROUP BY event_type ORDER BY event_type
    """


def documents_hash_sample_sql(pct: int = 20) -> str:
    thresh = (1 << 32) * pct // 100
    return f"""
    SELECT doc_id, lang, source, n_chars FROM documents
    WHERE (CAST(doc_id % 4294967296 AS HUGEINT) * 2654435761) % 4294967296
          < {thresh}
    ORDER BY doc_id
    """


def documents_stratified_sample(sf_dir: str, per_lang: int = 40) -> pa.Table:
    """Stratified fixed-size sampling: the ``per_lang`` documents with the
    smallest Knuth hash per language — a deterministic uniform draw whose
    size is equal across strata regardless of how skewed the language
    distribution is (the fixed-rate cousin ``documents_hash_sample`` keeps
    skew; training-data curation usually wants balanced strata).

    Same combiner plan as grouped top-k: per-batch partial bottom-k per
    lang (shuffle input ≤ k × langs per block, never document volume) →
    ``groupby(lang).map_groups`` finalize. The hash order is mirrored in
    SQL (ROW_NUMBER OVER (PARTITION BY lang ORDER BY hash, doc_id))."""

    def bottomk(t: pa.Table, k: int) -> pa.Table:
        from raycrawl.kernels import group_ranked_head

        lang = t["lang"].to_numpy(zero_copy_only=False)
        ids = t["doc_id"].to_numpy()
        # same pre-reduced Knuth hash as documents_hash_sample: exact (and
        # oracle-equal) for every doc_id < 2^63
        h = knuth_key32(ids)
        idx, _ = group_ranked_head(lang, (ids, h), k)
        return pa.table({
            "lang": pa.array(lang[idx], pa.string()),
            "doc_id": pa.array(ids[idx], pa.int64()),
            "n_chars": pa.array(t["n_chars"].to_numpy()[idx], pa.int64()),
        })

    out = (
        _t(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
        .map_batches(lambda t: bottomk(t, per_lang), batch_format="pyarrow")
        .groupby("lang")
        .map_groups(lambda t: bottomk(t, per_lang), batch_format="pyarrow")
        .to_pandas()
        .sort_values(["lang", "doc_id"])
        .reset_index(drop=True)
    )
    return table_from_pandas(out)


def documents_stratified_sample_sql(per_lang: int = 40) -> str:
    return f"""
    SELECT lang, doc_id, n_chars FROM (
      SELECT lang, doc_id, n_chars,
             ROW_NUMBER() OVER (
               PARTITION BY lang
               ORDER BY (CAST(doc_id % 4294967296 AS HUGEINT) * 2654435761)
                        % 4294967296, doc_id) AS rnk
      FROM documents) WHERE rnk <= {per_lang}
    ORDER BY lang, doc_id
    """


def orders_in_top_customer_periods(sf_dir: str, k: int = 5) -> pa.Table:
    """Interval (range) join: total market activity during each top-k
    customer's active period [min(o_orderdate), max(o_orderdate)].

    Build side: top-k customers by total spend (exact int-cent partial
    aggregate → driver top-k) with their date extents — k rows, broadcast
    by closure capture. Probe side: orders stream once; per batch a
    (rows × k) vectorized interval-containment mask (k is small by
    construction, so the mask is the cheap direction of a range join —
    the general N×M case is dedup.py-style bucketing). Intervals overlap,
    so a shuffle-free broadcast probe is the only plan that avoids row
    duplication per matched interval."""
    import ray

    def spend_extent(t: pa.Table) -> pa.Table:
        t2 = pa.table({
            "o_custkey": t["o_custkey"],
            "spend_i": _iunits(t["o_totalprice"].to_numpy(), 100.0),
            "lo": t["o_orderdate"],
            "hi": t["o_orderdate"],
        })
        return t2.group_by("o_custkey").aggregate(
            [("spend_i", "sum"), ("lo", "min"), ("hi", "max")])

    parts = (
        _t(sf_dir, "orders", ["o_custkey", "o_totalprice", "o_orderdate"])
        .map_batches(spend_extent, batch_format="pyarrow")
        .to_pandas()
    )
    g = parts.groupby("o_custkey", as_index=False).agg(
        spend_i=("spend_i_sum", "sum"), lo=("lo_min", "min"), hi=("hi_max", "max"))
    top = g.sort_values(["spend_i", "o_custkey"],
                        ascending=[False, True]).head(k)
    keys = top["o_custkey"].to_numpy()
    los = top["lo"].to_numpy().astype("datetime64[us]").astype(np.int64)
    his = top["hi"].to_numpy().astype("datetime64[us]").astype(np.int64)

    def probe(t: pa.Table) -> pa.Table:
        d = t["o_orderdate"].to_numpy().astype("datetime64[us]").astype(np.int64)
        vi = _iunits(t["o_totalprice"].to_numpy(), 100.0).to_numpy()
        inside = (d[:, None] >= los[None, :]) & (d[:, None] <= his[None, :])
        return pa.table({
            "o_custkey": pa.array(keys, pa.int64()),
            "n_orders": pa.array(inside.sum(axis=0).astype(np.int64)),
            "val_i": pa.array((inside * vi[:, None]).sum(axis=0).astype(np.int64)),
        })

    pr = (
        _t(sf_dir, "orders", ["o_orderdate", "o_totalprice"])
        .map_batches(probe, batch_format="pyarrow")
        .to_pandas()
        .groupby("o_custkey", as_index=False).sum()
    )
    merged = top.merge(pr, on="o_custkey")
    out = pd.DataFrame({
        "o_custkey": merged["o_custkey"].astype("int64"),
        "cust_spend": merged["spend_i"].to_numpy() / 100.0,
        "period_start": merged["lo"],
        "period_end": merged["hi"],
        "n_orders_in_period": merged["n_orders"].astype("int64"),
        "value_in_period": merged["val_i"].to_numpy() / 100.0,
    }).sort_values("o_custkey").reset_index(drop=True)
    return table_from_pandas(out)


def orders_in_top_customer_periods_sql(k: int = 5) -> str:
    return f"""
    WITH spend AS (
      SELECT o_custkey,
             sum(CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT)) AS spend_i,
             min(o_orderdate) AS lo, max(o_orderdate) AS hi
      FROM orders GROUP BY o_custkey),
    top AS (
      SELECT * FROM spend ORDER BY spend_i DESC, o_custkey LIMIT {k})
    SELECT t.o_custkey,
           CAST(t.spend_i AS DOUBLE) / 100.0 AS cust_spend,
           t.lo AS period_start, t.hi AS period_end,
           CAST(count(o.o_orderkey) AS BIGINT) AS n_orders_in_period,
           CAST(sum(CAST(floor(o.o_totalprice * 100.0 + 0.5) AS BIGINT))
                AS DOUBLE) / 100.0 AS value_in_period
    FROM top t JOIN orders o
      ON o.o_orderdate BETWEEN t.lo AND t.hi
    GROUP BY t.o_custkey, t.spend_i, t.lo, t.hi
    ORDER BY t.o_custkey
    """


def top_returned_revenue_customers(sf_dir: str, k: int = 20) -> pa.Table:
    """TPC-H Q10-style 3-way join: revenue lost to returned items per
    customer, top-k. Physical plan varies the join strategies by side
    size: lineitem(R) ⋈ orders is both-sides-large → ``Dataset.join``
    (hash-partitioned); the per-customer aggregate is then bounded by
    customer cardinality, so the customer dimension attaches via the
    broadcast path (ray.put + searchsorted per batch) and top-k is a
    driver heap over the partial-aggregated rows."""
    import ray

    n_parts = max(4, int(ray.cluster_resources().get("CPU", 8)))
    li = (
        _t(sf_dir, "lineitem",
           ["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"])
        .filter(expr="l_returnflag == 'R'")
    )
    orders = _t(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    joined = li.join(orders, join_type="inner", num_partitions=n_parts,
                     on=("l_orderkey",), right_on=("o_orderkey",))

    def partial(t: pa.Table) -> pa.Table:
        ext = t["l_extendedprice"].to_numpy()
        disc = t["l_discount"].to_numpy()
        t2 = pa.table({
            "o_custkey": t["o_custkey"],
            "rev_i": _iunits(ext * (1.0 - disc) * 100.0, 100.0),
            "n_items": pa.array(np.ones(t.num_rows, dtype=np.int64)),
        })
        return t2.group_by("o_custkey").aggregate(
            [("rev_i", "sum"), ("n_items", "sum")])

    parts = joined.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("o_custkey", as_index=False).sum()
    top = g.sort_values(["rev_i_sum", "o_custkey"],
                        ascending=[False, True]).head(k)

    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_name"]).to_pandas()
    merged = top.merge(cust, left_on="o_custkey", right_on="c_custkey")
    out = pd.DataFrame({
        "c_custkey": merged["c_custkey"].astype("int64"),
        "c_name": merged["c_name"],
        "revenue": merged["rev_i_sum"].to_numpy() / 10000.0,
        "n_items": merged["n_items_sum"].astype("int64"),
    }).sort_values(["revenue", "c_custkey"],
                   ascending=[False, True]).reset_index(drop=True)
    return table_from_pandas(out)


def top_returned_revenue_customers_sql(k: int = 20) -> str:
    return f"""
    SELECT c_custkey, c_name,
           CAST(sum(CAST(floor(l_extendedprice * (1.0 - l_discount)
                               * 100.0 * 100.0 + 0.5) AS BIGINT))
                AS DOUBLE) / 10000.0 AS revenue,
           CAST(count(*) AS BIGINT) AS n_items
    FROM lineitem
    JOIN orders   ON l_orderkey = o_orderkey
    JOIN customer ON o_custkey = c_custkey
    WHERE l_returnflag = 'R'
    GROUP BY c_custkey, c_name
    ORDER BY revenue DESC, c_custkey LIMIT {k}
    """


def regional_revenue_by_nation(sf_dir: str, region: str = "ASIA") -> pa.Table:
    """TPC-H Q5-style 5-way join: revenue within one region where the
    ordering customer and the line's supplier share a nation.

    Join-strategy mix by side size: region→nation→customer/supplier are
    all broadcast dimensions (two int64-keyed searchsorted lookups per
    batch — no shuffle); orders pre-filters to in-region customers and
    carries the customer nation; lineitem ⋈ orders is the one real
    shuffle (``Dataset.join``); the co-nation predicate and the bounded
    per-nation aggregate run inside ``map_batches``. Exact int-cent
    revenue mirrored in SQL."""
    import ray

    n_parts = max(4, int(ray.cluster_resources().get("CPU", 8)))
    reg = pq.read_table(os.path.join(sf_dir, "region.parquet")).to_pandas()
    nat = pq.read_table(os.path.join(sf_dir, "nation.parquet")).to_pandas()
    rk = reg.loc[reg["r_name"] == region, "r_regionkey"]
    nat_in = nat[nat["n_regionkey"].isin(rk)]
    nation_name = dict(zip(nat_in["n_nationkey"].astype(int),
                           nat_in["n_name"]))
    nkeys = np.sort(nat_in["n_nationkey"].to_numpy().astype(np.int64))

    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_nationkey"]).to_pandas()
    cust = cust[cust["c_nationkey"].astype(np.int64).isin(nkeys)]
    ckeys = cust["c_custkey"].to_numpy().astype(np.int64)
    cnation = cust["c_nationkey"].to_numpy().astype(np.int64)
    order_c = np.argsort(ckeys)
    ckeys, cnation = ckeys[order_c], cnation[order_c]

    supp = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                         columns=["s_suppkey", "s_nationkey"]).to_pandas()
    skeys = supp["s_suppkey"].to_numpy().astype(np.int64)
    snation = supp["s_nationkey"].to_numpy().astype(np.int64)
    order_s = np.argsort(skeys)
    skeys, snation = skeys[order_s], snation[order_s]

    import ray as _ray
    # broadcast sides here are REGION-FILTERED customer/supplier key maps
    # (~1/5 of each table); above the _broadcast_ok budget this operator
    # would chain two more hash joins exactly like revenue_by_nation's
    # fallback — the gate mechanism and its pinned-equality test live there
    cref = _ray.put((ckeys, cnation))
    sref = _ray.put((skeys, snation))

    def orders_in_region(t: pa.Table) -> pa.Table:
        keys, nation_of = _ray.get(cref)
        ok = t["o_custkey"].to_numpy()
        pos = np.clip(np.searchsorted(keys, ok), 0, max(len(keys) - 1, 0))
        hit = (keys[pos] == ok) if len(keys) else np.zeros(len(ok), bool)
        t = t.filter(pa.array(hit))
        pos = pos[hit]
        return pa.table({
            "o_orderkey": t["o_orderkey"],
            "c_nation": pa.array(nation_of[pos], pa.int64()),
        })

    orders = (
        _t(sf_dir, "orders", ["o_orderkey", "o_custkey"])
        .map_batches(orders_in_region, batch_format="pyarrow")
    )
    li = _t(sf_dir, "lineitem",
            ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])
    joined = li.join(orders, join_type="inner", num_partitions=n_parts,
                     on=("l_orderkey",), right_on=("o_orderkey",))

    def co_nation_partial(t: pa.Table) -> pa.Table:
        keys, nation_of = _ray.get(sref)
        sk = t["l_suppkey"].to_numpy()
        pos = np.clip(np.searchsorted(keys, sk), 0, max(len(keys) - 1, 0))
        hit = (keys[pos] == sk) if len(keys) else np.zeros(len(sk), bool)
        snat = np.where(hit, nation_of[np.minimum(pos, max(len(keys) - 1, 0))], -1)
        m = snat == t["c_nation"].to_numpy()
        t = t.filter(pa.array(m))
        ext = t["l_extendedprice"].to_numpy()
        disc = t["l_discount"].to_numpy()
        t2 = pa.table({
            "nationkey": t["c_nation"],
            "rev_i": _iunits(ext * (1.0 - disc) * 100.0, 100.0),
            "n_lines": pa.array(np.ones(t.num_rows, dtype=np.int64)),
        })
        return t2.group_by("nationkey").aggregate(
            [("rev_i", "sum"), ("n_lines", "sum")])

    parts = joined.map_batches(co_nation_partial,
                               batch_format="pyarrow").to_pandas()
    g = parts.groupby("nationkey", as_index=False).sum()
    out = pd.DataFrame({
        "n_name": [nation_name[int(k)] for k in g["nationkey"]],
        "revenue": g["rev_i_sum"].to_numpy() / 10000.0,
        "n_lines": g["n_lines_sum"].astype("int64"),
    }).sort_values(["revenue", "n_name"],
                   ascending=[False, True]).reset_index(drop=True)
    return table_from_pandas(out)


def regional_revenue_by_nation_sql(region: str = "ASIA") -> str:
    return f"""
    SELECT n_name,
           CAST(sum(CAST(floor(l_extendedprice * (1.0 - l_discount)
                               * 100.0 * 100.0 + 0.5) AS BIGINT))
                AS DOUBLE) / 10000.0 AS revenue,
           CAST(count(*) AS BIGINT) AS n_lines
    FROM customer
    JOIN orders   ON c_custkey = o_custkey
    JOIN lineitem ON l_orderkey = o_orderkey
    JOIN supplier ON l_suppkey = s_suppkey
    JOIN nation   ON c_nationkey = n_nationkey
    JOIN region   ON n_regionkey = r_regionkey
    WHERE r_name = '{region}' AND s_nationkey = c_nationkey
    GROUP BY n_name
    ORDER BY revenue DESC, n_name
    """


def events_ordered_page(sf_dir: str, limit: int = 50, offset: int = 100) -> pa.Table:
    """Ordered pagination over a GLOBAL multi-key sort — the one wide
    operator the other pipelines deliberately avoid (top-k rollups use
    partial-top-k combiners instead). Here the full range-partitioned
    `Dataset.sort((ts, event_id))` IS the point: ordered export is the
    semantics, and `limit(offset+limit)` after a sort only materializes
    leading blocks (streaming take). Offset slicing is driver-side on
    ≤ offset+limit rows."""
    out = (
        _t(sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"])
        .sort(["ts", "event_id"])
        .limit(offset + limit)
        .to_pandas()
        .iloc[offset:]
        .reset_index(drop=True)
    )
    return table_from_pandas(out)


def events_ordered_page_sql(limit: int = 50, offset: int = 100) -> str:
    return f"""
    SELECT event_id, ts, user_id, event_type, value FROM events
    ORDER BY ts, event_id LIMIT {limit} OFFSET {offset}
    """


def revenue_by_brand(sf_dir: str) -> pa.Table:
    """lineitem ⋈ part by partkey with the part dimension broadcast
    (sorted-key searchsorted per batch — the fact table never shuffles),
    rolled up to exact int-cent revenue per brand. The dimension is
    sf-bounded; at the design point the same plan holds as long as the
    (partkey → brand-ordinal) pair array fits a worker heap (~16 B/part),
    else it becomes a Dataset.join like order_lineitem_join_stats."""
    import ray

    if not _broadcast_ok(sf_dir, "part"):
        # above the gate: hash-partitioned Dataset.join on partkey, then
        # bounded in-batch partial aggregation by brand string
        n_parts = max(2, min(16, int(ray.cluster_resources().get("CPU", 4))))
        li = _t(sf_dir, "lineitem",
                ["l_partkey", "l_extendedprice", "l_discount"])
        part_ds = _t(sf_dir, "part", ["p_partkey", "p_brand"])
        joined = li.join(part_ds, join_type="inner",
                         num_partitions=n_parts,
                         on=("l_partkey",), right_on=("p_partkey",))

        def partial_join(t: pa.Table) -> pa.Table:
            ext = t["l_extendedprice"].to_numpy()
            disc = t["l_discount"].to_numpy()
            rev = _iunits(ext * (1.0 - disc) * 100.0, 100.0)
            t2 = pa.table({
                "p_brand": t["p_brand"],
                "rev_i": rev,
                "n_lines": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            })
            return t2.group_by("p_brand").aggregate(
                [("rev_i", "sum"), ("n_lines", "sum")]
            )

        parts = joined.map_batches(partial_join,
                                   batch_format="pyarrow").to_pandas()
        g = parts.groupby("p_brand", as_index=False).sum()
        out = pd.DataFrame({
            "p_brand": g["p_brand"],
            "revenue": g["rev_i_sum"].to_numpy() / 10000.0,
            "n_lines": g["n_lines_sum"].astype("int64"),
        }).sort_values("p_brand").reset_index(drop=True)
        return table_from_pandas(out)

    part = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                         columns=["p_partkey", "p_brand"]).to_pandas()
    brands = np.sort(part["p_brand"].unique())
    bidx = {b: i for i, b in enumerate(brands)}
    keys = part["p_partkey"].to_numpy().astype(np.int64)
    bord = part["p_brand"].map(bidx).to_numpy().astype(np.int64)
    order = np.argsort(keys)
    keys, bord = keys[order], bord[order]
    ref = ray.put((keys, bord))

    def partial(t: pa.Table) -> pa.Table:
        k, b = ray.get(ref)
        pk = t["l_partkey"].to_numpy()
        pos = np.clip(np.searchsorted(k, pk), 0, max(len(k) - 1, 0))
        hit = (k[pos] == pk) if len(k) else np.zeros(len(pk), bool)
        ext = t["l_extendedprice"].to_numpy()
        disc = t["l_discount"].to_numpy()
        rev = _iunits(ext * (1.0 - disc) * 100.0, 100.0).to_numpy()
        nb = len(brands)
        bo = b[pos[hit]]
        # int64 accumulation via np.add.at — bincount weights sum in
        # float64, exact only below 2^53 per batch (ADVICE r2)
        rev_acc = np.zeros(nb, dtype=np.int64)
        np.add.at(rev_acc, bo, rev[hit])
        return pa.table({
            "bord": pa.array(np.arange(nb, dtype=np.int64)),
            "rev_i": pa.array(rev_acc),
            "n_lines": pa.array(np.bincount(bo, minlength=nb).astype(np.int64)),
        })

    parts = (
        _t(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()
    )
    g = parts.groupby("bord", as_index=False).sum()
    out = pd.DataFrame({
        "p_brand": brands[g["bord"].to_numpy()],
        "revenue": g["rev_i"].to_numpy() / 10000.0,
        "n_lines": g["n_lines"].astype("int64"),
    })
    out = out[out["n_lines"] > 0].sort_values("p_brand").reset_index(drop=True)
    return table_from_pandas(out)


def revenue_by_brand_sql() -> str:
    return """
    SELECT p_brand,
           CAST(sum(CAST(floor(l_extendedprice * (1.0 - l_discount)
                               * 100.0 * 100.0 + 0.5) AS BIGINT))
                AS DOUBLE) / 10000.0 AS revenue,
           CAST(count(*) AS BIGINT) AS n_lines
    FROM lineitem JOIN part ON l_partkey = p_partkey
    GROUP BY p_brand ORDER BY p_brand
    """


# default mixture: a deterministic, intentionally non-uniform rate table
# over the synthetic source ids (basis points of 10000) — srcN keeps
# 20/40/60/80% by N mod 4, the shape of a real per-source mixture spec
_MIXTURE_BP = {f"src{i}": 2000 * (i % 4 + 1) for i in range(20)}


def mixture_keep_mask(t: pa.Table, rates_bp: dict, seed: int = 11):
    """Boolean keep-mask of the per-source Bernoulli draw over a batch
    with ``doc_id`` and ``source`` columns — the vectorized kernel shared
    by ``documents_mixture_sample`` and the training pipeline's opt-in
    mixture stage. Unlisted sources keep everything."""
    import pyarrow.compute as pc

    src_list = sorted(rates_bp)
    thresh = np.array([(1 << 32) * int(rates_bp[s]) // 10000
                       for s in src_list] + [1 << 32], dtype=np.uint64)
    h = knuth_key32(t["doc_id"].to_numpy(), seed)
    idx = pc.index_in(t["source"], value_set=pa.array(src_list, pa.string()))
    idx = idx.fill_null(len(src_list)).to_numpy().astype(np.int64)
    return h < thresh[idx]


def documents_mixture_sample(sf_dir: str, rates_bp: dict | None = None,
                             seed: int = 11) -> pa.Table:
    """Per-source mixture sampling — the "data mixing" step that reweights
    a multi-source corpus toward target proportions (The Pile, LLaMA and
    DoReMi all train on explicit per-source sampling rates rather than
    the raw crawl mix). Each source gets an independent keep-rate in
    basis points (``rates_bp``, /10000; unlisted sources keep
    everything), applied as a deterministic seed-salted Bernoulli draw:
    keep iff Knuth-hash(doc_id ^ salt) mod 2^32 < rate·2^32/10000.

    Same exactness algebra as ``documents_hash_sample`` (mod-2^32
    reduction before the multiply keeps numpy uint64 and the oracle's
    HUGEINT exact for every doc_id < 2^63), salted like
    ``documents_shuffled`` so sample draws are independent of the
    shuffle's permutation. Embarrassingly parallel: the rate table is a
    tiny in-closure dict (a broadcast artifact at real scale), the pass
    is one stateless zero-shuffle ``map_batches`` filter — sampling
    rates, not shuffles, are the mixture's cost."""
    rates = _MIXTURE_BP if rates_bp is None else rates_bp

    def pick(t: pa.Table) -> pa.Table:
        return t.filter(pa.array(mixture_keep_mask(t, rates, seed)))

    out = (
        _t(sf_dir, "documents", ["doc_id", "lang", "source", "n_chars"])
        .map_batches(pick, batch_format="pyarrow")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    return table_from_pandas(out)


def documents_mixture_sample_sql(rates_bp: dict | None = None,
                                 seed: int = 11) -> str:
    rates = _MIXTURE_BP if rates_bp is None else rates_bp
    salt = (seed * 2654435761) % (1 << 32)
    rows = ", ".join(f"('{s}', {(1 << 32) * int(bp) // 10000})"
                     for s, bp in sorted(rates.items()))
    return f"""
    SELECT doc_id, lang, source, n_chars
    FROM documents d
    LEFT JOIN (VALUES {rows}) m(m_source, thresh) ON d.source = m.m_source
    WHERE (CAST(xor(CAST(doc_id % 4294967296 AS BIGINT), {salt})
                AS HUGEINT) * 2654435761) % 4294967296
          < coalesce(thresh, 4294967296)
    ORDER BY doc_id
    """
