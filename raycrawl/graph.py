"""Graph analytics over the crawl's own output — the web-graph algorithm
lane (the reference stores a link graph in Neo4j but never ranks it; a
crawl engine at 100 TB feeds exactly this step downstream).

PageRank runs in INTEGER rank units so every sum is order-independent and
the DuckDB oracle hash-matches bit-for-bit: rank starts at ``BASE=10^12``
units per node, one iteration is

    R'(v) = K + sum over in-edges (u -> v) of (R(u) * 85) // (100 * outdeg(u))

with ``K = (15 * BASE) // 100`` (the (1-d)/N teleport term made per-node
constant) and floor division throughout. Dangling-node mass is dropped —
documented, and the SQL oracle drops it identically. This is standard
damped PageRank re-expressed in exact arithmetic, not an approximation of
a float spec.

Distributed shape (per iteration, two hash shuffles, no Acero join):
ONE partition key ``hash(node) % P`` serves both exchanges — a node's
rank row co-locates with its out-edges for the scatter (keyed at src)
and its incoming contributions co-locate for the gather (keyed at dst).
Scatter and gather are ``groupby(part).map_groups`` where EVERY group in
a partition is aggregated vectorized (numpy segmented reduce / polars
group_by): a per-src or per-node ``map_groups`` would cost one Python
call per node — the anchor-index lane measured that exact shape at 511 s
vs 22 s for 5M groups. Each iteration is materialized so lineage stays
one round deep. At the 10^10-node design point the rank table shards
like any keyed Dataset and the scatter/gather are the canonical
Pregel-on-a-Dataset encoding.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from raycrawl.kernels import table_from_pandas
import pyarrow.compute as pc

BASE = 10**12
DAMP_NUM = 85
DAMP_DEN = 100
TELEPORT = (15 * BASE) // 100


def _graph_parts() -> int:
    """Partition count for the Pregel exchanges — follows cluster CPUs
    (each partition is one vectorized task per superstep)."""
    import ray

    return (max(8, int(ray.cluster_resources().get("CPU", 8)))
            if ray.is_initialized() else 8)


def _node_ids(col) -> np.ndarray:
    """64-bit node id: ``md5_u64`` of the node string (int64 bit pattern).
    The supersteps exchange these 8-byte ids instead of full URL strings
    (~60 B each) — node identity crosses the wire, names only appear in
    the static node table and the final assembly. Uniform md5 keeps
    birthday collisions negligible to ~10^9 nodes — far beyond the int64
    rank-arithmetic envelope documented below — and ``_distinct_nodes``
    VERIFIES injectivity per partition (equal ids co-locate by
    construction), so a collision fails loudly instead of corrupting."""
    from raycrawl.kernels import md5_u64_arrow

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return md5_u64_arrow(col.cast(pa.string())).view(np.int64)


def _part_of_ids(ids: np.ndarray, n_parts: int) -> pa.Array:
    """``id % P`` as int32 — THE graph partition key (ids are md5-uniform,
    so the modulus balances), shared by the scatter (keyed at src) and
    the gather (keyed at dst)."""
    part = ids.view(np.uint64) % np.uint64(n_parts)
    return pa.array(part.astype(np.int32), pa.int32())


def _distinct_nodes(ds, cols: tuple, n_parts: int):
    """(node, id, part) rows, one per distinct endpoint of ``ds[cols]`` —
    hash-partitioned dedup with a per-partition polars ``unique`` (never
    one Python call per node). Raises if two distinct node strings hash
    to one id (colliding nodes land in the same partition, so the
    per-partition check is exhaustive)."""
    import polars as pl

    def endpoints(t: pa.Table) -> pa.Table:
        node = pa.concat_arrays(
            [t[c].combine_chunks().cast(pa.string()) for c in cols])
        # pre-dedup in-batch, then partition
        tt = pl.from_arrow(pa.table({"node": node})).unique().to_arrow()
        ids = _node_ids(tt["node"])
        return pa.table({"node": tt["node"],
                         "id": pa.array(ids, pa.int64()),
                         "part": _part_of_ids(ids, n_parts)})

    def uniq(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t.select(["node", "id", "part"])).unique()
        if df.get_column("id").n_unique() != df.height:
            raise RuntimeError(
                "graph node-id collision: two distinct nodes share an "
                "md5_u64 id — widen the id to 128 bits for this graph")
        return df.to_arrow().cast(pa.schema([
            ("node", pa.string()), ("id", pa.int64()),
            ("part", pa.int32())]))

    return (ds.map_batches(endpoints, batch_format="pyarrow")
            .groupby("part").map_groups(uniq, batch_format="pyarrow"))


def crawl_pagerank(edges_ds, crawl_id: str, iters: int = 10,
                   distributed: bool | None = None,
                   driver_max_edges: int = 100_000) -> pa.Table:
    """Integer-unit PageRank over one crawl's link graph. Returns
    (node, rank_units:int64) ordered by node.

    Size-gated like the broadcast joins: while the graph fits a driver
    comfortably the iteration is a vectorized np.add.at loop over dense
    node indices — 20 shuffles of a 30-row table would be pure scheduler
    tax. The gate decides on a distributed COUNT of the filtered edges
    (nothing is materialized before the decision); above it, or with
    ``distributed=True``, it runs the sharded path: static inputs (edge
    stream, node carrier, initial ranks) derived with map_batches/groupby
    and an iteration that never funnels the rank table through the driver
    — at the 10^10-node design point the per-node state is exactly what
    must shard. Both paths are pytest-pinned equal (identical integer
    recurrence).

    ``driver_max_edges=1e5`` also bounds nodes N ≤ 2e5, which makes the
    driver path's int64 arithmetic provably safe: total rank mass never
    exceeds its initial N·BASE (damping only removes mass, teleport
    restores exactly the removed fraction at fixpoint), so any single
    r ≤ N·BASE ≤ 2e17 and r·85 ≤ 1.7e19 — within uint64, so the driver
    path multiplies in uint64 and casts back (values are non-negative).
    The distributed path computes the damped division in the overflow-free
    split form (85·(r//m) + (85·(r%m))//m with m = 100·outdeg — exactly
    (85·r)//m), so it is safe for any r its int64 columns can hold
    (~9.2e18), i.e. BASE must shrink with N beyond ~9e6-node graphs — at
    web scale you rescale the unit, not the algorithm."""
    filtered = edges_ds.map_batches(
        lambda t: t.filter(pc.equal(t["crawl_id"], crawl_id))
                   .select(["src", "dst"]),
        batch_format="pyarrow").materialize()
    if distributed is None:
        distributed = filtered.count() > driver_max_edges

    if not distributed:
        edges = table_from_pandas(filtered.to_pandas())
        src = edges["src"].to_numpy(zero_copy_only=False)
        dst = edges["dst"].to_numpy(zero_copy_only=False)
        nodes, inv = np.unique(np.concatenate([src, dst]),
                               return_inverse=True)
        si, di = inv[: len(src)], inv[len(src):]
        outdeg = np.bincount(si, minlength=len(nodes)).astype(np.uint64)
        r = np.full(len(nodes), BASE, np.uint64)
        for _ in range(iters):
            contrib = ((r[si] * np.uint64(DAMP_NUM))
                       // (np.uint64(DAMP_DEN) * outdeg[si]))
            nxt = np.full(len(nodes), TELEPORT, np.uint64)
            np.add.at(nxt, di, contrib)
            r = nxt
        return pa.table({"node": pa.array(nodes),
                         "rank_units": pa.array(r.astype(np.int64))})

    # static per-iteration inputs, materialized once: the edge stream
    # (key=id(src) carries id(dst), partitioned by id(src)%P), the node
    # carrier (zero contribution, keeps in-degree-0 nodes in the gather),
    # and the BASE rank per node. Node STRINGS appear only in the static
    # node table and the final assembly — every superstep exchanges
    # 8-byte ids (row type disambiguated by r: rank rows carry r ≥ 0,
    # edge rows r = -1; ranks are ≥ TELEPORT > 0 always).
    P = _graph_parts()

    def as_edge_rows(t: pa.Table) -> pa.Table:
        sid = _node_ids(t["src"])
        return pa.table({
            "key": pa.array(sid, pa.int64()),
            "dst": pa.array(_node_ids(t["dst"]), pa.int64()),
            "r": pa.array(np.full(t.num_rows, -1, np.int64)),
            "part": _part_of_ids(sid, P),
        })

    edge_rows = filtered.map_batches(
        as_edge_rows, batch_format="pyarrow").materialize()

    nodes_ds = _distinct_nodes(filtered, ("src", "dst"), P).materialize()
    zero_rows = nodes_ds.map_batches(
        lambda t: pa.table({"id": t["id"],
                            "c": pa.array(np.zeros(t.num_rows, np.int64)),
                            "part": t["part"]}),
        batch_format="pyarrow").materialize()

    def as_rank_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": t["id"],
            "dst": pa.array(np.zeros(t.num_rows, np.int64)),
            "r": pa.array(np.full(t.num_rows, BASE, np.int64)),
            "part": t["part"],
        })

    ranks = nodes_ds.map_batches(as_rank_rows,
                                 batch_format="pyarrow").materialize()

    _empty_contrib = pa.schema([("id", pa.int64()), ("c", pa.int64()),
                                ("part", pa.int32())])

    def scatter_part(g: pa.Table) -> pa.Table:
        """One hash partition → (dst-id, contrib) rows for EVERY src in
        it, vectorized: segmented outdeg via np.unique, rank lookup via
        searchsorted, and the damped division in overflow-free split form
        (q = r // m, s = r % m ⇒ (85·r)//m == 85·q + (85·s)//m exactly —
        85·q ≤ 85·r/100 and 85·s < 8500·k both fit int64 wherever the
        per-group Python-int version did)."""
        key = g["key"].to_numpy(zero_copy_only=False)
        dst = g["dst"].to_numpy(zero_copy_only=False)
        r = g["r"].to_numpy(zero_copy_only=False).astype(np.int64)
        is_rank = r >= 0
        if not is_rank.any() or is_rank.all():
            return _empty_contrib.empty_table()
        rk, rv = key[is_rank], r[is_rank]
        o = np.argsort(rk, kind="stable")
        rk, rv = rk[o], rv[o]
        ek, ed = key[~is_rank], dst[~is_rank]
        eo = np.argsort(ek, kind="stable")
        ek, ed = ek[eo], ed[eo]
        uk, counts = np.unique(ek, return_counts=True)
        pos = np.searchsorted(rk, uk)
        # every src is a node, so every src has a rank row in ITS partition
        assert len(rk) > pos.max() >= 0 and (rk[pos] == uk).all()
        r_u = rv[pos]
        m = np.int64(DAMP_DEN) * counts.astype(np.int64)
        contrib_u = (np.int64(DAMP_NUM) * (r_u // m)
                     + (np.int64(DAMP_NUM) * (r_u % m)) // m)
        return pa.table({
            "id": pa.array(ed, pa.int64()),
            "c": pa.array(np.repeat(contrib_u, counts), pa.int64()),
            "part": _part_of_ids(ed, P),   # gather key: id(dst) % P
        })

    def gather_part(t: pa.Table) -> pa.Table:
        """One hash partition of (id, c, part) → next-iteration rank
        rows, all nodes in the partition summed at once in polars."""
        import polars as pl

        agg = (pl.from_arrow(t.select(["id", "c", "part"]))
               .group_by("id")
               .agg(pl.col("c").sum(), pl.col("part").first())
               .to_arrow())
        n = agg.num_rows
        return pa.table({
            "key": agg["id"].combine_chunks().cast(pa.int64()),
            "dst": pa.array(np.zeros(n, np.int64)),
            "r": pa.array(agg["c"].to_numpy(zero_copy_only=False)
                          .astype(np.int64) + TELEPORT, pa.int64()),
            "part": agg["part"].combine_chunks().cast(pa.int32()),
        })

    for _ in range(iters):
        contribs = (
            edge_rows.union(ranks)
            .groupby("part").map_groups(scatter_part, batch_format="pyarrow")
        )
        ranks = (
            contribs.union(zero_rows)
            .groupby("part").map_groups(gather_part, batch_format="pyarrow")
            .materialize()     # one round of lineage, never the driver
        )

    # final assembly: map ids back to node strings (one driver-side merge
    # over the n_nodes result — the same driver funnel the string version
    # already paid for its output)
    final = ranks.to_pandas()
    names = nodes_ds.to_pandas()
    out = names.merge(final[["key", "r"]], left_on="id", right_on="key")
    out = out.sort_values("node")
    return pa.table({
        "node": pa.array(out["node"].to_numpy(), pa.string()),
        "rank_units": pa.array(out["r"].to_numpy().astype(np.int64)),
    })


def pagerank_reference(src, dst, iters: int = 10) -> dict:
    """Single-process exact twin (tests): same integer recurrence."""
    nodes = sorted(set(src) | set(dst))
    outdeg: dict = {}
    for s in src:
        outdeg[s] = outdeg.get(s, 0) + 1
    r = {n: BASE for n in nodes}
    for _ in range(iters):
        nxt = {n: TELEPORT for n in nodes}
        for s, d in zip(src, dst):
            nxt[d] += (r[s] * DAMP_NUM) // (DAMP_DEN * outdeg[s])
        r = nxt
    return r


def crawl_pagerank_sql(edges_expr: str, crawl_id: str, iters: int = 10) -> str:
    """Unrolled fixed-iteration CTE chain — every arithmetic op is BIGINT,
    so the oracle is bit-identical to the Ray result."""
    step_tpl = """
    r{i1} AS (
      SELECT n.node,
             CAST({tele} + COALESCE(SUM((p.r * {dn}) // ({dd} * od.outdeg)), 0)
                  AS BIGINT) AS r
      FROM nodes n
      LEFT JOIN e ON e.dst = n.node
      LEFT JOIN r{i0} p ON p.node = e.src
      LEFT JOIN od ON od.node = e.src
      GROUP BY n.node
    )"""
    steps = ",".join(
        step_tpl.format(i1=i + 1, i0=i, tele=TELEPORT,
                        dn=DAMP_NUM, dd=DAMP_DEN)
        for i in range(iters)
    )
    return f"""
    WITH e AS (SELECT src, dst FROM {edges_expr} WHERE crawl_id = '{crawl_id}'),
    nodes AS (SELECT src AS node FROM e UNION SELECT dst FROM e),
    od AS (SELECT src AS node, CAST(count(*) AS BIGINT) AS outdeg
           FROM e GROUP BY src),
    r0 AS (SELECT node, CAST({BASE} AS BIGINT) AS r FROM nodes),
    {steps}
    SELECT node, r AS rank_units FROM r{iters} ORDER BY node
    """
