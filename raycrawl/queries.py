"""Read-side crawl queries — the reference manager API's aggregations
(SURVEY.md §2.5 A1–A4, §2.1 S5) as Ray-Data pipelines over the crawl's
final nodes/edges Parquet.

All of these are SQL-expressible, so each has a DuckDB oracle in
``__ray_entry__.oracle_sql`` reading the same Parquet — column names here
match the SQL aliases exactly (driver hash-compare contract).

Scale note: the per-crawl aggregates pre-aggregate per batch (flag
projection inside ``map_batches``) before the tiny ``groupby(crawl_id)``
(ray_guide: partial aggregation), so the shuffle moves one row per
(crawl_id, batch), not one per node.
"""

from __future__ import annotations

import os

import pyarrow as pa

from raycrawl.kernels import table_from_pandas
import pyarrow.compute as pc

STATUSES = ["COMPLETED", "PENDING", "IN-PROGRESS", "FAILED", "CANCELLED"]


def _read(path):
    import ray.data as rd

    return rd.read_parquet(path)


def load_nodes(ckpt_dirs):
    """Final nodes of one or more crawls → one Dataset (crawl.read_nodes
    of each)."""
    if isinstance(ckpt_dirs, str):
        ckpt_dirs = [ckpt_dirs]
    from raycrawl.crawl import read_nodes

    out = None
    for d in ckpt_dirs:
        ds = read_nodes(d)
        out = ds if out is None else out.union(ds)
    return out


def load_edges(ckpt_dirs):
    if isinstance(ckpt_dirs, str):
        ckpt_dirs = [ckpt_dirs]
    from raycrawl.crawl import read_edges

    out = None
    for d in ckpt_dirs:
        ds = read_edges(d)
        out = ds if out is None else out.union(ds)
    return out


def _status_flags(t: pa.Table) -> pa.Table:
    """URL rows → one partial-count row per (crawl_id) per batch."""
    t = t.filter(pc.equal(t["node_type"], "URL"))
    cols = {"crawl_id": t["crawl_id"]}
    cols["total"] = pa.array([1] * t.num_rows, pa.int64())
    for s in STATUSES:
        cols[s.lower().replace("-", "_")] = pc.cast(
            pc.equal(t["status"], s), pa.int64()
        )
    flat = pa.table(cols)
    # partial aggregation inside the batch → tiny shuffle
    value_cols = [c for c in flat.column_names if c != "crawl_id"]
    agg = flat.group_by("crawl_id").aggregate([(c, "sum") for c in value_cols])
    # pyarrow names results "<col>_sum"; restore the plain names
    return agg.rename_columns(
        [c[:-4] if c.endswith("_sum") else c for c in agg.column_names]
    )


def status_count_table(nodes_ds):
    """Per-crawl status counts (A1 core) as a small pyarrow Table."""
    from ray.data.aggregate import Sum

    partial = nodes_ds.map_batches(_status_flags, batch_format="pyarrow")
    aggs = [Sum(c, alias_name=c) for c in
            ["total"] + [s.lower().replace("-", "_") for s in STATUSES]]
    out = partial.groupby("crawl_id").aggregate(*aggs)
    return table_from_pandas(out.to_pandas())


def derive_status(completed, pending, in_progress, cancelled) -> str:
    """A2 crawl-status expression (crawl_service.rs:106-114)."""
    if pending == 0 and in_progress == 0:
        if cancelled > 0 and completed == 0:
            return "cancelled"
        return "completed"
    return "running"


def _roots(nodes_ds):
    """ROOT rows (one per crawl — tiny) → pandas. The reference's ROOT⋈URL
    join (J4) becomes a driver-side merge of this small side."""
    return (
        nodes_ds.map_batches(
            lambda t: t.filter(pc.equal(t["node_type"], "ROOT")),
            batch_format="pyarrow",
        )
        .to_pandas()
    )


def require_crawl(nodes_ds, crawl_id: str) -> None:
    """L3 existence probe: the reference's ``MATCH (r:ROOT {crawl_id}) …
    LIMIT 1`` check (graph_service.rs:15-21); unknown ids surface as 404
    (raycrawl.errors.CrawlNotFound) instead of silently-empty results.
    A LIMIT-1 ``filter`` — the streaming executor stops the scan at the
    first matching block."""
    from raycrawl.errors import CrawlNotFound

    def probe(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.and_(pc.equal(t["node_type"], "ROOT"),
                    pc.equal(t["crawl_id"], crawl_id))
        ).select(["node_id"])

    hits = nodes_ds.map_batches(probe, batch_format="pyarrow").limit(1).count()
    if hits == 0:
        raise CrawlNotFound(crawl_id)


def crawl_progress(nodes_ds, crawl_id: str, strict: bool = False) -> pa.Table:
    """A1+A2: GET /crawls/:id (crawl_service.rs:68-134). ``strict`` turns
    an unknown crawl_id into CrawlNotFound/404 (the manager's behavior)
    instead of an empty table."""
    counts = status_count_table(nodes_ds).to_pandas()
    counts = counts[counts["crawl_id"] == crawl_id]
    roots = _roots(nodes_ds)
    roots = roots[roots["crawl_id"] == crawl_id]
    if len(roots) == 0:
        if strict:
            from raycrawl.errors import CrawlNotFound

            raise CrawlNotFound(crawl_id)
        return _progress_schema().empty_table()
    root = roots.iloc[0]
    if len(counts) == 0:
        row = dict.fromkeys(
            ["total", "completed", "pending", "in_progress", "failed", "cancelled"], 0
        )
    else:
        row = counts.iloc[0].to_dict()
    status = derive_status(row["completed"], row["pending"], row["in_progress"],
                           row["cancelled"])
    return pa.Table.from_pylist(
        [
            dict(
                crawl_id=crawl_id, status=status, total=int(row["total"]),
                completed=int(row["completed"]), pending=int(row["pending"]),
                in_progress=int(row["in_progress"]), failed=int(row["failed"]),
                cancelled=int(row["cancelled"]),
                root_url=root["http_type"] + root["name"],
                requested_depth=int(root["requested_depth"]),
            )
        ],
        schema=_progress_schema(),
    )


def _progress_schema():
    return pa.schema(
        [
            ("crawl_id", pa.string()), ("status", pa.string()),
            ("total", pa.int64()), ("completed", pa.int64()),
            ("pending", pa.int64()), ("in_progress", pa.int64()),
            ("failed", pa.int64()), ("cancelled", pa.int64()),
            ("root_url", pa.string()), ("requested_depth", pa.int64()),
        ]
    )


def list_crawls(nodes_ds, status_filter: str | None = None, limit: int = 20,
                offset: int = 0) -> pa.Table:
    """A3: GET /crawls (crawl_service.rs:137-215). Sorted by crawl_id for a
    stable offset/limit (the reference's collect order is index order)."""
    counts = status_count_table(nodes_ds).to_pandas().set_index("crawl_id")
    roots = _roots(nodes_ds)
    rows = []
    for r in roots.itertuples():
        c = (
            counts.loc[r.crawl_id]
            if r.crawl_id in counts.index
            else dict.fromkeys(
                ["total", "completed", "pending", "in_progress", "failed", "cancelled"], 0
            )
        )
        status = derive_status(c["completed"], c["pending"], c["in_progress"],
                               c["cancelled"])
        rows.append(
            dict(
                crawl_id=r.crawl_id, root_url=r.http_type + r.name,
                requested_depth=int(r.requested_depth), status=status,
                total=int(c["total"]), completed=int(c["completed"]),
                failed=int(c["failed"]), cancelled=int(c["cancelled"]),
            )
        )
    rows.sort(key=lambda x: x["crawl_id"])
    total_count = len(
        [x for x in rows if status_filter is None or x["status"] == status_filter]
    )
    if status_filter is not None:
        rows = [x for x in rows if x["status"] == status_filter]
    rows = rows[offset : offset + limit]
    for x in rows:
        x["total_count"] = total_count
    schema = pa.schema(
        [
            ("crawl_id", pa.string()), ("root_url", pa.string()),
            ("requested_depth", pa.int64()), ("status", pa.string()),
            ("total", pa.int64()), ("completed", pa.int64()),
            ("failed", pa.int64()), ("cancelled", pa.int64()),
            ("total_count", pa.int64()),
        ]
    )
    return pa.Table.from_pylist(rows, schema=schema)


def crawl_stats(nodes_ds, crawl_id: str, strict: bool = False) -> pa.Table:
    """A4: GET /crawls/:id/stats (crawl_service.rs:238-286): totals,
    count(DISTINCT domain), max(current_depth), status counts."""
    from ray.data.aggregate import Count, Max

    if strict:
        require_crawl(nodes_ds, crawl_id)

    urls = nodes_ds.map_batches(
        lambda t: t.filter(
            pc.and_(pc.equal(t["node_type"], "URL"), pc.equal(t["crawl_id"], crawl_id))
        ),
        batch_format="pyarrow",
    )
    counts = status_count_table(urls).to_pandas()
    if len(counts) == 0:
        row = dict.fromkeys(
            ["total", "completed", "pending", "in_progress", "failed", "cancelled"], 0
        )
        max_depth = 0
        uniq_domains = 0
    else:
        row = counts.iloc[0].to_dict()
        max_depth = urls.max("depth")
        # distinct via groupby(domain) (D3) — exact, shuffle on domain
        uniq_domains = urls.groupby("domain").aggregate(Count()).count()
        _ = Max  # (Max agg kept for parity; .max() is the same op)
    return pa.Table.from_pylist(
        [
            dict(
                crawl_id=crawl_id, total_urls=int(row["total"]),
                unique_domains=int(uniq_domains), max_depth_reached=int(max_depth),
                pending=int(row["pending"]), in_progress=int(row["in_progress"]),
                completed=int(row["completed"]), failed=int(row["failed"]),
                cancelled=int(row["cancelled"]),
            )
        ],
        schema=pa.schema(
            [
                ("crawl_id", pa.string()), ("total_urls", pa.int64()),
                ("unique_domains", pa.int64()), ("max_depth_reached", pa.int64()),
                ("pending", pa.int64()), ("in_progress", pa.int64()),
                ("completed", pa.int64()), ("failed", pa.int64()),
                ("cancelled", pa.int64()),
            ]
        ),
    )


def graph_export_nodes(nodes_ds, crawl_id: str, strict: bool = False):
    """S5: GET /crawls/:id/graph — node projection (graph_service.rs:8-110):
    id = http_type+name, label = name, ROOT status literal 'root'."""
    if strict:
        require_crawl(nodes_ds, crawl_id)

    def project(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["crawl_id"], crawl_id))
        is_root = pc.equal(t["node_type"], "ROOT")
        return pa.table(
            {
                "id": t["node_id"],
                "label": t["name"],
                "domain": t["domain"],
                "depth": t["depth"],
                "status": pc.if_else(is_root, pa.scalar("root"), t["status"]),
                "node_type": t["node_type"],
            }
        )

    return nodes_ds.map_batches(project, batch_format="pyarrow")


def graph_export_edges(edges_ds, crawl_id: str):
    """S5 edge projection: source/target ids."""
    def project(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["crawl_id"], crawl_id))
        return pa.table({"source": t["src"], "target": t["dst"]})

    return edges_ds.map_batches(project, batch_format="pyarrow")


def nodes_by_depth(nodes_ds, crawl_id: str):
    """Depth histogram over URL nodes (progress-monitoring companion)."""
    from ray.data.aggregate import Count

    return (
        nodes_ds.map_batches(
            lambda t: t.filter(
                pc.and_(pc.equal(t["node_type"], "URL"), pc.equal(t["crawl_id"], crawl_id))
            ).select(["depth"]),
            batch_format="pyarrow",
        )
        .groupby("depth")
        .aggregate(Count(alias_name="n_nodes"))
        .sort("depth")
    )


def domain_rollup(nodes_ds, crawl_id: str):
    """Per-domain node counts + completed counts (D3-adjacent rollup)."""
    from ray.data.aggregate import Count, Sum

    def flags(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.and_(pc.equal(t["node_type"], "URL"), pc.equal(t["crawl_id"], crawl_id))
        )
        return pa.table(
            {
                "domain": t["domain"],
                "completed": pc.cast(pc.equal(t["status"], "COMPLETED"), pa.int64()),
            }
        )

    return (
        nodes_ds.map_batches(flags, batch_format="pyarrow")
        .groupby("domain")
        .aggregate(Count(alias_name="n_nodes"), Sum("completed", alias_name="n_completed"))
        .sort("domain")
    )
