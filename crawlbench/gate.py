"""Correctness gate: every crawl and every read is checked against
``raycrawl.oracle.oracle_crawl`` after the measured loop.

Each check returns a list of problems; an empty list means the operation
agreed with the oracle.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# The reference extractor's pattern (shared/src/crawler.rs:9), kept here as
# the benchmark's own copy so that the oracle's ground truth for the fast
# corpus does not come from the kernel under test.
REFERENCE_URL_RE = re.compile(r"https?://[\w\-.]+(?::\d+)?")

_STATUS_COLS = {"COMPLETED": "completed", "PENDING": "pending",
                "IN-PROGRESS": "in_progress", "FAILED": "failed",
                "CANCELLED": "cancelled"}


def write_captures(corpus_dir: str) -> None:
    """captures.parquet for a ``generate_corpus_fast`` corpus, which writes
    none: the ordered regex captures of every page, as the oracle reads
    them."""
    path = os.path.join(corpus_dir, "captures.parquet")
    if os.path.exists(path):
        return
    pages = pq.read_table(os.path.join(corpus_dir, "pages.parquet"),
                          columns=["url", "html"])
    caps = [REFERENCE_URL_RE.findall(h.decode("utf-8", errors="replace"))
            for h in pages["html"].to_pylist()]
    pq.write_table(
        pa.table({"src_url": pages["url"],
                  "captures": pa.array(caps, pa.list_(pa.string()))}),
        path)


class MemoHash128:
    """``kernels.hash128`` answered from one vectorized call over every
    corpus page id. The oracle breaks ties between same-round creators by
    hashing the parent id one string at a time, which made the ground truth
    of a 10k-node crawl take ~10 s; the values are the same."""

    def __init__(self, corpus_dir: str):
        import pyarrow.compute as pc

        from raycrawl import kernels
        from raycrawl.fetch import build_fetch_corpus

        self.real = kernels.hash128
        t = build_fetch_corpus(corpus_dir)
        ids = pc.binary_join_element_wise(t["http_type"], t["name"], "")
        hi, lo = self.real(ids)
        self.memo = dict(zip(ids.to_pylist(), zip(hi.tolist(), lo.tolist())))

    def __call__(self, strings):
        if isinstance(strings, list) and len(strings) == 1:
            hit = self.memo.get(strings[0])
            if hit is not None:
                return (np.array([hit[0]], np.uint64),
                        np.array([hit[1]], np.uint64))
        return self.real(strings)


class Expected:
    """Oracle outcome of one crawl request."""

    def __init__(self, corpus_dir: str, url: str, depth: int,
                 memo: MemoHash128 | None = None):
        from raycrawl import kernels
        from raycrawl.oracle import oracle_crawl

        if memo is not None:
            kernels.hash128 = memo
        try:
            o = oracle_crawl(corpus_dir, url, depth)
        finally:
            if memo is not None:
                kernels.hash128 = memo.real
        self.root_id = o.root.http_type + o.root.name
        self.nodes = {p + n: v for (n, p), v in o.nodes.items()}
        self.edges = o.edges
        self.status = o.status_counts()
        self.max_depth = max((v.depth for v in self.nodes.values()), default=0)
        self.domains = len({v.domain for v in self.nodes.values()})


def ds_table(ds) -> pa.Table:
    """Materialize a Ray Dataset into one Arrow table."""
    import ray

    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tables) if tables else pa.table({})


def check_crawl(exp: Expected, error: BaseException | None,
                ckpt: str | None, drop_node: bool = False) -> list[str]:
    """Final nodes and edges of one crawl against the oracle, field by
    field (the comparison tests/test_crawl_pipeline.py makes).
    ``drop_node`` deletes one URL node from the crawl's output first, so
    the self-test can show the gate firing."""
    from raycrawl.crawl import read_edges, read_nodes

    if error is not None:
        return [f"crawl raised {error!r}"]
    nodes = ds_table(read_nodes(ckpt)).to_pylist()
    edges = ds_table(read_edges(ckpt))
    urls = {r["node_id"]: r for r in nodes if r["node_type"] == "URL"}
    if drop_node and urls:
        urls.pop(min(urls))
    problems = []
    if set(urls) != set(exp.nodes):
        problems.append(f"node set differs: {len(urls)} vs {len(exp.nodes)}")
    for k in set(urls) & set(exp.nodes):
        r, o = urls[k], exp.nodes[k]
        got = (r["depth"], r["status"], r["attempts"], r["ip"], r["domain"],
               r["request_time_ms"])
        want = (o.depth, o.status, o.attempts, o.ip, o.domain,
                o.request_time_ms)
        if got != want:
            problems.append(f"node {k}: {got} != {want}")
            break
    roots = [r["node_id"] for r in nodes if r["node_type"] == "ROOT"]
    if roots != [exp.root_id]:
        problems.append(f"roots {roots} != [{exp.root_id}]")
    got_edges = (set(zip(edges["src"].to_pylist(), edges["dst"].to_pylist()))
                 if edges.num_rows else set())
    if got_edges != exp.edges:
        problems.append(f"edge set differs: {len(got_edges)} vs "
                        f"{len(exp.edges)}")
    return problems


def check_read(kind: str, out: pa.Table, exp: Expected,
               catalog_size: int = 0) -> list[str]:
    """One manager read's answer against the oracle's crawl."""
    if kind == "list":
        tc = out["total_count"].to_pylist()
        if out.num_rows == 0 or set(tc) != {catalog_size}:
            return [f"list_crawls total_count {tc} != {catalog_size}"]
        return []
    if kind in ("progress", "live"):
        if out.num_rows != 1:
            return [f"{kind}: {out.num_rows} rows"]
        row = out.to_pylist()[0]
        want = {col: exp.status[s] for s, col in _STATUS_COLS.items()}
        want.update(total=len(exp.nodes), root_url=exp.root_id)
        got = {k: row[k] for k in want}
        return [] if got == want else [f"{kind}: {got} != {want}"]
    if kind == "stats":
        row = out.to_pylist()[0]
        want = dict(total_urls=len(exp.nodes), max_depth_reached=exp.max_depth,
                    unique_domains=exp.domains,
                    **{col: exp.status[s] for s, col in _STATUS_COLS.items()})
        got = {k: row[k] for k in want}
        return [] if got == want else [f"stats: {got} != {want}"]
    if kind == "graph_nodes":
        # the ROOT row plus one row per URL node; the root's id can appear
        # twice when a page links back to it (the ROOT/URL label split)
        ids = out["id"].to_pylist() if out.num_rows else []
        want = set(exp.nodes) | {exp.root_id}
        if len(ids) != len(exp.nodes) + 1 or set(ids) != want:
            return [f"graph nodes: {len(ids)} ids vs {len(exp.nodes) + 1}"]
        return []
    if kind == "graph_edges":
        got = (list(zip(out["source"].to_pylist(), out["target"].to_pylist()))
               if out.num_rows else [])
        if len(got) != len(exp.edges) or set(got) != exp.edges:
            return [f"graph edges: {len(got)} vs {len(exp.edges)}"]
        return []
    raise ValueError(f"unknown read kind {kind!r}")


def planted_pairs(seed: int, n_hosts: int, mirror_frac: float) -> list:
    """(source, mirror) node ids of every planted near-duplicate pair of a
    ``generate_corpus_fast`` corpus: page i copies page i-1
    (``corpus.fast_mirror_flags``)."""
    from raycrawl.corpus import fast_mirror_flags, host_name, host_proto

    def nid(i: int) -> str:
        return (host_proto(i) + "://" + host_name(i)).upper()

    if not mirror_frac:
        return []
    flags = fast_mirror_flags(seed, 0, n_hosts, mirror_frac)
    return [(nid(int(i) - 1), nid(int(i))) for i in np.flatnonzero(flags)]


def false_assignments(assigned: dict, pairs: list) -> int:
    """Assignments that do not pair a page with its planted partner."""
    planted = {frozenset(p) for p in pairs}
    return sum(1 for k, v in assigned.items()
               if frozenset((k, v)) not in planted)


def neardup_truth(ckpt: str, pairs: list) -> dict:
    """Planted-pair recall of a neardup crawl: over the planted pairs whose
    both sides were fetched, the share whose assignment names the true
    partner."""
    from raycrawl.crawl import read_nodes
    from raycrawl.ingest_dedup import crawl_neardup

    nodes = ds_table(read_nodes(ckpt).select_columns(
        ["node_id", "node_type", "status", "depth", "requested_depth"]))
    fetched = {r["node_id"] for r in nodes.to_pylist()
               if r["node_type"] == "URL" and r["status"] == "COMPLETED"
               and r["depth"] < r["requested_depth"]}
    nd = crawl_neardup(ckpt)
    assigned = dict(zip(nd["node_id"].to_pylist(),
                        nd["near_dup_of"].to_pylist()))
    both = [(a, b) for a, b in pairs if a in fetched and b in fetched]
    hits = sum(1 for a, b in both
               if assigned.get(b) == a or assigned.get(a) == b)
    return dict(pairs=len(both), hits=hits,
                recall=hits / len(both) if both else None,
                assignments=len(assigned),
                false_assignments=false_assignments(assigned, pairs))
