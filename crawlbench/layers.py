"""Per-layer numbers for the traced run.

Three sources, all read or driven from outside the program:

- the program's own trace hook (``RAYCRAWL_TRACE_DIR``): one JSON line per
  fetch batch with per-stage seconds, summed into ``frontier.*``;
- the counters every crawl writes (``round=*/counters.json``,
  ``phases.json``), summed into ``crawl.*``, ``seen.*`` and ``neardup.*``;
- an in-process replay of the largest round's frontier through the public
  layer functions, which gives ``*.batch_ms``, ``*_per_s``, ``fetch.*``
  and ``seen.offer_ms``/``commit_ms``.

Crawl-level values are means per traced crawl, so they do not depend on how
many crawls fit in the run.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads

_ROUND_PHASES = ("t_setup_s", "t_fetch_s", "t_neardup_s", "t_barrier_s",
                 "t_frontier_s")
_CRAWL_PHASES = ("corpus_boot_s", "actors_s", "warm_s", "restore_s",
                 "finalize_s")
_TRACE_STAGES = {"fetch_loop": "frontier.fetch_loop_s",
                 "enrich": "frontier.enrich_s",
                 "j1_contains": "frontier.j1_s",
                 "assemble": "frontier.assemble_s",
                 "offer_wait": "frontier.offer_wait_s"}


def round_counters(ckpt: str) -> list[dict]:
    out = []
    for path in sorted(glob.glob(os.path.join(ckpt, "round=*",
                                              "counters.json"))):
        with open(path) as f:
            out.append(json.load(f))
    return out


def urls_processed(ckpt: str) -> int:
    """1 (the root fetch) + every frontier row a BFS round fetched."""
    return 1 + sum(c["frontier_size"] for c in round_counters(ckpt)
                   if c["round"] >= 1)


def dir_bytes_files(path: str) -> tuple[int, int]:
    total = files = 0
    for d, _, names in os.walk(path):
        for n in names:
            total += os.path.getsize(os.path.join(d, n))
            files += 1
    return total, files


def crawl_phases(crawls: list[dict]) -> dict:
    """crawl.*, seen.* and the in-crawl neardup stage, per traced crawl.
    ``slack_s`` is the part of the crawl's wall time that no phase timer of
    the program covers."""
    acc: dict[str, float] = {}

    def add(k, v):
        acc[k] = acc.get(k, 0.0) + v

    for c in crawls:
        rounds = [r for r in round_counters(c["ckpt"]) if r["round"] >= 1]
        with open(os.path.join(c["ckpt"], "phases.json")) as f:
            ph = json.load(f)
        covered = (sum(ph.get(k, 0.0) for k in _CRAWL_PHASES)
                   + sum(r.get(k, 0.0) for r in rounds for k in _ROUND_PHASES))
        add("crawl.rounds", len(rounds))
        add("crawl.round_setup_s", sum(r["t_setup_s"] for r in rounds))
        add("crawl.fetch_stage_s", sum(r["t_fetch_s"] for r in rounds))
        add("crawl.barrier_s", sum(r["t_barrier_s"] for r in rounds))
        add("crawl.frontier_build_s", sum(r["t_frontier_s"] for r in rounds))
        add("crawl.actor_start_s", ph["actors_s"] + ph["restore_s"])
        add("crawl.finalize_s", ph["finalize_s"])
        add("crawl.slack_s", c["wall"] - covered)
        add("crawl.ckpt_files", dir_bytes_files(c["ckpt"])[1])
        add("seen.offered", sum(r["edges_created"] for r in rounds))
        add("seen.new_nodes", sum(r["nodes_created"] for r in rounds))
        add("neardup.stage_s", sum(r["t_neardup_s"] for r in rounds))
        add("wall_s", c["wall"])
    n = max(1, len(crawls))
    out = {k: v / n for k, v in acc.items()}
    out["seen.useful_ratio"] = (out["seen.new_nodes"] / out["seen.offered"]
                                if out.get("seen.offered") else 0.0)
    return out


def trace_stages(trace_dir: str, n_crawls: int) -> dict:
    """Sum the program's per-batch trace lines into ``frontier.*``."""
    acc = {v: 0.0 for v in _TRACE_STAGES.values()}
    rows = 0
    for path in glob.glob(os.path.join(trace_dir, "trace-*.jsonl")):
        with open(path) as f:
            for line in f:
                rec = json.loads(line)
                rows += rec.get("rows", 0)
                for k, name in _TRACE_STAGES.items():
                    acc[name] += rec.get(k, 0.0)
    n = max(1, n_crawls)
    out = {k: v / n for k, v in acc.items()}
    out["frontier.rows"] = rows / n
    return out


def _timed(fn, repeats: int = 3) -> tuple[float, object]:
    """Median wall seconds of ``repeats`` calls, and the last result."""
    ts, out = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        ts.append(time.perf_counter() - t0)
    return statistics.median(ts), out


def _largest_round(ckpt: str) -> int:
    rounds = [c for c in round_counters(ckpt) if c["round"] >= 1]
    return max(rounds, key=lambda c: c["frontier_size"])["round"]


def _files(d: str) -> list[str]:
    return sorted(glob.glob(os.path.join(d, "*.parquet")))


def replay(ckpt: str, crawl_id: str, seed_id: str, depth: int,
           corpus_table: pa.Table, corpus_ref, cfg, scratch: str,
           neardup_in_crawl: bool, spans) -> dict:
    """Drive the largest round's frontier of one finished crawl through the
    layer functions in this process, and time each."""
    import ray

    from raycrawl.crawl import _make_seen_actors
    from raycrawl.fetch import CorpusIndex, corpus_key_strings
    from raycrawl.frontier import enrich_pages, fetch_expand_batch
    from raycrawl.ingest_dedup import probe_and_index_round
    from raycrawl.kernels import (decode_html, extract_urls, hash128,
                                  normalize_urls_arrow)
    from raycrawl.seen import SeenShardImpl

    out: dict = {}
    top = spans.open("replay")
    r = _largest_round(ckpt)
    prev = os.path.join(ckpt, f"round={r - 1:04d}")
    rdir = os.path.join(ckpt, f"round={r:04d}")
    frontier = pads.dataset(_files(os.path.join(prev, "frontier"))).to_table()

    # fetch: the corpus join, as CorpusIndex lookups
    index = CorpusIndex.build(corpus_table["name"].combine_chunks(),
                              corpus_table["http_type"].combine_chunks())
    khi, klo = hash128(corpus_key_strings(frontier["name"],
                                          frontier["http_type"]))
    sp = spans.open("replay.fetch.lookup")
    dt, rows = _timed(lambda: index.lookup(khi, klo), repeats=5)
    spans.close(sp)
    out["fetch.lookup_ms"] = dt * 1e3
    out["fetch.hit_ratio"] = float(np.mean(rows >= 0)) if len(rows) else 0.0

    # kernels, over the pages that frontier fetches
    html = corpus_table["html"].take(pa.array(rows[rows >= 0]))
    pages = [decode_html(h) for h in html.to_pylist()]
    sp = spans.open("replay.kernels")
    dt, caps = _timed(lambda: [extract_urls(p) for p in pages])
    out["kernels.extract_pages_per_s"] = len(pages) / dt
    urls = pa.array([u for c in caps for u in c], pa.string())
    dt, _ = _timed(lambda: normalize_urls_arrow(urls))
    out["kernels.normalize_urls_per_s"] = len(urls) / dt
    dt, _ = _timed(lambda: hash128(urls))
    out["kernels.hash128_keys_per_s"] = len(urls) / dt
    dt, _ = _timed(lambda: enrich_pages(pages), repeats=1)
    out["kernels.enrich_pages_per_s"] = len(pages) / dt
    spans.close(sp)

    # frontier: one fetch_expand_batch call against fresh seen shards
    batch = frontier.slice(0, cfg.fetch_batch_size)
    shards = _make_seen_actors(cfg, expected_keys=corpus_table.num_rows * 4)
    ts = []
    try:
        for i in range(3):
            d = os.path.join(scratch, f"expand{i}")
            os.makedirs(os.path.join(d, "nodes"))
            os.makedirs(os.path.join(d, "edges"))
            ray.get([h.begin_round.remote(os.path.join(d, "nodes"),
                                          os.path.join(d, "edges"), r,
                                          seed_id) for h in shards])
            sp = spans.open("replay.frontier.fetch_expand_batch")
            fetch_expand_batch(batch, corpus_ref=corpus_ref,
                               seen_handles=shards, round_no=r,
                               max_attempts=cfg.max_attempts,
                               max_dns_depth=cfg.max_dns_depth,
                               enrich=cfg.enrich)
            ts.append(spans.close(sp))
            ray.get([h.commit_round.remote() for h in shards])
    finally:
        for h in shards:
            ray.kill(h, no_restart=True)
    out["frontier.batch_ms"] = statistics.median(ts) * 1e3

    # seen: one shard in-process, committed set = every node before round r,
    # offered the round's child rows (its edges) in fetch-batch-sized slices
    shard = SeenShardImpl(0, backend="set")
    known = pads.dataset(sum((_files(os.path.join(ckpt, f"round={q:04d}",
                                                  "nodes"))
                              for q in range(r)), [])).to_table(
        columns=["node_id"])
    shard.bulk_load(*hash128(known["node_id"]))
    edges = pads.dataset(_files(os.path.join(rdir, "edges"))
                         + _files(os.path.join(rdir, "seed_edges"))).to_table()
    children = _child_rows(edges, crawl_id, depth)
    d = os.path.join(scratch, "seen")
    os.makedirs(os.path.join(d, "nodes"))
    os.makedirs(os.path.join(d, "edges"))
    shard.begin_round(os.path.join(d, "nodes"), os.path.join(d, "edges"), r,
                      seed_id)
    ts = []
    step = cfg.fetch_batch_size
    for i, off in enumerate(range(0, children.num_rows, step)):
        sp = spans.open("replay.seen.offer")
        shard.offer(children.slice(off, step), salt=i)
        ts.append(spans.close(sp))
    sp = spans.open("replay.seen.commit_round")
    shard.commit_round()
    out["seen.commit_ms"] = spans.close(sp) * 1e3
    out["seen.offer_ms"] = statistics.median(ts) * 1e3 if ts else 0.0

    if not neardup_in_crawl:
        # the stage is off in this workload's crawls: time it on the same
        # round's fetched pages so the layer still has a figure here
        ro = pads.dataset(_files(os.path.join(rdir, "round_out"))).to_table(
            columns=["row_type", "status", "node_id", "name", "http_type"])
        parents = ro.filter(pa.compute.and_(
            pa.compute.equal(ro["row_type"], "parent"),
            pa.compute.equal(ro["status"], "COMPLETED"))).select(
            ["node_id", "name", "http_type"])
        nd_ck = os.path.join(scratch, "neardup")
        sp = spans.open("replay.ingest_dedup.probe_and_index_round")
        assigned = probe_and_index_round(nd_ck, 1, parents, corpus_ref, 0.6)
        out["neardup.stage_s"] = spans.close(sp)
        out["neardup.assigned"] = dict(zip(
            assigned["node_id"].to_pylist(),
            assigned["near_dup_of"].to_pylist()))
    spans.close(top)
    return out


def _child_rows(edges: pa.Table, crawl_id: str, depth: int) -> pa.Table:
    """A round's edges in the row shape fetch tasks offer to a shard."""
    import pyarrow.compute as pc

    from raycrawl.kernels import hash128

    dst = edges["dst"].combine_chunks()
    https = pc.starts_with(dst, "HTTPS://")
    proto = pc.if_else(https, pa.scalar("HTTPS://"), pa.scalar("HTTP://"))
    name = pc.if_else(https, pc.utf8_slice_codeunits(dst, 8),
                      pc.utf8_slice_codeunits(dst, 7))
    n = edges.num_rows
    khi, klo = hash128(dst)
    phash, _ = hash128(edges["src"])
    return pa.table({
        "crawl_id": pa.array([crawl_id] * n, pa.string()),
        "name": name,
        "http_type": proto,
        "node_id": dst,
        "depth": edges["depth"].cast(pa.int32()),
        "requested_depth": pa.array(np.full(n, depth, np.int32)),
        "ip": pa.array([""] * n, pa.string()),
        "domain": pa.array([""] * n, pa.string()),
        "request_time_ms": pa.array(np.zeros(n)),
        "parent_id": edges["src"],
        "phash": pa.array(phash, pa.uint64()),
        "khi": pa.array(khi, pa.uint64()),
        "klo": pa.array(klo, pa.uint64()),
    })
