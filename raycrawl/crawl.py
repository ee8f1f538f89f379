"""BFS crawl driver: depth loop, round barrier, checkpoint/resume, cancel.

The reference's control plane is the Neo4j job queue polled by 8 feeder
processes (feeder/src/main.rs:64-148). Here a whole BFS level is one
round: the driver splits the in-memory frontier into host-keyed slices and
runs each as one plain Ray task (SURVEY §3.4); the only global
synchronization is the per-round driver barrier at which SeenShard deltas
commit.

Checkpoint layout (resumable, per-partition lineage):

    ckpt/crawl.json                      # seed, depth, crawl_id, config
    ckpt/round=0000/{nodes,edges,frontier}/ + counters.json + _DONE
    ckpt/round=NNNN/{round_out,nodes,edges,seed_edges,frontier}/
                     + counters.json + _CLAIMED + _DONE  # seed_edges: if any
    ckpt/round=NNNN/ndx/part-0.parquet   # with neardup_threshold: the
                                         # round's near-dup index file
    ckpt/round=NNNN/neardup/             # ... and its assignments
    ckpt/cancel/                         # PENDING→CANCELLED update delta
    ckpt/final/{nodes,edges}/            # one file each + _DONE: nodes with
                                         # each URL's last status
                                         # (compacted_nodes), all edges

Round 0 is the root bootstrap (manager POST /crawls semantics,
routes/crawl.rs:31-139: no J1 anti-join at the root, duplicates collapsed
only by MERGE). Resume = skip rounds with _DONE, bulk_load the seen
shards from the done rounds' nodes, continue from the last frontier;
mid-round crashes re-run the whole round idempotently (each round dir is
removed and rewritten atomically).
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import shutil
import threading
import uuid
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from raycrawl import dns_synth, sim
from raycrawl.config import CrawlConfig
from raycrawl.fetch import broadcast_corpus, build_fetch_corpus
from raycrawl.frontier import (
    EDGES_SCHEMA,
    NODES_SCHEMA,
    ROUND_OUT_SCHEMA,
    _trace_flush,
    _trace_mark,
    fetch_expand_batch,
)
from raycrawl.kernels import decode_html, extract_urls, hash128, host_of, normalize_url
from raycrawl.seen import SeenShardImpl

FRONTIER_SCHEMA = pa.schema(
    [
        ("crawl_id", pa.string()),
        ("name", pa.string()),
        ("http_type", pa.string()),
        ("depth", pa.int32()),
        ("requested_depth", pa.int32()),
        ("attempts", pa.int32()),
    ]
)

from raycrawl.errors import FetchFailed, InvalidDepth, StateError, fetch_error  # noqa: E402


def _round_dir(ckpt: str, r: int) -> str:
    return os.path.join(ckpt, f"round={r:04d}")


def _write_table(table: pa.Table, path: str) -> None:
    os.makedirs(path, exist_ok=True)
    pq.write_table(table, os.path.join(path, "part-driver.parquet"))


def cast_table(t: pa.Table, schema: pa.Schema) -> pa.Table:
    """Project + cast a batch to exactly `schema` (pandas round-trips widen
    int32→int64 etc.; parquet dirs must have one uniform schema)."""
    cols = {}
    for f in schema:
        if f.name in t.schema.names:
            cols[f.name] = t[f.name].cast(f.type)
        else:
            cols[f.name] = pa.nulls(t.num_rows, f.type)
    return pa.table(cols, schema=schema)


def _parquet_files(dirs: list[str]) -> list[str]:
    out = []
    for d in dirs:
        if os.path.isdir(d):
            out.extend(
                os.path.join(d, f) for f in sorted(os.listdir(d)) if f.endswith(".parquet")
            )
    return out


@dataclass
class CrawlResult:
    crawl_id: str
    ckpt_dir: str
    rounds_run: int
    cancelled: bool = False

    @property
    def nodes_path(self) -> str:
        return os.path.join(self.ckpt_dir, "final", "nodes")

    @property
    def edges_path(self) -> str:
        return os.path.join(self.ckpt_dir, "final", "edges")

    def nodes(self):
        return read_nodes(self.ckpt_dir)

    def edges(self):
        return read_edges(self.ckpt_dir)


def _bootstrap(ckpt: str, corpus_table: pa.Table, seed_url: str, depth: int,
               crawl_id: str, cfg: CrawlConfig) -> None:
    """Root expansion = reference POST /crawls (routes/crawl.rs:31-139 +
    crawl_service.rs:17-65): fetch root, extract, DNS fan-out, ROOT node +
    depth-1 children (NO J1; MERGE-only dedup, first occurrence wins)."""
    if not 1 <= depth <= cfg.max_crawl_depth:
        # 400 BAD_REQUEST (routes/crawl.rs:28-42; M9) — also a ValueError
        raise InvalidDepth(f"depth must be between 1 and {cfg.max_crawl_depth}")
    rname, rproto = normalize_url(seed_url)
    # locate the root row with a vectorized Arrow compare — never a Python
    # dict over the whole corpus (serial O(N) on the driver)
    mask = pa.compute.and_(
        pa.compute.equal(corpus_table["name"], rname),
        pa.compute.equal(corpus_table["http_type"], rproto),
    )
    hit = pa.compute.indices_nonzero(mask)
    idx = int(hit[0].as_py()) if len(hit) else None
    status = sim.fetch_status(rname, rproto, 1, idx is not None)
    if status != sim.STATUS_OK:
        # typed per crawler_error_to_status: 404 → 404, else → 502 (M10)
        raise fetch_error(status, rproto + rname)
    rstats = dns_synth.get_network_stats(rname, cfg.max_dns_depth)
    if rstats is None:
        raise FetchFailed(f"root DNS resolution failed: {rname}")
    relapsed = sim.fetch_elapsed_ms(rname, rproto)
    raw = extract_urls(decode_html(corpus_table["html"][idx].as_py()))

    import datetime

    root_row = dict(
        crawl_id=crawl_id, name=rname, http_type=rproto, node_id=rproto + rname,
        node_type="ROOT", depth=0, requested_depth=depth, status="root",
        attempts=0, ip=rstats[1], domain=rstats[0], request_time_ms=relapsed,
        round=0,
        # created_at: ROOT-only, like the reference's crawl submission
        # timestamp (neo4j-graph-model.md:22; crawl_service.rs sets now())
        created_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )
    nodes: dict[str, dict] = {}
    edges: set[tuple[str, str]] = set()
    for raw_url in raw:  # duplicates kept; first occurrence wins ON CREATE
        cname, cproto = normalize_url(raw_url)
        st = dns_synth.get_network_stats(cname, cfg.max_dns_depth)
        if st is None:
            continue  # silently dropped (routes/crawl.rs:97)
        cid = cproto + cname
        if cid not in nodes:
            nodes[cid] = dict(
                crawl_id=crawl_id, name=cname, http_type=cproto, node_id=cid,
                node_type="URL", depth=1, requested_depth=depth,
                status="COMPLETED" if depth == 1 else "PENDING",
                attempts=0, ip=st[1], domain=st[0], request_time_ms=relapsed,
                round=0,
            )
        edges.add((rproto + rname, cid))

    rdir = _round_dir(ckpt, 0)
    shutil.rmtree(rdir, ignore_errors=True)
    node_rows = [root_row] + list(nodes.values())
    _write_table(pa.Table.from_pylist(node_rows, schema=NODES_SCHEMA),
                 os.path.join(rdir, "nodes"))
    edge_rows = [
        dict(crawl_id=crawl_id, src=s, dst=d, depth=1, round=0) for s, d in sorted(edges)
    ]
    _write_table(pa.Table.from_pylist(edge_rows, schema=EDGES_SCHEMA),
                 os.path.join(rdir, "edges"))
    frontier_rows = [
        dict(crawl_id=crawl_id, name=n["name"], http_type=n["http_type"],
             depth=1, requested_depth=depth, attempts=0)
        for n in nodes.values()
        if n["status"] == "PENDING"
    ]
    _write_table(pa.Table.from_pylist(frontier_rows, schema=FRONTIER_SCHEMA),
                 os.path.join(rdir, "frontier"))
    with open(os.path.join(rdir, "counters.json"), "w") as f:
        json.dump(
            dict(round=0, frontier_size=1, fetched_ok=1, extracted=len(raw),
                 nodes_created=len(nodes), edges_created=len(edges)),
            f,
        )
    with open(os.path.join(rdir, "_DONE"), "w") as f:
        f.write("ok")


def _seen_shard_count(cfg: CrawlConfig) -> int:
    """``cfg.num_seen_shards``, else min(8, the cluster's CPUs)."""
    import ray

    if cfg.num_seen_shards is not None:
        return cfg.num_seen_shards
    return max(1, min(8, int(ray.cluster_resources().get("CPU", 1))))


# ``expected_keys`` is unused; crawlbench/layers.py still passes it
def _make_seen_actors(cfg: CrawlConfig, expected_keys=None):
    """A fresh seen-shard set, owned (and killed) by the caller. The shards
    reserve no CPU: they only answer RPCs, and any reservation leaves a
    1-CPU cluster no whole CPU for the fetch stage."""
    import ray

    Shard = ray.remote(SeenShardImpl)
    return [Shard.options(num_cpus=0).remote(i)
            for i in range(_seen_shard_count(cfg))]


# One seen-shard set per (Ray session, shard count), shared by every crawl
# in the session: starting shard processes was a crawl's largest fixed
# cost. The actors are unnamed and not detached, so ray.shutdown() ends
# them. A session is keyed by the driver's node id (a local restart gets a
# new one but reuses job ids) and job id (a reconnect to the same cluster).
_SEEN_POOL: dict = {}
_SEEN_POOL_BUSY: set = set()
_SEEN_POOL_LOCK = threading.Lock()


@contextlib.contextmanager
def _seen_shards(cfg: CrawlConfig):
    """Check out the session's seen shards, emptied for this crawl. While
    they are checked out, a concurrent crawl() in this driver gets its own
    set and kills it at the end. A crawl that raises leaves the pool as it
    was for the next crawl's reset."""
    import ray

    ctx = ray.get_runtime_context()
    session = (ctx.get_node_id(), ctx.get_job_id())
    n = _seen_shard_count(cfg)
    key = (session, n)
    with _SEEN_POOL_LOCK:
        for k in [k for k in _SEEN_POOL if k[0] != session]:
            del _SEEN_POOL[k]  # that session ended, and its actors with it
        pooled = key not in _SEEN_POOL_BUSY
        if pooled:
            _SEEN_POOL_BUSY.add(key)
    if not pooled:
        handles = _make_seen_actors(cfg)
        try:
            yield handles
        finally:
            for h in handles:
                ray.kill(h, no_restart=True)
        return
    try:
        handles = _SEEN_POOL.get(key)
        if handles is not None:
            try:
                ray.get([h.reset.remote() for h in handles])
            except ray.exceptions.RayActorError:
                # a shard died since the last crawl: replace the whole set
                for h in handles:
                    ray.kill(h, no_restart=True)
                handles = None
        if handles is None:
            handles = _SEEN_POOL[key] = _make_seen_actors(cfg)
        yield handles
    finally:
        with _SEEN_POOL_LOCK:
            _SEEN_POOL_BUSY.discard(key)


def _status_counts(col) -> dict[str, int]:
    """Vectorized status histogram of an Arrow string column."""
    vc = pa.compute.value_counts(col)
    return {
        str(v): int(c)
        for v, c in zip(vc.field("values").to_pylist(), vc.field("counts").to_pylist())
    }


def _begin_round(rdir: str, r: int, seen_handles, seed_id: str):
    """Open per-shard edge partitions + reset round state on every shard.

    Also stamps ``_CLAIMED`` in the round dir — the batch analogue of the
    feeder's per-URL PENDING→IN-PROGRESS claim (feeder/src/job.rs:41-51):
    while ``_CLAIMED`` exists without ``_DONE``, every PENDING node in the
    committed snapshot (== exactly the frontier being fetched) is
    IN-PROGRESS to live readers (raycrawl.live)."""
    import ray

    nodes_path = os.path.join(rdir, "nodes")
    edges_path = os.path.join(rdir, "edges")
    os.makedirs(nodes_path, exist_ok=True)
    os.makedirs(edges_path, exist_ok=True)
    with open(os.path.join(rdir, "_CLAIMED"), "w") as f:
        f.write("ok")
    ray.get([
        h.begin_round.remote(nodes_path, edges_path, r, seed_id)
        for h in seen_handles
    ])
    return nodes_path, edges_path


def _finish_barrier(rdir: str, seen_handles, nodes_path: str, edges_path: str,
                    overlap=None):
    """Round barrier: shards close their edge partitions, resolve winners,
    write nodes deltas; seed-src edge rows persist as a tiny sidecar.
    ``overlap()`` (the near-dup probe) runs in the driver while the shards
    commit; the two write disjoint files."""
    import ray

    refs = [h.commit_round.remote() for h in seen_handles]
    if overlap is not None:
        overlap()
    stats = ray.get(refs)
    for path, schema in ((nodes_path, NODES_SCHEMA), (edges_path, EDGES_SCHEMA)):
        if not any(f.endswith(".parquet") for f in os.listdir(path)):
            pq.write_table(schema.empty_table(),
                           os.path.join(path, "part-empty.parquet"))
    seed_rows = [row for s in stats for row in s["seed_rows"]]
    if seed_rows:
        _write_table(pa.Table.from_pylist(seed_rows, schema=EDGES_SCHEMA),
                     os.path.join(rdir, "seed_edges"))
    return stats


def _frontier_slices(frontier: pa.Table, batch_size: int,
                     ncpu: int) -> list[pa.Table]:
    """Split a round's frontier into k = max(1, min(n, 4 × CPUs, max(CPUs,
    ⌈n / batch_size⌉))) slices, one fetch task each, so every round of at
    least CPUs rows keeps every CPU busy and a large round still splits
    by ``batch_size``. Row → slice ``host_partition_ids(name, k)``: every
    row of one host lands in one task (the per-host politeness budget).
    Returns k tables; some may be empty (a host-keyed split is only as
    even as the hosts)."""
    from raycrawl.fetch import host_partition_ids

    n = frontier.num_rows
    k = max(1, min(n, 4 * ncpu, max(ncpu, -(-n // batch_size))))
    if k == 1:
        return [frontier]
    sid = host_partition_ids(frontier["name"], k)
    order = np.argsort(sid, kind="stable")
    frontier = frontier.take(pa.array(order))
    bounds = np.searchsorted(sid[order], np.arange(k + 1))
    return [frontier.slice(int(a), int(b - a))
            for a, b in zip(bounds[:-1], bounds[1:])]


def _fetch_slice(path: str, batch: pa.Table, batch_size: int,
                 fetch_kw: dict, neardup: bool) -> tuple[pa.Table, pa.Table]:
    """One fetch task: expand ``batch`` in ``batch_size`` chunks, write
    its round_out part (parent lifecycle rows) to ``path``, and return
    (the columns the driver needs: the frontier columns, node_id and
    status; the shingle/band/signature rows of the COMPLETED parents, in
    their row order, computed chunk by chunk when ``neardup``, else
    empty). A traced near-dup crawl also times the shingle pass, as the
    ``neardup_shingle`` stage."""
    import time

    from raycrawl.ingest_dedup import _shingle_band_batch

    traced = neardup and bool(os.environ.get("RAYCRAWL_TRACE_DIR"))
    ros, shs = [], []
    for off in range(0, batch.num_rows, batch_size):
        ro = fetch_expand_batch(batch.slice(off, batch_size), **fetch_kw)
        done = ro.filter(pa.compute.equal(ro["status"], "COMPLETED"))
        ros.append(ro)
        t0 = time.perf_counter()
        shs.append(_shingle_band_batch(done if neardup else done.slice(0, 0),
                                       fetch_kw["corpus_ref"]))
        if traced:
            _trace_mark("neardup_shingle", t0)
            # fetch_expand_batch's own record already counted these rows
            _trace_flush(0)
    ro = pa.concat_tables(ros)
    pq.write_table(ro, path)
    return (ro.select(FRONTIER_SCHEMA.names + ["node_id", "status"]),
            pa.concat_tables(shs))


@functools.lru_cache(maxsize=1)
def _as_task(fn):
    """``fn`` as a Ray task without retries, made once: a remote function
    made per round would be exported to the GCS again, and loaded again
    by every worker, each round of the session."""
    import ray

    return ray.remote(max_retries=0)(fn)


def _run_round(ckpt: str, r: int, crawl_id: str, cfg: CrawlConfig,
               corpus_ref, seen_handles, seed_id: str,
               frontier_table: pa.Table | None = None):
    """Execute BFS round r from round r-1's frontier (``frontier_table``
    in memory, else read back from the checkpoint on resume). Idempotent:
    the round dir is rebuilt from scratch.

      fetch: the frontier splits into host-keyed slices
         (``_frontier_slices``, at least one per CPU once the round has
         that many rows), one plain Ray task each; a task runs
         fetch_expand, ships child candidates to the SeenShard actors (the
         RPC is the shuffle), writes its round_out part (parent lifecycle
         rows) and returns only the parents' frontier columns + status,
         plus, with ``neardup_threshold`` set, its COMPLETED parents'
         shingle rows (so the shingle pass runs on every CPU, not in the
         driver);
      barrier: shards resolve J2 winners and write BOTH the nodes delta
         and the Lead-edge parquet partitions themselves; seed-src edge
         rows come back as a tiny sidecar;
      neardup: while the shards commit, the driver concatenates both
         fetch outputs in submission order, so shingle rows stay paired
         with their parents, and probes / indexes the round
         (``probe_and_index_round``);
      frontier_{r+1} = new PENDING nodes ∪ PENDING parents (M11
         re-enqueue), built on the driver and written as one file.
    Parent status updates ARE round_out; edges live in the shard-written
    per-round partitions (composed at finalize)."""
    import time as _time

    import pyarrow.dataset as pads
    import ray

    t_enter = _time.perf_counter()
    rdir = _round_dir(ckpt, r)
    shutil.rmtree(rdir, ignore_errors=True)
    os.makedirs(rdir, exist_ok=True)
    frontier = frontier_table
    if frontier is None:
        prev = os.path.join(_round_dir(ckpt, r - 1), "frontier")
        frontier = pads.dataset(_parquet_files([prev])).to_table()
    ncpu = int(ray.cluster_resources().get("CPU", 1))
    slices = _frontier_slices(frontier, cfg.fetch_batch_size, ncpu)
    nodes_path, edges_path = _begin_round(rdir, r, seen_handles, seed_id)
    ro_path = os.path.join(rdir, "round_out")

    # offer() RPCs are side-effecting, so task retries are OFF (a silently
    # replayed task would double its edge rows). If any task fails, the
    # WHOLE round re-runs once, but only after every task of the failed
    # attempt has finished: a straggler still offering after the reset
    # would land its edges twice.
    fetch = _as_task(_fetch_slice)
    fetch_kw = dict(
        corpus_ref=corpus_ref, seen_handles=seen_handles,
        max_attempts=cfg.max_attempts, max_dns_depth=cfg.max_dns_depth,
        round_no=r, politeness_delay_ms=cfg.politeness_delay_ms,
        respect_robots=cfg.respect_robots, enrich=cfg.enrich,
    )

    neardup = cfg.neardup_threshold is not None

    def fetch_stage() -> list[tuple[pa.Table, pa.Table]]:
        os.makedirs(ro_path, exist_ok=True)
        refs = [fetch.remote(os.path.join(ro_path, f"part-{i:05d}.parquet"),
                             s, cfg.fetch_batch_size, fetch_kw, neardup)
                for i, s in enumerate(slices) if s.num_rows]
        ray.wait(refs, num_returns=len(refs))
        return ray.get(refs)

    t0 = _time.perf_counter()
    try:
        outs = fetch_stage()
    except ray.exceptions.RayError:
        shutil.rmtree(ro_path, ignore_errors=True)
        _begin_round(rdir, r, seen_handles, seed_id)  # reset shard round state
        outs = fetch_stage()
    parents = pa.concat_tables([p for p, _sh in outs])
    t_fetch = _time.perf_counter() - t0
    t_neardup = 0.0
    nd_counters: dict = {}

    def probe() -> None:
        from raycrawl.ingest_dedup import probe_and_index_round

        nonlocal t_neardup
        t_nd0 = _time.perf_counter()
        done = parents.filter(pa.compute.equal(parents["status"], "COMPLETED"))
        probe_and_index_round(ckpt, r, done.select(["node_id", "name", "http_type"]),
                              corpus_ref, cfg.neardup_threshold,
                              shingles=pa.concat_tables([sh for _p, sh in outs]),
                              counters=nd_counters)
        t_neardup = _time.perf_counter() - t_nd0

    stats = _finish_barrier(rdir, seen_handles, nodes_path, edges_path,
                            probe if neardup else None)
    # the barrier wait that remains after the overlapped probe
    t_barrier = _time.perf_counter() - t0 - t_fetch - t_neardup

    nodes = pads.dataset(_parquet_files([nodes_path])).to_table(
        columns=FRONTIER_SCHEMA.names + ["status"])
    next_frontier = pa.concat_tables([
        cast_table(t.filter(pa.compute.equal(t["status"], "PENDING")),
                   FRONTIER_SCHEMA)
        for t in (nodes, parents)
    ])
    _write_table(next_frontier, os.path.join(rdir, "frontier"))

    pstat = _status_counts(parents["status"])
    counters = dict(
        round=r,
        frontier_size=frontier.num_rows,
        parents_completed=pstat.get("COMPLETED", 0),
        parents_failed=pstat.get("FAILED", 0),
        retries_requeued=pstat.get("PENDING", 0),
        nodes_created=int(sum(s["new_nodes"] for s in stats)),
        edges_created=int(sum(s["edges_written"] for s in stats)
                          + sum(len(s["seed_rows"]) for s in stats)),
        seen_size=int(sum(s["seen_size"] for s in stats)),
        t_setup_s=round(t0 - t_enter, 3),
        t_fetch_s=round(t_fetch, 3),
        t_neardup_s=round(t_neardup, 3),
        t_barrier_s=round(t_barrier, 3),
        t_frontier_s=round(_time.perf_counter() - t0 - t_fetch - t_neardup
                           - t_barrier, 3),
        **nd_counters,
    )
    with open(os.path.join(rdir, "counters.json"), "w") as f:
        json.dump(counters, f)
    with open(os.path.join(rdir, "_DONE"), "w") as f:
        f.write("ok")
    return counters, next_frontier


def _final_dataset(ckpt_dir: str, name: str):
    """``final/{name}`` as a Dataset. This finalize leaves one Parquet file
    there; anything else (an older finalize's JSON manifest over the
    per-round partitions, or its ``status_updates/`` sidecar) is refused,
    since that layout keeps only part of the rows in ``final/`` and reading
    its Parquet alone would drop the rest without a word."""
    import ray.data as rd

    d = os.path.join(ckpt_dir, "final", name)
    other = sorted(f for f in os.listdir(d) if not f.endswith(".parquet"))
    if other:
        raise StateError(
            f"{d} holds {other}, left by an older finalize layout; resume "
            f"the crawl (crawl(..., resume=True)) to finalize it again")
    return rd.read_parquet(_parquet_files([d]))


def read_nodes(ckpt_dir: str):
    """Final node Dataset for a crawl (``final/nodes``)."""
    return _final_dataset(ckpt_dir, "nodes")


def read_edges(ckpt_dir: str):
    """Final edge Dataset for a crawl (``final/edges``)."""
    return _final_dataset(ckpt_dir, "edges")


def compacted_nodes(ckpt: str, rounds: int) -> pa.Table:
    """Node rows after ``rounds`` committed rounds, in creation order: the
    creation deltas, with each URL node's status and attempts taken from
    its last ``round_out`` or ``cancel/`` row (what a read sees after the
    reference's ``SET n.status``, feeder/src/job.rs:108-131). ``_finalize``
    writes it to ``final/nodes``; ``raycrawl.live`` serves mid-crawl
    snapshots from it (the reference's live Bolt reads,
    crawl_service.rs:68-134)."""
    import pyarrow.dataset as pads

    pc = pa.compute
    nodes = pads.dataset(_parquet_files(
        [os.path.join(_round_dir(ckpt, r), "nodes") for r in range(rounds + 1)]
    )).to_table()
    upd_files = _parquet_files(
        [os.path.join(_round_dir(ckpt, r), "round_out") for r in range(1, rounds + 1)]
        + [os.path.join(ckpt, "cancel")])
    if upd_files:
        # sort_by is stable, so two rows of one round keep their file
        # order, and a one-thread "last" takes each node's final row
        last = (pads.dataset(upd_files)
                .to_table(columns=["node_id", "status", "attempts", "round"])
                .sort_by("round")
                .group_by("node_id", use_threads=False)
                .aggregate([("status", "last"), ("attempts", "last")]))
        idx = pc.index_in(nodes["node_id"], value_set=last["node_id"])
        # only URL rows take updates: the ROOT row keeps its status even
        # when a URL node of its node_id (the label split,
        # crawl_service.rs:45) was fetched
        hit = pc.and_(pc.is_valid(idx), pc.equal(nodes["node_type"], "URL"))
        for col in ("status", "attempts"):
            new = pc.if_else(hit, last[f"{col}_last"].take(idx), nodes[col])
            nodes = nodes.set_column(nodes.schema.get_field_index(col), col, new)
    return cast_table(nodes, NODES_SCHEMA)


def _finalize(ckpt: str, rounds: int) -> None:
    """Compact into final/, one file each: ``compacted_nodes`` →
    final/nodes; the rounds' edges → final/edges."""
    import pyarrow.dataset as pads

    fdir = os.path.join(ckpt, "final")
    shutil.rmtree(fdir, ignore_errors=True)
    _write_table(compacted_nodes(ckpt, rounds), os.path.join(fdir, "nodes"))

    # Edges: bootstrap delta (round 0, all src == seed/ROOT id) + per-round
    # edge partitions written by the seen shards at each barrier. Edges are
    # already globally distinct EXCEPT rows with src == seed id (the
    # ROOT/URL label split, crawl_service.rs:45): those were diverted into
    # tiny per-round seed_edges sidecars and are exact-deduped here on the
    # driver (min round wins), then the round partitions are appended.
    with open(os.path.join(ckpt, "crawl.json")) as f:
        meta = json.load(f)
    rname, rproto = normalize_url(meta["seed_url"])
    seed_id = rproto + rname

    e0_files = _parquet_files([os.path.join(_round_dir(ckpt, 0), "edges")])
    round_edge_files = _parquet_files(
        [os.path.join(_round_dir(ckpt, r), "edges") for r in range(1, rounds + 1)]
    )
    seed_files = _parquet_files(
        [os.path.join(_round_dir(ckpt, r), "seed_edges") for r in range(1, rounds + 1)]
    )

    # seed-src dedup (bootstrap edges are all seed-src; sidecars are tiny)
    seed_tbls = [pads.dataset(e0_files).to_table()] if e0_files else []
    if seed_files:
        seed_tbls.append(pads.dataset(seed_files).to_table())
    best: dict[str, dict] = {}
    for t in seed_tbls:
        for row in cast_table(t, EDGES_SCHEMA).to_pylist():
            if row["src"] != seed_id:
                continue
            cur = best.get(row["dst"])
            if cur is None or row["round"] < cur["round"]:
                best[row["dst"]] = row
    edges = pa.Table.from_pylist(
        sorted(best.values(), key=lambda r: r["dst"]), schema=EDGES_SCHEMA)
    if round_edge_files:
        edges = pa.concat_tables([edges, cast_table(
            pads.dataset(round_edge_files).to_table(), EDGES_SCHEMA)])
    _write_table(edges, os.path.join(fdir, "edges"))
    with open(os.path.join(fdir, "_DONE"), "w") as f:
        f.write("ok")


def _cancel(ckpt: str, r: int, crawl_id: str) -> int:
    """PENDING frontier → CANCELLED update delta (crawl_service.rs:219-235)."""
    import pyarrow.dataset as pads

    frontier = pads.dataset(os.path.join(_round_dir(ckpt, r), "frontier")).to_table()
    rows = [
        dict(row_type="parent", crawl_id=crawl_id, name=n, http_type=p,
             node_id=p + n, depth=int(d), requested_depth=int(rq),
             attempts=int(a or 0), status="CANCELLED", ip="", domain="",
             request_time_ms=0.0, parent_id="", fetch_status=0, round=10_000)
        for n, p, d, rq, a in zip(
            frontier["name"].to_pylist(), frontier["http_type"].to_pylist(),
            frontier["depth"].to_pylist(), frontier["requested_depth"].to_pylist(),
            frontier["attempts"].to_pylist(),
        )
    ]
    _write_table(pa.Table.from_pylist(rows, schema=ROUND_OUT_SCHEMA),
                 os.path.join(ckpt, "cancel"))
    return len(rows)


def crawl(
    corpus_dir: str,
    seed_url: str,
    depth: int,
    ckpt_dir: str,
    cfg: CrawlConfig | None = None,
    crawl_id: str | None = None,
    resume: bool = True,
    cancel_after_round: int | None = None,
    max_rounds: int = 64,
    corpus_table: pa.Table | None = None,
    corpus_ref=None,
) -> CrawlResult:
    """Run (or resume) one crawl end-to-end. Requires an initialized Ray.
    Pass a pre-built ``corpus_table`` (build_fetch_corpus) or its
    ``broadcast_corpus`` ref ``corpus_ref`` to skip the driver-side corpus
    load (bench separates corpus load from crawl time). Resuming against
    another ``corpus_dir`` than the crawl's own raises ``StateError``."""
    import ray

    cfg = cfg or CrawlConfig()
    meta_path = os.path.join(ckpt_dir, "crawl.json")

    if resume and os.path.exists(meta_path):
        with open(meta_path) as f:
            meta = json.load(f)
        crawl_id = meta["crawl_id"]
        seed_url, depth = meta["seed_url"], meta["depth"]
        if os.path.realpath(corpus_dir) != os.path.realpath(meta["corpus_dir"]):
            raise StateError(
                f"{ckpt_dir} is a crawl of the corpus {meta['corpus_dir']}; "
                f"resuming it over {corpus_dir} would mix two corpora")
    else:
        shutil.rmtree(ckpt_dir, ignore_errors=True)
        os.makedirs(ckpt_dir, exist_ok=True)
        crawl_id = crawl_id or str(uuid.uuid4())
        with open(meta_path, "w") as f:
            json.dump(dict(crawl_id=crawl_id, seed_url=seed_url, depth=depth,
                           corpus_dir=os.path.realpath(corpus_dir)), f)

    rn, rp = normalize_url(seed_url)
    seed_id = rp + rn

    import time as _time

    _ph = {}  # coarse phase timers, dumped to ckpt/phases.json for tuning
    _t = _time.perf_counter()
    if corpus_table is None and corpus_ref is not None:
        corpus_table = ray.get(corpus_ref)[0]
    if corpus_table is None:
        corpus_table = build_fetch_corpus(corpus_dir)
    if not os.path.exists(os.path.join(_round_dir(ckpt_dir, 0), "_DONE")):
        _bootstrap(ckpt_dir, corpus_table, seed_url, depth, crawl_id, cfg)
    if corpus_ref is None:
        # broadcast table + driver-precomputed sorted index: workers
        # warm zero-copy instead of each re-indexing the corpus
        corpus_ref = broadcast_corpus(corpus_table)

    _ph["corpus_boot_s"] = round(_time.perf_counter() - _t, 4)

    # restore seen state from all completed rounds
    last_done = 0
    r = 1
    while os.path.exists(os.path.join(_round_dir(ckpt_dir, r), "_DONE")):
        last_done = r
        r += 1
    if cfg.neardup_threshold is not None:
        from raycrawl.ingest_dedup import index_file

        # the ingestion-dedup index is built round-by-round; a crawl that
        # ran earlier rounds WITHOUT it, or wrote them in another index
        # layout, has no index file to probe, so resuming would silently
        # miss every cross-round duplicate
        for rr in range(1, last_done + 1):
            if not os.path.exists(index_file(ckpt_dir, rr)):
                raise ValueError(
                    f"neardup_threshold requires the crawl to have run "
                    f"with ingestion dedup from its first round; "
                    f"round {rr} of {ckpt_dir} has no ndx/part-0.parquet "
                    f"index file")
    import pyarrow.dataset as pads

    _t = _time.perf_counter()
    with _seen_shards(cfg) as seen:
        _ph["actors_s"] = round(_time.perf_counter() - _t, 4)
        _t = _time.perf_counter()

        # Restore the committed set incrementally: per round, per parquet
        # file, vectorized Arrow filter + hash — never a whole-history Python
        # list on the driver. bulk_load calls for round r overlap with
        # reading r+1 (refs awaited lazily in a sliding window).
        pending_refs: list = []
        for rr in range(0, last_done + 1):
            for f in _parquet_files([os.path.join(_round_dir(ckpt_dir, rr),
                                                  "nodes")]):
                t = pq.read_table(f, columns=["node_id", "node_type"])
                # J1 matches only :URL nodes (job.rs:148)
                t = t.filter(pa.compute.equal(t["node_type"], "URL"))
                if t.num_rows == 0:
                    continue
                hi, lo = hash128(t["node_id"].combine_chunks())
                shard = (hi % np.uint64(len(seen))).astype(np.int64)
                for s in np.unique(shard):
                    m = shard == s
                    pending_refs.append(
                        seen[int(s)].bulk_load.remote(hi[m], lo[m]))
                if len(pending_refs) > 4 * len(seen):
                    ready = pending_refs[: 2 * len(seen)]
                    pending_refs = pending_refs[2 * len(seen):]
                    ray.get(ready)
        if pending_refs:
            ray.get(pending_refs)
        _ph["restore_s"] = round(_time.perf_counter() - _t, 4)

        cancelled = os.path.isdir(os.path.join(ckpt_dir, "cancel"))
        r = last_done
        fr_table: pa.Table | None = None  # in-memory handoff round→round
        while not cancelled:
            if fr_table is not None:
                fsize = fr_table.num_rows
            else:
                fdir = os.path.join(_round_dir(ckpt_dir, r), "frontier")
                fsize = (pads.dataset(fdir).count_rows()
                         if os.path.isdir(fdir) else 0)
            if fsize == 0 or r >= max_rounds:
                break
            _, fr_table = _run_round(ckpt_dir, r + 1, crawl_id, cfg,
                                     corpus_ref, seen, seed_id=seed_id,
                                     frontier_table=fr_table)
            r += 1
            if cancel_after_round is not None and r >= cancel_after_round:
                _cancel(ckpt_dir, r, crawl_id)
                cancelled = True

    _t = _time.perf_counter()
    _finalize(ckpt_dir, r)
    _ph["finalize_s"] = round(_time.perf_counter() - _t, 4)
    with open(os.path.join(ckpt_dir, "phases.json"), "w") as f:
        json.dump(_ph, f)
    # the seen shards stay up for the session's next crawl, which resets
    # them; their state is checkpointed per round, so resume never needs it
    return CrawlResult(crawl_id=crawl_id, ckpt_dir=ckpt_dir, rounds_run=r,
                       cancelled=cancelled)
