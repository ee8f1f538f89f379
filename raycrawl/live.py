"""Live (mid-crawl) progress surface — the rebuild's analogue of the
reference's IN-PROGRESS lifecycle and 2 s progress WebSocket
(feeder/src/job.rs:41-51 claims a PENDING URL and marks it IN-PROGRESS;
manager/src/routes/ws.rs:25-53 pushes per-crawl status counts every 2 s).

Round-batched claim semantics: the feeder claims one URL at a time, so at
any instant its IN-PROGRESS set is the claimed-but-unfinished URLs. This
engine claims a whole BFS round at once — ``_begin_round`` stamps
``_CLAIMED`` in the round dir; the round barrier stamps ``_DONE``. Between
the two, the in-flight set is exactly the round's frontier, and the
frontier equals EVERY PENDING node of the committed snapshot (leaves are
born COMPLETED, M6; depth-guarded children never commit PENDING past the
requested depth, M5; retry parents stay PENDING and re-enter the frontier,
M11). So the live overlay is one vectorized status rewrite of the
snapshot table (``crawl.compacted_nodes``, the same compaction finalize
writes) — no lookup table, no broadcast — and it stays exact at any
frontier size. The snapshot is built in the driver, like ``final/nodes``.

Consistency: committed round dirs are immutable (``_DONE`` is the last
write), and the open round's partial output is never read — a live query
always sees the state as of the last round barrier, like the reference's
Bolt reads see Neo4j's last committed transaction.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.compute as pc

from raycrawl.crawl import _round_dir, compacted_nodes

COUNTER_COLS = [
    "round", "frontier_size", "parents_completed", "parents_failed",
    "retries_requeued", "nodes_created", "edges_created", "seen_size",
]


def last_done_round(ckpt_dir: str) -> int:
    r = -1
    while os.path.exists(os.path.join(_round_dir(ckpt_dir, r + 1), "_DONE")):
        r += 1
    return r


def open_round(ckpt_dir: str) -> int | None:
    """Round currently claimed-but-uncommitted, else None."""
    r = last_done_round(ckpt_dir) + 1
    rdir = _round_dir(ckpt_dir, r)
    if os.path.exists(os.path.join(rdir, "_CLAIMED")) and not os.path.exists(
        os.path.join(rdir, "_DONE")
    ):
        return r
    return None


def live_nodes(ckpt_dir: str):
    """Current node rows mid-crawl, with the IN-PROGRESS overlay, as a
    Dataset over the snapshot table."""
    import ray.data as rd

    last = last_done_round(ckpt_dir)
    if last < 0:
        raise FileNotFoundError(f"no committed rounds under {ckpt_dir}")
    t = compacted_nodes(ckpt_dir, last)
    if open_round(ckpt_dir) is not None:
        claimed = pc.and_(
            pc.equal(t["node_type"], "URL"), pc.equal(t["status"], "PENDING")
        )
        st = pc.if_else(claimed, pa.scalar("IN-PROGRESS"), t["status"])
        t = t.set_column(t.schema.get_field_index("status"), "status", st)
    return rd.from_arrow(t)


def live_progress(ckpt_dir: str, crawl_id: str) -> pa.Table:
    """A1+A2 over the live snapshot — the ws.rs payload for one poll tick.
    Nonzero ``in_progress`` whenever a round is in flight."""
    from raycrawl.queries import crawl_progress

    return crawl_progress(live_nodes(ckpt_dir), crawl_id)


def round_counters(ckpt_dir: str):
    """Per-round crawl metrics (frontier size, parent outcomes, new
    nodes/edges, seen-filter size) as a Dataset — the queryable stream the
    reference surfaces over its WebSocket. One row per committed round."""
    import ray.data as rd

    rows = []
    for r in range(1, last_done_round(ckpt_dir) + 1):
        cpath = os.path.join(_round_dir(ckpt_dir, r), "counters.json")
        if os.path.exists(cpath):
            with open(cpath) as f:
                c = json.load(f)
            rows.append({k: int(c[k]) for k in COUNTER_COLS})
    schema = pa.schema([(k, pa.int64()) for k in COUNTER_COLS])
    table = (pa.Table.from_pylist(rows, schema=schema)
             if rows else schema.empty_table())
    return rd.from_arrow(table)


def rounds_moving_avg(ckpt_dir: str, window: int = 3) -> pa.Table:
    """Event-time window over the crawl's OWN round stream (the §2.9
    streaming lane applied to the engine itself): every committed round is
    a watermark tick of the incrementally-growing counters Dataset; per
    round cursor the query reports the trailing ``window``-round sum /
    moving average and the running total of ``nodes_created``. Committed
    round dirs are immutable, so a monitor re-issuing this at each tick
    gets strictly-appended rows — the incremental-recompute property a
    streaming window needs. Exactness: integer window sums + ONE
    correctly-rounded double division, mirrored verbatim in the oracle
    SQL (sum OVER w / count OVER w), so the driver's value hash matches
    bit-for-bit."""
    import numpy as np

    t = round_counters(ckpt_dir).to_pandas()  # ≤ max_crawl_depth rows
    if len(t) == 0:
        return pa.table({
            "round": pa.array([], pa.int64()),
            "nodes_created": pa.array([], pa.int64()),
            "win_sum": pa.array([], pa.int64()),
            "moving_avg": pa.array([], pa.float64()),
            "cum_nodes": pa.array([], pa.int64()),
        })
    t = t.sort_values("round")
    nc = t["nodes_created"].to_numpy().astype(np.int64)
    cum = np.cumsum(nc)
    prev = np.concatenate([np.zeros(min(window, len(cum)), np.int64),
                           cum[:-window] if len(cum) > window else
                           np.empty(0, np.int64)])[:len(cum)]
    win_sum = cum - prev
    n_in_w = np.minimum(np.arange(len(nc)) + 1, window)
    return pa.table({
        "round": pa.array(t["round"].to_numpy().astype(np.int64)),
        "nodes_created": pa.array(nc),
        "win_sum": pa.array(win_sum),
        "moving_avg": pa.array(win_sum / n_in_w, pa.float64()),
        "cum_nodes": pa.array(cum),
    })


def livez() -> dict:
    """Liveness probe (manager routes/health.rs:9-11, feeder
    health.rs:4-6): unconditional ok — the probe answers iff the process
    can answer. Library-level analogue of GET /livez."""
    return {"status": "ok"}


def readyz(timeout_s: float = 5.0) -> dict:
    """Readiness probe (manager routes/health.rs:13-22): ready iff the
    state backend answers a trivial query. The reference runs ``RETURN 1``
    against Neo4j; this engine's backend is the Ray cluster, so a zero-CPU
    no-op task must round-trip within ``timeout_s``. Zero-CPU so the probe
    bypasses task-slot contention — a saturated-but-healthy cluster is
    ready. Never raises; not-ready carries a reason, mirroring the
    reference's 503 body."""
    try:
        import ray

        if not ray.is_initialized():
            return {"status": "not ready", "reason": "ray not initialized"}

        probe = ray.remote(num_cpus=0)(lambda: 1)
        if ray.get(probe.remote(), timeout=timeout_s) == 1:
            return {"status": "ready"}
        return {"status": "not ready", "reason": "unexpected probe result"}
    except Exception as e:  # noqa: BLE001 — probe must never raise
        return {"status": "not ready", "reason": str(e)}


def progress_stream(ckpt_dir: str, crawl_id: str, interval_s: float = 2.0,
                    max_polls: int | None = None):
    """Generator yielding ``live_progress`` dicts until the crawl leaves the
    'running' state — the 2 s WebSocket loop (ws.rs:25-53) as an iterator a
    monitoring process can consume while ``crawl()`` runs elsewhere."""
    import time

    polls = 0
    while True:
        try:
            row = live_progress(ckpt_dir, crawl_id).to_pylist()
        except FileNotFoundError:
            row = []
        if row:
            yield row[0]
            if row[0]["status"] != "running":
                return
        polls += 1
        if max_polls is not None and polls >= max_polls:
            return
        time.sleep(interval_s)
