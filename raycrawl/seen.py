"""Sharded URL-seen filter — the dedup role Neo4j's MERGE/anti-join plays in
the reference (feeder/src/job.rs:138-165 anti-join J1; :180 MERGE J2;
SURVEY.md §2.3 ST3, §7.3).

Design:

- S shards, each a Ray actor; a URL key routes to ``hash_hi % S``. Both the
  J1 anti-join key (the *raw-uppercased* candidate string) and the
  authoritative node key (the *normalized* ``http_type + name`` id) are
  checked against the same committed set — string equality under one hash
  function makes the two-stage dedup of the reference exact (SURVEY §7.4).
- Keys are 128-bit (``kernels.hash128``, two independent 64-bit lanes).
- **Round-snapshot semantics**: ``contains`` reads only the committed set;
  ``offer`` buffers a round's candidate rows; the driver calls
  ``commit_round`` at the round barrier. This is what makes the
  round-synchronous BFS deterministic (oracle.py).
- The committed set is one exact structure, a Python set of 16-byte keys
  (83 B per key at 1M keys). A Bloom-fronted sorted-array store held a
  key in 17.5 B but answered ``contains`` 1.4× (20k keys) to 2.7× (1M
  keys) slower; an approximate front pays only once the exact keys no
  longer fit in memory.
- Checkpointing: each shard writes its round's nodes delta itself;
  ``bulk_load`` restores the committed set (resume = union of deltas).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def pack_keys(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """(hi, lo) uint64 pairs → structured array (sortable, hashable rows)."""
    out = np.empty(len(hi), dtype=[("hi", "<u8"), ("lo", "<u8")])
    out["hi"] = hi
    out["lo"] = lo
    return out


def _group_first(khi, klo, phash, depth):
    """One winner row per 128-bit key → ``(win, arrival)``: each key's row
    with the least (depth, phash), the earliest row among ties, and the
    index of the key's earliest row. One lexsort by (khi, klo, depth,
    phash); np.lexsort is stable, so equal ranks keep row order."""
    order = np.lexsort((phash, depth, klo, khi))
    shi, slo = khi[order], klo[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (shi[1:] != shi[:-1]) | (slo[1:] != slo[:-1])
    starts = np.flatnonzero(first)
    return order[starts], np.minimum.reduceat(order, starts)


class SeenShardImpl:
    """One shard of the crawl-scoped URL-seen set + the J2 MERGE role (plain
    class; wrapped in a Ray actor by the driver via
    ``ray.remote(SeenShardImpl)`` and emptied with ``reset`` before each
    crawl that reuses it).

    Besides membership, the shard is the **node-dedup authority** for its
    key range: during a round, fetch tasks ``offer`` candidate child rows
    (routed by ``hash(node_id) % S``); the shard keeps, per node_id, the
    min-(depth, hash64(parent_id)) winner, first arrival breaking a tie —
    the deterministic stand-in for MERGE's racy first-writer ON CREATE
    (feeder/src/job.rs:180-186; SURVEY §7.4 min-depth BFS property). At
    the round barrier ``commit_round`` drops
    winners whose id is already committed (ON CREATE skipped), assigns the
    born status (leaf short-circuit M6, job.rs:182), folds the new ids into
    the committed set, and writes its own nodes-delta Parquet shard — the
    actor RPC *is* the shuffle, and the write is distributed (no driver
    funnel)."""

    # one buffered winner row per (offer, key): the payload the nodes delta
    # keeps, plus the 128-bit key and the parent hash that rank it
    _BUF_SCHEMA = pa.schema([
        ("crawl_id", pa.string()), ("name", pa.string()),
        ("http_type", pa.string()), ("node_id", pa.string()),
        ("depth", pa.int32()), ("requested_depth", pa.int32()),
        ("ip", pa.string()), ("domain", pa.string()),
        ("request_time_ms", pa.float64()),
        ("khi", pa.uint64()), ("klo", pa.uint64()), ("phash", pa.uint64()),
    ])

    # ``backend`` is kept only for crawlbench/layers.py's
    # ``SeenShardImpl(0, backend="set")``
    def __init__(self, shard_id: int, backend: str = "set"):
        if backend != "set":
            raise ValueError(f"unknown seen backend {backend!r}")
        self.shard_id = shard_id
        # the committed set: one exact 16-byte (hi, lo) key per node id
        self._committed: set[bytes] = set()
        # per-round incremental state (begin_round → offer* → commit_round)
        self._writer = None
        self._edge_buf: list = []
        self._edge_buf_rows = 0
        self._edge_count = 0
        self._seed_rows: list[dict] = []
        self._round_no = 0
        self._seed_id = ""
        self._nodes_path = None
        # each applied offer's per-key winner rows (_BUF_SCHEMA), in arrival
        # order: a row's position in their concatenation is its arrival
        # sequence. commit_round merges them.
        self._offered: list = []
        self._offered_rows = 0
        # replay guard: content keys of offers already applied this round.
        # offer() is called from inside retryable fetch tasks — on a task
        # retry the replayed offers must not re-append edge rows (the edge
        # buffer is append-only; _finalize assumes non-seed edges are
        # globally distinct). One small tuple per offer slice per round.
        self._offer_keys: set = set()

    def reset(self) -> None:
        """Empty the shard for a new crawl (the driver reuses one shard set
        per Ray session): close any edge partition a failed crawl left
        open, then start over with a fresh committed set."""
        if self._writer is not None:
            self._writer.close()
        self.__init__(self.shard_id)

    def contains(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """Membership against the committed (round-start) snapshot only."""
        buf = pack_keys(hi, lo).tobytes()
        s = self._committed
        return np.fromiter(
            (buf[i : i + 16] in s for i in range(0, len(buf), 16)),
            dtype=bool,
            count=len(hi),
        )

    def _add(self, hi: np.ndarray, lo: np.ndarray) -> None:
        buf = pack_keys(hi, lo).tobytes()
        self._committed.update(buf[i : i + 16] for i in range(0, len(buf), 16))

    def begin_round(self, nodes_path: str, edges_path: str, round_no: int,
                    seed_id: str) -> None:
        """Open this shard's edge partition for the round; reset round state.
        (Idempotent per round: a re-begun round discards partial state —
        rounds are rebuilt from scratch on resume.)"""
        if self._writer is not None:
            self._writer.close()
        from raycrawl.frontier import EDGES_SCHEMA

        self._edges_schema = EDGES_SCHEMA
        self._writer = None  # opened lazily on first flush
        self._edges_file = f"{edges_path}/shard-{self.shard_id:03d}.parquet"
        self._nodes_path = nodes_path
        self._round_no = round_no
        self._seed_id = seed_id
        self._edge_buf, self._edge_buf_rows, self._edge_count = [], 0, 0
        self._seed_rows = []
        self._offered, self._offered_rows = [], 0
        self._offer_keys = set()

    def _flush_edges(self, force: bool = False) -> None:
        import pyarrow.parquet as pq

        if self._edge_buf_rows == 0 or (not force and self._edge_buf_rows < 262_144):
            return
        t = pa.concat_tables(self._edge_buf)
        self._edge_buf, self._edge_buf_rows = [], 0
        if self._writer is None:
            self._writer = pq.ParquetWriter(self._edges_file, self._edges_schema)
        self._writer.write_table(t)

    def offer(self, table, salt: int = 0) -> int:
        """Stream one candidate-child slice:

        1. its rows ARE Lead edges (MERGE (p)-[:Lead]->(c), job.rs:185) —
           appended to this shard's edge partition incrementally (seed-src
           rows diverted, see crawl._finalize);
        2. its winner per node key — min (depth, hash64(parent_id)) — is
           appended, as Arrow rows, to the round's offer buffer.

        No Python work per key: the offer is one lexsort and one take. The
        buffer holds one row per distinct key of each offer, so a round's
        memory is O(sum over its offers of their distinct keys) — at most
        the round's rows offered to this shard, 165 B of Arrow per row on
        the benchmark's corpus — plus the edge write buffer. Returns the
        buffered row count.
        """
        n = table.num_rows
        if n == 0:
            return self._offered_rows
        # --- replay guard (task-retry idempotency) ---
        # Fold the slice's deterministic key columns into an order-
        # independent 192-bit content key, SALTED with the sending task's
        # identity (a retry-stable fold over the task's own frontier rows,
        # frontier.py `offer_salt`): only a Ray task retry replaying a
        # slice that already landed can repeat the (salt, content) pair —
        # two different tasks that legitimately offer identical content
        # (e.g. duplicated frontier rows) carry different salts and both
        # land (ADVICE r2). Replays are dropped before any state is
        # touched.
        khi = table["khi"].to_numpy(zero_copy_only=False)
        klo = table["klo"].to_numpy(zero_copy_only=False)
        depth_np = table["depth"].to_numpy(zero_copy_only=False).astype(np.int64)
        phash = table["phash"].to_numpy(zero_copy_only=False)
        mix = khi * np.uint64(0x9E3779B97F4A7C15)
        mix ^= klo * np.uint64(0xC2B2AE3D27D4EB4F)
        mix ^= phash * np.uint64(0x165667B19E3779F9)
        mix ^= depth_np.astype(np.uint64) * np.uint64(0x27D4EB2F165667C5)
        okey = (int(salt), n, int(np.bitwise_xor.reduce(mix)),
                int(mix.sum(dtype=np.uint64)))
        if okey in self._offer_keys:
            return self._offered_rows
        self._offer_keys.add(okey)
        # --- edges ---
        edges = pa.table(
            {
                "crawl_id": table["crawl_id"],
                "src": table["parent_id"],
                "dst": table["node_id"],
                "depth": table["depth"].cast(pa.int32()),
                "round": pa.array(np.full(n, self._round_no, np.int32)),
            },
            schema=self._edges_schema,
        )
        is_seed = pc.equal(edges["src"], self._seed_id)
        if pc.any(is_seed).as_py():
            self._seed_rows.extend(edges.filter(is_seed).to_pylist())
            edges = edges.filter(pc.invert(is_seed))
        self._edge_count += edges.num_rows
        self._edge_buf.append(edges)
        self._edge_buf_rows += edges.num_rows
        self._flush_edges()

        # --- this offer's winner per key, buffered in key order ---
        win, _ = _group_first(khi, klo, phash, depth_np)
        won = table.take(pa.array(win)).select(
            self._BUF_SCHEMA.names).cast(self._BUF_SCHEMA)
        self._offered.append(won)
        self._offered_rows += won.num_rows
        return self._offered_rows

    def commit_round(self) -> dict:
        """Round barrier: close the edge partition, merge the round's offer
        buffer into one winner per key, drop winners whose id is already
        committed (ON CREATE skipped), fold the new ids in, and write the
        nodes-delta parquet. Returns counts + seed rows.

        The merge is ``_group_first`` over the whole buffer, whose row order
        is arrival order: offers in the order they were applied, each
        offer's keys in key order. New keys are written in first-arrival
        order: by the first offer that held the key, then by key."""
        import pyarrow.parquet as pq

        from raycrawl.frontier import NODES_SCHEMA

        self._flush_edges(force=True)
        if self._writer is not None:
            self._writer.close()
            self._writer = None

        new_count = 0
        if self._offered:
            buf = pa.concat_tables(self._offered)
            khi = buf["khi"].to_numpy()
            klo = buf["klo"].to_numpy()
            win, arrival = _group_first(khi, klo, buf["phash"].to_numpy(),
                                        buf["depth"].to_numpy())
            fresh = ~self.contains(khi[win], klo[win])
            win = win[fresh][np.argsort(arrival[fresh])]
            new_count = len(win)
            if new_count:
                self._add(khi[win], klo[win])
                w = buf.take(pa.array(win))
                leaf = pc.equal(w["depth"], w["requested_depth"])
                cols = {
                    "node_type": pa.array(np.full(new_count, "URL")),
                    # leaf short-circuit M6 (job.rs:182)
                    "status": pc.if_else(leaf, "COMPLETED", "PENDING"),
                    "attempts": pa.array(np.zeros(new_count, np.int32)),
                    "round": pa.array(np.full(new_count, self._round_no,
                                              np.int32)),
                    # ROOT-only property (neo4j-graph-model.md:13-23)
                    "created_at": pa.nulls(new_count, pa.string()),
                }
                pq.write_table(
                    pa.table({f.name: cols[f.name] if f.name in cols
                              else w[f.name] for f in NODES_SCHEMA},
                             schema=NODES_SCHEMA),
                    f"{self._nodes_path}/shard-{self.shard_id:03d}.parquet",
                )
        self._offered, self._offered_rows = [], 0
        seed_rows, self._seed_rows = self._seed_rows, []
        edge_count, self._edge_count = self._edge_count, 0
        return {"new_nodes": int(new_count), "seen_size": len(self._committed),
                "edges_written": int(edge_count), "seed_rows": seed_rows}

    def bulk_load(self, hi: np.ndarray, lo: np.ndarray) -> int:
        """Checkpoint restore: load directly into the committed set."""
        self._add(hi, lo)
        return len(self._committed)

    def size(self) -> int:
        return len(self._committed)


class SeenRouter:
    """Client-side router used inside a round's fetch tasks
    (``frontier.fetch_expand_batch``): splits a key batch by shard and fans
    calls out to the shard actors (SURVEY §7.3: shuffle key = hash % S —
    here the 'shuffle' is the actor RPC, not a Dataset exchange)."""

    def __init__(self, handles):
        self.handles = handles
        self.n = len(handles)

    def _route(self, hi):
        return (hi % np.uint64(self.n)).astype(np.int64)

    def contains(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        import ray

        shard = self._route(hi)
        out = np.zeros(len(hi), dtype=bool)
        masks, refs = [], []
        for s in np.unique(shard):
            m = shard == s
            masks.append(m)
            refs.append(self.handles[int(s)].contains.remote(hi[m], lo[m]))
        for m, r in zip(masks, ray.get(refs)):
            out[m] = r
        return out

    def offer(self, hi: np.ndarray, lo: np.ndarray, table,
              salt: int = 0) -> list:
        """Route candidate child rows (Arrow table + parallel hash arrays)
        to their shards; the 128-bit key ships as two uint64 columns so the
        shard's winner sort leads with integer keys. Returns the call refs
        WITHOUT waiting — the caller overlaps actor processing with its
        remaining batch work and ray.get()s the refs before returning (so
        the driver's round barrier can only start after every offer
        landed)."""
        table = table.append_column("khi", pa.array(hi, pa.uint64()))
        table = table.append_column("klo", pa.array(lo, pa.uint64()))
        shard = self._route(hi)
        refs = []
        for s in np.unique(shard):
            idx = np.flatnonzero(shard == s)
            refs.append(self.handles[int(s)].offer.remote(
                table.take(pa.array(idx)), salt))
        return refs
