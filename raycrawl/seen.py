"""Sharded URL-seen filter — the dedup role Neo4j's MERGE/anti-join plays in
the reference (feeder/src/job.rs:138-165 anti-join J1; :180 MERGE J2;
SURVEY.md §2.3 ST3, §7.3).

Design (the 10^10-URL design point, tested at small scale):

- S shards, each a Ray actor; a URL key routes to ``hash_hi % S``. Both the
  J1 anti-join key (the *raw-uppercased* candidate string) and the
  authoritative node key (the *normalized* ``http_type + name`` id) are
  checked against the same committed set — string equality under one hash
  function makes the two-stage dedup of the reference exact (SURVEY §7.4).
- Keys are 128-bit (two independently-seeded xxh64 lanes): 64-bit would
  birthday-collide with certainty at 10^10 keys.
- **Round-snapshot semantics**: ``contains`` reads only the committed set;
  ``add_pending`` buffers; the driver calls ``commit`` at the round barrier.
  This is what makes the round-synchronous BFS deterministic (oracle.py).
- Backends: ``set`` — exact Python set of 16-byte keys (test scale);
  ``sortedruns`` — Bloom front + sorted numpy runs with vectorized
  searchsorted membership and periodic compaction (scale path; ~16 B/key
  flat arrays instead of ~100 B/key Python set entries); ``cuckoo`` —
  the same exact runs behind a cuckoo-filter front (lower FP rate,
  deletion support, safe all-True degrade on overflow).
- Checkpointing: per-round deltas are returned by ``commit`` and written to
  Parquet by the driver; ``bulk_load`` restores (resume = union of deltas).
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


class _SetBackend:
    """Exact membership via a Python set of 16-byte keys."""

    def __init__(self):
        self._set: set[bytes] = set()

    def contains(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        buf = pack_keys(hi, lo).tobytes()
        s = self._set
        return np.fromiter(
            (buf[i : i + 16] in s for i in range(0, len(buf), 16)),
            dtype=bool,
            count=len(hi),
        )

    def add(self, hi: np.ndarray, lo: np.ndarray) -> None:
        buf = pack_keys(hi, lo).tobytes()
        self._set.update(buf[i : i + 16] for i in range(0, len(buf), 16))

    def __len__(self):
        return len(self._set)


class _Bloom:
    """Vectorized Bloom filter over (hi, lo) uint64 key pairs."""

    def __init__(self, n_bits: int, n_hashes: int = 4):
        self.m = np.uint64(max(64, n_bits))
        self.k = n_hashes
        self.bits = np.zeros(int(self.m) // 8 + 1, dtype=np.uint8)

    def _indices(self, hi, lo):
        # double hashing: idx_j = (hi + j*lo) mod m
        js = np.arange(self.k, dtype=np.uint64)[:, None]
        with np.errstate(over="ignore"):
            return (hi[None, :] + js * lo[None, :]) % self.m  # (k, n)

    def add(self, hi, lo):
        idx = self._indices(hi, lo).ravel()
        np.bitwise_or.at(self.bits, (idx >> np.uint64(3)).astype(np.int64),
                         (1 << (idx & np.uint64(7))).astype(np.uint8))

    def maybe_contains(self, hi, lo) -> np.ndarray:
        idx = self._indices(hi, lo)
        byte = self.bits[(idx >> np.uint64(3)).astype(np.int64)]
        bit = (byte >> (idx & np.uint64(7)).astype(np.uint8)) & 1
        return bit.all(axis=0).astype(bool)


class _Cuckoo:
    """Vectorized cuckoo filter over (hi, lo) uint64 key pairs.

    Public algorithm (Fan, Andersen, Kaminsky, Mitzenmacher, "Cuckoo
    Filter: Practically Better Than Bloom", CoNEXT 2014): buckets of 4
    16-bit fingerprints, two candidate buckets per key via the
    partial-key-cuckoo XOR trick (``i2 = i1 ^ hash(fp)``, involutive when
    the bucket count is a power of two), eviction chains on full buckets.
    vs the Bloom front: ~2⁻¹³ false-positive rate at ~20 bits/key and
    deletion support; same no-false-negative contract while ``overflow``
    is False. On an eviction-chain failure (table effectively full) the
    filter degrades SAFELY: ``maybe_contains`` returns all-True so the
    exact backing runs still decide membership — never a false negative.

    Inserts are batch-vectorized: multi-pass "one key per bucket per pass"
    placement into empty slots (numpy-only), with the per-key eviction
    loop reserved for the stragglers a full bucket leaves behind (rare
    below ~0.84 load). Deterministic throughout — slot choice is
    ``kick % 4``, no RNG — so crawl replays are bit-identical.
    """

    SLOTS = 4
    MAX_KICKS = 500

    def __init__(self, expected_keys: int):
        m = 1
        while m * self.SLOTS * 0.84 < max(64, expected_keys):
            m <<= 1
        self.m = m
        self._mask = np.uint64(m - 1)
        self.table = np.zeros((m, self.SLOTS), dtype=np.uint16)
        self.overflow = False
        self._n = 0

    @staticmethod
    def _fp(hi: np.ndarray) -> np.ndarray:
        # fingerprint in 1..65535 (0 is the empty-slot sentinel)
        return (hi % np.uint64(65535) + np.uint64(1)).astype(np.uint16)

    @staticmethod
    def _fp_hash(fp: np.ndarray) -> np.ndarray:
        x = fp.astype(np.uint64)
        with np.errstate(over="ignore"):
            x = x * np.uint64(0x9E3779B97F4A7C15)
        return x ^ (x >> np.uint64(31))

    def _buckets(self, hi, lo):
        fp = self._fp(np.asarray(hi, dtype=np.uint64))
        i1 = (np.asarray(lo, dtype=np.uint64) & self._mask).astype(np.int64)
        i2 = ((i1.astype(np.uint64) ^ self._fp_hash(fp)) & self._mask).astype(np.int64)
        return fp, i1, i2

    def maybe_contains(self, hi, lo) -> np.ndarray:
        if self.overflow:
            return np.ones(len(hi), dtype=bool)
        fp, i1, i2 = self._buckets(hi, lo)
        col = fp[:, None]
        return ((self.table[i1] == col).any(axis=1)
                | (self.table[i2] == col).any(axis=1))

    def add(self, hi, lo) -> None:
        if self.overflow or len(hi) == 0:
            return
        fp, i1, i2 = self._buckets(hi, lo)
        col = fp[:, None]
        present = ((self.table[i1] == col).any(axis=1)
                   | (self.table[i2] == col).any(axis=1))
        remaining = np.flatnonzero(~present)
        # vectorized placement: each pass writes at most one key per bucket
        # (np.unique picks the winner) so concurrent writes never collide
        while remaining.size:
            before = remaining.size
            for buckets in (i1, i2):
                for slot in range(self.SLOTS):
                    if remaining.size == 0:
                        break
                    b = buckets[remaining]
                    idx = remaining[self.table[b, slot] == 0]
                    if idx.size == 0:
                        continue
                    _, first = np.unique(buckets[idx], return_index=True)
                    chosen = idx[first]
                    self.table[buckets[chosen], slot] = fp[chosen]
                    self._n += chosen.size
                    remaining = remaining[~np.isin(remaining, chosen)]
            if remaining.size == before:
                break  # no empty slot in either bucket → eviction path
        for j in remaining:
            if not self._insert_evict(fp[j], int(i1[j])):
                self.overflow = True
                return

    def _insert_evict(self, f: np.uint16, i: int) -> bool:
        for kick in range(self.MAX_KICKS):
            row = self.table[i]
            empty = np.flatnonzero(row == 0)
            if empty.size:
                row[empty[0]] = f
                self._n += 1
                return True
            s = kick % self.SLOTS  # deterministic victim
            f, row[s] = row[s], f
            i = int((np.uint64(i) ^ self._fp_hash(np.asarray([f]))[0])
                    & self._mask)
        return False

    def delete(self, hi, lo) -> np.ndarray:
        """Remove one stored copy per key; True where a copy was found.
        Not used by the crawl (seen-sets only grow) — exercised by tests
        to pin the cuckoo-specific capability Bloom lacks."""
        fp, i1, i2 = self._buckets(hi, lo)
        out = np.zeros(len(fp), dtype=bool)
        for j in range(len(fp)):
            for i in (i1[j], i2[j]):
                slots = np.flatnonzero(self.table[i] == fp[j])
                if slots.size:
                    self.table[i, slots[0]] = 0
                    self._n -= 1
                    out[j] = True
                    break
        return out


def _make_front(front: str, expected_keys: int, bits_per_key: int):
    if front == "bloom":
        return _Bloom(expected_keys * bits_per_key)
    if front == "cuckoo":
        return _Cuckoo(expected_keys)
    raise ValueError(f"unknown seen front {front!r}")


class _SortedRunsBackend:
    """Bloom-or-cuckoo front + sorted (hi, lo) runs; vectorized binary
    search. The front only short-circuits definite misses (no false
    negatives by construction), so membership stays EXACT — required for
    oracle-equal crawls — while ~99% of novel-URL probes skip the runs."""

    def __init__(self, expected_keys: int = 10_000_000, bits_per_key: int = 12,
                 compact_above: int = 8, front: str = "bloom"):
        self._runs: list[tuple[np.ndarray, np.ndarray]] = []  # (hi sorted, lo)
        self._bloom = _make_front(front, expected_keys, bits_per_key)
        self._compact_above = compact_above
        self._n = 0

    @staticmethod
    def _sort(hi, lo):
        order = np.lexsort((lo, hi))
        return hi[order], lo[order]

    @staticmethod
    def _run_contains(run_hi, run_lo, hi, lo) -> np.ndarray:
        left = np.searchsorted(run_hi, hi, "left")
        right = np.searchsorted(run_hi, hi, "right")
        out = np.zeros(len(hi), dtype=bool)
        width = right - left
        one = width == 1
        out[one] = run_lo[left[one]] == lo[one]
        for i in np.flatnonzero(width > 1):
            out[i] = lo[i] in run_lo[left[i] : right[i]]
        return out

    def contains(self, hi, lo) -> np.ndarray:
        if self._n == 0 or len(hi) == 0:
            return np.zeros(len(hi), dtype=bool)
        cand = self._bloom.maybe_contains(hi, lo)
        out = np.zeros(len(hi), dtype=bool)
        if not cand.any():
            return out
        ci = np.flatnonzero(cand)
        chi, clo = hi[ci], lo[ci]
        hit = np.zeros(len(ci), dtype=bool)
        for run_hi, run_lo in self._runs:
            miss = ~hit
            if not miss.any():
                break
            hit[miss] |= self._run_contains(run_hi, run_lo, chi[miss], clo[miss])
        out[ci] = hit
        return out

    def add(self, hi, lo) -> None:
        if len(hi) == 0:
            return
        self._runs.append(self._sort(np.asarray(hi), np.asarray(lo)))
        self._bloom.add(hi, lo)
        self._n += len(hi)
        if len(self._runs) > self._compact_above:
            all_hi = np.concatenate([r[0] for r in self._runs])
            all_lo = np.concatenate([r[1] for r in self._runs])
            self._runs = [self._sort(all_hi, all_lo)]

    def __len__(self):
        return self._n


def make_backend(kind: str, expected_keys: int = 1_000_000, bits_per_key: int = 12):
    if kind == "set":
        return _SetBackend()
    if kind == "sortedruns":
        return _SortedRunsBackend(expected_keys=expected_keys, bits_per_key=bits_per_key)
    if kind == "cuckoo":  # sorted runs behind a cuckoo (not Bloom) front
        return _SortedRunsBackend(expected_keys=expected_keys,
                                  bits_per_key=bits_per_key, front="cuckoo")
    raise ValueError(f"unknown seen backend {kind!r}")


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

    def __init__(self, shard_id: int, backend: str = "set",
                 expected_keys: int = 1_000_000, bits_per_key: int = 12):
        self.shard_id = shard_id
        self._committed = make_backend(backend, expected_keys, bits_per_key)
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

    def reset(self, backend: str, expected_keys: int, bits_per_key: int) -> None:
        """Empty the shard for a new crawl (the driver reuses one shard set
        per Ray session): close any edge partition a failed crawl left
        open, then start over with a fresh committed set."""
        if self._writer is not None:
            self._writer.close()
        self.__init__(self.shard_id, backend, expected_keys, bits_per_key)

    def contains(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """Membership against the committed (round-start) snapshot only."""
        return self._committed.contains(np.asarray(hi, np.uint64), np.asarray(lo, np.uint64))

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
            fresh = ~self._committed.contains(khi[win], klo[win])
            win = win[fresh][np.argsort(arrival[fresh])]
            new_count = len(win)
            if new_count:
                self._committed.add(khi[win], klo[win])
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
        self._committed.add(np.asarray(hi, np.uint64), np.asarray(lo, np.uint64))
        return len(self._committed)

    def size(self) -> int:
        return len(self._committed)


class SeenRouter:
    """Client-side router used inside map_batches stages: splits a key batch
    by shard and fans calls out to the shard actors (SURVEY §7.3: shuffle key
    = hash % S — here the 'shuffle' is the actor RPC, not a Dataset
    exchange)."""

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
