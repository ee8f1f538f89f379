"""Unit tests for the seen-filter backends (exact set, Bloom front,
sorted-runs) and the shard offer/commit protocol."""

import numpy as np
import pyarrow as pa
import pytest

from raycrawl.seen import SeenShardImpl, _Bloom, make_backend


def _keys(n, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 1 << 63, n).astype(np.uint64),
            rng.integers(0, 1 << 63, n).astype(np.uint64))


@pytest.mark.parametrize("kind", ["set", "sortedruns", "cuckoo"])
def test_backend_membership(kind):
    b = make_backend(kind, expected_keys=10_000)
    hi, lo = _keys(5_000, seed=1)
    assert not b.contains(hi, lo).any()
    b.add(hi[:3_000], lo[:3_000])
    got = b.contains(hi, lo)
    assert got[:3_000].all()
    assert not got[3_000:].any()
    # same hi different lo must NOT match
    assert not b.contains(hi[:10], lo[:10] + np.uint64(1)).any()
    assert len(b) >= 3_000


def test_sortedruns_compaction_preserves_membership():
    b = make_backend("sortedruns", expected_keys=10_000)
    all_hi, all_lo = _keys(20_000, seed=2)
    for i in range(0, 20_000, 1_000):  # 20 adds → forces compaction
        b.add(all_hi[i : i + 1_000], all_lo[i : i + 1_000])
    assert b.contains(all_hi, all_lo).all()
    miss_hi, miss_lo = _keys(1_000, seed=3)
    assert not b.contains(miss_hi, miss_lo).any()


def test_bloom_no_false_negatives():
    bl = _Bloom(12 * 5_000)
    hi, lo = _keys(5_000, seed=4)
    bl.add(hi, lo)
    assert bl.maybe_contains(hi, lo).all()
    other_hi, other_lo = _keys(50_000, seed=5)
    fp = bl.maybe_contains(other_hi, other_lo).mean()
    assert fp < 0.05  # 12 bits/key → well under 5% false positives


def test_cuckoo_no_false_negatives_and_low_fp():
    from raycrawl.seen import _Cuckoo

    ck = _Cuckoo(5_000)
    hi, lo = _keys(5_000, seed=4)
    for i in range(0, 5_000, 700):  # incremental adds, uneven batches
        ck.add(hi[i : i + 700], lo[i : i + 700])
    assert not ck.overflow
    assert ck.maybe_contains(hi, lo).all()  # the filter contract
    other_hi, other_lo = _keys(100_000, seed=5)
    fp = ck.maybe_contains(other_hi, other_lo).mean()
    assert fp < 0.005  # 16-bit fingerprints: ~2*4/2^16 ≈ 0.012% expected


def test_cuckoo_delete_then_probe():
    from raycrawl.seen import _Cuckoo

    ck = _Cuckoo(2_000)
    hi, lo = _keys(1_000, seed=6)
    ck.add(hi, lo)
    deleted = ck.delete(hi[:100], lo[:100])
    assert deleted.all()
    # remaining keys still present (no false negatives introduced)
    assert ck.maybe_contains(hi[100:], lo[100:]).all()


def test_cuckoo_overflow_degrades_to_all_true():
    from raycrawl.seen import _Cuckoo

    ck = _Cuckoo(64)  # tiny table: 64 buckets min → force overflow
    hi, lo = _keys(50_000, seed=7)
    ck.add(hi, lo)
    assert ck.overflow
    # safe degrade: never a false negative — everything maybe-contained,
    # the exact sorted runs behind it still decide true membership
    assert ck.maybe_contains(hi, lo).all()


def test_cuckoo_backend_exact_after_overflow():
    b = make_backend("cuckoo", expected_keys=100)  # undersized front
    hi, lo = _keys(30_000, seed=8)
    b.add(hi, lo)
    assert b.contains(hi, lo).all()
    miss_hi, miss_lo = _keys(5_000, seed=9)
    assert not b.contains(miss_hi, miss_lo).any()  # exactness survives


def _offer_table(rows):
    cols = {
        "crawl_id": pa.array([r.get("crawl_id", "c") for r in rows]),
        "name": pa.array([r["name"] for r in rows]),
        "http_type": pa.array([r.get("http_type", "HTTPS://") for r in rows]),
        "node_id": pa.array([r["node_id"] for r in rows]),
        "depth": pa.array([r["depth"] for r in rows], pa.int32()),
        "requested_depth": pa.array([r.get("requested_depth", 5) for r in rows], pa.int32()),
        "ip": pa.array([r.get("ip", "10.0.0.1") for r in rows]),
        "domain": pa.array([r.get("domain", "D") for r in rows]),
        "request_time_ms": pa.array([r.get("request_time_ms", 1.0) for r in rows]),
        "parent_id": pa.array([r["parent_id"] for r in rows]),
    }
    t = pa.table(cols)
    from raycrawl.kernels import hash128

    hi, lo = hash128(t["node_id"])
    ph, _ = hash128(t["parent_id"])
    t = t.append_column("khi", pa.array(hi, pa.uint64()))
    t = t.append_column("klo", pa.array(lo, pa.uint64()))
    return t.append_column("phash", pa.array(ph, pa.uint64()))


def test_shard_offer_commit_winner_and_snapshot(tmp_path):
    from raycrawl.kernels import hash128

    shard = SeenShardImpl(0, backend="set")
    # pre-commit an existing id
    hi, lo = hash128(["HTTPS://OLD.COM"])
    shard.bulk_load(hi, lo)

    out_dir = tmp_path / "nodes"
    out_dir.mkdir()
    edge_dir = tmp_path / "edges"
    edge_dir.mkdir()
    shard.begin_round(str(out_dir), str(edge_dir), 7, "HTTPS://P1")

    shard.offer(_offer_table([
        dict(name="A.COM", node_id="HTTPS://A.COM", depth=3, parent_id="P2"),
        dict(name="A.COM", node_id="HTTPS://A.COM", depth=2, parent_id="P9"),
        dict(name="A.COM", node_id="HTTPS://A.COM", depth=2, parent_id="P1"),
        dict(name="OLD.COM", node_id="HTTPS://OLD.COM", depth=1, parent_id="P1"),
        dict(name="B.COM", node_id="HTTPS://B.COM", depth=5, parent_id="P1"),
    ]))
    # snapshot semantics: offers invisible before commit
    qhi, qlo = hash128(["HTTPS://A.COM"])
    assert not shard.contains(qhi, qlo).any()

    stats = shard.commit_round()
    assert stats["new_nodes"] == 2  # A (winner) + B; OLD already committed
    # edges: every offered row is an edge; src == seed_id diverted to driver
    assert stats["edges_written"] + len(stats["seed_rows"]) == 5
    assert all(r["src"] == "HTTPS://P1" for r in stats["seed_rows"])

    import pyarrow.parquet as pq

    files = sorted(out_dir.glob("*.parquet"))
    t = pq.read_table(files[0]).to_pylist()
    by_id = {r["node_id"]: r for r in t}
    # winner: min (depth, parent_id) → depth 2, parent P1's row
    assert by_id["HTTPS://A.COM"]["depth"] == 2
    # leaf short-circuit: depth == requested_depth → COMPLETED
    assert by_id["HTTPS://B.COM"]["status"] == "COMPLETED"
    assert by_id["HTTPS://A.COM"]["status"] == "PENDING"
    # committed now
    assert shard.contains(qhi, qlo).all()


def test_shard_offer_replay_is_dropped(tmp_path):
    """Task-retry idempotency: re-offering the exact same slice (a Ray
    map_batches retry replaying its side effects) must not duplicate edge
    rows or change winners; a *different* slice of the same size must still
    be applied."""
    shard = SeenShardImpl(0, backend="set")
    out_dir = tmp_path / "nodes"
    out_dir.mkdir()
    edge_dir = tmp_path / "edges"
    edge_dir.mkdir()
    shard.begin_round(str(out_dir), str(edge_dir), 1, "HTTPS://SEED")

    t = _offer_table([
        dict(name="A.COM", node_id="HTTPS://A.COM", depth=2, parent_id="P1"),
        dict(name="B.COM", node_id="HTTPS://B.COM", depth=3, parent_id="P2"),
    ])
    shard.offer(t)
    shard.offer(t)  # replay: dropped
    # same row count, different content: applied
    shard.offer(_offer_table([
        dict(name="C.COM", node_id="HTTPS://C.COM", depth=2, parent_id="P1"),
        dict(name="D.COM", node_id="HTTPS://D.COM", depth=3, parent_id="P2"),
    ]))
    stats = shard.commit_round()
    assert stats["edges_written"] + len(stats["seed_rows"]) == 4
    assert stats["new_nodes"] == 4

    # replay guard resets per round: the same slice next round is fresh
    shard.begin_round(str(out_dir), str(edge_dir), 2, "HTTPS://SEED")
    t2 = _offer_table([
        dict(name="E.COM", node_id="HTTPS://E.COM", depth=4, parent_id="P3"),
    ])
    shard.offer(t2)
    shard.begin_round(str(out_dir), str(edge_dir), 3, "HTTPS://SEED")
    shard.offer(t2)
    stats = shard.commit_round()
    assert stats["edges_written"] + len(stats["seed_rows"]) == 1


def test_shard_reset_empties_state_and_closes_writer(tmp_path):
    """reset() readies a reused shard for a new crawl: the committed set
    is empty (under the new backend), a half-written edge partition left
    by a failed crawl is closed into a readable file, and round state is
    gone."""
    import pyarrow.parquet as pq

    from raycrawl.kernels import hash128

    shard = SeenShardImpl(3, backend="set")
    hi, lo = hash128(["HTTPS://OLD.COM"])
    shard.bulk_load(hi, lo)
    (tmp_path / "nodes").mkdir()
    (tmp_path / "edges").mkdir()
    shard.begin_round(str(tmp_path / "nodes"), str(tmp_path / "edges"), 1,
                      "HTTPS://SEED")
    shard.offer(_offer_table([
        dict(name="A.COM", node_id="HTTPS://A.COM", depth=2, parent_id="P1"),
    ]))
    shard._flush_edges(force=True)  # a crawl that died mid-round
    assert shard._writer is not None

    shard.reset("sortedruns", 1000, 12)
    assert shard.shard_id == 3
    assert shard._writer is None and not shard._winners
    assert shard.size() == 0 and not shard.contains(hi, lo).any()
    assert type(shard._committed).__name__ == "_SortedRunsBackend"
    edges = pq.read_table(tmp_path / "edges" / "shard-003.parquet")
    assert edges.num_rows == 1
