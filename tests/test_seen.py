"""Unit tests for the seen shard: exact membership of its committed set and
the offer/commit protocol."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from raycrawl.seen import SeenShardImpl


def _keys(n, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 1 << 63, n).astype(np.uint64),
            rng.integers(0, 1 << 63, n).astype(np.uint64))


@pytest.mark.parametrize("kind", ["set"])
def test_backend_membership(kind):
    """The shard's committed set (``backend="set"``, the only one) holds
    exactly the loaded keys: a key sharing ``hi`` with a member but not
    ``lo`` is not a member."""
    shard = SeenShardImpl(0, backend=kind)
    hi, lo = _keys(5_000, seed=1)
    assert not shard.contains(hi, lo).any()
    shard.bulk_load(hi[:3_000], lo[:3_000])
    got = shard.contains(hi, lo)
    assert got[:3_000].all()
    assert not got[3_000:].any()
    assert not shard.contains(hi[:10], lo[:10] + np.uint64(1)).any()
    assert shard.size() == 3_000
    assert shard.bulk_load(hi[:10], lo[:10]) == 3_000  # re-adds are no-ops
    assert not shard.contains(hi[:0], lo[:0]).any()


def test_shard_refuses_other_backends():
    with pytest.raises(ValueError, match="sortedruns"):
        SeenShardImpl(0, backend="sortedruns")


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
    is empty, a half-written edge partition left
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

    shard.reset()
    assert shard.shard_id == 3
    assert shard._writer is None and not shard._offered
    assert shard.size() == 0 and not shard.contains(hi, lo).any()
    edges = pq.read_table(tmp_path / "edges" / "shard-003.parquet")
    assert edges.num_rows == 1


# --- the round's winner merge against a brute force --------------------------

_KEYS = [f"K{i}.COM" for i in range(6)]
_row = st.tuples(st.integers(0, 5), st.integers(1, 3), st.integers(0, 3))
_offer = st.lists(_row, min_size=1, max_size=8)


def _brute_force_delta(offers, committed):
    """min-(depth, phash) winner per key, the first arrival among ties;
    keys ordered by the first offer that held them, then by 128-bit key;
    committed keys dropped."""
    from raycrawl.kernels import hash128

    def h(s):
        hi, lo = hash128([s])
        return int(hi[0]), int(lo[0])

    best: dict = {}
    for i, rows in enumerate(offers):
        for r in rows:
            rank = (r["depth"], h(r["parent_id"])[0])
            k = r["node_id"]
            if k not in best:
                best[k] = (i, rank, r)
            elif rank < best[k][1]:
                best[k] = (best[k][0], rank, r)
    order = sorted(best, key=lambda k: (best[k][0], h(k)))
    return [(k, best[k][2]["depth"], best[k][2]["request_time_ms"])
            for k in order if k not in committed]


@settings(max_examples=150, deadline=None)
@given(offers=st.lists(_offer, min_size=1, max_size=6),
       committed=st.sets(st.integers(0, 5), max_size=3),
       replay=st.integers(0, 5))
@example(  # K0 improved by a later offer; a full tie on K1; K2 committed
    offers=[[(0, 3, 0), (1, 2, 1), (2, 1, 0)], [(0, 2, 2), (1, 2, 1)]],
    committed={2}, replay=0)
def test_commit_round_equals_brute_force_winner(tmp_path_factory, offers,
                                                committed, replay):
    """Over several offers — ties, keys improved by a later offer, keys
    already committed, and one offer replayed as a task retry would — the
    nodes delta is the brute-force winner per new key, in first-arrival
    order. ``request_time_ms`` numbers every offered row, so it names the
    row that won."""
    from raycrawl.kernels import hash128

    d = tmp_path_factory.mktemp("merge")
    (d / "nodes").mkdir()
    (d / "edges").mkdir()
    shard = SeenShardImpl(0, backend="set")
    old = [f"HTTPS://{_KEYS[k]}" for k in sorted(committed)]
    if old:
        shard.bulk_load(*hash128(old))
    shard.begin_round(str(d / "nodes"), str(d / "edges"), 4, "HTTPS://SEED")
    seq = iter(range(10_000))
    applied = []
    for i, rows in enumerate(offers):
        rows = [dict(name=_KEYS[k], node_id=f"HTTPS://{_KEYS[k]}", depth=dep,
                     requested_depth=3, parent_id=f"P{p}",
                     request_time_ms=float(next(seq)))
                for k, dep, p in rows]
        t = _offer_table(rows)
        shard.offer(t, salt=i)
        applied.append(rows)
        if i == replay:
            shard.offer(t, salt=i)  # a retried task's replay: dropped
    stats = shard.commit_round()

    want = _brute_force_delta(applied, set(old))
    assert stats["new_nodes"] == len(want)
    assert stats["edges_written"] == sum(map(len, applied))  # none replayed
    f = d / "nodes" / "shard-000.parquet"
    got = pq.read_table(f).to_pylist() if want else []
    assert [(r["node_id"], r["depth"], r["request_time_ms"]) for r in got] == want
    assert all(r["status"] == ("COMPLETED" if r["depth"] == 3 else "PENDING")
               and r["node_type"] == "URL" and r["round"] == 4
               and r["attempts"] == 0 and r["created_at"] is None
               for r in got)
    assert not f.exists() or want
    assert shard.contains(*hash128([k for k, _, _ in want])).all()


@pytest.mark.usefixtures("ray_session")
def test_offered_keys_are_hashes_of_their_ids(tiny_corpus, tmp_path,
                                              monkeypatch):
    """Every row a fetch task offers carries khi/klo = hash128(node_id) and
    phash = hash128(parent_id)[0], the keys the shard ranks and commits
    by; the crawl stays oracle-equal."""
    from test_crawl_pipeline import _compare, _run, _seeds

    from raycrawl import crawl as crawl_mod
    from raycrawl.oracle import oracle_crawl

    real = crawl_mod._fetch_slice
    log = str(tmp_path / "checked")

    class CheckedOffers:
        """A seen-shard handle that checks each offered row's hashes."""

        def __init__(self, shard):
            self.shard = shard
            self.offer = self  # shard.offer.remote(...) → self.remote(...)

        @property
        def contains(self):
            return self.shard.contains

        def remote(self, table, salt):
            from raycrawl.kernels import hash128

            hi, lo = hash128(table["node_id"])
            ph, _ = hash128(table["parent_id"])
            for col, want in (("khi", hi), ("klo", lo), ("phash", ph)):
                if not np.array_equal(table[col].to_numpy(), want):
                    raise AssertionError(f"offered {col} is not hash128")
            with open(log, "a") as f:
                f.write(f"{table.num_rows}\n")
            return self.shard.offer.remote(table, salt)

    # a closure, so Ray ships it to the fetch tasks by value
    def checked(path, batch, batch_size, fetch_kw, neardup):
        fetch_kw = dict(fetch_kw, seen_handles=[
            CheckedOffers(h) for h in fetch_kw["seen_handles"]])
        return real(path, batch, batch_size, fetch_kw, neardup)

    monkeypatch.setattr(crawl_mod, "_fetch_slice", checked)
    s = _seeds(tiny_corpus)[0]
    res = _run(tiny_corpus, s["url"], int(s["depth"]), str(tmp_path / "ck"))
    _compare(res, oracle_crawl(tiny_corpus, s["url"], int(s["depth"]),
                               crawl_id="t"))
    with open(log) as f:
        assert sum(int(x) for x in f) > 0
