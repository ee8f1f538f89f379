"""Ingestion-time near-dup detection wired into the crawl loop
(raycrawl.ingest_dedup + CrawlConfig.neardup_threshold): oracle equality
on a planted-mirror corpus, both candidate paths (same-round bucket +
cross-round persisted index), the one-file-per-round index and its
integrity checks, per-round counters, resume guard, idempotent resume,
and the nodes-table column merge."""

import os
import shutil

import duckdb
import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

CORPUS = "/tmp/raycrawl_test_mirror_corpus"
CK = "/tmp/raycrawl_test_nd_ck"


def _corpus():
    from raycrawl.corpus import generate_corpus

    return generate_corpus(CORPUS, n_hosts=120, seed=77, mirror_frac=0.15,
                           n_seeds=1)


def _seed(c):
    return pq.read_table(os.path.join(c, "seeds.parquet")).to_pylist()[0]


def _run(ck, threshold=0.6, **cfg_kw):
    from raycrawl.config import CrawlConfig
    from raycrawl.crawl import crawl

    c = _corpus()
    s = _seed(c)
    return crawl(c, s["url"], 3, ck,
                 cfg=CrawlConfig(num_seen_shards=2,
                                 neardup_threshold=threshold, **cfg_kw),
                 crawl_id="ndtest", resume=True)


@pytest.fixture(scope="module")
def nd_crawl(ray_session):
    shutil.rmtree(CK, ignore_errors=True)
    _run(CK)
    return CK


def _oracle_df(ck):
    from raycrawl.ingest_dedup import crawl_neardup_sql

    sql = crawl_neardup_sql(os.path.join(ck, "final", "nodes", "*.parquet"),
                            os.path.join(CORPUS, "pages.parquet"),
                            "ndtest", 0.6)
    return duckdb.connect().execute(sql).df()


def test_ingest_dedup_matches_oracle(nd_crawl):
    from raycrawl.ingest_dedup import crawl_neardup

    got = crawl_neardup(nd_crawl).to_pandas()
    ora = _oracle_df(nd_crawl)
    assert len(got) > 0, "planted mirrors must produce assignments"
    a = got.sort_values("node_id").reset_index(drop=True)
    b = ora.sort_values("node_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)


def test_ingest_dedup_covers_both_candidate_paths(nd_crawl):
    """The fixture plants hub-linked mirrors (source and copy fetched in
    the SAME round → in-round bucket path) and chained mirrors (copy
    linked from its source → fetched one round later → persisted-index
    path); both must appear in the assignments."""
    import pyarrow.dataset as pads

    from raycrawl.ingest_dedup import crawl_neardup

    got = crawl_neardup(nd_crawl).to_pandas()
    nodes = pads.dataset(
        os.path.join(nd_crawl, "final", "nodes")).to_table(
        columns=["node_id", "round", "attempts", "node_type"]).to_pandas()
    nodes = nodes[nodes.node_type == "URL"]
    probe_round = dict(zip(nodes.node_id, nodes["round"] + nodes.attempts))
    same = sum(probe_round[r.node_id] == probe_round[r.near_dup_of]
               for r in got.itertuples())
    cross = sum(probe_round[r.node_id] != probe_round[r.near_dup_of]
                for r in got.itertuples())
    assert same > 0, "no same-round (in-batch bucket) duplicate found"
    assert cross > 0, "no cross-round (persisted index) duplicate found"


def test_resume_guard_refuses_late_enable(ray_session, tmp_path):
    """A crawl started WITHOUT ingestion dedup has no index files; a
    resume that turns it on must refuse instead of silently missing every
    cross-round duplicate."""
    from raycrawl.config import CrawlConfig
    from raycrawl.crawl import crawl

    c = _corpus()
    s = _seed(c)
    ck = str(tmp_path / "plain_ck")
    crawl(c, s["url"], 2, ck,
          cfg=CrawlConfig(num_seen_shards=2),
          crawl_id="plain", resume=False)
    with pytest.raises(ValueError, match="ndx"):
        crawl(c, s["url"], 2, ck,
              cfg=CrawlConfig(num_seen_shards=2, neardup_threshold=0.6),
              crawl_id="plain", resume=True)


def test_neardup_resume_rebuilds_killed_round(nd_crawl, tmp_path):
    """Kill/resume: dropping the last round (index file included, since
    it lives inside the round dir) and resuming reproduces the exact
    assignment set."""
    from raycrawl.crawl import _round_dir
    from raycrawl.ingest_dedup import crawl_neardup

    ck2 = str(tmp_path / "nd_resume")
    shutil.copytree(nd_crawl, ck2)
    before = crawl_neardup(ck2).to_pandas()
    r = 1
    while os.path.exists(os.path.join(_round_dir(ck2, r + 1), "_DONE")):
        r += 1
    shutil.rmtree(_round_dir(ck2, r))
    shutil.rmtree(os.path.join(ck2, "final"))
    _run(ck2)
    after = crawl_neardup(ck2).to_pandas()
    pd.testing.assert_frame_equal(before, after, check_dtype=False,
                                  check_exact=True)


def test_nodes_with_neardup_column_merge(nd_crawl):
    from raycrawl.ingest_dedup import crawl_neardup, nodes_with_neardup

    nd = crawl_neardup(nd_crawl).to_pandas()
    merged = nodes_with_neardup(nd_crawl).to_pandas()
    assert {"near_dup_of", "dup_jaccard"} <= set(merged.columns)
    hit = merged[merged.near_dup_of.notna()]
    assert sorted(hit.node_id) == sorted(nd.node_id)
    m = hit.set_index("node_id")
    for r in nd.itertuples():
        assert m.loc[r.node_id, "near_dup_of"] == r.near_dup_of
        assert m.loc[r.node_id, "dup_jaccard"] == r.jaccard
    assert merged[~merged.node_id.isin(nd.node_id)].near_dup_of.isna().all()


def test_cli_crawl_neardup_flag(ray_session, nd_crawl, tmp_path, capsys):
    """`python -m raycrawl crawl --neardup J` wires the ingestion-dedup
    stage into the job CLI and reports the assignment count; the run must
    match the library-driven crawl's assignment set exactly."""
    import json

    from raycrawl.__main__ import main
    from raycrawl.ingest_dedup import crawl_neardup

    c = _corpus()
    s = _seed(c)
    ck2 = str(tmp_path / "cli_nd")
    rc = main(["crawl", "--corpus", c, "--seed", s["url"], "--depth", "3",
               "--ckpt", ck2, "--crawl-id", "ndtest", "--seen-shards", "2",
               "--neardup", "0.6"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    a = crawl_neardup(nd_crawl).to_pandas()
    b = crawl_neardup(ck2).to_pandas()
    assert summary["near_dups"] == len(b) > 0
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)


def test_forced_gram_budget_slicing_matches(nd_crawl, tmp_path, monkeypatch):
    """A tiny _GRAM_BUDGET forces every exact-verify through many
    gram-bounded sub-slices — identical assignments."""
    from raycrawl import ingest_dedup
    from raycrawl.ingest_dedup import crawl_neardup

    monkeypatch.setattr(ingest_dedup, "_GRAM_BUDGET", 64)
    ck2 = str(tmp_path / "nd_gb")
    _run(ck2)
    a = crawl_neardup(nd_crawl).to_pandas()
    b = crawl_neardup(ck2).to_pandas()
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)


def test_out_of_order_fetch_tasks_keep_shingle_pairing(nd_crawl, tmp_path,
                                                      monkeypatch):
    """Small fetch batches split each round into several fetch tasks, and a
    sleep keyed to each shingle chunk's first node_id makes the tasks
    finish out of order. The driver pairs every task's shingle rows with
    its parents by submission order, so the assignments equal the
    one-task-per-round crawl's (the class of the bug where out-of-order
    blocks silently paired stored shingles with the wrong pages)."""
    from raycrawl import crawl as crawl_mod
    from raycrawl.crawl import _round_dir
    from raycrawl.ingest_dedup import crawl_neardup

    real = crawl_mod._fetch_slice

    # a closure, so Ray ships it to the fetch tasks by value
    def jittered(path, batch, batch_size, fetch_kw, neardup):
        import time
        import zlib

        from raycrawl import ingest_dedup

        orig = ingest_dedup._shingle_band_batch

        def slow(t, corpus_ref, k=3):
            if t.num_rows:
                key = t["node_id"][0].as_py().encode()
                time.sleep(0.1 * (zlib.crc32(key) % 3))
            return orig(t, corpus_ref, k)

        ingest_dedup._shingle_band_batch = slow
        try:
            return real(path, batch, batch_size, fetch_kw, neardup)
        finally:
            ingest_dedup._shingle_band_batch = orig

    monkeypatch.setattr(crawl_mod, "_fetch_slice", jittered)
    ck2 = str(tmp_path / "nd_jit")
    _run(ck2, fetch_batch_size=16)
    assert max(len(os.listdir(os.path.join(_round_dir(ck2, r), "round_out")))
               for r in (1, 2, 3)) > 2
    a = crawl_neardup(nd_crawl).to_pandas()
    b = crawl_neardup(ck2).to_pandas()
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)


@pytest.mark.parametrize("fault", ["drop", "rotate"])
def test_misaligned_shingle_rows_raise(nd_crawl, tmp_path, monkeypatch,
                                       fault):
    """A fetch task whose shingle rows lose one row, or shift by one, no
    longer pairs row i with parent i: the probe refuses with a typed error
    instead of indexing pages under each other's ids."""
    import pyarrow as pa

    from raycrawl import crawl as crawl_mod
    from raycrawl.errors import StateError

    real = crawl_mod._fetch_slice

    def faulty(path, batch, batch_size, fetch_kw, neardup):
        parents, sh = real(path, batch, batch_size, fetch_kw, neardup)
        n = sh.num_rows
        if n >= 2:
            sh = (sh.slice(1) if fault == "drop"
                  else sh.take(pa.array([*range(1, n), 0])))
        return parents, sh

    monkeypatch.setattr(crawl_mod, "_fetch_slice", faulty)
    with pytest.raises(StateError, match="not paired with their parents"):
        _run(str(tmp_path / "nd_bad"))


def _later_cross_round_pair(ck):
    """(probe round of the later page, probe round of its match, the
    match's node_id) for the last cross-round assignment of ``ck``."""
    import pyarrow.dataset as pads

    from raycrawl.ingest_dedup import crawl_neardup

    nodes = pads.dataset(os.path.join(ck, "final", "nodes")).to_table(
        columns=["node_id", "round", "attempts", "node_type"]).to_pandas()
    nodes = nodes[nodes.node_type == "URL"]
    # a node made in round q is fetched and probed in round q + 1
    probe_round = dict(zip(nodes.node_id,
                           nodes["round"] + nodes.attempts + 1))
    return max((probe_round[a.node_id], probe_round[a.near_dup_of],
                a.near_dup_of)
               for a in crawl_neardup(ck).to_pandas().itertuples()
               if probe_round[a.node_id] > probe_round[a.near_dup_of])


def _probe_again(ck, r):
    """Round r's probe run again in process, over the round's COMPLETED
    parents from its round_out, against the index files in ``ck``."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from raycrawl.crawl import _round_dir
    from raycrawl.fetch import broadcast_corpus, build_fetch_corpus
    from raycrawl.ingest_dedup import probe_and_index_round

    ro = pads.dataset(os.path.join(_round_dir(ck, r), "round_out")).to_table(
        columns=["row_type", "status", "node_id", "name", "http_type"])
    parents = ro.filter(pc.and_(pc.equal(ro["row_type"], "parent"),
                                pc.equal(ro["status"], "COMPLETED")))
    return probe_and_index_round(
        ck, r, parents.select(["node_id", "name", "http_type"]),
        broadcast_corpus(build_fetch_corpus(CORPUS)), 0.6)


def test_short_index_file_raises(nd_crawl, tmp_path):
    """A prior round's index file that lost one row (here, the row of a
    page a later round matched) fails the probe with a typed error, where
    it would otherwise only drop that page from the candidates."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from raycrawl.errors import StateError
    from raycrawl.ingest_dedup import _pids, crawl_neardup, index_file

    r, q, target = _later_cross_round_pair(nd_crawl)
    ck2 = str(tmp_path / "nd_short")
    shutil.copytree(nd_crawl, ck2)
    # the unchanged copy probes round r to the crawl's own assignments
    nd = crawl_neardup(nd_crawl).to_pandas()
    again = _probe_again(ck2, r).to_pandas()
    assert set(again.node_id) <= set(nd.node_id)
    assert target in set(again.near_dup_of)

    f = index_file(ck2, q)
    t = pq.read_table(f)
    keep = pc.not_equal(t["pid"], int(_pids(pa.array([target]))[0]))
    assert pc.sum(keep).as_py() == t.num_rows - 1
    pq.write_table(t.filter(keep), f)
    with pytest.raises(StateError, match=f"round {q} .* rows"):
        _probe_again(ck2, r)


def test_missing_index_file_raises(nd_crawl, tmp_path):
    """A prior round without its index file fails the probe with a typed
    error."""
    from raycrawl.errors import StateError
    from raycrawl.ingest_dedup import index_file

    r, q, _target = _later_cross_round_pair(nd_crawl)
    ck2 = str(tmp_path / "nd_nofile")
    shutil.copytree(nd_crawl, ck2)
    os.remove(index_file(ck2, q))
    with pytest.raises(StateError, match=f"round {q} .* no file"):
        _probe_again(ck2, r)


def test_resume_guard_refuses_old_index_layout(nd_crawl, tmp_path):
    """A checkpoint whose rounds hold the older partitioned index layout
    (``ndx/bands/bp=K/``, no ``ndx/part-0.parquet``) is refused on resume
    instead of being probed as if its rounds had no pages."""
    import pyarrow as pa

    from raycrawl.crawl import _round_dir
    from raycrawl.ingest_dedup import index_file

    ck2 = str(tmp_path / "nd_old_layout")
    shutil.copytree(nd_crawl, ck2)
    r = 1
    while os.path.exists(os.path.join(_round_dir(ck2, r + 1), "_DONE")):
        r += 1
    shutil.rmtree(_round_dir(ck2, r))
    shutil.rmtree(os.path.join(ck2, "final"))
    old = os.path.join(_round_dir(ck2, 1), "ndx", "bands", "bp=0")
    os.makedirs(old)
    pq.write_table(pa.table({"band_id": pa.array([0], pa.int32()),
                             "band_hash": pa.array([1], pa.int64()),
                             "pid": pa.array([2], pa.int64())}),
                   os.path.join(old, "part-0.parquet"))
    os.remove(index_file(ck2, 1))
    with pytest.raises(ValueError, match="ndx"):
        _run(ck2)


def _counters(ck):
    import json

    from raycrawl.crawl import _round_dir

    out, r = [], 1
    while os.path.exists(os.path.join(_round_dir(ck, r), "_DONE")):
        with open(os.path.join(_round_dir(ck, r), "counters.json")) as f:
            out.append(json.load(f))
        r += 1
    return out


def test_neardup_counters_sum_to_assignments(nd_crawl):
    """Every round of a near-dup crawl records its probed pages,
    band-collision pairs and assignments; the assignments sum to the
    crawl's."""
    from raycrawl.ingest_dedup import crawl_neardup

    rounds = _counters(nd_crawl)
    assert len(rounds) >= 2
    for c in rounds:
        assert c["nd_pages"] == c["parents_completed"]
        assert c["nd_candidate_pairs"] >= c["nd_assigned"] >= 0
    assert (sum(c["nd_assigned"] for c in rounds)
            == crawl_neardup(nd_crawl).num_rows > 0)


def test_index_is_one_file_per_round(ray_session, nd_crawl, tmp_path):
    """Each done round's ``ndx/`` holds exactly one Parquet file, with one
    row per page the round probed, and the near-dup crawl's checkpoint
    holds at most 2 files per round more than the same crawl without
    near-dup (which writes no near-dup counters)."""
    from raycrawl.config import CrawlConfig
    from raycrawl.crawl import _round_dir, crawl

    rounds = _counters(nd_crawl)
    for c in rounds:
        ndx = os.path.join(_round_dir(nd_crawl, c["round"]), "ndx")
        files = [os.path.join(d, f) for d, _, fs in os.walk(ndx) for f in fs]
        assert files == [os.path.join(ndx, "part-0.parquet")]
        assert pq.ParquetFile(files[0]).metadata.num_rows == \
            c["parents_completed"]

    c = _corpus()
    plain = str(tmp_path / "plain")
    crawl(c, _seed(c)["url"], 3, plain, cfg=CrawlConfig(num_seen_shards=2),
          crawl_id="ndtest", resume=False)
    assert len(_counters(plain)) == len(rounds)
    assert not any(k.startswith("nd_") for p in _counters(plain) for k in p)

    def n_files(ck):
        return sum(len(fs) for _, _, fs in os.walk(ck))

    assert n_files(nd_crawl) - n_files(plain) <= 2 * len(rounds)


def test_recall_tool_counts_only_linked_pairs(ray_session, monkeypatch,
                                              capsys):
    """tools/neardup_recall.py scores a planted pair as recalled only when
    an assignment links its two sides: a planted page assigned to an
    unrelated page is a miss."""
    import importlib.util
    import json

    import numpy as np
    import pyarrow as pa

    from raycrawl import crawl as crawl_mod
    from raycrawl import ingest_dedup
    from raycrawl.corpus import fast_mirror_flags, host_name, host_proto

    n_hosts, seed, frac = 5000, 3, 0.01
    planted = np.flatnonzero(fast_mirror_flags(seed, 0, n_hosts, frac))
    a, b = (int(i) for i in planted[:2])

    def nid(i):
        return (host_proto(i) + "://" + host_name(i)).upper()

    fetched = [nid(a), nid(a - 1), nid(b), nid(b - 1)]
    nodes = pd.DataFrame({"node_id": fetched, "node_type": "URL",
                          "status": "COMPLETED", "depth": 1,
                          "requested_depth": 3})

    class _Nodes:
        def select_columns(self, cols):
            return self

        def to_pandas(self):
            return nodes

    # pair a linked (either direction counts); pair b's planted page is
    # assigned to a page outside its pair
    nd = pa.table({"node_id": [nid(a - 1), nid(b)],
                   "near_dup_of": [nid(a), nid(a)],
                   "jaccard": [1.0, 1.0]})
    monkeypatch.setattr(crawl_mod, "read_nodes", lambda ckpt: _Nodes())
    monkeypatch.setattr(ingest_dedup, "crawl_neardup", lambda ckpt: nd)
    spec = importlib.util.spec_from_file_location(
        "neardup_recall", os.path.join(os.path.dirname(__file__), "..",
                                       "tools", "neardup_recall.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["--ckpt", "unused", "--n-hosts", str(n_hosts),
                      "--seed", str(seed), "--mirror-frac", str(frac)]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["both_sides_fetched"] == 2
    assert out["recalled"] == 1 and out["recall"] == 0.5


def test_intra_slices_stay_within_pair_budget(monkeypatch):
    """A bucket with more members than _PAIR_CHUNK still streams slices of
    at most _PAIR_CHUNK pairs, and together the slices hold exactly every
    (earlier, later) pair of every bucket."""
    from raycrawl import ingest_dedup

    monkeypatch.setattr(ingest_dedup, "_PAIR_CHUNK", 5)
    rng = np.random.default_rng(0)
    n = 20
    rows_flat = rng.permutation(n)
    blens = np.array([12, 3, 3, 2])
    bstarts = np.concatenate([[0], np.cumsum(blens)[:-1]])
    rank = rng.permutation(n)
    got = set()
    for e, l in ingest_dedup._iter_intra_slices(rows_flat, bstarts, blens,
                                                rank, n):
        assert len(e) <= 5
        got |= set(zip(e.tolist(), l.tolist()))
    want = set()
    for s, g in zip(bstarts, blens):
        mem = sorted(rows_flat[s:s + g].tolist(), key=lambda x: rank[x])
        want |= {(mem[i], mem[j]) for i in range(g) for j in range(i + 1, g)}
    assert got == want
