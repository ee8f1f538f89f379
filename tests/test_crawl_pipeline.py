"""Ray crawl pipeline vs the single-process reference-semantics oracle:
set-equality of nodes (with per-field depth/status/attempts/ip/domain
checks), set-equality of edges, plus resume and cancellation flows
(SURVEY.md §5 rebuild strategy; §7.4 order-equivalence claim)."""

import os
import shutil

import pyarrow.parquet as pq
import pytest

from raycrawl.config import CrawlConfig
from raycrawl.oracle import oracle_crawl


def _seeds(corpus):
    return pq.read_table(os.path.join(corpus, "seeds.parquet")).to_pylist()


def _run(corpus, seed, depth, ckpt, **kw):
    from raycrawl.crawl import crawl

    shutil.rmtree(ckpt, ignore_errors=True)
    return crawl(corpus, seed, depth, ckpt, crawl_id="t", resume=False, **kw)


def _compare(res, o):
    nodes = res.nodes().to_pandas()
    edges = res.edges().to_pandas()
    rnodes = {r.node_id: r for r in nodes.itertuples() if r.node_type == "URL"}
    onodes = {p + n: v for (n, p), v in o.nodes.items()}
    assert set(rnodes) == set(onodes)
    for k, ov in onodes.items():
        rv = rnodes[k]
        assert (rv.depth, rv.status, rv.attempts, rv.ip, rv.domain) == (
            ov.depth, ov.status, ov.attempts, ov.ip, ov.domain
        ), k
        assert rv.request_time_ms == ov.request_time_ms, k
    roots = nodes[nodes.node_type == "ROOT"]
    assert len(roots) == 1
    assert roots.iloc[0]["node_id"] == o.root.http_type + o.root.name
    assert set(zip(edges["src"], edges["dst"])) == o.edges


@pytest.mark.usefixtures("ray_session")
def test_crawl_matches_oracle_seed0(tiny_corpus, tmp_path):
    s = _seeds(tiny_corpus)[0]
    res = _run(tiny_corpus, s["url"], int(s["depth"]), str(tmp_path / "ck"))
    o = oracle_crawl(tiny_corpus, s["url"], int(s["depth"]), crawl_id="t")
    _compare(res, o)


@pytest.mark.usefixtures("ray_session")
def test_crawl_matches_oracle_seed1_www_variant(tiny_corpus, tmp_path):
    # seed with www. + mixed-case raw form exercises M2 at the root
    s = _seeds(tiny_corpus)[1]
    res = _run(tiny_corpus, s["url"], int(s["depth"]), str(tmp_path / "ck"))
    o = oracle_crawl(tiny_corpus, s["url"], int(s["depth"]), crawl_id="t")
    _compare(res, o)


@pytest.mark.usefixtures("ray_session")
def test_resume_after_partial_run(tiny_corpus, tmp_path):
    """Kill after round 1 (max_rounds=1) → resume → final tables identical
    to a single uninterrupted run (SURVEY §4 graceful-shutdown row)."""
    from raycrawl.crawl import crawl

    s = _seeds(tiny_corpus)[0]
    ck = str(tmp_path / "ck_resume")
    partial = crawl(tiny_corpus, s["url"], int(s["depth"]), ck, crawl_id="t",
                    resume=False, max_rounds=1)
    assert partial.rounds_run == 1
    resumed = crawl(tiny_corpus, s["url"], int(s["depth"]), ck, crawl_id="t",
                    resume=True)
    o = oracle_crawl(tiny_corpus, s["url"], int(s["depth"]), crawl_id="t")
    _compare(resumed, o)


@pytest.mark.usefixtures("ray_session")
def test_resume_is_noop_when_complete(tiny_corpus, tmp_path):
    from raycrawl.crawl import crawl

    s = _seeds(tiny_corpus)[0]
    ck = str(tmp_path / "ck_noop")
    first = crawl(tiny_corpus, s["url"], int(s["depth"]), ck, crawl_id="t", resume=False)
    again = crawl(tiny_corpus, s["url"], int(s["depth"]), ck, crawl_id="t", resume=True)
    assert again.rounds_run == first.rounds_run
    o = oracle_crawl(tiny_corpus, s["url"], int(s["depth"]), crawl_id="t")
    _compare(again, o)


@pytest.mark.usefixtures("ray_session")
def test_cancellation(tiny_corpus, tmp_path):
    s = _seeds(tiny_corpus)[0]
    res = _run(tiny_corpus, s["url"], int(s["depth"]), str(tmp_path / "ck_cancel"),
               cancel_after_round=1)
    o = oracle_crawl(tiny_corpus, s["url"], int(s["depth"]), crawl_id="t",
                     cancel_after_round=1)
    assert res.cancelled
    _compare(res, o)


@pytest.mark.usefixtures("ray_session")
def test_robots_and_politeness_modes(tiny_corpus, tmp_path):
    """North-star opt-ins (NOT reference semantics): robots-blocked hosts are
    never fetched; politeness mode still terminates and produces a valid
    tree shape."""
    from raycrawl import sim
    from raycrawl.kernels import host_of

    s = _seeds(tiny_corpus)[0]
    # 16-row batches split every round over several host-keyed tasks
    for batch in (4096, 16):
        cfg = CrawlConfig(respect_robots=True, politeness_delay_ms=1.0,
                          num_seen_shards=2, fetch_batch_size=batch)
        res = _run(tiny_corpus, s["url"], int(s["depth"]),
                   str(tmp_path / f"ck_robots{batch}"), cfg=cfg)
        nodes = res.nodes().to_pandas()
        blocked = nodes[nodes.status == "ROBOTS_BLOCKED"]
        for r in blocked.itertuples():
            assert sim.robots_disallowed(host_of(r.name).lower())
        done = nodes[(nodes.node_type == "URL")
                     & (nodes.status == "COMPLETED")]
        # completed fetches only on hosts robots allows
        for r in done.itertuples():
            if r.depth < r.requested_depth:
                assert not sim.robots_disallowed(host_of(r.name).lower())


@pytest.mark.usefixtures("ray_session")
def test_depth_one_no_rounds(tiny_corpus, tmp_path):
    s = _seeds(tiny_corpus)[0]
    res = _run(tiny_corpus, s["url"], 1, str(tmp_path / "ck_d1"))
    assert res.rounds_run == 0
    o = oracle_crawl(tiny_corpus, s["url"], 1, crawl_id="t")
    _compare(res, o)


@pytest.mark.usefixtures("ray_session")
def test_partitioned_corpus_crawl_oracle_equal(tiny_corpus, tmp_path):
    """The host-hash-partitioned fetch layout (the 100 TB shape: no corpus
    broadcast, per-worker partition LRU, frontier hash-repartitioned on the
    corpus key) is semantics-identical to the broadcast layout."""
    s = _seeds(tiny_corpus)[0]
    o = oracle_crawl(tiny_corpus, s["url"], int(s["depth"]), crawl_id="t")
    # 16-row batches split every round over several tasks, each holding
    # whole corpus partitions
    for batch in (4096, 16):
        cfg = CrawlConfig(corpus_partitioned=True, corpus_partitions=8,
                          corpus_cache_parts=3, fetch_batch_size=batch)
        res = _run(tiny_corpus, s["url"], int(s["depth"]),
                   str(tmp_path / f"ckp{batch}"), cfg=cfg)
        _compare(res, o)


@pytest.mark.usefixtures("ray_session")
def test_old_manifest_layout_is_refused(tiny_corpus, tmp_path):
    """A final/ left by the older manifest finalize (a JSON manifest next
    to a Parquet file that holds only part of the rows) is refused by
    read_nodes/read_edges instead of read as the whole crawl, and resuming
    the crawl finalizes it again."""
    from raycrawl.crawl import crawl, read_edges, read_nodes
    from raycrawl.errors import StateError

    s = _seeds(tiny_corpus)[0]
    done = _run(tiny_corpus, s["url"], int(s["depth"]), str(tmp_path / "ck"))
    o = oracle_crawl(tiny_corpus, s["url"], int(s["depth"]), crawl_id="t")
    for name, read in (("nodes", read_nodes), ("edges", read_edges)):
        ck = str(tmp_path / f"old_{name}")
        shutil.copytree(done.ckpt_dir, ck)
        with open(os.path.join(ck, "final", name, f"{name}_manifest.json"),
                  "w") as f:
            f.write("{}")
        with pytest.raises(StateError, match="resume"):
            read(ck)
    res = crawl(tiny_corpus, s["url"], int(s["depth"]), ck, crawl_id="t",
                resume=True)
    _compare(res, o)
