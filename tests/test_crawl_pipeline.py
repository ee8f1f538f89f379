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
    o = oracle_crawl(tiny_corpus, s["url"], int(s["depth"]), crawl_id="t")
    # 16-row batches split every round over several fetch tasks
    for batch in (4096, 16):
        res = _run(tiny_corpus, s["url"], int(s["depth"]),
                   str(tmp_path / f"ck{batch}"),
                   cfg=CrawlConfig(fetch_batch_size=batch))
        _compare(res, o)


@pytest.mark.usefixtures("ray_session")
def test_multi_chunk_corpus_matches_single_chunk(tiny_corpus, tmp_path):
    """A corpus table whose html column has several chunks (the gather
    maps each row to its chunk) fetches the same pages: the crawl is
    oracle-equal, and the near-dup page texts equal the single-chunk
    ones and the corpus's own tag-stripped text."""
    import pyarrow as pa

    from raycrawl.fetch import broadcast_corpus, build_fetch_corpus
    from raycrawl.ingest_dedup import _page_texts

    t = build_fetch_corpus(tiny_corpus).combine_chunks()
    k = t.num_rows // 3
    chunked = pa.concat_tables([t.slice(0, k), t.slice(k)])
    assert chunked["html"].num_chunks == 2
    s = _seeds(tiny_corpus)[0]
    res = _run(tiny_corpus, s["url"], int(s["depth"]), str(tmp_path / "ck"),
               corpus_table=chunked)
    _compare(res, oracle_crawl(tiny_corpus, s["url"], int(s["depth"]),
                               crawl_id="t"))
    # every corpus row, in an order that crosses the chunk boundary
    rows = pa.array(list(range(t.num_rows - 1, -1, -2))
                    + list(range(0, t.num_rows, 2)))
    parents = t.select(["name", "http_type"]).take(rows)
    one = _page_texts(parents, broadcast_corpus(t))
    two = _page_texts(parents, broadcast_corpus(chunked))
    assert two.equals(one)
    text = pq.read_table(os.path.join(tiny_corpus, "pages.parquet"),
                         columns=["text"])["text"].take(rows)
    assert one.to_pylist() == text.to_pylist()


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
def test_resume_refuses_another_corpus_dir(tiny_corpus, tmp_path):
    """A resume reads seed and depth from crawl.json; a corpus directory
    other than the one the crawl ran over (by realpath) is refused, where
    it would otherwise fetch the remaining rounds from another corpus.
    The same directory through a symlink resumes."""
    from raycrawl.crawl import crawl
    from raycrawl.errors import StateError

    s = _seeds(tiny_corpus)[0]
    ck = str(tmp_path / "ck")
    _run(tiny_corpus, s["url"], int(s["depth"]), ck)
    other = str(tmp_path / "other_corpus")
    shutil.copytree(tiny_corpus, other)
    with pytest.raises(StateError, match="corpus"):
        crawl(other, s["url"], int(s["depth"]), ck, crawl_id="t", resume=True)
    link = str(tmp_path / "link")
    os.symlink(tiny_corpus, link)
    res = crawl(link, s["url"], int(s["depth"]), ck, crawl_id="t",
                resume=True)
    _compare(res, oracle_crawl(tiny_corpus, s["url"], int(s["depth"]),
                               crawl_id="t"))


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
