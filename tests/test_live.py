"""IN-PROGRESS lifecycle + live progress surface (raycrawl.live) — the
rebuild of the reference's claim transition (feeder/src/job.rs:41-51) and
2 s progress WebSocket (manager/src/routes/ws.rs:25-53)."""

import os

import pyarrow.parquet as pq
import pytest

from raycrawl.config import CrawlConfig


def _seed(corpus, i=0):
    return pq.read_table(os.path.join(corpus, "seeds.parquet")).to_pylist()[i]


@pytest.fixture(scope="module")
def frozen_crawl(tiny_corpus, tmp_path_factory, ray_session):
    """A crawl committed through round 1 with round 2 claimed-but-open."""
    from raycrawl.crawl import _round_dir, crawl

    ck = str(tmp_path_factory.mktemp("live") / "ck")
    s = _seed(tiny_corpus)
    crawl(tiny_corpus, s["url"], int(s["depth"]), ck, crawl_id="lv",
          cfg=CrawlConfig(num_seen_shards=2), resume=False, max_rounds=1)
    claim = os.path.join(_round_dir(ck, 2), "_CLAIMED")
    os.makedirs(os.path.dirname(claim), exist_ok=True)
    with open(claim, "w") as f:
        f.write("ok")
    return ck


@pytest.mark.usefixtures("ray_session")
def test_open_round_detection(frozen_crawl):
    from raycrawl import live

    assert live.last_done_round(frozen_crawl) == 1
    assert live.open_round(frozen_crawl) == 2


@pytest.mark.usefixtures("ray_session")
def test_in_progress_overlay_mid_round(frozen_crawl):
    """While a round is claimed, the snapshot's PENDING set (== the claimed
    frontier, M5/M6/M11 — see live.py docstring) reports IN-PROGRESS."""
    import pyarrow.dataset as pads

    from raycrawl import live
    from raycrawl.crawl import _round_dir

    row = live.live_progress(frozen_crawl, "lv").to_pylist()[0]
    n_frontier = pads.dataset(
        os.path.join(_round_dir(frozen_crawl, 1), "frontier")
    ).count_rows()
    assert n_frontier > 0
    assert row["pending"] == 0
    assert row["in_progress"] == n_frontier
    assert row["status"] == "running"


@pytest.mark.usefixtures("ray_session")
def test_no_overlay_between_rounds(frozen_crawl):
    """With the claim marker removed (round barrier committed / not yet
    begun), the same nodes are plain PENDING."""
    from raycrawl import live
    from raycrawl.crawl import _round_dir

    claim = os.path.join(_round_dir(frozen_crawl, 2), "_CLAIMED")
    os.rename(claim, claim + ".bak")
    try:
        row = live.live_progress(frozen_crawl, "lv").to_pylist()[0]
        assert row["in_progress"] == 0
        assert row["pending"] > 0
        assert row["status"] == "running"
    finally:
        os.rename(claim + ".bak", claim)


@pytest.mark.usefixtures("ray_session")
def test_live_matches_final_on_finished_crawl(tiny_corpus, tmp_path):
    """After the last barrier of a finished crawl the live snapshot equals
    the finalized tables row for row (and reports zero in-flight)."""
    import pyarrow.dataset as pads

    from raycrawl import live
    from raycrawl.crawl import compacted_nodes, crawl
    from raycrawl.queries import crawl_progress, load_nodes

    s = _seed(tiny_corpus)
    ck = str(tmp_path / "ck")
    res = crawl(tiny_corpus, s["url"], int(s["depth"]), ck, crawl_id="lv2",
                cfg=CrawlConfig(num_seen_shards=2), resume=False)
    live_row = live.live_progress(ck, "lv2").to_pylist()[0]
    final_row = crawl_progress(load_nodes(ck), "lv2").to_pylist()[0]
    assert live_row == final_row
    assert live_row["in_progress"] == 0 and live_row["pending"] == 0
    final = pads.dataset(res.nodes_path).to_table()
    assert compacted_nodes(ck, res.rounds_run).equals(final)


@pytest.mark.usefixtures("ray_session")
def test_round_counters_stream(frozen_crawl):
    from raycrawl import live

    t = live.round_counters(frozen_crawl).to_pandas()
    assert list(t.columns) == live.COUNTER_COLS
    assert t["round"].tolist() == [1]
    assert int(t["frontier_size"].iloc[0]) > 0


@pytest.mark.usefixtures("ray_session")
def test_progress_stream_polls_and_reports_running(frozen_crawl):
    from raycrawl import live

    ticks = list(live.progress_stream(frozen_crawl, "lv", interval_s=0.0,
                                      max_polls=2))
    assert len(ticks) == 2
    assert all(t["status"] == "running" for t in ticks)
    assert all(t["in_progress"] > 0 for t in ticks)


def test_livez_always_ok():
    from raycrawl import live

    assert live.livez() == {"status": "ok"}


@pytest.mark.usefixtures("ray_session")
def test_readyz_ready_with_cluster_up():
    from raycrawl import live

    assert live.readyz() == {"status": "ready"}


def test_readyz_not_ready_without_ray(monkeypatch):
    # health.rs:13-22 shape: not-ready carries a reason, never raises
    import ray

    from raycrawl import live

    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    out = live.readyz()
    assert out["status"] == "not ready" and "reason" in out
