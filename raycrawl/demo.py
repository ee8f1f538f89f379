"""Demo-crawl provisioning for the driver correctness contract.

The crawl-family queries (A1–A4, S5) aggregate over crawl output tables,
which don't exist in the driver's sf directories — so both the Ray query
and its DuckDB oracle run over the SAME deterministic demo-crawl Parquet,
provisioned here once per process boot (cached under /tmp, idempotent):

- three crawls over the tiny synthetic corpus (seeds 0/1/2), the third
  cancelled after round 1 → status variety for list/filter queries;
- crawl ids are fixed ("demo0".."demo2") so the SQL strings can embed them;
- one crawl ("demolive", under ck_live) frozen MID-ROUND: run to round 1,
  then round 2 is claimed (``_CLAIMED`` stamped) but never committed — the
  deterministic fixture for the IN-PROGRESS lifecycle / live-progress
  queries (raycrawl.live; reference feeder/src/job.rs:41-51 claim +
  manager/src/routes/ws.rs:25-53 stream).

``ensure_demo_crawls`` requires an initialized Ray session — the driver
guarantees one before calling ``queries()`` / ``oracle_sql()``.
"""

from __future__ import annotations

import os

DEMO_BASE = "/tmp/raycrawl_demo"
N_DEMO = 3


def demo_ckpts() -> list[str]:
    return [os.path.join(DEMO_BASE, f"ck{i}") for i in range(N_DEMO)]


def nodes_glob() -> str:
    return os.path.join(DEMO_BASE, "ck*", "final", "nodes", "*.parquet")


def edges_glob() -> str:
    return os.path.join(DEMO_BASE, "ck*", "final", "edges", "*.parquet")


def live_ckpt() -> str:
    # named so the finished-crawl oracle glob (ck*/final/...) can't match
    # this fixture's own final/ dir
    return os.path.join(DEMO_BASE, "live_ck")


def ensure_demo_crawls() -> list[str]:
    import pyarrow.parquet as pq

    from raycrawl.config import CrawlConfig
    from raycrawl.corpus import ensure_corpus
    from raycrawl.crawl import _round_dir, crawl

    corpus = ensure_corpus("tiny")
    seeds = pq.read_table(os.path.join(corpus, "seeds.parquet")).to_pylist()
    cfg = CrawlConfig(num_seen_shards=4)
    out = []
    for i, ck in enumerate(demo_ckpts()):
        done = os.path.join(ck, "final", "_DONE")
        if not os.path.exists(done):
            s = seeds[i % len(seeds)]
            crawl(
                corpus, s["url"], int(s["depth"]), ck, cfg=cfg,
                crawl_id=f"demo{i}", resume=True,
                cancel_after_round=1 if i == 2 else None,
            )
        out.append(ck)

    # mid-round fixture: committed through round 1, round 2 claimed
    lk = live_ckpt()
    claim = os.path.join(_round_dir(lk, 2), "_CLAIMED")
    if not os.path.exists(claim):
        s = seeds[0]
        crawl(corpus, s["url"], int(s["depth"]), lk, cfg=cfg,
              crawl_id="demolive", resume=False, max_rounds=1)
        os.makedirs(os.path.dirname(claim), exist_ok=True)
        with open(claim, "w") as f:
            f.write("ok")
    return out


def neardup_ckpt() -> str:
    # named so nodes_glob()'s "ck*" can't match it (it's a different
    # crawl family with its own oracle)
    return os.path.join(DEMO_BASE, "dup_ck")


def neardup_corpus() -> str:
    return os.path.join(DEMO_BASE, "dup_corpus")


def ensure_neardup_demo() -> str:
    """Deterministic ingestion-dedup fixture: a mirrored corpus (planted
    near-dup pages, both hub-linked same-round and chained cross-round —
    corpus.generate_corpus mirror_frac) crawled with
    ``CrawlConfig.neardup_threshold`` set. Cached like the other demos."""
    import pyarrow.parquet as pq

    from raycrawl.config import CrawlConfig
    from raycrawl.corpus import generate_corpus
    from raycrawl.crawl import crawl

    c = generate_corpus(neardup_corpus(), n_hosts=120, seed=77,
                        mirror_frac=0.15, n_seeds=1)
    ck = neardup_ckpt()
    if not os.path.exists(os.path.join(ck, "final", "_DONE")):
        seed = pq.read_table(os.path.join(c, "seeds.parquet")).to_pylist()[0]
        crawl(c, seed["url"], 3, ck,
              cfg=CrawlConfig(num_seen_shards=4, neardup_threshold=0.6),
              crawl_id="demodup", resume=True)
    return ck
