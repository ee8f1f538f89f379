"""Workload definitions: corpus shape and the crawl's CrawlConfig fields.

Every input is a pure function of the workload seed. The program only ever
sees the generated corpus directory and its seed URL: every crawl starts at
``seeds.parquet`` row 0 with depth ``DEPTH``.

``FULL`` sizes fit the benchmark's time budget on a 1-core host (about a
minute per run, set-up and checks included); ``TOY`` sizes are for the
self-test.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

DEPTH = 5
# per-operation watchdog: a crawl still running after this long counts as
# failed and ends the measured loop
CRAWL_TIMEOUT_S = 90.0


@dataclass(frozen=True)
class Workload:
    name: str
    # corpus.generate_corpus_fast arguments
    corpus_kw: dict
    # CrawlConfig fields this workload sets; every other field keeps its
    # default so that a change of default is measured
    cfg_kw: dict = field(default_factory=dict)


_BFS_CORPUS = dict(mean_links=55, zipf_alpha=0.25, filler_vocab=65_536,
                   mirror_frac=0.004)
_CFG = {"bfs_wide": dict(enrich=True),
        "bfs_neardup": dict(enrich=True, neardup_threshold=0.6)}

FULL = {name: Workload(name, dict(n_hosts=5_000, **_BFS_CORPUS), kw)
        for name, kw in _CFG.items()}
TOY = {name: Workload(name, dict(n_hosts=600, **_BFS_CORPUS), kw)
       for name, kw in _CFG.items()}


def generate(w: Workload, seed: int, out_dir: str) -> str:
    """Write the workload's corpus for ``seed`` into a fresh ``out_dir``."""
    from raycrawl import corpus

    return corpus.generate_corpus_fast(out_dir, seed=seed, **w.corpus_kw)


def seed_url(corpus_dir: str) -> str:
    """The root every crawl of a run starts from."""
    import pyarrow.parquet as pq

    return pq.read_table(os.path.join(corpus_dir, "seeds.parquet"))[
        "url"][0].as_py()
