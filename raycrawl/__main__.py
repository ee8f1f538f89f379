"""``python -m raycrawl`` — the ``ray job submit`` entry point.

On a real cluster both halves of the engine ship as Ray jobs:

    ray job submit --working-dir . -- \\
        python -m raycrawl crawl --corpus s3://pages/ \\
            --seed https://example.com \\
            --depth 5 --ckpt s3://ckpts/run1 [--politeness-ms 25] \\
            [--neardup 0.6] [--resume]

    ray job submit --working-dir . -- \\
        python -m raycrawl export --sf-dir s3://tables/ --out s3://corpus/ \\
            [--min-quality 0.52] [--substring-k 8] [--lm-ppm 200000] \\
            [--mixture-json '{"web": 2500, "wiki": 10000}']

(``crawl`` is the default command — the bare round-3 invocation
``python -m raycrawl --corpus ... --seed ...`` still works.)

This is the ONE place in the package that owns a Ray session (``ray job
submit`` starts the driver inside the cluster; ``ray.init(address="auto")``
attaches to it — locally it falls back to a local session; a session that
already exists, e.g. pytest's, is reused and NOT shut down). Prints one
JSON summary line on completion. The crawl's checkpoint tree under
``--ckpt`` carries the per-round lineage, counters and resumability; the
export tree under ``--out`` is shard-resumable (re-running the same job
completes exactly the missing shards).
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python -m raycrawl")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("crawl", help="BFS crawl over a frozen page corpus")
    c.add_argument("--corpus", required=True,
                   help="directory with pages.parquet (the frozen web)")
    c.add_argument("--seed", required=True, help="seed URL")
    c.add_argument("--depth", type=int, required=True, help="crawl depth 1-5")
    c.add_argument("--ckpt", required=True, help="checkpoint directory")
    c.add_argument("--crawl-id", default=None)
    c.add_argument("--resume", action="store_true",
                   help="resume from existing checkpoints (default: fresh)")
    c.add_argument("--politeness-ms", type=float, default=0.0)
    c.add_argument("--robots", action="store_true",
                   help="respect the synthetic robots.txt")
    c.add_argument("--seen-shards", type=int, default=None,
                   help="URL-seen shard count (default: min(8, cluster CPUs))")
    c.add_argument("--neardup", type=float, default=None, metavar="JACCARD",
                   help="ingestion-time near-dup detection: probe each "
                        "round's fetched pages against the crawl's MinHash "
                        "index at this exact-Jaccard threshold (must be set "
                        "on the crawl's FIRST run to be resumable)")

    e = sub.add_parser("export", help="training-corpus pipeline: dedup + "
                       "gates + shuffle key + partitioned JSONL export")
    e.add_argument("--sf-dir", required=True,
                   help="directory with documents.parquet")
    e.add_argument("--out", required=True, help="export output directory")
    e.add_argument("--threshold", type=float, default=0.6,
                   help="near-dup Jaccard threshold")
    e.add_argument("--df-cap", type=int, default=1000)
    e.add_argument("--min-quality", type=float, default=0.52)
    e.add_argument("--seed", type=int, default=7, help="shuffle seed")
    e.add_argument("--num-shards", type=int, default=8,
                   help="JSONL shards per partition")
    e.add_argument("--substring-k", type=int, default=None,
                   help="scrub duplicated k-word-gram spans before scoring")
    e.add_argument("--mixture-json", default=None,
                   help='per-source keep rates in basis points, as JSON '
                        '(e.g. \'{"web": 2500}\'); unlisted sources keep all')
    e.add_argument("--mixture-seed", type=int, default=11)
    e.add_argument("--lm-ppm", type=int, default=None,
                   help="LM gate: min known-bigram ratio in parts-per-million")
    e.add_argument("--lm-ref-mod", type=int, default=13)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0].startswith("--"):
        argv = ["crawl", *argv]  # round-3 flat invocation still works
    args = _build_parser().parse_args(argv)

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        try:
            ray.init(address="auto", include_dashboard=False)
        except ConnectionError:
            ray.init(address="local", include_dashboard=False)

    t0 = time.perf_counter()
    if args.cmd == "crawl":
        from raycrawl.config import CrawlConfig
        from raycrawl.crawl import crawl

        cfg = CrawlConfig(
            num_seen_shards=args.seen_shards,
            politeness_delay_ms=args.politeness_ms,
            respect_robots=args.robots,
            neardup_threshold=args.neardup,
        )
        res = crawl(args.corpus, args.seed, args.depth, args.ckpt, cfg=cfg,
                    crawl_id=args.crawl_id, resume=args.resume)
        wall = time.perf_counter() - t0
        summary = {
            "crawl_id": res.crawl_id,
            "rounds": res.rounds_run,
            "nodes": res.nodes().count(),
            "edges": res.edges().count(),
            "wall_sec": round(wall, 3),
            "ckpt": args.ckpt,
        }
        if args.neardup is not None:
            from raycrawl.ingest_dedup import crawl_neardup

            summary["near_dups"] = crawl_neardup(args.ckpt).num_rows
        print(json.dumps(summary))
    else:
        from raycrawl.pipeline import run_training_pipeline

        written = run_training_pipeline(
            args.sf_dir, args.out, threshold=args.threshold,
            df_cap=args.df_cap, min_quality=args.min_quality,
            seed=args.seed, num_shards=args.num_shards,
            substring_k=args.substring_k,
            mixture_bp=(json.loads(args.mixture_json)
                        if args.mixture_json else None),
            mixture_seed=args.mixture_seed,
            lm_min_known_ppm=args.lm_ppm, lm_ref_mod=args.lm_ref_mod,
        )
        wall = time.perf_counter() - t0
        print(json.dumps({
            "out": args.out,
            "partitions": written,
            "rows": sum(written.values()),
            "wall_sec": round(wall, 3),
        }))
    if owns_session:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
