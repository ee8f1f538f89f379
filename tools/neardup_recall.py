"""Planted-truth recall check for the crawl ingestion-dedup stage.

Recomputes the planted-mirror ground truth of a ``generate_corpus_fast``
corpus from (seed, i) alone (``corpus.fast_mirror_flags``) and scores a
finished neardup crawl checkpoint against it: recall over every planted
pair whose BOTH sides were fetched (COMPLETED non-leaf URL nodes — the
probeable set), where a pair counts only if an assignment links its two
sides, and the count of assignments not involving any planted
page (false-assignment surface; exact-jaccard acceptance makes real
false positives impossible, so nonzero here means organic dups or a
bug). Reproduces the BASELINE.md bench_hv datapoint:

    RAYCRAWL_BENCH_TAG=bench_hv BENCH_HEADLINE_ONLY=1 \
        RAYCRAWL_BENCH_NEARDUP=0.6 python bench.py
    python tools/neardup_recall.py --ckpt /tmp/raycrawl_bench/ck_bench_hv_32

Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--ckpt", required=True,
                   help="neardup crawl checkpoint directory")
    p.add_argument("--n-hosts", type=int, default=1_200_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--mirror-frac", type=float, default=0.004)
    p.add_argument("--chunk-pages", type=int, default=100_000)
    args = p.parse_args(argv)

    import numpy as np
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")
    from raycrawl.corpus import fast_mirror_flags, host_name, host_proto
    from raycrawl.crawl import read_nodes
    from raycrawl.ingest_dedup import crawl_neardup

    nd = crawl_neardup(args.ckpt).to_pandas()
    nodes = read_nodes(args.ckpt).select_columns(
        ["node_id", "node_type", "status", "depth",
         "requested_depth"]).to_pandas()
    fset = set(nodes[(nodes.node_type == "URL")
                     & (nodes.status == "COMPLETED")
                     & (nodes.depth < nodes.requested_depth)].node_id)
    flags = fast_mirror_flags(args.seed, 0, args.n_hosts, args.mirror_frac,
                              args.chunk_pages)
    planted = np.flatnonzero(flags)

    def nid(i: int) -> str:
        return (host_proto(i) + "://" + host_name(i)).upper()

    both = [int(i) for i in planted
            if nid(i) in fset and nid(i - 1) in fset]
    # a pair counts only when an assignment links its two sides, in
    # either direction
    links = set(zip(nd.node_id, nd.near_dup_of))
    recalled = sum(1 for i in both
                   if (nid(i), nid(i - 1)) in links
                   or (nid(i - 1), nid(i)) in links)
    mir = ({nid(int(i)) for i in planted}
           | {nid(int(i) - 1) for i in planted})
    non_planted = sum(1 for r in nd.itertuples()
                      if r.node_id not in mir and r.near_dup_of not in mir)
    print(json.dumps({
        "ckpt": args.ckpt,
        "assignments": len(nd),
        "planted_mirrors": int(len(planted)),
        "both_sides_fetched": len(both),
        "recalled": recalled,
        "recall": round(recalled / len(both), 4) if both else None,
        "non_planted_assignments": non_planted,
        "assignment_jaccard_min":
            round(float(nd.jaccard.min()), 4) if len(nd) else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
