"""Crawl configuration.

Mirrors the reference's env-var knobs (feeder/src/config.rs:26-39,
manager/src/config.rs:23-34) as a dataclass, plus the Ray-side knobs the
reference has no analogue for (shard counts, batch sizes). The fetch
corpus has one layout: broadcast through the object store
(``fetch.broadcast_corpus``), so it must fit there.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CrawlConfig:
    # Reference semantics knobs (feeder/src/config.rs:26-39)
    max_attempts: int = 3          # MAX_ATTEMPTS; feeder/src/job.rs:108-131
    max_dns_depth: int = 5         # MAX_DNS_DEPTH; shared/src/dns.rs:15-48
    max_crawl_depth: int = 5       # MAX_CRAWL_DEPTH; manager/src/routes/crawl.rs:28

    # Ray-side physical knobs (no reference analogue; SURVEY.md §4)
    # URL-seen filter shards (hash(url) % S), each an exact set of 128-bit
    # keys (raycrawl.seen). None = min(8, cluster CPUs): the shards reserve
    # no CPU, but each is a process the fetch tasks share cores with. Every
    # crawl in a Ray session reuses one shard set per count
    # (crawl._seen_shards).
    num_seen_shards: int | None = None
    fetch_batch_size: int = 4096

    # Politeness / robots — NOT present in the reference (SURVEY.md §2.6 L1:
    # "no priority, no politeness ordering, no rate limit per host exists in
    # the reference").  Off by default so crawl output matches reference
    # semantics exactly; turned on for the north-star politeness tests.
    politeness_delay_ms: float = 0.0   # min per-host interval between fetches
    respect_robots: bool = False       # synthetic robots.txt (deterministic)

    # Per-page featurization at fetch time (token counts, quality, SimHash,
    # fingerprint, lang guess) — the realistic training-data parse workload;
    # attached to parent rows in round_out. Off for reference-exact tests.
    enrich: bool = False

    # Ingestion-time near-dup detection (raycrawl.ingest_dedup): when set,
    # each round probes its COMPLETED parents against the persisted MinHash
    # band index of all previously fetched pages and records
    # (node_id, near_dup_of, jaccard) assignments under the round dir.
    # Off by default (reference-exact crawls, bench). Must be set from the
    # crawl's FIRST run — resuming a neardup crawl that started without it
    # is refused (the prior rounds' index files don't exist).
    neardup_threshold: float | None = None

