"""Fetch helpers: the corpus-join analogue of the reference's HTTP GET.

The reference fetches the live web with a pooled ``reqwest`` client, one URL
per worker iteration (shared/src/crawler.rs:18-51; client
feeder/src/main.rs:33-36; 8 workers, web-crawler/values.yaml:45).  Here
"fetching" ``http_type + name`` is a hash lookup of the frontier row against
the frozen page corpus. The driver ``ray.put``s the pages table ONCE
(zero-copy Arrow in the object store) with its sorted key index
(``broadcast_corpus``, ``CorpusIndex``); each *worker process* maps both
on first use, cached at module level — Ray worker processes persist across
tasks and rounds. So the whole corpus must fit in the object store.

``corpus_rows`` and ``corpus_html`` are the one corpus lookup — key hashes
in, corpus rows out, then those rows' HTML — for both the fetch stage
(``fetch_pages``) and the near-dup text pass (``ingest_dedup._page_texts``),
so only this module knows the corpus layout. ``fetch_pages`` fetches one
frontier batch: the corpus lookup, the simulated status and latency per
row, then the OK rows' HTML taken as one column for the batch extractor.

Politeness / per-host budget (north-star feature; the reference has none —
SURVEY §2.6 L1) lives here too: per-worker host clocks spacing fetches by
the configured minimum interval. Global (not just per-worker) enforcement
requires every row of a host to be fetched by one task, which the crawl
driver's host-keyed slices (``host_partition_ids``) guarantee.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from raycrawl import sim
from raycrawl.kernels import decode_html_col, host_of, normalize_urls_arrow

STATUS_ROBOTS = 999

# per-worker-process caches (persist across tasks/rounds)
_CORPUS_CACHE: dict = {}
_ROBOTS_CACHE: dict[str, bool] = {}
_HOST_CLOCK: dict[str, float] = {}


def build_fetch_corpus(corpus_dir: str) -> pa.Table:
    """Driver-side: pages.parquet → (name, http_type, html) keyed by the
    normalized page URL. Broadcast via ``ray.put`` (done by the caller)."""
    pages = pq.read_table(f"{corpus_dir}/pages.parquet", columns=["url", "html"])
    names, protos = normalize_urls_arrow(pages["url"].combine_chunks())
    return pa.table({"name": names, "http_type": protos, "html": pages["html"]})


def corpus_key_strings(names, protos) -> "pa.Array":
    """Join (name, http_type) into the corpus lookup key string,
    vectorized ("\x00" cannot occur in either part)."""
    return pc.binary_join_element_wise(names, protos, "\x00")


class CorpusIndex:
    """Sorted-key128 corpus lookup: one structured (hi,lo) uint64 array in
    key order plus the permutation back to table rows. ~32 B/row vs ~250
    B/row for the former per-worker Python dict, and — decisive at scale —
    the arrays are plain numpy, so a driver-precomputed index rides the
    ``ray.put`` broadcast ZERO-COPY into every worker instead of each
    worker re-hashing and re-indexing the whole corpus at warm-up.

    Keys are the 128-bit hashes of "name\\x00http_type" — collision-free
    for any realistic corpus (birthday bound ~2^64 rows)."""

    KEY_DT = np.dtype([("hi", "u8"), ("lo", "u8")])
    __slots__ = ("keys", "perm")

    def __init__(self, keys: np.ndarray, perm: np.ndarray):
        self.keys = keys
        self.perm = perm

    @classmethod
    def build(cls, names, protos) -> "CorpusIndex":
        from raycrawl.kernels import hash128

        hi, lo = hash128(corpus_key_strings(names, protos))
        perm = np.lexsort((lo, hi)).astype(np.int64)
        keys = np.empty(len(hi), dtype=cls.KEY_DT)
        keys["hi"], keys["lo"] = hi[perm], lo[perm]
        return cls(keys, perm)

    def lookup(self, qhi: np.ndarray, qlo: np.ndarray) -> np.ndarray:
        """Vectorized: query hash pairs → table row indices, -1 on miss."""
        q = np.empty(len(qhi), dtype=self.KEY_DT)
        q["hi"], q["lo"] = qhi, qlo
        if not len(self.keys):
            return np.full(len(q), -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self.keys, q), len(self.keys) - 1)
        return np.where(self.keys[pos] == q, self.perm[pos], np.int64(-1))


def broadcast_corpus(corpus_table: pa.Table):
    """Driver-side corpus prep: compute the sorted CorpusIndex ONCE and
    ``ray.put`` it alongside the table, so worker warm-up is a zero-copy
    plasma read."""
    import ray

    idx = CorpusIndex.build(
        corpus_table["name"].combine_chunks(),
        corpus_table["http_type"].combine_chunks(),
    )
    return ray.put((corpus_table, idx.keys, idx.perm))


def get_corpus_index(corpus_ref):
    """(CorpusIndex, html column) for a ``broadcast_corpus`` ref; cached
    per worker process (zero-copy ray.get from plasma on first call)."""
    import ray

    key = corpus_ref.hex()
    hit = _CORPUS_CACHE.get(key)
    if hit is not None:
        return hit
    table, keys, perm = ray.get(corpus_ref)
    _CORPUS_CACHE.clear()  # one corpus live at a time per worker
    _CORPUS_CACHE[key] = (CorpusIndex(keys, perm), table["html"])
    return _CORPUS_CACHE[key]


def corpus_rows(corpus_ref, khi: np.ndarray, klo: np.ndarray) -> np.ndarray:
    """The corpus join: corpus-key hashes → corpus row per key, -1 on a
    miss."""
    return get_corpus_index(corpus_ref)[0].lookup(khi, klo)


def corpus_html(corpus_ref, rows: np.ndarray) -> pa.Array:
    """The HTML of corpus ``rows`` (every one a hit), in their order, as
    one large_binary column."""
    return _take_large(get_corpus_index(corpus_ref)[1], rows)


def _take_large(col: pa.ChunkedArray, rows: np.ndarray) -> pa.Array:
    """``col.take(rows)`` as large_binary, O(result), not O(source): Arrow's
    ChunkedArray.take CONCATENATES the source chunks first — both an
    int32-offset overflow on a >2 GiB corpus column and a whole-corpus
    memcpy per batch. Instead, map each global index to (chunk, local),
    take per chunk (Array.take is a straight gather), and reorder the
    small result."""
    idx = np.asarray(rows, np.int64)
    if not len(idx):
        return pa.array([], pa.large_binary())
    if col.num_chunks == 1:
        return pc.cast(col.chunk(0).take(pa.array(idx)), pa.large_binary())
    bounds = np.cumsum([0] + [len(ch) for ch in col.chunks])
    cid = np.searchsorted(bounds, idx, side="right") - 1
    order = np.argsort(cid, kind="stable")
    inv = np.empty(len(idx), np.int64)
    inv[order] = np.arange(len(idx))
    pieces = []
    for ci in np.unique(cid):
        local = idx[cid == ci] - bounds[ci]
        pieces.append(pc.cast(col.chunk(int(ci)).take(pa.array(local)),
                              pa.large_binary()))
    return pa.concat_arrays(pieces).take(pa.array(inv))


def _hosts_of_names(names: pa.Array) -> pa.Array:
    """Vectorized host projection: name up to the first ':' (the extractor
    only captures host(:port), so this is exact)."""
    return pc.list_element(pc.split_pattern(names, ":", max_splits=1), 0)


def host_partition_ids(names, n_parts: int) -> np.ndarray:
    """hash128(host) % P for a name column — the slice key: the crawl
    driver splits each round's frontier on it, so every row of one host
    is fetched by one task (the per-host politeness budget)."""
    from raycrawl.kernels import hash128

    if isinstance(names, pa.ChunkedArray):
        names = names.combine_chunks()
    hi, _ = hash128(_hosts_of_names(names))
    return (hi % np.uint64(n_parts)).astype(np.int64)


def robots_blocked(host: str) -> bool:
    v = _ROBOTS_CACHE.get(host)
    if v is None:
        v = sim.robots_disallowed(host.lower())
        _ROBOTS_CACHE[host] = v
    return v


def politeness_wait(host: str, delay_s: float) -> None:
    """Per-worker per-host minimum fetch interval."""
    now = time.monotonic()
    wait = _HOST_CLOCK.get(host, -1e18) + delay_s - now
    if wait > 0:
        time.sleep(wait)
    _HOST_CLOCK[host] = time.monotonic()


def fetch_pages(corpus_ref, batch: pa.Table, khi: np.ndarray,
                klo: np.ndarray, politeness_delay_s: float = 0.0,
                respect_robots: bool = False):
    """Simulated fetch of every frontier row in ``batch`` → ``(status,
    elapsed_ms, page_row, pages)``: per-row HTTP status and latency, and the
    decoded HTML of the OK rows as one string column with the batch row
    each page belongs to. ``khi``/``klo`` are the rows' corpus-key hashes.

    Status and latency stay per row: the simulator's per-URL hashes stand
    in for the network (shared/src/crawler.rs:18-51), and so do robots and
    the politeness clock. Rows are visited in (depth, name) order when
    politeness is on (per-host queue order, north-star L1)."""
    n = batch.num_rows
    names = batch["name"].to_pylist()
    protos = batch["http_type"].to_pylist()
    attempts = batch["attempts"].to_pylist()
    order = np.arange(n, dtype=np.int64)
    if politeness_delay_s > 0:
        order = pc.sort_indices(
            pa.table({"d": batch["depth"], "n": batch["name"]}),
            sort_keys=[("d", "ascending"), ("n", "ascending")]
        ).to_numpy().astype(np.int64)
    hit = corpus_rows(corpus_ref, khi, klo)
    found = (hit >= 0).tolist()
    status = np.zeros(n, dtype=np.int64)
    elapsed = np.zeros(n, dtype=np.float64)
    for i in order.tolist():
        host = host_of(names[i])
        if respect_robots and robots_blocked(host):
            status[i] = STATUS_ROBOTS
            continue
        if politeness_delay_s > 0:
            politeness_wait(host, politeness_delay_s)
        status[i] = sim.fetch_status(names[i], protos[i],
                                     int(attempts[i] or 0) + 1, found[i])
        elapsed[i] = sim.fetch_elapsed_ms(names[i], protos[i])
    page_rows = order[status[order] == sim.STATUS_OK]
    pages = decode_html_col(corpus_html(corpus_ref, hit[page_rows]))
    return status, elapsed, page_rows, pages
