"""Ingestion-time near-duplicate detection for the crawl loop.

Composes the engine's two halves — the BFS crawler and the curation lane's
persisted MinHash index (VERDICT r4 §Next 4): when
``CrawlConfig.neardup_threshold`` is set, every round probes the pages it
successfully fetched against the band index of ALL previously fetched
pages and assigns each near-duplicate page its earliest-ingested match.

Semantics (mirrors the reference-corpus documents lane,
``dedup.minhash_neardup_incremental``):

- probe set per round r ≥ 1: the round's COMPLETED parents (COMPLETED ⇔
  fetched 200 and expanded; leaves born COMPLETED are never fetched so
  never probed; the ROOT bootstrap fetch is crawl submission, not corpus
  ingestion, and is excluded);
- page text = tag-stripped fetch body (``<[^>]+>`` → "", exactly the
  corpus generator's ``text`` column), 3-gram md5 shingles
  (``kernels.shingle_list_batch``), MinHash bands
  (``kernels.minhash_bands_batch``);
- ingestion order = (probe round, node_id). A page's ``near_dup_of`` is
  the earliest page in that order whose exact shingle Jaccard is ≥ the
  threshold among its LSH band candidates (the same candidate
  completeness envelope as the whole MinHash family — a candidate can
  only be missed, never mis-scored);
- the per-round index lives INSIDE the round checkpoint dir as one file,
  ``round=NNNN/ndx/part-0.parquet``: one row per probed page (pid,
  node_id, probe_round, sig, band_hashes, shingles), so the crawl's
  existing round idempotency (round dir removed and rebuilt atomically)
  covers the index and resume needs no extra machinery. A probe reads
  the prior rounds' (pid, band_hashes) columns in full, then the other
  columns of the candidate pages only. Partitioning the index would not
  prune the first read: each page carries 16 band hashes, so with P
  band-hash partitions a round of n pages misses a given partition with
  probability (1 - 1/P)^(16 n) — at P = 64 and n = 20 that is 0.65%, so
  a round of more than about 20 pages touches nearly all 64 partitions,
  and the files cost more to create than the pruning saves. Every prior
  round's file must exist and hold one row per page that round probed
  (``parents_completed`` in its ``counters.json``); anything else raises
  ``StateError``.

Scale notes: the text, shingle, band and signature pass
(``_shingle_band_batch``) runs inside the crawl's fetch tasks, one
``fetch_batch_size`` chunk at a time, so it uses every CPU the fetch
stage uses. It builds its grams with Arrow string kernels and keeps no
buffer pool between chunks; on 3,000 bench pages it takes about 0.6 s
on one core (grams 0.2 s, per-page sorted-unique under 0.1 s, MinHash
bands 0.2 s, page texts 0.1 s). No trace stage times it on its own: its
cost shows inside ``crawl.fetch_stage_s``. The driver keeps only the probe,
bounded by the round's fetched count; it runs while the seen shards
commit the round, and runs its prefilter+verify slices one at a time, in
process. Page identity is carried as the high 64 bits of the 128-bit
node-id hash; at 10^10-frontier scale carry the full (hi, lo) pair like
fetch.CorpusIndex.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from raycrawl.errors import StateError
from raycrawl.kernels import (
    N_BANDS,
    N_PERM,
    minhash_bands_batch,
    segmented_jaccard,
    shingle_list_batch,
)

NEARDUP_SCHEMA = pa.schema(
    [
        ("node_id", pa.string()),
        ("near_dup_of", pa.string()),
        ("jaccard", pa.float64()),
    ]
)

# one row per probed page of a round (round=NNNN/ndx/part-0.parquet)
INDEX_SCHEMA = pa.schema(
    [
        ("pid", pa.int64()),
        ("node_id", pa.string()),
        ("probe_round", pa.int32()),
        ("sig", pa.list_(pa.uint8(), N_PERM)),
        ("band_hashes", pa.list_(pa.int64(), N_BANDS)),
        ("shingles", pa.list_(pa.uint64())),
    ]
)


def _band_key(bid: np.ndarray, bh: np.ndarray) -> np.ndarray:
    """(band_id, band_hash) → one mixed uint64 sort/join key: numpy's
    structured-dtype searchsorted falls off the vectorized fast path
    (measured 73 s for 14M probes vs <2 s on uint64). Aliasing across
    distinct (id, hash) pairs is ~2^-64 — the same class as band-hash
    collisions themselves, and aliases can only ADD candidates, which the
    exact verify then rejects."""
    with np.errstate(over="ignore"):
        return (bh.view(np.uint64)
                ^ ((bid.astype(np.uint64) + np.uint64(1))
                   * np.uint64(0x9E3779B97F4A7C15)))


def index_file(ckpt: str, r: int) -> str:
    """Round r's near-dup index file."""
    return os.path.join(ckpt, f"round={r:04d}", "ndx", "part-0.parquet")


def _prior_index_files(ckpt: str, r: int) -> list[str]:
    """Rounds 1..r-1's index files, after checking that each exists and
    holds one row per page its round probed: a lost row would not fail
    the probe, it would only drop that page from every later candidate
    set and lower recall without a sign."""
    files = []
    for rr in range(1, r):
        f = index_file(ckpt, rr)
        with open(os.path.join(ckpt, f"round={rr:04d}", "counters.json")) as fh:
            want = json.load(fh)["parents_completed"]
        got = pq.ParquetFile(f).metadata.num_rows if os.path.exists(f) else None
        if got != want:
            raise StateError(
                f"near-dup index of round {rr} of {ckpt} has "
                f"{'no file' if got is None else f'{got} rows'} for the "
                f"{want} pages that round probed; rebuild round {rr} onward")
        files.append(f)
    return files


def _pids(node_ids) -> np.ndarray:
    from raycrawl.kernels import hash128

    hi, _lo = hash128(node_ids)
    return hi.view(np.int64)


def _page_texts(parents: pa.Table, corpus_ref) -> pa.Array:
    """Tag-stripped body text per COMPLETED parent, through the fetch
    stage's corpus lookup (``fetch.corpus_rows``/``corpus_html``) —
    vectorized hash lookup + Arrow take + ``kernels.strip_tags``."""
    from raycrawl.fetch import corpus_html, corpus_key_strings, corpus_rows
    from raycrawl.kernels import hash128, strip_tags

    qhi, qlo = hash128(corpus_key_strings(parents["name"].combine_chunks(),
                                          parents["http_type"].combine_chunks()))
    html = corpus_html(corpus_ref, corpus_rows(corpus_ref, qhi, qlo))
    return strip_tags(pc.cast(html, pa.large_string()))


def _gather_segments(flat: np.ndarray, offs: np.ndarray,
                     idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segments ``flat[offs[i]:offs[i+1]]`` for each i in idx, packed."""
    lens = (offs[idx + 1] - offs[idx]).astype(np.int64)
    out_offs = np.zeros(len(idx) + 1, dtype=np.int64)
    np.cumsum(lens, out=out_offs[1:])
    total = int(out_offs[-1])
    pos = (np.arange(total, dtype=np.int64)
           - np.repeat(out_offs[:-1], lens)
           + np.repeat(offs[idx].astype(np.int64), lens))
    return flat[pos], out_offs


def _list_arrays(col) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    offs = col.offsets.to_numpy().astype(np.int64)
    flat = col.values.to_numpy(zero_copy_only=False).astype(np.uint64,
                                                            copy=False)
    base = offs[0]
    return flat[base:offs[-1]], offs - base


# candidate prefilter: drop band-collision pairs whose 64-perm signature
# agreement estimates BELOW threshold - this margin. 0.2 ≈ 3.3σ of the
# binomial estimator at j=0.6 → <0.1% miss probability for a true pair AT
# the threshold, vanishing above it; everything it drops never reaches
# the shingle gather (measured: 7.7M false candidates → ~10^4 on a
# 155k-page bench round).
PREFILTER_MARGIN = 0.2

# pairs per prefilter/verify slice — bounds the signature-compare and
# shingle-gather scratch regardless of candidate volume (a slice's
# stage-1 scratch is ~3 × chunk × 16 bytes ≈ 100 MB at 2M; stage 2 runs
# only on stage-1 survivors)
_PAIR_CHUNK = 2_000_000

# the stage-1 prefilter estimates jaccard from only the FIRST 16 of the
# 64 signature bytes (a separate 16-byte-row array, so a cache line
# carries 4 pairs instead of 1) with an extra 0.15 margin; a TRUE pair
# at exactly j=threshold=0.6 fails it with P[Binom(16, 0.6) < 16·0.25]
# ≈ 1e-5 — an order below the documented 64-perm envelope. Everything
# it keeps still passes the full-64 estimate, then the exact jaccard.
_STAGE1_PERMS = 16
_STAGE1_MARGIN = 0.15


# grams gathered per exact-verify sub-slice (~256 MB of uint64 per side):
# a 2M-pair slice whose pairs ALL survive the prefilter — the shape a
# template-heavy corpus produces, where near-dup clusters make pair
# volume quadratic — would otherwise gather pairs × grams/page × 8 B in
# one shot (measured multi-GB per slice at bench round 4)
_GRAM_BUDGET = 32_000_000


def _fused_verify_chunk(sigA16, sigA, sigB16, sigB, flatA, offsA, iordA,
                        flatB, offsB, ea, lb, est_cut, threshold):
    """One candidate slice, fused end-to-end: two-stage signature
    prefilter → gram-budget-bounded shingle gather + exact
    segmented jaccard → per-later-row reduce to the earliest-ingestion
    surviving match. Side A is the earlier/indexed side (`ea` indexes
    its signature and shingle rows; ``iordA`` is its ingestion order),
    side B is always the current round. Returns (later_row, earlier_idx,
    jaccard) with at most one row per later page, so result volume is
    bounded by the slice's distinct duplicate pages even when a giant
    near-dup cluster makes the candidate pair volume quadratic."""
    k = ((sigA16[ea] == sigB16[lb]).mean(axis=1)
         >= max(0.0, est_cut - _STAGE1_MARGIN))
    ea, lb = ea[k], lb[k]
    if len(ea):
        k = (sigA[ea] == sigB[lb]).mean(axis=1) >= est_cut
        ea, lb = ea[k], lb[k]
    if not len(ea):
        z = np.empty(0, np.int64)
        return z, z, np.empty(0, np.float64)
    # exact size screen, free of any probability envelope: jaccard is at
    # most min(|A|,|B|)/max(|A|,|B|), so pairs whose shingle-set sizes
    # are off by more than the threshold ratio can never pass and are
    # dropped before any gather
    la_ = (offsA[ea + 1] - offsA[ea]).astype(np.float64)
    lb_ = (offsB[lb + 1] - offsB[lb]).astype(np.float64)
    k = np.minimum(la_, lb_) >= threshold * np.maximum(la_, lb_)
    ea, lb = ea[k], lb[k]
    if not len(ea):
        z = np.empty(0, np.int64)
        return z, z, np.empty(0, np.float64)
    # verify in (later row, earlier ingestion order) with EARLY STOP: the
    # winner semantics need only each later row's earliest exact match,
    # so once a row succeeds, its remaining (later-ranked) candidates are
    # never gathered. On a degenerate template corpus where whole
    # clusters sit near the threshold this turns the exact-verify volume
    # from O(pairs) = O(cluster²) into ~O(rows in the slice); on sparse
    # corpora the order costs one lexsort.
    o = np.lexsort((iordA[ea], lb))
    ea, lb = ea[o], lb[o]
    lens = ((offsA[ea + 1] - offsA[ea]) + (offsB[lb + 1] - offsB[lb]))
    alive = np.ones(len(ea), bool)
    keep_e, keep_l, keep_j = [], [], []
    pos = 0
    while pos < len(ea):
        idxs = np.flatnonzero(alive[pos:])
        if not len(idxs):
            break
        idxs = idxs + pos
        cl = np.cumsum(lens[idxs])
        take = min(int(np.searchsorted(cl, _GRAM_BUDGET)) + 1, len(idxs))
        sel = idxs[:take]
        va, offa = _gather_segments(flatA, offsA, ea[sel])
        vb, offb = _gather_segments(flatB, offsB, lb[sel])
        j = segmented_jaccard(va, offa, vb, offb)
        kk = j >= threshold
        if kk.any():
            keep_e.append(ea[sel][kk])
            keep_l.append(lb[sel][kk])
            keep_j.append(j[kk])
            tail = idxs[take:]
            if len(tail):
                alive[tail] = alive[tail] & ~np.isin(lb[tail], lb[sel][kk])
        pos = int(sel[-1]) + 1
    if not keep_e:
        z = np.empty(0, np.int64)
        return z, z, np.empty(0, np.float64)
    ea = np.concatenate(keep_e)
    lb = np.concatenate(keep_l)
    j = np.concatenate(keep_j)
    # already in (lb, iord) order; the first occurrence per row is its
    # earliest surviving match
    first = np.concatenate([[True], lb[1:] != lb[:-1]])
    return lb[first], ea[first], j[first]


def _iter_intra_slices(rows_flat, bstarts, blens, rank, n):
    """Stream (earlier_row, later_row) candidate index slices of ≤
    ``_PAIR_CHUNK`` pairs from the equal-(band_id, band_hash) buckets
    without ever materializing the full pair set (a dense bucket of g
    members contributes g(g-1)/2 pairs; a bench round's buckets sum to
    10^8-10^9). Buckets are grouped by size and paired vectorized per
    consecutive a-column range; a single column whose pairs exceed the
    budget is split over buckets, and within one bucket over b-column
    ranges (a bucket of more than ``_PAIR_CHUNK`` members). Members are
    ordered by in-round
    ingestion rank so column a < b ⇔ earlier/later; in-slice duplicate
    pairs (same pair via several bands landing in one slice) are
    collapsed before the yield."""
    for g in np.unique(blens):
        g = int(g)
        sel = bstarts[blens == g]
        mem = rows_flat[sel[:, None] + np.arange(g)]        # (m, g)
        order = np.argsort(rank[mem], axis=1, kind="stable")
        mem = np.take_along_axis(mem, order, axis=1)
        m = len(sel)
        a = 0
        while a < g - 1:
            acc, a2 = 0, a
            while a2 < g - 1 and (acc + g - 1 - a2) * m <= _PAIR_CHUNK:
                acc += g - 1 - a2
                a2 += 1
            if a2 == a:
                w = g - 1 - a
                bcap = max(1, _PAIR_CHUNK // w)
                step = min(w, _PAIR_CHUNK)
                for mb in range(0, m, bcap):
                    sub = mem[mb:mb + bcap]
                    for b0 in range(a + 1, g, step):
                        cl = sub[:, b0:b0 + step]
                        ce = np.repeat(sub[:, a], cl.shape[1])
                        u = np.unique(ce * np.int64(n) + cl.ravel())
                        yield u // n, u % n
                a += 1
                continue
            cols_a = np.concatenate(
                [np.full(g - 1 - x, x, np.int64) for x in range(a, a2)])
            cols_b = np.concatenate(
                [np.arange(x + 1, g, dtype=np.int64) for x in range(a, a2)])
            ce = mem[:, cols_a].ravel()
            cl = mem[:, cols_b].ravel()
            u = np.unique(ce * np.int64(n) + cl)
            yield u // n, u % n
            a = a2


def _iter_inter_slices(op, lo, csum, nz, new_rows_q, mp, total):
    """Stream (old candidate row index, new round row) slices of ≤
    ``_PAIR_CHUNK`` pairs from the per-band-row match intervals
    [lo, hi) over the okey-sorted old band rows. Each slice maps its
    global pair indices back to (interval, offset) arithmetically, so a
    giant interval (one band hash matching millions of old rows) splits
    naturally and nothing pair-shaped outlives its slice. Every old pid
    in ``op``'s matched intervals is a candidate, read into ``mp`` from
    the same index files, so its searchsorted is an exact match."""
    for p0 in range(0, total, _PAIR_CHUNK):
        idx = np.arange(p0, min(p0 + _PAIR_CHUNK, total), dtype=np.int64)
        itv = np.searchsorted(csum, idx, side="right") - 1
        pos = idx - csum[itv] + lo[nz[itv]]
        yield np.searchsorted(mp, op[pos]), new_rows_q[nz[itv]]


def _run_sliced(fn, slices, refs: tuple, consume) -> None:
    """Run ``fn(*refs, *args)`` in the driver for each arg tuple yielded
    by ``slices`` and hand each result to ``consume``. Slices are
    GENERATED lazily and results are never collected into a list, so
    peak memory is one slice, never the candidate or result total."""
    for args in slices:
        consume(fn(*refs, *args))


def _shingle_band_batch(t: pa.Table, corpus_ref, k: int = 3) -> pa.Table:
    """Parents (node_id, name, http_type) → one row per parent, in their
    order: doc_id (the pid), its shingles, its LSH band hashes and its
    folded MinHash signature. The fetch tasks run it on their own
    COMPLETED parents; ``probe_and_index_round`` splits the rows back
    into the shingle, band and signature inputs of the probe."""
    pid = _pids(t["node_id"].combine_chunks())
    if t.num_rows == 0:
        return pa.table({"doc_id": pa.array(pid, pa.int64()),
                         "shingles": pa.array([], pa.list_(pa.uint64())),
                         "n_shingles": pa.array([], pa.int64()),
                         "band_hashes": pa.array([], pa.list_(pa.int64(),
                                                              N_BANDS)),
                         "sig": pa.array([], pa.list_(pa.uint8(), N_PERM))})
    sh = shingle_list_batch(pa.array(pid, pa.int64()),
                            _page_texts(t, corpus_ref), k=k)
    b, sig8 = minhash_bands_batch(sh, return_sig=True)
    return (sh.append_column(
        "band_hashes",
        pa.FixedSizeListArray.from_arrays(b["band_hash"].combine_chunks(),
                                          N_BANDS))
        .append_column("sig", pa.FixedSizeListArray.from_arrays(
            pa.array(sig8.reshape(-1), pa.uint8()), N_PERM)))


def _check_pairing(rows: pa.Table, pid: np.ndarray) -> None:
    """Raise ``StateError`` unless ``_shingle_band_batch`` row i is parent
    i's: every downstream row index (shingle offsets, signature rows,
    band rows, the indexed pid) trusts that pairing, and a misaligned row
    would verify and index one page under another page's id."""
    got = rows["doc_id"].to_numpy()
    if len(got) != len(pid) or not np.array_equal(got, pid):
        raise StateError(
            f"near-dup shingle rows are not paired with their parents "
            f"({len(got)} rows for {len(pid)} parents)")


def _band_rows(band_hashes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A per-page ``band_hashes`` column → one (band_id, band_hash, page
    row) triple per band of each page."""
    bh = band_hashes.combine_chunks().flatten().to_numpy()
    m = len(bh) // N_BANDS
    return (np.tile(np.arange(N_BANDS, dtype=np.int32), m), bh,
            np.repeat(np.arange(m, dtype=np.int64), N_BANDS))


def _sig_matrix(sig) -> np.ndarray:
    """A ``sig`` column → its (pages, N_PERM) uint8 signature matrix."""
    return (sig.combine_chunks().flatten().to_numpy(zero_copy_only=False)
            .reshape(-1, N_PERM))


def probe_and_index_round(ckpt: str, r: int, parents: pa.Table, corpus_ref,
                          threshold: float, k: int = 3,
                          shingles: pa.Table | None = None,
                          counters: dict | None = None) -> pa.Table:
    """Probe round r's COMPLETED parents against the prior rounds' index
    files, write this round's index file + ``neardup/`` assignments under
    the round dir, and return the assignments table (node_id,
    near_dup_of, jaccard) sorted by node_id. ``shingles`` holds the
    parents' ``_shingle_band_batch`` rows, one per parent in their order
    (the crawl's fetch tasks compute them); without it they are computed
    here, in process. Misaligned rows, and a prior round's index file
    that is missing or has the wrong row count, raise ``StateError``.
    ``counters``, when given, receives ``nd_pages`` (pages probed),
    ``nd_candidate_pairs`` (band-collision pairs before the prefilter,
    same-round plus cross-round) and ``nd_assigned``."""
    import pyarrow.dataset as pads

    old_files = _prior_index_files(ckpt, r)
    nd_dir = os.path.join(ckpt, f"round={r:04d}", "neardup")
    os.makedirs(nd_dir, exist_ok=True)
    os.makedirs(os.path.dirname(index_file(ckpt, r)), exist_ok=True)

    n = parents.num_rows
    pid = _pids(parents["node_id"].combine_chunks())
    if shingles is None:
        shingles = _shingle_band_batch(parents, corpus_ref, k)
    _check_pairing(shingles, pid)
    # this round's index file: read only by later rounds' probes
    pq.write_table(pa.table({
        "pid": pa.array(pid, pa.int64()),
        "node_id": parents["node_id"],
        "probe_round": pa.array(np.full(n, r, np.int32)),
        "sig": shingles["sig"],
        "band_hashes": shingles["band_hashes"],
        "shingles": shingles["shingles"],
    }).cast(INDEX_SCHEMA), index_file(ckpt, r))

    node_ids = np.asarray(parents["node_id"].to_pylist(), dtype="U")
    new_flat, new_offs = _list_arrays(shingles["shingles"])
    sig8 = _sig_matrix(shingles["sig"])
    bid, bh, brow = _band_rows(shingles["band_hashes"])

    # --- intra-round candidates: equal (band_id, band_hash) buckets ---
    # STREAMED: a dense bucket of g members implies g(g-1)/2 pairs and a
    # bench round carries 10^8-10^9 of them, so the pair set is never
    # materialized (the earlier concatenate+unique form held ~80 GB of
    # pair/scratch arrays at a 900k-page round and OOM'd the driver).
    # Buckets are grouped by size (each bucket fixes a band_id, so a
    # page appears at most once per bucket); _iter_intra_slices emits
    # ≤_PAIR_CHUNK pair slices that exist only while in flight. True
    # pairs colliding in several bands are re-verified once per band —
    # bounded by dup volume × N_BANDS, vs O(total pairs) memory.
    okey = np.lexsort((bh, bid))
    sb, sh_ = bid[okey], bh[okey]
    runs = np.flatnonzero(np.concatenate(
        [[True], (sb[1:] != sb[:-1]) | (sh_[1:] != sh_[:-1]), [True]]))
    rows_flat = brow[okey]
    run_starts, run_lens = runs[:-1], np.diff(runs)
    big_mask = run_lens > 1
    bstarts, blens = run_starts[big_mask], run_lens[big_mask]
    # ingestion order within a round = node_id; precomputed integer rank
    # so bucket-member ordering never gathers the string array
    rank = np.empty(n, np.int64)
    rank[np.argsort(node_ids, kind="stable")] = np.arange(n)
    total_intra = int(np.sum(blens * (blens - 1) // 2))

    # --- prefilter envelope ------------------------------------------------
    # Both candidate paths estimate jaccard from the stored signatures and
    # drop pairs estimating below threshold - PREFILTER_MARGIN before any
    # shingle gather. The LSH band shape (16×4) admits 10^8-10^9 j≈0.03
    # false candidates per bench round; stage 1 (16 contiguous signature
    # bytes — 4 pairs per cache line) kills ~99.8% of them, stage 2 runs
    # the full-64 estimate on the survivors. Envelope: a TRUE pair at
    # exactly j=threshold is missed with P[Binom(64, j) < 64·(j-0.2)]
    # < 0.1% (stage 2) plus P[Binom(16, j) < 16·(j-0.35)] ≈ 1e-5
    # (stage 1), both vanishing a few points above threshold;
    # byte-folding can only ADD keeps (1/256 per-perm collision).
    est_cut = max(0.0, threshold - PREFILTER_MARGIN)
    sig16 = np.ascontiguousarray(sig8[:, :_STAGE1_PERMS])
    # per later row, the single best (probe_round, earlier node_id,
    # jaccard) seen so far — a scalar slot, never a pair list, so a
    # giant near-dup cluster costs O(cluster) driver memory, not
    # O(cluster²)
    matches: dict[int, tuple[int, str, float]] = {}

    def _merge(row: int, cand: tuple[int, str, float]) -> None:
        cur = matches.get(row)
        if cur is None or (cand[0], cand[1]) < (cur[0], cur[1]):
            matches[row] = cand

    if total_intra:
        def _consume_intra(res) -> None:
            lbs, eas, js = res
            for i in range(len(lbs)):
                _merge(int(lbs[i]),
                       (r, str(node_ids[eas[i]]), float(js[i])))

        _run_sliced(
            _fused_verify_chunk,
            ((se, sl, est_cut, threshold)
             for se, sl in _iter_intra_slices(rows_flat, bstarts, blens,
                                              rank, n)),
            (sig16, sig8, sig16, sig8, new_flat, new_offs, rank,
             new_flat, new_offs),
            _consume_intra)

    # --- inter-round candidates: every prior round's band rows ---
    total_inter = 0
    if old_files:
        old = pads.dataset(old_files).to_table(columns=["pid", "band_hashes"])
        obid, obh, orow = _band_rows(old["band_hashes"])
        okeys = _band_key(obid, obh)
        oorder = np.argsort(okeys, kind="stable")
        okeys = okeys[oorder]
        op = old["pid"].to_numpy()[orow[oorder]]
        q = _band_key(bid, bh)
        lo = np.searchsorted(okeys, q, side="left")
        hi = np.searchsorted(okeys, q, side="right")
        cnt = (hi - lo).astype(np.int64)
        nz = np.flatnonzero(cnt)
        total_inter = int(cnt[nz].sum())
    if total_inter:
        # candidate old-page set WITHOUT materializing pairs: the union of
        # the matched [lo, hi) intervals over the okey-sorted old band
        # rows (interval-diff + prefix sum); signatures, ingestion
        # metadata and shingles are then read for those pages only
        d = np.zeros(len(op) + 1, np.int64)
        np.add.at(d, lo[nz], 1)
        np.add.at(d, hi[nz], -1)
        covered = np.cumsum(d[:-1]) > 0
        cand_pids = np.unique(op[covered])
        cand = pads.dataset(old_files).to_table(
            columns=["pid", "node_id", "probe_round", "sig", "shingles"],
            filter=pc.field("pid").isin(cand_pids))
        cand = cand.take(pa.array(np.argsort(cand["pid"].to_numpy(),
                                             kind="stable")))
        mp = cand["pid"].to_numpy()
        m_ids = np.asarray(cand["node_id"].to_pylist(), dtype="U")
        m_rounds = cand["probe_round"].to_numpy()
        m_sig = _sig_matrix(cand["sig"])
        m_sig16 = np.ascontiguousarray(m_sig[:, :_STAGE1_PERMS])
        # old ingestion order for the per-row winner reduce
        m_iord = np.empty(len(mp), np.int64)
        m_iord[np.lexsort((m_ids, m_rounds))] = np.arange(len(mp))
        oflat, ooffs = _list_arrays(cand["shingles"])
        # stream (old candidate row, new round row) slices through the
        # fused prefilter+verify+reduce — the expansion exists only while
        # a slice is in flight; band-duplicate pairs re-verify and the
        # per-row min merge absorbs them
        csum = np.zeros(len(nz) + 1, np.int64)
        np.cumsum(cnt[nz], out=csum[1:])

        def _consume_inter(res) -> None:
            lbs, eas, js = res
            for i in range(len(lbs)):
                _merge(int(lbs[i]),
                       (int(m_rounds[eas[i]]), str(m_ids[eas[i]]),
                        float(js[i])))

        _run_sliced(
            _fused_verify_chunk,
            ((ia, ib, est_cut, threshold) for ia, ib in _iter_inter_slices(
                op, lo, csum, nz, brow, mp, total_inter)),
            (m_sig16, m_sig, sig16, sig8, oflat, ooffs, m_iord,
             new_flat, new_offs),
            _consume_inter)

    # --- winner per later page: min (probe_round, node_id), already
    # reduced per slice and merged scalar per row ---
    out_ids, out_of, out_j = [], [], []
    for row in sorted(matches):
        best = matches[row]
        out_ids.append(str(node_ids[row]))
        out_of.append(best[1])
        out_j.append(best[2])
    assigned = pa.table(
        {"node_id": pa.array(out_ids, pa.string()),
         "near_dup_of": pa.array(out_of, pa.string()),
         "jaccard": pa.array(out_j, pa.float64())})
    pq.write_table(assigned, os.path.join(nd_dir, "part-0.parquet"))
    if counters is not None:
        counters.update(nd_pages=n,
                        nd_candidate_pairs=total_intra + total_inter,
                        nd_assigned=assigned.num_rows)
    return assigned


def crawl_neardup(ckpt: str) -> pa.Table:
    """All near-dup assignments of a (completed or cancelled) crawl run
    with ``neardup_threshold`` set: (node_id, near_dup_of, jaccard),
    sorted by node_id."""
    import glob

    import pyarrow.dataset as pads

    files = sorted(glob.glob(os.path.join(ckpt, "round=*", "neardup",
                                          "*.parquet")))
    if not files:
        return NEARDUP_SCHEMA.empty_table()
    t = pads.dataset(files).to_table()
    return t.take(pa.array(np.argsort(
        np.asarray(t["node_id"].to_pylist(), dtype="U"), kind="stable")))


def nodes_with_neardup(ckpt: str):
    """Final nodes Dataset with ``near_dup_of``/``dup_jaccard`` columns
    attached — the assignments are bounded by dup volume, so they ride a
    ``ray.put`` broadcast into a zero-shuffle ``map_batches`` merge
    (never a join shuffle of the full nodes table)."""
    import ray

    from raycrawl.crawl import read_nodes

    nd = crawl_neardup(ckpt)
    ids = np.asarray(nd["node_id"].to_pylist(), dtype="U")
    order = np.argsort(ids, kind="stable")
    ref = ray.put((ids[order],
                   np.asarray(nd["near_dup_of"].to_pylist(),
                              dtype=object)[order],
                   nd["jaccard"].to_numpy()[order]))

    def attach(t: pa.Table) -> pa.Table:
        ids_s, of_s, j_s = ray.get(ref)
        q = np.asarray(t["node_id"].to_pylist(), dtype="U")
        if len(ids_s):
            p = np.minimum(np.searchsorted(ids_s, q), len(ids_s) - 1)
            hit = ids_s[p] == q
        else:
            p = np.zeros(len(q), np.int64)
            hit = np.zeros(len(q), bool)
        of = np.where(hit, of_s[p] if len(of_s) else None, None)
        jj = np.where(hit, j_s[p] if len(j_s) else np.nan, np.nan)
        return t.append_column(
            "near_dup_of", pa.array(of.tolist(), pa.string())
        ).append_column(
            "dup_jaccard",
            pa.array(np.where(hit, jj, np.nan), pa.float64()))

    return read_nodes(ckpt).map_batches(attach, batch_format="pyarrow")


def crawl_neardup_sql(nodes_glob: str, pages_parquet: str, crawl_id: str,
                      threshold: float = 0.6, k: int = 3) -> str:
    """DuckDB oracle for ``crawl_neardup``: recompute the exact 3-gram
    Jaccard pair set over the crawl's fetched pages (COMPLETED non-leaf
    URL nodes; probe round = discovery round + attempts) joined to the
    corpus text, and pick each page's earliest qualifying match. Exact
    where the engine is LSH-bounded — the same completeness envelope as
    every green MinHash oracle row."""
    return f"""
    WITH nodes AS (SELECT * FROM read_parquet('{nodes_glob}')
                   WHERE crawl_id = '{crawl_id}'),
    fetched AS (
      SELECT node_id, name, http_type,
             CAST(round + attempts AS INTEGER) AS probe_round
      FROM nodes
      WHERE node_type = 'URL' AND status = 'COMPLETED'
        AND depth < requested_depth
    ),
    pages AS (SELECT upper(split_part(url, '://', 2)) AS name,
                     upper(split_part(url, '://', 1)) || '://' AS http_type,
                     text
              FROM read_parquet('{pages_parquet}')),
    docs AS (SELECT f.node_id, f.probe_round, p.text
             FROM fetched f
             JOIN pages p ON f.name = p.name AND f.http_type = p.http_type),
    toks AS (SELECT node_id, probe_round,
                    -- regex trim BOTH ends (plain trim() strips only
                    -- spaces; stripped HTML ends with a newline, and
                    -- Python str.split() drops all edge whitespace)
                    string_split_regex(
                        regexp_replace(text, '^\\s+|\\s+$', '', 'g'),
                        '\\s+') AS t
             FROM docs),
    g0 AS (SELECT node_id,
                  unnest(CASE WHEN len(t) < {k} THEN [array_to_string(t, ' ')]
                         ELSE list_transform(range(1, len(t) - {k} + 2),
                                             i -> array_to_string(t[i:i+{k - 1}], ' '))
                         END) AS gram
           FROM toks),
    g AS (SELECT DISTINCT node_id, gram FROM g0),
    sz AS (SELECT node_id, count(*) AS n FROM g GROUP BY node_id),
    pr AS (SELECT node_id, probe_round FROM toks),
    inter AS (SELECT x.node_id AS e_id, px.probe_round AS e_r,
                     y.node_id AS l_id, count(*) AS i
              FROM g x JOIN g y ON x.gram = y.gram
              JOIN pr px ON px.node_id = x.node_id
              JOIN pr py ON py.node_id = y.node_id
              WHERE px.probe_round < py.probe_round
                 OR (px.probe_round = py.probe_round
                     AND x.node_id < y.node_id)
              GROUP BY 1, 2, 3),
    pairs AS (SELECT e_id, e_r, l_id,
                     CAST(i AS DOUBLE) / (se.n + sl.n - i) AS jaccard
              FROM inter
              JOIN sz se ON se.node_id = e_id
              JOIN sz sl ON sl.node_id = l_id
              WHERE CAST(i AS DOUBLE) / (se.n + sl.n - i) >= {threshold}),
    ranked AS (SELECT l_id AS node_id, e_id AS near_dup_of, jaccard,
                      row_number() OVER (PARTITION BY l_id
                                         ORDER BY e_r, e_id) AS rn
               FROM pairs)
    SELECT node_id, near_dup_of, jaccard FROM ranked WHERE rn = 1
    ORDER BY node_id
    """
