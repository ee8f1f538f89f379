"""Round-expansion stage: fused fetch+extract+dedup+DNS with actor-side
node merge.

One BFS round is the Ray restatement (SURVEY.md §3.4) of the reference's
per-job pipeline (feeder/src/job.rs:263-351):

    frontier slice ─ fetch_expand          # one Ray task per slice (crawl.py):
                                           # S1/J5 fetch + M1 extract + D1 +
                                           # J1 anti-join + M2 normalize +
                                           # ST2 DNS + M7 depth + parent status
                                           # + offer(children) → seen shards
             → round_out parquet           # parent lifecycle rows
    barrier: SeenShard.commit_round()      # J2 MERGE winners → nodes delta
                                           # parquet (written BY the shards)

``fetch_expand`` is a stateless *task* stage: its heavy setup (corpus
index, DNS cache) is cached per worker process (see fetch.py), so repeated
per-round executions pay no actor-pool spin-up. Only the simulated fetch
runs per row (``fetch.fetch_pages``); the rest works on the batch's
columns: one polars link extraction and per-page uppercased set over the
OK pages' HTML (``kernels.extract_link_sets``), one ``hash128`` per key
column (J1 candidates, child ids, parent ids — each hashed once), and DNS
once per distinct name. Node dedup lives in the SeenShard actors
(hash(node_id)-routed offers; min-(depth, parent hash) winner; merged and
committed at the driver's round barrier) — the actor RPC is the round's
only shuffle.

Edge rows need no cross-batch dedup within a round: a parent's children
are a set (within-job normalized dedup), and every (src, dst) pair is
emitted only by parent ``src``'s input row, which lives in exactly one
batch. Cross-round duplicates are impossible (a parent reaches a
successful fetch exactly once); a final safety dedup runs at compaction.

Optional per-page enrichment (``CrawlConfig.enrich``):
tag-strip text, token counts, quality score, SimHash, MinHash band hash,
winnowing fingerprint, language guess — the per-page featurization a
training-data crawl runs at fetch time, attached to the parent row.
``enrich_page`` is the scalar definition; ``enrich_pages`` computes the
same values for a batch with Arrow string splits, numpy byte runs and
segmented reductions, with no Python per page, and hands the round
assembly typed Arrow columns.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from raycrawl import dns_synth, sim
from raycrawl.fetch import STATUS_ROBOTS
from raycrawl.kernels import (
    _LANG_HINTS,
    _PERM_A,
    _PERM_B,
    STOPWORDS,
    TAG_RE,
    WORD_RE,
    hash128,
    minhash_signature,
    mod_mersenne,
    strip_tags,
    token_hash64,
)
from raycrawl.seen import SeenRouter

ROUND_OUT_SCHEMA = pa.schema(
    [
        ("row_type", pa.string()),          # "parent" | "child"
        ("crawl_id", pa.string()),
        ("name", pa.string()),
        ("http_type", pa.string()),
        ("node_id", pa.string()),           # http_type + name (M4)
        ("depth", pa.int32()),
        ("requested_depth", pa.int32()),
        ("attempts", pa.int32()),
        ("status", pa.string()),            # parent: new status; child: ""
        ("ip", pa.string()),
        ("domain", pa.string()),
        ("request_time_ms", pa.float64()),
        ("parent_id", pa.string()),
        ("fetch_status", pa.int32()),
        ("round", pa.int32()),
        # enrichment (null unless enrich is on; parent rows only)
        ("n_tokens", pa.int32()),
        ("quality", pa.float64()),
        ("simhash", pa.uint64()),
        ("fingerprint", pa.uint64()),
        ("minhash0", pa.uint64()),
        ("lang_pred", pa.string()),
    ]
)

NODES_SCHEMA = pa.schema(
    [
        ("crawl_id", pa.string()),
        ("name", pa.string()),
        ("http_type", pa.string()),
        ("node_id", pa.string()),
        ("node_type", pa.string()),         # "ROOT" | "URL"
        ("depth", pa.int32()),
        ("requested_depth", pa.int32()),
        ("status", pa.string()),
        ("attempts", pa.int32()),
        ("ip", pa.string()),
        ("domain", pa.string()),
        ("request_time_ms", pa.float64()),
        ("round", pa.int32()),
        # ROOT-only (docs/neo4j-graph-model.md:13-23): crawl submission
        # time, ISO-8601 UTC; null on URL rows exactly as the reference
        # puts created_at only on ROOT
        ("created_at", pa.string()),
    ]
)

EDGES_SCHEMA = pa.schema(
    [
        ("crawl_id", pa.string()),
        ("src", pa.string()),
        ("dst", pa.string()),
        ("depth", pa.int32()),              # child depth at discovery
        ("round", pa.int32()),
    ]
)

# per-worker DNS cache (pure function → safe to share across crawls)
_DNS_CACHE: dict[tuple[str, int], tuple[str, str] | None] = {}


def _dns(name: str, max_depth: int):
    k = (name, max_depth)
    if k not in _DNS_CACHE:
        _DNS_CACHE[k] = dns_synth.get_network_stats(name, max_depth)
    return _DNS_CACHE[k]


# ---------------------------------------------------------------------------
# per-page enrichment (vectorized; the realistic parse workload)
# ---------------------------------------------------------------------------

_FP_K = 8
_FP_MULT = np.uint64(0x100000001B3)
_MAX_TOKENS = 256       # featurization window (tokens)
_LANGID_CHARS = 1024    # language-ID window (chars)
_SIM_CHUNK = 128        # SimHash lane-sum chunk (tokens, at most 255)
# ``enrich_page``'s ``\w+`` in the Rust regex dialect polars runs: Python's
# ``\w`` is letters, numbers and "_", while Rust's also takes combining
# marks, join controls and other connector punctuation. Both agree on
# every code point Python's Unicode tables assign (checked exhaustively on
# 3.11 / Unicode 14).
_WORD_PAT = r"[\p{L}\p{N}_]+"
# The ASCII word pass lowercases a run of at most 4 bytes with ``| 0x20``
# and compares it, packed little-endian, against the packed stopwords.
# ``| 0x20`` maps A-Z onto a-z and digits and "_" outside them, so this is
# ``run.lower() in STOPWORDS`` only while every stopword is 1-4 lowercase
# ASCII letters.
if not all(1 <= len(w) <= 4 and w.isascii() and w.isalpha() and w.islower()
           for w in STOPWORDS):
    raise ValueError("the ASCII word pass needs 1-4 lowercase ASCII "
                     "letters per stopword")
_STOP_PACKED = np.sort(np.array(
    [int.from_bytes(w.encode(), "little") for w in STOPWORDS], np.uint32))
# the byte mask of a word that starts at p, by the 4-bit flags x "byte
# p+j+1 continues it" (j = 0..3): its length is 1 + the trailing ones of x,
# the bit length of ~x & (x + 1); x = 15 means longer than 4 bytes
_RUN_MASK = np.array([(1 << 8 * (~x & x + 1).bit_length()) - 1
                      for x in range(15)] + [0], np.uint32)
_FEAT_TYPES = {"n_tokens": pa.int32(), "quality": pa.float64(),
               "simhash": pa.uint64(), "fingerprint": pa.uint64(),
               "minhash0": pa.uint64(), "lang_pred": pa.string()}


@functools.cache
def _lang_grams():
    """The language-hint languages, their distinct grams, and a (gram ×
    language) count matrix: a language's score sums its grams' counts."""
    langs = [lang for lang, grams in _LANG_HINTS.items() if grams]
    grams = list(dict.fromkeys(g for lang in langs for g in _LANG_HINTS[lang]))
    w = np.array([[_LANG_HINTS[lang].count(g) for lang in langs]
                  for g in grams], dtype=np.float64)
    return langs, grams, w


def enrich_page(html_text: str) -> dict:
    """Featurize one fetched page: token count, quality, simhash,
    winnowing fingerprint, MinHash lane, language guess.

    Analysis windows: quality/simhash/fingerprint/minhash over the first
    _MAX_TOKENS tokens, language ID over the first _LANGID_CHARS chars —
    standard practice for per-page featurization, and it bounds the memory
    traffic per page (full-text rescans were the throughput ceiling)."""
    text = TAG_RE.sub("", html_text)
    tokens = text.split()
    n_tok = len(tokens)
    window = tokens[:_MAX_TOKENS]
    wtext = " ".join(window)
    words = WORD_RE.findall(wtext.lower())
    nw = len(words)
    stop_ratio = sum(w in STOPWORDS for w in words) / nw if nw else 0.0
    mean_wl = sum(map(len, words)) / nw if nw else 0.0
    quality = 0.5 * min(stop_ratio / 0.4, 1.0) + 0.5 * min(mean_wl / 8.0, 1.0)

    if window:
        th = token_hash64(window)
        bits = np.unpackbits(th.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
        acc = (2 * bits.astype(np.int32) - 1).sum(axis=0)
        sim_bits = np.packbits((acc > 0).astype(np.uint8), bitorder="little")
        simhash = int(np.frombuffer(sim_bits.tobytes(), dtype=np.uint64)[0])
        k = min(_FP_K, len(th))
        if len(th) >= _FP_K:
            with np.errstate(over="ignore"):
                roll = th[: len(th) - _FP_K + 1].copy()
                for j in range(1, _FP_K):
                    roll = roll * _FP_MULT ^ th[j : len(th) - _FP_K + 1 + j]
            fingerprint = int(roll.min())
        else:
            fingerprint = int(th.min())
        # MinHash lane over word 3-gram shingles of the window
        if len(th) >= 3:
            with np.errstate(over="ignore"):
                sh = th[:-2] * _FP_MULT ^ th[1:-1] * np.uint64(1099511628211) ^ th[2:]
            sh = np.unique(sh)
            minhash0 = int(minhash_signature(sh)[0])
        else:
            minhash0 = int(th.min())
    else:
        simhash, fingerprint, minhash0 = 0, 0, 0

    low = text[:_LANGID_CHARS].lower()
    best, best_score = "en", -1.0
    for lang, grams in _LANG_HINTS.items():
        if not grams:
            continue
        score = sum(low.count(g) for g in grams) / (len(low) + 1)
        if score > best_score:
            best, best_score = lang, score
    return dict(n_tokens=n_tok, quality=quality, simhash=simhash,
                fingerprint=fingerprint, minhash0=minhash0, lang_pred=best)


def _str_buffers(a: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """A large_string array's (data bytes, offsets), zero-copy."""
    offs = np.frombuffer(a.buffers()[1], np.int64)
    offs = offs[a.offset:a.offset + len(a) + 1]
    data = a.buffers()[2]
    return (np.frombuffer(data, np.uint8) if data is not None
            else np.empty(0, np.uint8)), offs


def _ascii_word_stats(vb: np.ndarray, vo: np.ndarray, lo: np.ndarray,
                      hi: np.ndarray) -> tuple[np.ndarray, ...]:
    """(words, stopwords, word bytes) per page for ASCII window tokens:
    ``vb`` holds the token bytes back to back, ``vo`` the token offsets,
    and page i's window is ``vb[lo[i]:hi[i]]``. A word is a run of ``\\w``
    bytes that restarts at each token start, as the scalar's
    ``" ".join(window)`` keeps words from crossing tokens."""
    n = len(vb)
    u8 = np.uint8
    isw = np.zeros(n + 4, dtype=bool)       # padded: no word past the end
    w, t = isw[:n], vb | u8(0x20)
    t -= u8(0x61)
    np.less(t, u8(26), out=w)               # a-z, A-Z
    np.subtract(vb, u8(0x30), out=t)
    w |= t < u8(10)                         # 0-9
    w |= vb == u8(0x5F)                     # _
    first = np.zeros(n + 4, dtype=bool)     # a word starts here
    first[0] = isw[0]
    np.greater(w[1:], w[:-1], out=first[1:n])
    ts = vo[:-1]                            # token starts
    first[ts] = isw[ts]
    rs = np.flatnonzero(first)
    nonword = np.flatnonzero(~w)
    # the 4 bytes after a word start, as one unaligned uint32 of "this
    # byte continues the word" flags, give the word's length up to 4
    cont = np.greater(isw, first).view(u8)
    c4 = np.ndarray((n,), "<u4", buffer=cont, offset=1, strides=(1,))[rs]
    short = np.flatnonzero(c4 != np.uint32(0x01010101))
    at, c4 = rs[short], c4[short]
    mask = _RUN_MASK[(c4 & 1) | (c4 >> 7 & 2) | (c4 >> 14 & 4)
                     | (c4 >> 21 & 8)]
    # its bytes, read the same way, lowercased and masked to the word
    w4 = np.empty(len(at), np.uint32)
    tail = at > n - 4
    if n >= 4:
        w4[~tail] = np.ndarray((n - 3,), "<u4", buffer=vb,
                               strides=(1,))[at[~tail]]
    if tail.any():                          # the last 3 bytes
        w4[tail] = [int.from_bytes(vb[i:i + 4].tobytes(), "little")
                    for i in at[tail].tolist()]
    w4 = (w4 | np.uint32(0x20202020)) & mask
    stops = at[np.isin(w4, _STOP_PACKED)]

    def count(pos: np.ndarray) -> np.ndarray:
        return np.searchsorted(pos, hi) - np.searchsorted(pos, lo)

    return count(rs), count(stops), (hi - lo) - count(nonword)


def _polars_word_stats(values: pa.Array, first: np.ndarray,
                       lens: np.ndarray) -> tuple[np.ndarray, ...]:
    """(words, stopwords, word chars) per page, as the scalar counts them:
    the window tokens ``values[first[i]:first[i] + lens[i]]`` joined with
    " ", lowercased, then ``_WORD_PAT`` runs, all in polars."""
    import polars as pl
    import pyarrow.compute as pc

    offs = np.zeros(len(lens) + 1, np.int64)
    np.cumsum(lens, out=offs[1:])
    idx = np.arange(offs[-1]) + np.repeat(first - offs[:-1], lens)
    window = pa.LargeListArray.from_arrays(pa.array(offs),
                                           values.take(pa.array(idx)))
    wtext = pc.binary_join(window, pa.scalar(" ", pa.large_string()))
    words = pl.from_arrow(wtext).str.to_lowercase().str.extract_all(_WORD_PAT)
    nw = words.list.len().fill_null(0).to_numpy()
    nstop = (words.list.eval(pl.element().is_in(sorted(STOPWORDS))
                             .cast(pl.UInt32))
             .list.sum().fill_null(0).to_numpy())
    wchars = (words.list.eval(pl.element().str.len_chars())
              .list.sum().fill_null(0).to_numpy())
    return nw, nstop, wchars


def _segment_min(a: np.ndarray, s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``[a[s[i]:e[i]].min() for i]`` for non-empty, ordered,
    non-overlapping segments, as one ``minimum.reduceat`` over the
    interleaved bounds (the in-between results are dropped)."""
    if not len(s):
        return np.empty(0, a.dtype)
    idx = np.empty(2 * len(s), np.int64)
    idx[0::2] = s
    idx[1::2] = e
    if idx[-1] == len(a):
        idx = idx[:-1]
    return np.minimum.reduceat(a, idx)[0::2]


def enrich_pages(htmls) -> dict[str, pa.Array]:
    """Batched ``enrich_page`` over a list or Arrow string column of pages:
    value-identical per page (asserted by pytest), returned as typed Arrow
    COLUMNS (``{feature: array aligned with htmls}``, null where
    ``htmls[i]`` is null); the round assembly gathers them per batch row.

    Vectorized over the batch: one polars tag strip
    (``kernels.strip_tags``); one Arrow whitespace split, the ASCII pair
    when no byte is ≥ 0x80 or in U+001C–U+001F, else the UTF-8 pair (both
    split as ``str.split()`` there); each page's window is read off the
    list offsets. Word statistics run as numpy byte runs over the window
    tokens of the ASCII pages, and as polars ``_WORD_PAT`` over the
    joined window of the others. ALL pages' window tokens hash in ONE
    ``token_hash64`` call; SimHash bit counts are 8 lane sums by
    ``add.reduceat``; fingerprint and MinHash minima are one
    ``minimum.reduceat`` each over the global rolling arrays (a page's
    slice of them never leaves the page). No Python runs per page."""
    import polars as pl
    import pyarrow.compute as pc

    if isinstance(htmls, pa.ChunkedArray):
        htmls = htmls.combine_chunks()
    elif not isinstance(htmls, pa.Array):
        htmls = pa.array(htmls, pa.string())
    n = len(htmls)
    valid = htmls.is_valid().to_numpy(zero_copy_only=False)
    m = int(valid.sum())
    if m == 0:
        return {k: pa.nulls(n, t) for k, t in _FEAT_TYPES.items()}

    text = strip_tags(htmls if m == n else htmls.drop_null())
    tb, to = _str_buffers(text)
    tb = tb[to[0]:to[-1]]
    ascii_ws = not ((tb >= 0x80).any() or (tb - np.uint8(0x1C) < 4).any())
    if ascii_ws:
        toks = pc.ascii_split_whitespace(pc.ascii_trim_whitespace(text))
    else:
        toks = pc.utf8_split_whitespace(pc.utf8_trim_whitespace(text))
    values = toks.values
    loffs = toks.offsets.to_numpy().astype(np.int64)
    first = loffs[:-1]
    vb, vo = _str_buffers(values)
    n_tok = np.diff(loffs)
    # an empty or whitespace-only page splits to ['']
    one = np.flatnonzero(n_tok == 1)
    n_tok[one[vo[first[one] + 1] == vo[first[one]]]] = 0
    lens = np.minimum(n_tok, _MAX_TOKENS)
    starts = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(lens, out=starts[1:])
    T = int(starts[-1])

    # quality over the window's words, as ``\w+`` finds them in
    # " ".join(window).lower()
    lo, hi = vo[first], vo[first + lens]
    nw, nstop, wchars = _ascii_word_stats(vb, vo, lo, hi)
    if not ascii_ws:
        # pages with a byte >= 0x80 inside their window
        hib = np.flatnonzero(vb >= 0x80)
        pg = np.searchsorted(hi, hib, side="right")
        inside = pg < m
        pg, hib = pg[inside], hib[inside]
        odd = np.unique(pg[lo[pg] <= hib])
        if len(odd):
            nw[odd], nstop[odd], wchars[odd] = _polars_word_stats(
                values, first[odd], lens[odd])
    nw = nw.astype(np.float64)
    with np.errstate(invalid="ignore"):
        stop_ratio = np.where(nw > 0, nstop / nw, 0.0)
        mean_wl = np.where(nw > 0, wchars / nw, 0.0)
    quality = (0.5 * np.minimum(stop_ratio / 0.4, 1.0)
               + 0.5 * np.minimum(mean_wl / 8.0, 1.0))

    # langid over the first _LANGID_CHARS chars (slice THEN lowercase,
    # like the scalar): one overlapping Aho-Corasick pass finds every gram
    # (exact, see kernels._LANG_HINTS), then per-page gram counts →
    # per-language scores; np.argmax first-max == dict-order tie-break
    langs, grams, lang_w = _lang_grams()
    low = pl.from_arrow(text).str.slice(0, _LANGID_CHARS).str.to_lowercase()
    denom = low.str.len_chars().to_numpy().astype(np.float64) + 1.0
    found = low.str.extract_many(grams, overlapping=True)
    gram_ix = (found.explode(empty_as_null=False).drop_nulls()
               .replace_strict(grams, range(len(grams)),
                               return_dtype=pl.Int64).to_numpy())
    per_gram = np.bincount(
        np.repeat(np.arange(m), found.list.len().to_numpy()) * len(grams)
        + gram_ix, minlength=m * len(grams)).reshape(m, len(grams))
    scores = per_gram @ lang_w / denom[:, None]
    lang_ix = np.argmax(scores, axis=1)

    win = np.arange(T) + np.repeat(first - starts[:-1], lens)
    th_all = token_hash64(values)[win] if T else np.empty(0, np.uint64)

    sim = np.zeros(m, dtype=np.uint64)
    fp = np.zeros(m, dtype=np.uint64)
    mh = np.zeros(m, dtype=np.uint64)
    nz = np.flatnonzero(lens)
    if T:
        # simhash: per page and bit, the window tokens that set the bit.
        # Lane k of a hash, (h >> k) & 0x0101..01, holds bits k, k+8, ..,
        # k+56 as one byte each, so one uint64 add counts 8 bits; a sum of
        # at most 255 lanes cannot carry out of a byte. So each lane is
        # summed over chunks of _SIM_CHUNK tokens by one reduceat, and a
        # page's chunks by one more. acc = 2*ones - len; one packbits.
        nchunk = -(-lens[nz] // _SIM_CHUNK)
        cfirst = np.zeros(len(nz) + 1, np.int64)
        np.cumsum(nchunk, out=cfirst[1:])
        cs = (np.repeat(starts[nz] - cfirst[:-1] * _SIM_CHUNK, nchunk)
              + np.arange(cfirst[-1]) * _SIM_CHUNK)
        lanes = np.empty((len(cs), 8), "<u8")
        lane = np.empty(T, np.uint64)
        for k in range(8):
            np.right_shift(th_all, np.uint64(k), out=lane)
            lane &= np.uint64(0x0101010101010101)
            lanes[:, k] = np.add.reduceat(lane, cs)
        # byte b of lane k counts bit 8b + k
        ones = np.add.reduceat(
            lanes.view(np.uint8).reshape(-1, 8, 8).transpose(0, 2, 1)
            .reshape(-1, 64), cfirst[:-1], axis=0, dtype=np.int32)
        acc = 2 * ones - lens[nz][:, None].astype(np.int32)
        sim[nz] = np.ascontiguousarray(
            np.packbits((acc > 0).astype(np.uint8), axis=1,
                        bitorder="little")).view(np.uint64).ravel()

        # fingerprint: min of the rolling k-gram hash over the page's
        # slice [start, start+len-K+1) of the global roll array; MinHash
        # lane: min of perm 0 over its 3-gram shingles (the de-dup the
        # signature path does cannot change a min). Pages too short for
        # one gram take their token-hash min.
        K = _FP_K
        with np.errstate(over="ignore"):
            roll = th_all[:T - K + 1].copy() if T >= K else th_all[:0]
            for j in range(1, K if T >= K else 1):
                roll *= _FP_MULT
                roll ^= th_all[j:T - K + 1 + j]
            p0 = th_all[:-2] * _FP_MULT
            tmp = th_all[1:-1] * np.uint64(1099511628211)
            p0 ^= tmp
            p0 ^= th_all[2:]
            p0 *= _PERM_A[0]
            p0 += _PERM_B[0]
            mod_mersenne(p0, tmp)
        for g, vals, out in ((K, roll, fp), (3, p0, mh)):
            full = nz[lens[nz] >= g]
            short = nz[lens[nz] < g]
            out[full] = _segment_min(vals, starts[full],
                                     starts[full] + lens[full] - g + 1)
            out[short] = _segment_min(th_all, starts[short],
                                      starts[short] + lens[short])

    def column(vals: np.ndarray, name: str) -> pa.Array:
        if m == n:
            return pa.array(vals, _FEAT_TYPES[name])
        full = np.zeros(n, vals.dtype)
        full[valid] = vals
        return pa.array(full, _FEAT_TYPES[name], mask=~valid)

    lang_full = np.zeros(n, np.int64)
    lang_full[valid] = lang_ix
    return {
        "n_tokens": column(n_tok, "n_tokens"),
        "quality": column(quality, "quality"),
        "simhash": column(sim, "simhash"),
        "fingerprint": column(fp, "fingerprint"),
        "minhash0": column(mh, "minhash0"),
        "lang_pred": pa.array(langs, pa.string()).take(
            pa.array(lang_full, mask=~valid)),
    }


_TRACE: dict = {}


def offer_salt(khi: np.ndarray) -> int:
    """Task-identity salt over a task's frontier-row key hashes: a fold
    that is identical on a Ray task retry (same rows) and distinct across
    tasks (disjoint row sets). khi[0] is mixed in ROTATED so it cannot
    cancel the XOR-reduce's own khi[0] term — with a plain XOR a
    single-row batch degenerated to the constant salt 1 for every task
    (ADVICE r3), losing the distinct-across-tasks property exactly in the
    smallest-batch case."""
    n = len(khi)
    k0 = np.uint64(khi[0]) if n else np.uint64(0)
    rot = np.uint64((k0 << np.uint64(17)) | (k0 >> np.uint64(47)))
    acc = np.bitwise_xor.reduce(khi.astype(np.uint64)) if n else np.uint64(0)
    return int(np.uint64(acc) ^ np.uint64(n) ^ rot)


def _trace_mark(stage: str, t0: float) -> float:
    """Opt-in per-stage wall accounting (RAYCRAWL_TRACE_DIR set by the
    driver/bench): accumulates per worker process, appended as one JSON
    line per batch so a `cat | jq` can attribute big-round cost to
    fetch/enrich/J1/assembly/offer-wait without guessing. Zero work when
    the env var is unset."""
    import time as _time

    t1 = _time.perf_counter()
    _TRACE[stage] = _TRACE.get(stage, 0.0) + (t1 - t0)
    return t1


def _trace_flush(n_rows: int) -> None:
    import json as _json
    import os as _os

    d = _os.environ.get("RAYCRAWL_TRACE_DIR")
    if not d or not _TRACE:
        return
    _os.makedirs(d, exist_ok=True)
    rec = dict(pid=_os.getpid(), rows=n_rows,
               **{k: round(v, 4) for k, v in _TRACE.items()})
    with open(_os.path.join(d, f"trace-{_os.getpid()}.jsonl"), "a") as f:
        f.write(_json.dumps(rec) + "\n")
    _TRACE.clear()


def fetch_expand_batch(
    batch: pa.Table,
    *,
    corpus_ref,
    seen_handles,
    max_attempts: int = 3,
    max_dns_depth: int = 5,
    round_no: int = 0,
    politeness_delay_ms: float = 0.0,
    respect_robots: bool = False,
    enrich: bool = False,
) -> pa.Table:
    """Frontier rows → ROUND_OUT rows + child offers to the seen shards.

    Per parent: fetch (S1/J5) + extract (M1) + D1; then J1 anti-join of the
    raw-uppercased candidate set against the seen snapshot (job.rs:138-165;
    key = raw-upper string vs normalized stored ids — a www-variant passes
    J1 and later MERGEs onto the existing node, edge-only); normalize (M2),
    within-job normalized dedup (job.rs:296-299), synthetic DNS (ST2,
    dropped on failure job.rs:325-329), child depth = parent+1 (M7); parent
    terminal status per job.rs:97-133 & 289-343 (4xx permanent FAILED, 5xx
    retry budget, no-new → COMPLETED, all-DNS-dropped → FAILED). Children
    are offered to their hash(node_id) shard for the J2 MERGE at the round
    barrier.

    Only the simulated fetch runs per row (``fetch.fetch_pages``); every
    later step runs over the batch's columns: one link extraction over the
    OK pages' HTML, one ``hash128`` per key column, DNS once per distinct
    name, and mask algebra for the parent statuses.
    """
    import os as _os
    import time as _time

    import pyarrow.compute as pc

    from raycrawl.fetch import corpus_key_strings, fetch_pages
    from raycrawl.kernels import extract_link_sets, normalize_urls_arrow

    router = SeenRouter(seen_handles)
    n = batch.num_rows
    if n == 0:
        return ROUND_OUT_SCHEMA.empty_table()
    col = {c: batch[c].combine_chunks() for c in
           ("crawl_id", "name", "http_type", "depth", "requested_depth")}
    pid_col = pc.binary_join_element_wise(col["http_type"], col["name"], "")

    _tr = bool(_os.environ.get("RAYCRAWL_TRACE_DIR"))
    _t = _time.perf_counter()
    khi, klo = hash128(corpus_key_strings(col["name"], col["http_type"]))
    status_np, elapsed_all, page_row, pages = fetch_pages(
        corpus_ref, batch, khi, klo,
        politeness_delay_s=politeness_delay_ms / 1000.0,
        respect_robots=respect_robots)
    page_of, cand = extract_link_sets(pages)
    parent_of = page_row[page_of]
    if _tr:
        _t = _trace_mark("fetch_loop", _t)
    if enrich:
        # batch row → its page's features, null where it fetched no page
        pos = np.full(n, -1, dtype=np.int64)
        pos[page_row] = np.arange(len(page_row))
        at = pa.array(pos, mask=pos < 0)
        feat_cols = {k: c.take(at) for k, c in enrich_pages(pages).items()}
    else:
        feat_cols = {k: pa.nulls(n, t) for k, t in _FEAT_TYPES.items()}
    if _tr:
        _t = _trace_mark("enrich", _t)

    # J1 for the whole batch in one vectorized membership query
    hi, lo = hash128(cand)
    seen_mask = router.contains(hi, lo) if len(cand) else np.empty(0, bool)
    if _tr:
        _t = _trace_mark("j1_contains", _t)

    # ---- children: normalize + per-parent dedup + DNS-drop of the unseen
    # candidates; parent statuses then need only the per-parent counts ----
    unseen_idx = np.flatnonzero(~seen_mask)
    n_new = np.bincount(parent_of[unseen_idx], minlength=n)
    n_children = np.zeros(n, dtype=np.int64)
    offer_refs = []
    if len(unseen_idx):
        parent_sub = parent_of[unseen_idx]
        cnames, cprotos = normalize_urls_arrow(cand.take(pa.array(unseen_idx)))
        node_ids_c = pc.binary_join_element_wise(cprotos, cnames, "")
        chi, clo = hash128(node_ids_c)
        # per-parent normalized dedup (set semantics): group-first over
        # (parent, key128)
        gorder = np.lexsort((clo, chi, parent_sub))
        spar, shi2, slo2 = parent_sub[gorder], chi[gorder], clo[gorder]
        gfirst = np.ones(len(gorder), dtype=bool)
        gfirst[1:] = ((spar[1:] != spar[:-1]) | (shi2[1:] != shi2[:-1])
                      | (slo2[1:] != slo2[:-1]))
        didx = gorder[gfirst]
        # DNS once per distinct name (per-worker cache); a failed
        # resolution drops the candidate (job.rs:325-329)
        denc = cnames.take(pa.array(didx)).dictionary_encode()
        stats = [_dns(nm, max_dns_depth) for nm in denc.dictionary.to_pylist()]
        resolved = np.array([st is not None for st in stats], dtype=bool)
        codes = denc.indices.to_numpy(zero_copy_only=False)
        keep = resolved[codes]
        kidx = didx[keep]
        kpar = parent_sub[kidx]
        kcodes = pa.array(codes[keep])
        n_children = np.bincount(kpar, minlength=n)
        if len(kidx):
            sel = pa.array(kidx)
            cpidx = pa.array(kpar)
            phash, _ = hash128(pid_col)
            child_tbl = pa.table(
                {
                    "crawl_id": col["crawl_id"].take(cpidx),
                    "name": cnames.take(sel),
                    "http_type": cprotos.take(sel),
                    "node_id": node_ids_c.take(sel),
                    "depth": pc.add(col["depth"].take(cpidx),
                                    pa.scalar(1, pa.int32())).cast(pa.int32()),
                    "requested_depth": col["requested_depth"].take(cpidx),
                    "ip": pa.array([st and st[1] for st in stats],
                                   pa.string()).take(kcodes),
                    "domain": pa.array([st and st[0] for st in stats],
                                       pa.string()).take(kcodes),
                    "request_time_ms": pa.array(elapsed_all[kpar], pa.float64()),
                    "parent_id": pid_col.take(cpidx),
                    "phash": pa.array(phash[kpar], pa.uint64()),
                }
            )
            # every child row ships to its shard: the shard both resolves
            # node winners AND writes the round's edge partition (each row
            # is a Lead edge). Fired now, awaited at the end — overlaps actor
            # processing with output assembly; the round barrier stays
            # correct because the task doesn't finish until the refs
            # resolve. The salt is the task identity for the shard's replay
            # guard: identical on a Ray task retry, distinct across tasks.
            offer_refs = router.offer(chi[kidx], clo[kidx], child_tbl,
                                      offer_salt(khi))

    # ---- parent lifecycle rows (one per frontier row): status resolution
    # is mask algebra; every column is reused from the input batch or
    # built in one pa.array call ----
    attempt_np = (batch["attempts"].fill_null(0).to_numpy()
                  .astype(np.int64) + 1)
    ok = status_np == sim.STATUS_OK
    robots = status_np == STATUS_ROBOTS
    permanent = ((status_np >= sim.PERMANENT_FAILURE_LO)
                 & (status_np < sim.PERMANENT_FAILURE_HI))
    exhausted = attempt_np >= max_attempts
    # every new link DNS-dropped -> FAILED (job.rs:325-343)
    dns_failed = ok & (n_new > 0) & (n_children == 0)

    pstat = np.where(
        ok, np.where(dns_failed, "FAILED", "COMPLETED"),
        np.where(robots, "ROBOTS_BLOCKED",
                 np.where(permanent | exhausted, "FAILED", "PENDING")))
    # success/robots do NOT bump attempts (validate_job increments only on
    # error; COMPLETED stores the old counter -- job.rs:104-121)
    att_np = np.where(ok | robots, attempt_np - 1, attempt_np)

    empty_str = pa.array(np.full(n, ""), pa.string())
    parents_tbl = pa.table(
        {
            "row_type": pa.array(np.full(n, "parent"), pa.string()),
            "crawl_id": col["crawl_id"],
            "name": col["name"],
            "http_type": col["http_type"],
            "node_id": pid_col,
            "depth": col["depth"].cast(pa.int32()),
            "requested_depth": col["requested_depth"].cast(pa.int32()),
            "attempts": pa.array(att_np, pa.int32()),
            "status": pa.array(pstat, pa.string()),
            "ip": empty_str,
            "domain": empty_str,
            "request_time_ms": pa.array(elapsed_all, pa.float64()),
            "parent_id": empty_str,
            "fetch_status": pa.array(status_np, pa.int32()),
            "round": pa.array(np.full(n, round_no, np.int32()), pa.int32()),
            **feat_cols,
        },
        schema=ROUND_OUT_SCHEMA,
    )
    if _tr:
        _t = _trace_mark("assemble", _t)
    # child rows do NOT go into round_out: they travel to the shards, which
    # write the nodes delta AND the round's edge partitions at the barrier.
    # round_out = parent lifecycle rows only (frontier-sized).
    if offer_refs:
        import ray

        ray.get(offer_refs)
    if _tr:
        _trace_mark("offer_wait", _t)
        _trace_flush(n)
    return parents_tbl
