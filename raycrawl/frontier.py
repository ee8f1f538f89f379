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
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from raycrawl import dns_synth, sim
from raycrawl.fetch import STATUS_ROBOTS, get_fetcher
from raycrawl.kernels import hash128
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

import re as _re

_TAG_RE = _re.compile(r"<[^>]+>")
_FP_K = 8
_FP_MULT = np.uint64(0x100000001B3)
_MAX_TOKENS = 256       # featurization window (tokens)
_LANGID_CHARS = 1024    # language-ID window (chars)
# ``enrich_page``'s Python tokenizers spelled in the Rust regex dialect
# polars runs: ``str.split()`` also splits at the separators U+001C-U+001F,
# which Rust's ``\s`` lacks, and Python's ``\w`` is letters, numbers and
# "_", while Rust's also takes combining marks, join controls and other
# connector punctuation. Both agree with Python on every code point its
# Unicode tables assign (checked exhaustively on 3.11 / Unicode 14).
_TOKEN_PAT = r"[^\s\x1c-\x1f]+"
_WORD_PAT = r"[\p{L}\p{N}_]+"


@functools.cache
def _lang_grams():
    """The language-hint languages, their distinct grams, and a (gram ×
    language) count matrix: a language's score sums its grams' counts."""
    from raycrawl.textops import _LANG_HINTS

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
    from raycrawl.kernels import token_hash64
    from raycrawl.textops import _LANG_HINTS, STOPWORDS, WORD_RE

    text = _TAG_RE.sub("", html_text)
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
            from raycrawl.dedup import minhash_signature

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


_NO_ENRICH = dict(n_tokens=None, quality=None, simhash=None,
                  fingerprint=None, minhash0=None, lang_pred=None)


_FEAT_NAMES = ("n_tokens", "quality", "simhash", "fingerprint",
               "minhash0", "lang_pred")


def enrich_pages(htmls) -> dict:
    """Batched ``enrich_page`` over a list or Arrow string column of pages:
    value-identical per page (asserted by pytest), returned as COLUMNS —
    ``{feature: object ndarray aligned with htmls}`` with ``None`` where
    ``htmls[i]`` is null — so the round assembly feeds Arrow directly
    instead of re-pivoting 10^6 dicts.

    Fully vectorized: tag-strip / tokenize / window / quality / langid run
    as polars column ops (``_TOKEN_PAT``/``_WORD_PAT`` tokenize as the
    scalar's ``str.split()`` and ``\\w+`` do), ALL pages' token
    windows hash in ONE ``token_hash64`` call, simhash bits pack across
    the whole batch, and the only per-page Python left is two C-level
    slice minima (fingerprint/minhash windows overlap page boundaries in
    the global roll array, so a segmented reduce can't express them)."""
    import polars as pl

    from raycrawl.dedup import _MERSENNE, _PERM_A, _PERM_B
    from raycrawl.textops import STOPWORDS

    if not isinstance(htmls, pa.Array):
        htmls = pa.array(htmls, pa.string())
    n = len(htmls)
    out = {k: np.full(n, None, dtype=object) for k in _FEAT_NAMES}
    idxs = np.flatnonzero(htmls.is_valid().to_numpy(zero_copy_only=False))
    m = len(idxs)
    if m == 0:
        return out

    s = pl.from_arrow(htmls.drop_null())
    text = s.str.replace_all(_TAG_RE.pattern, "")
    toks = text.str.extract_all(_TOKEN_PAT)
    n_tok = toks.list.len().to_numpy().astype(np.int64)
    window = toks.list.head(_MAX_TOKENS)
    lens = np.minimum(n_tok, _MAX_TOKENS)
    starts = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(lens, out=starts[1:])

    # quality over the joined window — the exact string " ".join(window)
    wlow = window.list.join(" ").str.to_lowercase()
    words = wlow.str.extract_all(_WORD_PAT)
    nw = words.list.len().fill_null(0).to_numpy().astype(np.float64)
    nstop = (words.list.eval(pl.element().is_in(sorted(STOPWORDS))
                             .cast(pl.UInt32))
             .list.sum().fill_null(0).to_numpy().astype(np.float64))
    wchars = (words.list.eval(pl.element().str.len_chars())
              .list.sum().fill_null(0).to_numpy().astype(np.float64))
    with np.errstate(invalid="ignore"):
        stop_ratio = np.where(nw > 0, nstop / nw, 0.0)
        mean_wl = np.where(nw > 0, wchars / nw, 0.0)
    quality = (0.5 * np.minimum(stop_ratio / 0.4, 1.0)
               + 0.5 * np.minimum(mean_wl / 8.0, 1.0))

    # langid over the first _LANGID_CHARS chars (slice THEN lowercase,
    # like the scalar): one overlapping Aho-Corasick pass finds every gram
    # (exact, see textops._LANG_HINTS), then per-page gram counts →
    # per-language scores; np.argmax first-max == dict-order tie-break
    langs, grams, lang_w = _lang_grams()
    low = text.str.slice(0, _LANGID_CHARS).str.to_lowercase()
    denom = low.str.len_chars().to_numpy().astype(np.float64) + 1.0
    found = low.str.extract_many(grams, overlapping=True)
    gram_ix = (found.explode(empty_as_null=False).drop_nulls()
               .replace_strict(grams, range(len(grams)),
                               return_dtype=pl.Int64).to_numpy())
    per_gram = np.bincount(
        np.repeat(np.arange(m), found.list.len().to_numpy()) * len(grams)
        + gram_ix, minlength=m * len(grams)).reshape(m, len(grams))
    scores = per_gram @ lang_w / denom[:, None]
    lang_pred = np.array(langs, dtype=object)[np.argmax(scores, axis=1)]

    flat = window.explode(empty_as_null=False).drop_nulls()
    if len(flat):
        from raycrawl.kernels import token_hash64

        th_all = token_hash64(flat.to_arrow())
    else:
        th_all = np.empty(0, dtype=np.uint64)
    T = len(th_all)

    # simhash: per-token bit matrix → segmented per-page bit counts via
    # ONE contiguous cumsum + gather-diff. NOT np.add.reduceat: reduceat's
    # axis-0 inner loop is strided per segment and was measured collapsing
    # to >70 s on a 1M×64 matrix under fragmented-memory conditions where
    # the sequential cumsum stays at ~100 ms. acc = 2*ones_count - len,
    # computed per page below.
    nz = np.flatnonzero(lens)
    if T:
        bits = np.unpackbits(
            th_all.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
        )
        n_nz = len(nz)
        ones_cnt = np.empty((n_nz, 64), dtype=np.int32)
        s_nz = starts[nz]
        e_nz = s_nz + lens[nz]
        for j in range(n_nz):
            # contiguous ≤window×64 block sum; loop count is pages, not
            # tokens — the hot bytes stream exactly once
            bits[s_nz[j]:e_nz[j]].sum(axis=0, dtype=np.int32, out=ones_cnt[j])
    # rolling k-gram fingerprint array (global; a slice [start, start+len-K]
    # stays inside its page by construction)
    K = _FP_K
    if T >= K:
        with np.errstate(over="ignore"):
            roll = th_all[: T - K + 1].copy()
            for j in range(1, K):
                roll = roll * _FP_MULT ^ th_all[j : T - K + 1 + j]
    else:
        roll = np.empty(0, dtype=np.uint64)
    # minhash lane: 3-gram shingles → perm-0 values (min unaffected by the
    # de-dup the signature path does)
    if T >= 3:
        with np.errstate(over="ignore"):
            sh3 = (th_all[:-2] * _FP_MULT
                   ^ th_all[1:-1] * np.uint64(1099511628211) ^ th_all[2:])
            p0 = (sh3 * _PERM_A[0] + _PERM_B[0]) % _MERSENNE
    else:
        p0 = np.empty(0, dtype=np.uint64)

    sim = np.zeros(m, dtype=np.uint64)
    fp = np.zeros(m, dtype=np.uint64)
    mh = np.zeros(m, dtype=np.uint64)
    if T:
        # simhash packs across the whole batch at once: (n_nz, 64) sign
        # bits → (n_nz, 8) bytes → one uint64 per page
        acc = 2 * ones_cnt - lens[nz][:, None].astype(np.int32)
        sim[nz] = np.ascontiguousarray(
            np.packbits((acc > 0).astype(np.uint8), axis=1,
                        bitorder="little")).view(np.uint64).ravel()
        for j in nz:
            ln = int(lens[j])
            s0 = int(starts[j])
            seg_min = th_all[s0:s0 + ln].min()
            fp[j] = roll[s0:s0 + ln - K + 1].min() if ln >= K else seg_min
            mh[j] = p0[s0:s0 + ln - 2].min() if ln >= 3 else seg_min

    out["n_tokens"][idxs] = n_tok.tolist()
    out["quality"][idxs] = quality.tolist()
    out["simhash"][idxs] = sim.tolist()
    out["fingerprint"][idxs] = fp.tolist()
    out["minhash0"][idxs] = mh.tolist()
    out["lang_pred"][idxs] = lang_pred
    return out


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
        get_fetcher(corpus_ref), batch, khi, klo,
        politeness_delay_s=politeness_delay_ms / 1000.0,
        respect_robots=respect_robots)
    page_of, cand = extract_link_sets(pages)
    parent_of = page_row[page_of]
    if _tr:
        _t = _trace_mark("fetch_loop", _t)
    if enrich:
        # batch row → its page, null where the row fetched no page
        pos = np.full(n, -1, dtype=np.int64)
        pos[page_row] = np.arange(len(page_row))
        feat_cols = enrich_pages(pages.take(pa.array(pos, mask=pos < 0)))
    else:
        feat_cols = {k: [None] * n for k in _FEAT_NAMES}
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
            "n_tokens": pa.array(feat_cols["n_tokens"], pa.int32()),
            "quality": pa.array(feat_cols["quality"], pa.float64()),
            "simhash": pa.array(feat_cols["simhash"], pa.uint64()),
            "fingerprint": pa.array(feat_cols["fingerprint"], pa.uint64()),
            "minhash0": pa.array(feat_cols["minhash0"], pa.uint64()),
            "lang_pred": pa.array(feat_cols["lang_pred"], pa.string()),
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
