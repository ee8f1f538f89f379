"""Text-analysis operators over the ``documents`` table — the language-ID /
quality-scoring / token-counting / fingerprinting stages a large-scale
training-data pipeline runs alongside the crawl (task brief: first-class
components beyond the reference's own operators).

All stages are vectorized or tight-per-row loops inside
``map_batches(batch_format="pyarrow")``; regexes are compiled once at module
import (per worker process), never per batch.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa

# the enrichment text constants are crawl-owned (kernels); re-exported here
from raycrawl.kernels import (  # noqa: F401
    _LANG_HINTS,
    STOPWORDS,
    WORD_RE,
    table_from_pandas,
)

# BPE-ish pre-tokenizer: words, numbers, or single non-space punctuation
BPE_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)
PUNCT_RE = re.compile(r"[^\w\s]", re.UNICODE)


def _t(sf_dir: str, name: str, columns=None):
    from raycrawl.kernels import read_parquet_clean

    return read_parquet_clean(os.path.join(sf_dir, f"{name}.parquet"),
                              columns=columns)


# ---------------------------------------------------------------------------
# token counting
# ---------------------------------------------------------------------------

def token_count_batch(t: pa.Table) -> pa.Table:
    """Per-doc token counts: whitespace tokens + BPE-ish regex tokens +
    char length. Columns named for the SQL oracle. Vectorized in polars:
    ``count_matches(r"\\S+")`` counts exactly ``len(s.split())`` runs
    (unicode-whitespace coincidence, same caveat as the SQL oracle's
    ``trim + \\s+`` — absent from this corpus), non-overlapping
    ``count_matches`` equals ``len(findall)``."""
    import polars as pl

    col = t["text"]
    s = pl.from_arrow(
        col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col)
    ws = s.str.count_matches(r"\S+").to_numpy().astype(np.int64)
    bpe = s.str.count_matches(BPE_RE.pattern).to_numpy().astype(np.int64)
    chars = s.str.len_chars().to_numpy().astype(np.int64)
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "ws_tokens": pa.array(ws),
            "bpe_tokens": pa.array(bpe),
            "chars": pa.array(chars),
        }
    )


def token_stats_by_lang(sf_dir: str) -> pa.Table:
    """Aggregate token statistics per language (SQL-checkable)."""
    docs = _t(sf_dir, "documents", ["doc_id", "text", "lang"])

    def partial(t: pa.Table) -> pa.Table:
        counts = token_count_batch(t)
        t2 = pa.table(
            {
                "lang": t["lang"],
                "ws_tokens": counts["ws_tokens"],
                "chars": counts["chars"],
                "n_docs": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            }
        )
        return t2.group_by("lang").aggregate(
            [("ws_tokens", "sum"), ("chars", "sum"), ("n_docs", "sum")]
        )

    parts = docs.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("lang", as_index=False).sum()
    out = pd.DataFrame(
        {
            "lang": g["lang"],
            "total_ws_tokens": g["ws_tokens_sum"].astype("int64"),
            "total_chars": g["chars_sum"].astype("int64"),
            "n_docs": g["n_docs_sum"].astype("int64"),
            "avg_ws_tokens": g["ws_tokens_sum"] / g["n_docs_sum"],
        }
    ).sort_values("lang")
    return table_from_pandas(out)


def token_stats_by_lang_sql() -> str:
    return """
    SELECT lang,
           CAST(sum(length(string_split_regex(trim(text), '\\s+'))) AS BIGINT) AS total_ws_tokens,
           CAST(sum(length(text)) AS BIGINT)  AS total_chars,
           CAST(count(*) AS BIGINT)           AS n_docs,
           sum(length(string_split_regex(trim(text), '\\s+'))) * 1.0 / count(*) AS avg_ws_tokens
    FROM documents GROUP BY lang ORDER BY lang
    """


# BPE-ish pre-tokenizer, ASCII-explicit so Python re and DuckDB's RE2
# interpret the pattern IDENTICALLY (no engine-dependent \\w/\\s classes):
# word runs, or one non-word non-space char per token.
BPE_ASCII_PAT = r"[A-Za-z0-9_]+|[^A-Za-z0-9_ \t\n\r\f\v]"


def bpe_token_stats_by_lang(sf_dir: str) -> pa.Table:
    """Token counting, BPE-ish lane (task brief: whitespace + a BPE-ish
    regex). Per-language totals of pre-tokenizer tokens vs whitespace
    tokens — the cost model a tokenizer-budgeted pipeline plans with.
    Same partial-agg shape as token_stats_by_lang: the regex is compiled
    once per worker process, counts fold in-batch, the groupby ships
    |langs| rows. (Whitespace-token edge: leading/trailing newlines or
    Unicode spaces split differently under SQL trim+RE2 than str.split —
    same caveat as doc_repetition_scores; absent from this corpus.)"""
    docs = _t(sf_dir, "documents", ["text", "lang"])

    def partial(t: pa.Table) -> pa.Table:
        import polars as pl

        s = pl.from_arrow(t["text"].combine_chunks()
                          if isinstance(t["text"], pa.ChunkedArray)
                          else t["text"])
        bpe = s.str.count_matches(BPE_ASCII_PAT).to_numpy().astype(np.int64)
        ws = s.str.count_matches(r"\S+").to_numpy().astype(np.int64)
        t2 = pa.table({
            "lang": t["lang"],
            "bpe_tokens": pa.array(bpe),
            "ws_tokens": pa.array(ws),
            "n_docs": pa.array(np.ones(t.num_rows, dtype=np.int64)),
        })
        return t2.group_by("lang").aggregate(
            [("bpe_tokens", "sum"), ("ws_tokens", "sum"), ("n_docs", "sum")]
        )

    parts = docs.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("lang", as_index=False).sum()
    out = pd.DataFrame({
        "lang": g["lang"],
        "total_bpe_tokens": g["bpe_tokens_sum"].astype("int64"),
        "total_ws_tokens": g["ws_tokens_sum"].astype("int64"),
        "n_docs": g["n_docs_sum"].astype("int64"),
        "bpe_per_doc": g["bpe_tokens_sum"] / g["n_docs_sum"],
    }).sort_values("lang")
    return table_from_pandas(out)


def bpe_token_stats_by_lang_sql() -> str:
    # the SQL literal carries the backslash escapes through to RE2, which
    # interprets them exactly like Python's re does for this ASCII pattern
    return f"""
    SELECT lang,
           CAST(sum(length(regexp_extract_all(text, '{BPE_ASCII_PAT}'))) AS BIGINT)
             AS total_bpe_tokens,
           CAST(sum(length(string_split_regex(trim(text), '\\s+'))) AS BIGINT)
             AS total_ws_tokens,
           CAST(count(*) AS BIGINT) AS n_docs,
           sum(length(regexp_extract_all(text, '{BPE_ASCII_PAT}'))) * 1.0
             / count(*) AS bpe_per_doc
    FROM documents GROUP BY lang ORDER BY lang
    """


def lang_source_distribution(sf_dir: str) -> pa.Table:
    """Doc counts + char volume per (lang, source)."""
    docs = _t(sf_dir, "documents", ["lang", "source", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        t2 = pa.table(
            {
                "lang": t["lang"],
                "source": t["source"],
                "n_docs": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                "sum_chars": t["n_chars"],
            }
        )
        return t2.group_by(["lang", "source"]).aggregate(
            [("n_docs", "sum"), ("sum_chars", "sum")]
        )

    parts = docs.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby(["lang", "source"], as_index=False).sum()
    out = pd.DataFrame(
        {
            "lang": g["lang"],
            "source": g["source"],
            "n_docs": g["n_docs_sum"].astype("int64"),
            "sum_chars": g["sum_chars_sum"].astype("int64"),
        }
    ).sort_values(["lang", "source"])
    return table_from_pandas(out)


def lang_source_distribution_sql() -> str:
    return """
    SELECT lang, source, CAST(count(*) AS BIGINT) AS n_docs,
           CAST(sum(n_chars) AS BIGINT) AS sum_chars
    FROM documents GROUP BY lang, source ORDER BY lang, source
    """


# ---------------------------------------------------------------------------
# quality scoring (SQL-checkable: the corpus is ASCII, so Python's unicode
# \w/\s classes coincide with the oracle's explicit ASCII classes, and every
# ratio is a single int/int division — bit-identical across engines)
# ---------------------------------------------------------------------------

def quality_score_batch(t: pa.Table) -> pa.Table:
    """Per-doc quality heuristics: stopword ratio, punctuation density, mean
    word length, uppercase ratio — the usual webtext quality gates.

    Vectorized in polars (unicode ``\\w``/``\\s``/``\\p{Uppercase}`` classes
    coincide with Python ``re``/``str.isupper`` — pinned by
    tests/test_ops.py's scalar-twin check); every count stays an exact
    integer before the one float division, so outputs are bit-identical to
    the per-row loop this replaces and to the SQL oracle."""
    import polars as pl

    col = t["text"]
    s = pl.from_arrow(
        col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col)
    words = s.str.to_lowercase().str.extract_all(r"\w+")
    nw = words.list.len().fill_null(0).to_numpy().astype(np.float64)
    wchars = (words.list.eval(pl.element().str.len_chars())
              .list.sum().fill_null(0).to_numpy().astype(np.float64))
    nstop = (words.list.eval(pl.element().is_in(sorted(STOPWORDS))
                             .cast(pl.UInt32))
             .list.sum().fill_null(0).to_numpy().astype(np.float64))
    nchars = s.str.len_chars().to_numpy().astype(np.float64)
    npunct = s.str.count_matches(r"[^\w\s]").to_numpy().astype(np.float64)
    nupper = s.str.count_matches(r"\p{Uppercase}").to_numpy().astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        stop_ratio = np.where(nw > 0, nstop / nw, 0.0)
        mean_word_len = np.where(nw > 0, wchars / nw, 0.0)
        punct_density = np.where(nchars > 0, npunct / nchars, 0.0)
        upper_ratio = np.where(nchars > 0, nupper / nchars, 0.0)
    score = (
        0.4 * np.clip(stop_ratio / 0.4, 0, 1)
        + 0.3 * np.clip(1.0 - punct_density * 5, 0, 1)
        + 0.3 * np.clip(mean_word_len / 8.0, 0, 1)
    )
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "stop_ratio": pa.array(stop_ratio),
            "punct_density": pa.array(punct_density),
            "mean_word_len": pa.array(mean_word_len),
            "upper_ratio": pa.array(upper_ratio),
            "quality": pa.array(score),
        }
    )


def quality_scores(sf_dir: str):
    """Per-doc quality score Dataset (oracle: quality_scores_sql)."""
    return _t(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        quality_score_batch, batch_format="pyarrow"
    )


def quality_scores_sql() -> str:
    stoplist = ",".join(f"'{w}'" for w in sorted(STOPWORDS))
    return f"""
    WITH d AS (SELECT doc_id, text,
                      regexp_extract_all(lower(text), '[a-z0-9_]+') AS words
               FROM documents),
    s AS (SELECT doc_id, len(words) AS nw,
                 len(list_filter(words, w -> w IN ({stoplist}))) AS nstop,
                 len(regexp_extract_all(text, '[^a-zA-Z0-9_\\s]')) AS npunct,
                 length(text) AS nchars,
                 coalesce(list_sum(list_transform(words, w -> length(w))), 0) AS wchars,
                 len(regexp_extract_all(text, '[A-Z]')) AS nupper
          FROM d),
    r AS (SELECT doc_id,
                 CASE WHEN nw > 0 THEN nstop / nw ELSE 0.0 END AS stop_ratio,
                 CASE WHEN nchars > 0 THEN npunct / nchars ELSE 0.0 END AS punct_density,
                 CASE WHEN nw > 0 THEN wchars / nw ELSE 0.0 END AS mean_word_len,
                 CASE WHEN nchars > 0 THEN nupper / nchars ELSE 0.0 END AS upper_ratio
          FROM s)
    SELECT doc_id, stop_ratio, punct_density, mean_word_len, upper_ratio,
           0.4 * least(greatest(stop_ratio / 0.4, 0.0), 1.0)
         + 0.3 * least(greatest(1.0 - punct_density * 5, 0.0), 1.0)
         + 0.3 * least(greatest(mean_word_len / 8.0, 0.0), 1.0) AS quality
    FROM r ORDER BY doc_id
    """


def documents_quality_pruned(sf_dir: str, pct: int = 60) -> pa.Table:
    """Keep the top ``pct``% of documents by quality score — the global
    quality-pruning gate of a training-data pipeline ("train on the best
    60%"), rank-exact: exactly ``k = ceil(N·pct/100)`` docs survive, ranked
    by (quality DESC, doc_id ASC), matching the SQL twin's ROW_NUMBER
    semantics bit-for-bit.

    Scale shape (no global sort, no full materialization of the wide
    table): quality is computed ONCE into a narrow (doc_id, quality)
    dataset; the selection threshold is found by a two-level histogram
    over the quality float's BIT PATTERN (non-negative IEEE doubles order
    as unsigned ints) — a ≤2^16-bucket coarse pass, then an exact-value
    pass inside the single threshold bucket — so driver state is bounded
    by bucket count + one bucket's distinct values, never N. The rank tie
    at the threshold value is broken by doc_id: the tie class (docs
    sharing ONE exact float quality) is counted first and its doc_ids are
    only collected when a partial selection is needed (WARNs above ~5M —
    a degenerate corpus where half the docs share a score should route
    through a coarser gate instead)."""
    from ray.data.aggregate import Sum

    qds = quality_scores(sf_dir).select_columns(
        ["doc_id", "quality"]).materialize()
    n = qds.count()
    k = -(-n * pct // 100)  # ceil(n*pct/100), integer-exact
    if n == 0 or k <= 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "quality": pa.array([], pa.float64())})
    if k >= n:
        out = qds.to_pandas().sort_values("doc_id").reset_index(drop=True)
        return table_from_pandas(out)

    def coarse_partial(t: pa.Table) -> pa.Table:
        bits = t["quality"].to_numpy().view(np.uint64)
        bucket = (bits >> np.uint64(48)).astype(np.int64)
        b, c = np.unique(bucket, return_counts=True)
        return pa.table({"bucket": pa.array(b),
                         "cnt": pa.array(c.astype(np.int64))})

    hist = (qds.map_batches(coarse_partial, batch_format="pyarrow")
            .groupby("bucket").aggregate(Sum("cnt", alias_name="n"))
            .to_pandas().sort_values("bucket", ascending=False))
    cum = hist["n"].to_numpy().cumsum()
    bi = int(np.searchsorted(cum, k))          # first bucket where cum >= k
    thr_bucket = int(hist["bucket"].iloc[bi])
    above_bucket = int(cum[bi - 1]) if bi else 0   # docs in buckets > thr's

    def exact_partial(t: pa.Table) -> pa.Table:
        bits = t["quality"].to_numpy().view(np.uint64)
        sel = (bits >> np.uint64(48)).astype(np.int64) == thr_bucket
        # int64 VIEW rides the shuffle zero-copy; order-compatible here
        # because all values share the top bits (same bucket)
        b, c = np.unique(bits[sel].view(np.int64), return_counts=True)
        return pa.table({"qbits": pa.array(b),
                         "cnt": pa.array(c.astype(np.int64))})

    inb = (qds.map_batches(exact_partial, batch_format="pyarrow")
           .groupby("qbits").aggregate(Sum("cnt", alias_name="n"))
           .to_pandas())
    inb = inb.sort_values("qbits", ascending=False)
    cum2 = above_bucket + inb["n"].to_numpy().cumsum()
    vi = int(np.searchsorted(cum2, k))
    thr_bits = np.uint64(np.int64(inb["qbits"].iloc[vi]))
    n_gt = int(cum2[vi - 1]) if vi else above_bucket  # docs with q > thr
    s = k - n_gt                                      # tie slots to fill
    m = int(inb["n"].iloc[vi])                        # tie class size

    cutoff = None  # None => keep the whole tie class
    if s < m:
        if m > 5_000_000:
            import logging

            logging.getLogger(__name__).warning(
                "quality-pruned tie class has %d docs sharing one score — "
                "driver-side doc_id selection is O(m); consider a coarser "
                "pct or a pre-filter for this corpus", m)

        def tie_ids_batch(t: pa.Table) -> pa.Table:
            bits = t["quality"].to_numpy().view(np.uint64)
            sel = bits == thr_bits
            return pa.table({"doc_id": pa.array(
                t["doc_id"].to_numpy()[sel])})

        tie_ids = (qds.map_batches(tie_ids_batch, batch_format="pyarrow")
                   .to_pandas()["doc_id"].to_numpy())
        cutoff = int(np.partition(tie_ids, s - 1)[s - 1])

    def keep(t: pa.Table) -> pa.Table:
        bits = t["quality"].to_numpy().view(np.uint64)
        mask = bits > thr_bits
        if cutoff is None:
            mask |= bits == thr_bits
        else:
            mask |= (bits == thr_bits) & (t["doc_id"].to_numpy() <= cutoff)
        return t.filter(pa.array(mask))

    out = (qds.map_batches(keep, batch_format="pyarrow")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert len(out) == k, (len(out), k)  # rank-exactness is the contract
    return table_from_pandas(out)


def quality_pruned_sql(pct: int = 60) -> str:
    base = quality_scores_sql()
    return f"""
    WITH q AS (SELECT doc_id, quality FROM ({base})),
    rk AS (SELECT doc_id, quality,
                  ROW_NUMBER() OVER (ORDER BY quality DESC, doc_id ASC) AS rn,
                  COUNT(*) OVER () AS n
           FROM q)
    SELECT doc_id, quality FROM rk
    WHERE rn <= (n * {pct} + 99) // 100
    ORDER BY doc_id
    """


# ---------------------------------------------------------------------------
# language ID (rows-only)
# ---------------------------------------------------------------------------

def langid_batch(t: pa.Table) -> pa.Table:
    """N-gram/codepoint heuristic language guess per doc. Vectorized in
    polars: per-hint literal ``count_matches`` (non-overlapping, like
    ``str.count``) summed as exact ints before the one float division;
    ``np.argmax``'s first-max tie-break reproduces the scalar loop's
    dict-order strictly-greater scan, and the CJK short-circuit is the
    same codepoint range — outputs identical to the per-row loop this
    replaces (and to langid_sql)."""
    import polars as pl

    col = t["text"]
    s = pl.from_arrow(
        col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col)
    n = len(s)
    if n == 0:
        return pa.table({"doc_id": t["doc_id"],
                         "lang_pred": pa.array([], pa.string())})
    low = s.str.to_lowercase()
    denom = low.str.len_chars().to_numpy().astype(np.float64) + 1.0
    langs = [lang for lang, grams in _LANG_HINTS.items() if grams]
    scores = np.empty((n, len(langs)), dtype=np.float64)
    for j, lang in enumerate(langs):
        cnt = np.zeros(n, dtype=np.int64)
        for g in _LANG_HINTS[lang]:
            cnt += low.str.count_matches(g, literal=True).to_numpy().astype(np.int64)
        scores[:, j] = cnt / denom
    preds = np.array(langs, dtype=object)[np.argmax(scores, axis=1)]
    zh = s.str.contains(r"[\x{4e00}-\x{9fff}]").to_numpy()
    preds[zh] = "zh"
    return pa.table({"doc_id": t["doc_id"],
                     "lang_pred": pa.array(preds, pa.string())})


def langid(sf_dir: str):
    return _t(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        langid_batch, batch_format="pyarrow"
    )


def langid_sql() -> str:
    """Mirror of langid_batch: same trigram counts (non-overlapping, like
    str.count), same ratio, same strictly-greater argmax with dict-order
    tie-break (en, de, fr, es), same CJK-codepoint zh short-circuit."""

    def score(lang: str) -> str:
        terms = " + ".join(
            f"(length(low) - length(replace(low, '{g}', ''))) / {len(g)}"
            for g in _LANG_HINTS[lang]
        )
        return f"({terms}) / (length(low) + 1)"

    return f"""
    WITH d AS (SELECT doc_id, text, lower(text) AS low FROM documents),
    s AS (SELECT doc_id, text, {score('en')} AS s_en, {score('de')} AS s_de,
                 {score('fr')} AS s_fr, {score('es')} AS s_es
          FROM d)
    SELECT doc_id,
           CASE WHEN regexp_matches(text, '[\\x{{4e00}}-\\x{{9fff}}]') THEN 'zh'
                WHEN s_es > greatest(s_en, s_de, s_fr) THEN 'es'
                WHEN s_fr > greatest(s_en, s_de) THEN 'fr'
                WHEN s_de > s_en THEN 'de'
                ELSE 'en' END AS lang_pred
    FROM s ORDER BY doc_id
    """


# ---------------------------------------------------------------------------
# document fingerprinting (SQL-checkable: gram hash is md5_u64, DuckDB's
# md5_number_lower, so the oracle recomputes the min independently)
# ---------------------------------------------------------------------------


def fingerprint_batch(t: pa.Table, k: int = 8) -> pa.Table:
    """Winnowing-style fingerprint: min md5-derived hash over token k-grams
    (content-defined; stable under whitespace-preserving edits elsewhere).
    Vectorized: one segmented gram gather + one DuckDB md5 call per batch,
    then a per-doc ``minimum.reduceat`` — values bit-identical to the old
    per-gram scalar loop (empty docs keep the md5("") fingerprint)."""
    from raycrawl.kernels import md5_gram_hashes, md5_u64

    texts = t["text"].to_pylist()
    h, offs = md5_gram_hashes(texts, k=k)
    ngrams = np.diff(offs)
    fps = np.full(len(texts), np.uint64(md5_u64("")), dtype=np.uint64)
    ne = ngrams > 0
    if ne.any():
        fps[ne] = np.minimum.reduceat(h, offs[:-1][ne])
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "fingerprint": pa.array(fps),
            "n_ngrams": pa.array(ngrams),
        }
    )


def fingerprints(sf_dir: str):
    return _t(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        fingerprint_batch, batch_format="pyarrow"
    )


def fingerprints_sql(k: int = 8) -> str:
    return f"""
    WITH t AS (SELECT doc_id, string_split_regex(trim(text), '\\s+') AS toks
               FROM documents),
    g AS (SELECT doc_id,
                 unnest(CASE WHEN len(toks) < {k}
                             THEN [array_to_string(toks, ' ')]
                             ELSE list_transform(range(1, len(toks) - {k} + 2),
                                                 i -> array_to_string(toks[i:i+{k - 1}], ' '))
                        END) AS gr
          FROM t)
    SELECT doc_id, min(md5_number_lower(gr)) AS fingerprint,
           CAST(count(*) AS BIGINT) AS n_ngrams
    FROM g GROUP BY doc_id ORDER BY doc_id
    """


# ---------------------------------------------------------------------------
# TF-IDF top terms per language
# ---------------------------------------------------------------------------

def tfidf_top_terms(sf_dir: str, k: int = 10) -> pa.Table:
    """Top-k terms per language by a rational TF-IDF score — the corpus
    keyword extraction a curation pipeline runs to characterize sources.

    score = tf × (N − df) / df, the log-free idf variant: a transcendental
    ``ln`` is not bit-stable across engines (DuckDB's libm vs numpy's SIMD
    log differ at ULP level and the driver hashes values exactly), while
    integer tf·(N−df) followed by one correctly-rounded double division is
    reproduced bit-for-bit by the mirrored SQL. Ubiquitous terms (df→N)
    still score →0, which is the idf shape that matters.

    Distributed plan (vocabulary is unbounded at 100 TB — nothing driver-
    side ever scales with it):
      1. tokenize per batch (polars extract_all over lowered text) →
         per-batch partial (term, lang, tf, df_part, part); df_part counts
         DISTINCT docs of the batch containing the term — exact globally
         after summing, because each doc lives in exactly one batch.
         ``part = hash(term) % n_parts`` co-locates every partial of a term.
      2. ONE hash shuffle: groupby("part").map_groups runs a vectorized
         polars combine per partition — sum tf over (term, lang), sum df
         over term (a window sum, no join), score, and a per-lang partial
         top-k. Each partition's output is ≤ k×|langs| rows. No Acero
         ``Dataset.join`` anywhere in the path (the round-2 join was flaky
         under Ray's hash-shuffle finalize at high partition counts), and
         one shuffle replaces the old aggregate+aggregate+join trio.
      3. finalize: groupby(lang).map_groups over ≤ n_parts×k×|langs| rows.
    """
    import ray

    n_docs = _t(sf_dir, "documents", ["doc_id"]).count()
    # partition count tracks the cluster AND the data: one combine task
    # holds a whole term-hash partition in memory, so partitions must
    # multiply with corpus size (vocab partials grow with it) — ~100k
    # docs per partition keeps the per-task table bounded; tiny test
    # sessions still don't pay 16-way shuffle fixed costs
    n_parts = max(4, int(ray.cluster_resources().get("CPU", 8)),
                  n_docs // 100_000)

    def tokenize_partial(t: pa.Table) -> pa.Table:
        import polars as pl

        lang = t["lang"].to_numpy(zero_copy_only=False)
        doc = t["doc_id"].to_numpy()
        toks = (pl.Series(t["text"].combine_chunks())
                .str.to_lowercase().str.extract_all(r"[a-z0-9_]+"))
        n_per_doc = toks.list.len().to_numpy().astype(np.int64)
        flat = toks.explode(empty_as_null=True).drop_nulls()
        df_ = pl.DataFrame({
            "term": flat,
            "lang": pl.Series(np.repeat(lang, n_per_doc)),
            "doc": pl.Series(np.repeat(doc, n_per_doc)),
        })
        agg = df_.group_by(["term", "lang"]).agg(
            tf=pl.len().cast(pl.Int64),
            df_part=pl.col("doc").n_unique().cast(pl.Int64),
        ).with_columns(
            part=(pl.col("term").hash(seed=7) % n_parts).cast(pl.Int64),
        )
        return agg.to_arrow().cast(pa.schema([
            ("term", pa.string()), ("lang", pa.string()),
            ("tf", pa.int64()), ("df_part", pa.int64()),
            ("part", pa.int64())]))

    def combine_partition(t: pa.Table) -> pa.Table:
        """All partials for every term hashing into this partition:
        vectorized (term, lang) tf-sum + per-term df window-sum in polars,
        then score + per-lang partial top-k (numpy)."""
        import polars as pl

        agg = (
            pl.from_arrow(t.select(["term", "lang", "tf", "df_part"]))
            .group_by(["term", "lang"])
            .agg(tf=pl.col("tf").sum(), df_l=pl.col("df_part").sum())
            .with_columns(df=pl.col("df_l").sum().over("term"))
        )
        part_tbl = agg.select(["term", "lang", "tf", "df"]).to_arrow().cast(
            pa.schema([("term", pa.string()), ("lang", pa.string()),
                       ("tf", pa.int64()), ("df", pa.int64())]))
        return score_topk(part_tbl, k).drop_columns(["rnk"])

    def score_topk(t: pa.Table, kk: int) -> pa.Table:
        from raycrawl.kernels import group_ranked_head

        lang = t["lang"].to_numpy(zero_copy_only=False)
        term = t["term"].to_numpy(zero_copy_only=False)
        tf = t["tf"].to_numpy()
        df = t["df"].to_numpy()
        score = (tf * (n_docs - df)).astype(np.float64) / df
        idx, rnk = group_ranked_head(lang, (term, -score), kk)
        return pa.table({
            "lang": pa.array(lang[idx], pa.string()),
            "rnk": pa.array(rnk, pa.int64()),
            "term": pa.array(term[idx], pa.string()),
            "tf": pa.array(tf[idx], pa.int64()),
            "df": pa.array(df[idx], pa.int64()),
            "score": pa.array(score[idx], pa.float64()),
        })

    out = (
        _t(sf_dir, "documents", ["doc_id", "lang", "text"])
        .map_batches(tokenize_partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(combine_partition, batch_format="pyarrow")
        .groupby("lang")
        .map_groups(lambda t: score_topk(t, k), batch_format="pyarrow")
        .to_pandas()
        .sort_values(["lang", "rnk"])
        .reset_index(drop=True)
    )
    return table_from_pandas(out)


def tfidf_top_terms_sql(k: int = 10) -> str:
    return f"""
    WITH toks AS (
      SELECT doc_id, lang,
             unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS term
      FROM documents),
    tf AS (SELECT lang, term, CAST(count(*) AS BIGINT) AS tf
           FROM toks GROUP BY 1, 2),
    df AS (SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
           FROM toks GROUP BY 1),
    n AS (SELECT count(*) AS n_docs FROM documents),
    scored AS (
      SELECT tf.lang, tf.term, tf.tf, df.df,
             CAST(tf.tf * ((SELECT n_docs FROM n) - df.df) AS DOUBLE) / df.df
               AS score
      FROM tf JOIN df USING (term))
    SELECT lang, rnk, term, tf, df, score FROM (
      SELECT *, ROW_NUMBER() OVER (PARTITION BY lang
                                   ORDER BY score DESC, term) AS rnk
      FROM scored) WHERE rnk <= {k}
    ORDER BY lang, rnk
    """


def doc_repetition_scores(sf_dir: str) -> pa.Table:
    """Repetition/diversity filter signals (the Gopher-rule family): per
    doc, token count, distinct-token count, type-token ratio and the
    most-frequent-token fraction — the two ratios that catch degenerate
    repeated-phrase documents. Exact ints per doc, one division each, so
    the SQL oracle's doubles are bit-identical. Per-batch work is one
    np.unique per doc inside map_batches; zero shuffle (doc-local).

    Edge note: an all-whitespace text is 0 tokens here but 1 empty token
    under the oracle's trim+split — this corpus has no such docs, and a
    production run would drop them in the quality gate before this."""
    docs = _t(sf_dir, "documents", ["doc_id", "text"])

    def batch(t: pa.Table) -> pa.Table:
        # vectorized: tokenize + explode + two C-level groupbys; a doc with
        # no tokens simply has no group rows (zeros prefilled). Identical
        # counts to the per-row split/np.unique loop this replaces.
        import polars as pl

        col = t["text"]
        s = pl.from_arrow(col.combine_chunks()
                          if isinstance(col, pa.ChunkedArray) else col)
        n = len(s)
        per = (pl.DataFrame({"i": pl.Series(np.arange(n, dtype=np.int64)),
                             "tok": s.str.extract_all(r"\S+")})
               .explode("tok", empty_as_null=False)
               .drop_nulls("tok")
               .group_by(["i", "tok"]).len())
        agg = per.group_by("i").agg(n_tok=pl.col("len").sum(),
                                    n_dis=pl.len(), mx=pl.col("len").max())
        n_tok = np.zeros(n, np.int64)
        n_dis = np.zeros(n, np.int64)
        mx = np.zeros(n, np.int64)
        ii = agg["i"].to_numpy()
        n_tok[ii] = agg["n_tok"].to_numpy()
        n_dis[ii] = agg["n_dis"].to_numpy()
        mx[ii] = agg["mx"].to_numpy()
        with np.errstate(invalid="ignore"):
            ttr = n_dis * 1.0 / n_tok
            mxf = mx * 1.0 / n_tok
        return pa.table({
            "doc_id": t["doc_id"],
            "n_tokens": pa.array(n_tok),
            "n_distinct_tokens": pa.array(n_dis),
            "ttr": pa.array(ttr),
            "max_tok_frac": pa.array(mxf),
        })

    out = docs.map_batches(batch, batch_format="pyarrow").sort("doc_id").to_pandas()
    return table_from_pandas(out)


def doc_repetition_scores_sql() -> str:
    return """
    WITH toks AS (
      SELECT doc_id, unnest(string_split_regex(trim(text), '\\s+')) AS tok
      FROM documents
    ),
    per AS (SELECT doc_id, tok, count(*) AS c FROM toks GROUP BY doc_id, tok),
    agg AS (
      SELECT doc_id,
             CAST(sum(c) AS BIGINT)   AS n_tokens,
             CAST(count(*) AS BIGINT) AS n_distinct_tokens,
             CAST(max(c) AS BIGINT)   AS mx
      FROM per GROUP BY doc_id
    )
    SELECT doc_id, n_tokens, n_distinct_tokens,
           n_distinct_tokens * 1.0 / n_tokens AS ttr,
           mx * 1.0 / n_tokens AS max_tok_frac
    FROM agg ORDER BY doc_id
    """


# ---------------------------------------------------------------------------
# PII scrubbing (training-data compliance lane)
# ---------------------------------------------------------------------------
# Standard webtext-pipeline stage (CCNet/Dolma-style): replace emails, phone
# numbers and IPv4 addresses with typed placeholder tokens before training.
# The synthetic documents corpus contains no organic PII, so the operator
# demonstrates on deterministically PLANTED spans: a pure function of doc_id
# appends an email to every 3rd doc, a phone to every 5th, an IP to every
# 7th — and the oracle SQL mirrors the exact same injection, so the
# regexp_replace comparison verifies real (non-identity) scrubbing work.
# Patterns are chosen inside the common subset of rust-regex (polars) and
# RE2 (DuckDB) semantics — parity pinned by tests/test_ops.py.

PII_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_IP_RE = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
PII_PHONE_RE = r"\b555-\d{4}\b"


def pii_inject_expr():
    """Polars expression appending the deterministic planted PII spans to
    ``text`` (mirrored verbatim in pii_scrub_sql)."""
    import polars as pl

    did = pl.col("doc_id")
    return (
        pl.col("text")
        + pl.when(did % 3 == 0)
        .then(pl.lit(" contact user") + did.cast(pl.Utf8)
              + pl.lit("@example.com now"))
        .otherwise(pl.lit(""))
        + pl.when(did % 5 == 0)
        .then(pl.lit(" call 555-")
              + (did % 10000).cast(pl.Utf8).str.zfill(4) + pl.lit(" today"))
        .otherwise(pl.lit(""))
        + pl.when(did % 7 == 0)
        .then(pl.lit(" from 10.") + (did % 256).cast(pl.Utf8) + pl.lit(".")
              + (did % 200).cast(pl.Utf8) + pl.lit(".")
              + (did % 100).cast(pl.Utf8) + pl.lit(" logged"))
        .otherwise(pl.lit(""))
    )


def pii_scrub_batch(t: pa.Table) -> pa.Table:
    """Inject the planted spans, count matches per PII class, scrub
    email → ``<EMAIL>``, IP → ``<IP>``, phone → ``<PHONE>`` (in that fixed
    order), and emit the scrubbed text's md5 so the oracle compares the
    full replacement output, not just counts. All columnar polars."""
    import polars as pl

    from raycrawl.kernels import md5_hex_arrow

    df = pl.DataFrame({
        "doc_id": pl.from_arrow(t["doc_id"].combine_chunks()
                                if isinstance(t["doc_id"], pa.ChunkedArray)
                                else t["doc_id"]),
        "text": pl.from_arrow(t["text"].combine_chunks()
                              if isinstance(t["text"], pa.ChunkedArray)
                              else t["text"]),
    })
    df = df.with_columns(pii_inject_expr().alias("inj"))
    inj = pl.col("inj")
    df = df.with_columns(
        inj.str.count_matches(PII_EMAIL_RE).cast(pl.Int64).alias("n_email"),
        inj.str.count_matches(PII_IP_RE).cast(pl.Int64).alias("n_ip"),
        inj.str.count_matches(PII_PHONE_RE).cast(pl.Int64).alias("n_phone"),
        inj.str.replace_all(PII_EMAIL_RE, "<EMAIL>")
        .str.replace_all(PII_IP_RE, "<IP>")
        .str.replace_all(PII_PHONE_RE, "<PHONE>").alias("scrubbed"),
    )
    df = df.with_columns(
        pl.col("scrubbed").str.len_chars().cast(pl.Int64).alias("n_chars_scrubbed"))
    scrubbed = df["scrubbed"].to_arrow()
    return pa.table({
        "doc_id": df["doc_id"].to_arrow(),
        "n_email": df["n_email"].to_arrow(),
        "n_phone": df["n_phone"].to_arrow(),
        "n_ip": df["n_ip"].to_arrow(),
        "n_chars_scrubbed": df["n_chars_scrubbed"].to_arrow(),
        "text_md5": md5_hex_arrow(scrubbed.combine_chunks()
                                  if isinstance(scrubbed, pa.ChunkedArray)
                                  else scrubbed),
    })


def pii_scrub(sf_dir: str):
    """Per-doc PII scrub summary Dataset (oracle: pii_scrub_sql). At the
    100 TB point this is one zero-shuffle map_batches pass; the scrubbed
    text itself would flow to the next stage / export sink rather than a
    per-doc digest — the digest is the oracle-comparable surface."""
    return _t(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        pii_scrub_batch, batch_format="pyarrow")


def pii_scrub_sql() -> str:
    return f"""
    WITH inj AS (
      SELECT doc_id,
             text
             || CASE WHEN doc_id % 3 = 0
                     THEN ' contact user' || doc_id || '@example.com now'
                     ELSE '' END
             || CASE WHEN doc_id % 5 = 0
                     THEN ' call 555-' || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0') || ' today'
                     ELSE '' END
             || CASE WHEN doc_id % 7 = 0
                     THEN ' from 10.' || (doc_id % 256) || '.' || (doc_id % 200)
                          || '.' || (doc_id % 100) || ' logged'
                     ELSE '' END AS t
      FROM documents
    ),
    s AS (
      SELECT doc_id,
             len(regexp_extract_all(t, '{PII_EMAIL_RE}')) AS n_email,
             len(regexp_extract_all(t, '{PII_IP_RE}')) AS n_ip,
             len(regexp_extract_all(t, '{PII_PHONE_RE}')) AS n_phone,
             regexp_replace(regexp_replace(regexp_replace(t,
                 '{PII_EMAIL_RE}', '<EMAIL>', 'g'),
                 '{PII_IP_RE}', '<IP>', 'g'),
                 '{PII_PHONE_RE}', '<PHONE>', 'g') AS scrubbed
      FROM inj
    )
    SELECT doc_id, CAST(n_email AS BIGINT) AS n_email,
           CAST(n_phone AS BIGINT) AS n_phone, CAST(n_ip AS BIGINT) AS n_ip,
           CAST(length(scrubbed) AS BIGINT) AS n_chars_scrubbed,
           md5(scrubbed) AS text_md5
    FROM s ORDER BY doc_id
    """


# ---------------------------------------------------------------------------
# benchmark decontamination (training-data hygiene lane)
# ---------------------------------------------------------------------------

def decontamination_report(sf_dir: str, k: int = 4, benchmark_mod: int = 97):
    """Corpus docs sharing at least one word ``k``-gram with a held-out
    benchmark slice — the eval-set decontamination pass every LLM
    training-data pipeline runs before training (flag, then drop or
    ablate). The benchmark here is the deterministic slice
    ``doc_id % benchmark_mod == 0`` (~1% of the corpus) standing in for an
    external eval set; returns ``(doc_id, n_bench_grams_hit)`` for every
    contaminated non-benchmark doc. Oracle: decontamination_sql.

    100 TB shape — the canonical broadcast-asymmetric join: eval sets are
    tiny (MBs) next to the corpus, so the benchmark side's distinct gram
    hashes are collected to the driver ONCE, sorted, and broadcast via
    ``ray.put``; the corpus side is one zero-shuffle ``map_batches`` pass
    doing a segmented per-doc distinct + one ``searchsorted`` membership
    probe per batch. No shuffle ever touches the wide table. Gram
    semantics and md5_u64 hashing are shared with the dedup lane
    (``kernels.md5_gram_hashes`` — 64-bit collisions vs the SQL's
    string-level grams are ~0 and identical to the MinHash lane's
    documented envelope)."""
    import ray

    from raycrawl.kernels import md5_gram_hashes

    docs = _t(sf_dir, "documents", ["doc_id", "text"])

    def bench_gram_batch(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        sel = ids % benchmark_mod == 0
        if not sel.any():
            return pa.table({"h": pa.array([], pa.uint64())})
        texts = t["text"].filter(pa.array(sel)).to_pylist()
        h, _ = md5_gram_hashes(texts, k)
        return pa.table({"h": pa.array(np.unique(h), pa.uint64())})

    bench = np.unique(
        docs.map_batches(bench_gram_batch, batch_format="pyarrow")
        .to_pandas()["h"].to_numpy().astype(np.uint64))
    bench_ref = ray.put(bench)

    def hits_batch(t: pa.Table) -> pa.Table:
        bench_sorted = ray.get(bench_ref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        keep = ids % benchmark_mod != 0
        ids = ids[keep]
        texts = t["text"].filter(pa.array(keep)).to_pylist()
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "n_bench_grams_hit": pa.array([], pa.int64())})
        if len(texts) == 0 or len(bench_sorted) == 0:
            return empty
        h, offs = md5_gram_hashes(texts, k)
        if len(h) == 0:
            return empty
        n = len(texts)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(offs))
        # per-doc distinct grams (mirrors the SQL's SELECT DISTINCT)
        order = np.lexsort((h, doc_idx))
        hs, di = h[order], doc_idx[order]
        kmask = np.empty(len(hs), dtype=bool)
        kmask[0] = True
        kmask[1:] = (hs[1:] != hs[:-1]) | (di[1:] != di[:-1])
        hs, di = hs[kmask], di[kmask]
        pos = np.searchsorted(bench_sorted, hs)
        pos_c = np.minimum(pos, len(bench_sorted) - 1)
        hit = bench_sorted[pos_c] == hs
        counts = np.bincount(di[hit], minlength=n).astype(np.int64)
        nz = np.flatnonzero(counts)
        return pa.table({"doc_id": pa.array(ids[nz], pa.int64()),
                         "n_bench_grams_hit": pa.array(counts[nz], pa.int64())})

    out = docs.map_batches(hits_batch, batch_format="pyarrow").to_pandas()
    # typed collect: the report is bounded by contamination volume (tiny
    # next to the corpus), and an all-empty Dataset would lose its schema
    return pa.table({
        "doc_id": pa.array(out["doc_id"] if len(out) else [], pa.int64()),
        "n_bench_grams_hit": pa.array(
            out["n_bench_grams_hit"] if len(out) else [], pa.int64()),
    })


def decontamination_sql(k: int = 4, benchmark_mod: int = 97) -> str:
    return f"""
    WITH t AS (SELECT doc_id, string_split_regex(trim(text), '\\s+') AS toks
               FROM documents),
    g AS (SELECT doc_id,
                 unnest(CASE WHEN len(toks) < {k}
                             THEN [array_to_string(toks, ' ')]
                             ELSE list_transform(range(1, len(toks) - {k} + 2),
                                                 i -> array_to_string(toks[i:i+{k - 1}], ' '))
                        END) AS gr
          FROM t),
    dg AS (SELECT DISTINCT doc_id, gr FROM g),
    bench AS (SELECT DISTINCT gr FROM dg WHERE doc_id % {benchmark_mod} = 0)
    SELECT doc_id, CAST(count(*) AS BIGINT) AS n_bench_grams_hit
    FROM dg JOIN bench USING (gr)
    WHERE doc_id % {benchmark_mod} <> 0
    GROUP BY doc_id ORDER BY doc_id
    """


def lm_bigram_model(sf_dir: str, ref_mod: int = 13,
                    k: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Train the word-k-gram count model on the deterministic reference
    slice ``doc_id % ref_mod == 0``: one zero-shuffle ``map_batches`` of
    per-batch (hash, count) partials, combined exactly on the driver.
    Returns ``(sorted uint64 hashes, int64 counts)`` — the fixed-size
    broadcast artifact both ``lm_familiarity_scores`` and the training
    pipeline's opt-in LM gate share."""
    from raycrawl.kernels import md5_gram_hashes

    docs = _t(sf_dir, "documents", ["doc_id", "text"])

    def ref_partial(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        sel = ids % ref_mod == 0
        if not sel.any():
            return pa.table({"h": pa.array([], pa.uint64()),
                             "c": pa.array([], pa.int64())})
        texts = t["text"].filter(pa.array(sel)).to_pylist()
        h, _ = md5_gram_hashes(texts, k)  # multiplicity kept — LM counts
        hu, cu = np.unique(h, return_counts=True)
        return pa.table({"h": pa.array(hu, pa.uint64()),
                         "c": pa.array(cu.astype(np.int64), pa.int64())})

    parts = (docs.map_batches(ref_partial, batch_format="pyarrow")
             .to_pandas())
    ph = parts["h"].to_numpy().astype(np.uint64)
    pc_ = parts["c"].to_numpy().astype(np.int64)
    model_h, inv = np.unique(ph, return_inverse=True)
    model_c = np.zeros(len(model_h), dtype=np.int64)
    np.add.at(model_c, inv, pc_)
    return model_h, model_c


def lm_familiarity_scores(sf_dir: str, ref_mod: int = 13, k: int = 2):
    """Integer-exact analogue of the CCNet/KenLM language-model quality
    filter (Wenzek et al. 2020 train a 5-gram KenLM on Wikipedia and rank
    corpus docs by perplexity; RedPajama/CCNet keep the low-perplexity
    head). The model here is a word-bigram count table trained on the
    deterministic reference slice ``doc_id % ref_mod == 0`` (standing in
    for the curated LM corpus); every document is scored with three exact
    integer statistics a perplexity filter thresholds on:

    - ``n_bigrams``       — the doc's bigram count (its length signal);
    - ``n_known_bigrams`` — bigrams present in the reference model
      (1 − known/total is the OOV rate, the filter's first axis);
    - ``sum_ref_count``   — Σ model-count over the doc's bigram
      occurrences (the unnormalized familiarity mass — the monotone
      integer stand-in for Σ log p(w_i|w_{i-1}), kept as exact counts so
      the DuckDB oracle hash-matches bit-for-bit; a real deployment would
      apply log/normalize driver-side after this distributed pass).

    100 TB shape — the same broadcast-asymmetric join as the
    decontamination pass: the trained model is a fixed-size artifact
    (KenLM's .arpa is, too), so its (hash, count) table is aggregated
    once, sorted, and ``ray.put``-broadcast; scoring is one zero-shuffle
    ``map_batches`` pass over the corpus (segmented gram hash +
    ``searchsorted`` + two ``np.add.at`` accumulations per batch). At
    real scale cap the model vocabulary (top-N by count) before the
    broadcast — the statistics stay exact for the capped model. Gram
    semantics and md5_u64 hashing are shared with the dedup lane
    (``kernels.md5_gram_hashes``)."""
    import ray

    from raycrawl.kernels import md5_gram_hashes

    docs = _t(sf_dir, "documents", ["doc_id", "text"])
    model_ref = ray.put(lm_bigram_model(sf_dir, ref_mod, k))

    def score_batch(t: pa.Table) -> pa.Table:
        mh, mc = ray.get(model_ref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        # Arrow column straight through — md5_gram_hashes' byte-gather
        # fast path, no to_pylist boxing (VERDICT r4 §What's wrong 2)
        n_bigrams, known, mass = lm_known_counts(t["text"], mh, mc, k)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_bigrams": pa.array(n_bigrams, pa.int64()),
            "n_known_bigrams": pa.array(known, pa.int64()),
            "sum_ref_count": pa.array(mass, pa.int64()),
        })

    out = (docs.map_batches(score_batch, batch_format="pyarrow")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    return table_from_pandas(out)


def lm_known_counts(texts, mh: np.ndarray, mc: np.ndarray,
                    k: int = 2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-doc (n_bigrams, n_known_bigrams, sum_ref_count) against a
    sorted model — the vectorized batch kernel shared by the familiarity
    query and the training pipeline's LM gate. ``texts`` may be a list of
    str or an Arrow string column (the zero-boxing gram fast path)."""
    from raycrawl.kernels import md5_gram_hashes

    n = len(texts)
    h, offs = md5_gram_hashes(texts, k)
    n_bigrams = np.diff(offs)
    known = np.zeros(n, dtype=np.int64)
    mass = np.zeros(n, dtype=np.int64)
    if len(h) and len(mh):
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), n_bigrams)
        pos = np.searchsorted(mh, h)
        pos_c = np.minimum(pos, len(mh) - 1)
        hit = mh[pos_c] == h
        np.add.at(known, doc_idx[hit], 1)
        np.add.at(mass, doc_idx[hit], mc[pos_c[hit]])
    return n_bigrams, known, mass


def lm_familiarity_sql(ref_mod: int = 13, k: int = 2) -> str:
    return f"""
    WITH t AS (SELECT doc_id, string_split_regex(trim(text), '\\s+') AS toks
               FROM documents),
    g AS (SELECT doc_id,
                 unnest(CASE WHEN len(toks) < {k}
                             THEN [array_to_string(toks, ' ')]
                             ELSE list_transform(range(1, len(toks) - {k} + 2),
                                                 i -> array_to_string(toks[i:i+{k - 1}], ' '))
                        END) AS gr
          FROM t),
    ref AS (SELECT gr, CAST(count(*) AS BIGINT) AS c FROM g
            WHERE doc_id % {ref_mod} = 0 GROUP BY gr),
    sc AS (SELECT g.doc_id,
                  CAST(count(*) AS BIGINT) AS n_bigrams,
                  CAST(count(ref.gr) AS BIGINT) AS n_known_bigrams,
                  CAST(coalesce(sum(ref.c), 0) AS BIGINT) AS sum_ref_count
           FROM g LEFT JOIN ref ON g.gr = ref.gr
           GROUP BY g.doc_id)
    SELECT d.doc_id,
           CAST(coalesce(s.n_bigrams, 0) AS BIGINT) AS n_bigrams,
           CAST(coalesce(s.n_known_bigrams, 0) AS BIGINT) AS n_known_bigrams,
           CAST(coalesce(s.sum_ref_count, 0) AS BIGINT) AS sum_ref_count
    FROM documents d LEFT JOIN sc s ON d.doc_id = s.doc_id
    ORDER BY d.doc_id
    """


def inverted_index_stats(sf_dir: str, min_df: int = 3, k: int = 100) -> pa.Table:
    """Distributed inverted-index build, surfaced as per-term posting
    statistics — the retrieval-side primitive a training-data stack needs
    next to TF-IDF (BM25 serving, contamination lookups, hard-negative
    mining all start from term -> postings). Full posting LISTS are
    unbounded per term at 100 TB, so the driver-facing result carries an
    exact fixed-size summary per term instead: ``df`` (distinct docs),
    ``tf`` (total occurrences), ``postings_xor`` (XOR-fold over the
    DISTINCT doc_ids — pins the full posting-set content bit-exactly,
    order-free and mergeable), ``min_doc``/``max_doc``. Terms with
    ``df >= min_df``, top-``k`` by (df desc, term).

    Plan (same shuffle discipline as ``tfidf_top_terms`` — vocabulary
    never funnels through the driver):
      1. per-batch partial: tokenize (shared tfidf regex), per-term
         ``tf``/``df_part``/``xor_part``/min/max — distinct-doc stats are
         exact after combining because each doc lives in exactly ONE
         batch; ``part = hash(term) % n_parts`` co-locates a term's
         partials;
      2. ONE groupby("part") shuffle: vectorized combine (sum/sum/XOR-
         reduceat/min/max) + df-filter + per-partition top-k;
      3. finalize over <= n_parts * k rows.
    At real scale the same pass writes the actual posting blocks as
    ``part=N/`` parquet alongside the summary; the summary IS the driver
    contract because it is what stays O(vocab) instead of O(corpus)."""
    import ray

    n_parts = max(4, int(ray.cluster_resources().get("CPU", 8)))

    def _term_stats(terms: np.ndarray, tfs: np.ndarray,
                    xors: np.ndarray, mins: np.ndarray, maxs: np.ndarray,
                    dfs: np.ndarray) -> pa.Table:
        """Combine rows of per-term partials into per-term stats via
        sort + reduceat — shared by the partial and combine stages."""
        order = np.argsort(terms, kind="stable")
        terms = terms[order]
        tfs, xors, mins, maxs, dfs = (tfs[order], xors[order], mins[order],
                                      maxs[order], dfs[order])
        starts = np.flatnonzero(
            np.r_[True, terms[1:] != terms[:-1]]) if len(terms) else \
            np.array([], np.int64)
        return pa.table({
            "term": pa.array(terms[starts], pa.string()),
            "tf": pa.array(np.add.reduceat(tfs, starts)
                           if len(starts) else tfs[:0], pa.int64()),
            "df": pa.array(np.add.reduceat(dfs, starts)
                           if len(starts) else dfs[:0], pa.int64()),
            "postings_xor": pa.array(
                np.bitwise_xor.reduceat(xors.astype(np.int64), starts)
                if len(starts) else xors[:0].astype(np.int64), pa.int64()),
            "min_doc": pa.array(np.minimum.reduceat(mins, starts)
                                if len(starts) else mins[:0], pa.int64()),
            "max_doc": pa.array(np.maximum.reduceat(maxs, starts)
                                if len(starts) else maxs[:0], pa.int64()),
        })

    def partial(t: pa.Table) -> pa.Table:
        import polars as pl

        doc = t["doc_id"].to_numpy()
        toks = (pl.Series(t["text"].combine_chunks())
                .str.to_lowercase().str.extract_all(r"[a-z0-9_]+"))
        n_per_doc = toks.list.len().to_numpy().astype(np.int64)
        flat = toks.explode(empty_as_null=True).drop_nulls()
        d = pl.DataFrame({"term": flat,
                          "doc": pl.Series(np.repeat(doc, n_per_doc))})
        tf_tbl = d.group_by("term").agg(tf=pl.len().cast(pl.Int64))
        uq = d.unique(["term", "doc"]).sort("term")
        ut = uq["term"].to_numpy()
        ud = uq["doc"].to_numpy()
        stats = _term_stats(ut, np.zeros(len(ut), np.int64), ud,
                            ud, ud, np.ones(len(ut), np.int64))
        # tf comes from the multiplicity table; align by sorted term order
        tf_sorted = tf_tbl.sort("term")["tf"].to_numpy()
        stats = stats.set_column(1, "tf", pa.array(tf_sorted, pa.int64()))
        return stats.append_column("part", pa.array(
            (pl.Series(stats["term"].combine_chunks()).hash(seed=7)
             % n_parts).cast(pl.Int64).to_numpy(), pa.int64()))

    def combine(t: pa.Table) -> pa.Table:
        terms = t["term"].to_numpy(zero_copy_only=False)
        stats = _term_stats(
            terms, t["tf"].to_numpy(), t["postings_xor"].to_numpy(),
            t["min_doc"].to_numpy(), t["max_doc"].to_numpy(),
            t["df"].to_numpy())
        keep = stats["df"].to_numpy() >= min_df
        stats = stats.filter(pa.array(keep))
        df_ = stats["df"].to_numpy()
        tm = stats["term"].to_numpy(zero_copy_only=False)
        from raycrawl.kernels import group_ranked_head

        idx, _ = group_ranked_head(np.zeros(len(df_), np.int8),
                                   (tm, -df_.astype(np.float64)), k)
        return stats.take(pa.array(idx, pa.int64()))

    parts = (
        _t(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(lambda t: combine(t.drop_columns(["part"])),
                    batch_format="pyarrow")
        .to_pandas()
    )
    parts = parts.sort_values(["df", "term"], ascending=[False, True],
                              kind="stable").head(k).reset_index(drop=True)
    parts.insert(0, "rnk", np.arange(1, len(parts) + 1, dtype=np.int64))
    return table_from_pandas(parts)


def inverted_index_stats_sql(min_df: int = 3, k: int = 100) -> str:
    return f"""
    WITH toks AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS term
      FROM documents),
    stats AS (
      SELECT term,
             CAST(count(*) AS BIGINT) AS tf,
             CAST(count(DISTINCT doc_id) AS BIGINT) AS df,
             CAST(bit_xor(DISTINCT doc_id) AS BIGINT) AS postings_xor,
             CAST(min(doc_id) AS BIGINT) AS min_doc,
             CAST(max(doc_id) AS BIGINT) AS max_doc
      FROM toks GROUP BY term)
    SELECT * FROM (
      SELECT CAST(row_number() OVER (ORDER BY df DESC, term) AS BIGINT)
               AS rnk,
             term, tf, df, postings_xor, min_doc, max_doc
      FROM stats WHERE df >= {min_df})
    WHERE rnk <= {k} ORDER BY rnk
    """


def bigram_collocations(sf_dir: str, min_count: int = 5,
                        k: int = 50) -> pa.Table:
    """Top-``k`` word-bigram collocations by an integer-exact PMI score —
    the corpus-statistics pass (Church & Hanks 1990 association ratio)
    a curation pipeline runs to find multi-word expressions worth
    protecting from tokenizer splits or boilerplate worth filtering.

    PMI's ``log`` is not bit-stable across engines, so the score is kept
    as the exact scaled rational the log is monotone in:
    ``pmi_ppm = c_ab * 1e6 * N_bigrams // (c_a * c_b)`` in arbitrary-
    precision ints (Python int here == HUGEINT in the mirrored SQL),
    ranked (pmi_ppm desc, w1, w2).

    Plan — counts are the only thing that ever shuffles:
      1. one tokenize pass emits per-batch (w1, w2, c, kind) count
         partials for BOTH unigrams (kind 0, w2='') and in-doc-adjacent
         bigrams (kind 1), hash-partitioned by (w1, w2);
      2. ONE groupby("part") shuffle combines them into exact global
         counts, materialized once and consumed twice;
      3. candidate bigrams (``c_ab >= min_count`` — the standard
         collocation support floor; WITHOUT it the candidate set is the
         full bigram vocabulary) and the total-bigram partials come back
         from one vectorized pass; a second broadcast-filtered pass
         fetches ONLY the unigram counts of words appearing in a
         candidate — the driver never holds the vocabulary, just the
         support-filtered candidates;
      4. driver: arbitrary-precision scoring of the small candidate
         table + top-k.
    """
    import ray

    n_parts = max(4, int(ray.cluster_resources().get("CPU", 8)))

    def partial(t: pa.Table) -> pa.Table:
        import polars as pl

        toks = (pl.Series(t["text"].combine_chunks())
                .str.to_lowercase().str.extract_all(r"[a-z0-9_]+"))
        n_per_doc = toks.list.len().to_numpy().astype(np.int64)
        flat = toks.explode(empty_as_null=True).drop_nulls().to_numpy()
        uni = pl.DataFrame({"w1": flat}).group_by("w1").agg(
            c=pl.len().cast(pl.Int64)).with_columns(
            w2=pl.lit(""), kind=pl.lit(0, pl.Int64))
        # in-doc adjacency: drop the pair straddling each doc boundary
        if len(flat) > 1:
            ends = np.cumsum(n_per_doc) - 1  # last token index per doc
            keep = np.ones(len(flat) - 1, dtype=bool)
            keep[ends[(ends >= 0) & (ends < len(flat) - 1)]] = False
            big = pl.DataFrame({"w1": flat[:-1][keep],
                                "w2": flat[1:][keep]}).group_by(
                ["w1", "w2"]).agg(c=pl.len().cast(pl.Int64)).with_columns(
                kind=pl.lit(1, pl.Int64))
        else:
            big = uni.clear()
        out = pl.concat([uni.select(["w1", "w2", "c", "kind"]),
                         big.select(["w1", "w2", "c", "kind"])])
        out = out.with_columns(
            part=((pl.col("w1") + "\x00" + pl.col("w2")).hash(seed=7)
                  % n_parts).cast(pl.Int64))
        return out.to_arrow().cast(pa.schema([
            ("w1", pa.string()), ("w2", pa.string()), ("c", pa.int64()),
            ("kind", pa.int64()), ("part", pa.int64())]))

    def combine(t: pa.Table) -> pa.Table:
        import polars as pl

        return (pl.from_arrow(t.select(["kind", "w1", "w2", "c"]))
                .group_by(["kind", "w1", "w2"]).agg(c=pl.col("c").sum())
                .to_arrow().cast(pa.schema([
                    ("kind", pa.int64()), ("w1", pa.string()),
                    ("w2", pa.string()), ("c", pa.int64())])))

    counts = (
        _t(sf_dir, "documents", ["text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(lambda t: combine(t.drop_columns(["part"])),
                    batch_format="pyarrow")
        .materialize()
    )

    # pass 3a: candidates + per-batch bigram totals. A batch whose
    # candidates are empty still must report its total, so emit a
    # sentinel row ('', '', 0, nb_part) and drop it on the driver.
    def cand_batch(t: pa.Table) -> pa.Table:
        kind = t["kind"].to_numpy()
        c = t["c"].to_numpy()
        bigm = kind == 1
        sel = bigm & (c >= min_count)
        w1 = t["w1"].to_numpy(zero_copy_only=False)[sel]
        w2 = t["w2"].to_numpy(zero_copy_only=False)[sel]
        cc = c[sel]
        nb = np.zeros(len(w1) + 1, np.int64)
        nb[0] = c[bigm].sum()
        return pa.table({
            "w1": pa.array(np.r_[["\x00total"], w1], pa.string()),
            "w2": pa.array(np.r_[[""], w2], pa.string()),
            "c": pa.array(np.r_[np.int64(0), cc], pa.int64()),
            "nb_part": pa.array(nb, pa.int64())})

    cand = counts.map_batches(cand_batch, batch_format="pyarrow").to_pandas()
    n_bigrams = int(cand["nb_part"].sum())
    cand = cand[cand["w1"] != "\x00total"].reset_index(drop=True)

    words = sorted(set(cand["w1"]) | set(cand["w2"]))
    words_ref = ray.put(np.array(words, dtype=object))

    def uni_batch(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc_

        need = ray.get(words_ref)
        sel = pc_.and_(pc_.equal(t["kind"], 0),
                       pc_.is_in(t["w1"], value_set=pa.array(need,
                                                             pa.string())))
        out = t.filter(sel)
        return pa.table({"w": out["w1"], "c": out["c"]})

    uni = counts.map_batches(uni_batch, batch_format="pyarrow").to_pandas()
    cw = dict(zip(uni["w"], (int(x) for x in uni["c"])))

    rows = []
    for w1, w2, c_ab in zip(cand["w1"], cand["w2"], cand["c"]):
        c_a, c_b = cw[w1], cw[w2]
        ppm = int(c_ab) * 1_000_000 * n_bigrams // (c_a * c_b)
        rows.append((w1, w2, int(c_ab), c_a, c_b, ppm))
    rows.sort(key=lambda r: (-r[5], r[0], r[1]))
    rows = rows[:k]
    out = pd.DataFrame(rows, columns=["w1", "w2", "c_ab", "c_a", "c_b",
                                      "pmi_ppm"])
    out.insert(0, "rnk", np.arange(1, len(out) + 1, dtype=np.int64))
    return table_from_pandas(out)


def bigram_collocations_sql(min_count: int = 5, k: int = 50) -> str:
    return f"""
    WITH t AS (SELECT regexp_extract_all(lower(text), '[a-z0-9_]+') AS toks
               FROM documents),
    u AS (SELECT unnest(toks) AS w FROM t),
    uc AS (SELECT w, CAST(count(*) AS BIGINT) AS c FROM u GROUP BY w),
    b AS (SELECT unnest(list_transform(
                   range(1, len(toks)),
                   i -> struct_pack(w1 := toks[i], w2 := toks[i+1]))) AS pr
          FROM t WHERE len(toks) >= 2),
    bc AS (SELECT pr.w1 AS w1, pr.w2 AS w2,
                  CAST(count(*) AS BIGINT) AS c_ab
           FROM b GROUP BY 1, 2),
    n AS (SELECT CAST(coalesce(sum(c_ab), 0) AS HUGEINT) AS nb FROM bc),
    sc AS (SELECT w1, w2, c_ab, ua.c AS c_a, ub.c AS c_b,
                  CAST(CAST(c_ab AS HUGEINT) * 1000000 * (SELECT nb FROM n)
                       // (CAST(ua.c AS HUGEINT) * ub.c) AS BIGINT)
                    AS pmi_ppm
           FROM bc JOIN uc ua ON bc.w1 = ua.w JOIN uc ub ON bc.w2 = ub.w
           WHERE c_ab >= {min_count})
    SELECT * FROM (
      SELECT CAST(row_number() OVER (ORDER BY pmi_ppm DESC, w1, w2)
                  AS BIGINT) AS rnk,
             w1, w2, c_ab, c_a, c_b, pmi_ppm
      FROM sc)
    WHERE rnk <= {k} ORDER BY rnk
    """


def word_counts(sf_dir: str, top_words: int = 4096) -> pa.Table:
    """Global word-frequency table, capped to the ``top_words`` most
    frequent (count desc, word asc — content-deterministic). The ONE
    corpus-sized pass behind BPE training (``bpe_learned_merges``):
    per-batch polars partials → ONE groupby(part) combine with a
    per-partition top cap (a word's global count lands in exactly one
    partition, so the per-partition cap is safe: the global top-``k``
    is a subset of the union of per-partition top-``k``) → tiny driver
    finalize over ≤ n_parts·top_words rows. Same tokenizer and shuffle
    discipline as ``tfidf_top_terms``/``inverted_index_stats``."""
    import polars as pl
    import ray

    n_parts = max(4, int(ray.cluster_resources().get("CPU", 8)))

    def partial(t: pa.Table) -> pa.Table:
        toks = (pl.Series(t["text"].combine_chunks())
                .str.to_lowercase().str.extract_all(r"[a-z0-9_]+"))
        flat = toks.explode(empty_as_null=True).drop_nulls()
        d = (pl.DataFrame({"word": flat})
             .group_by("word").agg(cnt=pl.len().cast(pl.Int64)))
        return pa.table({
            "word": pa.array(d["word"].to_numpy(), pa.string()),
            "cnt": pa.array(d["cnt"].to_numpy(), pa.int64()),
            "part": pa.array((d["word"].hash(seed=7) % n_parts)
                             .cast(pl.Int64).to_numpy(), pa.int64()),
        })

    def combine(t: pa.Table) -> pa.Table:
        w = t["word"].to_numpy(zero_copy_only=False)
        c = t["cnt"].to_numpy()
        order = np.argsort(w, kind="stable")
        w, c = w[order], c[order]
        starts = (np.flatnonzero(np.r_[True, w[1:] != w[:-1]])
                  if len(w) else np.array([], np.int64))
        uw = w[starts]
        uc = (np.add.reduceat(c, starts) if len(starts)
              else c[:0]).astype(np.int64)
        top = np.lexsort((uw, -uc))[:top_words]
        return pa.table({"word": pa.array(uw[top], pa.string()),
                         "cnt": pa.array(uc[top], pa.int64())})

    out = (
        _t(sf_dir, "documents", ["text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(lambda t: combine(t.drop_columns(["part"])),
                    batch_format="pyarrow")
        .to_pandas()
        .sort_values(["cnt", "word"], ascending=[False, True],
                     kind="stable")
        .head(top_words)
        .reset_index(drop=True)
    )
    from raycrawl.kernels import table_from_pandas

    return table_from_pandas(out)


def word_counts_sql(top_words: int = 4096) -> str:
    return f"""
    SELECT word, CAST(count(*) AS BIGINT) AS cnt FROM (
      SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS word
      FROM documents)
    GROUP BY word
    QUALIFY row_number() OVER (ORDER BY count(*) DESC, word) <= {top_words}
    ORDER BY cnt DESC, word
    """


def bpe_learned_merges(sf_dir: str, n_merges: int = 24,
                       top_words: int = 4096) -> pa.Table:
    """Distributed BPE tokenizer TRAINING — learn the merge table itself
    (the artifact a pre-training run tokenizes with), not just apply a
    fixed pre-tokenizer. Byte-pair encoding per Sennrich, Haddow & Birch
    2016 (arXiv:1508.07909), greedy most-frequent-adjacent-pair merges.

    100 TB shape (and how production BPE trainers are built): the merge
    statistics depend on the corpus ONLY through the word→count table, so
    the corpus-sized stage is ONE word-frequency reduce
    (``word_counts`` — per-batch partials, one hash shuffle, capped
    vocabulary), and the merge loop runs on the driver over O(vocab)
    data: O(vocab·merges) work independent of corpus size. Scaling the
    corpus 1000× does not grow the driver stage at all.

    Determinism (everything pinned by test): vocabulary capped to
    ``top_words`` by (count desc, word); each round's winner is the
    max-count pair with ties broken by lexicographically smallest
    (left, right); loop stops early when the best pair count < 2 (a
    pair seen once compresses nothing). Words are split to single
    characters with a '</w>' end-of-word sentinel appended, so merges
    crossing the sentinel encode word-final units, as in the paper.

    Rows-only driver row by nature (iterative, data-dependent selection —
    not single-statement SQL); the merge table is pytest-pinned against
    an independent reference implementation over DuckDB-computed word
    counts, and ``word_counts`` itself is oracle-checked."""
    wc = word_counts(sf_dir, top_words=top_words)
    words = wc["word"].to_pylist()
    counts = wc["cnt"].to_pylist()
    syms = [tuple(w) + ("</w>",) for w in words]

    out_rank: list[int] = []
    out_left: list[str] = []
    out_right: list[str] = []
    out_tok: list[str] = []
    out_cnt: list[int] = []
    for rank in range(n_merges):
        pair_counts: dict[tuple, int] = {}
        for s, c in zip(syms, counts):
            for a, b in zip(s, s[1:]):
                pair_counts[(a, b)] = pair_counts.get((a, b), 0) + c
        if not pair_counts:
            break
        best_c = max(pair_counts.values())
        if best_c < 2:
            break
        left, right = min(p for p, c in pair_counts.items() if c == best_c)
        tok = left + right
        out_rank.append(rank)
        out_left.append(left)
        out_right.append(right)
        out_tok.append(tok)
        out_cnt.append(best_c)
        merged = []
        for s in syms:
            ns, i = [], 0
            while i < len(s):
                if i + 1 < len(s) and s[i] == left and s[i + 1] == right:
                    ns.append(tok)
                    i += 2
                else:
                    ns.append(s[i])
                    i += 1
            merged.append(tuple(ns))
        syms = merged

    return pa.table({
        "rank": pa.array(out_rank, pa.int64()),
        "left": pa.array(out_left, pa.string()),
        "right": pa.array(out_right, pa.string()),
        "token": pa.array(out_tok, pa.string()),
        "pair_count": pa.array(out_cnt, pa.int64()),
    })


class _BpeApplyStats:
    """Actor-pool stage for applying a LEARNED merge table to the corpus
    (the serve-side half of ``bpe_learned_merges``): the merge list is
    built once per actor in ``__init__`` (broadcast small side — sent to
    each worker once, never per batch) and each word's token count is
    memoized per worker, so per-batch work is vectorized numpy over the
    batch's distinct words only. Merges are applied in RANK ORDER with
    all occurrences replaced per pass — exactly the training loop's
    semantics, so in-vocab words reproduce the training segmentation and
    any OOV word still tokenizes deterministically."""

    def __init__(self, merges: list):
        self.merges = merges
        self.cache: dict = {}

    def _n_tokens(self, word: str) -> int:
        n = self.cache.get(word)
        if n is None:
            syms = list(word) + ["</w>"]
            for left, right, tok in self.merges:
                i, out = 0, []
                while i < len(syms):
                    if (i + 1 < len(syms) and syms[i] == left
                            and syms[i + 1] == right):
                        out.append(tok)
                        i += 2
                    else:
                        out.append(syms[i])
                        i += 1
                syms = out
            n = len(syms)
            self.cache[word] = n
        return n

    def __call__(self, t: pa.Table) -> pa.Table:
        import polars as pl

        s = pl.Series(t["text"].combine_chunks())
        toks = s.str.to_lowercase().str.extract_all(r"[a-z0-9_]+")
        n_per_doc = toks.list.len().to_numpy().astype(np.int64)
        flat = toks.explode(empty_as_null=True).drop_nulls().to_numpy()
        uniq, inv = np.unique(flat, return_inverse=True)
        per_word = np.fromiter((self._n_tokens(w) for w in uniq),
                               dtype=np.int64, count=len(uniq))
        doc_tokens = np.zeros(len(t), dtype=np.int64)
        np.add.at(doc_tokens, np.repeat(np.arange(len(t)), n_per_doc),
                  per_word[inv])
        chars = s.str.len_chars().to_numpy().astype(np.int64)
        lang = t["lang"].to_numpy(zero_copy_only=False)
        order = np.argsort(lang, kind="stable")
        lg = lang[order]
        starts = (np.flatnonzero(np.r_[True, lg[1:] != lg[:-1]])
                  if len(lg) else np.array([], np.int64))

        def seg(v):
            return (np.add.reduceat(v[order], starts) if len(starts)
                    else v[:0]).astype(np.int64)

        return pa.table({
            "lang": pa.array(lg[starts] if len(starts) else lg[:0],
                             pa.string()),
            "docs": pa.array(seg(np.ones(len(t), np.int64))),
            "words": pa.array(seg(n_per_doc)),
            "chars": pa.array(seg(chars)),
            "bpe_tokens": pa.array(seg(doc_tokens)),
        })


def bpe_compression_by_lang(sf_dir: str, n_merges: int = 24,
                            top_words: int = 4096) -> pa.Table:
    """Per-language compression statistics of the corpus under the
    LEARNED BPE tokenizer — the measurement that closes the tokenizer
    lane (learn → apply → evaluate): docs/words/chars/tokens per lang
    plus an integer-exact ``chars_per_ktok`` (chars·1000 // tokens).

    100 TB shape: ``bpe_learned_merges`` already reduced the corpus to a
    word→count table; the apply pass here is the second and only other
    corpus-sized stage — an actor-pool map with the merge table built
    once per worker in ``__init__`` and a per-worker token-count memo,
    emitting bounded-cardinality per-lang partials (zero shuffle,
    driver combines ≤ langs·batches rows). Rows-only driver row by
    nature (BPE apply is not single-statement SQL); pytest pins every
    column against a reference that applies the same merge table to
    DuckDB-computed per-(lang, word) counts."""
    m = bpe_learned_merges(sf_dir, n_merges=n_merges, top_words=top_words)
    merges = list(zip(m["left"].to_pylist(), m["right"].to_pylist(),
                      m["token"].to_pylist()))

    parts = (
        _t(sf_dir, "documents", ["text", "lang"])
        .map_batches(_BpeApplyStats, fn_constructor_args=(merges,),
                     concurrency=(1, 8), batch_format="pyarrow")
        .to_pandas()
    )
    out = (parts.groupby("lang", as_index=False)
           [["docs", "words", "chars", "bpe_tokens"]].sum()
           .sort_values("lang").reset_index(drop=True))
    out["chars_per_ktok"] = (
        out["chars"].to_numpy() * 1000
        // np.maximum(1, out["bpe_tokens"].to_numpy()))
    from raycrawl.kernels import table_from_pandas

    return table_from_pandas(out)
