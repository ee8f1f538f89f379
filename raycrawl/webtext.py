"""Page-level webtext operators over Common-Crawl-style pages
(``url, warc_ts, html:binary, text, lang`` — BASELINE.json input_hint).

Two operators a web-corpus curation pipeline runs between the crawl and
the document-level lanes (dedup/quality/tokenize):

- **anchor-text link index** — harvest every ``<a href>ANCHOR</a>`` pair
  and aggregate per target URL (in-link count, distinct referring pages,
  dominant anchor text). This is the classic web-search document-expansion
  signal (anchor text describes the TARGET page better than its own body
  — Brin & Page 1998 §2.2) and, for training-data curation, a page-level
  popularity prior. Reference parity: the reference harvests hrefs per
  page with BeautifulSoup and builds the link graph in Neo4j
  (crawler.rs:18-51, url_utils.rs); this operator is the corpus-wide
  aggregate view of those same edges, keyed by the raw href string.
- **curated web corpus** — corpus-wide paragraph dedup, then a
  line-based content filter in the jusText/trafilatura family: navigation
  crumbs, bare link labels and title lines carry < 3 whitespace tokens
  and are dropped; prose lines survive. Deterministic rules, so the
  DuckDB oracle recomputes them exactly (``list_filter`` lambda over the
  split lines).

100 TB shape:
- extraction is a stateless per-page ``map_batches`` (zero shuffle,
  polars-vectorized regex — compiled once per worker by polars itself);
- the link index does its per-batch combine FIRST (groupby
  ``(href, anchor, src)`` inside the batch collapses the heavy
  duplication of repeated site-furniture links) and then ONE Ray
  ``groupby(href)`` — the same key a downstream join against the page
  table would use, so the exchange is reusable;
- boilerplate strip is embarrassingly parallel (no shuffle at all).

Both run over the deterministic demo corpus (the driver's sf tables have
no html column) and their oracles read the SAME parquet via DuckDB, so
correctness is a true independent recomputation.
"""

from __future__ import annotations

import pyarrow as pa

# One pattern, shared verbatim by the Ray extraction and the SQL oracle —
# group 1 = href, group 2 = anchor text.
#
# HTML envelope (tests/test_webtext_envelope.py pins every row of this
# table against BOTH engines — polars extract_all and DuckDB
# regexp_extract_all behave identically because both are RE2):
#
#   PARSED:
#   - `<a href="URL">text</a>` — lowercase tag, href as FIRST attribute,
#     double-quoted value;
#   - extra attributes AFTER href (`<a href="u" class="x" id=y>`);
#   - multi-line PLAIN anchor text (a negated class matches newlines in
#     RE2, unlike `.`);
#   - several anchors on one line (each match is quote-bounded);
#   - empty href and/or empty anchor text;
#   - HTML entities in href/text (kept verbatim, NOT decoded).
#
#   NOT PARSED (silently skipped — acceptable for the synthetic corpus,
#   whose renderer emits only the parsed forms; a real-corpus user needs
#   a tolerant parser stage here):
#   - single-quoted or unquoted href (`href='u'`, `href=u`);
#   - uppercase/mixed-case tag or attribute (`<A HREF=`, `<a HREF=`);
#   - attributes BEFORE href (`<a class="x" href="u">`);
#   - extra/ newline whitespace between `<a` and `href` (pattern requires
#     exactly one space);
#   - anchor text containing nested markup (`<a href="u"><b>t</b></a>` —
#     `[^<]*` cannot cross a tag, so the whole anchor is missed, not
#     truncated);
#   - unclosed anchors and `</a >` variants;
#   - attribute values containing a literal `>` after href (the `[^>]*`
#     attribute tail stops at the first `>`, truncating the element — the
#     href itself is still correct but the anchor text may be wrong).
ANCHOR_PAT = '<a href="([^"]*)"[^>]*>([^<]*)</a>'

# a line is "content" iff it carries at least this many whitespace tokens
# (bare anchor labels / nav crumbs / title lines have 1-2)
MIN_CONTENT_TOKENS = 3

# paragraph dedup: a line appearing in MORE than this many distinct pages
# is corpus-wide boilerplate and is removed from every page (CCNet-style)
PARA_DF_CAP = 10


def _pages_path() -> str:
    from raycrawl.corpus import ensure_corpus

    import os

    return os.path.join(ensure_corpus("tiny"), "pages.parquet")


# ---------------------------------------------------------------------------
# anchor-text link index
# ---------------------------------------------------------------------------

def _extract_anchor_partial(t: pa.Table) -> pa.Table:
    """(url, html) batch → per-batch combined (href, anchor, src, n)
    partial counts. Vectorized: polars extract_all → explode → two group
    extracts, then an in-batch groupby collapses repeated links before
    anything hits the exchange."""
    import polars as pl

    df = pl.from_arrow(
        pa.table({"src": t["url"], "h": t["html"].cast(pa.string())}))
    ex = (
        df.with_columns(pl.col("h").str.extract_all(ANCHOR_PAT).alias("m"))
        .select("src", "m")
        .explode("m")
        .drop_nulls("m")
        # extract_groups: both capture groups in one regex pass per match
        # (A/B-measured equal to the two-extract form at bench scale —
        # match strings are short, so the extra scans were noise — kept
        # for the single pass; empty captures are "" in both forms)
        .with_columns(pl.col("m").str.extract_groups(ANCHOR_PAT).alias("g"))
        .unnest("g")
        .rename({"1": "href", "2": "anchor"})
        .group_by("href", "anchor", "src")
        .len(name="n")
    )
    out = ex.to_arrow()
    return out.cast(pa.schema([("href", pa.string()), ("anchor", pa.string()),
                               ("src", pa.string()), ("n", pa.int64())]))


def _summarize_href_partition(t: pa.Table) -> pa.Table:
    """One hash partition of partial counts → one index row per href in
    it, ALL hrefs aggregated vectorized in polars (a per-href map_groups
    measured 5M Python group calls / 511 s on the 1.2M-page bench corpus;
    this shape does the same work in ~32 partition calls). Ties on the
    top anchor break to the lexicographically smallest anchor (matches
    the oracle's ORDER BY cnt DESC, anchor)."""
    import polars as pl

    df = pl.from_arrow(t.select(["href", "anchor", "src", "n"]))
    per_href = df.group_by("href").agg(
        pl.col("n").sum().alias("n_refs"),
        pl.col("src").n_unique().cast(pl.Int64).alias("n_src_pages"))
    top = (df.group_by("href", "anchor").agg(pl.col("n").sum().alias("cnt"))
           .sort(["href", "cnt", "anchor"], descending=[False, True, False])
           .group_by("href", maintain_order=True)
           .first()
           .select("href", pl.col("anchor").alias("top_anchor"),
                   pl.col("cnt").alias("top_anchor_n")))
    out = per_href.join(top, on="href").to_arrow()
    return out.cast(pa.schema([
        ("href", pa.string()), ("n_refs", pa.int64()),
        ("n_src_pages", pa.int64()), ("top_anchor", pa.string()),
        ("top_anchor_n", pa.int64())]))


def anchor_text_index(sf_dir: str) -> pa.Table:
    """Per-target in-link index over the demo corpus pages: for every href
    string appearing in any page, (n_refs, n_src_pages, top_anchor,
    top_anchor_n). ``sf_dir`` is unused (crawl-family convention — the sf
    tables carry no html).

    Shape: per-batch extraction+combine partials → ONE hash-partition
    exchange on href (equal hrefs co-locate, so per-partition polars
    aggregates are final) → vectorized per-partition summarize. No
    per-group Python anywhere; partition count follows cluster CPUs."""
    import numpy as np
    import ray

    from raycrawl.kernels import hash128

    n_parts = (max(8, int(ray.cluster_resources().get("CPU", 8)))
               if ray.is_initialized() else 8)

    def add_part(t: pa.Table) -> pa.Table:
        hi, _lo = hash128(t["href"].combine_chunks().cast(pa.string()))
        part = (hi % np.uint64(n_parts)).astype(np.int32)
        return t.append_column("part", pa.array(part, pa.int32()))

    ds = ray.data.read_parquet(_pages_path(), columns=["url", "html"])
    partials = (ds.map_batches(_extract_anchor_partial,
                               batch_format="pyarrow")
                .map_batches(add_part, batch_format="pyarrow"))
    out = partials.groupby("part").map_groups(
        lambda t: _summarize_href_partition(t), batch_format="pyarrow")
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def anchor_text_index_sql() -> str:
    p = _pages_path()
    return f"""
    WITH pg AS (SELECT url AS src, decode(html) AS h
                FROM read_parquet('{p}')),
    m AS (SELECT src,
            unnest(list_zip(regexp_extract_all(h, '{ANCHOR_PAT}', 1),
                            regexp_extract_all(h, '{ANCHOR_PAT}', 2))) AS z
          FROM pg),
    t AS (SELECT src, z[1] AS href, z[2] AS anchor FROM m),
    a AS (SELECT href, anchor, count(*) AS cnt FROM t GROUP BY href, anchor),
    r AS (SELECT href, anchor, cnt,
                 row_number() OVER (PARTITION BY href
                                    ORDER BY cnt DESC, anchor) AS rn,
                 sum(cnt) OVER (PARTITION BY href) AS n_refs
          FROM a),
    s AS (SELECT href, count(DISTINCT src) AS n_src_pages FROM t GROUP BY href)
    SELECT r.href,
           CAST(r.n_refs AS BIGINT) AS n_refs,
           CAST(s.n_src_pages AS BIGINT) AS n_src_pages,
           r.anchor AS top_anchor,
           CAST(r.cnt AS BIGINT) AS top_anchor_n
    FROM r JOIN s USING (href)
    WHERE r.rn = 1
    """


# ---------------------------------------------------------------------------
# curated web corpus: paragraph dedup + boilerplate strip
# ---------------------------------------------------------------------------

def _line_pairs_batch(t: pa.Table) -> pa.Table:
    """(url, text) batch → one row per distinct (line, url) pair, keyed by
    the line's md5_u64. Pages are batch-disjoint under map_batches, so
    in-batch unique pairs are globally unique — downstream row counts per
    key ARE distinct-page counts, no second dedup needed."""
    import polars as pl

    from raycrawl.kernels import md5_u64_arrow

    df = pl.from_arrow(pa.table({"url": t["url"], "text": t["text"]}))
    ex = (df.with_columns(pl.col("text").str.split("\n").alias("line"))
          .select("url", "line").explode("line").unique())
    lines = ex.get_column("line").to_arrow().cast(pa.string())
    return pa.table({"lh": pa.array(md5_u64_arrow(lines), pa.uint64())})


def _hot_lines(pages) -> "object":
    """Corpus-wide boilerplate set: md5_u64 of every line appearing in
    more than PARA_DF_CAP distinct pages — sorted uint64 array, bounded by
    total_line_occurrences / PARA_DF_CAP, so always broadcastable."""
    import numpy as np
    import pyarrow.compute as pc

    from raycrawl.dedup import _count_by_key_partitioned

    pairs = pages.map_batches(_line_pairs_batch, batch_format="pyarrow")
    counts = _count_by_key_partitioned(pairs, ("lh",), "d")
    hot = counts.map_batches(
        lambda t: t.filter(pc.greater(t["d"], PARA_DF_CAP)).select(["lh"]),
        batch_format="pyarrow")
    return np.sort(hot.to_pandas()["lh"].to_numpy().astype(np.uint64))


# composed pages-lane pipeline: a page survives with at least this many
# whitespace tokens after both cleaning stages
MIN_PAGE_TOKENS = 50


def web_corpus_curated(sf_dir: str) -> pa.Table:
    """The composed web-corpus curation pipeline over Common-Crawl-style
    pages — the pages-lane sibling of the documents-lane flagship
    (`pipeline.training_corpus`): corpus-wide paragraph dedup (drop lines
    in > PARA_DF_CAP distinct pages) → local boilerplate strip (drop lines
    under MIN_CONTENT_TOKENS whitespace tokens) → token floor (drop pages
    under MIN_PAGE_TOKENS surviving tokens) → per-page summary
    (url, lang, n_paras, n_kept, n_tokens, text_md5).

    Shape: ONE bounded count shuffle for the hot-line set (broadcast),
    then a single stateless cleaning pass — both filters and the md5 fuse
    into one map_batches, so the page table is scanned exactly twice
    (hot-set pass + apply pass) at any scale."""
    import numpy as np
    import polars as pl
    import ray

    from raycrawl.kernels import md5_hex_arrow, md5_u64_arrow

    path = _pages_path()
    hot = _hot_lines(ray.data.read_parquet(path, columns=["url", "text"]))

    def clean_batch(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(pa.table(
            {"url": t["url"], "lang": t["lang"], "text": t["text"]}))
        ex = (df.with_columns(pl.col("text").str.split("\n").alias("line"))
              .select("url", "line").explode("line"))
        lh = md5_u64_arrow(ex.get_column("line").to_arrow().cast(pa.string()))
        if len(hot):
            idx = np.minimum(np.searchsorted(hot, lh), len(hot) - 1)
            is_hot = hot[idx] == lh
        else:
            is_hot = np.zeros(len(lh), bool)
        kept = (ex.with_columns(
                    pl.Series("hot", is_hot),
                    pl.col("line").str.count_matches("[^ ]+").cast(pl.Int64)
                    .alias("ntok"))
                .filter(~pl.col("hot")
                        & (pl.col("ntok") >= MIN_CONTENT_TOKENS))
                .group_by("url", maintain_order=True)
                .agg(pl.col("line").count().cast(pl.Int64).alias("n_kept"),
                     pl.col("ntok").sum().alias("n_tokens"),
                     pl.col("line").str.join("\n").alias("clean_text"))
                .filter(pl.col("n_tokens") >= MIN_PAGE_TOKENS))
        out = (df.with_columns(
                   pl.col("text").str.split("\n").list.len().cast(pl.Int64)
                   .alias("n_paras"))
               .join(kept, on="url", how="inner")
               .select("url", "lang", "n_paras", "n_kept", "n_tokens",
                       "clean_text"))
        tbl = out.to_arrow()
        md5 = md5_hex_arrow(tbl["clean_text"].combine_chunks()
                            .cast(pa.string()))
        return (tbl.drop_columns(["clean_text"])
                .append_column("text_md5", md5)
                .cast(pa.schema([
                    ("url", pa.string()), ("lang", pa.string()),
                    ("n_paras", pa.int64()), ("n_kept", pa.int64()),
                    ("n_tokens", pa.int64()), ("text_md5", pa.string())])))

    out = (ray.data.read_parquet(path, columns=["url", "lang", "text"])
           .map_batches(clean_batch, batch_format="pyarrow"))
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def web_corpus_curated_sql() -> str:
    p = _pages_path()
    return f"""
    WITH pg AS (SELECT url, lang, string_split(text, chr(10)) AS lines
                FROM read_parquet('{p}')),
    e AS (SELECT url, unnest(lines) AS line,
                 generate_subscripts(lines, 1) AS pos
          FROM pg),
    df AS (SELECT md5_number_lower(line) AS lh, count(DISTINCT url) AS d
           FROM e GROUP BY 1),
    k AS (SELECT e.url, e.line, e.pos,
                 len(regexp_extract_all(e.line, '[^ ]+')) AS ntok
          FROM e JOIN df ON md5_number_lower(e.line) = df.lh
          WHERE df.d <= {PARA_DF_CAP}
            AND len(regexp_extract_all(e.line, '[^ ]+'))
                >= {MIN_CONTENT_TOKENS}),
    agg AS (SELECT url, count(*) AS n_kept,
                   sum(ntok) AS n_tokens,
                   md5(string_agg(line, chr(10) ORDER BY pos)) AS text_md5
            FROM k GROUP BY url)
    SELECT pg.url, pg.lang,
           CAST(len(pg.lines) AS BIGINT) AS n_paras,
           CAST(agg.n_kept AS BIGINT) AS n_kept,
           CAST(agg.n_tokens AS BIGINT) AS n_tokens,
           agg.text_md5
    FROM pg JOIN agg USING (url)
    WHERE agg.n_tokens >= {MIN_PAGE_TOKENS}
    """


