"""The composed flagship: crawl-style corpus -> dedup apply -> quality
filter -> reproducible shuffle -> partitioned JSONL export.

This is the end-to-end training-data pipeline the individual operators
exist for (reference analogue: the corpus the crawler accumulates is only
useful after cleaning; web_crawler itself stops at the graph —
crawler/src/main.rs:1 — so everything past dedup is the beyond-reference
LLM lane). Every stage reuses the already-oracled pieces:

- dedup apply     — ``dedup.removal_ids`` (exact md5 + near-dup clusters,
                    driver union-find component fold), broadcast searchsorted
                    filter: no shuffle touches the wide table;
- quality filter  — ``textops.quality_score_batch`` scores fused into the
                    SAME map_batches pass, rows below ``min_quality``
                    dropped before they ever reach the sort;
- shuffle         — the seed-salted Knuth-hash sort key of
                    ``relational.documents_shuffled`` (identical
                    permutation across runs / partitionings / cluster
                    sizes, SQL-reproducible);
- export          — ``io_sinks.export_jsonl_partitioned`` (single scan,
                    atomic shards, per-shard resume).

Scale shape: ONE streaming pass over documents computes score + applies
both filters (the removal set is broadcast via ``ray.put``, bounded by
dup volume), then the one unavoidable all-to-all (the shuffle sort), then
the export's own single routing shuffle. Nothing materializes the corpus
on the driver except the small-sf driver-contract table.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from raycrawl.kernels import knuth_key32, table_from_pandas

from raycrawl.dedup import removal_ids
from raycrawl.relational import _t
from raycrawl.textops import quality_score_batch


def _clean_keyed_dataset(sf_dir: str, threshold: float, df_cap: int,
                         min_quality: float, seed: int, columns: list[str],
                         substring_k: int | None = None,
                         mixture_bp: dict | None = None,
                         mixture_seed: int = 11,
                         lm_min_known_ppm: int | None = None,
                         lm_ref_mod: int = 13):
    """documents -> (dedup + optional substring scrub + quality filter +
    shuffle key) in one fused map_batches pass; returns the UNSORTED
    Dataset (the caller decides whether to pay the global sort or let the
    export's routing shuffle subsume it). ``columns`` are the payload
    columns carried through (doc_id and text are always read; text is
    dropped unless requested). With ``substring_k`` set, duplicated
    k-word-gram spans are scrubbed from surviving docs' text BEFORE
    quality scoring (dedup.substring_* semantics; the scrub's removal set
    broadcasts like the doc-level one, bounded by duplicated-span
    volume). Two more opt-in gates, both broadcast-shaped so the fused
    pass stays zero-shuffle: ``mixture_bp`` applies the per-source
    Bernoulli of ``relational.documents_mixture_sample`` (reads the
    ``source`` column; its draw is salted by ``mixture_seed``,
    independent of the shuffle's), and ``lm_min_known_ppm`` keeps only
    docs whose known-bigram ratio against the ``textops.lm_bigram_model``
    reference model is at least that many parts-per-million (the
    CCNet-style LM gate; scored on the batch's CURRENT text, i.e. after
    a substring scrub when both are enabled; zero-bigram docs pass)."""
    import ray

    from raycrawl.dedup import _scrub_norm_texts, substring_removal_packed

    rm_ref = ray.put(removal_ids(sf_dir, threshold, df_cap))
    sub_ref = (ray.put(substring_removal_packed(sf_dir, substring_k))
               if substring_k else None)
    lm_ref = None
    if lm_min_known_ppm is not None:
        from raycrawl.textops import lm_bigram_model

        lm_ref = ray.put(lm_bigram_model(sf_dir, ref_mod=lm_ref_mod))
    read_cols = sorted({"doc_id", "text",
                        *(("source",) if mixture_bp else ()), *columns})

    def clean(t: pa.Table) -> pa.Table:
        rm = ray.get(rm_ref)
        if len(rm):
            ids = t["doc_id"].to_numpy()
            pos = np.clip(np.searchsorted(rm, ids), 0, len(rm) - 1)
            t = t.filter(pa.array(rm[pos] != ids))
        if mixture_bp:
            from raycrawl.relational import mixture_keep_mask

            t = t.filter(pa.array(mixture_keep_mask(t, mixture_bp,
                                                    mixture_seed)))
        if sub_ref is not None:
            import polars as pl

            sub = ray.get(sub_ref)
            ids = t["doc_id"].to_numpy()
            # inclusive upper bound — (id + 1) << 32 wraps to 0 at
            # id == 2^32 - 1 (see dedup.substring_dedup_apply)
            lo = np.searchsorted(sub, ids.astype(np.uint64) << np.uint64(32))
            hi = np.searchsorted(sub, (ids.astype(np.uint64) << np.uint64(32))
                                 | np.uint64(0xFFFFFFFF), side="right")
            aff = np.flatnonzero(hi > lo)
            if len(aff):
                import pyarrow.compute as pc

                # normalize + scrub ONLY the affected rows, then splice them
                # back with one Arrow if_else — a batch with a handful of
                # affected docs must not pay full-batch to_pylist boxing
                aff_texts = pc.take(t["text"],
                                    pa.array(aff, pa.int64())).to_pylist()
                norm = (pl.Series("t", aff_texts)
                        .str.strip_chars().str.replace_all(r"\s+", " "))
                pos_rows = [
                    (sub[lo[i]:hi[i]] & np.uint64(0xFFFFFFFF)).astype(np.int64)
                    for i in aff
                ]
                scrubbed, _ = _scrub_norm_texts(
                    list(norm), np.zeros(len(aff), np.int64), pos_rows,
                    substring_k)
                repl = np.full(t.num_rows, None, dtype=object)
                repl[aff] = scrubbed
                mask = np.zeros(t.num_rows, dtype=bool)
                mask[aff] = True
                t = t.set_column(
                    t.schema.get_field_index("text"), "text",
                    pc.if_else(pa.array(mask), pa.array(repl, pa.string()),
                               t["text"]))
        if lm_ref is not None:
            from raycrawl.textops import lm_known_counts

            mh, mc = ray.get(lm_ref)
            # Arrow column straight through (zero-boxing gram fast path)
            nb, known, _mass = lm_known_counts(t["text"], mh, mc)
            # integer-exact ratio test: known/nb >= ppm/1e6
            t = t.filter(pa.array(known * 1_000_000 >= lm_min_known_ppm * nb))
        q = quality_score_batch(t)["quality"].to_numpy()
        t = t.append_column("quality", pa.array(q))
        t = t.filter(pa.array(q >= min_quality))
        h = knuth_key32(t["doc_id"].to_numpy(), seed)
        t = t.append_column("shuffle_key", pa.array(h.astype(np.int64)))
        return t.select([*(c for c in read_cols if c in columns or c == "doc_id"),
                         "quality", "shuffle_key"])

    return _t(sf_dir, "documents", read_cols).map_batches(
        clean, batch_format="pyarrow")


def training_corpus(sf_dir: str, threshold: float = 0.6, df_cap: int = 1000,
                    min_quality: float = 0.52, seed: int = 7) -> pa.Table:
    """Driver-contract entry: the cleaned corpus in its final pre-training
    order, position-stamped so equality with the oracle is ORDER-SENSITIVE
    (the permutation itself is checked, not just the surviving set)."""
    ds = _clean_keyed_dataset(sf_dir, threshold, df_cap, min_quality, seed,
                              columns=["doc_id", "lang", "n_chars"])
    out = ds.sort(["shuffle_key", "doc_id"]).to_pandas().reset_index(drop=True)
    out["pos"] = np.arange(len(out), dtype=np.int64)
    return table_from_pandas(out[["pos", "doc_id", "lang", "n_chars", "quality", "shuffle_key"]])


def training_corpus_sql(threshold: float = 0.6, df_cap: int = 1000,
                        min_quality: float = 0.52, seed: int = 7) -> str:
    """One SQL statement recomputing the whole pipeline: the dedup removal
    set (recursive-CTE components over the same df-capped pair spec), the
    quality expression (bit-identical int/int arithmetic), and the salted
    Knuth-hash shuffle window."""
    from raycrawl.dedup import _jaccard_pairs_sql
    from raycrawl.textops import quality_scores_sql

    pairs = _jaccard_pairs_sql(threshold, df_cap=df_cap)
    salt = (seed * 2654435761) % (1 << 32)
    return f"""
    WITH RECURSIVE pr AS ({pairs}),
    e AS (SELECT a, b FROM pr UNION SELECT b AS a, a AS b FROM pr),
    n AS (SELECT DISTINCT a AS d FROM e),
    reach(s, t) AS (
      SELECT d, d FROM n
      UNION
      SELECT r.s, e.b FROM reach r JOIN e ON e.a = r.t
    ),
    lbl AS (SELECT s AS doc_id, min(t) AS keeper FROM reach GROUP BY s),
    exact_rm AS (
      SELECT doc_id FROM (
        SELECT doc_id, min(doc_id) OVER (PARTITION BY md5(text)) AS keeper
        FROM documents
      ) WHERE doc_id != keeper
    ),
    near_rm AS (SELECT doc_id FROM lbl WHERE doc_id != keeper),
    rm AS (SELECT doc_id FROM exact_rm UNION SELECT doc_id FROM near_rm),
    q AS (SELECT doc_id, quality FROM ({quality_scores_sql()})),
    kept AS (
      SELECT d.doc_id, d.lang, d.n_chars, q.quality,
             CAST(CAST(xor(CAST(d.doc_id % 4294967296 AS BIGINT), {salt})
                       AS HUGEINT) * 2654435761 % 4294967296 AS BIGINT)
               AS shuffle_key
      FROM documents d
      ANTI JOIN rm ON d.doc_id = rm.doc_id
      JOIN q ON d.doc_id = q.doc_id
      WHERE q.quality >= {min_quality}
    )
    SELECT CAST(row_number() OVER w - 1 AS BIGINT) AS pos,
           doc_id, lang, n_chars, quality, shuffle_key
    FROM kept
    WINDOW w AS (ORDER BY shuffle_key, doc_id)
    ORDER BY pos
    """


def run_training_pipeline(sf_dir: str, out_dir: str, threshold: float = 0.6,
                          df_cap: int = 1000, min_quality: float = 0.52,
                          seed: int = 7, num_shards: int = 8,
                          substring_k: int | None = None,
                          mixture_bp: dict | None = None,
                          mixture_seed: int = 11,
                          lm_min_known_ppm: int | None = None,
                          lm_ref_mod: int = 13,
                          compression: str | None = None) -> dict:
    """The shipping path: clean (dedup + quality + shuffle key) and export
    as lang-partitioned JSONL WITH the text payload. The global sort is
    deliberately skipped here — the export's content-hash routing shuffle
    already redistributes rows, and downstream readers order shards by the
    carried ``shuffle_key`` (cheaper than sort-then-reshuffle at 100 TB).
    Resumable: killing mid-export and re-running completes exactly the
    missing shards (see tests/test_pipeline.py)."""
    from raycrawl.io_sinks import export_jsonl_partitioned

    ds = _clean_keyed_dataset(sf_dir, threshold, df_cap, min_quality, seed,
                              columns=["doc_id", "lang", "text"],
                              substring_k=substring_k,
                              mixture_bp=mixture_bp,
                              mixture_seed=mixture_seed,
                              lm_min_known_ppm=lm_min_known_ppm,
                              lm_ref_mod=lm_ref_mod)
    return export_jsonl_partitioned(ds, out_dir, partition_col="lang",
                                    shard_key_col="doc_id",
                                    num_shards=num_shards,
                                    compression=compression)
