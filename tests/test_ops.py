"""Operator-family tests: dedup (MinHash/SimHash vs brute force), ANN
recall, text ops, and the __ray_entry__ contract smoke."""

import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


@pytest.mark.usefixtures("ray_session")
def test_minhash_finds_all_high_jaccard_pairs():
    """LSH with 16 bands × 4 rows has >99.9% hit probability at j≥0.8;
    every verified pair it returns must be exact-jaccard ≥ threshold, and it
    must find every pair the quadratic oracle finds at j≥0.8."""
    from raycrawl.dedup import minhash_neardup_pairs, ngram_jaccard_pairs_exact

    got = minhash_neardup_pairs(SF, threshold=0.6).to_pandas()
    exact = ngram_jaccard_pairs_exact(SF, threshold=0.6).to_pandas()
    got_pairs = set(zip(got["a"], got["b"]))
    exact_pairs = set(zip(exact["a"], exact["b"]))
    # soundness: every returned pair is a true pair
    assert got_pairs <= exact_pairs
    # completeness at high similarity
    strong = set(zip(exact[exact["jaccard"] >= 0.8]["a"],
                     exact[exact["jaccard"] >= 0.8]["b"]))
    assert strong <= got_pairs


@pytest.mark.usefixtures("ray_session")
def test_simhash_pairs_sound():
    """Returned pairs truly have hamming ≤ 3; and banding finds every
    hamming ≤ 3 pair (pigeonhole over 4×16-bit bands is exact)."""
    from raycrawl.dedup import simhash64, simhash_neardup_pairs

    import pyarrow.parquet as pq

    got = simhash_neardup_pairs(SF, max_hamming=3).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pylist()
    sig = {d["doc_id"]: simhash64(d["text"]) for d in docs}
    for r in got.itertuples():
        assert bin(sig[r.a] ^ sig[r.b]).count("1") <= 3
    # exhaustive check on a subset for completeness
    ids = sorted(sig)[:150]
    expected = {
        (a, b)
        for i, a in enumerate(ids)
        for b in ids[i + 1 :]
        if bin(sig[a] ^ sig[b]).count("1") <= 3
    }
    got_pairs = set(zip(got["a"], got["b"]))
    assert expected <= got_pairs


@pytest.mark.usefixtures("ray_session")
def test_embedding_neardup_matches_bruteforce():
    from raycrawl.dedup import embedding_neardup_pairs

    import pyarrow.parquet as pq

    got = embedding_neardup_pairs(SF, threshold=0.45).to_pandas()
    t = pq.read_table(f"{SF}/embeddings.parquet")
    ids = np.array(t["vec_id"].to_pylist())
    m = np.stack(t["embedding"].to_numpy()).astype(np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = m @ m.T
    exp = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if sims[i, j] >= 0.45 and ids[i] < ids[j]:
                exp.add((ids[i], ids[j]))
            elif sims[i, j] >= 0.45:
                exp.add((ids[j], ids[i]))
    assert set(zip(got["a"], got["b"])) == exp


@pytest.mark.usefixtures("ray_session")
def test_quality_and_fingerprint_shapes():
    from raycrawl.textops import fingerprints, quality_scores

    q = quality_scores(SF).to_pandas()
    assert len(q) == 500
    assert ((q["quality"] >= 0) & (q["quality"] <= 1)).all()
    f = fingerprints(SF).to_pandas()
    assert len(f) == 500 and f["fingerprint"].nunique() > 400


@pytest.mark.usefixtures("ray_session")
def test_entry_contract_smoke():
    import os
    import sys

    # this checkout's registry, wherever it lives
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import __ray_entry__ as e

    out = e.entry()
    assert len(out) >= 1
    qs, sqls = e.queries(), e.oracle_sql()
    assert set(sqls) <= set(qs)
    # every oracle key has a runnable query; spot-run one of each family
    for name in ["crawl_progress", "q1_pricing_summary", "token_stats_by_lang"]:
        res = qs[name](SF)
        assert res is not None


@pytest.mark.usefixtures("ray_session")
def test_ngram_jaccard_distributed_matches_bruteforce():
    """The distributed shingle-self-join path is exact: identical pair set
    AND identical jaccard values to the quadratic in-memory oracle."""
    from raycrawl.dedup import ngram_jaccard_pairs, ngram_jaccard_pairs_exact

    got = ngram_jaccard_pairs(SF, threshold=0.6).to_pandas()
    exact = ngram_jaccard_pairs_exact(SF, threshold=0.6).to_pandas()
    got_m = {(r.a, r.b): r.jaccard for r in got.itertuples()}
    exact_m = {(r.a, r.b): r.jaccard for r in exact.itertuples()}
    assert got_m == exact_m


@pytest.mark.usefixtures("ray_session")
def test_embedding_lsh_neardup_subset_and_recall():
    """LSH-bucketed near-dup pairs ⊆ exact pairs (same threshold), with
    usable recall at 6 planes; cosines match the exact query's."""
    from raycrawl.dedup import embedding_neardup_pairs, embedding_neardup_pairs_lsh

    exact = embedding_neardup_pairs(SF, threshold=0.45).to_pandas()
    lsh = embedding_neardup_pairs_lsh(SF, threshold=0.45).to_pandas()
    epairs = {(a, b): c for a, b, c in
              zip(exact["a"], exact["b"], exact["cosine"])}
    lpairs = {(a, b): c for a, b, c in zip(lsh["a"], lsh["b"], lsh["cosine"])}
    assert set(lpairs) <= set(epairs)
    for k, v in lpairs.items():
        assert abs(v - epairs[k]) < 1e-9
    if len(epairs):
        # near-dup pairs have high cosine, so most collide in some bucket
        assert len(lpairs) / len(epairs) >= 0.3


@pytest.mark.usefixtures("ray_session")
def test_user_sessions_invariants():
    """Sessionization: events partition exactly into sessions; every
    intra-session gap ≤ 30 min; session break gaps > 30 min."""
    import pyarrow.parquet as pq

    from raycrawl.sessions import user_sessions

    s = user_sessions(SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["user_id", "ts"]).to_pandas()
    assert s["n_events"].sum() == len(ev)
    per_user = ev.groupby("user_id").size()
    assert (s.groupby("user_id")["n_events"].sum() == per_user).all()
    assert (s["duration_us"] >= 0).all()
    assert (s["end_us"] - s["start_us"] == s["duration_us"]).all()
    # consecutive sessions of one user are separated by > 30 min
    for uid, g in s.groupby("user_id"):
        g = g.sort_values("session_id")
        gaps = g["start_us"].to_numpy()[1:] - g["end_us"].to_numpy()[:-1]
        assert (gaps > 30 * 60_000_000).all()


@pytest.mark.usefixtures("ray_session")
def test_purchase_asof_click_semantics():
    """As-of join: matched click is the max click ts ≤ purchase ts of the
    same user (checked against a brute-force pandas recomputation)."""
    import pyarrow.parquet as pq

    from raycrawl.sessions import purchase_asof_click

    got = purchase_asof_click(SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "ts", "user_id",
                                "event_type"]).to_pandas()
    ev["us"] = ev["ts"].astype("int64")
    purchases = ev[ev["event_type"] == "purchase"]
    clicks = ev[ev["event_type"] == "click"]
    assert len(got) == len(purchases)
    by_user = {u: g.sort_values("us") for u, g in clicks.groupby("user_id")}
    for row in got.sample(min(len(got), 200), random_state=0).itertuples():
        cand = by_user.get(row.user_id)
        cand = cand[cand["us"] <= row.purchase_us] if cand is not None else None
        if cand is None or len(cand) == 0:
            assert row.click_event_id != row.click_event_id  # NaN
        else:
            assert row.click_us == cand["us"].max()


@pytest.mark.usefixtures("ray_session")
def test_grouped_topk_antijoin_sample_match_duckdb():
    """The three window/anti-join/sampling operators match DuckDB exactly
    (values verbatim — no float arithmetic on any of these paths)."""
    import duckdb

    from raycrawl.relational import (
        customers_without_urgent_orders,
        customers_without_urgent_orders_sql,
        documents_hash_sample,
        documents_hash_sample_sql,
        top_events_per_user,
        top_events_per_user_sql,
    )

    con = duckdb.connect()
    for t in ["customer", "orders", "events", "documents"]:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    for fn, sql in [
        (top_events_per_user, top_events_per_user_sql()),
        (customers_without_urgent_orders, customers_without_urgent_orders_sql()),
        (documents_hash_sample, documents_hash_sample_sql()),
    ]:
        got = fn(SF).to_pandas()
        want = con.execute(sql).df()
        assert got.shape == want.shape and got.shape[0] > 0
        for c in got.columns:
            if got[c].dtype.kind in "fi":
                assert np.array_equal(got[c].to_numpy(), want[c].to_numpy())
            else:
                assert (got[c].astype(str) == want[c].astype(str)).all()


@pytest.mark.usefixtures("ray_session")
def test_events_value_quantiles_match_duckdb():
    """Histogram-based distributed quantiles reproduce DuckDB quantile_disc
    exactly (rank = ceil(q*n)-1 over the per-type sorted values)."""
    import duckdb

    from raycrawl.relational import (
        events_value_quantiles,
        events_value_quantiles_sql,
    )

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')"
    )
    got = events_value_quantiles(SF).to_pandas()
    want = con.execute(events_value_quantiles_sql()).df()
    assert got.shape == want.shape
    for c in got.columns:
        if got[c].dtype.kind in "fi":
            assert np.array_equal(got[c].to_numpy(), want[c].to_numpy())
        else:
            assert (got[c] == want[c]).all()


@pytest.mark.usefixtures("ray_session")
def test_moving_avg_and_distinct_match_duckdb():
    """Sliding-window moving average and single-shuffle exact
    count-distinct match DuckDB window/DISTINCT semantics exactly."""
    import duckdb

    from raycrawl.relational import (
        events_hourly_moving_avg,
        events_hourly_moving_avg_sql,
        events_user_distinct,
        events_user_distinct_sql,
    )

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')"
    )
    for fn, sql in [
        (events_hourly_moving_avg, events_hourly_moving_avg_sql()),
        (events_user_distinct, events_user_distinct_sql()),
    ]:
        got = fn(SF).to_pandas()
        want = con.execute(sql).df()
        assert got.shape == want.shape and got.shape[0] > 0
        for c in got.columns:
            if got[c].dtype.kind in "fi":
                assert np.array_equal(got[c].to_numpy(), want[c].to_numpy())
            else:
                assert (got[c].astype(str) == want[c].astype(str)).all()


@pytest.mark.usefixtures("ray_session")
def test_ngram_df_cap_default_output_unchanged_and_capped_candidates():
    """The df cap never changes output on this corpus (no shingle exceeds
    the default cap), and an aggressive cap only ever MISSES pairs (scores
    of surviving pairs are identical — the verify is exact)."""
    from raycrawl.dedup import ngram_jaccard_pairs, ngram_jaccard_pairs_exact

    exact = ngram_jaccard_pairs_exact(SF, threshold=0.6).to_pandas()
    got = ngram_jaccard_pairs(SF, threshold=0.6).to_pandas()  # default cap
    assert {(r.a, r.b): r.jaccard for r in got.itertuples()} == \
           {(r.a, r.b): r.jaccard for r in exact.itertuples()}
    tight = ngram_jaccard_pairs(SF, threshold=0.6, df_cap=2).to_pandas()
    em = {(r.a, r.b): r.jaccard for r in exact.itertuples()}
    for r in tight.itertuples():
        assert em[(r.a, r.b)] == r.jaccard  # soundness under any cap


@pytest.mark.usefixtures("ray_session")
def test_neardup_clusters_union_find():
    """Cluster keeper assignment agrees with a brute-force component fold
    over the exact pair set; keeper = min doc of the component."""
    from raycrawl.dedup import neardup_clusters, ngram_jaccard_pairs_exact

    pairs = ngram_jaccard_pairs_exact(SF, threshold=0.6).to_pandas()
    comp: dict[int, set] = {}
    for r in pairs.itertuples():
        ca = next((c for c in comp.values() if r.a in c), None)
        cb = next((c for c in comp.values() if r.b in c), None)
        if ca is None and cb is None:
            comp[r.a] = {r.a, r.b}
        elif ca is not None and cb is None:
            ca.add(r.b)
        elif ca is None and cb is not None:
            cb.add(r.a)
        elif ca is not cb:
            ca |= cb
            for k, v in list(comp.items()):
                if v is cb:
                    del comp[k]
    want = {}
    for c in comp.values():
        keep = min(c)
        for d in c:
            want[d] = (keep, len(c))
    got = neardup_clusters(SF, threshold=0.6).to_pandas()
    assert {r.doc_id: (r.keeper_doc_id, r.cluster_size)
            for r in got.itertuples()} == want
    assert len(got) == sum(len(c) for c in comp.values())


@pytest.mark.usefixtures("ray_session")
def test_documents_deduped_removes_exact_and_near_dups():
    """Survivors = corpus minus exact non-keepers minus near-dup
    non-keepers; survivors keep their lang/n_chars unchanged."""
    import hashlib

    import pyarrow.parquet as pq

    from raycrawl.dedup import documents_deduped, neardup_clusters

    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text", "lang", "n_chars"]).to_pandas()
    md5 = docs.text.map(lambda s: hashlib.md5(s.encode()).hexdigest())
    keeper = docs.groupby(md5).doc_id.transform("min")
    exact_rm = set(docs.doc_id[docs.doc_id != keeper])
    cl = neardup_clusters(SF, threshold=0.6).to_pandas()
    near_rm = set(cl.doc_id[cl.doc_id != cl.keeper_doc_id])
    want = docs[~docs.doc_id.isin(exact_rm | near_rm)].sort_values("doc_id")
    got = documents_deduped(SF, threshold=0.6).to_pandas()
    assert got.doc_id.tolist() == want.doc_id.tolist()
    assert got.lang.tolist() == want.lang.tolist()
    assert got.n_chars.tolist() == want.n_chars.tolist()
    assert len(exact_rm | near_rm) > 0  # the corpus really has dups


@pytest.mark.usefixtures("ray_session")
def test_substring_dedup_adversarial_edges_match_oracle(tmp_path):
    """Exact substring-span dedup (Lee et al. 2022 rule, gram-hash form)
    vs the DuckDB twin on adversarial shapes: cross-doc span share, exact
    whole-doc dup (fully scrubbed), short-doc whole-text gram, within-doc
    self-repetition, overlapping spans — plus first-occurrence-kept
    semantics checked explicitly."""
    import duckdb
    import pyarrow.parquet as pq

    from raycrawl.dedup import substring_dedup_apply, substring_dedup_sql

    docs = pa.table({
        "doc_id": pa.array(list(range(10)), pa.int64()),
        "text": pa.array([
            "a b c d e f g h i j k l",            # canonical source
            "x y a b c d e f g h z w",            # shares the 8-gram a..h
            "short doc",                           # <k words
            "short doc",                           # exact dup of short doc
            "a b c d e f g h i j k l",            # exact dup of 0
            "one two three four five six seven",   # 7 words, unique
            "p q r s t u v w p q r s t u v w p q r s t u v w",  # 3× repeat
            "m n o p q r s t m n o p q r s t",    # within-doc dup 8-gram
            "tail a b c d e f g h i j k l end",   # overlapping dup grams
            "zz yy xx ww vv uu tt ss rr qq",      # unique
        ], pa.string()),
    })
    d = str(tmp_path / "corpus")
    import os

    os.makedirs(d)
    pq.write_table(docs, d + "/documents.parquet")
    got = substring_dedup_apply(d).to_pandas()
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{d}/documents.parquet')")
    want = con.execute(substring_dedup_sql()).arrow().to_pandas()
    for c in ("doc_id", "n_removed_words", "n_kept_words"):
        got[c] = got[c].astype("int64")
        want[c] = want[c].astype("int64")
    got["kept_md5"] = got["kept_md5"].astype("uint64")
    want["kept_md5"] = want["kept_md5"].astype("uint64")
    assert got.equals(want)
    # first occurrence is kept, later ones scrubbed
    assert got.n_removed_words[0] == 0
    assert got.n_removed_words[4] == 12 and got.n_kept_words[4] == 0
    assert got.n_removed_words[3] == 2 and got.n_kept_words[3] == 0
    assert got.n_removed_words[6] == 16 and got.n_kept_words[6] == 8
    assert got.n_removed_words[9] == 0


@pytest.mark.usefixtures("ray_session")
def test_substring_dedup_forced_join_path_equals_broadcast(monkeypatch):
    """RAYCRAWL_SUBSTR_MAX_OCC=0 forces the scale path (per-doc position
    lists left-outer hash-joined onto documents); output must equal the
    broadcast path exactly."""
    from raycrawl.dedup import substring_dedup_apply

    want = substring_dedup_apply(SF).to_pandas()
    monkeypatch.setenv("RAYCRAWL_SUBSTR_MAX_OCC", "0")
    got = substring_dedup_apply(SF).to_pandas()
    assert got.equals(want)
    assert (got.n_removed_words > 0).any()


@pytest.mark.usefixtures("ray_session")
def test_substring_dedup_sf_corpus_matches_oracle():
    import duckdb

    from raycrawl.dedup import substring_dedup_apply, substring_dedup_sql

    got = substring_dedup_apply(SF).to_pandas()
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF}/documents.parquet')")
    want = con.execute(substring_dedup_sql()).arrow().to_pandas()
    for c in ("doc_id", "n_removed_words", "n_kept_words"):
        got[c] = got[c].astype("int64")
        want[c] = want[c].astype("int64")
    got["kept_md5"] = got["kept_md5"].astype("uint64")
    want["kept_md5"] = want["kept_md5"].astype("uint64")
    assert got.equals(want)
    assert (got.n_removed_words > 0).any()  # the corpus has planted spans


@pytest.mark.usefixtures("ray_session")
def test_broadcast_gate_join_fallback_equals_broadcast(monkeypatch):
    """The size-gated broadcast and the Dataset.join fallback are the same
    operator: forcing the gate shut (budget 0) must not change output."""
    from raycrawl.relational import revenue_by_nation

    a = revenue_by_nation(SF).to_pandas()
    monkeypatch.setenv("RAYCRAWL_BROADCAST_MAX_BYTES", "0")
    b = revenue_by_nation(SF).to_pandas()
    assert a.columns.tolist() == b.columns.tolist()
    assert a.values.tolist() == b.values.tolist()


@pytest.mark.usefixtures("ray_session")
def test_crawl_pagerank_matches_integer_reference():
    """Distributed scatter/gather PageRank equals the single-process
    integer recurrence on the demo crawl graph; ranks separate hubs from
    leaves (not all equal)."""
    from raycrawl.demo import demo_ckpts, ensure_demo_crawls
    from raycrawl.graph import crawl_pagerank, pagerank_reference
    from raycrawl.queries import load_edges

    ensure_demo_crawls()
    got = crawl_pagerank(load_edges(demo_ckpts()), "demo1").to_pandas()
    edges = load_edges(demo_ckpts()).to_pandas()
    edges = edges[edges.crawl_id == "demo1"]
    want = pagerank_reference(edges.src.tolist(), edges.dst.tolist())
    assert dict(zip(got.node, got.rank_units)) == want
    assert got.rank_units.nunique() > 1
    # the sharded Dataset iteration (above the driver gate) is the same
    # integer recurrence — fewer rounds keep the tiny-graph test fast
    dist = crawl_pagerank(load_edges(demo_ckpts()), "demo1", iters=3,
                          distributed=True).to_pandas()
    want3 = pagerank_reference(edges.src.tolist(), edges.dst.tolist(), iters=3)
    assert dict(zip(dist.node, dist.rank_units)) == want3


@pytest.mark.usefixtures("ray_session")
def test_components_empty_pair_graph():
    """A threshold no pair reaches must yield an empty cluster table with
    the cluster columns from the union-find fold."""
    from raycrawl.dedup import neardup_clusters

    a = neardup_clusters(SF, threshold=0.999999).to_pandas()
    assert len(a) == 0
    assert a.columns.tolist() == ["doc_id", "keeper_doc_id", "cluster_size"]


@pytest.mark.usefixtures("ray_session")
def test_broadcast_gate_fallbacks_anti_join_and_brand(monkeypatch):
    """Forcing the gate shut pins the Dataset.join fallbacks of the
    anti-join and the brand rollup output-equal to the broadcast plans."""
    from raycrawl.relational import customers_without_urgent_orders, revenue_by_brand

    a1 = customers_without_urgent_orders(SF).to_pandas()
    b1 = revenue_by_brand(SF).to_pandas()
    monkeypatch.setenv("RAYCRAWL_BROADCAST_MAX_BYTES", "0")
    a2 = customers_without_urgent_orders(SF).to_pandas()
    b2 = revenue_by_brand(SF).to_pandas()
    assert a1.values.tolist() == a2.values.tolist()
    assert b1.columns.tolist() == b2.columns.tolist()
    assert b1.values.tolist() == b2.values.tolist()


@pytest.mark.usefixtures("ray_session")
def test_index_cache_gc_drops_stale_content_versions(tmp_path):
    """Regenerating the dataset at the same path must (a) rebuild the
    index (content key) and (b) garbage-collect the outdated copy —
    without touching other datasets' indexes."""
    import os
    import shutil

    import pyarrow.parquet as pq

    from raycrawl.dedup import ensure_minhash_index

    src = str(tmp_path / "ds")
    os.makedirs(src)
    t = pq.read_table(f"{SF}/documents.parquet")
    pq.write_table(t, f"{src}/documents.parquet")
    root = str(tmp_path / "minhash")
    a = ensure_minhash_index(src, out_root=root)
    pq.write_table(t.slice(0, t.num_rows - 1), f"{src}/documents.parquet")
    # age the soon-to-be-superseded index past the GC grace window (young
    # stale siblings are deliberately kept: a concurrent query may be
    # mid-read in them; grace semantics unit-tested in test_kernels.py)
    import time as _time
    old = _time.time() - 700
    os.utime(a, (old, old))
    b = ensure_minhash_index(src, out_root=root)
    assert a != b
    assert not os.path.exists(a)          # stale sibling GC'd
    assert os.path.exists(os.path.join(b, "_SUCCESS"))
    shutil.rmtree(src)


def test_quality_score_batch_equals_scalar_twin():
    """The polars-vectorized quality kernel must equal a per-row Python
    re/str twin exactly — including non-ASCII edges, where the rust-regex
    unicode classes (\\w, \\s, \\p{Uppercase}) must coincide with Python
    re's and str.isupper's."""
    import pyarrow as pa

    from raycrawl.textops import (PUNCT_RE, STOPWORDS, WORD_RE,
                                  quality_score_batch)

    texts = ["", "   ", "The of and to in!", "HÉLLO Wörld ÀÉ",
             "ǅmixed Ǆ ǆ", "the the the xx 123_abc",
             "ALL CAPS!!! ???", "a" * 5000, "Ⅰ roman numeral"]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    got = quality_score_batch(t)
    for i, s in enumerate(texts):
        words = WORD_RE.findall(s.lower())
        nw = len(words)
        exp = {
            "stop_ratio": sum(w in STOPWORDS for w in words) / nw if nw else 0.0,
            "punct_density": len(PUNCT_RE.findall(s)) / len(s) if s else 0.0,
            "mean_word_len": sum(map(len, words)) / nw if nw else 0.0,
            "upper_ratio": sum(c.isupper() for c in s) / len(s) if s else 0.0,
        }
        for c, v in exp.items():
            assert got[c][i].as_py() == v, (i, c, got[c][i].as_py(), v)


def test_langid_batch_equals_scalar_twin():
    """The polars-vectorized langid must equal the per-row reference scan:
    dict-order strictly-greater argmax, non-overlapping gram counts, CJK
    codepoint short-circuit."""
    import pyarrow as pa

    from raycrawl.textops import _LANG_HINTS, langid_batch

    texts = ["", "the and der sch", "中文 text", "que que que",
             " de  de ion", "xyz", "ich und sch der", "los que cio ado",
             "ententente", "a 一 b"]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    got = langid_batch(t)["lang_pred"].to_pylist()
    exp = []
    for s in texts:
        low = s.lower()
        if any("一" <= c <= "鿿" for c in s):
            exp.append("zh")
            continue
        best, best_score = "en", -1.0
        for lang, grams in _LANG_HINTS.items():
            if not grams:
                continue
            score = sum(low.count(g) for g in grams) / (len(low) + 1)
            if score > best_score:
                best, best_score = lang, score
        exp.append(best)
    assert got == exp


def test_pii_scrub_batch_matches_duckdb_on_edge_cases():
    """Polars (rust regex) and DuckDB (RE2) must agree on the PII patterns
    over adversarial spans: multiple matches, boundary cases that must NOT
    match (5-digit phone tail, trailing dot domains), and injected spans."""
    import duckdb
    import pyarrow as pa

    from raycrawl.textops import pii_scrub_batch

    texts = [
        "plain words only",
        "a@b.co touching c.d-e@f.gh.ij twice",
        "ip 10.1.2.33 and 255.255.255.255 but not 1.2.3.4.5 alone?",
        "call 555-0042 not 555-12345 nor x555-1234",
        "MIXED user9@Example.COM then 10.0.0.1 then 555-9999",
        "",
    ]
    ids = list(range(0, 6 * 7, 7))  # hit every injection residue class
    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts)})
    got = pii_scrub_batch(t).to_pandas().sort_values("doc_id")

    from raycrawl.textops import pii_scrub_sql

    con = duckdb.connect()
    con.register("documents", t)
    want = con.sql(pii_scrub_sql()).df().sort_values("doc_id")
    for c in ["n_email", "n_phone", "n_ip", "n_chars_scrubbed", "text_md5"]:
        assert list(got[c]) == list(want[c]), c
    # the planted spans were really found and removed (non-identity scrub)
    assert got["n_email"].sum() > 0 and got["n_phone"].sum() > 0


@pytest.mark.usefixtures("ray_session")
def test_pack_sequences_bucket_invariance():
    """The distributed prefix sum's bucket count is a physical knob: the
    packing assignment must be identical at any bucket_bits (the claim
    that lets 100 TB raise it until a bucket fits a worker), and the
    stream must be gapless: offsets are a permutation-free concatenation."""
    from raycrawl.relational import pack_sequences

    a = pack_sequences(SF, budget=512, bucket_bits=2).to_pandas()
    b = pack_sequences(SF, budget=512, bucket_bits=10).to_pandas()
    assert (a.values == b.values).all()
    # gapless stream: sorted start_offs + lengths tile [0, total)
    import pyarrow.parquet as pq

    ln = (pq.read_table(f"{SF}/documents.parquet",
                        columns=["doc_id", "n_chars"]).to_pandas()
          .set_index("doc_id").loc[a["doc_id"]]["n_chars"].to_numpy())
    ends = a["start_off"].to_numpy() + ln
    assert a["start_off"].iloc[0] == 0
    assert (a["start_off"].to_numpy()[1:] == ends[:-1]).all()


def test_lm_familiarity_adversarial_edges_match_oracle(tmp_path):
    """CCNet-analogue LM familiarity vs the DuckDB twin on adversarial
    shapes: the ref doc itself scored, 1-token docs (whole-text gram),
    within-doc repeated bigrams (multiplicity counted in the mass), docs
    fully OOV vs the model, and the degenerate tiny-model regime."""
    import os

    import duckdb
    import pandas as pd
    import pyarrow.parquet as pq

    from raycrawl.textops import lm_familiarity_scores, lm_familiarity_sql

    docs = pa.table({
        "doc_id": pa.array(list(range(6)), pa.int64()),
        "text": pa.array([
            "the cat sat on the mat",       # doc 0 -> ref slice (0 % 13 == 0)
            "the cat sat quietly",           # shares "the cat", "cat sat"
            "word",                          # 1 token: whole-text gram
            "the cat the cat the cat",       # repeated known bigram
            "zz yy xx ww",                   # fully OOV
            "on the mat",                    # two known bigrams
        ], pa.string()),
    })
    d = str(tmp_path / "corpus")
    os.makedirs(d)
    pq.write_table(docs, d + "/documents.parquet")
    got = lm_familiarity_scores(d).to_pandas()
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{d}/documents.parquet')")
    want = con.execute(lm_familiarity_sql()).arrow().to_pandas()
    for c in want.columns:
        got[c] = got[c].astype("int64")
        want[c] = want[c].astype("int64")
    pd.testing.assert_frame_equal(got, want)
    by = got.set_index("doc_id")
    # the ref doc is known to itself everywhere
    assert by.loc[0, "n_bigrams"] == by.loc[0, "n_known_bigrams"] == 5
    # "the cat the cat the cat": 5 bigrams, "the cat"(x3 in doc, count 1
    # in model... model has "the cat" once from doc 0) + "cat the"(x2, OOV)
    assert by.loc[3, "n_known_bigrams"] == 3
    assert by.loc[3, "sum_ref_count"] == 3
    # fully OOV doc scores zero mass
    assert by.loc[4, "n_known_bigrams"] == 0 == by.loc[4, "sum_ref_count"]


def test_mixture_sample_rates_and_unknown_source(tmp_path):
    """Per-source mixture sampling: each source's keep set is exactly the
    hash rule's (oracle-checked by the demoted sweep); here pin the edge
    semantics — rate 0 drops everything, rate 10000 and UNLISTED sources
    keep everything, and the draw is doc_id-deterministic across calls."""
    import os

    import pandas as pd
    import pyarrow.parquet as pq

    from raycrawl.relational import documents_mixture_sample

    n = 400
    docs = pa.table({
        "doc_id": pa.array(list(range(n)), pa.int64()),
        "text": pa.array(["t"] * n, pa.string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "source": pa.array(
            [("drop", "keep", "half", "mystery")[i % 4] for i in range(n)],
            pa.string()),
        "n_chars": pa.array([1] * n, pa.int64()),
    })
    d = str(tmp_path / "corpus")
    os.makedirs(d)
    pq.write_table(docs, d + "/documents.parquet")
    rates = {"drop": 0, "keep": 10000, "half": 5000}
    got = documents_mixture_sample(d, rates_bp=rates).to_pandas()
    per = got.groupby("source").size()
    assert "drop" not in per.index
    assert per["keep"] == 100        # rate 10000 keeps all
    assert per["mystery"] == 100     # unlisted source keeps all
    assert 20 <= per["half"] <= 80   # ~50% Bernoulli at n=100
    again = documents_mixture_sample(d, rates_bp=rates).to_pandas()
    pd.testing.assert_frame_equal(got, again)


@pytest.mark.usefixtures("ray_session")
def test_retrieval_stats_multibatch_partition_invariant(tmp_path):
    """inverted_index_stats / bigram_collocations over a DIRECTORY-shaped
    documents table split into 6 small files equal the single-file result
    and the DuckDB oracle — pins (a) the cross-batch combine paths (at
    sf0.001 a single file is one block, so the per-term reduceat combine
    and the count-merge shuffle would otherwise only ever see one partial
    per key) and (b) read_parquet_clean's directory handling."""
    import duckdb
    import pandas as pd
    import pyarrow.parquet as pq

    from raycrawl.textops import (bigram_collocations,
                                  bigram_collocations_sql,
                                  inverted_index_stats,
                                  inverted_index_stats_sql)

    docs = pq.read_table(f"{SF}/documents.parquet")
    split_dir = tmp_path / "documents.parquet"
    split_dir.mkdir()
    n = docs.num_rows
    step = (n + 5) // 6
    for i in range(6):
        part = docs.slice(i * step, step)
        if part.num_rows:
            pq.write_table(part, split_dir / f"part-{i}.parquet")

    single_ii = inverted_index_stats(SF, min_df=3, k=40).to_pandas()
    multi_ii = inverted_index_stats(str(tmp_path), min_df=3, k=40).to_pandas()
    pd.testing.assert_frame_equal(single_ii, multi_ii)

    single_bc = bigram_collocations(SF, min_count=4, k=30).to_pandas()
    multi_bc = bigram_collocations(str(tmp_path), min_count=4, k=30).to_pandas()
    pd.testing.assert_frame_equal(single_bc, multi_bc)

    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{SF}/documents.parquet')")
    want_ii = con.sql(inverted_index_stats_sql(3, 40)).df()
    want_bc = con.sql(bigram_collocations_sql(4, 30)).df()
    pd.testing.assert_frame_equal(
        single_ii[sorted(single_ii.columns)].reset_index(drop=True),
        want_ii[sorted(want_ii.columns)], check_dtype=False)
    pd.testing.assert_frame_equal(
        single_bc[sorted(single_bc.columns)].reset_index(drop=True),
        want_bc[sorted(want_bc.columns)], check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_substring_dedup_max_32bit_doc_id(tmp_path):
    """doc_id == 2^32 - 1 is legal under the 32-bit pack guard; the apply's
    upper searchsorted bound must not wrap (code-review r4: (id+1)<<32
    overflowed to 0 in uint64 and silently skipped that doc's removals)."""
    import os

    import duckdb
    import pyarrow.parquet as pq

    from raycrawl.dedup import substring_dedup_apply, substring_dedup_sql

    big = 2**32 - 1
    docs = pa.table({
        "doc_id": pa.array([7, big], pa.int64()),
        "text": pa.array(["a b c d e f g h i j k l",
                          "a b c d e f g h i j k l"], pa.string()),
    })
    d = str(tmp_path / "corpus")
    os.makedirs(d)
    pq.write_table(docs, d + "/documents.parquet")
    got = substring_dedup_apply(d).to_pandas().set_index("doc_id")
    # the later (higher-id) exact dup must be fully scrubbed
    assert got.loc[big, "n_removed_words"] == 12
    assert got.loc[big, "n_kept_words"] == 0
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{d}/documents.parquet')")
    want = (con.execute(substring_dedup_sql()).arrow().to_pandas()
            .set_index("doc_id"))
    assert (got["n_removed_words"].astype("int64")
            == want["n_removed_words"].astype("int64")).all()
    assert (got["kept_md5"].astype("uint64")
            == want["kept_md5"].astype("uint64")).all()


@pytest.mark.usefixtures("ray_session")
def test_quality_pruned_rank_exact_with_ties(tmp_path):
    """Global top-p% quality pruning must keep EXACTLY ceil(N*pct/100) docs
    with the (quality DESC, doc_id ASC) rank order of the SQL twin — in
    particular when many docs share one exact score and the threshold
    falls inside the tie class (partial doc_id selection)."""
    import os

    import duckdb
    import pyarrow.parquet as pq

    import pandas as pd

    from raycrawl.textops import documents_quality_pruned, quality_pruned_sql

    # 8 identical docs (one tie class) + 2 distinct-quality docs
    texts = (["the quick brown fox jumps over a lazy dog"] * 8
             + ["x", "the and for are with this that from have one two"])
    docs = pa.table({
        "doc_id": pa.array(list(range(10)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    d = str(tmp_path / "corpus")
    os.makedirs(d)
    pq.write_table(docs, d + "/documents.parquet")
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{d}/documents.parquet')")
    for pct in (30, 60, 90, 100):
        got = documents_quality_pruned(d, pct=pct).to_pandas()
        want = con.execute(quality_pruned_sql(pct=pct)).df()
        assert len(got) == -(-10 * pct // 100), pct
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), want.reset_index(drop=True),
            check_dtype=False)


def _ref_merge_word(syms, left, right):
    out, i = [], 0
    while i < len(syms):
        if i + 1 < len(syms) and syms[i] == left and syms[i + 1] == right:
            out.append(left + right)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return tuple(out)


def _ref_bpe_merges(word_counts, n_merges=24):
    """Independently-written BPE trainer reference (Sennrich-style greedy
    pair merging, max-count / lexicographic-min tie-break) over a
    word -> count list; returns (rank, left, right, token, count) rows."""
    from collections import Counter

    vocab = {}
    for w, c in word_counts:
        k = tuple(w) + ("</w>",)
        vocab[k] = vocab.get(k, 0) + c
    rows = []
    for rank in range(n_merges):
        pairs = Counter()
        for syms, c in vocab.items():
            for pair in zip(syms, syms[1:]):
                pairs[pair] += c
        if not pairs:
            break
        best_c = max(pairs.values())
        if best_c < 2:
            break
        left, right = min(p for p, c in pairs.items() if c == best_c)
        rows.append((rank, left, right, left + right, best_c))
        nv = {}
        for syms, c in vocab.items():
            k = _ref_merge_word(syms, left, right)
            nv[k] = nv.get(k, 0) + c
        vocab = nv
    return rows


def _duckdb_word_counts(extra_cols=""):
    import duckdb

    con = duckdb.connect()
    return con.execute(
        f"SELECT {extra_cols} word, count(*) AS cnt FROM ("
        f"  SELECT lang,"
        "    unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS word"
        f"  FROM read_parquet('{SF}/documents.parquet'))"
        f" GROUP BY ALL ORDER BY ALL").fetchall()


@pytest.mark.usefixtures("ray_session")
def test_bpe_learned_merges_match_reference():
    """The learned merge table must equal the BPE trainer reference run
    over DuckDB-computed word counts — pinning both the distributed count
    reduce and the driver merge loop."""
    from raycrawl.textops import bpe_learned_merges

    expect = _ref_bpe_merges(_duckdb_word_counts())
    got = bpe_learned_merges(SF, n_merges=24).to_pandas()
    assert list(map(tuple, got.itertuples(index=False))) == expect
    assert len(expect) > 0


@pytest.mark.usefixtures("ray_session")
def test_bpe_compression_matches_reference_apply():
    """Applying the learned merges distributed (actor-pool stage with a
    per-worker memo) must reproduce, per language, exactly the token
    totals of the reference tokenizer applied to DuckDB-computed
    per-(lang, word) counts — plus SQL-exact docs/words/chars."""
    import duckdb

    from raycrawl.textops import bpe_compression_by_lang

    merges = [(l, r, l + r)
              for _, l, r, _, _ in _ref_bpe_merges(_duckdb_word_counts())]

    def n_tokens(word):
        syms = tuple(word) + ("</w>",)
        for left, right, _ in merges:
            syms = _ref_merge_word(syms, left, right)
        return len(syms)

    lang_tok = {}
    for lang, word, cnt in _duckdb_word_counts("lang,"):
        lang_tok[lang] = lang_tok.get(lang, 0) + cnt * n_tokens(word)

    con = duckdb.connect()
    base = con.execute(
        "SELECT lang, count(*) AS docs,"
        "  CAST(sum(len(regexp_extract_all(lower(text), '[a-z0-9_]+')))"
        "    AS BIGINT) AS words,"
        "  CAST(sum(length(text)) AS BIGINT) AS chars"
        f" FROM read_parquet('{SF}/documents.parquet')"
        " GROUP BY lang ORDER BY lang").df()

    got = bpe_compression_by_lang(SF).to_pandas()
    assert list(got["lang"]) == list(base["lang"])
    for col in ("docs", "words", "chars"):
        assert list(got[col]) == list(base[col]), col
    assert list(got["bpe_tokens"]) == [lang_tok[lg] for lg in got["lang"]]
    assert list(got["chars_per_ktok"]) == [
        c * 1000 // max(1, t)
        for c, t in zip(got["chars"], got["bpe_tokens"])]


@pytest.mark.usefixtures("ray_session")
def test_balanced_shards_bucket_invariance_and_balance():
    """The shard layout is a pure function of the corpus — the bucket
    count is an execution detail, so coarse and fine bucket_bits must
    produce identical assignments; and no shard may exceed the ideal
    char budget by more than one max-length document."""
    from raycrawl.relational import documents_balanced_shards

    a = documents_balanced_shards(SF, n_shards=8, bucket_bits=2).to_pandas()
    b = documents_balanced_shards(SF, n_shards=8, bucket_bits=8).to_pandas()
    assert a.equals(b)
    per = a.groupby("shard")["n_chars"].sum()
    ideal = a["n_chars"].sum() / 8
    assert (per <= ideal + a["n_chars"].max()).all()
    assert set(a["shard"]) == set(range(8))


def test_segmented_verify_matches_scalar_jaccard_edges():
    """The vectorized segmented-intersection verify (dedup._verify_pairs'
    per-batch kernel) must be bit-identical to the scalar ``jaccard`` twin,
    including the edge conventions: both-empty → 1.0, one-empty → 0.0,
    disjoint, identical, and unaligned packed buffers (odd byte offsets
    cannot occur — offsets are element×8 — but pair segments of length 0/1
    and duplicates ACROSS pairs must not leak between segments)."""
    import numpy as np
    import pyarrow as pa

    from raycrawl.dedup import _unpack_binary_u64, jaccard

    sets = [
        np.array([], "<u8"),
        np.array([1, 2, 3], "<u8"),
        np.array([2, 3, 4, 5], "<u8"),
        np.array([7], "<u8"),
        np.array([1, 2, 3], "<u8"),
        np.array([10**18, 2**63, 2**64 - 1], "<u8"),
    ]
    pairs = [(0, 0), (0, 1), (1, 2), (1, 4), (3, 5), (5, 5), (2, 3)]
    sa = pa.array([sets[i].tobytes() for i, _ in pairs], pa.binary())
    sb = pa.array([sets[j].tobytes() for _, j in pairs], pa.binary())

    va, offa = _unpack_binary_u64(sa)
    vb, offb = _unpack_binary_u64(sb)
    la, lb = np.diff(offa), np.diff(offb)
    n = len(pairs)
    pair = np.concatenate([np.repeat(np.arange(n), la),
                           np.repeat(np.arange(n), lb)])
    vals = np.concatenate([va, vb])
    order = np.lexsort((vals, pair))
    v, p = vals[order], pair[order]
    dup = (v[1:] == v[:-1]) & (p[1:] == p[:-1])
    inter = np.bincount(p[1:][dup], minlength=n).astype(np.int64)
    union = la + lb - inter
    j = np.where(union > 0, inter / np.maximum(union, 1), 1.0)

    want = np.array([jaccard(sets[i], sets[j]) for i, j in pairs])
    assert np.array_equal(j, want), (j, want)
    # sliced (non-zero Arrow offset) column unpacks identically
    v2, o2 = _unpack_binary_u64(sa.slice(2, 4))
    assert np.array_equal(v2, va[offa[2]:offa[6]])
    assert np.array_equal(np.diff(o2), la[2:6])
