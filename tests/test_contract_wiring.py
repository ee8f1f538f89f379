"""Driver-contract wiring invariants: queries() holds EXACTLY 50 entries
(the driver's sweep records the first 50 dict entries — r2/r3 evidence),
every one of them is oracled, the flagship LLM lane leads the dict, and
the demoted registry is disjoint, callable, and oracled except for the
documented approximate/RNG set."""


def _mod():
    import importlib.util
    import os

    # this checkout's registry, wherever it lives
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "__ray_entry__", os.path.join(root, "__ray_entry__.py"))
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    return m


ROWS_ONLY = {
    # approximate / RNG-body operators, each pytest-pinned to an exact twin
    "events_user_hll", "events_value_quantiles_sketch",
    "events_user_heavy_hitters", "media_features",
    # iterative data-dependent selection (not single-statement SQL);
    # pytest-pinned to a reference implementation over oracled word counts
    "bpe_learned_merges", "bpe_compression_by_lang",
}

SWEEP_BUDGET = 50


def test_main_registry_fits_sweep_and_is_fully_oracled():
    m = _mod()
    qs, os_ = m.queries(), m.oracle_sql()
    assert len(qs) == SWEEP_BUDGET, len(qs)
    assert set(qs) == set(os_)
    assert all(callable(v) for v in qs.values())
    assert all(isinstance(v, str) and v.strip() for v in os_.values())
    # the r2/r3-unevidenced flagship lane must lead the dict order
    head = list(qs)[:16]
    for name in ["training_corpus", "exact_dedup_groups",
                 "minhash_neardup_pairs", "ngram_jaccard_pairs",
                 "simhash_neardup_pairs", "neardup_clusters",
                 "documents_deduped", "tfidf_top_terms", "doc_fingerprints",
                 "documents_profile", "media_summary", "embedding_topk",
                 "embedding_neardup_pairs", "embedding_neardup_pairs_lsh"]:
        assert name in head, f"{name} fell out of the sweep head"


def test_demoted_registry_disjoint_and_rows_only_exact():
    m = _mod()
    qs, dq, do = m.queries(), m.demoted_queries(), m.demoted_oracle_sql()
    assert not set(qs) & set(dq)
    assert set(dq) - set(do) == ROWS_ONLY
    assert set(do) <= set(dq)
    assert all(callable(v) for v in dq.values())
    assert all(isinstance(v, str) and v.strip() for v in do.values())
