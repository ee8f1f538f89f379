"""Conformance vectors ported verbatim from the reference unit tests
(FIXTURES.md F4): shared/src/crawler.rs:62-114,
shared/src/url_normalize.rs:24-69, shared/src/dns.rs:68-96 — outputs must be
byte-identical. Plus scalar-vs-vectorized agreement (hypothesis)."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from raycrawl.dns_synth import candidate_domains
from raycrawl.kernels import (
    decode_html,
    decode_html_col,
    extract_link_sets,
    extract_urls,
    normalize_url,
    normalize_urls_arrow,
)

# --- extract_urls (shared/src/crawler.rs:62-114) ---------------------------


def test_extract_urls_basic():
    html = '<a href="https://google.com">link</a> and http://example.org too'
    assert extract_urls(html) == ["https://google.com", "http://example.org"]


def test_extract_urls_strips_paths():
    assert extract_urls("Visit https://example.com/path/to/page for more") == [
        "https://example.com"
    ]


def test_extract_urls_empty():
    assert extract_urls("no urls here") == []


def test_extract_urls_multiple_same_page():
    html = "https://a.com https://b.com http://c.org https://a.com"
    assert extract_urls(html) == [
        "https://a.com",
        "https://b.com",
        "http://c.org",
        "https://a.com",
    ]


def test_extract_urls_with_hyphens_and_dots():
    html = "https://my-site.co.uk and http://sub.example-domain.com"
    assert extract_urls(html) == [
        "https://my-site.co.uk",
        "http://sub.example-domain.com",
    ]


def test_extract_urls_with_ports():
    html = "Visit https://example.com:8080/path and http://localhost:3000 for more"
    assert extract_urls(html) == ["https://example.com:8080", "http://localhost:3000"]


def test_extract_urls_uppercase_scheme_not_captured():
    # The regex scheme is lowercase-only (crawler.rs:9).
    assert extract_urls("HTTPS://EXAMPLE.COM and HTTP://FOO.ORG") == []


# --- normalize_url (shared/src/url_normalize.rs:24-69) ---------------------


def test_normalize_https_with_www():
    assert normalize_url("https://www.Google.com") == ("GOOGLE.COM", "HTTPS://")


def test_normalize_http_no_www():
    assert normalize_url("http://example.org") == ("EXAMPLE.ORG", "HTTP://")


def test_normalize_https_no_www():
    assert normalize_url("https://google.com") == ("GOOGLE.COM", "HTTPS://")


def test_normalize_preserves_subdomains():
    assert normalize_url("https://api.sub.example.com") == (
        "API.SUB.EXAMPLE.COM",
        "HTTPS://",
    )


def test_normalize_http_with_www():
    assert normalize_url("http://www.example.com") == ("EXAMPLE.COM", "HTTP://")


def test_normalize_preserves_www_in_subdomain():
    assert normalize_url("https://subdomain.www.example.com") == (
        "SUBDOMAIN.WWW.EXAMPLE.COM",
        "HTTPS://",
    )


def test_normalize_schemeless_defaults_to_http():
    # url_normalize.rs:15-16: no scheme → proto defaults to HTTP://
    assert normalize_url("www.example.com") == ("EXAMPLE.COM", "HTTP://")
    assert normalize_url("example.com") == ("EXAMPLE.COM", "HTTP://")


# --- DNS candidate suffixes (shared/src/dns.rs:68-96) ----------------------


def test_candidates_simple_domain():
    assert candidate_domains("GOOGLE.COM", 5) == ["GOOGLE.COM"]


def test_candidates_subdomain():
    assert candidate_domains("API.GOOGLE.COM", 5) == ["GOOGLE.COM", "API.GOOGLE.COM"]


def test_candidates_deep_subdomain():
    assert candidate_domains("A.B.C.COM", 5) == ["C.COM", "B.C.COM", "A.B.C.COM"]


def test_candidates_respects_max_depth():
    assert candidate_domains("A.B.C.D.COM", 3) == ["D.COM", "C.D.COM"]


def test_candidates_single_part():
    assert candidate_domains("LOCALHOST", 5) == []


# --- vectorized == scalar --------------------------------------------------

url_like = st.one_of(
    st.text(max_size=40),
    st.builds(
        lambda scheme, www, host: f"{scheme}{www}{host}",
        st.sampled_from(["https://", "http://", "HTTPS://", "HtTp://", ""]),
        st.sampled_from(["www.", "WWW.", "wWw.", ""]),
        st.text(
            alphabet=st.characters(
                whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters=".-ß"
            ),
            max_size=25,
        ),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(url_like, max_size=30))
def test_normalize_arrow_matches_scalar(urls):
    names, protos = normalize_urls_arrow(pa.array(urls, pa.string()))
    expected = [normalize_url(u) for u in urls]
    assert list(zip(names.to_pylist(), protos.to_pylist())) == expected


# --- batch extractor: extract_urls + per-page uppercased set --------------


def _link_sets(pages: list[bytes]) -> list[list[str]]:
    page, urls = extract_link_sets(decode_html_col(pa.array(pages, pa.binary())))
    out: list[list[str]] = [[] for _ in pages]
    for p, u in zip(page.tolist(), urls.to_pylist()):
        out[p].append(u)
    return [sorted(x) for x in out]


def _scalar_link_sets(pages: list[bytes]) -> list[list[str]]:
    return [sorted({u.upper() for u in extract_urls(decode_html(h))})
            for h in pages]


def test_extract_link_sets_pinned_vectors():
    """Where polars' regex dialect and Python's part ways: a combining mark
    (e + U+0301) and connector punctuation (U+203F) end Python's match, a
    "No" digit does not, and "ß" upper-cases to "SS"."""
    pages = ["x http://cafe\u0301.com y", "http://a\u203fb.com",
             "see http://ab\u00b2.com", "http://stra\u00dfe.de/x",
             "http://a.com HTTP://b.com http://A.COM:80 http://a.com",
             "https://x-y.z_1:8080 http://\u01db.org", "", "no links"]
    got = _link_sets([p.encode() for p in pages])
    assert got[:4] == [["HTTP://CAFE"], ["HTTP://A"], ["HTTP://AB\u00b2.COM"],
                       ["HTTP://STRASSE.DE"]]
    assert got[4] == ["HTTP://A.COM", "HTTP://A.COM:80"]
    assert got == _scalar_link_sets([p.encode() for p in pages])


_html_piece = st.one_of(
    st.sampled_from(["http://", "https://", "HTTP://", "http:/", ":", ":80",
                     ".", "-", "_", "/", " ", "a", "Z", "9", "www.", "\u0301",
                     "\u203f", "\u00b2", "\u00df", "\u019b", "\u0660",
                     "\u1c89", "\u0378", "\ufffd", "<a href=\""]),
    st.text(max_size=6),
)
_html_page = st.one_of(
    st.lists(_html_piece, max_size=24).map(lambda ps: "".join(ps).encode()),
    # raw bytes: invalid UTF-8 decodes with replacement
    st.lists(st.one_of(_html_piece.map(str.encode), st.binary(max_size=4)),
             max_size=24).map(b"".join),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_html_page, max_size=6))
def test_extract_link_sets_matches_scalar(pages):
    """Over any Unicode text, unassigned code points included, and invalid
    UTF-8, the batch extractor is the scalar D1 set, page by page."""
    assert _link_sets(pages) == _scalar_link_sets(pages)


def test_enrich_pages_equals_enrich_page():
    """The batched featurizer is value-identical to the per-page one."""
    htmls = [
        "<html><body>The quick brown fox jumps over the lazy dog. " * 40
        + "</body></html>",
        "<p>short</p>",
        None,
        "<div>" + " ".join(f"tok{i} the and of" for i in range(200)) + "</div>",
        "",                      # empty page → zero features
        "<b>uno dos tres el la de que y en un ser se no haber por</b>",
        # str.split() splits at U+001C-U+001F; Rust's \\s does not
        "<p>alpha\x1cbeta gamma the</p>",
        "a\x1db\x1ec\x1fd the of",
        # Python's \\w excludes combining marks and join controls and
        # takes "No" digits; Rust's \\w is the other way round
        "cafe\u0301 the and of x",
        "x\u00b2 the of",
        "a\u200db the of",
        "snake\u203fcase the\u00a0of \u4e2d\u6587 \u03a3\u039f\u03a3",
        # language grams that touch or repeat: one overlapping pass must
        # count what str.count counts
        "the the", " de de", "queque", "thethe ionion  de de",
    ]
    _assert_enrich_equal(htmls)


def _assert_enrich_equal(htmls):
    from raycrawl.frontier import enrich_page, enrich_pages

    got = enrich_pages(htmls)
    for i, h in enumerate(htmls):
        if h is None:
            assert all(got[k][i] is None for k in got)
        else:
            exp = enrich_page(h)
            for k, v in exp.items():
                assert got[k][i] == v, (i, k, got[k][i], v, h[:60])


# words over ASCII, the characters the two regex dialects split apart on,
# CJK and NBSP, plus any character the interpreter's Unicode tables assign
_enrich_word = st.one_of(
    st.sampled_from(["the", "and", "of", "el", "la", "x", "<b>", "</p>"]),
    st.text(alphabet=st.sampled_from(
        list("abcXYZ09_ ") + ["\x1c", "\x1d", "\x1e", "\x1f", "\u00a0",
                              "\u0301", "\u00b2", "\u200d", "\u200c",
                              "\u203f", "\u4e2d", "\u6587", "\u3000",
                              "\u03a3", "\u0130", "\n", "\t"]),
        min_size=1, max_size=8),
    st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cn")),
            min_size=1, max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_enrich_word, max_size=40).map(" ".join),
                min_size=1, max_size=6))
def test_enrich_pages_equals_enrich_page_unicode(htmls):
    _assert_enrich_equal(htmls)


# --- identity hash: self-contained, library-independent ---------------------

# pinned vectors: hash128 is THE identity-key definition (seen-set, node
# dedup, corpus routing). These values must NEVER change — resume and
# mixed-version clusters depend on it. The implementation is pure
# numpy/pyarrow, so this test passes with or without polars installed.
HASH128_PINS = [
    ("", 16294208416658607535, 16294208416658607535),
    ("a", 6439343357839820435, 18216453886069933888),
    ("raycrawl", 9292212713697731808, 16682749963406038022),
    ("HTTPS://EXAMPLE.COM:8080", 6633987979158044216, 682213727779318474),
    ("WWW.SITE1.COM", 8612430636058256814, 7942357773592238320),
]


def test_hash128_pinned_vectors():
    from raycrawl.kernels import hash128

    hi, lo = hash128([s for s, _, _ in HASH128_PINS])
    for i, (s, ehi, elo) in enumerate(HASH128_PINS):
        assert (int(hi[i]), int(lo[i])) == (ehi, elo), s


def test_hash128_batch_invariance_and_nulls():
    """Chunk boundaries, arrow-vs-list input and nulls never change values."""
    from raycrawl.kernels import hash128

    strs = [f"s{i}-" + "y" * (i % 97) for i in range(3000)] + ["", "ß-ünïcödé"]
    hi_l, lo_l = hash128(strs)
    hi_a, lo_a = hash128(pa.array(strs, pa.string()))
    assert (hi_l == hi_a).all() and (lo_l == lo_a).all()
    h1, l1 = hash128([strs[7]])
    assert int(hi_l[7]) == int(h1[0]) and int(lo_l[7]) == int(l1[0])
    hn, _ = hash128(pa.array(["x", None, "y"], pa.string()))
    he, _ = hash128(["x", "", "y"])
    assert (hn == he).all()


def test_token_hash64_hard_fails_without_polars(monkeypatch):
    """The enrichment-lane hash must never silently fall back to a
    different function (feature values would diverge across workers)."""
    import raycrawl.kernels as k

    monkeypatch.setattr(k, "_HAVE_POLARS", False)
    monkeypatch.setattr(k, "_TOKEN_LANE_OK", None)
    import pytest as _pytest

    with _pytest.raises(RuntimeError):
        k.token_hash64(["tok"])
    monkeypatch.setattr(k, "_TOKEN_LANE_OK", None)


# ---------------------------------------------------------------------------
# vectorized md5 gram lane (r4): the batched DuckDB path must be
# bit-identical to the scalar md5_u64 reference on every gram shape
# ---------------------------------------------------------------------------

_EDGE_TEXTS = [
    "",                      # no tokens
    "   \t\n  ",             # whitespace only
    "one",                   # n < k for every k > 1
    "one two",
    "a  b\t c\n d",          # collapsing whitespace
    "héllo wörld foo bar baz qux quux",   # multi-byte utf-8
    "dup dup dup dup",       # repeated tokens (simhash counts matter)
    "x " * 50,               # long repeated
]


def _rand_texts(seed, n=40):
    import random

    rng = random.Random(seed)
    out = []
    for _ in range(n):
        nw = rng.randrange(0, 30)
        out.append(" ".join(
            rng.choice(["alpha", "beta", "γάμμα", "d-e.f", "42", "x"])
            for _ in range(nw)))
    return out


def test_md5_u64_arrow_matches_scalar():
    import numpy as np

    from raycrawl.kernels import md5_u64, md5_u64_arrow

    strs = _EDGE_TEXTS + _rand_texts(1)
    got = md5_u64_arrow(pa.array(strs, pa.string()))
    exp = np.array([md5_u64(s) for s in strs], np.uint64)
    assert (got == exp).all()


def test_md5_gram_hashes_matches_scalar_grams():
    import numpy as np

    from raycrawl.kernels import md5_gram_hashes, md5_u64

    texts = _EDGE_TEXTS + _rand_texts(2)
    for k in (1, 3, 8):
        h, offs = md5_gram_hashes(texts, k)
        assert len(offs) == len(texts) + 1 and offs[-1] == len(h)
        for i, text in enumerate(texts):
            toks = text.split()
            if not toks:
                grams = []
            elif len(toks) < k:
                grams = [" ".join(toks)]
            else:
                grams = [" ".join(toks[j:j + k])
                         for j in range(len(toks) - k + 1)]
            exp = np.array([md5_u64(g) for g in grams], np.uint64)
            got = h[offs[i]:offs[i + 1]]
            assert np.array_equal(got, exp), (k, i, text)


def test_shingle_simhash_fingerprint_batches_match_scalar():
    import numpy as np

    from raycrawl.dedup import (_simhash_segmented, shingle_set, simhash64,
                                simhash_batch)
    from raycrawl.kernels import md5_gram_hashes, md5_u64
    from raycrawl.textops import fingerprint_batch

    texts = _EDGE_TEXTS + _rand_texts(3)
    ids = list(range(len(texts)))
    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts, pa.string())})

    # shingles (k=3): vectorized unique == scalar shingle_set
    h, offs = md5_gram_hashes(texts, 3)
    for i, text in enumerate(texts):
        assert np.array_equal(np.unique(h[offs[i]:offs[i + 1]]),
                              shingle_set(text)), text

    # simhash: segmented batch == scalar per doc
    got = simhash_batch(t)["simhash"].to_numpy()
    exp = np.array([simhash64(s) for s in texts], np.uint64)
    assert (got == exp).all()

    # fingerprint (k=8): batch == the old scalar loop
    fp = fingerprint_batch(t)
    for i, text in enumerate(texts):
        toks = text.split()
        if len(toks) < 8:
            e_fp, e_n = md5_u64(" ".join(toks)), (1 if toks else 0)
        else:
            e_fp = min(md5_u64(" ".join(toks[j:j + 8]))
                       for j in range(len(toks) - 7))
            e_n = len(toks) - 7
        assert int(fp["fingerprint"][i].as_py()) == e_fp, text
        assert int(fp["n_ngrams"][i].as_py()) == e_n, text


def test_offer_salt_single_row_batches_stay_distinct():
    """ADVICE r3: with the old cancelling XOR, every n==1 batch collapsed
    to salt==1; rotated mixing keeps the row's identity in the salt."""
    import numpy as np

    from raycrawl.frontier import offer_salt

    keys = [np.array([k], dtype=np.uint64)
            for k in (7, 11, 2**63 + 5, 123456789)]
    salts = {offer_salt(k) for k in keys}
    assert len(salts) == len(keys)
    assert 1 not in salts
    # retry-stability: a Ray task retry recomputes the same batch in the
    # same order -> same salt
    two = np.array([7, 11], dtype=np.uint64)
    assert offer_salt(two) == offer_salt(two.copy())
    assert offer_salt(np.array([], dtype=np.uint64)) == 0


def test_ann_gc_keeps_param_variants_and_fresh_dirs(tmp_path):
    """ADVICE r3: GC after a commit must drop only STALE-content siblings
    past the grace window — same-content param variants survive."""
    import os
    import time

    from raycrawl.ann import _gc_stale_siblings

    root = tmp_path
    for d in ["ph-aaaa_c16", "ph-aaaa_c32", "ph-bbbb_c16", "ph-cccc_c16",
              "other-aaaa_c16"]:
        (root / d).mkdir()
    old = time.time() - 3600
    os.utime(root / "ph-bbbb_c16", (old, old))   # stale + old -> dropped
    # ph-cccc_c16 is stale-content but FRESH -> kept (grace window)
    _gc_stale_siblings(str(root / "ph-aaaa_c16"))
    left = sorted(p.name for p in root.iterdir())
    assert left == ["other-aaaa_c16", "ph-aaaa_c16", "ph-aaaa_c32",
                    "ph-cccc_c16"]


def test_minhash_bands_batch_vectorized_semantics():
    """The vectorized bands stage must (a) compute signatures identical to
    scalar minhash_signature (incl. empty docs), and (b) produce band
    hashes whose equality pattern matches chunk equality exactly — the
    property the LSH bucket groupby relies on."""
    import numpy as np

    from raycrawl.dedup import (N_BANDS, ROWS_PER_BAND, minhash_bands_batch,
                                minhash_signature, shingle_set)

    texts = ["a b c d e f", "a b c d e f", "x y z w", "", "one two",
             "a b c d e f g h i j"]
    shs = [shingle_set(s) for s in texts]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "shingles": pa.array([s.tolist() for s in shs], pa.list_(pa.uint64())),
    })
    # exercise the sliced-offsets path too
    for tbl in (t, t.slice(1)):
        out = minhash_bands_batch(tbl).to_pandas()
        ids = tbl["doc_id"].to_pylist()
        assert len(out) == len(ids) * N_BANDS
        sig = {d: minhash_signature(shs[d]) for d in ids}
        bh = {(r.doc_id, r.band_id): r.band_hash for r in out.itertuples()}
        for da in ids:
            for db in ids:
                for b in range(N_BANDS):
                    chunk_eq = np.array_equal(
                        sig[da][b * ROWS_PER_BAND:(b + 1) * ROWS_PER_BAND],
                        sig[db][b * ROWS_PER_BAND:(b + 1) * ROWS_PER_BAND])
                    hash_eq = bh[(da, b)] == bh[(db, b)]
                    assert chunk_eq == hash_eq, (da, db, b)


def test_list_matrix_fixed_size_list_respects_slice_offset():
    """FixedSizeListArray.values is the UNSLICED child: a sliced Array must
    map rows via offset*list_size (code-review r4: the fixed-size branch
    crashed on any sliced input while the variable-width branch below it
    compensated correctly)."""
    import pyarrow as pa

    from raycrawl.kernels import list_matrix

    arr = pa.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]],
                   pa.list_(pa.float32(), 2))
    m = list_matrix(arr.slice(1, 2))
    assert m.shape == (2, 2)
    assert (m == np.array([[3.0, 4.0], [5.0, 6.0]])).all()
    # variable-width sibling: same slice semantics
    v = pa.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], pa.list_(pa.float64()))
    mv = list_matrix(v.slice(1, 2))
    assert (mv == np.array([[3.0, 4.0], [5.0, 6.0]])).all()


def test_knuth_key32_matches_inline_formula():
    """The shared kernel must stay bit-identical to the documented formula
    (and hence to every DuckDB twin that spells it in SQL)."""
    from raycrawl.kernels import knuth_key32

    ids = np.array([0, 1, 12345, 2**31, 2**32 - 1, 2**32, 2**62], np.uint64)
    for seed in (0, 7, 11):
        salt = np.uint64((seed * 2654435761) % (1 << 32))
        mod32 = np.uint64(1 << 32)
        want = (((ids % mod32) ^ salt) * np.uint64(2654435761)) % mod32
        assert (knuth_key32(ids, seed) == want).all()
        assert (knuth_key32(ids.astype(np.int64), seed) == want).all()


def test_md5_gram_hashes_arrow_fast_path_bit_identical():
    """The zero-boxing Arrow path of md5_gram_hashes (byte-level tokenizer
    over the flat buffer) must be bit-identical to the per-doc list path
    on adversarial ASCII-whitespace inputs — empty docs, whitespace-only
    docs, every ASCII whitespace byte, multi-byte utf-8 letters, short
    docs (< k tokens), and non-zero Arrow slice offsets."""
    import random
    import string

    import numpy as np
    import pyarrow as pa

    from raycrawl.kernels import md5_gram_hashes, md5_gram_hashes_arrow

    random.seed(3)
    texts = ["", "   ", "one", "one two", "a  b\tc\nd",
             "\n lead and trail \t ", "x" * 5,
             "héllo wörld déjà vu encore", "a b c d e f g"]
    for _ in range(50):
        nw = random.randint(0, 12)
        toks = ["".join(random.choices(string.ascii_letters + "éü№",
                                       k=random.randint(1, 6)))
                for _ in range(nw)]
        seps = ["".join(random.choices(" \t\n\x0b\x0c\r",
                                       k=random.randint(1, 3)))
                for _ in range(nw + 1)]
        texts.append(seps[0] + "".join(t + s for t, s in zip(toks, seps[1:])))
    for k in (1, 2, 3, 5):
        h1, o1 = md5_gram_hashes(texts, k)
        h2, o2 = md5_gram_hashes_arrow(pa.array(texts, pa.string()), k)
        assert np.array_equal(o1, o2)
        assert np.array_equal(h1, h2)
        h3, o3 = md5_gram_hashes_arrow(
            pa.array(texts, pa.string()).slice(3, 20), k)
        h1s, o1s = md5_gram_hashes(texts[3:23], k)
        assert np.array_equal(h3, h1s) and np.array_equal(o3, o1s)
