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


def test_normalize_arrow_scalar_fixes_only_non_ascii_rows():
    """Non-ASCII rows (here ß, whose full upper case is SS) are replaced in
    place among vectorized ASCII rows; mixed, all-non-ASCII, chunked and
    empty columns all equal per-row ``normalize_url``, as string arrays."""
    mixed = ["https://www.straße.de", "http://WWW.Example.com", "www.a.com",
             "HTTPS://b.org", "http://ßwww.x", "https://www.ß.com", "c.net"]
    cases = [
        pa.array(mixed, pa.string()),
        pa.array(["straße.de", "https://WWW.ß", "http://ßß"], pa.string()),
        pa.chunked_array([mixed[:2], mixed[2:]], pa.string()),
        pa.array([], pa.string()),
    ]
    for urls in cases:
        names, protos = normalize_urls_arrow(urls)
        assert names.type == protos.type == pa.string()
        want = [normalize_url(u) for u in urls.to_pylist()]
        assert names.to_pylist() == [n for n, _ in want]
        assert protos.to_pylist() == [p for _, p in want]
    assert normalize_urls_arrow(cases[0])[0][0].as_py() == "STRASSE.DE"


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

    got = {k: col.to_pylist() for k, col in enrich_pages(htmls).items()}
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


# ASCII pages reach the numpy word pass: stopwords in mixed case, punctuation
# and "_" inside tokens, digits, every ASCII whitespace byte, tags, and
# pages longer than the 256-token window
_ascii_word = st.one_of(
    st.sampled_from(["the", "The", "THE", "tHe", "a", "A", "of", "OF", "and",
                     "AnD", "that", "This", "with", "be", "an", "it", "x",
                     "<b>", "</p>", "<a href='x'>", "<", ">", "<>", "_",
                     "the_", "9", "a1"]),
    st.lists(st.sampled_from(list("abTHE_09.,-'<>!;") + ["the", "Of"]),
             min_size=1, max_size=6).map("".join),
)
_ascii_ws = st.sampled_from([" ", "\t", "\n", "\x0b", "\x0c", "\r",
                             " \t ", "\r\n"])


@st.composite
def _ascii_page(draw):
    words = draw(st.lists(_ascii_word, max_size=60))
    words = words * draw(st.sampled_from([1, 1, 6]))     # > 256 tokens
    seps = draw(st.lists(_ascii_ws, min_size=len(words) + 1,
                         max_size=len(words) + 1))
    return seps[0] + "".join(w + s for w, s in zip(words, seps[1:]))


@settings(max_examples=200, deadline=None)
@given(st.lists(_ascii_page(), min_size=1, max_size=6))
def test_enrich_pages_equals_enrich_page_ascii(htmls):
    _assert_enrich_equal(htmls)


def test_enrich_pages_mixed_batch_rows_align():
    """A batch that mixes plain, non-ASCII, U+001C, null, empty and
    whitespace-only rows: every row gets its own page's features, equal to
    the scalar's, and a row alone in a batch gets the same ones."""
    from raycrawl.frontier import enrich_pages

    plain = "<p>The cat and the dog of it</p> " + " ".join(
        f"w{i} the" for i in range(300))
    rows = [
        plain, "<b>café</b> the crème of it", None, "the\x1cof and\x1fA",
        "", " \t\n ", "Straße and the Ökonomie " * 200, None,
        plain.upper(), "x\u00a0y the\u3000of", "\x1c", "<p>only tags</p>",
        # one token 300 times: every SimHash bit count reaches the window
        "the " * 300, "Of\t" * 255,
    ]
    batch = [rows[i % len(rows)] for i in range(3 * len(rows))]
    _assert_enrich_equal(batch)
    got = {k: v.to_pylist() for k, v in enrich_pages(batch).items()}
    for i, h in enumerate(batch):
        alone = {k: v.to_pylist()[0] for k, v in enrich_pages([h]).items()}
        assert alone == {k: got[k][i] for k in got}, (i, h)
    assert len(set(got["simhash"]) - {None}) >= 6


def test_utf8_split_equals_str_split_every_code_point():
    """The UTF-8 trim + split pair that ``enrich_pages`` tokenizes with
    splits as ``str.split()`` at every code point (U+001C-U+001F
    included), and the ASCII pair does on every ASCII byte but those four.
    Pinned so that a pyarrow upgrade that moves either fails here."""
    import sys

    import pyarrow.compute as pc

    cps = [c for c in range(sys.maxunicode + 1)
           if not 0xD800 <= c <= 0xDFFF]
    chars = [chr(c) for c in cps]
    texts = pa.array([f"{ch}a{ch}b{ch}" for ch in chars], pa.large_string())
    toks = pc.utf8_split_whitespace(pc.utf8_trim_whitespace(texts))
    space = np.array([not ch.split() for ch in chars])
    lens = pc.list_value_length(toks).to_numpy()
    assert (lens == np.where(space, 2, 1)).all()
    flat = toks.flatten()
    first = toks.offsets.to_numpy()[:-1]
    assert pc.all(pc.equal(flat.take(pa.array(first[space])), "a")).as_py()
    assert pc.all(pc.equal(flat.take(pa.array(first[space] + 1)),
                           "b")).as_py()
    assert flat.take(pa.array(first[~space])).equals(
        texts.filter(pa.array(~space)))

    ascii_ = [c for c in range(128) if not 0x1C <= c <= 0x1F]
    atexts = [f"{chr(c)}a{chr(c)}b{chr(c)}" for c in ascii_]
    got = pc.ascii_split_whitespace(pc.ascii_trim_whitespace(
        pa.array(atexts, pa.large_string()))).to_pylist()
    assert got == [t.split() or [""] for t in atexts]


def test_strip_tags_matches_re_sub():
    """``kernels.strip_tags`` is ``re.sub(r"<[^>]+>", "", text)`` per row,
    on Unicode text, empty tags, nested openers, unclosed tags and tags
    that span lines; nulls stay null."""
    import re

    from raycrawl.kernels import strip_tags

    texts = ["<p>café</p> naïve <b>中文</b>", "a <> b", "<<a>x", "x < y",
             "unclosed <tag", "<a\nhref='y'>multi\nline</a>", ">>a<",
             "<é>ü<\u00a0>", "<<>>", "", "<>a<b>", "a<b<c>d>e",
             "1 < 2 > 0", None]
    got = strip_tags(pa.array(texts, pa.string()))
    assert got.type == pa.large_string()
    assert got.to_pylist() == [None if t is None else
                               re.sub(r"<[^>]+>", "", t) for t in texts]
    chunked = pa.chunked_array([texts[:5], texts[5:]], pa.string())
    assert strip_tags(chunked).to_pylist() == got.to_pylist()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet=st.sampled_from(
    list("<>a /=\n") + ["\u00e9", "\u4e2d", "\U0001f600"]), max_size=30),
    min_size=1, max_size=5))
def test_strip_tags_matches_re_sub_generated(texts):
    import re

    from raycrawl.kernels import strip_tags

    assert strip_tags(pa.array(texts, pa.string())).to_pylist() == \
        [re.sub(r"<[^>]+>", "", t) for t in texts]


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

    def same(col, want):
        for k in (1, 2, 3, 5):
            h, o = md5_gram_hashes_arrow(col, k)
            hw, ow = md5_gram_hashes(want, k)
            assert np.array_equal(o, ow) and np.array_equal(h, hw), k

    # null texts yield no grams, like empty ones
    with_nulls = [None, "a b c d", None, None, "x", "", None, "p q r s t"]
    same(pa.array(with_nulls, pa.string()), [t or "" for t in with_nulls])
    same(pa.array(texts, pa.large_string()), texts)
    same(pa.chunked_array([pa.array(texts[:7], pa.string()),
                           pa.array([], pa.string()),
                           pa.array(texts[7:30], pa.string()),
                           pa.array(texts[30:], pa.string())]), texts)
    # runs of empty and whitespace-only docs between non-empty ones, read
    # through a slice whose offset is not zero
    gappy = ["lead doc here", "", " \t ", "", "one two three four", "\n",
             "", "  ", "solo", "", "", "a b", " \r\x0b ", "end of it all"]
    for typ in (pa.string(), pa.large_string()):
        arr = pa.array(["skip me", "and me too"] + gappy, typ).slice(2)
        assert arr.offset == 2
        same(arr, gappy)


def test_mod_mersenne_equals_remainder():
    """The Mersenne fold is ``% (2^61 - 1)`` for every uint64, including
    the values at and around the modulus and the largest uint64."""
    from raycrawl.kernels import _MERSENNE, mod_mersenne

    m = int(_MERSENNE)
    edges = [0, 1, m - 1, m, m + 1, m + 7, 2 * m - 1, 2 * m, 2 * m + 1,
             3 * m, 2**63, 2**64 - 2, 2**64 - 1]
    rnd = np.random.default_rng(17).integers(0, 2**64 - 1, size=100_000,
                                             dtype=np.uint64, endpoint=True)
    v = np.concatenate([np.array(edges, np.uint64), rnd])
    want = v % _MERSENNE
    got = mod_mersenne(v.copy(), np.empty_like(v))
    assert np.array_equal(got, want)
    assert [int(x) for x in got[:len(edges)]] == [e % m for e in edges]


def test_shingle_list_batch_rows_are_unique_grams():
    """Each ``shingle_list_batch`` row is ``np.unique`` of its document's
    gram hashes. The batch holds more than 2^16 documents, so the doc
    order takes two 16-bit radix passes."""
    from raycrawl.kernels import md5_gram_hashes, shingle_list_batch

    rng = np.random.default_rng(5)
    words = np.array(["a", "b", "c", "dd", "e"])
    n = (1 << 16) + 300
    texts = [" ".join(words[rng.integers(0, 5, size=rng.integers(0, 9))])
             for _ in range(n)]
    texts[-1] = " ".join(["a", "b", "a", "b", "a", "b"] * 3)
    t = shingle_list_batch(pa.array(np.arange(n), pa.int64()),
                           pa.array(texts, pa.string()))
    h, offs = md5_gram_hashes(texts, 3)
    col = t["shingles"].combine_chunks()
    vals = col.values.to_numpy()
    lo = col.offsets.to_numpy()
    assert np.array_equal(t["n_shingles"].to_numpy(), np.diff(lo))
    for i in range(n):
        assert np.array_equal(vals[lo[i]:lo[i + 1]],
                              np.unique(h[offs[i]:offs[i + 1]])), i


def _module_array_bytes(mod) -> int:
    """Bytes of the numpy arrays a module holds in its globals, directly or
    inside a dict, list or tuple."""
    total = 0
    for v in vars(mod).values():
        items = (v.values() if isinstance(v, dict)
                 else v if isinstance(v, (list, tuple)) else [v])
        total += sum(x.nbytes for x in items if isinstance(x, np.ndarray))
    return total


def test_md5_gram_hashes_arrow_keeps_no_module_scratch():
    """A gram-hash call grows no module-level buffer pool: a pool grown to
    a batch's gram bytes held about 235 MB in each fetch worker."""
    from raycrawl import kernels

    texts = pa.array([" ".join(f"w{i}_{j}" for j in range(400))
                      for i in range(300)], pa.string())
    before = _module_array_bytes(kernels)
    h, offs = kernels.md5_gram_hashes_arrow(texts, 3)
    assert len(h) == 300 * 398
    assert _module_array_bytes(kernels) == before


# ---------------------------------------------------------------------------
# the crawl path needs no pandas: enrichment and ingest near-dup use the
# crawl-owned MinHash and text constants here, not the documents lane
# ---------------------------------------------------------------------------

_NO_PANDAS_CHILD = r'''
import json, sys

class _NoPandas:
    def find_spec(self, name, path=None, target=None):
        if name == "pandas" or name.startswith("pandas."):
            raise ModuleNotFoundError(name)

sys.meta_path.insert(0, _NoPandas())
import numpy as np
import pyarrow as pa

import raycrawl.crawl, raycrawl.fetch, raycrawl.seen, raycrawl.ingest_dedup
from raycrawl import frontier, kernels

htmls, texts = json.loads(sys.argv[1])
feats = {k: col.to_pylist() for k, col in frontier.enrich_pages(htmls).items()}
sh = kernels.shingle_list_batch(pa.array([1, 2], pa.int64()), texts)
_, sig8 = kernels.minhash_bands_batch(sh, return_sig=True)
col = sh["shingles"].combine_chunks()
vals = col.values.to_numpy().astype(np.uint64)
offs = col.offsets.to_numpy().astype(np.int64)
j = kernels.segmented_jaccard(vals[offs[0]:offs[1]], offs[:2] - offs[0],
                              vals[offs[1]:offs[2]], offs[1:] - offs[1])
print(json.dumps({
    "feats": {k: [None if x is None else (x if isinstance(x, str) else
                                          float(x) if k == "quality" else int(x))
                  for x in v] for k, v in feats.items()},
    "shingles": [[str(x) for x in s] for s in sh["shingles"].to_pylist()],
    "sig8": sig8.tolist(),
    "jaccard": float(j[0]),
    "modules": sorted(m for m in sys.modules
                      if m == "pandas" or m.startswith("raycrawl.")),
}))
'''


def test_crawl_path_runs_without_pandas():
    """A fresh interpreter that refuses ``import pandas`` imports the
    crawl's worker-side modules (crawl, frontier, fetch, seen,
    ingest_dedup) and runs ``enrich_pages`` and the shingle, band and
    segmented-Jaccard kernels; the results equal the scalar twins here,
    and neither pandas nor the documents-lane modules that need it
    (dedup, textops) are loaded. The refusal matters: pyarrow imports
    pandas on its own whenever it is installed, so without it the check
    could not see an import the crawl path makes."""
    import json
    import os
    import subprocess
    import sys

    from raycrawl.dedup import jaccard, minhash_signature, shingle_set
    from raycrawl.frontier import enrich_page

    htmls = ["<p>the quick brown fox and the lazy dog</p>",
             "<b>der und sch</b> ein kleiner hund"]
    texts = ["the quick brown fox and the lazy dog",
             "the quick brown fox and the sleepy dog"]
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    r = subprocess.run(
        [sys.executable, "-c", _NO_PANDAS_CHILD, json.dumps([htmls, texts])],
        capture_output=True, text=True, timeout=120, cwd=repo,
        env={**os.environ, "PYTHONPATH": repo})
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout)

    assert "pandas" not in out["modules"]
    assert not {"raycrawl.dedup", "raycrawl.textops"} & set(out["modules"])
    for i, h in enumerate(htmls):
        want = enrich_page(h)
        got = {k: v[i] for k, v in out["feats"].items()}
        assert got == want
    sets = [shingle_set(t) for t in texts]
    assert [[int(x) for x in s] for s in out["shingles"]] == \
        [s.tolist() for s in sets]
    assert out["sig8"] == [(minhash_signature(s) & np.uint64(0xFF)).tolist()
                           for s in sets]
    assert out["jaccard"] == jaccard(*sets)
    assert 0 < out["jaccard"] < 1
