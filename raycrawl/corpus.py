"""Deterministic synthetic web corpus (FIXTURES.md F1/F2).

Generates the primary input table ``pages`` with exactly the
``BASELINE.json.input_hint`` schema —
``url:string, warc_ts:timestamp[us], html:binary, text:string, lang:string``
— plus ground-truth side tables used only by tests/oracles:

- ``captures.parquet`` (``src_url``, ``captures:list<string>``): the exact
  ordered list of strings the reference extraction regex would capture from
  each page's HTML, derived **analytically from the rendering rules** (not
  by running our regex), so the kernel conformance test is independent.
- ``seeds.parquet`` (``url``, ``depth``): raw, messy seed URLs.

Topology: hosts drawn from a seeded universe with Zipf-ish link-target
popularity (host 0 is a hot hub, for skew handling); ~``ghost_frac`` of link
targets have no page (→ 404); rendering variants cover the adversarial cases
from the reference's own tests (www-variants, mixed-case hosts, uppercase
scheme NOT captured, paths collapsed, ports, duplicates kept) —
shared/src/crawler.rs:62-114, shared/src/url_normalize.rs:24-69.

Everything is a pure function of (n_hosts, seed): regenerating is
idempotent and cheap; outputs are cached under /tmp.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from raycrawl.kernels import TAG_RE, hash64_int, strip_tags
from raycrawl import sim
from raycrawl import dns_synth
from raycrawl.kernels import normalize_url

_BASE_TS_US = 1_767_225_600_000_000  # 2026-01-01T00:00:00Z in µs

PRESETS = {
    "tiny": dict(n_hosts=200, mean_links=6),
    "small": dict(n_hosts=5_000, mean_links=8),
    # bench: vectorized generator; flat-ish target distribution + high
    # fan-out so a depth-5 BFS from one seed fetches ~the whole corpus
    # (throughput bench needs the compute to dominate fixed round costs);
    # a mild hub remains for skew handling.
    "bench": dict(n_hosts=1_200_000, mean_links=55, zipf_alpha=0.25,
                  hub_out_links=200, fast=True),
    # mid: ~1/8th of bench — paired A/B datapoints (politeness on/off,
    # layout variants) where two full bench runs would cost 20+ min each
    # on a degraded host; same shape, same generator
    "mid": dict(n_hosts=150_000, mean_links=55, zipf_alpha=0.25,
                hub_out_links=200, fast=True),
    # bench_hv: bench-shaped graph with HIGH-ENTROPY per-page filler (a
    # 65k-word pool instead of 512 shared paragraphs) and planted
    # adjacent-page near-dup mirrors — the realistic-text regime for the
    # ingestion-dedup stage, where LSH buckets are sparse and the only
    # j≥0.6 pairs are the planted ones. mirror_frac=0.004 plants ~4.8k
    # mirrors among 1.2M pages.
    "bench_hv": dict(n_hosts=1_200_000, mean_links=55, zipf_alpha=0.25,
                     hub_out_links=200, fast=True, filler_vocab=65_536,
                     mirror_frac=0.004),
}


def host_name(i: int) -> str:
    """Deterministic lowercase hostname for universe index i (varied shapes:
    plain, multi-TLD, hyphens, deep subdomains — exercising the DNS
    suffix-iteration and the extractor charset)."""
    m = hash64_int(f"shape:{i}") % 10
    if m < 4:
        return f"site{i}.com"
    if m < 6:
        return f"my-site{i}.co.uk"
    if m < 8:
        return f"api.sub{i % 97}.example{i}.org"
    if m == 8:
        return f"deep.a{i}.b{i % 13}.net"
    return f"xn-host{i}.io"


def host_proto(i: int) -> str:
    """Canonical scheme of the page for host i (lowercase)."""
    return "http" if hash64_int(f"proto:{i}") % 4 == 0 else "https"


def _mixed_case(host: str) -> str:
    return ".".join(p[:1].upper() + p[1:] for p in host.split("."))


def render_link(target_host: str, variant: int, proto: str = "https") -> tuple[str, list[str]]:
    """→ (html snippet, analytically-expected regex captures, in order).

    ``proto`` is the target's canonical scheme so most links actually hit a
    page; variant 6 deliberately uses the wrong scheme (→ 404 path).
    """
    if variant == 0:
        raw = f"{proto}://{target_host}"
        return f'<a href="{raw}">link</a>', [raw]
    if variant == 1:
        raw = f"{proto}://www.{target_host}"
        return f'<a href="{raw}/path/to/page">deep</a>', [raw]
    if variant == 2:
        raw = f"{proto}://{_mixed_case(target_host)}"
        return f"see {raw} for details", [raw]
    if variant == 3:
        # Uppercase scheme: the reference regex is case-sensitive on the
        # scheme (crawler.rs:9) → never captured.
        raw = f"{proto.upper()}://{target_host.upper()}"
        return f"SHOUTING {raw} IS NOT A LINK", []
    if variant == 4:
        raw = f"{proto}://{target_host}:8080"
        return f'<a href="{raw}/x?q=1">port</a>', [raw]
    if variant == 6:
        wrong = "http" if proto == "https" else "https"
        raw = f"{wrong}://{target_host}"
        return f'<a href="{raw}">stale-scheme</a>', [raw]
    # variant 5: bare duplicates, kept in document order
    raw = f"{proto}://{target_host}"
    return f"{raw} and again {raw}", [raw, raw]


_FILLER_WORDS = [
    "lorem", "ipsum", "dolor", "sit", "amet", "consectetur", "adipiscing",
    "elit", "sed", "do", "eiusmod", "tempor", "incididunt", "labore",
    "dolore", "magna", "aliqua", "enim", "minim", "veniam", "quis",
]


def _filler(rng: np.random.Generator, n_words: int) -> str:
    idx = rng.integers(0, len(_FILLER_WORDS), size=n_words)
    return " ".join(_FILLER_WORDS[i] for i in idx)


def generate_corpus(
    out_dir: str,
    n_hosts: int = 200,
    seed: int = 42,
    ghost_frac: float = 0.12,
    mean_links: int = 6,
    hub_out_links: int = 200,
    n_seeds: int = 4,
    zipf_alpha: float = 1.05,
    mirror_frac: float = 0.0,
) -> str:
    """Write pages/captures/seeds parquet into out_dir (idempotent).

    ``mirror_frac`` > 0 plants NEAR-DUPLICATE pages (the ingestion-dedup
    fixture): ~that fraction of hosts i ≥ 10 copy the finished body (and
    therefore the analytic captures) of a deterministic earlier host
    j < i, with only the page title and one appended paragraph differing —
    3-gram Jaccard ≈ 0.9+. Reachability is planted too: even-hash mirror
    pairs are both linked from the hub (host 0 → source and mirror fetch
    in the SAME round: the intra-round dedup path), odd-hash mirrors are
    linked from their source page j itself (mirror discovered one round
    AFTER j: the cross-round persisted-index path). Default 0.0 keeps
    every existing corpus byte-identical."""
    marker = os.path.join(out_dir, "_SUCCESS")
    if os.path.exists(marker):
        return out_dir
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)

    # deterministic mirror plan: i -> (source j, hub-linked?)
    mirror_of: dict[int, tuple[int, bool]] = {}
    if mirror_frac > 0:
        for i in range(10, n_hosts):
            h = hash64_int(f"mirror:{seed}:{i}")
            if h % 1000 < int(mirror_frac * 1000):
                j = 1 + hash64_int(f"mirrorsrc:{seed}:{i}") % (i - 1)
                mirror_of[i] = (j, h % 2 == 0)

    n_ghosts = max(1, int(n_hosts * ghost_frac))
    universe = n_hosts + n_ghosts  # targets may point at ghosts (no page → 404)
    hosts = [host_name(i) for i in range(universe)]

    # Zipf-ish target popularity over the whole universe.
    weights = 1.0 / np.power(np.arange(1, universe + 1, dtype=np.float64), zipf_alpha)
    weights /= weights.sum()

    # vectorized draws: one big choice() instead of one per page (the
    # per-page draw is O(universe) and dominates generation time)
    protos = [host_proto(i) for i in range(universe)]
    ks = np.maximum(1, rng.poisson(mean_links, size=n_hosts))
    if n_hosts > 0:
        ks[0] = hub_out_links
    offsets = np.concatenate([[0], np.cumsum(ks)])
    all_targets = rng.choice(universe, size=int(offsets[-1]), p=weights)
    all_variants = rng.integers(0, 7, size=int(offsets[-1]))

    # chain-mirror plan inverted: source j -> mirrors i it must link to
    chain_links: dict[int, list[int]] = {}
    for i, (j, hub_linked) in mirror_of.items():
        if not hub_linked:
            chain_links.setdefault(j, []).append(i)

    urls, ts, htmls, texts, langs = [], [], [], [], []
    cap_src, cap_lists = [], []
    bodies: list[str] = []
    caps_of: list[list[str]] = []
    for i in range(n_hosts):
        h = hosts[i]
        url = f"{protos[i]}://{h}"
        if i in mirror_of:
            # near-duplicate page: the finished body (and captures) of the
            # earlier source host, one extra paragraph appended
            j, _hub = mirror_of[i]
            body = bodies[j] + f"\n<p>mirror copy {i}</p>"
            caps = list(caps_of[j])
        else:
            targets = all_targets[offsets[i] : offsets[i + 1]]
            variants = all_variants[offsets[i] : offsets[i + 1]]
            snippets, caps = [], []
            for t, v in zip(targets, variants):
                snip, c = render_link(hosts[int(t)], int(v), protos[int(t)])
                snippets.append(snip)
                caps.extend(c)
            # occasional self-link (ROOT-label vs URL-label quirk exercise)
            if hash64_int(f"self:{i}") % 7 == 0:
                snip, c = render_link(h, 0, protos[i])
                snippets.append(snip)
                caps.extend(c)
            if i == 0:
                # hub reachability for the even-hash mirror pairs: link
                # BOTH sides from the hub (same discovery round)
                for mi, (mj, hub_linked) in sorted(mirror_of.items()):
                    if hub_linked:
                        for tgt in (mj, mi):
                            snip, c = render_link(hosts[tgt], 0, protos[tgt])
                            snippets.append(snip)
                            caps.extend(c)
            for mi in chain_links.get(i, ()):
                # odd-hash mirrors hang off their source page: the mirror
                # is discovered (and fetched) one round after the source
                snip, c = render_link(hosts[mi], 0, protos[mi])
                snippets.append(snip)
                caps.extend(c)
            body = f"<p>{_filler(rng, 40 + int(rng.integers(0, 200)))}</p>\n" + "\n".join(
                f"<p>{s}</p>" for s in snippets
            )
        bodies.append(body)
        caps_of.append(caps)
        html = (
            f"<html><head><title>{h}</title></head><body>\n{body}\n</body></html>"
        )
        urls.append(url)
        ts.append(_BASE_TS_US + i * 1_000_000)
        htmls.append(html.encode("utf-8"))
        texts.append(TAG_RE.sub("", html))
        langs.append(["en", "de", "fr", "es", "pt"][hash64_int(f"lang:{h}") % 5])
        cap_src.append(url)
        cap_lists.append(caps)

    pages = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(ts, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
        }
    )
    pq.write_table(pages, os.path.join(out_dir, "pages.parquet"))
    pq.write_table(
        pa.table(
            {
                "src_url": pa.array(cap_src, pa.string()),
                "captures": pa.array(cap_lists, pa.list_(pa.string())),
            }
        ),
        os.path.join(out_dir, "captures.parquet"),
    )

    # Seeds: raw messy forms of hosts whose root fetch + DNS will succeed
    # (the reference aborts the whole crawl otherwise — routes/crawl.rs:48-83).
    seed_urls, seed_depths = [], []
    i = 0
    while len(seed_urls) < n_seeds and i < n_hosts:
        name, proto = normalize_url(f"{host_proto(i)}://{hosts[i]}")
        ok = (
            sim.fetch_status(name, proto, 1, True) == sim.STATUS_OK
            and dns_synth.get_network_stats(name) is not None
        )
        if ok:
            # messy raw form: mixed case + www. prefix on even seeds
            raw = f"{host_proto(i)}://" + (
                "www." + _mixed_case(hosts[i]) if len(seed_urls) % 2 == 0 else hosts[i]
            )
            seed_urls.append(raw)
            seed_depths.append(2 + len(seed_urls) % 3)  # depths 3,4,2,3...
        i += 1
    pq.write_table(
        pa.table(
            {
                "url": pa.array(seed_urls, pa.string()),
                "depth": pa.array(seed_depths, pa.int32()),
            }
        ),
        os.path.join(out_dir, "seeds.parquet"),
    )

    with open(marker, "w") as f:
        f.write("ok\n")
    return out_dir


def ensure_corpus(tag: str = "tiny", seed: int = 42, base: str = "/tmp/raycrawl_corpus") -> str:
    """Cached preset corpus → directory path."""
    preset = dict(PRESETS[tag])
    out = os.path.join(base, f"{tag}_s{seed}")
    if preset.pop("fast", False):
        return generate_corpus_fast(out, seed=seed, **preset)
    return generate_corpus(out, seed=seed, **preset)


# ---------------------------------------------------------------------------
# Vectorized large-corpus generator (bench scale) — same page semantics,
# Arrow-vectorized rendering in page chunks, no analytic-captures side table
# (that ground truth is only needed by the oracle tests, which use the loop
# generator above at tiny/small scale).
# ---------------------------------------------------------------------------

def fast_mirror_flags(seed: int, start: int, stop: int, mirror_frac: float,
                      chunk_pages: int = 100_000) -> np.ndarray:
    """Planted-mirror mask for global page indices [start, stop) of a
    ``generate_corpus_fast`` corpus — deterministic in (seed, i), so the
    planted truth is recomputable without the corpus. A flagged page i
    mirrors page i-1. Never flags two consecutive pages (a mirror's
    source must carry its own content) nor a generation-chunk's first
    page (the source must be rendered in the same chunk); evaluation
    always starts at the enclosing chunk boundary so any window sees the
    same flags."""
    c0 = (start // chunk_pages) * chunk_pages
    cut = int(mirror_frac * 1000)
    n = stop - c0
    raw = np.fromiter(
        (hash64_int(f"fmirror:{seed}:{i}") % 1000 < cut
         for i in range(c0, stop)), bool, n)
    flags = np.zeros(n, bool)
    for k in np.flatnonzero(raw):
        i = c0 + k
        if i % chunk_pages == 0 or flags[k - 1]:
            continue
        flags[k] = True
    return flags[start - c0:]


def generate_corpus_fast(
    out_dir: str,
    n_hosts: int,
    seed: int = 42,
    ghost_frac: float = 0.10,
    mean_links: int = 55,
    hub_out_links: int = 200,
    n_seeds: int = 4,
    zipf_alpha: float = 0.25,
    variant_weights=(0.30, 0.15, 0.15, 0.03, 0.04, 0.18, 0.15),
    chunk_pages: int = 100_000,
    filler_vocab: int = 0,
    mirror_frac: float = 0.0,
) -> str:
    """``filler_vocab`` > 0 switches the page filler from the legacy
    512-shared-paragraph pool (whose reuse across ~2.3k pages each makes
    the whole corpus one giant family of organic near-dups — the
    LSH-bucket worst case BASELINE.md's ingestion-dedup A/B measures) to
    per-page text drawn from a ``filler_vocab``-word hash-derived pool —
    realistic shingle entropy, near-zero organic dup mass.

    ``mirror_frac`` > 0 additionally plants ADJACENT-PAGE near-dup
    mirrors: page i (hash-flagged, never two in a row, never the first
    page of a chunk) renders page i-1's filler and link body plus one
    extra marker paragraph, so its tag-stripped text is a j≈0.9+
    superset of its neighbor's. The planted truth is recomputable from
    (seed, i) alone via ``fast_mirror_flags``."""
    import pyarrow.compute as pc

    marker = os.path.join(out_dir, "_SUCCESS")
    if os.path.exists(marker):
        return out_dir
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)

    n_ghosts = max(1, int(n_hosts * ghost_frac))
    universe = n_hosts + n_ghosts
    hosts = [host_name(i) for i in range(universe)]
    protos = [host_proto(i) for i in range(universe)]
    mixed = [_mixed_case(h) for h in hosts]
    hosts_a = pa.array(hosts, pa.string())
    protos_a = pa.array(protos, pa.string())
    mixed_a = pa.array(mixed, pa.string())
    langs_pool = ["en", "de", "fr", "es", "pt"]
    page_langs = [langs_pool[hash64_int(f"lang:{hosts[i]}") % 5] for i in range(n_hosts)]

    weights = 1.0 / np.power(np.arange(1, universe + 1, dtype=np.float64), zipf_alpha)
    weights /= weights.sum()
    vw = np.asarray(variant_weights, dtype=np.float64)
    vw /= vw.sum()

    ks = np.maximum(1, rng.poisson(mean_links, size=n_hosts))
    ks[0] = hub_out_links
    filler_pool = pa.array(
        ["<p>" + _filler(rng, 40 + int(rng.integers(0, 160))) + "</p>" for _ in range(512)],
        pa.string(),
    )
    filler_idx = rng.integers(0, 512, size=n_hosts)
    vocab_a = (pa.array(
        [f"w{hash64_int(f'v:{seed}:{k}') & 0xFFFFFF:x}"
         for k in range(filler_vocab)], pa.string())
        if filler_vocab else None)

    def cat(*parts):
        return pc.binary_join_element_wise(*parts, "")

    writer = None
    schema = pa.schema(
        [("url", pa.string()), ("warc_ts", pa.timestamp("us")),
         ("html", pa.binary()), ("text", pa.string()), ("lang", pa.string())]
    )
    for start in range(0, n_hosts, chunk_pages):
        stop = min(start + chunk_pages, n_hosts)
        cks = ks[start:stop]
        total = int(cks.sum())
        t_idx = rng.choice(universe, size=total, p=weights)
        v = rng.choice(7, size=total, p=vw)

        th = pc.take(hosts_a, pa.array(t_idx))
        tp = pc.take(protos_a, pa.array(t_idx))
        tm = pc.take(mixed_a, pa.array(t_idx))
        tu = pc.utf8_upper(th)
        tpu = pc.utf8_upper(tp)
        wrong = pc.if_else(pc.equal(tp, "https"), pa.scalar("http"), pa.scalar("https"))

        s0 = cat(pa.scalar('<a href="'), tp, pa.scalar("://"), th, pa.scalar('">link</a>'))
        s1 = cat(pa.scalar('<a href="'), tp, pa.scalar("://www."), th,
                 pa.scalar('/path/to/page">deep</a>'))
        s2 = cat(pa.scalar("see "), tp, pa.scalar("://"), tm, pa.scalar(" for details"))
        s3 = cat(pa.scalar("SHOUTING "), tpu, pa.scalar("://"), tu,
                 pa.scalar(" IS NOT A LINK"))
        s4 = cat(pa.scalar('<a href="'), tp, pa.scalar("://"), th,
                 pa.scalar(':8080/x?q=1">port</a>'))
        s5 = cat(tp, pa.scalar("://"), th, pa.scalar(" and again "), tp,
                 pa.scalar("://"), th)
        s6 = cat(pa.scalar('<a href="'), wrong, pa.scalar("://"), th,
                 pa.scalar('">stale-scheme</a>'))
        va = pa.array(v, pa.int8())
        snip = s0
        for k, sk in ((1, s1), (2, s2), (3, s3), (4, s4), (5, s5), (6, s6)):
            snip = pc.if_else(pc.equal(va, k), sk, snip)

        offsets = np.concatenate([[0], np.cumsum(cks)]).astype(np.int32)
        body = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(offsets), snip.combine_chunks()
                                     if isinstance(snip, pa.ChunkedArray) else snip),
            "\n",
        )
        page_hosts = hosts_a.slice(start, stop - start)
        page_protos = protos_a.slice(start, stop - start)
        if filler_vocab:
            # high-entropy per-page filler: every page draws its own
            # words from the vocab pool (no shared paragraphs, so no
            # organic near-dup mass)
            nw = 40 + rng.integers(0, 160, size=stop - start)
            woff = np.zeros(stop - start + 1, np.int64)
            np.cumsum(nw, out=woff[1:])
            draws = rng.integers(0, filler_vocab, size=int(woff[-1]))
            words = pc.take(vocab_a, pa.array(draws))
            inner = pc.binary_join(
                pa.ListArray.from_arrays(
                    pa.array(woff, pa.int32()),
                    words.combine_chunks()
                    if isinstance(words, pa.ChunkedArray) else words),
                " ")
            fillers = cat(pa.scalar("<p>"), inner, pa.scalar("</p>"))
        else:
            fillers = pc.take(filler_pool, pa.array(filler_idx[start:stop]))
        mark = pa.scalar("")
        if mirror_frac > 0:
            mflags = fast_mirror_flags(seed, start, stop, mirror_frac,
                                       chunk_pages)
            if mflags.any():
                src = np.arange(stop - start, dtype=np.int64)
                src[mflags] -= 1
                fillers = pc.take(fillers, pa.array(src))
                body = pc.take(body, pa.array(src))
                mark = pa.array(
                    [f"\n<p>mirror copy {start + k}</p>" if mflags[k] else ""
                     for k in range(stop - start)], pa.string())
        html = cat(
            pa.scalar("<html><head><title>"), page_hosts,
            pa.scalar("</title></head><body>\n"), fillers, pa.scalar("\n"),
            body, mark, pa.scalar("\n</body></html>"),
        )
        text = strip_tags(html).cast(pa.string())
        urls = cat(page_protos, pa.scalar("://"), page_hosts)
        ts = pa.array(
            _BASE_TS_US + np.arange(start, stop, dtype=np.int64) * 1_000_000,
            pa.timestamp("us"),
        )
        chunk = pa.table(
            {
                "url": urls,
                "warc_ts": ts,
                "html": pc.cast(html, pa.binary()),
                "text": text,
                "lang": pa.array(page_langs[start:stop], pa.string()),
            },
            schema=schema,
        )
        if writer is None:
            writer = pq.ParquetWriter(os.path.join(out_dir, "pages.parquet"), schema)
        writer.write_table(chunk)
    if writer is not None:
        writer.close()

    # seeds (same rule as the loop generator)
    seed_urls, seed_depths = [], []
    i = 0
    while len(seed_urls) < n_seeds and i < n_hosts:
        name, proto = normalize_url(f"{protos[i]}://{hosts[i]}")
        ok = (
            sim.fetch_status(name, proto, 1, True) == sim.STATUS_OK
            and dns_synth.get_network_stats(name) is not None
        )
        if ok:
            raw = f"{protos[i]}://" + (
                "www." + _mixed_case(hosts[i]) if len(seed_urls) % 2 == 0 else hosts[i]
            )
            seed_urls.append(raw)
            seed_depths.append(2 + len(seed_urls) % 3)
        i += 1
    pq.write_table(
        pa.table({"url": pa.array(seed_urls, pa.string()),
                  "depth": pa.array(seed_depths, pa.int32())}),
        os.path.join(out_dir, "seeds.parquet"),
    )
    with open(marker, "w") as f:
        f.write("ok\n")
    return out_dir
