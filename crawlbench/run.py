"""Crawl-engine benchmark.

    python3 crawlbench/run.py --workload bfs_wide --seed 1 --seconds 16 --trace 0

Set-up (Ray start, corpus generation, load and broadcast, a warm-up crawl)
runs ``SETUPS`` times, Ray restarted in between; ``setup_s`` is the median.
Then one client in a closed loop submits depth-5 crawls
(``raycrawl.crawl.crawl``) from the corpus's seed URL, one after the other,
for the measured window. After the window every crawl is checked against
``raycrawl.oracle``; ``peak_rss_mb`` is the peak over the window only.

Output: one ``name value unit`` line per metric, then as the last line one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The traced run sets up once and after every
crawl makes the manager reads on it (progress, stats, graph export of nodes
and edges, ``live_progress``, one page of the run's crawl catalog), each
checked against the oracle too. It measures half its window with tracing
off, restarts Ray with the program's ``RAYCRAWL_TRACE_DIR`` hook on,
measures the other half, and reports the difference of median crawl walls
as ``trace.overhead_s``.

``--selftest`` runs each workload at toy size and checks the output and
the correctness gate (see selftest.py). Working files go under
``.crawlbench/`` at the root of the checkout and are removed at exit; the
traced run leaves its spans in ``.crawlbench/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

READS = ("progress", "stats", "graph_nodes", "graph_edges", "live")
SPAN = {"progress": "queries.progress", "stats": "queries.stats",
        "graph_nodes": "queries.graph_nodes",
        "graph_edges": "queries.graph_edges", "live": "live.progress",
        "list": "queries.list"}
READ_TIMEOUT_S = 30.0
DEADLINE_S = 170  # the whole run must end within three minutes
SETUPS = 3  # set-ups per timed run; setup_s is their median
# Ray's socket paths must stay under the 107-byte AF_UNIX limit
MAX_RAY_TMP = 36


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


class Run:
    """State of one benchmark invocation."""

    def __init__(self, args, workload):
        from probes import Spans
        from raycrawl.config import CrawlConfig

        self.args = args
        self.w = workload
        self.cfg = CrawlConfig(**workload.cfg_kw)
        base = os.path.join(ROOT, ".crawlbench")
        self.work = os.path.join(base, f"run-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        ray_tmp = os.path.join(base, f"ray{os.getpid()}")
        if len(ray_tmp) > MAX_RAY_TMP:
            # a checkout this deep cannot hold Ray's sockets; the system
            # temp dir can, and close() removes it
            ray_tmp = tempfile.mkdtemp(prefix="cbray")
        self.ray_tmp = ray_tmp
        self.trace_dir = os.path.join(self.work, "trace")
        self.corpus = os.path.join(self.work, "corpus")
        self.spans = Spans()
        self.ops: list[dict] = []
        self.catalog: list[str] = []   # checkpoints the list read covers
        self.n_crawls = 0
        # the traced run makes the manager reads after every crawl (they
        # give the queries.* and live.* layers); the timed run makes none
        self.with_reads = bool(args.trace)
        self.wedged = False
        self.table = self.ref = self.root = None
        self.info: dict = {}

    # -- Ray and set-up ----------------------------------------------------

    def start_ray(self, traced: bool) -> None:
        import ray
        from ray.data import DataContext

        nproc = _nproc()
        # the seen-shard actors each reserve a fraction of a CPU, so with
        # num_cpus=1 no whole CPU is left for a fetch task and crawl() never
        # schedules its fetch stage; 2 leaves one next to the default shards
        logical = max(nproc, 2)
        self.info.update(nproc=nproc, logical_cpus=logical)
        # workers import raycrawl from this checkout whatever the cwd
        path = os.environ.get("PYTHONPATH")
        if ROOT not in (path or "").split(os.pathsep):
            os.environ["PYTHONPATH"] = ROOT + (os.pathsep + path if path
                                               else "")
        if traced:
            os.environ["RAYCRAWL_TRACE_DIR"] = self.trace_dir
        else:
            os.environ.pop("RAYCRAWL_TRACE_DIR", None)
        ray.init(address="local", num_cpus=logical, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=512 * 2**20, _temp_dir=self.ray_tmp)
        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray").setLevel(logging.ERROR)
        logging.getLogger("ray.data").setLevel(logging.ERROR)

    def broadcast(self) -> None:
        from raycrawl.fetch import broadcast_corpus, build_fetch_corpus

        self.table = build_fetch_corpus(self.corpus)
        self.ref = broadcast_corpus(self.table)

    def setup(self, repeats: int) -> float:
        """Ray start, corpus generation, load and broadcast, warm-up;
        ``repeats`` times with Ray restarted in between. Returns the median
        set-up time; the run goes on with the last set-up."""
        import ray

        from workloads import generate, seed_url

        parts: dict[str, list[float]] = {}
        totals = []
        for k in range(repeats):
            if k:
                ray.shutdown()
                shutil.rmtree(self.corpus, ignore_errors=True)
            t0 = time.perf_counter()
            self.start_ray(traced=False)
            t1 = time.perf_counter()
            generate(self.w, self.args.seed, self.corpus)
            t2 = time.perf_counter()
            self.broadcast()
            t3 = time.perf_counter()
            self.root = seed_url(self.corpus)
            self.warm_up()
            t4 = time.perf_counter()
            for name, dt in (("ray_start_s", t1 - t0), ("corpus_gen_s", t2 - t1),
                             ("corpus_load_s", t3 - t2),
                             ("warm_up_s", t4 - t3)):
                parts.setdefault(name, []).append(dt)
            totals.append(t4 - t0)
        self.info.update({k: statistics.median(v) for k, v in parts.items()})
        self.info["setup_samples"] = [round(t, 3) for t in totals]
        return statistics.median(totals)

    def warm_up(self) -> None:
        """One crawl that runs every stage the loop times (fetch, enrich and
        neardup when the workload sets them, seen, a driver-side round and a
        Dataset round, finalize) and, when the run makes reads, every read
        kind on it. Not checked and not counted."""
        ck = os.path.join(self.work, "warm")
        self._crawl(3, ck, "warm")
        for kind in READS + ("list",) if self.with_reads else ():
            self._read(kind, ck, "warm", [ck])
        shutil.rmtree(ck, ignore_errors=True)

    # -- operations ----------------------------------------------------------

    def _crawl(self, depth, ck, cid):
        from raycrawl.crawl import crawl

        return crawl(self.corpus, self.root, depth, ck, cfg=self.cfg,
                     crawl_id=cid, resume=False, corpus_table=self.table,
                     corpus_ref=self.ref)

    def _read(self, kind, ck, cid, catalog):
        from gate import ds_table
        from raycrawl import live, queries

        if kind == "progress":
            return queries.crawl_progress(queries.load_nodes(ck), cid)
        if kind == "stats":
            return queries.crawl_stats(queries.load_nodes(ck), cid)
        if kind == "graph_nodes":
            return ds_table(queries.graph_export_nodes(
                queries.load_nodes(ck), cid))
        if kind == "graph_edges":
            return ds_table(queries.graph_export_edges(
                queries.load_edges(ck), cid))
        if kind == "live":
            return live.live_progress(ck, cid)
        return queries.list_crawls(queries.load_nodes(catalog), limit=10)

    def _op(self, rec: dict, name: str, fn, timeout_s: float) -> None:
        from probes import OpTimeout, call_with_timeout

        sp = self.spans.open(name)
        try:
            rec["out"] = call_with_timeout(fn, timeout_s)
            rec["error"] = None
        except OpTimeout as e:
            rec["error"] = e
            self.wedged = True
        except Exception as e:  # an operation that raised is a result
            rec["error"] = e
        rec["wall"] = self.spans.close(sp)
        self.ops.append(rec)

    def crawl_once(self, phase: str) -> dict:
        from layers import dir_bytes_files, urls_processed
        from workloads import CRAWL_TIMEOUT_S, DEPTH

        i = self.n_crawls
        self.n_crawls += 1
        ck = os.path.join(self.work, f"ck{i:03d}")
        cid = f"c{i:03d}"
        rec = dict(kind="crawl", phase=phase, ckpt=ck, cid=cid)
        self._op(rec, "crawl.crawl", lambda: self._crawl(DEPTH, ck, cid),
                 CRAWL_TIMEOUT_S)
        if rec["error"] is None:
            rec["urls"] = urls_processed(ck)
            rec["ckpt_bytes"] = dir_bytes_files(ck)[0]
            self.catalog.append(ck)
        return rec

    def reads(self, crawl: dict, phase: str) -> None:
        """Every manager read kind once on ``crawl``, then one page of the
        run's crawl catalog."""
        catalog = list(self.catalog)
        for kind in READS + ("list",):
            if self.wedged:
                return
            rec = dict(kind=kind, phase=phase, crawl=crawl,
                       catalog_size=len(catalog))
            self._op(rec, SPAN[kind],
                     lambda: self._read(kind, crawl["ckpt"], crawl["cid"],
                                        catalog), READ_TIMEOUT_S)

    def loop(self, seconds: float, phase: str) -> None:
        """The closed loop: one crawl after another, each followed by the
        reads on it when the run makes reads."""
        loop_span = self.spans.open(f"client.loop.{phase}")
        t0 = time.perf_counter()
        n = 0
        # a cycle starts only while it is expected to end nearer the window's
        # end than past it, so a run lasts about ``seconds`` on any host
        while not self.wedged:
            elapsed = time.perf_counter() - t0
            if n and elapsed + 0.5 * elapsed / n > seconds:
                break
            cycle = self.spans.open("client.cycle")
            c = self.crawl_once(phase)
            n += 1
            if self.with_reads and c["error"] is None:
                self.reads(c, phase)
            self.spans.close(cycle)
        self.spans.close(loop_span)

    # -- correctness -----------------------------------------------------------

    def pairs(self) -> list:
        """The corpus's planted near-duplicate pairs."""
        import gate

        return gate.planted_pairs(self.args.seed, self.w.corpus_kw["n_hosts"],
                                  self.w.corpus_kw["mirror_frac"])

    def check(self) -> None:
        """Mark each op with the problems the oracle finds in it."""
        import gate
        from workloads import DEPTH

        t0 = time.perf_counter()
        gate.write_captures(self.corpus)
        exp = gate.Expected(self.corpus, self.root, DEPTH,
                            gate.MemoHash128(self.corpus))
        pairs = self.pairs()
        drop = self.args.drop_node
        recalls = []
        for op in self.ops:
            if op["kind"] == "crawl":
                op["problems"] = gate.check_crawl(
                    exp, op["error"], op["ckpt"],
                    drop_node=drop and op["error"] is None)
                if op["error"] is None:
                    drop = False
                    if self.cfg.neardup_threshold is not None:
                        t = gate.neardup_truth(op["ckpt"], pairs)
                        recalls.append(t["recall"])
                        if t["recall"] != 1.0:
                            op["problems"].append(f"neardup recall {t}")
            elif op["error"] is not None:
                op["problems"] = [f"read raised {op['error']!r}"]
            else:
                op["problems"] = gate.check_read(
                    op["kind"], op["out"], exp, op["catalog_size"])
        self.info["check_s"] = time.perf_counter() - t0
        if recalls:
            self.info["neardup_recall"] = (min(recalls) if None not in recalls
                                           else None)

    # -- metrics ---------------------------------------------------------------

    def end_to_end(self, setup_s: float, peak_rss: int) -> dict:
        crawls = [o for o in self.ops if o["error"] is None]
        self.info.update(crawl_samples=len(crawls),
                         crawl_walls=[round(c["wall"], 3) for c in crawls])
        m = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss / 2**20, "MB")}
        if crawls:
            # printed, not bounded: every crawl of a run covers the same
            # URLs, so it bounds what urls_per_s does
            self.info["crawl_p50_s"] = statistics.median(
                c["wall"] for c in crawls)
            m["urls_per_s"] = (sum(c["urls"] for c in crawls)
                               / sum(c["wall"] for c in crawls), "URL/s")
            m["ckpt_bytes_per_url"] = (
                sum(c["ckpt_bytes"] for c in crawls)
                / sum(c["urls"] for c in crawls), "B/URL")
        return m

    def per_layer(self, overhead_s: float) -> dict:
        import gate
        import layers
        from raycrawl.kernels import normalize_url
        from workloads import DEPTH

        crawls = [o for o in self.ops if o["kind"] == "crawl"
                  and o["phase"] == "traced" and o["error"] is None]
        m = {}
        m.update(layers.trace_stages(self.trace_dir, len(crawls)))
        phases = layers.crawl_phases(crawls)
        target = max(crawls, key=lambda c: c["urls"])
        nd_in_crawl = self.cfg.neardup_threshold is not None
        name, proto = normalize_url(self.root)
        scratch = os.path.join(self.work, "replay")
        os.makedirs(scratch)
        rep = layers.replay(target["ckpt"], target["cid"], proto + name,
                            DEPTH, self.table, self.ref, self.cfg,
                            scratch, nd_in_crawl, self.spans)
        m.update(phases)
        m.update(rep)
        pairs = self.pairs()
        if nd_in_crawl:
            truths = [gate.neardup_truth(c["ckpt"], pairs) for c in crawls]
            m["neardup.assignments"] = statistics.mean(
                t["assignments"] for t in truths)
            m["neardup.false_assignments"] = statistics.mean(
                t["false_assignments"] for t in truths)
        else:
            assigned = m.pop("neardup.assigned")
            m["neardup.assignments"] = len(assigned)
            m["neardup.false_assignments"] = gate.false_assignments(assigned,
                                                                    pairs)
        m["neardup.share"] = m["neardup.stage_s"] / phases["wall_s"]
        del m["wall_s"]
        m["fetch.corpus_load_s"] = self.info["corpus_load_s"]
        for kind, name in SPAN.items():
            ts = [o["wall"] for o in self.ops if o["kind"] == kind
                  and o["phase"] == "traced" and o["error"] is None]
            m[name + "_ms"] = statistics.median(ts) * 1e3 if ts else 0.0
        m["trace.overhead_s"] = overhead_s
        return {k: (v, _layer_unit(k)) for k, v in m.items()}

    def close(self) -> None:
        import ray

        if ray.is_initialized():
            ray.shutdown()
        shutil.rmtree(self.work, ignore_errors=True)
        shutil.rmtree(self.ray_tmp, ignore_errors=True)


def _nproc() -> int:
    """Processors this process may use, as coreutils ``nproc`` counts
    them: the affinity mask, capped by OpenMP's thread limits."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        head = os.environ.get(var, "").split(",")[0].strip()
        if head.isdigit() and int(head) > 0:
            n = min(n, int(head))
    return n


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"


def _crawl_p50(ops, phase):
    walls = [o["wall"] for o in ops if o["kind"] == "crawl"
             and o["phase"] == phase and o["error"] is None]
    return statistics.median(walls) if walls else float("nan")


def measure(run: Run) -> dict:
    """Run the workload and check its outputs; returns its metrics."""
    from probes import RssSampler

    if run.args.trace:
        return measure_traced(run)
    setup_s = run.setup(SETUPS)
    # the peak of the measured crawls: set-up's overlapping Ray restarts and
    # the gate's own work after the window are left out
    with RssSampler() as rss:
        t0 = time.perf_counter()
        run.loop(run.args.seconds, "timed")
        run.info["loop_s"] = time.perf_counter() - t0
    run.check()
    return run.end_to_end(setup_s, rss.peak)


def measure_traced(run: Run) -> dict:
    """Half the window untraced, then the same loop traced."""
    import ray

    run.setup(1)
    run.loop(run.args.seconds / 2, "untraced")
    ray.shutdown()
    run.start_ray(traced=True)
    run.broadcast()
    run.warm_up()
    shutil.rmtree(run.trace_dir, ignore_errors=True)
    run.loop(run.args.seconds / 2, "traced")
    overhead = _crawl_p50(run.ops, "traced") - _crawl_p50(run.ops, "untraced")
    metrics = run.per_layer(overhead)
    run.spans.write(os.path.join(ROOT, ".crawlbench",
                                 f"spans-{run.w.name}.jsonl"))
    run.check()
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("bfs_wide", "bfs_neardup"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="toy-size inputs (self-test)")
    p.add_argument("--drop-node", action="store_true",
                   help="drop one node from the first crawl's output before "
                        "the check, to show the gate firing (self-test)")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)

    if args.selftest:
        import selftest

        return selftest.main()
    if not args.workload:
        p.error("--workload is required")

    sys.path.insert(0, ROOT)
    import workloads

    # fails here, before any work, outside a checkout of the program
    import raycrawl  # noqa: F401

    w = (workloads.TOY if args.toy else workloads.FULL)[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    run = Run(args, w)
    try:
        metrics = measure(run)
    except Deadline as e:
        print(f"aborted: {e}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        run.close()

    failed = [o for o in run.ops if o.get("problems", ["unchecked"])]
    attempted = len(run.ops)
    run.info["error_rate"] = len(failed) / attempted if attempted else 1.0
    for o in failed[:5]:
        print(f"FAILED {o['kind']} {o.get('cid', '')}: {o.get('problems')}",
              file=sys.stderr)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:32s} {value:14.6g} {unit}")
    # measured and checked, but not bounded
    extra = {"error_rate": "ratio", "neardup_recall": "ratio",
             "crawl_p50_s": "s"}
    for name, unit in extra.items():
        if run.info.get(name) is not None:
            print(f"{name:32s} {run.info[name]:14.6g} {unit}")
    print(json.dumps(run.info))
    print(json.dumps({
        "correct": attempted > 0 and not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
