"""Self-test of the benchmark at toy size:

- every workload BENCHMARK.json lists, timed and traced, prints every metric BENCHMARK.json names,
  with its unit, and passes the correctness gate with no failed operation;
  the timed toy run of each workload takes under a minute;
- the gate fires: with one node dropped from a crawl's output, the same run
  reports failed operations (error_rate above 0) and ``correct: false``.

    python3 crawlbench/run.py --selftest
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TOY_LIMIT_S = 60.0


def _run(workload: str, *extra: str) -> tuple[dict, float]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--toy", *extra]
    t0 = time.perf_counter()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=180)
    wall = time.perf_counter() - t0
    if p.returncode != 0:
        raise AssertionError(f"{cmd} exited {p.returncode}:\n{p.stderr[-3000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1]), wall


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            res, wall = _run(w, "--trace", str(trace), "--seconds", "2")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            label = f"{w} trace={trace}"
            if got != want[trace]:
                diff = set(got.items()) ^ set(want[trace].items())
                problems.append(f"{label}: metric names or units differ "
                                f"from BENCHMARK.json: {sorted(diff)}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{label}: {res['failed']} of "
                                f"{res['attempted']} operations failed")
            # the traced run starts Ray twice (see run.py), so the limit
            # holds for the timed run of the workload
            if not trace and wall > TOY_LIMIT_S:
                problems.append(f"{label}: took {wall:.0f} s")
            print(f"{label}: {len(got)} metrics, {res['attempted']} ops, "
                  f"{wall:.0f} s", flush=True)
        res, _ = _run(w, "--trace", "0", "--seconds", "1", "--drop-node")
        if res["correct"] or not res["failed"]:
            problems.append(f"{w}: dropping a node did not fail the gate")
        print(f"{w} --drop-node: {res['failed']} of {res['attempted']} "
              f"operations failed", flush=True)
    for p in problems:
        print("SELFTEST FAILED:", p, flush=True)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0
