"""The round executor (crawl._run_round): how a frontier splits into fetch
tasks (crawl._frontier_slices), and the whole-round retry after a failed
task, checked against the single-process oracle."""

import os

import pyarrow as pa
import pyarrow.dataset as pads
import pytest

from test_crawl_pipeline import _compare, _run, _seeds

from raycrawl.config import CrawlConfig
from raycrawl.crawl import FRONTIER_SCHEMA, _frontier_slices, _round_dir
from raycrawl.oracle import oracle_crawl


def _frontier(n: int) -> pa.Table:
    """n frontier rows over n // 4 hosts (each host on several ports)."""
    names = [f"H{i % max(1, n // 4)}.EXAMPLE.ORG:{8000 + i}" for i in range(n)]
    return pa.Table.from_pylist(
        [dict(crawl_id="t", name=nm, http_type="HTTP://", depth=1,
              requested_depth=3, attempts=0) for nm in names],
        schema=FRONTIER_SCHEMA)


def _hosts(t: pa.Table) -> list[str]:
    return [n.split(":")[0] for n in t["name"].to_pylist()]


@pytest.mark.parametrize("n,batch,ncpu,k", [
    (0, 16, 4, 1),
    (100, 4096, 4, 4),      # one batch, but one slice per CPU
    (3, 4096, 4, 3),        # never more slices than rows
    (100, 4096, 1, 1),
    (100, 16, 4, 7),        # ⌈100 / 16⌉
    (1000, 16, 2, 8),       # capped at 4 × CPUs
    (1000, 16, 1, 4),
])
def test_slice_count_follows_rule(n, batch, ncpu, k):
    t = _frontier(n)
    slices = _frontier_slices(t, batch, ncpu)
    assert len(slices) == k
    assert sorted(sum((s["name"].to_pylist() for s in slices), [])) == \
        sorted(t["name"].to_pylist())


def test_each_host_lands_in_one_slice():
    slices = _frontier_slices(_frontier(1000), 16, 4)
    assert len(slices) == 16
    where: dict[str, set] = {}
    for i, s in enumerate(slices):
        for h in _hosts(s):
            where.setdefault(h, set()).add(i)
    assert len(where) == 250
    assert all(len(v) == 1 for v in where.values())


LATE_S = 6.0  # how long a held-back offer waits for the next round


@pytest.mark.usefixtures("ray_session")
def test_round_retry_waits_for_every_task(tiny_corpus, tmp_path, monkeypatch):
    """Round 1 splits into several tasks. On its first attempt one task
    raises, and a sibling holds its shard offers back until round 2 has
    begun (or LATE_S has passed). The round must re-run only after that
    sibling finished: its offers then land in the discarded attempt, and the
    crawl is oracle-equal with no edge written twice."""
    import time

    from raycrawl import crawl as crawl_mod

    real = crawl_mod._fetch_slice
    fail_mark = str(tmp_path / "failed")
    late_mark = str(tmp_path / "late")

    def claim(path):
        try:
            os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            return True
        except FileExistsError:
            return False

    class LateOffers:
        """A seen-shard handle whose offers wait for ``gate`` to exist,
        or for the ``deadline`` shared by the task's handles."""

        def __init__(self, shard, gate, deadline):
            self.shard, self.gate, self.deadline = shard, gate, deadline
            self.offer = self  # shard.offer.remote(...) → self.remote(...)

        @property
        def contains(self):
            return self.shard.contains

        def remote(self, *args):
            while (not os.path.isdir(self.gate)
                   and time.monotonic() < self.deadline):
                time.sleep(0.02)
            return self.shard.offer.remote(*args)

    # closures, so Ray ships them to the fetch tasks by value
    def flaky(path, batch, batch_size, fetch_kw, neardup):
        if fetch_kw["round_no"] == 1:
            if claim(fail_mark):
                # raise once a sibling of this same attempt holds the late
                # mark, so the held-back task is never a retry's
                deadline = time.monotonic() + LATE_S
                while (not os.path.exists(late_mark)
                       and time.monotonic() < deadline):
                    time.sleep(0.02)
                raise RuntimeError("injected task failure")
            if claim(late_mark):
                ckpt = os.path.dirname(os.path.dirname(os.path.dirname(path)))
                gate = os.path.join(ckpt, "round=0002", "round_out")
                deadline = time.monotonic() + LATE_S
                fetch_kw = dict(fetch_kw, seen_handles=[
                    LateOffers(h, gate, deadline)
                    for h in fetch_kw["seen_handles"]])
        return real(path, batch, batch_size, fetch_kw, neardup)

    monkeypatch.setattr(crawl_mod, "_fetch_slice", flaky)
    s = _seeds(tiny_corpus)[0]
    res = _run(tiny_corpus, s["url"], int(s["depth"]), str(tmp_path / "ck"),
               cfg=CrawlConfig(fetch_batch_size=16))
    assert os.path.exists(fail_mark) and os.path.exists(late_mark)
    assert len(os.listdir(os.path.join(_round_dir(res.ckpt_dir, 1),
                                       "round_out"))) >= 3
    _compare(res, oracle_crawl(tiny_corpus, s["url"], int(s["depth"]),
                               crawl_id="t"))
    for r in range(1, res.rounds_run + 1):
        e = pads.dataset(os.path.join(_round_dir(res.ckpt_dir, r),
                                      "edges")).to_table()
        assert len(set(zip(e["src"].to_pylist(), e["dst"].to_pylist()))) \
            == e.num_rows, r
    e = res.edges().to_pandas()
    assert not e.duplicated(["src", "dst"]).any()


@pytest.mark.usefixtures("ray_session")
def test_small_round_runs_on_every_cpu(tiny_corpus, tmp_path, monkeypatch):
    """A round with at least as many hosts as the session has CPUs (4) and
    no more rows than one fetch batch still splits into several fetch
    tasks, so no CPU sits idle while one task fetches the whole round."""
    import uuid

    from raycrawl import crawl as crawl_mod

    real = crawl_mod._fetch_slice
    calls = tmp_path / "calls"
    calls.mkdir()

    # a closure, so Ray ships it to the fetch tasks by value
    def spy(path, batch, batch_size, fetch_kw, neardup):
        (calls / f"{fetch_kw['round_no']}-{uuid.uuid4().hex}").touch()
        return real(path, batch, batch_size, fetch_kw, neardup)

    monkeypatch.setattr(crawl_mod, "_fetch_slice", spy)
    s = _seeds(tiny_corpus)[0]
    cfg = CrawlConfig()
    res = _run(tiny_corpus, s["url"], int(s["depth"]), str(tmp_path / "ck"),
               cfg=cfg)
    tasks: dict[int, int] = {}
    for f in os.listdir(calls):
        r = int(f.split("-")[0])
        tasks[r] = tasks.get(r, 0) + 1
    checked = 0
    for r in range(1, res.rounds_run + 1):
        prev = os.path.join(_round_dir(res.ckpt_dir, r - 1), "frontier")
        frontier = pads.dataset(prev).to_table(columns=["name"])
        if (len(set(_hosts(frontier))) >= 4
                and frontier.num_rows <= cfg.fetch_batch_size):
            assert tasks[r] > 1, (r, frontier.num_rows, tasks)
            checked += 1
    assert checked
    _compare(res, oracle_crawl(tiny_corpus, s["url"], int(s["depth"]),
                               crawl_id="t"))
