"""The per-session seen-shard pool (crawl._seen_shards): every crawl() in a
Ray session reuses one 0-CPU shard set, reset at the crawl's start and
restored from the checkpoint. Each lifecycle case is checked against the
single-process oracle; the 1-CPU and restart cases run in their own
interpreter (their own Ray session) under a hard timeout."""

import os
import signal
import subprocess
import sys
import time

import pytest

from test_crawl_pipeline import _compare, _run, _seeds

from raycrawl.config import CrawlConfig
from raycrawl.oracle import oracle_crawl

TESTS = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(TESTS)


def _ids(handles) -> list[str]:
    return [h._actor_id.hex() for h in handles]


@pytest.fixture
def used_shards(monkeypatch):
    """Record the seen handles each crawl's rounds are given, one list of
    actor ids per crawl (first round only)."""
    from raycrawl import crawl as crawl_mod

    seen: list[list[str]] = []
    real = crawl_mod._run_round

    def spy(ckpt, r, crawl_id, cfg, corpus_ref, seen_handles, **kw):
        if r == 1:
            seen.append(_ids(seen_handles))
        return real(ckpt, r, crawl_id, cfg, corpus_ref, seen_handles, **kw)

    monkeypatch.setattr(crawl_mod, "_run_round", spy)
    return seen


def _check(corpus, seed, ck):
    res = _run(corpus, seed["url"], int(seed["depth"]), ck)
    _compare(res, oracle_crawl(corpus, seed["url"], int(seed["depth"]),
                               crawl_id="t"))


def _run_script(code: str, timeout: int = 120) -> str:
    """Run ``code`` in a fresh interpreter and return its stdout. On
    timeout its whole process group (Ray's daemons and workers included)
    is killed and the test fails, so a hang costs ``timeout`` seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (REPO, TESTS, env.get("PYTHONPATH")) if p)
    p = subprocess.Popen([sys.executable, "-c", code], cwd=REPO, env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, start_new_session=True)
    try:
        out, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        pytest.fail(f"still running after {timeout} s (hung crawl?)")
    assert p.returncode == 0, err[-3000:]
    return out


_SCRIPT_HEAD = """
import ray
from ray.data import DataContext
from raycrawl.corpus import ensure_corpus
from raycrawl import crawl as crawl_mod
from test_crawl_pipeline import _compare, _run, _seeds
from raycrawl.oracle import oracle_crawl

def start(ncpu):
    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    DataContext.get_current().enable_progress_bars = False

def check(ck):
    s = _seeds(c)[0]
    res = _run(c, s["url"], int(s["depth"]), ck)
    _compare(res, oracle_crawl(c, s["url"], int(s["depth"]), crawl_id="t"))

def pool_ids():
    return sorted(h._actor_id.hex() for v in crawl_mod._SEEN_POOL.values()
                  for h in v)

c = ensure_corpus("tiny")
"""


def test_crawl_completes_on_one_cpu(tiny_corpus, tmp_path):
    """Under ray.init(num_cpus=1) the seen shards must leave the one CPU
    to the fetch stage: a CPU reservation per shard hung crawl() here."""
    out = _run_script(_SCRIPT_HEAD + f"""
start(1)
check({str(tmp_path / "ck")!r})
ray.shutdown()
print("OK1CPU")
""")
    assert "OK1CPU" in out


def test_pool_rebuilt_after_ray_restart(tiny_corpus, tmp_path):
    """ray.shutdown() ends the pooled shards with the session; the next
    session's first crawl builds a new set instead of reusing dead
    handles, and stays oracle-equal."""
    out = _run_script(_SCRIPT_HEAD + f"""
start(2)
check({str(tmp_path / "ck1")!r})
first = pool_ids()
ray.shutdown()
start(2)
check({str(tmp_path / "ck2")!r})
second = pool_ids()
ray.shutdown()
assert first and second and not set(first) & set(second), (first, second)
print("OKRESTART")
""")
    assert "OKRESTART" in out


@pytest.mark.usefixtures("ray_session")
def test_back_to_back_crawls_share_the_pool(tiny_corpus, tmp_path,
                                            used_shards):
    """Two crawls from different seeds reuse the same shard actors, and
    the second sees none of the first's committed keys."""
    import ray

    from raycrawl.crawl import _make_seen_actors

    s0, s1 = _seeds(tiny_corpus)[:2]
    _check(tiny_corpus, s0, str(tmp_path / "a"))
    _check(tiny_corpus, s1, str(tmp_path / "b"))
    assert len(used_shards) == 2 and used_shards[0] == used_shards[1]
    # the factory still hands out a new set the caller owns
    fresh = _make_seen_actors(CrawlConfig())
    try:
        assert not set(_ids(fresh)) & set(used_shards[0])
        assert len(fresh) == len(used_shards[0])
    finally:
        for h in fresh:
            ray.kill(h, no_restart=True)


@pytest.mark.usefixtures("ray_session")
def test_crawl_after_one_that_raised(tiny_corpus, tmp_path, monkeypatch,
                                     used_shards):
    """A crawl that raised mid-round leaves offers and committed keys in
    the pooled shards; the next crawl resets them and is oracle-equal."""
    from raycrawl import crawl as crawl_mod

    s0, s1 = _seeds(tiny_corpus)[:2]
    real = crawl_mod._fetch_slice

    # a closure, so Ray ships it to the fetch task by value
    def failing(path, batch, batch_size, fetch_kw, neardup):
        out = real(path, batch, batch_size, fetch_kw, neardup)
        if fetch_kw["round_no"] == 2:
            raise RuntimeError("injected mid-round failure")
        return out

    monkeypatch.setattr(crawl_mod, "_fetch_slice", failing)
    with pytest.raises(RuntimeError, match="injected"):
        _run(tiny_corpus, s1["url"], int(s1["depth"]), str(tmp_path / "x"))
    monkeypatch.setattr(crawl_mod, "_fetch_slice", real)
    _check(tiny_corpus, s0, str(tmp_path / "a"))
    assert len(used_shards) == 2 and used_shards[0] == used_shards[1]


@pytest.mark.usefixtures("ray_session")
def test_resume_after_other_crawl_in_between(tiny_corpus, tmp_path,
                                             used_shards):
    """Partial run, then a different crawl on the same pool, then resume:
    the resume restores only its own checkpoint into the reset shards."""
    from raycrawl.crawl import crawl

    s0, s1 = _seeds(tiny_corpus)[:2]
    ck = str(tmp_path / "resume")
    partial = crawl(tiny_corpus, s0["url"], int(s0["depth"]), ck,
                    crawl_id="t", resume=False, max_rounds=1)
    assert partial.rounds_run == 1
    _check(tiny_corpus, s1, str(tmp_path / "other"))
    resumed = crawl(tiny_corpus, s0["url"], int(s0["depth"]), ck,
                    crawl_id="t", resume=True)
    _compare(resumed, oracle_crawl(tiny_corpus, s0["url"], int(s0["depth"]),
                                   crawl_id="t"))
    assert len(set(map(tuple, used_shards))) == 1


@pytest.mark.usefixtures("ray_session")
def test_dead_pool_shard_is_replaced(tiny_corpus, tmp_path, used_shards):
    """A pooled shard that died between crawls is not handed out again:
    the next crawl gets a whole new set and is oracle-equal."""
    import ray

    from raycrawl import crawl as crawl_mod

    s0 = _seeds(tiny_corpus)[0]
    _check(tiny_corpus, s0, str(tmp_path / "a"))
    (handles,) = [v for v in crawl_mod._SEEN_POOL.values()
                  if _ids(v) == used_shards[0]]
    ray.kill(handles[0], no_restart=True)
    _check(tiny_corpus, s0, str(tmp_path / "b"))
    assert not set(used_shards[1]) & set(used_shards[0])


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("when", ["round_start", "before_barrier"])
def test_shard_killed_mid_crawl_fails_then_resumes(tiny_corpus, tmp_path,
                                                   monkeypatch, when):
    """A pooled shard killed during round 2 (before the round begins, or
    after the fetch tasks' offers landed on it) makes the crawl raise;
    resuming the checkpoint on a new shard set is oracle-equal."""
    import ray

    from raycrawl import crawl as crawl_mod
    from raycrawl.crawl import crawl

    def kill(handle):
        ray.kill(handle, no_restart=True)
        # ray.kill is asynchronous: wait until the shard is gone
        deadline = time.monotonic() + 60
        with pytest.raises(ray.exceptions.RayActorError):
            while time.monotonic() < deadline:
                ray.get(handle.size.remote(), timeout=60)
                time.sleep(0.1)

    real_round, real_barrier = crawl_mod._run_round, crawl_mod._finish_barrier
    rounds: list[tuple[int, list[str]]] = []
    armed = [True]

    def round_spy(ckpt, r, crawl_id, cfg, corpus_ref, seen_handles, **kw):
        rounds.append((r, _ids(seen_handles)))
        if r == 2 and when == "round_start" and armed[0]:
            kill(seen_handles[0])
        return real_round(ckpt, r, crawl_id, cfg, corpus_ref, seen_handles,
                          **kw)

    def barrier_spy(rdir, seen_handles, *a):
        if (rdir.endswith("round=0002") and when == "before_barrier"
                and armed[0]):
            kill(seen_handles[0])
        return real_barrier(rdir, seen_handles, *a)

    monkeypatch.setattr(crawl_mod, "_run_round", round_spy)
    monkeypatch.setattr(crawl_mod, "_finish_barrier", barrier_spy)
    s0 = _seeds(tiny_corpus)[0]
    ck = str(tmp_path / "ck")
    with pytest.raises(ray.exceptions.RayActorError):
        _run(tiny_corpus, s0["url"], int(s0["depth"]), ck)
    assert [r for r, _ in rounds] == [1, 2]
    assert not os.path.exists(os.path.join(ck, "round=0002", "_DONE"))
    armed[0] = False
    resumed = crawl(tiny_corpus, s0["url"], int(s0["depth"]), ck,
                    crawl_id="t", resume=True)
    _compare(resumed, oracle_crawl(tiny_corpus, s0["url"], int(s0["depth"]),
                                   crawl_id="t"))
    assert rounds[2][0] == 2  # the resume re-ran round 2 ...
    assert not set(rounds[2][1]) & set(rounds[1][1])  # ... on new shards


@pytest.mark.usefixtures("ray_session")
def test_checked_out_pool_gives_concurrent_crawl_its_own_set():
    """While one crawl holds the pool, another crawl in the same driver
    gets a set of its own, which is killed when that crawl ends."""
    import ray

    from raycrawl.crawl import _seen_shards

    cfg = CrawlConfig(num_seen_shards=2)
    with _seen_shards(cfg) as pooled:
        with _seen_shards(cfg) as own:
            assert not set(_ids(own)) & set(_ids(pooled))
            assert ray.get(own[0].size.remote()) == 0
        # ray.kill is asynchronous: a call right after it can still reach
        # the actor, so poll until one fails (and fail if none does)
        deadline = time.monotonic() + 60
        with pytest.raises(ray.exceptions.RayActorError):
            while time.monotonic() < deadline:
                ray.get(own[0].size.remote(), timeout=60)
                time.sleep(0.1)
        assert ray.get(pooled[0].size.remote()) == 0
    with _seen_shards(cfg) as again:
        assert _ids(again) == _ids(pooled)


@pytest.mark.usefixtures("ray_session")
def test_pool_checkout_is_exclusive_across_threads():
    """Threads racing for the pool (more threads than cores, tiny switch
    interval): the pooled set is never held by two at once, and every
    checkout gets a working, empty set."""
    import threading
    import time

    import ray

    from raycrawl import crawl as crawl_mod
    from raycrawl.crawl import _seen_shards

    cfg = CrawlConfig(num_seen_shards=1)
    with _seen_shards(cfg) as pooled:
        pool_ids = _ids(pooled)
    lock = threading.Lock()
    holders, most, errors = [0], [0], []

    def worker():
        try:
            for _ in range(2):
                with _seen_shards(cfg) as h:
                    mine = _ids(h) == pool_ids
                    with lock:
                        holders[0] += mine
                        most[0] = max(most[0], holders[0])
                    assert ray.get(h[0].size.remote(), timeout=60) == 0
                    time.sleep(0.01)
                    with lock:
                        holders[0] -= mine
        except Exception as e:  # surfaced by the main thread's assert
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert most[0] == 1
    assert [_ids(v) for k, v in crawl_mod._SEEN_POOL.items()
            if k[1] == 1] == [pool_ids]


@pytest.mark.usefixtures("ray_session")
def test_shard_count_follows_cluster_cpus():
    """num_seen_shards=None means min(8, cluster CPUs); a set value wins."""
    import ray

    from raycrawl.crawl import _seen_shard_count

    ncpu = int(ray.cluster_resources()["CPU"])
    assert _seen_shard_count(CrawlConfig()) == min(8, ncpu)
    assert _seen_shard_count(CrawlConfig(num_seen_shards=3)) == 3
