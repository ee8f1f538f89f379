"""Measurement helpers: benchmark-side spans, a /proc RSS sampler and a
per-operation watchdog."""

from __future__ import annotations

import json
import os
import threading
import time


class Spans:
    """Spans recorded by the benchmark around each public call it makes:
    (id, name, start, end, parent). Kept in memory, written at the end."""

    def __init__(self):
        self.rows: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str) -> dict:
        span = dict(id=len(self.rows), name=name, start=time.perf_counter(),
                    end=None, parent=self._stack[-1] if self._stack else None)
        self.rows.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> float:
        span["end"] = time.perf_counter()
        self._stack.remove(span["id"])
        return span["end"] - span["start"]

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.rows:
                f.write(json.dumps(s) + "\n")


def _tree_rss_bytes(root_pid: int, page: int) -> int:
    """Summed resident set of ``root_pid`` and all its descendants."""
    children: dict[int, list[int]] = {}
    rss: dict[int, int] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue  # exited while we scanned
        # comm may hold spaces; the fields after its closing paren are fixed
        fields = stat[stat.rfind(")") + 2:].split()
        pid, ppid = int(d), int(fields[1])
        children.setdefault(ppid, []).append(pid)
        rss[pid] = int(fields[21]) * page
    total, todo = 0, [root_pid]
    while todo:
        p = todo.pop()
        total += rss.get(p, 0)
        todo.extend(children.get(p, ()))
    return total


class RssSampler:
    """Background peak of the summed RSS of this process tree (the Ray driver,
    the Ray daemons it starts and their worker processes)."""

    def __init__(self, interval_s: float = 0.25):
        self.interval_s = interval_s
        self.peak = 0
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        me = os.getpid()
        while not self._stop.is_set():
            self.peak = max(self.peak, _tree_rss_bytes(me, self._page))
            self._stop.wait(self.interval_s)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


class OpTimeout(Exception):
    """An operation outlived its watchdog."""


def call_with_timeout(fn, timeout_s: float):
    """Run ``fn()`` on a daemon thread and wait at most ``timeout_s``.
    Returns its result or re-raises its exception; raises ``OpTimeout`` if
    it is still running (the thread is abandoned: a hung Ray call cannot be
    interrupted, and the caller stops issuing work)."""
    box: dict = {}

    def run():
        try:
            box["value"] = fn()
        except BaseException as e:  # handed to the caller below
            box["error"] = e

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(timeout_s)
    if t.is_alive():
        raise OpTimeout(f"operation still running after {timeout_s:.0f} s")
    if "error" in box:
        raise box["error"]
    return box.get("value")
