"""Hooks the timed runs need, installed from outside the program.

Three wrappers, each paid a handful of times per run (or once per
commit), so they do not move the timed figures:

* ``Monitor.record_commit``/``record_abort``/``record_event`` are tapped
  to split outcomes by the runner's ``correct``/``byz`` client tag.  The
  runner's own bench row mixes the two: ``stall-early`` clients record
  instant fake "commits" that inflate its throughput and deflate its
  latency.
* ``BasilSystem.__init__`` records every system built in this process,
  so the benchmark can run the safety oracle and read end-of-run
  counters after ``ParallelRunner.run()`` returns.
* ``repro.parallel.worker.worker_main`` hands a forked worker's tap,
  counters and peak memory back through a JSON file in the benchmark's
  temporary directory (the worker's own objects die with it).
"""

from __future__ import annotations

import json
import os
import resource
import sys
from typing import Any, Callable

#: Extra per-worker payload for the worker hand-back (the traced run
#: adds its span totals here).
WorkerExtra = Callable[[], dict[str, Any]]


class Probe:
    def __init__(self, tmpdir: str) -> None:
        self.tmpdir = tmpdir
        self.systems: list[Any] = []
        #: (latency, fast_path) of correct-client commits in the window.
        self.commits: list[tuple[float, bool]] = []
        self.aborts = 0  #: correct-client aborted attempts in the window
        self.failed = 0  #: correct-client give-ups + protocol errors
        self.all_commits = 0  #: every commit of the run, any tag, any time
        self.worker_extra: WorkerExtra | None = None

    def reset(self) -> None:
        self.systems = []
        self.commits = []
        self.aborts = 0
        self.failed = 0
        self.all_commits = 0

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        from repro.core.system import BasilSystem
        from repro.parallel import worker
        from repro.sim.monitor import Monitor

        probe = self
        record_commit = Monitor.record_commit
        record_abort = Monitor.record_abort
        record_event = Monitor.record_event

        def tap_commit(self, now, latency, fast_path, tag=""):
            probe.all_commits += 1
            if tag == "correct" and self.window.contains(now):
                probe.commits.append((latency, fast_path))
            return record_commit(self, now, latency, fast_path, tag)

        def tap_abort(self, now, tag=""):
            if tag == "correct" and self.window.contains(now):
                probe.aborts += 1
            return record_abort(self, now, tag)

        def tap_event(self, now, name):
            # The runner records give-ups and protocol errors untagged;
            # its client loop holds the tag in the caller's frame.
            if name in ("gave_up", "protocol_errors") and self.window.contains(now):
                if not sys._getframe(1).f_locals.get("is_byz", False):
                    probe.failed += 1
            return record_event(self, now, name)

        Monitor.record_commit = tap_commit
        Monitor.record_abort = tap_abort
        Monitor.record_event = tap_event

        system_init = BasilSystem.__init__

        def capture(self, *args, **kwargs):
            system_init(self, *args, **kwargs)
            probe.systems.append(self)

        BasilSystem.__init__ = capture

        worker_main = worker.worker_main

        def handing_back(conn, worker_id, *args, **kwargs):
            probe.reset()  # drop what the fork inherited from the parent
            worker_main(conn, worker_id, *args, **kwargs)
            payload = {
                "tap": probe.tap(),
                "objects": object_counters(probe.systems),
                "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            }
            if probe.worker_extra is not None:
                payload["extra"] = probe.worker_extra()
            path = os.path.join(probe.tmpdir, f"worker-{os.getpid()}.json")
            with open(path, "w") as fh:
                json.dump(payload, fh)

        worker.worker_main = handing_back

    # -- results ---------------------------------------------------------
    def tap(self) -> dict[str, Any]:
        return {
            "commits": self.commits,
            "aborts": self.aborts,
            "failed": self.failed,
            "all_commits": self.all_commits,
        }

    def take_worker_files(self) -> list[dict[str, Any]]:
        """Read and delete every worker hand-back file."""
        out = []
        for name in sorted(os.listdir(self.tmpdir)):
            if name.startswith("worker-") and name.endswith(".json"):
                path = os.path.join(self.tmpdir, name)
                with open(path) as fh:
                    out.append(json.load(fh))
                os.remove(path)
        return out


def merge_taps(taps: list[dict[str, Any]]) -> dict[str, Any]:
    merged = {"commits": [], "aborts": 0, "failed": 0, "all_commits": 0}
    for tap in taps:
        merged["commits"].extend(tuple(c) for c in tap["commits"])
        for key in ("aborts", "failed", "all_commits"):
            merged[key] += tap[key]
    return merged


def object_counters(systems: list[Any]) -> dict[str, float]:
    """End-of-run counters read off the systems' own objects."""
    out = {
        "signs": 0,
        "verifies": 0,
        "memo_hits": 0,
        "hashes": 0,
        "net_dropped": 0,
        "scheduled": 0,
        "replica_busy_s": 0.0,
        "replica_core_s": 0.0,
        "store_keys": 0,
        "store_versions": 0,
        "trace_kept": 0,
        "trace_dropped": 0,
    }
    for system in systems:
        sim = system.sim
        out["net_dropped"] += system.network.messages_dropped
        out["scheduled"] += sim._seq
        tracer = sim.tracer
        if tracer.enabled:
            out["trace_kept"] += len(tracer)
            out["trace_dropped"] += tracer.dropped_events
        for node in (*system.replicas.values(), *system.clients):
            crypto = node.crypto
            out["signs"] += crypto.signatures_generated
            out["verifies"] += crypto.signatures_verified
            out["memo_hits"] += crypto.verify_memo_hits
            out["hashes"] += crypto.hashes_computed
        for replica in system.replicas.values():
            out["replica_busy_s"] += replica.cpu.busy_time
            out["replica_core_s"] += replica.cpu.cores * sim.now
            stats = replica.store.stats()
            out["store_keys"] += stats["keys"]
            out["store_versions"] += stats["committed_versions"]
    return out


def sum_counters(dicts: list[dict[str, float]]) -> dict[str, float]:
    total: dict[str, float] = {}
    for counters in dicts:
        for key, value in counters.items():
            total[key] = total.get(key, 0) + value
    return total
