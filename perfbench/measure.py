"""One run of one figure point, timed or traced, and what it reports.

Every run happens in a fresh process (``run.py --point``), so no run
inherits the heap another left behind: in one long-lived process each
further run of the same point was up to ~20 % slower than the first.

A run builds the workload's spec at the point's seed and runs it
through ``ParallelRunner(spec, workers=N).run()``.  ``wall_s`` is the
runner's own measured window (first simulated event to finished result,
finalize and trace digest included); ``setup_s`` is the rest of the
call: system build, genesis load, client wiring and, for ``workers=2``,
the fork and worker builds plus the join and merge.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any

from perfbench.probe import Probe, merge_taps, object_counters, sum_counters
from perfbench.workloads import Workload

#: Fault-free simulated time after a run before the safety oracle, the
#: same drain ``ExperimentRunner(verify_history=True)`` uses.
ORACLE_DRAIN = 0.2
#: A run's tail percentile must leave at least this many correct commits
#: beyond it.
TAIL_SUPPORT = 10


@dataclass
class Repeat:
    result: Any  #: ParallelResult
    wall_s: float
    setup_s: float
    tap: dict[str, Any]
    objects: dict[str, float]
    rss_kb: int  #: this process's peak plus the workers' peaks
    worker_extras: list[dict[str, Any]]


def one_repeat(wl: Workload, seed: int, probe: Probe) -> Repeat:
    from repro.parallel.runtime import ParallelRunner

    spec = wl.spec(seed)
    t0 = time.perf_counter()
    result = ParallelRunner(spec, workers=wl.workers).run()
    total = time.perf_counter() - t0
    workers = probe.take_worker_files()
    if workers:
        tap = merge_taps([w["tap"] for w in workers])
        objects = sum_counters([w["objects"] for w in workers])
    else:
        tap = probe.tap()
        objects = object_counters(probe.systems)
    return Repeat(
        result=result,
        wall_s=result.wall_s,
        setup_s=total - result.wall_s,
        tap=tap,
        objects=objects,
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + sum(w["rss_kb"] for w in workers),
        worker_extras=[w["extra"] for w in workers if "extra" in w],
    )


def percentile(values: list[float], pct: float) -> float:
    from repro.sim.monitor import Histogram

    hist = Histogram("latency")
    for value in values:
        hist.record(value)
    return hist.percentile(pct)


def outcome(wl: Workload, rep: Repeat) -> dict[str, Any]:
    """What must repeat exactly at one seed (the determinism verdict)."""
    latencies = [lat for lat, _ in rep.tap["commits"]]
    return {
        "events": rep.result.events,
        "digest": rep.result.digest,
        "commits": len(latencies),
        "aborts": rep.tap["aborts"],
        "failed": rep.tap["failed"],
        "p50": percentile(latencies, 50),
        "tail": percentile(latencies, wl.tail_pct),
        "windows": rep.result.windows,
        "cross_messages": rep.result.cross_messages,
    }


def run_oracle(wl: Workload, probe: Probe) -> float:
    """Drain, then check Byz-serializability; returns the check's seconds.

    Raises AssertionError on a violation.  Only ``workers=1`` runs keep
    the whole system in this process.
    """
    from repro.verify.history import HistoryChecker

    (system,) = probe.systems
    system.sim.run(until=wl.warmup + wl.duration + wl.warmup + ORACLE_DRAIN)
    t0 = time.perf_counter()
    HistoryChecker(system).assert_ok()
    return time.perf_counter() - t0


def oracle_verdict(wl: Workload, probe: Probe) -> tuple[str, float]:
    """("ok" | "skipped" | first line of the violation, check seconds)."""
    if wl.workers != 1:
        return "skipped", 0.0
    try:
        return "ok", run_oracle(wl, probe)
    except AssertionError as err:
        return str(err).splitlines()[0], 0.0


def timed_point(wl: Workload, seed: int, probe: Probe, oracle: bool) -> dict[str, Any]:
    """One untraced run (the oracle after it, outside the timed window)."""
    rep = one_repeat(wl, seed, probe)
    out = {
        "wall_s": rep.wall_s,
        "setup_s": rep.setup_s,
        "rss_kb": rep.rss_kb,
        "outcome": outcome(wl, rep),
        "latencies": [lat for lat, _ in rep.tap["commits"]],
    }
    if oracle:
        out["oracle"] = oracle_verdict(wl, probe)[0]
    return out


def pooled(wl: Workload, points: list[dict[str, Any]]) -> dict[str, Any]:
    """Correct-client outcomes of one run per figure point, pooled."""
    latencies = [lat for point in points for lat in point["latencies"]]
    tail = percentile(latencies, wl.tail_pct)
    return {
        "commits": len(latencies),
        "failed": sum(point["outcome"]["failed"] for point in points),
        "sim_commit_tps": len(latencies) / (wl.duration * len(points)),
        "sim_latency_p50_ms": percentile(latencies, 50) * 1000,
        "sim_latency_tail_ms": tail * 1000,
        "tail_support": sum(1 for lat in latencies if lat > tail),
    }


def end_to_end(wl: Workload, runs: dict[int, list[dict[str, Any]]]) -> dict[str, float]:
    """``wall_s`` is the figure's wall time: the sum over points of each
    point's median; ``setup_s`` the median set-up over every run."""
    sims = pooled(wl, [point_runs[0] for point_runs in runs.values()])
    every = [run for point_runs in runs.values() for run in point_runs]
    return {
        "wall_s": sum(
            statistics.median(run["wall_s"] for run in point_runs)
            for point_runs in runs.values()
        ),
        "setup_s": statistics.median(run["setup_s"] for run in every),
        "peak_rss_mb": max(run["rss_kb"] for run in every) / 1024,
        "sim_commit_tps": sims["sim_commit_tps"],
        "sim_latency_p50_ms": sims["sim_latency_p50_ms"],
        "sim_latency_tail_ms": sims["sim_latency_tail_ms"],
    }


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------
def traced_point(wl: Workload, seed: int, probe: Probe) -> dict[str, Any]:
    """One run with every layer wrapped, then the oracle, timed.

    Returns the per-layer metrics that need no untraced run, and the
    evidence the caller checks: outcome, oracle verdict, coverage.
    """
    from perfbench import layers
    from perfbench.spans import SELF, Recorder

    recorder = Recorder()
    outcomes = layers.MvtsoOutcomes()
    layers.install(recorder, outcomes)

    def worker_extra() -> dict[str, Any]:
        return {**recorder.export(), "outcomes": vars(outcomes).copy()}

    probe.worker_extra = worker_extra
    rep = one_repeat(wl, seed, probe)
    extras = rep.worker_extras or [worker_extra()]
    verdict, verify_s = oracle_verdict(wl, probe)

    stats = layers.merge_stats([e["stats"] for e in extras])
    sim_spans: dict[str, list[float]] = {}
    for extra in extras:
        for key, samples in extra["sim_spans"].items():
            sim_spans.setdefault(key, []).extend(samples)
    metrics = layers.layer_metrics(
        stats=stats,
        setup_stats=layers.merge_stats([e["setup_stats"] for e in extras]),
        layer_of=recorder.layer_of,
        sim_spans=sim_spans,
        outcomes=sum_counters([e["outcomes"] for e in extras]),
        objects=rep.objects,
        tap=rep.tap,
        result=rep.result,
        worker_busy=sum(e["run_busy"] for e in extras),
        worker_wall=sum(e["run_wall"] for e in extras),
        verify_check_s=verify_s,
    )
    return {
        "wall_s": rep.wall_s,
        "outcome": outcome(wl, rep),
        "metrics": metrics,
        "oracle": verdict,
        "open_frames": sum(e["open_frames"] for e in extras),
        "min_self_s": min((slot[SELF] for slot in stats.values()), default=0.0),
        "max_worker_wall_s": max(e["run_wall"] for e in extras),
        "layer_s": layers.layer_self(stats, recorder.layer_of),
    }
