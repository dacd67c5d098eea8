"""Run one benchmark workload and print its metrics and output checks.

Usage, from the repository root::

    python3 perfbench/run.py --workload ycsb-uniform-sig --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` runs the workload's figure points round-robin for about
``--seconds`` and prints the end-to-end metrics; ``--trace 1`` makes one
untraced and one traced run of the first point and prints the per-layer
metrics.  Every run is a fresh child process (``--point``).  Both print every output check; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program is imported from ``src/``; the
command exits with status 2, printing no result, when it is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"

#: End-to-end metric -> unit, in BENCHMARK.json order.
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_commit_tps": "tx/sim-s",
    "sim_latency_p50_ms": "ms",
    "sim_latency_tail_ms": "ms",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # One run of one figure point in this process (what the command runs
    # as a child process for every run it makes).
    parser.add_argument("--point", type=int, help=argparse.SUPPRESS)
    parser.add_argument(
        "--role", choices=("timed", "oracle", "traced"), default="timed", help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


def source_fingerprint() -> str:
    """sha256 over the program and benchmark sources (path + bytes)."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_state() -> dict[str, object]:
    # The ceiling keeps git from finding a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}

    def git(*args: str) -> str | None:
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), *args],
                capture_output=True, text=True, env=env, timeout=20,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    if rev is None:
        return {"git_rev": None, "git_dirty": None}
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"git_rev": rev, "git_dirty": bool(status)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args: argparse.Namespace, fingerprint: str) -> dict[str, object]:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "loadavg_1m": os.getloadavg()[0],
        **git_state(),
        "source_sha256": fingerprint,
    }


class Checks:
    def __init__(self) -> None:
        self.verdicts: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.verdicts.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.verdicts)

    def print(self) -> None:
        for name, ok, detail in self.verdicts:
            print(f"check {name}: {'PASS' if ok else 'FAIL'}{'  ' + detail if detail else ''}")


def check_against_record(
    checks: Checks, workload: str, seed: int, fingerprint: str, out: dict
) -> None:
    """Compare with the outcome an earlier run of this code recorded
    for this figure point (seed)."""
    path = STATE_DIR / "outcomes" / f"{workload}-{seed}.json"
    record = None
    if path.exists():
        record = json.loads(path.read_text())
    if record is not None and record["source_sha256"] == fingerprint:
        checks.add(
            f"repeat_across_runs[{seed}]",
            record["outcome"] == out,
            "same as the earlier run at this seed"
            if record["outcome"] == out
            else f"earlier {record['outcome']} now {out}",
        )
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"source_sha256": fingerprint, "outcome": out}))
    checks.add(f"repeat_across_runs[{seed}]", True, "first run of this code at this seed: recorded")


def oracle_check(checks: Checks, verdict: str) -> None:
    from perfbench import measure

    if verdict == "skipped":
        checks.add("safety_oracle", True, "not run: partitioned system spans processes")
    else:
        checks.add(
            "safety_oracle",
            verdict == "ok",
            f"HistoryChecker ok after {measure.ORACLE_DRAIN}s drain" if verdict == "ok" else verdict,
        )


def run_point(args: argparse.Namespace, point: int, role: str) -> dict:
    """Run one figure point in a fresh process and return its report."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--point", str(point), "--role", role,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: point {point} ({role}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def point_main(args: argparse.Namespace, wl) -> int:
    """The child side of ``run_point``: one run, its report as JSON."""
    from perfbench import measure
    from perfbench.probe import Probe

    tmpdir = STATE_DIR / f"tmp-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        probe = Probe(str(tmpdir))
        probe.install()
        if args.role == "traced":
            report = measure.traced_point(wl, args.point, probe)
        else:
            report = measure.timed_point(wl, args.point, probe, oracle=args.role == "oracle")
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def run_timed(args, wl, checks, fingerprint) -> tuple[dict, dict]:
    """Run the points round-robin until the next run would end past
    ``--seconds``; every point runs once and the first point twice.
    The first run also runs the safety oracle."""
    from perfbench import measure

    seeds = wl.point_seeds(args.seed)
    runs: dict[int, list[dict]] = {point: [] for point in seeds}
    start = time.perf_counter()
    count = 0
    while True:
        began = time.perf_counter()
        point = seeds[count % len(seeds)]
        runs[point].append(run_point(args, point, "oracle" if count == 0 else "timed"))
        count += 1
        now = time.perf_counter()
        if count > len(seeds) and now - start + (now - began) > args.seconds:
            break
    for point, reps in runs.items():
        outs = [rep["outcome"] for rep in reps]
        print(f"point seed {point}: wall_s " + " ".join(f"{r['wall_s']:.3f}" for r in reps)
              + " | setup_s " + " ".join(f"{r['setup_s']:.3f}" for r in reps))
        if len(outs) > 1:
            checks.add(
                f"exact_repeat[{point}]",
                all(o == outs[0] for o in outs),
                f"{len(outs)} runs: events {outs[0]['events']}, commits {outs[0]['commits']}, "
                f"digest {outs[0]['digest'][:12] or '-'}",
            )
        check_against_record(checks, wl.name, point, fingerprint, outs[0])
    oracle_check(checks, runs[seeds[0]][0]["oracle"])
    pooled = measure.pooled(wl, [reps[0] for reps in runs.values()])
    checks.add(
        "tail_support",
        pooled["tail_support"] >= measure.TAIL_SUPPORT,
        f"{pooled['tail_support']} of {pooled['commits']} correct commits beyond p{wl.tail_pct:g}",
    )
    metrics = measure.end_to_end(wl, runs)
    units = END_TO_END_UNITS
    return {k: (metrics[k], units[k]) for k in units}, pooled


def run_traced(args, wl, checks, fingerprint) -> tuple[dict, dict]:
    """One untraced and one traced run of the first point."""
    from perfbench import layers

    point = wl.point_seeds(args.seed)[0]
    untraced = run_point(args, point, "timed")
    traced = run_point(args, point, "traced")
    before, after = untraced["outcome"], traced["outcome"]
    checks.add(
        "traced_matches_untraced",
        after == before,
        f"events {after['events']} vs {before['events']}, "
        f"digest {after['digest'][:12] or '-'} vs {before['digest'][:12] or '-'}",
    )
    check_against_record(checks, wl.name, point, fingerprint, before)
    oracle_check(checks, traced["oracle"])
    metrics = traced["metrics"]
    metrics["kernel.events_per_s"] = before["events"] / untraced["wall_s"]
    metrics["traced.overhead_share"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    dead = [name for name in wl.live if not metrics[name] > 0]
    checks.add(
        "wrapper_liveness",
        not dead,
        "zero: " + ", ".join(dead) if dead else f"{len(wl.live)} layer metrics non-zero",
    )
    layer_total = sum(traced["layer_s"].values())
    wall = traced["wall_s"]
    well_formed = traced["open_frames"] == 0 and traced["min_self_s"] > -1e-3
    if wl.workers == 1:
        share = layer_total / wall
        checks.add(
            "layer_coverage",
            well_formed and 0.95 <= share <= 1.05,
            f"layer self times + kernel.self_s = {layer_total:.3f}s of wall_s {wall:.3f}s",
        )
    else:
        share = traced["max_worker_wall_s"] / wall
        checks.add(
            "layer_coverage",
            well_formed and 0.8 <= share <= 1.05,
            f"busiest worker's kernel span {traced['max_worker_wall_s']:.3f}s of wall_s "
            f"{wall:.3f}s; layer self times sum {layer_total:.3f}s over workers",
        )
    print("layer self seconds: " + ", ".join(
        f"{k} {v:.3f}" for k, v in sorted(traced["layer_s"].items(), key=lambda kv: -kv[1])))
    units = layers.PER_LAYER_UNITS
    return {k: (metrics[k], units[k]) for k in units}, before


def check_names(trace: int, emitted: dict) -> None:
    """The emitted metric names must be BENCHMARK.json's, in its order."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return
    spec = json.loads(spec_path.read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    expected = [(m["name"], m["unit"]) for m in section]
    got = [(name, unit) for name, (_, unit) in emitted.items()]
    if expected != got:
        raise SystemExit(f"metric names/units differ from BENCHMARK.json: {got} vs {expected}")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r} (have: {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    if args.point is not None:
        return point_main(args, wl)
    fingerprint = source_fingerprint()
    print("provenance " + json.dumps(provenance(args, fingerprint), sort_keys=True))
    checks = Checks()
    runner = run_traced if args.trace else run_timed
    metrics, out = runner(args, wl, checks, fingerprint)
    check_names(args.trace, metrics)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    checks.print()
    # "attempted": correct-client transactions finished in the window;
    # "failed": those that gave up or hit a protocol error.
    result = {
        "correct": checks.ok,
        "attempted": out["commits"] + out["failed"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
