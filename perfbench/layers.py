"""Which program functions the traced run wraps, and the per-layer table.

``install(recorder)`` patches each entry point where its caller looks it
up (the class attribute or the module global), tagged with the layer it
belongs to.  ``layer_metrics`` turns the recorded totals plus end-of-run
counters into the per-layer metrics named in ``BENCHMARK.json``.

Layer host times are *self* times: a layer's spans minus the wrapped
calls made inside them.  ``kernel.self_s`` is the kernel's own share —
``Simulator.run`` and the task trampoline minus every wrapped call they
make — so the layer times plus ``kernel.self_s`` partition the traced
run's wall time.
"""

from __future__ import annotations

from typing import Any

from perfbench.spans import CALLS, INCL, SELF, Recorder

# (module, class, attribute, span key, layer, shape); shape is "sync",
# "coro", "coro+sim" (coroutine that keeps simulated spans) or "count".
WRAPS: tuple[tuple[str, str, str, str, str, str], ...] = (
    # kernel: the trampoline step is its own span so protocol code a
    # task resumes is charged to its layer, not to whatever woke it
    ("repro.sim.loop", "Task", "_step", "kernel.step", "kernel", "sync"),
    ("repro.sim.loop", "Simulator", "create_task", "kernel.tasks", "kernel", "count"),
    # CPU model
    ("repro.sim.node", "Cpu", "spend", "cpu.spend", "cpu", "sync"),
    ("repro.sim.node", "Cpu", "_finish", "cpu.finish", "cpu", "sync"),
    # network
    ("repro.sim.network", "Network", "send", "net.send", "net", "sync"),
    ("repro.sim.network", "Network", "_deliver", "net.deliver", "net", "sync"),
    # crypto cost model
    ("repro.crypto.cost_model", "CryptoContext", "sign", "crypto.sign", "crypto", "coro"),
    ("repro.crypto.cost_model", "CryptoContext", "sign_digest", "crypto.sign_digest", "crypto", "coro"),
    ("repro.crypto.cost_model", "CryptoContext", "verify_digest", "crypto.verify_digest", "crypto", "coro"),
    ("repro.crypto.cost_model", "CryptoContext", "hash", "crypto.hash", "crypto", "coro"),
    ("repro.crypto.cost_model", "CryptoContext", "charge_sign", "crypto.charge_sign", "crypto", "sync"),
    ("repro.crypto.cost_model", "CryptoContext", "charge_verify", "crypto.charge_verify", "crypto", "sync"),
    ("repro.crypto.cost_model", "CryptoContext", "charge_verify_batch", "crypto.charge_verify_batch", "crypto", "sync"),
    ("repro.crypto.cost_model", "CryptoContext", "charge_hash", "crypto.charge_hash", "crypto", "sync"),
    ("repro.crypto.cost_model", "CryptoContext", "probe_verify", "crypto.probe_verify", "crypto", "sync"),
    ("repro.crypto.cost_model", "CryptoContext", "peek_verify", "crypto.peek_verify", "crypto", "sync"),
    # MVTSO store: probes, writes, and bookkeeping
    ("repro.storage.versionstore", "VersionStore", "latest_committed", "store.probe.latest_committed", "store", "sync"),
    ("repro.storage.versionstore", "VersionStore", "latest_prepared", "store.probe.latest_prepared", "store", "sync"),
    ("repro.storage.versionstore", "VersionStore", "writes_between", "store.probe.writes_between", "store", "sync"),
    ("repro.storage.versionstore", "VersionStore", "reads_spanning", "store.probe.reads_spanning", "store", "sync"),
    ("repro.storage.versionstore", "VersionStore", "has_rts_above", "store.probe.has_rts_above", "store", "sync"),
    ("repro.storage.versionstore", "VersionStore", "max_rts", "store.probe.max_rts", "store", "sync"),
    ("repro.storage.versionstore", "VersionStore", "apply_committed_write", "store.write.apply_committed", "store", "sync"),
    ("repro.storage.versionstore", "VersionStore", "add_prepared_write", "store.write.add_prepared", "store", "sync"),
    ("repro.storage.versionstore", "VersionStore", "promote_prepared_write", "store.write.promote_prepared", "store", "sync"),
    ("repro.storage.versionstore", "VersionStore", "remove_prepared_write", "store.remove_prepared_write", "store", "sync"),
    ("repro.storage.versionstore", "VersionStore", "update_rts", "store.update_rts", "store", "sync"),
    ("repro.storage.versionstore", "VersionStore", "remove_rts", "store.remove_rts", "store", "sync"),
    ("repro.storage.versionstore", "VersionStore", "add_read", "store.add_read", "store", "sync"),
    ("repro.storage.versionstore", "VersionStore", "remove_read", "store.remove_read", "store", "sync"),
    # replica (mvtso_check is imported by value into core.replica, so the
    # check is wrapped at BasilReplica.run_check, its only caller)
    ("repro.core.replica", "BasilReplica", "handle_message", "replica.handle_message", "replica", "coro"),
    ("repro.core.replica", "BasilReplica", "on_read", "replica.on_read", "replica", "coro"),
    ("repro.core.replica", "BasilReplica", "on_prepare", "replica.on_prepare", "replica", "coro"),
    ("repro.core.replica", "BasilReplica", "on_writeback", "replica.on_writeback", "replica", "coro"),
    ("repro.core.replica", "BasilReplica", "on_decision_log", "replica.on_decision_log", "replica", "coro"),
    ("repro.core.replica", "BasilReplica", "_await_dependencies", "replica.dep_wait", "replica", "coro"),
    ("repro.core.replica", "BasilReplica", "build_read_reply", "replica.build_read_reply", "replica", "sync"),
    ("repro.core.replica", "BasilReplica", "on_rts_remove", "replica.on_rts_remove", "replica", "sync"),
    ("repro.core.replica", "BasilReplica", "on_fetch_tx", "replica.on_fetch_tx", "replica", "sync"),
    ("repro.core.replica", "BasilReplica", "finalize", "replica.finalize", "replica", "sync"),
    # reply batching
    ("repro.core.batching", "ReplyBatcher", "attest", "batch.attest", "batch", "sync"),
    ("repro.core.batching", "ReplyBatcher", "_flush_now", "batch.flush", "batch", "sync"),
    ("repro.core.batching", "ReplyBatcher", "_on_timeout", "batch.timeout", "batch", "sync"),
    ("repro.core.batching", "ReplyBatcher", "_sign_batch", "batch.sign_batch", "batch", "coro"),
    # client
    ("repro.core.client", "BasilClient", "handle_message", "client.handle_message", "client", "coro"),
    ("repro.core.client", "BasilClient", "read", "client.read", "client", "coro+sim"),
    ("repro.core.client", "BasilClient", "prepare", "client.prepare", "client", "coro+sim"),
    ("repro.core.client", "BasilClient", "commit", "client.commit", "client", "coro"),
    ("repro.core.client", "BasilClient", "log_decision", "client.log_decision", "client", "coro"),
    ("repro.core.client", "BasilClient", "fetch_tx", "client.fetch_tx", "client", "coro"),
    ("repro.core.client", "BasilClient", "finish", "client.finish", "client", "coro"),
    ("repro.core.client", "BasilClient", "begin", "client.begin", "client", "sync"),
    ("repro.core.client", "BasilClient", "writeback", "client.writeback", "client", "sync"),
    ("repro.core.client", "BasilClient", "abort_execution", "client.abort_execution", "client", "sync"),
    # fallback: the client-side coordinator and the replica handlers
    ("repro.core.fallback", "RecoveryCoordinator", "run", "fallback.run", "fallback", "coro+sim"),
    ("repro.core.replica", "BasilReplica", "on_invoke_fallback", "fallback.on_invoke_fallback", "fallback", "coro"),
    ("repro.core.replica", "BasilReplica", "on_elect_fb", "fallback.on_elect_fb", "fallback", "coro"),
    ("repro.core.replica", "BasilReplica", "on_dec_fb", "fallback.on_dec_fb", "fallback", "coro"),
    # certificate validation (validate dispatches to commit/abort)
    ("repro.core.certificates", "CertValidator", "validate", "cert.validate", "cert", "coro"),
    ("repro.core.certificates", "CertValidator", "validate_commit", "cert.validate_commit", "cert", "coro"),
    ("repro.core.certificates", "CertValidator", "validate_abort", "cert.validate_abort", "cert", "coro"),
    ("repro.core.certificates", "CertValidator", "validate_conflict", "cert.validate_conflict", "cert", "coro"),
    ("repro.core.certificates", "CertValidator", "validate_vote_tally", "cert.validate_vote_tally", "cert", "coro"),
    # parallel exchange (worker side)
    ("repro.parallel.models", "BasilPartitionHost", "_remote_send", "parallel.envelope", "parallel", "sync"),
    ("repro.parallel.models", "BasilPartitionHost", "deliver", "parallel.deliver", "parallel", "sync"),
    ("repro.parallel.models", "BasilPartitionHost", "take_outbox", "parallel.take_outbox", "parallel", "sync"),
    # determinism tracer and its digest
    ("repro.trace.tracer", "Tracer", "_append", "trace.append", "trace", "sync"),
    ("repro.trace.tracer", "Tracer", "instant", "trace.instant", "trace", "sync"),
    ("repro.trace.tracer", "Tracer", "complete", "trace.complete", "trace", "sync"),
    ("repro.trace.tracer", "Tracer", "span", "trace.span", "trace", "sync"),
    ("repro.trace.tracer", "_Span", "__enter__", "trace.span_enter", "trace", "sync"),
    ("repro.trace.tracer", "_Span", "__exit__", "trace.span_exit", "trace", "sync"),
    ("repro.trace.export", None, "trace_digest", "oracle.digest", "oracle", "sync"),
    # the runner's closed-loop client loop and the run's wrap-up
    ("repro.bench.runner", "ExperimentRunner", "_client_loop", "runner.client_loop", "runner", "coro"),
    ("repro.bench.runner", "ExperimentRunner", "finalize", "runner.finalize", "runner", "sync"),
    ("repro.parallel.models", "SequentialRun", "run_prepared", "runner.run_prepared", "runner", "sync"),
    ("repro.parallel.models", "BasilPartitionHost", "finalize", "runner.finalize_partition", "runner", "sync"),
    # setup and workload generation
    ("repro.core.system", "BasilSystem", "__init__", "setup.build", "setup", "sync"),
    ("repro.core.system", "BasilSystem", "load", "setup.load", "setup", "sync"),
    ("repro.bench.runner", "ExperimentRunner", "setup", "setup.runner", "setup", "sync"),
    ("repro.workloads.ycsb", "YCSBWorkload", "next_transaction", "workload.gen", "workload", "sync"),
)


class MvtsoOutcomes:
    """Counts that need a look at arguments or results: MVTSO checks that
    abort or wait on dependencies, and fallback view changes."""

    def __init__(self) -> None:
        self.aborts = 0
        self.waits = 0
        self.view_changes = 0

    def on_check(self, args, result) -> None:
        from repro.core.mvtso import CheckStatus

        if result.status in (CheckStatus.ABORT, CheckStatus.MISBEHAVIOR):
            self.aborts += 1
        elif result.pending_deps:
            self.waits += 1


def install(recorder: Recorder, outcomes: MvtsoOutcomes) -> None:
    import importlib

    from repro.core.replica import BasilReplica
    from repro.sim.loop import Simulator

    def follow_sim(args, result) -> None:
        # Coroutines started while the system is wired (before the first
        # Simulator.run) read simulated time from the newest system.
        recorder.sim = args[0].sim

    recorder.wrap_kernel_run(Simulator)
    for module, cls, attr, key, layer, shape in WRAPS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        if shape == "sync":
            after = follow_sim if key == "setup.build" else None
            recorder.wrap_sync(owner, attr, key, layer, after=after)
        elif shape == "count":
            recorder.wrap_count(owner, attr, key, layer)
        else:
            recorder.wrap_coro(owner, attr, key, layer, keep_sim=shape == "coro+sim")
    recorder.wrap_sync(
        BasilReplica, "run_check", "mvtso.check", "mvtso", after=outcomes.on_check
    )
    enter_view = BasilReplica.__dict__["_enter_view"]

    def counting_enter_view(self, state, view):
        if view > state.view_current:
            outcomes.view_changes += 1
        return enter_view(self, state, view)

    BasilReplica._enter_view = counting_enter_view


# ---------------------------------------------------------------------------
# The per-layer table
# ---------------------------------------------------------------------------
#: name -> unit, in BENCHMARK.json order.
PER_LAYER_UNITS = {
    "kernel.events": "count",
    "kernel.events_per_s": "1/s",
    "kernel.self_s": "s",
    "kernel.timers": "count",
    "kernel.tasks": "count",
    "cpu.charges": "count",
    "cpu.charges_per_commit": "count",
    "cpu.spend_s": "s",
    "cpu.replica_busy_share": "share",
    "net.sends": "count",
    "net.msgs_per_commit": "count",
    "net.send_s": "s",
    "net.dropped": "count",
    "crypto.signs": "count",
    "crypto.verifies": "count",
    "crypto.verify_charges": "count",
    "crypto.memo_hit_share": "share",
    "crypto.hashes": "count",
    "crypto.host_s": "s",
    "store.probes": "count",
    "store.writes": "count",
    "store.host_s": "s",
    "store.versions_per_key": "count",
    "mvtso.checks": "count",
    "mvtso.check_s": "s",
    "mvtso.abort_share": "share",
    "mvtso.wait_share": "share",
    "replica.reads": "count",
    "replica.prepares": "count",
    "replica.writebacks": "count",
    "replica.handler_s": "s",
    "batch.attests": "count",
    "batch.mean_size": "count",
    "batch.host_s": "s",
    "client.reads": "count",
    "client.prepares": "count",
    "client.read_sim_ms": "ms",
    "client.prepare_sim_ms": "ms",
    "client.fast_path_share": "share",
    "client.retries_per_commit": "count",
    "client.abort_rate": "share",
    "client.host_s": "s",
    "fallback.recoveries": "count",
    "fallback.recoveries_per_commit": "count",
    "fallback.recovery_sim_ms": "ms",
    "fallback.view_changes": "count",
    "fallback.host_s": "s",
    "cert.validations": "count",
    "cert.host_s": "s",
    "parallel.windows": "count",
    "parallel.cross_messages": "count",
    "parallel.cross_per_window": "count",
    "parallel.worker_busy_share": "share",
    "parallel.host_s": "s",
    "trace.records": "count",
    "trace.record_s": "s",
    "trace.dropped": "count",
    "oracle.digest_s": "s",
    "oracle.coverage_share": "share",
    "verify.check_s": "s",
    "runner.host_s": "s",
    "setup.build_s": "s",
    "setup.load_s": "s",
    "workload.gen_s": "s",
    "traced.overhead_share": "share",
}


def merge_stats(parts: list[dict[str, list[float]]]) -> dict[str, list[float]]:
    total: dict[str, list[float]] = {}
    for stats in parts:
        for key, slot in stats.items():
            acc = total.setdefault(key, [0, 0.0, 0.0])
            for i, value in enumerate(slot):
                acc[i] += value
    return total


def layer_self(stats: dict[str, list[float]], layer_of: dict[str, str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for key, slot in stats.items():
        layer = layer_of[key]
        out[layer] = out.get(layer, 0.0) + slot[SELF]
    return out


def _p50_ms(samples: list[float]) -> float:
    from perfbench.measure import percentile

    return percentile(samples, 50) * 1000 if samples else 0.0


def layer_metrics(
    *,
    stats: dict[str, list[float]],
    setup_stats: dict[str, list[float]],
    layer_of: dict[str, str],
    sim_spans: dict[str, list[float]],
    outcomes: dict[str, int],
    objects: dict[str, float],
    tap: dict[str, Any],
    result: Any,
    worker_busy: float,
    worker_wall: float,
    verify_check_s: float,
) -> dict[str, float]:
    """Every per-layer metric but the two that need the untraced run's
    wall time (``kernel.events_per_s``, ``traced.overhead_share``)."""

    def calls(*keys: str) -> int:
        return sum(stats[k][CALLS] for k in keys)

    def prefixed(prefix: str) -> int:
        return sum(slot[CALLS] for key, slot in stats.items() if key.startswith(prefix))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    selfs = layer_self(stats, layer_of)
    commits = tap["all_commits"]
    correct = len(tap["commits"])
    aborts = tap["aborts"]
    failed = tap["failed"]
    checks = calls("mvtso.check")
    attests = calls("batch.attest")
    kept, dropped = objects["trace_kept"], objects["trace_dropped"]
    cpu_charges = calls("cpu.spend")
    sends = calls("net.send")
    recoveries = calls("fallback.run")
    return {
        "kernel.events": result.events,
        "kernel.self_s": selfs.get("kernel", 0.0),
        "kernel.timers": objects["scheduled"],
        "kernel.tasks": calls("kernel.tasks") + setup_stats.get("kernel.tasks", [0])[CALLS],
        "cpu.charges": cpu_charges,
        "cpu.charges_per_commit": ratio(cpu_charges, commits),
        "cpu.spend_s": selfs.get("cpu", 0.0),
        "cpu.replica_busy_share": ratio(objects["replica_busy_s"], objects["replica_core_s"]),
        "net.sends": sends,
        "net.msgs_per_commit": ratio(sends, commits),
        "net.send_s": selfs.get("net", 0.0),
        "net.dropped": objects["net_dropped"],
        "crypto.signs": objects["signs"],
        "crypto.verifies": objects["verifies"],
        "crypto.verify_charges": calls("crypto.charge_verify", "crypto.charge_verify_batch"),
        "crypto.memo_hit_share": ratio(objects["memo_hits"], objects["verifies"]),
        "crypto.hashes": objects["hashes"],
        "crypto.host_s": selfs.get("crypto", 0.0),
        "store.probes": prefixed("store.probe."),
        "store.writes": prefixed("store.write."),
        "store.host_s": selfs.get("store", 0.0),
        "store.versions_per_key": ratio(objects["store_versions"], objects["store_keys"]),
        "mvtso.checks": checks,
        "mvtso.check_s": selfs.get("mvtso", 0.0),
        "mvtso.abort_share": ratio(outcomes["aborts"], checks),
        "mvtso.wait_share": ratio(outcomes["waits"], checks),
        "replica.reads": calls("replica.on_read"),
        "replica.prepares": calls("replica.on_prepare"),
        "replica.writebacks": calls("replica.on_writeback"),
        "replica.handler_s": selfs.get("replica", 0.0),
        "batch.attests": attests,
        "batch.mean_size": ratio(attests, calls("batch.sign_batch")),
        "batch.host_s": selfs.get("batch", 0.0),
        "client.reads": calls("client.read"),
        "client.prepares": calls("client.prepare"),
        "client.read_sim_ms": _p50_ms(sim_spans.get("client.read", [])),
        "client.prepare_sim_ms": _p50_ms(sim_spans.get("client.prepare", [])),
        "client.fast_path_share": ratio(sum(1 for _, fast in tap["commits"] if fast), correct),
        "client.retries_per_commit": ratio(aborts, correct),
        "client.abort_rate": ratio(aborts + failed, correct + aborts + failed),
        "client.host_s": selfs.get("client", 0.0),
        "fallback.recoveries": recoveries,
        "fallback.recoveries_per_commit": ratio(recoveries, commits),
        "fallback.recovery_sim_ms": _p50_ms(sim_spans.get("fallback.run", [])),
        "fallback.view_changes": outcomes["view_changes"],
        "fallback.host_s": selfs.get("fallback", 0.0),
        "cert.validations": calls(
            "cert.validate_commit",
            "cert.validate_abort",
            "cert.validate_conflict",
            "cert.validate_vote_tally",
        ),
        "cert.host_s": selfs.get("cert", 0.0),
        "parallel.windows": result.windows,
        "parallel.cross_messages": result.cross_messages,
        "parallel.cross_per_window": ratio(result.cross_messages, result.windows),
        "parallel.worker_busy_share": ratio(worker_busy, worker_wall),
        "parallel.host_s": selfs.get("parallel", 0.0),
        "trace.records": kept + dropped,
        "trace.record_s": selfs.get("trace", 0.0),
        "trace.dropped": dropped,
        "oracle.digest_s": stats["oracle.digest"][INCL],
        "oracle.coverage_share": ratio(kept, kept + dropped),
        "verify.check_s": verify_check_s,
        "runner.host_s": selfs.get("runner", 0.0),
        "setup.build_s": setup_stats.get("setup.build", [0, 0.0, 0.0])[INCL],
        "setup.load_s": setup_stats.get("setup.load", [0, 0.0, 0.0])[INCL],
        "workload.gen_s": stats["workload.gen"][SELF]
        + setup_stats.get("workload.gen", [0, 0.0, 0.0])[SELF],
    }
