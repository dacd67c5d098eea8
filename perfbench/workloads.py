"""The benchmark's workloads: one seeded Basil figure point each.

Every workload is closed-loop YCSB with 2 reads + 2 writes (``ycsb-u``),
f=1 and reply batch 4, run through ``ParallelRunner(ModelSpec(...))`` —
the front door the figure CLI and the perf gates use.  Only the seed
comes from the command line; everything else is fixed here so two runs
at one seed simulate the same thing.  Why each workload exists, and
which layer metrics it should move, is in ``NOTES.md``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    shards: int
    signatures: bool
    clients: int
    keys: int
    workers: int
    #: Determinism tracer + sha256 digest on (the golden-test path).
    trace: bool
    #: Simulated seconds before (and, as cool-down, after) the window.
    warmup: float
    #: Simulated seconds of the measurement window.
    duration: float
    #: Percentile reported as ``sim_latency_tail_ms``: the highest one
    #: with at least 10 correct commits beyond it at this run length.
    tail_pct: float
    #: Figure points per run: distinct seeds derived from the run's seed
    #: (more simulated work per run, so less spread between seeds).
    points: int = 3
    #: ``stall-early`` Byzantine clients among ``clients`` (Fig 7).
    byz_clients: int = 0
    #: Per-layer metrics the traced run requires to be non-zero.
    live: tuple[str, ...] = ()

    def point_seeds(self, seed: int) -> list[int]:
        return [seed * 1000 + i for i in range(self.points)]

    def spec(self, seed: int):
        from repro.config import CryptoConfig, SystemConfig
        from repro.parallel.models import ModelSpec

        config = SystemConfig(
            f=1,
            num_shards=self.shards,
            batch_size=4,
            seed=seed,
            crypto=CryptoConfig(enabled=self.signatures),
        )
        return ModelSpec(
            kind="basil",
            config=config,
            workload="ycsb-u",
            workload_keys=self.keys,
            num_clients=self.clients,
            duration=self.duration,
            warmup=self.warmup,
            label=self.name,
            trace=self.trace,
            byz_client_behaviour="stall-early" if self.byz_clients else None,
            byz_client_count=self.byz_clients,
        )


#: Layers every workload exercises.
_COMMON_LIVE = (
    "kernel.events",
    "cpu.charges",
    "net.sends",
    "crypto.hashes",
    "store.probes",
    "store.writes",
    "mvtso.checks",
    "replica.reads",
    "replica.prepares",
    "replica.writebacks",
    "batch.attests",
    "client.reads",
    "client.prepares",
    "cert.validations",
    "setup.load_s",
    "workload.gen_s",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ycsb-uniform-sig",
            shards=2,
            signatures=True,
            clients=40,
            keys=100_000,
            workers=1,
            trace=False,
            warmup=0.01,
            duration=0.05,
            tail_pct=98.0,
            points=2,
            live=_COMMON_LIVE + ("crypto.signs", "crypto.verify_charges", "verify.check_s"),
        ),
        Workload(
            name="ycsb-byz30-traced",
            shards=1,
            signatures=True,
            clients=40,
            byz_clients=12,
            keys=10_000,
            workers=1,
            trace=True,
            warmup=0.01,
            duration=0.03,
            tail_pct=97.5,
            live=_COMMON_LIVE
            + (
                "crypto.signs",
                "crypto.verify_charges",
                "fallback.recoveries",
                "trace.records",
                "oracle.digest_s",
                "verify.check_s",
            ),
        ),
        Workload(
            name="ycsb-nosig-w2",
            shards=2,
            signatures=False,
            clients=24,
            keys=10_000,
            workers=2,
            trace=False,
            warmup=0.004,
            duration=0.012,
            tail_pct=96.0,
            points=6,
            live=_COMMON_LIVE + ("parallel.windows", "parallel.cross_messages"),
        ),
    )
}
