"""The shared copy-on-write genesis layer under ``VersionStore``.

A store that answers from a shared :class:`GenesisLayer` must be
indistinguishable, through every public method, from a store that had
each genesis key written into it one by one; and stores sharing one
layer must not see each other's mutations.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.tapir.system import TapirSystem
from repro.config import SystemConfig
from repro.core.certificates import GENESIS_TXID
from repro.core.system import BasilSystem
from repro.core.timestamps import GENESIS, Timestamp
from repro.errors import StorageError
from repro.storage.versionstore import GenesisLayer, VersionStore

GENESIS_KEYS = {f"g{i}": b"init%d" % i for i in range(6)}
OTHER_KEYS = ["x0", "x1"]
KEYS = [*GENESIS_KEYS, *OTHER_KEYS]


def eager_store(values: dict) -> VersionStore:
    store = VersionStore()
    for key, value in values.items():
        store.apply_committed_write(key, GENESIS, value, GENESIS_TXID)
    return store


def layered_store(values: dict) -> VersionStore:
    store = VersionStore()
    store.attach_genesis(GenesisLayer(GENESIS, GENESIS_TXID, dict(values)))
    return store


def stamp(rng: random.Random) -> Timestamp:
    return Timestamp(rng.randint(0, 40), rng.randint(0, 3))


def random_op(rng: random.Random) -> tuple:
    key = rng.choice(KEYS)
    kind = rng.choice(
        [
            "update_rts", "remove_rts", "add_prepared_write", "remove_prepared_write",
            "add_read", "remove_read", "promote_prepared_write", "apply_committed_write",
            "genesis_write", "probe",
        ]
    )
    a, b = stamp(rng), stamp(rng)
    writer = b"t%d" % rng.randint(0, 3)
    if kind in ("update_rts", "remove_rts", "remove_prepared_write", "promote_prepared_write"):
        return kind, (key, a)
    if kind in ("add_prepared_write", "apply_committed_write"):
        return kind, (key, a, b"v%d" % rng.randint(0, 9), writer)
    if kind in ("add_read", "remove_read"):
        return kind, (key, a, b, writer)
    if kind == "genesis_write":
        # a re-delivered genesis write (idempotent) or a forged one (raises)
        return "apply_committed_write", (key, GENESIS, b"g", rng.choice([GENESIS_TXID, writer]))
    return kind, (key, a, b)


def observe(store: VersionStore, key, a, b) -> tuple:
    low, high = min(a, b), max(a, b)
    return (
        store.latest_committed(key, a),
        store.latest_prepared(key, a),
        store.writes_between(key, low, high),
        store.writes_between(key, GENESIS, high),
        store.reads_spanning(key, a),
        store.has_rts_above(key, a),
        store.max_rts(key),
        store.committed_versions(key),
        store.prepared_versions(key),
        key in store,
    )


def whole(store: VersionStore) -> tuple:
    return (
        list(store.keys()),
        store.stats(),
        {key: observe(store, key, GENESIS, Timestamp(100, 0)) for key in KEYS},
    )


def apply(store: VersionStore, kind: str, args: tuple):
    if kind == "probe":
        return observe(store, *args)
    try:
        return getattr(store, kind)(*args)
    except StorageError as err:
        return ("StorageError", str(err))


@pytest.mark.parametrize("seed", range(40))
def test_layered_store_matches_eager_store(seed):
    rng = random.Random(seed)
    eager, layered = eager_store(GENESIS_KEYS), layered_store(GENESIS_KEYS)
    assert whole(layered) == whole(eager)
    for _ in range(120):
        kind, args = random_op(rng)
        assert apply(layered, kind, args) == apply(eager, kind, args), (kind, args)
        assert layered.stats() == eager.stats()
    layered.check_invariants()
    assert whole(layered) == whole(eager)


def test_stores_sharing_a_layer_are_isolated():
    layer = GenesisLayer(GENESIS, GENESIS_TXID, dict(GENESIS_KEYS))
    busy, idle = VersionStore(), VersionStore()
    busy.attach_genesis(layer)
    idle.attach_genesis(layer)
    before = whole(idle)
    busy.update_rts("g0", Timestamp(5, 1))
    busy.add_prepared_write("g1", Timestamp(6, 1), b"p", b"t1")
    busy.add_read("g2", Timestamp(7, 1), GENESIS, b"t1")
    busy.apply_committed_write("g3", Timestamp(8, 1), b"c", b"t2")
    busy.add_prepared_write("g4", Timestamp(9, 1), b"p", b"t3")
    busy.promote_prepared_write("g4", Timestamp(9, 1))
    busy.update_rts("x0", Timestamp(5, 1))
    assert whole(idle) == before
    assert layer.values == GENESIS_KEYS
    assert busy.latest_committed("g3", Timestamp(9, 0)).value == b"c"
    assert idle.latest_committed("g3", Timestamp(9, 0)).value == GENESIS_KEYS["g3"]


def test_reattach_after_the_layer_grows_matches_eager():
    # Genesis loaded in two rounds, with traffic in between: keys touched
    # before their genesis arrived still end up with the genesis version.
    first = dict(list(GENESIS_KEYS.items())[:3])
    later = {**dict(list(GENESIS_KEYS.items())[2:]), "g0": b"ignored"}
    layer = GenesisLayer(GENESIS, GENESIS_TXID, dict(first))
    layered, eager = VersionStore(), eager_store(first)
    layered.attach_genesis(layer)
    for store in (layered, eager):
        store.update_rts("g0", Timestamp(3, 1))
        store.update_rts("g5", Timestamp(3, 1))
        store.add_prepared_write("g4", Timestamp(4, 1), b"p", b"t1")
    layer.load(later)
    layered.attach_genesis(layer)
    for key, value in later.items():
        eager.apply_committed_write(key, GENESIS, value, GENESIS_TXID)
    assert set(layered.keys()) == set(eager.keys())
    assert whole(layered)[1:] == whole(eager)[1:]
    assert layered.latest_committed("g0", Timestamp(9, 0)).value == first["g0"]


def test_attaching_a_second_layer_merges_privately():
    shared = GenesisLayer(GENESIS, GENESIS_TXID, {"a": 1})
    store = VersionStore()
    store.attach_genesis(shared)
    store.attach_genesis(GenesisLayer(GENESIS, GENESIS_TXID, {"a": 2, "b": 3}))
    assert [store.latest_committed(k, Timestamp(1, 0)).value for k in "ab"] == [1, 3]
    assert shared.values == {"a": 1}
    assert store.stats()["keys"] == 2


def test_stats_walk_only_mutated_keys():
    store = layered_store({f"k{i}": i for i in range(1000)})
    store.update_rts("k1", Timestamp(2, 1))
    store.apply_committed_write("k2", Timestamp(3, 1), 9, b"t")
    store.update_rts("new", Timestamp(2, 1))
    assert len(store._keys) == 3
    assert store.stats() == {
        "keys": 1001,
        "committed_versions": 1001,
        "prepared_versions": 0,
        "rts_reservations": 2,
        "read_index_entries": 0,
    }


# ---------------------------------------------------------------------------
# System load paths
# ---------------------------------------------------------------------------
POPULATION = {f"key-{i}": i for i in range(200)}


def shard_layers(system, stores_of) -> dict[int, set[int]]:
    layers: dict[int, set[int]] = {}
    for shard in range(system.config.num_shards):
        for name in system.sharder.members(shard):
            layers.setdefault(shard, set()).add(id(stores_of(system.replicas[name])._genesis))
    return layers


@pytest.mark.parametrize(
    "make, stores_of",
    [
        (BasilSystem, lambda r: r.store),
        (TapirSystem, lambda r: r.store.versions),
    ],
    ids=["basil", "tapir"],
)
def test_system_load_shares_one_layer_per_shard(make, stores_of):
    system = make(SystemConfig(f=1, num_shards=2))
    system.load(iter(POPULATION.items()))
    assert system.sharder._placement == {}
    layers = shard_layers(system, stores_of)
    assert all(len(ids) == 1 for ids in layers.values())
    assert layers[0] != layers[1]
    for shard, layer in system.genesis.items():
        assert layers[shard] == {id(layer)}
        assert all(system.sharder.shard_of(key) == shard for key in layer.values)
    assert sum(len(layer.values) for layer in system.genesis.values()) == len(POPULATION)
    for key, value in POPULATION.items():
        assert system.committed_value(key) == value


@pytest.mark.parametrize(
    "make, stores_of",
    [
        (BasilSystem, lambda r: r.store),
        (TapirSystem, lambda r: r.store.versions),
    ],
    ids=["basil", "tapir"],
)
def test_direct_replica_load_keeps_only_its_shard(make, stores_of):
    system = make(SystemConfig(f=1, num_shards=2))
    replica = system.replicas["s1/r0"]
    replica.load(POPULATION)
    store = stores_of(replica)
    mine = {k for k in POPULATION if system.sharder.shard_of(k) == 1}
    assert mine and set(store.keys()) == mine
    assert stores_of(system.replicas["s1/r1"])._genesis is None
