"""A multiversioned key-value store with prepared/committed visibility.

This is the storage substrate under one replica.  It tracks, per key:

* **committed versions** — ordered by writer timestamp, visible to reads;
* **prepared versions** — writes of transactions that passed MVTSO-Check
  but have not yet committed (Basil makes these visible so other clients
  can pick up dependencies, Sec 4.1);
* **read timestamps (RTS)** — reservations left by reads, which cause
  lower-timestamped writers to abort (MVTSO-Check step 5);
* **read index** — which (prepared|committed) transaction read which
  version, needed by MVTSO-Check step 4.

Timestamps are opaque, totally ordered values (Basil uses
``(time, client_id)`` tuples via :class:`repro.core.timestamps.Timestamp`).

Genesis state lives in a read-only :class:`GenesisLayer` that every
replica of a shard shares by reference.  A key gets its own per-store
bookkeeping only on its first mutation, seeded with its genesis version;
until then every probe answers from the layer, exactly as if the key had
been loaded into the store.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field
from typing import Any, Generic, Hashable, Iterable, TypeVar

from repro.errors import StorageError
from repro.prof.profiler import NULL_PROFILER

TS = TypeVar("TS")
Key = Hashable


class VersionStatus(enum.Enum):
    PREPARED = "prepared"
    COMMITTED = "committed"


@dataclass(frozen=True)
class Version(Generic[TS]):
    """One version of one key, created by the write of one transaction."""

    key: Any
    timestamp: TS
    value: Any
    writer: bytes  # transaction id (digest) that wrote this version
    status: VersionStatus = VersionStatus.COMMITTED

    def canonical_fields(self) -> tuple:
        return (self.key, self.timestamp, self.value, self.writer, self.status.value)


class GenesisLayer(Generic[TS]):
    """Read-only genesis state shared by the stores of one shard.

    Every key maps to one committed version at ``timestamp`` written by
    ``writer``.  ``load`` is the only mutator (a ``stream_load`` target);
    stores that share the layer must be re-attached after it grows.
    """

    __slots__ = ("timestamp", "writer", "values")

    def __init__(self, timestamp: TS, writer: bytes, values: dict | None = None) -> None:
        self.timestamp = timestamp
        self.writer = writer
        self.values: dict[Key, Any] = {} if values is None else values

    def load(self, chunk: dict[Key, Any]) -> None:
        """Add genesis values; a key already present keeps its first value,
        as a repeated committed write at the same timestamp is idempotent."""
        values = self.values
        if values.keys().isdisjoint(chunk):
            values.update(chunk)
        else:
            for key, value in chunk.items():
                values.setdefault(key, value)

    def version(self, key: Key) -> Version:
        return Version(key, self.timestamp, self.values[key], self.writer, VersionStatus.COMMITTED)


@dataclass
class _KeyState:
    """Per-key bookkeeping. All lists are kept sorted by timestamp."""

    committed: list[tuple[Any, Version]] = field(default_factory=list)
    prepared: list[tuple[Any, Version]] = field(default_factory=list)
    #: Read-timestamp reservations: sorted list of timestamps.
    rts: list[Any] = field(default_factory=list)
    #: Reads by prepared/committed transactions: sorted by reader timestamp,
    #: entries are (reader_ts, version_ts_read, reader_txid).
    reads: list[tuple[Any, Any, bytes]] = field(default_factory=list)


class VersionStore(Generic[TS]):
    """Multiversion store for one replica (or one baseline shard server)."""

    #: Wall-clock attribution hook (see repro.prof).  The store has no
    #: simulator reference, so ``install_profiler`` points this class
    #: attribute's per-instance override at the run's profiler; the
    #: default NULL_PROFILER keeps the probe hot paths one attribute
    #: read away from unprofiled.
    profiler = NULL_PROFILER

    def __init__(self) -> None:
        #: Per-key state of every key this store has mutated.
        self._keys: dict[Key, _KeyState] = {}
        self._genesis: GenesisLayer | None = None
        #: How many keys of ``_keys`` the genesis layer also holds.
        self._shadowed = 0

    def _state(self, key: Key) -> _KeyState:
        state = self._keys.get(key)
        if state is None:
            # Copy-on-write: a key's first mutation seeds its own chain
            # with the genesis version it has been answering from.
            genesis = self._genesis
            if genesis is not None and key in genesis.values:
                state = _KeyState([(genesis.timestamp, genesis.version(key))])
                self._shadowed += 1
            else:
                state = _KeyState()
            self._keys[key] = state
        return state

    def _genesis_version(self, key: Key) -> Version | None:
        """The layer's version of a key this store has not mutated."""
        genesis = self._genesis
        if genesis is None or key not in genesis.values:
            return None
        return genesis.version(key)

    def __contains__(self, key: Key) -> bool:
        state = self._keys.get(key)
        if state is None:
            return self._genesis is not None and key in self._genesis.values
        return bool(state.committed)

    def keys(self) -> Iterable[Key]:
        if self._genesis is None:
            return self._keys.keys()
        return {**dict.fromkeys(self._genesis.values), **dict.fromkeys(self._keys)}.keys()

    def stats(self) -> dict[str, int]:
        """Size counters for observability probes (pure observation).

        Walks the state of mutated keys only: every other genesis key
        holds exactly one committed version.  Intended for periodic
        sampling (the obs ticker), not per-operation paths.
        """
        committed = prepared = rts = reads = 0
        for state in self._keys.values():
            committed += len(state.committed)
            prepared += len(state.prepared)
            rts += len(state.rts)
            reads += len(state.reads)
        untouched = len(self._genesis.values) - self._shadowed if self._genesis else 0
        return {
            "keys": len(self._keys) + untouched,
            "committed_versions": committed + untouched,
            "prepared_versions": prepared,
            "rts_reservations": rts,
            "read_index_entries": reads,
        }

    # ------------------------------------------------------------------
    # Loading / committed writes
    # ------------------------------------------------------------------
    def attach_genesis(self, layer: GenesisLayer) -> None:
        """Answer from ``layer`` for every key this store has not mutated.

        The layer is shared by reference, never written; attach again
        after loading more keys into it.  A store that already has a
        different layer gets a private merge of both, its earlier values
        winning.
        """
        current = self._genesis
        if current is not None and current is not layer:
            merged = GenesisLayer(current.timestamp, current.writer, dict(current.values))
            merged.load(layer.values)
            layer = merged
        self._genesis = layer
        self._shadowed = 0
        for key, state in self._keys.items():
            if key in layer.values:
                self._shadowed += 1
                self._insert_committed(key, state, layer.version(key))

    def apply_committed_write(self, key: Key, timestamp: TS, value: Any, writer: bytes) -> None:
        """Insert a committed version at its timestamp position.

        Versions may arrive out of timestamp order (replicas process
        transactions independently); insertion keeps the chain sorted, as
        the paper's proof of Lemma 1 requires.
        """
        version = Version(key, timestamp, value, writer, VersionStatus.COMMITTED)
        self._insert_committed(key, self._state(key), version)

    def _insert_committed(self, key: Key, state: _KeyState, version: Version) -> None:
        timestamp = version.timestamp
        # Chains hold (timestamp, Version) pairs; probing with the 1-tuple
        # ``(timestamp,)`` bisects on the timestamp alone (a shorter tuple
        # sorts before any equal-prefix longer one) without a per-probe
        # ``key=`` callable — these run on every read and MVTSO check.
        idx = bisect.bisect_left(state.committed, (timestamp,))
        if idx < len(state.committed) and state.committed[idx][0] == timestamp:
            existing = state.committed[idx][1]
            if existing.writer != version.writer:
                raise StorageError(
                    f"two committed writers at the same timestamp on {key!r}"
                )
            return  # duplicate writeback delivery: idempotent
        state.committed.insert(idx, (timestamp, version))

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def latest_committed(self, key: Key, before: TS) -> Version | None:
        """Highest-timestamped committed version with ts < ``before``."""
        profiler = self.profiler
        if profiler.enabled:
            profiler.begin("store.probe")
            try:
                return self._latest_committed(key, before)
            finally:
                profiler.end()
        return self._latest_committed(key, before)

    def _latest_committed(self, key: Key, before: TS) -> Version | None:
        state = self._keys.get(key)
        if state is None:
            genesis = self._genesis_version(key)
            return genesis if genesis is not None and genesis.timestamp < before else None
        if not state.committed:
            return None
        idx = bisect.bisect_left(state.committed, (before,))
        if idx == 0:
            return None
        return state.committed[idx - 1][1]

    def latest_prepared(self, key: Key, before: TS) -> Version | None:
        """Highest-timestamped prepared version with ts < ``before``."""
        profiler = self.profiler
        if profiler.enabled:
            profiler.begin("store.probe")
            try:
                return self._latest_prepared(key, before)
            finally:
                profiler.end()
        return self._latest_prepared(key, before)

    def _latest_prepared(self, key: Key, before: TS) -> Version | None:
        state = self._keys.get(key)
        if not state or not state.prepared:
            return None
        idx = bisect.bisect_left(state.prepared, (before,))
        if idx == 0:
            return None
        return state.prepared[idx - 1][1]

    def update_rts(self, key: Key, timestamp: TS) -> None:
        """Record a read reservation at ``timestamp`` (idempotent)."""
        profiler = self.profiler
        if profiler.enabled:
            profiler.begin("store.probe")
            try:
                self._update_rts(key, timestamp)
            finally:
                profiler.end()
            return
        self._update_rts(key, timestamp)

    def _update_rts(self, key: Key, timestamp: TS) -> None:
        state = self._state(key)
        idx = bisect.bisect_left(state.rts, timestamp)
        if idx < len(state.rts) and state.rts[idx] == timestamp:
            return
        state.rts.insert(idx, timestamp)

    def remove_rts(self, key: Key, timestamp: TS) -> None:
        """Drop a read reservation (client-initiated abort, Sec 4.1)."""
        state = self._keys.get(key)
        if not state:
            return
        idx = bisect.bisect_left(state.rts, timestamp)
        if idx < len(state.rts) and state.rts[idx] == timestamp:
            state.rts.pop(idx)

    def max_rts(self, key: Key) -> TS | None:
        state = self._keys.get(key)
        if not state or not state.rts:
            return None
        return state.rts[-1]

    # ------------------------------------------------------------------
    # Prepare / commit / abort lifecycle
    # ------------------------------------------------------------------
    def add_prepared_write(self, key: Key, timestamp: TS, value: Any, writer: bytes) -> None:
        state = self._state(key)
        version = Version(key, timestamp, value, writer, VersionStatus.PREPARED)
        idx = bisect.bisect_left(state.prepared, (timestamp,))
        if idx < len(state.prepared) and state.prepared[idx][0] == timestamp:
            return  # duplicate prepare: idempotent
        state.prepared.insert(idx, (timestamp, version))

    def add_read(self, key: Key, reader_ts: TS, version_read: TS, reader: bytes) -> None:
        """Index a read performed by a now-prepared transaction."""
        state = self._state(key)
        entry = (reader_ts, version_read, reader)
        idx = bisect.bisect_left(state.reads, entry)
        if idx < len(state.reads) and state.reads[idx] == entry:
            return
        state.reads.insert(idx, entry)

    def remove_prepared_write(self, key: Key, timestamp: TS) -> None:
        state = self._keys.get(key)
        if not state:
            return
        idx = bisect.bisect_left(state.prepared, (timestamp,))
        if idx < len(state.prepared) and state.prepared[idx][0] == timestamp:
            state.prepared.pop(idx)

    def remove_read(self, key: Key, reader_ts: TS, version_read: TS, reader: bytes) -> None:
        state = self._keys.get(key)
        if not state:
            return
        entry = (reader_ts, version_read, reader)
        idx = bisect.bisect_left(state.reads, entry)
        if idx < len(state.reads) and state.reads[idx] == entry:
            state.reads.pop(idx)

    def promote_prepared_write(self, key: Key, timestamp: TS) -> None:
        """Move a prepared version into the committed chain."""
        state = self._state(key)
        idx = bisect.bisect_left(state.prepared, (timestamp,))
        if idx >= len(state.prepared) or state.prepared[idx][0] != timestamp:
            return  # already promoted (duplicate writeback) or never prepared here
        _, version = state.prepared.pop(idx)
        self.apply_committed_write(key, timestamp, version.value, version.writer)

    # ------------------------------------------------------------------
    # Conflict queries used by MVTSO-Check
    # ------------------------------------------------------------------
    def writes_between(self, key: Key, low: TS, high: TS) -> list[Version]:
        """Committed or prepared versions with low < ts < high.

        MVTSO-Check step 3: a write in this window means transaction with
        read (key, version=low) and timestamp high missed it.
        """
        profiler = self.profiler
        if profiler.enabled:
            profiler.begin("store.probe")
            try:
                return self._writes_between(key, low, high)
            finally:
                profiler.end()
        return self._writes_between(key, low, high)

    def _writes_between(self, key: Key, low: TS, high: TS) -> list[Version]:
        state = self._keys.get(key)
        if state is None:
            genesis = self._genesis_version(key)
            if genesis is not None and low < genesis.timestamp < high:
                return [genesis]
            return []
        found: list[Version] = []
        for chain in (state.committed, state.prepared):
            # At most one entry per timestamp, so "first ts > low" is
            # "first ts >= low, plus one on an exact hit".
            lo = bisect.bisect_left(chain, (low,))
            if lo < len(chain) and chain[lo][0] == low:
                lo += 1
            hi = bisect.bisect_left(chain, (high,))
            found.extend(v for _, v in chain[lo:hi])
        return found

    def reads_spanning(self, key: Key, write_ts: TS) -> list[tuple[Any, Any, bytes]]:
        """Reads by prepared/committed txns with version_read < write_ts < reader_ts.

        MVTSO-Check step 4: such a reader should have observed our write
        but could not have.
        """
        profiler = self.profiler
        if profiler.enabled:
            profiler.begin("store.probe")
            try:
                return self._reads_spanning(key, write_ts)
            finally:
                profiler.end()
        return self._reads_spanning(key, write_ts)

    def _reads_spanning(self, key: Key, write_ts: TS) -> list[tuple[Any, Any, bytes]]:
        state = self._keys.get(key)
        if not state:
            return []
        reads = state.reads
        lo = bisect.bisect_left(reads, (write_ts,))
        while lo < len(reads) and reads[lo][0] == write_ts:
            lo += 1
        return [e for e in reads[lo:] if e[1] < write_ts]

    def has_rts_above(self, key: Key, timestamp: TS) -> bool:
        """MVTSO-Check step 5: an RTS above our write timestamp exists."""
        top = self.max_rts(key)
        return top is not None and top > timestamp

    # ------------------------------------------------------------------
    # Introspection (tests, invariant checks)
    # ------------------------------------------------------------------
    def committed_versions(self, key: Key) -> list[Version]:
        state = self._keys.get(key)
        if state is None:
            genesis = self._genesis_version(key)
            return [genesis] if genesis is not None else []
        return [v for _, v in state.committed]

    def prepared_versions(self, key: Key) -> list[Version]:
        state = self._keys.get(key)
        return [v for _, v in state.prepared] if state else []

    def check_invariants(self) -> None:
        """Raise StorageError if any per-key ordering invariant is broken."""
        for key, state in self._keys.items():
            for chain in (state.committed, state.prepared):
                stamps = [ts for ts, _ in chain]
                if stamps != sorted(stamps):
                    raise StorageError(f"unsorted version chain for {key!r}")
                if len(set(stamps)) != len(stamps):
                    raise StorageError(f"duplicate version timestamp for {key!r}")
            if state.rts != sorted(state.rts):
                raise StorageError(f"unsorted RTS list for {key!r}")
