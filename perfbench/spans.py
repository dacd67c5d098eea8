"""Host-time spans around calls into the program, recorded from outside.

A :class:`Recorder` replaces chosen functions with timing wrappers.
Spans nest on one stack, so a key's *self* time is its span minus the
spans of wrapped calls made inside it.  Three wrapper shapes:

* **sync** — one span per call;
* **coroutine** — one span per resumption: host time is charged only
  while the coroutine runs, never while it is suspended, and the
  simulated time from its first step to its return is kept as a sample;
* **count** — a call counter with no span (for calls whose body would
  otherwise swallow the spans of everything they start).

Wrappers read only ``time.perf_counter`` and ``sim.now``; they schedule
nothing and draw no randomness, so a traced run simulates exactly what
an untraced run does (the benchmark checks event counts and digests).
"""

from __future__ import annotations

import functools
from time import perf_counter as clock
from typing import Any, Callable

# Per-key totals: [calls, inclusive seconds, self seconds].
CALLS, INCL, SELF = range(3)


class Recorder:
    def __init__(self) -> None:
        #: Open spans; each frame accumulates its children's durations.
        #: The bottom frame is a sentinel so closing never checks for it.
        self.stack: list[list[float]] = [[0.0]]
        self.stats: dict[str, list[float]] = {}
        self.layer_of: dict[str, str] = {}
        #: Simulated durations (seconds) of coroutine keys that keep them.
        self.sim_spans: dict[str, list[float]] = {}
        #: Totals at the first ``Simulator.run`` call: everything before
        #: it is setup (build, genesis load, client wiring).
        self.setup_stats: dict[str, list[float]] | None = None
        self.sim: Any = None  #: simulator whose ``run`` is executing
        self.run_first: float | None = None  #: first kernel entry (host)
        self.run_last: float | None = None  #: last kernel exit (host)
        self.run_busy = 0.0  #: host seconds inside ``Simulator.run``

    # -- bookkeeping -------------------------------------------------------
    def _slot(self, key: str, layer: str) -> list[float]:
        if key in self.stats:
            raise ValueError(f"span key {key!r} wrapped twice")
        self.layer_of[key] = layer
        slot = self.stats[key] = [0, 0.0, 0.0]
        return slot

    def end_setup(self) -> None:
        if self.setup_stats is None:
            self.setup_stats = {k: list(v) for k, v in self.stats.items()}
            for slot in self.stats.values():
                slot[:] = [0, 0.0, 0.0]

    def export(self) -> dict[str, Any]:
        """JSON-able totals (a forked worker hands these back)."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "setup_stats": dict(self.setup_stats or {}),
            "sim_spans": {k: list(v) for k, v in self.sim_spans.items()},
            "run_busy": self.run_busy,
            "run_wall": (
                self.run_last - self.run_first if self.run_first is not None else 0.0
            ),
            "open_frames": len(self.stack) - 1,
        }

    # -- wrappers -----------------------------------------------------------
    def wrap_sync(
        self,
        owner: Any,
        attr: str,
        key: str,
        layer: str,
        after: Callable[..., None] | None = None,
    ) -> None:
        fn = owner.__dict__[attr]
        slot = self._slot(key, layer)
        stack = self.stack

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                slot[CALLS] += 1
                slot[INCL] += dur
                slot[SELF] += dur - frame[0]
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapped)

    def wrap_count(self, owner: Any, attr: str, key: str, layer: str) -> None:
        fn = owner.__dict__[attr]
        slot = self._slot(key, layer)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            slot[CALLS] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapped)

    def wrap_coro(
        self, owner: Any, attr: str, key: str, layer: str, keep_sim: bool = False
    ) -> None:
        fn = owner.__dict__[attr]
        slot = self._slot(key, layer)
        samples = self.sim_spans.setdefault(key, []) if keep_sim else None
        recorder = self

        @functools.wraps(fn)
        async def wrapped(*args, **kwargs):
            slot[CALLS] += 1
            return await _Timed(fn(*args, **kwargs), slot, samples, recorder)

        setattr(owner, attr, wrapped)

    def wrap_kernel_run(self, owner: Any, attr: str = "run") -> None:
        """``Simulator.run``: the kernel span, and the setup/run boundary."""
        fn = owner.__dict__[attr]
        slot = self._slot("kernel.run", "kernel")
        stack = self.stack
        recorder = self

        @functools.wraps(fn)
        def wrapped(sim, *args, **kwargs):
            recorder.end_setup()
            recorder.sim = sim
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            if recorder.run_first is None:
                recorder.run_first = t0
            try:
                return fn(sim, *args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                stack[-1][0] += dur
                slot[CALLS] += 1
                slot[INCL] += dur
                slot[SELF] += dur - frame[0]
                recorder.run_busy += dur
                recorder.run_last = t1

        setattr(owner, attr, wrapped)


class _Timed:
    """Drive one coroutine, timing each resumption as a span."""

    __slots__ = ("coro", "slot", "samples", "recorder")

    def __init__(self, coro, slot, samples, recorder) -> None:
        self.coro = coro
        self.slot = slot
        self.samples = samples
        self.recorder = recorder

    def __await__(self):
        coro = self.coro
        slot = self.slot
        recorder = self.recorder
        stack = recorder.stack
        sim = recorder.sim
        begin = sim.now if sim is not None else None
        value: Any = None
        error: BaseException | None = None
        while True:
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            done = False
            try:
                if error is None:
                    awaited = coro.send(value)
                else:
                    awaited = coro.throw(error)
            except StopIteration as stop:
                done = True
                result = stop.value
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                slot[INCL] += dur
                slot[SELF] += dur - frame[0]
            if done:
                if self.samples is not None and begin is not None:
                    self.samples.append(sim.now - begin)
                return result
            try:
                value = yield awaited
                error = None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded into the coroutine
                value = None
                error = exc
