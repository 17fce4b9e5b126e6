"""The simulation engine: virtual clock + event scheduler.

A :class:`SimEngine` owns the event queues and the ``now`` clock. All
substrates (MPI runtime, Netty event loops, Spark executors, NIC models)
share one engine per simulated cluster.

Dispatch order is ``(when, seq)``: time first, then scheduling order. Two
queues implement it:

* the **heap** holds ``(when, seq, event)`` entries due at a later instant;
* the **ready lane** (``_ready``, a FIFO deque) holds events due at the
  current instant — ``succeed``/``fail``, process starts and completions,
  interrupt wake-ups, and timeouts whose ``now + delay == now`` (zero
  delay, or a delay below ``now``'s float resolution). About two thirds
  of all events take this path and never touch the heap.

At each instant :meth:`SimEngine._ordered` dispatches the heap entries due
``now`` before the lane. That is exactly the ``(when, seq)`` order: heap
entries due now were pushed at an earlier instant, so their seqs are below
everything in the lane, and nothing scheduled during the instant can land
in the heap at ``now``. The lane is always empty when the clock advances.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Generator, Iterable, Iterator

from repro.simnet.events import (
    AllOf,
    AnyOf,
    Event,
    Process,
    SimError,
    Timeout,
)
from repro.util.rng import SeededRng

_INF = float("inf")


class EmptySchedule(SimError):
    """Raised by :meth:`SimEngine.step` when no events remain."""


class SimEngine:
    """Virtual-time discrete-event scheduler.

    >>> env = SimEngine()
    >>> def hello(env):
    ...     yield env.timeout(2.5)
    ...     return "done at %g" % env.now
    >>> p = env.process(hello(env))
    >>> env.run()
    >>> p.value
    'done at 2.5'
    """

    # Upper bound on the Timeout free list; beyond this, recycled instances
    # are simply dropped for the GC (bounds memory under timer storms).
    _POOL_MAX = 4096

    def __init__(self, start_time: float = 0.0, seed: int = 0) -> None:
        self.now: float = start_time
        self._heap: list[tuple[float, int, Event]] = []
        self._ready: deque[Event] = deque()  # events due at ``now``, FIFO
        self._seq = 0
        self._timeout_pool: list[Timeout] = []
        self._n_dead = 0  # tombstoned (cancelled) timeouts still queued
        self.events_processed = 0  # lifetime dispatch count (perf harness)
        # Every stochastic component (fault injection, chaos filters) forks a
        # substream off this so one seed reproduces the whole simulation.
        self.seed = int(seed)
        self.rng = SeededRng(self.seed)
        # Observability (repro.obs): the registry is always live — its
        # counters are cheap enough to leave on — while span tracing and
        # causal message tracing stay shared no-ops until a run opts in
        # (spark.repro.obs.trace / spark.repro.obs.causal), which swaps in
        # a real Tracer / CausalTracer.
        from repro.obs.causal import NULL_CAUSAL
        from repro.obs.registry import MetricsRegistry
        from repro.obs.tracer import NULL_TRACER

        self.metrics = MetricsRegistry(self)
        self.tracer = NULL_TRACER
        self.causal = NULL_CAUSAL

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        now = self.now
        when = now + delay
        if when == now:  # zero delay, or a delay below now's resolution
            self._ready.append(event)
        else:
            self._seq += 1
            heapq.heappush(self._heap, (when, self._seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` if none)."""
        if self._ready:
            return self.now
        return self._heap[0][0] if self._heap else _INF

    def cancel(self, timeout: Timeout) -> None:
        """Cancel a pending :class:`Timeout`: its callbacks never run.

        The queued entry (heap or lane) stays behind as a tombstone —
        popped-and-skipped by :meth:`_ordered` (advancing the clock exactly
        as the old no-op callback did), never dispatched nor counted — and
        both queues are compacted in place once tombstones outnumber live
        entries. Cancelling an already-fired or already-cancelled timeout
        is a no-op.
        """
        if timeout.callbacks is None or timeout._dead:
            return
        timeout._dead = True
        self._n_dead += 1
        if self._n_dead > 64 and self._n_dead * 2 > len(self._heap) + len(self._ready):
            self._compact()

    def _compact(self) -> None:
        """Drop tombstoned entries from both queues, recycling their Timeouts.

        Heap entries keep their ``(when, seq)`` keys, so heapify preserves
        the exact pop order of the surviving events; the lane keeps its
        FIFO order.
        """
        pool = self._timeout_pool
        pool_max = self._POOL_MAX
        timeout_cls = Timeout
        live_heap = []
        dead = []
        for entry in self._heap:
            ev = entry[2]
            if ev.__class__ is timeout_cls and ev._dead:
                dead.append(ev)
            else:
                live_heap.append(entry)
        live_ready = []
        for ev in self._ready:
            if ev.__class__ is timeout_cls and ev._dead:
                dead.append(ev)
            else:
                live_ready.append(ev)
        # Recycled tombstones keep ``_dead`` set until reuse, so a stale
        # cancel() of one is still a no-op and ``_n_dead`` stays exact.
        for ev in dead:
            if len(pool) < pool_max:
                pool.append(ev)
        # In place: _ordered holds local aliases to these exact containers.
        heap = self._heap
        heap[:] = live_heap
        heapq.heapify(heap)
        self._ready.clear()
        self._ready.extend(live_ready)
        self._n_dead = 0

    def _ordered(self, stop_time: float = _INF) -> Iterator[Event]:
        """Yield live events in ``(when, seq)`` order, advancing the clock.

        The one pop routine behind :meth:`run` and :meth:`step`. Per
        instant: heap entries due ``now``, then the lane (see the module
        docstring for why that is the ``(when, seq)`` order). Cancelled
        timeouts are skipped and recycled. Stops when both queues are empty
        or the next instant lies beyond ``stop_time`` (the clock then moves
        to ``stop_time``).
        """
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        popleft = ready.popleft
        pool = self._timeout_pool
        pool_max = self._POOL_MAX
        timeout_cls = Timeout
        now = self.now
        while True:
            while heap and heap[0][0] == now:
                event = heappop(heap)[2]
                if event.__class__ is timeout_cls and event._dead:
                    # Cancelled timer: the clock advanced, nothing runs.
                    self._n_dead -= 1
                    if len(pool) < pool_max:
                        pool.append(event)
                    continue
                yield event
            # Nothing dispatched from here on can be due in the heap at now.
            while ready:
                event = popleft()
                if event.__class__ is timeout_cls and event._dead:
                    self._n_dead -= 1
                    if len(pool) < pool_max:
                        pool.append(event)
                    continue
                yield event
            if not heap:
                return
            when = heap[0][0]
            if when > stop_time:
                self.now = stop_time
                return
            if when < now:
                raise SimError(f"time went backwards: {when} < {now}")
            self.now = now = when

    def step(self) -> None:
        """Process one scheduled event, advancing the clock to it."""
        event = next(self._ordered(), None)
        if event is None:
            raise EmptySchedule("no scheduled events")
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        for cb in callbacks or ():
            cb(event)
        if not event._ok and not callbacks and not isinstance(event, Process):
            # A failed event nobody waited on would silently vanish.
            raise event._value

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the schedule drains, ``until`` time passes, or an
        ``until`` event triggers. Returns the event's value in that case.

        Unhandled process failures propagate out of ``run`` so tests see
        real tracebacks instead of hung simulations.
        """
        stop_event: Event | None = None
        stop_time = _INF
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self.now:
                raise ValueError(f"until={stop_time} is in the past (now={self.now})")

        # Hot loop: locals for everything touched per event. The stop
        # *event* can only be processed by this loop dispatching it, which
        # returns directly — unless it was processed before the call.
        pool = self._timeout_pool
        pool_max = self._POOL_MAX
        timeout_cls = Timeout
        n_dispatched = 0
        try:
            if stop_event is None or stop_event.callbacks is not None:
                for event in self._ordered(stop_time):
                    n_dispatched += 1
                    callbacks, event.callbacks = event.callbacks, None
                    for cb in callbacks or ():
                        cb(event)
                    if not event._ok and not callbacks and isinstance(event, Process):
                        # A process died and nobody is joining it: surface it.
                        raise event._value
                    if event is stop_event:
                        if not event._ok:
                            raise event._value
                        return event._value
                    if event.__class__ is timeout_cls and len(pool) < pool_max:
                        # Fired and fully dispatched: back to the free list.
                        pool.append(event)
        finally:
            self.events_processed += n_dispatched
        if stop_event is not None:
            # Reached when the event was processed before this call or the
            # schedule drained; the in-loop dispatch of the event returns.
            if not stop_event.triggered:
                raise SimError(
                    "run(until=event): schedule drained before event fired"
                )
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        if stop_time != _INF and stop_time > self.now:
            # The schedule drained before the horizon: time still passes.
            self.now = stop_time
        return None

    # -- factories -----------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        pool = self._timeout_pool
        if not pool:
            return Timeout(self, delay, value)
        # Re-initialise a recycled instance: Timeout.__init__ and
        # _schedule, inlined (every simulated cost charge lands here).
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        timeout = pool.pop()
        timeout.callbacks = []
        timeout._ok = True
        timeout._value = value
        timeout.delay = delay
        timeout._dead = False
        now = self.now
        when = now + delay
        if when == now:
            self._ready.append(timeout)
        else:
            self._seq += 1
            heapq.heappush(self._heap, (when, self._seq, timeout))
        return timeout

    def process(
        self, gen: Generator[Event, Any, Any], name: str | None = None
    ) -> Process:
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)
