"""Discrete-event kernel: events, timeouts, processes, condition events.

This is a from-scratch simpy-style kernel (simpy is not available offline).
Simulation *processes* are Python generators that ``yield`` events; the
engine resumes a process when the event it waits on triggers. The MPI
runtime, the Netty event loops and the Spark executors in this reproduction
are all simulation processes built on this kernel.

Design notes:

* An :class:`Event` triggers exactly once, either with a value
  (:meth:`Event.succeed`) or an exception (:meth:`Event.fail`). Failing
  events propagate into the waiting generator via ``throw`` so simulation
  code uses ordinary ``try/except``.
* :class:`Process` is itself an event that triggers when its generator
  returns (value = the generator's return value) — processes can wait on
  each other, which is how ``join`` semantics work everywhere above.
* Determinism: events scheduled for the same timestamp fire in scheduling
  order, so simulations are exactly reproducible. Events due at a later
  instant wait in the engine's heap (a monotone sequence number breaks
  ties); events due at the current instant go to its FIFO ready lane
  (``SimEngine._ready``) and skip the heap — see :mod:`repro.simnet.engine`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.engine import SimEngine

# Sentinel distinguishing "not yet triggered" from a None value.
_PENDING = object()
_new_event = object.__new__


class SimError(RuntimeError):
    """Base class for kernel errors."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    ``cause`` carries the interrupter's reason (any object).
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence processes can wait on."""

    __slots__ = ("env", "callbacks", "_value", "_ok")

    def __init__(self, env: "SimEngine") -> None:
        self.env = env
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = _PENDING
        self._ok: bool = True

    @property
    def triggered(self) -> bool:
        """True once the event has a value or exception."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimError("event not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event with ``value`` and schedule its callbacks."""
        if self._value is not _PENDING:
            raise SimError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._ready.append(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._value is not _PENDING:
            raise SimError(f"event {self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._ok = False
        self._value = exc
        self.env._ready.append(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event was already processed the callback runs immediately —
        this is what lets a process wait on an event that fired in the past
        (e.g. joining an already-finished process).
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self.triggered:
            state = f"ok={self._ok} value={self._value!r}"
        return f"<{type(self).__name__} {state}>"


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds in the future.

    Timeouts are by far the most-allocated event type (every simulated
    cost charge is one), so the engine keeps a free list:
    ``SimEngine.timeout`` re-initialises a recycled instance in place of
    ``__init__``. A pending timeout can also be cancelled via
    ``SimEngine.cancel`` — the ``_dead`` flag tombstones its queue entry,
    and its callbacks never run.
    """

    __slots__ = ("delay", "_dead")

    def __init__(self, env: "SimEngine", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self.delay = delay
        self._dead = False
        env._schedule(self, delay)


class Initialize(Event):
    """Internal: kicks off a new process on the next scheduler step.

    Built inline by :class:`Process` (``__new__`` plus slot stores).
    """

    __slots__ = ()


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is an event: it triggers with the generator's return value,
    or fails with the exception that escaped the generator.

    ``_resume_cb`` caches the bound ``_resume`` (one bound-method object
    per process instead of one per wait). It is a Process -> bound method
    -> Process reference cycle, so it is cleared when the process finishes:
    left alive, every finished process waits for the cyclic GC.
    """

    __slots__ = ("gen", "name", "_target", "_interrupts", "_resume_cb")

    def __init__(
        self,
        env: "SimEngine",
        gen: Generator[Event, Any, Any],
        name: str | None = None,
    ) -> None:
        if not hasattr(gen, "throw"):
            raise TypeError(f"process body must be a generator, got {gen!r}")
        # Event.__init__ and the Initialize event, inlined: processes are
        # created per message.
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._interrupts: list[Interrupt] = []
        self._resume_cb = resume = self._resume
        init = _new_event(Initialize)
        init.env = env
        init.callbacks = [resume]
        init._ok = True
        init._value = None
        env._ready.append(init)
        self._target: Event | None = init

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if self._value is not _PENDING:
            raise SimError(f"cannot interrupt finished process {self.name}")
        self._interrupts.append(Interrupt(cause))
        target = self._target
        if target is not None and target._value is _PENDING:
            # Detach from the waited-on event and wake immediately. The
            # callback must go too: if the old target triggers later (e.g. a
            # queued resource request cancelled by the dying process's own
            # finally-release), it would re-resume a finished process.
            resume = self._resume_cb
            if target.callbacks is not None and resume in target.callbacks:
                target.callbacks.remove(resume)
            wakeup = Event(self.env)
            wakeup._ok = True
            wakeup._value = None
            self.env._schedule(wakeup)
            wakeup.add_callback(resume)
            self._target = wakeup

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        if self._value is not _PENDING:
            return  # stale callback from an event this process detached from
        gen = self.gen
        while True:
            try:
                if self._interrupts:
                    exc = self._interrupts.pop(0)
                    next_event = gen.throw(exc)
                elif event._ok:
                    next_event = gen.send(event._value)
                else:
                    next_event = gen.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                break
            except BaseException as exc:
                # Includes an unhandled Interrupt: the process terminates
                # "with cause".
                self._ok = False
                self._value = exc
                break

            # EAFP: everything yieldable has a ``callbacks`` slot; anything
            # else is a programming error surfaced as a SimError failure.
            try:
                cbs = next_event.callbacks
            except AttributeError:
                self._ok = False
                self._value = SimError(
                    f"process {self.name!r} yielded non-event {next_event!r}"
                )
                break

            self._target = next_event
            if cbs is None:
                # Already-processed events resume synchronously (loop again).
                event = next_event
                continue
            cbs.append(self._resume_cb)
            return
        # Finished: break the Process -> bound-method cycle, then trigger.
        self._resume_cb = None
        self.env._ready.append(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name} {'done' if self.triggered else 'alive'}>"


class Condition(Event):
    """Composite event over several sub-events (see :class:`AllOf`/:class:`AnyOf`).

    Completion is tracked through callbacks (``processed``), not the
    ``triggered`` flag — :class:`Timeout` pre-sets its value at construction,
    so ``triggered`` does not mean "has already happened".
    """

    __slots__ = ("events", "_needed", "_done")

    def __init__(self, env: "SimEngine", events: Iterable[Event], wait_all: bool) -> None:
        super().__init__(env)
        self.events = tuple(events)
        # (event, value) pairs captured at fire time: a Timeout sub-event
        # may be recycled (engine free list) before the condition completes,
        # so its _value cannot be read later.
        self._done: list[tuple[Event, Any]] = []
        if not self.events:
            self._ok = True
            self._value = {}
            env._schedule(self)
            return
        for ev in self.events:
            if ev.env is not env:
                raise SimError("condition mixes events from different engines")
        self._needed = len(self.events) if wait_all else 1
        for ev in self.events:
            ev.add_callback(self._on_sub_event)

    def _on_sub_event(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._done.append((event, event._value))
        self._needed -= 1
        if self._needed <= 0:
            self.succeed(dict(self._done))


class AllOf(Condition):
    """Triggers when *all* sub-events have triggered (fails fast on failure)."""

    __slots__ = ()

    def __init__(self, env: "SimEngine", events: Iterable[Event]) -> None:
        super().__init__(env, events, wait_all=True)


class AnyOf(Condition):
    """Triggers when *any* sub-event triggers."""

    __slots__ = ()

    def __init__(self, env: "SimEngine", events: Iterable[Event]) -> None:
        super().__init__(env, events, wait_all=False)
