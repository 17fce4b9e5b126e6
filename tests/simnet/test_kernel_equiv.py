"""Ready-lane kernel vs a heap-only reference kernel.

``SimEngine`` dispatches events due at the current instant from a FIFO
ready lane and only the later ones from its heap (see
``repro/simnet/engine.py``). The contract is that this changes *nothing*
observable: every event is dispatched in exactly the ``(when, seq)`` order
of a kernel that pushes everything through one heap, and the dispatch
count is the same.

``ReferenceEngine`` below is that heap-only kernel — the pre-lane
semantics, kept small: one ``(when, seq, event)`` heap, no free list.
Its tombstone compaction follows the same rule as ``SimEngine.cancel``
(dropped tombstones no longer advance the clock, so the rule is
observable in ``now``). Randomized process graphs (seeded — failures reproduce) run
on both kernels under four drivers (``run()``, ``run(until=time)``,
``run(until=event)``, ``step()``) and must produce identical traces:
every process step with its clock and value, every dispatched event's
callback, every exception that escapes the driver, and
``events_processed``. The graphs mix zero-delay chains, same-timestamp
ties, delays absorbed by float rounding, failures, interrupts,
``AnyOf``/``AllOf``, process joins and cancelled timeouts (including
zero-delay ones sitting in the lane, and enough of them to trigger
compaction).
"""

import heapq
import random
from collections import deque

import pytest

from repro.simnet import EmptySchedule, Interrupt, SimEngine, SimError
from repro.simnet.events import Timeout

_PENDING = object()


class RefEvent:
    def __init__(self, env):
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True

    @property
    def triggered(self):
        return self._value is not _PENDING

    @property
    def ok(self):
        return self._ok

    @property
    def value(self):
        if self._value is _PENDING:
            raise SimError("event not yet triggered")
        return self._value

    def succeed(self, value=None):
        if self._value is not _PENDING:
            raise SimError("already triggered")
        self._ok = True
        self._value = value
        self.env._push(self, 0.0)
        return self

    def fail(self, exc):
        if self._value is not _PENDING:
            raise SimError("already triggered")
        self._ok = False
        self._value = exc
        self.env._push(self, 0.0)
        return self

    def add_callback(self, fn):
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)


class RefTimeout(RefEvent):
    def __init__(self, env, delay, value=None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self._value = value
        self.dead = False
        env._push(self, delay)


class RefProcess(RefEvent):
    def __init__(self, env, gen):
        super().__init__(env)
        self.gen = gen
        self.interrupts = []
        init = RefEvent(env)
        init._value = None
        env._push(init, 0.0)
        init.add_callback(self._resume)
        self.target = init

    @property
    def is_alive(self):
        return not self.triggered

    def interrupt(self, cause=None):
        if self.triggered:
            raise SimError("cannot interrupt finished process")
        self.interrupts.append(Interrupt(cause))
        target = self.target
        if target is not None and not target.triggered:
            if target.callbacks is not None and self._resume in target.callbacks:
                target.callbacks.remove(self._resume)
            wakeup = RefEvent(self.env)
            wakeup._value = None
            self.env._push(wakeup, 0.0)
            wakeup.add_callback(self._resume)
            self.target = wakeup

    def _resume(self, event):
        if self.triggered:
            return
        while True:
            try:
                if self.interrupts:
                    nxt = self.gen.throw(self.interrupts.pop(0))
                elif event._ok:
                    nxt = self.gen.send(event._value)
                else:
                    nxt = self.gen.throw(event._value)
            except StopIteration as stop:
                self._ok, self._value = True, stop.value
                self.env._push(self, 0.0)
                return
            except BaseException as exc:
                self._ok, self._value = False, exc
                self.env._push(self, 0.0)
                return
            self.target = nxt
            if nxt.callbacks is None:
                event = nxt
                continue
            nxt.callbacks.append(self._resume)
            return


class RefCondition(RefEvent):
    def __init__(self, env, events, wait_all):
        super().__init__(env)
        self.events = tuple(events)
        self.done = []
        if not self.events:
            self._value = {}
            env._push(self, 0.0)
            return
        self.needed = len(self.events) if wait_all else 1
        for ev in self.events:
            ev.add_callback(self._on_sub_event)

    def _on_sub_event(self, event):
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self.done.append((event, event._value))
        self.needed -= 1
        if self.needed <= 0:
            self.succeed(dict(self.done))


class ReferenceEngine:
    """Heap-only kernel: every schedule is a ``(when, seq, event)`` push."""

    def __init__(self):
        self.now = 0.0
        self.heap = []
        self.seq = 0
        self.n_dead = 0
        self.events_processed = 0

    def _push(self, event, delay):
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, event))

    def event(self):
        return RefEvent(self)

    def timeout(self, delay, value=None):
        return RefTimeout(self, delay, value)

    def process(self, gen):
        return RefProcess(self, gen)

    def any_of(self, events):
        return RefCondition(self, events, wait_all=False)

    def all_of(self, events):
        return RefCondition(self, events, wait_all=True)

    def cancel(self, timeout):
        if timeout.callbacks is None or timeout.dead:
            return
        timeout.dead = True
        self.n_dead += 1
        if self.n_dead > 64 and self.n_dead * 2 > len(self.heap):
            self.heap = [e for e in self.heap if not self._is_dead(e[2])]
            heapq.heapify(self.heap)
            self.n_dead = 0

    @staticmethod
    def _is_dead(event):
        return isinstance(event, RefTimeout) and event.dead

    def peek(self):
        return self.heap[0][0] if self.heap else float("inf")

    def _dispatch(self, event):
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        for cb in callbacks or ():
            cb(event)
        return callbacks

    def step(self):
        while True:
            if not self.heap:
                raise EmptySchedule("no scheduled events")
            when, _, event = heapq.heappop(self.heap)
            self.now = when
            if not self._is_dead(event):
                break
            self.n_dead -= 1
        callbacks = self._dispatch(event)
        if not event._ok and not callbacks and not isinstance(event, RefProcess):
            raise event._value

    def run(self, until=None):
        stop_event = until if isinstance(until, RefEvent) else None
        stop_time = float("inf")
        if until is not None and stop_event is None:
            stop_time = float(until)
        while self.heap:
            if stop_event is not None and stop_event.callbacks is None:
                break
            when = self.heap[0][0]
            if when > stop_time:
                self.now = stop_time
                break
            self.now = when
            while self.heap and self.heap[0][0] == when:
                event = heapq.heappop(self.heap)[2]
                if self._is_dead(event):
                    self.n_dead -= 1
                    continue
                callbacks = self._dispatch(event)
                if not event._ok and not callbacks and isinstance(event, RefProcess):
                    raise event._value
                if event is stop_event:
                    if not event._ok:
                        raise event._value
                    return event._value
        if stop_event is not None:
            if not stop_event.triggered:
                raise SimError("run(until=event): schedule drained before event fired")
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        if stop_time != float("inf") and stop_time > self.now:
            self.now = stop_time
        return None


# -- randomized process graphs ---------------------------------------------------

# Zero delays (ready lane), a delay that vanishes against any clock >= 1.0
# (lane by rounding), and values whose sums collide (same-timestamp ties,
# including 0.1 + 0.2 vs 0.3).
DELAYS = (0.0, 0.0, 0.0, 1e-17, 0.1, 0.2, 0.3, 0.5, 0.5, 1.0, 1.0, 1.5, 2.0)


class Boom(Exception):
    pass


def _steps(rng, depth, joined):
    ops = ["timeout", "timeout", "zero", "succeed", "signal", "wait", "any",
           "all", "interrupt", "cancel"]
    if depth < 2:
        ops += ["spawn", "spawn"]
    if joined:
        ops.append("raise")
    out = []
    for _ in range(rng.randint(2, 9)):
        op = rng.choice(ops)
        if op == "timeout":
            out.append((op, rng.choice(DELAYS)))
        elif op in ("signal", "wait"):
            out.append((op, rng.randrange(4), rng.random() < 0.25))
        elif op in ("any", "all"):
            out.append((op, [rng.choice(DELAYS) for _ in range(rng.randint(0, 3))]))
        elif op == "interrupt":
            out.append((op, rng.randrange(6)))
        elif op == "cancel":
            n = 70 if rng.random() < 0.15 else rng.randint(1, 4)
            out.append((op, [rng.choice(DELAYS) for _ in range(n)]))
        elif op == "spawn":
            join = rng.random() < 0.6
            out.append((op, _steps(rng, depth + 1, join), join))
        else:
            out.append((op,))
    return out


def make_program(seed):
    rng = random.Random(seed)
    workers = [_steps(rng, 0, False) for _ in range(rng.randint(2, 6))]
    driver = rng.choice(["run", "until_time", "until_event", "step"])
    horizons = sorted(rng.choice(DELAYS) * rng.randint(1, 4) for _ in range(3))
    return workers, driver, horizons, rng.randrange(4)


def execute(env, program):
    """Run ``program`` on ``env``; return (trace, events_processed, now)."""
    workers, driver, horizons, stop_idx = program
    log = []
    shared = [env.event() for _ in range(4)]
    procs = []

    def watch(ev, tag):
        ev.add_callback(lambda e: log.append(("cb", env.now, tag, e._ok)))
        return ev

    for k, ev in enumerate(shared):
        watch(ev, ("shared", k))

    def body(wid, steps):
        for i, step in enumerate(steps):
            op = step[0]
            tag = (wid, i)
            try:
                value = None
                if op == "timeout":
                    value = yield watch(env.timeout(step[1], value=tag), tag)
                elif op == "zero":
                    value = yield watch(env.timeout(0), tag)
                elif op == "succeed":
                    value = yield watch(env.event().succeed(tag), tag)
                elif op == "signal":
                    ev = shared[step[1]]
                    if not ev.triggered:
                        if step[2]:
                            ev.fail(Boom(str(tag)))
                        else:
                            ev.succeed(tag)
                elif op == "wait":
                    value = yield shared[step[1]]
                elif op in ("any", "all"):
                    subs = [watch(env.timeout(d, value=j), (tag, j))
                            for j, d in enumerate(step[1])]
                    cond = env.any_of(subs) if op == "any" else env.all_of(subs)
                    value = sorted((yield watch(cond, tag)).values())
                elif op == "interrupt":
                    victim = step[1]
                    if victim < len(procs) and victim != wid and procs[victim].is_alive:
                        procs[victim].interrupt(tag)
                elif op == "cancel":
                    timers = [watch(env.timeout(d), (tag, j))
                              for j, d in enumerate(step[1])]
                    for t in timers[:-1]:
                        env.cancel(t)
                    if len(timers) > 1:
                        env.cancel(timers[0])  # a second cancel is a no-op
                    value = yield timers[-1]
                elif op == "spawn":
                    child = watch(env.process(body(f"{wid}.{i}", step[1])), tag)
                    if step[2]:
                        value = yield child
                elif op == "raise":
                    raise Boom(str(tag))
            except Interrupt as exc:
                log.append(("interrupt", env.now, tag, exc.cause))
                continue
            except Boom as exc:
                log.append(("failed", env.now, tag, str(exc)))
                if op == "raise":
                    raise
                continue
            log.append(("step", env.now, tag, op, value))
        return wid

    for wid, steps in enumerate(workers):
        procs.append(watch(env.process(body(wid, steps)), ("proc", wid)))

    try:
        if driver == "run":
            env.run()
        elif driver == "until_time":
            for t in horizons:
                if t >= env.now:
                    env.run(until=t)
                    log.append(("horizon", env.now))
            env.run()
        elif driver == "until_event":
            target = (shared + procs)[stop_idx % (len(shared) + len(procs))]
            log.append(("until", env.run(until=target), env.now))
            env.run()
        else:
            while True:
                log.append(("peek", env.peek()))
                try:
                    env.step()
                except EmptySchedule:
                    break
                if isinstance(env, SimEngine):
                    _assert_dead_count_exact(env)
    except (SimError, Boom, Interrupt) as exc:
        log.append(("raised", type(exc).__name__, str(exc), env.now))
    return log, env.events_processed, env.now


def _assert_dead_count_exact(env):
    def dead(events):
        return sum(1 for ev in events if type(ev) is Timeout and ev._dead)

    assert env._n_dead == dead(e[2] for e in env._heap) + dead(env._ready)


@pytest.mark.parametrize("seed", range(200))
def test_randomized_graphs_dispatch_identically(seed):
    program = make_program(seed)
    ref = execute(ReferenceEngine(), program)
    env = SimEngine()
    got = execute(env, program)
    assert got == ref
    _assert_dead_count_exact(env)


class CountingLane(deque):
    """A ready lane that counts what was scheduled through it."""

    appended = 0

    def append(self, event):
        self.appended += 1
        super().append(event)


def test_programs_cover_every_driver_and_lane_path():
    # The seed range above must actually exercise what it claims to.
    programs = [make_program(seed) for seed in range(200)]
    assert {p[1] for p in programs} == {"run", "until_time", "until_event", "step"}
    lane_events = heap_events = compactions = 0
    for program in programs:
        env = SimEngine()
        env._ready = CountingLane()
        compact = env._compact

        def counting_compact():
            nonlocal compactions
            compactions += 1
            compact()

        env._compact = counting_compact
        execute(env, program)
        lane_events += env._ready.appended
        heap_events += env._seq  # one seq per heap push
    assert lane_events > heap_events > 0
    assert compactions > 0


def test_cancelled_lane_timeout_never_runs_and_is_not_counted():
    env = SimEngine()
    fired = []
    t = env.timeout(0)
    t.add_callback(lambda e: fired.append("cancelled"))
    keep = env.timeout(0)
    keep.add_callback(lambda e: fired.append("kept"))
    env.cancel(t)
    assert env._n_dead == 1 and t in env._ready
    env.cancel(t)  # already cancelled: no-op
    assert env._n_dead == 1
    env.run()
    assert fired == ["kept"]
    assert env.events_processed == 1
    assert env._n_dead == 0


def test_compaction_sweeps_heap_and_lane_alike():
    env = SimEngine()
    fired = []
    timers = [env.timeout(d) for d in (0.0, 1.0) * 40]
    for i, t in enumerate(timers):
        t.add_callback(lambda e, i=i: fired.append(i))
    for t in timers[:-2]:
        env.cancel(t)
    # 78 tombstones over 80 entries: compacted as soon as the count passed 64.
    assert env._n_dead == 78 - 65
    _assert_dead_count_exact(env)
    env.run()
    assert fired == [78, 79]
    assert env.events_processed == 2
    assert env._n_dead == 0


def test_rounding_absorbed_delay_takes_the_lane():
    env = SimEngine(start_time=1.0)
    order = []
    late = env.timeout(1e-17)  # 1.0 + 1e-17 == 1.0: due now
    late.add_callback(lambda e: order.append("absorbed"))
    assert late in env._ready and not env._heap
    first = env.event().succeed()
    first.add_callback(lambda e: order.append("succeeded"))
    env.run()
    assert order == ["absorbed", "succeeded"]
    assert env.now == 1.0


def test_finished_process_drops_its_resume_cycle():
    env = SimEngine()

    def body():
        yield env.timeout(1)

    p = env.process(body())
    assert p._resume_cb is not None
    env.run()
    assert p._resume_cb is None
