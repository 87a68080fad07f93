"""Differential suite: the heapq EventQueue vs. a brute-force reference.

The scheduler's contract is a total fire order on ``(time, priority,
sequence)`` plus lazy cancellation: every observable -- pop order,
``len``, ``peek_time``, ``pop_next(until)`` blocking, late-cancel
semantics, validation errors -- must match a model that simply scans a
flat list for the smallest live key.  These tests replay the same
operation scripts against both and compare full traces, then swap the
reference into a :class:`Simulator` so the run loop, same-instant
cohorts, ``run(until)`` resumption and periodic timers are checked the
same way.

(The module name predates the single-scheduler simulator; it is kept so
the test ids stay stable.)
"""

import random

import pytest

from repro.simkernel.errors import SchedulingError
from repro.simkernel.events import EventQueue, ScheduledEvent
from repro.simkernel.simulator import Simulator


def _noop():
    pass


class _ReferenceQueue:
    """Linear-scan model of :class:`EventQueue` (no heap, no shortcuts).

    Exposes the same surface the simulator uses (``schedule``,
    ``pop_next``, ``pop``, ``len``/``bool``) plus ``push`` and
    ``peek_time`` for the queue-level scripts.
    """

    def __init__(self):
        self._events = []
        self._sequence = 0

    def __len__(self):
        return sum(1 for e in self._events if not e.cancelled)

    def __bool__(self):
        return len(self) > 0

    def push(self, time, callback, *, priority=0, args=(), kwargs=None,
             label=""):
        return self.schedule(time, priority, callback, args,
                             kwargs if kwargs else None, label)

    def schedule(self, time, priority, callback, args, kwargs, label):
        if not callable(callback):
            raise SchedulingError("callback must be callable")
        if time != time:
            raise SchedulingError("cannot schedule an event at time NaN")
        event = ScheduledEvent(time, priority, self._sequence, callback,
                               args, kwargs, label, self)
        self._sequence += 1
        self._events.append(event)
        return event

    def note_cancelled(self):
        pass  # len() recounts live events on every call

    def _head(self):
        live = [e for e in self._events if not e.cancelled]
        if not live:
            return None
        return min(live, key=lambda e: (e.time, e.priority, e.sequence))

    def _take(self, event):
        self._events.remove(event)
        event._popped = True
        return event

    def pop(self):
        head = self._head()
        if head is None:
            raise IndexError("pop from empty queue")
        return self._take(head)

    def pop_next(self, until=None):
        head = self._head()
        if head is None or (until is not None and head.time > until):
            return None
        return self._take(head)

    def peek_time(self):
        head = self._head()
        return None if head is None else head.time


# ----------------------------------------------------------------------
# Queue-level differential replay
# ----------------------------------------------------------------------
def _replay(queue_cls, ops):
    """Apply an op script; return the full observable trace."""
    q = queue_cls()
    handles = []
    trace = []
    for op in ops:
        kind = op[0]
        if kind == "push":
            _, t, prio = op
            handles.append(
                q.push(t, _noop, priority=prio, label=str(len(handles)))
            )
            trace.append(("len", len(q)))
        elif kind == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
            trace.append(("len", len(q)))
        elif kind == "pop":
            try:
                e = q.pop()
                trace.append(("pop", e.time, e.priority, e.sequence, e.label))
            except IndexError:
                trace.append(("pop", "empty"))
        elif kind == "pop_until":
            e = q.pop_next(op[1])
            trace.append(
                ("pop_next", None)
                if e is None
                else ("pop_next", e.time, e.priority, e.sequence, e.label)
            )
        elif kind == "peek":
            trace.append(("peek", q.peek_time()))
    while q:
        e = q.pop()
        trace.append(("drain", e.time, e.priority, e.sequence, e.label))
    return trace


def _mirror(ops):
    """Assert the heap queue and the reference agree on an op script."""
    expected = _replay(_ReferenceQueue, ops)
    actual = _replay(EventQueue, ops)
    assert actual == expected
    return expected


# A small time grid keeps collisions frequent (the interesting case).
_TIMES = (0.0, 0.5, 1.0, 1.0, 2.5, 5.0, 5.0, 17.0, 100.0, 1e6)


def _random_ops(seed, n=120):
    rng = random.Random(seed)
    ops = []
    for _ in range(n):
        r = rng.random()
        if r < 0.50:
            ops.append(("push", rng.choice(_TIMES) + rng.choice((0.0, 0.25)),
                        rng.randint(-2, 2)))
        elif r < 0.65:
            ops.append(("cancel", rng.randrange(1 << 16)))
        elif r < 0.80:
            ops.append(("pop",))
        elif r < 0.92:
            ops.append(("pop_until", rng.choice(_TIMES)))
        else:
            ops.append(("peek",))
    return ops


@pytest.mark.parametrize("seed", range(12))
def test_random_interleavings_match_oracle(seed):
    _mirror(_random_ops(seed))


def test_same_time_cohort_pops_in_oracle_order():
    ops = [("push", 5.0, p) for p in (1, -1, 0, 1, -1, 0, -2, 2)]
    trace = _mirror(ops)
    popped = [t[1:4] for t in trace if t[0] == "drain"]
    assert popped == sorted(popped)


def test_pop_until_blocks_identically():
    ops = [
        ("push", 1.0, 0),
        ("push", 5.0, 0),
        ("pop_until", 2.0),
        ("pop_until", 2.0),  # blocked: 5.0 stays queued
        ("peek",),
        ("pop_until", 5.0),
    ]
    trace = _mirror(ops)
    assert ("pop_next", None) in trace
    assert ("peek", 5.0) in trace


def test_cancel_heavy_interleaving():
    ops = []
    for i in range(40):
        ops.append(("push", float(i % 7), i % 3 - 1))
    for i in range(0, 40, 2):
        ops.append(("cancel", i))
    ops.append(("pop",))
    ops.extend([("cancel", i) for i in range(40)])  # double/late cancels
    _mirror(ops)


def test_validation_errors_match_oracle():
    for queue_cls in (EventQueue, _ReferenceQueue):
        with pytest.raises(SchedulingError):
            queue_cls().push(1.0, "not callable")
        with pytest.raises(SchedulingError):
            queue_cls().push(float("nan"), _noop)


# ----------------------------------------------------------------------
# Simulator-level differential: the same program run on the heap queue
# and on the reference queue swapped into the simulator
# ----------------------------------------------------------------------
def _simulator(reference):
    sim = Simulator(seed=0)
    if reference:
        sim._queue = _ReferenceQueue()
    return sim


def _fire_trace(reference, program):
    sim = _simulator(reference)
    trace = []
    program(sim, trace)
    sim.run()
    trace.append(("final", sim.now, sim.events_fired))
    return trace


def _both(program):
    expected = _fire_trace(True, program)
    actual = _fire_trace(False, program)
    assert actual == expected
    return actual


def test_chain_and_fanout_fire_identically():
    def program(sim, trace):
        def tick(depth):
            trace.append((sim.now, "tick", depth, sim.events_fired))
            if depth < 40:
                sim.after(0.001, tick, depth + 1)
                if depth % 5 == 0:
                    for k in range(4):
                        sim.after(0.0, tick, 99)  # same-instant fan-out
        sim.after(0.001, tick, 0)

    _both(program)


def test_random_delay_program_fires_identically():
    def program(sim, trace):
        rng = random.Random(7)

        def fire(tag):
            trace.append((sim.now, tag))
            if rng.random() < 0.4:
                sim.after(rng.choice((0.0, 0.5, 1.7)), fire, tag + 1000)

        for i in range(60):
            sim.after(
                rng.choice((0.0, 0.5, 0.5, 3.0, 40.0)),
                fire,
                i,
                priority=rng.randint(-2, 0),
            )

    _both(program)


def test_periodic_timers_fire_identically():
    def program(sim, trace):
        timers = []

        def beat(tag):
            trace.append((sim.now, "beat", tag))
            if sim.now > 0.25 and timers:
                timers.pop().cancel()  # mid-run cancel of a queued tick

        for i in range(5):
            timers.append(
                sim.every(0.01 + 0.003 * i, beat, i, count=60)
            )

    _both(program)


def test_mid_drain_same_time_insert_joins_cohort():
    # The first member of a same-instant cohort schedules two more
    # events at that instant (delay 0.0); they must slot into the
    # remaining cohort by (priority, sequence).
    def program(sim, trace):
        def member(tag):
            trace.append((sim.now, tag))
            if tag == 0:
                sim.after(0.0, member, "joined")
                sim.after(0.0, member, "joined-early", priority=-2)

        for i in range(6):
            sim.after(5.0, member, i)

    trace = _both(program)
    tags = [t[1] for t in trace if t[0] == 5.0]
    # priority -2 preempts the remaining priority-0 members; the
    # priority-0 joiner (highest sequence) fires last.
    assert tags == [0, "joined-early", 1, 2, 3, 4, 5, "joined"]


def test_burst_flush_back_on_earlier_insert():
    # run(until) returns with a same-instant cohort still queued; an
    # event then scheduled *earlier* than the cohort must fire first.
    def program_events(reference):
        sim = _simulator(reference)
        trace = []
        for i in range(6):
            sim.after(5.0, lambda i=i: trace.append((sim.now, i)))
        sim.run(until=4.0)
        assert trace == []
        sim.after(4.5 - sim.now, lambda: trace.append((sim.now, "early")))
        sim.run()
        return trace

    trace = program_events(False)
    assert trace == program_events(True)
    assert trace == [(4.5, "early")] + [(5.0, i) for i in range(6)]


def test_mid_drain_cancel_skips_burst_member():
    def program(sim, trace):
        handles = []

        def member(tag):
            trace.append((sim.now, tag))
            if tag == 0:
                handles[3].cancel()
                handles[5].cancel()

        for i in range(6):
            handles.append(sim.after(5.0, member, i))

    trace = _both(program)
    assert [t[1] for t in trace if t[0] == 5.0] == [0, 1, 2, 4]


# ----------------------------------------------------------------------
# Golden builders: full experiment pipeline on both queues
# ----------------------------------------------------------------------
def test_golden_builders_identical_under_both_backends(monkeypatch):
    """Every golden fixture document is bit-identical heap vs reference.

    This is the end-to-end statement of the contract: the production
    run_point/run_decay paths (radio, trust, clustering, diagnosis,
    rotating CHs) produce the same floats when every simulator runs on
    the brute-force reference queue.
    """
    import repro.simkernel.simulator as simulator_module
    from tests.golden.builders import BUILDERS

    scheduled = []

    class CountingReference(_ReferenceQueue):
        def schedule(self, *args):
            scheduled.append(1)
            return super().schedule(*args)

    heap = {name: build() for name, build in BUILDERS.items()}
    monkeypatch.setattr(simulator_module, "EventQueue", CountingReference)
    reference = {name: build() for name, build in BUILDERS.items()}
    assert scheduled  # the builders really ran on the reference queue
    assert reference == heap
