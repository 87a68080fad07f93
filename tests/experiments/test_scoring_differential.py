"""Differential: the bisecting ``score_run`` against the quadratic oracle.

The production scorer finds each event's window with two bisections
over time-sorted decisions and each quiet window with one; the oracle
in ``tests/oracles/scoring.py`` scans everything.  Both must return
identical outcomes (detections, matched errors, bit for bit) and the
same false-positive count on every log: out of time order, with equal
times, exact window boundaries, location ties, duplicate decision ids,
failover-merged heads and quiet windows.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.plan import ChCrash, FaultPlan
from repro.clusterctl.head import DecisionRecord
from repro.experiments.harness import SimulationRun
from repro.experiments.metrics import score_run
from repro.network.geometry import Point
from repro.sensors.generator import GroundTruthEvent

from tests.oracles.scoring import score_run_quadratic


def assert_same(events, decisions, **kwargs):
    fast = score_run(events, decisions, **kwargs)
    slow = score_run_quadratic(events, decisions, **kwargs)
    assert fast == slow
    return fast


def event(event_id, t, x=50.0, y=50.0):
    return GroundTruthEvent(event_id=event_id, time=t, location=Point(x, y))


def decision(decision_id, t, occurred=True, location=(50.0, 50.0)):
    return DecisionRecord(
        decision_id=decision_id,
        time=t,
        occurred=occurred,
        location=None if location is None else Point(*location),
        supporters=(),
        dissenters=(),
    )


# Round intervals whose multiples and halves round in float arithmetic,
# so window ends like ``t + offset`` are not exactly representable sums.
INTERVALS = [10.0, 0.1, 3.3, 0.7]


@st.composite
def scoring_cases(draw):
    ri = draw(st.sampled_from(INTERVALS))
    quiet = draw(st.booleans())
    offset = ri / 2.0 if quiet else None
    deadline = offset if quiet else ri
    rounds = draw(st.integers(min_value=0, max_value=6))
    round_times = [(k + 1) * ri for k in range(rounds)]

    events = []
    for t in round_times:
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            x = draw(st.sampled_from([40.0, 50.0, 60.0]))
            events.append(event(len(events) + 1, t, x=x))
    # Events out of time order, as a merged ground-truth list may be.
    events = draw(st.permutations(events))

    anchors = round_times or [ri]
    n_decisions = draw(st.integers(min_value=0, max_value=14))
    decisions = []
    for _ in range(n_decisions):
        t = draw(st.sampled_from(anchors))
        # On, just inside and just outside each window edge, plus the
        # open interior.
        edge = draw(st.sampled_from([t, t + deadline, t + ri]))
        time = draw(
            st.sampled_from(
                [
                    edge,
                    math.nextafter(edge, -math.inf),
                    math.nextafter(edge, math.inf),
                    t + deadline / 3.0,
                    t - ri / 4.0,
                ]
            )
        )
        # Symmetric offsets make equal-distance location ties.
        location = draw(
            st.sampled_from(
                [None, (50.0, 50.0), (47.0, 50.0), (53.0, 50.0),
                 (50.0, 53.0), (41.0, 50.0), (70.0, 50.0)]
            )
        )
        # Small id space: duplicate ids, as two heads' logs can carry.
        decision_id = draw(st.integers(min_value=1, max_value=10))
        decisions.append(
            decision(decision_id, time, draw(st.booleans()), location)
        )
    r_error = draw(st.sampled_from([None, 3.0, 10.0]))
    return events, decisions, dict(
        round_interval=ri, r_error=r_error, quiet_window_offset=offset
    )


class TestScoringDifferential:
    @settings(max_examples=300, deadline=None)
    @given(scoring_cases())
    def test_matches_quadratic_oracle(self, case):
        events, decisions, kwargs = case
        assert_same(events, decisions, **kwargs)

    def test_out_of_order_log_keeps_first_in_log_order(self):
        # Binary mode takes the first in-window decision of the *log*,
        # not the earliest in time.
        events = [event(1, 10.0), event(2, 10.0)]
        decisions = [decision(7, 15.0), decision(3, 11.0), decision(5, 19.0)]
        outcomes, _ = assert_same(events, decisions, round_interval=10.0)
        assert [o.detected for o in outcomes] == [True, True]

    def test_equal_times_and_boundaries(self):
        events = [event(1, 10.0), event(2, 20.0)]
        decisions = [
            decision(1, 20.0),  # end of round 1 is the start of round 2
            decision(2, 20.0),
            decision(3, 10.0),
            decision(4, 30.0),  # just past the last window
        ]
        outcomes, fp = assert_same(
            events, decisions, round_interval=10.0, quiet_window_offset=10.0
        )
        assert [o.detected for o in outcomes] == [True, True]
        assert fp == 0

    def test_location_tie_keeps_first_in_log_order(self):
        # Both decisions sit 3 from event 1; the first in the log wins
        # it, which leaves event 2 only the decision 9 away.
        events = [event(1, 10.0, x=50.0), event(2, 10.0, x=56.0)]
        decisions = [
            decision(9, 12.0, location=(53.0, 50.0)),
            decision(4, 11.0, location=(47.0, 50.0)),
        ]
        outcomes, _ = assert_same(
            events, decisions, round_interval=10.0, r_error=5.0
        )
        assert [o.detected for o in outcomes] == [True, False]
        assert outcomes[0].localisation_error == 3.0

    def test_quiet_windows_count_only_unused_upheld(self):
        events = [event(1, 10.0), event(2, 20.0)]
        decisions = [
            decision(1, 11.0),
            decision(2, 16.0),
            decision(3, 26.0, occurred=False),
            decision(4, 29.999),
            decision(5, 35.0),  # after every quiet window
        ]
        outcomes, fp = assert_same(
            events, decisions, round_interval=10.0, quiet_window_offset=5.0
        )
        assert [o.detected for o in outcomes] == [True, False]
        assert fp == 2

    def test_nan_times_never_match(self):
        events = [event(1, 10.0), event(2, math.nan)]
        decisions = [decision(1, math.nan), decision(2, 12.0)]
        outcomes, fp = assert_same(
            events, decisions, round_interval=10.0, quiet_window_offset=5.0
        )
        assert [o.detected for o in outcomes] == [True, False]
        assert fp == 0


def crash_run(mode):
    plan = FaultPlan(name="crash", ch_crashes=(ChCrash(start=55.0),))
    kwargs = dict(
        mode=mode, n_nodes=8, field_side=30.0, sensing_radius=100.0,
        faulty_ids=(0, 1), diagnosis_threshold=0.3, seed=21,
        chaos_plan=plan,
    )
    if mode == "location":
        kwargs.update(n_nodes=25, field_side=50.0, sensing_radius=20.0)
    return SimulationRun(**kwargs).run(12)


class TestScoringRealRuns:
    @pytest.mark.parametrize("mode", ["binary", "location"])
    def test_failover_logs(self, mode):
        run = crash_run(mode)
        assert run._retired_chs
        kwargs = dict(
            round_interval=run.round_interval,
            r_error=run.r_error if mode == "location" else None,
            quiet_window_offset=run.round_interval / 2.0,
        )
        # The time-merged log the harness scores, and the raw
        # head-by-head concatenation (out of time order).
        assert_same(run.events, run.all_decisions(), **kwargs)
        concatenated = [
            d for ch in (*run._retired_chs, run.ch) for d in ch.decisions
        ]
        assert_same(run.events, concatenated, **kwargs)
        assert_same(run.events, concatenated[::-1], **kwargs)
