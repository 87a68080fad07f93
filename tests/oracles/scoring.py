"""Quadratic reference scorer for :func:`repro.experiments.metrics.score_run`.

This is the original direct reading of the matching rules: every event
scans the whole decision log, and every upheld decision scans every
event round for a quiet window.  It costs O(events x decisions) and is
kept here only so the bisecting production scorer can be checked
against it, verdict for verdict.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.clusterctl.head import DecisionRecord
from repro.experiments.metrics import EventOutcome
from repro.sensors.generator import GroundTruthEvent


def score_run_quadratic(
    events: Sequence[GroundTruthEvent],
    decisions: Sequence[DecisionRecord],
    round_interval: float,
    r_error: Optional[float] = None,
    quiet_window_offset: Optional[float] = None,
) -> Tuple[List[EventOutcome], int]:
    """Same contract as :func:`repro.experiments.metrics.score_run`."""
    if round_interval <= 0:
        raise ValueError("round_interval must be positive")
    event_deadline = (
        quiet_window_offset if quiet_window_offset is not None
        else round_interval
    )

    outcomes: List[EventOutcome] = []
    used_decision_ids: set = set()
    for event in events:
        window_decisions = [
            d
            for d in decisions
            if event.time <= d.time < event.time + event_deadline
            and d.occurred
            and d.decision_id not in used_decision_ids
        ]
        detected = False
        error: Optional[float] = None
        if r_error is None:
            if window_decisions:
                detected = True
                used_decision_ids.add(window_decisions[0].decision_id)
        else:
            best = None
            for d in window_decisions:
                if d.location is None:
                    continue
                dist = d.location.distance_to(event.location)
                if dist <= r_error and (best is None or dist < best[0]):
                    best = (dist, d)
            if best is not None:
                detected = True
                error = best[0]
                used_decision_ids.add(best[1].decision_id)
        outcomes.append(
            EventOutcome(
                event_id=event.event_id,
                time=event.time,
                location=event.location,
                detected=detected,
                localisation_error=error,
            )
        )

    false_positives = 0
    if quiet_window_offset is not None:
        event_times = sorted({e.time for e in events})
        for d in decisions:
            if not d.occurred or d.decision_id in used_decision_ids:
                continue
            in_quiet = any(
                t + quiet_window_offset <= d.time < t + round_interval
                for t in event_times
            )
            if in_quiet:
                false_positives += 1
    return outcomes, false_positives
