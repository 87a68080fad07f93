"""Regression: the simulation clock never runs backwards on a long run.

A 400-round binary stream (Experiment 1, level-0 liars, 10 nodes) keeps
about 50 events pending when round 375 falls due.  Each round is
scheduled at its own time, so round ``k`` must fire strictly after
round ``k - 1`` and the ground-truth event times must strictly increase.
"""

from dataclasses import replace

from repro.experiments.config import Experiment1Config
from repro.experiments.harness import CorrectSpec, FaultSpec, SimulationRun

ROUNDS = 400


def binary_stream_run():
    e1 = replace(Experiment1Config(), events_per_run=ROUNDS)
    return SimulationRun(
        mode="binary",
        n_nodes=e1.n_nodes,
        field_side=30.0,
        deployment_kind="grid",
        sensing_radius=100.0,
        r_error=5.0,
        lam=e1.lam,
        fault_rate=e1.effective_fault_rate,
        use_trust=e1.use_trust,
        correct_spec=CorrectSpec(miss_rate=e1.correct_ner),
        fault_spec=FaultSpec(
            level=0,
            drop_rate=e1.faulty_miss_rate,
            false_alarm_rate=e1.faulty_false_alarm_rate,
        ),
        channel_loss=0.0,
        diagnosis_threshold=0.3,
        tracing=False,
        faulty_ids=(2, 5, 6, 7),
        seed=1114088975,
    )


def test_round_clock_strictly_increases_over_400_rounds():
    run = binary_stream_run()
    seen = []
    fire_round = run._fire_round

    def recording_fire_round(round_index):
        seen.append((round_index, run.sim.now))
        fire_round(round_index)

    run._fire_round = recording_fire_round
    run.run(ROUNDS)

    assert [index for index, _ in seen] == list(range(ROUNDS))
    nows = [now for _, now in seen]
    assert all(a < b for a, b in zip(nows, nows[1:]))
    times = [e.time for e in run.events]
    assert len(times) == ROUNDS
    assert all(a < b for a, b in zip(times, times[1:]))
