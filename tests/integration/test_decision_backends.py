"""Full-replay differential between the two CH decision backends.

``TIBFIT_DECISION=object`` runs the retained
:class:`~repro.core.location.LocationDecisionEngine` oracle;
``TIBFIT_DECISION=array`` (the default) runs the struct-of-arrays
:class:`~repro.core.decision_kernel.DecisionKernel`.  Whole simulations
replayed under both must be bit-identical -- same
:func:`~repro.chaos.invariants.run_fingerprint`, trust snapshots, trace
volume, and channel counters -- and the golden experiment builders must
produce byte-equal documents under either decision backend.
"""

import pytest

from repro.chaos.invariants import run_fingerprint
from repro.core.decision_kernel import DECISION_ENV
from repro.experiments.harness import SimulationRun

from tests.golden.builders import BUILDERS


def location_run(**overrides):
    kwargs = dict(
        mode="location",
        n_nodes=25,
        field_side=50.0,
        sensing_radius=20.0,
        faulty_ids=(0, 1, 2),
        diagnosis_threshold=0.3,
        seed=77,
    )
    kwargs.update(overrides)
    return SimulationRun(**kwargs)


def replay(monkeypatch, decision_backend, rounds=8):
    monkeypatch.setenv(DECISION_ENV, decision_backend)
    return location_run().run(rounds)


class TestBackendFingerprints:
    def test_array_matches_object_full_replay(self, monkeypatch):
        obj = replay(monkeypatch, "object")
        arr = replay(monkeypatch, "array")

        assert run_fingerprint(arr) == run_fingerprint(obj)
        assert arr.trust_snapshot() == obj.trust_snapshot()
        assert arr.sim.events_fired == obj.sim.events_fired
        assert len(arr.sim.trace) == len(obj.sim.trace)
        assert (
            (arr.channel.sent, arr.channel.delivered, arr.channel.dropped)
            == (obj.channel.sent, obj.channel.delivered,
                obj.channel.dropped)
        )
        strip = lambda d: (d.time, d.occurred, d.location,
                           d.supporters, d.dissenters)
        assert (
            [strip(d) for d in arr.ch.decisions]
            == [strip(d) for d in obj.ch.decisions]
        )


class TestGoldenBuildersBackendAgnostic:
    """Exps 1-4 scaled-down golden points: the committed fixtures are
    generated under the array default, so equal documents under
    ``object`` prove the backends agree on every serialised float."""

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_object_backend_reproduces_golden_doc(
        self, monkeypatch, name
    ):
        monkeypatch.setenv(DECISION_ENV, "array")
        array_doc = BUILDERS[name]()
        monkeypatch.setenv(DECISION_ENV, "object")
        object_doc = BUILDERS[name]()
        assert object_doc == array_doc
