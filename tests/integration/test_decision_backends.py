"""Full-run differential: the decision kernel vs the object oracle.

The cluster head decides with the struct-of-arrays
:class:`~repro.core.decision_kernel.DecisionKernel`.
:func:`tests.oracles.decision.install` swaps the original object
pipeline in for it.  Whole simulations run both ways must be
bit-identical -- same :func:`~repro.chaos.invariants.run_fingerprint`,
trust snapshots, trace volume, and channel counters -- and the golden
experiment builders must produce byte-equal documents with the oracle
deciding.
"""

import pytest

from repro.chaos.invariants import run_fingerprint
from repro.experiments.harness import SimulationRun

from tests.golden.builders import BUILDERS
from tests.oracles import decision as oracle


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


def replay(decision_backend, rounds=8):
    with pytest.MonkeyPatch.context() as mp:
        if decision_backend == "object":
            oracle.install(mp)
        return location_run().run(rounds)


class TestBackendFingerprints:
    def test_array_matches_object_full_replay(self):
        obj = replay("object")
        arr = replay("array")

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
    generated by the kernel, so equal documents with the oracle
    deciding prove the two agree on every serialised float."""

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_object_backend_reproduces_golden_doc(
        self, monkeypatch, name
    ):
        array_doc = BUILDERS[name]()
        oracle.install(monkeypatch)
        object_doc = BUILDERS[name]()
        assert object_doc == array_doc
