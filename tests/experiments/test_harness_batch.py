"""End-to-end equivalence: batched harness dispatch vs the per-message oracle.

The harness routes each round's reports through
``RadioChannel.unicast_batch``; these tests force identical runs back
onto the per-message ``unicast`` loop and assert the full observable
outcome -- fingerprint, trust table, decisions, trace volume -- is
bit-identical.
"""

import pytest

from repro.chaos.invariants import run_fingerprint
from repro.experiments.harness import CorrectSpec, FaultSpec, SimulationRun
from repro.network.radio import RadioChannel


def location_run(**kwargs):
    defaults = dict(
        mode="location",
        n_nodes=36,
        field_side=60.0,
        deployment_kind="grid",
        sensing_radius=25.0,
        r_error=5.0,
        lam=0.25,
        fault_rate=0.2,
        faulty_ids=(0, 5, 11, 17),
        correct_spec=CorrectSpec(sigma=1.0),
        fault_spec=FaultSpec(level=2, drop_rate=0.2, sigma=6.0),
        channel_loss=0.1,
        seed=29,
    )
    defaults.update(kwargs)
    return SimulationRun(**defaults)


def binary_run(**kwargs):
    defaults = dict(
        mode="binary",
        n_nodes=8,
        field_side=30.0,
        deployment_kind="grid",
        sensing_radius=100.0,
        r_error=5.0,
        lam=0.1,
        fault_rate=0.3,
        faulty_ids=(0, 1),
        correct_spec=CorrectSpec(miss_rate=0.05),
        fault_spec=FaultSpec(level=1, drop_rate=0.1),
        channel_loss=0.2,
        seed=17,
    )
    defaults.update(kwargs)
    return SimulationRun(**defaults)


def observables(run):
    return (
        run_fingerprint(run),
        run.trust_snapshot(),
        len(run.all_decisions()),
        run.channel.sent,
        run.channel.delivered,
        run.channel.dropped,
        len(run.sim.trace),
    )


def _paired(factory, rounds, monkeypatch):
    """Run the same config batched, then oracle-patched; return both."""
    batched = observables(factory().run(rounds))

    def unicast_loop(self, sender_ids, destination, messages):
        return [
            self.unicast(self.node(sender_id), destination, message)
            for sender_id, message in zip(sender_ids, messages)
        ]

    def broadcast_loop(self, sender, message):
        started = 0
        for node_id in self.known_ids():
            if node_id == sender.node_id:
                continue
            if self.unicast(sender, node_id, message).delivered:
                started += 1
        return started

    monkeypatch.setattr(RadioChannel, "unicast_batch", unicast_loop)
    monkeypatch.setattr(RadioChannel, "broadcast", broadcast_loop)
    oracle = observables(factory().run(rounds))
    return batched, oracle


class TestRunEquivalence:
    def test_location_run_bit_identical_to_oracle(self, monkeypatch):
        batched, oracle = _paired(location_run, 12, monkeypatch)
        assert batched == oracle

    def test_binary_run_bit_identical_to_oracle(self, monkeypatch):
        batched, oracle = _paired(binary_run, 20, monkeypatch)
        assert batched == oracle

    def test_lossy_level2_run_bit_identical_to_oracle(self, monkeypatch):
        batched, oracle = _paired(
            lambda: location_run(
                channel_loss=0.3,
                seed=41,
                fault_spec=FaultSpec(level=2, drop_rate=0.0, sigma=8.0),
            ),
            10,
            monkeypatch,
        )
        assert batched == oracle

    @pytest.mark.parametrize("level", [1, 2])
    def test_untraced_run_fuses_announcements_bit_identically(
        self, level, monkeypatch
    ):
        # The runs above record a trace, which keeps every broadcast on
        # the per-message path; without one, each CH announcement is a
        # single fused delivery to the nodes it names.  Level-1 and
        # level-2 liars act on those announcements.
        batched, oracle = _paired(
            lambda: location_run(
                tracing=False,
                fault_spec=FaultSpec(level=level, drop_rate=0.2, sigma=6.0),
            ),
            12,
            monkeypatch,
        )
        assert batched == oracle
