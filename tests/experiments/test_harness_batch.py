"""End-to-end equivalence: the radio's transmit routine vs the per-message oracle.

The harness routes each round's reports through
``RadioChannel.unicast_batch`` and each CH announcement through
``broadcast``; these tests rerun identical configurations with the
per-message oracle of ``tests/oracles/radio.py`` installed and assert
the full observable outcome -- fingerprint, trust table, decisions,
trace volume, spans -- is bit-identical.
"""

import pytest

from repro.chaos.invariants import run_fingerprint
from repro.clusterctl.head import reset_decision_ids
from repro.core.concurrent import reset_circle_ids
from repro.experiments.harness import CorrectSpec, FaultSpec, SimulationRun
from repro.network.messages import reset_message_ids

from tests.oracles import radio as radio_oracle


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
        [(r.time, r.category, sorted(r.fields.items()))
         for r in run.sim.trace],
        list(run.spans.to_records()),
    )


def _fresh_run(factory, rounds):
    # Message, decision and circle ids come from process-global
    # counters and land in span args; restart them for each run.
    reset_message_ids()
    reset_decision_ids()
    reset_circle_ids()
    return observables(factory().run(rounds))


def _paired(factory, rounds, monkeypatch):
    """Run the same config on the channel, then on the oracle."""
    batched = _fresh_run(factory, rounds)
    radio_oracle.install(monkeypatch)
    oracle = _fresh_run(factory, rounds)
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

    def test_traced_run_with_spans_bit_identical_to_oracle(self, monkeypatch):
        # A recording trace and span collection together: every
        # transmit and delivery leaves a trace record and a span, and
        # both streams must match the oracle's record for record.
        batched, oracle = _paired(
            lambda: location_run(tracing=True, spans=True),
            10,
            monkeypatch,
        )
        assert batched == oracle
        assert batched[-1], "the run recorded no spans"

    @pytest.mark.parametrize("level", [1, 2])
    def test_untraced_run_fuses_announcements_bit_identically(
        self, level, monkeypatch
    ):
        # The runs above record a trace, so every broadcast survivor
        # is delivered; without one, each CH announcement is a single
        # fused delivery to the nodes it names.  Level-1 and level-2
        # liars act on those announcements.
        batched, oracle = _paired(
            lambda: location_run(
                tracing=False,
                fault_spec=FaultSpec(level=level, drop_rate=0.2, sigma=6.0),
            ),
            12,
            monkeypatch,
        )
        assert batched == oracle
