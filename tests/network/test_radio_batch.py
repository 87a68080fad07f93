"""Differential tests: the radio's transmit routine vs the per-message oracle.

``RadioChannel`` has one transmit routine behind ``unicast``,
``unicast_batch`` and ``broadcast``; ``tests/oracles/radio.py`` keeps
the original per-message ``unicast`` as the semantics.  Every entry
point must replay that oracle bit-identically -- same outcomes, same
delivered payload order, same trace records, spans and counters, same
drop reasons, same RNG stream consumption, same interceptor
consultation.  Every test here builds two identically seeded networks,
drives one through the channel and the other through the oracle, and
compares everything observable.
"""

import numpy as np
import pytest

from repro.network.geometry import Point
from repro.network.messages import ChDecisionAnnouncement, EventReportMessage
from repro.network.node import NetworkNode
from repro.network.radio import ChannelConfig, Intercept, RadioChannel
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanCollector
from repro.sensors.faults import CorrectBehavior
from repro.sensors.node import SensorNode
from repro.sensors.sensing import SensingConfig, SensingModel
from repro.simkernel.simulator import Simulator
from repro.simkernel.trace import noop_trace

from tests.oracles import radio as radio_oracle


class Recorder(NetworkNode):
    def __init__(self, node_id, position=Point(0.0, 0.0)):
        super().__init__(node_id, position)
        self.received = []

    def on_message(self, message):
        self.received.append(message)


def make_net(loss=0.0, delay=0.01, jitter=0.0, range_limit=None, seed=1,
             n=10, metrics=None, trace=None, spans=None):
    sim = Simulator(seed=seed, metrics=metrics, trace=trace, spans=spans)
    channel = RadioChannel(
        sim,
        ChannelConfig(
            loss_probability=loss,
            propagation_delay=delay,
            jitter=jitter,
            range_limit=range_limit,
        ),
    )
    nodes = [Recorder(i, Point(float(i * 10), 0.0)) for i in range(n)]
    for node in nodes:
        channel.register(node)
    return sim, channel, nodes


#: The per-message loops every entry point must replay exactly.
oracle_unicast_batch = radio_oracle.unicast_batch
oracle_broadcast = radio_oracle.broadcast


def trace_tuples(sim):
    return [
        (r.time, r.category, tuple(sorted(r.fields.items())))
        for r in sim.trace
    ]


def received_log(nodes):
    """Per-node sender sequences (message objects differ across nets)."""
    return {n.node_id: [m.sender for m in n.received] for n in nodes}


def channel_state(channel):
    return (channel.sent, channel.delivered, channel.dropped)


def assert_equivalent(batch, oracle):
    """Full observable-state comparison of two (sim, channel, nodes)."""
    b_sim, b_chan, b_nodes = batch
    o_sim, o_chan, o_nodes = oracle
    assert received_log(b_nodes) == received_log(o_nodes)
    assert trace_tuples(b_sim) == trace_tuples(o_sim)
    assert channel_state(b_chan) == channel_state(o_chan)
    for name in ("channel", "chaos"):
        assert (
            b_sim.streams.get(name).bit_generator.state
            == o_sim.streams.get(name).bit_generator.state
        )


class TestUniformBatchDifferential:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    @pytest.mark.parametrize("loss", [0.0, 0.3, 1.0])
    def test_batch_matches_oracle(self, seed, loss):
        batch = make_net(loss=loss, seed=seed, n=12)
        oracle = make_net(loss=loss, seed=seed, n=12)
        sender_ids = [i for i in range(1, 12)]
        b_msgs = [EventReportMessage(sender=i) for i in sender_ids]
        o_msgs = [EventReportMessage(sender=i) for i in sender_ids]

        b_out = batch[1].unicast_batch(sender_ids, 0, b_msgs)
        o_out = oracle_unicast_batch(oracle[1], sender_ids, 0, o_msgs)
        assert b_out == o_out
        batch[0].run()
        oracle[0].run()
        assert_equivalent(batch, oracle)

    def test_link_loss_overrides_match(self):
        batch = make_net(loss=0.1, seed=5, n=10)
        oracle = make_net(loss=0.1, seed=5, n=10)
        for _, channel, _ in (batch, oracle):
            channel.set_link_loss(3, 0, 1.0)
            channel.set_link_loss(4, 0, 0.0)
        sender_ids = list(range(1, 10))
        b_out = batch[1].unicast_batch(
            sender_ids, 0, [EventReportMessage(sender=i) for i in sender_ids]
        )
        o_out = oracle_unicast_batch(
            oracle[1], sender_ids, 0,
            [EventReportMessage(sender=i) for i in sender_ids],
        )
        assert b_out == o_out
        assert not b_out[2].delivered and b_out[2].reason == "dropped"
        batch[0].run()
        oracle[0].run()
        assert_equivalent(batch, oracle)

    def test_out_of_range_senders_match(self):
        batch = make_net(range_limit=45.0, seed=2, n=10)
        oracle = make_net(range_limit=45.0, seed=2, n=10)
        sender_ids = list(range(1, 10))  # nodes at x = 10..90; dest at 0
        b_out = batch[1].unicast_batch(
            sender_ids, 0, [EventReportMessage(sender=i) for i in sender_ids]
        )
        o_out = oracle_unicast_batch(
            oracle[1], sender_ids, 0,
            [EventReportMessage(sender=i) for i in sender_ids],
        )
        assert b_out == o_out
        assert [o.reason for o in b_out[:4]] == ["ok"] * 4
        assert [o.reason for o in b_out[4:]] == ["out-of-range"] * 5
        batch[0].run()
        oracle[0].run()
        assert_equivalent(batch, oracle)

    def test_dead_receiver_batch_matches(self):
        batch = make_net(seed=3, n=8)
        oracle = make_net(seed=3, n=8)
        batch[2][0].kill()
        oracle[2][0].kill()
        sender_ids = list(range(1, 8))
        b_out = batch[1].unicast_batch(
            sender_ids, 0, [EventReportMessage(sender=i) for i in sender_ids]
        )
        o_out = oracle_unicast_batch(
            oracle[1], sender_ids, 0,
            [EventReportMessage(sender=i) for i in sender_ids],
        )
        assert b_out == o_out
        assert all(o.reason == "dead-receiver" for o in b_out)
        batch[0].run()
        oracle[0].run()
        assert_equivalent(batch, oracle)

    def test_unknown_destination_consumes_no_rng(self):
        sim, channel, _nodes = make_net(loss=0.5, seed=9, n=6)
        before = sim.streams.get("channel").bit_generator.state
        out = channel.unicast_batch(
            [1, 2, 3, 4], 99,
            [EventReportMessage(sender=i) for i in (1, 2, 3, 4)],
        )
        assert all(o.reason == "unknown-destination" for o in out)
        assert sim.streams.get("channel").bit_generator.state == before


class TestBroadcastDifferential:
    @pytest.mark.parametrize("seed", [11, 23])
    def test_broadcast_matches_oracle(self, seed):
        batch = make_net(loss=0.25, seed=seed, n=15)
        oracle = make_net(loss=0.25, seed=seed, n=15)
        b_started = batch[1].broadcast(
            batch[2][7], EventReportMessage(sender=7)
        )
        o_started = oracle_broadcast(
            oracle[1], oracle[2][7], EventReportMessage(sender=7)
        )
        assert b_started == o_started
        batch[0].run()
        oracle[0].run()
        assert_equivalent(batch, oracle)

    def test_broadcast_with_dead_and_out_of_range_receivers(self):
        batch = make_net(loss=0.2, range_limit=55.0, seed=4, n=12)
        oracle = make_net(loss=0.2, range_limit=55.0, seed=4, n=12)
        for _, _, nodes in (batch, oracle):
            nodes[2].kill()
            nodes[5].kill()
        batch[1].broadcast(batch[2][0], EventReportMessage(sender=0))
        oracle_broadcast(oracle[1], oracle[2][0], EventReportMessage(sender=0))
        batch[0].run()
        oracle[0].run()
        assert_equivalent(batch, oracle)


def chaos_interceptor(sim):
    """Deterministic-chaos interceptor drawing on the "chaos" stream.

    Mirrors the ChaosController contract: random verdicts (drop,
    duplicate, delay, no-opinion) driven entirely by the dedicated
    stream, consulted once per transmission surviving natural checks.
    """
    rng = sim.streams.get("chaos")

    def interceptor(sender_id, receiver_id, now):
        u = rng.random()
        if u < 0.25:
            return Intercept(True)
        if u < 0.45:
            return Intercept(False, (0.0, 0.25))
        if u < 0.65:
            return Intercept(False, (0.5,))
        return None

    return interceptor


class TestInterceptorDifferential:
    @pytest.mark.parametrize("seed", [6, 13, 99])
    def test_chaos_window_batch_matches_oracle(self, seed):
        batch = make_net(loss=0.15, seed=seed, n=14)
        oracle = make_net(loss=0.15, seed=seed, n=14)
        batch[1].set_interceptor(chaos_interceptor(batch[0]))
        oracle[1].set_interceptor(chaos_interceptor(oracle[0]))
        sender_ids = list(range(1, 14))
        b_out = batch[1].unicast_batch(
            sender_ids, 0, [EventReportMessage(sender=i) for i in sender_ids]
        )
        o_out = oracle_unicast_batch(
            oracle[1], sender_ids, 0,
            [EventReportMessage(sender=i) for i in sender_ids],
        )
        assert b_out == o_out
        batch[0].run()
        oracle[0].run()
        # assert_equivalent compares the chaos stream end state too, so
        # the batch consulted the interceptor exactly as the oracle did
        # -- same count, same order.
        assert_equivalent(batch, oracle)

    def test_chaos_window_broadcast_matches_oracle(self, seed=31):
        batch = make_net(loss=0.1, seed=seed, n=12)
        oracle = make_net(loss=0.1, seed=seed, n=12)
        batch[1].set_interceptor(chaos_interceptor(batch[0]))
        oracle[1].set_interceptor(chaos_interceptor(oracle[0]))
        batch[1].broadcast(batch[2][3], EventReportMessage(sender=3))
        oracle_broadcast(oracle[1], oracle[2][3], EventReportMessage(sender=3))
        batch[0].run()
        oracle[0].run()
        assert_equivalent(batch, oracle)


class TestMidFlightDeath:
    def test_receiver_dying_in_flight_matches_oracle(self):
        batch = make_net(delay=1.0, seed=8, n=8)
        oracle = make_net(delay=1.0, seed=8, n=8)
        for sim, channel, nodes in (batch, oracle):
            sender_ids = list(range(1, 8))
            msgs = [EventReportMessage(sender=i) for i in sender_ids]
            if channel is batch[1]:
                channel.unicast_batch(sender_ids, 0, msgs)
            else:
                oracle_unicast_batch(channel, sender_ids, 0, msgs)
            sim.at(0.5, nodes[0].kill)
            sim.run()
        assert batch[2][0].received == []
        assert batch[0].trace.count("radio.drop") == 7
        assert_equivalent(batch, oracle)

    def test_fused_delivery_rechecks_liveness_per_message(self):
        # The first delivery of the fused batch kills a later receiver:
        # that receiver's copy must then be counted died-in-flight, just
        # as consecutive per-message events would.
        sim, channel, nodes = make_net(delay=0.5, seed=10, n=6)
        sender = Recorder(100, Point(0.0, 5.0))
        channel.register(sender)
        # Broadcast fans out to ids 0..5 in sorted order; node 0, the
        # first receiver in the fused batch, kills node 5 on receipt.
        nodes[0].on_message = lambda message: (
            Recorder.on_message(nodes[0], message), nodes[5].kill()
        )
        channel.broadcast(sender, EventReportMessage(sender=100))
        sim.run()
        assert nodes[5].received == []
        assert sim.trace.count("radio.drop") == 1
        drop = sim.trace.last("radio.drop")
        assert drop.fields["reason"] == "died-in-flight"
        assert drop.fields["destination"] == 5


class TestJitterFallback:
    def test_jittered_channel_still_matches_oracle(self):
        batch = make_net(delay=1.0, jitter=0.5, loss=0.2, seed=17, n=10)
        oracle = make_net(delay=1.0, jitter=0.5, loss=0.2, seed=17, n=10)
        sender_ids = list(range(1, 10))
        b_out = batch[1].unicast_batch(
            sender_ids, 0, [EventReportMessage(sender=i) for i in sender_ids]
        )
        o_out = oracle_unicast_batch(
            oracle[1], sender_ids, 0,
            [EventReportMessage(sender=i) for i in sender_ids],
        )
        assert b_out == o_out
        batch[0].run()
        oracle[0].run()
        assert_equivalent(batch, oracle)

    def test_jittered_batch_schedules_per_message_events(self):
        # Every jittered delivery has its own delay, so it rides its own
        # event exactly as the oracle schedules it -- no trace needed.
        batch = make_net(delay=1.0, jitter=0.5, n=10, trace=noop_trace())
        oracle = make_net(delay=1.0, jitter=0.5, n=10, trace=noop_trace())
        sender_ids = list(range(1, 10))
        b_out = batch[1].unicast_batch(
            sender_ids, 0, [EventReportMessage(sender=i) for i in sender_ids]
        )
        o_out = oracle_unicast_batch(
            oracle[1], sender_ids, 0,
            [EventReportMessage(sender=i) for i in sender_ids],
        )
        assert b_out == o_out
        assert batch[0].pending == oracle[0].pending == 9
        batch[0].run()
        oracle[0].run()
        assert_equivalent(batch, oracle)


class TestBatchShape:
    def test_empty_batch(self):
        sim, channel, _nodes = make_net()
        before = sim.streams.get("channel").bit_generator.state
        assert channel.unicast_batch([], 0, []) == []
        assert channel.sent == 0
        assert sim.pending == 0
        assert sim.streams.get("channel").bit_generator.state == before

    def test_length_mismatch_rejected(self):
        _sim, channel, _nodes = make_net()
        with pytest.raises(ValueError, match="length mismatch"):
            channel.unicast_batch([1, 2], 0, [EventReportMessage(sender=1)])

    def test_unknown_sender_rejected(self):
        _sim, channel, _nodes = make_net(n=3)
        with pytest.raises(ValueError, match="unknown sender id 77"):
            channel.unicast_batch(
                [77], 0, [EventReportMessage(sender=77)]
            )

    def test_small_batch_takes_oracle_path(self):
        # Batches of one to three take the same routine as large ones
        # (one vector draw), traced or not, and still replay the oracle.
        for size in (1, 2, 3):
            for make_trace in (lambda: None, noop_trace):
                batch = make_net(loss=0.5, seed=12 + size, n=4,
                                 trace=make_trace())
                oracle = make_net(loss=0.5, seed=12 + size, n=4,
                                  trace=make_trace())
                sender_ids = list(range(1, size + 1))
                b_out = batch[1].unicast_batch(
                    sender_ids, 0,
                    [EventReportMessage(sender=i) for i in sender_ids],
                )
                o_out = oracle_unicast_batch(
                    oracle[1], sender_ids, 0,
                    [EventReportMessage(sender=i) for i in sender_ids],
                )
                assert b_out == o_out
                batch[0].run()
                oracle[0].run()
                assert_equivalent(batch, oracle)

    def test_lossless_batch_schedules_one_fused_event(self):
        sim, channel, nodes = make_net(loss=0.0, n=10)
        sender_ids = list(range(1, 10))
        channel.unicast_batch(
            sender_ids, 0, [EventReportMessage(sender=i) for i in sender_ids]
        )
        assert sim.pending == 1  # the whole batch rides one heap event
        sim.run()
        assert [m.sender for m in nodes[0].received] == sender_ids


class TestSatellites:
    def test_broadcast_drop_reason_metrics(self):
        registry = MetricsRegistry(enabled=True)
        sim, channel, nodes = make_net(loss=1.0, n=8, metrics=registry)
        nodes[3].kill()
        channel.broadcast(nodes[0], EventReportMessage(sender=0))
        assert registry.counter("radio.sent").value == 7
        assert registry.counter("radio.dropped").value == 7
        assert registry.counter("radio.drop.dropped").value == 6
        assert registry.counter("radio.drop.dead-receiver").value == 1
        assert registry.counter("radio.delivered").value == 0

    def test_unicast_drop_reason_metrics_match_batch(self):
        reg_a = MetricsRegistry(enabled=True)
        reg_b = MetricsRegistry(enabled=True)
        batch = make_net(loss=1.0, seed=14, n=8, metrics=reg_a)
        oracle = make_net(loss=1.0, seed=14, n=8, metrics=reg_b)
        sender_ids = list(range(1, 8))
        batch[1].unicast_batch(
            sender_ids, 0, [EventReportMessage(sender=i) for i in sender_ids]
        )
        oracle_unicast_batch(
            oracle[1], sender_ids, 0,
            [EventReportMessage(sender=i) for i in sender_ids],
        )
        assert reg_a.snapshot() == reg_b.snapshot()

    def test_remove_tap_on_unknown_watched_id_is_a_noop(self):
        sim, channel, nodes = make_net(n=4)
        # Pinned behaviour: silently ignored, like removing a tap that
        # was never added -- no exception, no state change.
        channel.remove_tap(999, nodes[3])
        channel.add_tap(1, nodes[3])
        channel.remove_tap(999, nodes[3])
        channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        sim.run()
        assert nodes[3].received != []  # the real tap survived

    def test_outcomes_are_interned(self):
        sim, channel, nodes = make_net(loss=0.0, n=3)
        first = channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        second = channel.unicast(nodes[0], 2, EventReportMessage(sender=0))
        assert first is second
        dead_net = make_net(n=3)
        dead_net[2][1].kill()
        a = dead_net[1].unicast(
            dead_net[2][0], 1, EventReportMessage(sender=0)
        )
        b = dead_net[1].unicast(
            dead_net[2][0], 1, EventReportMessage(sender=0)
        )
        assert a is b

    def test_counter_handles_rebind_when_registry_swapped(self):
        sim, channel, nodes = make_net(loss=0.0, n=3)
        channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        registry = MetricsRegistry(enabled=True)
        sim.metrics = registry
        channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        assert registry.counter("radio.sent").value == 1
        replacement = MetricsRegistry(enabled=True)
        sim.metrics = replacement
        channel.unicast_batch(
            [1, 2, 0, 1, 2], 0,
            [EventReportMessage(sender=i) for i in (1, 2, 0, 1, 2)],
        )
        assert replacement.counter("radio.sent").value == 5
        assert registry.counter("radio.sent").value == 1

    def test_taps_mirror_batched_traffic(self):
        sim, channel, nodes = make_net(n=6)
        channel.add_tap(0, nodes[5])
        sender_ids = [1, 2, 3, 4]
        channel.unicast_batch(
            sender_ids, 0,
            [EventReportMessage(sender=i) for i in sender_ids],
        )
        sim.run()
        assert [m.sender for m in nodes[5].received] == sender_ids


def spanning_chaos_interceptor(sim):
    """:func:`chaos_interceptor` that also records a span per verdict.

    The chaos controller's interceptor emits ``chaos.intercept`` spans,
    so span ids only match the oracle's if each entry's verdict is
    consulted between the previous entry's transmit span and its own.
    """
    decide = chaos_interceptor(sim)
    spans = sim.spans

    def interceptor(sender_id, receiver_id, now):
        verdict = decide(sender_id, receiver_id, now)
        if spans.enabled and verdict is not None:
            spans.point("chaos.intercept", parent=spans.current,
                        sender=sender_id, receiver=receiver_id,
                        drop=verdict.drop)
        return verdict

    return interceptor


#: Channel features that each need per-entry work in the transmit
#: routine.  Every scenario runs on a lossy channel with a dead
#: receiver and metrics on; only "recording-trace" keeps a trace.
FEATURES = {
    "spans": dict(spans=True),
    "recording-trace": dict(trace=True),
    "tap": dict(tap=True),
    "range-limit": dict(range_limit=25.0),
    "jitter-interceptor": dict(jitter=0.4, interceptor=True),
    "everything": dict(spans=True, trace=True, tap=True, range_limit=25.0,
                       jitter=0.4, interceptor=True),
}

ENTRY_POINTS = ("unicast", "unicast_batch", "broadcast")


def run_feature_scenario(impl, entry, feature, seed, messages):
    """Drive one network through ``impl`` (the channel or the oracle)."""
    opts = FEATURES[feature]
    registry = MetricsRegistry(enabled=True)
    sim, channel, nodes = make_net(
        loss=0.3, delay=1.0, jitter=opts.get("jitter", 0.0),
        range_limit=opts.get("range_limit"), seed=seed, n=12,
        metrics=registry,
        trace=None if opts.get("trace") else noop_trace(),
        spans=SpanCollector() if opts.get("spans") else None,
    )
    nodes[3].kill()
    if opts.get("tap"):
        channel.add_tap(4, nodes[11])
        channel.add_tap(2, nodes[10])
    if opts.get("interceptor"):
        channel.set_interceptor(spanning_chaos_interceptor(sim))
    sender_ids = [1, 2, 4, 5, 6, 7, 9]
    if entry == "unicast":
        out = [
            impl.unicast(channel, nodes[sender_id], 2, message)
            for sender_id, message in zip(sender_ids, messages)
        ]
        # An unknown destination and a dead one, mid-stream.
        out.append(impl.unicast(channel, nodes[1], 99, messages[0]))
        out.append(impl.unicast(channel, nodes[1], 3, messages[1]))
    elif entry == "unicast_batch":
        out = impl.unicast_batch(channel, sender_ids, 2, messages)
        # A whole batch to the dead receiver.
        out += impl.unicast_batch(channel, sender_ids[:3], 3, messages[:3])
    else:
        out = [impl.broadcast(channel, nodes[4], message)
               for message in messages[:3]]
    sim.run()
    return sim, channel, nodes, out, registry


class TestFeatureDifferential:
    """Each entry point with each per-entry feature on, against the oracle.

    Messages are shared between the two networks, so message ids --
    which spans record -- line up, and payload logs compare ids too.
    """

    @pytest.mark.parametrize("seed", [5, 19])
    @pytest.mark.parametrize("feature", sorted(FEATURES))
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_entry_point_matches_oracle(self, entry, feature, seed):
        messages = [EventReportMessage(sender=i) for i in range(7)]
        real = run_feature_scenario(RadioChannel, entry, feature, seed,
                                    messages)
        oracle = run_feature_scenario(radio_oracle, entry, feature, seed,
                                      messages)
        assert real[3] == oracle[3]
        assert_equivalent(real[:3], oracle[:3])
        assert {
            n.node_id: [m.message_id for m in n.received] for n in real[2]
        } == {
            n.node_id: [m.message_id for m in n.received] for n in oracle[2]
        }
        assert real[4].snapshot() == oracle[4].snapshot()
        r_spans = list(real[0].spans.to_records())
        assert r_spans == list(oracle[0].spans.to_records())
        if FEATURES[feature].get("spans"):
            assert any(r["category"] == "radio.transmit" for r in r_spans)
            assert any(r["category"] == "radio.drop" for r in r_spans)
        if FEATURES[feature].get("trace"):
            assert len(real[0].trace) > 0


class OutcomeLog(CorrectBehavior):
    """A behaviour that logs every outcome it observes, tagged."""

    def __init__(self, sensing, log, tag):
        super().__init__(sensing)
        self.log = log
        self.tag = tag

    def observe_outcome(self, rewarded):
        self.log.append((self.tag, rewarded))


CH_ID, BS_ID = 100, 200


def make_sensor_net(seed, loss):
    """Forty sensors plus two non-sensor recorders, trace off.

    With no trace, taps, spans or interceptor, ``broadcast`` takes the
    fused path; :func:`oracle_broadcast` drives the same network through
    per-message :meth:`RadioChannel.unicast` instead.
    """
    sim = Simulator(seed=seed, trace=noop_trace())
    channel = RadioChannel(
        sim, ChannelConfig(loss_probability=loss, propagation_delay=1.0)
    )
    sensing = SensingModel(SensingConfig(sensing_radius=20.0))
    logs = {}
    sensors = []
    for i in range(40):
        logs[i] = []
        node = SensorNode(
            i, Point(float(i), 0.0), OutcomeLog(sensing, logs[i], "a"),
            sensing, ch_id=CH_ID, rng=np.random.default_rng(i),
        )
        channel.register(node)
        sensors.append(node)
    ch, bs = Recorder(CH_ID), Recorder(BS_ID)
    channel.register(ch)
    channel.register(bs)
    return sim, channel, sensors, ch, bs, logs, sensing


class TestFusedAnnouncementDifferential:
    @pytest.mark.parametrize("seed", [3, 17, 2024])
    @pytest.mark.parametrize("loss", [0.0, 0.2])
    def test_fused_announcements_match_per_message_unicast(self, seed, loss):
        nets = [make_sensor_net(seed, loss) for _ in range(2)]
        scenario = np.random.default_rng(seed)
        # Per-link overrides (lossless, fully lossy, partly lossy) and
        # receivers dead before transmission.
        links = scenario.choice(40, size=3, replace=False).tolist()
        dead = scenario.choice(40, size=4, replace=False).tolist()
        for _sim, channel, sensors, _ch, _bs, _logs, _sensing in nets:
            for node_id, p in zip(links, (0.0, 1.0, 0.6)):
                channel.set_link_loss(CH_ID, node_id, p)
            for node_id in dead:
                sensors[node_id].kill()

        for round_number in range(12):
            ids = scenario.permutation(40).tolist()
            reporters = tuple(sorted(ids[:8]))
            non_reporters = tuple(sorted(ids[8:14]))
            occurred = bool(scenario.random() < 0.5)
            # Between transmit and delivery two reporters and a
            # non-reporter change: one dies in flight, one is
            # compromised and one has its feedback toggled.  Delivery
            # must see all three changes.
            killed, swapped, toggled = ids[0], ids[1], ids[8]
            for sim, channel, sensors, ch, bs, logs, sensing in nets:
                message = ChDecisionAnnouncement(
                    sender=CH_ID, decision_id=round_number,
                    occurred=occurred, reporters=reporters,
                    non_reporters=non_reporters,
                )
                if channel is nets[0][1]:
                    started = channel.broadcast(ch, message)
                    # The whole fan-out rides one delivery event.
                    assert sim.pending == (1 if started else 0)
                else:
                    oracle_broadcast(channel, ch, message)
                node = sensors[toggled]
                sim.after(0.5, setattr, node, "feedback_enabled",
                          not node.feedback_enabled)
                sim.after(0.5, sensors[swapped].compromise,
                          OutcomeLog(sensing, logs[swapped], round_number))
                sim.after(0.5, sensors[killed].kill)
                sim.run()

        fused, oracle = nets
        assert fused[5] == oracle[5]  # per-node observe_outcome sequences
        assert any(fused[5].values())
        assert channel_state(fused[1]) == channel_state(oracle[1])
        assert (
            fused[0].streams.get("channel").bit_generator.state
            == oracle[0].streams.get("channel").bit_generator.state
        )
        # The non-sensor endpoint hears every announcement it survives.
        assert [m.decision_id for m in fused[4].received] == [
            m.decision_id for m in oracle[4].received
        ]
        assert fused[4].received

