"""Unit tests for the lossy radio channel."""

import copy

import pytest

from repro.network.geometry import Point
from repro.network.messages import (
    ChAdvertisement,
    ChDecisionAnnouncement,
    EventReportMessage,
    Message,
)
from repro.network.node import NetworkNode
from repro.network.radio import ChannelConfig, RadioChannel
from repro.simkernel.simulator import Simulator
from repro.simkernel.trace import noop_trace


class Recorder(NetworkNode):
    """Test endpoint that records everything delivered to it."""

    def __init__(self, node_id, position=Point(0.0, 0.0)):
        super().__init__(node_id, position)
        self.received = []

    def on_message(self, message):
        self.received.append(message)


def make_net(loss=0.0, delay=0.001, range_limit=None, seed=1, n=3,
             trace=None):
    sim = Simulator(seed=seed, trace=trace)
    channel = RadioChannel(
        sim,
        ChannelConfig(
            loss_probability=loss,
            propagation_delay=delay,
            range_limit=range_limit,
        ),
    )
    nodes = [Recorder(i, Point(float(i * 10), 0.0)) for i in range(n)]
    for node in nodes:
        channel.register(node)
    return sim, channel, nodes


class TestDelivery:
    def test_unicast_delivers_after_delay(self):
        sim, channel, nodes = make_net(delay=0.5)
        msg = EventReportMessage(sender=0)
        outcome = channel.unicast(nodes[0], 1, msg)
        assert outcome.delivered
        assert nodes[1].received == []  # not yet
        sim.run()
        assert nodes[1].received == [msg]
        assert sim.now == pytest.approx(0.5)

    def test_broadcast_reaches_all_other_nodes(self):
        # A recording trace takes the per-message path; without one the
        # broadcast is a single fused delivery.  Both must reach every
        # live receiver with any message type, the verdict included
        # (these endpoints are not sensors, so every verdict concerns
        # them), and draw once per live receiver.
        for trace in (None, noop_trace()):
            for message_type in (
                EventReportMessage, ChAdvertisement, ChDecisionAnnouncement
            ):
                sim, channel, nodes = make_net(n=8, trace=trace)
                nodes[5].kill()
                expected_stream = copy.deepcopy(sim.streams.get("channel"))
                expected_stream.random(6)
                started = channel.broadcast(nodes[2], message_type(sender=2))
                sim.run()
                assert started == 6
                assert nodes[2].received == [] and nodes[5].received == []
                for i in (0, 1, 3, 4, 6, 7):
                    assert len(nodes[i].received) == 1
                assert (
                    channel.sent, channel.delivered, channel.dropped
                ) == (7, 6, 1)
                assert (
                    sim.streams.get("channel").bit_generator.state
                    == expected_stream.bit_generator.state
                )

    def test_unknown_destination_reported(self):
        _sim, channel, nodes = make_net()
        outcome = channel.unicast(nodes[0], 99, EventReportMessage(sender=0))
        assert not outcome.delivered
        assert outcome.reason == "unknown-destination"

    def test_dead_receiver_not_delivered(self):
        sim, channel, nodes = make_net()
        nodes[1].kill()
        outcome = channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        assert not outcome.delivered
        assert outcome.reason == "dead-receiver"

    def test_receiver_dying_in_flight_drops_message(self):
        sim, channel, nodes = make_net(delay=1.0)
        channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        sim.at(0.5, nodes[1].kill)
        sim.run()
        assert nodes[1].received == []
        assert sim.trace.count("radio.drop") == 1


class TestLoss:
    def test_zero_loss_delivers_everything(self):
        sim, channel, nodes = make_net(loss=0.0)
        for _ in range(100):
            channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        sim.run()
        assert len(nodes[1].received) == 100

    def test_full_loss_delivers_nothing(self):
        sim, channel, nodes = make_net(loss=1.0)
        for _ in range(20):
            channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        sim.run()
        assert nodes[1].received == []
        assert channel.dropped == 20

    def test_partial_loss_is_statistically_plausible(self):
        sim, channel, nodes = make_net(loss=0.25, seed=3)
        for _ in range(2000):
            channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        sim.run()
        assert 1400 <= len(nodes[1].received) <= 1600  # ~1500

    def test_per_link_override(self):
        sim, channel, nodes = make_net(loss=0.0)
        channel.set_link_loss(0, 1, 1.0)
        channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        channel.unicast(nodes[0], 2, EventReportMessage(sender=0))
        sim.run()
        assert nodes[1].received == []
        assert len(nodes[2].received) == 1

    def test_sender_loss_covers_all_links(self):
        sim, channel, nodes = make_net(loss=0.0)
        channel.set_sender_loss(0, 1.0)
        channel.broadcast(nodes[0], EventReportMessage(sender=0))
        sim.run()
        assert nodes[1].received == [] and nodes[2].received == []

    def test_clear_link_loss_restores_default(self):
        sim, channel, nodes = make_net(loss=0.0)
        channel.set_link_loss(0, 1, 1.0)
        channel.clear_link_loss(0, 1)
        channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        sim.run()
        assert len(nodes[1].received) == 1

    def test_invalid_loss_probability_rejected(self):
        _sim, channel, _nodes = make_net()
        with pytest.raises(ValueError):
            channel.set_link_loss(0, 1, 1.5)


class TestRange:
    def test_out_of_range_transmission_lost(self):
        _sim, channel, nodes = make_net(range_limit=15.0)
        # node 0 at x=0, node 2 at x=20: out of range.
        outcome = channel.unicast(nodes[0], 2, EventReportMessage(sender=0))
        assert not outcome.delivered
        assert outcome.reason == "out-of-range"

    def test_in_range_transmission_delivered(self):
        sim, channel, nodes = make_net(range_limit=15.0)
        outcome = channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        assert outcome.delivered


class TestTaps:
    def test_tap_receives_copies_of_watched_traffic(self):
        sim, channel, nodes = make_net(n=4)
        channel.add_tap(1, nodes[3])
        msg = EventReportMessage(sender=0)
        channel.unicast(nodes[0], 1, msg)
        sim.run()
        assert nodes[1].received == [msg]
        assert nodes[3].received == [msg]

    def test_tap_does_not_hear_its_own_sends(self):
        sim, channel, nodes = make_net(n=4)
        channel.add_tap(1, nodes[3])
        channel.unicast(nodes[3], 1, EventReportMessage(sender=3))
        sim.run()
        assert len(nodes[1].received) == 1
        assert nodes[3].received == []

    def test_remove_tap(self):
        sim, channel, nodes = make_net(n=4)
        channel.add_tap(1, nodes[3])
        channel.remove_tap(1, nodes[3])
        channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        sim.run()
        assert nodes[3].received == []

    def test_dead_tap_not_delivered(self):
        sim, channel, nodes = make_net(n=4)
        channel.add_tap(1, nodes[3])
        nodes[3].kill()
        channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        sim.run()
        assert nodes[3].received == []


class TestRegistration:
    def test_duplicate_registration_rejected(self):
        sim, channel, nodes = make_net()
        with pytest.raises(ValueError):
            channel.register(Recorder(0))

    def test_unregister_makes_destination_unknown(self):
        _sim, channel, nodes = make_net()
        channel.unregister(1)
        outcome = channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        assert outcome.reason == "unknown-destination"

    def test_known_ids_sorted(self):
        _sim, channel, _nodes = make_net(n=3)
        assert channel.known_ids() == (0, 1, 2)

    def test_counters_track_traffic(self):
        sim, channel, nodes = make_net(loss=1.0)
        channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        assert channel.sent == 1
        assert channel.dropped == 1
        assert channel.delivered == 0


class TestNodeWiring:
    def test_unattached_node_raises_on_send(self):
        node = Recorder(0)
        with pytest.raises(RuntimeError):
            node.send(1, EventReportMessage(sender=0))

    def test_attach_via_register(self):
        sim, channel, nodes = make_net()
        assert nodes[0].sim is sim
        assert nodes[0].channel is channel

    def test_message_ids_are_unique(self):
        a = EventReportMessage(sender=0)
        b = EventReportMessage(sender=0)
        assert a.message_id != b.message_id
