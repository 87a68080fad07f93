"""Per-message reference for the radio channel's transmit routine.

:func:`unicast` is the channel's original one-message-at-a-time
transmit, the oracle for :class:`repro.network.radio.RadioChannel`:
registration, liveness and range checks, one scalar Bernoulli draw on
the ``"channel"`` stream, the interceptor verdict, a scalar jitter draw
for each delivered message, its own ``radio.transmit``/``radio.drop``
span, its own ``radio.drop`` trace record, per-message counters, and
one delivery event per copy.  :func:`unicast_batch` and
:func:`broadcast` are that loop run over a batch's entries in order.
The oracle reads the channel's state and schedules the channel's own
``_deliver``, but none of its transmit code, so the differential suites
in ``tests/network/test_radio_batch.py`` and
``tests/experiments/test_harness_batch.py`` check the real routine
against an independent one.  :func:`install` swaps the oracle in for
all three entry points inside a running simulation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.network.messages import Message
from repro.network.node import NetworkNode
from repro.network.radio import (
    DeliveryOutcome,
    Intercept,
    RadioChannel,
    _deliver_label,
)

_OK = DeliveryOutcome(True, "ok")
_DROPPED = DeliveryOutcome(False, "dropped")
_OUT_OF_RANGE = DeliveryOutcome(False, "out-of-range")
_DEAD_RECEIVER = DeliveryOutcome(False, "dead-receiver")
_UNKNOWN_DESTINATION = DeliveryOutcome(False, "unknown-destination")
_CHAOS = DeliveryOutcome(False, "chaos")


def unicast(
    channel: RadioChannel,
    sender: NetworkNode,
    destination: int,
    message: Message,
) -> DeliveryOutcome:
    """Attempt delivery of ``message`` from ``sender`` to ``destination``.

    The returned outcome reflects the *transmission-time* verdict
    (loss/range checks happen immediately; the callback fires after
    the propagation delay).
    """
    channel.sent += 1
    receiver = channel._nodes.get(destination)
    verdict: Optional[Intercept] = None
    if receiver is None:
        outcome = _UNKNOWN_DESTINATION
    elif not receiver.alive:
        outcome = _DEAD_RECEIVER
    elif not _in_range(channel, sender, receiver):
        outcome = _OUT_OF_RANGE
    elif channel._rng.random() < _loss_for(
        channel, sender.node_id, destination
    ):
        outcome = _DROPPED
    else:
        interceptor = channel._interceptor
        if interceptor is not None:
            verdict = interceptor(
                sender.node_id, destination, channel._sim.now
            )
        if verdict is not None and verdict.drop:
            outcome = _CHAOS
        else:
            outcome = _OK

    metrics = channel._sim.metrics
    if metrics.enabled:
        # The three totals exist from the first counted send on.
        sent = metrics.counter("radio.sent")
        delivered = metrics.counter("radio.delivered")
        dropped = metrics.counter("radio.dropped")
        sent.inc()
        if outcome.delivered:
            delivered.inc()
        else:
            dropped.inc()
            metrics.counter(f"radio.drop.{outcome.reason}").inc()
    spans = channel._sim.spans
    if outcome.delivered:
        channel.delivered += 1
        delay = _delay(channel)
        label = _deliver_label(type(message))
        if spans.enabled:
            # The delivery events scheduled below inherit the
            # transmit span as their causal context (the scheduler
            # stamps spans.current onto each event's ctx slot).
            saved = spans.current
            spans.current = spans.point(
                "radio.transmit",
                parent=spans.bound(message.message_id) or saved,
                sender=sender.node_id,
                destination=destination,
                message=type(message).__name__,
                message_id=message.message_id,
            )
        if verdict is None:
            channel._sim.after(delay, channel._deliver, receiver, message,
                               label=label)
        else:
            for extra in verdict.extra_delays:
                channel._sim.after(delay + extra, channel._deliver,
                                   receiver, message, label=label)
        if spans.enabled:
            spans.current = saved
    else:
        channel.dropped += 1
        if spans.enabled:
            spans.point(
                "radio.drop",
                parent=spans.bound(message.message_id) or spans.current,
                sender=sender.node_id,
                destination=destination,
                reason=outcome.reason,
                message=type(message).__name__,
                message_id=message.message_id,
            )
        channel._sim.trace.emit(
            channel._sim.now,
            "radio.drop",
            sender=sender.node_id,
            destination=destination,
            reason=outcome.reason,
            message=type(message).__name__,
        )
    return outcome


def unicast_batch(
    channel: RadioChannel,
    sender_ids: Sequence[int],
    destination: int,
    messages: Sequence[Message],
) -> List[DeliveryOutcome]:
    """:func:`unicast` once per entry, in order."""
    return [
        unicast(channel, channel.node(sender_id), destination, message)
        for sender_id, message in zip(sender_ids, messages)
    ]


def broadcast(
    channel: RadioChannel, sender: NetworkNode, message: Message
) -> int:
    """:func:`unicast` to every other endpoint in ascending id order."""
    started = 0
    for node_id in channel.known_ids():
        if node_id == sender.node_id:
            continue
        if unicast(channel, sender, node_id, message).delivered:
            started += 1
    return started


def install(monkeypatch) -> None:
    """Route every ``RadioChannel`` transmit through the oracle.

    ``unicast``, ``unicast_batch`` and ``broadcast`` all become the
    per-message loop; delivery, taps, registration and counters stay
    the channel's own, which makes a whole simulation a differential
    test of the transmit routine alone.
    """
    monkeypatch.setattr(RadioChannel, "unicast", unicast)
    monkeypatch.setattr(RadioChannel, "unicast_batch", unicast_batch)
    monkeypatch.setattr(RadioChannel, "broadcast", broadcast)


def _loss_for(channel: RadioChannel, sender: int, receiver: int) -> float:
    return channel._link_loss.get(
        (sender, receiver), channel.config.loss_probability
    )


def _in_range(
    channel: RadioChannel, sender: NetworkNode, receiver: NetworkNode
) -> bool:
    if channel.config.range_limit is None:
        return True
    return (
        sender.position.distance_to(receiver.position)
        <= channel.config.range_limit
    )


def _delay(channel: RadioChannel) -> float:
    delay = channel.config.propagation_delay
    if channel.config.jitter > 0:
        delay += channel._rng.uniform(
            -channel.config.jitter, channel.config.jitter
        )
    return max(delay, 0.0)
