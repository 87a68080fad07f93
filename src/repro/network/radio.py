"""Lossy single-hop radio channel.

The original evaluation ran over ns-2's 802.11 wireless model, whose only
behaviour the paper leans on is that "correct nodes' packets are
naturally dropped less than 1% of the time" (§4.2) -- which is exactly
why Experiment 2 sets the fault-rate constant ``f_r = 0.1`` differently
from the NER.  :class:`RadioChannel` models that directly: each
transmission is delivered after a propagation delay unless an independent
Bernoulli trial drops it.  Range limits and per-link loss overrides are
supported for topology-sensitive scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.network.messages import ChDecisionAnnouncement, Message
from repro.network.node import NetworkNode
from repro.simkernel.simulator import Simulator


class Intercept(NamedTuple):
    """Verdict returned by a transmit interceptor.

    ``drop=True`` discards the transmission (reason ``"chaos"``);
    otherwise one copy is delivered per entry in ``extra_delays``, each
    offset by that amount *on top of* the channel's natural delay.
    Entries must be non-negative, so a perturbed copy can never precede
    its own send.  ``Intercept(False, (0.0, 0.5))`` duplicates the
    message with the copy half a second late.
    """

    drop: bool
    extra_delays: Tuple[float, ...] = (0.0,)


#: A transmit-path hook: ``fn(sender_id, receiver_id, now) -> verdict``.
#: Returning ``None`` means "no opinion" -- the transmission proceeds
#: exactly as if no interceptor were installed.
Interceptor = Callable[[int, int, float], Optional[Intercept]]


@dataclass(frozen=True)
class ChannelConfig:
    """Channel behaviour knobs.

    Attributes
    ----------
    loss_probability:
        Independent probability that any single transmission is dropped.
        The ns-2 stand-in default is 0.008 (sub-1%, per §4.2).
    propagation_delay:
        Fixed time between transmit and deliver.
    jitter:
        Half-width of a uniform random perturbation added to the delay
        (delivery order between different senders can then interleave, as
        on a real channel).  Zero disables jitter.
    range_limit:
        Maximum sender-receiver distance; transmissions beyond it are
        silently lost.  ``None`` disables the limit (single-cluster
        experiments assume one-hop reachability, §2).
    """

    loss_probability: float = 0.008
    propagation_delay: float = 0.01
    jitter: float = 0.0
    range_limit: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError(
                f"loss_probability must be in [0, 1], got {self.loss_probability}"
            )
        if self.propagation_delay < 0:
            raise ValueError("propagation_delay must be non-negative")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if self.jitter > self.propagation_delay:
            # A jitter draw near -jitter would put the delivery at a
            # negative offset -- scheduled before its own send -- which
            # the old max(0) clamp silently folded onto the send instant,
            # biasing the delay distribution instead of failing loudly.
            raise ValueError(
                f"jitter ({self.jitter}) must not exceed propagation_delay "
                f"({self.propagation_delay}); a perturbed delivery could "
                "otherwise precede its own transmission"
            )
        if self.range_limit is not None and self.range_limit <= 0:
            raise ValueError("range_limit must be positive when set")


@dataclass(frozen=True)
class DeliveryOutcome:
    """Result descriptor for a single transmission attempt."""

    delivered: bool
    reason: str  # "ok", "dropped", "out-of-range", "dead-receiver",
    #              "unknown-destination", "chaos" (interceptor drop)


# Every transmission resolves to one of six outcomes, so the hot path
# hands out these shared instances instead of allocating a fresh
# (frozen, hence immutable) descriptor per send.
_OK = DeliveryOutcome(True, "ok")
_DROPPED = DeliveryOutcome(False, "dropped")
_OUT_OF_RANGE = DeliveryOutcome(False, "out-of-range")
_DEAD_RECEIVER = DeliveryOutcome(False, "dead-receiver")
_UNKNOWN_DESTINATION = DeliveryOutcome(False, "unknown-destination")
_CHAOS = DeliveryOutcome(False, "chaos")

#: Per-message-class cache of the ``deliver:<ClassName>`` event labels.
_DELIVER_LABELS: Dict[type, str] = {}
_FUSED_LABEL = "deliver:batch"


_ALIVE = attrgetter("alive")


class _Fanout(NamedTuple):
    """A sender's broadcast receivers, memoised until registration changes."""

    nodes: List[NetworkNode]  # every other endpoint, ascending id
    ids: Tuple[int, ...]  # their node ids
    hears_all: Tuple[int, ...]  # indices of receivers handed every message
    index: Dict[int, int]  # receiver id -> index in ``nodes``

    def listeners(self, announcement: ChDecisionAnnouncement) -> List[int]:
        """Ascending indices of the receivers ``announcement`` concerns."""
        index = self.index
        named = {
            index[node_id]
            for node_id in chain(
                announcement.reporters, announcement.non_reporters
            )
            if node_id in index
        }
        return sorted(named.union(self.hears_all))


def _deliver_label(message_type: type) -> str:
    label = _DELIVER_LABELS.get(message_type)
    if label is None:
        label = f"deliver:{message_type.__name__}"
        _DELIVER_LABELS[message_type] = label
    return label


class RadioChannel:
    """Single-hop broadcast medium connecting :class:`NetworkNode` endpoints.

    Parameters
    ----------
    sim:
        The simulator used for delivery scheduling and randomness (stream
        name ``"channel"``).
    config:
        Channel behaviour; see :class:`ChannelConfig`.
    """

    def __init__(
        self, sim: Simulator, config: Optional[ChannelConfig] = None
    ) -> None:
        self._sim = sim
        self._spans = sim.spans
        self.config = config if config is not None else ChannelConfig()
        self._nodes: Dict[int, NetworkNode] = {}
        self._fanouts: Dict[int, _Fanout] = {}
        self._link_loss: Dict[Tuple[int, int], float] = {}
        self._taps: Dict[int, list] = {}
        self._interceptor: Optional[Interceptor] = None
        self._rng = sim.streams.get("channel")
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        # Counter handles, rebound lazily whenever ``sim.metrics`` is a
        # different registry than last time -- the instrumented path then
        # skips the registry's per-send string lookups.
        self._counter_src: Optional[object] = None
        self._c_sent = None
        self._c_delivered = None
        self._c_dropped = None
        self._c_drop: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, node: NetworkNode) -> None:
        """Add an endpoint to the channel and wire its references."""
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self._nodes[node.node_id] = node
        self._fanouts = {}
        node.attach(self._sim, self)

    def unregister(self, node_id: int) -> None:
        """Remove an endpoint (e.g. a diagnosed-faulty node being isolated)."""
        self._nodes.pop(node_id, None)
        self._fanouts = {}

    def node(self, node_id: int) -> NetworkNode:
        """Look up a registered endpoint by id."""
        return self._nodes[node_id]

    def known_ids(self) -> Tuple[int, ...]:
        """All registered node ids, sorted."""
        return tuple(sorted(self._nodes))

    def set_link_loss(self, sender: int, receiver: int, p: float) -> None:
        """Override loss probability for one directed link.

        Used by fault-injection tests and by Experiment 2's faulty nodes,
        which "drop packets 25% of the time" (Table 2) -- modelled as
        elevated loss on their outgoing links.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"loss probability must be in [0, 1], got {p}")
        self._link_loss[(sender, receiver)] = p

    def set_sender_loss(self, sender: int, p: float) -> None:
        """Override loss probability for every link leaving ``sender``."""
        for receiver in self._nodes:
            if receiver != sender:
                self.set_link_loss(sender, receiver, p)

    def clear_link_loss(self, sender: int, receiver: int) -> None:
        """Remove a per-link override, reverting to the channel default."""
        self._link_loss.pop((sender, receiver), None)

    # ------------------------------------------------------------------
    # Transmit interception (chaos fault injection)
    # ------------------------------------------------------------------
    def set_interceptor(self, interceptor: Optional[Interceptor]) -> None:
        """Install (or, with ``None``, remove) the transmit-path hook.

        The interceptor is consulted once per transmission that survives
        the natural checks (registration, liveness, range, Bernoulli
        loss) and may drop, delay, or duplicate the delivery -- see
        :class:`Intercept`.  Only one interceptor may be installed at a
        time; the uninstrumented hot path pays a single attribute check.
        """
        if interceptor is not None and self._interceptor is not None:
            raise ValueError("an interceptor is already installed")
        self._interceptor = interceptor

    # ------------------------------------------------------------------
    # Promiscuous taps (shadow cluster heads, §3.4)
    # ------------------------------------------------------------------
    def add_tap(self, watched_id: int, tap: NetworkNode) -> None:
        """Deliver a copy of every message ``watched_id`` receives to ``tap``.

        §3.4: shadow cluster heads "monitor all input and output traffic
        associated with the selected CH".  Input traffic is mirrored via
        taps; output traffic is visible because CH verdicts are broadcast.
        """
        self._taps.setdefault(watched_id, []).append(tap)

    def remove_tap(self, watched_id: int, tap: NetworkNode) -> None:
        """Stop mirroring ``watched_id``'s inbound traffic to ``tap``."""
        taps = self._taps.get(watched_id, [])
        if tap in taps:
            taps.remove(tap)
            if not taps:
                # An emptied entry would keep broadcast deliveries from
                # skipping an announcement's non-listeners.
                del self._taps[watched_id]

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def unicast(
        self, sender: NetworkNode, destination: int, message: Message
    ) -> DeliveryOutcome:
        """Attempt delivery of ``message`` from ``sender`` to ``destination``.

        The returned outcome reflects the *transmission-time* verdict
        (loss/range checks happen immediately; the callback fires after
        the propagation delay).
        """
        return self._transmit((sender,), (destination,), (message,))[0]

    def unicast_batch(
        self,
        sender_ids: Sequence[int],
        destination: int,
        messages: Sequence[Message],
    ) -> List[DeliveryOutcome]:
        """Transmit ``messages[i]`` from ``sender_ids[i]`` to ``destination``.

        The same as :meth:`unicast` once per message in order, as one
        batch: an N-report round draws its loss trials as one vector and
        delivers its plain survivors in one event.  Every sender must be
        a registered endpoint (senders transmit from their registered
        position).
        """
        if len(sender_ids) != len(messages):
            raise ValueError(
                f"sender/message length mismatch: {len(sender_ids)} senders "
                f"vs {len(messages)} messages"
            )
        nodes = self._nodes
        try:
            senders = [nodes[sender_id] for sender_id in sender_ids]
        except KeyError as exc:
            raise ValueError(f"unknown sender id {exc.args[0]}") from None
        return self._transmit(senders, [destination] * len(senders), messages)

    def broadcast(self, sender: NetworkNode, message: Message) -> int:
        """Transmit to every other live endpoint; returns deliveries started.

        Each receiver suffers an independent loss trial, matching a
        contention-free broadcast over independent fading links, in
        ascending receiver id order.  The surviving fan-out is one
        delivery event, and a CH decision announcement is handed only to
        the receivers that react to it (see
        :attr:`NetworkNode.hears_only_own_announcements`).
        """
        fan = self._fanout(sender.node_id)
        n = len(fan.ids)
        before = self.delivered
        self._transmit([sender] * n, fan.ids, [message] * n, fan)
        return self.delivered - before

    def _transmit(
        self,
        senders: Sequence[NetworkNode],
        destinations: Sequence[int],
        messages: Sequence[Message],
        fan: Optional[_Fanout] = None,
    ) -> List[DeliveryOutcome]:
        """Send ``messages[i]`` from ``senders[i]`` to ``destinations[i]``.

        The channel's one transmit routine.  Over a batch it is
        bit-identical to the per-message oracle in
        ``tests/oracles/radio.py`` run on each entry in order: the same
        outcomes, ``"channel"`` and ``"chaos"`` stream consumption,
        interceptor consultations, spans, trace records, counters and
        delivery order.  No event can run between the entries, so
        registration, liveness and range are checked up front, and the
        Bernoulli trials of the entries that pass are one vector draw
        (PCG64 makes it value- and state-identical to as many scalar
        draws).  With jitter on, the oracle interleaves each delivered
        entry's jitter draw with the loss draws on the same stream, so
        the draws are scalar instead.

        Plain survivors ride one fused delivery event.  An entry with
        an interceptor verdict or a jittered delay gets its own events,
        and so does every entry while spans are collected, so that its
        ``radio.transmit`` span is its delivery's causal context.
        ``fan`` marks a broadcast: its nodes are the receivers, and the
        fused event hands an announcement only to its listeners.
        """
        n = len(destinations)
        sim = self._sim
        config = self.config
        receivers = (
            fan.nodes if fan is not None
            else list(map(self._nodes.get, destinations))
        )
        outcomes = [_OK] * n
        drops: Dict[str, int] = {}

        # Registration, liveness and range; ``pend`` holds the entries
        # that reach the loss draw.
        range_limit = config.range_limit
        if (
            range_limit is None
            and (fan is not None or None not in receivers)
            and all(map(_ALIVE, receivers))
        ):
            pend: Sequence[int] = range(n)
        else:
            pend = []
            for i, receiver in enumerate(receivers):
                if receiver is None:
                    outcome = _UNKNOWN_DESTINATION
                elif not receiver.alive:
                    outcome = _DEAD_RECEIVER
                elif range_limit is not None and (
                    senders[i].position.distance_to(receiver.position)
                    > range_limit
                ):
                    outcome = _OUT_OF_RANGE
                else:
                    pend.append(i)
                    continue
                outcomes[i] = outcome
                drops[outcome.reason] = drops.get(outcome.reason, 0) + 1

        loss = config.loss_probability
        link_loss = self._link_loss
        if link_loss:
            losses = [
                link_loss.get((senders[i].node_id, destinations[i]), loss)
                for i in pend
            ]
        jitter = config.jitter
        rng = self._rng
        draws = rng.random(len(pend)) if pend and not jitter else None
        delay = config.propagation_delay
        interceptor = self._interceptor
        spans = self._spans
        spans_on = spans.enabled
        trace = sim.trace
        trace_on = trace.enabled or trace.count_when_disabled

        if interceptor is None and not (spans_on or trace_on or jitter):
            # Nothing to do per entry: the trials settle as one vector
            # and every survivor rides the fused event.
            if draws is not None and (link_loss or loss):
                lost = (
                    draws < (losses if link_loss else loss)
                ).nonzero()[0].tolist()
                for k in lost:
                    outcomes[pend[k]] = _DROPPED
                if lost:
                    drops["dropped"] = len(lost)
            n_ok = n - sum(drops.values())
            if fan is not None:
                if n_ok:
                    sim.after(
                        delay, self._deliver_broadcast, messages[0], fan,
                        outcomes if n_ok < n else None, label=_FUSED_LABEL,
                    )
            elif n_ok == n:
                self._schedule_fused(delay, list(zip(receivers, messages)))
            else:
                self._schedule_fused(delay, [
                    (receivers[i], messages[i])
                    for i in range(n) if outcomes[i] is _OK
                ])
        else:
            if draws is not None:
                draws = draws.tolist()
            now = sim.now
            fused: List[Tuple[NetworkNode, Message]] = []
            k = 0
            for i in range(n):
                outcome = outcomes[i]
                sender_id = senders[i].node_id
                destination = destinations[i]
                message = messages[i]
                verdict: Optional[Intercept] = None
                if outcome is _OK:
                    # The entry reaches the loss draw, then the
                    # interceptor.
                    u = rng.random() if draws is None else draws[k]
                    if u < (losses[k] if link_loss else loss):
                        outcome = _DROPPED
                    elif interceptor is not None:
                        verdict = interceptor(sender_id, destination, now)
                        if verdict is not None and verdict.drop:
                            outcome = _CHAOS
                    k += 1
                    if outcome is not _OK:
                        outcomes[i] = outcome
                        drops[outcome.reason] = (
                            drops.get(outcome.reason, 0) + 1
                        )
                if outcome is not _OK:
                    if spans_on:
                        spans.point(
                            "radio.drop",
                            parent=(spans.bound(message.message_id)
                                    or spans.current),
                            sender=sender_id,
                            destination=destination,
                            reason=outcome.reason,
                            message=type(message).__name__,
                            message_id=message.message_id,
                        )
                    if trace_on:
                        trace.emit(
                            now,
                            "radio.drop",
                            sender=sender_id,
                            destination=destination,
                            reason=outcome.reason,
                            message=type(message).__name__,
                        )
                    continue
                receiver = receivers[i]
                if verdict is None and not jitter and not spans_on:
                    fused.append((receiver, message))
                    continue
                # Flush the fused buffer first so this entry's events
                # keep their same-instant order after the plain
                # deliveries before it.
                if fused:
                    self._schedule_fused(delay, fused)
                    fused = []
                when = delay
                if jitter:
                    when += rng.uniform(-jitter, jitter)
                if spans_on:
                    # The delivery events scheduled below inherit the
                    # transmit span as their causal context (the
                    # scheduler stamps spans.current onto each event).
                    saved = spans.current
                    spans.current = spans.point(
                        "radio.transmit",
                        parent=spans.bound(message.message_id) or saved,
                        sender=sender_id,
                        destination=destination,
                        message=type(message).__name__,
                        message_id=message.message_id,
                    )
                label = _deliver_label(type(message))
                if verdict is None:
                    sim.after(when, self._deliver, receiver, message,
                              label=label)
                else:
                    for extra in verdict.extra_delays:
                        sim.after(when + extra, self._deliver, receiver,
                                  message, label=label)
                if spans_on:
                    spans.current = saved
            self._schedule_fused(delay, fused)

        n_dropped = sum(drops.values())
        self.sent += n
        self.delivered += n - n_dropped
        self.dropped += n_dropped
        metrics = sim.metrics
        if metrics.enabled:
            if self._counter_src is not metrics:
                self._rebind_counters(metrics)
            self._c_sent.inc(n)
            if n_dropped < n:
                self._c_delivered.inc(n - n_dropped)
            if n_dropped:
                self._c_dropped.inc(n_dropped)
            for reason, count in drops.items():
                self._drop_counter(reason).inc(count)
        return outcomes

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _schedule_fused(
        self, delay: float, deliveries: List[Tuple[NetworkNode, Message]]
    ) -> None:
        if not deliveries:
            return
        if len(deliveries) == 1:
            receiver, message = deliveries[0]
            self._sim.after(delay, self._deliver, receiver, message,
                            label=_deliver_label(type(message)))
        else:
            self._sim.after(delay, self._deliver_fused, deliveries,
                            label=_FUSED_LABEL)

    def _fanout(self, sender_id: int) -> _Fanout:
        fan = self._fanouts.get(sender_id)
        if fan is None:
            nodes = [
                node for node_id, node in sorted(self._nodes.items())
                if node_id != sender_id
            ]
            fan = self._fanouts[sender_id] = _Fanout(
                nodes,
                tuple(node.node_id for node in nodes),
                tuple(
                    i for i, node in enumerate(nodes)
                    if not node.hears_only_own_announcements
                ),
                {node.node_id: i for i, node in enumerate(nodes)},
            )
        return fan

    def _deliver_broadcast(
        self,
        message: Message,
        fan: _Fanout,
        outcomes: Optional[List[DeliveryOutcome]],
    ) -> None:
        """Deliver one broadcast to receiver ``i`` if ``outcomes[i]`` is ok.

        ``outcomes`` is ``None`` when every receiver survived transmit.
        """
        trace = self._sim.trace
        if (
            isinstance(message, ChDecisionAnnouncement)
            and not self._taps
            and not (trace.enabled or trace.count_when_disabled)
        ):
            order = fan.listeners(message)
        else:
            # The handlers skipped above are no-ops, but trace records
            # and tap copies are per receiver, so every survivor is
            # delivered while either is on.
            order = range(len(fan.nodes))
        if outcomes is not None:
            order = [i for i in order if outcomes[i] is _OK]
        nodes = fan.nodes
        self._deliver_fused([(nodes[i], message) for i in order])

    def _deliver_fused(
        self, deliveries: List[Tuple[NetworkNode, Message]]
    ) -> None:
        # The oracle's N deliver events carry consecutive heap sequences
        # at one timestamp, so nothing can interleave between them; one
        # event delivering in the same relative order is bit-identical
        # (liveness is still re-checked per message at delivery time,
        # because an earlier delivery in this very batch may kill a
        # later receiver).
        trace = self._sim.trace
        if trace.enabled or trace.count_when_disabled:
            for receiver, message in deliveries:
                self._deliver(receiver, message)
            return
        for receiver, message in deliveries:
            if not receiver.alive:
                continue
            receiver.on_message(message)
            # Taps are re-read after each handler (one can be installed
            # mid-batch, even by this very on_message), exactly as
            # per-event delivery would see them.
            taps = self._taps
            if taps:
                for tap in taps.get(receiver.node_id, ()):
                    if tap.alive and tap.node_id != message.sender:
                        tap.on_message(message)

    def _rebind_counters(self, metrics) -> None:
        self._counter_src = metrics
        self._c_sent = metrics.counter("radio.sent")
        self._c_delivered = metrics.counter("radio.delivered")
        self._c_dropped = metrics.counter("radio.dropped")
        self._c_drop = {}

    def _drop_counter(self, reason: str):
        counter = self._c_drop.get(reason)
        if counter is None:
            counter = self._counter_src.counter(f"radio.drop.{reason}")
            self._c_drop[reason] = counter
        return counter

    def _deliver(self, receiver: NetworkNode, message: Message) -> None:
        trace = self._sim.trace
        trace_on = trace.enabled or trace.count_when_disabled
        spans = self._spans
        if not receiver.alive:
            # Receiver died between transmit and delivery.
            if spans.enabled:
                spans.point(
                    "radio.drop",
                    parent=spans.current,
                    sender=message.sender,
                    destination=receiver.node_id,
                    reason="died-in-flight",
                    message=type(message).__name__,
                    message_id=message.message_id,
                )
            if trace_on:
                trace.emit(
                    self._sim.now,
                    "radio.drop",
                    sender=message.sender,
                    destination=receiver.node_id,
                    reason="died-in-flight",
                    message=type(message).__name__,
                )
            return
        if spans.enabled:
            # spans.current holds the transmit span (restored from the
            # delivery event's ctx); everything the handler does next --
            # window joins, decisions -- parents under this deliver span.
            spans.current = spans.point(
                "radio.deliver",
                parent=spans.current,
                sender=message.sender,
                destination=receiver.node_id,
                message=type(message).__name__,
                message_id=message.message_id,
            )
        if trace_on:
            trace.emit(
                self._sim.now,
                "radio.deliver",
                sender=message.sender,
                destination=receiver.node_id,
                message=type(message).__name__,
            )
        receiver.on_message(message)
        taps = self._taps
        if taps:
            for tap in taps.get(receiver.node_id, ()):
                if tap.alive and tap.node_id != message.sender:
                    tap.on_message(message)

    def __repr__(self) -> str:
        return (
            f"RadioChannel(nodes={len(self._nodes)}, sent={self.sent}, "
            f"delivered={self.delivered}, dropped={self.dropped})"
        )
