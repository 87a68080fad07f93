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

#: Below this many messages the vector path's numpy round-trip costs
#: more than it saves; both paths are bit-identical, so the crossover
#: is purely a wall-time knob.
_VECTOR_MIN = 4


_ALIVE = attrgetter("alive")


class _Fanout(NamedTuple):
    """A sender's broadcast receivers, memoised until registration changes."""

    nodes: List[NetworkNode]  # every other endpoint, ascending id
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
                # An emptied entry would keep broadcasts off the fused path.
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
        self.sent += 1
        receiver = self._nodes.get(destination)
        verdict: Optional[Intercept] = None
        if receiver is None:
            outcome = _UNKNOWN_DESTINATION
        elif not receiver.alive:
            outcome = _DEAD_RECEIVER
        elif not self._in_range(sender, receiver):
            outcome = _OUT_OF_RANGE
        elif self._rng.random() < self._loss_for(sender.node_id, destination):
            outcome = _DROPPED
        else:
            interceptor = self._interceptor
            if interceptor is not None:
                verdict = interceptor(
                    sender.node_id, destination, self._sim.now
                )
            if verdict is not None and verdict.drop:
                outcome = _CHAOS
            else:
                outcome = _OK

        metrics = self._sim.metrics
        if metrics.enabled:
            if self._counter_src is not metrics:
                self._rebind_counters(metrics)
            self._c_sent.inc()
            if outcome.delivered:
                self._c_delivered.inc()
            else:
                self._c_dropped.inc()
                self._drop_counter(outcome.reason).inc()
        spans = self._spans
        if outcome.delivered:
            self.delivered += 1
            delay = self._delay()
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
                self._sim.after(delay, self._deliver, receiver, message,
                                label=label)
            else:
                for extra in verdict.extra_delays:
                    self._sim.after(delay + extra, self._deliver, receiver,
                                    message, label=label)
            if spans.enabled:
                spans.current = saved
        else:
            self.dropped += 1
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
            self._sim.trace.emit(
                self._sim.now,
                "radio.drop",
                sender=sender.node_id,
                destination=destination,
                reason=outcome.reason,
                message=type(message).__name__,
            )
        return outcome

    def unicast_batch(
        self,
        sender_ids: Sequence[int],
        destination: int,
        messages: Sequence[Message],
    ) -> List[DeliveryOutcome]:
        """Transmit ``messages[i]`` from ``sender_ids[i]`` to ``destination``.

        Bit-identical to calling :meth:`unicast` once per message in
        order -- same RNG stream consumption, same drop reasons, same
        interceptor consultation (see ``tests/network/test_radio_batch.py``)
        -- but the Bernoulli loss trials are drawn as one numpy vector
        and the surviving deliveries are scheduled as a single fused
        kernel event, so an N-report round costs one heap push instead
        of N.  Every sender must be a registered endpoint (senders
        transmit from their registered position).  The receiver's
        registration and liveness are checked once for the whole batch,
        which is valid because no event can run between its entries.
        """
        if len(sender_ids) != len(messages):
            raise ValueError(
                f"sender/message length mismatch: {len(sender_ids)} senders "
                f"vs {len(messages)} messages"
            )
        nodes = self._nodes
        try:
            entries = [
                (nodes[sender_id], destination, message)
                for sender_id, message in zip(sender_ids, messages)
            ]
        except KeyError as exc:
            raise ValueError(f"unknown sender id {exc.args[0]}") from None
        config = self.config
        if (
            config.jitter > 0
            or len(entries) < _VECTOR_MIN
            or self._spans.enabled
        ):
            # With jitter on, the oracle interleaves a loss draw and a
            # jitter draw per message on the "channel" stream, an order
            # one vector draw cannot reproduce; span collection gives
            # each message its own radio.transmit span as the causal
            # context of its own delivery event.  Either way the
            # per-message loop runs -- the oracle itself.
            return [
                self.unicast(sender, destination, message)
                for sender, destination, message in entries
            ]
        n = len(entries)
        link_loss = self._link_loss
        range_limit = config.range_limit
        outcomes: List[Optional[DeliveryOutcome]] = [None] * n
        pend_idx: List[int] = []
        pend_loss: List[float] = []
        receiver = nodes.get(destination)
        if receiver is None:
            outcomes = [_UNKNOWN_DESTINATION] * n
        elif not receiver.alive:
            outcomes = [_DEAD_RECEIVER] * n
        elif range_limit is None and not link_loss:
            # The sweep shape: one live CH, unlimited range, uniform
            # loss -- every entry pends with the default probability.
            pend_idx = list(range(n))
            pend_loss = [config.loss_probability] * n
        else:
            for i, (sender, _destination, _message) in enumerate(entries):
                if not self._in_range(sender, receiver):
                    outcomes[i] = _OUT_OF_RANGE
                    continue
                pend_idx.append(i)
                pend_loss.append(self._loss_for(sender.node_id, destination))

        # One vectorised draw consumes the "channel" stream exactly as
        # len(pend_idx) sequential scalar draws would (PCG64 guarantees
        # value- and state-identity), so the oracle's stream position is
        # preserved.  Interceptors are then consulted in message order,
        # preserving the "chaos" stream's order too.
        verdicts: Dict[int, Intercept] = {}
        interceptor = self._interceptor
        if (
            pend_idx
            and interceptor is None
            and config.loss_probability == 0.0
            and not link_loss
        ):
            # Lossless, un-intercepted shape: the draw must still
            # happen (stream identity) but no draw in [0, 1) can fall
            # below a 0.0 threshold, so the per-draw scan is skipped.
            self._rng.random(len(pend_idx))
            for i in pend_idx:
                outcomes[i] = _OK
        elif pend_idx:
            draws = self._rng.random(len(pend_idx)).tolist()
            now = self._sim.now
            for k, i in enumerate(pend_idx):
                if draws[k] < pend_loss[k]:
                    outcomes[i] = _DROPPED
                    continue
                if interceptor is not None:
                    verdict = interceptor(
                        entries[i][0].node_id, destination, now
                    )
                    if verdict is not None:
                        if verdict.drop:
                            outcomes[i] = _CHAOS
                            continue
                        verdicts[i] = verdict
                outcomes[i] = _OK

        delay = config.propagation_delay
        drops: Dict[str, int] = {}
        fused: List[Tuple[NetworkNode, Message]] = []
        trace = self._sim.trace
        trace_on = trace.enabled or trace.count_when_disabled
        for i, (sender, _destination, message) in enumerate(entries):
            outcome = outcomes[i]
            if not outcome.delivered:
                reason = outcome.reason
                drops[reason] = drops.get(reason, 0) + 1
                if trace_on:
                    trace.emit(
                        self._sim.now,
                        "radio.drop",
                        sender=sender.node_id,
                        destination=destination,
                        reason=reason,
                        message=type(message).__name__,
                    )
                continue
            verdict = verdicts.get(i)
            if verdict is None:
                fused.append((receiver, message))
                continue
            # Flush the fused buffer first so the intercepted copies
            # keep their same-instant sequence ordering relative to the
            # plain deliveries around them.
            if fused:
                self._schedule_fused(delay, fused)
                fused = []
            label = _deliver_label(type(message))
            for extra in verdict.extra_delays:
                self._sim.after(delay + extra, self._deliver, receiver,
                                message, label=label)
        if fused:
            self._schedule_fused(delay, fused)
        self._settle(n, n - sum(drops.values()), drops)
        return outcomes

    def broadcast(self, sender: NetworkNode, message: Message) -> int:
        """Transmit to every other live endpoint; returns deliveries started.

        Each receiver suffers an independent loss trial, matching a
        contention-free broadcast over independent fading links.  The
        trials are one vector draw on the ``"channel"`` stream -- one
        draw per live receiver in ascending id order, none for dead
        ones, exactly as the per-message oracle consumes it -- and the
        surviving fan-out is one delivery event.  A CH decision
        announcement is handed only to the receivers that react to it
        (see :attr:`NetworkNode.hears_only_own_announcements`).
        Interceptors, spans, taps, jitter, range limits and a recording
        or counting trace all need per-receiver work, so they take the
        per-message oracle instead.
        """
        sender_id = sender.node_id
        fan = self._fanout(sender_id)
        nodes = fan.nodes
        config = self.config
        trace = self._sim.trace
        if (
            self._interceptor is not None
            or self._spans.enabled
            or self._taps
            or config.jitter > 0
            or config.range_limit is not None
            or trace.enabled
            or trace.count_when_disabled
        ):
            return sum(
                1 for node in nodes
                if self.unicast(sender, node.node_id, message).delivered
            )
        n = len(nodes)
        alive = list(map(_ALIVE, nodes))
        n_live = alive.count(True)
        loss = config.loss_probability
        if self._link_loss:
            loss = np.array([
                self._loss_for(sender_id, node.node_id) for node in nodes
            ])
        if n_live == n:
            blocked = self._rng.random(n) < loss
            n_lost = int(np.count_nonzero(blocked))
        else:
            live = np.array(alive, dtype=bool)
            lost = self._rng.random(n_live) < (
                loss if np.isscalar(loss) else loss[live]
            )
            n_lost = int(np.count_nonzero(lost))
            blocked = ~live
            blocked[live] = lost
        n_ok = n_live - n_lost
        if n_ok:
            self._sim.after(
                config.propagation_delay, self._deliver_broadcast, message,
                fan, blocked.tolist() if n_ok < n else None,
                label=_FUSED_LABEL,
            )
        self._settle(
            n, n_ok, {"dead-receiver": n - n_live, "dropped": n_lost}
        )
        return n_ok

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _settle(self, n: int, n_ok: int, drops: Dict[str, int]) -> None:
        """Count ``n`` sends: ``n_ok`` delivered, ``drops`` by reason."""
        self.sent += n
        self.delivered += n_ok
        self.dropped += n - n_ok
        metrics = self._sim.metrics
        if metrics.enabled:
            if self._counter_src is not metrics:
                self._rebind_counters(metrics)
            self._c_sent.inc(n)
            if n_ok:
                self._c_delivered.inc(n_ok)
            if n_ok < n:
                self._c_dropped.inc(n - n_ok)
            for reason, count in drops.items():
                if count:
                    self._drop_counter(reason).inc(count)

    def _schedule_fused(
        self, delay: float, deliveries: List[Tuple[NetworkNode, Message]]
    ) -> None:
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
        blocked: Optional[List[bool]],
    ) -> None:
        """Deliver one broadcast to its survivors (``blocked[i]``: lost)."""
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
        if blocked is not None:
            order = [i for i in order if not blocked[i]]
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

    def _loss_for(self, sender: int, receiver: int) -> float:
        return self._link_loss.get(
            (sender, receiver), self.config.loss_probability
        )

    def _in_range(self, sender: NetworkNode, receiver: NetworkNode) -> bool:
        if self.config.range_limit is None:
            return True
        return (
            sender.position.distance_to(receiver.position)
            <= self.config.range_limit
        )

    def _delay(self) -> float:
        delay = self.config.propagation_delay
        if self.config.jitter > 0:
            delay += self._rng.uniform(-self.config.jitter, self.config.jitter)
        return max(delay, 0.0)

    def __repr__(self) -> str:
        return (
            f"RadioChannel(nodes={len(self._nodes)}, sent={self.sent}, "
            f"delivered={self.delivered}, dropped={self.dropped})"
        )
