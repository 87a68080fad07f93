"""The sensing-node process: perception -> behaviour -> report.

A :class:`SensorNode` is a network endpoint wrapping one
:class:`~repro.sensors.faults.NodeBehavior`.  The ground-truth event
generator "informs" it of events within its sensing radius (physics,
not radio); the behaviour decides what, if anything, to claim; the node
encodes the claim as an ``(r, theta)`` offset and transmits it to its
cluster head.  CH decision announcements received over the radio feed
the behaviour's outcome observer, which is how smart adversaries track
their own trust index.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.network.geometry import Point, Region
from repro.network.messages import EventReportMessage, Message
from repro.network.node import NetworkNode
from repro.sensors.faults import Level2Behavior, NodeBehavior
from repro.sensors.generator import GroundTruthEvent
from repro.sensors.sensing import SensingModel


class SensorNode(NetworkNode):
    """One sensing node with a pluggable (possibly malicious) behaviour.

    Parameters
    ----------
    node_id / position:
        Network identity and deployment location.
    behavior:
        Decision object for this node's conduct; swappable at runtime
        (Experiment 3 compromises correct nodes mid-run by replacing
        their behaviour).
    sensing:
        Perception model (detection radius; used for the physics gate).
    ch_id:
        Current cluster head to report to.
    rng:
        This node's private randomness.
    """

    #: Only a verdict naming this node feeds its behaviour, so the
    #: channel skips it for every other CH announcement.
    hears_only_own_announcements = True

    def __init__(
        self,
        node_id: int,
        position: Point,
        behavior: NodeBehavior,
        sensing: SensingModel,
        ch_id: int,
        rng: np.random.Generator,
        region: Optional[Region] = None,
    ) -> None:
        super().__init__(node_id, position)
        self.behavior = behavior
        self.sensing = sensing
        self.ch_id = ch_id
        self._rng = rng
        self.region = region
        self.reports_sent = 0
        self.events_sensed = 0
        #: Whether CH announcements feed the behaviour's outcome observer.
        #: Under the stateless baseline there is no trust index for a
        #: smart adversary to manage, so the harness disables feedback
        #: there -- smart nodes then lie continuously, matching the
        #: paper's baseline curves (Figs. 5-6).
        self.feedback_enabled = True

    # ------------------------------------------------------------------
    # Behaviour management
    # ------------------------------------------------------------------
    def compromise(self, new_behavior: NodeBehavior) -> None:
        """Replace this node's behaviour (adversarial takeover)."""
        self.behavior = new_behavior

    @property
    def is_faulty(self) -> bool:
        """Whether the current behaviour is a fault model."""
        return self.behavior.is_faulty

    # ------------------------------------------------------------------
    # Stimuli
    # ------------------------------------------------------------------
    def sense_event(self, event: GroundTruthEvent) -> None:
        """React to a ground-truth event (generator-driven physics).

        Events outside the sensing radius are imperceptible -- even a
        malicious node cannot report what it cannot coordinate on, and
        the paper's event generator only informs event neighbours.
        """
        message = self.compose_report(event)
        if message is not None:
            self.send(self.ch_id, message)

    def quiet_window(self) -> None:
        """A no-event interval: the behaviour may raise a false alarm."""
        message = self.compose_false_alarm()
        if message is not None:
            self.send(self.ch_id, message)

    def compose_report(self, event: GroundTruthEvent) -> Optional[EventReportMessage]:
        """Build (but do not transmit) this node's report on ``event``.

        Everything :meth:`sense_event` does up to the radio -- the
        physics gate, behaviour consultation (including any draws on
        this node's private stream), and report encoding -- so a caller
        can collect one round's reports and hand them to
        ``RadioChannel.unicast_batch`` in a single call.  That is the
        radio's one transmit routine, as :meth:`sense_event`'s ``send``
        is, so either way of sending a round delivers the same outcome.
        Returns ``None`` when the node stays silent.
        """
        if not self.alive:
            return None
        if not self.sensing.detects(self.position, event.location):
            return None
        self.events_sensed += 1
        if isinstance(self.behavior, Level2Behavior):
            self.behavior.set_event_token(event.event_id)
        claim = self.behavior.on_event(
            self.position, event.location, self._rng
        )
        if claim is None:
            return None
        return self._compose(claim, event_id=event.event_id)

    def compose_false_alarm(self) -> Optional[EventReportMessage]:
        """Build (but do not transmit) a quiet-window false alarm, if any."""
        if not self.alive:
            return None
        region = self.region
        if region is None:
            return None
        claim = self.behavior.on_quiet_window(self.position, region, self._rng)
        if claim is None:
            return None
        return self._compose(claim, event_id=None)

    # ------------------------------------------------------------------
    # Radio
    # ------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        # The trust update rule is deterministic given the verdict and
        # the node's own role, so the node can replay it exactly.
        if self.feedback_enabled:
            rewarded = message.outcome_for(self.node_id)
            if rewarded is not None:
                self.behavior.observe_outcome(rewarded=rewarded)

    def _compose(
        self, claimed_location: Point, event_id: Optional[int]
    ) -> EventReportMessage:
        offset = self.sensing.encode_report(self.position, claimed_location)
        self.reports_sent += 1
        return EventReportMessage(
            sender=self.node_id,
            event_id=event_id,
            offset=offset,
            claimed=True,
        )
