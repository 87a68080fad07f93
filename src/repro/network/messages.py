"""Typed message payloads exchanged over the radio channel.

Every message the protocol sends is a small frozen dataclass.  Using
types (rather than dicts) keeps handler dispatch explicit and lets tests
assert on exact payloads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.network.geometry import Point, PolarOffset

_message_ids = itertools.count(1)


def _next_message_id() -> int:
    return next(_message_ids)


def reset_message_ids(start: int = 1) -> None:
    """Rewind the process-global message-id stream (test isolation)."""
    global _message_ids
    _message_ids = itertools.count(start)


@dataclass(frozen=True)
class Message:
    """Base class for all network messages.

    Attributes
    ----------
    sender:
        Node id of the transmitting endpoint.
    message_id:
        Globally unique id assigned at construction; used for tracing and
        duplicate suppression.
    """

    sender: int
    message_id: int = field(default_factory=_next_message_id)

    def outcome_for(self, node_id: int) -> Optional[bool]:
        """The trust outcome this message assigns ``node_id``.

        ``True`` rewards the node, ``False`` penalises it, and ``None``
        means the message is not a verdict naming it.
        """
        return None


@dataclass(frozen=True)
class EventReportMessage(Message):
    """A sensing node's report of a detected event (§2, §3.2).

    For binary-event experiments ``offset`` is ``None`` and the report
    simply asserts "an event happened inside my sensing radius".  For
    location experiments ``offset`` is the event position as ``(r,
    theta)`` relative to the reporting node.
    """

    event_id: Optional[int] = None
    offset: Optional[PolarOffset] = None
    claimed: bool = True

    def resolve_location(self, node_position: Point) -> Optional[Point]:
        """Absolute event location implied by this report, if it has one."""
        if self.offset is None:
            return None
        return node_position.displace(self.offset)


@dataclass(frozen=True)
class ChAdvertisement(Message):
    """A self-elected cluster head announcing its leadership bid (LEACH)."""

    round_number: int = 0
    position: Optional[Point] = None
    signal_strength: float = 1.0


@dataclass(frozen=True)
class ChAffiliation(Message):
    """A node affiliating itself with an advertising cluster head."""

    chosen_ch: int = -1
    round_number: int = 0


@dataclass(frozen=True)
class ChDecisionAnnouncement(Message):
    """Cluster head's verdict on an event window.

    Broadcast so that (a) the base station learns of events, and (b)
    *smart* malicious nodes can observe outcomes to steer their own
    trust-index estimates.
    """

    decision_id: int = 0
    occurred: bool = False
    location: Optional[Point] = None
    reporters: Tuple[int, ...] = ()
    non_reporters: Tuple[int, ...] = ()

    def outcome_for(self, node_id: int) -> Optional[bool]:
        """Reward reporters iff the event was upheld, non-reporters iff not.

        This replays the CH's public trust update rule (§3), so a smart
        adversary can track its own TI from the broadcast verdicts.
        """
        if node_id in self.reporters:
            return self.occurred
        if node_id in self.non_reporters:
            return not self.occurred
        return None


@dataclass(frozen=True)
class TiTableTransfer(Message):
    """Trust-index table hand-off (outgoing CH -> base station -> new CH).

    The table maps node id to the accumulated fault variable ``v`` (the
    TI itself is derived, so shipping ``v`` preserves full state).
    """

    table: Dict[int, float] = field(default_factory=dict)
    cluster_id: int = 0
    round_number: int = 0


@dataclass(frozen=True)
class ScHDisagreement(Message):
    """Shadow cluster head's dissent escalated to the base station (§3.4)."""

    decision_id: int = 0
    occurred: bool = False
    location: Optional[Point] = None
    suspected_ch: int = -1


@dataclass(frozen=True)
class BsChVeto(Message):
    """Base station cancelling an under-trusted node's CH bid (§2)."""

    vetoed_node: int = -1
    round_number: int = 0
