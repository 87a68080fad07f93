"""Causal span records: the provenance side of the observability layer.

A *span* is one point on the causal chain behind a TIBFIT verdict --
a sensed event, a report, a radio transmit / deliver / drop, a
collection-window open / close, the dedupe-and-gate filter, a cluster,
a CTI vote, a trust transition, a CH decision, a diagnosis.  Every span
carries a run-unique id and the id of its causal *parent*, so the whole
run forms a forest that :mod:`repro.obs.provenance` can walk from any
:class:`~repro.network.messages.ChDecisionAnnouncement` back to the
sensed event that caused it.

Causal-context token
--------------------
Producers and consumers of a causal edge are usually separated by the
event queue (a report is scheduled now, delivered later).  The token
that bridges the gap is :attr:`SpanCollector.current` -- the span id of
"whatever is causally happening right now".  The radio stamps it on the
delivery event it schedules (the scheduler stores it in the event's
``ctx`` slot and restores it when the callback fires), so by the
time a cluster head handles a message, ``spans.current`` is the
``radio.deliver`` span of that very message.  Cross-message edges that
the queue cannot carry (a message produced in one place, transmitted in
another) go through :meth:`bind` / :meth:`bound`, keyed on the message
id.

Zero-overhead disabled path
---------------------------
Mirroring :func:`repro.simkernel.trace.noop_trace` and
:data:`repro.obs.registry.NULL_REGISTRY`, every emit site is written
as::

    spans = sim.spans
    if spans.enabled:
        spans.point("radio.drop", parent=spans.current, reason=reason)

so a disabled run (:data:`NULL_SPANS`, the default everywhere) costs
one attribute check per site and never allocates.  Span emission only
*reads* simulation state -- never the RNG streams -- so an instrumented
run is bit-identical to an uninstrumented one
(:func:`repro.chaos.invariants.run_fingerprint` equality, asserted by
``tests/experiments/test_observability.py`` under both decision
backends).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional

__all__ = ["NULL_SPANS", "Span", "SpanCollector"]

#: Default ring-buffer capacity.  Spans are ~an order of magnitude more
#: numerous than trace records (every message contributes several), so
#: the cap is higher than TraceLog's; :attr:`SpanCollector.evicted`
#: reports overflow and the exporter surfaces it in the manifest.
_MAX_SPANS = 200_000


class Span:
    """One causal point: id, parent link, category, time, payload."""

    __slots__ = ("span_id", "parent_id", "category", "time", "args")

    def __init__(
        self,
        span_id: int,
        parent_id: int,
        category: str,
        time: float,
        args: Dict[str, Any],
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.category = category
        self.time = time
        self.args = args

    def __repr__(self) -> str:
        return (
            f"Span(id={self.span_id}, parent={self.parent_id}, "
            f"category={self.category!r}, t={self.time})"
        )


class SpanCollector:
    """Collects spans into a bounded ring buffer.

    Parameters
    ----------
    max_spans:
        Ring-buffer capacity; the oldest spans are evicted first.
        :attr:`emitted` keeps counting past the cap, so ``evicted``
        (``emitted - len(collector)``) reports what was lost.
    """

    def __init__(self, max_spans: int = _MAX_SPANS) -> None:
        if max_spans <= 0:
            raise ValueError("max_spans must be positive")
        self.enabled = True
        #: The causal-context token: span id of whatever is causally in
        #: flight right now (0 = no context).  Written only inside
        #: ``if spans.enabled:`` branches.
        self.current = 0
        self.emitted = 0
        self._spans: Deque[Span] = deque(maxlen=max_spans)
        self._bindings: Dict[Any, int] = {}
        self._clock: Optional[Callable[[], float]] = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def attach_clock(self, clock: Callable[[], float]) -> None:
        """Timestamp source for :meth:`point` (the simulator's clock)."""
        self._clock = clock

    def point(self, category: str, parent: int = 0, **args: Any) -> int:
        """Record one span; returns its id (parents for later spans)."""
        self.emitted += 1
        span_id = self.emitted
        clock = self._clock
        self._spans.append(
            Span(
                span_id,
                parent,
                category,
                clock() if clock is not None else 0.0,
                args,
            )
        )
        return span_id

    def bind(self, key: Any, span_id: int) -> None:
        """Associate a lookup key (a message id) with a span.

        Bindings are *kept* after :meth:`bound` reads them: a chaos
        duplicate delivers the same message twice and both deliveries
        must resolve to the same origin.
        """
        self._bindings[key] = span_id

    def bound(self, key: Any) -> int:
        """The span bound to ``key``, or 0 (no context)."""
        return self._bindings.get(key, 0)

    # ------------------------------------------------------------------
    # Queries / export
    # ------------------------------------------------------------------
    @property
    def evicted(self) -> int:
        """Spans lost to the ring buffer (0 = full provenance)."""
        return self.emitted - len(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    def spans(self, category_prefix: Optional[str] = None) -> List[Span]:
        """Buffered spans, optionally filtered by dotted category prefix."""
        if category_prefix is None:
            return list(self._spans)
        dotted = category_prefix + "."
        return [
            span
            for span in self._spans
            if span.category == category_prefix
            or span.category.startswith(dotted)
        ]

    def to_records(self) -> Iterator[Dict[str, Any]]:
        """JSONL records (the ``spans.jsonl`` schema; see
        :func:`repro.obs.export.validate_span_record`)."""
        for span in self._spans:
            yield {
                "id": span.span_id,
                "parent": span.parent_id,
                "category": span.category,
                "time": span.time,
                "args": _jsonable_args(span.args),
            }

    def __repr__(self) -> str:
        return (
            f"SpanCollector(emitted={self.emitted}, "
            f"buffered={len(self._spans)}, evicted={self.evicted})"
        )


def _jsonable_args(args: Dict[str, Any]) -> Dict[str, Any]:
    return {key: _jsonable(value) for key, value in args.items()}


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return repr(value)


class _NullSpans:
    """The shared disabled collector: every operation is a no-op.

    Deliberately *not* slotted -- a stray unguarded attribute write
    must stay harmless rather than crash a sweep.  All real emit sites
    check ``spans.enabled`` first, so nothing here runs hot.
    """

    enabled = False
    current = 0
    emitted = 0
    evicted = 0

    def attach_clock(self, clock: Callable[[], float]) -> None:
        pass

    def point(self, category: str, parent: int = 0, **args: Any) -> int:
        return 0

    def bind(self, key: Any, span_id: int) -> None:
        pass

    def bound(self, key: Any) -> int:
        return 0

    def spans(self, category_prefix: Optional[str] = None) -> List[Span]:
        return []

    def to_records(self) -> Iterator[Dict[str, Any]]:
        return iter(())

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[Span]:
        return iter(())

    def __repr__(self) -> str:
        return "SpanCollector(disabled)"


#: The shared disabled collector handed to everything that does not opt
#: into provenance -- the spans analogue of ``NULL_REGISTRY``.
NULL_SPANS = _NullSpans()
