"""The standalone trust session: one cluster's decision pipeline.

:class:`TrustSession` owns everything the paper's cluster head needs to
turn report streams into verdicts -- the :class:`~repro.core.trust.
TrustTable`, the CTI (or majority-baseline) voter, the location
:class:`~repro.core.decision_kernel.DecisionKernel`, and the TI-threshold
:class:`~repro.core.diagnosis.FaultDiagnoser` -- but none of what the
DES wraps around it: no simulator, no radio channel, no clock.  Callers
supply timestamps.

Two kinds of client drive the same object:

* **The service path** -- ``ingest(node_id, x, y, time)`` accumulates
  reports into the open collection window; ``close_window(now)`` runs
  dedupe, the §2.1 implausibility gate, clustering, the CTI vote,
  trust updates, and the diagnosis sweep, appending
  :class:`DecisionRecord` entries.  ``query_ti`` / ``tis`` /
  ``diagnosed`` / ``decisions`` read the results.  ``export_state`` /
  ``import_state`` round-trip a session through JSON mid-stream.
* **The DES path** -- :class:`~repro.clusterctl.head.ClusterHead`
  embeds a session and calls the finer-grained ops (``decide_binary``,
  ``decide_rows``, ``decide_reports``, ``record``, ``sweep``) so it can
  interleave its span/trace/announce bookkeeping between them.  Both
  paths execute the identical decision code, which is what lets the
  differential replay suite pin service behaviour against the golden
  DES fixtures bit-for-bit.

Decision ids come from the session's own :class:`~repro.service.ids.
IdAllocator` (unless a shared one is injected, as the DES does for
cross-head uniqueness), so bare sessions are reproducible with no
process-global resets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.baseline import MajorityVoter
from repro.core.binary import BinaryVoteResult, CtiVoter
from repro.core.decision_kernel import DecisionKernel, ReportBuffer
from repro.core.diagnosis import DiagnosisEntry, FaultDiagnoser
from repro.core.location import LocatedDecision
from repro.core.trust import TrustParameters, TrustTable
from repro.network.geometry import Point
from repro.network.topology import Deployment
from repro.service.ids import IdAllocator

__all__ = [
    "DecisionRecord",
    "SessionConfig",
    "TrustSession",
]


@dataclass(frozen=True)
class DecisionRecord:
    """One verdict with everything the metrics layer needs."""

    decision_id: int
    time: float
    occurred: bool
    location: Optional[Point]
    supporters: Tuple[int, ...]
    dissenters: Tuple[int, ...]


@dataclass(frozen=True)
class SessionConfig:
    """Behavioural knobs of one trust session.

    Mirrors :class:`~repro.clusterctl.head.ClusterHeadConfig` minus the
    DES-only fields (``t_out`` timers and announcements live with the
    cluster head; a service session closes windows when told to).

    Attributes
    ----------
    mode:
        ``"binary"`` or ``"location"``.
    sensing_radius / r_error:
        ``r_s`` for event-neighbour determination and the localisation
        bound (location mode).
    trust:
        TI update parameters; ignored when ``use_trust`` is False.
    use_trust:
        True = TIBFIT (CTI voting), False = stateless majority baseline.
    diagnosis_threshold:
        Isolate nodes whose TI sinks below this; ``None`` disables
        diagnosis.
    tie_breaks_to_occurred:
        Verdict on exact CTI / head-count ties.
    owner_id:
        The node id of the session's owner (the CH is itself a sensor,
        §2) -- excluded from the binary non-reporter partition.  ``None``
        for pure service sessions with no embedded owner.
    journal:
        Record every closed window's raw inputs (see
        :meth:`TrustSession.journal_records`) for differential replay.
    """

    mode: str = "location"
    sensing_radius: float = 20.0
    r_error: float = 5.0
    trust: TrustParameters = field(default_factory=TrustParameters)
    use_trust: bool = True
    diagnosis_threshold: Optional[float] = None
    tie_breaks_to_occurred: bool = False
    owner_id: Optional[int] = None
    journal: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("binary", "location"):
            raise ValueError(
                f"mode must be 'binary' or 'location', got {self.mode!r}"
            )


class TrustSession:
    """One cluster's trust engine as a long-lived, DES-free object.

    Parameters
    ----------
    deployment:
        Positions of the cluster's nodes ("the node that is chosen to
        be the CH knows the topology of the cluster", §2).  Sessions
        never mutate the deployment, so many sessions may share one.
    config:
        See :class:`SessionConfig`.
    members:
        Cluster membership for binary non-reporter partitions; defaults
        to every deployed node.
    id_allocator:
        Decision-id source.  Defaults to a fresh private allocator so
        bare sessions are reproducible in isolation; the DES injects a
        shared one to keep ids unique across concurrent cluster heads.
    """

    def __init__(
        self,
        deployment: Deployment,
        config: SessionConfig = SessionConfig(),
        members: Optional[Sequence[int]] = None,
        id_allocator: Optional[IdAllocator] = None,
    ) -> None:
        self.deployment = deployment
        self.config = config
        self.ids = id_allocator if id_allocator is not None else IdAllocator()

        self.trust = TrustTable(config.trust, deployment.node_ids())
        if config.use_trust:
            self.voter: Union[CtiVoter, MajorityVoter] = CtiVoter(
                self.trust,
                tie_breaks_to_occurred=config.tie_breaks_to_occurred,
            )
        else:
            self.voter = MajorityVoter(
                tie_breaks_to_occurred=config.tie_breaks_to_occurred
            )

        self.diagnoser: Optional[FaultDiagnoser] = None
        if config.use_trust and config.diagnosis_threshold is not None:
            self.diagnoser = FaultDiagnoser(
                self.trust, config.diagnosis_threshold, isolate=True
            )

        self.members: Tuple[int, ...] = (
            tuple(sorted(members)) if members is not None
            else deployment.node_ids()
        )
        self.decisions: List[DecisionRecord] = []

        self.kernel: Optional[DecisionKernel] = None
        self.report_buffer: Optional[ReportBuffer] = None
        if config.mode == "location":
            self.report_buffer = ReportBuffer()
            self.kernel = DecisionKernel(
                deployment=deployment,
                sensing_radius=config.sensing_radius,
                r_error=config.r_error,
                voter=self.voter,
            )

        self._journal: Optional[List[Dict[str, object]]] = (
            [] if config.journal else None
        )
        # Open-window accumulation for the ingest/close service path.
        self._pending_rows: List[int] = []
        self._pending_senders: List[int] = []
        self.windows_closed = 0

    # ------------------------------------------------------------------
    # Shared decision core (the DES cluster head calls these directly)
    # ------------------------------------------------------------------
    def excluded_nodes(self) -> Tuple[int, ...]:
        """The exclusion set the decision engines honour."""
        if self.diagnoser is None:
            return ()
        return self.diagnoser.excluded_nodes()

    def is_excluded(self, node_id: int) -> bool:
        """Per-report twin of :meth:`excluded_nodes`."""
        return self.diagnoser is not None and self.diagnoser.is_excluded(
            node_id
        )

    def binary_partition(
        self, senders: Iterable[int]
    ) -> Tuple[List[int], List[int]]:
        """Split one binary window into (reporters, non-reporters).

        All cluster members are event neighbours (§3.1); diagnosed
        nodes and the session owner drop out of the silent partition.
        """
        excluded = set(self.excluded_nodes())
        reporter_set = set(senders) - excluded
        reporters = sorted(reporter_set)
        owner = self.config.owner_id
        non_reporters = [
            m
            for m in self.members
            if m not in excluded and m != owner and m not in reporter_set
        ]
        return reporters, non_reporters

    def decide_binary(
        self, senders: Sequence[int], now: float = 0.0
    ) -> Tuple[BinaryVoteResult, Tuple[int, ...], Tuple[int, ...]]:
        """Partition and CTI-vote one closed binary window."""
        senders = [int(s) for s in senders]
        if self._journal is not None:
            self._journal.append(
                {"mode": "binary", "time": now, "senders": senders}
            )
        reporters, non_reporters = self.binary_partition(senders)
        vote = self.voter.decide(reporters, non_reporters)
        return vote, tuple(reporters), tuple(non_reporters)

    def decide_rows(
        self, rows: np.ndarray, now: float = 0.0
    ) -> List[LocatedDecision]:
        """Decide one closed window given as report-buffer row indices."""
        assert self.kernel is not None and self.report_buffer is not None
        if self._journal is not None:
            buf = self.report_buffer
            self._journal.append({
                "mode": "location",
                "time": now,
                "rows": [
                    [
                        int(buf.ids[r]),
                        float(buf.xs[r]),
                        float(buf.ys[r]),
                        float(buf.times[r]),
                    ]
                    for r in np.asarray(rows, dtype=np.intp)
                ],
            })
        return self.kernel.decide_rows(
            self.report_buffer, rows, excluded_nodes=self.excluded_nodes()
        )

    def decide_reports(
        self, rows: Sequence[Sequence[float]], now: float = 0.0
    ) -> List[LocatedDecision]:
        """Decide one window given as journal rows ``[node, x, y, time]``.

        The rows are taken in the order given (the delivery order the
        window decided in) and pass through the report buffer into the
        kernel; the open window must be empty.
        """
        assert self.kernel is not None and self.report_buffer is not None
        assert not self._pending_rows, (
            "decide_reports requires an empty open window"
        )
        window = [
            [int(node_id), float(x), float(y), float(time)]
            for node_id, x, y, time in rows
        ]
        if self._journal is not None:
            self._journal.append(
                {"mode": "location", "time": now, "rows": window}
            )
        buf = self.report_buffer
        indices = np.asarray(
            [buf.append(*row) for row in window], dtype=np.intp
        )
        decisions = self.kernel.decide_rows(
            buf, indices, excluded_nodes=self.excluded_nodes()
        )
        buf.reset()
        return decisions

    def record(
        self,
        occurred: bool,
        location: Optional[Point],
        supporters: Tuple[int, ...],
        dissenters: Tuple[int, ...],
        now: float = 0.0,
    ) -> DecisionRecord:
        """Mint the next decision id and append one verdict to the log."""
        record = DecisionRecord(
            decision_id=next(self.ids),
            time=now,
            occurred=occurred,
            location=location,
            supporters=tuple(supporters),
            dissenters=tuple(dissenters),
        )
        self.decisions.append(record)
        return record

    def sweep(self, now: float = 0.0) -> List[DiagnosisEntry]:
        """Run one diagnosis sweep; no-op without a diagnoser."""
        if self.diagnoser is None:
            return []
        return self.diagnoser.sweep(now)

    # ------------------------------------------------------------------
    # Service API: ingest / close / query
    # ------------------------------------------------------------------
    def set_members(self, members: Sequence[int]) -> None:
        """Restrict the cluster membership (multi-cluster deployments)."""
        self.members = tuple(sorted(members))

    def ingest(
        self,
        node_id: int,
        x: Optional[float] = None,
        y: Optional[float] = None,
        time: float = 0.0,
    ) -> bool:
        """Add one event report to the open collection window.

        Returns False when the report is dropped: the sender is
        currently diagnosed/excluded, or a location-mode report carries
        no coordinates (the unplaceable-report rule the cluster head
        applies on arrival).
        """
        node_id = int(node_id)
        if self.is_excluded(node_id):
            return False
        if self.config.mode == "binary":
            self._pending_senders.append(node_id)
            return True
        if x is None or y is None:
            return False
        row = self.report_buffer.append(  # type: ignore[union-attr]
            node_id, float(x), float(y), float(time)
        )
        self._pending_rows.append(row)
        return True

    def pending_reports(self) -> int:
        """Reports accumulated in the open window so far."""
        if self.config.mode == "binary":
            return len(self._pending_senders)
        return len(self._pending_rows)

    def close_window(self, now: float = 0.0) -> List[DecisionRecord]:
        """Close the open window: decide, update trust, sweep diagnosis.

        Returns the decision records this close produced (one per
        report cluster in location mode, exactly one in binary mode).
        Closing an empty window is a no-op -- the paper's windows only
        exist once a first report opens them.
        """
        before = len(self.decisions)
        if self.config.mode == "binary":
            senders = self._pending_senders
            if not senders:
                return []
            self._pending_senders = []
            vote, reporters, non_reporters = self.decide_binary(
                senders, now=now
            )
            self.record(vote.occurred, None, reporters, non_reporters, now=now)
            self.sweep(now)
        else:
            decisions = self._close_location_window(now)
            if decisions is None:
                return []
            for decision in decisions:
                self.record(
                    decision.occurred,
                    decision.location,
                    decision.supporters,
                    decision.dissenters,
                    now=now,
                )
                self.sweep(now)
        self.windows_closed += 1
        return self.decisions[before:]

    def _close_location_window(
        self, now: float
    ) -> Optional[List[LocatedDecision]]:
        if not self._pending_rows:
            return None
        buf = self.report_buffer
        assert buf is not None
        pending = np.asarray(self._pending_rows, dtype=np.intp)
        self._pending_rows = []
        # Same delivery order as the DES circle tracker: stable
        # lexsort by arrival time with node id as the tie-breaker.
        order = np.lexsort((buf.ids[pending], buf.times[pending]))
        decisions = self.decide_rows(pending[order], now=now)
        buf.reset()
        return decisions

    def query_ti(self, node_id: int) -> float:
        """Current trust index of one node."""
        return self.trust.ti(node_id)

    def tis(self) -> Dict[int, float]:
        """Current TI of every node in the session."""
        return self.trust.tis()

    def diagnosed(self) -> Tuple[int, ...]:
        """Node ids diagnosed (TI below threshold) so far, sorted."""
        if self.diagnoser is None:
            return ()
        return self.diagnoser.diagnosed

    def decision_log(
        self, since: Optional[int] = None
    ) -> List[Dict[str, object]]:
        """The decision history as JSON-serialisable records.

        With ``since``, only decisions whose id exceeds it.  Ids are
        strictly increasing along the log, so the cut is a binary
        search and only the tail is converted.
        """
        decisions = self.decisions
        lo = 0
        if since is not None:
            hi = len(decisions)
            while lo < hi:
                mid = (lo + hi) // 2
                if decisions[mid].decision_id <= since:
                    lo = mid + 1
                else:
                    hi = mid
        return [_decision_to_dict(d) for d in decisions[lo:]]

    # ------------------------------------------------------------------
    # Journal + differential replay
    # ------------------------------------------------------------------
    def journal_records(self) -> List[Dict[str, object]]:
        """Every closed window's raw inputs, in close order.

        One record per window: ``{"mode": "binary", "time": t,
        "senders": [...]}`` or ``{"mode": "location", "time": t,
        "rows": [[node, x, y, time], ...]}`` (rows in the delivery
        order the window decided in).  JSON-serialisable; feed them to
        :meth:`replay_window` on a fresh session to reproduce the
        originating run's trust state bit for bit.
        """
        if self._journal is None:
            raise RuntimeError(
                "session was built without journal=True; nothing recorded"
            )
        return list(self._journal)

    def replay_window(self, record: Dict[str, object]) -> List[DecisionRecord]:
        """Re-decide one journalled window through the full pipeline.

        The journal captures windows *as delivered to the decision
        core* (post arrival filtering, pre close-time exclusion), so
        replay skips :meth:`ingest`'s arrival checks and hands the rows
        straight to the same decide/record/sweep sequence the original
        run executed.
        """
        now = float(record["time"])  # type: ignore[arg-type]
        before = len(self.decisions)
        if record["mode"] == "binary":
            vote, reporters, non_reporters = self.decide_binary(
                record["senders"], now=now  # type: ignore[arg-type]
            )
            self.record(vote.occurred, None, reporters, non_reporters, now=now)
            self.sweep(now)
        else:
            decisions = self.decide_reports(
                record["rows"], now=now  # type: ignore[arg-type]
            )
            for decision in decisions:
                self.record(
                    decision.occurred,
                    decision.location,
                    decision.supporters,
                    decision.dissenters,
                    now=now,
                )
                self.sweep(now)
        self.windows_closed += 1
        return self.decisions[before:]

    # ------------------------------------------------------------------
    # State round-trip
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """Snapshot the session as a JSON-serialisable document.

        Covers everything behavioural: trust ``v`` values (floats
        round-trip exactly through JSON's repr serialisation), the
        diagnosed set, the next decision id, the decision log, and any
        reports pending in the open window.
        """
        pending: List[object]
        if self.config.mode == "binary":
            pending = list(self._pending_senders)
        else:
            buf = self.report_buffer
            assert buf is not None
            pending = [
                [
                    int(buf.ids[r]),
                    float(buf.xs[r]),
                    float(buf.ys[r]),
                    float(buf.times[r]),
                ]
                for r in self._pending_rows
            ]
        return {
            "schema": 1,
            "mode": self.config.mode,
            "members": [int(m) for m in self.members],
            "trust": [
                [int(n), float(v)]
                for n, v in sorted(self.trust.export_state().items())
            ],
            "diagnosed": [
                int(n)
                for n in (
                    self.diagnoser.diagnosed
                    if self.diagnoser is not None
                    else ()
                )
            ],
            "next_decision_id": self.ids.peek(),
            "windows_closed": self.windows_closed,
            "pending": pending,
            "decisions": self.decision_log(),
        }

    def import_state(self, state: Dict[str, object]) -> None:
        """Restore an :meth:`export_state` snapshot into this session.

        The session must be freshly built with the same deployment and
        config as the exporter; importing replaces trust values, the
        diagnosed set, the id stream, the decision log, and the open
        window.  A decision log whose ids are not strictly increasing,
        or not below ``next_decision_id``, is rejected before anything
        is replaced.
        """
        if state.get("schema") != 1:
            raise ValueError(
                f"unsupported session-state schema: {state.get('schema')!r}"
            )
        if state.get("mode") != self.config.mode:
            raise ValueError(
                f"state mode {state.get('mode')!r} does not match session "
                f"mode {self.config.mode!r}"
            )
        next_id = int(state["next_decision_id"])  # type: ignore[arg-type]
        decisions = [
            _decision_from_dict(d)
            for d in state["decisions"]  # type: ignore[union-attr]
        ]
        ids = [record.decision_id for record in decisions]
        if any(b <= a for a, b in zip(ids, ids[1:])):
            raise ValueError("decision ids must be strictly increasing")
        if ids and ids[-1] >= next_id:
            raise ValueError(
                f"decision id {ids[-1]} is not below next_decision_id "
                f"{next_id}"
            )
        self.members = tuple(int(m) for m in state["members"])  # type: ignore[union-attr]
        self.trust.import_state(
            {int(n): float(v) for n, v in state["trust"]}  # type: ignore[union-attr]
        )
        if self.diagnoser is not None:
            self.diagnoser.restore(
                int(n) for n in state["diagnosed"]  # type: ignore[union-attr]
            )
        self.ids.reset(next_id)
        self.windows_closed = int(state["windows_closed"])  # type: ignore[arg-type]
        self.decisions[:] = decisions
        self._pending_senders = []
        self._pending_rows = []
        if self.report_buffer is not None:
            self.report_buffer.reset()
        for item in state["pending"]:  # type: ignore[union-attr]
            if self.config.mode == "binary":
                self._pending_senders.append(int(item))  # type: ignore[arg-type]
            else:
                node_id, x, y, time = item  # type: ignore[misc]
                row = self.report_buffer.append(  # type: ignore[union-attr]
                    int(node_id), float(x), float(y), float(time)
                )
                self._pending_rows.append(row)

    def __repr__(self) -> str:
        return (
            f"TrustSession(mode={self.config.mode!r}, "
            f"members={len(self.members)}, "
            f"decisions={len(self.decisions)}, "
            f"windows_closed={self.windows_closed})"
        )


def _decision_to_dict(record: DecisionRecord) -> Dict[str, object]:
    return {
        "decision_id": record.decision_id,
        "time": record.time,
        "occurred": record.occurred,
        "location": (
            None
            if record.location is None
            else [record.location.x, record.location.y]
        ),
        "supporters": list(record.supporters),
        "dissenters": list(record.dissenters),
    }


def _decision_from_dict(doc: Dict[str, object]) -> DecisionRecord:
    location = doc["location"]
    return DecisionRecord(
        decision_id=int(doc["decision_id"]),  # type: ignore[arg-type]
        time=float(doc["time"]),  # type: ignore[arg-type]
        occurred=bool(doc["occurred"]),
        location=(
            None
            if location is None
            else Point(float(location[0]), float(location[1]))  # type: ignore[index]
        ),
        supporters=tuple(int(n) for n in doc["supporters"]),  # type: ignore[union-attr]
        dissenters=tuple(int(n) for n in doc["dissenters"]),  # type: ignore[union-attr]
    )
