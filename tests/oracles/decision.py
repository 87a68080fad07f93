"""Object-pipeline reference for the location decision kernel.

This is the original §3.2 location decision engine, the oracle for
:class:`repro.core.decision_kernel.DecisionKernel`: one
:class:`LocationReport` object per report, dedupe and the §2.1 gate
through Python sets, clustering over ``Point`` objects with the scalar
reference in :mod:`tests.oracles.clustering`, and set arithmetic for
each cluster's supporter/dissenter split.  It is kept here only so the
kernel can be checked against it, decision for decision and trust call
for trust call, by the randomized, Hypothesis and full-run differential
suites.  :func:`install` swaps it in for the kernel inside a running
simulation or session.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro.core.baseline import MajorityVoter
from repro.core.binary import CtiVoter
from repro.core.clustering import ReportCluster
from repro.core.decision_kernel import DecisionKernel, ReportBuffer
from repro.core.location import LocatedDecision
from repro.network.geometry import Point
from repro.network.topology import Deployment
from repro.obs.spans import NULL_SPANS

from tests.oracles.clustering import (
    cluster_reports_reference as cluster_reports,
)

Voter = Union[CtiVoter, MajorityVoter]


@dataclass(frozen=True)
class LocationReport:
    """One node's resolved location report as seen by the cluster head.

    Attributes
    ----------
    node_id:
        The reporting node.
    location:
        Absolute event location implied by the report (node position
        displaced by the reported ``(r, theta)`` offset).
    time:
        Simulation time the report arrived at the CH.
    """

    node_id: int
    location: Point
    time: float = 0.0


class LocationDecisionEngine:
    """Turns a window of location reports into located event decisions.

    Parameters
    ----------
    deployment:
        Node positions; the CH "knows the topology of the cluster" (§2)
        and uses it both to resolve offsets and to find event neighbours.
    sensing_radius:
        ``r_s`` -- nodes within this range of a location are its event
        neighbours and were expected to report.
    r_error:
        The localisation error bound used by the clustering heuristic
        and the accuracy metric.
    voter:
        A :class:`CtiVoter` (TIBFIT) or :class:`MajorityVoter`
        (baseline).
    min_cluster_fraction:
        Event clusters holding fewer than this fraction of the window's
        reports can still win their vote only on trust; the fraction
        exists purely as an optional spam guard and defaults to 0
        (paper-faithful: every cluster is voted on).
    """

    #: Span collector; the class default keeps standalone engines
    #: span-free at zero cost.
    spans = NULL_SPANS

    def __init__(
        self,
        deployment: Deployment,
        sensing_radius: float,
        r_error: float,
        voter: Voter,
        min_cluster_fraction: float = 0.0,
    ) -> None:
        if sensing_radius <= 0:
            raise ValueError(
                f"sensing_radius must be positive, got {sensing_radius}"
            )
        if r_error <= 0:
            raise ValueError(f"r_error must be positive, got {r_error}")
        if not 0.0 <= min_cluster_fraction <= 1.0:
            raise ValueError("min_cluster_fraction must be in [0, 1]")
        self.deployment = deployment
        self.sensing_radius = sensing_radius
        self.r_error = r_error
        self.voter = voter
        self.min_cluster_fraction = min_cluster_fraction
        # Warm the spatial index with r_s as the grid cell size: every
        # per-cluster event-neighbour query is a disk of exactly this
        # radius, so a query touches at most a 3x3 block of cells.
        deployment.ensure_index(sensing_radius)

    def decide(
        self,
        reports: Sequence[LocationReport],
        excluded_nodes: Sequence[int] = (),
    ) -> List[LocatedDecision]:
        """Process one collection window of reports.

        Parameters
        ----------
        reports:
            All reports that arrived within the window.  Duplicate
            reports from one node keep only the earliest (a faulty node
            cannot stuff the ballot).
        excluded_nodes:
            Nodes diagnosed faulty and isolated; their reports are
            ignored and they are not counted as expected reporters.

        Returns
        -------
        One :class:`LocatedDecision` per event cluster, dominant cluster
        first.  Empty when no usable reports arrived.
        """
        excluded = set(excluded_nodes)
        unique = self._dedupe(reports, excluded)
        unique = self._drop_implausible(unique, window=len(reports))
        if not unique:
            return []

        clusters = cluster_reports(
            [r.location for r in unique], self.r_error
        )
        min_size = self.min_cluster_fraction * len(unique)
        decisions = []
        spans = self.spans
        if spans.enabled:
            # _drop_implausible left spans.current on the window.filter
            # span; each cluster parents there, not under its sibling.
            window_ctx = spans.current
            for cluster in clusters:
                if len(cluster) < min_size:
                    continue
                spans.current = window_ctx
                decisions.append(
                    self._vote_cluster(cluster, unique, excluded)
                )
            spans.current = window_ctx
            return decisions
        for cluster in clusters:
            if len(cluster) < min_size:
                continue
            decisions.append(self._vote_cluster(cluster, unique, excluded))
        return decisions

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _dedupe(
        reports: Sequence[LocationReport], excluded: set
    ) -> List[LocationReport]:
        # The circle tracker delivers groups already sorted by
        # (time, node_id), so the common case is a linear sortedness
        # check, not an O(n log n) re-sort per window.  Direct callers
        # passing unsorted reports still get the earliest-wins order via
        # the fallback sort.
        ordered: Sequence[LocationReport] = reports
        for i in range(1, len(reports)):
            prev = reports[i - 1]
            cur = reports[i]
            if (prev.time, prev.node_id) > (cur.time, cur.node_id):
                ordered = sorted(
                    reports, key=lambda r: (r.time, r.node_id)
                )
                break
        seen = set()
        unique = []
        for report in ordered:
            if report.node_id in excluded or report.node_id in seen:
                continue
            seen.add(report.node_id)
            unique.append(report)
        return unique

    def _drop_implausible(
        self, reports: List[LocationReport], window: Optional[int] = None
    ) -> List[LocationReport]:
        """Reject reports claiming events the reporter could not sense.

        §2.1 defines reporting "an event outside of its sensing radius"
        as a false alarm; since the CH knows every node's position (§2),
        such a report is invalid on its face.  The sender is penalised
        directly (no vote needed) when the engine's voter keeps trust.
        A small slack (``r_error``) allows for honest perception noise
        pushing a borderline claim just past the radius.
        """
        plausible: List[LocationReport] = []
        liars: List[int] = []
        limit = self.sensing_radius + self.r_error
        for report in reports:
            try:
                node_pos = self.deployment.position_of(report.node_id)
            except KeyError:
                continue
            if node_pos.distance_to(report.location) <= limit:
                plausible.append(report)
            else:
                liars.append(report.node_id)
        spans = self.spans
        if spans.enabled:
            # Emitted before the gate penalties so those trust
            # transitions parent under the filter span.
            spans.current = spans.point(
                "window.filter",
                parent=spans.current,
                window=window if window is not None else len(reports),
                kept=[r.node_id for r in plausible],
                gated=list(liars),
            )
        if liars and hasattr(self.voter, "trust"):
            self.voter.trust.penalize_many(liars)
        return plausible

    def _vote_cluster(
        self,
        cluster: ReportCluster,
        reports: Sequence[LocationReport],
        excluded: set,
    ) -> LocatedDecision:
        supporters = tuple(
            sorted(reports[i].node_id for i in cluster.indices)
        )
        supporter_set = set(supporters)
        neighbors = [
            node_id
            for node_id in self.deployment.event_neighbors(
                cluster.center, self.sensing_radius
            )
            if node_id not in excluded
        ]
        dissenters = tuple(
            node_id for node_id in neighbors if node_id not in supporter_set
        )
        spans = self.spans
        cluster_ctx = 0
        if spans.enabled:
            cluster_ctx = spans.point(
                "window.cluster",
                parent=spans.current,
                x=cluster.center.x,
                y=cluster.center.y,
                members=list(supporters),
                dissenters=list(dissenters),
            )
            spans.current = cluster_ctx
        if supporter_set.isdisjoint(neighbors):
            # None of the claimants could have sensed an event at the
            # location they collectively imply: the cluster refutes
            # itself (§2.1's out-of-radius false alarm, caught after
            # clustering).  Claimants are penalised; nobody is rewarded.
            if hasattr(self.voter, "trust"):
                self.voter.trust.penalize_many(supporters)
            return LocatedDecision(
                occurred=False,
                location=cluster.center,
                supporters=supporters,
                dissenters=dissenters,
                vote=None,
                span_id=cluster_ctx,
            )
        vote = self.voter.decide(supporters, dissenters)
        return LocatedDecision(
            occurred=vote.occurred,
            location=cluster.center,
            supporters=supporters,
            dissenters=dissenters,
            vote=vote,
            span_id=cluster_ctx,
        )


# ----------------------------------------------------------------------
# Swapping the oracle in for the kernel
# ----------------------------------------------------------------------
def reports_from_rows(
    buffer: ReportBuffer, rows: Sequence[int]
) -> List[LocationReport]:
    """The window's buffer rows as report objects, in row order."""
    return [
        LocationReport(
            node_id=int(buffer.ids[r]),
            location=Point(float(buffer.xs[r]), float(buffer.ys[r])),
            time=float(buffer.times[r]),
        )
        for r in rows
    ]


def _oracle_decide_rows(kernel, buffer, rows, excluded_nodes=()):
    engine = kernel.__dict__.get("_oracle")
    if engine is None:
        engine = LocationDecisionEngine(
            deployment=kernel.deployment,
            sensing_radius=kernel.sensing_radius,
            r_error=kernel.r_error,
            voter=kernel.voter,
        )
        kernel._oracle = engine
    # The kernel's collector may be rebound after construction (a
    # cluster head's attach does so); follow it on every window.
    engine.spans = kernel.spans
    return engine.decide(
        reports_from_rows(buffer, rows), excluded_nodes=excluded_nodes
    )


def install(monkeypatch) -> None:
    """Route every ``DecisionKernel.decide_rows`` through the oracle.

    Each kernel gets one oracle engine over its own deployment, radii
    and voter, so trust updates land in the same table the kernel
    would have updated.  Everything around the kernel -- the circle
    tracker, the session's journal, record and sweep -- runs unchanged,
    which makes a whole simulation or journal replay a differential
    test of the decision pipeline alone.
    """
    monkeypatch.setattr(DecisionKernel, "decide_rows", _oracle_decide_rows)
