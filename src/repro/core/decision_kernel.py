"""Struct-of-arrays cluster-head decision kernel (§3.2).

This is the cluster head's one location decision pipeline:

* :class:`ReportBuffer` -- preallocated parallel row arrays (node id,
  x, y, arrival time).  The cluster head appends one row per arriving
  report, so a collection window closes already in struct-of-arrays
  form.
* :class:`DecisionKernel` -- the window pipeline over those rows:
  dedupe (earliest report per node wins), the §2.1 implausibility gate
  (node positions come from the deployment's cached coords snapshot,
  :meth:`~repro.network.topology.Deployment.coords_arrays`), clustering
  (:mod:`repro.core.clustering`), and one CTI vote per cluster, whose
  supporter/dissenter split is taken against the sorted neighbour ids
  of the cluster centre.

Windows under ``_SMALL_WINDOW_ROWS`` rows take a flat scalar route
(plain float loops, dict position lookups, set membership); larger
windows run vectorised masks.  The two routes are bit-identical to
each other and to the original object pipeline, which is kept as a test
oracle in ``tests/oracles/decision.py``; the randomized and property
differential suites (``tests/core/test_decision_kernel.py``,
``tests/property/test_decision_kernel_properties.py``) compare
decisions, supporter/dissenter tuples, trust-update call sequences and
final trust state against it.

Bit-identity is by construction, not by tolerance:

* every distance is the same correctly-rounded ``sqrt(dx*dx + dy*dy)``
  expression (see :meth:`repro.network.geometry.Point.distance_to`);
* dedupe keeps the first row per node over rows sorted by
  ``(time, node_id)`` -- the earliest-wins rule;
* liar penalties apply in window order, cluster votes in cluster order,
  through the very same :class:`~repro.core.trust.TrustTable` calls;
* supporter/dissenter tuples are plain Python ints (``.tolist()``), so
  trace records and replay fingerprints hash and compare identically.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.baseline import MajorityVoter
from repro.core.binary import CtiVoter
from repro.core.clustering import (
    _FLAT_MIN_NUMPY,
    ReportCluster,
    cluster_reports_flat,
    cluster_reports_xy,
)
from repro.core.location import LocatedDecision
from repro.network.topology import Deployment
from repro.obs.spans import NULL_SPANS

__all__ = [
    "DecisionKernel",
    "ReportBuffer",
]

Voter = Union[CtiVoter, MajorityVoter]

#: Window size below which the kernel runs its flat scalar route.
#: Experiment windows shrink to a handful of reports after dedupe and
#: the §2.1 gate, where per-ufunc dispatch overhead (~1-2us a call)
#: swamps the actual arithmetic; plain float loops over the same row
#: data win until roughly this many reports.
_SMALL_WINDOW_ROWS = 32


def _in_sorted(sorted_values: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Boolean membership of ``queries`` in a sorted int array.

    ``np.isin`` semantics at a fraction of the dispatch cost: one
    searchsorted plus a gather-compare instead of isin's internal
    sort/unique machinery (~5x faster on the small arrays the decision
    pipeline deals in).
    """
    if sorted_values.size == 0:
        return np.zeros(queries.shape, dtype=bool)
    pos = np.searchsorted(sorted_values, queries)
    pos[pos == sorted_values.size] = 0
    return sorted_values[pos] == queries


class ReportBuffer:
    """Growing preallocated row arrays for one CH's report stream.

    One row per accepted report: ``ids`` (int64 node id), ``xs`` /
    ``ys`` (float64 resolved event location), ``times`` (float64
    arrival time).  Rows accumulate across overlapping collection
    circles and the tracker resets the buffer whenever every circle has
    closed, so capacity tracks the largest burst, not the run length.
    """

    __slots__ = ("ids", "xs", "ys", "times", "_len")

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.ids = np.empty(capacity, dtype=np.int64)
        self.xs = np.empty(capacity, dtype=np.float64)
        self.ys = np.empty(capacity, dtype=np.float64)
        self.times = np.empty(capacity, dtype=np.float64)
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def append(self, node_id: int, x: float, y: float, time: float) -> int:
        """Store one report row; returns its row index."""
        row = self._len
        if row == len(self.ids):
            self._grow()
        self.ids[row] = node_id
        self.xs[row] = x
        self.ys[row] = y
        self.times[row] = time
        self._len = row + 1
        return row

    def _grow(self) -> None:
        cap = 2 * len(self.ids)
        for name in ("ids", "xs", "ys", "times"):
            old = getattr(self, name)
            grown = np.empty(cap, dtype=old.dtype)
            grown[: self._len] = old[: self._len]
            setattr(self, name, grown)

    def reset(self) -> None:
        """Forget every row (all referencing circles have closed)."""
        self._len = 0


class DecisionKernel:
    """Turns closed windows of buffer rows into located decisions.

    Parameters
    ----------
    deployment:
        Node positions; the CH "knows the topology of the cluster" (§2)
        and uses it both to gate claims and to find event neighbours.
    sensing_radius:
        ``r_s`` -- nodes within this range of a location are its event
        neighbours and were expected to report.
    r_error:
        The localisation error bound used by the clustering heuristic.
    voter:
        A :class:`CtiVoter` (TIBFIT) or :class:`MajorityVoter`
        (baseline).
    """

    #: Span collector (rebound by ``ClusterHead.attach``); the class
    #: default keeps standalone kernels span-free at zero cost.
    spans = NULL_SPANS

    def __init__(
        self,
        deployment: Deployment,
        sensing_radius: float,
        r_error: float,
        voter: Voter,
    ) -> None:
        if sensing_radius <= 0:
            raise ValueError(
                f"sensing_radius must be positive, got {sensing_radius}"
            )
        if r_error <= 0:
            raise ValueError(f"r_error must be positive, got {r_error}")
        self.deployment = deployment
        self.sensing_radius = sensing_radius
        self.r_error = r_error
        self.voter = voter
        self._limit = sensing_radius + r_error
        self._has_trust = hasattr(voter, "trust")
        # id -> (x, y) dict for the small-window scalar route, rebuilt
        # whenever the deployment's coords snapshot changes identity.
        self._pos: dict = {}
        self._pos_key: Optional[np.ndarray] = None
        # Warm the spatial index with r_s as the grid cell size: every
        # per-cluster event-neighbour query is a disk of exactly this
        # radius, so a query touches at most a 3x3 block of cells.
        deployment.ensure_index(sensing_radius)

    def _positions(self) -> dict:
        sid, sxs, sys_ = self.deployment.coords_arrays()
        if sid is not self._pos_key:
            self._pos = dict(
                zip(sid.tolist(), zip(sxs.tolist(), sys_.tolist()))
            )
            self._pos_key = sid
        return self._pos

    def decide_rows(
        self,
        buffer: ReportBuffer,
        rows: np.ndarray,
        excluded_nodes: Sequence[int] = (),
    ) -> List[LocatedDecision]:
        """Process one closed window given as buffer row indices.

        ``rows`` must already be sorted by ``(time, node_id)`` -- the
        circle tracker's close order.  Duplicate reports from one node
        keep only the earliest (a faulty node cannot stuff the ballot);
        reports from ``excluded_nodes`` (diagnosed and isolated) are
        ignored, and those nodes are not counted as expected reporters.

        Returns one :class:`~repro.core.location.LocatedDecision` per
        event cluster, dominant cluster first; empty when no usable
        report arrived.
        """
        if len(rows) < _SMALL_WINDOW_ROWS:
            return self._decide_rows_small(buffer, rows, excluded_nodes)

        ids = buffer.ids[rows]
        xs = buffer.xs[rows]
        ys = buffer.ys[rows]

        # Dedupe: first row per node wins.  np.unique returns the first
        # occurrence index of each distinct id; re-sorting those indices
        # restores (time, node_id) window order.
        uniq, first = np.unique(ids, return_index=True)
        if uniq.size != ids.size:
            keep = np.sort(first)
            ids = ids[keep]
            xs = xs[keep]
            ys = ys[keep]

        excl: Optional[np.ndarray] = None
        if excluded_nodes:
            excl = np.sort(np.asarray(
                tuple(excluded_nodes), dtype=np.int64
            ))
            mask = ~_in_sorted(excl, ids)
            if not mask.all():
                ids = ids[mask]
                xs = xs[mask]
                ys = ys[mask]
        if ids.size == 0:
            return []

        # §2.1 implausibility gate: a claim farther than r_s + r_error
        # from its sender's position is false on its face.  Unknown
        # senders are dropped without penalty.
        sid, sxs, sys_ = self.deployment.coords_arrays()
        if sid.size:
            slot = np.searchsorted(sid, ids)
            slot[slot == sid.size] = 0  # clamp; equality check rejects
            known = sid[slot] == ids
            dx = sxs[slot] - xs
            dy = sys_[slot] - ys
            plausible = known & (
                np.sqrt(dx * dx + dy * dy) <= self._limit
            )
            liars = known & ~plausible
            spans = self.spans
            if spans.enabled:
                # Emitted before the gate penalties so those trust
                # transitions parent under the filter span.
                spans.current = spans.point(
                    "window.filter",
                    parent=spans.current,
                    window=int(len(rows)),
                    kept=ids[plausible].tolist(),
                    gated=ids[liars].tolist(),
                )
            if liars.any() and self._has_trust:
                self.voter.trust.penalize_many(ids[liars].tolist())
            if not plausible.all():
                ids = ids[plausible]
                xs = xs[plausible]
                ys = ys[plausible]
        else:
            # Empty deployment: every sender is unknown.
            return []
        if ids.size == 0:
            return []

        clusters = cluster_reports_xy(xs, ys, self.r_error)
        return self._vote_clusters(clusters, self._vote_cluster, ids, excl)

    def _vote_clusters(
        self,
        clusters: List[ReportCluster],
        vote: Callable[..., LocatedDecision],
        ids,
        excluded,
    ) -> List[LocatedDecision]:
        """One ``vote(cluster, ids, excluded)`` per cluster, in order."""
        spans = self.spans
        if not spans.enabled:
            return [vote(cluster, ids, excluded) for cluster in clusters]
        # Each cluster parents under the window.filter span, not under
        # its sibling cluster's vote machinery.
        window_ctx = spans.current
        decisions: List[LocatedDecision] = []
        for cluster in clusters:
            spans.current = window_ctx
            decisions.append(vote(cluster, ids, excluded))
        spans.current = window_ctx
        return decisions

    def _decide_rows_small(
        self,
        buffer: ReportBuffer,
        rows: np.ndarray,
        excluded_nodes: Sequence[int],
    ) -> List[LocatedDecision]:
        """Flat scalar window route: same pipeline, zero ufunc dispatch.

        Dedupe is a seen-set pass over the pre-sorted rows, the §2.1
        gate is a dict position lookup plus one scalar ``sqrt`` per
        report, and clustering runs the float-list route.  Every
        operation and its order match the vectorised route.
        """
        ids = buffer.ids[rows].tolist()
        xs = buffer.xs[rows].tolist()
        ys = buffer.ys[rows].tolist()
        excluded = set(excluded_nodes)
        positions = self._positions()
        limit = self._limit

        # Seeding the seen-set with the exclusions folds the excluded
        # check into the duplicate check: both mean "skip this row with
        # no gate and no penalty".
        seen: set = set(excluded)
        f_ids: List[int] = []
        f_xs: List[float] = []
        f_ys: List[float] = []
        liars: List[int] = []
        get = positions.get
        for idx in range(len(ids)):
            node_id = ids[idx]
            if node_id in seen:
                continue
            seen.add(node_id)
            pos = get(node_id)
            if pos is None:
                continue  # unknown sender: dropped, no penalty
            x = xs[idx]
            y = ys[idx]
            dx = pos[0] - x
            dy = pos[1] - y
            if math.sqrt(dx * dx + dy * dy) <= limit:
                f_ids.append(node_id)
                f_xs.append(x)
                f_ys.append(y)
            else:
                liars.append(node_id)
        spans = self.spans
        if spans.enabled:
            # Same filter-span structure as the vectorised route:
            # emitted before the gate penalties.
            spans.current = spans.point(
                "window.filter",
                parent=spans.current,
                window=int(len(rows)),
                kept=list(f_ids),
                gated=list(liars),
            )
        if liars and self._has_trust:
            self.voter.trust.penalize_many(liars)
        if not f_ids:
            return []

        # The gate decides the clustering route, not the raw window: a
        # 30-report window that gates down to a handful of survivors
        # still belongs on the flat path, and vice versa.
        if len(f_ids) < _FLAT_MIN_NUMPY:
            clusters = cluster_reports_flat(f_xs, f_ys, self.r_error)
        else:
            clusters = cluster_reports_xy(
                np.asarray(f_xs), np.asarray(f_ys), self.r_error
            )
        return self._vote_clusters(
            clusters, self._vote_cluster_small, f_ids, excluded
        )

    def _vote_cluster_small(
        self,
        cluster: ReportCluster,
        ids: List[int],
        excluded: set,
    ) -> LocatedDecision:
        """Scalar supporter/dissenter split with Python sets."""
        supporters = tuple(sorted([ids[i] for i in cluster.indices]))
        supporter_set = set(supporters)
        center = cluster.center
        # event_neighbors_list has the same membership and ascending
        # order as Deployment.event_neighbors, through the memoised
        # cell-range rows instead of a per-query bucket gather.
        neighbors = self.deployment.event_neighbors_list(
            center.x, center.y, self.sensing_radius
        )
        if excluded:
            neighbors = [
                node_id for node_id in neighbors
                if node_id not in excluded
            ]
        dissenters = tuple(
            [n for n in neighbors if n not in supporter_set]
        )
        spans = self.spans
        cluster_ctx = 0
        if spans.enabled:
            cluster_ctx = spans.point(
                "window.cluster",
                parent=spans.current,
                x=center.x,
                y=center.y,
                members=list(supporters),
                dissenters=list(dissenters),
            )
            spans.current = cluster_ctx
        if supporter_set.isdisjoint(neighbors):
            if self._has_trust:
                self.voter.trust.penalize_many(supporters)
            return LocatedDecision(
                occurred=False,
                location=center,
                supporters=supporters,
                dissenters=dissenters,
                vote=None,
                span_id=cluster_ctx,
            )
        vote = self.voter.decide(supporters, dissenters)
        return LocatedDecision(
            occurred=vote.occurred,
            location=center,
            supporters=supporters,
            dissenters=dissenters,
            vote=vote,
            span_id=cluster_ctx,
        )

    def _vote_cluster(
        self,
        cluster: ReportCluster,
        ids: np.ndarray,
        excl: Optional[np.ndarray],
    ) -> LocatedDecision:
        members = ids[np.asarray(cluster.indices, dtype=np.intp)]
        supporters_arr = np.sort(members)
        center = cluster.center
        neighbors = self.deployment.event_neighbors_array(
            center.x, center.y, self.sensing_radius
        )
        if excl is not None and neighbors.size:
            neighbors = neighbors[~_in_sorted(excl, neighbors)]
        in_sup = _in_sorted(supporters_arr, neighbors)
        supporters: Tuple[int, ...] = tuple(supporters_arr.tolist())
        dissenters: Tuple[int, ...] = tuple(
            neighbors[~in_sup].tolist()
        )
        spans = self.spans
        cluster_ctx = 0
        if spans.enabled:
            cluster_ctx = spans.point(
                "window.cluster",
                parent=spans.current,
                x=center.x,
                y=center.y,
                members=list(supporters),
                dissenters=list(dissenters),
            )
            spans.current = cluster_ctx
        if not in_sup.any():
            # No claimant could have sensed an event where the cluster
            # implies one: the cluster refutes itself (§2.1 caught
            # after clustering).  Claimants are penalised, nobody is
            # rewarded.
            if self._has_trust:
                self.voter.trust.penalize_many(supporters)
            return LocatedDecision(
                occurred=False,
                location=center,
                supporters=supporters,
                dissenters=dissenters,
                vote=None,
                span_id=cluster_ctx,
            )
        vote = self.voter.decide(supporters, dissenters)
        return LocatedDecision(
            occurred=vote.occurred,
            location=center,
            supporters=supporters,
            dissenters=dissenters,
            vote=vote,
            span_id=cluster_ctx,
        )
