"""The trust-index (TI) model of §3.

Each node is assigned a trust index maintained at the cluster head.  The
CH keeps, per node, a fault accumulator ``v`` (non-negative real):

* a report the CH deems **faulty** increments ``v`` by ``1 - f_r``;
* a report the CH deems **correct** decrements ``v`` by ``f_r``, floored
  at zero;

and the trust index is the derived quantity ``TI = exp(-lambda * v)``,
so a fresh node starts at ``TI = 1`` and trust decays *exponentially*
with accumulated misbehaviour.  ``f_r`` is the *fault rate* the system
charges against -- the expected natural error rate of a correct node --
so a node erring exactly at rate ``f_r`` has ``E[delta v] = 0`` and its
TI performs a random walk around its current value, while a node erring
more often drifts down and one erring less often recovers toward 1.

``lambda`` controls how sharply trust decays; the paper uses 0.1 for the
binary experiments (Table 1) and 0.25 for the location experiments
(Table 2), and §5 analyses its effect on how fast compromised nodes can
be absorbed (Fig. 11).

:class:`TrustTable` holds one row per node, ``[v, ti, correct_reports,
faulty_reports]``, in a dict keyed by node id.  An update does the
scalar ``v`` arithmetic and refreshes the row's cached ``ti``; a read is
one dict lookup.  The cached TI is ``math.exp(-lam * v)``, the same bits
:meth:`TrustParameters.ti_of` gives (IEEE-754 negation commutes with
multiplication).  CTIs sum left to right in iterable order from 0.0, and
never-seen nodes count 1.0 without being registered.  The original
dict-of-entries table survives as the test oracle in
``tests/oracles/trust.py``; the equivalence suites hold this table
bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Tuple

from repro.obs.spans import NULL_SPANS

_exp = math.exp


@dataclass(frozen=True)
class TrustParameters:
    """Parameters of the TI update rule.

    Attributes
    ----------
    lam:
        The exponential decay constant ``lambda`` (> 0).
    fault_rate:
        ``f_r``, the tolerated natural error rate (in ``[0, 1)``).  Note
        Table 2 deliberately sets ``f_r = 0.1`` above the correct nodes'
        NER "to compensate for wireless channel model losses".
    """

    lam: float = 0.25
    fault_rate: float = 0.1

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if not 0.0 <= self.fault_rate < 1.0:
            raise ValueError(
                f"fault_rate must be in [0, 1), got {self.fault_rate}"
            )

    @property
    def penalty_step(self) -> float:
        """Increment applied to ``v`` for a faulty report: ``1 - f_r``."""
        return 1.0 - self.fault_rate

    @property
    def reward_step(self) -> float:
        """Decrement applied to ``v`` for a correct report: ``f_r``."""
        return self.fault_rate

    def ti_of(self, v: float) -> float:
        """Trust index corresponding to an accumulator value ``v``."""
        return math.exp(-self.lam * v)

    def v_of(self, ti: float) -> float:
        """Accumulator value corresponding to a trust index (inverse map)."""
        if not 0.0 < ti <= 1.0:
            raise ValueError(f"ti must be in (0, 1], got {ti}")
        return -math.log(ti) / self.lam


@dataclass
class TrustEntry:
    """Per-node trust state held at the cluster head.

    Only ``v`` is primary state; the TI is derived on demand.
    """

    v: float = 0.0
    correct_reports: int = 0
    faulty_reports: int = 0

    def __post_init__(self) -> None:
        if self.v < 0:
            raise ValueError(f"v must be non-negative, got {self.v}")


# Accumulated rounding from repeated reward subtractions is bounded
# by ~(recovery horizon) * ulp(1) ~ 1e-11; anything below this snaps
# to zero so a fully repaid penalty restores TI to exactly 1.0.
_V_EPSILON = 1e-9

# Row layout: [v, ti, correct_reports, faulty_reports].
_V, _TI, _CORRECT, _FAULTY = 0, 1, 2, 3


class _RowView:
    """Live, :class:`TrustEntry`-shaped view of one node's row.

    Reads see the row's current state; writing ``v`` refreshes the
    cached TI, so the row never goes stale.
    """

    __slots__ = ("_row", "_neg_lam")

    def __init__(self, row: list, neg_lam: float) -> None:
        self._row = row
        self._neg_lam = neg_lam

    @property
    def v(self) -> float:
        return self._row[_V]

    @v.setter
    def v(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"v must be non-negative, got {value}")
        value = float(value)
        self._row[_V] = value
        self._row[_TI] = _exp(self._neg_lam * value)

    @property
    def correct_reports(self) -> int:
        return self._row[_CORRECT]

    @correct_reports.setter
    def correct_reports(self, value: int) -> None:
        self._row[_CORRECT] = value

    @property
    def faulty_reports(self) -> int:
        return self._row[_FAULTY]

    @faulty_reports.setter
    def faulty_reports(self, value: int) -> None:
        self._row[_FAULTY] = value

    def __repr__(self) -> str:
        return (
            f"TrustEntry(v={self.v}, correct_reports={self.correct_reports}, "
            f"faulty_reports={self.faulty_reports})"
        )


class TrustTable:
    """The cluster head's table of trust entries for its member nodes.

    One dict maps each node id to its row ``[v, ti, correct_reports,
    faulty_reports]``; ``ti`` is cached next to ``v`` and refreshed by
    every update, so queries and votes never evaluate ``exp``.

    The table is the unit of state handed between cluster-head
    generations via the base station (§2): serialising ``{node: v}``
    preserves everything, because TI is derived.

    Parameters
    ----------
    params:
        TI update-rule parameters.
    node_ids:
        Nodes to pre-register at full trust (``v = 0``).  Unknown nodes
        are also auto-registered on first update.
    """

    _V_EPSILON = _V_EPSILON

    #: Span collector (rebound by ``ClusterHead.attach``).  Class-level
    #: default so clones fall back to the disabled collector and emit
    #: nothing.
    spans = NULL_SPANS
    #: True while ``cti_vote`` applies its updates: the vote-level spans
    #: are emitted by :class:`~repro.core.binary.CtiVoter`, so the
    #: table-level transition spans stay silent to avoid doubles.
    _in_vote = False

    def __init__(
        self,
        params: TrustParameters,
        node_ids: Iterable[int] = (),
    ) -> None:
        self.params = params
        # (-lam) * v has the same bits as -(lam * v): ti_of's value.
        self._neg_lam = -params.lam
        self._penalty_step = params.penalty_step
        self._reward_step = params.reward_step
        self._rows: Dict[int, list] = {
            node_id: [0.0, 1.0, 0, 0] for node_id in node_ids
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, node_id: int) -> bool:
        return node_id in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._rows))

    def entry(self, node_id: int) -> _RowView:
        """A live view of the (auto-created) entry for ``node_id``."""
        row = self._rows.get(node_id)
        if row is None:
            row = self._rows[node_id] = [0.0, 1.0, 0, 0]
        return _RowView(row, self._neg_lam)

    def ti(self, node_id: int) -> float:
        """Trust index of ``node_id`` (1.0 for never-seen nodes)."""
        row = self._rows.get(node_id)
        return 1.0 if row is None else row[_TI]

    def cti(self, node_ids: Iterable[int]) -> float:
        """Cumulative trust index of a group (§3.1).

        Sums left-to-right in iterable order from 0.0; never-seen nodes
        count 1.0 and are *not* registered.
        """
        get = self._rows.get
        total = 0.0
        for node_id in node_ids:
            row = get(node_id)
            total += 1.0 if row is None else row[_TI]
        return total

    def total_ti(self) -> float:
        """Sum of every registered node's TI, in ascending id order.

        With :meth:`cti_complement` this makes a whole-table CTI query
        O(|group|); note the subtraction re-associates the float sum,
        so the complement is ulp-accurate rather than bit-identical to
        a direct gather -- which is why the in-protocol voter keeps
        exact per-group sums (see ``docs/protocol.md``).
        """
        return self.cti(sorted(self._rows))

    def cti_complement(self, node_ids: Iterable[int]) -> float:
        """CTI of every registered node *not* in ``node_ids``.

        Ids outside the table are ignored -- they are not registered
        members, so their complement weight is zero by definition.
        """
        get = self._rows.get
        inside = 0.0
        for node_id in set(node_ids):
            row = get(node_id)
            if row is not None:
                inside += row[_TI]
        return self.total_ti() - inside

    def tis(self) -> Dict[int, float]:
        """Snapshot mapping of node id to current TI."""
        return {node_id: row[_TI] for node_id, row in self._rows.items()}

    def code_table_size(self) -> int:
        """Number of distinct accumulator values among the rows.

        The observability layer samples this as a gauge of accumulator
        diversity; it is bounded by the number of rows.
        """
        return len({row[_V] for row in self._rows.values()})

    def below_threshold(self, ti_threshold: float) -> Tuple[int, ...]:
        """Node ids whose TI has fallen strictly below ``ti_threshold``."""
        return tuple(sorted(
            node_id
            for node_id, row in self._rows.items()
            if row[_TI] < ti_threshold
        ))

    # ------------------------------------------------------------------
    # CTI voting
    # ------------------------------------------------------------------
    def cti_vote(
        self,
        reporters: Iterable[int],
        non_reporters: Iterable[int],
        apply_updates: bool = True,
        tie_breaks_to_occurred: bool = False,
    ) -> Tuple[bool, tuple, tuple, float, float, bool, tuple, tuple]:
        """One full §3.1 CTI vote: sum both groups, update both.

        Returns ``(occurred, r, nr, cti_r, cti_nr, tie, winners,
        losers)``; :class:`~repro.core.binary.CtiVoter` wraps this in a
        ``BinaryVoteResult``.  Both groups are deduplicated and sorted;
        a node in both raises ``ValueError``.  Winners are rewarded
        before losers are penalised.
        """
        r_set = set(reporters)
        nr_set = set(non_reporters)
        if not r_set.isdisjoint(nr_set):
            raise ValueError(
                f"nodes {sorted(r_set & nr_set)} appear as both reporter "
                "and non-reporter"
            )
        r = tuple(sorted(r_set))
        nr = tuple(sorted(nr_set))
        cti_r = self.cti(r)
        cti_nr = self.cti(nr)
        tie = cti_r == cti_nr
        occurred = tie_breaks_to_occurred if tie else cti_r > cti_nr
        winners, losers = (r, nr) if occurred else (nr, r)
        if apply_updates:
            if self.spans.enabled:
                self._in_vote = True
                try:
                    self.reward_many(winners)
                    self.penalize_many(losers)
                finally:
                    self._in_vote = False
            else:
                self.reward_many(winners)
                self.penalize_many(losers)
        return occurred, r, nr, cti_r, cti_nr, tie, winners, losers

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def penalize(self, node_id: int) -> float:
        """Charge one faulty report: ``v += 1 - f_r``.  Returns new TI."""
        self.penalize_many((node_id,))
        return self._rows[node_id][_TI]

    def reward(self, node_id: int) -> float:
        """Credit one correct report: ``v = max(0, v - f_r)``.  Returns TI."""
        self.reward_many((node_id,))
        return self._rows[node_id][_TI]

    def penalize_many(self, node_ids: Iterable[int]) -> None:
        """Charge one faulty report to each node (batch, no TI returned)."""
        spans = self.spans
        spanned = spans.enabled and not self._in_vote
        if spanned:
            node_ids = list(node_ids)
        rows = self._rows
        step = self._penalty_step
        neg_lam = self._neg_lam
        for node_id in node_ids:
            row = rows.get(node_id)
            if row is None:
                row = rows[node_id] = [0.0, 1.0, 0, 0]
            v = row[_V] + step
            row[_V] = v
            row[_TI] = _exp(neg_lam * v)
            row[_FAULTY] += 1
        if spanned and node_ids:
            spans.point(
                "trust.penalize",
                parent=spans.current,
                nodes=list(node_ids),
                ti=[rows[n][_TI] for n in node_ids],
            )

    def reward_many(self, node_ids: Iterable[int]) -> None:
        """Credit one correct report to each node (batch, no TI returned).

        Differences below ``_V_EPSILON`` snap to exactly ``v = 0.0``,
        ``TI = 1.0``.
        """
        spans = self.spans
        spanned = spans.enabled and not self._in_vote
        if spanned:
            node_ids = list(node_ids)
        rows = self._rows
        step = self._reward_step
        neg_lam = self._neg_lam
        for node_id in node_ids:
            row = rows.get(node_id)
            if row is None:
                row = rows[node_id] = [0.0, 1.0, 0, 0]
            v = row[_V] - step
            if v < _V_EPSILON:
                row[_V] = 0.0
                row[_TI] = 1.0
            else:
                row[_V] = v
                row[_TI] = _exp(neg_lam * v)
            row[_CORRECT] += 1
        if spanned and node_ids:
            spans.point(
                "trust.reward",
                parent=spans.current,
                nodes=list(node_ids),
                ti=[rows[n][_TI] for n in node_ids],
            )

    def set_v(self, node_id: int, v: float) -> None:
        """Force a node's accumulator (used when restoring transfers)."""
        self.entry(node_id).v = v

    def forget(self, node_id: int) -> None:
        """Drop a node's entry entirely (isolation from the cluster)."""
        self._rows.pop(node_id, None)

    # ------------------------------------------------------------------
    # Serialisation / hand-off
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[int, float]:
        """``{node_id: v}`` snapshot for transfer to the base station."""
        return {node_id: row[_V] for node_id, row in self._rows.items()}

    def import_state(self, state: Mapping[int, float]) -> None:
        """Merge a transferred ``{node_id: v}`` snapshot into this table."""
        for node_id, v in state.items():
            self.set_v(node_id, v)

    def clone(self) -> "TrustTable":
        """Row-by-row copy -- shadow cluster heads mirror the CH this way."""
        copy = TrustTable(self.params)
        copy._rows = {node_id: row[:] for node_id, row in self._rows.items()}
        return copy

    def __repr__(self) -> str:
        return (
            f"TrustTable(lambda={self.params.lam}, f_r={self.params.fault_rate}, "
            f"nodes={len(self._rows)})"
        )
