"""Dict-of-entries reference for :class:`repro.core.trust.TrustTable`.

This is the original trust table: one mutable :class:`TrustEntry` per
node, with every TI derived on demand through
:meth:`TrustParameters.ti_of` and every batch or vote applied as a loop
of scalar updates.  It is kept here only so the production table can be
checked against it, bit for bit, by the randomized and Hypothesis
equivalence suites.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Tuple

from repro.core.trust import _V_EPSILON, TrustEntry, TrustParameters
from repro.obs.spans import NULL_SPANS


class TrustTableReference:
    """Dict-of-entries trust table: the retained reference oracle.

    This is the original implementation, kept semantically frozen so the
    randomized equivalence suites can prove the flat-array engine
    bit-identical.  It also implements the batch / vote API (naively, by
    looping the scalar operations exactly as the pre-flat-array
    ``CtiVoter.decide`` did) so either table can back a voter.
    """

    _V_EPSILON = _V_EPSILON

    #: Same span hooks as :class:`TrustTable` (see there).
    spans = NULL_SPANS
    _in_vote = False

    def __init__(
        self,
        params: TrustParameters,
        node_ids: Iterable[int] = (),
    ) -> None:
        self.params = params
        self._entries: Dict[int, TrustEntry] = {
            node_id: TrustEntry() for node_id in node_ids
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, node_id: int) -> bool:
        return node_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._entries))

    def entry(self, node_id: int) -> TrustEntry:
        """The (auto-created) entry for ``node_id``."""
        found = self._entries.get(node_id)
        if found is None:
            found = TrustEntry()
            self._entries[node_id] = found
        return found

    def ti(self, node_id: int) -> float:
        """Trust index of ``node_id`` (1.0 for never-seen nodes)."""
        found = self._entries.get(node_id)
        if found is None:
            return 1.0
        return self.params.ti_of(found.v)

    def cti(self, node_ids: Iterable[int]) -> float:
        """Cumulative trust index of a group (§3.1)."""
        return sum(self.ti(node_id) for node_id in node_ids)

    def total_ti(self) -> float:
        """Sum of every registered node's TI, in ascending id order."""
        return sum(self.ti(node_id) for node_id in sorted(self._entries))

    def cti_complement(self, node_ids: Iterable[int]) -> float:
        """CTI of every registered node not in ``node_ids``."""
        inside = sum(
            self.ti(node_id)
            for node_id in set(node_ids)
            if node_id in self._entries
        )
        return self.total_ti() - inside

    def tis(self) -> Dict[int, float]:
        """Snapshot mapping of node id to current TI."""
        return {node_id: self.ti(node_id) for node_id in self._entries}

    def code_table_size(self) -> int:
        """Distinct accumulator values currently held (API parity)."""
        return len({entry.v for entry in self._entries.values()})

    def below_threshold(self, ti_threshold: float) -> Tuple[int, ...]:
        """Node ids whose TI has fallen strictly below ``ti_threshold``."""
        return tuple(
            sorted(
                node_id
                for node_id in self._entries
                if self.ti(node_id) < ti_threshold
            )
        )

    # ------------------------------------------------------------------
    # CTI voting (naive reference)
    # ------------------------------------------------------------------
    def cti_vote(
        self,
        reporters: Iterable[int],
        non_reporters: Iterable[int],
        apply_updates: bool = True,
        tie_breaks_to_occurred: bool = False,
    ) -> Tuple[bool, tuple, tuple, float, float, bool, tuple, tuple]:
        """One full CTI vote, element by element (the oracle path)."""
        r_set = set(reporters)
        nr_set = set(non_reporters)
        overlap = r_set & nr_set
        if overlap:
            raise ValueError(
                f"nodes {sorted(overlap)} appear as both reporter and "
                "non-reporter"
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
                # Vote-level spans come from the CtiVoter; suppress the
                # per-node transition spans for the duration.
                self._in_vote = True
                try:
                    for node_id in winners:
                        self.reward(node_id)
                    for node_id in losers:
                        self.penalize(node_id)
                finally:
                    self._in_vote = False
            else:
                for node_id in winners:
                    self.reward(node_id)
                for node_id in losers:
                    self.penalize(node_id)
        return occurred, r, nr, cti_r, cti_nr, tie, winners, losers

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def penalize(self, node_id: int) -> float:
        """Charge one faulty report: ``v += 1 - f_r``.  Returns new TI."""
        entry = self.entry(node_id)
        entry.v += self.params.penalty_step
        entry.faulty_reports += 1
        ti = self.params.ti_of(entry.v)
        spans = self.spans
        if spans.enabled and not self._in_vote:
            spans.point(
                "trust.penalize",
                parent=spans.current,
                nodes=[node_id],
                ti=[ti],
            )
        return ti

    def reward(self, node_id: int) -> float:
        """Credit one correct report: ``v = max(0, v - f_r)``.  Returns TI."""
        entry = self.entry(node_id)
        v = entry.v - self.params.reward_step
        entry.v = 0.0 if v < self._V_EPSILON else v
        entry.correct_reports += 1
        ti = self.params.ti_of(entry.v)
        spans = self.spans
        if spans.enabled and not self._in_vote:
            spans.point(
                "trust.reward",
                parent=spans.current,
                nodes=[node_id],
                ti=[ti],
            )
        return ti

    def penalize_many(self, node_ids: Iterable[int]) -> None:
        """Batch penalty: one :meth:`penalize` per node, TI discarded."""
        spans = self.spans
        if spans.enabled and not self._in_vote:
            # One batched span mirroring TrustTable.penalize_many; the
            # scalar calls' own spans are suppressed for the duration.
            node_ids = list(node_ids)
            self._in_vote = True
            try:
                for node_id in node_ids:
                    self.penalize(node_id)
            finally:
                self._in_vote = False
            if node_ids:
                spans.point(
                    "trust.penalize",
                    parent=spans.current,
                    nodes=list(node_ids),
                    ti=[self.ti(n) for n in node_ids],
                )
            return
        for node_id in node_ids:
            self.penalize(node_id)

    def reward_many(self, node_ids: Iterable[int]) -> None:
        """Batch reward: one :meth:`reward` per node, TI discarded."""
        spans = self.spans
        if spans.enabled and not self._in_vote:
            node_ids = list(node_ids)
            self._in_vote = True
            try:
                for node_id in node_ids:
                    self.reward(node_id)
            finally:
                self._in_vote = False
            if node_ids:
                spans.point(
                    "trust.reward",
                    parent=spans.current,
                    nodes=list(node_ids),
                    ti=[self.ti(n) for n in node_ids],
                )
            return
        for node_id in node_ids:
            self.reward(node_id)

    def set_v(self, node_id: int, v: float) -> None:
        """Force a node's accumulator (used when restoring transfers)."""
        if v < 0:
            raise ValueError(f"v must be non-negative, got {v}")
        self.entry(node_id).v = v

    def forget(self, node_id: int) -> None:
        """Drop a node's entry entirely (isolation from the cluster)."""
        self._entries.pop(node_id, None)

    # ------------------------------------------------------------------
    # Serialisation / hand-off
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[int, float]:
        """``{node_id: v}`` snapshot for transfer to the base station."""
        return {node_id: entry.v for node_id, entry in self._entries.items()}

    def import_state(self, state: Mapping[int, float]) -> None:
        """Merge a transferred ``{node_id: v}`` snapshot into this table."""
        for node_id, v in state.items():
            self.set_v(node_id, v)

    def clone(self) -> "TrustTableReference":
        """Deep copy -- shadow cluster heads mirror the CH this way."""
        copy = TrustTableReference(self.params)
        for node_id, entry in self._entries.items():
            copy._entries[node_id] = TrustEntry(
                v=entry.v,
                correct_reports=entry.correct_reports,
                faulty_reports=entry.faulty_reports,
            )
        return copy

    def __repr__(self) -> str:
        return (
            f"TrustTableReference(lambda={self.params.lam}, "
            f"f_r={self.params.fault_rate}, nodes={len(self._entries)})"
        )
