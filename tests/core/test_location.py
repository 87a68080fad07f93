"""Unit tests for the location-determination decision pipeline (§3.2).

Windows are fed to :class:`~repro.core.decision_kernel.DecisionKernel`
the way the circle tracker delivers them: one buffer row per report,
closed as a ``(time, node_id)``-lexsorted row-index array.
"""

import numpy as np
import pytest

from repro.core.baseline import MajorityVoter
from repro.core.binary import CtiVoter
from repro.core.decision_kernel import DecisionKernel, ReportBuffer
from repro.core.trust import TrustParameters, TrustTable
from repro.network.geometry import Point, Region
from repro.network.topology import Deployment


def make_kernel(positions, voter=None, r_s=20.0, r_error=5.0):
    deployment = Deployment(region=Region.square(100.0))
    for node_id, pos in positions.items():
        deployment.add(node_id, pos)
    if voter is None:
        table = TrustTable(
            TrustParameters(lam=0.25, fault_rate=0.1),
            node_ids=positions.keys(),
        )
        voter = CtiVoter(table)
    return (
        DecisionKernel(
            deployment=deployment,
            sensing_radius=r_s,
            r_error=r_error,
            voter=voter,
        ),
        voter,
    )


def decide(kernel, reports, excluded_nodes=()):
    """Decide one window of ``(node_id, x, y[, time])`` reports."""
    buf = ReportBuffer()
    rows = np.asarray(
        [buf.append(r[0], r[1], r[2], r[3] if len(r) > 3 else 0.0)
         for r in reports],
        dtype=np.intp,
    )
    order = np.lexsort((buf.ids[rows], buf.times[rows]))
    return kernel.decide_rows(buf, rows[order], excluded_nodes)


CROWD = {
    0: Point(45.0, 45.0),
    1: Point(55.0, 45.0),
    2: Point(45.0, 55.0),
    3: Point(55.0, 55.0),
    4: Point(50.0, 40.0),
}


class TestDecisions:
    def test_unanimous_reports_yield_located_event(self):
        kernel, _ = make_kernel(CROWD)
        decisions = decide(kernel, [(i, 50.0, 50.0) for i in CROWD])
        assert len(decisions) == 1
        assert decisions[0].occurred
        assert decisions[0].location.distance_to(Point(50.0, 50.0)) < 0.01
        assert decisions[0].supporters == (0, 1, 2, 3, 4)

    def test_no_reports_yield_no_decisions(self):
        kernel, _ = make_kernel(CROWD)
        assert decide(kernel, []) == []

    def test_lone_false_report_is_outvoted(self):
        """A single liar's cluster loses to the silent trusted majority."""
        kernel, _ = make_kernel(CROWD)
        decisions = decide(kernel, [(0, 50.0, 50.0)])
        assert len(decisions) == 1
        assert not decisions[0].occurred
        assert decisions[0].supporters == (0,)
        assert set(decisions[0].dissenters) == {1, 2, 3, 4}

    def test_outlier_report_forms_losing_side_cluster(self):
        """§3.2: localisation errors beyond r_error are thrown out --
        the good cluster still wins and is well-located."""
        kernel, _ = make_kernel(CROWD)
        decisions = decide(kernel, [
            (0, 50.0, 50.0),
            (1, 50.5, 49.5),
            (2, 49.4, 50.2),
            (3, 70.0, 70.0),  # liar
        ])
        occurred = [d for d in decisions if d.occurred]
        assert len(occurred) == 1
        assert occurred[0].location.distance_to(Point(50.0, 50.0)) < 2.0
        rejected = [d for d in decisions if not d.occurred]
        assert any(d.supporters == (3,) for d in rejected)

    def test_duplicate_reports_from_one_node_keep_earliest(self):
        kernel, _ = make_kernel(CROWD)
        decisions = decide(kernel, [
            (0, 50.0, 50.0, 1.0),
            (0, 80.0, 80.0, 2.0),
        ])
        all_supporters = [d.supporters for d in decisions]
        assert ((0,) in all_supporters)
        # The node's second (conflicting) report is ignored entirely.
        assert len([d for d in decisions if 0 in d.supporters]) == 1

    def test_out_of_order_duplicate_reports_keep_earliest(self):
        """Reports arriving out of time order, with duplicates: once the
        window is put in delivery order, earliest-wins must hold."""
        kernel, _ = make_kernel(CROWD)
        decisions = decide(kernel, [
            # Later duplicate listed first; also out of time order
            # across nodes.
            (0, 80.0, 80.0, 3.0),
            (1, 50.0, 50.0, 2.0),
            (0, 50.0, 50.0, 1.0),
            (1, 80.0, 80.0, 2.5),
        ])
        winning = [d for d in decisions if d.occurred or d.supporters]
        # Both nodes' earliest (coincident) claims form one cluster at
        # (50, 50); the later conflicting claims never enter play.
        located = [
            d for d in winning
            if d.location.distance_to(Point(50.0, 50.0)) < 0.01
        ]
        assert len(located) == 1
        assert located[0].supporters == (0, 1)
        assert all(
            d.location.distance_to(Point(80.0, 80.0)) > 0.01
            for d in decisions
        )

    def test_excluded_nodes_are_invisible(self):
        kernel, _ = make_kernel(CROWD)
        decisions = decide(
            kernel, [(i, 50.0, 50.0) for i in CROWD], excluded_nodes=[0, 1]
        )
        assert decisions[0].supporters == (2, 3, 4)
        assert 0 not in decisions[0].dissenters

    def test_implausible_claim_rejected_at_the_gate(self):
        """A report claiming an event far beyond the sender's sensing
        radius (+ slack) is §2.1's by-definition false alarm: dropped
        before clustering and penalised directly."""
        kernel, voter = make_kernel(CROWD)
        decisions = decide(kernel, [(0, 95.0, 95.0)])
        assert decisions == []  # nothing left to cluster
        assert voter.trust.ti(0) < 1.0

    def test_unsupported_cluster_refutes_itself(self):
        """A borderline claim that passes the gate but whose implied
        event location has no claimant among its own event neighbours
        is rejected without a vote, and the claimant penalised."""
        kernel, voter = make_kernel(CROWD)
        # Node 3 at (55, 55) claims (76, 55): 21 away (within the
        # r_s + r_error = 25 gate) but more than r_s = 20 from every
        # node, itself included.
        decisions = decide(kernel, [(3, 76.0, 55.0)])
        assert len(decisions) == 1
        assert not decisions[0].occurred
        assert decisions[0].vote is None
        assert voter.trust.ti(3) < 1.0

    def test_localisation_error_helper(self):
        kernel, _ = make_kernel(CROWD)
        d = decide(kernel, [(i, 51.0, 50.0) for i in CROWD])[0]
        assert d.localisation_error(Point(50.0, 50.0)) == pytest.approx(1.0)


class TestTrustIntegration:
    def test_losing_reporters_are_penalized(self):
        kernel, voter = make_kernel(CROWD)
        decide(kernel, [(0, 50.0, 50.0)])
        assert voter.trust.ti(0) < 1.0
        assert voter.trust.ti(1) == 1.0

    def test_trusted_minority_beats_untrusted_majority_on_location(self):
        table = TrustTable(
            TrustParameters(lam=0.25, fault_rate=0.1), node_ids=CROWD.keys()
        )
        for _ in range(8):
            for liar in (2, 3, 4):
                table.penalize(liar)
        kernel, _ = make_kernel(CROWD, voter=CtiVoter(table))
        decisions = decide(kernel, [(0, 50.0, 50.0), (1, 50.3, 49.8)])
        assert decisions[0].occurred  # 2 trusted beat 3 distrusted

    def test_majority_voter_backend(self):
        kernel, _ = make_kernel(CROWD, voter=MajorityVoter())
        decisions = decide(kernel, [(i, 50.0, 50.0) for i in (0, 1, 2)])
        assert decisions[0].occurred  # 3 vs 2 headcount


class TestValidation:
    def test_bad_radii_rejected(self):
        deployment = Deployment(region=Region.square(10.0))
        voter = MajorityVoter()
        with pytest.raises(ValueError):
            DecisionKernel(deployment, 0.0, 5.0, voter)
        with pytest.raises(ValueError):
            DecisionKernel(deployment, 20.0, -1.0, voter)
