"""Unit tests for the standalone trust session and its id allocator."""

import json

import pytest

from repro.clusterctl.head import (
    ClusterHead,
    ClusterHeadConfig,
    reset_decision_ids,
)
from repro.core.trust import TrustParameters
from repro.network.geometry import Point, Region
from repro.network.topology import grid_deployment
from repro.service.ids import IdAllocator
from repro.service.session import SessionConfig, TrustSession

from tests.oracles import decision as oracle


def make_deployment(n=9, side=30.0):
    return grid_deployment(n, Region.square(side))


def make_session(mode="location", n=9, **config_kwargs):
    config_kwargs.setdefault("trust", TrustParameters(lam=0.25, fault_rate=0.1))
    return TrustSession(
        make_deployment(n=n), SessionConfig(mode=mode, **config_kwargs)
    )


class TestIdAllocator:
    def test_next_protocol(self):
        alloc = IdAllocator()
        assert [next(alloc) for _ in range(3)] == [1, 2, 3]
        assert alloc.peek() == 4
        assert next(alloc) == 4

    def test_reset_and_start(self):
        alloc = IdAllocator(start=10)
        assert next(alloc) == 10
        alloc.reset()
        assert next(alloc) == 1
        alloc.reset(7)
        assert alloc.peek() == 7

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            IdAllocator(start=-1)
        with pytest.raises(ValueError):
            IdAllocator().reset(-2)


class TestBinarySession:
    def test_ingest_close_decides(self):
        session = make_session(mode="binary")
        for node in (0, 1, 2, 3, 4):
            assert session.ingest(node)
        records = session.close_window(now=1.0)
        assert len(records) == 1
        record = records[0]
        assert record.decision_id == 1
        assert record.time == 1.0
        assert record.occurred
        assert record.supporters == (0, 1, 2, 3, 4)
        assert set(record.dissenters) == set(range(5, 9))
        assert session.windows_closed == 1
        # Reporters were rewarded from TI=1.0 (no-op at the ceiling);
        # silent nodes were penalized below 1.0.
        assert session.query_ti(0) == 1.0
        assert session.query_ti(5) < 1.0

    def test_close_without_reports_is_noop(self):
        session = make_session(mode="binary")
        assert session.close_window(now=1.0) == []
        assert session.windows_closed == 0
        assert session.decisions == []

    def test_owner_excluded_from_non_reporters(self):
        deployment = make_deployment()
        session = TrustSession(
            deployment, SessionConfig(mode="binary", owner_id=4)
        )
        session.ingest(0)
        (record,) = session.close_window(now=1.0)
        assert 4 not in record.dissenters

    def test_diagnosed_sender_dropped_on_ingest(self):
        session = make_session(mode="binary", diagnosis_threshold=0.6)
        # Node 8 stays silent through enough windows to sink below 0.6.
        for window in range(6):
            for node in range(8):
                session.ingest(node)
            session.close_window(now=float(window))
            if session.diagnosed():
                break
        assert session.diagnosed() == (8,)
        assert not session.ingest(8)
        assert session.pending_reports() == 0


class TestLocationSession:
    def test_clustered_reports_decide(self):
        session = make_session(mode="location")
        event = Point(15.0, 15.0)
        for node in (0, 1, 2, 3, 4):
            assert session.ingest(node, x=event.x, y=event.y, time=0.5)
        (record,) = session.close_window(now=1.0)
        assert record.occurred
        assert record.location is not None
        assert record.supporters == (0, 1, 2, 3, 4)

    def test_report_without_coordinates_dropped(self):
        session = make_session(mode="location")
        assert not session.ingest(0)
        assert session.pending_reports() == 0

    def test_duplicate_report_is_idempotent(self):
        one = make_session(mode="location")
        dup = make_session(mode="location")
        for session, repeats in ((one, 1), (dup, 3)):
            for _ in range(repeats):
                session.ingest(0, x=10.0, y=10.0, time=0.5)
            session.ingest(1, x=10.5, y=10.5, time=0.6)
            session.close_window(now=1.0)
        strip = lambda r: (r.time, r.occurred, r.location, r.supporters,
                           r.dissenters)
        assert [strip(r) for r in one.decisions] == [
            strip(r) for r in dup.decisions
        ]
        assert one.tis() == dup.tis()

    def test_backends_agree(self):
        """The kernel and the object-pipeline oracle swapped in for it
        close the same window identically."""
        results = {}
        for backend in ("object", "array"):
            with pytest.MonkeyPatch.context() as mp:
                if backend == "object":
                    oracle.install(mp)
                session = make_session(mode="location")
                for node, t in ((0, 0.1), (1, 0.2), (4, 0.3)):
                    session.ingest(node, x=12.0, y=12.0, time=t)
                session.ingest(8, x=28.0, y=28.0, time=0.4)
                session.close_window(now=1.0)
            results[backend] = (
                [
                    (r.time, r.occurred, r.location, r.supporters,
                     r.dissenters)
                    for r in session.decisions
                ],
                session.tis(),
            )
        assert results["object"] == results["array"]


class TestStateRoundTrip:
    def test_json_round_trip_preserves_behaviour(self):
        session = make_session(mode="binary", diagnosis_threshold=0.3)
        for window in range(3):
            for node in range(6):
                session.ingest(node)
            session.close_window(now=float(window))
        session.ingest(0)  # leave an open window mid-stream

        state = json.loads(json.dumps(session.export_state()))
        clone = make_session(mode="binary", diagnosis_threshold=0.3)
        clone.import_state(state)

        assert clone.tis() == session.tis()
        assert clone.diagnosed() == session.diagnosed()
        assert clone.decisions == session.decisions
        assert clone.pending_reports() == session.pending_reports()

        # Both continue identically -- including minted decision ids.
        for s in (session, clone):
            for node in range(1, 6):
                s.ingest(node)
            s.close_window(now=10.0)
        assert clone.decisions == session.decisions
        assert clone.tis() == session.tis()

    def test_import_rejects_wrong_mode(self):
        binary = make_session(mode="binary")
        location = make_session(mode="location")
        with pytest.raises(ValueError):
            location.import_state(binary.export_state())

    def test_journal_requires_flag(self):
        session = make_session(mode="binary")
        with pytest.raises(RuntimeError):
            session.journal_records()


class TestDecisionIdIsolation:
    """Regression: sessions are reproducible without global id resets."""

    def test_private_allocators_are_independent(self):
        streams = []
        for _ in range(2):
            session = make_session(mode="binary")
            for window in range(3):
                for node in range(5):
                    session.ingest(node)
                session.close_window(now=float(window))
            streams.append([r.decision_id for r in session.decisions])
        # Bit-identical ids on both passes -- creating and running the
        # first session did not advance any state the second one sees.
        assert streams[0] == streams[1] == [1, 2, 3]

    def test_cluster_head_accepts_explicit_allocator(self):
        deployment = make_deployment()
        config = ClusterHeadConfig(mode="binary")
        ch = ClusterHead(
            node_id=100,
            position=Point(15.0, 15.0),
            deployment=deployment,
            config=config,
            id_allocator=IdAllocator(start=500),
        )
        assert ch.session.ids.peek() == 500

    def test_cluster_heads_share_global_stream_by_default(self):
        deployment = make_deployment()
        config = ClusterHeadConfig(mode="binary")
        reset_decision_ids(1000)
        a = ClusterHead(1, Point(0, 0), deployment, config)
        b = ClusterHead(2, Point(0, 0), deployment, config)
        assert next(a.session.ids) == 1000
        assert next(b.session.ids) == 1001
        reset_decision_ids()
