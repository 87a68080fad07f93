"""Smoke tests for the HTTP/JSON front end (in-process server)."""

import contextlib
import http.client
import json
import threading
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import pytest

from repro.service.http_api import ServiceConfig, serve


@contextlib.contextmanager
def running(config):
    http_server, manager = serve(config, port=0)
    thread = threading.Thread(
        target=http_server.serve_forever, daemon=True
    )
    thread.start()
    host, port = http_server.server_address[:2]
    try:
        yield f"http://{host}:{port}", manager
    finally:
        http_server.shutdown()
        http_server.server_close()
        thread.join(timeout=5)


@pytest.fixture()
def server():
    with running(
        ServiceConfig(mode="location", n_nodes=9, field_side=30.0)
    ) as base_and_manager:
        yield base_and_manager


def call(base, method, path, body=None):
    data = None if body is None else json.dumps(body).encode("utf-8")
    return send(base, method, path, data)


def post_raw(base, path, text):
    """POST a body verbatim, for JSON literals ``json.dumps`` never emits."""
    return send(base, "POST", path, text.encode("utf-8"))


def send(base, method, path, data):
    request = urllib.request.Request(
        base + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def ingest(base, key, reports, time=0.5):
    body = {
        "reports": [
            {"node": n, "x": x, "y": y, "time": time}
            for n, x, y in reports
        ]
    }
    return call(base, "POST", f"/v1/sessions/{key}/reports", body)


class TestSmoke:
    def test_healthz(self, server):
        base, _ = server
        status, doc = call(base, "GET", "/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["sessions"] == 0

    def test_report_close_query_cycle(self, server):
        base, manager = server
        reports = [(n, 15.0, 15.0) for n in range(5)]
        status, doc = ingest(base, "t1", reports)
        assert status == 200
        assert doc == {"accepted": 5, "dropped": 0, "pending": 5}

        status, doc = call(
            base, "POST", "/v1/sessions/t1/close", {"time": 1.0}
        )
        assert status == 200
        (decision,) = doc["decisions"]
        assert decision["occurred"] is True
        assert decision["decision_id"] == 1
        assert decision["supporters"] == [0, 1, 2, 3, 4]

        status, doc = call(base, "GET", "/v1/sessions/t1/ti")
        assert status == 200
        assert doc["tis"]["0"] == 1.0
        assert doc["tis"]["8"] < 1.0

        status, doc = call(base, "GET", "/v1/sessions/t1/ti?node=8")
        assert status == 200
        assert doc["node"] == 8
        assert doc["ti"] < 1.0

        status, doc = call(base, "GET", "/v1/sessions/t1/decisions")
        assert status == 200
        assert len(doc["decisions"]) == 1
        status, doc = call(
            base, "GET", "/v1/sessions/t1/decisions?since=1"
        )
        assert doc["decisions"] == []

        status, doc = call(base, "GET", "/v1/sessions/t1/diagnosed")
        assert status == 200
        assert doc["diagnosed"] == []

        # The HTTP layer drove the same engine the manager holds.
        assert manager.get("t1").windows_closed == 1

    def test_state_round_trip_between_sessions(self, server):
        base, _ = server
        ingest(base, "src", [(n, 12.0, 12.0) for n in range(5)])
        call(base, "POST", "/v1/sessions/src/close", {"time": 1.0})

        status, state = call(base, "GET", "/v1/sessions/src/state")
        assert status == 200
        assert state["schema"] == 1

        status, doc = call(base, "PUT", "/v1/sessions/dst/state", state)
        assert status == 200
        status, cloned = call(base, "GET", "/v1/sessions/dst/state")
        assert cloned == state

    def test_session_listing_and_delete(self, server):
        base, _ = server
        ingest(base, "a", [(0, 10.0, 10.0)])
        ingest(base, "b", [(0, 10.0, 10.0)])
        status, doc = call(base, "GET", "/v1/sessions")
        assert status == 200
        assert sorted(doc["sessions"]) == ["a", "b"]

        status, doc = call(base, "DELETE", "/v1/sessions/a")
        assert status == 200
        status, doc = call(base, "GET", "/v1/sessions")
        assert doc["sessions"] == ["b"]


class TestErrors:
    def test_unknown_session_is_404_on_reads(self, server):
        base, _ = server
        for path in (
            "/v1/sessions/nope/ti",
            "/v1/sessions/nope/diagnosed",
            "/v1/sessions/nope/decisions",
            "/v1/sessions/nope/state",
        ):
            status, doc = call(base, "GET", path)
            assert status == 404, path
            assert "error" in doc

    def test_delete_unknown_session_is_404(self, server):
        base, _ = server
        status, _ = call(base, "DELETE", "/v1/sessions/nope")
        assert status == 404

    def test_bad_bodies_are_400(self, server):
        base, _ = server
        status, doc = call(
            base, "POST", "/v1/sessions/t/reports", {"reports": "nope"}
        )
        assert status == 400
        status, doc = call(
            base, "POST", "/v1/sessions/t/reports", {"reports": [{}]}
        )
        assert status == 400
        status, doc = call(
            base, "PUT", "/v1/sessions/t/state", {"schema": 99}
        )
        assert status == 400

    def test_unknown_route_is_404(self, server):
        base, _ = server
        status, _ = call(base, "GET", "/v1/other")
        assert status == 404
        status, _ = call(base, "GET", "/v1/sessions/t/unknown")
        assert status == 404


class TestNonNumericInput:
    """A field that is not a number is a 400 naming it, never a reset."""

    def test_report_node_and_time(self, server):
        base, manager = server
        for report in (
            {"node": "seven", "x": 15.0, "y": 15.0},
            {"node": [1], "x": 15.0, "y": 15.0},
            {"node": 1, "x": 15.0, "y": 15.0, "time": "noon"},
        ):
            status, doc = call(
                base, "POST", "/v1/sessions/t/reports",
                {"reports": [{"node": 0, "x": 15.0, "y": 15.0}, report]},
            )
            assert status == 400, report
            assert "report" in doc["error"]
        # The batch is rejected whole: nothing was ingested, and the
        # session was never created.
        assert manager.keys() == []

    def test_close_time(self, server):
        base, _ = server
        ingest(base, "t", [(0, 15.0, 15.0)])
        status, doc = call(
            base, "POST", "/v1/sessions/t/close", {"time": "later"}
        )
        assert status == 400
        assert "close time" in doc["error"]
        status, doc = call(base, "POST", "/v1/sessions/t/close", {"time": 1})
        assert status == 200
        assert len(doc["decisions"]) == 1

    def test_ti_node_query(self, server):
        base, _ = server
        ingest(base, "t", [(0, 15.0, 15.0)])
        status, doc = call(base, "GET", "/v1/sessions/t/ti?node=abc")
        assert status == 400
        assert "?node" in doc["error"]
        status, doc = call(base, "GET", "/v1/sessions/t/ti?node=0")
        assert status == 200

    def test_decisions_since_query(self, server):
        base, _ = server
        ingest(base, "t", [(0, 15.0, 15.0)])
        status, doc = call(base, "GET", "/v1/sessions/t/decisions?since=abc")
        assert status == 400
        assert "?since" in doc["error"]
        status, doc = call(base, "GET", "/v1/sessions/t/decisions?since=0")
        assert status == 200


class TestUnknownReportNodes:
    """A report from a node outside the session is a 400 naming
    ``report node``; the batch is rejected whole, so the session gains
    no pending report and no trust row."""

    @pytest.mark.parametrize(
        "nodes",
        [[-1], [9], [1000], [0, 4, -3, 8]],
        ids=["negative", "out-of-range", "far-out-of-range", "mixed-batch"],
    )
    def test_rejected_before_ingest(self, server, nodes):
        base, manager = server
        ingest(base, "t", [(0, 15.0, 15.0)])
        with manager.locked("t") as session:
            rows_before = len(session.trust)
        status, doc = ingest(base, "t", [(n, 15.0, 15.0) for n in nodes])
        assert status == 400
        assert "report node" in doc["error"]
        with manager.locked("t") as session:
            assert session.pending_reports() == 1
            assert len(session.trust) == rows_before
        # Closing the window votes only over members: still no new row.
        status, _ = call(base, "POST", "/v1/sessions/t/close", {"time": 1})
        assert status == 200
        with manager.locked("t") as session:
            assert len(session.trust) == rows_before
            assert all(0 <= n < 9 for n in session.tis())

    def test_members_are_accepted(self, server):
        base, _ = server
        status, doc = ingest(base, "t", [(n, 15.0, 15.0) for n in range(9)])
        assert status == 200
        assert doc["accepted"] == 9


NON_FINITE = ("NaN", "Infinity", "-Infinity", "1e999", "-1e999")


class TestNonFiniteInput:
    """NaN, infinities and overflowing literals are a 400 naming the
    field; the batch is rejected whole, so no sender is penalised."""

    @pytest.mark.parametrize("field", ["x", "y", "time"])
    @pytest.mark.parametrize("literal", NON_FINITE)
    def test_report_fields(self, server, field, literal):
        base, manager = server
        report = {"node": 1, "x": "15.0", "y": "15.0", "time": "0.5"}
        report[field] = literal
        body = ", ".join(f'"{k}": {v}' for k, v in report.items())
        status, doc = post_raw(
            base, "/v1/sessions/t/reports",
            '{"reports": [{"node": 0, "x": 15.0, "y": 15.0}, {%s}]}' % body,
        )
        assert status == 400
        assert f"report {field}" in doc["error"]
        assert "finite" in doc["error"]
        assert manager.keys() == []

    def test_huge_integer_coordinate(self, server):
        base, manager = server
        status, doc = post_raw(
            base, "/v1/sessions/t/reports",
            '{"reports": [{"node": 1, "x": 1%s, "y": 15}]}' % ("0" * 400),
        )
        assert status == 400
        assert "report x must be finite" in doc["error"]
        assert manager.keys() == []

    def test_non_numeric_coordinate(self, server):
        base, manager = server
        status, doc = call(
            base, "POST", "/v1/sessions/t/reports",
            {"reports": [{"node": 1, "x": 15.0, "y": "north"}]},
        )
        assert status == 400
        assert "report y must be a number" in doc["error"]
        assert manager.keys() == []

    def test_binary_reports_may_omit_coordinates(self):
        config = ServiceConfig(mode="binary", n_nodes=9, field_side=30.0)
        with running(config) as (base, _):
            status, doc = call(
                base, "POST", "/v1/sessions/b/reports",
                {"reports": [{"node": 1, "time": 0.5}]},
            )
        assert status == 200
        assert doc["accepted"] == 1

    @pytest.mark.parametrize("literal", NON_FINITE)
    def test_close_time(self, server, literal):
        base, manager = server
        ingest(base, "t", [(0, 15.0, 15.0)])
        status, doc = post_raw(
            base, "/v1/sessions/t/close", '{"time": %s}' % literal
        )
        assert status == 400
        assert "close time must be finite" in doc["error"]
        # The window stays open for a well-formed close.
        with manager.locked("t") as session:
            assert session.pending_reports() == 1


def post_with_length(base, path, length):
    """POST with a verbatim ``Content-Length`` header and no body."""
    parts = urlsplit(base)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=5)
    try:
        conn.putrequest("POST", path)
        conn.putheader("Content-Length", length)
        conn.endheaders()
        response = conn.getresponse()
        return (
            response.status,
            response.getheader("Connection"),
            json.loads(response.read()),
        )
    finally:
        conn.close()


class TestMalformedContentLength:
    """A Content-Length the server cannot honour is a 400 naming it.

    The body's extent is then unknown, so the server closes that
    connection; it keeps answering new ones.
    """

    def check(self, server, length):
        base, manager = server
        ingest(base, "t", [(0, 15.0, 15.0)])
        status, connection, doc = post_with_length(
            base, "/v1/sessions/t/close", length
        )
        assert status == 400
        assert "Content-Length" in doc["error"]
        assert repr(length) in doc["error"]
        assert connection == "close"
        # Nothing was decided, and the server still answers.
        with manager.locked("t") as session:
            assert session.pending_reports() == 1
        status, doc = call(
            base, "POST", "/v1/sessions/t/close", {"time": 1.0}
        )
        assert status == 200
        assert len(doc["decisions"]) == 1

    def test_non_numeric(self, server):
        self.check(server, "abc")

    def test_negative(self, server):
        self.check(server, "-1")

    def test_overflowing(self, server):
        self.check(server, "99999999999999999999")


class TestMalformedJsonBody:
    """A body ``json.loads`` cannot decode is a 400 naming the JSON body.

    Besides syntax errors that covers nesting too deep for the decoder
    (``RecursionError``), bytes that are not UTF-8
    (``UnicodeDecodeError``) and an integer literal longer than the
    interpreter converts (a plain ``ValueError``).  Each used to escape
    the handler and drop the connection with no response.
    """

    def check(self, server, data):
        base, manager = server
        ingest(base, "t", [(0, 15.0, 15.0)])
        status, doc = send(base, "POST", "/v1/sessions/t/close", data)
        assert status == 400
        assert "invalid JSON body" in doc["error"]
        # The window is untouched, and the server still answers.
        with manager.locked("t") as session:
            assert session.pending_reports() == 1
        status, doc = call(
            base, "POST", "/v1/sessions/t/close", {"time": 1.0}
        )
        assert status == 200
        assert len(doc["decisions"]) == 1

    def test_deeply_nested(self, server):
        self.check(server, b"[" * 200_000)

    def test_not_utf8(self, server):
        self.check(server, b'{"time": "\xff"}')

    def test_syntax_error(self, server):
        self.check(server, b'{"time": ')

    def test_integer_past_digit_limit(self, server):
        self.check(server, b'{"time": ' + b"1" * 5000 + b"}")


class TestDecisionsSince:
    def test_since_returns_the_tail(self, server):
        base, _ = server
        for window in range(4):
            ingest(base, "t", [(n, 15.0, 15.0) for n in range(5)])
            call(base, "POST", "/v1/sessions/t/close",
                 {"time": float(window + 1)})
        status, doc = call(base, "GET", "/v1/sessions/t/decisions")
        assert status == 200
        ids = [d["decision_id"] for d in doc["decisions"]]
        assert ids == [1, 2, 3, 4]
        for since, expected in [(-5, ids), (0, ids), (1, ids[1:]),
                                (3, ids[3:]), (4, []), (99, [])]:
            status, doc = call(
                base, "GET", f"/v1/sessions/t/decisions?since={since}"
            )
            assert status == 200
            assert [d["decision_id"] for d in doc["decisions"]] == expected

    def test_put_state_rejects_unordered_decision_ids(self, server):
        base, _ = server
        for window in range(2):
            ingest(base, "src", [(n, 15.0, 15.0) for n in range(5)])
            call(base, "POST", "/v1/sessions/src/close",
                 {"time": float(window + 1)})
        status, state = call(base, "GET", "/v1/sessions/src/state")
        assert status == 200
        state["decisions"].reverse()
        status, doc = call(base, "PUT", "/v1/sessions/dst/state", state)
        assert status == 400
        assert "strictly increasing" in doc["error"]
