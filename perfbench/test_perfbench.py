"""The benchmark's own tests: gates report mismatches as failures,
shares partition time, inputs are seed-determined, and
``BENCHMARK.json`` matches what ``run.py`` prints.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calib  # noqa: E402
import des  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import service  # noqa: E402
from inputs import Tally  # noqa: E402
from report import Ledger  # noqa: E402


# ----------------------------------------------------------------------
# Correctness gates
# ----------------------------------------------------------------------
@pytest.fixture
def few_points(monkeypatch):
    monkeypatch.setattr(des, "POINTS_PER_SEED", 2)
    monkeypatch.setitem(des.CONFIGS, "des_binary",
                        dict(des.CONFIGS["des_binary"], events=40))


def test_des_gate_passes_on_matching_runs(few_points):
    ledger = Ledger()
    loop = des.PointLoop("des_binary", 3, ledger)
    samples, totals = loop.run(count=2)
    assert len(samples) == 2 and totals["simkernel.events"] > 0
    assert ledger.failed == 0 and ledger.attempted == 2 * 3 + 2


def test_des_fingerprint_mismatch_is_reported_failed(few_points):
    ledger = Ledger()
    loop = des.PointLoop("des_binary", 3, ledger)
    loop.refs[1] = "0" * 64  # a reference the run cannot reproduce
    loop.run(count=2)
    assert ledger.failed == 1
    assert "fingerprint differs" in ledger.failures[0]
    line = run.result_line({name: 1.0 for name in run.E2E_UNITS},
                           run.E2E_UNITS, ledger)
    assert line["correct"] is False and line["failed"] == 1


def test_des_replay_mismatch_is_reported_failed(few_points, monkeypatch):
    from repro.service.session import TrustSession

    monkeypatch.setattr(TrustSession, "tis", lambda self: {0: 0.5})
    ledger = Ledger()
    des.reference("des_binary", des.points("des_binary", 3)[0], ledger)
    assert ledger.failed == 1
    assert "replayed TIs differ" in ledger.failures[0]


def test_ingest_gate_counts_windows_without_decisions(monkeypatch):
    windows = service.make_stream(5).next_windows(20)
    picker = calib.CorePicker()
    ledger = Ledger()
    service.IngestPass(windows, ledger, picker)
    assert ledger.failed == 0 and ledger.attempted == 21

    real_feed = service.feed
    calls = []

    def lossy_feed(session, window):
        records, accepted = real_feed(session, window)
        calls.append(window)
        return (records if len(calls) != 3 else []), accepted

    monkeypatch.setattr(service, "feed", lossy_feed)
    ledger = Ledger()
    service.IngestPass(windows, ledger, picker)
    picker.release()
    assert ledger.failed == 1 and "0 decisions" in ledger.failures[0]


def test_http_tenant_mismatch_is_reported_failed(monkeypatch):
    """A served TI table that differs from the direct replay fails."""
    window = service.make_stream(2).next_windows(1)[0]

    class FakeServer:
        def get(self, path):
            return 200, json.dumps({"tis": {"0": 0.5}}).encode()

    class FakeClient:
        sent = {window.tenant: [window]}

    ledger = Ledger()
    service.verify_tenants(FakeServer(), [FakeClient()], 2, ledger)
    assert ledger.failed == 1 and "served TIs differ" in ledger.failures[0]


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def test_self_times_partition_nested_spans():
    tracer = layers.Tracer()
    inner = tracer.wrap("clustering", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()

    outer = tracer.wrap("decision", outer_body)
    start = time.perf_counter()
    outer()
    wall = time.perf_counter() - start
    totals = tracer.totals()
    assert totals["incl_s"]["decision"] >= totals["incl_s"]["clustering"]
    assert totals["self_s"]["clustering"] == pytest.approx(0.02, abs=0.01)
    assert totals["self_s"]["decision"] == pytest.approx(0.01, abs=0.01)
    metrics = layers.layer_metrics(totals, wall, {}, overhead=0.0)
    shares = [v for k, v in metrics.items() if k.endswith(".share")]
    assert sum(shares) == pytest.approx(1.0)
    assert metrics["unattributed.share"] >= 0.0
    assert tracer.span_parent[0] == tracer.span_id[1]  # inner under outer


def test_install_restores_every_entry_point():
    from repro.core import decision_kernel
    from repro.simkernel.simulator import Simulator

    run_before = Simulator.__dict__["run"]
    flat_before = decision_kernel.cluster_reports_flat
    tracer = layers.Tracer().install()
    try:
        assert Simulator.__dict__["run"] is not run_before
        assert decision_kernel.cluster_reports_flat is not flat_before
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert Simulator.__dict__["run"] is run_before
    assert decision_kernel.cluster_reports_flat is flat_before


def test_traced_ingest_shares_sum_to_one(monkeypatch):
    monkeypatch.setattr(service, "WINDOWS_PER_PASS", 300)
    ledger = Ledger()
    metrics, _, _ = service.ingest_trace(4, 0.3, ledger)
    assert ledger.failed == 0
    shares = [v for k, v in metrics.items() if k.endswith(".share")]
    assert sum(shares) == pytest.approx(1.0)
    assert metrics["session.ingest.share"] > 0
    assert metrics["clustering.calls"] > 0
    assert set(metrics) == set(run.LAYER_UNITS)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def test_window_stream_is_seed_determined():
    first = service.make_stream(7).next_windows(30)
    again = service.make_stream(7).next_windows(30)
    other = service.make_stream(8).next_windows(30)
    assert first == again
    assert first != other
    assert all(w.rows and w.close_time > w.rows[-1][3] for w in first)


def test_window_stream_straddles_small_route():
    stream = service.make_stream(1)
    tally = Tally(stream)
    for window in stream.next_windows(400):
        tally.add(window)
    props = tally.properties()
    assert 0.05 < props["share_ge_32_rows"] < 0.5
    assert 0.2 < props["faulty_node_share"] < 0.3


# ----------------------------------------------------------------------
# Contract
# ----------------------------------------------------------------------
def test_benchmark_json_matches_run_py():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.LAYER_UNITS


def test_missing_program_source_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", HERE / "no-such-src")
    code = run.main(["--workload", "des_binary", "--seed", "1",
                     "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
