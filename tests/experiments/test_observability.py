"""End-to-end acceptance tests for the observability layer.

The load-bearing guarantees:

* an instrumented (``observe=True``) run is **bit-identical** to an
  uninstrumented one -- probes read state, never mutate it;
* the exported JSONL artifacts reconstruct the run's trust state
  exactly: final TIs match the live :class:`TrustTable` bit for bit,
  and each diagnosed node's threshold-crossing time in the TI series
  equals its diagnosis time;
* span collection (``spans=True``) is equally read-only: the
  ``run_fingerprint`` of a span-collecting run equals the plain run's
  under both decision backends, and the exported span artifacts
  reconstruct every verdict's causal chain.
"""

import json

import pytest

from repro.chaos.invariants import run_fingerprint
from repro.core.decision_kernel import DECISION_ENV
from repro.experiments.harness import CorrectSpec, FaultSpec, SimulationRun
from repro.obs.export import read_jsonl, validate_artifacts
from repro.obs.provenance import ProvenanceIndex

DIAGNOSIS_THRESHOLD = 0.5


def make_run(observe, seed=7, spans=False):
    """An Experiment-1-style binary run with aggressive faulty nodes."""
    return SimulationRun(
        mode="binary",
        n_nodes=10,
        field_side=32.0,
        deployment_kind="grid",
        sensing_radius=64.0,  # everyone neighbours every event
        faulty_ids=(2, 3, 7),
        correct_spec=CorrectSpec(sigma=0.0, miss_rate=0.01),
        fault_spec=FaultSpec(level=0, drop_rate=0.5, false_alarm_rate=0.1),
        channel_loss=0.0,
        diagnosis_threshold=DIAGNOSIS_THRESHOLD,
        seed=seed,
        observe=observe,
        spans=spans,
    )


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    run = make_run(observe=True)
    run.run(30)
    run.export_artifacts(out)
    return run, out


class TestBitIdentity:
    def test_observed_run_matches_unobserved(self, observed):
        run, _ = observed
        plain = make_run(observe=False)
        plain.run(30)
        assert plain.trust_snapshot() == run.trust_snapshot()
        assert [d.occurred for d in plain.ch.decisions] == [
            d.occurred for d in run.ch.decisions
        ]
        assert plain.metrics().accuracy == run.metrics().accuracy


class TestArtifacts:
    def test_directory_validates(self, observed):
        _, out = observed
        counts = validate_artifacts(out)
        assert set(counts) == {
            "manifest.json", "metrics.jsonl", "ti_series.jsonl",
            "trace.jsonl",
        }

    def test_manifest_counts_match_artifacts(self, observed):
        run, out = observed
        manifest = json.loads((out / "manifest.json").read_text())
        samples = [
            r for r in read_jsonl(out / "ti_series.jsonl")
            if r["type"] == "sample"
        ]
        assert manifest["counts"]["probe_samples"] == len(samples)
        assert manifest["counts"]["events"] == 30
        assert manifest["counts"]["decisions"] == len(run.ch.decisions)
        assert manifest["config"]["diagnosis_threshold"] == (
            DIAGNOSIS_THRESHOLD
        )
        assert manifest["seed"] == 7
        assert manifest["timings"]["run_s"] > 0.0

    def test_final_tis_reconstruct_bit_identical(self, observed):
        run, out = observed
        samples = [
            r for r in read_jsonl(out / "ti_series.jsonl")
            if r["type"] == "sample"
        ]
        final = {int(k): v for k, v in samples[-1]["tis"].items()}
        # == on floats: bit-identical, not approximately equal
        assert final == run.ch.trust.tis()

    def test_crossing_times_match_diagnoses(self, observed):
        run, out = observed
        records = read_jsonl(out / "ti_series.jsonl")
        samples = [r for r in records if r["type"] == "sample"]
        diagnoses = [r for r in records if r["type"] == "diagnosis"]
        assert diagnoses, "run must diagnose at least one faulty node"
        assert {d["node"] for d in diagnoses} <= set(run.initial_faulty)
        for diag in diagnoses:
            node = str(diag["node"])
            crossing = next(
                s["time"] for s in samples
                if s["tis"].get(node, 1.0) < DIAGNOSIS_THRESHOLD
            )
            assert crossing == diag["time"]
            assert diag["ti"] < DIAGNOSIS_THRESHOLD
            assert diag["isolated"] is True

    def test_metrics_jsonl_cross_checks_channel(self, observed):
        run, out = observed
        by_name = {
            r["name"]: r for r in read_jsonl(out / "metrics.jsonl")
        }
        assert by_name["radio.sent"]["value"] == run.channel.sent
        assert by_name["radio.delivered"]["value"] == run.channel.delivered
        assert by_name["trust.votes"]["value"] == run.ch.voter.votes_taken
        decisions = (
            by_name["ch.decision.occurred"]["value"]
            + by_name["ch.decision.rejected"]["value"]
        )
        assert decisions == len(run.ch.decisions)
        assert by_name["ch.diagnosis"]["value"] == len(
            run.ch.diagnoser.diagnosed
        )
        assert by_name["trust.vote.wall"]["type"] == "timer"
        assert by_name["trust.vote.margin"]["count"] == (
            run.ch.voter.votes_taken
        )
        assert by_name["des.events_fired"]["value"] == float(
            run.sim.events_fired
        )

    def test_trace_jsonl_holds_decision_events(self, observed):
        run, out = observed
        categories = {
            r["category"] for r in read_jsonl(out / "trace.jsonl")
        }
        assert "ch.decision" in categories
        assert "ch.diagnosis" in categories


class TestExportGuards:
    def test_export_requires_observe(self, tmp_path):
        run = make_run(observe=False)
        run.run(2)
        with pytest.raises(RuntimeError, match="observe=True"):
            run.export_artifacts(tmp_path)

    def test_probe_absent_when_not_observing(self):
        run = make_run(observe=False)
        run.build()
        assert run.probe is None
        assert not run.registry.enabled
        assert run.ch.probe is None


# ----------------------------------------------------------------------
# Span collection
# ----------------------------------------------------------------------
def make_location_run(spans, seed=77, observe=False):
    return SimulationRun(
        mode="location",
        n_nodes=25,
        field_side=50.0,
        sensing_radius=20.0,
        faulty_ids=(0, 1, 2),
        diagnosis_threshold=0.3,
        seed=seed,
        observe=observe,
        spans=spans,
    )


class TestSpanBitIdentity:
    """Acceptance: spans-enabled runs are bit-identical to plain runs
    under both decision backends."""

    @pytest.mark.parametrize("decision_backend", ["array", "object"])
    def test_location_fingerprint_unchanged(
        self, monkeypatch, decision_backend
    ):
        monkeypatch.setenv(DECISION_ENV, decision_backend)
        plain = make_location_run(spans=False)
        plain.run(8)
        spanned = make_location_run(spans=True)
        spanned.run(8)
        assert run_fingerprint(spanned) == run_fingerprint(plain)
        assert spanned.spans.emitted > 0

    def test_binary_fingerprint_unchanged(self):
        plain = make_run(observe=False)
        plain.run(20)
        spanned = make_run(observe=False, spans=True)
        spanned.run(20)
        assert run_fingerprint(spanned) == run_fingerprint(plain)
        assert spanned.spans.emitted > 0


class TestSpanArtifacts:
    @pytest.fixture(scope="class")
    def span_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("span_artifacts")
        run = make_location_run(spans=True, observe=True)
        run.run(10)
        run.export_artifacts(out)
        return run, out

    def test_span_artifacts_validate(self, span_run):
        _, out = span_run
        counts = validate_artifacts(out)
        assert counts["spans.jsonl"] > 0
        assert counts["provenance.jsonl"] > 0
        assert counts["spans_chrome.json"] > 0

    def test_manifest_counts_spans(self, span_run):
        run, out = span_run
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counts"]["spans_emitted"] == run.spans.emitted
        assert manifest["counts"]["spans_evicted"] == run.spans.evicted

    def test_provenance_reconstructs_every_decision(self, span_run):
        run, out = span_run
        prov = ProvenanceIndex(read_jsonl(out / "spans.jsonl"))
        assert len(prov.decision_ids()) == len(run.ch.decisions)
        for decision_id in prov.decision_ids():
            record = prov.decision_provenance(decision_id)
            # Every verdict explains itself: a window, a vote (or a
            # self-refuting cluster), and per-report evidence chains
            # that reach back to a sensed event.
            assert record["window"] is not None
            assert record["evidence"], "no evidence hops reconstructed"
            for item in record["evidence"]:
                assert item["event_id"] is not None
        diagnosed = {
            d["node"]
            for r in prov.to_records()
            for d in r["diagnoses"]
        }
        assert diagnosed == set(run.ch.diagnoser.diagnosed)

    def test_explain_cli_renders_chain(self, span_run, capsys):
        from repro.cli import main

        _, out = span_run
        assert main(["explain", str(out)]) == 0
        listing = capsys.readouterr().out
        assert "decision" in listing
        prov = ProvenanceIndex(read_jsonl(out / "spans.jsonl"))
        decision_id = prov.decision_ids()[0]
        assert main(
            ["explain", str(out), "--decision", str(decision_id)]
        ) == 0
        rendered = capsys.readouterr().out
        assert "supporters" in rendered
        assert "evidence" in rendered

    def test_explain_cli_node_view(self, span_run, capsys):
        from repro.cli import main

        run, out = span_run
        node = run.initial_faulty[0]
        assert main(["explain", str(out), "--node", str(node)]) == 0
        assert "node" in capsys.readouterr().out

    def test_explain_cli_missing_spans_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["explain", str(tmp_path)]) == 2
        assert "spans.jsonl" in capsys.readouterr().err
