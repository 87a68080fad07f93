"""One fully assembled TIBFIT simulation: build, run, score.

:class:`SimulationRun` wires every substrate together the way §4
describes the ns-2 setup: a deployment of sensing nodes with assigned
behaviours, a lossy radio channel, one active cluster head running
either the binary or the location pipeline, a ground-truth event
generator firing rounds at a regular interval, and quiet windows in
between in which faulty nodes may raise false alarms.  After the run it
scores the CH's decision log against ground truth.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import groupby
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.plan import ChaosController, ChCrash, FaultPlan
from repro.clusterctl.head import ClusterHead, ClusterHeadConfig, DecisionRecord
from repro.core.trust import TrustParameters
from repro.network.geometry import Point, Region
from repro.network.radio import ChannelConfig, RadioChannel
from repro.network.topology import (
    Deployment,
    shared_grid_deployment,
    uniform_random_deployment,
)
from repro.sensors.faults import CollusionCoordinator, NodeBehavior
from repro.sensors.generator import EventGenerator, GroundTruthEvent
from repro.sensors.specs import (
    CollusionCellPool,
    CorrectSpec,
    FaultSpec,
    make_correct_behavior,
    make_faulty_behavior,
)
from repro.sensors.node import SensorNode
from repro.sensors.sensing import SensingConfig, SensingModel
from repro.obs.export import (
    build_manifest,
    chrome_trace,
    trace_records,
    write_json,
    write_jsonl,
)
from repro.obs.provenance import ProvenanceIndex
from repro.obs.probes import TrustProbe
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.obs.spans import NULL_SPANS, SpanCollector
from repro.simkernel.simulator import Simulator
from repro.simkernel.trace import noop_trace
from repro.experiments.metrics import RunMetrics, score_run


# Re-exported for callers that configure runs through the harness; the
# canonical definitions live with the sensors package.
__all__ = ["CompromiseOrder", "CorrectSpec", "FaultSpec", "SimulationRun"]


@dataclass(frozen=True)
class CompromiseOrder:
    """A scheduled behaviour takeover (Experiment 3's decay)."""

    round_index: int
    node_ids: Tuple[int, ...]
    spec: FaultSpec


class SimulationRun:
    """Build and execute one simulation, then score it.

    Parameters
    ----------
    mode:
        ``"binary"`` (Experiment 1) or ``"location"`` (Experiments 2-3).
    n_nodes:
        Sensing nodes (the CH is an additional entity, per Table 1's
        "10 sensing nodes, 1 CH").
    field_side:
        Side of the square deployment region.
    deployment_kind:
        ``"grid"`` (Experiment 2's 100-on-100x100) or ``"random"``.
    sensing_radius / r_error:
        ``r_s`` and the localisation bound.  Binary runs that want every
        node to neighbour every event should pass a radius covering the
        field (e.g. ``field_side * 1.5``).
    lam / fault_rate:
        Trust model parameters.
    use_trust:
        True = TIBFIT, False = majority-voting baseline.
    correct_spec / fault_spec:
        Behaviour parameters for the two populations.
    faulty_ids:
        Initially compromised node ids.
    channel_loss:
        The ns-2 stand-in's natural drop probability.
    t_out / round_interval:
        Collection window and spacing of event rounds.  Quiet windows
        (false-alarm opportunities) run at ``round + round_interval/2``.
    quiet_windows:
        Disable to skip false-alarm opportunities entirely.
    diagnosis_threshold:
        Enable CH-side isolation of nodes below this TI.
    concurrent_batch:
        Events per round (>1 exercises §3.3's concurrent machinery, with
        batch members kept at least ``r_error`` apart).
    seed:
        Master seed; every stream derives from it.
    tracing:
        Disable to run with a no-op trace log; sweep runners do this so
        the per-event emit call sites cost only an attribute check.
    spans:
        Enable causal span collection (:mod:`repro.obs.spans`): every
        sensed event, report, radio delivery/drop, collection window,
        vote, trust transition, and CH verdict emits a span linked to
        the span that caused it, and :meth:`export_artifacts` writes
        ``spans.jsonl`` / ``provenance.jsonl`` / ``spans_chrome.json``.
        Span collection reads state but never mutates it and never
        touches an RNG, so a spanned run stays bit-identical to an
        unspanned one (asserted by
        ``tests/experiments/test_observability.py``).
    observe:
        Enable the observability layer: a live
        :class:`~repro.obs.registry.MetricsRegistry` shared by every
        simulation entity plus a :class:`~repro.obs.probes.TrustProbe`
        sampling the CH's TI map at every decision.  Instrumentation
        reads state but never mutates it (and never touches an RNG), so
        an observed run stays bit-identical to an unobserved one.
        After :meth:`run`, :meth:`export_artifacts` serialises
        everything to JSONL next to a manifest.
    chaos_plan:
        Optional :class:`~repro.chaos.plan.FaultPlan` of injected
        failures (channel degradation windows, node crash/recover
        churn, partitions, CH crashes with standby failover).  The plan
        is applied through the radio channel's transmit interceptor and
        lifecycle events scheduled at build time; its randomness lives
        on the dedicated ``"chaos"`` stream, so a run with the *empty*
        plan is bit-identical to a run with no plan at all (asserted by
        ``tests/chaos/test_differential.py``).
    """

    CH_ID_OFFSET = 10_000

    def __init__(
        self,
        mode: str = "location",
        n_nodes: int = 100,
        field_side: float = 100.0,
        deployment_kind: str = "grid",
        sensing_radius: float = 20.0,
        r_error: float = 5.0,
        lam: float = 0.25,
        fault_rate: float = 0.1,
        use_trust: bool = True,
        correct_spec: CorrectSpec = CorrectSpec(),
        fault_spec: FaultSpec = FaultSpec(),
        faulty_ids: Sequence[int] = (),
        channel_loss: float = 0.008,
        t_out: float = 1.0,
        round_interval: float = 10.0,
        quiet_windows: bool = True,
        diagnosis_threshold: Optional[float] = None,
        concurrent_batch: int = 1,
        seed: int = 0,
        tracing: bool = True,
        observe: bool = False,
        spans: bool = False,
        journal: bool = False,
        chaos_plan: Optional[FaultPlan] = None,
    ) -> None:
        if mode not in ("binary", "location"):
            raise ValueError(f"mode must be 'binary' or 'location', got {mode!r}")
        if deployment_kind not in ("grid", "random"):
            raise ValueError(
                f"deployment_kind must be 'grid' or 'random', got {deployment_kind!r}"
            )
        if round_interval <= 2 * t_out:
            raise ValueError(
                "round_interval must exceed 2*t_out so windows never span rounds"
            )
        unknown_faulty = set(faulty_ids) - set(range(n_nodes))
        if unknown_faulty:
            raise ValueError(f"faulty_ids outside deployment: {sorted(unknown_faulty)}")

        self.mode = mode
        self.n_nodes = n_nodes
        self.field_side = field_side
        self.deployment_kind = deployment_kind
        self.sensing_radius = sensing_radius
        self.r_error = r_error
        self.trust_params = TrustParameters(lam=lam, fault_rate=fault_rate)
        self.use_trust = use_trust
        self.correct_spec = correct_spec
        self.fault_spec = fault_spec
        self.initial_faulty = tuple(sorted(set(faulty_ids)))
        self.channel_loss = channel_loss
        self.t_out = t_out
        self.round_interval = round_interval
        self.quiet_windows = quiet_windows
        self.diagnosis_threshold = diagnosis_threshold
        self.concurrent_batch = concurrent_batch
        self.seed = seed
        self.tracing = tracing
        self.observe = observe
        self.journal = journal
        self.chaos_plan = chaos_plan
        self.chaos: Optional[ChaosController] = None
        self._retired_chs: List[ClusterHead] = []
        self.registry = (
            MetricsRegistry(enabled=True) if observe else NULL_REGISTRY
        )
        self.spans = SpanCollector() if spans else NULL_SPANS
        self.probe: Optional[TrustProbe] = None
        self.timings: Dict[str, float] = {}

        self._compromises: List[CompromiseOrder] = []
        self._round_index = 0
        self.events: List[GroundTruthEvent] = []
        self._built = False

        # Populated by build():
        self.sim: Optional[Simulator] = None
        self.channel: Optional[RadioChannel] = None
        self.deployment: Optional[Deployment] = None
        self.nodes: Dict[int, SensorNode] = {}
        self.ch: Optional[ClusterHead] = None
        self.generator: Optional[EventGenerator] = None
        self._coordinator: Optional[CollusionCellPool] = None
        self._ever_faulty: set = set(self.initial_faulty)

    # ------------------------------------------------------------------
    # Pre-run configuration
    # ------------------------------------------------------------------
    def schedule_compromise(
        self, round_index: int, node_ids: Sequence[int], spec: Optional[FaultSpec] = None
    ) -> None:
        """Convert ``node_ids`` to faulty at the start of ``round_index``.

        This is Experiment 3's decay driver ("after every 50 events 5%
        more of the network is compromised").
        """
        if round_index < 0:
            raise ValueError("round_index must be non-negative")
        self._compromises.append(
            CompromiseOrder(
                round_index=round_index,
                node_ids=tuple(sorted(set(node_ids))),
                spec=spec if spec is not None else self.fault_spec,
            )
        )

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self) -> "SimulationRun":
        """Assemble simulator, channel, deployment, behaviours, CH."""
        if self._built:
            raise RuntimeError("build() may only be called once per run")
        self._built = True
        build_start = perf_counter()

        region = Region.square(self.field_side)
        self.sim = Simulator(
            seed=self.seed,
            trace=None if self.tracing else noop_trace(),
            metrics=self.registry,
            spans=self.spans if self.spans.enabled else None,
        )
        self.channel = RadioChannel(
            self.sim, ChannelConfig(loss_probability=self.channel_loss)
        )
        if self.deployment_kind == "grid":
            # Grid geometry is RNG-free, so all trials of a sweep point
            # share one memoised template (positions copied, spatial
            # index snapshot shared) instead of rebuilding per trial.
            # r_s is the cell size the location engine's ensure_index
            # call asks for, so the shared snapshot is a direct hit.
            self.deployment = shared_grid_deployment(
                self.n_nodes, region, index_cell=self.sensing_radius
            )
        else:
            self.deployment = uniform_random_deployment(
                self.n_nodes, region, self.sim.streams.get("deployment")
            )

        ch_id = self.CH_ID_OFFSET
        self.ch = ClusterHead(
            node_id=ch_id,
            position=region.center,
            deployment=self.deployment,
            config=ClusterHeadConfig(
                mode=self.mode,
                t_out=self.t_out,
                sensing_radius=self.sensing_radius,
                r_error=self.r_error,
                trust=self.trust_params,
                use_trust=self.use_trust,
                diagnosis_threshold=self.diagnosis_threshold,
                journal=self.journal,
            ),
        )
        self.channel.register(self.ch)

        sensing_correct = SensingModel(
            SensingConfig(
                sensing_radius=self.sensing_radius,
                location_sigma=self.correct_spec.sigma,
            )
        )
        self._sensing_correct = sensing_correct

        faulty = set(self.initial_faulty)
        for node_id in self.deployment.node_ids():
            behavior = (
                self._make_faulty_behavior(sensing_correct, node_id)
                if node_id in faulty
                else self._make_correct_behavior(sensing_correct)
            )
            node = SensorNode(
                node_id=node_id,
                position=self.deployment.position_of(node_id),
                behavior=behavior,
                sensing=sensing_correct,
                ch_id=ch_id,
                rng=self.sim.streams.get(f"node-{node_id}"),
                region=region,
            )
            # Smart adversaries track their own TI from CH broadcasts;
            # under the baseline there is no TI to track (§4.2 context).
            node.feedback_enabled = self.use_trust
            self.nodes[node_id] = node
            self.channel.register(node)

        self.generator = EventGenerator(
            region,
            self.sim.streams.get("events"),
            min_separation=(
                2.0 * self.r_error if self.concurrent_batch > 1 else None
            ),
        )
        if self.observe:
            self.probe = TrustProbe(
                self.ch.trust, self.registry, diagnoser=self.ch.diagnoser
            )
            self.ch.probe = self.probe
            self.probe.sample(self.sim.now)  # t=0 baseline: all TI = 1.0
        if self.chaos_plan is not None:
            # Installing the empty plan is a guaranteed no-op (no
            # interceptor, no lifecycle events), so runs constructed with
            # EMPTY_PLAN stay bit-identical to runs with no plan at all.
            self.chaos = ChaosController(
                self.chaos_plan,
                self.sim,
                self.channel,
                node_resolver=self._chaos_endpoint,
                ch_crash=self._chaos_ch_crash,
                ch_recover=self._chaos_ch_recover,
            ).install()
        self.timings["build_s"] = perf_counter() - build_start
        return self

    # ------------------------------------------------------------------
    # Chaos lifecycle (see repro.chaos.plan.ChaosController)
    # ------------------------------------------------------------------
    def _chaos_endpoint(self, node_id: int):
        node = self.nodes.get(node_id)
        if node is not None:
            return node
        assert self.channel is not None
        return self.channel.node(node_id)

    def _chaos_ch_crash(self, crash: ChCrash) -> None:
        assert self.ch is not None and self.sim is not None
        self.ch.kill()
        self.sim.trace.emit(
            self.sim.now, "chaos.ch-crash", ch=self.ch.node_id
        )
        if self.sim.metrics.enabled:
            self.sim.metrics.counter("chaos.ch-crash").inc()
        if crash.failover:
            self._promote_standby()

    def _chaos_ch_recover(self, crash: ChCrash) -> None:
        assert self.ch is not None and self.sim is not None
        self.ch.revive()
        self.sim.trace.emit(
            self.sim.now, "chaos.ch-recover", ch=self.ch.node_id
        )

    def _promote_standby(self) -> None:
        assert self.ch is not None and self.sim is not None
        assert self.channel is not None and self.deployment is not None
        retired = self.ch
        self._retired_chs.append(retired)
        standby_id = self.CH_ID_OFFSET + len(self._retired_chs)
        standby = ClusterHead(
            node_id=standby_id,
            position=retired.position,
            deployment=self.deployment,
            config=retired.config,
            base_station_id=retired.base_station_id,
            cluster_id=retired.cluster_id,
        )
        # §3.4: a shadow CH mirrors the active head's trust state, so
        # the promoted standby resumes from the TI table at crash time.
        standby.trust.import_state(retired.trust.export_state())
        self.channel.register(standby)
        self.ch = standby
        for node in self.nodes.values():
            node.ch_id = standby_id
        if self.probe is not None:
            self.probe.table = standby.trust
            self.probe.diagnoser = standby.diagnoser
            standby.probe = self.probe
        self.sim.trace.emit(
            self.sim.now,
            "chaos.ch-failover",
            old=retired.node_id,
            new=standby_id,
        )
        if self.sim.metrics.enabled:
            self.sim.metrics.counter("chaos.ch-failover").inc()

    def _make_correct_behavior(self, sensing: SensingModel) -> NodeBehavior:
        return make_correct_behavior(self.correct_spec, sensing)

    def _make_faulty_behavior(
        self,
        sensing: SensingModel,
        node_id: int,
        spec: Optional[FaultSpec] = None,
    ) -> NodeBehavior:
        if spec is None:
            spec = self.fault_spec
        coordinator = None
        if spec.level == 2:
            if self._coordinator is None:
                # One pool of collusion cells per run; colluders are
                # assigned to cells round-robin as they are created.
                assert self.sim is not None
                self._coordinator = CollusionCellPool(
                    spec, sensing, self.sim.streams.get("collusion")
                )
            coordinator = self._coordinator.assign()
        return make_faulty_behavior(
            spec,
            sensing,
            node_id,
            self.trust_params,
            correct_spec=self.correct_spec,
            coordinator=coordinator,
        )

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self, n_rounds: int) -> "SimulationRun":
        """Drive ``n_rounds`` event rounds to completion."""
        if not self._built:
            self.build()
        assert self.sim is not None and self.generator is not None
        if n_rounds <= 0:
            raise ValueError(f"n_rounds must be positive, got {n_rounds}")
        run_start = perf_counter()

        for round_index in range(n_rounds):
            round_time = (round_index + 1) * self.round_interval
            self.sim.at(
                round_time,
                self._fire_round,
                round_index,
                priority=-1,
                label=f"round-{round_index}",
            )
            if self.quiet_windows:
                self.sim.at(
                    round_time + self.round_interval / 2.0,
                    self._fire_quiet_window,
                    label=f"quiet-{round_index}",
                )
        self.sim.run()
        assert self.ch is not None
        self.ch.flush()
        self.sim.run()
        if self.observe:
            assert self.probe is not None
            self.probe.sample(self.sim.now)  # end-of-run state
            self.sim.record_kernel_metrics()
        self.timings["run_s"] = perf_counter() - run_start
        return self

    def _fire_round(self, round_index: int) -> None:
        self._round_index = round_index
        self._apply_compromises(round_index)
        assert self.generator is not None and self.sim is not None
        batch = self.generator.next_batch(
            self.concurrent_batch, time=self.sim.now
        )
        self.events.extend(batch)
        nodes = self.nodes
        spans = self.sim.spans
        for event in batch:
            # Only event neighbours can report (compose_report's detects
            # gate uses the same radius and the same correctly-rounded
            # distance expression as the spatial index), so the disk
            # query prunes the all-nodes sweep without touching any
            # node's private RNG stream.  Neighbour ids come back sorted
            # ascending, matching self.nodes insertion order, so report
            # order -- and hence channel-stream consumption -- is
            # unchanged.
            neighbors = self.deployment.event_neighbors(
                event.location, self.sensing_radius
            )
            if spans.enabled:
                # Root of the causal chain: the ground-truth event.
                # Each composed report gets a span and binds its
                # message id, so the radio transmit parents there.
                event_ctx = spans.point(
                    "event",
                    event_id=event.event_id,
                    x=event.location.x,
                    y=event.location.y,
                )
                spans.current = event_ctx
                pending = []
                for node_id in neighbors:
                    node = nodes.get(node_id)
                    if node is None:
                        continue
                    message = node.compose_report(event)
                    if message is None:
                        continue
                    spans.bind(
                        message.message_id,
                        spans.point(
                            "report",
                            parent=event_ctx,
                            node=node.node_id,
                            message_id=message.message_id,
                        ),
                    )
                    pending.append((node, message))
                self._dispatch_reports(pending)
                spans.current = 0
                continue
            self._dispatch_reports(
                [
                    (node, message)
                    for node_id in neighbors
                    if (node := nodes.get(node_id)) is not None
                    and (message := node.compose_report(event)) is not None
                ]
            )

    def _fire_quiet_window(self) -> None:
        # quiet_inert behaviours (e.g. correct nodes with a zero false
        # alarm rate) neither draw from their stream nor report, so
        # skipping the call wholesale is bit-identical to making it.
        spans = self.sim.spans
        if spans.enabled:
            # False alarms have no ground-truth event; they root under
            # a quiet-window marker so the explain chain names them.
            quiet_ctx = 0
            pending = []
            for node in self.nodes.values():
                if node.behavior.quiet_inert:
                    continue
                message = node.compose_false_alarm()
                if message is None:
                    continue
                if not quiet_ctx:
                    quiet_ctx = spans.point("event", event_id=-1, quiet=True)
                    spans.current = quiet_ctx
                spans.bind(
                    message.message_id,
                    spans.point(
                        "report",
                        parent=quiet_ctx,
                        node=node.node_id,
                        message_id=message.message_id,
                    ),
                )
                pending.append((node, message))
            self._dispatch_reports(pending)
            spans.current = 0
            return
        self._dispatch_reports(
            [
                (node, message)
                for node in self.nodes.values()
                if not node.behavior.quiet_inert
                and (message := node.compose_false_alarm()) is not None
            ]
        )

    def _dispatch_reports(self, pending) -> None:
        """Radio-transmit one round's composed reports as a single batch.

        Composing first and transmitting second is bit-identical to the
        per-node compose-and-send interleaving: behaviour draws live on
        per-node streams, channel draws on the ``"channel"`` stream, and
        each stream is still consumed in node order.  Consecutive
        reports bound for the same CH ride one ``unicast_batch`` -- all
        of a round's, since every node follows the one active CH.
        """
        assert self.channel is not None
        for ch_id, group in groupby(pending, key=lambda item: item[0].ch_id):
            batch = list(group)
            self.channel.unicast_batch(
                [node.node_id for node, _ in batch],
                ch_id,
                [message for _, message in batch],
            )

    def _apply_compromises(self, round_index: int) -> None:
        for order in self._compromises:
            if order.round_index != round_index:
                continue
            for node_id in order.node_ids:
                node = self.nodes.get(node_id)
                if node is None:
                    continue
                behavior = self._make_faulty_behavior(
                    self._sensing_correct, node_id, spec=order.spec
                )
                node.compromise(behavior)
                self._ever_faulty.add(node_id)
                assert self.sim is not None
                self.sim.trace.emit(
                    self.sim.now, "harness.compromise", node=node_id
                )

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def all_decisions(self) -> List[DecisionRecord]:
        """The decision timeline across every CH this run ever had.

        Without CH failover this is exactly the active head's log (the
        same list object -- no copy).  After a failover the retired
        heads' logs are merged with the active one in time order.
        """
        assert self.ch is not None
        if not self._retired_chs:
            return self.ch.decisions
        merged: List[DecisionRecord] = []
        for ch in (*self._retired_chs, self.ch):
            merged.extend(ch.decisions)
        merged.sort(key=lambda record: (record.time, record.decision_id))
        return merged

    def metrics(self) -> RunMetrics:
        """Score the completed run against ground truth."""
        assert self.ch is not None
        quiet_offset = (
            self.round_interval / 2.0 if self.quiet_windows else None
        )
        decisions = self.all_decisions()
        outcomes, false_positives = score_run(
            self.events,
            decisions,
            round_interval=self.round_interval,
            r_error=self.r_error if self.mode == "location" else None,
            quiet_window_offset=quiet_offset,
        )
        diagnosed: Tuple[int, ...] = ()
        if self._retired_chs:
            union: set = set()
            for ch in (*self._retired_chs, self.ch):
                if ch.diagnoser is not None:
                    union.update(ch.diagnoser.diagnosed)
            diagnosed = tuple(sorted(union))
        elif self.ch.diagnoser is not None:
            diagnosed = self.ch.diagnoser.diagnosed
        n_quiet = len({e.time for e in self.events}) if self.quiet_windows else 0
        return RunMetrics(
            outcomes=outcomes,
            false_positive_decisions=false_positives,
            quiet_windows=n_quiet,
            decisions_total=len(decisions),
            diagnosed_nodes=diagnosed,
            truly_faulty_nodes=tuple(sorted(self._ever_faulty)),
        )

    def trust_snapshot(self) -> Dict[int, float]:
        """Current TI of every node as held by the CH."""
        assert self.ch is not None
        return self.ch.trust.tis()

    def session_journal(self) -> List[Dict[str, object]]:
        """Every decided window's raw inputs, across the run's CHs.

        Requires ``journal=True``.  One JSON-serialisable record per
        closed window in close order (see
        :meth:`repro.service.session.TrustSession.journal_records`);
        feeding them through ``TrustSession.replay_window`` on a fresh
        session reproduces the run's trust state bit for bit.  After a
        chaos CH failover the segments concatenate per head -- replay
        must mirror the trust hand-off between segments itself.
        """
        assert self.ch is not None
        records: List[Dict[str, object]] = []
        for ch in (*self._retired_chs, self.ch):
            records.extend(ch.session.journal_records())
        return records

    # ------------------------------------------------------------------
    # Observability export
    # ------------------------------------------------------------------
    def config_dict(self) -> Dict[str, object]:
        """The run's full configuration as a JSON-serialisable dict."""
        return {
            "mode": self.mode,
            "n_nodes": self.n_nodes,
            "field_side": self.field_side,
            "deployment_kind": self.deployment_kind,
            "sensing_radius": self.sensing_radius,
            "r_error": self.r_error,
            "lam": self.trust_params.lam,
            "fault_rate": self.trust_params.fault_rate,
            "use_trust": self.use_trust,
            "correct_spec": asdict(self.correct_spec),
            "fault_spec": asdict(self.fault_spec),
            "faulty_ids": list(self.initial_faulty),
            "channel_loss": self.channel_loss,
            "t_out": self.t_out,
            "round_interval": self.round_interval,
            "quiet_windows": self.quiet_windows,
            "diagnosis_threshold": self.diagnosis_threshold,
            "concurrent_batch": self.concurrent_batch,
            "seed": self.seed,
            "chaos_plan": (
                None if self.chaos_plan is None
                else self.chaos_plan.to_dict()
            ),
        }

    def export_artifacts(self, out_dir) -> Dict[str, Path]:
        """Serialise the run's observability state to ``out_dir``.

        Writes ``manifest.json``, ``metrics.jsonl``, ``trace.jsonl``
        and ``ti_series.jsonl`` (see :mod:`repro.obs.export` for the
        schemas); runs created with ``spans=True`` additionally write
        ``spans.jsonl``, ``provenance.jsonl`` and ``spans_chrome.json``.
        Only meaningful after :meth:`run`; requires the run to have
        been created with ``observe=True``.
        """
        if not self.observe:
            raise RuntimeError(
                "export_artifacts requires observe=True (no registry/probe "
                "was attached to this run)"
            )
        assert self.sim is not None and self.ch is not None
        assert self.probe is not None
        out = Path(out_dir)
        counts = {
            "events": len(self.events),
            "decisions": len(self.all_decisions()),
            "events_fired": self.sim.events_fired,
            "trace_records": len(self.sim.trace),
            "probe_samples": self.probe.n_samples,
        }
        if self.spans.enabled:
            counts["spans_emitted"] = self.spans.emitted
            counts["spans_evicted"] = self.spans.evicted
        manifest = build_manifest(
            kind="simulation-run",
            config=self.config_dict(),
            seed=self.seed,
            timings=self.timings,
            counts=counts,
        )
        paths = {
            "manifest": write_json(out / "manifest.json", manifest),
            "metrics": write_jsonl(
                out / "metrics.jsonl", self.registry.snapshot()
            ),
            "trace": write_jsonl(
                out / "trace.jsonl", trace_records(self.sim.trace)
            ),
            "ti_series": write_jsonl(
                out / "ti_series.jsonl", self.probe.to_records()
            ),
        }
        if self.journal:
            paths["session_journal"] = write_jsonl(
                out / "session_journal.jsonl", self.session_journal()
            )
        if self.spans.enabled:
            span_dump = list(self.spans.to_records())
            paths["spans"] = write_jsonl(out / "spans.jsonl", span_dump)
            index = ProvenanceIndex(span_dump)
            paths["provenance"] = write_jsonl(
                out / "provenance.jsonl", index.to_records()
            )
            paths["spans_chrome"] = write_json(
                out / "spans_chrome.json", chrome_trace(span_dump)
            )
        return paths
