"""DES workloads: sweep points of Experiments 1 and 2.

Each point is one production :class:`~repro.experiments.harness.
SimulationRun` -- build, run the event stream, score against ground
truth -- configured from the experiment's own parameter sheet
(``Experiment1Config`` / ``Experiment2Config``) exactly as its
``run_point`` does, plus a diagnosis threshold so the TI-threshold
isolation layer does work.  A workload cycles through a fixed list of
seeded points.

Correctness: for every point, one untimed ``journal=True`` run is
replayed into a bare :class:`~repro.service.session.TrustSession`,
which must reproduce its TIs, verdicts and diagnosed set; that run's
``run_fingerprint`` is the point's reference, and every timed and
traced run of the point must reproduce it.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from dataclasses import asdict, is_dataclass, replace
from typing import Dict, List, Tuple

import calib
from inputs import PointSpec, des_points, size_histogram
from layers import Tracer, layer_metrics
from report import Ledger, percentile

# Point cost varies ~20% between faulty sets, so a seed's mean cost
# needs many distinct points to be steady across seeds.
POINTS_PER_SEED = 48
MEM_POINTS = 12
DIAGNOSIS_THRESHOLD = 0.3

CONFIGS = {
    # Table 2, level-1 liars: the sec. 2.1 lowerTI/upperTI feedback on
    # announcements is live, so the announcement fan-out runs.
    "des_location": {"experiment": 2, "fault_level": 1, "events": 100,
                     "percents": (30.0, 50.0)},
    # Table 1, level-0 liars over long event streams: the CTI vote is
    # the largest named layer and clustering never runs.
    "des_binary": {"experiment": 1, "fault_level": 0, "events": 400,
                   "percents": (40.0, 70.0)},
}


def workload_config(workload: str) -> Dict[str, object]:
    run = {k: asdict(v) if is_dataclass(v) else v
           for k, v in _run_kwargs(workload).items()}
    return {**CONFIGS[workload], "points": POINTS_PER_SEED,
            "mem_points": MEM_POINTS, "run": run}


def _run_kwargs(workload: str) -> Dict[str, object]:
    """``SimulationRun`` arguments shared by every point of a workload."""
    from repro.experiments.config import Experiment1Config, Experiment2Config
    from repro.experiments.harness import CorrectSpec, FaultSpec

    cfg = CONFIGS[workload]
    if cfg["experiment"] == 1:
        e1 = replace(Experiment1Config(), events_per_run=cfg["events"])
        return dict(
            mode="binary", n_nodes=e1.n_nodes, field_side=30.0,
            deployment_kind="grid", sensing_radius=100.0, r_error=5.0,
            lam=e1.lam, fault_rate=e1.effective_fault_rate,
            use_trust=e1.use_trust,
            correct_spec=CorrectSpec(miss_rate=e1.correct_ner),
            fault_spec=FaultSpec(level=cfg["fault_level"],
                                 drop_rate=e1.faulty_miss_rate,
                                 false_alarm_rate=e1.faulty_false_alarm_rate),
            channel_loss=0.0, diagnosis_threshold=DIAGNOSIS_THRESHOLD,
            tracing=False,
        )
    e2 = replace(Experiment2Config(), fault_level=cfg["fault_level"],
                 events_per_run=cfg["events"])
    return dict(
        mode="location", n_nodes=e2.n_nodes, field_side=e2.field_side,
        deployment_kind="grid", sensing_radius=e2.sensing_radius,
        r_error=e2.r_error, lam=e2.lam, fault_rate=e2.fault_rate,
        use_trust=e2.use_trust,
        correct_spec=CorrectSpec(sigma=e2.sigma_correct),
        fault_spec=FaultSpec(level=e2.fault_level,
                             drop_rate=e2.faulty_drop_rate,
                             sigma=e2.sigma_faulty, lower_ti=e2.lower_ti,
                             upper_ti=e2.upper_ti),
        channel_loss=e2.channel_loss, concurrent_batch=1,
        diagnosis_threshold=DIAGNOSIS_THRESHOLD, tracing=False,
    )


def points(workload: str, seed: int) -> List[PointSpec]:
    cfg = CONFIGS[workload]
    n_nodes = _run_kwargs(workload)["n_nodes"]
    return des_points(seed, n_nodes, cfg["percents"], POINTS_PER_SEED)


def _make_run(workload: str, spec: PointSpec, journal: bool = False):
    from repro.experiments.harness import SimulationRun

    return SimulationRun(**_run_kwargs(workload), faulty_ids=spec.faulty_ids,
                         seed=spec.run_seed, journal=journal)


def run_point(workload: str, spec: PointSpec):
    """One sweep point as a user runs it: build, simulate, score."""
    run = _make_run(workload, spec)
    run.run(CONFIGS[workload]["events"])
    run.metrics()
    return run


def setup(workload: str, seed: int) -> None:
    """Deployment plus one warm-up point (what ``setup_s`` times)."""
    run_point(workload, points(workload, seed)[0])


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def _strip_ids(decisions) -> List[Tuple]:
    return [(d.time, d.occurred, d.location, d.supporters, d.dissenters)
            for d in decisions]


def reference(workload: str, spec: PointSpec, ledger: Ledger
              ) -> Tuple[str, List[int]]:
    """The point's reference fingerprint and its window sizes.

    Replays the journalled run into a bare session (the DES-to-service replay contract:
    same TIs, verdicts and diagnosed set) and records each mismatch.
    """
    from repro.chaos.invariants import run_fingerprint
    from repro.service.session import SessionConfig, TrustSession

    run = _make_run(workload, spec, journal=True)
    run.run(CONFIGS[workload]["events"])
    records = json.loads(json.dumps(run.session_journal()))
    head = run.ch.config
    session = TrustSession(
        run.deployment,
        SessionConfig(
            mode=head.mode, sensing_radius=head.sensing_radius,
            r_error=head.r_error, trust=head.trust, use_trust=head.use_trust,
            diagnosis_threshold=head.diagnosis_threshold,
            tie_breaks_to_occurred=head.tie_breaks_to_occurred,
            owner_id=run.ch.node_id,
        ),
        members=run.ch.members,
    )
    for record in records:
        session.replay_window(record)
    tag = f"{workload} point seed {spec.run_seed}"
    ledger.check(session.tis() == run.trust_snapshot(),
                 f"{tag}: replayed TIs differ from the DES run")
    ledger.check(_strip_ids(session.decisions)
                 == _strip_ids(run.all_decisions()),
                 f"{tag}: replayed verdicts differ from the DES run")
    ledger.check(session.diagnosed() == run.ch.diagnoser.diagnosed,
                 f"{tag}: replayed diagnosed set differs from the DES run")
    sizes = [len(r["senders"]) if r["mode"] == "binary" else len(r["rows"])
             for r in records]
    return run_fingerprint(run), sizes


class PointLoop:
    """Times points round-robin over the seed's specs and gates each."""

    def __init__(self, workload: str, seed: int, ledger: Ledger) -> None:
        self.workload = workload
        self.specs = points(workload, seed)
        self.ledger = ledger
        self.picker = calib.CorePicker()
        self.refs: List[str] = []
        sizes: List[int] = []
        for spec in self.specs:
            fingerprint, spec_sizes = reference(workload, spec, ledger)
            self.refs.append(fingerprint)
            sizes.extend(spec_sizes)
        self.window_sizes = sizes

    def run(self, count: int = 0, seconds: float = 0.0):
        """Run ``count`` points, or as many as fit in ``seconds``.

        Returns per-point ``(point, wall_s, cpu_s, events, scale)`` and
        the runs' simulator/radio totals.  Before each point the loop
        pins itself to the least contended CPU; ``scale`` converts the
        point's times to the reference machine speed (see ``calib``).
        """
        from repro.chaos.invariants import run_fingerprint

        samples: List[Tuple[int, float, float, int, float]] = []
        totals = {"simkernel.events": 0, "radio.sent": 0,
                  "radio.delivered": 0}
        deadline = time.perf_counter() + seconds
        i = 0
        try:
            while (i < count) if count else (time.perf_counter() < deadline):
                k = i % len(self.specs)
                spec = self.specs[k]
                scale = self.picker.pick()
                t0 = time.perf_counter()
                c0 = time.process_time()
                try:
                    run = run_point(self.workload, spec)
                except Exception as exc:  # counted, the run goes on
                    self.ledger.fail(f"{self.workload} point {k}: {exc!r}")
                    i += 1
                    continue
                c1 = time.process_time()
                t1 = time.perf_counter()
                samples.append((k, t1 - t0, c1 - c0, len(run.events), scale))
                self.ledger.check(
                    run_fingerprint(run) == self.refs[k],
                    f"{self.workload} point {k}: fingerprint differs from "
                    "its journal-replayed reference")
                totals["simkernel.events"] += run.sim.events_fired
                totals["radio.sent"] += run.channel.sent
                totals["radio.delivered"] += run.channel.delivered
                i += 1
        finally:
            self.picker.release()
        return samples, totals


def retained_bytes(workload: str, specs: List[PointSpec]) -> float:
    """Mean tracemalloc bytes a finished, scored point keeps alive."""
    total = 0
    for spec in specs:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run = run_point(workload, spec)
            total += tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        del run
    return total / len(specs)


def per_point(samples, scaled: bool = True
              ) -> Dict[int, Tuple[float, float, int]]:
    """Each point's median over its repeats: ``{point: (wall_s, cpu_s,
    events)}``, times scaled to the reference machine speed unless
    ``scaled`` is false."""
    repeats: Dict[int, list] = {}
    for k, wall, cpu, events, scale in samples:
        f = scale if scaled else 1.0
        repeats.setdefault(k, []).append((wall * f, cpu * f, events))
    return {
        k: (statistics.median(r[0] for r in v),
            statistics.median(r[1] for r in v), v[0][2])
        for k, v in repeats.items()
    }


def sweep_figures(points: Dict[int, Tuple[float, float, int]]
                  ) -> Dict[str, float]:
    """Figures of one pass over every point, from per-point times."""
    walls = [p[0] for p in points.values()]
    events = sum(p[2] for p in points.values())
    return {
        "throughput_per_s": events / sum(walls),
        "cpu_ms_per_op": 1e3 * sum(p[1] for p in points.values()) / events,
        "p50_ms": 1e3 * percentile(walls, 50),
        "p90_ms": 1e3 * percentile(walls, 90),
    }


def measure(workload: str, seed: int, seconds: float, ledger: Ledger
            ) -> Tuple[Dict[str, float], Dict[str, object]]:
    loop = PointLoop(workload, seed, ledger)
    run_point(workload, loop.specs[0])  # warm-up, untimed
    mem = retained_bytes(workload, loop.specs[:MEM_POINTS])
    samples, _ = loop.run(seconds=seconds)
    points = per_point(samples)
    metrics = dict(sweep_figures(points), mem_bytes=mem)
    raw = sweep_figures(per_point(samples, scaled=False))
    detail = {
        "points_timed": len(samples),
        "distinct_points_timed": len(points),
        "events_per_sweep": sum(p[2] for p in points.values()),
        "cores": loop.picker.summary(),
        "figures": {
            "events_per_s": [metrics["throughput_per_s"], "1/s"],
            "cpu_ms_per_event": [metrics["cpu_ms_per_op"], "ms"],
            "point_p50_ms": [metrics["p50_ms"], "ms"],
            "point_p90_ms": [metrics["p90_ms"], "ms"],
            "run_retained_bytes": [mem, "bytes"],
        },
        "unscaled": raw,
        "inputs": _properties(workload, loop),
    }
    return metrics, detail


def trace(workload: str, seed: int, seconds: float, ledger: Ledger
          ) -> Tuple[Dict[str, float], Dict[str, object], Tracer]:
    loop = PointLoop(workload, seed, ledger)
    run_point(workload, loop.specs[0])  # warm-up, untimed
    plain, _ = loop.run(seconds=0.4 * seconds)
    tracer = Tracer().install()
    try:
        traced, extra = loop.run(count=len(plain))
    finally:
        tracer.uninstall()
    overhead = (sum(p[0] for p in per_point(traced).values())
                / sum(p[0] for p in per_point(plain).values()) - 1.0)
    metrics = layer_metrics(tracer.totals(), sum(s[1] for s in traced),
                            extra, overhead)
    detail = {"points_traced": len(traced), "tracer": tracer.totals(),
              "cores": loop.picker.summary(),
              "inputs": _properties(workload, loop)}
    return metrics, detail, tracer


def _properties(workload: str, loop: PointLoop) -> Dict[str, object]:
    kwargs = _run_kwargs(workload)
    props = size_histogram(loop.window_sizes)
    props.update({
        "points": len(loop.specs),
        "events_per_point": CONFIGS[workload]["events"],
        "faulty_node_share": sum(len(s.faulty_ids) for s in loop.specs)
        / (kwargs["n_nodes"] * len(loop.specs)),
        "percent_faulty": sorted({s.percent_faulty for s in loop.specs}),
    })
    return props
