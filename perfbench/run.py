#!/usr/bin/env python3
"""TIBFIT benchmark: one seeded workload, checked, in one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload des_location --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` instead runs the workload twice over the same inputs,
untraced then traced, and reports the per-layer breakdown.  Either way
every output is checked, and the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
line before it (``detail {...}``) carries the provenance stamp, the
input properties and the workload's own figures.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from report import ROOT, SRC, Ledger, provenance  # noqa: E402

WORKLOADS = ("des_location", "des_binary", "service_ingest", "service_http")
SETUP_SAMPLES = 5
HELD_OUT_SEED = 20051

E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "mem_bytes": "bytes",
}

LAYER_UNITS = {
    "simkernel.events": "count",
    "simkernel.share": "fraction",
    "radio.send.calls": "count",
    "radio.send.share": "fraction",
    "radio.delivered_ratio": "fraction",
    "sensors.on_message.calls": "count",
    "sensors.on_message.share": "fraction",
    "sensors.sense.share": "fraction",
    "clusterctl.on_message.calls": "count",
    "clusterctl.on_message.share": "fraction",
    "decision.calls": "count",
    "decision.share": "fraction",
    "decision.small_route_ratio": "fraction",
    "clustering.calls": "count",
    "clustering.share": "fraction",
    "trust.vote.calls": "count",
    "trust.vote.share": "fraction",
    "diagnosis.share": "fraction",
    "diagnosis.diagnosed": "count",
    "session.ingest.calls": "count",
    "session.ingest.share": "fraction",
    "session.ingest.accepted_ratio": "fraction",
    "session.close.share": "fraction",
    "session.decisions_per_close": "count",
    "manager.lock_s": "s",
    "manager.created": "count",
    "manager.evicted": "count",
    "manager.create.share": "fraction",
    "http.handler.share": "fraction",
    "http.json_decode.share": "fraction",
    "http.json_encode.share": "fraction",
    "http.wire.share": "fraction",
    "unattributed.share": "fraction",
    "trace_overhead": "fraction",
}


def _setup_children(workload: str, seed: int, ledger: Ledger
                    ) -> List[Tuple[float, float]]:
    """Cold set-ups in fresh interpreters, spawn to ``ready``, as
    ``(seconds, scale)``: each child inherits a pin to the least
    contended CPU, and ``scale`` converts its time to the reference
    machine speed (see ``calib``)."""
    import calib

    picker = calib.CorePicker()
    try:
        samples = [_setup_child(workload, seed, ledger, picker)
                   for _ in range(SETUP_SAMPLES)]
    finally:
        picker.release()
    return [s for s in samples if s is not None]


def _setup_child(workload: str, seed: int, ledger: Ledger, picker
                 ) -> Optional[Tuple[float, float]]:
    scale = picker.pick()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_child.py"), workload, str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
    finally:
        proc.communicate(timeout=60)
    if ledger.check(line == "ready" and proc.returncode == 0,
                    f"set-up child for {workload} failed"):
        return elapsed, scale
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 ledger: Ledger):
    """Returns ``(metrics, detail)`` for one run of ``workload``."""
    import des
    import service

    tracer = None
    if workload.startswith("des_"):
        config = des.workload_config(workload)
        if trace:
            metrics, detail, tracer = des.trace(workload, seed, seconds,
                                                ledger)
        else:
            setups = _setup_children(workload, seed, ledger)
            metrics, detail = des.measure(workload, seed, seconds, ledger)
    elif workload == "service_ingest":
        config = service.workload_config(workload)
        if trace:
            metrics, detail, tracer = service.ingest_trace(seed, seconds,
                                                           ledger)
        else:
            setups = _setup_children(workload, seed, ledger)
            metrics, detail = service.ingest_measure(seed, seconds, ledger)
    else:
        config = service.workload_config(workload)
        if trace:
            metrics, detail, tracer = service.http_trace(seed, seconds,
                                                         ledger)
        else:
            metrics, detail, setups = service.http_measure(
                seed, seconds, ledger, SETUP_SAMPLES)
    if not trace:
        metrics["setup_s"] = statistics.median(t * f for t, f in setups)
        detail["setup_samples_s"] = [t for t, _ in setups]
        detail["setup_scales"] = [f for _, f in setups]
    if tracer is not None:
        path = tracer.dump_spans(HERE / "traces" / f"{workload}-{seed}.json")
        detail["spans_file"] = str(path.relative_to(ROOT))
    detail["provenance"] = provenance(workload, seed, config, trace)
    detail["held_out_seed"] = HELD_OUT_SEED
    return metrics, detail


def result_line(metrics: Dict[str, float], units: Dict[str, str],
                ledger: Ledger) -> Dict[str, object]:
    """The final JSON object; every metric in ``units`` must be present."""
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    ledger = Ledger()
    metrics, detail = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace), ledger)
    detail["failures"] = ledger.failures
    print("detail " + json.dumps(detail, default=str))
    units = LAYER_UNITS if args.trace else E2E_UNITS
    print(json.dumps(result_line(metrics, units, ledger)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
