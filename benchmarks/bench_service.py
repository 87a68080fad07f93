#!/usr/bin/env python
"""Save and compare trust-service load baselines.

Where ``bench_e2e.py`` times the DES experiments, this harness loads
the *service* path the ``serve`` subcommand exposes: many resident
:class:`~repro.service.session.TrustSession` objects behind a
:class:`~repro.service.manager.SessionManager`, driven by
``ingest``/``close_window`` with no simulator attached.

Three benches:

* ``service_resident_sessions`` -- build 10,000 tenants through the
  manager's lazy factory (shared deployment) and push one decided
  window through every one of them; records sessions/sec and proves
  the one-process residency target.
* ``service_ingest_latency`` -- a steady 200x50 report stream over 20
  tenants; records reports/sec plus p50/p99 per-ingest latency.
* ``service_http_roundtrip`` -- full HTTP round trips (POST reports +
  POST close) against an in-process ``ThreadingHTTPServer``; records
  requests/sec.

``save`` writes the metrics to ``BENCH_service.json`` (pushing any
previous snapshot onto its ``history`` list); ``compare`` re-runs and
fails loudly when throughput drops -- or latency rises -- past the
threshold.

Usage (from the repo root)::

    python benchmarks/bench_service.py save [--label "why"]
    python benchmarks/bench_service.py compare [--threshold 0.30]

or via ``make bench-service-save`` / ``make bench-service``.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

BASELINE_PATH = REPO_ROOT / "BENCH_service.json"
RESIDENT_SESSIONS = 10_000

# Latency metrics regress upward; counts and *_per_s rates regress
# downward.  (Match "_ms" only: every rate here also ends in "_s".)
LOWER_IS_BETTER = ("_ms",)
# Ignore relative movement of latencies this small -- at single-digit
# microseconds, scheduler jitter swamps any real change.
LATENCY_FLOOR_MS = 0.05


def git_sha() -> Optional[str]:
    """Short commit hash of the snapshot being measured (None outside git)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def make_manager(max_sessions: int = 0):
    from repro.service.http_api import ServiceConfig, default_session_factory
    from repro.service.manager import SessionManager

    config = ServiceConfig(mode="location", n_nodes=36, field_side=60.0)
    return SessionManager(
        default_session_factory(config), max_sessions=max_sessions
    )


def _bench_resident_sessions() -> Dict[str, float]:
    """10k tenants in one process, each deciding one window."""
    manager = make_manager()
    start = perf_counter()
    for i in range(RESIDENT_SESSIONS):
        with manager.locked(f"tenant-{i}") as session:
            for node in (0, 1, 7):
                session.ingest(node, x=30.0, y=30.0, time=0.5)
            session.close_window(now=1.0)
    elapsed = perf_counter() - start
    stats = manager.stats()
    assert stats["sessions"] == RESIDENT_SESSIONS, stats
    assert stats["evicted"] == 0, stats
    return {
        "resident_sessions": float(RESIDENT_SESSIONS),
        "sessions_per_s": RESIDENT_SESSIONS / elapsed,
    }


def _bench_ingest_latency() -> Dict[str, float]:
    """Steady per-ingest latency over a warm 20-tenant working set."""
    manager = make_manager()
    tenants = [f"t{i}" for i in range(20)]
    for key in tenants:  # warm: create sessions outside the timed loop
        manager.get_or_create(key)
    latencies = []
    total = 0
    start = perf_counter()
    for window in range(200):
        key = tenants[window % len(tenants)]
        with manager.locked(key) as session:
            for node in range(25):
                t0 = perf_counter()
                session.ingest(
                    node % 36, x=30.0, y=30.0, time=float(window)
                )
                latencies.append(perf_counter() - t0)
                total += 1
            session.close_window(now=float(window) + 0.5)
    elapsed = perf_counter() - start
    latencies.sort()
    p50 = latencies[len(latencies) // 2]
    p99 = latencies[int(len(latencies) * 0.99)]
    return {
        "reports_per_s": total / elapsed,
        "ingest_p50_ms": 1e3 * p50,
        "ingest_p99_ms": 1e3 * p99,
    }


def _bench_http_roundtrip() -> Dict[str, float]:
    """Requests/sec through the stdlib HTTP stack, one connection."""
    import threading
    import urllib.request

    from repro.service.http_api import ServiceConfig, serve

    server, _ = serve(
        ServiceConfig(mode="location", n_nodes=36, field_side=60.0), port=0
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"

    def post(path: str, body: dict) -> None:
        request = urllib.request.Request(
            base + path,
            data=json.dumps(body).encode("utf-8"),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            response.read()

    reports = {
        "reports": [
            {"node": n, "x": 30.0, "y": 30.0, "time": 0.5}
            for n in range(5)
        ]
    }
    try:
        post("/v1/sessions/warm/reports", reports)  # warm-up, untimed
        requests = 0
        start = perf_counter()
        for window in range(100):
            key = f"t{window % 10}"
            post(f"/v1/sessions/{key}/reports", reports)
            post(f"/v1/sessions/{key}/close", {"time": float(window)})
            requests += 2
        elapsed = perf_counter() - start
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    return {"http_requests_per_s": requests / elapsed}


BENCHES: Dict[str, Callable[[], Dict[str, float]]] = {
    "service_resident_sessions": _bench_resident_sessions,
    "service_ingest_latency": _bench_ingest_latency,
    "service_http_roundtrip": _bench_http_roundtrip,
}


def run_benches(repeats: int) -> Dict[str, float]:
    """Execute every bench ``repeats`` times; median per metric.

    Benches return metric dicts (throughput and latency together), so
    medians are taken per metric across the repeats.
    """
    metrics: Dict[str, float] = {}
    for name, fn in BENCHES.items():
        samples: Dict[str, list] = {}
        for _ in range(repeats):
            for metric, value in fn().items():
                samples.setdefault(metric, []).append(value)
        for metric, values in samples.items():
            metrics[metric] = statistics.median(values)
        summary = ", ".join(
            f"{metric}={metrics[metric]:,.2f}" for metric in sorted(samples)
        )
        print(f"  {name}: {summary} ({repeats} repeats)")
    return metrics


def cmd_save(args: argparse.Namespace) -> int:
    metrics = run_benches(args.repeats)
    history = []
    if BASELINE_PATH.exists():
        previous = json.loads(BASELINE_PATH.read_text())
        history = previous.get("history", [])
        if "benchmarks" in previous:
            history.append(
                {
                    "label": previous.get("label", "unlabelled"),
                    "python": previous.get("python"),
                    "git_sha": previous.get("git_sha"),
                    "decision_backend": previous.get("decision_backend"),
                    "benchmarks": previous["benchmarks"],
                }
            )
    doc = {
        "note": (
            "trust-service load metrics (throughput up, *_ms latency "
            "down = better); see `make bench-service`"
        ),
        "label": args.label,
        "git_sha": git_sha(),
        "decision_backend": "array",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": args.repeats,
        "resident_sessions_target": RESIDENT_SESSIONS,
        "benchmarks": {
            name: round(value, 6) for name, value in sorted(metrics.items())
        },
        "history": history,
    }
    BASELINE_PATH.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {BASELINE_PATH.relative_to(REPO_ROOT)} "
          f"(label: {args.label})")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    if not BASELINE_PATH.exists():
        raise SystemExit(
            f"no baseline at {BASELINE_PATH.name}; "
            "run `make bench-service-save` first"
        )
    saved = json.loads(BASELINE_PATH.read_text())["benchmarks"]
    fresh = run_benches(args.repeats)
    failures = []
    for name in sorted(fresh):
        new = fresh[name]
        old = saved.get(name)
        if old is None:
            print(f"  NEW      {name}: {new:,.2f} (no baseline)")
            continue
        if name.endswith(LOWER_IS_BETTER):
            if max(old, new) < LATENCY_FLOOR_MS:
                print(f"  OK       {name}: {old:.4f} -> {new:.4f} ms "
                      f"(below {LATENCY_FLOOR_MS} ms noise floor)")
                continue
            delta = (new - old) / old if old else 0.0
        else:
            delta = (old - new) / old if old else 0.0
        status = "OK" if delta <= args.threshold else "REGRESSED"
        print(f"  {status:<9}{name}: {old:,.2f} -> {new:,.2f} "
              f"({delta:+.1%} worse)")
        if delta > args.threshold:
            failures.append(name)
    if failures:
        print(
            f"\nFAIL: {len(failures)} metric(s) regressed more than "
            f"{args.threshold:.0%}: {', '.join(failures)}"
        )
        return 1
    print("\nall service metrics within threshold")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed runs per bench (default 3)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_save = sub.add_parser(
        "save", help="run benches and write BENCH_service.json"
    )
    p_save.add_argument(
        "--label",
        default="unlabelled",
        help="snapshot label recorded in the file",
    )
    p_cmp = sub.add_parser("compare", help="fail on regression vs. baseline")
    p_cmp.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="maximum tolerated regression per metric (default 0.30)",
    )
    args = parser.parse_args()
    return {"save": cmd_save, "compare": cmd_compare}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
