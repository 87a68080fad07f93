#!/usr/bin/env python
"""Save and compare kernel microbenchmark baselines.

``save`` runs the substrate microbenches
(``benchmarks/test_bench_kernel_throughput.py``) and writes the median
ns/op of each to ``BENCH_kernel.json`` -- the repo's performance
trajectory file.  ``compare`` re-runs them and fails loudly when any
bench regressed more than the threshold (default 25%) against the saved
baseline, so a hot-path regression is caught before it silently
stretches every sweep.

Usage (from the repo root)::

    python benchmarks/bench_baseline.py save
    python benchmarks/bench_baseline.py compare [--threshold 0.25]

or via ``make bench-save`` / ``make bench-compare``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = "benchmarks/test_bench_kernel_throughput.py"
BASELINE_PATH = REPO_ROOT / "BENCH_kernel.json"


def run_benches() -> dict:
    """Execute the kernel microbenches; return ``{name: median_ns}``."""
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "bench.json"
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src
        )
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                BENCH_FILE,
                "--benchmark-only",
                f"--benchmark-json={json_path}",
                "-q",
            ],
            cwd=REPO_ROOT,
            env=env,
        )
        if result.returncode != 0:
            raise SystemExit(f"benchmark run failed (exit {result.returncode})")
        data = json.loads(json_path.read_text())
    return {
        bench["name"]: bench["stats"]["median"] * 1e9
        for bench in data["benchmarks"]
    }


def git_sha() -> "str | None":
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


def cmd_save(args: argparse.Namespace) -> int:
    medians = run_benches()
    baseline = {
        "note": "median ns/op per kernel microbench; see `make bench-compare`",
        "git_sha": git_sha(),
        "queue_backend": "heap",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "benchmarks": {name: round(ns, 1) for name, ns in sorted(medians.items())},
    }
    BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"wrote {BASELINE_PATH.relative_to(REPO_ROOT)}:")
    for name, ns in sorted(medians.items()):
        print(f"  {name}: {ns:,.0f} ns")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    if not BASELINE_PATH.exists():
        raise SystemExit(
            f"no baseline at {BASELINE_PATH.name}; run `make bench-save` first"
        )
    saved = json.loads(BASELINE_PATH.read_text())["benchmarks"]
    fresh = run_benches()
    failures = []
    for name in sorted(fresh):
        new_ns = fresh[name]
        old_ns = saved.get(name)
        if old_ns is None:
            print(f"  NEW      {name}: {new_ns:,.0f} ns (no baseline)")
            continue
        delta = (new_ns - old_ns) / old_ns
        status = "OK" if delta <= args.threshold else "REGRESSED"
        print(
            f"  {status:<9}{name}: {old_ns:,.0f} -> {new_ns:,.0f} ns "
            f"({delta:+.1%})"
        )
        if delta > args.threshold:
            failures.append(name)
    if failures:
        print(
            f"\nFAIL: {len(failures)} bench(es) regressed more than "
            f"{args.threshold:.0%}: {', '.join(failures)}"
        )
        return 1
    print("\nall benches within threshold")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("save", help="run benches and write BENCH_kernel.json")
    p_cmp = sub.add_parser("compare", help="fail on regression vs. baseline")
    p_cmp.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="maximum tolerated slowdown per bench (default 0.25 = 25%%)",
    )
    args = parser.parse_args()
    return {"save": cmd_save, "compare": cmd_compare}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
