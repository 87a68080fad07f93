#!/usr/bin/env python
"""Save and compare end-to-end sweep-point wall-time baselines.

The kernel microbenches (``BENCH_kernel.json``) time the substrate's
inner loops in isolation; this harness times what a user actually
waits for -- **one fixed sweep point of each experiment, run through
the production ``run_point`` / ``run_decay`` path** -- so a change
whose per-op wins evaporate in composition (or whose fixed costs only
show up at run scale) is visible.

Four benches, one per experiment family:

* ``e2e_exp1_binary``    -- Fig. 2 point (binary, 10 nodes, 100 events)
* ``e2e_exp2_location``  -- Fig. 4 point (location, 100 nodes, 40 events)
* ``e2e_exp3_decay``     -- Fig. 8 decay (100 nodes, 5x10-event windows)
* ``e2e_exp4_rotating``  -- rotating-CH run (100 nodes, 4 leaderships)

Each bench is run ``--repeats`` times (after one untimed warm-up) and
the **median wall seconds** recorded.  ``save`` writes the medians to
``BENCH_e2e.json``; any benchmarks already in the file are first pushed
onto its ``history`` list, so a single file carries the before/after
trajectory of a change.  ``compare`` re-runs and fails loudly on a
regression beyond the threshold.

Usage (from the repo root)::

    python benchmarks/bench_e2e.py save [--label "why this snapshot"]
    python benchmarks/bench_e2e.py compare [--threshold 0.25]

or via ``make bench-e2e-save`` / ``make bench-e2e``.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

BASELINE_PATH = REPO_ROOT / "BENCH_e2e.json"
DEFAULT_REPEATS = 5


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


def decision_backend() -> str:
    """The CH decision backend these numbers were measured under."""
    from repro.core.decision_kernel import resolve_decision_backend

    return resolve_decision_backend()


def _bench_exp1() -> None:
    from repro.experiments import experiment1
    from repro.experiments.config import Experiment1Config

    experiment1.run_point(Experiment1Config(), 60.0, 0)


def _bench_exp2() -> None:
    from repro.experiments import experiment2
    from repro.experiments.config import Experiment2Config

    experiment2.run_point(
        replace(Experiment2Config(), events_per_run=40), 30.0, 0
    )


def _bench_exp3() -> None:
    from repro.experiments import experiment3
    from repro.experiments.config import Experiment3Config

    experiment3.run_decay(
        replace(
            Experiment3Config(),
            events_per_step=10,
            initial_percent=10.0,
            step_percent=10.0,
            final_percent=50.0,
        ),
        0,
    )


def _bench_exp4() -> None:
    from repro.experiments import experiment4
    from repro.experiments.experiment4 import Experiment4Config

    experiment4.run_point(
        Experiment4Config(events_per_leadership=10, leadership_rounds=4),
        30.0,
        0,
        True,
        True,
    )


BENCHES: Dict[str, Callable[[], None]] = {
    "e2e_exp1_binary": _bench_exp1,
    "e2e_exp2_location": _bench_exp2,
    "e2e_exp3_decay": _bench_exp3,
    "e2e_exp4_rotating": _bench_exp4,
}


def run_benches(repeats: int = DEFAULT_REPEATS) -> Dict[str, float]:
    """Execute every e2e bench; returns ``{name: median_seconds}``.

    One untimed warm-up run per bench absorbs import and first-call
    caching costs (numpy ufunc dispatch, the shared-topology memo), so
    the medians measure the steady state a sweep actually runs in.
    """
    medians: Dict[str, float] = {}
    for name, fn in BENCHES.items():
        fn()  # warm-up, untimed
        samples = []
        for _ in range(repeats):
            start = perf_counter()
            fn()
            samples.append(perf_counter() - start)
        medians[name] = statistics.median(samples)
        print(f"  {name}: {1e3 * medians[name]:,.1f} ms median "
              f"({repeats} repeats)")
    return medians


def cmd_save(args: argparse.Namespace) -> int:
    medians = run_benches(args.repeats)
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
                    "queue_backend": previous.get("queue_backend"),
                    "decision_backend": previous.get("decision_backend"),
                    "benchmarks": previous["benchmarks"],
                }
            )
    doc = {
        "note": (
            "median wall seconds per end-to-end sweep-point bench; "
            "see `make bench-e2e`"
        ),
        "label": args.label,
        "git_sha": git_sha(),
        "queue_backend": "heap",
        "decision_backend": decision_backend(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": args.repeats,
        "benchmarks": {
            name: round(s, 6) for name, s in sorted(medians.items())
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
            "run `make bench-e2e-save` first"
        )
    saved = json.loads(BASELINE_PATH.read_text())["benchmarks"]
    fresh = run_benches(args.repeats)
    failures = []
    for name in sorted(fresh):
        new_s = fresh[name]
        old_s = saved.get(name)
        if old_s is None:
            print(f"  NEW      {name}: {1e3 * new_s:,.1f} ms (no baseline)")
            continue
        delta = (new_s - old_s) / old_s
        status = "OK" if delta <= args.threshold else "REGRESSED"
        print(
            f"  {status:<9}{name}: {1e3 * old_s:,.1f} -> {1e3 * new_s:,.1f} "
            f"ms ({delta:+.1%})"
        )
        if delta > args.threshold:
            failures.append(name)
    if failures:
        print(
            f"\nFAIL: {len(failures)} bench(es) regressed more than "
            f"{args.threshold:.0%}: {', '.join(failures)}"
        )
        return 1
    print("\nall e2e benches within threshold")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """cProfile every e2e bench point; print the top cumulative costs.

    One warmed profiled run per bench: the warm-up absorbs import and
    memo-building costs so the profile shows the steady state, the same
    regime ``save`` / ``compare`` time.  Deterministic inputs make the
    call counts reproducible even though the timings wobble.
    """
    import cProfile
    import io
    import pstats

    names = args.benches or list(BENCHES)
    unknown = [name for name in names if name not in BENCHES]
    if unknown:
        raise SystemExit(
            f"unknown bench(es): {', '.join(unknown)}; "
            f"choose from {', '.join(BENCHES)}"
        )
    print(f"decision_backend={decision_backend()}")
    for name in names:
        fn = BENCHES[name]
        fn()  # warm-up, unprofiled
        profiler = cProfile.Profile()
        profiler.enable()
        fn()
        profiler.disable()
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.sort_stats("cumulative").print_stats(args.top)
        print(f"\n=== {name} (top {args.top} by cumulative time) ===")
        print(stream.getvalue())
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repeats",
        type=int,
        default=DEFAULT_REPEATS,
        help=f"timed runs per bench (default {DEFAULT_REPEATS})",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_save = sub.add_parser(
        "save", help="run benches and write BENCH_e2e.json"
    )
    p_save.add_argument(
        "--label",
        default="unlabelled",
        help="snapshot label recorded in the file (e.g. 'pre-batching')",
    )
    p_cmp = sub.add_parser("compare", help="fail on regression vs. baseline")
    p_cmp.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="maximum tolerated slowdown per bench (default 0.25 = 25%%)",
    )
    p_prof = sub.add_parser(
        "profile", help="cProfile each bench point (top-N cumulative)"
    )
    p_prof.add_argument(
        "--top",
        type=int,
        default=25,
        help="rows of the cumulative-time table to print (default 25)",
    )
    p_prof.add_argument(
        "benches",
        nargs="*",
        metavar="BENCH",
        help="subset of bench names (default: all)",
    )
    args = parser.parse_args()
    return {
        "save": cmd_save,
        "compare": cmd_compare,
        "profile": cmd_profile,
    }[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
