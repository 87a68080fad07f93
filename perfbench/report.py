"""Run bookkeeping shared by the workloads: the outcome ledger,
percentiles, process-CPU readings and the provenance stamp."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Ledger:
    """Operations attempted and failed, with the first few failures.

    A failure is a non-2xx response, a connection error, an exception
    or a correctness-check mismatch; every check counts as attempted.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, condition: bool, message: str) -> bool:
        if condition:
            self.ok()
        else:
            self.fail(message)
        return condition


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive method; needs 2+ values)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from ``/proc``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_bytes(pid: int) -> int:
    """Peak resident set size (``VmHWM``) of a live process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _src_digest() -> str:
    """SHA-256 over every ``src`` file's path and bytes: names the code
    state even where the checkout is not a git repository."""
    hasher = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        hasher.update(str(path.relative_to(SRC)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def _backend(module: str, func: str) -> Optional[str]:
    """A backend switch's resolved value, if the program still has it."""
    try:
        resolve = getattr(__import__(module, fromlist=[func]), func)
    except (ImportError, AttributeError):
        return None
    return resolve()


def provenance(workload: str, seed: int, config: Dict[str, object],
               trace: bool) -> Dict[str, object]:
    """Everything needed to trace a number to a code state and config."""
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "config": config,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "argv": sys.argv[1:],
        "env": {
            "TIBFIT_QUEUE": os.environ.get("TIBFIT_QUEUE"),
            "TIBFIT_DECISION": os.environ.get("TIBFIT_DECISION"),
        },
        "resolved": {
            "queue": _backend("repro.simkernel.calqueue",
                              "resolve_queue_backend"),
            "decision": _backend("repro.core.decision_kernel",
                                 "resolve_decision_backend"),
        },
    }
