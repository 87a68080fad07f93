"""Seeded input generators and the input properties each run records.

Everything the program receives is built here from ``--seed`` before
any timing starts: DES sweep-point specifications, and the service
window stream shared by ``service_ingest`` and ``service_http``.  The
same seed always yields the same inputs.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

# Streams derived from one seed: numpy's SeedSequence keeps them
# independent, so adding a stream never shifts another.
STREAM_DES = 1
STREAM_TENANTS = 2
STREAM_WINDOWS = 3
STREAM_READS = 4

WINDOW_SIZE_BINS = (1, 8, 16, 24, 32, 48, 64)
SMALL_WINDOW_ROWS = 32


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def size_histogram(sizes: Sequence[int]) -> Dict[str, float]:
    """Window-size histogram and the share of windows of >= 32 rows."""
    edges = WINDOW_SIZE_BINS
    counts = [0] * len(edges)
    for size in sizes:
        counts[max(0, bisect.bisect_right(edges, size) - 1)] += 1
    labels = [
        f"{lo}-{hi - 1}" for lo, hi in zip(edges, edges[1:])
    ] + [f"{edges[-1]}+"]
    total = max(1, len(sizes))
    return {
        "windows": len(sizes),
        "histogram": dict(zip(labels, counts)),
        "share_ge_32_rows": sum(s >= SMALL_WINDOW_ROWS for s in sizes) / total,
        "mean_rows": sum(sizes) / total,
    }


# ----------------------------------------------------------------------
# DES sweep points
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PointSpec:
    """One sweep point: percent faulty, run seed and the faulty ids."""

    percent_faulty: float
    run_seed: int
    faulty_ids: Tuple[int, ...]


def des_points(seed: int, n_nodes: int, percents: Sequence[float],
               count: int) -> List[PointSpec]:
    """``count`` points alternating over ``percents`` (ids drawn
    uniformly, as the experiments' ``run_point`` does)."""
    rng = rng_for(seed, STREAM_DES)
    specs = []
    for i in range(count):
        pct = percents[i % len(percents)]
        n_faulty = round(n_nodes * pct / 100.0)
        run_seed = int(rng.integers(1, 2**31 - 1))
        faulty = rng.choice(n_nodes, size=n_faulty, replace=False)
        specs.append(PointSpec(pct, run_seed, tuple(sorted(int(f) for f in faulty))))
    return specs


# ----------------------------------------------------------------------
# Service window stream
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StreamConfig:
    """Shape of the multi-tenant window stream."""

    tenants: int = 20_000
    zipf_s: float = 0.8
    faulty_share: float = 0.25
    sigma_correct: float = 1.6
    sigma_faulty: float = 6.0
    correct_miss: float = 0.03
    faulty_drop: float = 0.25
    # Events per window: 1-2 events stay under the kernel's 32-row
    # small-window route, 3-4 go over it.
    events_per_window: Tuple[int, ...] = (1, 2, 3, 4)
    events_weights: Tuple[float, ...] = (0.35, 0.3, 0.2, 0.15)
    min_correct_reporters: int = 3
    round_interval: float = 10.0
    t_out: float = 1.0


@dataclass(frozen=True)
class Window:
    """One collection window of one tenant."""

    tenant: str
    rows: Tuple[Tuple[int, float, float, float], ...]  # node, x, y, time
    close_time: float


class WindowStream:
    """An endless, seed-determined stream of tenant windows.

    Tenants are drawn with Zipf-skewed popularity; each tenant has a
    fixed faulty node set (``faulty_share`` of the grid) and its own
    clock, so every tenant's windows are in time order.  Each event has
    at least ``min_correct_reporters`` correct reporters, so every
    window decides at least one cluster.
    """

    def __init__(self, seed: int, positions: Dict[int, Tuple[float, float]],
                 field_side: float, sensing_radius: float,
                 config: StreamConfig = StreamConfig()) -> None:
        self.config = config
        self.field_side = field_side
        self.sensing_radius = sensing_radius
        self.node_ids = np.array(sorted(positions), dtype=np.int64)
        self.node_xy = np.array([positions[n] for n in self.node_ids.tolist()])
        tenant_rng = rng_for(seed, STREAM_TENANTS)
        ranks = np.arange(1, config.tenants + 1, dtype=np.float64)
        weights = ranks ** -config.zipf_s
        self._cdf = np.cumsum(weights / weights.sum())
        self._rank_to_tenant = tenant_rng.permutation(config.tenants)
        self.faulty = (
            tenant_rng.random((config.tenants, len(self.node_ids)))
            < config.faulty_share
        )
        self._clock = np.zeros(config.tenants)
        self._rng = rng_for(seed, STREAM_WINDOWS)
        self._events_p = np.array(config.events_weights) / sum(
            config.events_weights)

    @staticmethod
    def tenant_key(index: int) -> str:
        return f"tenant-{index:05d}"

    def _event_rows(self, faulty: np.ndarray, start: float
                    ) -> List[Tuple[int, float, float, float]]:
        cfg = self.config
        rng = self._rng
        while True:
            ex, ey = rng.uniform(0.0, self.field_side, size=2)
            d = np.hypot(self.node_xy[:, 0] - ex, self.node_xy[:, 1] - ey)
            neighbours = np.nonzero(d <= self.sensing_radius)[0]
            bad = faulty[neighbours]
            keep = rng.random(neighbours.size) >= np.where(
                bad, cfg.faulty_drop, cfg.correct_miss)
            if int(np.count_nonzero(keep & ~bad)) >= cfg.min_correct_reporters:
                break
        reporters = neighbours[keep]
        sigma = np.where(faulty[reporters], cfg.sigma_faulty,
                         cfg.sigma_correct)
        xs = ex + rng.normal(0.0, 1.0, reporters.size) * sigma
        ys = ey + rng.normal(0.0, 1.0, reporters.size) * sigma
        times = start + rng.uniform(0.0, 0.9 * cfg.t_out, reporters.size)
        ids = self.node_ids[reporters]
        return list(zip(ids.tolist(), xs.tolist(), ys.tolist(),
                        times.tolist()))

    def next_windows(self, count: int) -> List[Window]:
        """The stream's next ``count`` windows."""
        cfg = self.config
        rng = self._rng
        picks = np.searchsorted(self._cdf, rng.random(count), side="right")
        picks = np.minimum(picks, cfg.tenants - 1)
        tenants = self._rank_to_tenant[picks]
        n_events = rng.choice(cfg.events_per_window, size=count,
                              p=self._events_p)
        out = []
        for tenant, k in zip(tenants.tolist(), n_events.tolist()):
            start = float(self._clock[tenant]) + cfg.round_interval
            self._clock[tenant] = start
            rows: List[Tuple[int, float, float, float]] = []
            for _ in range(k):
                rows.extend(self._event_rows(self.faulty[tenant], start))
            rows.sort(key=lambda r: r[3])
            out.append(Window(self.tenant_key(tenant), tuple(rows),
                              start + cfg.t_out))
        return out


class Tally:
    """Input properties of the windows a run actually consumed."""

    def __init__(self, stream: WindowStream) -> None:
        self.stream = stream
        self.sizes: List[int] = []
        self.per_tenant: Counter = Counter()

    def add(self, window: Window) -> None:
        self.sizes.append(len(window.rows))
        self.per_tenant[window.tenant] += 1

    def properties(self) -> Dict[str, object]:
        props = size_histogram(self.sizes)
        ordered = sorted(self.per_tenant.values(), reverse=True)
        tenants = self.stream.config.tenants
        top = max(1, tenants // 100)
        props.update({
            "reports": sum(self.sizes),
            "tenants_total": tenants,
            "tenants_touched": len(self.per_tenant),
            "zipf_s": self.stream.config.zipf_s,
            "top_1pct_tenant_window_share": (
                sum(ordered[:top]) / max(1, len(self.sizes))),
            "faulty_node_share": float(self.stream.faulty.mean()),
        })
        return props
