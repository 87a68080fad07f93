"""Substrate microbenchmarks: DES kernel, voting, and CH geometry.

Unlike the figure benches (which run once and print data), these use
pytest-benchmark conventionally -- repeated timed rounds -- to track
the cost of the inner loops everything else sits on: the event queue,
the CTI vote, the §3.2 clustering heuristic, and the event-neighbour
query.  They exist so a performance regression in the substrate is
visible before it silently stretches every experiment.
"""

import numpy as np

from repro.core.binary import CtiVoter
from repro.core.clustering import cluster_reports
from repro.core.trust import TrustParameters, TrustTable
from repro.network.geometry import Point, Region
from repro.network.topology import grid_deployment, uniform_random_deployment
from repro.obs.registry import NULL_REGISTRY
from repro.obs.spans import NULL_SPANS
from repro.simkernel.simulator import Simulator
from repro.simkernel.trace import TraceLog, noop_trace


def _report_window(n):
    """A realistic n-report window: two true events plus ~17% liars."""
    per_blob = (n - n // 6) // 2
    scatter = n - 2 * per_blob
    return (
        [Point(20.0 + 0.1 * i, 20.0 - 0.07 * i) for i in range(per_blob)]
        + [Point(70.0 - 0.09 * i, 60.0 + 0.11 * i) for i in range(per_blob)]
        + [Point(7.0 * i % 97.0, 13.0 * i % 89.0) for i in range(scatter)]
    )


def test_kernel_event_throughput(benchmark):
    """Schedule-and-fire cost for 10k chained events."""

    def run_chain():
        sim = Simulator(seed=0)
        remaining = [10_000]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.after(0.001, tick)

        sim.after(0.001, tick)
        sim.run()
        return sim.events_fired

    fired = benchmark(run_chain)
    assert fired == 10_000


def test_cti_vote_throughput(benchmark):
    """1000 votes over a 100-node table, updates applied."""

    def run_votes():
        table = TrustTable(
            TrustParameters(lam=0.25, fault_rate=0.1),
            node_ids=range(100),
        )
        voter = CtiVoter(table)
        reporters = list(range(60))
        silent = list(range(60, 100))
        for _ in range(1000):
            voter.decide(reporters, silent)
        return voter.votes_taken

    votes = benchmark(run_votes)
    assert votes == 1000


def test_cti_vote_throughput_n1000(benchmark):
    """1000 votes over a 1000-node table: scaling of the vote gather."""

    def run_votes():
        table = TrustTable(
            TrustParameters(lam=0.25, fault_rate=0.1),
            node_ids=range(1000),
        )
        voter = CtiVoter(table)
        reporters = list(range(600))
        silent = list(range(600, 1000))
        for _ in range(1000):
            voter.decide(reporters, silent)
        return voter.votes_taken

    votes = benchmark(run_votes)
    assert votes == 1000


def test_below_threshold_scan_n1000(benchmark):
    """2000 diagnosis scans over a 1000-node table with mixed trust."""
    table = TrustTable(
        TrustParameters(lam=0.25, fault_rate=0.1), node_ids=range(1000)
    )
    # Degrade a spread of nodes so the scan has real hits to collect.
    for node_id in range(0, 1000, 7):
        for _ in range(node_id % 11):
            table.penalize(node_id)

    def run_scans():
        hits = 0
        for _ in range(2000):
            hits += len(table.below_threshold(0.5))
        return hits

    hits = benchmark(run_scans)
    assert hits > 0


def test_clustering_throughput(benchmark):
    """The K-means heuristic over a 60-report window."""
    # A realistic window: two true events plus scattered liars.
    reports = (
        [Point(20.0 + 0.1 * i, 20.0 - 0.07 * i) for i in range(25)]
        + [Point(70.0 - 0.09 * i, 60.0 + 0.11 * i) for i in range(25)]
        + [Point(7.0 * i % 97.0, 13.0 * i % 89.0) for i in range(10)]
    )

    def run_clustering():
        return cluster_reports(reports, r_error=5.0)

    clusters = benchmark(run_clustering)
    assert len(clusters) >= 2


def test_clustering_throughput_n50(benchmark):
    """The clustering heuristic over a 50-report window."""
    reports = _report_window(50)

    def run_clustering():
        return cluster_reports(reports, r_error=5.0)

    clusters = benchmark(run_clustering)
    assert len(clusters) >= 2


def test_clustering_throughput_n200(benchmark):
    """The clustering heuristic at event-region scale (200 reports)."""
    reports = _report_window(200)

    def run_clustering():
        return cluster_reports(reports, r_error=5.0)

    clusters = benchmark(run_clustering)
    assert len(clusters) >= 2


def test_disabled_trace_emit_overhead(benchmark):
    """50k emits against the no-op trace: must stay one attribute check.

    This guards the sweep fast path -- every radio/CH emit site fires
    through here thousands of times per simulation, so the disabled
    path regressing from "check a flag, return" to anything that
    allocates or hashes would stretch every sweep.
    """
    log = noop_trace()

    def run_emits():
        emit = log.emit
        for i in range(50_000):
            emit(0.0, "radio.drop", reason="loss", destination=i)
        return len(log)

    buffered = benchmark(run_emits)
    assert buffered == 0
    assert log._prefix_counts == {}  # nothing accumulated anywhere


def test_disabled_metrics_emit_overhead(benchmark):
    """50k guarded metric emits against the disabled registry.

    The emit-site convention is ``if m.enabled: m.counter(...).inc()``;
    when disabled that is one attribute read per site, mirroring the
    no-op trace contract.
    """
    m = NULL_REGISTRY

    def run_emits():
        touched = 0
        for _ in range(50_000):
            if m.enabled:  # pragma: no cover - disabled path
                m.counter("radio.sent").inc()
                touched += 1
        return touched

    touched = benchmark(run_emits)
    assert touched == 0
    assert len(m) == 0


def test_disabled_span_emit_overhead(benchmark):
    """50k guarded span emits against the disabled collector.

    Span sites follow the same convention as metrics and trace --
    ``if s.enabled: s.point(...)`` -- so a disabled run pays one
    attribute read per site.  The radio and CH paths each cross a span
    site per message, so this path regressing to an allocation or a
    dict touch would show up in every sweep.
    """
    s = NULL_SPANS

    def run_emits():
        emitted = 0
        for i in range(50_000):
            if s.enabled:  # pragma: no cover - disabled path
                s.point("radio.drop", parent=s.current, destination=i)
                emitted += 1
        return emitted

    emitted = benchmark(run_emits)
    assert emitted == 0
    assert s.emitted == 0
    assert len(s) == 0


def test_trace_count_indexed(benchmark):
    """100k count() queries over a log with a wide category vocabulary.

    count() is a single dict lookup via the prefix-count index; this
    bench pins the O(1) behaviour (it used to scan every distinct
    category per query).
    """
    log = TraceLog()
    for i in range(5000):
        log.emit(float(i), f"radio.drop.reason{i % 50}")
        log.emit(float(i), f"ch.decision.kind{i % 30}")

    def run_counts():
        total = 0
        for _ in range(50_000):
            total += log.count("radio")
            total += log.count("ch.decision")
        return total

    total = benchmark(run_counts)
    assert total == 50_000 * 10_000


def test_event_neighbors_n100(benchmark):
    """200 event-neighbour disk queries over Experiment 2's deployment."""
    deployment = grid_deployment(100, Region.square(100.0))
    deployment.ensure_index(20.0)
    queries = [
        Point(7.0 * i % 100.0, 13.0 * i % 100.0) for i in range(200)
    ]

    def run_queries():
        total = 0
        for q in queries:
            total += len(deployment.event_neighbors(q, 20.0))
        return total

    total = benchmark(run_queries)
    assert total > 0


def test_event_neighbors_n1000(benchmark):
    """200 disk queries over a dense 1000-node random deployment."""
    deployment = uniform_random_deployment(
        1000, Region.square(100.0), np.random.default_rng(17)
    )
    deployment.ensure_index(20.0)
    queries = [
        Point(7.0 * i % 100.0, 13.0 * i % 100.0) for i in range(200)
    ]

    def run_queries():
        total = 0
        for q in queries:
            total += len(deployment.event_neighbors(q, 20.0))
        return total

    total = benchmark(run_queries)
    assert total > 0


def _radio_net(n, loss=0.1, seed=3):
    from repro.network.node import NetworkNode
    from repro.network.radio import ChannelConfig, RadioChannel

    sim = Simulator(seed=seed)
    channel = RadioChannel(
        sim,
        ChannelConfig(loss_probability=loss, propagation_delay=0.01),
    )
    for i in range(n):
        channel.register(NetworkNode(i, Point(float(i % 10), float(i // 10))))
    return sim, channel


def test_unicast_batch_throughput(benchmark):
    """200 batched 49-report rounds into one CH (the harness hot path)."""
    from repro.network.messages import EventReportMessage

    sim, channel = _radio_net(50)
    sender_ids = list(range(1, 50))

    def run_batches():
        for _ in range(200):
            channel.unicast_batch(
                sender_ids,
                0,
                [EventReportMessage(sender=i) for i in sender_ids],
            )
        sim.run()
        return channel.sent

    sent = benchmark(run_batches)
    assert sent >= 200 * 49


def test_unicast_loop_throughput(benchmark):
    """The per-message oracle path at the same 200x49 scale, for contrast."""
    from repro.network.messages import EventReportMessage

    sim, channel = _radio_net(50)
    sender_ids = list(range(1, 50))

    def run_loops():
        for _ in range(200):
            for i in sender_ids:
                channel.unicast(
                    channel.node(i), 0, EventReportMessage(sender=i)
                )
        sim.run()
        return channel.sent

    sent = benchmark(run_loops)
    assert sent >= 200 * 49


def test_broadcast_throughput(benchmark):
    """100 fanned-out broadcasts over a 100-node channel."""
    from repro.network.messages import EventReportMessage

    sim, channel = _radio_net(100)
    sender = channel.node(0)

    def run_broadcasts():
        for _ in range(100):
            channel.broadcast(sender, EventReportMessage(sender=0))
        sim.run()
        return channel.sent

    sent = benchmark(run_broadcasts)
    assert sent >= 100 * 99


def _chain_10k():
    """Schedule-and-fire cost for 10k chained events."""
    sim = Simulator(seed=0)
    remaining = [10_000]

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.after(0.001, tick)

    sim.after(0.001, tick)
    sim.run()
    return sim.events_fired


def test_kernel_chain_heap(benchmark):
    """The 10k event chain through the heap scheduler."""
    fired = benchmark(_chain_10k)
    assert fired == 10_000


def _periodic_timers():
    """64 interleaved periodic timers x ~160 firings each: one fresh
    heap push per firing."""
    sim = Simulator(seed=0)
    fired = [0]

    def tick():
        fired[0] += 1

    for i in range(64):
        sim.every(0.01 + 0.0001 * i, tick, count=160)
    sim.run()
    return fired[0]


def test_kernel_periodic_heap(benchmark):
    fired = benchmark(_periodic_timers)
    assert fired == 64 * 160


def _cancel_heavy():
    """Schedule 20k events, cancel half before they fire.

    Mirrors collection-window churn: a decision cancels the window's
    pending timeout, and the heap discards the tombstones lazily on pop.
    """
    sim = Simulator(seed=0)
    fired = [0]

    def tick():
        fired[0] += 1

    handles = [
        sim.after(0.001 * (i % 997) + 0.0005, tick) for i in range(20_000)
    ]
    for handle in handles[::2]:
        handle.cancel()
    sim.run()
    return fired[0]


def test_kernel_cancel_heavy_heap(benchmark):
    fired = benchmark(_cancel_heavy)
    assert fired == 10_000


# Per-window-size deployment density and blob layout: each event site's
# sensing disk (r_s = 20) must contain exactly the nodes reporting that
# blob, so votes are unanimous (zero dissenters) and trust state reaches
# a fixed point after the first window.  Without that, repeated timed
# windows keep penalising the same dissenters, their trust drifts
# round after round, and the bench no longer times one fixed workload.
_WINDOW_LAYOUTS = {
    # n: (grid nodes, field side, sites)
    8: (64, 100.0, (Point(35.0, 40.0),)),
    30: (121, 100.0, (Point(25.0, 25.0), Point(75.0, 70.0))),
    120: (225, 100.0, (Point(25.0, 25.0), Point(75.0, 25.0),
                       Point(25.0, 75.0), Point(75.0, 75.0))),
}


def _steady_window(deployment, n, sites, sensing_radius=20.0):
    """An n-report fault-free window: every event neighbour reports.

    Each site's reporters are exactly the nodes within ``r_s`` of it,
    claiming the site plus a tiny (well under ``r_error``) jitter --
    the common fault-free window of a low-fault sweep.  If the sites'
    disks hold fewer than ``n`` distinct reporters, the window is
    padded with duplicate reports (re-transmissions) that dedupe must
    drop, keeping the report count at exactly ``n``.
    """
    reporters = []   # (node_id, claim Point)
    for site in sites:
        for node_id in deployment.event_neighbors(site, sensing_radius):
            j = len(reporters)
            claim = Point(
                site.x + 0.02 * (j % 5) - 0.04,
                site.y + 0.015 * (j % 4) - 0.0225,
            )
            reporters.append((node_id, claim))
            if len(reporters) == n:
                return reporters
    dup = 0
    while len(reporters) < n:
        reporters.append(reporters[dup])
        dup += 1
    return reporters


def _decision_setup(n):
    """One steady-state n-report CH window, both decision backends.

    Returns both backends (independent but identically-parameterised
    voters) with ingest prebuilt on each side -- the object path's
    ``LocationReport`` list, and the array path's pre-filled
    :class:`ReportBuffer` plus ``(time, node_id)``-sorted row index --
    so the timed functions measure the decision pipeline alone, the
    way production runs it (ingest happens at message arrival, decide
    at circle close).
    """
    from repro.core.decision_kernel import DecisionKernel, ReportBuffer
    from repro.core.location import LocationDecisionEngine, LocationReport

    n_nodes, side, sites = _WINDOW_LAYOUTS[n]
    deployment = grid_deployment(n_nodes, Region.square(side))
    reporters = _steady_window(deployment, n, sites)

    def make_voter():
        return CtiVoter(TrustTable(
            TrustParameters(lam=0.25, fault_rate=0.1),
            node_ids=range(n_nodes),
        ))

    engine = LocationDecisionEngine(
        deployment=deployment, sensing_radius=20.0, r_error=5.0,
        voter=make_voter(),
    )
    kernel = DecisionKernel(
        deployment=deployment, sensing_radius=20.0, r_error=5.0,
        voter=make_voter(),
    )
    reports = [
        LocationReport(node_id=node_id, location=claim, time=0.001 * i)
        for i, (node_id, claim) in enumerate(reporters)
    ]
    buf = ReportBuffer()
    rows = np.asarray(
        [
            buf.append(r.node_id, r.location.x, r.location.y, r.time)
            for r in reports
        ],
        dtype=np.intp,
    )
    sorted_rows = rows[np.lexsort((buf.ids[rows], buf.times[rows]))]
    # Steady state sanity: every blob's vote must be unanimous, else
    # repeated windows drift trust state and the numbers stop meaning
    # "decision pipeline cost".
    for decision in engine.decide(reports):
        assert decision.occurred and not decision.dissenters
    engine.voter = make_voter()
    return engine, kernel, reports, buf, sorted_rows


def _make_window_benches(n):
    def bench_object(benchmark):
        engine, _kernel, reports, _buf, _rows = _decision_setup(n)
        decisions = benchmark(engine.decide, reports)
        assert decisions

    def bench_array(benchmark):
        _engine, kernel, _reports, buf, rows = _decision_setup(n)
        decisions = benchmark(kernel.decide_rows, buf, rows)
        assert decisions

    return bench_object, bench_array


# n=8 sits below the old _NUMPY_MIN_REPORTS=18 crossover, where the
# object path still clusters Point objects pairwise; n=30 just above
# it, n=120 at event-region scale.
test_decision_window_object_n8, test_decision_window_array_n8 = (
    _make_window_benches(8)
)
test_decision_window_object_n30, test_decision_window_array_n30 = (
    _make_window_benches(30)
)
test_decision_window_object_n120, test_decision_window_array_n120 = (
    _make_window_benches(120)
)


def test_topology_small_n_scan(benchmark):
    """400 neighbour + nearest queries below the grid-index threshold.

    A 36-node deployment never builds the grid index, so these queries
    run the vectorised small-n fallback over the cached coords arrays
    (previously a per-node Python loop).
    """
    deployment = grid_deployment(36, Region.square(60.0))
    queries = [
        Point(7.0 * i % 60.0, 13.0 * i % 60.0) for i in range(200)
    ]

    def run_queries():
        total = 0
        for q in queries:
            total += len(deployment.event_neighbors(q, 20.0))
            total += len(deployment.nearest(q, k=4))
        return total

    total = benchmark(run_queries)
    assert total > 0


def test_shared_topology_setup(benchmark):
    """500 memo-served deployments + indexes (the per-trial setup cost)."""
    from repro.network.topology import shared_grid_deployment

    region = Region.square(100.0)
    shared_grid_deployment(100, region, index_cell=20.0)  # warm the memo

    def run_setups():
        total = 0
        for _ in range(500):
            d = shared_grid_deployment(100, region, index_cell=20.0)
            total += len(d.event_neighbors(Point(50.0, 50.0), 20.0))
        return total

    total = benchmark(run_setups)
    assert total > 0
