"""Service workloads: direct session ingest, and the HTTP service.

Both draw their inputs from one seeded :class:`~inputs.WindowStream`
over the ``serve`` command's default session template (36 grid nodes
on a 60x60 field).  ``service_ingest`` drives ``SessionManager`` and
``TrustSession`` directly with a resident cap well under the tenant
count, so lazy creation and LRU eviction both run; ``service_http``
sends the same kind of windows to ``tibfit-repro serve`` running as a
subprocess, with the cap above the tenant count.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import defaultdict, deque
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

import calib
from inputs import STREAM_READS, StreamConfig, Tally, Window, WindowStream, rng_for
from layers import Tracer, diff_totals, layer_metrics
from report import (
    ROOT,
    SRC,
    Ledger,
    percentile,
    proc_cpu_s,
    proc_peak_rss_bytes,
)

HERE = Path(__file__).resolve().parent

# The ``serve`` subcommand's defaults, which every tenant starts from.
SERVE = {"mode": "location", "n_nodes": 36, "field_side": 60.0,
         "sensing_radius": 20.0, "r_error": 5.0, "lam": 0.25,
         "fault_rate": 0.1, "max_sessions": 100_000}
# One service_ingest pass: 2,500 windows over 20k Zipf tenants create
# ~1,750 sessions, so a 1,000-session cap evicts ~750 of them.
WINDOWS_PER_PASS = 2_500
INGEST_CAP = 1_000
BYTES_WINDOWS = 400
WARMUP_WINDOWS = 50
PICK_WINDOWS = 250  # windows between re-pinning to the least contended CPU
READ_SHARE_PER_WINDOW = 0.5  # one read per two windows: ~20% of requests
SAMPLED_TENANTS = 16
CLOSED_SHARE = 0.7  # of --seconds; the open loop gets the rest
SETUP_TIMEOUT_S = 60.0


def service_config():
    from repro.core.trust import TrustParameters
    from repro.service.http_api import ServiceConfig

    return ServiceConfig(
        mode=SERVE["mode"], n_nodes=SERVE["n_nodes"],
        field_side=SERVE["field_side"],
        sensing_radius=SERVE["sensing_radius"], r_error=SERVE["r_error"],
        trust=TrustParameters(lam=SERVE["lam"], fault_rate=SERVE["fault_rate"]),
        max_sessions=SERVE["max_sessions"],
    )


def workload_config(workload: str) -> Dict[str, object]:
    cfg = {"serve": SERVE, "stream": StreamConfig().__dict__}
    if workload == "service_ingest":
        cfg.update(max_sessions=INGEST_CAP, windows_per_pass=WINDOWS_PER_PASS,
                   bytes_windows=BYTES_WINDOWS)
    else:
        cfg.update(connections=connections(), read_share=1 / 5,
                   closed_loop_share=CLOSED_SHARE,
                   open_loop_rate="0.5 x closed-loop rps",
                   sampled_tenants=SAMPLED_TENANTS)
    return cfg


def connections() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def make_stream(seed: int) -> WindowStream:
    from repro.network.geometry import Region
    from repro.network.topology import shared_grid_deployment

    deployment = shared_grid_deployment(
        SERVE["n_nodes"], Region.square(SERVE["field_side"]))
    positions = {}
    for node in deployment.node_ids():
        p = deployment.position_of(node)
        positions[node] = (p.x, p.y)
    return WindowStream(seed, positions, SERVE["field_side"],
                        SERVE["sensing_radius"])


# ----------------------------------------------------------------------
# service_ingest
# ----------------------------------------------------------------------
def make_manager(cap: int):
    # Looked up through the module so a traced run gets the wrapped
    # factory.
    from repro.service import http_api
    from repro.service.manager import SessionManager

    return SessionManager(http_api.default_session_factory(service_config()),
                          max_sessions=cap)


def feed(session, window: Window) -> Tuple[list, int]:
    """Ingest one window's reports and close it."""
    accepted = 0
    for node, x, y, t in window.rows:
        accepted += session.ingest(node, x=x, y=y, time=t)
    return session.close_window(now=window.close_time), accepted


class IngestPass:
    """One pass of a seed's windows through a fresh capped manager, each
    window timed (lock, ingest its reports, close) and gated.

    Every :data:`PICK_WINDOWS` windows the pass re-pins itself to the
    least contended CPU; ``scales`` holds each window's factor to the
    reference machine speed (see ``calib``).
    """

    def __init__(self, windows: List[Window], ledger: Ledger,
                 picker: calib.CorePicker) -> None:
        manager = make_manager(INGEST_CAP)
        perf_counter = time.perf_counter
        process_time = time.process_time
        self.walls: List[float] = []
        self.cpus: List[float] = []
        self.scales: List[float] = []
        for n, window in enumerate(windows):
            if n % PICK_WINDOWS == 0:
                scale = picker.pick()
            c0 = process_time()
            t0 = perf_counter()
            with manager.locked(window.tenant) as session:
                records, accepted = feed(session, window)
                t1 = perf_counter()
                c1 = process_time()
                tis = session.tis().values()
            self.walls.append(t1 - t0)
            self.cpus.append(c1 - c0)
            self.scales.append(scale)
            ledger.check(
                bool(records) and accepted == len(window.rows)
                and all(0.0 < ti <= 1.0 for ti in tis),
                f"window {n} of {window.tenant}: {len(records)} "
                f"decisions, {accepted}/{len(window.rows)} accepted")
        self.stats = manager.stats()
        ledger.check(
            self.stats["created"] - self.stats["evicted"]
            == self.stats["sessions"],
            f"manager counters disagree: {self.stats}")

    def figures(self, reports: int, scaled: bool = True) -> Dict[str, float]:
        """This pass's figures, scaled to the reference machine speed
        unless ``scaled`` is false."""
        scales = self.scales if scaled else [1.0] * len(self.walls)
        walls = [w * f for w, f in zip(self.walls, scales)]
        cpu = sum(c * f for c, f in zip(self.cpus, scales))
        return {
            "throughput_per_s": reports / sum(walls),
            "cpu_ms_per_op": 1e3 * cpu / reports,
            "p50_ms": 1e3 * percentile(walls, 50),
            "p90_ms": 1e3 * percentile(walls, 90),
            "p99_ms": 1e3 * percentile(walls, 99),
        }


def ingest_passes(windows: List[Window], ledger: Ledger, count: int = 0,
                  seconds: float = 0.0
                  ) -> Tuple[List[IngestPass], Dict[str, object]]:
    """``count`` passes, or as many as fit in ``seconds`` (at least one)."""
    passes: List[IngestPass] = []
    picker = calib.CorePicker()
    deadline = time.perf_counter() + seconds
    try:
        while (len(passes) < count) if count else (
                not passes or time.perf_counter() < deadline):
            passes.append(IngestPass(windows, ledger, picker))
    finally:
        picker.release()
    return passes, picker.summary()


def median_figures(passes: List[IngestPass], reports: int,
                   scaled: bool = True) -> Dict[str, float]:
    """Each figure's median over the passes."""
    figures = [p.figures(reports, scaled) for p in passes]
    return {k: statistics.median(f[k] for f in figures) for k in figures[0]}


def ingest_setup(seed: int) -> None:
    """Manager and factory plus warm-up windows (what ``setup_s`` times)."""
    warm_up(make_stream(seed).next_windows(WARMUP_WINDOWS))


def warm_up(windows: List[Window]) -> None:
    manager = make_manager(INGEST_CAP)
    for window in windows:
        with manager.locked(window.tenant) as session:
            feed(session, window)


def session_bytes(windows: List[Window]) -> float:
    """tracemalloc bytes per resident session after its decided windows."""
    manager = make_manager(0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for window in windows:
            with manager.locked(window.tenant) as session:
                feed(session, window)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / len(manager)


def _window_properties(stream: WindowStream, windows: List[Window]):
    tally = Tally(stream)
    for window in windows:
        tally.add(window)
    return tally.properties()


def ingest_measure(seed: int, seconds: float, ledger: Ledger):
    """Median over repeated passes of the same windows."""
    stream = make_stream(seed)
    windows = stream.next_windows(WINDOWS_PER_PASS)
    warm_up(windows[:WARMUP_WINDOWS])
    per_session = session_bytes(windows[:BYTES_WINDOWS])
    passes, cores = ingest_passes(windows, ledger, seconds=seconds)
    reports = sum(len(w.rows) for w in windows)
    figures = median_figures(passes, reports)
    p99 = figures.pop("p99_ms")
    metrics = dict(figures, mem_bytes=per_session)
    detail = {
        "passes": len(passes),
        "windows_per_pass": len(windows),
        "manager_per_pass": passes[0].stats,
        "cores": cores,
        "figures": {
            "reports_per_s": [metrics["throughput_per_s"], "1/s"],
            "cpu_ms_per_report": [metrics["cpu_ms_per_op"], "ms"],
            "window_p50_ms": [metrics["p50_ms"], "ms"],
            "window_p90_ms": [metrics["p90_ms"], "ms"],
            "window_p99_ms": [p99, "ms"],
            "session_bytes": [per_session, "bytes"],
        },
        "unscaled": median_figures(passes, reports, scaled=False),
        "inputs": _window_properties(stream, windows),
    }
    return metrics, detail


def ingest_trace(seed: int, seconds: float, ledger: Ledger):
    stream = make_stream(seed)
    windows = stream.next_windows(WINDOWS_PER_PASS)
    warm_up(windows[:WARMUP_WINDOWS])
    plain, _ = ingest_passes(windows, ledger, seconds=0.4 * seconds)
    tracer = Tracer().install()
    try:
        traced, cores = ingest_passes(windows, ledger, count=len(plain))
    finally:
        tracer.uninstall()
    reports = sum(len(w.rows) for w in windows)
    extra = {"manager.created": sum(p.stats["created"] for p in traced),
             "manager.evicted": sum(p.stats["evicted"] for p in traced)}
    overhead = (median_figures(plain, reports)["throughput_per_s"]
                / median_figures(traced, reports)["throughput_per_s"] - 1.0)
    metrics = layer_metrics(tracer.totals(),
                            sum(sum(p.walls) for p in traced), extra, overhead)
    detail = {"passes_traced": len(traced), "tracer": tracer.totals(),
              "cores": cores,
              "inputs": _window_properties(stream, windows)}
    return metrics, detail, tracer


# ----------------------------------------------------------------------
# service_http
# ----------------------------------------------------------------------
class Server:
    """A service subprocess: ``tibfit-repro serve`` or the traced
    bootstrap, on an ephemeral port."""

    def __init__(self, traced: bool = False) -> None:
        self.traced = traced
        if traced:
            cmd = [sys.executable, "-u", str(HERE / "server_boot.py")]
        else:
            cmd = [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
                   "--max-sessions", str(SERVE["max_sessions"])]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        try:
            line = self.proc.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", line)
            if match is None:
                raise RuntimeError(f"server did not start: {line!r}")
            self.host, self.port = match.group(1), int(match.group(2))
            self._wait_healthy(start)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_healthy(self, start: float) -> None:
        while True:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() - start > SETUP_TIMEOUT_S:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.002)

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def snapshot(self) -> Dict[str, object]:
        """The traced server's layer totals so far (SIGUSR1 -> one line)."""
        self.proc.send_signal(signal.SIGUSR1)
        return json.loads(self.proc.stdout.readline())

    def stop(self) -> str:
        """Interrupt the server, wait for it, return what it printed."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        return out or ""


class Request(NamedTuple):
    method: str
    path: str
    body: Optional[bytes]
    kind: str  # reports, close, ti or decisions
    window: Optional[Window]
    tenant: str


class Plan:
    """Per-connection request queues built from the window stream.

    Each window becomes ``POST reports`` + ``POST close``, and every
    other window (seeded) adds one read, ``GET ti`` or ``GET
    decisions?since=<last seen id>``.  Tenants are partitioned across
    connections, so each tenant's requests keep their order.
    """

    def __init__(self, seed: int, n_conn: int, windows: int) -> None:
        self.seed = seed
        stream = make_stream(seed)
        reads = rng_for(seed, STREAM_READS)
        self.stream = stream
        self.queues: List[deque] = [deque() for _ in range(n_conn)]
        for window in stream.next_windows(windows):
            base = f"/v1/sessions/{window.tenant}"
            conn = int(window.tenant.rsplit("-", 1)[1]) % n_conn
            body = json.dumps({"reports": [
                {"node": n, "x": x, "y": y, "time": t}
                for n, x, y, t in window.rows]}).encode()
            group = [
                Request("POST", base + "/reports", body, "reports", window,
                        window.tenant),
                Request("POST", base + "/close",
                        json.dumps({"time": window.close_time}).encode(),
                        "close", window, window.tenant),
            ]
            u, v = reads.random(2)
            if u < READ_SHARE_PER_WINDOW:
                kind = "ti" if v < 0.5 else "decisions"
                group.append(Request("GET", base + "/" + kind, None, kind,
                                     None, window.tenant))
            self.queues[conn].append(group)


class Client:
    """One keep-alive connection working through its request queue."""

    def __init__(self, server: Server, queue: deque, ledger: Ledger,
                 lock: threading.Lock) -> None:
        self.queue = queue
        self.ledger = ledger
        self.lock = lock
        self.conn = http.client.HTTPConnection(server.host, server.port,
                                               timeout=30)
        self.last_id: Dict[str, int] = defaultdict(int)
        self.sent: Dict[str, List[Window]] = defaultdict(list)
        self.latencies: List[float] = []
        self.lateness: List[float] = []
        self.requests = 0
        self.reads = 0
        self.windows = 0

    def _send(self, req: Request) -> Tuple[int, bytes]:
        path = req.path
        if req.kind == "decisions":
            path += f"?since={self.last_id[req.tenant]}"
        headers = {"Content-Type": "application/json"} if req.body else {}
        try:
            self.conn.request(req.method, path, body=req.body,
                              headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            raise

    def _check(self, req: Request, status: int, data: bytes) -> None:
        self.requests += 1
        self.reads += req.method == "GET"
        if status != 200:
            with self.lock:
                self.ledger.fail(f"{req.method} {req.path}: HTTP {status}")
            return
        ok = True
        if req.kind == "reports":
            ok = json.loads(data)["accepted"] == len(req.window.rows)
        elif req.kind == "close":
            decisions = json.loads(data)["decisions"]
            ok = bool(decisions)
            if ok:
                self.last_id[req.tenant] = decisions[-1]["decision_id"]
                self.sent[req.tenant].append(req.window)
        with self.lock:
            self.ledger.check(ok, f"{req.method} {req.path}: bad response "
                              f"{data[:120]!r}")

    def _exchange(self, req: Request) -> Tuple[int, bytes]:
        try:
            return self._send(req)
        except (OSError, http.client.HTTPException) as exc:
            with self.lock:
                self.ledger.fail(f"{req.method} {req.path}: {exc!r}")
            return -1, b""

    def closed_loop(self, deadline: float) -> None:
        perf_counter = time.perf_counter
        while self.queue and perf_counter() < deadline:
            self.windows += 1
            for req in self.queue.popleft():
                t0 = perf_counter()
                status, data = self._exchange(req)
                self.latencies.append(perf_counter() - t0)
                if status >= 0:
                    self._check(req, status, data)

    def send_timed(self, req: Request, due: float, free: float) -> float:
        """Send ``req`` no earlier than ``due``; time it from ``due``.

        Lateness is how far past ``max(due, free)`` -- ``free`` being
        when the client finished its previous request -- the send began.
        Returns when this request completed.
        """
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
        t0 = time.perf_counter()
        self.lateness.append(t0 - max(due, free))
        status, data = self._exchange(req)
        done = time.perf_counter()
        self.latencies.append(done - due)
        if status >= 0:
            self._check(req, status, data)
        return done

    def close(self) -> None:
        self.conn.close()


def closed_loop(clients: List[Client], deadline: float) -> None:
    """Every connection sends its next request as soon as the last one
    completes, each from its own thread, until ``deadline``."""
    threads = [threading.Thread(target=c.closed_loop, args=(deadline,))
               for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def open_loop(clients: List[Client], rate: float, seconds: float) -> None:
    """One request every ``1/rate`` s regardless of completions, windows
    taken round-robin over the connections.

    A single sending thread: at this rate requests rarely overlap, and
    one thread keeps client-side lock hand-offs out of the latencies.
    """
    interval = 1.0 / rate
    due = free = time.perf_counter() + 0.01
    until = due + seconds
    turn = 0
    while due < until and any(c.queue for c in clients):
        client = clients[turn % len(clients)]
        turn += 1
        if not client.queue:
            continue
        client.windows += 1
        for req in client.queue.popleft():
            free = client.send_timed(req, due, free)
            due += interval


def _plan_windows(seconds: float) -> int:
    # Headroom: ~2.5 requests per window at up to 1k req/s.
    return int(400 * seconds) + 200


def verify_tenants(server: Server, clients: List[Client], seed: int,
                   ledger: Ledger) -> int:
    """Final ``GET ti`` of sampled tenants against a direct replay."""
    from repro.service import http_api

    sent: Dict[str, List[Window]] = {}
    for client in clients:
        sent.update(client.sent)
    keys = sorted(sent)
    rng = rng_for(seed, STREAM_READS + 100)
    picks = [keys[i] for i in sorted(rng.choice(
        len(keys), size=min(SAMPLED_TENANTS, len(keys)), replace=False))]
    build = http_api.default_session_factory(service_config())
    for key in picks:
        session = build(key)
        for window in sent[key]:
            feed(session, window)
        expected = {str(n): ti for n, ti in session.tis().items()}
        status, data = server.get(f"/v1/sessions/{key}/ti")
        got = json.loads(data).get("tis") if status == 200 else None
        ledger.check(got == expected,
                     f"tenant {key}: served TIs differ from a direct "
                     f"replay of its {len(sent[key])} windows")
    return len(picks)


def _warm(server: Server) -> None:
    body = json.dumps({"reports": [
        {"node": n, "x": 30.0, "y": 30.0, "time": 0.5} for n in (14, 15, 20, 21)
    ]}).encode()
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        for i in range(20):
            conn.request("POST", "/v1/sessions/warm-up/reports", body=body)
            conn.getresponse().read()
            conn.request("POST", "/v1/sessions/warm-up/close",
                         body=json.dumps({"time": float(i + 1)}).encode())
            conn.getresponse().read()
    finally:
        conn.close()


def http_measure(seed: int, seconds: float, ledger: Ledger,
                 setups: int):
    """Closed loop for throughput and latency, then an open loop at half
    that rate (its latencies go to the detail line); server CPU per
    request over both."""
    # Each server starts pinned to the least contended CPU, like the
    # in-process set-ups, and is unpinned once it answers.
    setup_times = []
    server: Optional[Server] = None
    picker = calib.CorePicker()
    try:
        for _ in range(setups):
            if server is not None:
                server.stop()
            scale = picker.pick()
            server = Server()
            os.sched_setaffinity(server.proc.pid, picker.cpus)
            setup_times.append((server.setup_s, scale))
    finally:
        picker.release()
    n_conn = connections()
    plan = Plan(seed, n_conn, _plan_windows(seconds))
    # The plan is the benchmark's own data: keep it out of the client's
    # garbage collections, which would otherwise stall timed requests.
    gc.collect()
    gc.freeze()
    lock = threading.Lock()
    clients = [Client(server, q, ledger, lock) for q in plan.queues]
    try:
        _warm(server)
        cpu0 = proc_cpu_s(server.proc.pid)
        t0 = time.perf_counter()
        closed_loop(clients, t0 + CLOSED_SHARE * seconds)
        wall = time.perf_counter() - t0
        closed_requests = sum(c.requests for c in clients)
        closed_lat = [x for c in clients for x in c.latencies]
        rps = closed_requests / wall
        for c in clients:
            c.latencies = []
        rate = 0.5 * rps
        open_loop(clients, rate, (1.0 - CLOSED_SHARE) * seconds)
        cpu1 = proc_cpu_s(server.proc.pid)
        requests = sum(c.requests for c in clients)
        open_lat = [x for c in clients for x in c.latencies]
        lateness = [x for c in clients for x in c.lateness]
        sampled = verify_tenants(server, clients, seed, ledger)
        peak_rss = proc_peak_rss_bytes(server.proc.pid)
    finally:
        for c in clients:
            c.close()
        server.stop()
    # Latency percentiles come from the closed loop: over keep-alive
    # connections each response waits out the client's delayed ACK
    # (see README.md), which is what a keep-alive client sees, and is
    # steady where the open loop's millisecond latencies swing with the
    # machine's speed.  The open loop's figures are in the detail line.
    metrics = {
        "throughput_per_s": rps,
        "cpu_ms_per_op": 1e3 * (cpu1 - cpu0) / requests,
        "p50_ms": 1e3 * percentile(closed_lat, 50),
        "p90_ms": 1e3 * percentile(closed_lat, 90),
        "mem_bytes": float(peak_rss),
    }
    reads = sum(c.reads for c in clients)
    inputs = _window_properties(plan.stream, [
        w for c in clients for windows in c.sent.values() for w in windows])
    inputs.update(read_share=reads / max(1, requests), requests=requests,
                  reads=reads)
    detail = {
        "connections": n_conn,
        "closed_loop": {"requests": closed_requests, "wall_s": wall},
        "open_loop": {"rate_per_s": rate, "requests": len(open_lat),
                      "lateness_p50_ms": 1e3 * percentile(lateness, 50),
                      "lateness_max_ms": 1e3 * max(lateness)},
        "sampled_tenants": sampled,
        "figures": {
            "http_rps": [rps, "1/s"],
            "server_cpu_ms_per_req": [metrics["cpu_ms_per_op"], "ms"],
            "http_p50_ms": [1e3 * percentile(open_lat, 50), "ms"],
            "http_p90_ms": [1e3 * percentile(open_lat, 90), "ms"],
            "http_p99_ms": [1e3 * percentile(open_lat, 99), "ms"],
            "closed_loop_p50_ms": [metrics["p50_ms"], "ms"],
            "closed_loop_p90_ms": [metrics["p90_ms"], "ms"],
            "server_peak_rss_bytes": [peak_rss, "bytes"],
        },
        "inputs": inputs,
    }
    return metrics, detail, setup_times


def _closed_pass(server: Server, plan: Plan, ledger: Ledger,
                 seconds: float = 0.0):
    """One connection, closed loop over the plan (or for ``seconds``).

    Returns the client, the pass's wall time, the server's layer
    totals over exactly the pass (traced server only) and the
    manager's counters accrued during it.
    """
    client = Client(server, plan.queues[0], ledger, threading.Lock())
    _warm(server)
    stats0 = json.loads(server.get("/healthz")[1])
    totals0 = server.snapshot() if server.traced else None
    t0 = time.perf_counter()
    client.closed_loop(t0 + (seconds if seconds else float("inf")))
    wall = time.perf_counter() - t0
    totals = (diff_totals(totals0, server.snapshot())
              if server.traced else None)
    stats1 = json.loads(server.get("/healthz")[1])
    client.close()
    verify_tenants(server, [client], plan.seed, ledger)
    manager = {"manager.created": stats1["created"] - stats0["created"],
               "manager.evicted": stats1["evicted"] - stats0["evicted"]}
    return client, wall, totals, manager


def http_trace(seed: int, seconds: float, ledger: Ledger):
    plan = Plan(seed, 1, _plan_windows(seconds))
    server = Server()
    try:
        client, wall_plain, _, _ = _closed_pass(
            server, plan, ledger, seconds=0.4 * seconds)
    finally:
        server.stop()
    windows = client.windows
    server = Server(traced=True)
    try:
        client, wall, totals, manager = _closed_pass(
            server, Plan(seed, 1, windows), ledger)
    finally:
        server.stop()
    wire_s = sum(client.latencies) - totals["incl_s"]["http.handler"]
    # Both passes wait on the same keep-alive stall, not on the CPU, so
    # the overhead is the plain wall ratio.
    metrics = layer_metrics(totals, wall, manager,
                            overhead=wall / wall_plain - 1.0, wire_s=wire_s)
    detail = {"windows_traced": windows, "requests": client.requests,
              "tracer": totals}
    return metrics, detail, None
