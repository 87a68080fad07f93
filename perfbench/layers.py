"""Span-stack layer tracer installed from outside the program.

The benchmark attributes time to the program's layers without editing
them: :func:`install` rebinds each layer's public entry points (class
methods, and module-level functions at *every* module that imported
them by value) to wrappers that push a span on a per-thread stack.
When a span ends, its duration is added to the layer's inclusive time
and subtracted from its parent's, so each layer's *self* (exclusive)
time is its spans' duration minus the part its child spans cover.
Self times therefore partition the traced region: divided by the
region's wall time they are shares that, with an ``unattributed``
remainder, sum to 1.

Every finished span is also kept in memory as ``(id, layer, start,
end, parent)`` -- up to :data:`MAX_SPANS`; later spans still feed the
totals -- and :meth:`Tracer.dump_spans` writes them out once the run
is over.

The totals are exact for one calling thread at a time, which is how
every traced run here drives the program (the traced HTTP run uses a
single connection).
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import sys
import threading
import time
from array import array
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

from inputs import SMALL_WINDOW_ROWS

# Layer names, in report order.  ``manager.lock`` (entering
# ``SessionManager.locked``) is timed but is not one of the exclusive
# shares the benchmark names; its self time falls in ``unattributed``.
LAYERS = (
    "simkernel",
    "radio.send",
    "sensors.on_message",
    "sensors.sense",
    "clusterctl.on_message",
    "decision",
    "clustering",
    "trust.vote",
    "diagnosis",
    "session.ingest",
    "session.close",
    "manager.create",
    "manager.lock",
    "http.handler",
    "http.json_decode",
    "http.json_encode",
)

# Method entry points: (layer, module, class, method).
METHOD_TARGETS = (
    ("simkernel", "repro.simkernel.simulator", "Simulator", "run"),
    ("radio.send", "repro.network.radio", "RadioChannel", "broadcast"),
    ("radio.send", "repro.network.radio", "RadioChannel", "unicast"),
    ("radio.send", "repro.network.radio", "RadioChannel", "unicast_batch"),
    ("sensors.on_message", "repro.sensors.node", "SensorNode", "on_message"),
    ("sensors.sense", "repro.sensors.node", "SensorNode", "compose_report"),
    ("sensors.sense", "repro.sensors.node", "SensorNode",
     "compose_false_alarm"),
    ("clusterctl.on_message", "repro.clusterctl.head", "ClusterHead",
     "on_message"),
    ("decision", "repro.service.session", "TrustSession", "decide_rows"),
    ("decision", "repro.service.session", "TrustSession", "decide_reports"),
    ("decision", "repro.service.session", "TrustSession", "decide_binary"),
    ("trust.vote", "repro.core.trust", "TrustTable", "cti_vote"),
    ("diagnosis", "repro.service.session", "TrustSession", "sweep"),
    ("session.ingest", "repro.service.session", "TrustSession", "ingest"),
    ("session.close", "repro.service.session", "TrustSession",
     "close_window"),
    ("http.handler", "repro.service.http_api", "TrustServiceHandler",
     "do_GET"),
    ("http.handler", "repro.service.http_api", "TrustServiceHandler",
     "do_POST"),
)

# Module-level functions: (layer, defining module, function).  These
# are imported by value elsewhere (``core.location`` and
# ``core.decision_kernel`` hold their own references), so every loaded
# ``repro`` module attribute bound to the original is rebound.  The
# flat route is wrapped too: windows under 32 rows never reach
# ``cluster_reports_xy``, and without it their clustering time would
# land in ``decision``.
FUNCTION_TARGETS = (
    ("clustering", "repro.core.clustering", "cluster_reports"),
    ("clustering", "repro.core.clustering", "cluster_reports_xy"),
    ("clustering", "repro.core.clustering", "cluster_reports_flat"),
)

MAX_SPANS = 100_000


class Tracer:
    """Per-layer self/inclusive time, call counts, and a span log."""

    def __init__(self) -> None:
        self.index = {name: i for i, name in enumerate(LAYERS)}
        n = len(LAYERS)
        self.self_s = [0.0] * n
        self.incl_s = [0.0] * n
        self.calls = [0] * n
        # Counts observed at the same boundaries as the spans.
        self.counts: Dict[str, int] = {
            "decision.windows": 0,
            "decision.small_windows": 0,
            "session.ingest.accepted": 0,
            "session.close.decisions": 0,
            "diagnosis.diagnosed": 0,
        }
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.span_id = array("q")
        self.span_layer = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.spans_dropped = 0
        self.missing: List[str] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _finish(self, idx: int, frame: list, t0: float, t1: float,
                stack: list) -> None:
        d = t1 - t0
        self.self_s[idx] += d - frame[0]
        self.incl_s[idx] += d
        self.calls[idx] += 1
        parent = 0
        if stack:
            stack[-1][0] += d
            parent = stack[-1][1]
        if len(self.span_id) < MAX_SPANS:
            self.span_id.append(frame[1])
            self.span_layer.append(idx)
            self.span_start.append(t0)
            self.span_end.append(t1)
            self.span_parent.append(parent)
        else:
            self.spans_dropped += 1

    def wrap(self, layer: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """``fn`` timed as one span of ``layer``; ``observe(args, result)``
        runs after the span ends, to count properties of the call."""
        idx = self.index[layer]
        ids = self._ids
        get_stack = self._stack
        finish = self._finish
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = get_stack()
            frame = [0.0, next(ids)]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                finish(idx, frame, t0, t1, stack)
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    @contextlib.contextmanager
    def span(self, layer: str):
        idx = self.index[layer]
        stack = self._stack()
        frame = [0.0, next(self._ids)]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self._finish(idx, frame, t0, t1, stack)

    # -- observers -------------------------------------------------------
    def _count(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def _observe_window(self, args, result) -> None:
        self.counts["decision.windows"] += 1
        if len(args[1]) < SMALL_WINDOW_ROWS:
            self.counts["decision.small_windows"] += 1

    def _observers(self) -> Dict[Tuple[str, str], Callable]:
        return {
            ("TrustSession", "decide_rows"): self._observe_window,
            ("TrustSession", "decide_reports"): self._observe_window,
            ("TrustSession", "ingest"): lambda a, r: self._count(
                "session.ingest.accepted", int(bool(r))),
            ("TrustSession", "close_window"): lambda a, r: self._count(
                "session.close.decisions", len(r)),
            ("TrustSession", "sweep"): lambda a, r: self._count(
                "diagnosis.diagnosed", len(r)),
        }

    # -- install / uninstall ---------------------------------------------
    def _rebind(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        """Rebind every layer entry point that exists in this program.

        Entry points the program does not have (renamed or deleted by a
        later change) are listed in :attr:`missing` instead of failing,
        so the layer reads zero rather than the benchmark breaking.
        """
        observers = self._observers()
        for layer, module_name, cls_name, method in METHOD_TARGETS:
            module = importlib.import_module(module_name)
            cls = getattr(module, cls_name, None)
            fn = None if cls is None else cls.__dict__.get(method)
            if fn is None:
                self.missing.append(f"{module_name}.{cls_name}.{method}")
                continue
            observe = observers.get((cls_name, method))
            self._rebind(cls, method, self.wrap(layer, fn, observe))

        importlib.import_module("repro.core.decision_kernel")
        importlib.import_module("repro.core.location")
        for layer, module_name, func_name in FUNCTION_TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, func_name, None)
            if fn is None:
                self.missing.append(f"{module_name}.{func_name}")
                continue
            wrapped = self.wrap(layer, fn)
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("repro") or mod is None:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, attr, wrapped)

        self._install_service()
        return self

    def _install_service(self) -> None:
        from repro.service import http_api
        from repro.service.manager import SessionManager

        tracer = self
        original_locked = SessionManager.locked

        @contextlib.contextmanager
        def locked(manager, key, create=True):
            with contextlib.ExitStack() as stack:
                with tracer.span("manager.lock"):
                    session = stack.enter_context(
                        original_locked(manager, key, create))
                yield session

        self._rebind(SessionManager, "locked", locked)

        original_factory = http_api.default_session_factory

        def default_session_factory(config):
            return tracer.wrap("manager.create", original_factory(config))

        self._rebind(http_api, "default_session_factory",
                     default_session_factory)

        codec = getattr(http_api, "json", None)
        if codec is None:
            self.missing.append("repro.service.http_api.json")
            return
        self._rebind(http_api, "json", SimpleNamespace(
            loads=self.wrap("http.json_decode", codec.loads),
            dumps=self.wrap("http.json_encode", codec.dumps),
            JSONDecodeError=codec.JSONDecodeError,
        ))

    def uninstall(self) -> None:
        """Restore every rebound attribute, newest first."""
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------
    def totals(self) -> Dict[str, object]:
        """JSON-serialisable per-layer totals (crosses process bounds)."""
        return {
            "self_s": dict(zip(LAYERS, self.self_s)),
            "incl_s": dict(zip(LAYERS, self.incl_s)),
            "calls": dict(zip(LAYERS, self.calls)),
            "counts": dict(self.counts),
            "spans_kept": len(self.span_id),
            "spans_dropped": self.spans_dropped,
            "missing": list(self.missing),
        }

    def dump_spans(self, path: Path) -> Path:
        """Write the kept spans as JSON columns (layer names resolved)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "layers": list(LAYERS),
            "id": self.span_id.tolist(),
            "layer": self.span_layer.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "dropped": self.spans_dropped,
        }
        path.write_text(json.dumps(doc))
        return path


def diff_totals(before: Dict[str, object], after: Dict[str, object]
                ) -> Dict[str, object]:
    """Totals accrued between two :meth:`Tracer.totals` snapshots."""
    out: Dict[str, object] = dict(after)
    for key in ("self_s", "incl_s", "calls", "counts"):
        out[key] = {k: v - before[key][k] for k, v in after[key].items()}
    return out


SHARE_LAYERS = (
    "simkernel",
    "radio.send",
    "sensors.on_message",
    "sensors.sense",
    "clusterctl.on_message",
    "decision",
    "clustering",
    "trust.vote",
    "diagnosis",
    "session.ingest",
    "session.close",
    "manager.create",
    "http.handler",
    "http.json_decode",
    "http.json_encode",
)



def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    totals: Dict[str, object],
    wall_s: float,
    extra: Dict[str, float],
    overhead: float,
    wire_s: float = 0.0,
) -> Dict[str, float]:
    """Every per-layer metric from tracer totals over ``wall_s``.

    ``extra`` carries the counts the workload reads off the program's
    own objects (simulator events, radio totals, manager counters);
    ``overhead`` is the traced pass's wall over the untraced pass's,
    minus 1; ``wire_s`` is client latency not covered by the server
    handler.
    """
    self_s = totals["self_s"]
    calls = totals["calls"]
    counts = totals["counts"]
    out: Dict[str, float] = {}
    for layer in SHARE_LAYERS:
        out[f"{layer}.share"] = _ratio(self_s[layer], wall_s)
    out["http.wire.share"] = _ratio(wire_s, wall_s)
    out["unattributed.share"] = 1.0 - sum(out.values())
    out["trace_overhead"] = overhead

    out["simkernel.events"] = extra.get("simkernel.events", 0)
    out["radio.send.calls"] = calls["radio.send"]
    out["radio.delivered_ratio"] = _ratio(
        extra.get("radio.delivered", 0), extra.get("radio.sent", 0))
    out["sensors.on_message.calls"] = calls["sensors.on_message"]
    out["clusterctl.on_message.calls"] = calls["clusterctl.on_message"]
    out["decision.calls"] = calls["decision"]
    out["decision.small_route_ratio"] = _ratio(
        counts["decision.small_windows"], counts["decision.windows"])
    out["clustering.calls"] = calls["clustering"]
    out["trust.vote.calls"] = calls["trust.vote"]
    out["diagnosis.diagnosed"] = counts["diagnosis.diagnosed"]
    out["session.ingest.calls"] = calls["session.ingest"]
    out["session.ingest.accepted_ratio"] = _ratio(
        counts["session.ingest.accepted"], calls["session.ingest"])
    out["session.decisions_per_close"] = _ratio(
        counts["session.close.decisions"], calls["session.close"])
    out["manager.lock_s"] = self_s["manager.lock"]
    out["manager.created"] = extra.get("manager.created", 0)
    out["manager.evicted"] = extra.get("manager.evicted", 0)
    return out
