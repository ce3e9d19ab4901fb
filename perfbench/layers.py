"""Per-layer timing by wrapping each layer's public entry points at run time.

Nothing in ``src/`` changes: :class:`Instrumentation` replaces class and
module attributes with timing wrappers and puts the originals back on
``uninstall``.  Every wrapped call notes ``(layer, start_ns, end_ns)`` in
a :class:`Recorder`, which keeps per-layer counts and totals and, when
asked, the full span list needed for self times.

Layer names follow the modules they wrap (see ``manifest.json``).
"""

from __future__ import annotations

import inspect
import time
from typing import Any, Optional

import arith

from repro.core.call_graph import CallGraph
from repro.core.stub import LocalInvoker
from repro.observability.metrics import BoundHistogram
from repro.observability.tracing import ActiveSpan, Tracer
from repro.runtime.manager import Manager
from repro.runtime.proclet import RoutingResolver
from repro.serde.compact import CompactCodec
from repro.state.runtime import ComponentState
from repro.state.wal import WalWriter
from repro.transport import message
from repro.transport.client import ConnectionPool
from repro.transport.connection import Connection
from repro.transport.framing import FrameParser
from repro.transport.rpc import Dispatcher, RemoteInvoker
from repro.transport.server import AdmissionController

SPAN_KINDS = (
    "request",
    "stub",
    "rpc",
    "routing",
    "client",
    "connection",
    "serde.encode",
    "serde.decode",
    "framing",
    "message",
    "server.enter",
    "server.exit",
    "dispatch",
    "local",
    "handler",
    "state.op",
    "state.wal",
    "observability.span_start",
    "observability.span_end",
    "observability.observe",
    "observability.callgraph",
    "manager.tick",
    "manager.heartbeat",
    "manager.export",
)
K = {name: i for i, name in enumerate(SPAN_KINDS)}

#: (owner, attribute, span kind) for every fixed entry point.
ENTRY_POINTS: list[tuple[Any, str, str]] = [
    (RemoteInvoker, "invoke", "rpc"),
    (RoutingResolver, "resolve", "routing"),
    (ConnectionPool, "get", "client"),
    (Connection, "call", "connection"),
    (CompactCodec, "encode_into", "serde.encode"),
    (CompactCodec, "decode", "serde.decode"),
    (FrameParser, "feed", "framing"),
    (message, "encode_request_prefix", "message"),
    (message, "encode_response_prefix", "message"),
    (message, "encode_into", "message"),
    (message, "decode", "message"),
    (AdmissionController, "__aenter__", "server.enter"),
    (AdmissionController, "__aexit__", "server.exit"),
    (Dispatcher, "handle", "dispatch"),
    (LocalInvoker, "invoke", "local"),
    (ComponentState, "get", "state.op"),
    (ComponentState, "put", "state.op"),
    (ComponentState, "update", "state.op"),
    (ComponentState, "delete", "state.op"),
    (WalWriter, "append", "state.wal"),
    (Tracer, "start_span", "observability.span_start"),
    (ActiveSpan, "__exit__", "observability.span_end"),
    (BoundHistogram, "observe", "observability.observe"),
    (CallGraph, "record", "observability.callgraph"),
    (Manager, "telemetry_tick", "manager.tick"),
    (Manager, "heartbeat", "manager.heartbeat"),
    (Manager, "export_metrics", "manager.export"),
]

_now = time.perf_counter_ns
_MISSING = object()


class Recorder:
    """Per-kind counts, total and maximum durations, and optional spans."""

    REQUEST = K["request"]

    def __init__(self, keep_spans: bool = False) -> None:
        n = len(SPAN_KINDS)
        self.counts = [0] * n
        self.totals = [0] * n
        self.maxes = [0] * n
        self.spans: Optional[list[tuple[int, int, int]]] = [] if keep_spans else None
        self.encoded_bytes = 0
        self.decoded_bytes = 0
        self.queue_depth_max = 0

    def note(self, kind: int, t0: int, t1: int) -> None:
        d = t1 - t0
        self.counts[kind] += 1
        self.totals[kind] += d
        if d > self.maxes[kind]:
            self.maxes[kind] = d
        if self.spans is not None:
            self.spans.append((kind, t0, t1))


class Instrumentation:
    """Installs timing wrappers on every layer entry point of a deployment."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self.connections: list[Connection] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- install / uninstall -------------------------------------------------

    def track_connections(self) -> None:
        """Remember every Connection built from now on (for its counters)."""
        original = Connection.__init__
        tracked = self.connections

        def init(conn: Connection, *args: Any, **kwargs: Any) -> None:
            original(conn, *args, **kwargs)
            tracked.append(conn)

        self._patch(Connection, "__init__", init)

    def install(self, app: Any) -> None:
        """Wrap the fixed entry points plus the app's stubs and handlers."""
        targets = list(ENTRY_POINTS)
        for reg in app.build:
            stub_cls = type(app.get(reg.iface))
            for spec in reg.spec.methods:
                targets.append((stub_cls, spec.name, "stub"))
                targets.append((reg.impl, spec.name, "handler"))
        for owner, attr, kind in targets:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), K[kind]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        if isinstance(owner, type):
            saved = owner.__dict__.get(attr, _MISSING)  # inherited: delete on restore
        else:
            saved = getattr(owner, attr)
        self._saved.append((owner, attr, saved))
        setattr(owner, attr, value)

    def _wrap(self, fn: Any, kind: int) -> Any:
        instr = self
        if kind == K["serde.encode"]:

            def encode_into(codec: Any, schema: Any, value: Any, out: bytearray) -> None:
                rec = instr.recorder
                before = len(out)
                t0 = _now()
                try:
                    return fn(codec, schema, value, out)
                finally:
                    rec.note(kind, t0, _now())
                    rec.encoded_bytes += len(out) - before

            return encode_into
        if kind == K["serde.decode"]:

            def decode(codec: Any, schema: Any, data: Any) -> Any:
                rec = instr.recorder
                t0 = _now()
                try:
                    return fn(codec, schema, data)
                finally:
                    rec.note(kind, t0, _now())
                    rec.decoded_bytes += len(data)

            return decode
        if kind == K["server.enter"]:

            async def aenter(ctrl: Any) -> Any:
                rec = instr.recorder
                if ctrl.queue_depth > rec.queue_depth_max:
                    rec.queue_depth_max = ctrl.queue_depth
                t0 = _now()
                try:
                    return await fn(ctrl)
                finally:
                    rec.note(kind, t0, _now())

            return aenter
        if inspect.iscoroutinefunction(fn):

            async def timed_async(*args: Any, **kwargs: Any) -> Any:
                t0 = _now()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    instr.recorder.note(kind, t0, _now())

            return timed_async

        def timed(*args: Any, **kwargs: Any) -> Any:
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                instr.recorder.note(kind, t0, _now())

        return timed

    # -- connection counters ---------------------------------------------------

    def connection_counters(self) -> tuple[int, int, int]:
        """Summed ``(frames_sent, flushes, direct_writes)`` over all connections."""
        frames = flushes = direct = 0
        for conn in self.connections:
            frames += conn.frames_sent
            flushes += conn.flushes
            direct += conn.direct_writes
        return frames, flushes, direct


def counted_metrics(
    rec: Recorder,
    requests: int,
    wall_s: float,
    conn_delta: tuple[int, int, int],
) -> dict[str, float]:
    """Counts and ratios from the concurrent (c=32) traced phase."""
    c = rec.counts

    def per_req(*kinds: str) -> float:
        return arith.ratio(sum(c[K[k]] for k in kinds), requests)

    frames, flushes, direct = conn_delta
    serde_calls = c[K["serde.encode"]] + c[K["serde.decode"]]
    manager_kinds = ("manager.tick", "manager.heartbeat", "manager.export")
    manager_ns = sum(rec.totals[K[k]] for k in manager_kinds)
    return {
        "stub.calls_per_req": per_req("stub"),
        "rpc.calls_per_req": per_req("rpc"),
        "rpc.attempts_per_call": arith.ratio(c[K["connection"]], c[K["rpc"]]),
        "client.gets_per_req": per_req("client"),
        "connection.calls_per_req": per_req("connection"),
        "connection.frames_per_flush": arith.ratio(frames - direct, flushes),
        "connection.direct_write_share": arith.ratio(direct, frames),
        "serde.calls_per_req": per_req("serde.encode", "serde.decode"),
        "serde.bytes_per_call": arith.ratio(rec.encoded_bytes + rec.decoded_bytes, serde_calls),
        "server.queue_depth_max": float(rec.queue_depth_max),
        "local.calls_per_req": per_req("local"),
        "handler.calls_per_req": per_req("handler"),
        "state.ops_per_req": per_req("state.op"),
        "state.wal_appends_per_req": per_req("state.wal"),
        "observability.spans_per_req": per_req("observability.span_start"),
        "manager.tick_ms_max": rec.maxes[K["manager.tick"]] / 1e6,
        "manager.busy_share": manager_ns / (wall_s * 1e9),
    }


def self_time_metrics(rec: Recorder) -> dict[str, float]:
    """Self times from the single-caller (c=1) traced phase."""
    spans = rec.spans or []
    own, parent = arith.self_times(spans)
    root = arith.top_ancestor(parent)
    n = len(SPAN_KINDS)
    self_ns = [0] * n
    counts = [0] * n
    inside_ns = [0] * n  # self time spent inside request spans, by kind
    request_ns = requests = 0
    for i, (kind, t0, t1) in enumerate(spans):
        if kind == K["request"]:
            requests += 1
            request_ns += t1 - t0
            continue
        self_ns[kind] += own[i]
        counts[kind] += 1
        if spans[root[i]][0] == K["request"]:
            inside_ns[kind] += own[i]
    if not requests:
        raise ValueError("the traced single-caller phase completed no requests")
    request_us = request_ns / requests / 1e3

    def us(*kinds: str) -> float:
        total = sum(self_ns[K[k]] for k in kinds)
        return arith.ratio(total, sum(counts[K[k]] for k in kinds)) / 1e3

    return {
        "request.traced_us": request_us,
        "stub.self_us": us("stub"),
        "rpc.invoke_self_us": us("rpc"),
        "routing.resolve_us": us("routing"),
        "client.pool_get_us": us("client"),
        "connection.call_self_us": us("connection"),
        "serde.encode_us": us("serde.encode"),
        "serde.decode_us": us("serde.decode"),
        "framing.feed_us": us("framing"),
        "message.codec_us": us("message"),
        "server.admission_wait_us": us("server.enter"),
        "dispatch.self_us": us("dispatch"),
        "local.invoke_self_us": us("local"),
        "handler.self_us": us("handler"),
        "state.op_us": us("state.op"),
        "state.wal_append_us": us("state.wal"),
        "observability.span_us": arith.ratio(
            self_ns[K["observability.span_start"]] + self_ns[K["observability.span_end"]],
            counts[K["observability.span_start"]],
        )
        / 1e3,
        "observability.observe_us": us("observability.observe"),
        "observability.callgraph_us": us("observability.callgraph"),
        "unattributed_us": arith.unattributed_us(
            request_us, [ns / requests / 1e3 for ns in inside_ns]
        ),
    }
