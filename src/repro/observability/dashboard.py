"""Live deployment dashboard: ANSI terminal view + single-file HTML server.

The paper's Figure 3 puts a "Web UI / Debugging Tools" box on top of the
manager's aggregated telemetry; this module is that box.  One tiny HTTP
server (stdlib-only, asyncio streams) runs next to the manager and serves:

* ``/``               — a self-contained auto-refreshing HTML page
* ``/status.json``    — the machine-readable status (CLI / remediation)
* ``/dashboard.txt``  — the rendered text dashboard (``repro top`` body)
* ``/trace/<id>``     — one trace: call tree + critical path (text)
* ``/metrics``        — Prometheus text exposition

The terminal renderer (:func:`render_dashboard`) is the same content with
ANSI color, consumed by ``repro top``.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from typing import Any, Optional

log = logging.getLogger("repro.observability.dashboard")

RESET = "\x1b[0m"
BOLD = "\x1b[1m"
DIM = "\x1b[2m"
RED = "\x1b[31m"
GREEN = "\x1b[32m"
YELLOW = "\x1b[33m"
CLEAR = "\x1b[2J\x1b[H"


def render_dashboard(manager: Any, *, color: bool = True, clear: bool = False) -> str:
    """The live terminal dashboard (one frame)."""
    from repro.runtime.status import (
        render_call_graph,
        render_header,
        render_latencies,
        render_remediation,
        render_replicas,
        render_signals,
        render_timeseries,
    )

    def paint(text: str, code: str) -> str:
        return f"{code}{text}{RESET}" if color else text

    firing = manager.signals.firing()
    banner = (
        paint(f"◆ {len(firing)} SIGNAL(S) FIRING", RED + BOLD)
        if firing
        else paint("● all signals nominal", GREEN)
    )
    stamp = paint(time.strftime("%H:%M:%S"), DIM)
    sections = [
        f"{banner}   {stamp}",
        render_header(manager),
        render_signals(manager),
        render_remediation(manager),
        render_timeseries(manager),
        render_replicas(manager),
        render_latencies(manager),
        render_call_graph(manager),
    ]
    body = "\n\n".join(s for s in sections if s)
    return (CLEAR + body) if (clear and color) else body


_HTML = """<!doctype html>
<html><head><meta charset="utf-8"><title>repro dashboard</title>
<style>
 body { background:#101418; color:#d8dee9; font-family:ui-monospace,monospace;
        margin:1.5rem; }
 h1 { font-size:1.1rem; } .ok { color:#a3be8c; } .bad { color:#bf616a; }
 pre { background:#161b22; padding:1rem; border-radius:6px; overflow-x:auto; }
 table { border-collapse:collapse; margin:0.5rem 0; }
 td,th { padding:2px 10px; text-align:left; border-bottom:1px solid #2e3440; }
</style></head>
<body>
<h1>repro live dashboard <span id="state" class="ok">connecting…</span></h1>
<div id="signals"></div>
<div id="remediation"></div>
<pre id="body">loading…</pre>
<script>
async function tick() {
  try {
    const [txt, status] = await Promise.all([
      fetch('/dashboard.txt').then(r => r.text()),
      fetch('/status.json').then(r => r.json()),
    ]);
    document.getElementById('body').textContent = txt;
    const firing = (status.signals && status.signals.firing) || [];
    const state = document.getElementById('state');
    state.textContent = firing.length ? firing.length + ' signal(s) FIRING' : 'healthy';
    state.className = firing.length ? 'bad' : 'ok';
    let rows = '';
    for (const s of (status.signals ? status.signals.signals : [])) {
      rows += '<tr><td>' + (s.firing ? 'FIRING' : 'ok') + '</td><td>' +
              s.kind + ':' + s.name + '</td><td>' + s.scope + '</td><td>' +
              s.detail + '</td></tr>';
    }
    document.getElementById('signals').innerHTML =
      rows ? '<table><tr><th></th><th>signal</th><th>scope</th><th>detail</th></tr>' + rows + '</table>' : '';
    const rem = status.remediation;
    let remHtml = '';
    if (rem && (rem.mode !== 'off' || rem.journal.some(a => a.owner !== 'start'))) {
      remHtml = '<p>remediation mode=<b>' + rem.mode + '</b>' +
        ' fired=' + (rem.counts.fired || 0) +
        ' observed=' + (rem.counts.observed || 0) +
        ' suppressed=' + (rem.counts.suppressed || 0) +
        ' budget=' + rem.budget.available + '/' + rem.budget.max_actions_per_min +
        '/min</p>';
      let arows = '';
      for (const a of rem.journal.slice(-8).reverse()) {
        arows += '<tr><td>' + a.verdict + '</td><td>' + a.owner + '</td><td>' +
                 a.action + '</td><td>' + a.target + '</td><td>' + a.reason +
                 '</td></tr>';
      }
      if (arows) {
        remHtml += '<table><tr><th>verdict</th><th>owner</th><th>action</th>' +
                   '<th>target</th><th>reason</th></tr>' + arows + '</table>';
      }
    }
    document.getElementById('remediation').innerHTML = remHtml;
  } catch (e) {
    document.getElementById('state').textContent = 'disconnected';
    document.getElementById('state').className = 'bad';
  }
  setTimeout(tick, 1000);
}
tick();
</script>
</body></html>
"""


class DashboardServer:
    """Tiny stdlib HTTP server exposing the manager's live telemetry."""

    def __init__(self, manager: Any, *, host: str = "127.0.0.1") -> None:
        self.manager = manager
        self.host = host
        self._server: Optional[asyncio.AbstractServer] = None
        self.url = ""

    async def start(self, port: int = 0) -> str:
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=port
        )
        actual = self._server.sockets[0].getsockname()[1]
        self.url = f"http://{self.host}:{actual}"
        log.info("dashboard serving at %s", self.url)
        return self.url

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await asyncio.wait_for(reader.readline(), timeout=5.0)
            parts = request.decode("latin-1").split()
            path = parts[1] if len(parts) >= 2 else "/"
            # Drain headers; requests are tiny and bodies are ignored.
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if line in (b"\r\n", b"\n", b""):
                    break
            status, ctype, body = self._route(path.split("?", 1)[0])
            payload = body.encode("utf-8")
            writer.write(
                (
                    f"HTTP/1.1 {status}\r\n"
                    f"Content-Type: {ctype}; charset=utf-8\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    f"Cache-Control: no-store\r\n"
                    f"Connection: close\r\n\r\n"
                ).encode("latin-1")
                + payload
            )
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError):
            pass
        except Exception:
            log.exception("dashboard request failed")
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    def _route(self, path: str) -> tuple[str, str, str]:
        from repro.observability.metrics import render_prometheus
        from repro.runtime.status import render_trace, status_wire

        if path == "/":
            return "200 OK", "text/html", _HTML
        if path == "/status.json":
            return "200 OK", "application/json", json.dumps(status_wire(self.manager))
        if path == "/dashboard.txt":
            return (
                "200 OK",
                "text/plain",
                render_dashboard(self.manager, color=False),
            )
        if path == "/metrics":
            return "200 OK", "text/plain", render_prometheus(self.manager.metrics)
        if path.startswith("/trace/"):
            raw = path[len("/trace/") :]
            # Ids render as hex but status.json carries decimals; an
            # all-digit string is ambiguous, so try both and prefer the
            # reading that names a known trace.
            candidates: list[int] = []
            for base in (10, 16) if raw.isdigit() else (16,):
                try:
                    tid = int(raw, base)
                except ValueError:
                    continue
                if tid not in candidates:
                    candidates.append(tid)
            if not candidates:
                return "400 Bad Request", "text/plain", f"bad trace id {raw!r}\n"
            for tid in candidates:
                if self.manager.tracer.trace(tid):
                    return "200 OK", "text/plain", render_trace(self.manager, tid)
            return "200 OK", "text/plain", render_trace(self.manager, candidates[0])
        return "404 Not Found", "text/plain", f"no route {path!r}\n"


def fetch(url: str, timeout_s: float = 5.0) -> str:
    """Blocking GET helper for the CLI (stdlib only)."""
    from urllib.request import urlopen

    with urlopen(url, timeout=timeout_s) as resp:  # noqa: S310 (local dashboard)
        return resp.read().decode("utf-8")


def fetch_json(url: str, timeout_s: float = 5.0) -> Any:
    return json.loads(fetch(url, timeout_s))
