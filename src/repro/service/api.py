"""HTTP/JSON front door for :class:`~repro.service.coordinator.SweepService`.

Stdlib-only (``http.server``): one :class:`ThreadingHTTPServer` whose
handler reads and writes JSON.  Endpoints::

    GET  /health                      liveness probe -> {"ok": true}
    GET  /healthz                     alias (the conventional probe path)
    GET  /metrics                     Prometheus text exposition: queue
                                      depths, active cells, cache hit
                                      counters, worker fleet state
    GET  /api/status                  backend label, queue counts, cache stats
    GET  /api/jobs[?state=&submitter=]  job summaries, newest first
    POST /api/jobs                    {"kind", "spec", "submitter", "priority"}
                                      -> 201 {"id": N, ...summary}
    GET  /api/jobs/<id>               full job row (spec, result, error, ...)
    GET  /api/jobs/<id>/events?after=N   events with seq > N
    GET  /api/jobs/<id>/events?after=N&stream=1[&timeout=S]
                                      NDJSON: one event per line, pushed as
                                      the store records it, until the job
                                      reaches a terminal state or S seconds
                                      pass (the final line is a
                                      {"event": "state"} record carrying the
                                      job's state at that moment)
    GET  /api/jobs/<id>/result        the stored result payload (e.g. the
                                      ``repro sweep --output`` document)
    POST /api/jobs/<id>/cancel        cancel queued outright / flag running

Errors are ``{"error": "..."}`` with a 4xx status; a request body must
declare a valid ``Content-Length`` of at most :data:`MAX_BODY_BYTES`.
The server never executes jobs itself -- it only talks to the service's
:class:`~repro.service.store.JobStore`, which the scheduler threads
drain -- so a slow HTTP client cannot stall a sweep.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.obs import REGISTRY
from repro.obs.spans import SpanContext
from repro.service import JOB_STATES, TERMINAL_STATES
from repro.service.coordinator import SweepService

#: Largest request body the API reads (a job spec is a few hundred bytes).
MAX_BODY_BYTES = 1 << 20

_JOB_PATH = re.compile(r"^/api/jobs/(\d+)(?:/(events|result|cancel))?$")


class ServiceAPI:
    """Binds an HTTP server to a running :class:`SweepService`."""

    def __init__(self, service: SweepService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        api = self

        class Handler(_Handler):
            pass

        Handler.api = api
        self.server = ThreadingHTTPServer((host, port), Handler)
        self.server.daemon_threads = True
        self.server.repro_closing = False
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self.server.serve_forever, name="serve-http", daemon=True,
        )
        self._thread.start()

    def serve_forever(self) -> None:
        self.server.serve_forever()

    def close(self) -> None:
        self.server.repro_closing = True
        self.service.store.notify()  # wake event streamers to see the flag
        self.server.shutdown()
        self.server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


class _Handler(BaseHTTPRequestHandler):
    api: ServiceAPI  # patched onto the per-server subclass
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"

    def log_message(self, fmt: str, *args) -> None:  # noqa: A003
        pass  # the service has its own log; HTTP chatter is noise

    # -- plumbing --------------------------------------------------------

    def _send_json(self, status: int, payload: object) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_json(self) -> Optional[Dict[str, object]]:
        # Checked before reading: a bad length would raise here or block
        # the handler thread until EOF, a huge one would buffer it all.
        # The unread body makes the connection unusable, so it closes.
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            self.close_connection = True
            if length < 0:
                self._send_error(400, "invalid Content-Length")
            else:
                self._send_error(
                    413, f"request body over {MAX_BODY_BYTES} bytes")
            return None
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw)
        except ValueError:
            self._send_error(400, "request body is not valid JSON")
            return None
        if not isinstance(payload, dict):
            self._send_error(400, "request body must be a JSON object")
            return None
        return payload

    def _job_or_404(self, job_id: int) -> Optional[Dict[str, object]]:
        job = self.api.service.store.get(job_id)
        if job is None:
            self._send_error(404, f"no such job: {job_id}")
        return job

    # -- routing ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlsplit(self.path)
        query = parse_qs(url.query)
        if url.path in ("/health", "/healthz"):
            self._send_json(200, {"ok": True})
        elif url.path == "/metrics":
            self.api.service.publish_metrics()
            body = REGISTRY.render_prometheus().encode()
            self.send_response(200)
            self.send_header("Content-Type",
                             "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif url.path == "/api/status":
            self._send_json(200, self.api.service.status())
        elif url.path == "/api/jobs":
            state = (query.get("state") or [None])[0]
            submitter = (query.get("submitter") or [None])[0]
            if state is not None and state not in JOB_STATES:
                self._send_error(
                    400, f"unknown state {state!r} "
                         f"(expected one of {', '.join(JOB_STATES)})")
                return
            jobs = self.api.service.store.list_jobs(
                state=state, submitter=submitter)
            self._send_json(200, {"jobs": jobs})
        else:
            match = _JOB_PATH.match(url.path)
            if match is None or match.group(2) == "cancel":
                self._send_error(404, f"no such endpoint: {url.path}")
                return
            job_id, tail = int(match.group(1)), match.group(2)
            job = self._job_or_404(job_id)
            if job is None:
                return
            if tail is None:
                self._send_json(200, job)
            elif tail == "result":
                if job["state"] != "done":
                    self._send_error(
                        409, f"job {job_id} is {job['state']}, not done")
                else:
                    self._send_json(200, job["result"])
            else:  # events
                try:
                    after = int((query.get("after") or ["0"])[0])
                    timeout = float((query.get("timeout") or ["inf"])[0])
                except ValueError:
                    timeout = -1.0
                if not timeout >= 0:  # also rejects nan
                    self._send_error(400, "after must be an integer and "
                                          "timeout a number >= 0")
                    return
                if (query.get("stream") or ["0"])[0] in ("1", "true"):
                    self._stream_events(job_id, after, timeout)
                else:
                    events = self.api.service.store.events_after(job_id, after)
                    self._send_json(200, {"job": job_id, "events": events})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        url = urlsplit(self.path)
        if url.path == "/api/jobs":
            body = self._read_json()
            if body is None:
                return
            try:
                job_id = self.api.service.submit(
                    kind=str(body.get("kind") or "sweep"),
                    spec=body.get("spec") or {},
                    submitter=str(body.get("submitter") or "anonymous"),
                    priority=int(body.get("priority") or 0),
                    trace=SpanContext.from_header(
                        self.headers.get("X-Repro-Trace")),
                )
            except (ValueError, KeyError) as exc:
                self._send_error(400, str(exc))
                return
            self._send_json(201, self.api.service.store.get(job_id))
            return
        match = _JOB_PATH.match(url.path)
        if match is None or match.group(2) != "cancel":
            self._send_error(404, f"no such endpoint: {url.path}")
            return
        job_id = int(match.group(1))
        if self._job_or_404(job_id) is None:
            return
        state = self.api.service.store.request_cancel(job_id)
        self._send_json(200, {"id": job_id, "state": state})

    # -- NDJSON streaming ------------------------------------------------

    def _stream_events(self, job_id: int, after: int,
                       timeout: float) -> None:
        """Push the event log, one JSON object per line, as it grows.

        Between reads the handler sleeps on the store's change
        notification, so an event reaches the client as soon as it is
        stored.  Ends when the job reaches a terminal state or after
        ``timeout`` seconds; the last line is a synthetic
        ``{"event": "state"}`` record with the job's state then, so
        clients need not re-fetch the job to learn the outcome.  Chunked
        encoding keeps the HTTP/1.1 connection well-formed without a
        known length.
        """
        store = self.api.service.store
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

        def emit(obj: object) -> None:
            line = (json.dumps(obj) + "\n").encode()
            self.wfile.write(b"%x\r\n" % len(line) + line + b"\r\n")
            self.wfile.flush()

        deadline = time.monotonic() + timeout
        try:
            while not self.server.repro_closing:
                seen = store.version
                # The state first, then the log: a terminal state commits
                # with its event, so this pass still emits that event.
                job = store.get(job_id)
                for event in store.events_after(job_id, after):
                    after = event["seq"]
                    emit(event)
                remaining = deadline - time.monotonic()
                if (job is None or job["state"] in TERMINAL_STATES
                        or remaining <= 0):
                    emit({"event": "state", "seq": after,
                          "state": job["state"] if job else "deleted",
                          "error": job.get("error") if job else None})
                    break
                store.wait_for_change(seen, remaining)
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream; nothing to clean up
        self.close_connection = True
