"""Stdlib client for the ``repro serve`` HTTP API.

:class:`ServiceClient` wraps ``urllib`` so scripts, tests, and the
``repro job`` CLI verbs never hand-roll requests.  Every method maps
1:1 onto an endpoint documented in :mod:`repro.service.api`; streaming
reads the NDJSON event feed incrementally, so progress arrives as the
coordinator produces it, and :meth:`ServiceClient.wait` returns the
moment that feed ends.  Nothing here imports the simulator or numpy,
so a ``repro job`` process starts in a fraction of a second.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Dict, Iterator, List, Optional

from repro.obs.spans import current_context
from repro.service import TERMINAL_STATES


class ServiceError(RuntimeError):
    """An API request failed; ``status`` carries the HTTP code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServiceClient:
    """Talks to one ``repro serve`` coordinator at ``base_url``."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        if "://" not in self.base_url:
            self.base_url = "http://" + self.base_url
        self.timeout = timeout

    # -- plumbing --------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, object]] = None,
                 timeout: Optional[float] = None,
                 headers: Optional[Dict[str, str]] = None):
        data = json.dumps(body).encode() if body is not None else None
        send_headers = dict(headers or {})
        if data:
            send_headers["Content-Type"] = "application/json"
        req = urllib.request.Request(
            self.base_url + path, data=data, method=method,
            headers=send_headers,
        )
        try:
            return urllib.request.urlopen(
                req, timeout=self.timeout if timeout is None else timeout)
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read()).get("error", str(exc))
            except ValueError:
                message = str(exc)
            raise ServiceError(exc.code, message) from None

    def _json(self, method: str, path: str,
              body: Optional[Dict[str, object]] = None,
              headers: Optional[Dict[str, str]] = None):
        with self._request(method, path, body, headers=headers) as resp:
            return json.loads(resp.read())

    # -- API surface -----------------------------------------------------

    def health(self) -> bool:
        try:
            return bool(self._json("GET", "/health").get("ok"))
        except (ServiceError, urllib.error.URLError):
            return False

    def wait_healthy(self, timeout: float = 10.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.health():
                return
            time.sleep(0.1)
        raise ServiceError(503, f"{self.base_url} not healthy "
                                f"after {timeout:.0f}s")

    def status(self) -> Dict[str, object]:
        return self._json("GET", "/api/status")

    def submit(self, kind: str, spec: Dict[str, object],
               submitter: str = "anonymous",
               priority: int = 0) -> Dict[str, object]:
        # An active client-side span rides along so the coordinator's
        # job (and its workers' cells) correlate with this submission.
        context = current_context()
        headers = ({"X-Repro-Trace": context.to_header()}
                   if context is not None else None)
        return self._json("POST", "/api/jobs", {
            "kind": kind, "spec": spec,
            "submitter": submitter, "priority": priority,
        }, headers=headers)

    def jobs(self, state: Optional[str] = None,
             submitter: Optional[str] = None) -> List[Dict[str, object]]:
        path = "/api/jobs"
        params = [f"{k}={v}" for k, v in
                  (("state", state), ("submitter", submitter)) if v]
        if params:
            path += "?" + "&".join(params)
        return self._json("GET", path)["jobs"]

    def job(self, job_id: int) -> Dict[str, object]:
        return self._json("GET", f"/api/jobs/{job_id}")

    def events(self, job_id: int, after: int = 0) -> List[Dict[str, object]]:
        return self._json(
            "GET", f"/api/jobs/{job_id}/events?after={after}")["events"]

    def result(self, job_id: int) -> Dict[str, object]:
        return self._json("GET", f"/api/jobs/{job_id}/result")

    def cancel(self, job_id: int) -> Dict[str, object]:
        return self._json("POST", f"/api/jobs/{job_id}/cancel")

    def stream(self, job_id: int, after: int = 0,
               timeout: Optional[float] = None) -> Iterator[Dict[str, object]]:
        """Yield the job's events live until it reaches a terminal state
        or the server's ``timeout`` (seconds) runs out.

        The last yielded record is the server's synthetic
        ``{"event": "state"}`` line with the job's state at that point.
        The socket gives up ``self.timeout`` seconds after the server
        should have ended the stream (a sweep cell can legitimately take
        minutes, so without ``timeout`` a read waits up to an hour).
        """
        path = f"/api/jobs/{job_id}/events?after={after}&stream=1"
        if timeout is not None:
            path += f"&timeout={timeout}"
        resp = self._request("GET", path,
                             timeout=(timeout or 3600.0) + self.timeout)
        try:
            for raw in resp:
                line = raw.strip()
                if line:
                    yield json.loads(line)
        finally:
            resp.close()

    def wait(self, job_id: int, timeout: float = 3600.0) -> Dict[str, object]:
        """Block until the job is terminal; returns the final job row.

        Follows the job's event stream, which the server ends the moment
        the job does -- or after ``timeout`` seconds, which raises
        ``ServiceError(408)``.
        """
        last: Dict[str, object] = {}
        for last in self.stream(job_id, timeout=timeout):
            pass
        if last.get("state") not in TERMINAL_STATES:
            raise ServiceError(408, f"job {job_id} still {last.get('state')} "
                                    f"after {timeout:g}s")
        return self.job(job_id)
