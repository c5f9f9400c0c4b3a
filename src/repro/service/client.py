"""Blocking JSON client for the simulation service (stdlib ``http.client``).

Synchronous by design: callers are scripts, benchmarks and notebooks
that submit a job and poll.  One connection per request matches the
server's ``Connection: close`` protocol.  A full engine refuses a new
job with ``429`` and ``Retry-After``; ``submit`` waits that long and
tries again, up to :data:`SUBMIT_RETRIES` times.
"""

from __future__ import annotations

import http.client
import json
import math
import time
from typing import Any, Dict, List, Optional

#: Times :meth:`ServiceClient.submit` resubmits a job refused with 429.
SUBMIT_RETRIES = 3


class ServiceError(RuntimeError):
    """A non-2xx response (``status``) or a malformed reply.

    ``retry_after`` is the response's ``Retry-After`` in seconds, or
    ``None`` when the header is absent or not a number of seconds.
    """

    def __init__(self, message: str, status: int = 0,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


def _retry_after(value: Optional[str]) -> Optional[float]:
    """Seconds from a ``Retry-After`` header value; ``None`` if malformed.

    Only the delta-seconds form is read; an HTTP date counts as malformed.
    """
    try:
        seconds = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None
    return seconds if math.isfinite(seconds) and seconds >= 0 else None


class ServiceClient:
    """Talk to one service endpoint.

    ``submit`` returns the job snapshot; ``wait`` polls until terminal
    and returns the artifact (raising :class:`ServiceError` if the job
    failed), so the common flow is two lines::

        client = ServiceClient(host, port)
        artifact = client.wait(client.submit("margins")["id"])
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8752,
                 timeout: float = 600.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- raw request -------------------------------------------------------

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None) -> Any:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            payload = json.dumps(body) if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        except OSError as exc:
            raise ServiceError(
                f"{method} {path} on {self.host}:{self.port} failed: "
                f"{exc}") from exc
        finally:
            connection.close()
        try:
            decoded = json.loads(raw) if raw else None
        except ValueError as exc:
            raise ServiceError(f"{method} {path}: non-JSON reply "
                               f"{raw[:200]!r}", response.status) from exc
        if response.status >= 400:
            detail = decoded.get("error") if isinstance(decoded, dict) \
                else decoded
            raise ServiceError(
                f"{method} {path}: {response.status} {detail}",
                response.status,
                _retry_after(response.getheader("Retry-After")))
        return decoded

    # -- API ---------------------------------------------------------------

    def health(self) -> bool:
        return bool(self.request("GET", "/healthz").get("ok"))

    def experiments(self) -> List[str]:
        return list(self.request("GET", "/experiments")["experiments"])

    def stats(self) -> Dict[str, Any]:
        return dict(self.request("GET", "/stats"))

    def submit(self, experiment: str,
               params: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Submit a job; returns its snapshot.

        A ``429`` with a usable ``Retry-After`` is retried after that
        many seconds, at most :data:`SUBMIT_RETRIES` times; then (or
        without the header) the last :class:`ServiceError` is raised.
        """
        body = {"experiment": experiment, "params": params or {}}
        for _ in range(SUBMIT_RETRIES):
            try:
                return dict(self.request("POST", "/jobs", body))
            except ServiceError as exc:
                if exc.status != 429 or exc.retry_after is None:
                    raise
                time.sleep(exc.retry_after)
        return dict(self.request("POST", "/jobs", body))

    def jobs(self) -> List[Dict[str, Any]]:
        return list(self.request("GET", "/jobs")["jobs"])

    def status(self, job_id: str) -> Dict[str, Any]:
        return dict(self.request("GET", f"/jobs/{job_id}"))

    def result(self, job_id: str) -> Any:
        """The raw result envelope (job must be terminal)."""
        return self.request("GET", f"/jobs/{job_id}/result")

    def wait(self, job_id: str, timeout: float = 600.0,
             poll_s: float = 0.05) -> Any:
        """Poll until terminal; return the artifact or raise on failure."""
        deadline = time.monotonic() + timeout
        delay = poll_s
        while True:
            status = self.status(job_id)
            if status["state"] in ("done", "failed"):
                break
            if time.monotonic() > deadline:
                raise ServiceError(f"job {job_id} still "
                                   f"{status['state']} after {timeout}s")
            time.sleep(delay)
            delay = min(delay * 1.5, 1.0)  # back off while it runs
        envelope = self.result(job_id)
        if envelope["state"] != "done":
            raise ServiceError(f"job {job_id} failed: {envelope['error']}")
        return envelope["result"]
