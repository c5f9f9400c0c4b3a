"""Stdlib asyncio HTTP front-end for the coalescing engine.

JSON over HTTP/1.1, hand-parsed on ``asyncio.start_server`` - no web
framework, matching the repo's no-new-runtime-deps rule.  Connections
are one-shot (``Connection: close``): the protocol surface is a job
queue, not a general web server.

Routes
------
``POST /jobs``
    Body ``{"experiment": name, "params": {...}}`` - returns ``202``
    with the job snapshot (its ``id`` is the handle), or ``429`` with a
    ``Retry-After`` header when the job's items would overfill the
    engine (:class:`~repro.service.engine.EngineOverloaded`).
``GET /jobs`` / ``GET /jobs/<id>``
    Status snapshots.
``GET /jobs/<id>/result``
    The artifact once the job is terminal; ``409`` while it is still
    queued/running.
``GET /stats``, ``GET /experiments``, ``GET /healthz``
    Engine counters, the adapter registry, liveness.

:class:`ServiceServer` is the asyncio-native server;
:class:`ServiceThread` hosts one (plus its engine and loop) in a
daemon thread for synchronous callers - benchmarks, tests, notebooks.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, Dict, Optional, Tuple

from repro.service.adapters import SUPPORTED_EXPERIMENTS
from repro.service.engine import CoalescingEngine, EngineOverloaded

_MAX_BODY = 4 * 1024 * 1024  # a params dict, not an upload
_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error"}
#: Seconds a refused client waits before it submits again.
_RETRY_AFTER_S = 1


class ServiceServer:
    """One engine behind an asyncio HTTP listener."""

    def __init__(self, engine: Optional[CoalescingEngine] = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.engine = engine if engine is not None else CoalescingEngine()
        self.host = host
        self.port = port  # 0 = ephemeral; real port filled in by start()
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "ServiceServer":
        await self.engine.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.engine.close()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def __aenter__(self) -> "ServiceServer":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # -- request handling --------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _HttpError as exc:
                await self._respond(writer, exc.status, {"error": str(exc)})
                return
            headers: Dict[str, str] = {}
            try:
                status, payload = self._route(method, path, body)
            except _HttpError as exc:
                status, payload = exc.status, {"error": str(exc)}
                headers = exc.headers
            except Exception as exc:  # route bug: report, keep serving
                status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
            await self._respond(writer, status, payload, headers)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Tuple[str, str, Optional[Dict[str, Any]]]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line {request_line!r}")
        method, path, _version = parts
        length = 0
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                    if length < 0:
                        raise ValueError(f"negative length {length}")
                except ValueError as exc:
                    raise _HttpError(400, "bad Content-Length") from exc
        if length > _MAX_BODY:
            raise _HttpError(413, f"body over {_MAX_BODY} bytes")
        body: Optional[Dict[str, Any]] = None
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw)
            except ValueError as exc:
                raise _HttpError(400, f"body is not JSON: {exc}") from exc
            if not isinstance(body, dict):
                raise _HttpError(400, "body must be a JSON object")
        return method, path.split("?", 1)[0], body

    def _route(self, method: str, path: str,
               body: Optional[Dict[str, Any]]) -> Tuple[int, Any]:
        segments = [s for s in path.split("/") if s]
        if path == "/healthz":
            return 200, {"ok": True}
        if path == "/experiments":
            return 200, {"experiments": list(SUPPORTED_EXPERIMENTS)}
        if path == "/stats":
            return 200, self.engine.stats()
        if segments[:1] == ["jobs"]:
            if len(segments) == 1:
                if method == "POST":
                    return self._submit(body)
                if method == "GET":
                    return 200, {"jobs": [job.snapshot()
                                          for job in self.engine.store.list()]}
                raise _HttpError(405, f"{method} /jobs")
            if method != "GET":
                raise _HttpError(405, f"{method} {path}")
            job = self.engine.store.get(segments[1])
            if job is None:
                raise _HttpError(404, f"no job {segments[1]!r}")
            if len(segments) == 2:
                return 200, job.snapshot()
            if len(segments) == 3 and segments[2] == "result":
                if not job.terminal:
                    raise _HttpError(
                        409, f"job {job.id} is {job.state.value}; poll "
                        f"/jobs/{job.id} until done")
                return 200, {"id": job.id, "state": job.state.value,
                             "error": job.error, "result": job.result}
        raise _HttpError(404, f"no route {method} {path}")

    def _submit(self, body: Optional[Dict[str, Any]]) -> Tuple[int, Any]:
        if not body or "experiment" not in body:
            raise _HttpError(400, 'body must be {"experiment": name, '
                             '"params": {...}}')
        params = body.get("params") or {}
        if not isinstance(params, dict):
            raise _HttpError(400, "params must be a JSON object")
        try:
            job = self.engine.submit(str(body["experiment"]), params)
        except EngineOverloaded as exc:
            raise _HttpError(429, str(exc), headers={
                "Retry-After": str(_RETRY_AFTER_S)}) from exc
        except ValueError as exc:
            raise _HttpError(400, str(exc)) from exc
        return 202, job.snapshot()

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Any,
                       headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload).encode()
        reason = _REASONS.get(status, "Unknown")
        extra = "".join(f"{name}: {value}\r\n"
                        for name, value in (headers or {}).items())
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{extra}"
                "Connection: close\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()


class _HttpError(Exception):
    def __init__(self, status: int, message: str,
                 headers: Optional[Dict[str, str]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


class ServiceThread:
    """A full service (loop + engine + listener) in a daemon thread.

    Synchronous entry point for benchmarks and tests::

        with ServiceThread(cache=cache) as svc:
            client = ServiceClient(*svc.address)
            ...

    ``address`` is ``(host, port)`` with the real (possibly ephemeral)
    port.  Startup errors re-raise in the constructor, not the thread.
    """

    def __init__(self, engine: Optional[CoalescingEngine] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 **engine_kwargs: Any) -> None:
        if engine is None:
            engine = CoalescingEngine(**engine_kwargs)
        elif engine_kwargs:
            raise ValueError("pass either engine or engine kwargs, not both")
        self.server = ServiceServer(engine, host=host, port=port)
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            raise self._error

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.host, self.server.port

    @property
    def engine(self) -> CoalescingEngine:
        return self.server.engine

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self.server.close()

    def close(self) -> None:
        if self._loop is not None and self._stop is not None \
                and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)

    def __enter__(self) -> "ServiceThread":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
