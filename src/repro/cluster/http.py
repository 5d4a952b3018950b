"""Asyncio HTTP front end for the sharded cluster.

The service's one HTTP front end: ``serve`` runs it over a one-shard
cluster, ``cluster-serve`` over N shards.  One asyncio event loop
(running on a dedicated background thread, so the synchronous CLI and
tests can start/stop the server) serves the JSON job API plus streaming
job-status subscriptions, against a
:class:`~repro.cluster.shards.ClusterScheduler`:

Endpoints::

    POST /jobs              submit a JobSpec (X-Tenant header names the
                            admission tenant) -> job status
    GET  /jobs/<id>         job status
    GET  /jobs/<id>/events  server-sent-events stream of the job's
                            lifecycle; closes after the terminal event
    GET  /results/<id>      completed payload
    GET  /healthz           liveness + per-shard pool health
    GET  /metrics           per-shard queue depths, admission accept/
                            shed counters, tiered-store counters

Failure semantics: invalid specs are 400, unknown ids 404, unfinished
results 409, full shard queues and draining shards 503 — and admission
sheds are **429 with a Retry-After header**, the load-shedding contract
the hardened client maps to :class:`~repro.errors.OverloadedError`.

The event stream is the thread→asyncio seam: shard collector threads
publish terminal transitions to the :class:`~repro.cluster.events.EventBus`,
which hops onto this loop; subscribers here read per-job asyncio queues
primed with the bus's replay tail, so subscribing after the job
finished still yields the terminal event (no hung long-polls).
Blocking cluster calls (submission's store probe, result reads from
disk) run in the loop's default executor to keep the loop responsive
under hundreds of concurrent clients.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import math
import signal
import threading
import time

from repro.cluster.events import CLOSED, EventBus
from repro.cluster.shards import ClusterScheduler
from repro.errors import (
    ConfigError,
    DrainingError,
    JobNotFoundError,
    JobQueueFullError,
    OverloadedError,
    ServiceError,
    ShardError,
)
from repro.service.jobs import spec_from_dict
from repro.service.scheduler import DONE, TERMINAL_STATES
from repro.units import KB, MB

#: Hard cap on request bodies (inline logs included).
MAX_BODY_BYTES = 64 * MB
#: Request-line + header block cap for the stream reader.
MAX_HEADER_BYTES = 64 * KB

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8360

#: How often :func:`serve_until_signal` checks for a received signal.
SIGNAL_POLL_SECONDS = 0.05

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _Request:
    """One parsed HTTP/1.1 request."""

    __slots__ = ("method", "path", "headers", "body")

    def __init__(
        self, method: str, path: str, headers: dict[str, str], body: bytes
    ) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body

    @property
    def route(self) -> tuple[str, ...]:
        return tuple(
            part
            for part in self.path.split("?", 1)[0].split("/")
            if part
        )

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


class ClusterServer:
    """The asyncio front end; owns its loop on a background thread.

    Args:
        cluster: The started :class:`ClusterScheduler` to serve.
        host: Bind address.
        port: Bind port (0 picks a free one; see :attr:`address`).
        bus: Event bus for ``/jobs/<id>/events``; defaults to the
            cluster's own bus.
    """

    def __init__(
        self,
        cluster: ClusterScheduler,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        bus: EventBus | None = None,
    ) -> None:
        self.cluster = cluster
        self.bus = bus if bus is not None else cluster.bus
        self._host = host
        self._port = port
        self.address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Lifecycle (called from synchronous code)
    # ------------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Spin up the loop thread, bind, and return ``(host, port)``."""
        if self._loop is not None:
            raise ServiceError("cluster server is already started")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-cluster-http", daemon=True
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(self._open(), self._loop)
        future.result(timeout=30)
        assert self.address is not None
        return self.address

    def _run_loop(self) -> None:
        assert self._loop is not None
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    async def _open(self) -> None:
        if self.bus is not None:
            self.bus.attach(asyncio.get_running_loop())
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._port,
            limit=MAX_HEADER_BYTES,
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])

    def stop(self, grace: float = 5.0) -> None:
        """Stop accepting, cancel open streams, tear the loop down."""
        loop = self._loop
        if loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(self._close(), loop)
        try:
            future.result(timeout=grace)
        except concurrent.futures.TimeoutError:  # not TimeoutError on 3.10
            future.cancel()
        loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=grace)
        loop.close()
        self._loop = None
        self._thread = None
        self._server = None

    async def _close(self) -> None:
        if self._server is not None:
            self._server.close()
        # Cancel the connections before waiting on the server: since
        # Python 3.12, wait_closed() also waits for every open
        # connection, so an idle keep-alive client would hold it open.
        tasks = list(self._conn_tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()

    # ------------------------------------------------------------------
    # Connection handling (loop thread)
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                keep = await self._dispatch(request, writer)
                if not keep:
                    break
        except (ConnectionError, asyncio.LimitOverrunError):
            return  # client went away or flooded headers; drop it
        except asyncio.CancelledError:
            # _close is stopping the server.  Ending normally keeps the
            # stream protocol's done-callback, which calls
            # task.exception(), from logging the cancellation.
            return
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> _Request | None:
        try:
            blob = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None  # clean close between requests
        head, _, _ = blob.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            return None
        method, path = parts[0], parts[1]
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length") or 0)
        if length > MAX_BODY_BYTES:
            return None
        body = await reader.readexactly(length) if length > 0 else b""
        return _Request(method, path, headers, body)

    async def _dispatch(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> bool:
        route = request.route
        if request.method == "POST" and route == ("jobs",):
            await self._submit(request, writer)
        elif request.method == "GET":
            if len(route) == 3 and route[0] == "jobs" and route[2] == "events":
                await self._stream_events(route[1], writer)
                return False  # the stream owns (and ends) the connection
            await self._get(route, writer)
        else:
            await self._send_json(writer, 404, {"error": "no such endpoint"})
        return request.keep_alive

    async def _submit(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> None:
        tenant = request.headers.get("x-tenant", "default")
        loop = asyncio.get_running_loop()
        try:
            if not request.body:
                raise ConfigError("request body is required")
            try:
                payload = json.loads(request.body.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as exc:
                raise ConfigError(
                    f"request body is not valid JSON: {exc}"
                ) from exc
            spec = spec_from_dict(payload)

            # submit probes the store (disk) on the calling thread;
            # keep that off the loop.  Snapshot from the returned
            # record, not its id — a fast job can already have been
            # evicted from its shard's bounded terminal table.
            def _do_submit() -> dict:
                record = self.cluster.submit(spec, tenant)
                return self.cluster.record_status(record)

            status = await loop.run_in_executor(None, _do_submit)
        except ConfigError as exc:
            await self._send_json(writer, 400, {"error": str(exc)})
        except OverloadedError as exc:
            await self._send_json(
                writer,
                429,
                {
                    "error": str(exc),
                    "reason": exc.reason,
                    "retry_after": exc.retry_after,
                },
                extra_headers={
                    "Retry-After": str(
                        max(1, math.ceil(exc.retry_after))
                    )
                },
            )
        except (JobQueueFullError, DrainingError, ShardError) as exc:
            await self._send_json(writer, 503, {"error": str(exc)})
        except JobNotFoundError as exc:
            await self._send_json(writer, 404, {"error": str(exc)})
        except ServiceError as exc:
            await self._send_json(writer, 500, {"error": str(exc)})
        else:
            await self._send_json(writer, 200, status)

    async def _get(
        self, route: tuple[str, ...], writer: asyncio.StreamWriter
    ) -> None:
        cluster = self.cluster
        loop = asyncio.get_running_loop()
        try:
            if route == ("healthz",):
                metrics = cluster.metrics_dict()
                healthy = all(
                    shard["workers_alive"] == shard["workers_total"]
                    for shard in metrics["shards"].values()
                )
                await self._send_json(
                    writer,
                    200 if healthy else 503,
                    {
                        "status": "ok" if healthy else "degraded",
                        "shards": {
                            name: {
                                "workers_alive": shard["workers_alive"],
                                "workers_total": shard["workers_total"],
                                "ring_state": shard["ring_state"],
                            }
                            for name, shard in metrics["shards"].items()
                        },
                    },
                )
            elif route == ("metrics",):
                await self._send_json(writer, 200, cluster.metrics_dict())
            elif len(route) == 2 and route[0] == "jobs":
                await self._send_json(
                    writer, 200, cluster.status_dict(route[1])
                )
            elif len(route) == 2 and route[0] == "results":
                try:
                    status = cluster.status_dict(route[1])
                except JobNotFoundError:
                    # Possibly a completion evicted by retention:
                    # cluster.result falls back to the shared store and
                    # raises JobNotFoundError itself if that misses too.
                    status = None
                if status is not None and status["state"] != DONE:
                    error = status["error"]
                    await self._send_json(
                        writer,
                        409,
                        {
                            "error": f"job is {status['state']}"
                            + (f": {error}" if error else ""),
                            "state": status["state"],
                        },
                    )
                else:
                    payload = await loop.run_in_executor(
                        None, cluster.result, route[1]
                    )
                    await self._send_json(writer, 200, payload)
            else:
                await self._send_json(
                    writer, 404, {"error": "no such endpoint"}
                )
        except JobNotFoundError as exc:
            await self._send_json(writer, 404, {"error": str(exc)})
        except ServiceError as exc:
            await self._send_json(writer, 500, {"error": str(exc)})

    # ------------------------------------------------------------------
    # SSE streaming
    # ------------------------------------------------------------------

    async def _stream_events(
        self, job_id: str, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status = self.cluster.status_dict(job_id)
        except JobNotFoundError as exc:
            await self._send_json(writer, 404, {"error": str(exc)})
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        snapshot = {
            "job_id": job_id,
            "state": status["state"],
            "cached": status["cached"],
        }
        await self._send_event(writer, snapshot)
        if status["state"] in TERMINAL_STATES or self.bus is None:
            return
        queue = self.bus.subscribe(job_id)
        last_seq = 0
        try:
            while True:
                event = await queue.get()
                if event is CLOSED:
                    return
                # The replay tail and live delivery can overlap; the
                # bus-global sequence number makes dropping the overlap
                # trivial.
                if event["seq"] <= last_seq:
                    continue
                last_seq = event["seq"]
                await self._send_event(
                    writer,
                    {
                        "job_id": event["job_id"],
                        "state": event["state"],
                        "cached": event["cached"],
                    },
                )
                if event["state"] in TERMINAL_STATES:
                    return
        finally:
            self.bus.unsubscribe(job_id, queue)

    async def _send_event(
        self, writer: asyncio.StreamWriter, event: dict
    ) -> None:
        writer.write(b"data: " + json.dumps(event).encode("utf-8") + b"\n\n")
        await writer.drain()

    # ------------------------------------------------------------------
    # Plain JSON responses
    # ------------------------------------------------------------------

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: dict,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        data = json.dumps(body).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(data)}",
        ]
        for name, value in (extra_headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + data
        )
        await writer.drain()


def serve_until_signal(
    server: ClusterServer, grace: float = 30.0, on_ready=None
) -> int:
    """Serve until SIGTERM/SIGINT, then drain the cluster gracefully.

    On the first signal every shard stops admitting (new submissions
    get 503) while the front end keeps answering status/result queries
    and event streams, so accepted jobs finish — up to *grace* seconds —
    before the listener closes and the shard pools shut down.

    *on_ready* runs once the handlers are installed (the CLI prints its
    listening line there), so a client that signals as soon as the
    server looks ready can no longer kill it before the drain is armed.

    Returns the signal number received.  Must run on the main thread.
    """
    received = {"signum": 0}

    def _handle(signum, frame) -> None:
        received["signum"] = signum

    previous = {
        signum: signal.signal(signum, _handle)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        if on_ready is not None:
            on_ready()
        # Poll instead of blocking on a threading.Event: the handler
        # runs between the main thread's bytecodes, and an Event.set()
        # there deadlocks when it interrupts Event.wait() while that
        # holds the Event's lock.
        while not received["signum"]:
            time.sleep(SIGNAL_POLL_SECONDS)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.cluster.drain(timeout=grace)
        server.stop(grace=grace)
        server.cluster.shutdown(grace=grace)
    return received["signum"]


def make_cluster_server(
    cluster: ClusterScheduler,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
) -> ClusterServer:
    """Build and start a :class:`ClusterServer`; the server is live
    (and ``server.address`` resolved) when this returns."""
    server = ClusterServer(cluster, host=host, port=port)
    server.start()
    return server
