"""The benchmark's own HTTP load generator for ``POST /v1/decide``.

Two ways of sending, both from one process over at most ``nproc``
keep-alive connections:

* :func:`closed_loop` sends a fixed request list as fast as the
  connections allow (each connection waits for its reply before the
  next send); its wall time is the serve workload's ``pass_s``.
* :func:`open_loop` sends on a seeded Poisson schedule regardless of
  replies.  A request due while every connection is busy waits in the
  generator, and every latency is timed from the request's *due* time,
  so that wait is counted.  ``send_lag`` is how late each request left.

Non-200 answers, connection errors and timeouts count as failed and
as SLO misses (infinite latency).
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

#: Per-request reply timeout.
TIMEOUT_S = 2.0

#: The SLO of a rate step: p99 within this, no failure, no backlog.
SLO_P99_MS = 5.0

#: Lag growth (last third vs first third of a step) that counts as a
#: growing backlog.
BACKLOG_GROWTH_MS = 1.0

IO_ERRORS = (
    OSError, ConnectionError, asyncio.IncompleteReadError,
    asyncio.TimeoutError, ValueError, IndexError,
)


def request_id(wire: Any) -> "str | None":
    """The id a request's server-side spans are matched by."""
    try:
        return wire["query"] + "|" + ",".join(
            repr(float(v)) for v in wire["cost_vector"]
        )
    except (KeyError, TypeError, ValueError):
        return None  # a malformed body; the server answers 400


class Client:
    """One keep-alive HTTP/1.1 connection, one request at a time."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: "asyncio.StreamReader | None" = None
        self.writer: "asyncio.StreamWriter | None" = None

    async def request(
        self, method: str, path: str, payload: Any = None
    ) -> tuple[int, Any]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port
            )
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        close = False
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection":
                close = value.strip().lower() == "close"
        data = await self.reader.readexactly(length) if length else b""
        if close:
            self.close()
        return status, json.loads(data.decode() or "null")

    async def timed_post(self, wire: dict) -> tuple["int | None", Any]:
        """POST one decide request; ``(None, error)`` on I/O failure."""
        try:
            return await asyncio.wait_for(
                self.request("POST", "/v1/decide", wire), TIMEOUT_S
            )
        except IO_ERRORS as exc:
            self.close()  # the stream may hold half a reply
            return None, f"{type(exc).__name__}: {exc}"

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None


@dataclass
class Step:
    """Everything one batch of requests measured."""

    #: Seconds from due (open loop) or send (closed loop) to reply.
    latency: np.ndarray
    #: Seconds from send to reply (what the server and network took).
    service: np.ndarray
    #: Seconds the send left after its due time (open loop only).
    lag: np.ndarray
    responses: list
    failed: int
    wall: float
    errors: list = field(default_factory=list)
    #: Server-side ``/metrics`` deltas over the step (open loop only).
    batches: float = 0.0
    empty_ticks: float = 0.0

    @property
    def sent(self) -> int:
        return len(self.responses)

    @property
    def succeeded(self) -> int:
        return self.sent - self.failed

    def p_ms(self, q: float) -> float:
        return float(np.percentile(self.latency, q)) * 1e3

    @property
    def lag_growth_ms(self) -> float:
        third = max(1, len(self.lag) // 3)
        return float(
            np.median(self.lag[-third:]) - np.median(self.lag[:third])
        ) * 1e3

    @property
    def meets_slo(self) -> bool:
        return (
            self.failed == 0
            and self.p_ms(99) <= SLO_P99_MS
            and self.lag_growth_ms <= BACKLOG_GROWTH_MS
        )


async def _run(
    host: str,
    port: int,
    wires: list,
    connections: int,
    due: "np.ndarray | None",
) -> Step:
    n = len(wires)
    latency = np.full(n, np.inf)
    service = np.full(n, np.inf)
    lag = np.zeros(n)
    responses: list = [None] * n
    errors: list = []
    queue: asyncio.Queue = asyncio.Queue()
    clients = [Client(host, port) for _ in range(connections)]
    # Open-loop arrivals are scheduled from a moment just ahead, so the
    # first one is not already late when the tasks start.
    start = time.perf_counter() + (0.01 if due is not None else 0.0)

    async def schedule() -> None:
        for index in range(n):
            if due is not None:
                delay = start + due[index] - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
            queue.put_nowait(index)
        for _ in clients:
            queue.put_nowait(None)

    async def worker(client: Client) -> None:
        while True:
            index = await queue.get()
            if index is None:
                return
            sent = time.perf_counter()
            status, body = await client.timed_post(wires[index])
            done = time.perf_counter()
            responses[index] = body
            if status != 200:
                errors.append(f"status {status}: {body}")
                continue
            service[index] = done - sent
            if due is None:
                latency[index] = done - sent
            else:
                lag[index] = sent - (start + due[index])
                latency[index] = done - (start + due[index])

    try:
        await asyncio.gather(schedule(), *(worker(c) for c in clients))
    finally:
        for client in clients:
            client.close()
    wall = time.perf_counter() - start
    return Step(
        latency=latency, service=service, lag=lag,
        responses=responses, failed=len(errors), wall=wall,
        errors=errors,
    )


def closed_loop(host: str, port: int, wires: list, connections: int) -> Step:
    """Send ``wires`` as fast as ``connections`` allow."""
    return asyncio.run(_run(host, port, wires, connections, None))


def open_loop(
    host: str,
    port: int,
    wires: list,
    rate: float,
    rng: np.random.Generator,
    connections: int,
) -> Step:
    """Send ``wires`` at Poisson arrivals of mean ``rate`` per second."""
    gaps = rng.exponential(1.0 / rate, len(wires))
    due = np.cumsum(gaps) - gaps[0]
    return asyncio.run(_run(host, port, wires, connections, due))


def get_json(host: str, port: int, path: str) -> Any:
    """One GET on a fresh connection (``/healthz``, ``/metrics``)."""

    async def fetch():
        client = Client(host, port)
        try:
            return await asyncio.wait_for(
                client.request("GET", path), TIMEOUT_S
            )
        finally:
            client.close()

    status, body = asyncio.run(fetch())
    if status != 200:
        raise ConnectionError(f"GET {path} answered {status}")
    return body
