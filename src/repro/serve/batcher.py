"""Coalescing request queue that flushes on the next loop turn.

The first request into an empty queue schedules one flush with
``loop.call_soon``; every request that arrives before that callback
runs — on this or any other connection — rides the same flush.  The
flush hands each ``(query, scenario)`` group's *unique* quantized
probes to the compute callback (``serve/decide.py``), and requests
that coalesced onto an identical key are computed once and replied N
times with the same payload.  An idle server does no work, and a
lone request waits one loop turn.

The flush is deliberately synchronous (numpy math on the event loop
thread): a group's work is microseconds-to-milliseconds, and keeping
it on-loop makes drain trivially correct — ``stop()`` flushes
whatever is pending and no request is ever dropped.  Tests may call
:meth:`flush_now` directly; the scheduled callback then finds nothing
pending and does nothing.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Mapping

from ..obs.metrics import METRICS
from .protocol import request_key

__all__ = ["MicroBatcher"]


class _Pending:
    """One unique in-flight key and everyone waiting on it."""

    __slots__ = ("request", "waiters")

    def __init__(self, request: Mapping[str, Any]) -> None:
        self.request = request
        self.waiters: list[asyncio.Future] = []


class MicroBatcher:
    """Coalescing queue in front of the decide kernel.

    ``compute`` maps a list of parsed requests (unique keys, single
    ``(query, scenario)`` group) to a list of response payloads in
    order; it may raise per-group, which rejects every waiter of that
    group with the error.
    """

    def __init__(self, compute: Callable[[list], list]) -> None:
        self.compute = compute
        self._pending: dict[tuple, _Pending] = {}

    async def stop(self) -> None:
        """Drain: flush everything pending."""
        self._flush_pending()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request: Mapping[str, Any]) -> asyncio.Future:
        """Queue one parsed request; the future resolves at flush."""
        METRICS.counter("serve.requests").inc()
        loop = asyncio.get_running_loop()
        if not self._pending:
            loop.call_soon(self._flush_pending)
        key = request_key(request)
        pending = self._pending.get(key)
        if pending is None:
            pending = self._pending[key] = _Pending(request)
        else:
            METRICS.counter("serve.coalesced").inc()
        future = loop.create_future()
        pending.waiters.append(future)
        return future

    @property
    def depth(self) -> int:
        """Unique keys currently waiting for the next flush."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # Flush
    # ------------------------------------------------------------------
    def _flush_pending(self) -> None:
        if self._pending:
            self.flush_now()

    def flush_now(self) -> int:
        """Flush the current pending map; returns keys answered.

        Runs from the callback the first submit scheduled, from
        ``stop()`` to drain, and directly from tests.
        """
        if not self._pending:
            METRICS.counter("serve.empty_ticks").inc()
            return 0
        taken = self._pending
        self._pending = {}
        METRICS.counter("serve.batches").inc()

        groups: dict[tuple, list[_Pending]] = {}
        for pending in taken.values():
            group = (
                pending.request["query"],
                pending.request["scenario"],
            )
            groups.setdefault(group, []).append(pending)
        for members in groups.values():
            self._flush_group(members)
        return len(taken)

    def _flush_group(self, members: "list[_Pending]") -> None:
        METRICS.histogram("serve.batch_size").observe(len(members))
        try:
            responses = self.compute(
                [pending.request for pending in members]
            )
        except Exception as exc:  # reject this group's waiters
            for pending in members:
                for waiter in pending.waiters:
                    if not waiter.done():
                        waiter.set_exception(exc)
            return
        for pending, response in zip(members, responses):
            for waiter in pending.waiters:
                if not waiter.done():
                    waiter.set_result(response)
