"""Edge cases for the coalescing request queue.

The contractual behaviours: an empty flush is counted and harmless; a
lone request resolves on the next event-loop turn with no manual
flush; an idle queue never flushes; coalesced duplicates are computed
once and replied N times; groups split by ``(query, scenario)``.
"""

import asyncio

import pytest

from repro.obs.metrics import METRICS
from repro.serve import MicroBatcher, ServeApp
from repro.serve.protocol import parse_decide_request


def _request(value: float, query: str = "Q6") -> dict:
    return parse_decide_request(
        {"query": query, "cost_vector": [value, 1.0]}
    )


class _Recorder:
    """A compute stub recording every batch it was handed."""

    def __init__(self, fail: bool = False) -> None:
        self.batches: list[list] = []
        self.fail = fail

    def __call__(self, requests: list) -> list:
        self.batches.append(list(requests))
        if self.fail:
            raise RuntimeError("kernel exploded")
        return [
            {"echo": tuple(request["cost"])} for request in requests
        ]


def test_empty_flush_tick_counts_and_answers_nothing():
    compute = _Recorder()
    batcher = MicroBatcher(compute)
    before = METRICS.counter("serve.empty_ticks").value
    assert batcher.flush_now() == 0
    assert batcher.flush_now() == 0
    assert METRICS.counter("serve.empty_ticks").value == before + 2
    assert compute.batches == []


def test_single_in_flight_request_resolves_on_flush():
    async def scenario():
        compute = _Recorder()
        batcher = MicroBatcher(compute)
        future = batcher.submit(_request(2.0))
        assert batcher.depth == 1
        assert not future.done()
        assert batcher.flush_now() == 1
        assert batcher.depth == 0
        assert await future == {"echo": _request(2.0)["cost"]}
        assert [len(batch) for batch in compute.batches] == [1]
        state = METRICS.histogram("serve.batch_size").state()
        assert state["count"] == 1 and state["max"] == 1.0

    asyncio.run(scenario())


def test_coalesced_duplicates_computed_once_replied_n_times():
    async def scenario():
        compute = _Recorder()
        batcher = MicroBatcher(compute)
        futures = [batcher.submit(_request(3.0)) for _ in range(5)]
        lone = batcher.submit(_request(4.0))
        assert batcher.depth == 2  # five duplicates share one key
        assert METRICS.counter("serve.coalesced").value == 4
        batcher.flush_now()
        answers = [await future for future in futures]
        assert answers == [answers[0]] * 5
        assert await lone == {"echo": _request(4.0)["cost"]}
        # One compute call, two unique probes.
        assert [len(batch) for batch in compute.batches] == [2]
        assert METRICS.counter("serve.requests").value == 6

    asyncio.run(scenario())


def test_lone_request_resolves_on_the_next_loop_turn():
    async def scenario():
        compute = _Recorder()
        batcher = MicroBatcher(compute)
        future = batcher.submit(_request(2.0))
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        assert future.done()
        assert future.result() == {"echo": _request(2.0)["cost"]}
        assert batcher.depth == 0
        assert METRICS.counter("serve.empty_ticks").value == 0

    asyncio.run(scenario())


def test_requests_queued_in_one_turn_share_one_flush():
    async def scenario():
        compute = _Recorder()
        batcher = MicroBatcher(compute)
        futures = [
            batcher.submit(_request(1.0 + index))
            for index in range(5)
        ]
        answers = await asyncio.gather(*futures)
        assert answers == [
            {"echo": _request(1.0 + index)["cost"]}
            for index in range(5)
        ]
        assert [len(batch) for batch in compute.batches] == [5]
        assert METRICS.counter("serve.batches").value == 1

    asyncio.run(scenario())


def test_idle_server_does_not_flush(warm_store):
    async def scenario():
        app = ServeApp(warm_store, reload_interval=0.0)
        await app.start("127.0.0.1", 0)
        before = METRICS.counter("serve.empty_ticks").value
        await asyncio.sleep(0.02)
        assert METRICS.counter("serve.empty_ticks").value == before
        await app.drain()
        assert METRICS.counter("serve.empty_ticks").value == before

    asyncio.run(scenario())


def test_groups_split_by_query_within_one_tick():
    async def scenario():
        compute = _Recorder()
        batcher = MicroBatcher(compute)
        first = batcher.submit(_request(1.0, query="Q6"))
        second = batcher.submit(_request(1.0, query="Q14"))
        batcher.flush_now()
        await asyncio.gather(first, second)
        assert sorted(len(batch) for batch in compute.batches) == [1, 1]
        queries = sorted(
            batch[0]["query"] for batch in compute.batches
        )
        assert queries == ["Q14", "Q6"]

    asyncio.run(scenario())


def test_compute_failure_rejects_every_waiter_in_the_chunk():
    async def scenario():
        compute = _Recorder(fail=True)
        batcher = MicroBatcher(compute)
        futures = [batcher.submit(_request(5.0)) for _ in range(3)]
        batcher.flush_now()
        for future in futures:
            with pytest.raises(RuntimeError, match="kernel exploded"):
                await future

    asyncio.run(scenario())


def test_stop_drains_pending_requests():
    async def scenario():
        compute = _Recorder()
        batcher = MicroBatcher(compute)
        future = batcher.submit(_request(6.0))
        await batcher.stop()
        assert future.done()
        assert await future == {"echo": _request(6.0)["cost"]}

    asyncio.run(scenario())


def test_constructor_validation():
    # The compute callback is the only setting: there is no flush
    # clock and no per-flush row cap to configure.
    with pytest.raises(TypeError):
        MicroBatcher(lambda batch: [], window=0.0)
