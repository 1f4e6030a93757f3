"""Tests for the LRU cache, single-flight coalescing, and micro-batching."""

import asyncio

import pytest

from repro.service import LRUCache, MicroBatcher, ReasoningCache, SingleFlight


class TestLRUCache:
    def test_put_get(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_counts(self):
        cache = LRUCache(4)
        assert cache.get("nope") is None
        assert cache.misses == 1

    def test_none_is_a_value(self):
        cache = LRUCache(4)
        cache.put("k", None)
        assert cache.get("k", "default") is None
        assert cache.hits == 1

    def test_capacity_evicts_least_recent(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a
        cache.put("c", 3)       # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_bytes_follow_the_held_bodies(self):
        cache = LRUCache(2)
        cache.put(("t", 1, "a"), b"abc")
        cache.put(("t", 1, "b"), b"de")
        assert cache.stats()["bytes"] == 5
        cache.put(("t", 1, "a"), b"a")          # replaced in place
        assert cache.bytes == 3
        cache.put(("u", 1, "c"), b"wxyz")       # evicts ("t", 1, "b")
        assert cache.bytes == 5
        assert cache.evict_prefix("t") == 1
        assert cache.bytes == 4
        cache.clear()
        assert cache.bytes == 0


class TestSingleFlight:
    def test_concurrent_identical_coalesce_to_one(self):
        async def main():
            flight = SingleFlight()
            calls = 0

            async def supplier():
                nonlocal calls
                calls += 1
                await asyncio.sleep(0.02)
                return "result"

            results = await asyncio.gather(
                *(flight.run("k", supplier) for _ in range(25))
            )
            return calls, results, flight

        calls, results, flight = asyncio.run(main())
        assert calls == 1
        assert results == ["result"] * 25
        assert flight.leaders == 1
        assert flight.coalesced == 24

    def test_distinct_keys_do_not_coalesce(self):
        async def main():
            flight = SingleFlight()
            calls = []

            def supplier(key):
                async def run():
                    calls.append(key)
                    await asyncio.sleep(0.01)
                    return key

                return run

            results = await asyncio.gather(
                flight.run("a", supplier("a")), flight.run("b", supplier("b"))
            )
            return calls, results

        calls, results = asyncio.run(main())
        assert sorted(calls) == ["a", "b"]
        assert results == ["a", "b"]

    def test_exception_propagates_to_all_and_clears(self):
        async def main():
            flight = SingleFlight()

            async def boom():
                await asyncio.sleep(0.01)
                raise RuntimeError("boom")

            results = await asyncio.gather(
                *(flight.run("k", boom) for _ in range(4)), return_exceptions=True
            )
            assert flight.inflight() == 0

            async def fine():
                return 42

            # the key is reusable after a failure
            assert await flight.run("k", fine) == 42
            return results

        results = asyncio.run(main())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_sequential_calls_recompute(self):
        async def main():
            flight = SingleFlight()
            calls = 0

            async def supplier():
                nonlocal calls
                calls += 1
                return calls

            first = await flight.run("k", supplier)
            second = await flight.run("k", supplier)
            return first, second

        assert asyncio.run(main()) == (1, 2)


class TestReasoningCache:
    def test_read_through(self):
        async def main():
            cache = ReasoningCache(8)
            calls = 0

            async def compute():
                nonlocal calls
                calls += 1
                return "value"

            first = await cache.get_or_compute("k", compute)
            second = await cache.get_or_compute("k", compute)
            return calls, first, second, cache

        calls, first, second, cache = asyncio.run(main())
        assert calls == 1
        assert first == second == "value"
        assert cache.lru.hits == 1
        assert cache.computations == 1

    def test_concurrent_identical_single_computation(self):
        async def main():
            cache = ReasoningCache(8)
            calls = 0

            async def compute():
                nonlocal calls
                calls += 1
                await asyncio.sleep(0.02)
                return calls

            results = await asyncio.gather(
                *(cache.get_or_compute("k", compute) for _ in range(20))
            )
            return calls, results

        calls, results = asyncio.run(main())
        assert calls == 1
        assert set(results) == {1}


class TestMicroBatcher:
    def test_window_coalesces_into_one_batch(self):
        """The window is one loop turn: one ``gather`` is one batch."""

        async def main():
            batches = []

            async def batch_fn(keys):
                batches.append(sorted(keys))
                return {k: k * 10 for k in keys}

            batcher = MicroBatcher(batch_fn)
            results = await asyncio.gather(*(batcher.submit(k) for k in range(6)))
            return batches, results, batcher

        batches, results, batcher = asyncio.run(main())
        assert batches == [[0, 1, 2, 3, 4, 5]]
        assert results == [0, 10, 20, 30, 40, 50]
        assert batcher.batches == 1
        assert batcher.requests == 6

    def test_a_lone_key_waits_for_no_timer(self):
        async def main():
            turns = 0

            async def ticker():
                nonlocal turns
                while True:
                    turns += 1
                    await asyncio.sleep(0)

            async def batch_fn(keys):  # synchronous inside: no await
                return {k: k for k in keys}

            batcher = MicroBatcher(batch_fn)
            ticking = asyncio.ensure_future(ticker())
            result = await batcher.submit("k")
            ticking.cancel()
            return result, turns

        result, turns = asyncio.run(main())
        assert result == "k"
        assert turns <= 3  # a timer of any length would let the ticker spin

    def test_later_turns_form_later_batches(self):
        async def main():
            batches = []

            async def batch_fn(keys):
                batches.append(sorted(keys))
                return {k: k for k in keys}

            batcher = MicroBatcher(batch_fn)
            first = await asyncio.gather(batcher.submit(1), batcher.submit(2))
            second = await batcher.submit(3)
            return batches, first, second, batcher.stats()

        batches, first, second, stats = asyncio.run(main())
        assert batches == [[1, 2], [3]]
        assert (first, second) == ([1, 2], 3)
        assert stats == {"requests": 3, "batches": 2, "batched_keys": 3, "pending": 0}

    def test_duplicate_keys_share_one_slot(self):
        async def main():
            seen = []

            async def batch_fn(keys):
                seen.append(list(keys))
                return {k: "v" for k in keys}

            batcher = MicroBatcher(batch_fn)
            results = await asyncio.gather(*(batcher.submit("same") for _ in range(5)))
            return seen, results

        seen, results = asyncio.run(main())
        assert seen == [["same"]]
        assert results == ["v"] * 5

    def test_batch_error_propagates_to_every_waiter(self):
        async def main():
            async def batch_fn(keys):
                raise RuntimeError("backend down")

            batcher = MicroBatcher(batch_fn)
            return await asyncio.gather(
                *(batcher.submit(k) for k in range(3)), return_exceptions=True
            )

        results = asyncio.run(main())
        assert all(isinstance(r, RuntimeError) for r in results)


class TestSingleFlightLeaderCancellation:
    def test_cancelled_leader_does_not_starve_followers(self):
        """Regression: the supplier used to run inline in the leader
        coroutine, so cancelling the leader (deadline, disconnect)
        cancelled the shared future and every coalesced follower saw
        CancelledError.  The supplier now runs in a detached task."""

        async def main():
            flight = SingleFlight()
            calls = 0

            async def supplier():
                nonlocal calls
                calls += 1
                await asyncio.sleep(0.03)
                return "survived"

            leader = asyncio.ensure_future(flight.run("k", supplier))
            await asyncio.sleep(0.005)  # leader registered, supplier running
            followers = [
                asyncio.ensure_future(flight.run("k", supplier))
                for _ in range(3)
            ]
            await asyncio.sleep(0.005)
            leader.cancel()
            results = await asyncio.gather(*followers)
            with pytest.raises(asyncio.CancelledError):
                await leader
            return calls, results, flight

        calls, results, flight = asyncio.run(main())
        assert calls == 1
        assert results == ["survived"] * 3
        assert flight.inflight() == 0

    def test_cancelling_one_follower_spares_the_rest(self):
        async def main():
            flight = SingleFlight()

            async def supplier():
                await asyncio.sleep(0.03)
                return "ok"

            waiters = [
                asyncio.ensure_future(flight.run("k", supplier))
                for _ in range(4)
            ]
            await asyncio.sleep(0.005)
            waiters[1].cancel()
            survivors = await asyncio.gather(
                waiters[0], waiters[2], waiters[3]
            )
            return survivors

        assert asyncio.run(main()) == ["ok"] * 3

    def test_all_waiters_cancelled_still_settles_cleanly(self):
        async def main():
            flight = SingleFlight()
            finished = asyncio.Event()

            async def supplier():
                await asyncio.sleep(0.02)
                finished.set()
                return "done"

            waiter = asyncio.ensure_future(flight.run("k", supplier))
            await asyncio.sleep(0.005)
            waiter.cancel()
            # the detached computation still completes and the key clears
            await asyncio.wait_for(finished.wait(), 1.0)
            await asyncio.sleep(0)  # let the done-callback run
            return flight.inflight()

        assert asyncio.run(main()) == 0


class TestMicroBatcherContract:
    def test_missing_key_raises_instead_of_none(self):
        """Regression: a batch function that silently dropped a key used
        to resolve that waiter with ``None``, indistinguishable from a
        real null result.  It now fails loudly with KeyError."""

        async def main():
            async def batch_fn(keys):
                return {k: k for k in keys if k != "dropped"}

            batcher = MicroBatcher(batch_fn)
            return await asyncio.gather(
                batcher.submit("a"),
                batcher.submit("dropped"),
                batcher.submit("b"),
                return_exceptions=True,
            )

        a, dropped, b = asyncio.run(main())
        assert (a, b) == ("a", "b")
        assert isinstance(dropped, KeyError)
        assert "dropped" in str(dropped)

    def test_none_is_still_a_valid_batch_value(self):
        async def main():
            async def batch_fn(keys):
                return {k: None for k in keys}

            batcher = MicroBatcher(batch_fn)
            return await asyncio.gather(batcher.submit("x"), batcher.submit("y"))

        assert asyncio.run(main()) == [None, None]

    def test_flush_keeps_strong_reference_to_batch_task(self):
        """Regression: the flush path dropped the created task on the
        floor; the event loop only holds weak references, so a GC pass
        could collect the batch mid-flight and strand every waiter."""

        async def main():
            async def batch_fn(keys):
                await asyncio.sleep(0.02)
                return {k: k for k in keys}

            batcher = MicroBatcher(batch_fn)
            waiter = asyncio.ensure_future(batcher.submit("k"))
            await asyncio.sleep(0.005)  # flushed on the next loop turn
            assert len(batcher._tasks) == 1
            result = await waiter
            await asyncio.sleep(0)
            return result, len(batcher._tasks)

        result, remaining = asyncio.run(main())
        assert result == "k"
        assert remaining == 0
