"""SingleFlight semantics and the cached_call/cached_map rewiring."""

from __future__ import annotations

import errno
import threading
import time

import pytest

from repro.experiments.parallel import (
    SINGLE_FLIGHT,
    ResultCache,
    SingleFlight,
    _flight_key,
    cached_call,
    cached_map,
)


def run_once(flight, key, fn):
    """``fn()`` through ``flight``: lead and finish, or wait."""
    leader, handle = flight.begin(key)
    if not leader:
        return flight.wait(handle)
    value = fn()
    flight.finish(key, handle, value=value)
    return value


class TestSingleFlightCore:
    def test_finish_returns_value_and_unregisters(self):
        flight = SingleFlight()
        assert run_once(flight, "k", lambda: 41) == 41
        assert flight.in_flight() == 0
        # keys unregister on completion: later calls compute fresh
        assert run_once(flight, "k", lambda: 42) == 42
        assert flight.leads == 2
        assert flight.waits == 0

    def test_concurrent_same_key_computes_once(self):
        flight = SingleFlight()
        gate = threading.Event()
        calls = []
        results = []

        def compute():
            calls.append(1)
            gate.wait(5)
            return "value"

        def leader():
            results.append(run_once(flight, "k", compute))

        def waiter():
            while flight.in_flight() == 0:  # until the leader claims
                pass
            results.append(run_once(flight, "k", lambda: "never"))

        threads = [threading.Thread(target=leader),
                   threading.Thread(target=waiter)]
        threads[0].start()
        threads[1].start()
        while flight.waits == 0 and threads[0].is_alive():
            pass
        gate.set()
        for thread in threads:
            thread.join(10)
        assert results == ["value", "value"]
        assert calls == [1]
        assert flight.leads == 1
        assert flight.waits == 1

    def test_leader_exception_propagates_to_waiters(self):
        flight = SingleFlight()
        leader, handle = flight.begin("k")
        assert leader
        errors = []

        def waiter():
            is_leader, shared = flight.begin("k")
            assert not is_leader
            try:
                flight.wait(shared)
            except RuntimeError as exc:
                errors.append(str(exc))

        thread = threading.Thread(target=waiter)
        thread.start()
        while flight.waits == 0:
            pass
        flight.finish("k", handle, exception=RuntimeError("boom"))
        thread.join(10)
        assert errors == ["boom"]
        with pytest.raises(RuntimeError, match="boom"):
            flight.wait(handle)

    def test_begin_after_finish_leads_again(self):
        flight = SingleFlight()
        leader, handle = flight.begin("k")
        flight.finish("k", handle, value=1)
        leader_again, handle2 = flight.begin("k")
        assert leader_again
        assert handle2 is not handle
        flight.finish("k", handle2, value=2)


class TestCachedCallCollapse:
    def test_concurrent_identical_calls_compute_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        gate = threading.Event()
        started = threading.Event()
        calls = []
        results = []

        def fn():
            calls.append(1)
            started.set()
            gate.wait(5)
            return 7

        def racer():
            results.append(cached_call("ns", {"k": 1}, fn, cache=cache))

        threads = [threading.Thread(target=racer) for _ in range(4)]
        threads[0].start()
        started.wait(5)
        for thread in threads[1:]:
            thread.start()
        while SINGLE_FLIGHT.in_flight() == 0 and any(
                t.is_alive() for t in threads):
            pass
        gate.set()
        for thread in threads:
            thread.join(10)
        assert results == [7, 7, 7, 7]
        assert calls == [1]  # one computation, shared by every racer
        assert cache.get("ns", {"k": 1}) == 7


class TestCachedMapCollapse:
    def test_overlapping_sweeps_never_duplicate_a_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        gate = threading.Event()
        lock = threading.Lock()
        calls = []

        def fn(x):
            with lock:
                calls.append(x)
            gate.wait(5)
            return x * 10

        outputs = {}

        def sweep(name, points):
            outputs[name] = cached_map("ns", fn, points,
                                       workers=1, cache=cache)

        waits_before = SINGLE_FLIGHT.waits  # the counter is process-global
        a = threading.Thread(target=sweep, args=("a", [1, 2, 3]))
        b = threading.Thread(target=sweep, args=("b", [2, 3, 4]))
        a.start()
        while not calls:  # sweep a is computing its first point
            pass
        b.start()
        # release the gate only once b is a registered waiter on a's keys
        while SINGLE_FLIGHT.waits == waits_before and b.is_alive():
            pass
        gate.set()
        a.join(10)
        b.join(10)
        assert outputs["a"] == [10, 20, 30]
        assert outputs["b"] == [20, 30, 40]
        # overlap keys 2 and 3 computed exactly once across both sweeps
        assert sorted(calls) == [1, 2, 3, 4]

    def test_failed_dispatch_releases_waiters(self, tmp_path):
        cache = ResultCache(tmp_path)
        gate = threading.Event()
        failures = []

        def fn(x):
            gate.wait(5)
            raise ValueError(f"bad {x}")

        def sweep():
            try:
                cached_map("ns", fn, [5], workers=1, cache=cache)
            except ValueError as exc:
                failures.append(str(exc))

        waits_before = SINGLE_FLIGHT.waits  # the counter is process-global
        a = threading.Thread(target=sweep)
        b = threading.Thread(target=sweep)
        a.start()
        while SINGLE_FLIGHT.in_flight() == 0 and a.is_alive():
            pass
        b.start()
        while SINGLE_FLIGHT.waits == waits_before and b.is_alive():
            pass
        gate.set()
        a.join(10)
        b.join(10)
        # the leader's exception reached both sweeps; nobody hung
        assert failures == ["bad 5", "bad 5"]

    def test_entry_published_after_the_miss_is_not_recomputed(self,
                                                              tmp_path):
        """Another writer (a thread that just finished its flight, or a
        process sharing the root) publishes each key between this call's
        cache miss and its flight claim: the leader must find the entry
        instead of computing the key again."""

        class PublishedAfterMissCache(ResultCache):
            def get(self, namespace, key):
                found = super().get(namespace, key)
                if found is None and key not in published:
                    published.append(key)
                    self.put(namespace, key, key * 10)
                return found

        published = []
        calls = []

        def fn(x):
            calls.append(x)
            return x * 10

        cache = PublishedAfterMissCache(tmp_path)
        assert cached_map("ns", fn, [1, 2], workers=1, cache=cache) == [10, 20]
        assert calls == []
        assert SINGLE_FLIGHT.in_flight() == 0

    def test_in_call_duplicates_share_one_slot(self, tmp_path):
        cache = ResultCache(tmp_path)
        calls = []

        def fn(x):
            calls.append(x)
            return x + 1

        result = cached_map("ns", fn, [9, 9, 9], workers=1, cache=cache)
        assert result == [10, 10, 10]
        assert calls == [9]


class TestMissCounting:
    """A lookup that missed counts one miss, however often it re-looks
    inside its flight."""

    def test_computed_cached_call_counts_one_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cached_call("ns", "k", lambda: 7, cache=cache) == 7
        assert (cache.hits, cache.misses) == (0, 1)

    def test_cached_map_counts_one_miss_per_point(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cached_map("ns", lambda x: x + 1, [1, 2], workers=1,
                          cache=cache) == [2, 3]
        assert (cache.hits, cache.misses) == (0, 2)

    def test_cached_map_counts_one_lookup_per_distinct_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cached_map("ns", lambda x: x + 1, [9, 9, 9], workers=1,
                          cache=cache) == [10, 10, 10]
        assert (cache.hits, cache.misses) == (0, 1)
        assert cached_map("ns", lambda x: -1, [9, 9, 9], workers=1,
                          cache=cache) == [10, 10, 10]
        assert (cache.hits, cache.misses) == (1, 1)

    def test_warm_lookups_count_hits_only(self, tmp_path):
        cache = ResultCache(tmp_path)
        cached_map("ns", lambda x: x + 1, [1, 2], workers=1, cache=cache)
        assert cached_call("ns", 1, lambda: -1, cache=cache) == 2
        assert cached_map("ns", lambda x: -1, [1, 2], workers=1,
                          cache=cache) == [2, 3]
        assert (cache.hits, cache.misses) == (3, 2)


class FullDiskCache(ResultCache):
    """A cache whose every publish fails as on a full disk."""

    def put(self, namespace, key, value):
        raise OSError(errno.ENOSPC, "No space left on device")


class FullOnceJoinedCache(ResultCache):
    """A full-disk cache whose publish fails only once a second caller
    has joined the flight, so the failure lands while someone waits."""

    def __init__(self, root, waits_before):
        super().__init__(root)
        self.waits_before = waits_before

    def put(self, namespace, key, value):
        deadline = time.monotonic() + 10.0
        while (SINGLE_FLIGHT.waits == self.waits_before
               and time.monotonic() < deadline):
            time.sleep(0.001)
        raise OSError(errno.ENOSPC, "No space left on device")


class TestPublishFailure:
    def test_cached_call_waiter_gets_value_leader_gets_error(self,
                                                             tmp_path):
        cache = FullOnceJoinedCache(tmp_path, SINGLE_FLIGHT.waits)
        started = threading.Event()
        calls = []
        outcomes = {}

        def fn():
            calls.append(1)
            started.set()
            return 7

        def call(role):
            try:
                outcomes[role] = cached_call("ns", {"k": "full"}, fn,
                                             cache=cache)
            except OSError as exc:
                outcomes[role] = exc

        leader = threading.Thread(target=call, args=("leader",))
        leader.start()
        assert started.wait(10)
        waiter = threading.Thread(target=call, args=("waiter",))
        waiter.start()
        leader.join(20)
        waiter.join(20)
        assert not leader.is_alive() and not waiter.is_alive()
        assert outcomes["waiter"] == 7
        assert isinstance(outcomes["leader"], OSError)
        assert outcomes["leader"].errno == errno.ENOSPC
        assert calls == [1]
        assert SINGLE_FLIGHT.in_flight() == 0

    def test_failed_publish_finishes_every_led_flight(self, tmp_path):
        cache = FullDiskCache(tmp_path)
        calls = []

        def fn(x):
            calls.append(x)
            return x * 10

        with pytest.raises(OSError, match="No space left"):
            cached_map("ns", fn, [1, 2, 3], workers=1, cache=cache)
        assert calls == [1, 2, 3]
        assert SINGLE_FLIGHT.in_flight() == 0
        # A later request for one of the keys leads a fresh flight
        # instead of joining one that never resolves.
        key = _flight_key(cache, "ns", 3)
        leader, flight = SINGLE_FLIGHT.begin(key)
        SINGLE_FLIGHT.finish(key, flight)
        assert leader
