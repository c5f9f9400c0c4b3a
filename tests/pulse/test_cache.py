"""Tests for the compiled pulse netlist checkout cache."""

from __future__ import annotations

import pytest

from repro.pulse import Engine, Probe
from repro.pulse.cache import DEFAULT_CACHE, MAX_ENTRIES, CompiledNetlistCache
from repro.rf.geometry import RFGeometry
from repro.rf.netlist import PulseHiPerRF, PulseNdroRF


@pytest.fixture
def cache():
    return CompiledNetlistCache()


def _probe_builder():
    engine = Engine()
    probe = engine.add(Probe("p"))
    return engine, probe


class TestBuildOnce:
    """A key is built once; every later checkout restores that build."""

    def test_miss_builds_and_compiles(self, cache):
        with cache.checkout("k", _probe_builder) as (engine, probe):
            assert engine.compiled is not None
            assert probe.engine is engine
        assert cache.stats() == {"entries": 1, "hits": 0, "misses": 1}

    def test_hit_returns_same_instance_reset(self, cache):
        with cache.checkout("k", _probe_builder) as (engine, probe):
            engine.schedule(probe, "in", 5.0)
            engine.run()
            assert probe.count == 1 and engine.now_ps == 5.0

        with cache.checkout("k", _probe_builder) as (engine2, probe2):
            assert engine2 is engine and probe2 is probe
            assert probe2.count == 0
            assert engine2.now_ps == 0.0
            assert engine2.total_delivered == 0
            assert engine2.pending_events == 0
        assert cache.hits == 1

    def test_hit_discards_pending_events(self, cache):
        with cache.checkout("k", _probe_builder) as (engine, probe):
            engine.schedule(probe, "in", 99.0)  # never run: still queued
        with cache.checkout("k", _probe_builder) as (engine2, _):
            assert engine2.pending_events == 0

    def test_distinct_keys_distinct_instances(self, cache):
        with cache.checkout("a", _probe_builder) as (engine_a, _):
            pass
        with cache.checkout("b", _probe_builder) as (engine_b, _):
            assert engine_a is not engine_b
        assert len(cache) == 2 and "a" in cache and "b" in cache

    def test_clear_forgets_everything(self, cache):
        with cache.checkout("k", _probe_builder):
            pass
        cache.clear()
        assert len(cache) == 0
        with cache.checkout("k", _probe_builder) as (engine, _):
            assert engine.compiled is not None
        assert cache.stats() == {"entries": 1, "hits": 0, "misses": 1}


class TestCachedFactories:
    def test_hiperrf_roundtrip_after_reuse(self, cache):
        geometry = RFGeometry(8, 8)
        with PulseHiPerRF.checkout_cached(geometry, 600.0, cache=cache) as rf:
            done = rf.write_word(2, 0xC3, 50.0)
            assert rf.read_word(2, done + 50.0) == 0xC3

        with PulseHiPerRF.checkout_cached(geometry, 600.0,
                                          cache=cache) as again:
            assert again is rf
            assert again.stored_word(2) == 0  # pristine state
            done = again.write_word(2, 0x3C, 50.0)
            assert again.read_word(2, done + 50.0) == 0x3C
        assert cache.stats()["misses"] == 1

    def test_key_separates_topology_and_semantics(self, cache):
        with PulseNdroRF.checkout_cached(RFGeometry(4, 4), 400.0,
                                         cache=cache) as small:
            pass
        with PulseNdroRF.checkout_cached(RFGeometry(8, 8), 400.0,
                                         cache=cache) as large:
            pass
        with PulseNdroRF.checkout_cached(RFGeometry(4, 4), 500.0,
                                         cache=cache) as slower:
            pass
        assert small is not large and small is not slower
        assert small.engine.strict_timing
        assert cache.stats() == {"entries": 3, "hits": 0, "misses": 3}

    def test_build_key_is_stable_and_distinct(self):
        key = PulseHiPerRF.build_key(RFGeometry(8, 8), 600.0)
        assert key == PulseHiPerRF.build_key(RFGeometry(8, 8), 600.0)
        assert key != PulseHiPerRF.build_key(RFGeometry(8, 8), 400.0)
        assert key != PulseNdroRF.build_key(RFGeometry(8, 8), 600.0)
        assert hash(key)  # usable as a dict key


class TestCheckout:
    """Concurrent jobs on one cached netlist (the service dispatch path)."""

    def test_checkout_yields_pristine_engine(self, cache):
        with cache.checkout("k", _probe_builder) as (engine, probe):
            engine.schedule(probe, "in", 5.0)
            engine.run()
            assert probe.count == 1
        with cache.checkout("k", _probe_builder) as (engine2, probe2):
            assert engine2 is engine
            assert probe2.count == 0 and engine2.now_ps == 0.0

    def test_interleaved_jobs_do_not_leak_state(self, cache):
        """Two threads hammer one cached register file; every checkout
        must see pristine state and read back exactly its own writes."""
        import threading

        geometry = RFGeometry(4, 4)
        barrier = threading.Barrier(2)
        errors = []

        def job(value):
            try:
                barrier.wait(5)
                for _ in range(10):
                    lease = PulseHiPerRF.checkout_cached(
                        geometry, 600.0, cache=cache)
                    with lease as rf:
                        assert rf.stored_word(1) == 0  # no leaked state
                        assert rf.stored_word(2) == 0
                        done = rf.write_word(1, value, 50.0)
                        assert rf.read_word(1, done + 50.0) == value
            except Exception as exc:  # noqa: BLE001 - surface in main thread
                errors.append(exc)

        threads = [threading.Thread(target=job, args=(v,))
                   for v in (0x5, 0xA)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert errors == []
        assert cache.stats()["misses"] == 1  # one build served every lease

    def test_distinct_keys_checkout_concurrently(self, cache):
        """A lease on one key must not block a different key."""
        with cache.checkout("a", _probe_builder) as (engine_a, _):
            with cache.checkout("b", _probe_builder) as (engine_b, _):
                assert engine_a is not engine_b

    def test_study_waits_for_a_held_lease(self):
        """An in-process study on a service job's key waits for the
        job's lease instead of running on the leased engine."""
        import threading

        from repro.experiments import skew

        results = []
        study = threading.Thread(
            target=lambda: results.append(skew.restore_ok(0.0)))
        with PulseHiPerRF.checkout_cached(RFGeometry(4, 8), 600.0) as rf:
            done = rf.write_word(1, 0x5A, 0.0)
            study.start()
            study.join(1.0)
            assert study.is_alive()
            assert rf.read_word(1, done + 50.0) == 0x5A
        study.join(60)
        assert results == [True]

    def test_clear_resets_locks_and_entries(self, cache):
        with cache.checkout("k", _probe_builder):
            pass
        cache.clear()
        assert len(cache) == 0
        with cache.checkout("k", _probe_builder) as (engine, _):
            assert engine.compiled is not None
        assert cache.stats()["misses"] == 1


class TestBound:
    """At most MAX_ENTRIES netlists; the least recently used leaves."""

    def test_least_recently_checked_out_leaves_first(self, cache):
        for key in range(MAX_ENTRIES):
            with cache.checkout(key, _probe_builder):
                pass
        with cache.checkout(0, _probe_builder):  # 1 is now the oldest
            pass
        with cache.checkout("new", _probe_builder):
            pass
        assert len(cache) == MAX_ENTRIES
        assert 0 in cache and "new" in cache and 1 not in cache
        with cache.checkout(1, _probe_builder):
            pass
        assert cache.stats()["misses"] == MAX_ENTRIES + 2

    def test_evicted_holder_keeps_its_engine(self, cache):
        with cache.checkout("k", _probe_builder) as (engine, probe):
            engine.schedule(probe, "in", 5.0)
            engine.run()
            for key in range(MAX_ENTRIES):
                with cache.checkout(key, _probe_builder):
                    pass
            assert "k" not in cache
            # The evicted entry's lock left with it: no wait, a rebuild.
            with cache.checkout("k", _probe_builder) as (engine2, _):
                assert engine2 is not engine
            assert probe.count == 1 and engine.now_ps == 5.0
        assert cache.stats()["misses"] == MAX_ENTRIES + 2

    def test_pulse_jobs_leave_at_most_max_entries(self):
        from repro.service.adapters import run_job_naive

        DEFAULT_CACHE.clear()
        try:
            for i in range(20):
                run_job_naive("pulse_rf", {"op_period_ps": 600 + i})
            assert len(DEFAULT_CACHE) == MAX_ENTRIES
            misses = DEFAULT_CACHE.misses
            with PulseHiPerRF.checkout_cached(RFGeometry(8, 8), 600.0):
                pass
            assert DEFAULT_CACHE.misses == misses + 1
        finally:
            DEFAULT_CACHE.clear()
