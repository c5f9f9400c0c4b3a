"""Coalescing engine: windows, dedup, caching, failure handling."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.experiments.parallel import SINGLE_FLIGHT, ResultCache, _flight_key
from repro.service.adapters import compute_item, decompose, jsonable, run_job_naive
from repro.service.engine import CoalescingEngine
from repro.service.jobs import JobStore
from tests.experiments.test_singleflight import FullDiskCache
from tests.service.test_adapters import CHEAP_MARGINS


def run(coro):
    return asyncio.run(coro)


class TestLifecycle:
    def test_submit_before_start_rejected(self):
        engine = CoalescingEngine(cache=None)
        with pytest.raises(RuntimeError, match="not started"):
            engine.submit("figure15", {})

    def test_bad_request_creates_no_job(self, tmp_path):
        async def main():
            async with CoalescingEngine(cache=ResultCache(tmp_path)) as eng:
                with pytest.raises(ValueError):
                    eng.submit("margins", {"scales": []})
                assert len(eng.store) == 0

        run(main())


class TestCoalescing:
    def test_identical_jobs_collapse_and_match_naive(self, tmp_path):
        async def main():
            cache = ResultCache(tmp_path)
            async with CoalescingEngine(cache=cache, window_ms=10) as eng:
                first = eng.submit("margins", CHEAP_MARGINS)
                second = eng.submit("margins", CHEAP_MARGINS)
                await eng.wait(first)
                await eng.wait(second)
                return first, second, eng.stats()

        first, second, stats = run(main())
        assert first.state.value == "done", first.error
        assert first.result == second.result
        # the duplicate job led nothing: all four items coalesced
        assert second.coalesced == 4 and second.computed == 0
        # grouped dispatch: 4 items crossed in 2 topology batches
        assert stats["dispatches"] == 2
        assert stats["largest_group"] == 2
        naive = run_job_naive("margins", CHEAP_MARGINS)
        assert json.dumps(first.result, sort_keys=True) == \
            json.dumps(naive, sort_keys=True)

    def test_second_round_serves_from_cache(self, tmp_path):
        async def main():
            cache = ResultCache(tmp_path)
            async with CoalescingEngine(cache=cache, window_ms=5) as eng:
                cold = await eng.run("margins", CHEAP_MARGINS)
                warm = await eng.run("margins", CHEAP_MARGINS)
                return cold, warm

        cold, warm = run(main())
        assert cold.computed == 4 and cold.cache_hits == 0
        assert warm.cache_hits == 4 and warm.computed == 0
        assert warm.result == cold.result

    def test_cache_persists_across_engines(self, tmp_path):
        async def once():
            async with CoalescingEngine(cache=ResultCache(tmp_path),
                                        window_ms=5) as eng:
                return await eng.run("margins", CHEAP_MARGINS)

        cold = run(once())
        warm = run(once())
        assert cold.computed == 4
        assert warm.cache_hits == 4  # a restart costs nothing
        assert warm.result == cold.result

    def test_zero_window_still_dedups(self, tmp_path):
        async def main():
            async with CoalescingEngine(cache=ResultCache(tmp_path),
                                        window_ms=0) as eng:
                first = eng.submit("figure15", {})
                second = eng.submit("figure15", {})
                await eng.wait(first)
                await eng.wait(second)
                return first, second

        first, second = run(main())
        assert first.state.value == "done", first.error
        assert second.coalesced + second.cache_hits == 1

    def test_stats_report_pulse_lane_occupancy(self):
        from repro.service.adapters import PULSE_LANE_METRICS

        PULSE_LANE_METRICS.reset()

        async def main():
            async with CoalescingEngine(cache=None, window_ms=10) as eng:
                first = eng.submit("pulse_rf", {"pattern": [[1, 3]]})
                second = eng.submit("pulse_rf", {"pattern": [[2, 5]]})
                await eng.wait(first)
                await eng.wait(second)
                return first, second, eng.stats()

        first, second, stats = run(main())
        assert first.state.value == "done", first.error
        assert second.state.value == "done", second.error
        lanes = stats["pulse_lanes"]
        # Two strangers' items share the build key: one coalesced
        # dispatch carrying both lanes.
        assert lanes["dispatches"] == 1
        assert lanes["lanes_total"] == 2
        assert lanes["batches_coalesced"] == 1
        assert lanes["lanes_max"] == 2
        assert lanes["lanes_p50"] == 2.0

    def test_stats_totals_survive_history_trim(self):
        """Item totals keep counting once the finished-job history
        trims, in step with ``dispatched_items``."""
        async def main():
            async with CoalescingEngine(cache=None, window_ms=0,
                                        store=JobStore(max_finished=3)
                                        ) as eng:
                for value in range(8):
                    job = await eng.run("pulse_rf",
                                        {"pattern": [[1, value]]})
                    assert job.state.value == "done", job.error
                return eng.stats()

        stats = run(main())
        assert stats["jobs"] == 3
        assert stats["jobs_done"] == 8 and stats["jobs_failed"] == 0
        assert stats["items"] == stats["dispatched_items"] == 8
        assert stats["item_computed"] == 8
        assert stats["item_cache_hits"] == stats["item_coalesced"] == 0

    def test_item_published_after_its_miss_is_served_not_recomputed(
            self, tmp_path):
        """An item another worker publishes between this dispatch's
        cache miss and its flight claim is a cache hit."""
        params = {"scales": [1.0], "write_counts": [1], "reads": 1}
        (item,) = decompose("margins", params).items
        value = jsonable(compute_item(item))

        class PublishedAfterMissCache(ResultCache):
            published = False

            def get(self, namespace, key):
                found = super().get(namespace, key)
                if found is None and not self.published:
                    self.published = True
                    self.put(namespace, key, value)
                return found

        async def main():
            async with CoalescingEngine(cache=PublishedAfterMissCache(tmp_path),
                                        window_ms=0) as eng:
                return await eng.run("margins", params)

        job = run(main())
        assert job.state.value == "done", job.error
        assert job.computed == 0 and job.cache_hits == 1
        assert json.dumps(job.result, sort_keys=True) == json.dumps(
            run_job_naive("margins", params), sort_keys=True)

    def test_engine_without_cache_still_coalesces(self):
        async def main():
            async with CoalescingEngine(cache=None, window_ms=10) as eng:
                first = eng.submit("figure15", {})
                second = eng.submit("figure15", {})
                await eng.wait(first)
                await eng.wait(second)
                return first, second

        first, second = run(main())
        assert first.state.value == "done", first.error
        assert second.coalesced == 1
        assert first.result == second.result


class TestFailure:
    def test_dispatch_error_fails_every_waiting_job(self, tmp_path):
        bad = dict(CHEAP_MARGINS, scales=[1.0], write_counts=[5])

        async def main():
            async with CoalescingEngine(cache=ResultCache(tmp_path),
                                        window_ms=10) as eng:
                first = eng.submit("margins", bad)
                second = eng.submit("margins", bad)
                await eng.wait(first)
                await eng.wait(second)
                return first, second

        first, second = run(main())
        # HC-DRO cells store at most 3 fluxons: writes=5 cannot verify
        # correctly but must fail loudly, on both the leader and the
        # coalesced duplicate, leaving the engine serviceable.
        for job in (first, second):
            assert job.state.value in ("done", "failed")
            assert job.terminal

    @pytest.mark.parametrize("with_cache", [False, True],
                             ids=["no-cache", "cache"])
    def test_failing_item_fails_only_its_own_job(self, tmp_path,
                                                  with_cache):
        """A stranger's diverging operating point shares the healthy
        job's dispatch group but fails only the stranger's job."""
        healthy = {"scales": [1.0], "write_counts": [1], "reads": 1}
        stranger = dict(healthy, j2_bias_ua=1e7)

        async def main():
            cache = ResultCache(tmp_path) if with_cache else None
            async with CoalescingEngine(cache=cache, window_ms=20) as eng:
                good = eng.submit("margins", healthy)
                bad = eng.submit("margins", stranger)
                await eng.wait(good)
                await eng.wait(bad)
                return good, bad, eng.stats()

        good, bad, stats = run(main())
        assert stats["largest_group"] == 2  # both items shared a group
        assert good.state.value == "done", good.error
        assert json.dumps(good.result, sort_keys=True) == json.dumps(
            run_job_naive("margins", healthy), sort_keys=True)
        assert bad.state.value == "failed"
        assert "j2_bias_ua=10000000.0" in (bad.error or "")
        assert stats["jobs_done"] == stats["jobs_failed"] == 1

    def test_failed_publish_serves_the_computed_value(self, tmp_path):
        """A cache that cannot store (disk full) leaves the service
        running uncached: the job completes with the naive artifact and
        leaves no singleflight flight behind."""
        params = {"scales": [0.95, 1.0], "write_counts": [1], "reads": 1}
        cache = FullDiskCache(tmp_path)

        async def main():
            async with CoalescingEngine(cache=cache, window_ms=10) as eng:
                job = await eng.run("margins", params)
                return job, eng.stats()

        job, stats = run(main())
        assert job.state.value == "done", job.error
        assert json.dumps(job.result, sort_keys=True) == json.dumps(
            run_job_naive("margins", params), sort_keys=True)
        assert job.computed == 2
        assert stats["cache"]["put_errors"] == 2
        assert SINGLE_FLIGHT.in_flight() == 0
        item = decompose("margins", params).items[-1]
        key = _flight_key(cache, item.namespace, item.key)
        leader, flight = SINGLE_FLIGHT.begin(key)
        SINGLE_FLIGHT.finish(key, flight)
        assert leader

    def test_failed_job_reports_error_string(self, tmp_path):
        async def main():
            async with CoalescingEngine(cache=ResultCache(tmp_path),
                                        window_ms=0) as eng:
                job = eng.submit("figure14", {
                    "scale": 0.3, "workloads": ["vvadd"],
                    "designs": ["ndro_rf", "hiperrf"],
                    "max_instructions": 10})  # cap too low: cannot finish
                await eng.wait(job)
                return job

        job = run(main())
        assert job.state.value == "failed"
        assert "instruction limit" in (job.error or "")
