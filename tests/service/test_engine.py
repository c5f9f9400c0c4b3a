"""Coalescing engine: busy-driven batching, dedup, caching, failure
handling."""

from __future__ import annotations

import asyncio
import errno
import json
import threading

import pytest

from repro.experiments.parallel import SINGLE_FLIGHT, ResultCache, _flight_key
from repro.josim import sweep
from repro.josim.sweep import run_configs
from repro.service import adapters
from repro.service import engine as engine_module
from repro.service.adapters import compute_item, decompose, jsonable, run_job_naive
from repro.service.engine import CoalescingEngine, EngineOverloaded
from repro.service.jobs import JobStore
from tests.service.test_adapters import CHEAP_MARGINS

#: What a failing publish raises: a full disk, a read-only root, and an
#: error that is no ``OSError`` at all.
PUBLISH_ERRORS = {
    "ENOSPC": lambda: OSError(errno.ENOSPC, "No space left on device"),
    "EACCES": lambda: PermissionError(errno.EACCES, "Permission denied"),
    "ValueError": lambda: ValueError("value cannot be stored"),
}


class FailingPutCache(ResultCache):
    """A cache whose first ``failures`` publishes (all, by default)
    raise ``error()``."""

    def __init__(self, root, error, failures=float("inf")):
        super().__init__(root)
        self.error = error
        self.failures = failures

    def put(self, namespace, key, value):
        if self.failures > 0:
            self.failures -= 1
            raise self.error()
        super().put(namespace, key, value)


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

    def test_computed_item_counts_one_cache_miss(self, tmp_path):
        params = {"scales": [1.0], "write_counts": [1], "reads": 1}

        async def main():
            async with CoalescingEngine(cache=ResultCache(tmp_path),
                                        window_ms=0) as eng:
                job = await eng.run("margins", params)
                return job, eng.stats()["cache"]

        job, cache = run(main())
        assert job.state.value == "done", job.error
        assert job.computed == 1
        assert (cache["hits"], cache["misses"]) == (0, 1)

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

    @pytest.mark.parametrize("error", sorted(PUBLISH_ERRORS))
    def test_failed_publish_serves_the_computed_value(self, tmp_path, error):
        """A cache that cannot store (disk full, read-only root, or any
        other publish error) leaves the service running uncached: the
        job completes with the naive artifact and leaves no singleflight
        flight behind."""
        params = {"scales": [0.95, 1.0], "write_counts": [1], "reads": 1}
        cache = FailingPutCache(tmp_path, PUBLISH_ERRORS[error])

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

    def test_failed_publish_strands_no_flight(self, tmp_path):
        """The first publish raises ``ValueError``; an identical job
        after it must still complete instead of joining the first
        item's flight forever."""
        params = {"scales": [1.0], "write_counts": [1], "reads": 1}
        cache = FailingPutCache(tmp_path, PUBLISH_ERRORS["ValueError"],
                                failures=1)
        item = decompose("margins", params).items[0]
        key = _flight_key(cache, item.namespace, item.key)

        async def main():
            async with CoalescingEngine(cache=cache, window_ms=0) as eng:
                first = await eng.run("margins", params)
                try:
                    second = await asyncio.wait_for(
                        eng.run("margins", params), 30)
                finally:
                    # a stranded flight would block close() forever
                    leader, flight = SINGLE_FLIGHT.begin(key)
                    SINGLE_FLIGHT.finish(key, flight, value=None)
                return first, second, leader, eng.stats()

        first, second, leader, stats = run(main())
        assert leader  # nothing was left in flight
        for job in (first, second):
            assert job.state.value == "done", job.error
        assert first.result == second.result
        # the first value went unstored, so the second job computed it
        assert first.computed == second.computed == 1
        assert stats["cache"]["put_errors"] == 1
        assert cache.get(item.namespace, item.key) is not None

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


class TestSharedHcdroNamespace:
    """Service ``margins`` items and :func:`run_configs` read and write
    the same ``hcdro-v1`` entries, so either warms the other."""

    @pytest.fixture
    def transients(self, monkeypatch):
        calls = []
        real = sweep.simulate_hcdro_batch

        def counting(configs):
            calls.append(list(configs))
            return real(configs)

        monkeypatch.setattr(sweep, "simulate_hcdro_batch", counting)
        return calls

    @staticmethod
    def _service_job(root):
        async def main():
            async with CoalescingEngine(cache=ResultCache(root)) as eng:
                return await eng.run("margins", CHEAP_MARGINS)

        return run(main())

    def test_service_job_warms_run_configs(self, tmp_path, monkeypatch,
                                           transients):
        job = self._service_job(tmp_path)
        assert job.state.value == "done", job.error
        assert job.computed == 4
        ran = len(transients)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        configs = adapters._margin_configs(CHEAP_MARGINS)[0]
        summaries = run_configs(configs, workers=1)
        assert len(transients) == ran  # no transient ran
        assert [s.config for s in summaries] == configs
        assert ran == 2  # the job's two topology groups, through the sweep

    def test_run_configs_warms_service_job(self, tmp_path, monkeypatch,
                                           transients):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_configs(adapters._margin_configs(CHEAP_MARGINS)[0], workers=1)
        ran = len(transients)
        job = self._service_job(tmp_path)
        assert job.state.value == "done", job.error
        assert (job.cache_hits, job.computed) == (4, 0)
        assert len(transients) == ran
        assert job.result == run_job_naive("margins", CHEAP_MARGINS)


class TestBusyDrivenBatching:
    """Items dispatch while a worker is free and batch while none is."""

    def test_default_engine_arms_no_timer(self, monkeypatch):
        """With the default window an idle engine dispatches on the next
        tick: the first item waits for no timer."""
        async def main():
            loop = asyncio.get_running_loop()
            timers = []
            call_later = loop.call_later

            def recording(delay, *args, **kwargs):
                timers.append(delay)
                return call_later(delay, *args, **kwargs)

            monkeypatch.setattr(loop, "call_later", recording)
            async with CoalescingEngine(cache=None) as eng:
                job = await eng.run("pulse_rf", {"pattern": [[1, 3]]})
                return job, eng.stats(), timers

        job, stats, timers = run(main())
        assert timers == []
        assert job.state.value == "done", job.error
        assert stats["window_ms"] == 0

    def test_jobs_queued_behind_a_held_dispatch_leave_as_one_group(
            self, monkeypatch):
        """One worker, its first pulse dispatch held: three strangers'
        jobs submitted 50 ms apart meanwhile wait for the worker and
        leave together as one 3-lane dispatch."""
        patterns = [[[1, 3]], [[2, 5]], [[3, 6]], [[4, 9]]]
        naive = [run_job_naive("pulse_rf", {"pattern": pattern})
                 for pattern in patterns]
        pulse = adapters.DISPATCHERS["pulse"]
        entered = threading.Event()
        release = threading.Event()
        lanes = []

        def held(payloads):
            lanes.append(len(payloads))
            if len(lanes) == 1:
                entered.set()
                release.wait(30)
            return pulse(payloads)

        monkeypatch.setitem(adapters.DISPATCHERS, "pulse", held)

        async def main():
            loop = asyncio.get_running_loop()
            async with CoalescingEngine(cache=None, workers=1) as eng:
                try:
                    jobs = [eng.submit("pulse_rf", {"pattern": patterns[0]})]
                    assert await loop.run_in_executor(None, entered.wait, 30)
                    for pattern in patterns[1:]:
                        await asyncio.sleep(0.05)
                        jobs.append(eng.submit("pulse_rf",
                                               {"pattern": pattern}))
                finally:
                    release.set()
                for job in jobs:
                    await eng.wait(job)
                return jobs, eng.stats()

        jobs, stats = run(main())
        assert lanes == [1, 3]
        assert (stats["dispatches"], stats["largest_group"]) == (2, 3)
        for job, expected in zip(jobs, naive):
            assert job.state.value == "done", job.error
            assert json.dumps(job.result, sort_keys=True) == \
                json.dumps(expected, sort_keys=True)

    def test_raising_dispatches_fail_their_jobs_and_free_the_worker(
            self, tmp_path, monkeypatch):
        """One worker, a dispatcher that raises: the jobs it served fail
        with its message, and a later healthy job still gets the worker
        (a raising dispatch leaks no busy slot) and no flight is left."""
        pulse = adapters.DISPATCHERS["pulse"]
        faulty = [True]

        def flaky(payloads):
            if faulty[0]:
                raise RuntimeError("injected pulse fault")
            return pulse(payloads)

        monkeypatch.setitem(adapters.DISPATCHERS, "pulse", flaky)
        healthy_params = {"pattern": [[5, 12]]}

        async def main():
            async with CoalescingEngine(cache=ResultCache(tmp_path),
                                        workers=1) as eng:
                failed = [eng.submit("pulse_rf", {"pattern": [[1, value]]})
                          for value in range(3)]
                for job in failed:
                    await asyncio.wait_for(eng.wait(job), 60)
                failed.append(await asyncio.wait_for(
                    eng.run("pulse_rf", {"pattern": [[2, 7]]}), 60))
                faulty[0] = False
                healthy = await asyncio.wait_for(
                    eng.run("pulse_rf", healthy_params), 60)
                return failed, healthy, eng.stats()

        failed, healthy, stats = run(main())
        for job in failed:
            assert job.state.value == "failed"
            assert "injected pulse fault" in (job.error or "")
        assert healthy.state.value == "done", healthy.error
        assert json.dumps(healthy.result, sort_keys=True) == json.dumps(
            run_job_naive("pulse_rf", healthy_params), sort_keys=True)
        assert (stats["jobs_failed"], stats["jobs_done"]) == (4, 1)
        assert SINGLE_FLIGHT.in_flight() == 0


class TestInflightLimit:
    def test_a_jobs_own_items_count_against_the_limit(self, tmp_path,
                                                       monkeypatch):
        """Submit counts the distinct items a job would add: a job that
        would pass the limit is refused, one whose items are already in
        flight is not, and a job larger than the limit on its own is a
        bad request rather than a refusal."""
        monkeypatch.setattr(engine_module, "MAX_INFLIGHT_ITEMS", 3)
        two = dict(CHEAP_MARGINS, write_counts=[0])     # 2 items
        other_two = dict(CHEAP_MARGINS, write_counts=[2])
        one = dict(CHEAP_MARGINS, scales=[1.05], write_counts=[0])

        async def main():
            async with CoalescingEngine(cache=ResultCache(tmp_path)) as eng:
                # No await between submits: every item stays in flight.
                accepted = [eng.submit("margins", two)]
                with pytest.raises(EngineOverloaded, match="adds 2"):
                    eng.submit("margins", other_two)
                accepted.append(eng.submit("margins", two))  # adds 0
                accepted.append(eng.submit("margins", one))  # 3 of 3
                with pytest.raises(ValueError, match="4 distinct items"):
                    eng.submit("margins", CHEAP_MARGINS)
                in_flight = len(eng._inflight)
                for job in accepted:
                    await asyncio.wait_for(eng.wait(job), 120)
                after = eng.submit("margins", other_two)
                await asyncio.wait_for(eng.wait(after), 120)
                return accepted + [after], in_flight, eng.stats()

        jobs, in_flight, stats = run(main())
        assert in_flight == 3
        assert all(job.state.value == "done" for job in jobs), \
            [job.error for job in jobs]
        assert stats["refused"] == 1
        assert stats["jobs"] == 4
