"""Tests for the parallel sweep engine, batched dispatch and run-cache."""

import pytest

import repro.experiments.parallel as parallel_mod
from repro.josim import sweep, testbench
from repro.josim.sweep import (
    HCDROConfig,
    clear_run_cache,
    resolve_workers,
    run_cache_size,
    run_configs,
    simulate_hcdro,
    simulate_hcdro_batch,
    sweep_map,
    topology_key,
)

#: The cheapest possible run: no stimulus, just bias settling.
EMPTY = HCDROConfig(writes=0, reads=0)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_run_cache()
    yield
    clear_run_cache()


def _square(x):
    return x * x


class TestSweepMap:
    def test_serial_preserves_order(self):
        assert sweep_map(_square, [3, 1, 2], workers=1) == [9, 1, 4]

    def test_parallel_preserves_order(self):
        values = list(range(8))
        assert sweep_map(_square, values, workers=2) == [v * v for v in values]

    def test_empty_and_single(self):
        assert sweep_map(_square, [], workers=4) == []
        assert sweep_map(_square, [5], workers=4) == [25]

    def test_exceptions_propagate(self):
        with pytest.raises(ZeroDivisionError):
            sweep_map(_reciprocal, [1, 0], workers=1)


def _reciprocal(x):
    return 1.0 / x


class TestWorkerResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(sweep.WORKERS_ENV_VAR, "7")
        assert resolve_workers(3) == 3

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(sweep.WORKERS_ENV_VAR, "5")
        assert resolve_workers(None) == 5

    def test_bad_env_var_ignored(self, monkeypatch):
        monkeypatch.setenv(sweep.WORKERS_ENV_VAR, "lots")
        assert resolve_workers(None) >= 1

    def test_floor_of_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-3) == 1


class TestRunCache:
    def test_repeat_config_simulated_once(self):
        first = simulate_hcdro(EMPTY)
        assert run_cache_size() == 1
        again = simulate_hcdro(EMPTY)
        assert again is first
        assert run_cache_size() == 1

    def test_run_configs_dedupes_batch(self):
        summaries = run_configs([EMPTY, EMPTY, EMPTY], workers=1)
        assert run_cache_size() == 1
        assert len(summaries) == 3
        assert summaries[0] == summaries[1] == summaries[2]

    def test_clear(self):
        simulate_hcdro(EMPTY)
        clear_run_cache()
        assert run_cache_size() == 0


class TestRunConfigs:
    def test_deterministic_ordering(self):
        configs = [HCDROConfig(writes=1, reads=1),
                   EMPTY,
                   HCDROConfig(writes=1, reads=1)]
        summaries = run_configs(configs, workers=1)
        assert [s.config for s in summaries] == configs

    def test_parallel_matches_serial(self):
        configs = [EMPTY, HCDROConfig(writes=1, reads=1)]
        serial = run_configs(configs, workers=1)
        clear_run_cache()
        parallel = run_configs(configs, workers=2)
        assert [(s.stored_after_writes, s.stored_at_end, s.output_pulses)
                for s in serial] == \
               [(s.stored_after_writes, s.stored_at_end, s.output_pulses)
                for s in parallel]

    def test_summary_verdicts(self):
        empty, written = run_configs(
            [EMPTY, HCDROConfig(writes=1, reads=4)], workers=1)
        assert empty.stored_after_writes == 0
        assert empty.correct
        assert written.stored_after_writes == 1
        assert written.output_pulses == 1
        assert written.popped == 1
        assert written.correct


class _PoolTripwire:
    """Stand-in for ProcessPoolExecutor that fails the test if built."""

    def __init__(self, *args, **kwargs):
        raise AssertionError(
            "ProcessPoolExecutor constructed with one resolved worker")


class TestSingleWorkerNeverSpawnsPool:
    """Regression for the 1-CPU dispatch rule: when the resolved worker
    count is 1 (explicit argument, REPRO_SWEEP_WORKERS=1, or a 1-CPU
    host) no process pool may ever be constructed — serial and batched
    execution happen in-process."""

    @pytest.fixture(autouse=True)
    def _tripwire(self, monkeypatch):
        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor",
                            _PoolTripwire)

    def test_sweep_map_env_var(self, monkeypatch):
        monkeypatch.setenv(sweep.WORKERS_ENV_VAR, "1")
        assert sweep_map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_sweep_map_explicit_argument(self):
        assert sweep_map(_square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_sweep_map_one_cpu_host(self, monkeypatch):
        monkeypatch.delenv(sweep.WORKERS_ENV_VAR, raising=False)
        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 1)
        assert sweep_map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_run_configs_env_var(self, monkeypatch):
        monkeypatch.setenv(sweep.WORKERS_ENV_VAR, "1")
        configs = [EMPTY, HCDROConfig(writes=0, reads=0, settle_ps=25.0),
                   HCDROConfig(writes=1, reads=1)]
        summaries = run_configs(configs)
        assert [s.config for s in summaries] == configs

    def test_run_configs_single_group_in_process(self):
        """Even with many workers requested, one dispatch group runs
        in-process — a pool cannot help a single batch."""
        configs = [EMPTY, HCDROConfig(writes=0, reads=0, settle_ps=25.0)]
        summaries = run_configs(configs, workers=8)
        assert [s.config for s in summaries] == configs


class TestBatchedDispatch:
    def test_topology_key_groups_by_counts_and_timestep(self):
        base = HCDROConfig(writes=2, reads=4)
        assert topology_key(base) == (2, 4, 0.05)
        assert topology_key(base) == topology_key(
            HCDROConfig(writes=2, reads=4, j2_bias_ua=70.0,
                        read_amplitude_ua=400.0, settle_ps=50.0))
        assert topology_key(base) != topology_key(
            HCDROConfig(writes=3, reads=4))
        assert topology_key(base) != topology_key(
            HCDROConfig(writes=2, reads=4, timestep_ps=0.1))

    def test_batched_matches_scalar_summaries(self, monkeypatch):
        """The batched dispatch path and the scalar path must agree on
        every summary — the two solvers share one formulation."""
        configs = [HCDROConfig(writes=1, reads=2),
                   HCDROConfig(writes=1, reads=2, j2_bias_ua=73.0),
                   HCDROConfig(writes=0, reads=2),
                   HCDROConfig(writes=1, reads=2,
                               read_amplitude_ua=460.0)]
        monkeypatch.setattr(testbench, "BATCHED_MIN_LANES", 1)
        batched = run_configs(configs, workers=1)
        clear_run_cache()
        monkeypatch.setattr(testbench, "BATCHED_MIN_LANES", 2**30)
        scalar = run_configs(configs, workers=1)
        assert [(s.stored_after_writes, s.stored_at_end, s.output_pulses)
                for s in batched] == \
               [(s.stored_after_writes, s.stored_at_end, s.output_pulses)
                for s in scalar]

    def test_lane_cap_chunks_large_groups(self, monkeypatch):
        monkeypatch.setattr(sweep, "GROUP_MAX_LANES", 2)
        configs = [HCDROConfig(writes=0, reads=0,
                               settle_ps=20.0 + 5.0 * k)
                   for k in range(5)]
        groups = sweep._group_pending(configs)
        assert [len(g) for g in groups] == [2, 2, 1]
        summaries = run_configs(configs, workers=1)
        assert [s.config for s in summaries] == configs
        assert all(s.correct for s in summaries)

    def test_simulate_batch_bypasses_cache_layer(self):
        configs = [HCDROConfig(writes=0, reads=0),
                   HCDROConfig(writes=0, reads=0, settle_ps=25.0)]
        summaries = simulate_hcdro_batch(configs)
        assert [s.config for s in summaries] == configs
        assert run_cache_size() == 0  # caching is run_configs' job


class TestRunCacheBound:
    def test_eviction_keeps_result_ordering(self, monkeypatch):
        """With a cache smaller than the sweep, results still come back
        element-for-element in input order (the local result map, not
        the evicting cache, feeds the return list)."""
        monkeypatch.setattr(sweep, "RUN_CACHE_SIZE", 2)
        configs = [HCDROConfig(writes=0, reads=0,
                               settle_ps=20.0 + 5.0 * k)
                   for k in range(4)]
        summaries = run_configs(configs, workers=1)
        assert [s.config for s in summaries] == configs
        assert run_cache_size() == 2
        # Least-recently-used entries were evicted; the most recent two
        # survive.
        assert list(sweep._RUN_CACHE) == configs[-2:]

    def test_eviction_is_lru_not_fifo(self, monkeypatch):
        monkeypatch.setattr(sweep, "RUN_CACHE_SIZE", 2)
        a = HCDROConfig(writes=0, reads=0, settle_ps=20.0)
        b = HCDROConfig(writes=0, reads=0, settle_ps=25.0)
        c = HCDROConfig(writes=0, reads=0, settle_ps=35.0)
        simulate_hcdro(a)
        simulate_hcdro(b)
        simulate_hcdro(a)  # touch a: b is now least recently used
        simulate_hcdro(c)
        assert set(sweep._RUN_CACHE) == {a, c}

    def test_repeat_sweep_recomputes_evicted_points_correctly(
            self, monkeypatch):
        monkeypatch.setattr(sweep, "RUN_CACHE_SIZE", 1)
        configs = [HCDROConfig(writes=0, reads=0, settle_ps=20.0),
                   HCDROConfig(writes=0, reads=0, settle_ps=25.0)]
        first = run_configs(configs, workers=1)
        second = run_configs(configs, workers=1)
        assert [(s.config, s.correct) for s in first] == \
               [(s.config, s.correct) for s in second]
