"""Tests for the sweep engine: batched dispatch and the hcdro-v1 cache."""

import os
import shutil

import pytest

import repro.experiments.parallel as parallel_mod
from repro.experiments.parallel import (
    CACHE_ENV_VAR,
    MAX_BYTES_ENV_VAR,
    WORKERS_ENV_VAR,
    ResultCache,
    parallel_map,
)
from repro.josim import sweep, testbench
from repro.josim.sweep import (
    HCDRO_NAMESPACE,
    HCDROConfig,
    run_configs,
    simulate_hcdro_batch,
    topology_key,
)

#: The cheapest possible run: no stimulus, just bias settling.
EMPTY = HCDROConfig(writes=0, reads=0)


@pytest.fixture(autouse=True)
def _no_cache(monkeypatch):
    """No store unless a test opts into a temporary ``REPRO_CACHE_DIR``."""
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    monkeypatch.delenv(MAX_BYTES_ENV_VAR, raising=False)


@pytest.fixture
def cache_root(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    return tmp_path


@pytest.fixture
def transients(monkeypatch):
    """The configs of every ``simulate_hcdro_batch`` call, one list each."""
    calls = []
    real = sweep.simulate_hcdro_batch

    def counting(configs):
        calls.append(list(configs))
        return real(configs)

    monkeypatch.setattr(sweep, "simulate_hcdro_batch", counting)
    return calls


def _entries(root):
    return sorted((root / HCDRO_NAMESPACE).glob("*.json"))


def _square(x):
    return x * x


class TestRunCache:
    def test_repeat_config_simulated_once(self, cache_root, transients):
        first = run_configs([EMPTY], workers=1)
        assert len(_entries(cache_root)) == 1
        again = run_configs([EMPTY], workers=1)
        assert again == first
        assert transients == [[EMPTY]]

    def test_run_configs_dedupes_batch(self, transients):
        summaries = run_configs([EMPTY, EMPTY, EMPTY], workers=1)
        assert transients == [[EMPTY]]
        assert len(summaries) == 3
        assert summaries[0] == summaries[1] == summaries[2]

    def test_clear(self, cache_root, transients):
        """Deleting the namespace is how a store forgets its runs."""
        run_configs([EMPTY], workers=1)
        shutil.rmtree(cache_root / HCDRO_NAMESPACE)
        run_configs([EMPTY], workers=1)
        assert transients == [[EMPTY], [EMPTY]]
        assert len(_entries(cache_root)) == 1

    def test_warm_repeat_counts_only_hits(self, cache_root, transients,
                                          monkeypatch):
        configs = [EMPTY, HCDROConfig(writes=1, reads=1), EMPTY]
        cold = run_configs(configs, workers=1)
        store = ResultCache(cache_root)
        monkeypatch.setattr(sweep, "coerce_cache", lambda cache: store)
        warm = run_configs(configs, workers=1)
        assert warm == cold
        assert (store.hits, store.misses) == (2, 0)
        assert len(transients) == 2  # the cold call's two topology groups

    def test_publish_error_raised_after_values(self, cache_root, monkeypatch):
        """A failed put is raised, and the flight it led still finishes."""
        def failing_put(self, namespace, key, value):
            raise OSError("disk full")

        monkeypatch.setattr(ResultCache, "put", failing_put)
        with pytest.raises(OSError, match="disk full"):
            run_configs([EMPTY], workers=1)
        assert parallel_mod.SINGLE_FLIGHT.in_flight() == 0


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


class TestConfigValidation:
    @pytest.mark.parametrize("fields", [
        {"writes": -2}, {"reads": -1}, {"timestep_ps": 0.0},
        {"timestep_ps": -0.05}, {"timestep_ps": float("nan")},
        {"settle_ps": -500.0}, {"pulse_width_ps": 0.0},
        {"pulse_spacing_ps": -25.0}])
    def test_out_of_range_fields_rejected(self, fields):
        with pytest.raises(ValueError):
            HCDROConfig(**fields)

    def test_edges_accepted(self):
        HCDROConfig(writes=0, reads=0, settle_ps=0.0, timestep_ps=1e-3,
                    pulse_spacing_ps=0.0)


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
        monkeypatch.setenv(WORKERS_ENV_VAR, "1")
        assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_sweep_map_explicit_argument(self):
        assert parallel_map(_square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_sweep_map_one_cpu_host(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 1)
        assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_run_configs_env_var(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "1")
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

    def test_simulate_batch_bypasses_cache_layer(self, cache_root):
        configs = [HCDROConfig(writes=0, reads=0),
                   HCDROConfig(writes=0, reads=0, settle_ps=25.0)]
        summaries = simulate_hcdro_batch(configs)
        assert [s.config for s in summaries] == configs
        assert not list(cache_root.rglob("*.json"))  # run_configs' job


def _budget_for(root, entries, monkeypatch):
    """Bound ``root`` to about ``entries`` hcdro entries' bytes."""
    size = max(path.stat().st_size for path in _entries(root))
    monkeypatch.setenv(MAX_BYTES_ENV_VAR, str(int(size * (entries + 0.5))))


class TestRunCacheBound:
    """``REPRO_CACHE_MAX_BYTES`` bounds the store ``run_configs`` uses."""

    def test_eviction_keeps_result_ordering(self, cache_root, monkeypatch):
        """With a budget smaller than the sweep, results still come back
        element-for-element in input order (the call's own values, not
        the evicting store, feed the return list)."""
        run_configs([EMPTY], workers=1)
        _budget_for(cache_root, 2, monkeypatch)
        configs = [HCDROConfig(writes=0, reads=0,
                               settle_ps=20.0 + 5.0 * k)
                   for k in range(4)]
        summaries = run_configs(configs, workers=1)
        assert [s.config for s in summaries] == configs
        assert all(s.correct for s in summaries)
        assert len(_entries(cache_root)) <= 2

    def test_eviction_is_lru_not_fifo(self, cache_root, transients,
                                      monkeypatch):
        a = HCDROConfig(writes=0, reads=0, settle_ps=20.0)
        b = HCDROConfig(writes=0, reads=0, settle_ps=25.0)
        c = HCDROConfig(writes=0, reads=0, settle_ps=35.0)
        store = ResultCache(cache_root)
        for stamp, config in enumerate((a, b), start=1):
            run_configs([config], workers=1)
            path = store._path(HCDRO_NAMESPACE, config)
            os.utime(path, (1_000 * stamp, 1_000 * stamp))
        _budget_for(cache_root, 2, monkeypatch)
        run_configs([a], workers=1)  # a hit: b is now least recently used
        run_configs([c], workers=1)
        assert store.get(HCDRO_NAMESPACE, a) is not None
        assert store.get(HCDRO_NAMESPACE, b) is None
        assert store.get(HCDRO_NAMESPACE, c) is not None
        assert transients == [[a], [b], [c]]

    def test_repeat_sweep_recomputes_evicted_points_correctly(
            self, cache_root, monkeypatch):
        run_configs([EMPTY], workers=1)
        _budget_for(cache_root, 1, monkeypatch)
        configs = [HCDROConfig(writes=0, reads=0, settle_ps=20.0),
                   HCDROConfig(writes=0, reads=0, settle_ps=25.0)]
        first = run_configs(configs, workers=1)
        second = run_configs(configs, workers=1)
        assert [(s.config, s.correct) for s in first] == \
               [(s.config, s.correct) for s in second]
