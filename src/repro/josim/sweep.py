"""Parallel + batched sweep engine for analog cell-margin studies.

Margin maps and cell studies are embarrassingly parallel: each
operating point is an independent transient simulation.  This module
provides the shared driver used by :mod:`repro.josim.margins` and the
``josim``/``margins`` experiments:

* :class:`HCDROConfig` — a frozen, hashable description of one HC-DRO
  testbench run (drive point + stimulus counts), usable as a cache key
  and picklable for worker processes.
* :func:`simulate_hcdro` — run one configuration and reduce it to a
  :class:`HCDROSummary` (the full waveform stays in the worker),
  consulting the run-cache first.
* :func:`simulate_hcdro_batch` — run many *same-topology*
  configurations through :func:`repro.josim.testbench.run_hcdro_batch`,
  whose lane count picks the scalar or the batched solver.
* :func:`run_configs` — simulate many configurations with deterministic
  result ordering and an LRU-bounded process-global run-cache
  (:data:`RUN_CACHE_SIZE` summaries).  Pending configurations are
  grouped by :func:`topology_key` (write count, read count, timestep —
  the config-level proxy for
  :func:`repro.josim.solver.topology_signature`), split into groups of
  at most :data:`GROUP_MAX_LANES`, and :func:`sweep_map` runs
  :func:`simulate_hcdro_batch` over the groups.
* :func:`sweep_map` — :func:`repro.experiments.parallel.parallel_map`:
  with more than one resolved worker and more than one group, groups
  fan out across a ``ProcessPoolExecutor``; otherwise everything runs
  in-process — no pool is ever spawned, so single-CPU machines never
  pay pool startup for nothing.

Worker count resolution: an explicit ``workers`` argument wins, then
the ``REPRO_SWEEP_WORKERS`` environment variable, then ``os.cpu_count()``.

The executor machinery that started here has been generalised into
:mod:`repro.experiments.parallel` (which adds on-disk result caching);
``resolve_workers`` and ``sweep_map`` are re-exported from there so
existing analog-study callers keep working unchanged.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.experiments.parallel import (  # noqa: F401  (re-exports)
    WORKERS_ENV_VAR,
    parallel_map as sweep_map,
    resolve_workers,
)

from repro.josim.cells import (
    RECOMMENDED_J2_BIAS_UA,
    RECOMMENDED_PULSE_WIDTH_PS,
    RECOMMENDED_READ_PULSE_UA,
    RECOMMENDED_WRITE_PULSE_UA,
)

#: Run summaries the process-global run-cache keeps (LRU eviction), so
#: long grid studies on small machines don't grow memory without limit.
RUN_CACHE_SIZE = 4096

#: Most configs one dispatch group carries.
GROUP_MAX_LANES = 64


@dataclass(frozen=True)
class HCDROConfig:
    """One HC-DRO testbench run, fully determined by its fields.

    Frozen and hashable so identical configurations share one cache
    entry, and picklable so worker processes can receive it.
    """

    writes: int = 0
    reads: int = 0
    write_amplitude_ua: float = RECOMMENDED_WRITE_PULSE_UA
    read_amplitude_ua: float = RECOMMENDED_READ_PULSE_UA
    j2_bias_ua: float = RECOMMENDED_J2_BIAS_UA
    pulse_width_ps: float = RECOMMENDED_PULSE_WIDTH_PS
    pulse_spacing_ps: float = 25.0
    timestep_ps: float = 0.05
    settle_ps: float = 30.0


@dataclass(frozen=True)
class HCDROSummary:
    """Reduced outcome of one HC-DRO run (waveforms stay in the worker)."""

    config: HCDROConfig
    stored_after_writes: int
    stored_at_end: int
    output_pulses: int

    @property
    def popped(self) -> int:
        """Fluxons that left the cell during the read phase."""
        return self.stored_after_writes - self.stored_at_end

    @property
    def correct(self) -> bool:
        """Perfect 2-bit behaviour: store ``min(w, 3)``, pop all, end empty."""
        expected = min(self.config.writes, 3)
        return (self.stored_after_writes == expected
                and self.output_pulses == expected
                and self.stored_at_end == 0)


def topology_key(config: HCDROConfig) -> Tuple[int, int, float]:
    """Config-level proxy for the batch topology signature.

    Two configs with equal keys build cells with identical netlist
    structure (same pulse-element counts) at the same timestep, so they
    can run as lanes of one batched transient.  Amplitudes, bias,
    spacing and settle time are per-lane data and deliberately absent.
    """
    return (config.writes, config.reads, config.timestep_ps)


#: Process-global LRU run-cache; worker processes fill their own copy,
#: the parent re-stores returned summaries so later sweeps hit locally.
_RUN_CACHE: "OrderedDict[HCDROConfig, HCDROSummary]" = OrderedDict()


def _cache_get(config: HCDROConfig) -> Optional[HCDROSummary]:
    summary = _RUN_CACHE.get(config)
    if summary is not None:
        _RUN_CACHE.move_to_end(config)
    return summary


def _cache_put(config: HCDROConfig, summary: HCDROSummary) -> None:
    _RUN_CACHE[config] = summary
    _RUN_CACHE.move_to_end(config)
    while len(_RUN_CACHE) > RUN_CACHE_SIZE:
        _RUN_CACHE.popitem(last=False)


def clear_run_cache() -> None:
    """Drop all cached run summaries (mainly for tests and benchmarks)."""
    _RUN_CACHE.clear()


def run_cache_size() -> int:
    return len(_RUN_CACHE)


def simulate_hcdro(config: HCDROConfig) -> HCDROSummary:
    """Simulate one configuration, consulting the run-cache first."""
    cached = _cache_get(config)
    if cached is not None:
        return cached
    summary = simulate_hcdro_batch([config])[0]
    _cache_put(config, summary)
    return summary


def simulate_hcdro_batch(
        configs: Sequence[HCDROConfig]) -> List[HCDROSummary]:
    """Simulate same-topology configurations, uncached.

    The caller is responsible for grouping by :func:`topology_key`
    (``run_configs`` does); the group's lane count picks the solver
    path (:func:`repro.josim.testbench.run_hcdro_batch`).  A lane that
    fails raises :class:`~repro.errors.SimulationError` naming its
    index and config.
    """
    # Imported here so a bare ``import repro.josim.sweep`` stays cheap
    # in worker bootstrap paths.
    from repro.josim.testbench import run_hcdro_batch

    configs = list(configs)
    reports = run_hcdro_batch(configs)
    return [HCDROSummary(
        config=config,
        stored_after_writes=report.stored_after_writes,
        stored_at_end=report.stored_at_end,
        output_pulses=report.output_pulses)
        for config, report in zip(configs, reports)]


def _group_pending(pending: Sequence[HCDROConfig]) -> List[List[HCDROConfig]]:
    """Split pending configs into dispatch units.

    Same-topology configs group together, at most
    :data:`GROUP_MAX_LANES` per group, preserving first-seen order.
    """
    by_key: "OrderedDict[tuple, List[HCDROConfig]]" = OrderedDict()
    for config in pending:
        by_key.setdefault(topology_key(config), []).append(config)
    groups: List[List[HCDROConfig]] = []
    for lanes in by_key.values():
        for start in range(0, len(lanes), GROUP_MAX_LANES):
            groups.append(lanes[start:start + GROUP_MAX_LANES])
    return groups


def run_configs(configs: Sequence[HCDROConfig],
                workers: Optional[int] = None) -> List[HCDROSummary]:
    """Simulate many configurations, cached, ordered, and in parallel.

    Duplicate configurations (and configurations already in the
    run-cache) are simulated exactly once; the returned list matches
    ``configs`` element-for-element regardless of worker scheduling or
    cache eviction.  Pending work is grouped by :func:`topology_key`
    and each group is one :func:`simulate_hcdro_batch` call; when only
    one worker resolves or one group exists, groups run in-process (no
    pool spawn).
    """
    configs = list(configs)
    results = {}
    pending: List[HCDROConfig] = []
    seen = set()
    for config in configs:
        if config in seen:
            continue
        seen.add(config)
        cached = _cache_get(config)
        if cached is not None:
            results[config] = cached
        else:
            pending.append(config)
    computed = sweep_map(simulate_hcdro_batch, _group_pending(pending),
                         workers=workers)
    for summaries in computed:
        for summary in summaries:
            _cache_put(summary.config, summary)
            results[summary.config] = summary
    return [results[config] for config in configs]
