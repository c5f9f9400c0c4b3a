"""Batched, cached sweep engine for analog cell-margin studies.

Margin maps and cell studies are embarrassingly parallel: each
operating point is an independent transient simulation.  This module
provides the shared sweep code used by :mod:`repro.josim.margins`, the
``josim``/``margins`` experiments and the service's ``margins`` jobs:

* :class:`HCDROConfig` — a frozen, hashable description of one HC-DRO
  testbench run (drive point + stimulus counts), usable as a cache key
  and picklable for worker processes.
* :func:`hcdro_correct` — the Section II-D verdict.
* :func:`simulate_hcdro_batch` — run many *same-topology*
  configurations through :func:`repro.josim.testbench.run_hcdro_batch`,
  whose lane count picks the scalar or the batched solver;
  :func:`hcdro_values` reduces them to their :data:`HCDRO_NAMESPACE`
  values and is also the service's ``hcdro`` dispatcher.
* :func:`run_configs` — simulate many configurations with deterministic
  result ordering.  Distinct configurations resolve through
  :func:`repro.experiments.parallel.cached_batch` under
  :data:`HCDRO_NAMESPACE` on the ``REPRO_CACHE_DIR`` store, so CLI
  sweeps and service ``margins`` jobs share entries.  Misses are
  grouped by :func:`topology_key` (the config-level proxy for
  :func:`repro.josim.solver.topology_signature`), split into groups of
  at most :data:`GROUP_MAX_LANES`, and
  :func:`repro.experiments.parallel.parallel_map` runs
  :func:`hcdro_values` over the groups, fanning them out across
  processes only with more than one resolved worker and group.

Worker count resolution: an explicit ``workers`` argument wins, then
the ``REPRO_SWEEP_WORKERS`` environment variable, then ``os.cpu_count()``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.parallel import cached_batch, coerce_cache, parallel_map
from repro.josim.cells import (
    RECOMMENDED_J2_BIAS_UA,
    RECOMMENDED_PULSE_WIDTH_PS,
    RECOMMENDED_READ_PULSE_UA,
    RECOMMENDED_WRITE_PULSE_UA,
)

#: Cache namespace of one HC-DRO run: key the :class:`HCDROConfig`,
#: value its three fluxon counts.  ``run_configs`` and the service's
#: ``hcdro`` items both read and write it.
HCDRO_NAMESPACE = "hcdro-v1"

#: Most configs one dispatch group carries.
GROUP_MAX_LANES = 64


@dataclass(frozen=True)
class HCDROConfig:
    """One HC-DRO testbench run, fully determined by its fields.

    Frozen and hashable so identical configurations share one cache
    entry, and picklable so worker processes can receive it.  Counts
    and durations out of range raise ``ValueError``.
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

    def __post_init__(self) -> None:
        if (self.writes < 0 or self.reads < 0 or not self.settle_ps >= 0
                or not self.pulse_spacing_ps >= 0
                or not self.timestep_ps > 0 or not self.pulse_width_ps > 0):
            raise ValueError(f"{self}: writes, reads, settle_ps and "
                             "pulse_spacing_ps must be non-negative, "
                             "timestep_ps and pulse_width_ps positive")


def hcdro_correct(writes: int, stored_after_writes: int, stored_at_end: int,
                  output_pulses: int) -> bool:
    """Perfect 2-bit behaviour (Section II-D): after ``writes`` write
    pulses the cell stores ``min(w, 3)`` fluxons, the reads pop them
    all, one output pulse each, and the cell ends empty."""
    expected = min(writes, 3)
    return (stored_after_writes == expected
            and output_pulses == expected
            and stored_at_end == 0)


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
        """:func:`hcdro_correct` of this run."""
        return hcdro_correct(self.config.writes, self.stored_after_writes,
                             self.stored_at_end, self.output_pulses)


def topology_key(config: HCDROConfig) -> Tuple[int, int, float]:
    """Config-level proxy for the batch topology signature.

    Two configs with equal keys build cells with identical netlist
    structure (same pulse-element counts) at the same timestep, so they
    can run as lanes of one batched transient.  Amplitudes, bias,
    spacing and settle time are per-lane data and deliberately absent.
    """
    return (config.writes, config.reads, config.timestep_ps)


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
    return [HCDROSummary(config, report.stored_after_writes,
                         report.stored_at_end, report.output_pulses)
            for config, report in zip(configs, run_hcdro_batch(configs))]


def hcdro_values(configs: Sequence[HCDROConfig]) -> List[Dict[str, int]]:
    """One same-topology group's :data:`HCDRO_NAMESPACE` values."""
    return [{"stored_after_writes": s.stored_after_writes,
             "stored_at_end": s.stored_at_end,
             "output_pulses": s.output_pulses}
            for s in simulate_hcdro_batch(configs)]


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

    Each distinct configuration is simulated at most once per call and
    not at all when the ``REPRO_CACHE_DIR`` store (or another thread's
    flight) already has it; the returned list matches ``configs``
    element-for-element.  Misses are grouped by :func:`topology_key`
    and each group is one :func:`hcdro_values` call; when only one
    worker resolves or one group exists, groups run in-process (no pool
    spawn).  A failed publish is raised once every flight this call
    leads has its value.
    """
    configs = list(configs)
    distinct = list(dict.fromkeys(configs))

    def compute(led: List[int]) -> List[Dict[str, int]]:
        groups = _group_pending([distinct[index] for index in led])
        values: Dict[HCDROConfig, Dict[str, int]] = {}
        for group, group_values in zip(
                groups, parallel_map(hcdro_values, groups, workers=workers)):
            values.update(zip(group, group_values))
        return [values[distinct[index]] for index in led]

    outcomes, publish_errors = cached_batch(
        coerce_cache(None),
        [(HCDRO_NAMESPACE, config) for config in distinct], compute)
    if publish_errors:
        raise publish_errors[0]
    summaries = {}
    for config, outcome in zip(distinct, outcomes):
        if isinstance(outcome, BaseException):
            raise outcome
        summaries[config] = HCDROSummary(config, **outcome[0])
    return [summaries[config] for config in configs]
