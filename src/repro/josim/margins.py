"""Operating-margin analysis for the HC-DRO cell.

Section II-D claims that "with careful inductor sizing and critical
current delivery to JJs, a 2-bit HC-DRO can be robustly built".  This
module quantifies robustness for our RCSJ netlist: it sweeps the read
pulse amplitude and the J2 bias around the nominal drive point and maps
where the cell still behaves perfectly (stores exactly ``min(w, 3)``
fluxons, pops exactly one per clock, empty reads silent).

All sweeps are dispatched through :mod:`repro.josim.sweep`: operating
points are grouped by topology (write/read counts and timestep) and
each group's lane count picks the solver
(:func:`repro.josim.testbench.run_hcdro_batch`) — groups of
``BATCHED_MIN_LANES`` or more run as one lane-parallel batched
transient, smaller ones config by config on the scalar solver.  On a
1-CPU host the whole grid executes in-process; with more workers,
whole groups fan out across processes.  A configuration repeated
within one sweep is simulated once; with ``REPRO_CACHE_DIR`` set, one
already in its ``hcdro-v1`` namespace (written by an earlier sweep or a
service ``margins`` job) is not simulated again.  Callers hand over
grids of scales and get :class:`MarginPoint` verdicts back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.josim.montecarlo import YieldReport

from repro.josim.cells import (
    RECOMMENDED_J2_BIAS_UA,
    RECOMMENDED_READ_PULSE_UA,
)
from repro.josim.sweep import HCDROConfig, run_configs

#: Write counts exercised per operating point: empty cell, a partial
#: fill and the full 3-fluxon capacity.
DEFAULT_WRITE_COUNTS = (0, 2, 3)

#: Read pulses applied per run; one more than capacity so the
#: "empty reads stay silent" requirement is always exercised.
DEFAULT_READS = 4


@dataclass(frozen=True)
class MarginPoint:
    """One (read amplitude, bias) operating point and its verdict."""

    read_amplitude_ua: float
    j2_bias_ua: float
    correct: bool


def _point_configs(read_amplitude_ua: float, j2_bias_ua: float,
                   write_counts: Sequence[int]) -> List[HCDROConfig]:
    return [HCDROConfig(writes=writes, reads=DEFAULT_READS,
                        read_amplitude_ua=read_amplitude_ua,
                        j2_bias_ua=j2_bias_ua)
            for writes in write_counts]


def point_is_correct(read_amplitude_ua: float, j2_bias_ua: float,
                     write_counts: Sequence[int] = DEFAULT_WRITE_COUNTS,
                     workers: Optional[int] = None) -> bool:
    """Exhaustive pass/fail of one operating point.

    For each write count the cell must store exactly ``min(w, 3)``
    fluxons, emit exactly that many output pulses over 4 reads, and end
    empty.
    """
    summaries = run_configs(
        _point_configs(read_amplitude_ua, j2_bias_ua, write_counts),
        workers=workers)
    return all(summary.correct for summary in summaries)


def sweep_read_amplitude(scales: Sequence[float] = (0.90, 0.95, 1.0, 1.05,
                                                    1.10),
                         j2_bias_ua: float = RECOMMENDED_J2_BIAS_UA,
                         write_counts: Sequence[int] = DEFAULT_WRITE_COUNTS,
                         workers: Optional[int] = None) -> List[MarginPoint]:
    """Sweep the read amplitude at fixed bias.

    All ``len(scales) * len(write_counts)`` testbench runs are batched
    into one parallel dispatch.
    """
    amplitudes = [RECOMMENDED_READ_PULSE_UA * scale for scale in scales]
    configs: List[HCDROConfig] = []
    for amplitude in amplitudes:
        configs.extend(_point_configs(amplitude, j2_bias_ua, write_counts))
    summaries = run_configs(configs, workers=workers)
    points = []
    stride = len(write_counts)
    for index, amplitude in enumerate(amplitudes):
        verdicts = summaries[index * stride:(index + 1) * stride]
        points.append(MarginPoint(
            read_amplitude_ua=amplitude,
            j2_bias_ua=j2_bias_ua,
            correct=all(summary.correct for summary in verdicts),
        ))
    return points


def sweep_margin_grid(read_scales: Sequence[float],
                      bias_scales: Sequence[float],
                      write_counts: Sequence[int] = DEFAULT_WRITE_COUNTS,
                      workers: Optional[int] = None) -> List[MarginPoint]:
    """2-D margin map over (read amplitude, J2 bias), row-major order.

    The full grid is dispatched as one batch so the sweep engine can
    keep every worker busy and deduplicate shared configurations.
    """
    grid = [(RECOMMENDED_READ_PULSE_UA * rs, RECOMMENDED_J2_BIAS_UA * bs)
            for rs in read_scales for bs in bias_scales]
    configs: List[HCDROConfig] = []
    for amplitude, bias in grid:
        configs.extend(_point_configs(amplitude, bias, write_counts))
    summaries = run_configs(configs, workers=workers)
    stride = len(write_counts)
    return [MarginPoint(
        read_amplitude_ua=amplitude,
        j2_bias_ua=bias,
        correct=all(s.correct
                    for s in summaries[k * stride:(k + 1) * stride]))
        for k, (amplitude, bias) in enumerate(grid)]


def working_margin_percent(points: Sequence[MarginPoint]) -> float:
    """Width of the contiguous working window around nominal, in percent.

    Returns the +/- percentage span over which every tested point works;
    0 if the nominal point is missing from ``points`` or itself fails.
    """
    nominal = RECOMMENDED_READ_PULSE_UA
    if not any(abs(p.read_amplitude_ua / nominal - 1.0) < 1e-6 and p.correct
               for p in points):
        return 0.0
    # Expand from nominal outwards while contiguous in the tested grid.
    scales = sorted(p.read_amplitude_ua / nominal for p in points)
    verdicts = {round(p.read_amplitude_ua / nominal, 6): p.correct
                for p in points}
    low = high = 1.0
    for scale in sorted((s for s in scales if s <= 1.0), reverse=True):
        if verdicts[round(scale, 6)]:
            low = scale
        else:
            break
    for scale in sorted(s for s in scales if s >= 1.0):
        if verdicts[round(scale, 6)]:
            high = scale
        else:
            break
    return 100.0 * min(1.0 - low, high - 1.0)


def monte_carlo_yield(samples: int = 1000, seed: int = 1234,
                      sigma_ic: float = 0.02, sigma_l: float = 0.03,
                      sigma_bias: float = 0.02,
                      read_scales: Tuple[float, ...] = (0.95, 1.0, 1.05),
                      workers: Optional[int] = None) -> "YieldReport":
    """Statistical complement to the worst-case grid: parametric yield.

    Where :func:`sweep_margin_grid` asks "over what drive window does
    the *nominal* cell work", this asks "what fraction of *fabricated*
    cells work at nominal drive" by sampling Gaussian process spreads
    over every junction Ic, inductance and bias source and running one
    testbench lane per (sample, read scale) through the mega-batch
    Monte Carlo tier (:mod:`repro.josim.montecarlo`).
    """
    from repro.josim.montecarlo import (
        SpreadSpec,
        YieldConfig,
        run_yield_analysis,
    )

    config = YieldConfig(
        samples=samples, seed=seed,
        spreads=SpreadSpec(sigma_ic=sigma_ic, sigma_l=sigma_l,
                           sigma_bias=sigma_bias),
        read_scales=read_scales)
    return run_yield_analysis(config, workers=workers)
