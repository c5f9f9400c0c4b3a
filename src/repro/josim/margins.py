"""Operating-margin analysis for the HC-DRO cell.

Section II-D claims that "with careful inductor sizing and critical
current delivery to JJs, a 2-bit HC-DRO can be robustly built".  This
module quantifies robustness for our RCSJ netlist: it sweeps the read
pulse amplitude and the J2 bias around the nominal drive point and maps
where the cell still behaves perfectly (stores exactly ``min(w, 3)``
fluxons, pops exactly one per clock, empty reads silent).

One margin grid serves every front end: :func:`margin_configs` turns
``(read amplitude, J2 bias)`` points into one
:class:`~repro.josim.sweep.HCDROConfig` per (point, write count), and
:func:`margin_points` folds the runs' verdicts back into one
:class:`MarginPoint` per point.  :func:`sweep_margin_grid` (the
``margins`` experiment and the josim benchmark) runs them through
:func:`repro.josim.sweep.run_configs`; the service's ``margins`` jobs
run the same configs as ``hcdro`` items.  Either way operating points
are grouped by topology (write/read counts and timestep) and each
group's lane count picks the solver
(:func:`repro.josim.testbench.run_hcdro_batch`).  A configuration
repeated within one sweep is simulated once; with ``REPRO_CACHE_DIR``
set, one already in its ``hcdro-v1`` namespace (written by an earlier
sweep or a service ``margins`` job) is not simulated again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.josim.cells import (
    RECOMMENDED_J2_BIAS_UA,
    RECOMMENDED_READ_PULSE_UA,
)
from repro.josim.sweep import HCDROConfig, run_configs

#: Read-amplitude scales of the ``margins`` experiment and of a service
#: ``margins`` job that names none: nominal and +/-5% and +/-10%.
DEFAULT_READ_SCALES = (0.90, 0.95, 1.0, 1.05, 1.10)

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


def margin_configs(points: Sequence[Tuple[float, float]],
                   write_counts: Sequence[int] = DEFAULT_WRITE_COUNTS,
                   reads: int = DEFAULT_READS,
                   **program: float) -> List[HCDROConfig]:
    """One config per (point, write count), point-major.

    Each point is a ``(read amplitude, J2 bias)`` pair in uA;
    ``program`` passes the other :class:`HCDROConfig` fields (settle,
    spacing, width, timestep).
    """
    return [HCDROConfig(writes=writes, reads=reads,
                        read_amplitude_ua=amplitude, j2_bias_ua=bias,
                        **program)
            for amplitude, bias in points for writes in write_counts]


def margin_points(points: Sequence[Tuple[float, float]],
                  verdicts: Sequence[bool]) -> List[MarginPoint]:
    """One :class:`MarginPoint` per point, correct when all its runs are.

    ``verdicts`` holds one :func:`~repro.josim.sweep.hcdro_correct`
    per config, in :func:`margin_configs` order.
    """
    stride = len(verdicts) // len(points) if points else 0
    return [MarginPoint(read_amplitude_ua=amplitude, j2_bias_ua=bias,
                        correct=all(verdicts[k * stride:(k + 1) * stride]))
            for k, (amplitude, bias) in enumerate(points)]


def sweep_margin_grid(read_scales: Sequence[float],
                      bias_scales: Sequence[float] = (1.0,),
                      write_counts: Sequence[int] = DEFAULT_WRITE_COUNTS,
                      workers: Optional[int] = None) -> List[MarginPoint]:
    """Margin map over (read amplitude, J2 bias) scales, row-major order.

    The full grid is dispatched as one batch so the sweep engine can
    keep every worker busy and deduplicate shared configurations.  The
    default bias axis is the nominal bias alone: a read-amplitude sweep.
    """
    points = [(RECOMMENDED_READ_PULSE_UA * rs, RECOMMENDED_J2_BIAS_UA * bs)
              for rs in read_scales for bs in bias_scales]
    summaries = run_configs(margin_configs(points, write_counts),
                            workers=workers)
    return margin_points(points, [summary.correct for summary in summaries])


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
