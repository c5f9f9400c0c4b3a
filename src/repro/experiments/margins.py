"""HC-DRO operating margins (Section II-D robustness claim).

The read-amplitude sweep is :func:`repro.josim.margins.sweep_margin_grid`
at the nominal bias, run by the parallel sweep engine in
:mod:`repro.josim.sweep`; pass ``workers=1`` (or set
``REPRO_SWEEP_WORKERS=1``) to force serial execution.
"""

from __future__ import annotations

from typing import List, Optional

from repro.josim.margins import (
    DEFAULT_READ_SCALES,
    MarginPoint,
    sweep_margin_grid,
    working_margin_percent,
)


def run(scales=DEFAULT_READ_SCALES,
        workers: Optional[int] = None) -> List[MarginPoint]:
    return sweep_margin_grid(scales, workers=workers)


def render(points: List[MarginPoint] | None = None) -> str:
    points = points or run()
    title = "HC-DRO read-amplitude margins (RCSJ solver, Section II-D)"
    lines = [title, "=" * len(title),
             f"{'read amplitude (uA)':>20s} {'J2 bias (uA)':>13s}  verdict"]
    for point in points:
        lines.append(f"{point.read_amplitude_ua:>20.1f} "
                     f"{point.j2_bias_ua:>13.1f}  "
                     f"{'ok' if point.correct else 'FAIL'}")
    margin = working_margin_percent(points)
    lines.append("")
    lines.append(f"contiguous working margin around nominal: +/-{margin:.0f}%")
    lines.append("paper claim: 'a 2-bit HC-DRO can be robustly built' - the "
                 "cell tolerates drive variation without miscounting.")
    return "\n".join(lines)


if __name__ == "__main__":
    print(render())
