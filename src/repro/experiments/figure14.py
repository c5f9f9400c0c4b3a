"""Figure 14: CPI overhead over the NDRO RF baseline per benchmark.

Runs the full workload suite (riscv-tests kernels plus the synthetic
SPEC 2006 stand-ins) through the functional executor once per workload
and replays the retirement stream through the gate-level pipeline for
each register file design, exactly as Section VI-B describes.

Workloads are independent, so they fan out over a process pool
(:mod:`repro.experiments.parallel`); per-workload results are cached on
disk when a :class:`~repro.experiments.parallel.ResultCache` is
available, so a rerun after an interrupted sweep only simulates what is
missing.  Each worker also persists its functional pass as an op tape
in the same cache (:func:`repro.cpu.tape_for_program`), so re-sweeping
with more designs or a changed result namespace replays cached tapes
through the compiled tier instead of re-executing the programs.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.cpu import CoreConfig, CpiReport, simulate_program
from repro.cpu.rf_model import RF_DESIGN_NAMES
from repro.errors import ExecutionError
from repro.experiments import paper_data
from repro.experiments.parallel import CacheLike, cached_map
from repro.isa import assemble
from repro.workloads import PASS_EXIT_CODE, get_workload

OVERHEAD_DESIGNS = ("hiperrf", "dual_bank_hiperrf", "dual_bank_hiperrf_ideal")

#: The paper's Figure 14 benchmark list: the riscv-tests kernels plus the
#: four SPEC CPU 2006 entries Section VI-B names.  The registry carries
#: additional kernels (memcpy, fibonacci, matmul) used by the extension
#: studies; they are excluded here to keep the figure faithful.
FIGURE14_WORKLOADS = ("vvadd", "median", "multiply", "qsort", "rsort",
                      "towers", "spmv", "dhrystone",
                      "mcf", "sjeng", "libquantum", "specrand")


@dataclass
class Figure14Result:
    """Per-workload CPIs and the overhead-vs-baseline series."""

    baseline_cpi: Dict[str, float] = field(default_factory=dict)
    overhead_percent: Dict[str, Dict[str, float]] = field(default_factory=dict)
    instructions: Dict[str, int] = field(default_factory=dict)

    def average_overhead(self, design: str) -> float:
        return statistics.mean(self.overhead_percent[design].values())

    def average_baseline_cpi(self) -> float:
        return statistics.mean(self.baseline_cpi.values())


#: Cache namespace of workload rows; service ``figure14`` items share it.
NAMESPACE = "figure14-v1"

_Point = Tuple[str, float, Tuple[str, ...], Optional[CoreConfig], int,
               CacheLike]


def row_key(name: str, scale: float, designs: Sequence[str],
            config: Optional[CoreConfig], max_instructions: int) -> tuple:
    """The :data:`NAMESPACE` key of one workload row."""
    return (name, scale, list(designs), config or CoreConfig(),
            max_instructions)


def workload_row(name: str, reports: Mapping[str, CpiReport],
                 designs: Sequence[str]) -> Dict[str, object]:
    """One workload's row: the baseline's self-check, CPI and
    instruction count, and every other design's CPI overhead over it."""
    baseline = reports["ndro_rf"]
    if baseline.exit_code != PASS_EXIT_CODE:
        raise ExecutionError(
            f"{name}: self-check failed (exit {baseline.exit_code})")
    return {
        "baseline_cpi": baseline.cpi,
        "instructions": baseline.instructions,
        "overhead_percent": {
            design: 100.0 * (reports[design].cpi / baseline.cpi - 1.0)
            for design in designs if design != "ndro_rf"},
    }


def _run_workload(point: _Point) -> Dict[str, object]:
    """One workload's CPI study: runs in a worker process."""
    name, scale, designs, config, max_instructions, cache = point
    workload = get_workload(name)
    program = assemble(workload.build(scale))
    reports = simulate_program(program, designs, name, config=config,
                               max_instructions=max_instructions,
                               trace_cache=cache)
    return workload_row(name, reports, designs)


def run(scale: float = 1.0, designs: Sequence[str] = RF_DESIGN_NAMES,
        config: CoreConfig | None = None,
        max_instructions: int = 400_000,
        workers: Optional[int] = None,
        cache: CacheLike = None) -> Figure14Result:
    """Run the Figure 14 sweep at the given problem-size scale."""
    designs = tuple(designs)
    result = Figure14Result(
        overhead_percent={d: {} for d in designs if d != "ndro_rf"})
    points: list = [(name, scale, designs, config, max_instructions, cache)
                    for name in FIGURE14_WORKLOADS]
    keys = [row_key(name, scale, designs, config, max_instructions)
            for name in FIGURE14_WORKLOADS]
    rows = cached_map(NAMESPACE, _run_workload, points, keys=keys,
                      workers=workers, cache=cache)
    for name, row in zip(FIGURE14_WORKLOADS, rows):
        result.baseline_cpi[name] = float(row["baseline_cpi"])  # type: ignore[arg-type]
        result.instructions[name] = int(row["instructions"])  # type: ignore[call-overload]
        for design, overhead in row["overhead_percent"].items():  # type: ignore[attr-defined]
            result.overhead_percent[design][name] = overhead
    return result


def render(result: Figure14Result | None = None) -> str:
    result = result or run()
    title = "Figure 14: CPI overhead over baseline (NDRO RF)"
    lines = [title, "=" * len(title)]
    designs = list(result.overhead_percent)
    header = f"{'benchmark':12s} {'base CPI':>9s}" + "".join(
        f" {d[:20]:>20s}" for d in designs)
    lines.append(header)
    lines.append("-" * len(header))
    for name, cpi in result.baseline_cpi.items():
        row = f"{name:12s} {cpi:9.2f}"
        for design in designs:
            row += f" {result.overhead_percent[design][name]:+19.2f}%"
        lines.append(row)
    lines.append("-" * len(header))
    avg = f"{'average':12s} {result.average_baseline_cpi():9.2f}"
    for design in designs:
        avg += f" {result.average_overhead(design):+19.2f}%"
    lines.append(avg)
    lines.append("")
    lines.append("paper averages: " + ", ".join(
        f"{d} {v:+.1f}%" for d, v in
        paper_data.FIGURE14_AVG_OVERHEAD_PERCENT.items()))
    return "\n".join(lines)


if __name__ == "__main__":
    print(render())
