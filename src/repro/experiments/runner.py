"""CLI entry point: regenerate any or all of the paper's tables/figures.

Usage::

    hiperrf-experiments               # run everything
    hiperrf-experiments table1 table3
    hiperrf-experiments figure14 --scale 2.0
    hiperrf-experiments table1 --json # machine-readable output
    python -m repro.experiments.runner all

Each name maps to its experiment's ``run`` and ``render``; ``--json``
works for every name and prints the raw ``run()`` results.  Only
``figure14`` takes ``--scale``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Dict, Tuple

from repro.experiments import (
    ablations,
    banking,
    energy,
    alternatives,
    fault_study,
    figure14,
    figure15,
    fullchip,
    josim_cells,
    margins,
    montecarlo,
    profiles,
    memory_sensitivity,
    scaling,
    scheduling,
    skew,
    synthesis,
    table1,
    table2,
    table3,
    table4,
    timing_figs,
    wire_cpi,
)
from repro.experiments.parallel import jsonable

#: Every experiment's ``(run, render)`` pair: the text report is
#: ``render(run())`` and ``--json`` prints ``jsonable(run())``.
EXPERIMENTS: Dict[str, Tuple[Callable[..., Any], Callable[[Any], str]]] = {
    "table1": (table1.run, table1.render),
    "table2": (table2.run, table2.render),
    "table3": (table3.run, table3.render),
    "table4": (table4.run, table4.render),
    "fullchip": (fullchip.run, fullchip.render),
    "figure14": (figure14.run, figure14.render),
    "figure15": (figure15.run, figure15.render),
    "timing": (timing_figs.run, timing_figs.render),
    "josim": (josim_cells.run, josim_cells.render),
    "scaling": (scaling.run, scaling.render),
    "wire_cpi": (wire_cpi.run, wire_cpi.render),
    "alternatives": (alternatives.run, alternatives.render),
    "ablations": (ablations.run, ablations.render),
    "margins": (margins.run, margins.render),
    "montecarlo": (montecarlo.run, montecarlo.render),
    "synthesis": (synthesis.run, synthesis.render),
    "memory": (memory_sensitivity.run, memory_sensitivity.render),
    "energy": (energy.run, energy.render),
    "banking": (banking.run, banking.render),
    "skew": (skew.run, skew.render),
    "faults": (fault_study.run, fault_study.render),
    "scheduling": (scheduling.run, scheduling.render),
    "profiles": (profiles.run, profiles.render),
}


def _run(name: str, scale: float) -> Any:
    run, _ = EXPERIMENTS[name]
    # Only Figure 14 takes --scale: the other CPU sweeps' own default
    # scales are part of their artifacts.
    return run(scale) if name == "figure14" else run()


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hiperrf-experiments",
        description="Regenerate the HiPerRF paper's tables and figures.")
    parser.add_argument("experiments", nargs="*", default=["all"],
                        help=f"subset of: {', '.join(EXPERIMENTS)} (or 'all')")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload problem-size scale for figure14")
    parser.add_argument("--json", action="store_true",
                        help="emit raw run() results as JSON")
    args = parser.parse_args(argv)

    selected = args.experiments or ["all"]
    if "all" in selected:
        selected = list(EXPERIMENTS)
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

    if args.json:
        payload = {name: jsonable(_run(name, args.scale))
                   for name in selected}
        print(json.dumps(payload, indent=2, default=str))
        return 0
    for name in selected:
        _, render = EXPERIMENTS[name]
        print(render(_run(name, args.scale)))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
