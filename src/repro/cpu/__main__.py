"""CLI: run an RV32I assembly file on the gate-level CPU simulator.

Usage::

    python -m repro.cpu program.s                      # all designs
    python -m repro.cpu program.s --design hiperrf
    python -m repro.cpu --workload mcf --design hiperrf --waterfall
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.cpu.rf_model import RF_DESIGN_NAMES
from repro.cpu.simulator import simulate_program
from repro.cpu.timeline import record_timeline, render_waterfall
from repro.isa import Executor, assemble
from repro.workloads import get_workload, workload_names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cpu",
        description="Run RV32I code on the SFQ gate-level CPU simulator.")
    parser.add_argument("source", nargs="?", type=Path,
                        help="RV32I assembly file (.s)")
    parser.add_argument("--workload", choices=workload_names(),
                        help="run a bundled benchmark instead of a file")
    parser.add_argument("--design", choices=RF_DESIGN_NAMES,
                        help="single register file design (default: all)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload problem-size scale")
    parser.add_argument("--max-instructions", type=int, default=2_000_000)
    parser.add_argument("--waterfall", action="store_true",
                        help="print the first instructions' pipeline "
                             "waterfall (needs --design)")
    args = parser.parse_args(argv)

    if bool(args.source) == bool(args.workload):
        parser.error("provide exactly one of: a source file or --workload")
    if args.waterfall and not args.design:
        parser.error("--waterfall needs --design")

    if args.workload:
        source = get_workload(args.workload).build(args.scale)
        name = args.workload
    else:
        source = args.source.read_text()
        name = args.source.name
    program = assemble(source)

    designs = [args.design] if args.design else list(RF_DESIGN_NAMES)
    reports = simulate_program(program, designs, name,
                               max_instructions=args.max_instructions)

    print(f"{name}: {reports[designs[0]].instructions} instructions, "
          f"exit code {reports[designs[0]].exit_code}")
    baseline_cpi = reports.get("ndro_rf", reports[designs[0]]).cpi
    for design in designs:
        report = reports[design]
        overhead = 100.0 * (report.cpi / baseline_cpi - 1.0)
        print(f"  {design:26s} CPI={report.cpi:7.2f} ({overhead:+.1f}%)  "
              f"stalls={report.stall_cycles}")

    if args.waterfall:
        executor = Executor(program)
        records = record_timeline(
            executor.trace(max_instructions=args.max_instructions),
            design=args.design)
        print()
        print(render_waterfall(records[:32]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
