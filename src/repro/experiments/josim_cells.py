"""Section II-D: analog verification of the HC-DRO multi-fluxon cell.

Drives the RCSJ-model HC-DRO netlist through write/read pulse sequences
and confirms the paper's claims: the cell robustly stores 0-3 fluxons
(2 bits), overflow pulses are dissipated, and each read pops exactly one
stored fluxon (destructive readout).

The write-count sweep is dispatched through :mod:`repro.josim.sweep`.
Each write count is its own one-lane topology group, so the five
transients run on the scalar solver and fan out across worker
processes; with ``REPRO_CACHE_DIR`` set, configurations already in its
``hcdro-v1`` namespace (from any sweep or service job) are not rerun.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.josim.sweep import HCDROConfig, hcdro_correct, run_configs


def run(workers: Optional[int] = None) -> List[Dict[str, int]]:
    """Sweep write counts 0..4, always applying 4 read pulses."""
    configs = [HCDROConfig(writes=writes, reads=4) for writes in range(5)]
    summaries = run_configs(configs, workers=workers)
    return [{
        "writes": summary.config.writes,
        "stored": summary.stored_after_writes,
        "output_pulses": summary.output_pulses,
        "left_after_reads": summary.stored_at_end,
    } for summary in summaries]


def render(rows: List[Dict[str, int]] | None = None) -> str:
    rows = rows or run()
    title = "Section II-D: HC-DRO analog verification (RCSJ transient solver)"
    lines = [title, "=" * len(title),
             f"{'writes':>7s} {'stored':>7s} {'read pulses out':>16s} "
             f"{'left':>5s}  verdict"]
    ok = True
    for row in rows:
        good = hcdro_correct(row["writes"], row["stored"],
                             row["left_after_reads"], row["output_pulses"])
        ok = ok and good
        lines.append(f"{row['writes']:>7d} {row['stored']:>7d} "
                     f"{row['output_pulses']:>16d} "
                     f"{row['left_after_reads']:>5d}  "
                     f"{'ok' if good else 'MISMATCH'}")
    lines.append("")
    lines.append("claim: 2-bit (0-3 fluxon) storage with destructive "
                 f"one-pop-per-clock readout -> {'REPRODUCED' if ok else 'FAILED'}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(render())
