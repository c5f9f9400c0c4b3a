"""Table IV: readout delay and loopback latency with PTL wire delays."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments import paper_data
from repro.experiments.report import ComparisonRow, format_table
from repro.rf import PAPER_DESIGNS, RFGeometry, design_for, wire_aware_delays


def run() -> Dict[str, Dict[str, Optional[float]]]:
    """Wire-aware 32x32 delays for every design."""
    geometry = RFGeometry(32, 32)
    result: Dict[str, Dict[str, Optional[float]]] = {}
    for name in PAPER_DESIGNS:
        delays = wire_aware_delays(design_for(name, geometry))
        result[name] = {
            "readout_ps": delays.readout_delay_ps,
            "readout_wire_ps": delays.readout_wire_ps,
            "loopback_ps": delays.loopback_delay_ps,
            "paper_readout_ps": paper_data.TABLE4_READOUT_PS[name],
            "paper_loopback_ps": paper_data.TABLE4_LOOPBACK_PS.get(name),
        }
    return result


def render(result: Dict[str, Dict[str, Optional[float]]] | None = None) -> str:
    result = result or run()
    rows: List[ComparisonRow] = []
    for name in paper_data.DESIGN_ORDER:
        cell = result[name]
        rows.append(ComparisonRow(
            label=f"{paper_data.PAPER_NAMES[name]} readout",
            measured=cell["readout_ps"],
            paper=cell["paper_readout_ps"],
            unit="ps",
        ))
        if cell["loopback_ps"] is not None:
            rows.append(ComparisonRow(
                label=f"{paper_data.PAPER_NAMES[name]} loopback",
                measured=cell["loopback_ps"],
                paper=cell["paper_loopback_ps"],
                unit="ps",
            ))
    return format_table(
        "Table IV: 32x32 delays with PTL wires (262 um avg, 1 ps/100 um)",
        rows, precision=1)


if __name__ == "__main__":
    print(render())
