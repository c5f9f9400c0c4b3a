"""Table III: readout delay and percentage over the baseline design."""

from __future__ import annotations

from typing import Dict, List

from repro.experiments import paper_data
from repro.experiments.report import ComparisonRow, format_table
from repro.rf import PAPER_DESIGNS, NdroRegisterFile, RFGeometry, design_for


def run() -> Dict[str, Dict[str, Dict[str, float]]]:
    """Measure readout delays for every design and geometry."""
    result: Dict[str, Dict[str, Dict[str, float]]] = {}
    baselines: Dict[str, float] = {}
    for label in paper_data.GEOMETRY_LABELS:
        n, w = (int(x) for x in label.split("x"))
        baselines[label] = NdroRegisterFile(RFGeometry(n, w)).readout_delay_ps()
    for name in PAPER_DESIGNS:
        result[name] = {}
        for label in paper_data.GEOMETRY_LABELS:
            n, w = (int(x) for x in label.split("x"))
            delay = design_for(name, RFGeometry(n, w)).readout_delay_ps()
            result[name][label] = {
                "delay_ps": delay,
                "percent_of_baseline": 100.0 * delay / baselines[label],
                "paper_delay_ps": paper_data.TABLE3_DELAY_PS[name][label],
            }
    return result


def render(result: Dict[str, Dict[str, Dict[str, float]]] | None = None) -> str:
    result = result or run()
    rows: List[ComparisonRow] = []
    for name in paper_data.DESIGN_ORDER:
        for label in paper_data.GEOMETRY_LABELS:
            cell = result[name][label]
            rows.append(ComparisonRow(
                label=f"{paper_data.PAPER_NAMES[name]} {label}",
                measured=cell["delay_ps"],
                paper=cell["paper_delay_ps"],
                unit="ps",
            ))
    return format_table("Table III: readout delay", rows, precision=1)


if __name__ == "__main__":
    print(render())
