"""Table II: static power and percentage over the baseline design."""

from __future__ import annotations

from typing import Dict, List

from repro.experiments import paper_data
from repro.experiments.report import ComparisonRow, format_table
from repro.rf import PAPER_DESIGNS, NdroRegisterFile, RFGeometry, design_for


def run() -> Dict[str, Dict[str, Dict[str, float]]]:
    """Measure static power for every design and geometry."""
    result: Dict[str, Dict[str, Dict[str, float]]] = {}
    baselines: Dict[str, float] = {}
    for label in paper_data.GEOMETRY_LABELS:
        n, w = (int(x) for x in label.split("x"))
        baselines[label] = NdroRegisterFile(RFGeometry(n, w)).static_power_uw()
    for name in PAPER_DESIGNS:
        result[name] = {}
        for label in paper_data.GEOMETRY_LABELS:
            n, w = (int(x) for x in label.split("x"))
            power = design_for(name, RFGeometry(n, w)).static_power_uw()
            result[name][label] = {
                "power_uw": power,
                "percent_of_baseline": 100.0 * power / baselines[label],
                "paper_power_uw": paper_data.TABLE2_POWER_UW[name][label],
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
                measured=cell["power_uw"],
                paper=cell["paper_power_uw"],
                unit="uW",
            ))
    return format_table("Table II: static power", rows)


if __name__ == "__main__":
    print(render())
