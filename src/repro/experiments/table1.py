"""Table I: total JJ count and percentage over the baseline design."""

from __future__ import annotations

from typing import Dict, List

from repro.experiments import paper_data
from repro.experiments.report import ComparisonRow, format_table
from repro.rf import PAPER_DESIGNS, NdroRegisterFile, RFGeometry, design_for


def run() -> Dict[str, Dict[str, Dict[str, float]]]:
    """Measure JJ counts for every design and geometry.

    Returns ``{design: {geometry: {"jj": ..., "percent_of_baseline": ...,
    "paper_jj": ...}}}``.
    """
    result: Dict[str, Dict[str, Dict[str, float]]] = {}
    baselines: Dict[str, int] = {}
    for label in paper_data.GEOMETRY_LABELS:
        n, w = (int(x) for x in label.split("x"))
        baselines[label] = NdroRegisterFile(RFGeometry(n, w)).jj_count()
    for name in PAPER_DESIGNS:
        result[name] = {}
        for label in paper_data.GEOMETRY_LABELS:
            n, w = (int(x) for x in label.split("x"))
            jj = design_for(name, RFGeometry(n, w)).jj_count()
            result[name][label] = {
                "jj": float(jj),
                "percent_of_baseline": 100.0 * jj / baselines[label],
                "paper_jj": float(paper_data.TABLE1_JJ[name][label]),
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
                measured=cell["jj"],
                paper=cell["paper_jj"],
                unit="JJ",
            ))
    return format_table("Table I: total JJ count", rows, precision=0)


if __name__ == "__main__":
    print(render())
