"""Report formatting: paper-vs-measured comparison tables."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from repro.experiments import paper_data
from repro.rf import PAPER_DESIGNS, RFGeometry, design_for

#: ``{design: {geometry: {key: ..., "percent_of_baseline": ...,
#: "paper_<key>": ...}}}``: one of Tables I-III.
DesignTable = Dict[str, Dict[str, Dict[str, float]]]


@dataclass(frozen=True)
class ComparisonRow:
    """One measured quantity next to the paper's published value."""

    label: str
    measured: float
    paper: Optional[float] = None
    unit: str = ""

    @property
    def delta_percent(self) -> Optional[float]:
        if self.paper in (None, 0):
            return None
        return 100.0 * (self.measured - self.paper) / self.paper


def format_table(title: str, rows: Sequence[ComparisonRow],
                 precision: int = 2) -> str:
    """Render comparison rows as an aligned text table."""
    header = (f"{'':40s} {'measured':>12s} {'paper':>12s} {'delta':>8s}")
    lines = [title, "=" * len(title), header, "-" * len(header)]
    for row in rows:
        measured = f"{row.measured:,.{precision}f}"
        paper = f"{row.paper:,.{precision}f}" if row.paper is not None else "-"
        delta = (f"{row.delta_percent:+.1f}%"
                 if row.delta_percent is not None else "-")
        label = f"{row.label} [{row.unit}]" if row.unit else row.label
        lines.append(f"{label:40s} {measured:>12s} {paper:>12s} {delta:>8s}")
    return "\n".join(lines)


def max_abs_delta_percent(rows: Sequence[ComparisonRow]) -> float:
    """Largest |measured - paper| / paper across rows with paper values."""
    deltas = [abs(row.delta_percent) for row in rows
              if row.delta_percent is not None]
    return max(deltas) if deltas else 0.0


def design_table(measure: Callable[[Any], float],
                 paper: Mapping[str, Mapping[str, float]],
                 key: str) -> DesignTable:
    """Measure one quantity of every paper design at every geometry.

    Each value sits beside its percentage of the NDRO baseline at the
    same geometry (measured once) and the paper's published value.
    """
    geometries = {label: RFGeometry(*(int(x) for x in label.split("x")))
                  for label in paper_data.GEOMETRY_LABELS}
    measured = {name: {label: float(measure(design_for(name, geometry)))
                       for label, geometry in geometries.items()}
                for name in PAPER_DESIGNS}
    baseline = measured["ndro_rf"]
    return {name: {label: {key: value,
                           "percent_of_baseline":
                               100.0 * value / baseline[label],
                           f"paper_{key}": float(paper[name][label])}
                   for label, value in row.items()}
            for name, row in measured.items()}


def render_design_table(title: str, result: DesignTable, key: str,
                        unit: str, precision: int) -> str:
    """:func:`format_table` of a :func:`design_table`, paper order."""
    return format_table(title, [
        ComparisonRow(label=f"{paper_data.PAPER_NAMES[name]} {label}",
                      measured=result[name][label][key],
                      paper=result[name][label][f"paper_{key}"], unit=unit)
        for name in paper_data.DESIGN_ORDER
        for label in paper_data.GEOMETRY_LABELS], precision=precision)
