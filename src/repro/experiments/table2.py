"""Table II: static power and percentage over the baseline design."""

from __future__ import annotations

from repro.experiments import paper_data
from repro.experiments.report import (
    DesignTable,
    design_table,
    render_design_table,
)


def run() -> DesignTable:
    """Measure static power for every design and geometry."""
    return design_table(lambda rf: rf.static_power_uw(),
                        paper_data.TABLE2_POWER_UW, "power_uw")


def render(result: DesignTable | None = None) -> str:
    return render_design_table("Table II: static power", result or run(),
                               "power_uw", "uW", precision=2)


if __name__ == "__main__":
    print(render())
