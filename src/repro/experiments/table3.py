"""Table III: readout delay and percentage over the baseline design."""

from __future__ import annotations

from repro.experiments import paper_data
from repro.experiments.report import (
    DesignTable,
    design_table,
    render_design_table,
)


def run() -> DesignTable:
    """Measure readout delays for every design and geometry."""
    return design_table(lambda rf: rf.readout_delay_ps(),
                        paper_data.TABLE3_DELAY_PS, "delay_ps")


def render(result: DesignTable | None = None) -> str:
    return render_design_table("Table III: readout delay", result or run(),
                               "delay_ps", "ps", precision=1)


if __name__ == "__main__":
    print(render())
