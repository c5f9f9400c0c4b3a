"""Table I: total JJ count and percentage over the baseline design."""

from __future__ import annotations

from repro.experiments import paper_data
from repro.experiments.report import (
    DesignTable,
    design_table,
    render_design_table,
)


def run() -> DesignTable:
    """Measure JJ counts for every design and geometry."""
    return design_table(lambda rf: rf.jj_count(),
                        paper_data.TABLE1_JJ, "jj")


def render(result: DesignTable | None = None) -> str:
    return render_design_table("Table I: total JJ count", result or run(),
                               "jj", "JJ", precision=0)


if __name__ == "__main__":
    print(render())
