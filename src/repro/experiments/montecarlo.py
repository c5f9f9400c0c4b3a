"""HC-DRO Monte Carlo parametric yield (statistical margin sign-off).

The margins experiment maps the worst-case drive window of the nominal
cell; this one reports what fraction of *fabricated* cells still count
fluxons correctly under Gaussian process spreads (Ic, L, bias).  Lanes
run through the mega-batch Monte Carlo tier in
:mod:`repro.josim.montecarlo` — the chunked block-diagonal batched
solver — so the default 96-sample study is a few hundred transients,
not a few hundred scalar solver calls.

Pass ``workers=1`` (or ``REPRO_SWEEP_WORKERS=1``) to force serial
execution; each worker dispatch is one solver chunk
(:data:`repro.josim.solver.CHUNK_LANES` lanes), which bounds solver
memory either way.
"""

from __future__ import annotations

from typing import Optional

from repro.josim.montecarlo import (
    SpreadSpec,
    YieldConfig,
    YieldReport,
    render as render_report,
    run_yield_analysis,
)

#: Experiment-sized defaults: enough samples for a stable two-digit
#: yield figure while staying quick on a laptop CPU.
DEFAULT_SAMPLES = 96
DEFAULT_SEED = 1234


def run(samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED,
        workers: Optional[int] = None) -> YieldReport:
    config = YieldConfig(samples=samples, seed=seed, spreads=SpreadSpec(),
                         read_scales=(0.95, 1.0, 1.05))
    return run_yield_analysis(config, workers=workers)


def render(report: YieldReport | None = None) -> str:
    report = report or run()
    lines = [render_report(report), ""]
    lines.append("paper context: Section II-D argues the HC-DRO 'can be "
                 "robustly built'; the yield figure quantifies that claim "
                 "under fabrication spreads rather than drive variation.")
    return "\n".join(lines)


if __name__ == "__main__":
    print(render())
