"""``montecarlo``: HC-DRO yield studies in a closed loop with one client.

One op is one yield study at the ``montecarlo`` artifact's size:
96 samples x 3 read scales = 288 transient lanes in one solver chunk,
through ``repro.experiments.montecarlo.run(..., workers=1)`` (which
calls ``run_yield_analysis``).  Each op gets its own seed, drawn from
the benchmark seed.  The batched RCSJ solver does nearly all the work,
in the large-batch regime where the ROADMAP's lanes/s plateau lives;
isa, cpu, pulse and the service are idle.

Set-up runs a small untimed study, which builds the solver's
per-topology structure cache.  After the timed phase the first op is
spot-checked: a seeded sample of its lanes is replayed through the
scalar solver (``verify_against_scalar``) against the 1e-9 bar.  The
first op's study seed is the first draw from the benchmark seed, so
one benchmark seed always checks the same lanes, however many ops the
host had time for.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

import numpy as np

from perfbench.common import Workload
from perfbench.spans import Patches, traced
from perfbench.stats import Outcome

SAMPLES = 96
READ_SCALES = (0.95, 1.0, 1.05)
LANES = SAMPLES * len(READ_SCALES)
#: Scalar-oracle lanes replayed for the spot-checked op, and the bar.
VERIFY_LANES = 3
VERIFY_BAR = 1e-9
#: Seeds for the set-up study, kept apart from the op seeds (< 2**31).
_WARMUP_SEED = 2**31 + 7


class MonteCarlo(Workload):
    name = "montecarlo"
    work_unit = "HC-DRO transient lanes"

    def setup(self) -> None:
        from repro.experiments import montecarlo

        self._montecarlo = montecarlo
        self._seeds = random.Random(self.seed)
        self.results: List[Tuple[Outcome, Any]] = []
        montecarlo.run(samples=4, seed=_WARMUP_SEED, workers=1)

    def _op(self, traced: bool) -> Any:
        config_seed = self._seeds.randrange(2**31)
        if traced:
            assert self.tracer is not None
            with self.tracer.span("josim.study"):
                report = self._montecarlo.run(samples=SAMPLES,
                                              seed=config_seed, workers=1)
        else:
            report = self._montecarlo.run(samples=SAMPLES, seed=config_seed,
                                          workers=1)
        return report

    def install_tracing(self, patches: Patches) -> None:
        from repro.josim import montecarlo as mc
        from repro.josim.solver import BatchedTransientSolver

        tracer = self.tracer
        assert tracer is not None
        install_josim_tracing(tracer, patches)
        patches.set(mc, "sample_multipliers",
                    traced(tracer, "josim.sample", mc.sample_multipliers))
        patches.set(mc, "run_lanes",
                    traced(tracer, "josim.build", mc.run_lanes))
        patches.set(mc, "BatchedTransientSolver",
                    traced(tracer, "josim.compile", BatchedTransientSolver,
                           after=count_solver(tracer)))

    def measure(self) -> None:
        self.closed_loop(self._op, lambda outcome, report:
                         self.results.append((outcome, report)))

    @staticmethod
    def _sane(report: Any) -> bool:
        config = report.config
        return (config.lanes == LANES
                and tuple(config.read_scales) == READ_SCALES
                and report.yield_percent == report.scale_yield[1.0]
                and all(0.0 <= v <= 100.0 for v in report.scale_yield.values())
                and 0.0 <= report.margin_p5_percent
                <= report.margin_p95_percent)

    def verify(self) -> None:
        from repro.josim.montecarlo import verify_against_scalar

        for outcome, report in self.results:
            outcome.ok = self._sane(report)
        if not self.results:
            return
        outcome, report = self.results[0]
        worst = verify_against_scalar(report.config, lanes=VERIFY_LANES)
        outcome.ok = outcome.ok and worst <= VERIFY_BAR
        self.report["scalar_check"] = {"op": 0,
                                       "study_seed": report.config.seed,
                                       "lanes": VERIFY_LANES,
                                       "max_dphi": worst, "bar": VERIFY_BAR}
        yields = [r.yield_percent for _, r in self.results]
        self.report["yield_percent_median"] = float(np.median(yields))

    def work_per_s(self) -> float:
        """``lanes_per_s``: transient lanes of the verified studies per
        reference-speed second of the studies."""
        return self.closed_reference_work_per_s(LANES)

    def describe(self) -> Dict[str, Any]:
        figures = self.closed_host_figures(LANES)
        figures["lanes_per_host_s"] = figures.pop("work_per_host_s")
        figures["lanes_per_s"] = self.work_per_s()
        return figures

    def layer_metrics(self) -> Dict[str, float]:
        tracer = self.tracer
        assert tracer is not None
        ops = max(1, len(self.traced_outcomes))
        metrics = josim_layer_metrics(tracer, ops)
        metrics["josim.sample_s"] = tracer.self_time("josim.sample") / ops
        metrics["josim.rollup_s"] = tracer.self_time("josim.study") / ops
        return metrics


def count_solver(tracer: Any) -> Any:
    def after(args: tuple, kwargs: dict, solver: Any) -> None:
        tracer.count("josim.dispatches")
        tracer.count("josim.solver_lanes", len(solver.circuits))
    return after


def install_josim_tracing(tracer: Any, patches: Patches) -> None:
    """Spans on the batched solver's transient, shared with ``service``."""
    from repro.josim.solver import BatchedTransientSolver

    run_reduced = BatchedTransientSolver.run_reduced

    def traced_run_reduced(solver: Any, durations_ps: Any, *args: Any,
                           **kwargs: Any) -> Any:
        durations = np.broadcast_to(np.asarray(durations_ps, dtype=float),
                                    (len(solver.circuits),))
        with tracer.span("josim.transient"):
            result = run_reduced(solver, durations_ps, *args, **kwargs)
        # The solver's own step count per lane.
        tracer.count("josim.lane_steps",
                     sum(int(round(float(d) / solver.h)) for d in durations))
        return result

    patches.set(BatchedTransientSolver, "run_reduced", traced_run_reduced)


def josim_layer_metrics(tracer: Any, ops: int) -> Dict[str, float]:
    transient = tracer.self_time("josim.transient")
    dispatches = tracer.counters["josim.dispatches"]
    return {
        "josim.compile_s": tracer.self_time("josim.compile") / ops,
        "josim.build_s": tracer.self_time("josim.build") / ops,
        "josim.transient_s": transient / ops,
        "josim.lane_steps": tracer.counters["josim.lane_steps"] / ops,
        "josim.lane_steps_per_s": (tracer.counters["josim.lane_steps"]
                                   / transient if transient else 0.0),
        "josim.lanes_per_dispatch": (tracer.counters["josim.solver_lanes"]
                                     / dispatches if dispatches else 0.0),
    }
