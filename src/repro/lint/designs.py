"""Lint drivers for the repo's built-in register-file designs.

One entry point per representation family:

* :func:`lint_graph` - structural + timing passes over one lowered
  :class:`~repro.lint.graph.CircuitGraph` (with the builder module's
  inline suppressions applied),
* :func:`lint_design` - everything we can statically check about one
  built-in design: the pulse netlist at a working geometry, the JJ /
  bias budgets at every paper geometry, and the generated port-control
  schedules (SFQ015/SFQ016),
* :func:`lint_all` - the CI gate: every built-in design.
"""

from __future__ import annotations

from repro.errors import ConfigError, TimingViolationError
from repro.lint.budget import check_budget
from repro.lint.config import LintConfig
from repro.lint.graph import CircuitGraph, graph_from_engine
from repro.lint.passes import run_structural_passes
from repro.lint.report import LintIssue, LintReport
from repro.lint.rules import make_issue
from repro.lint.suppress import suppressions_for
from repro.lint.timing import run_timing_passes
from repro.pulse import Engine
from repro.rf import PAPER_DESIGNS, RFGeometry, design_for
from repro.rf.netlist import PulseDualBankHiPerRF, PulseHiPerRF, PulseNdroRF
from repro.rf.timing import (
    Instr,
    PortSchedule,
    schedule_dual_bank,
    schedule_hiperrf,
    schedule_ndro,
)

#: Designs ``python -m repro.lint`` analyses by default.
BUILTIN_DESIGNS: tuple[str, ...] = PAPER_DESIGNS

#: Geometry the pulse netlists are built at for structural analysis - big
#: enough to exercise every tree/DEMUX shape, small enough to stay fast.
DEFAULT_GEOMETRY = RFGeometry(8, 8)

#: Geometries the paper publishes budgets for (Tables I and II).
PAPER_GEOMETRIES: tuple[RFGeometry, ...] = (
    RFGeometry(4, 4), RFGeometry(16, 16), RFGeometry(32, 32))

_SCHEDULERS = {
    "ndro_rf": schedule_ndro,
    "hiperrf": schedule_hiperrf,
    "dual_bank_hiperrf": schedule_dual_bank,
}

#: Representative instruction mix for the schedule rules: a two-source
#: op, a single-source op, a store (no dest), and a same-register RAR.
#: Register indices stay below 4 so every paper geometry can run it.
SAMPLE_STREAM: tuple[Instr, ...] = (
    Instr(dest=1, srcs=(2, 3)),
    Instr(dest=0, srcs=(1,)),
    Instr(dest=None, srcs=(0, 2)),
    Instr(dest=3, srcs=(3, 3)),
)


def lint_graph(graph: CircuitGraph, config: LintConfig | None = None,
               source_objects: tuple = ()) -> LintReport:
    """Run every graph-level rule over one lowered netlist.

    ``source_objects`` are the builder instances whose defining modules
    are scanned for ``# lint: disable=`` directives.
    """
    report = LintReport()
    report.analysed.append(graph.name)
    report.extend(run_structural_passes(graph))
    report.extend(run_timing_passes(graph, config))
    suppressions = []
    for obj in source_objects:
        suppressions.extend(suppressions_for(obj))
    if suppressions:
        report.apply_suppressions(suppressions)
    return report


def pulse_graphs(name: str,
                 geometry: RFGeometry) -> list[tuple[CircuitGraph, tuple]]:
    """Lowered pulse-netlist graph(s) for one built-in design.

    Returns ``(graph, source_objects)`` pairs; ``source_objects`` are
    the builder instances whose modules carry any inline suppressions.
    Also the entry point :mod:`repro.interchange` uses to enumerate the
    golden graphs for round-trip LVS.
    """
    if name == "ndro_rf":
        engine = Engine()
        rf = PulseNdroRF(engine, geometry)
        return [(graph_from_engine(engine, name, rf.external_inputs()),
                 (rf,))]
    if name == "hiperrf":
        engine = Engine()
        rf = PulseHiPerRF(engine, geometry)
        return [(graph_from_engine(engine, name, rf.external_inputs()),
                 (rf,))]
    if name == "dual_bank_hiperrf":
        dual = PulseDualBankHiPerRF(geometry)
        graphs = []
        for i, bank in enumerate(dual.banks):
            graphs.append((
                graph_from_engine(bank.engine, f"{name}.bank{i}",
                                  bank.external_inputs()),
                (bank,)))
        return graphs
    raise ConfigError(f"unknown design {name!r}; "
                      f"built-ins: {', '.join(BUILTIN_DESIGNS)}")


def check_schedule(name: str, geometry: RFGeometry) -> list[LintIssue]:
    """SFQ015/SFQ016 over the design's generated control schedule."""
    issues: list[LintIssue] = []
    scheduler = _SCHEDULERS[name]
    try:
        schedule: PortSchedule = scheduler(
            SAMPLE_STREAM, num_registers=geometry.num_registers)
    except ConfigError as exc:
        issues.append(make_issue("SFQ016", f"{name}.schedule", str(exc),
                                 design=name))
        return issues
    for event in schedule.events:
        if not 0 <= event.register < geometry.num_registers:
            issues.append(make_issue(
                "SFQ016", f"{name}.schedule",
                f"event {event} addresses r{event.register} outside "
                f"geometry {geometry.label()}", design=name))
    try:
        schedule.validate()
    except TimingViolationError as exc:
        issues.append(make_issue("SFQ015", f"{name}.schedule", str(exc),
                                 design=name))
    return issues


def lint_design(name: str, geometry: RFGeometry | None = None,
                config: LintConfig | None = None,
                budgets: bool = True) -> LintReport:
    """Every static check for one built-in design."""
    geometry = geometry or DEFAULT_GEOMETRY
    report = LintReport()
    for graph, objects in pulse_graphs(name, geometry):
        report.merge(lint_graph(graph, config, source_objects=objects))
    if budgets:
        for paper_geometry in PAPER_GEOMETRIES:
            design = design_for(name, paper_geometry)
            report.extend(check_budget(design, config))
            report.analysed.append(f"{name}[{paper_geometry.label()}]")
    report.extend(check_schedule(name, geometry))
    return report


def lint_all(names: tuple[str, ...] = BUILTIN_DESIGNS,
             geometry: RFGeometry | None = None,
             config: LintConfig | None = None,
             budgets: bool = True) -> LintReport:
    """The CI gate: lint every requested built-in design."""
    report = LintReport()
    for name in names:
        report.merge(lint_design(name, geometry, config, budgets=budgets))
    return report
