"""Run HC-DRO write/read programs on the RCSJ solvers.

Builds the pulse stimulus deck around the prebuilt HC-DRO cell netlist
and runs the transient - the analog analogue of the pulse-level drivers
in :mod:`repro.rf.netlist`.

:func:`run_hcdro_batch` is the one entry point.  Each
:class:`~repro.josim.sweep.HCDROConfig` describes one run, and every
lane's cell and stimulus deck is built the same way; the lane count
alone picks the solver those lanes go to.  Below
:data:`BATCHED_MIN_LANES` lanes each config runs alone on the scalar
:class:`~repro.josim.solver.TransientSolver`; from there on all of them
run as lanes of one :class:`~repro.josim.solver.BatchedTransientSolver`
transient.  The two solvers share one formulation, so the choice moves
speed only: either path gives bitwise the same trajectories.  Lanes may
differ in drive amplitudes, bias, pulse timing and total duration
(shorter programs retire early); they must agree on the write/read
counts and the timestep so every lane shares the batch topology
signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence

from repro.errors import SimulationError
from repro.josim.cells import CellHandles, build_hcdro_cell
from repro.josim.fluxon import junction_fluxons, loop_fluxons
from repro.josim.solver import (
    BatchedTransientSolver,
    TransientResult,
    TransientSolver,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.josim.sweep import HCDROConfig

#: Fewest lanes that run on the batched solver: the measured crossover
#: (scalar / batched ms per 3-write, 4-read group on a 2-vCPU host:
#: 677 / 759 at 3 lanes, 989 / 877 at 4; table in docs/architecture.md).
BATCHED_MIN_LANES = 4


@dataclass
class HCDRORunReport:
    """Outcome of one HC-DRO stimulus run."""

    result: TransientResult
    writes: int
    reads: int
    stored_after_writes: int
    stored_at_end: int
    output_pulses: int


def _stamp_stimulus(handles: CellHandles, writes: int, reads: int,
                    write_amplitude_ua: float, read_amplitude_ua: float,
                    pulse_width_ps: float, pulse_spacing_ps: float,
                    settle_ps: float) -> tuple:
    """Stamp the write/read pulse deck into a cell; return time marks.

    Shared by :func:`run_hcdro_batch` and the Monte Carlo tier so every
    lane gets a byte-identical stimulus deck.  Returns
    ``(read_start_ps, end_ps)``.
    """
    if writes < 0 or reads < 0:
        raise ValueError("writes and reads must be non-negative")
    circuit = handles.circuit
    t = 20.0
    for k in range(writes):
        circuit.pulse(f"TBW{k}", handles.input_node, start_ps=t,
                      amplitude_ua=write_amplitude_ua,
                      width_ps=pulse_width_ps)
        t += pulse_spacing_ps
    read_start = t + settle_ps
    for k in range(reads):
        circuit.pulse(f"TBR{k}", handles.clock_node,
                      start_ps=read_start + k * pulse_spacing_ps,
                      amplitude_ua=read_amplitude_ua,
                      width_ps=pulse_width_ps)
    end = read_start + reads * pulse_spacing_ps + settle_ps
    return read_start, end


def _reduce_report(result: TransientResult, handles: CellHandles,
                   writes: int, reads: int,
                   read_start_ps: float) -> HCDRORunReport:
    """Fluxon bookkeeping shared by every HC-DRO lane."""
    stored_mid = loop_fluxons(result, handles.input_jj, handles.output_jj,
                              at_ps=read_start_ps - 5.0)
    stored_end = loop_fluxons(result, handles.input_jj, handles.output_jj)
    out = junction_fluxons(result, "J3")
    return HCDRORunReport(
        result=result,
        writes=writes,
        reads=reads,
        stored_after_writes=stored_mid,
        stored_at_end=stored_end,
        output_pulses=out,
    )


def run_hcdro_batch(configs: Sequence["HCDROConfig"],
                    record_every: int = 1) -> List[HCDRORunReport]:
    """Run one HC-DRO transient per config; reports in config order.

    Every config must share the batch topology — the same ``writes``
    and ``reads`` pulse counts and the same ``timestep_ps`` (this is
    the grouping :func:`repro.josim.sweep.run_configs` performs).
    Amplitudes, bias, pulse width/spacing and settle time are per-lane
    data.  Below :data:`BATCHED_MIN_LANES` configs each runs alone on
    the scalar solver, in config order; from there on all of them run
    as lanes of one batched transient, where lanes whose stimulus
    program ends earlier retire early.  Both paths give bitwise the
    same reports; the lane count picks the faster one.

    A lane that fails to converge (or produces a singular Jacobian)
    raises :class:`SimulationError` naming the lane index and its
    config on either path, so a poisoned operating point in a margin
    grid is identifiable from the exception alone.

    >>> from repro.josim.sweep import HCDROConfig
    >>> report = run_hcdro_batch([HCDROConfig(writes=2, reads=3)])[0]
    >>> (report.stored_after_writes, report.output_pulses)
    (2, 2)
    """
    configs = list(configs)
    if not configs:
        return []
    head = configs[0]
    for lane, config in enumerate(configs):
        if (config.writes, config.reads) != (head.writes, head.reads):
            raise SimulationError(
                f"lane {lane} ({config!r}) has stimulus counts "
                f"(writes={config.writes}, reads={config.reads}) but the "
                f"batch topology is (writes={head.writes}, "
                f"reads={head.reads}); group configs by topology first")
        if config.timestep_ps != head.timestep_ps:
            raise SimulationError(
                f"lane {lane} ({config!r}) has timestep "
                f"{config.timestep_ps} ps but the batch runs at "
                f"{head.timestep_ps} ps")
    lanes = []
    for config in configs:
        handles = build_hcdro_cell(j2_bias_ua=config.j2_bias_ua)
        read_start, end = _stamp_stimulus(
            handles, config.writes, config.reads,
            write_amplitude_ua=config.write_amplitude_ua,
            read_amplitude_ua=config.read_amplitude_ua,
            pulse_width_ps=config.pulse_width_ps,
            pulse_spacing_ps=config.pulse_spacing_ps,
            settle_ps=config.settle_ps)
        lanes.append((handles, read_start, end))
    if len(configs) < BATCHED_MIN_LANES:
        results = []
        for lane, (config, (handles, _, end)) in enumerate(
                zip(configs, lanes)):
            try:
                results.append(TransientSolver(
                    handles.circuit, timestep_ps=config.timestep_ps).run(
                        end, record_every=record_every))
            except SimulationError as exc:
                raise SimulationError(
                    f"lane {lane} ({config!r}): {exc}") from exc
    else:
        solver = BatchedTransientSolver(
            [handles.circuit for handles, _, _ in lanes],
            timestep_ps=head.timestep_ps,
            labels=[repr(config) for config in configs])
        results = solver.run([end for _, _, end in lanes],
                             record_every=record_every)
    return [_reduce_report(result, handles, config.writes, config.reads,
                           read_start)
            for result, config, (handles, read_start, _)
            in zip(results, configs, lanes)]
