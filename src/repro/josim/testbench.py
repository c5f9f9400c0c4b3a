"""Testbench driver for analog cell simulations.

Builds pulse stimulus decks around the prebuilt cell netlists and runs
the transient solver - the analog analogue of the pulse-level drivers in
:mod:`repro.rf.netlist`.

Two entry points share one stimulus-deck builder:

* :meth:`HCDROTestbench.run` - one cell, one transient (the compiled
  scalar solver).
* :func:`run_hcdro_batch` - many same-topology ``(write, read, bias)``
  programs, and the only place that picks an RCSJ solver path: the
  lane count alone decides.  Below :data:`BATCHED_MIN_LANES` lanes each
  config runs through :meth:`HCDROTestbench.run`; from there on all of
  them run as lanes of one
  :class:`~repro.josim.solver.BatchedTransientSolver` transient.  Lanes
  may differ in drive amplitudes, bias, pulse timing and total
  duration (shorter programs retire early); they must agree on the
  write/read counts and the timestep so every lane shares the batch
  topology signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.errors import SimulationError
from repro.josim.cells import (
    CellHandles,
    RECOMMENDED_J2_BIAS_UA,
    RECOMMENDED_PULSE_WIDTH_PS,
    RECOMMENDED_READ_PULSE_UA,
    RECOMMENDED_WRITE_PULSE_UA,
    build_hcdro_cell,
)
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

    @property
    def popped(self) -> int:
        """Fluxons that left the cell during the read phase."""
        return self.stored_after_writes - self.stored_at_end


def _stamp_stimulus(handles: CellHandles, writes: int, reads: int,
                    write_amplitude_ua: float, read_amplitude_ua: float,
                    pulse_width_ps: float, pulse_spacing_ps: float,
                    settle_ps: float) -> tuple:
    """Stamp the write/read pulse deck into a cell; return time marks.

    Shared by the scalar and batched entry points so both drive
    byte-identical stimulus decks.  Returns ``(read_start_ps, end_ps)``.
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
    """Fluxon bookkeeping shared by the scalar and batched drivers."""
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


class HCDROTestbench:
    """Drive an HC-DRO cell with write/read pulse sequences.

    >>> report = HCDROTestbench().run(writes=2, reads=3)
    >>> (report.stored_after_writes, report.output_pulses)
    (2, 2)
    """

    def __init__(self, handles: Optional[CellHandles] = None,
                 write_amplitude_ua: float = RECOMMENDED_WRITE_PULSE_UA,
                 read_amplitude_ua: float = RECOMMENDED_READ_PULSE_UA,
                 pulse_width_ps: float = RECOMMENDED_PULSE_WIDTH_PS,
                 pulse_spacing_ps: float = 25.0,
                 timestep_ps: float = 0.05) -> None:
        self.handles = handles or build_hcdro_cell(
            j2_bias_ua=RECOMMENDED_J2_BIAS_UA)
        self.write_amplitude_ua = write_amplitude_ua
        self.read_amplitude_ua = read_amplitude_ua
        self.pulse_width_ps = pulse_width_ps
        self.pulse_spacing_ps = pulse_spacing_ps
        self.timestep_ps = timestep_ps
        self._consumed = False

    def run(self, writes: int = 0, reads: int = 0,
            settle_ps: float = 30.0, record_every: int = 1) -> HCDRORunReport:
        """Apply ``writes`` D pulses then ``reads`` CLK pulses.

        A testbench owns its cell netlist and stamps the stimulus deck
        into it, so each instance drives exactly one transient; build a
        fresh testbench (or go through :mod:`repro.josim.sweep`) for the
        next operating point.
        """
        if self._consumed:
            raise SimulationError(
                "testbench already ran; its circuit now contains the "
                "previous stimulus deck - build a new HCDROTestbench")
        read_start, end = _stamp_stimulus(
            self.handles, writes, reads,
            write_amplitude_ua=self.write_amplitude_ua,
            read_amplitude_ua=self.read_amplitude_ua,
            pulse_width_ps=self.pulse_width_ps,
            pulse_spacing_ps=self.pulse_spacing_ps,
            settle_ps=settle_ps)
        self._consumed = True
        solver = TransientSolver(self.handles.circuit,
                                 timestep_ps=self.timestep_ps)
        result = solver.run(end, record_every=record_every)
        return _reduce_report(result, self.handles, writes, reads,
                              read_start)


def _run_scalar(lane: int, config: "HCDROConfig",
                record_every: int) -> HCDRORunReport:
    """One config through :meth:`HCDROTestbench.run`; errors name the lane."""
    bench = HCDROTestbench(
        handles=build_hcdro_cell(j2_bias_ua=config.j2_bias_ua),
        write_amplitude_ua=config.write_amplitude_ua,
        read_amplitude_ua=config.read_amplitude_ua,
        pulse_width_ps=config.pulse_width_ps,
        pulse_spacing_ps=config.pulse_spacing_ps,
        timestep_ps=config.timestep_ps)
    try:
        return bench.run(writes=config.writes, reads=config.reads,
                         settle_ps=config.settle_ps,
                         record_every=record_every)
    except SimulationError as exc:
        raise SimulationError(f"lane {lane} ({config!r}): {exc}") from exc


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
    program ends earlier retire early.

    A lane that fails to converge (or produces a singular Jacobian)
    raises :class:`SimulationError` naming the lane index and its
    config on either path, so a poisoned operating point in a margin
    grid is identifiable from the exception alone.
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
    if len(configs) < BATCHED_MIN_LANES:
        return [_run_scalar(lane, config, record_every)
                for lane, config in enumerate(configs)]
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

