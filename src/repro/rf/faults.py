"""Pulse-level fault injection: how fragile is each register file?

SFQ state is a handful of fluxons; a single lost or spurious pulse is a
soft error.  The two designs fail differently:

* the NDRO baseline holds state statically - a lost *enable* pulse makes
  one access misbehave but leaves the stored data intact;
* HiPerRF recycles state through the LoopBuffer on *every read* - a lost
  loopback pulse permanently corrupts the register (the value literally
  left the cell and never came back).

This module injects single-pulse faults into the pulse netlists and
measures the architectural outcome, quantifying the reliability cost of
the destructive-readout design that the paper's density win buys.

Every fault is expressed as *stimulus only* - extra SET/RESET/data
pulses scheduled on netlist pins, never a patched ``on_pulse`` - so a
trial records cleanly with :func:`repro.pulse.capture_stimulus` and
replays identically on the reference engine and as a compiled lane.
:func:`run_hiperrf_trials` dispatches a whole list of trials as one
lane set over a single cached build.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.rf.geometry import RFGeometry
from repro.rf.netlist import PulseHiPerRF, PulseNdroRF

_DEFAULT_GEOMETRY = RFGeometry(4, 8)
_HIPERRF_PERIOD_PS = 600.0
_NDRO_PERIOD_PS = 400.0


class FaultKind(enum.Enum):
    """Single-event fault models."""

    #: One fluxon of the loopback train is dissipated in flight
    #: (HiPerRF only: suppress one LoopBuffer output pulse).
    DROP_LOOPBACK_PULSE = "drop_loopback_pulse"
    #: A spurious extra pulse lands on a storage cell's data input.
    EXTRA_DATA_PULSE = "extra_data_pulse"
    #: The read-enable pulse is lost before reaching the DEMUX.
    DROP_READ_ENABLE = "drop_read_enable"


@dataclass(frozen=True)
class FaultTrial:
    """One (fault, register, column, value) HiPerRF injection trial."""

    fault: FaultKind
    register: int = 1
    column: int = 1
    value: int = 0xE4


@dataclass(frozen=True)
class FaultOutcome:
    """What a single injected fault did to one register."""

    design: str
    fault: FaultKind
    read_value: Optional[int]
    stored_after: int
    expected: int
    register: int = 1
    column: int = 1

    @property
    def state_corrupted(self) -> bool:
        return self.stored_after != self.expected

    @property
    def read_wrong(self) -> bool:
        return self.read_value is not None and self.read_value != self.expected


def _schedule_hiperrf_trial(rf: PulseHiPerRF,
                            trial: FaultTrial) -> Optional[float]:
    """Schedule one write/fault/read trial; returns the read settle time.

    Pure stimulus: runs unchanged live or under ``capture_stimulus``.
    ``None`` means the trial performs no read (DROP_READ_ENABLE).
    """
    engine = rf.engine
    t = rf.write_word(trial.register, trial.value, 0.0)

    if trial.fault is FaultKind.DROP_LOOPBACK_PULSE:
        settle = rf.schedule_read(trial.register, t, loopback=True)
        # Dissipate exactly the first readout pulse of the target column:
        # clear its LoopBuffer just before the pulse lands and re-arm it
        # before the next pulse of the train (HC_PULSE_SPACING_PS later).
        # An NDRO with stored=0 absorbs CLK silently, so the pulse
        # vanishes before the splitter - neither the loopback nor the
        # HC-READ branch ever sees it, exactly an in-flight loss.
        first = rf._loop_clk_arrival(t + 10.0)
        lb = rf.loopbuffer[trial.column]
        engine.schedule(lb, "reset", first - 2.0)
        engine.schedule(lb, "set", first + 2.0)
        read_t = t
    elif trial.fault is FaultKind.EXTRA_DATA_PULSE:
        cell = rf.cells[trial.register][trial.column]
        engine.schedule(cell, "d", t + 50.0)
        engine.run(until_ps=t + 100.0)
        read_t = t + 200.0
        settle = rf.schedule_read(trial.register, read_t, loopback=True)
    elif trial.fault is FaultKind.DROP_READ_ENABLE:
        # The enable never arrives: nothing is read, nothing changes.
        engine.run(until_ps=t + rf.op_period_ps)
        return None
    else:  # pragma: no cover
        raise ValueError(trial.fault)

    # Fire the HC-READ counters onto the b0/b1 probes so the read value
    # survives in the pulse record (a lane outcome cannot pause at the
    # settle time to decode the counters the way ``read_word`` does).
    rf.fire_readout(settle, read_t)
    return settle


def _hiperrf_outcome(rf: PulseHiPerRF, trial: FaultTrial,
                     settle: Optional[float]) -> FaultOutcome:
    read = None if settle is None else rf.probe_word(settle)
    return FaultOutcome(
        design="hiperrf",
        fault=trial.fault,
        read_value=read,
        stored_after=rf.stored_word(trial.register),
        expected=_expected_after(trial.fault, trial.value, trial.column),
        register=trial.register,
        column=trial.column,
    )


def run_hiperrf_trials(trials: Sequence[FaultTrial],
                       geometry: Optional[RFGeometry] = None
                       ) -> List[FaultOutcome]:
    """Dispatch many HiPerRF fault trials as one lane set.

    The netlist is built (or fetched) once through the compiled-netlist
    cache, and every trial replays as one stimulus lane of a single
    :meth:`~repro.rf.netlist.PulseHiPerRF.run_trials` sweep.
    """
    geom = geometry if geometry is not None else _DEFAULT_GEOMETRY
    return PulseHiPerRF.run_trials(geom, _HIPERRF_PERIOD_PS, trials,
                                   _schedule_hiperrf_trial, _hiperrf_outcome)


def inject_hiperrf_fault(fault: FaultKind, register: int = 1,
                         value: int = 0xE4,
                         column: Optional[int] = None) -> FaultOutcome:
    """Write, then read once with one injected fault; inspect the damage."""
    if column is None:
        # Historical defaults: drop the loopback of column 1, strike the
        # data input of column 0.
        column = 1 if fault is FaultKind.DROP_LOOPBACK_PULSE else 0
    trial = FaultTrial(fault, register, column, value)
    with PulseHiPerRF.checkout_cached(_DEFAULT_GEOMETRY,
                                      _HIPERRF_PERIOD_PS) as rf:
        settle = _schedule_hiperrf_trial(rf, trial)
        return _hiperrf_outcome(rf, trial, settle)


def inject_ndro_fault(fault: FaultKind, register: int = 1,
                      value: int = 0xE4) -> FaultOutcome:
    """The baseline under the same fault models (loopback N/A)."""
    with PulseNdroRF.checkout_cached(_DEFAULT_GEOMETRY,
                                     _NDRO_PERIOD_PS) as rf:
        engine = rf.engine
        rf.schedule_write(register, value, 0.0)
        engine.run(until_ps=rf.op_period_ps)
        t = rf.op_period_ps

        if fault is FaultKind.EXTRA_DATA_PULSE:
            # A spurious SET pulse on bit 0: NDRO absorbs it if already 1.
            cell = rf.cells[register][0]
            engine.schedule(cell, "set", t + 50.0)
            engine.run(until_ps=t + 100.0)
            read = rf.read_word(register, t + 200.0)
        elif fault is FaultKind.DROP_READ_ENABLE:
            engine.run(until_ps=t + rf.op_period_ps)
            read = None
        else:
            raise ValueError(f"{fault} does not apply to the NDRO baseline")

        return FaultOutcome(
            design="ndro_rf",
            fault=fault,
            read_value=read,
            stored_after=rf.stored_word(register),
            expected=_expected_after_ndro(fault, value),
            register=register,
            column=0,
        )


def _expected_after(fault: FaultKind, value: int, column: int = 0) -> int:
    if fault is FaultKind.EXTRA_DATA_PULSE:
        # The struck column gains one fluxon unless already saturated at 3.
        shift = 2 * column
        low = (value >> shift) & 0b11
        bumped = min(low + 1, 3)
        return (value & ~(0b11 << shift)) | (bumped << shift)
    return value


def _expected_after_ndro(fault: FaultKind, value: int) -> int:
    if fault is FaultKind.EXTRA_DATA_PULSE:
        return value | 1  # bit 0 forced to 1 (idempotent if already set)
    return value
