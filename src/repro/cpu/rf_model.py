"""Per-design register file timing as seen by the CPU pipeline.

Derives gate-cycle timing from the design objects of :mod:`repro.rf`,
resolved by name through :func:`repro.rf.design_for`: their analytic
delays (with PTL wire delays on request, Section VI-C) and their static
port schedules (Figures 8, 11 and 12):

* ``issue_gap`` - RF-port cycles an instruction occupies before the next
  may issue (the design's ``issue_cycles``),
* ``read_slot`` - when each source's read enable fires relative to issue
  (the design's ``read_slots``),
* ``readout_cycles`` - read enable to data-at-ALU latency (Table IV),
* ``loopback_cycles`` - extra time a register stays unreadable after a
  read while the loopback write restores it (HiPerRF designs only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence, Tuple

from repro.cells import params as cell_params
from repro.cpu.config import CoreConfig
from repro.rf import (
    RegisterFileDesign,
    RFGeometry,
    design_for,
    wire_aware_delays,
)

RF_DESIGN_NAMES = ("ndro_rf", "hiperrf", "dual_bank_hiperrf",
                   "dual_bank_hiperrf_ideal")

#: Extra ablation variant: every two-source pair treated as same-bank
#: (the anti-ideal bound on the static banking policy).
ABLATION_DESIGN_NAMES = RF_DESIGN_NAMES + ("dual_bank_hiperrf_worst",)


@dataclass(frozen=True)
class RFTimingModel:
    """Gate-cycle register file timing for one design."""

    name: str
    readout_cycles: int
    loopback_cycles: int
    rf_cycle_gates: int
    #: The design whose port schedule the model charges.  It stays out of
    #: equality and hashing: the name and the numbers identify a model.
    design: RegisterFileDesign = field(compare=False, repr=False)

    @classmethod
    def for_design(cls, name: str, config: CoreConfig | None = None,
                   geometry: RFGeometry | None = None,
                   include_wire_delays: bool = False) -> "RFTimingModel":
        """Build the timing model for a named design (32x32 by default).

        The paper translates the Table III readout delays (without PTL
        parasitics) into gate cycles for the CPI study and bounds the
        wire contribution separately at ~1 % (Section VI-C); pass
        ``include_wire_delays=True`` to use the Table IV delays instead.
        """
        config = config or CoreConfig()
        geometry = geometry or RFGeometry(32, 32)
        # Every argument is hashable (name + two frozen dataclasses), the
        # result is itself frozen, and the sweeps construct the same
        # handful of models thousands of times - memoise.
        return _timing_model(name, config, geometry, include_wire_delays)

    # -- static schedule ---------------------------------------------------

    def issue_gap_gates(self, sources: Sequence[int],
                        dest: Optional[int]) -> int:
        """Gate cycles the instruction occupies the RF ports."""
        return self.design.issue_cycles(sources) * self.rf_cycle_gates

    def read_slots_gates(self, sources: Sequence[int]) -> Tuple[int, ...]:
        """Read-enable offsets (gate cycles after issue) for each unique source."""
        g = self.rf_cycle_gates
        return tuple(slot * g for slot in self.design.read_slots(sources))

    @property
    def has_loopback(self) -> bool:
        return self.loopback_cycles > 0

    def loopback_busy_gates(self) -> int:
        """Gate cycles a just-read register stays unreadable.

        The loopback write occupies the port cycle after the read
        (Figure 11) and its pulses land ``loopback_cycles`` later.
        """
        if not self.has_loopback:
            return 0
        return 2 * self.rf_cycle_gates + self.loopback_cycles


@lru_cache(maxsize=None)
def _timing_model(name: str, config: CoreConfig, geometry: RFGeometry,
                  include_wire_delays: bool) -> RFTimingModel:
    """Memoised :meth:`RFTimingModel.for_design` body.

    The CPI sweeps replay every workload against every design, building
    the same model thousands of times; the arguments are frozen
    dataclasses and the result is frozen, so one shared instance per
    distinct configuration is safe.
    """
    design = design_for(name, geometry)
    if include_wire_delays:
        delays = wire_aware_delays(design)
        readout_ps = delays.readout_delay_ps
        loopback_ps = delays.loopback_delay_ps
    else:
        readout_ps = design.readout_delay_ps()
        loopback = design.loopback_path()
        loopback_ps = loopback.delay_ps() if loopback is not None else None
    # The access ports advance in 53 ps RF cycles ("each read or write
    # operation takes two [gate] cycles"), so the readout latency the
    # pipeline observes is quantized in whole port cycles.
    readout_port_cycles = math.ceil(
        readout_ps / cell_params.RF_CYCLE_PS - 1e-9)
    readout = readout_port_cycles * config.rf_cycle_gates
    loopback_cycles = 0
    if loopback_ps is not None:
        loopback_cycles = config.ps_to_gate_cycles(loopback_ps)
    return RFTimingModel(
        name=name,
        readout_cycles=readout,
        loopback_cycles=loopback_cycles,
        rf_cycle_gates=config.rf_cycle_gates,
        design=design,
    )
