"""Register file designs from the HiPerRF paper.

Three designs are modelled, each as a structural netlist census over the
:mod:`repro.cells` library plus a critical-path timing model:

* :class:`NdroRegisterFile` - the clock-less NDRO baseline (Section III).
* :class:`HiPerRF` - HC-DRO storage with a LoopBuffer (Section IV).
* :class:`DualBankHiPerRF` - the parity-banked variant (Section V), the
  two-bank case of :class:`~repro.rf.multibank.MultiBankHiPerRF`.

Each design answers the paper's evaluation questions directly:
``jj_count()`` (Table I), ``static_power_uw()`` (Table II),
``readout_delay_ps()`` (Table III) and, through :mod:`repro.rf.wiring`,
the wire-aware delays of Table IV and the placement study of Figure 15.
It also owns its static port schedule: ``issue_cycles(sources)`` and
``read_slots(sources)`` (Figures 8, 11 and 12, in RF cycles), which the
CPU timing model charges.  :func:`design_for` resolves every design name,
including the ``hiperrf_x<N>`` banking ladder; :data:`PAPER_DESIGNS`
lists the paper's three.
"""

from repro.rf.geometry import RFGeometry
from repro.rf.census import ComponentCensus
from repro.rf.base import DesignComparison, RegisterFileDesign, compare_designs
from repro.rf.ndro_rf import NdroRegisterFile
from repro.rf.hiperrf import HiPerRF
from repro.rf.multibank import DualBankHiPerRF
from repro.rf.designs import PAPER_DESIGNS, design_for
from repro.rf.wiring import WireModel, placed_loopback_report, wire_aware_delays

__all__ = [
    "ComponentCensus",
    "DesignComparison",
    "DualBankHiPerRF",
    "HiPerRF",
    "NdroRegisterFile",
    "PAPER_DESIGNS",
    "RFGeometry",
    "RegisterFileDesign",
    "WireModel",
    "compare_designs",
    "design_for",
    "placed_loopback_report",
    "wire_aware_delays",
]
