"""Event-driven pulse-level SFQ simulator.

SFQ logic computes with picosecond fluxon pulses, not voltage levels; this
package simulates netlists of behavioural SFQ primitives at pulse accuracy.
It is the reproduction's stand-in for the paper's Verilog functional and
timing verification:

* pulses are discrete events on a global picosecond timeline,
* an output pin can drive exactly one wire - fan-out needs an explicit
  :class:`Splitter`, shared pins need an explicit :class:`Merger`
  (Section II-F), and the engine enforces this,
* destructive readout, multi-fluxon storage, complementary NDRO routing
  and dynamic-AND coincidence windows follow the cell semantics of
  Section II.

The composite builders (:mod:`repro.pulse.hc_circuits`,
:mod:`repro.pulse.demux`) assemble Figure 10's HC-CLK / HC-WRITE / HC-READ
circuits and Figure 6(c)'s NDROC tree DEMUX from primitives, so the
structural census and the functional simulation share one topology.
"""

from repro.pulse.batched import (
    LaneOutcome,
    LaneStimulus,
    StimulusCapture,
    capture_stimulus,
    install_lane,
    run_lanes,
)
from repro.pulse.cache import CompiledNetlistCache
from repro.pulse.compiled import CompiledEngine, PulseSnapshot
from repro.pulse.engine import Component, Engine, Wire
from repro.pulse.monitor import Probe
from repro.pulse.primitives import DAND, JTL, PTL, Merger, Sink, Splitter
from repro.pulse.storage import DRO, HCDRO, NDRO, NDROC
from repro.pulse.counters import TFF, PulseCounter
from repro.pulse.hc_circuits import HCClk, HCRead, HCWrite
from repro.pulse.demux import NdrocDemux
from repro.pulse.splittree import MergeTree, SplitTree

__all__ = [
    "CompiledEngine",
    "CompiledNetlistCache",
    "Component",
    "DAND",
    "DRO",
    "Engine",
    "HCClk",
    "HCDRO",
    "HCRead",
    "HCWrite",
    "JTL",
    "LaneOutcome",
    "LaneStimulus",
    "MergeTree",
    "Merger",
    "NDRO",
    "NDROC",
    "NdrocDemux",
    "PTL",
    "Probe",
    "PulseCounter",
    "PulseSnapshot",
    "Sink",
    "SplitTree",
    "Splitter",
    "StimulusCapture",
    "TFF",
    "Wire",
    "capture_stimulus",
    "install_lane",
    "run_lanes",
]
