"""Gate-level-pipelined in-order CPU timing simulator.

The paper evaluates HiPerRF inside a modified RISC-V Sodor core simulated
at gate-level granularity: every SFQ gate is a pipeline stage, the gate
cycle is 28 ps (qPalace synthesis worst case), the execute block is 28
stages deep and each register file port operation spans two gate cycles
(the 53 ps NDROC limit).  This package reproduces that model:

* :class:`CoreConfig` - pipeline depths and latencies,
* :class:`RFTimingModel` - per-design register file timing derived from
  the analytic models in :mod:`repro.rf` (readout cycles, loopback
  cycles, static issue schedule, forwarding capability),
* :class:`GateLevelPipeline` - the reference timing engine consuming the
  functional executor's retirement stream (and the equivalence oracle
  for the compiled replay),
* :class:`OpTape` / :mod:`repro.cpu.compiled` - the retirement stream
  written once into packed arrays by a pre-decoded interpreter
  (:meth:`OpTape.from_program`, checked against the functional executor
  lowered by :meth:`OpTape.from_ops`) and replayed per design with
  precomputed timing tables,
* :class:`Lane` / :mod:`repro.cpu.batched` - one tape replayed across a
  design set, one compiled replay per lane in lane order,
* :func:`tape_for_program` - one tape per program digest, persisted as
  an entry of the experiments' result cache, so reruns of the CPI
  sweeps skip the functional pass,
* :class:`CpuSimulator` - program in, :class:`CpiReport` out.
"""

from repro.cpu.config import CoreConfig
from repro.cpu.rf_model import RF_DESIGN_NAMES, RFTimingModel
from repro.cpu.pipeline import GateLevelPipeline, StallBreakdown
from repro.cpu.optape import OpTape, tape_for_program
from repro.cpu.compiled import replay_tape
from repro.cpu.batched import (
    Lane,
    lanes_for_designs,
    replay_lanes,
    resolve_lanes_tier,
)
from repro.cpu.stats import CpiReport
from repro.cpu.simulator import CpuSimulator, simulate_program

__all__ = [
    "CoreConfig",
    "CpiReport",
    "CpuSimulator",
    "GateLevelPipeline",
    "Lane",
    "OpTape",
    "RFTimingModel",
    "RF_DESIGN_NAMES",
    "StallBreakdown",
    "lanes_for_designs",
    "replay_lanes",
    "replay_tape",
    "resolve_lanes_tier",
    "simulate_program",
    "tape_for_program",
]
