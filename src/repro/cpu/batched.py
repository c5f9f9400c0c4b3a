"""Design lanes: one op tape replayed under several timing models.

The headline sweeps - Figure 14's design columns, the banking ladder,
the ablation policies, the service's design-union CPU groups - replay
the same tape under many ``(RFTimingModel, CoreConfig)`` combinations.
A *lane* is one such combination (memory latency rides on the config,
an optional stateful memory model on the lane).  :func:`replay_lanes`
replays every lane through the compiled
:func:`~repro.cpu.compiled.replay_tape`, in ascending lane order, so a
memory model shared by several lanes observes the same access-call
order a sequential sweep would produce.

Each flat-memory lane replays block by block from its own ``(block,
state)`` memo; the tape's segmentation into blocks is computed on the
first lane and shared by the rest (see :mod:`repro.cpu.compiled`).
There is deliberately no lane-vectorized kernel: callers pass 4 lanes
for Figure 14 and never more than 5, and at those counts the compiled
loop run once per lane already beat a NumPy kernel vectorized across
lanes before the memo (the kernel only broke even at about 8 lanes; see
the CPU replay section of ``docs/architecture.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.cpu.compiled import design_tables, replay_tape
from repro.cpu.config import CoreConfig
from repro.cpu.optape import OpTape
from repro.cpu.pipeline import PipelineResult
from repro.cpu.rf_model import RFTimingModel
from repro.errors import ExecutionError


@dataclass
class Lane:
    """One replay lane: a design plus its core configuration.

    ``memory_model`` (optional, stateful) is consulted per load/store in
    program order - see :func:`replay_lanes` for the lane order.
    """

    rf: RFTimingModel
    config: CoreConfig = field(default_factory=CoreConfig)
    memory_model: Optional[Any] = None


def lanes_for_designs(designs: Sequence[str],
                      config: Optional[CoreConfig] = None) -> List[Lane]:
    """Build one :class:`Lane` per design name under a shared config."""
    config = config or CoreConfig()
    return [Lane(RFTimingModel.for_design(name, config), config)
            for name in designs]


def resolve_lanes_tier() -> Tuple[str, Optional[int]]:
    """The path :func:`replay_lanes` takes, as ``(tier, lane_cap)``.

    Always ``("compiled", None)``: every lane replays on the compiled
    loop and no cap splits the lane set.  Kept so run reports can
    record the CPU path next to the pulse one
    (:func:`repro.pulse.batched.resolve_lanes_tier`).
    """
    return "compiled", None


def replay_lanes(tape: OpTape, lanes: Sequence[Lane]) -> List[PipelineResult]:
    """Replay one tape across ``lanes``; one result per lane, in order.

    Every lane is validated before the first replay, so a lane whose
    register file is too small for the tape raises an
    :class:`~repro.errors.ExecutionError` naming its index even when
    healthy lanes precede it.
    """
    for index, lane in enumerate(lanes):
        _validate_lane(tape, index, lane)
    # Timing tables are a stage of their own: building them all before
    # the first replay keeps their cost out of the replay loop (and out
    # of any span that times it); replay_tape then hits the table LRU.
    for lane in lanes:
        design_tables(tape, lane.rf)
    return [replay_tape(tape, lane.rf, lane.config,
                        memory_model=lane.memory_model)
            for lane in lanes]


def _validate_lane(tape: OpTape, index: int, lane: Lane) -> None:
    if tape.signature_count == 0:
        return
    top = max(int(tape.sig_srcs.max()), int(tape.sig_dest.max()))
    if top >= lane.config.num_registers:
        raise ExecutionError(
            f"lane {index} ({lane.rf.name}): tape addresses register "
            f"{top}, outside the {lane.config.num_registers}-register "
            "file")
