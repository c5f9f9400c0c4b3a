"""Figure 15: the placed-and-routed loopback path is short.

The paper's placement shows the longest LoopBack-path wire at 4.6 ps -
far below the 53 ps decoder latency - so loopback wiring never limits
the design.  We reproduce the claim with the grid placer in
:mod:`repro.rf.wiring`.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments import paper_data
from repro.experiments.parallel import CacheLike, cached_call
from repro.experiments.report import ComparisonRow, format_table
from repro.rf import HiPerRF, RFGeometry, placed_loopback_report
from repro.rf.wiring import place_loopback_segments


#: Cache namespace of loopback reports; service ``figure15`` items share it.
NAMESPACE = "figure15-v1"


def report_key(cell_pitch_um: float) -> Dict[str, float]:
    """The :data:`NAMESPACE` key of one loopback report."""
    return {"cell_pitch_um": cell_pitch_um}


def loopback_report(cell_pitch_um: float = 75.0) -> Dict[str, float]:
    """The placed loopback path of the paper's 32x32 HiPerRF, uncached."""
    return placed_loopback_report(HiPerRF(RFGeometry(32, 32)),
                                  cell_pitch_um=cell_pitch_um)


def run(cell_pitch_um: float = 75.0,
        cache: CacheLike = None) -> Dict[str, float]:
    return cached_call(NAMESPACE, report_key(cell_pitch_um),
                       lambda: loopback_report(cell_pitch_um), cache=cache)


def loopback_read_sweep(read_counts: List[int] | None = None
                        ) -> List[Dict[str, float]]:
    """Pulse-level companion: the placed loopback path survives N reads.

    Figure 15's claim is geometric (the loopback wire is short); the
    functional counterpart is that the recycled pulses keep restoring
    the register read after read.  Each lane performs one write followed
    by ``k`` consecutive restoring reads of the same register on the
    pulse-level netlist, replayed as lanes over the cached build; a lane
    passes if every read returned the value and the register still
    holds it.
    """
    from repro.pulse import capture_stimulus, install_lane
    from repro.rf.netlist import PulseHiPerRF

    counts = read_counts if read_counts is not None else list(range(1, 17))
    value = 0xE4
    register = 1
    rf = PulseHiPerRF.build_cached(RFGeometry(4, 8), 600.0)
    engine = rf.engine
    stimuli = []
    settles = []
    for k in counts:
        with capture_stimulus(engine) as capture:
            t = rf.write_word(register, value, 0.0)
            lane_settles = []
            for _ in range(k):
                lane_settles.append(rf.probed_read(register, t))
                t += 2 * rf.op_period_ps
        stimuli.append(capture.stimulus())
        settles.append(lane_settles)
    outcomes = engine.run_lanes(stimuli, on_error="raise")
    compiled = engine.compile()
    rows = []
    for k, lane_settles, outcome in zip(counts, settles, outcomes):
        install_lane(compiled, outcome)
        reads_ok = all(rf.probe_word(settle) == value
                       for settle in lane_settles)
        restored = rf.stored_word(register) == value
        rows.append({"reads": float(k),
                     "reads_ok": float(reads_ok),
                     "restored": float(restored)})
    return rows


def render(result: Dict[str, float] | None = None) -> str:
    result = result or run()
    rows = [
        ComparisonRow("longest loopback wire delay",
                      result["longest_wire_delay_ps"],
                      paper_data.FIGURE15_LONGEST_LOOPBACK_WIRE_PS, unit="ps"),
        ComparisonRow("decoder latency (dominates)",
                      result["decoder_latency_ps"], 53.0, unit="ps"),
        ComparisonRow("margin below decoder latency",
                      result["margin_ps"], unit="ps"),
        ComparisonRow("total loopback wire delay",
                      result["total_loopback_wire_ps"], unit="ps"),
    ]
    lines = [format_table("Figure 15: placed loopback path study", rows,
                          precision=1)]
    lines.append("\nPlaced loopback segments (column 0):")
    for segment in place_loopback_segments(HiPerRF(RFGeometry(32, 32))):
        lines.append(f"  {segment.source:22s} -> {segment.sink:22s} "
                     f"{segment.length_um:7.1f} um  {segment.delay_ps:5.2f} ps")
    return "\n".join(lines)


if __name__ == "__main__":
    print(render())
