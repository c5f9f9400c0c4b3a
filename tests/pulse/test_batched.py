"""Cross-path equivalence: reference vs sequential vs batched lanes.

Every scenario drives the *same* per-lane program three ways:

* live on a fresh reference engine (one engine per lane - the ground
  truth),
* as captured stimulus lanes through ``run_lanes_sequential``
  (snapshot/restore replay on the compiled engine),
* as the same lanes through ``run_lanes_batched`` (one shared
  vectorized event wheel).

Both lane paths are called directly, so each is checked at every lane
count whatever ``run_lanes`` would pick.  They must agree on
*everything*, per lane: error type and text, delivered-event count,
final clock, the full delivery trace (order, not just content), probe
pulse times and component state.  Lane counts cover L in {1, 2, 7, 64},
lanes retire unevenly, and strict-timing faults, same-instant pulse
pairs and per-lane ``max_events`` exhaustion hit only some lanes of a
batch.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.pulse import (
    DRO,
    Engine,
    HCDRO,
    JTL,
    NDROC,
    TFF,
    Probe,
    SplitTree,
    capture_stimulus,
    install_lane,
    run_lanes,
)
from repro.pulse import batched
from repro.pulse.batched import run_lanes_batched, run_lanes_sequential
from repro.pulse.demux import NdrocDemux
from repro.pulse.logic import ClockedAnd
from repro.rf.geometry import RFGeometry
from repro.rf.netlist import PulseHiPerRF, PulseNdroRF

LANE_COUNTS = (1, 2, 7, 64)


# -- harness ------------------------------------------------------------


def _reference_outcome(build, program, lane: int, strict: bool):
    engine = Engine(strict_timing=strict)
    handle = build(engine)
    engine.trace = []
    error = None
    try:
        program(engine, handle, lane)
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        error = (type(exc).__name__, str(exc))
    probes = {name: list(comp.times_ps)
              for name, comp in engine._components.items()
              if isinstance(comp, Probe)}
    return {
        "error": error,
        "trace": list(engine.trace),
        "delivered": engine.total_delivered,
        "now_ps": engine.now_ps,
        "probes": probes,
    }


def capture_lanes(engine, handle, program, lanes: int) -> list:
    stimuli = []
    for lane in range(lanes):
        with capture_stimulus(engine) as capture:
            program(engine, handle, lane)
        stimuli.append(capture.stimulus())
    return stimuli


def assert_tiers_match(build, program, lanes: int,
                       strict: bool = True) -> list:
    """Run ``lanes`` lanes of one scenario three ways and compare."""
    references = [_reference_outcome(build, program, lane, strict)
                  for lane in range(lanes)]

    engine = Engine(strict_timing=strict)
    handle = build(engine)
    compiled = engine.compile()
    stimuli = capture_lanes(engine, handle, program, lanes)

    sequential = run_lanes_sequential(compiled, stimuli, trace=True)
    wheel = run_lanes_batched(compiled, stimuli, trace=True)

    # Batched vs sequential: full LaneOutcome equality (state columns,
    # pending events, probes, traces, errors - everything).
    assert wheel == sequential
    # run_lanes picks one of the two by lane count; same answer.
    assert run_lanes(compiled, stimuli, trace=True) == sequential

    # Both lane paths vs the per-lane reference ground truth.
    for reference, outcome in zip(references, wheel):
        assert outcome.error == reference["error"]
        assert outcome.delivered == reference["delivered"]
        assert outcome.now_ps == reference["now_ps"]
        assert outcome.trace == reference["trace"]
        install_lane(compiled, outcome)
        lane_probes = {name: list(comp.times_ps)
                       for name, comp in engine._components.items()
                       if isinstance(comp, Probe)}
        assert lane_probes == reference["probes"]
    return wheel


# -- netlist builders and per-lane programs -----------------------------


def build_jtl_chain(engine):
    stages = [engine.add(JTL(f"j{i}", delay_ps=1.5 + 0.25 * (i % 3)))
              for i in range(20)]
    for a, b in zip(stages, stages[1:]):
        a.connect("out", b, "in", delay_ps=0.5)
    probe = engine.add(Probe("end"))
    stages[-1].connect("out", probe, "in")
    return stages[0], probe


def program_jtl(engine, handle, lane):
    """Lane k injects k+1 pulses: every lane retires at a different time."""
    head, _ = handle
    for i in range(lane + 1):
        engine.schedule(head, "in", 10.0 + 7.0 * i)
    engine.run()


def build_dro_column(engine):
    cells = [engine.add(DRO(f"col.c{i}")) for i in range(8)]
    data_tree = SplitTree(engine, "col.data", 8)
    clk_tree = SplitTree(engine, "col.clk", 8)
    for i, cell in enumerate(cells):
        comp, port = data_tree.outputs[i]
        comp.connect(port, cell, "d", delay_ps=1.0)
        comp, port = clk_tree.outputs[i]
        comp.connect(port, cell, "clk", delay_ps=1.0)
        probe = engine.add(Probe(f"col.p{i}"))
        cell.connect("q", probe, "in")
    return data_tree, clk_tree


def program_dro_column(engine, handle, lane):
    data_tree, clk_tree = handle
    t = 10.0
    for _ in range(1 + lane % 5):  # store/read round count varies per lane
        engine.schedule(*data_tree.inp, t)
        engine.schedule(*clk_tree.inp, t + 40.0)
        t += 100.0
    engine.run(until_ps=t)


def build_hcdro(engine):
    cell = engine.add(HCDRO("hc"))
    probe = engine.add(Probe("out"))
    cell.connect("q", probe, "in", delay_ps=1.0)
    return cell, probe


def program_hcdro(engine, handle, lane):
    """Store (lane % 4) fluxons, then read four times."""
    cell, _ = handle
    spacing = cell.min_pulse_spacing_ps
    t = 10.0
    for _ in range(lane % 4):
        engine.schedule(cell, "d", t)
        t += spacing
    for _ in range(4):
        engine.schedule(cell, "clk", t)
        t += spacing
    engine.run()


def program_hcdro_faulty(engine, handle, lane):
    """Even lanes violate the HC-DRO pulse spacing; odd lanes are clean."""
    cell, _ = handle
    spacing = cell.min_pulse_spacing_ps
    engine.schedule(cell, "d", 10.0)
    if lane % 2 == 0:
        engine.schedule(cell, "d", 11.0)  # far too close: strict error
    else:
        engine.schedule(cell, "d", 10.0 + spacing)
        engine.schedule(cell, "clk", 10.0 + 2 * spacing)
    engine.run()


def build_demux(engine):
    demux = NdrocDemux(engine, "dx", 8)
    for leaf in range(8):
        probe = engine.add(Probe(f"leaf{leaf}"))
        comp, port = demux.leaf(leaf)
        comp.connect(port, probe, "in")
    return demux


def program_demux(engine, handle, lane):
    demux = handle
    t = 50.0
    for address in ((lane * 3 + i) % 8 for i in range(1 + lane % 3)):
        demux.apply_select(address, t)
        demux.fire(t + 30.0)
        demux.apply_reset(t + 120.0)
        t += 200.0
    engine.run()


def build_hiperrf(engine):
    return PulseHiPerRF(engine, RFGeometry(4, 8))


def program_hiperrf(engine, rf, lane):
    """Write a lane-dependent word, read it back restoringly."""
    register = lane % 4
    value = (0x35 + 0x49 * lane) & 0xFF
    t = rf.write_word(register, value, 0.0)
    settle = rf.schedule_read(register, t, loopback=True)
    rf._broadcast(rf.hcr_read_tree, settle + 5.0)
    rf._broadcast(rf.hcr_reset_tree, settle + 15.0)
    engine.run(until_ps=t + 2 * rf.op_period_ps)


def program_hiperrf_budget(engine, rf, lane):
    """Odd lanes exhaust a tiny per-lane event budget mid-flight."""
    rf.schedule_write(lane % 4, 0xA, 50.0)
    if lane % 2:
        engine.run(max_events=100)
    else:
        engine.run(until_ps=2 * rf.op_period_ps)


def build_ndrorf(engine):
    return PulseNdroRF(engine, RFGeometry(4, 8), 400.0)


def program_ndrorf(engine, rf, lane):
    register = lane % 4
    value = (0x1F * (lane + 1)) & 0xFF
    rf.schedule_write(register, value, 0.0)
    engine.run(until_ps=rf.op_period_ps)
    rf.read_word(register, rf.op_period_ps + 50.0)


def build_same_instant(engine):
    """An HC-DRO and an NDROC with zero-delay outputs, so a pulse they
    emit lands in the same instant's next generation."""
    hc = engine.add(HCDRO("hc", clk_to_q_ps=0.0))
    hc.connect("q", engine.add(Probe("hc.q")), "in")
    nd = engine.add(NDROC("nd", propagation_ps=0.0))
    nd.connect("out0", engine.add(Probe("nd.out0")), "in")
    nd.connect("out1", engine.add(Probe("nd.out1")), "in")
    return hc, nd


#: One burst pattern per lane (cycled): ``(cell, pin, offset_ps)``
#: pulses around the burst instant, and whether strict timing rejects
#: the lane.  HC-DRO ``d``+``d``/``clk``+``clk`` and NDROC ``clk``+``clk``
#: violate; the other same-instant pairs are legal but order-dependent.
#: In the ``nd clk, hc d, hc clk`` row both parts of the split wave emit
#: at the burst instant; in the row after it the part before the repeat
#: freezes the lane.
SAME_INSTANT_PATTERNS = (
    ((("hc", "d", 0.0), ("hc", "d", 0.0)), True),
    ((("hc", "clk", 0.0), ("hc", "clk", 0.0)), True),
    ((("hc", "d", 0.0), ("hc", "clk", 0.0)), False),
    ((("hc", "clk", 0.0), ("hc", "d", 0.0)), False),
    ((("nd", "clk", 0.0), ("nd", "clk", 0.0)), True),
    ((("nd", "reset", 0.0), ("nd", "set", 0.0)), False),
    ((("nd", "set", 0.0), ("nd", "reset", 0.0)), False),
    ((("hc", "d", 0.0), ("hc", "clk", 0.0), ("nd", "reset", 0.0),
      ("nd", "set", 0.0)), False),
    ((("nd", "clk", 0.0), ("hc", "d", 0.0), ("hc", "clk", 0.0)), False),
    ((("hc", "d", -5.0), ("hc", "d", 0.0), ("nd", "clk", 0.0),
      ("nd", "clk", 0.0)), True),
    ((), False),
)


def program_same_instant(engine, handle, lane):
    """Preload, fire one lane-dependent burst, then read both cells.

    Every third lane first fills the HC-DRO (3 fluxons), so its
    ``d``+``clk`` burst meets a full cell instead of an empty one.
    """
    hc, nd = handle
    cells = {"hc": hc, "nd": nd}
    spacing = hc.min_pulse_spacing_ps
    if lane % 3 == 2:
        for i in range(3):
            engine.schedule(hc, "d", 10.0 + i * spacing)
    burst = 200.0
    pulses, _ = SAME_INSTANT_PATTERNS[lane % len(SAME_INSTANT_PATTERNS)]
    for name, port, offset in pulses:
        engine.schedule(cells[name], port, burst + offset)
    engine.schedule(nd, "clk", burst + 100.0)
    engine.schedule(hc, "clk", burst + 100.0)
    engine.run()


SCENARIOS = {
    "jtl_chain": (build_jtl_chain, program_jtl, True),
    "dro_column": (build_dro_column, program_dro_column, True),
    "hcdro": (build_hcdro, program_hcdro, True),
    "demux": (build_demux, program_demux, True),
    "hiperrf": (build_hiperrf, program_hiperrf, True),
    "ndro_rf": (build_ndrorf, program_ndrorf, True),
}


# -- the suite ----------------------------------------------------------


class TestCrossTierEquivalence:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("lanes", LANE_COUNTS)
    def test_all_netlists_all_lane_counts(self, name, lanes):
        build, program, strict = SCENARIOS[name]
        if lanes == 64 and name in ("hiperrf", "ndro_rf"):
            pytest.skip("64 reference builds of a full RF are too slow "
                        "for tier-1; covered at L<=7")
        assert_tiers_match(build, program, lanes, strict)

    @pytest.mark.parametrize("lanes", (2, 7))
    def test_strict_timing_faults_per_lane(self, lanes):
        outcomes = assert_tiers_match(build_hcdro, program_hcdro_faulty,
                                      lanes)
        for outcome in outcomes:
            if outcome.lane % 2 == 0:
                assert outcome.error is not None
                assert outcome.error[0] == "TimingViolationError"
                assert "1.00 ps apart" in outcome.error[1]
            else:
                assert outcome.error is None

    def test_lenient_mode_dissipates_identically(self):
        outcomes = assert_tiers_match(build_hcdro, program_hcdro_faulty,
                                      4, strict=False)
        assert all(outcome.error is None for outcome in outcomes)

    @pytest.mark.parametrize("lanes", (2, 7))
    def test_max_events_exhaustion_per_lane(self, lanes):
        outcomes = assert_tiers_match(build_hiperrf,
                                      program_hiperrf_budget, lanes)
        for outcome in outcomes:
            if outcome.lane % 2:
                assert outcome.error is not None
                assert outcome.error[0] == "SimulationError"
                assert outcome.delivered == 100
            else:
                assert outcome.error is None


class TestStrictDuplicateSplit:
    """A strict wave that delivers twice to one NDROC or HC-DRO is cut
    before the repeat and run as consecutive waves at one instant."""

    @pytest.mark.parametrize("lanes", LANE_COUNTS)
    def test_same_instant_pairs_match_oracles(self, lanes):
        outcomes = assert_tiers_match(build_same_instant,
                                      program_same_instant, lanes)
        for outcome in outcomes:
            _, violates = SAME_INSTANT_PATTERNS[
                outcome.lane % len(SAME_INSTANT_PATTERNS)]
            if violates:
                assert outcome.error is not None
                assert outcome.error[0] == "TimingViolationError"
            else:
                assert outcome.error is None

    def test_lenient_mode_same_instant_pairs(self):
        outcomes = assert_tiers_match(build_same_instant,
                                      program_same_instant, 22,
                                      strict=False)
        assert all(outcome.error is None for outcome in outcomes)


def build_unbatchable(engine):
    """An HC-DRO plus a TFF and a clocked AND: no vector kernel."""
    cell, probe = build_hcdro(engine)
    engine.add(TFF("tff"))
    engine.add(ClockedAnd("and"))
    return cell, probe


class TestTierSelection:
    def test_lane_count_picks_path(self, monkeypatch):
        """Sequential below BATCHED_MIN_LANES, the wheel at it, and
        sequential at any lane count when a cell has no vector kernel."""
        calls = []
        for name in ("run_lanes_batched", "run_lanes_sequential"):
            real = getattr(batched, name)

            def spy(compiled, stimuli, trace=False, _real=real,
                    _name=name):
                calls.append((_name, len(stimuli)))
                return _real(compiled, stimuli, trace)

            monkeypatch.setattr(batched, name, spy)
        threshold = batched.BATCHED_MIN_LANES
        for build, lanes, expected in (
                (build_hcdro, threshold - 1, "run_lanes_sequential"),
                (build_hcdro, threshold, "run_lanes_batched"),
                (build_unbatchable, threshold, "run_lanes_sequential"),
                (build_unbatchable, 4 * threshold, "run_lanes_sequential")):
            engine = Engine(strict_timing=True)
            handle = build(engine)
            compiled = engine.compile()
            stimuli = capture_lanes(engine, handle, program_hcdro, lanes)
            calls.clear()
            outcomes = run_lanes(compiled, stimuli)
            assert calls == [(expected, lanes)]
            assert len(outcomes) == lanes
        with pytest.raises(SimulationError, match="no vector kernel"):
            run_lanes_batched(compiled, stimuli)

    def test_on_error_raise_carries_lane_index(self, monkeypatch):
        engine = Engine(strict_timing=True)
        handle = build_hcdro(engine)
        compiled = engine.compile()
        stimuli = capture_lanes(engine, handle, program_hcdro_faulty, 3)
        for threshold in (1, len(stimuli) + 1):  # wheel, then sequential
            monkeypatch.setattr(batched, "BATCHED_MIN_LANES", threshold)
            with pytest.raises(Exception, match="lane 0:"):
                run_lanes(compiled, stimuli, on_error="raise")
