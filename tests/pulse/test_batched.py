"""Lane replay vs the reference engine, lane by lane.

Every scenario drives the *same* per-lane program two ways:

* live on a fresh reference engine (one engine per lane - the ground
  truth, ``Component.on_pulse`` per event),
* as captured stimulus lanes through ``run_lanes`` (snapshot/restore
  replay on the compiled engine, whose inlined handlers are the one
  fast definition of each cell).

They must agree on *everything*, per lane: error type and text,
delivered-event count, final clock, the full delivery trace (order, not
just content), probe pulse times and component state.  Lane counts
cover L in {1, 2, 7, 64}, lanes retire unevenly, and strict-timing
faults, same-instant pulse pairs and per-lane ``max_events`` exhaustion
hit only some lanes of a set.  A fixed-budget hypothesis test replays
random stimuli over every scenario netlist the same way.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TimingViolationError
from repro.pulse import (
    DAND,
    DRO,
    Engine,
    HCDRO,
    JTL,
    NDRO,
    NDROC,
    TFF,
    LaneStimulus,
    Merger,
    Probe,
    PulseCounter,
    Sink,
    Splitter,
    SplitTree,
    capture_stimulus,
    install_lane,
    run_lanes,
)
from repro.pulse.batched import resolve_lanes_tier
from repro.pulse.demux import NdrocDemux
from repro.pulse.logic import (
    ClockedAnd,
    ClockedBuffer,
    ClockedNot,
    ClockedOr,
    ClockedXor,
)
from repro.rf.geometry import RFGeometry
from repro.rf.netlist import PulseHiPerRF, PulseNdroRF

LANE_COUNTS = (1, 2, 7, 64)


# -- harness ------------------------------------------------------------


def component_state(engine) -> dict:
    """Every component's attributes (probe times included) except its
    wiring, keyed by component name."""
    return {name: {key: value for key, value in vars(comp).items()
                   if key not in ("engine", "_wires")}
            for name, comp in engine._components.items()}


def _reference_outcome(build, program, lane: int, strict: bool):
    engine = Engine(strict_timing=strict)
    handle = build(engine)
    engine.trace = []
    error = None
    try:
        program(engine, handle, lane)
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        error = (type(exc).__name__, str(exc))
    return {
        "error": error,
        "trace": list(engine.trace),
        "delivered": engine.total_delivered,
        "now_ps": engine.now_ps,
        "state": component_state(engine),
    }


def capture_lanes(engine, handle, program, lanes: int) -> list:
    stimuli = []
    for lane in range(lanes):
        with capture_stimulus(engine) as capture:
            program(engine, handle, lane)
        stimuli.append(capture.stimulus())
    return stimuli


def assert_lanes_match(compiled, outcomes, references) -> None:
    """``run_lanes`` outcomes vs per-lane reference runs, field by field."""
    assert [outcome.lane for outcome in outcomes] == \
        list(range(len(references)))
    for reference, outcome in zip(references, outcomes):
        assert outcome.error == reference["error"]
        assert outcome.delivered == reference["delivered"]
        assert outcome.now_ps == reference["now_ps"]
        assert outcome.trace == reference["trace"]
        install_lane(compiled, outcome)
        assert component_state(compiled.engine) == reference["state"]


def assert_tiers_match(build, program, lanes: int,
                       strict: bool = True) -> list:
    """Run ``lanes`` lanes of one scenario both ways and compare."""
    references = [_reference_outcome(build, program, lane, strict)
                  for lane in range(lanes)]

    engine = Engine(strict_timing=strict)
    handle = build(engine)
    compiled = engine.compile()
    stimuli = capture_lanes(engine, handle, program, lanes)
    pristine = compiled.snapshot()

    outcomes = run_lanes(compiled, stimuli, trace=True)
    # run_lanes leaves the engine as it found it: a replay is identical.
    assert compiled.snapshot() == pristine
    assert run_lanes(compiled, stimuli, trace=True) == outcomes

    assert_lanes_match(compiled, outcomes, references)
    return outcomes


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


class _ObjectPathJTL(JTL):
    """A JTL subclass: the compiler has no exact kind for it, so the
    compiled engine dispatches it through ``on_pulse`` (the fallback)."""


def build_logic_mix(engine):
    """Every cell kind the register files leave out - merger, TFF,
    counter, the five clocked gates, NDRO, sink - plus a DAND and an
    object-path fallback cell."""
    merger = engine.add(Merger("mx.merge"))
    split = engine.add(Splitter("mx.split"))
    tff = engine.add(TFF("mx.tff"))
    counter = engine.add(PulseCounter("mx.count", bits=2))
    gates = tuple(engine.add(cls(f"mx.{cls.__name__}")) for cls in (
        ClockedAnd, ClockedOr, ClockedXor, ClockedNot, ClockedBuffer))
    g_and, g_or, g_xor, g_not, g_buf = gates
    dand = engine.add(DAND("mx.dand"))
    ndro = engine.add(NDRO("mx.ndro"))
    lag = engine.add(_ObjectPathJTL("mx.lag"))
    merger.connect("out", split, "in", delay_ps=1.0)
    split.connect("out0", tff, "t", delay_ps=0.5)
    split.connect("out1", counter, "in", delay_ps=1.5)
    tff.connect("carry", g_and, "a")
    tff.connect("q", g_xor, "a", delay_ps=0.5)
    counter.connect("b0", g_or, "a")
    counter.connect("b1", dand, "a", delay_ps=1.0)
    g_and.connect("out", engine.add(Probe("mx.p_and")), "in")
    g_or.connect("out", ndro, "set", delay_ps=0.5)
    g_xor.connect("out", lag, "in")
    lag.connect("out", dand, "b", delay_ps=0.5)
    dand.connect("out", engine.add(Probe("mx.p_dand")), "in")
    ndro.connect("out", engine.add(Probe("mx.p_ndro")), "in")
    g_not.connect("out", g_buf, "a", delay_ps=1.0)
    g_buf.connect("out", engine.add(Sink("mx.sink")), "in")
    return merger, tff, counter, gates, ndro


def program_logic_mix(engine, handle, lane):
    """Lane-dependent merger traffic, then reads, clocks and resets."""
    merger, tff, counter, gates, ndro = handle
    t = 10.0
    for i in range(1 + lane % 6):
        engine.schedule(merger, "in0" if (lane >> i) & 1 else "in1", t)
        t += 20.0
    if lane % 3 == 0:  # a same-instant tie and a dead-time hit
        engine.schedule(merger, "in1", t - 20.0)
        engine.schedule(merger, "in0", t - 18.0)
    engine.schedule(tff, "read", t)
    engine.schedule(counter, "read", t + 5.0)
    if lane % 2:
        engine.schedule(gates[0], "b", t + 1.0)
        engine.schedule(gates[2], "b", t + 2.0)
    for gate in gates:
        engine.schedule(gate, "clk", t + 30.0)
    engine.schedule(ndro, "clk", t + 40.0)
    engine.schedule(counter, "reset", t + 50.0)
    engine.schedule(tff, "reset", t + 50.0)
    engine.run()


SCENARIOS = {
    "jtl_chain": (build_jtl_chain, program_jtl, True),
    "dro_column": (build_dro_column, program_dro_column, True),
    "hcdro": (build_hcdro, program_hcdro, True),
    "demux": (build_demux, program_demux, True),
    "hiperrf": (build_hiperrf, program_hiperrf, True),
    "ndro_rf": (build_ndrorf, program_ndrorf, True),
    "logic_mix": (build_logic_mix, program_logic_mix, True),
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


class TestTierSelection:
    def test_reported_path_is_sequential(self):
        assert resolve_lanes_tier(Engine().compile()) == ("sequential", None)

    def test_on_error_raise_carries_lane_index(self):
        engine = Engine(strict_timing=True)
        handle = build_hcdro(engine)
        compiled = engine.compile()
        stimuli = capture_lanes(engine, handle, program_hcdro_faulty, 3)
        with pytest.raises(TimingViolationError, match="^lane 0:"):
            run_lanes(compiled, stimuli, on_error="raise")


# -- randomized differential replay ------------------------------------

#: Pulse times and run horizons sit on a 0.5 ps grid, so same-instant
#: ties between injected pulses (and their emissions) are common.
_GRID_PS = st.integers(min_value=0, max_value=200).map(lambda k: 0.5 * k)

@functools.lru_cache(maxsize=None)
def built_scenario(name: str, strict: bool):
    """One compiled build per (scenario, mode), its pristine snapshot and
    every component input pin, shared across examples (each restores
    the snapshot before use)."""
    engine = Engine(strict_timing=strict)
    SCENARIOS[name][0](engine)
    compiled = engine.compile()
    pins = [(comp.name, port) for comp in engine.components()
            for port in comp.INPUTS]
    return compiled, compiled.snapshot(), pins


@st.composite
def random_lane(draw, pins) -> LaneStimulus:
    """0-12 pulses on any input pin, then 1-3 run segments with
    non-decreasing horizons (the last one possibly infinite) and event
    budgets from 1 (tiny) to 10,000."""
    pulses = draw(st.lists(st.tuples(st.sampled_from(pins), _GRID_PS),
                           max_size=12))
    count = draw(st.integers(min_value=1, max_value=3))
    horizons = sorted(draw(st.lists(_GRID_PS, min_size=count,
                                    max_size=count)))
    if draw(st.booleans()):
        horizons[-1] = float("inf")
    budgets = draw(st.lists(st.integers(min_value=1, max_value=8)
                            | st.just(10_000),
                            min_size=count, max_size=count))
    return LaneStimulus(
        tuple((name, port, t) for (name, port), t in pulses),
        tuple(zip(horizons, budgets)))


def replay_on_reference(name: str, strict: bool, stimulus: LaneStimulus):
    def program(engine, handle, lane):
        for comp_name, port, time_ps in stimulus.injections:
            engine.schedule(engine.component(comp_name), port, time_ps)
        for until_ps, max_events in stimulus.segments:
            engine.run(until_ps=until_ps, max_events=max_events)

    return _reference_outcome(SCENARIOS[name][0], program, 0, strict)


class TestRandomStimuli:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(SCENARIOS)),
           strict=st.booleans())
    def test_random_lanes_match_reference(self, data, name, strict):
        compiled, pristine, pins = built_scenario(name, strict)
        stimuli = data.draw(st.lists(random_lane(pins), min_size=1,
                                     max_size=3))
        compiled.restore(pristine)
        outcomes = run_lanes(compiled, stimuli, trace=True)
        references = [replay_on_reference(name, strict, stimulus)
                      for stimulus in stimuli]
        assert_lanes_match(compiled, outcomes, references)

    def test_budget_spent_on_an_in_hand_event_keeps_the_clock(self):
        """Shrunk counterexample: j0's emission is provably the next
        event, so the compiled loop takes it in hand instead of queueing
        it.  With a one-event budget it must stay undelivered and the
        clock must stay at the last delivered event (0 ps, as on the
        reference engine), not move to the undelivered one (2 ps)."""
        stimulus = LaneStimulus((("j0", "in", 0.0),), ((2.0, 1),))
        compiled, pristine, _ = built_scenario("jtl_chain", False)
        compiled.restore(pristine)
        outcomes = run_lanes(compiled, [stimulus], trace=True)
        assert outcomes[0].error == (
            "SimulationError", "exceeded 1 events; oscillating netlist?")
        assert outcomes[0].now_ps == 0.0
        assert outcomes[0].pending_events == [(2.0, "j1", "in")]
        assert_lanes_match(
            compiled, outcomes,
            [replay_on_reference("jtl_chain", False, stimulus)])
