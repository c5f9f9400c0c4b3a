"""Batched lane-parallel solver vs the compiled scalar solver.

The two compiled tiers share one formulation, so the lane count may
only move speed: for same-topology lane batches of the JTL, DRO and
HC-DRO decks every per-lane trajectory must be bitwise equal (times,
phases and velocities) to a scalar `TransientSolver` run of the
identical circuit, with the same recording contract (uneven strides,
final-step recording, per-lane durations) and the same
`SimulationError` behaviour — except that batched errors additionally
name the failing lane and its label.  A fixed-budget hypothesis test
draws random perturbed HC-DRO lanes and checks the same equality.  The
per-element reference tier (tests/josim/test_equivalence.py) is the
independent oracle of both.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.josim.solver as solver_mod
from repro.errors import SimulationError
from repro.josim import BatchedTransientSolver, TransientSolver, testbench
from repro.josim.backend import get_backend
from repro.josim.cells import (
    RECOMMENDED_READ_PULSE_UA,
    RECOMMENDED_WRITE_PULSE_UA,
    build_dro_cell,
    build_hcdro_cell,
    build_jtl_stage,
)
from repro.josim.fluxon import junction_fluxons
from repro.josim.montecarlo import YieldConfig, _build_lane, hcdro_parameter_specs
from repro.josim.solver import topology_signature
from repro.josim.sweep import HCDROConfig
from repro.josim.testbench import run_hcdro_batch


def _jtl_deck(bias_fraction=0.7, ic_ua=100.0, amplitude_ua=500.0):
    handles = build_jtl_stage(bias_fraction=bias_fraction, ic_ua=ic_ua)
    handles.circuit.pulse("PIN", handles.input_node, start_ps=10.0,
                          amplitude_ua=amplitude_ua)
    return handles.circuit


def _dro_deck(write_scale=1.0, read_scale=1.0):
    handles = build_dro_cell()
    ckt = handles.circuit
    ckt.pulse("W0", handles.input_node, start_ps=20.0,
              amplitude_ua=RECOMMENDED_WRITE_PULSE_UA * write_scale,
              width_ps=3.0)
    ckt.pulse("R0", handles.clock_node, start_ps=80.0,
              amplitude_ua=RECOMMENDED_READ_PULSE_UA * read_scale,
              width_ps=3.0)
    return ckt


def _hcdro_deck(read_scale=1.0, bias_ua=75.0):
    handles = build_hcdro_cell(j2_bias_ua=bias_ua)
    ckt = handles.circuit
    for k in range(3):
        ckt.pulse(f"W{k}", handles.input_node, start_ps=20.0 + 25.0 * k,
                  amplitude_ua=RECOMMENDED_WRITE_PULSE_UA, width_ps=3.0)
    for k in range(4):
        ckt.pulse(f"R{k}", handles.clock_node, start_ps=130.0 + 25.0 * k,
                  amplitude_ua=RECOMMENDED_READ_PULSE_UA * read_scale,
                  width_ps=3.0)
    return ckt


#: (deck factory, lane parameter tuples, duration, junctions to count)
LANE_DECKS = {
    "jtl": (_jtl_deck, [(0.6,), (0.7,), (0.75,)], 60.0, ["J1", "J2"]),
    "dro": (_dro_deck, [(0.95, 1.0), (1.0, 1.0), (1.05, 0.97)], 130.0,
            ["J1", "J2", "J3"]),
    "hcdro": (_hcdro_deck, [(0.95, 73.0), (1.0, 75.0), (1.05, 77.0)],
              260.0, ["J1", "J2", "J3"]),
}


def _assert_bitwise_equal(first, second, lane):
    """Two runs of one lane agree in every recorded bit."""
    for field in ("times_ps", "phases", "velocities"):
        a, b = getattr(first, field), getattr(second, field)
        assert a.shape == b.shape, (lane, field)
        if not np.array_equal(a, b):
            worst = float(np.max(np.abs(a - b)))
            raise AssertionError(
                f"lane {lane}: {field} differ by up to {worst:.3e}")


def _assert_lanes_match_scalar(factory, lane_params, duration, junctions,
                               record_every=1, durations=None):
    circuits = [factory(*params) for params in lane_params]
    batched = BatchedTransientSolver(circuits, timestep_ps=0.05).run(
        durations if durations is not None else duration,
        record_every=record_every)
    for lane, params in enumerate(lane_params):
        lane_duration = (durations[lane] if durations is not None
                         else duration)
        scalar = TransientSolver(factory(*params), timestep_ps=0.05).run(
            lane_duration, record_every=record_every)
        _assert_bitwise_equal(batched[lane], scalar, lane)
        for jj in junctions:
            assert (junction_fluxons(batched[lane], jj)
                    == junction_fluxons(scalar, jj)), (lane, jj)


class TestBatchedEquivalence:
    @pytest.mark.parametrize("deck_name", sorted(LANE_DECKS))
    def test_lanes_match_scalar(self, deck_name):
        factory, lane_params, duration, junctions = LANE_DECKS[deck_name]
        _assert_lanes_match_scalar(factory, lane_params, duration,
                                   junctions)

    def test_uneven_lane_durations_retire_early(self):
        """Lanes with shorter programs retire and still match scalar."""
        factory, lane_params, _, junctions = LANE_DECKS["jtl"]
        _assert_lanes_match_scalar(factory, lane_params, None, junctions,
                                   durations=[40.0, 60.0, 25.0])

    def test_uneven_recording_stride(self):
        """record_every that doesn't divide the step count still records
        each lane's true final step."""
        factory, lane_params, _, junctions = LANE_DECKS["jtl"]
        _assert_lanes_match_scalar(factory, lane_params, None, junctions,
                                   record_every=7,
                                   durations=[40.0, 60.0, 25.0])

    def test_single_lane_batch(self):
        factory, lane_params, duration, junctions = LANE_DECKS["dro"]
        _assert_lanes_match_scalar(factory, lane_params[:1], duration,
                                   junctions)

    def test_batched_source_fallback_matches_table(self, monkeypatch):
        """Forcing the per-step source path must not change trajectories."""
        circuits = [_jtl_deck(0.7), _jtl_deck(0.65)]
        table = BatchedTransientSolver(circuits, timestep_ps=0.05).run(60.0)
        monkeypatch.setattr(solver_mod, "_SOURCE_TABLE_LIMIT", 0)
        circuits = [_jtl_deck(0.7), _jtl_deck(0.65)]
        fallback = BatchedTransientSolver(
            circuits, timestep_ps=0.05).run(60.0)
        for lane in range(2):
            _assert_bitwise_equal(table[lane], fallback[lane], lane)


class TestChunkedExecution:
    """Lane chunking must be invisible except for peak memory."""

    def test_reported_chunk_and_backend(self, monkeypatch):
        """The names a run report records for the batched tier."""
        assert solver_mod.chunk_lane_limit() == solver_mod.CHUNK_LANES
        assert solver_mod.CHUNK_LANES == 2048
        monkeypatch.setattr(solver_mod, "CHUNK_LANES", 17)
        assert solver_mod.chunk_lane_limit() == 17
        assert get_backend().name == "numpy"

    def test_chunked_hcdro_matches_scalar(self, monkeypatch):
        """A chunk smaller than the batch keeps every lane bitwise equal."""
        monkeypatch.setattr(solver_mod, "CHUNK_LANES", 2)
        factory, lane_params, duration, junctions = LANE_DECKS["hcdro"]
        _assert_lanes_match_scalar(factory, lane_params, duration,
                                   junctions)

    def test_chunked_matches_unchunked(self, monkeypatch):
        factory, lane_params, duration, _ = LANE_DECKS["dro"]
        whole = BatchedTransientSolver(
            [factory(*p) for p in lane_params], timestep_ps=0.05,
        ).run(duration)
        monkeypatch.setattr(solver_mod, "CHUNK_LANES", 1)
        chunked = BatchedTransientSolver(
            [factory(*p) for p in lane_params], timestep_ps=0.05,
        ).run(duration)
        for lane in range(len(lane_params)):
            _assert_bitwise_equal(whole[lane], chunked[lane], lane)

    def test_stamps_built_per_chunk(self, monkeypatch):
        """Peak stamp width is the chunk size, not the batch size."""
        monkeypatch.setattr(solver_mod, "CHUNK_LANES", 2)
        widths = []
        original = solver_mod._BatchedStamps

        class SpyStamps(original):
            def __init__(self, circuits, h, structure):
                widths.append(len(circuits))
                super().__init__(circuits, h, structure)

        monkeypatch.setattr(solver_mod, "_BatchedStamps", SpyStamps)
        circuits = [_jtl_deck(0.6 + 0.02 * k) for k in range(5)]
        BatchedTransientSolver(circuits, timestep_ps=0.05).run(40.0)
        assert widths == [2, 2, 1]

    def test_run_reduced_streams_in_lane_order(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "CHUNK_LANES", 2)
        circuits = [_jtl_deck(0.6 + 0.02 * k) for k in range(5)]
        full = BatchedTransientSolver(circuits, timestep_ps=0.05).run(40.0)
        circuits = [_jtl_deck(0.6 + 0.02 * k) for k in range(5)]
        seen = []

        def reduce(lane, result):
            seen.append(lane)
            return float(result.phases[-1].max())

        reduced = BatchedTransientSolver(
            circuits, timestep_ps=0.05).run_reduced(40.0, reduce)
        assert seen == [0, 1, 2, 3, 4]
        assert reduced == [float(r.phases[-1].max()) for r in full]

    def test_source_table_limit_accounts_for_chunk_lanes(self, monkeypatch):
        """Three lanes must trip a limit one lane fits under — and the
        per-step fallback must reproduce the table path's trajectories."""
        circuits = [_jtl_deck(0.6), _jtl_deck(0.7), _jtl_deck(0.75)]
        table = BatchedTransientSolver(circuits, timestep_ps=0.05).run(60.0)

        calls = []
        original = solver_mod._BatchedStamps.source_residual

        def spy(self, times):
            calls.append(np.size(times))
            return original(self, times)

        monkeypatch.setattr(solver_mod._BatchedStamps, "source_residual",
                            spy)
        # 60 ps / 0.05 ps = 1200 steps x 4 nodes: one lane needs 4800
        # table entries, three lanes 14400 - set the limit between.
        monkeypatch.setattr(solver_mod, "_SOURCE_TABLE_LIMIT", 5000)
        circuits = [_jtl_deck(0.6), _jtl_deck(0.7), _jtl_deck(0.75)]
        fallback = BatchedTransientSolver(
            circuits, timestep_ps=0.05).run(60.0)
        assert len(calls) > 100, "expected per-step source evaluation"
        assert max(calls) == 1, "fallback must evaluate one step at a time"
        for lane in range(3):
            _assert_bitwise_equal(table[lane], fallback[lane], lane)


class TestTopologySignature:
    def test_parameter_changes_keep_signature(self):
        assert (topology_signature(_jtl_deck(0.6, ic_ua=80.0))
                == topology_signature(_jtl_deck(0.75, ic_ua=120.0)))

    def test_different_topologies_differ(self):
        assert (topology_signature(_jtl_deck())
                != topology_signature(_dro_deck()))


class TestBatchedValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(SimulationError, match="empty"):
            BatchedTransientSolver([])

    def test_mixed_topologies_rejected(self):
        with pytest.raises(SimulationError, match="lane 1.*topology"):
            BatchedTransientSolver([_jtl_deck(), _dro_deck()])

    def test_label_count_must_match(self):
        with pytest.raises(SimulationError, match="labels"):
            BatchedTransientSolver([_jtl_deck(), _jtl_deck(0.6)],
                                   labels=["only-one"])

    def test_invalid_timestep_and_duration(self):
        with pytest.raises(SimulationError):
            BatchedTransientSolver([_jtl_deck()], timestep_ps=0.0)
        with pytest.raises(SimulationError):
            BatchedTransientSolver([_jtl_deck()]).run(0.0)
        with pytest.raises(SimulationError):
            BatchedTransientSolver([_jtl_deck()]).run(
                [10.0], record_every=0)


class TestBatchedErrorReporting:
    def test_poisoned_lane_is_named(self):
        """A lane that cannot converge names itself; the error message
        carries the lane index and its label."""
        circuits = [_jtl_deck(0.7),
                    _jtl_deck(0.7, amplitude_ua=float("nan")),
                    _jtl_deck(0.65)]
        solver = BatchedTransientSolver(
            circuits, timestep_ps=0.05,
            labels=["good-a", "poisoned", "good-b"])
        with pytest.raises(SimulationError, match=r"lane 1 \(poisoned\)"):
            solver.run(60.0)

    def test_healthy_lanes_unaffected_by_poison_topology(self):
        """The same healthy lane parameters run fine without the poison
        lane — the failure above is the poisoned lane's, not the batch
        machinery's."""
        results = BatchedTransientSolver(
            [_jtl_deck(0.7), _jtl_deck(0.65)], timestep_ps=0.05).run(60.0)
        assert len(results) == 2
        for result in results:
            assert junction_fluxons(result, "J2") == 1


#: ``BATCHED_MIN_LANES`` values that send a 2- or 3-lane batch down the
#: batched path, then the scalar one.
BOTH_PATHS = (1, 2**30)


class TestBatchedTestbench:
    def test_batch_matches_scalar_testbench(self, monkeypatch):
        configs = [HCDROConfig(writes=2, reads=3),
                   HCDROConfig(writes=2, reads=3,
                               read_amplitude_ua=1.05
                               * RECOMMENDED_READ_PULSE_UA),
                   HCDROConfig(writes=2, reads=3, j2_bias_ua=73.0)]
        alone = [run_hcdro_batch([config])[0] for config in configs]
        monkeypatch.setattr(testbench, "BATCHED_MIN_LANES", 1)
        reports = run_hcdro_batch(configs)
        for config, report, scalar in zip(configs, reports, alone):
            assert report.stored_after_writes == scalar.stored_after_writes
            assert report.stored_at_end == scalar.stored_at_end
            assert report.output_pulses == scalar.output_pulses
            _assert_bitwise_equal(report.result, scalar.result, config)

    def test_empty_batch_is_empty(self):
        assert run_hcdro_batch([]) == []

    def test_mismatched_stimulus_counts_rejected(self, monkeypatch):
        for threshold in BOTH_PATHS:
            monkeypatch.setattr(testbench, "BATCHED_MIN_LANES", threshold)
            with pytest.raises(SimulationError, match="lane 1.*writes"):
                run_hcdro_batch([HCDROConfig(writes=1, reads=2),
                                 HCDROConfig(writes=2, reads=2)])

    def test_mismatched_timestep_rejected(self, monkeypatch):
        for threshold in BOTH_PATHS:
            monkeypatch.setattr(testbench, "BATCHED_MIN_LANES", threshold)
            with pytest.raises(SimulationError, match="lane 1.*timestep"):
                run_hcdro_batch([HCDROConfig(writes=0, reads=0),
                                 HCDROConfig(writes=0, reads=0,
                                             timestep_ps=0.1)])

    def test_poisoned_config_named_in_error(self, monkeypatch):
        """One bad operating point in a batch must be identifiable from
        the exception alone, on either path: lane index plus the config
        repr."""
        poison = HCDROConfig(writes=1, reads=1,
                             write_amplitude_ua=float("nan"))
        for threshold in BOTH_PATHS:
            monkeypatch.setattr(testbench, "BATCHED_MIN_LANES", threshold)
            with pytest.raises(SimulationError) as excinfo:
                run_hcdro_batch([HCDROConfig(writes=1, reads=1), poison])
            message = str(excinfo.value)
            assert "lane 1" in message
            assert "HCDROConfig" in message
            assert "nan" in message

    def test_lane_count_picks_path(self, monkeypatch):
        """Below BATCHED_MIN_LANES (4) lanes each config runs on the
        scalar solver; from 4 lanes one batched solver runs them all."""
        built = {"batched": [], "scalar": 0}
        batched_cls = testbench.BatchedTransientSolver
        scalar_cls = testbench.TransientSolver

        def batched_spy(circuits, *args, **kwargs):
            built["batched"].append(len(circuits))
            return batched_cls(circuits, *args, **kwargs)

        def scalar_spy(*args, **kwargs):
            built["scalar"] += 1
            return scalar_cls(*args, **kwargs)

        monkeypatch.setattr(testbench, "BatchedTransientSolver", batched_spy)
        monkeypatch.setattr(testbench, "TransientSolver", scalar_spy)
        configs = [HCDROConfig(settle_ps=20.0 + 5.0 * k) for k in range(4)]
        scalar = run_hcdro_batch(configs[:3])
        assert built == {"batched": [], "scalar": 3}
        batched = run_hcdro_batch(configs)
        assert built == {"batched": [4], "scalar": 3}
        for lane, (alone, batch_lane) in enumerate(zip(scalar, batched)):
            _assert_bitwise_equal(alone.result, batch_lane.result, lane)

    def test_uneven_settle_times_share_a_batch(self, monkeypatch):
        """settle/spacing are lane data: lanes with different durations
        run in one batch and match their scalar equivalents."""
        monkeypatch.setattr(testbench, "BATCHED_MIN_LANES", 1)
        configs = [HCDROConfig(writes=1, reads=1, settle_ps=20.0),
                   HCDROConfig(writes=1, reads=1, settle_ps=40.0)]
        reports = run_hcdro_batch(configs)
        durations = [r.result.times_ps[-1] for r in reports]
        assert durations[0] == pytest.approx(20.0 + 25.0 + 20.0 + 25.0
                                             + 20.0)
        assert durations[1] == pytest.approx(20.0 + 25.0 + 40.0 + 25.0
                                             + 40.0)
        for report in reports:
            assert report.stored_after_writes == 1
            assert report.output_pulses == 1


# -- randomized differential runs ---------------------------------------

#: Perturbed HC-DRO parameters, one multiplier column each.
_SPECS = hcdro_parameter_specs()


@st.composite
def random_hcdro_lane(draw, writes, reads):
    """One perturbed HC-DRO program: a multiplier row over every
    parameter in [0.85, 1.15], a read scale in [0.9, 1.1] and a settle
    time of its own, so lanes of one batch retire at different steps."""
    row = draw(st.lists(st.floats(0.85, 1.15), min_size=len(_SPECS),
                        max_size=len(_SPECS)))
    scale = draw(st.floats(0.9, 1.1))
    settle = draw(st.integers(10, 60).map(lambda k: 0.5 * k))
    config = YieldConfig(samples=1, writes=writes, reads=reads,
                         settle_ps=settle)
    handles, _, end = _build_lane(config, _SPECS, np.asarray(row), scale)
    return handles.circuit, end


class TestRandomLanes:
    @settings(max_examples=10, deadline=None)
    @given(data=st.data(), writes=st.integers(0, 2),
           reads=st.integers(0, 2), record_every=st.integers(1, 7))
    def test_random_hcdro_lanes_match_scalar(self, data, writes, reads,
                                             record_every):
        """1-3 lanes sharing one topology: one batched run equals the
        per-lane scalar runs bit for bit."""
        lanes = data.draw(st.lists(random_hcdro_lane(writes, reads),
                                   min_size=1, max_size=3))
        batched = BatchedTransientSolver(
            [circuit for circuit, _ in lanes], timestep_ps=0.05).run(
                [end for _, end in lanes], record_every=record_every)
        for lane, (circuit, end) in enumerate(lanes):
            scalar = TransientSolver(circuit, timestep_ps=0.05).run(
                end, record_every=record_every)
            _assert_bitwise_equal(batched[lane], scalar, lane)


def test_batched_phase_physics_sane():
    """A supercritically biased lane rotates; a subcritical lane locks —
    batching must not couple lanes."""
    def biased(ic, bias):
        from repro.josim import Circuit

        ckt = Circuit()
        ckt.jj("J1", "a", "gnd", critical_current_ua=ic)
        ckt.bias("IB", "a", current_ua=bias)
        return ckt

    results = BatchedTransientSolver(
        [biased(100.0, 150.0), biased(100.0, 70.0)],
        timestep_ps=0.05).run(100.0)
    assert results[0].junction_phase("J1")[-1] > 4 * math.pi
    assert results[1].junction_phase("J1")[-1] == pytest.approx(
        math.asin(0.7), abs=0.02)
