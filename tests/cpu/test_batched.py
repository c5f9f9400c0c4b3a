"""What design-lane replay promises, checked against the reference.

:func:`~repro.cpu.batched.replay_lanes` must return one
:class:`~repro.cpu.pipeline.PipelineResult` per lane, in lane order,
integer-equal in every field to the reference
:class:`~repro.cpu.pipeline.GateLevelPipeline` run of that lane.  This
suite holds it to that oracle over the Figure 14 workload list, the
full design space, both speculation modes and mixed-``CoreConfig`` lane
pools at several widths.  It also checks the stateful memory models
(including a *shared* model instance, which proves the ascending lane
order), lane-indexed validation errors, the ``design_tables`` memo and
the tape content fingerprint it is keyed on.
"""

import pytest

from repro.cpu import CoreConfig, OpTape, RFTimingModel
from repro.cpu.batched import Lane, lanes_for_designs, replay_lanes
from repro.cpu.compiled import design_tables, replay_tape_reference
from repro.cpu.rf_model import RF_DESIGN_NAMES
from repro.errors import ExecutionError
from repro.experiments.figure14 import FIGURE14_WORKLOADS
from repro.isa import assemble
from repro.mem import DirectMappedCache
from repro.workloads import PASS_EXIT_CODE, get_workload

SCALE = 0.3
MAX_INSTRUCTIONS = 60_000


def result_key(result):
    """Every integer the acceptance criteria compare, plus the CPI."""
    return (result.instructions, result.total_cycles, result.cpi,
            result.stalls.as_dict(), result.branches_taken, result.loads)


def small_cache():
    return DirectMappedCache(lines=16, line_size=16, hit_cycles=2,
                             miss_cycles=40)


def oracle(tape, lanes):
    """Reference-pipeline replay of every lane, in lane order."""
    return [replay_tape_reference(tape, lane.rf, lane.config,
                                  memory_model=lane.memory_model)
            for lane in lanes]


def assert_lanes_match(tape, lanes, name=""):
    got = replay_lanes(tape, lanes)
    want = oracle(tape, lanes)
    assert len(got) == len(lanes)
    for index, (g, w) in enumerate(zip(got, want)):
        assert result_key(g) == result_key(w), (name, index,
                                                lanes[index].rf.name)


def lane_pool(count):
    """A deterministic mixed pool: designs x configs, cycled to ``count``.

    The configs cover both speculation modes and three memory
    latencies, so any prefix wider than a few lanes already mixes
    ``CoreConfig`` values inside one lane set.
    """
    configs = (
        CoreConfig(),
        CoreConfig(fall_through_speculation=False),
        CoreConfig(memory_latency=4),
        CoreConfig(memory_latency=48, fall_through_speculation=False),
        CoreConfig(memory_latency=24),
    )
    pool = []
    for i in range(count):
        design = RF_DESIGN_NAMES[i % len(RF_DESIGN_NAMES)]
        config = configs[(i // len(RF_DESIGN_NAMES)) % len(configs)]
        pool.append(Lane(RFTimingModel.for_design(design, config), config))
    return pool


@pytest.fixture(scope="module")
def figure14_tapes():
    tapes = {}
    for name in FIGURE14_WORKLOADS:
        program = assemble(get_workload(name).build(SCALE))
        tapes[name] = OpTape.from_program(
            program, max_instructions=MAX_INSTRUCTIONS)
    return tapes


@pytest.fixture(scope="module")
def some_tapes(figure14_tapes):
    """Three tapes for the wider (lane-count x config) sweeps."""
    names = list(figure14_tapes)[:3]
    return {name: figure14_tapes[name] for name in names}


class TestFigure14Equivalence:
    def test_whole_design_space_one_batch(self, figure14_tapes):
        """One batch over every design, on every Figure 14 workload."""
        lanes = lanes_for_designs(RF_DESIGN_NAMES)
        for name, tape in figure14_tapes.items():
            assert tape.exit_code == PASS_EXIT_CODE, name
            assert_lanes_match(tape, lanes, name)

    def test_no_speculation_design_space(self, figure14_tapes):
        """The nospec redirect class (branch-not-taken also redirects)."""
        config = CoreConfig(fall_through_speculation=False)
        lanes = lanes_for_designs(RF_DESIGN_NAMES, config)
        for name, tape in figure14_tapes.items():
            assert_lanes_match(tape, lanes, name)

    @pytest.mark.parametrize("width", [1, 2, 6, 32])
    def test_mixed_config_lane_widths(self, some_tapes, width):
        """Mixed CoreConfig pools at the acceptance lane counts."""
        lanes = lane_pool(width)
        for name, tape in some_tapes.items():
            assert_lanes_match(tape, lanes, name)

    def test_mixed_speculation_in_one_batch(self, some_tapes):
        """Spec and nospec lanes of the same design in one lane set."""
        spec = CoreConfig()
        nospec = CoreConfig(fall_through_speculation=False)
        lanes = [Lane(RFTimingModel.for_design(d, c), c)
                 for d in ("hiperrf", "dual_bank_hiperrf")
                 for c in (spec, nospec)]
        for name, tape in some_tapes.items():
            assert_lanes_match(tape, lanes, name)


class TestMemoryModelFallback:
    def test_memory_lanes_match_scalar(self, some_tapes):
        """Lanes with private stateful models (order-dependent latency)."""
        config = CoreConfig()
        for name, tape in some_tapes.items():
            lanes = [Lane(RFTimingModel.for_design(d, config), config,
                          memory_model=small_cache())
                     for d in ("ndro_rf", "hiperrf")]
            got = replay_lanes(tape, lanes)
            want = [replay_tape_reference(tape, lane.rf, lane.config,
                                          memory_model=small_cache())
                    for lane in lanes]
            for g, w in zip(got, want):
                assert result_key(g) == result_key(w), name

    def test_shared_model_sees_ascending_lane_order(self, some_tapes):
        """One cache instance shared by three lanes: its hit/miss history
        depends on the replay order, so equality with a sequential sweep
        over a twin instance proves the documented ascending-lane order."""
        config = CoreConfig()
        designs = ("ndro_rf", "hiperrf", "dual_bank_hiperrf")
        for name, tape in some_tapes.items():
            shared = small_cache()
            lanes = [Lane(RFTimingModel.for_design(d, config), config,
                          memory_model=shared) for d in designs]
            got = replay_lanes(tape, lanes)
            twin = small_cache()
            want = [replay_tape_reference(tape, lane.rf, lane.config,
                                          memory_model=twin)
                    for lane in lanes]
            for g, w in zip(got, want):
                assert result_key(g) == result_key(w), name

    def test_mixed_vector_and_memory_lanes_keep_order(self, some_tapes):
        """Memory-model lanes interleaved with flat-memory lanes land in
        their original slots."""
        config = CoreConfig()
        for name, tape in some_tapes.items():
            lanes = [
                Lane(RFTimingModel.for_design("hiperrf", config), config),
                Lane(RFTimingModel.for_design("ndro_rf", config), config,
                     memory_model=small_cache()),
                Lane(RFTimingModel.for_design("dual_bank_hiperrf", config),
                     config),
                Lane(RFTimingModel.for_design("hiperrf", config), config,
                     memory_model=small_cache()),
            ]
            got = replay_lanes(tape, lanes)
            want = [replay_tape_reference(tape, lane.rf, lane.config,
                                          memory_model=(small_cache()
                                                        if lane.memory_model
                                                        else None))
                    for lane in lanes]
            for g, w in zip(got, want):
                assert result_key(g) == result_key(w), name


class TestValidationAndTiers:
    def test_validation_error_carries_lane_index(self, some_tapes):
        """A lane whose register file is too small for the tape names
        itself; healthy lanes before it do not mask the error."""
        tape = next(iter(some_tapes.values()))
        wide = CoreConfig()
        narrow = CoreConfig(num_registers=8)
        lanes = [
            Lane(RFTimingModel.for_design("hiperrf", wide), wide),
            Lane(RFTimingModel.for_design("hiperrf", narrow), narrow),
        ]
        with pytest.raises(ExecutionError, match=r"lane 1 \(hiperrf\)"):
            replay_lanes(tape, lanes)


class TestMemoization:
    def test_design_tables_lru_returns_cached_arrays(self, some_tapes):
        tape = next(iter(some_tapes.values()))
        rf = RFTimingModel.for_design("hiperrf", CoreConfig())
        first = design_tables(tape, rf)
        again = design_tables(tape, rf)
        assert first[0] is again[0] and first[1] is again[1]

    def test_content_fingerprint_is_stable_and_content_keyed(self):
        program = assemble(get_workload("vvadd").build(SCALE))
        a = OpTape.from_program(program, max_instructions=MAX_INSTRUCTIONS)
        b = OpTape.from_program(program, max_instructions=MAX_INSTRUCTIONS)
        assert a.content_fingerprint() == a.content_fingerprint()
        assert a.content_fingerprint() == b.content_fingerprint()
        other = assemble(get_workload("towers").build(SCALE))
        c = OpTape.from_program(other, max_instructions=MAX_INSTRUCTIONS)
        assert c.content_fingerprint() != a.content_fingerprint()
