"""Exact-equivalence suite: compiled tape replay vs the reference pipeline.

The compiled tier (:mod:`repro.cpu.compiled`) must be integer-identical
to :class:`~repro.cpu.pipeline.GateLevelPipeline` - total cycles, CPI,
per-reason stall attribution, branch/load counters - for every register
file design, with and without a stateful memory model.  This suite holds
it to that oracle over the full Figure 14 workload list and randomized
programs driven by the deterministic workload-generator LCG.
"""

import pytest

from repro.cpu import CoreConfig, GateLevelPipeline, OpTape, RFTimingModel
from repro.cpu.compiled import replay_tape, replay_tape_reference
from repro.cpu.rf_model import RF_DESIGN_NAMES
from repro.errors import ExecutionError
from repro.experiments.figure14 import FIGURE14_WORKLOADS
from repro.isa import Executor, Instruction, assemble
from repro.isa.executor import ExecutedOp
from repro.mem import DirectMappedCache
from repro.workloads import PASS_EXIT_CODE, get_workload
from repro.workloads.generator import Lcg

SCALE = 0.3
MAX_INSTRUCTIONS = 60_000


def result_key(result):
    """Every integer the acceptance criteria compare, plus the CPI."""
    return (result.instructions, result.total_cycles, result.cpi,
            result.stalls.as_dict(), result.branches_taken, result.loads)


def small_cache():
    return DirectMappedCache(lines=16, line_size=16, hit_cycles=2,
                             miss_cycles=40)


@pytest.fixture(scope="module")
def figure14_tapes():
    tapes = {}
    for name in FIGURE14_WORKLOADS:
        program = assemble(get_workload(name).build(SCALE))
        tapes[name] = OpTape.from_program(
            program, max_instructions=MAX_INSTRUCTIONS)
    return tapes


class TestFigure14Equivalence:
    @pytest.mark.parametrize("design", RF_DESIGN_NAMES)
    def test_flat_memory(self, figure14_tapes, design):
        config = CoreConfig()
        rf = RFTimingModel.for_design(design, config)
        for name, tape in figure14_tapes.items():
            assert tape.exit_code == PASS_EXIT_CODE, name
            compiled = replay_tape(tape, rf, config)
            reference = replay_tape_reference(tape, rf, config)
            assert result_key(compiled) == result_key(reference), name

    @pytest.mark.parametrize("design", RF_DESIGN_NAMES)
    def test_memory_model(self, figure14_tapes, design):
        # A stateful model: hit/miss history makes access latencies
        # order-dependent, so equality also proves the interaction order.
        config = CoreConfig()
        rf = RFTimingModel.for_design(design, config)
        for name, tape in figure14_tapes.items():
            compiled = replay_tape(tape, rf, config,
                                   memory_model=small_cache())
            reference = replay_tape_reference(tape, rf, config,
                                              memory_model=small_cache())
            assert result_key(compiled) == result_key(reference), name

    def test_tape_matches_live_pipeline(self):
        """Lowering through a tape loses nothing the timing engine reads."""
        config = CoreConfig()
        for name in ("qsort", "towers"):
            program = assemble(get_workload(name).build(SCALE))
            for design in ("ndro_rf", "dual_bank_hiperrf"):
                rf = RFTimingModel.for_design(design, config)
                live = GateLevelPipeline(rf, config)
                for op in Executor(program).trace(
                        max_instructions=MAX_INSTRUCTIONS):
                    live.feed(op)
                tape = OpTape.from_program(
                    program, max_instructions=MAX_INSTRUCTIONS)
                assert result_key(replay_tape(tape, rf, config)) == \
                    result_key(live.result()), (name, design)


def random_program(seed: int, body_ops: int = 40, iterations: int = 25) -> str:
    """A terminating random kernel: ALU ops, loads/stores, forward branches."""
    rng = Lcg(seed=seed)
    pool = ("t0", "t1", "t2", "t3", "t4", "t5", "t6",
            "a2", "a3", "a4", "a5", "s3", "s4", "s5")
    lines = [".text", "_start:", "    la   s2, buf", "    li   s0, 0",
             f"    li   s1, {iterations}", "loop:"]
    for i in range(body_ops):
        kind = rng.next() % 8
        rd = pool[rng.next() % len(pool)]
        rs1 = pool[rng.next() % len(pool)]
        rs2 = pool[rng.next() % len(pool)]
        if kind < 3:
            mnemonic = ("add", "xor", "and")[kind]
            lines.append(f"    {mnemonic}  {rd}, {rs1}, {rs2}")
        elif kind < 5:
            lines.append(f"    addi {rd}, {rs1}, {rng.next() % 64}")
        elif kind == 5:
            lines.append(f"    lw   {rd}, {4 * (rng.next() % 8)}(s2)")
        elif kind == 6:
            lines.append(f"    sw   {rs1}, {4 * (rng.next() % 8)}(s2)")
        else:
            lines.append(f"    beq  {rs1}, {rs2}, skip_{i}")
            lines.append(f"    addi {rd}, {rd}, 1")
            lines.append(f"skip_{i}:")
    lines += ["    addi s0, s0, 1", "    blt  s0, s1, loop",
              "    li   a0, 42", "    li   a7, 93", "    ecall",
              ".data", "buf:"]
    lines += [f"    .word {rng.next()}" for _ in range(8)]
    return "\n".join(lines)


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(1, 9))
    def test_all_designs_both_speculation_modes(self, seed):
        tape = OpTape.from_program(assemble(random_program(seed)),
                                   max_instructions=50_000)
        assert tape.exit_code == PASS_EXIT_CODE
        for spec in (True, False):
            config = CoreConfig(fall_through_speculation=spec)
            for design in RF_DESIGN_NAMES:
                rf = RFTimingModel.for_design(design, config)
                assert result_key(replay_tape(tape, rf, config)) == \
                    result_key(replay_tape_reference(tape, rf, config)), \
                    (design, spec)

    @pytest.mark.parametrize("seed", (3, 7))
    def test_memory_model(self, seed):
        tape = OpTape.from_program(assemble(random_program(seed)),
                                   max_instructions=50_000)
        config = CoreConfig()
        for design in RF_DESIGN_NAMES:
            rf = RFTimingModel.for_design(design, config)
            compiled = replay_tape(tape, rf, config,
                                   memory_model=small_cache())
            reference = replay_tape_reference(tape, rf, config,
                                              memory_model=small_cache())
            assert result_key(compiled) == result_key(reference), design


class TestTierDispatch:
    def _tape(self):
        ops = [ExecutedOp(pc=i, instr=Instruction("add", rd=1, rs1=2),
                          sources=(2,), destination=1, branch_taken=False,
                          is_load=False, is_store=False)
               for i in range(4)]
        return OpTape.from_ops(ops)

    def test_explicit_tiers_agree(self):
        tape = self._tape()
        rf = RFTimingModel.for_design("hiperrf")
        config = CoreConfig()
        assert result_key(replay_tape(tape, rf, config)) == \
            result_key(replay_tape_reference(tape, rf, config))

    def test_tape_wider_than_register_file_rejected(self):
        ops = [ExecutedOp(pc=0, instr=Instruction("add", rd=40, rs1=2),
                          sources=(2,), destination=40, branch_taken=False,
                          is_load=False, is_store=False)]
        tape = OpTape.from_ops(ops, num_registers=64)
        with pytest.raises(ExecutionError, match="register"):
            replay_tape(tape, RFTimingModel.for_design("ndro_rf"),
                        CoreConfig())
