"""Exact-equivalence suite: compiled tape replay vs the reference pipeline.

The compiled tier (:mod:`repro.cpu.compiled`) must be integer-identical
to :class:`~repro.cpu.pipeline.GateLevelPipeline` - total cycles, CPI,
per-reason stall attribution, branch/load counters - for every register
file design, with and without a stateful memory model.  This suite holds
it to that oracle over the full Figure 14 workload list, randomized
programs driven by the deterministic workload-generator LCG, and
hand-built tapes at the edges of the block memo.
"""

import pytest

from repro.cpu import CoreConfig, GateLevelPipeline, OpTape, RFTimingModel
from repro.cpu import compiled
from repro.cpu.compiled import BLOCK_CAP, replay_tape, replay_tape_reference
from repro.cpu.rf_model import RF_DESIGN_NAMES
from repro.errors import ConfigError, ExecutionError
from repro.experiments.figure14 import FIGURE14_WORKLOADS
from repro.isa import Executor, Instruction, assemble
from repro.isa.executor import ExecutedOp
from repro.mem import DirectMappedCache
from repro.rf import RFGeometry, design_for
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


def hand_op(sources=(), dest=None, *, branch=False, taken=False,
            load=False):
    """One retired op of a hand-built tape."""
    return ExecutedOp(pc=0, instr=Instruction("beq" if branch else "add"),
                      sources=tuple(sources), destination=dest,
                      branch_taken=taken, is_load=load, is_store=False,
                      mem_address=0 if load else None)


def block_entries(tape, rf, config):
    """``(next_issue_ok, ready_at, ready_loopback)`` of the reference
    pipeline at every block boundary of ``tape``."""
    pipeline = GateLevelPipeline(rf, config)
    entries = []
    since = 0
    for op in tape.iter_ops():
        pipeline.feed(op)
        since += 1
        if op.branch_taken or op.instr.is_branch or since == BLOCK_CAP:
            entries.append((pipeline._next_issue_ok,
                            list(pipeline._ready_at),
                            list(pipeline._ready_loopback)))
            since = 0
    return entries


def assert_exact(tape, designs=RF_DESIGN_NAMES, configs=(CoreConfig(),)):
    """Every design and config replays ``tape`` as the reference does."""
    for config in configs:
        for design in designs:
            rf = RFTimingModel.for_design(design, config)
            assert result_key(replay_tape(tape, rf, config)) == \
                result_key(replay_tape_reference(tape, rf, config)), \
                (design, config)


def memo_hits(tape, design, config):
    """Block executions the memo served in one replay."""
    rf = RFTimingModel.for_design(design, config)
    return compiled._replay(tape, rf, config, None)[1]


class TestMemoEdges:
    """Hand-built tapes at the edges of the (block, state) memo."""

    def test_register_ready_exactly_at_block_entry(self):
        """A readiness equal to the entry's next_issue_ok is clipped out
        of the state; the next block reads that register unstalled."""
        exact_entries = 0
        for writeback_depth in range(12):
            config = CoreConfig(execute_depth=0,
                                writeback_depth=writeback_depth)
            rf = RFTimingModel.for_design("ndro_rf", config)
            assert rf.loopback_busy_gates() == 0
            tape = OpTape.from_ops(6 * (
                [hand_op((2,), 1)] + 3 * [hand_op()] + [hand_op(branch=True)]
                + [hand_op((1,), 3), hand_op(branch=True)]))
            assert_exact(tape, ("ndro_rf",), (config,))
            assert memo_hits(tape, "ndro_rf", config) > 0
            exact_entries += sum(
                ready_at[1] == entry
                for entry, ready_at, _ in block_entries(tape, rf, config))
        assert exact_entries > 0

    def test_loopback_flag_dropped_when_its_offset_reaches_zero(self):
        """A branch that reads r1 leaves r1 loopback-busy until exactly
        the next block's entry; that block reads r1 again."""
        config = CoreConfig(rf_cycle_gates=3)
        rf = RFTimingModel.for_design("hiperrf", config)
        flagged_at_zero = 0
        for fillers in range(4):
            tape = OpTape.from_ops(6 * (
                fillers * [hand_op()] + [hand_op((1,), branch=True)]
                + [hand_op((1,), 3), hand_op(branch=True)]))
            assert_exact(tape, RF_DESIGN_NAMES, (config,))
            assert memo_hits(tape, "hiperrf", config) > 0
            flagged_at_zero += sum(
                ready_at[1] == entry and loopback[1]
                for entry, ready_at, loopback in block_entries(tape, rf,
                                                               config))
        assert flagged_at_zero > 0

    def test_straight_line_run_longer_than_the_cap(self):
        body = [hand_op(((k + 1) % 7, (k + 3) % 7), k % 5)
                for k in range(150)]
        tape = OpTape.from_ops(4 * (body + [hand_op(branch=True,
                                                    taken=True)]))
        blocks = compiled._tape_blocks(tape)
        assert blocks.count == 4 * 3  # 64 + 64 + 23 ops per repeat
        assert_exact(tape, configs=(CoreConfig(),
                                    CoreConfig(fall_through_speculation=False)))
        assert memo_hits(tape, "hiperrf", CoreConfig()) > 0

    def test_blocks_that_never_repeat(self):
        rng = Lcg(seed=11)
        ops = []
        for k in range(600):
            sources = (rng.next() % 32, rng.next() % 32)[:rng.next() % 3]
            ops.append(hand_op(tuple(dict.fromkeys(sources)),
                               rng.next() % 32, branch=k % 7 == 6,
                               taken=k % 14 == 13, load=rng.next() % 4 == 0))
        tape = OpTape.from_ops(ops)
        blocks = compiled._tape_blocks(tape)
        assert blocks.distinct == blocks.count
        assert len(blocks.ids) == 1  # one run of first-seen blocks
        assert_exact(tape, configs=(CoreConfig(),
                                    CoreConfig(fall_through_speculation=False)))
        assert memo_hits(tape, "hiperrf", CoreConfig()) == 0

    def test_empty_tape(self):
        tape = OpTape.from_ops([])
        assert_exact(tape)
        result = replay_tape(tape, RFTimingModel.for_design("hiperrf"))
        assert (result.instructions, result.total_cycles) == (0, 0)

    def test_negative_operand_latency_rejected(self):
        """The clipped state is exact only while write-backs land at or
        after their issue; a model that breaks that is refused."""
        rf = RFTimingModel(name="ndro_rf", readout_cycles=-100,
                           loopback_cycles=0, rf_cycle_gates=2,
                           design=design_for("ndro_rf", RFGeometry(32, 32)))
        tape = OpTape.from_ops([hand_op((2,), 1), hand_op((1,), 3)])
        with pytest.raises(ConfigError, match="operand latencies"):
            replay_tape(tape, rf)


class TestMemoUsed:
    def test_segment_routine_covers_few_specrand_ops(
            self, figure14_tapes, monkeypatch):
        """On specrand the memo serves almost every block: the segment
        routine runs under 5% of the ops of each lane."""
        tape = figure14_tapes["specrand"]
        covered = []
        real = compiled._run_segment

        def counting(ops, *args, **kwargs):
            covered.append(len(ops[0]))
            return real(ops, *args, **kwargs)

        monkeypatch.setattr(compiled, "_run_segment", counting)
        config = CoreConfig()
        for design in RF_DESIGN_NAMES:
            covered.clear()
            replay_tape(tape, RFTimingModel.for_design(design, config),
                        config)
            assert 0 < sum(covered) < 0.05 * tape.instructions, design
