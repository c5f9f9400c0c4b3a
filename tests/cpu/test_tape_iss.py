"""``OpTape.from_program``'s pre-decoded interpreter vs its oracle.

The oracle is the functional :class:`~repro.isa.Executor` lowered through
:meth:`OpTape.from_ops`.  The fast path must build equal tapes (arrays,
dtypes, fingerprint, halt metadata) and raise the same errors, with the
same messages, at the same retirement.  The suite covers the Figure 14
programs, hand-written halt and fault programs, and a hypothesis fuzz of
random terminating RV32I programs whose tapes also replay across random
design lanes against the live reference pipeline.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import (
    CoreConfig,
    GateLevelPipeline,
    Lane,
    OpTape,
    RFTimingModel,
    TraceCache,
    replay_lanes,
    simulate_program,
    tape_for_program,
)
from repro.cpu.rf_model import RF_DESIGN_NAMES
from repro.errors import DecodeError, ExecutionError
from repro.experiments.figure14 import FIGURE14_WORKLOADS
from repro.isa import Executor, assemble
from repro.isa.encoding import MASK32
from repro.workloads import PASS_EXIT_CODE, get_workload
from tests.cpu.test_compiled import result_key

COLUMNS = ("sig", "flags", "mem_addr", "sig_srcs", "sig_dest")


def oracle_tape(program, cap, num_registers=32):
    """The tape ``from_program`` must equal: executor stream + from_ops."""
    executor = Executor(program)
    tape = OpTape.from_ops(executor.trace(max_instructions=cap),
                           num_registers=num_registers, max_instructions=cap)
    tape.exit_code = executor.exit_code
    tape.halt_reason = (None if executor.halt_reason is None
                        else executor.halt_reason.name)
    return tape


def assert_same_tape(fast, oracle):
    for name in COLUMNS:
        got, want = getattr(fast, name), getattr(oracle, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name
    for name in ("exit_code", "halt_reason", "max_instructions",
                 "num_registers"):
        assert getattr(fast, name) == getattr(oracle, name), name
    assert fast.content_fingerprint() == oracle.content_fingerprint()


def outcome(build):
    """The tape ``build()`` returns, or the ``(type, message)`` it raises."""
    try:
        return build()
    except (ExecutionError, DecodeError) as exc:
        return type(exc), str(exc)


def assert_same_outcome(program, cap, num_registers=32):
    fast = outcome(lambda: OpTape.from_program(
        program, max_instructions=cap, num_registers=num_registers))
    oracle = outcome(lambda: oracle_tape(program, cap, num_registers))
    if isinstance(oracle, OpTape):
        assert isinstance(fast, OpTape), fast
        assert_same_tape(fast, oracle)
    else:
        assert fast == oracle
    return oracle


@pytest.fixture(scope="module")
def figure14_programs():
    return {name: assemble(get_workload(name).build(1.0))
            for name in FIGURE14_WORKLOADS}


class TestFigure14Tapes:
    @pytest.mark.parametrize("cap", (400_000, 1000, 1))
    def test_equal_to_oracle(self, figure14_programs, cap):
        for name, program in figure14_programs.items():
            fast = OpTape.from_program(program, max_instructions=cap)
            assert_same_tape(fast, oracle_tape(program, cap))
            if cap == 400_000:
                assert fast.exit_code == PASS_EXIT_CODE, name

    def test_cold_tapes_skip_the_oracle(self, monkeypatch):
        def oracle_used(*args, **kwargs):
            raise AssertionError("cold tape built through the oracle")

        monkeypatch.setattr(Executor, "trace", oracle_used)
        monkeypatch.setattr(OpTape, "from_ops", classmethod(oracle_used))
        program = assemble(get_workload("towers").build(0.3))
        reports = simulate_program(program, max_instructions=60_000,
                                   trace_cache=None)
        assert reports["ndro_rf"].exit_code == PASS_EXIT_CODE


EXIT = "    li a0, 42\n    li a7, 93\n    ecall\n"

#: Programs the oracle rejects, with a fragment of the shared message.
REJECTED = {
    "all-zero fetch": ("_start:\n    nop\n", "all-zero word"),
    "undecodable word": ("_start:\n    nop\n    .word 0xffffffff\n",
                         "unknown opcode"),
    "misaligned lw": ("_start:\n    li t0, 0x10002\n    lw t1, 0(t0)\n",
                      "misaligned 4-byte load at 0x00010002"),
    "misaligned lh": ("_start:\n    li t0, 0x10001\n    lh t1, 0(t0)\n",
                      "misaligned 2-byte load"),
    "misaligned sh": ("_start:\n    li t0, 0x10001\n    sh t1, 0(t0)\n",
                      "misaligned 2-byte store"),
    "misaligned sw": ("_start:\n    li t0, 0x10002\n    sw t1, 0(t0)\n",
                      "misaligned 4-byte store"),
    "misaligned jalr target": ("_start:\n    la t0, there\n"
                               "    jalr zero, 2(t0)\nthere:\n" + EXIT,
                               "misaligned 4-byte load"),
    "unsupported syscall": ("_start:\n    li a7, 1\n    ecall\n",
                            "unsupported syscall 1"),
}

#: A store replaces ``patch`` with ``donor`` (``li a0, 7``) before the
#: first fetch of ``patch``: both paths see it and exit 7.
STORE_BEFORE_FETCH = """
_start:
    la   t0, patch
    la   t1, donor
    lw   t2, 0(t1)
    sw   t2, 0(t0)
patch:
    li   a0, 1
    li   a7, 93
    ecall
donor:
    li   a0, 7
"""

#: ``patch`` runs, is overwritten, runs again: both paths keep the
#: decoded original (the executor's decode cache) and exit 1.
STORE_AFTER_FETCH = """
_start:
    li   s0, 0
again:
patch:
    li   a0, 1
    la   t0, patch
    la   t1, donor
    lw   t2, 0(t1)
    sw   t2, 0(t0)
    addi s0, s0, 1
    li   t3, 2
    blt  s0, t3, again
    li   a7, 93
    ecall
donor:
    li   a0, 7
"""

#: Programs that halt, with the exit code both paths must report.
HALTING = {
    "ebreak": ("_start:\n    li t0, 1\n    ebreak\n", None),
    "exit syscall": ("_start:\n" + EXIT, 42),
    "write-char then exit": ("_start:\n    li a0, 65\n    li a7, 64\n"
                             "    ecall\n" + EXIT, 42),
    "jalr clears bit 0": ("_start:\n    la t0, there\n"
                          "    jalr zero, 1(t0)\nthere:\n" + EXIT, 42),
    "stack round trip": ("_start:\n    addi sp, sp, -16\n"
                         "    sw ra, 12(sp)\n    lw t0, 12(sp)\n"
                         "    addi sp, sp, 16\n" + EXIT, 42),
    "store before fetch": (STORE_BEFORE_FETCH, 7),
    "store after fetch": (STORE_AFTER_FETCH, 1),
}


class TestHaltAndErrorParity:
    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_rejected_programs_raise_alike(self, case):
        source, fragment = REJECTED[case]
        raised = assert_same_outcome(assemble(source), 1000)
        assert not isinstance(raised, OpTape), case
        assert fragment in raised[1]

    @pytest.mark.parametrize("case", sorted(HALTING))
    def test_halting_programs_give_equal_tapes(self, case):
        source, exit_code = HALTING[case]
        tape = assert_same_outcome(assemble(source), 1000)
        assert tape.exit_code == exit_code
        assert tape.halt_reason == ("EBREAK" if exit_code is None
                                    else "EXIT_SYSCALL")

    @pytest.mark.parametrize("cap", (0, 1))
    def test_tiny_caps_truncate_alike(self, cap):
        tape = assert_same_outcome(assemble("_start:\n" + EXIT), cap)
        assert tape.instructions == cap
        assert tape.halt_reason == "INSTRUCTION_LIMIT"

    def test_register_range_error_matches_from_ops(self, tmp_path):
        program = assemble("_start:\n    li t0, 1\n    li t1, 2\n"
                           "    add a0, t0, t1\n" + EXIT)
        with pytest.raises(ExecutionError) as fast:
            tape_for_program(program, num_registers=8,
                             cache=TraceCache(tmp_path))
        raised = assert_same_outcome(program, 2_000_000, num_registers=8)
        assert str(fast.value) == raised[1]
        assert raised[1] == (f"op at pc={program.entry + 8:#x} addresses "
                             "register 10, outside the 8-register file")

    def test_misaligned_load_into_wide_register_reports_misalignment(self):
        program = assemble("_start:\n    li t0, 0x10002\n"
                           "    lw a0, 0(t0)\n" + EXIT)
        raised = assert_same_outcome(program, 1000, num_registers=8)
        assert raised == (ExecutionError,
                          "misaligned 4-byte load at 0x00010002")


# -- the RV32I ops the generated programs use ---------------------------

_WORK = ("zero", "t0", "t1", "t2", "t3", "t4", "t5", "t6",
         "a2", "a3", "a4", "a5", "s3", "s4", "s5")
_R_OPS = ("add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or",
          "and")
_I_OPS = ("addi", "slti", "sltiu", "xori", "ori", "andi")
_SHIFTS = ("slli", "srli", "srai")
_BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")
_LOADS = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4}
_STORES = {"sb": 1, "sh": 2, "sw": 4}
_BUF_WORDS = 16


# -- every op on edge operands ------------------------------------------

_EDGES = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0x12345678)

#: Bytes and halfwords with and without their sign bit, for the loads.
_EDGE_DATA = ["buf:", ".word 0x807f00ff", ".word 0x7fff8000",
              ".word 0xffffffff", ".word 0x00000000"]


def _fold(reg):
    """Mix ``reg`` into a1 (xor, then rotate left by 5): the exit code."""
    return [f"xor a1, a1, {reg}", "slli t3, a1, 5", "srli a1, a1, 27",
            "or a1, a1, t3"]


def _op_cases(op):
    """Lines applying ``op`` to every edge operand, each result folded."""
    pairs = [(a, b) for a in _EDGES for b in _EDGES]
    if op in _R_OPS:
        return [line for a, b in pairs for line in (
            f"li t0, {a}", f"li t1, {b}", f"{op} t2, t0, t1", *_fold("t2"))]
    if op in _I_OPS or op in _SHIFTS:
        imms = (0, 1, 4, 31) if op in _SHIFTS else (0, 1, -1, 2047, -2048)
        return [line for a in _EDGES for imm in imms for line in (
            f"li t0, {a}", f"{op} t2, t0, {imm}", *_fold("t2"))]
    if op in ("lui", "auipc"):
        return [line for imm in (0, 1, 0x80000, 0xFFFFF) for line in (
            f"{op} t2, {imm}", *_fold("t2"))]
    if op in _BRANCHES:
        return [line for k, (a, b) in enumerate(pairs) for line in (
            f"li t0, {a}", f"li t1, {b}", f"{op} t0, t1, skip{k}",
            "addi a1, a1, 1", f"skip{k}:", *_fold("a1"))]
    if op in _LOADS:
        return [line for offset in range(0, 16, _LOADS[op]) for line in (
            f"{op} t2, {offset}(s2)", *_fold("t2"))]
    size = _STORES[op]
    return [line for value in _EDGES for offset in range(0, 8, size)
            for line in (f"li t0, {value}", f"{op} t0, {offset}(s2)",
                         f"lw t2, {offset & ~3}(s2)", *_fold("t2"))]


class TestEveryOp:
    @pytest.mark.parametrize("op", _R_OPS + _I_OPS + _SHIFTS + _BRANCHES
                             + ("lui", "auipc") + tuple(_LOADS)
                             + tuple(_STORES))
    def test_edge_operands_match_oracle(self, op):
        source = "\n".join(["_start:", "la s2, buf", "li a1, 0",
                            *_op_cases(op), "mv a0, a1", "li a7, 93",
                            "ecall", ".data", *_EDGE_DATA]) + "\n"
        tape = assert_same_outcome(assemble(source), 100_000)
        assert tape.halt_reason == "EXIT_SYSCALL"


# -- differential fuzz --------------------------------------------------

_reg = st.sampled_from(_WORK)
_word = st.one_of(st.sampled_from(_EDGES), st.integers(0, MASK32))


def _mem_op(table, op):
    size = table[op]
    offset = st.integers(0, 4 * _BUF_WORDS // size - 1).map(
        lambda k: k * size)
    return st.builds(f"{op} {{}}, {{}}(s2)".format, _reg, offset)


_straight = st.one_of(
    st.builds("{} {}, {}, {}".format, st.sampled_from(_R_OPS), _reg, _reg,
              _reg),
    st.builds("{} {}, {}, {}".format, st.sampled_from(_I_OPS), _reg, _reg,
              st.integers(-2048, 2047)),
    st.builds("{} {}, {}, {}".format, st.sampled_from(_SHIFTS), _reg, _reg,
              st.integers(0, 31)),
    st.builds("{} {}, {}".format, st.sampled_from(("lui", "auipc")), _reg,
              st.integers(0, 0xFFFFF)),
    st.sampled_from(sorted(_LOADS)).flatmap(
        lambda op: _mem_op(_LOADS, op)),
    st.sampled_from(sorted(_STORES)).flatmap(
        lambda op: _mem_op(_STORES, op)),
)

#: A body step: one straight-line op, or a forward branch over a block.
_step = st.one_of(
    _straight.map(lambda line: ("op", line)),
    st.tuples(st.just("branch"), st.sampled_from(_BRANCHES), _reg, _reg,
              st.lists(_straight, min_size=1, max_size=3)),
)


#: Each iteration folds every working register into a1, which becomes
#: the exit code: a wrong value anywhere reaches the tape's metadata.
_FOLD = [f"xor a1, a1, {reg}" for reg in _WORK[1:]]


@st.composite
def rv32i_programs(draw):
    """A terminating program: random 32-bit register values, a bounded
    loop over random steps that calls a random leaf function each
    iteration, then an exit with a checksum of the registers."""
    seeds = draw(st.lists(_word, min_size=len(_WORK) - 1,
                          max_size=len(_WORK) - 1))
    body = draw(st.lists(_step, min_size=1, max_size=16))
    leaf = draw(st.lists(_straight, max_size=4))
    words = draw(st.lists(_word, min_size=_BUF_WORDS, max_size=_BUF_WORDS))
    iterations = draw(st.integers(1, 3))
    lines = ["_start:", "la s2, buf", "li s0, 0", f"li s1, {iterations}",
             "li a1, 0"]
    lines += [f"li {reg}, {seed}" for reg, seed in zip(_WORK[1:], seeds)]
    lines.append("loop:")
    for index, step in enumerate(body):
        if step[0] == "op":
            lines.append(step[1])
        else:
            _, kind, rs1, rs2, block = step
            lines += [f"{kind} {rs1}, {rs2}, skip{index}", *block,
                      f"skip{index}:"]
    lines += ["jal ra, leaf", *_FOLD, "addi s0, s0, 1", "blt s0, s1, loop",
              "mv a0, a1", "li a7, 93", "ecall", "leaf:", *leaf,
              "jalr zero, 0(ra)", ".data", "buf:"]
    lines += [f".word {word}" for word in words]
    return "\n".join(lines) + "\n"


_lanes = st.lists(st.tuples(st.sampled_from(RF_DESIGN_NAMES), st.booleans()),
                  min_size=1, max_size=4)


def live_results(program, cap, configs):
    """The reference pipeline fed by the oracle's ``ExecutedOp`` stream."""
    results = []
    for design, config in configs:
        pipeline = GateLevelPipeline(RFTimingModel.for_design(design, config),
                                     config)
        for op in Executor(program).trace(max_instructions=cap):
            pipeline.feed(op)
        results.append(pipeline.result())
    return results


class TestDifferentialFuzz:
    @settings(max_examples=40, deadline=None)
    @given(source=rv32i_programs(), lanes=_lanes, data=st.data())
    def test_fast_path_matches_oracle(self, source, lanes, data):
        program = assemble(source)
        cap = 100_000
        tape = OpTape.from_program(program, max_instructions=cap)
        assert_same_tape(tape, oracle_tape(program, cap))
        assert tape.halt_reason == "EXIT_SYSCALL"
        truncated = data.draw(st.integers(0, tape.instructions - 1))
        assert_same_outcome(program, truncated)
        # a narrow register file: equal tapes or the same range error
        assert_same_outcome(program, cap, num_registers=12)
        configs = [(design, CoreConfig(fall_through_speculation=speculate))
                   for design, speculate in lanes]
        replayed = replay_lanes(tape, [
            Lane(RFTimingModel.for_design(design, config), config)
            for design, config in configs])
        assert [result_key(r) for r in replayed] == \
            [result_key(r) for r in live_results(program, cap, configs)]
