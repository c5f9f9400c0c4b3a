"""Tests for op-tape lowering and the on-disk trace cache."""

import json

import numpy as np
import pytest

from repro.cpu import CoreConfig, OpTape, tape_for_program
from repro.cpu.optape import TAPE_NAMESPACE, program_digest
from repro.errors import ExecutionError
from repro.experiments.parallel import ResultCache
from repro.isa import Executor, Instruction, assemble
from repro.isa.executor import ExecutedOp
from repro.workloads import PASS_EXIT_CODE, get_workload

SIMPLE = """
_start:
    li   s0, 0
    li   s1, 20
loop:
    addi s0, s0, 1
    blt  s0, s1, loop
    li   a0, 42
    li   a7, 93
    ecall
"""

INFINITE = "_start:\n  j _start\n"


def make_op(rd=None, srcs=(), branch=False, taken=False, load=False,
            store=False, addr=None, pc=0):
    instr = Instruction("beq" if branch else "add", rd=rd,
                        rs1=srcs[0] if srcs else None,
                        rs2=srcs[1] if len(srcs) > 1 else None)
    return ExecutedOp(pc=pc, instr=instr, sources=tuple(srcs),
                      destination=rd, branch_taken=taken, is_load=load,
                      is_store=store, mem_address=addr)


class TestLowering:
    def test_roundtrip_preserves_timing_view(self):
        program = assemble(get_workload("towers").build(0.3))
        original = list(Executor(program).trace(max_instructions=60_000))
        tape = OpTape.from_program(program, max_instructions=60_000)
        replayed = list(tape.iter_ops())
        assert len(replayed) == len(original) == tape.instructions
        for orig, back in zip(original, replayed):
            assert back.sources == tuple(dict.fromkeys(orig.sources))
            assert back.destination == orig.destination
            assert back.branch_taken == orig.branch_taken
            assert back.instr.is_branch == orig.instr.is_branch
            assert back.is_load == orig.is_load
            assert back.is_store == orig.is_store
            assert back.mem_address == orig.mem_address

    def test_exit_metadata_captured(self):
        tape = OpTape.from_program(assemble(SIMPLE))
        assert tape.exit_code == PASS_EXIT_CODE
        assert not tape.hit_instruction_limit

    def test_signatures_deduplicate(self):
        ops = [make_op(rd=1, srcs=(2, 3)) for _ in range(10)]
        tape = OpTape.from_ops(ops)
        assert tape.instructions == 10
        assert tape.signature_count == 1
        assert tape.signatures() == [((2, 3), 1)]

    def test_rar_sources_deduplicated(self):
        tape = OpTape.from_ops([make_op(rd=1, srcs=(4, 4))])
        assert tape.signatures() == [((4,), 1)]

    def test_out_of_range_register_rejected(self):
        with pytest.raises(ExecutionError, match="register 33"):
            OpTape.from_ops([make_op(rd=33, srcs=())])
        with pytest.raises(ExecutionError, match="register 40"):
            OpTape.from_ops([make_op(rd=1, srcs=(40,))])

    def test_too_many_sources_rejected(self):
        op = make_op(rd=1, srcs=(2, 3))
        bad = ExecutedOp(pc=op.pc, instr=op.instr, sources=(2, 3, 4),
                         destination=1, branch_taken=False, is_load=False,
                         is_store=False)
        with pytest.raises(ExecutionError, match="sources"):
            OpTape.from_ops([bad])

    def test_empty_tape(self):
        tape = OpTape.from_ops([])
        assert tape.instructions == 0
        assert tape.signature_count == 0
        assert list(tape.iter_ops()) == []


class TestProgramDigest:
    def test_stable(self):
        program = assemble(SIMPLE)
        assert program_digest(program, 1000, 32) == \
            program_digest(program, 1000, 32)

    def test_inputs_distinguish(self):
        program = assemble(SIMPLE)
        other = assemble(SIMPLE.replace("20", "21"))
        base = program_digest(program, 1000, 32)
        assert program_digest(other, 1000, 32) != base
        assert program_digest(program, 2000, 32) != base
        assert program_digest(program, 1000, 64) != base


def stored_entry(cache, digest):
    """The raw JSON entry of a stored tape."""
    return json.loads(cache._path(TAPE_NAMESPACE, digest).read_text())


def assert_same_columns(got, want):
    for name in ("sig", "flags", "mem_addr", "sig_srcs", "sig_dest"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


class TestTraceCache:
    """Op tapes persist as result-cache entries keyed by program digest."""

    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        program = assemble(SIMPLE)
        tape = tape_for_program(program, max_instructions=5_000,
                                cache=cache)
        loaded = tape_for_program(program, max_instructions=5_000,
                                  cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)
        assert loaded is not tape
        assert_same_columns(loaded, tape)
        assert all(getattr(loaded, name).flags.writeable
                   for name in ("sig", "flags", "mem_addr", "sig_srcs",
                                "sig_dest"))
        assert loaded.instructions == tape.instructions
        assert loaded.exit_code == tape.exit_code
        assert loaded.halt_reason == tape.halt_reason
        assert loaded.max_instructions == 5_000
        assert loaded.fingerprint == program_digest(program, 5_000, 32)

    def test_missing_entry_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(TAPE_NAMESPACE, "0" * 64) is None
        assert cache.misses == 1

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache._path(TAPE_NAMESPACE, "f" * 64)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a json entry")
        assert cache.get(TAPE_NAMESPACE, "f" * 64) is None

    def test_digest_mismatch_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        program = assemble(SIMPLE)
        tape_for_program(program, cache=cache)
        digest = program_digest(program, 2_000_000, 32)
        cache._path(TAPE_NAMESPACE, digest).rename(
            cache._path(TAPE_NAMESPACE, "b" * 64))
        assert cache.get(TAPE_NAMESPACE, "b" * 64) is None


#: Ways a stored tape value can fail to decode; each must be rebuilt.
MALFORMED_TAPES = {
    "missing field": lambda value: value.pop("exit_code"),
    "column not a string": lambda value: value.update(sig=17),
    "column not base64": lambda value: value.update(flags="!not base64!"),
    "cap not an integer": lambda value: value.update(
        max_instructions="5000"),
    "halt reason not a string": lambda value: value.update(halt_reason=3),
    # 3 bytes cannot hold int32 values; 3 int16 values are no pairs
    "bytes do not fit the dtype": lambda value: value.update(sig="AAAA"),
    "sig_srcs not pairs": lambda value: value.update(sig_srcs="AAAAAAAA"),
    "columns disagree in length": lambda value: value.update(flags=""),
}


class TestMalformedTapeEntries:
    @pytest.mark.parametrize("case", sorted(MALFORMED_TAPES))
    def test_malformed_entry_is_rebuilt_and_overwritten(self, tmp_path,
                                                         case):
        cache = ResultCache(tmp_path)
        program = assemble(SIMPLE)
        built = tape_for_program(program, max_instructions=5_000,
                                 cache=cache)
        digest = program_digest(program, 5_000, 32)
        good = stored_entry(cache, digest)
        bad = json.loads(json.dumps(good))
        MALFORMED_TAPES[case](bad["value"])
        cache._path(TAPE_NAMESPACE, digest).write_text(json.dumps(bad))
        rebuilt = tape_for_program(program, max_instructions=5_000,
                                   cache=cache)
        assert_same_columns(rebuilt, built)
        assert rebuilt.exit_code == built.exit_code
        assert stored_entry(cache, digest) == good  # overwritten

    def test_value_that_is_not_an_object_is_rebuilt(self, tmp_path):
        cache = ResultCache(tmp_path)
        program = assemble(SIMPLE)
        digest = program_digest(program, 5_000, 32)
        cache.put(TAPE_NAMESPACE, digest, [1, 2, 3])
        tape = tape_for_program(program, max_instructions=5_000, cache=cache)
        assert tape.exit_code == PASS_EXIT_CODE
        assert stored_entry(cache, digest)["value"]["exit_code"] == \
            PASS_EXIT_CODE


class TestTapeForProgram:
    def test_warm_cache_skips_functional_pass(self, tmp_path, monkeypatch):
        program = assemble(SIMPLE)
        cache = ResultCache(tmp_path)
        first = tape_for_program(program, max_instructions=5_000, cache=cache)
        lowered = []
        original = OpTape.from_program
        monkeypatch.setattr(
            OpTape, "from_program",
            classmethod(lambda cls, *a, **kw: (lowered.append(1),
                                               original(*a, **kw))[1]))
        second = tape_for_program(program, max_instructions=5_000,
                                  cache=cache)
        assert lowered == []  # served from disk, no executor run
        assert cache.hits == 1
        assert second.instructions == first.instructions

    def test_path_argument_coerced(self, tmp_path):
        program = assemble(SIMPLE)
        tape_for_program(program, cache=tmp_path)
        again = ResultCache(tmp_path)
        assert again.get(TAPE_NAMESPACE,
                         program_digest(program, 2_000_000, 32)) is not None

    def test_strict_truncation_raises_but_caches(self, tmp_path):
        program = assemble(INFINITE)
        cache = ResultCache(tmp_path)
        with pytest.raises(ExecutionError, match="100-instruction limit"):
            tape_for_program(program, max_instructions=100, cache=cache,
                             workload_name="infinite")
        with pytest.raises(ExecutionError, match="100-instruction limit"):
            tape_for_program(program, max_instructions=100, cache=cache,
                             workload_name="infinite")
        assert cache.hits == 1  # second failure came from the cached tape

    def test_lenient_truncation_returns_prefix(self):
        tape = tape_for_program(assemble(INFINITE), max_instructions=100,
                                strict=False)
        assert tape.instructions == 100
        assert tape.hit_instruction_limit
        assert tape.exit_code is None


class TestSimulatorIntegration:
    def test_simulate_program_uses_trace_cache(self, tmp_path):
        from repro.cpu import simulate_program

        program = assemble(SIMPLE)
        cache = ResultCache(tmp_path)
        cold = simulate_program(program, trace_cache=cache)
        warm = simulate_program(program, trace_cache=cache)
        assert cache.hits == 1
        for design in cold:
            assert cold[design].total_cycles == warm[design].total_cycles

    def test_config_register_count_flows_into_digest(self, tmp_path):
        from repro.cpu import simulate_program

        program = assemble(SIMPLE)
        cache = ResultCache(tmp_path)
        simulate_program(program, trace_cache=cache)
        simulate_program(program, trace_cache=cache,
                         config=CoreConfig(num_registers=64))
        assert cache.hits == 0  # different register bound, different tape
