"""Op tape: the retirement stream lowered to packed NumPy arrays.

The functional executor is deterministic for an in-order core: one
``(program, instruction cap)`` pair always produces the same retirement
stream, no matter which register file design later replays it.  The CPI
sweeps exploit only half of that today - :func:`repro.cpu.simulate_program`
shares one functional pass across designs, but still pays a pure-Python
``ExecutedOp`` per instruction per replay.  This module lowers the stream
*once* into flat arrays the compiled replay tier (:mod:`repro.cpu.compiled`)
walks with plain integer indexing:

* per-op columns: a *signature* index, packed flag bits and the memory
  address (``-1`` when the op touches no memory),
* a signature table: one row per distinct ``(deduped sources, destination)``
  combination.  Every :class:`~repro.cpu.rf_model.RFTimingModel` quantity the
  timing engine needs per instruction (issue gap, operand-path latency)
  depends only on that combination, so the compiled tier evaluates the
  timing model once per signature instead of twice per op.

Tapes are design-independent, so :class:`TraceCache` persists them on disk
keyed by a digest of the assembled program image plus the instruction cap
(namespace-versioned like :class:`repro.experiments.parallel.ResultCache`):
a rerun of the Figure 14 sweep - or the same sweep over *more* designs -
skips the functional pass entirely.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ExecutionError
from repro.experiments.parallel import (
    CACHE_ENV_VAR,
    cache_max_bytes,
    enforce_cache_limit,
)
from repro.isa.assembler import Program
from repro.isa.executor import ExecutedOp, Executor, HaltReason

#: Flag bits packed into the per-op ``flags`` column.
FLAG_LOAD = 1
FLAG_STORE = 2
FLAG_TAKEN = 4
FLAG_BRANCH = 8


class _ReplayInstr:
    """Minimal :class:`~repro.isa.instructions.Instruction` stand-in.

    The timing engines read exactly one attribute off ``op.instr``
    (``is_branch``, for the no-speculation redirect rule), so tape
    round-trips carry this two-field shim instead of re-decoding.
    """

    __slots__ = ("is_branch",)

    def __init__(self, is_branch: bool) -> None:
        self.is_branch = is_branch


_BRANCH_INSTR = _ReplayInstr(True)
_PLAIN_INSTR = _ReplayInstr(False)


@dataclass
class OpTape:
    """One retirement stream, lowered to flat arrays.

    ``sig[i]`` indexes the signature table: ``sig_srcs[s]`` holds the
    op's RAR-deduped source registers (``-1``-padded, original order
    kept) and ``sig_dest[s]`` its destination (``-1`` when none).
    ``flags`` packs ``FLAG_LOAD | FLAG_STORE | FLAG_TAKEN | FLAG_BRANCH``;
    ``mem_addr`` is the effective byte address of loads/stores (``-1``
    when absent).
    """

    sig: np.ndarray        # (n,) int32
    flags: np.ndarray      # (n,) uint8
    mem_addr: np.ndarray   # (n,) int64
    sig_srcs: np.ndarray   # (n_sigs, 2) int16
    sig_dest: np.ndarray   # (n_sigs,) int16
    max_instructions: int
    num_registers: int
    exit_code: Optional[int] = None
    halt_reason: Optional[str] = None
    #: Content fingerprint (the cache digest when known).  Set by
    #: :class:`TraceCache` and :func:`tape_for_program`; computed lazily
    #: from the arrays otherwise.  Keyed on by the per-design timing
    #: table memo in :mod:`repro.cpu.compiled`.
    fingerprint: Optional[str] = None

    @property
    def instructions(self) -> int:
        return int(self.sig.shape[0])

    @property
    def signature_count(self) -> int:
        return int(self.sig_dest.shape[0])

    @property
    def hit_instruction_limit(self) -> bool:
        return self.halt_reason == HaltReason.INSTRUCTION_LIMIT.name

    def content_fingerprint(self) -> str:
        """A stable content hash of this tape, computed at most once.

        Tapes loaded through :class:`TraceCache` or built by
        :func:`tape_for_program` inherit the program digest for free;
        hand-built tapes hash their arrays on first use.  Memoization
        keys (the compiled tier's per-design timing tables) use this
        instead of re-hashing per call.
        """
        if self.fingerprint is None:
            h = hashlib.sha256()
            h.update(f"arrays:{self.max_instructions}:"
                     f"{self.num_registers}".encode())
            for arr in (self.sig, self.flags, self.mem_addr,
                        self.sig_srcs, self.sig_dest):
                h.update(np.ascontiguousarray(arr).tobytes())
            self.fingerprint = h.hexdigest()
        return self.fingerprint

    # -- lowering ----------------------------------------------------------

    @classmethod
    def from_ops(cls, ops: Iterable[ExecutedOp],
                 num_registers: int = 32,
                 max_instructions: int = 2_000_000) -> "OpTape":
        """Lower a retirement stream; validates every register index.

        Raises :class:`~repro.errors.ExecutionError` when an op addresses
        a register outside ``[0, num_registers)`` or carries more than the
        two sources an RV32I instruction can encode.
        """
        sig_index: Dict[Tuple[Tuple[int, ...], int], int] = {}
        sig_rows: List[Tuple[int, int, int]] = []
        sigs: List[int] = []
        flags: List[int] = []
        addrs: List[int] = []
        for op in ops:
            sources = tuple(dict.fromkeys(op.sources))  # RAR dedup
            if len(sources) > 2:
                raise ExecutionError(
                    f"op at pc={op.pc:#x} has {len(sources)} distinct "
                    "sources; the tape encodes at most two")
            dest = -1 if op.destination is None else op.destination
            for reg in sources + ((dest,) if dest >= 0 else ()):
                if not 0 <= reg < num_registers:
                    raise ExecutionError(
                        f"op at pc={op.pc:#x} addresses register {reg}, "
                        f"outside the {num_registers}-register file")
            key = (sources, dest)
            s = sig_index.get(key)
            if s is None:
                s = len(sig_rows)
                sig_index[key] = s
                sig_rows.append((
                    sources[0] if len(sources) > 0 else -1,
                    sources[1] if len(sources) > 1 else -1,
                    dest,
                ))
            sigs.append(s)
            bits = 0
            if op.is_load:
                bits |= FLAG_LOAD
            if op.is_store:
                bits |= FLAG_STORE
            if op.branch_taken:
                bits |= FLAG_TAKEN
            if op.instr.is_branch:
                bits |= FLAG_BRANCH
            flags.append(bits)
            addrs.append(-1 if op.mem_address is None else op.mem_address)
        return cls(
            sig=np.asarray(sigs, dtype=np.int32),
            flags=np.asarray(flags, dtype=np.uint8),
            mem_addr=np.asarray(addrs, dtype=np.int64),
            sig_srcs=(np.asarray(sig_rows, dtype=np.int16)[:, :2]
                      if sig_rows else np.empty((0, 2), dtype=np.int16)),
            sig_dest=(np.asarray(sig_rows, dtype=np.int16)[:, 2]
                      if sig_rows else np.empty((0,), dtype=np.int16)),
            max_instructions=max_instructions,
            num_registers=num_registers,
        )

    @classmethod
    def from_program(cls, program: Program,
                     max_instructions: int = 2_000_000,
                     num_registers: int = 32) -> "OpTape":
        """Run the functional executor once and lower its stream."""
        executor = Executor(program)
        tape = cls.from_ops(
            executor.trace(max_instructions=max_instructions),
            num_registers=num_registers,
            max_instructions=max_instructions)
        tape.exit_code = executor.exit_code
        tape.halt_reason = (executor.halt_reason.name
                            if executor.halt_reason is not None else None)
        return tape

    # -- replay back into ExecutedOps --------------------------------------

    def iter_ops(self) -> Iterator[ExecutedOp]:
        """Reconstruct the timing-relevant view of each retired op.

        Functional payloads the timing engines never read (pc, operand
        values, the decoded instruction) are not stored; ``pc`` is the
        tape position and ``instr`` a branch-flag shim.  Feeding these
        to :class:`~repro.cpu.pipeline.GateLevelPipeline` reproduces the
        original run exactly - the equivalence suite holds the compiled
        tier to that oracle.
        """
        srcs = self.sig_srcs
        dests = self.sig_dest
        for i, s in enumerate(self.sig.tolist()):
            bits = int(self.flags[i])
            src0 = int(srcs[s, 0])
            src1 = int(srcs[s, 1])
            sources: Tuple[int, ...] = ()
            if src0 >= 0:
                sources = (src0,) if src1 < 0 else (src0, src1)
            dest = int(dests[s])
            addr = int(self.mem_addr[i])
            yield ExecutedOp(
                pc=i,
                instr=(_BRANCH_INSTR if bits & FLAG_BRANCH
                       else _PLAIN_INSTR),  # type: ignore[arg-type]
                sources=sources,
                destination=None if dest < 0 else dest,
                branch_taken=bool(bits & FLAG_TAKEN),
                is_load=bool(bits & FLAG_LOAD),
                is_store=bool(bits & FLAG_STORE),
                mem_address=None if addr < 0 else addr,
            )

    def signatures(self) -> List[Tuple[Tuple[int, ...], Optional[int]]]:
        """The distinct ``(deduped sources, destination)`` combinations."""
        out: List[Tuple[Tuple[int, ...], Optional[int]]] = []
        for s in range(self.signature_count):
            src0 = int(self.sig_srcs[s, 0])
            src1 = int(self.sig_srcs[s, 1])
            sources: Tuple[int, ...] = ()
            if src0 >= 0:
                sources = (src0,) if src1 < 0 else (src0, src1)
            dest = int(self.sig_dest[s])
            out.append((sources, None if dest < 0 else dest))
        return out


def program_digest(program: Program, max_instructions: int,
                   num_registers: int) -> str:
    """Content hash identifying one tape: image + entry + caps."""
    h = hashlib.sha256()
    h.update(f"{program.entry}:{max_instructions}:{num_registers}".encode())
    for addr in sorted(program.image):
        h.update(addr.to_bytes(4, "little", signed=False))
        h.update((program.image[addr] & 0xFF).to_bytes(1, "little"))
    return h.hexdigest()


class TraceCache:
    """On-disk op-tape store: one ``.npz`` per program digest.

    Layout: ``<root>/<NAMESPACE>/<digest>.npz``.  The namespace carries
    the tape-format version - bump it when the array layout or lowering
    semantics change; that is the invalidation mechanism (mirroring
    :class:`repro.experiments.parallel.ResultCache`).  The digest itself
    already encodes every input that shapes the tape (program image,
    entry point, instruction cap, register count), and is re-verified
    against the stored copy on load.  Corrupt or mismatched entries are
    treated as misses and overwritten.

    ``max_bytes`` bounds the store with least-recently-used eviction
    (hits refresh entry mtime); ``None`` follows
    ``REPRO_CACHE_MAX_BYTES`` and ``0`` means unlimited.  The budget
    covers this cache's own ``.npz`` tapes - JSON results sharing the
    root are governed by
    :class:`repro.experiments.parallel.ResultCache`'s identical limit.
    """

    NAMESPACE = "cpu-tape-v1"

    def __init__(self, root: Union[str, Path],
                 max_bytes: Optional[int] = None) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @classmethod
    def from_env(cls) -> Optional["TraceCache"]:
        """The default cache, or ``None`` when ``REPRO_CACHE_DIR`` is unset."""
        root = os.environ.get(CACHE_ENV_VAR)
        return cls(root) if root else None

    def _path(self, digest: str) -> Path:
        return self.root / self.NAMESPACE / f"{digest}.npz"

    def get(self, digest: str) -> Optional[OpTape]:
        path = self._path(digest)
        try:
            with np.load(path, allow_pickle=False) as data:
                if str(data["digest"]) != digest:
                    raise ValueError("digest mismatch")
                meta = data["meta"]
                halt = str(data["halt"])
                tape = OpTape(
                    sig=np.array(data["sig"], dtype=np.int32),
                    flags=np.array(data["flags"], dtype=np.uint8),
                    mem_addr=np.array(data["mem_addr"], dtype=np.int64),
                    sig_srcs=np.array(data["sig_srcs"],
                                      dtype=np.int16).reshape(-1, 2),
                    sig_dest=np.array(data["sig_dest"], dtype=np.int16),
                    max_instructions=int(meta[0]),
                    num_registers=int(meta[1]),
                    exit_code=int(meta[3]) if int(meta[2]) else None,
                    halt_reason=halt or None,
                )
        except (OSError, ValueError, KeyError, IndexError, EOFError,
                zipfile.BadZipFile):
            # a torn or truncated publish reads as a miss, never a crash
            self.misses += 1
            return None
        tape.fingerprint = digest
        self.hits += 1
        try:
            os.utime(path)  # refresh LRU recency
        except OSError:
            pass
        return tape

    def put(self, digest: str, tape: OpTape) -> None:
        tape.fingerprint = digest
        path = self._path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        has_exit = tape.exit_code is not None
        meta = np.asarray([tape.max_instructions, tape.num_registers,
                           1 if has_exit else 0,
                           tape.exit_code if has_exit else 0],
                          dtype=np.int64)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle,
                         digest=np.asarray(digest),
                         sig=tape.sig,
                         flags=tape.flags,
                         mem_addr=tape.mem_addr,
                         sig_srcs=tape.sig_srcs,
                         sig_dest=tape.sig_dest,
                         meta=meta,
                         halt=np.asarray(tape.halt_reason or ""))
            os.replace(tmp_name, path)  # atomic publish
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        limit = self.max_bytes if self.max_bytes is not None \
            else cache_max_bytes()
        if limit > 0:
            self.evictions += enforce_cache_limit(
                self.root / self.NAMESPACE, ".npz", limit)

    def size_bytes(self) -> int:
        """Total size of the stored tapes (the eviction budget)."""
        namespace = self.root / self.NAMESPACE
        return sum(path.stat().st_size
                   for path in namespace.rglob("*.npz") if path.is_file())


TraceCacheLike = Optional[Union[TraceCache, str, Path]]


def _coerce_cache(cache: TraceCacheLike) -> Optional[TraceCache]:
    if cache is None:
        return TraceCache.from_env()
    if isinstance(cache, TraceCache):
        return cache
    return TraceCache(cache)


def tape_for_program(program: Program,
                     max_instructions: int = 2_000_000,
                     num_registers: int = 32,
                     cache: TraceCacheLike = None,
                     workload_name: str = "program",
                     strict: bool = True) -> OpTape:
    """One tape per ``(program, instruction cap)``, cached on disk.

    ``cache`` accepts a :class:`TraceCache`, a directory path, or ``None``
    (use ``REPRO_CACHE_DIR`` when set, else compute every time).  With
    ``strict`` (the default) a stream truncated by the instruction cap
    raises :class:`~repro.errors.ExecutionError`, matching
    :meth:`repro.cpu.CpuSimulator.run_program`; the capped tape is still
    cached first, so a rerun fails fast without redoing the functional
    pass.  ``strict=False`` returns the truncated tape (the sensitivity
    studies replay fixed-length prefixes).
    """
    store = _coerce_cache(cache)
    digest = program_digest(program, max_instructions, num_registers)
    tape = store.get(digest) if store is not None else None
    if tape is None:
        tape = OpTape.from_program(program, max_instructions=max_instructions,
                                   num_registers=num_registers)
        tape.fingerprint = digest
        if store is not None:
            store.put(digest, tape)
    if strict and tape.hit_instruction_limit:
        raise ExecutionError(
            f"{workload_name}: hit the {max_instructions}-instruction limit")
    return tape
