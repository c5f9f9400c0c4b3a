"""Checkout cache for compiled pulse netlists.

Elaborating a pulse netlist is expensive: a 32x32 HiPerRF register file
instantiates thousands of components and wires before the first pulse is
delivered.  Benchmarks, sweeps, tests and service jobs that need a
*fresh* register file for every run were paying that cost each time even
though the topology never changes - only the state does.

This module keeps one compiled instance per build key.  The first
checkout of a key builds the netlist, compiles it (:meth:`repro.pulse.
engine.Engine.compile`) and captures a pristine :class:`~repro.pulse.
compiled.PulseSnapshot`; every later checkout restores that snapshot,
which is an O(state) array copy instead of an O(netlist) re-elaboration.

Keys are plain hashable tuples chosen by the caller; the convention used
by :mod:`repro.rf.netlist` is ``(class name, geometry, op period)``, so
any parameter that changes the topology changes the key.

:meth:`CompiledNetlistCache.checkout` is the only way to reach an
entry.  A per-key lock serialises its users - the service dispatches
jobs from a thread pool, and an in-process study may share a job's
key - and every checkout starts from the pristine snapshot, so two
interleaved users can never observe, or corrupt, each other's state.

The cache holds at most :data:`MAX_ENTRIES` netlists.  A checkout of a
new key past that bound evicts the least recently checked-out entry,
lock and all.  A holder of an evicted entry finishes on its own engine;
the next checkout of that key rebuilds it (a miss).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Callable, Dict, Hashable, Iterator, Optional, Tuple

from repro.pulse.compiled import PulseSnapshot
from repro.pulse.engine import Engine

#: A builder returns the freshly elaborated engine plus an arbitrary
#: handle (typically the driver object wrapping the netlist).
Builder = Callable[[], Tuple[Engine, Any]]

#: Most compiled netlists one cache keeps.
MAX_ENTRIES = 8


class _Entry:
    """One key's lock and, once built, its compiled netlist."""

    __slots__ = ("lock", "built")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.built: Optional[Tuple[Engine, Any, PulseSnapshot]] = None


class CompiledNetlistCache:
    """Maps build keys to (engine, handle, pristine snapshot) entries."""

    def __init__(self) -> None:
        # Least recently checked-out first; changed only under _guard.
        self._entries: Dict[Hashable, _Entry] = {}
        self._guard = threading.Lock()
        self.hits = 0
        self.misses = 0

    @contextmanager
    def checkout(self, key: Hashable,
                 builder: Builder) -> Iterator[Tuple[Engine, Any]]:
        """Exclusive, pristine use of ``key``'s netlist (thread-safe).

        On a miss, ``builder()`` elaborates the netlist; the result is
        compiled, snapshotted pristine and kept.  On a hit, the kept
        instance is restored to that snapshot (state, event queue,
        clock and delivered count all rewind).  The per-key lock
        serialises users of one netlist; different keys check out
        concurrently.  The engine/handle pair must not be used after
        the ``with`` block exits.
        """
        with self._guard:
            entry = self._entries.pop(key, None) or _Entry()
            self._entries[key] = entry
            if len(self._entries) > MAX_ENTRIES:
                del self._entries[next(iter(self._entries))]
        with entry.lock:
            if entry.built is None:
                with self._guard:
                    self.misses += 1
                engine, handle = builder()
                entry.built = (engine, handle, engine.compile().snapshot())
            else:
                with self._guard:
                    self.hits += 1
                engine, handle, pristine = entry.built
                compiled = engine.compiled
                assert compiled is not None  # entries are always compiled
                compiled.restore(pristine)
            yield engine, handle

    def clear(self) -> None:
        """Drop every entry (and reset the hit/miss counters)."""
        with self._guard:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries),
                "hits": self.hits, "misses": self.misses}


#: Process-wide default cache used by the ``checkout_cached`` factories.
DEFAULT_CACHE = CompiledNetlistCache()
