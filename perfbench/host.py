"""Environment pinning, host-speed probes and process facts.

The benchmark measures host time on a shared machine whose speed
drifts in phases of seconds to minutes, by up to 2x for numpy-heavy
code.  :class:`HostProbe` runs fixed benchmark-owned computations:
their start and end timings (``host.calib_*``) let a reader tell a slow
host phase from a slow program, and the closed loops divide each op's
latency by the probe timings around it to get a reference-speed
latency that the host's phases do not move.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

#: Environment variables that select tiers and knobs inside ``repro``;
#: every one is removed so a developer's shell cannot change the path.
ENV_PREFIX = "REPRO_"
#: Thread-count variables that can change numpy's path; recorded only.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def clear_repro_env() -> List[str]:
    """Remove every ``REPRO_*`` variable; return the names removed."""
    names = sorted(name for name in os.environ if name.startswith(ENV_PREFIX))
    for name in names:
        del os.environ[name]
    return names


#: Composite probe time at nominal speed of a 2-vCPU Xeon VM.  It only
#: sets the scale of reference-speed times (a closed-loop op's latency
#: divided by the host factor reads as seconds on such a host).
PROBE_REF_S = 0.035
#: Tries per calibration probe at the start and end of a run.
_CALIB_REPS = 5


class HostProbe:
    """Fixed benchmark-owned computations that track the host's speed.

    ``python`` is a pure-Python loop, ``solve`` a small batched
    ``numpy.linalg.solve`` (the RCSJ solver's shape class), ``ufuncs``
    a Python loop of small array operations and ``arrays`` a loop of
    lane-batched operations on 1.3 MB arrays.  Host phases slow each by
    a different amount.  The composite sums ``python``, ``ufuncs`` and
    ``arrays``: fitted against op times, that sum follows both closed
    loops' slowdowns, while ``solve`` barely follows either.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._systems = rng.standard_normal((288, 12, 12)) + 12.0 * np.eye(12)
        self._rhs = rng.standard_normal((288, 12, 1))
        self._x = rng.standard_normal((288, 12))
        self._y = rng.standard_normal((288, 12))
        self._blocks = rng.standard_normal((288, 24, 24))
        self._vectors = rng.standard_normal((288, 24))

    @staticmethod
    def python() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        elapsed = time.perf_counter() - start
        if total != 199_999:
            raise RuntimeError("host probe computed a wrong sum")
        return elapsed

    def solve(self) -> float:
        start = time.perf_counter()
        for _ in range(20):
            self._np.linalg.solve(self._systems, self._rhs)
        return time.perf_counter() - start

    def ufuncs(self) -> float:
        np = self._np
        start = time.perf_counter()
        z = self._x
        for _ in range(200):
            z = np.tanh(z * 0.5 + self._y) - np.sin(z)
        return time.perf_counter() - start

    def arrays(self) -> float:
        np = self._np
        start = time.perf_counter()
        for _ in range(20):
            product = np.einsum("lij,lj->li", self._blocks, self._vectors)
            self._blocks * 0.5 + self._blocks.transpose(0, 2, 1)
            np.sin(self._vectors) + product
        return time.perf_counter() - start

    def composite(self) -> float:
        """Sum of the tracking probes, each the fastest of three tries
        (a single try can be hit by a scheduler hiccup)."""
        return sum(min(probe() for _ in range(3))
                   for probe in (self.python, self.ufuncs, self.arrays))

    def calibrate(self) -> Tuple[float, float]:
        """Median seconds of the pure-Python and the solve probe."""
        py = [self.python() for _ in range(_CALIB_REPS)]
        npy = [self.solve() for _ in range(_CALIB_REPS)]
        return statistics.median(py), statistics.median(npy)


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _commit(root: Path) -> str:
    """HEAD of the checkout's own ``.git``, read directly (running git
    would read configuration outside the checkout); ``unknown`` when
    the checkout is not a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: Path) -> str:
    """SHA-256 over ``src/**/*.py``: names the measured code when the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(root: Path, seed: int, cleared: List[str]) -> Dict[str, Any]:
    """What a reader needs to know which path was measured."""
    import numpy as np

    from repro.cpu import resolve_lanes_tier as cpu_lanes_tier
    from repro.cpu.compiled import compiled_enabled
    from repro.josim.backend import get_backend
    from repro.josim.solver import chunk_lane_limit
    from repro.pulse import Engine
    from repro.pulse.batched import resolve_lanes_tier as pulse_lanes_tier

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        affinity = os.cpu_count() or 1
    return {
        "seed": seed,
        "commit": _commit(root),
        "src_sha256": source_digest(root),
        "nproc": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro_env_cleared": cleared,
        "thread_env": {name: os.environ[name] for name in THREAD_VARS
                       if name in os.environ},
        "tiers": {
            "cpu_compiled": compiled_enabled(),
            "cpu_lanes": list(cpu_lanes_tier()),
            "pulse_lanes": list(pulse_lanes_tier(Engine().compile())),
            "josim_chunk": chunk_lane_limit(),
            "josim_backend": get_backend().name,
        },
    }


SETUP_MARKER = "perfbench-setup-s"


def child_setups(script: Path, args: List[str], count: int,
                 probe: HostProbe,
                 timeout_s: float = 120.0) -> List[Tuple[float, float]]:
    """``(host, reference)`` set-up seconds of ``count`` fresh processes.

    Each child runs the workload's set-up with ``--setup-only``, prints
    its own set-up time and exits; ``subprocess.run`` waits for it, so
    no child outlives the call.  The probe runs in this process before
    and after each child, which scales the child's time to reference
    speed the same way the closed loops scale their ops.
    """
    times = []
    before = probe.composite()
    for _ in range(count):
        done = subprocess.run([sys.executable, str(script), *args,
                               "--setup-only"],
                              capture_output=True, text=True,
                              timeout=timeout_s)
        after = probe.composite()
        lines = [line for line in done.stdout.splitlines()
                 if line.startswith(SETUP_MARKER)]
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"set-up child failed ({done.returncode}): "
                               f"{done.stderr.strip()[-2000:]}")
        host_s = float(lines[-1].split()[1])
        factor = (before + after) / (2.0 * PROBE_REF_S)
        times.append((host_s, host_s / factor))
        before = after
    return times
