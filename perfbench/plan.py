"""Seeded open-loop arrival plan for the ``service`` workload.

A plan is a fixed number of jobs whose due times are a Poisson process
conditioned on that count (sorted uniform draws over the arrival
phase).  Fixing the count, the per-kind counts and the duplicate
counts keeps every run's job mix identical in shape, so the median and
the tail percentile land in the same job kind's latency band on every
seed; only which keys, in which order, at which instants changes.

Keys come from seeded per-kind pools.  Distinct keys are picked from a
pool by Zipf weight without replacement, and each duplicate repeats an
already-picked key, again by Zipf weight over first-pick order, so a
few keys are popular and most appear once.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

Params = Dict[str, Any]


@dataclass(frozen=True)
class KindSpec:
    """One job kind in the mix."""

    experiment: str
    share: float          # of all jobs
    duplicate_share: float  # of this kind's jobs that repeat a key
    pool: Callable[[random.Random], List[Params]]


@dataclass(frozen=True)
class PlannedJob:
    due_s: float
    experiment: str
    params: Params

    @property
    def request_key(self) -> str:
        """Canonical identity of the request (experiment + params)."""
        return json.dumps([self.experiment, self.params], sort_keys=True)


#: Zipf exponent of key popularity.
ZIPF_S = 1.1

_FIGURE14_PROGRAMS = ("vvadd", "median", "multiply", "qsort", "rsort",
                      "towers", "spmv", "dhrystone", "mcf", "sjeng",
                      "libquantum")
_FIGURE14_SCALES = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
_DESIGN_SUBSETS = (("hiperrf",), ("dual_bank_hiperrf",),
                   ("dual_bank_hiperrf_ideal",),
                   ("hiperrf", "dual_bank_hiperrf"),
                   ("hiperrf", "dual_bank_hiperrf_ideal"),
                   ("dual_bank_hiperrf", "dual_bank_hiperrf_ideal"),
                   ("hiperrf", "dual_bank_hiperrf", "dual_bank_hiperrf_ideal"))
#: Pulse register-file geometry and pattern length of every pulse job
#: (~25 ms of work, about the length of the service's batch window).
PULSE_GEOMETRY = (16, 8)
PULSE_PATTERN_PAIRS = 4
#: HC-DRO testbench shape of every margins job: one write/read topology,
#: short settle and spacing, two read scales, so a job is one ~0.2 s
#: small-batch transient.
MARGINS_WRITE_COUNTS = (1,)
MARGINS_BASE: Params = {"reads": 1, "settle_ps": 10.0,
                        "pulse_spacing_ps": 15.0}
_MARGIN_SCALES = tuple(round(0.90 + 0.02 * i, 2) for i in range(11))
#: J2 bias of the HC-DRO cell (repro.josim.cells.RECOMMENDED_J2_BIAS_UA).
#: Each margins job draws its own bias near it, so no two jobs share an
#: operating point and every margins job computes its own lanes.
_J2_BIAS_UA = 75.0
_FIGURE15_PITCHES = tuple(70.0 + 0.5 * i for i in range(41))


def _pulse_pool(rng: random.Random) -> List[Params]:
    registers, width = PULSE_GEOMETRY
    return [{"registers": registers, "width": width,
             "pattern": [[rng.randrange(registers), rng.randrange(1 << width)]
                         for _ in range(PULSE_PATTERN_PAIRS)]}
            for _ in range(400)]


def _figure14_pool(rng: random.Random) -> List[Params]:
    pool = [{"workloads": [name], "scale": scale, "designs": list(designs)}
            for name in _FIGURE14_PROGRAMS for scale in _FIGURE14_SCALES
            for designs in _DESIGN_SUBSETS]
    rng.shuffle(pool)
    return pool


def _margins_pool(rng: random.Random) -> List[Params]:
    pool = []
    for _ in range(400):
        scales = sorted(rng.sample(_MARGIN_SCALES, 2))
        writes = rng.choice(MARGINS_WRITE_COUNTS)
        bias = round(_J2_BIAS_UA * rng.uniform(0.99, 1.01), 3)
        pool.append(dict(MARGINS_BASE, scales=scales, write_counts=[writes],
                         j2_bias_ua=bias))
    return _unique(pool)


def _figure15_pool(rng: random.Random) -> List[Params]:
    pool = [{"cell_pitch_um": pitch} for pitch in _FIGURE15_PITCHES]
    rng.shuffle(pool)
    return pool


def _unique(pool: List[Params]) -> List[Params]:
    seen = set()
    out = []
    for params in pool:
        key = json.dumps(params, sort_keys=True)
        if key not in seen:
            seen.add(key)
            out.append(params)
    return out


#: The service mix.  ``pulse_rf`` is the majority, so the median job is
#: a pulse job; ``margins`` (the slowest kind, never duplicated) is the
#: top 14%, so the 90th percentile falls in the margins band.
SERVICE_MIX: Tuple[KindSpec, ...] = (
    KindSpec("pulse_rf", 0.59, 0.15, _pulse_pool),
    KindSpec("figure14", 0.20, 0.10, _figure14_pool),
    KindSpec("margins", 0.14, 0.0, _margins_pool),
    KindSpec("figure15", 0.07, 0.25, _figure15_pool),
)


def _apportion(total: int, shares: Sequence[float]) -> List[int]:
    """Largest-remainder split of ``total`` by ``shares``."""
    raw = [total * share / sum(shares) for share in shares]
    counts = [int(value) for value in raw]
    order = sorted(range(len(raw)), key=lambda i: raw[i] - counts[i],
                   reverse=True)
    for i in order[:total - sum(counts)]:
        counts[i] += 1
    return counts


def _zipf_pick(rng: random.Random, count: int) -> int:
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(count)]
    return rng.choices(range(count), weights=weights)[0]


def _kind_requests(rng: random.Random, spec: KindSpec,
                   jobs: int) -> List[Params]:
    duplicates = round(jobs * spec.duplicate_share)
    pool = spec.pool(rng)
    distinct = jobs - duplicates
    if distinct > len(pool):
        raise ValueError(f"{spec.experiment}: pool of {len(pool)} keys "
                         f"cannot supply {distinct} distinct requests")
    picked: List[Params] = []
    for _ in range(distinct):
        picked.append(pool.pop(_zipf_pick(rng, len(pool))))
    repeats = [picked[_zipf_pick(rng, len(picked))]
               for _ in range(duplicates)]
    return picked + repeats


def build_plan(seed: int, seconds: float, jobs: int,
               mix: Sequence[KindSpec] = SERVICE_MIX) -> List[PlannedJob]:
    """The seeded plan: ``jobs`` arrivals over ``seconds``, in due order."""
    if jobs < 1 or seconds <= 0:
        raise ValueError("a plan needs at least one job and a positive "
                         "arrival phase")
    rng = random.Random(seed)
    entries: List[Tuple[str, Params]] = []
    for spec, count in zip(mix, _apportion(jobs, [s.share for s in mix])):
        entries.extend((spec.experiment, params)
                       for params in _kind_requests(rng, spec, count))
    rng.shuffle(entries)
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(jobs))
    return [PlannedJob(due, experiment, params)
            for due, (experiment, params) in zip(dues, entries)]


def duplicate_ratio(plan: Sequence[PlannedJob]) -> float:
    """Share of jobs whose request repeats an earlier one."""
    distinct = {job.request_key for job in plan}
    return 1.0 - len(distinct) / len(plan)


def warmup_requests() -> List[Tuple[str, Params]]:
    """One request per job kind, pulse netlist, margins topology and
    Figure 14 program, with keys no plan can draw: the pulse pattern is
    shorter, and the scale, pitch and bias values sit outside the
    pools."""
    registers, width = PULSE_GEOMETRY
    requests: List[Tuple[str, Params]] = [
        ("pulse_rf", {"registers": registers, "width": width,
                      "pattern": [[0, 1], [1, 2]]}),
        ("figure15", {"cell_pitch_um": 69.25}),
    ]
    for writes in MARGINS_WRITE_COUNTS:
        requests.append(("margins", dict(MARGINS_BASE, scales=[0.91, 1.01],
                                         write_counts=[writes])))
    for name in _FIGURE14_PROGRAMS:
        requests.append(("figure14", {"workloads": [name], "scale": 0.25,
                                      "designs": ["hiperrf"]}))
    return requests
