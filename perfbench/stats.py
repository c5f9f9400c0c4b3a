"""Percentiles and goodput accounting.

Percentiles use the nearest-rank rule, so a reported value is always
one of the measured samples.  A tail percentile is only reported when
at least :data:`MIN_BEYOND` samples lie beyond it: fewer than that and
the "tail" is one or two unlucky ops, which measures host noise.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

#: Samples a tail percentile needs beyond it before it is reported.
MIN_BEYOND = 10


def _rank(count: int, q: float) -> int:
    if count <= 0:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile {q} outside (0, 100]")
    return max(1, math.ceil(q / 100.0 * count))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q``-th percentile."""
    return count - _rank(count, q)


def tail_percentile(values: Sequence[float], q: float,
                    min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """The ``q``-th percentile, or ``None`` when too few samples back it."""
    if samples_beyond(len(values), q) < min_beyond:
        return None
    return percentile(values, q)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


@dataclass
class Outcome:
    """One attempted op: its host latency (``None`` if it never
    finished), whether its output passed verification, and, for an op
    bracketed by host-speed probes, its latency at reference speed."""

    kind: str
    latency_s: Optional[float]
    ok: bool = False
    ref_s: Optional[float] = None

    @property
    def finished(self) -> bool:
        return self.latency_s is not None

    @property
    def gated_s(self) -> Optional[float]:
        """The latency the gated metrics use."""
        return self.ref_s if self.ref_s is not None else self.latency_s


def ok_count(outcomes: Iterable[Outcome]) -> int:
    """Ops that finished and verified; raised, wrong or unfinished ops
    all count as failed."""
    return sum(1 for o in outcomes if o.finished and o.ok)


def goodput(outcomes: Iterable[Outcome], limit_s: float,
            phase_s: float) -> float:
    """Ops that finished correct within ``limit_s``, per phase second."""
    if phase_s <= 0:
        raise ValueError("phase must have a positive duration")
    good = sum(1 for o in outcomes
               if o.finished and o.ok and o.latency_s <= limit_s)  # type: ignore[operator]
    return good / phase_s
