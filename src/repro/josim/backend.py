"""The array namespace the batched RCSJ solver runs on.

:class:`~repro.josim.solver.BatchedTransientSolver` calls NumPy
directly (its stacked lane solve is the LAPACK-batched
``numpy.linalg.solve``).  This module only names that namespace, so a
report can record which one a measurement ran on.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ArrayBackend:
    """Name of the array namespace the solver runs on."""

    name: str


_NUMPY = ArrayBackend(name="numpy")


def get_backend() -> ArrayBackend:
    """The batched solver's array namespace: always NumPy."""
    return _NUMPY
