"""Trapezoidal transient solver with a Newton iteration per timestep.

Two compiled tiers share one formulation, and a reference tier checks
both:

* **batched** (:class:`BatchedTransientSolver`): B circuits sharing one
  :func:`topology_signature` are stacked into lane-major state arrays
  (``phi``/``v``/``a`` of shape ``(chunk, n)``).  The structural
  matrices (incidence, unit-valued sin/cos scatter patterns, linear
  stamp scatter, source scatter) depend only on the topology and are
  compiled once per solver; per-lane parameters (``Ic``, ``1/L``,
  conductances, bias, pulse amplitudes) are stored as compact per-lane
  *value vectors* and scattered into flat block-diagonal ``(chunk,
  n*n)`` Jacobian blocks one chunk at a time — a mega-batch of 10^5
  lanes never materializes a ``(B, n, n)`` dense stack.  Lanes are
  processed in chunks of :data:`CHUNK_LANES` so peak memory is
  ``O(chunk * n^2)`` regardless of B; within a chunk one Python-level
  timestep loop advances every lane: one batched ``sin``/``cos`` pass,
  one batched residual matmul, per-lane convergence masks with lane
  freezing (converged lanes drop out of further solves), one
  LAPACK-batched ``numpy.linalg.solve`` over the still-active
  sub-batch, and lane retirement for uneven stimulus durations.
  :meth:`BatchedTransientSolver.run_reduced` streams per-lane results
  through a reducer chunk by chunk so yield analyses over 10^4-10^5
  lanes never hold every trajectory at once.
* **scalar** (:class:`TransientSolver`, default): the same structure and
  stamps at one lane, driven by a Newton loop without the lane
  bookkeeping — preallocated ``out=`` buffers and a direct LAPACK
  ``gesv`` solve.  Every operation is the batched tier's at B=1, so a
  scalar run is bitwise equal to the same circuit's lane in any batch.
* **reference** (``reference=True``): the original per-element assembly,
  kept as the independently-auditable oracle of both compiled tiers.
  The equivalence tests drive them through the same decks and assert
  the trajectories agree to ~1e-9.

At one lane the batched tier is ~3x slower than the scalar one, so
:func:`repro.josim.testbench.run_hcdro_batch` picks by lane count; the
choice moves speed only, never a result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, TypeVar

import numpy as np

try:  # direct LAPACK entry point: ~3x less call overhead than np.linalg
    from scipy.linalg import get_lapack_funcs

    _GESV = get_lapack_funcs(
        ("gesv",), (np.empty((1, 1)), np.empty(1)))[0]
except ImportError:  # pragma: no cover - scipy is normally available
    _GESV = None

from repro.errors import SimulationError
from repro.josim.circuit import Circuit
from repro.josim.elements import (
    BiasCurrent,
    Capacitor,
    Inductor,
    JosephsonJunction,
    KAPPA,
    PulseCurrent,
    Resistor,
)

#: Above this many table entries (``steps * lanes * nodes``, one lane
#: for the scalar tier, a chunk's lanes for the batched one) the
#: per-step source fallback is used instead of precomputing the
#: source-current table, so a mega-batch never blows memory on the
#: table alone.
_SOURCE_TABLE_LIMIT = 4_000_000

#: Lanes per batched-solver chunk.  Peak memory of a batched run is
#: ``O(chunk * n^2)`` (plus the chunk's recording buffers) regardless
#: of the total lane count.
CHUNK_LANES = 2048

R = TypeVar("R")


def chunk_lane_limit() -> int:
    """Lanes per batched-solver chunk (:data:`CHUNK_LANES`)."""
    return CHUNK_LANES


@dataclass
class TransientResult:
    """Time series produced by a transient run.

    ``phases`` has shape ``(num_steps, num_nodes + 1)``: column 0 is the
    ground node (identically zero) so node indices from the circuit can be
    used directly.
    """

    circuit: Circuit
    times_ps: np.ndarray
    phases: np.ndarray
    velocities: np.ndarray

    def node_phase(self, name: str) -> np.ndarray:
        return self.phases[:, self.circuit.node(name)]

    def node_voltage_mv(self, name: str) -> np.ndarray:
        """Node voltage: V = KAPPA * dphi/dt."""
        return KAPPA * self.velocities[:, self.circuit.node(name)]

    def junction_phase(self, jj_name: str) -> np.ndarray:
        """Phase difference across a junction over time."""
        element = self.circuit.element(jj_name)
        return self.phases[:, element.pos] - self.phases[:, element.neg]

    def element_delta_phase(self, name: str) -> np.ndarray:
        element = self.circuit.element(name)
        return self.phases[:, element.pos] - self.phases[:, element.neg]

    def inductor_current_ua(self, name: str) -> np.ndarray:
        """Current through an inductor over time (uA)."""
        element = self.circuit.element(name)
        if not isinstance(element, Inductor):
            raise SimulationError(f"{name!r} is not an inductor")
        return element.inv_l * self.element_delta_phase(name)


def _stamp(matrix: np.ndarray, pos: int, neg: int, value: float) -> None:
    """Stamp a two-terminal conductance-like derivative into a matrix."""
    if pos > 0:
        matrix[pos - 1, pos - 1] += value
        if neg > 0:
            matrix[pos - 1, neg - 1] -= value
    if neg > 0:
        matrix[neg - 1, neg - 1] += value
        if pos > 0:
            matrix[neg - 1, pos - 1] -= value


def _solve_dense(jacobian: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Direct linear solve; jacobian and residual may be overwritten."""
    if _GESV is not None:
        _, _, update, info = _GESV(jacobian, residual,
                                   overwrite_a=True, overwrite_b=True)
        if info != 0:
            raise np.linalg.LinAlgError(f"gesv failed (info={info})")
        return update
    return np.linalg.solve(jacobian, residual)


class TransientSolver:
    """Phase-domain MNA with trapezoidal integration.

    State variables are the non-ground node phases.  Each step solves the
    nonlinear KCL system with Newton's method; the Jacobian is dense
    (cells have a handful of nodes).

    The compiled path runs on a one-lane :class:`_BatchedStamps`, so its
    trajectories are bitwise equal to the circuit's lane in a
    :class:`BatchedTransientSolver` batch.  ``reference=True`` selects
    the per-element assembly instead; results agree to ~1e-9 in phase.
    """

    def __init__(self, circuit: Circuit, timestep_ps: float = 0.05,
                 newton_tol_ua: float = 1e-6, max_newton_iter: int = 60,
                 reference: bool = False) -> None:
        circuit.validate()
        if timestep_ps <= 0:
            raise SimulationError("timestep must be positive")
        self.circuit = circuit
        self.h = timestep_ps
        self.tol = newton_tol_ua
        self.max_iter = max_newton_iter
        self.reference = reference
        self._n = circuit.num_nodes  # non-ground nodes
        self._stamps: Optional[_BatchedStamps] = None
        self._compiled_element_count = -1
        if not reference:
            self._compile()

    def _compile(self) -> None:
        self._stamps = _BatchedStamps(
            [self.circuit], self.h, _BatchedStructure(self.circuit))
        self._compiled_element_count = len(self.circuit.elements)

    # -- assembly helpers --------------------------------------------------

    def _residual_and_jacobian(self, phi: np.ndarray, phi_prev: np.ndarray,
                               v_prev: np.ndarray, a_prev: np.ndarray,
                               t: float):
        """Reference per-element assembly: KCL residual F (uA) and dF/dphi."""
        h = self.h
        # Trapezoidal derivative estimates at the trial point.
        v = 2.0 / h * (phi - phi_prev) - v_prev
        a = 4.0 / (h * h) * (phi - phi_prev) - 4.0 / h * v_prev - a_prev
        dv = 2.0 / h
        da = 4.0 / (h * h)

        residual = np.zeros(self._n)
        jacobian = np.zeros((self._n, self._n))

        def delta(vector: np.ndarray, pos: int, neg: int) -> float:
            left = vector[pos - 1] if pos > 0 else 0.0
            right = vector[neg - 1] if neg > 0 else 0.0
            return left - right

        def accumulate(pos: int, neg: int, current: float) -> None:
            if pos > 0:
                residual[pos - 1] += current
            if neg > 0:
                residual[neg - 1] -= current

        for element in self.circuit.elements:
            pos, neg = element.pos, element.neg
            if isinstance(element, JosephsonJunction):
                dphi = delta(phi, pos, neg)
                current = (element.critical_current_ua * np.sin(dphi)
                           + KAPPA * element.conductance * delta(v, pos, neg)
                           + KAPPA * element.capacitance * delta(a, pos, neg))
                accumulate(pos, neg, current)
                slope = (element.critical_current_ua * np.cos(dphi)
                         + KAPPA * element.conductance * dv
                         + KAPPA * element.capacitance * da)
                _stamp(jacobian, pos, neg, slope)
            elif isinstance(element, Inductor):
                current = element.inv_l * delta(phi, pos, neg)
                accumulate(pos, neg, current)
                _stamp(jacobian, pos, neg, element.inv_l)
            elif isinstance(element, Resistor):
                current = KAPPA * element.conductance * delta(v, pos, neg)
                accumulate(pos, neg, current)
                _stamp(jacobian, pos, neg, KAPPA * element.conductance * dv)
            elif isinstance(element, Capacitor):
                current = KAPPA * element.capacitance_ff * delta(a, pos, neg)
                accumulate(pos, neg, current)
                _stamp(jacobian, pos, neg,
                       KAPPA * element.capacitance_ff * da)
            elif isinstance(element, (BiasCurrent, PulseCurrent)):
                injected = element.value_at(t)
                # Injected INTO pos: appears as a negative outflow term.
                if pos > 0:
                    residual[pos - 1] -= injected
                if neg > 0:
                    residual[neg - 1] += injected
        return residual, jacobian, v, a

    # -- main entry ----------------------------------------------------------

    def run(self, duration_ps: float,
            record_every: int = 1) -> TransientResult:
        """Integrate for ``duration_ps`` and return the recorded series.

        Every ``record_every``-th step is recorded; the final step is
        always recorded even when ``steps % record_every != 0`` so the
        series ends at the true end of the transient.
        """
        if duration_ps <= 0:
            raise SimulationError("duration must be positive")
        if record_every < 1:
            raise SimulationError("record_every must be >= 1")
        steps = int(round(duration_ps / self.h))
        if not self.reference and (
                self._stamps is None
                or self._compiled_element_count != len(self.circuit.elements)):
            self._compile()  # the circuit grew since construction
        if self.reference:
            times, phases, velocities = self._run_reference(
                steps, record_every)
        else:
            times, phases, velocities = self._run_compiled(
                steps, record_every)
        return TransientResult(
            circuit=self.circuit,
            times_ps=times,
            phases=phases,
            velocities=velocities,
        )

    def _record_plan(self, steps: int, record_every: int):
        """Preallocated recording buffers (final step always recorded)."""
        recorded = list(range(0, steps + 1, record_every))
        if recorded[-1] != steps:
            recorded.append(steps)
        num_rec = len(recorded)
        times = np.zeros(num_rec)
        phases = np.zeros((num_rec, self._n + 1))
        velocities = np.zeros((num_rec, self._n + 1))
        return times, phases, velocities

    def _run_compiled(self, steps: int, record_every: int):
        """Newton loop over the one-lane stamps.

        Each operation is :meth:`BatchedTransientSolver._run_batched`'s
        at one lane (``ic`` times ``sin``/``cos`` through the unit
        scatters, ``J_lin`` added after the scatter, damping by
        division), so the two tiers give the same bits.
        """
        stamps = self._stamps
        struct = stamps.struct
        n = self._n
        h = self.h
        tol = self.tol
        max_iter = self.max_iter
        c1 = 2.0 / h             # dv/dphi
        c2 = 4.0 / (h * h)       # da/dphi
        c3 = 4.0 / h
        phi = np.zeros(n)
        v = np.zeros(n)
        a = np.zeros(n)
        times, phases, velocities = self._record_plan(steps, record_every)
        row = 1

        j_lin_flat = stamps.j_lin_flat[0]
        j_lin = j_lin_flat.reshape(n, n)
        a_v = stamps.a_v_flat[0].reshape(n, n)
        a_a = stamps.a_a_flat[0].reshape(n, n)
        ic = stamps.ic[0]
        incidence = struct.incidence
        r_sin_t = struct.r_sin_t
        jc_t = struct.jc_t
        source_rows = stamps.source_table(steps, h)
        if source_rows is not None:
            source_rows = source_rows[:, 0]

        residual = np.empty(n)
        scattered = np.empty(n)
        trig = np.empty(struct.num_jj)
        jac_flat = np.empty(n * n)
        jacobian = jac_flat.reshape(n, n)
        hist = np.empty(n)
        norm = 0.0
        dot, sin, cos = np.dot, np.sin, np.cos  # hot-loop local lookups

        for step in range(1, steps + 1):
            t = step * h
            # History + source terms: constant across Newton iterations.
            dot(a_v, c1 * phi + v, out=hist)
            step_const = -hist - a_a.dot(c2 * phi + c3 * v + a)
            if source_rows is not None:
                step_const += source_rows[step - 1]
            else:
                step_const += stamps.source_residual(t)[0]
            trial = phi.copy()  # previous solution is the predictor
            converged = False
            for _ in range(max_iter):
                # At most two +-1 terms per junction: exact in any
                # summation order, so this equals the batched phi @ D.T.
                dphi = incidence.dot(trial)
                dot(j_lin, trial, out=residual)
                residual += step_const
                sin(dphi, out=trig)
                trig *= ic
                residual += dot(trig, r_sin_t, out=scattered)
                # Exact inf-norm; the tolist round-trip is ~4x cheaper
                # than a NumPy reduction at this vector size.
                norm = max(map(abs, residual.tolist()))
                if norm < tol:
                    converged = True
                    break
                cos(dphi, out=trig)
                trig *= ic
                dot(trig, jc_t, out=jac_flat)
                jac_flat += j_lin_flat
                try:
                    update = _solve_dense(jacobian, residual)
                except np.linalg.LinAlgError as exc:
                    raise SimulationError(
                        f"singular Jacobian at t={t:.3f} ps") from exc
                # Damped Newton keeps 2pi phase slips stable.
                max_step = max(map(abs, update.tolist()))
                if max_step > 1.0:
                    update /= max_step
                trial -= update
            if not converged:
                raise SimulationError(
                    f"Newton failed to converge at t={t:.3f} ps "
                    f"(residual {norm:.3e} uA)")
            # Converged derivatives come from the trapezoidal formulas
            # directly - no redundant assembly pass.
            delta = trial - phi
            v_new = c1 * delta - v
            a_new = c2 * delta - c3 * v - a
            phi, v, a = trial, v_new, a_new
            if step % record_every == 0 or step == steps:
                times[row] = t
                phases[row, 1:] = phi
                velocities[row, 1:] = v
                row += 1
        return times, phases, velocities

    def _run_reference(self, steps: int, record_every: int):
        h = self.h
        phi = np.zeros(self._n)
        v = np.zeros(self._n)
        a = np.zeros(self._n)
        times, phases, velocities = self._record_plan(steps, record_every)
        row = 1
        norm = 0.0
        for step in range(1, steps + 1):
            t = step * h
            trial = phi.copy()  # previous solution is the predictor
            converged = False
            for _ in range(self.max_iter):
                residual, jacobian, _, _ = \
                    self._residual_and_jacobian(trial, phi, v, a, t)
                norm = float(np.max(np.abs(residual)))
                if norm < self.tol:
                    converged = True
                    break
                try:
                    update = np.linalg.solve(jacobian, residual)
                except np.linalg.LinAlgError as exc:
                    raise SimulationError(
                        f"singular Jacobian at t={t:.3f} ps") from exc
                # Damped Newton keeps 2pi phase slips stable.
                max_step = float(np.max(np.abs(update)))
                if max_step > 1.0:
                    update *= 1.0 / max_step
                trial -= update
            if not converged:
                raise SimulationError(
                    f"Newton failed to converge at t={t:.3f} ps "
                    f"(residual {norm:.3e} uA)")
            # Reuse the converged iteration's trapezoidal derivatives
            # instead of a redundant final assembly pass.
            v_new = 2.0 / h * (trial - phi) - v
            a_new = 4.0 / (h * h) * (trial - phi) - 4.0 / h * v - a
            phi, v, a = trial, v_new, a_new
            if step % record_every == 0 or step == steps:
                times[row] = t
                phases[row, 1:] = phi
                velocities[row, 1:] = v
                row += 1
        return times, phases, velocities


# ---------------------------------------------------------------------------
# Batched lane-parallel backend
# ---------------------------------------------------------------------------

def topology_signature(circuit: Circuit) -> tuple:
    """Hashable description of a circuit's *topology*.

    Two circuits with equal signatures have the same node count and the
    same ordered element list (class + node connectivity); only their
    element parameters (critical currents, inductances, bias levels,
    pulse amplitudes/timings) may differ.  Such circuits can be stacked
    into one :class:`BatchedTransientSolver` batch — this is the
    grouping contract used by :func:`repro.josim.sweep.run_configs`.
    """
    return (circuit.num_nodes,
            tuple((type(element).__name__, element.pos, element.neg)
                  for element in circuit.elements))


class _BatchedStructure:
    """Structural (parameter-free) matrices for one topology signature.

    Everything here depends only on :func:`topology_signature` — the
    junction incidence matrix, the unit-valued sin/cos scatter patterns
    (per-lane critical currents are applied as lane data at run time),
    the unit-valued linear stamp scatter matrices (per-lane
    conductances/inverse-inductances/capacitances multiply in at run
    time), the source scatter matrix, and the element index lists used
    to gather per-lane parameter vectors — so each solver compiles one
    instance and shares it across its lanes, chunks and timesteps.

    The linear stamp matrices are the sparse/block-diagonal seam: a
    two-terminal element between nodes ``(p, q)`` contributes the fixed
    four-entry ``+-1`` pattern at ``(p,p), (p,q), (q,p), (q,q)`` of the
    flattened ``(n, n)`` block, so a lane's whole linear Jacobian is
    the single matvec ``values_lane @ stamp`` — per-lane storage is the
    compact value vector, never an ``(n, n)`` matrix per element class.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.n = circuit.num_nodes
        groups = circuit.partition()
        elements = circuit.elements
        index_of = {id(e): i for i, e in enumerate(elements)}

        def indices(cls) -> List[int]:
            return [index_of[id(e)] for e in groups.get(cls, [])]

        self.jj_idx = indices(JosephsonJunction)
        self.ind_idx = indices(Inductor)
        self.res_idx = indices(Resistor)
        self.cap_idx = indices(Capacitor)
        self.bias_idx = indices(BiasCurrent)
        self.pulse_idx = indices(PulseCurrent)
        self.nodes = [(elements[i].pos, elements[i].neg)
                      for i in range(len(elements))]

        # Junction gather/scatter structure (values of +-1; the signed
        # per-lane critical currents multiply in at run time).
        self.num_jj = len(self.jj_idx)
        self.incidence = self._incidence(self.jj_idx)  # (k, n)
        self.incidence_t = self.incidence.T.copy()  # (n, k): dphi = phi @ this
        self.r_sin_t = self.incidence               # (k, n)
        self.jc_t = self._unit_stamps(self.jj_idx)  # (k, n*n)
        # Source scatter (injection INTO pos is a negative outflow).
        self.src_scatter_t = self._incidence(       # (num_src, n)
            self.bias_idx + self.pulse_idx, sign=-1.0)

        # Linear elements grouped by which trapezoidal derivative they
        # differentiate against: phi (inductors), v (JJ shunts +
        # resistors), a (JJ capacitances + capacitors).  Each group gets
        # a unit-valued stamp scatter; lane values multiply at run time.
        self.phi_idx = list(self.ind_idx)
        self.v_idx = self.jj_idx + self.res_idx
        self.a_idx = self.jj_idx + self.cap_idx
        self.stamp_phi = self._unit_stamps(self.phi_idx)  # (m_phi, n*n)
        self.stamp_v = self._unit_stamps(self.v_idx)      # (m_v, n*n)
        self.stamp_a = self._unit_stamps(self.a_idx)      # (m_a, n*n)

    def _incidence(self, element_idx: List[int],
                   sign: float = 1.0) -> np.ndarray:
        """Node incidence rows: ``sign`` at pos, ``-sign`` at neg."""
        rows = np.zeros((len(element_idx), self.n))
        for row, ei in enumerate(element_idx):
            p, q = self.nodes[ei]
            if p > 0:
                rows[row, p - 1] = sign
            if q > 0:
                rows[row, q - 1] = -sign
        return rows

    def _unit_stamps(self, element_idx: List[int]) -> np.ndarray:
        """Unit stamp rows: one flattened (n, n) +-1 pattern per element."""
        n = self.n
        stamps = np.zeros((len(element_idx), n * n))
        for row, ei in enumerate(element_idx):
            _stamp(stamps[row].reshape(n, n), *self.nodes[ei], 1.0)
        return stamps


def _capacitance_value(element) -> float:
    """KAPPA-scaled capacitance for JJ or plain capacitor elements."""
    if isinstance(element, JosephsonJunction):
        return KAPPA * element.capacitance
    return KAPPA * element.capacitance_ff


class _BatchedStamps:
    """Per-chunk lane parameter arrays over a shared `_BatchedStructure`.

    The trapezoidal derivative estimates are affine in the trial phases,
    so every linear element contributes a constant Jacobian stamp and
    the KCL residual of lane ``b`` splits as::

        F_b(phi_b) = J_lin[b] @ phi_b + step_const_b
                     + ((Ic_b * sin(phi_b @ D.T)) @ R_struct)

    where ``J_lin = A_phi + (2/h) A_v + (4/h^2) A_a`` is built once,
    ``step_const`` (history + source terms) is refreshed once per
    timestep and ``D`` is the junction incidence matrix.  A one-lane
    instance is the scalar :class:`TransientSolver`'s compiled form.

    Per-lane storage is sparse: compact value vectors per element class
    (``1/L``, ``KAPPA*G``, ``KAPPA*C``, ``Ic``) scattered through the
    structure's unit stamp matrices into flat block-diagonal
    ``(lanes, n*n)`` rows — ``a_v_flat``/``a_a_flat`` for the history
    terms and ``j_lin_flat`` for the constant linear Jacobian.  One
    instance covers one *chunk* of lanes, so peak memory is
    ``O(chunk * n^2)`` however large the full batch is; the Jacobian
    update stays the flat batched matmul
    ``J.ravel() = j_lin_flat + (Ic*cos) @ JC_struct``.
    """

    def __init__(self, circuits: Sequence[Circuit], h: float,
                 structure: _BatchedStructure) -> None:
        self.struct = structure
        n = structure.n
        batch = len(circuits)
        self.batch = batch
        dv = 2.0 / h
        da = 4.0 / (h * h)

        def lane_values(idx: List[int], attr) -> np.ndarray:
            return np.array([[attr(ckt.elements[i]) for i in idx]
                             for ckt in circuits]).reshape(batch, len(idx))

        v_vals = lane_values(structure.v_idx,
                             lambda e: KAPPA * e.conductance)
        a_vals = lane_values(structure.a_idx, _capacitance_value)
        phi_vals = lane_values(structure.phi_idx, lambda e: e.inv_l)

        # Flat block-diagonal rows; one (n*n,) block per lane, built by
        # scattering the compact value vectors through the unit stamps.
        a_v_flat = v_vals @ structure.stamp_v
        a_a_flat = a_vals @ structure.stamp_a
        j_lin_flat = (phi_vals @ structure.stamp_phi
                      + dv * a_v_flat + da * a_a_flat)
        self.a_v_flat = np.ascontiguousarray(a_v_flat)
        self.a_a_flat = np.ascontiguousarray(a_a_flat)
        self.j_lin_flat = np.ascontiguousarray(j_lin_flat)
        self.ic = lane_values(structure.jj_idx,
                              lambda e: e.critical_current_ua)

        self.bias_cur = lane_values(structure.bias_idx,
                                    lambda e: e.current_ua)
        self.bias_ramp = lane_values(structure.bias_idx,
                                     lambda e: e.ramp_ps)
        self.pulse_start = lane_values(structure.pulse_idx,
                                       lambda e: e.start_ps)
        self.pulse_amp = lane_values(structure.pulse_idx,
                                     lambda e: e.amplitude_ua)
        self.pulse_width = lane_values(structure.pulse_idx,
                                       lambda e: e.width_ps)

    def _source_values(self, t) -> np.ndarray:
        """Per-source injected currents: shape ``t.shape + (B, num_src)``."""
        t = np.asarray(t, dtype=float)
        tt = t[..., None, None]  # broadcast over (B, num_src) lane arrays
        columns = []
        if self.bias_cur.size:
            ramp = self.bias_ramp
            denom = np.where(ramp > 0, ramp, 1.0)
            columns.append(np.where(
                (ramp <= 0) | (tt >= ramp),
                self.bias_cur,
                np.where(tt <= 0, 0.0, self.bias_cur * tt / denom)))
        if self.pulse_amp.size:
            x = (tt - self.pulse_start) / self.pulse_width
            columns.append(np.where(
                (x >= 0.0) & (x <= 1.0),
                self.pulse_amp * 0.5 * (1.0 - np.cos(2.0 * np.pi * x)),
                0.0))
        if not columns:
            return np.zeros(t.shape + (self.batch, 0))
        return np.concatenate(columns, axis=-1)

    def source_residual(self, t) -> np.ndarray:
        """Signed residual source contribution: ``t.shape + (B, n)``."""
        return self._source_values(t) @ self.struct.src_scatter_t

    def source_table(self, steps: int, h: float) -> Optional[np.ndarray]:
        """Source rows of steps ``1..steps``, shape ``(steps, B, n)``.

        ``None`` when the table would exceed :data:`_SOURCE_TABLE_LIMIT`
        entries; the caller then evaluates :meth:`source_residual` once
        per step, which gives the same rows.
        """
        if steps * self.batch * max(self.struct.n, 1) > _SOURCE_TABLE_LIMIT:
            return None
        return self.source_residual(h * np.arange(1, steps + 1))


class BatchedTransientSolver:
    """Lane-parallel transient solver for same-topology circuit batches.

    Stacks ``B`` circuits sharing one :func:`topology_signature` into
    lane-major state arrays and advances them through a Python-level
    timestep loop, :data:`CHUNK_LANES` lanes at a time; the Newton
    iteration is fully vectorized across a chunk's lanes, converged
    lanes freeze out of further solves, and lanes with shorter stimulus
    programs retire early (``run`` takes per-lane durations).  Per-lane
    parameters live in compact value vectors scattered into flat
    block-diagonal Jacobian rows per chunk, so a mega-batch never
    materializes a ``(B, n, n)`` dense stack; the stacked lane solve is
    NumPy's LAPACK-batched ``linalg.solve``.  Each lane's trajectory is
    bitwise equal to a :class:`TransientSolver` run of the same circuit,
    which shares this formulation; the per-element reference assembly
    (``TransientSolver(reference=True)``) is the oracle of both.

    ``labels`` names lanes in :class:`SimulationError` messages (e.g.
    the sweep layer passes the lane's ``HCDROConfig`` repr) so a failing
    batch identifies the culprit configuration, not just the timestamp.
    """

    def __init__(self, circuits: Sequence[Circuit],
                 timestep_ps: float = 0.05, newton_tol_ua: float = 1e-6,
                 max_newton_iter: int = 60,
                 labels: Optional[Sequence[str]] = None) -> None:
        circuits = list(circuits)
        if not circuits:
            raise SimulationError("empty batch")
        if timestep_ps <= 0:
            raise SimulationError("timestep must be positive")
        for circuit in circuits:
            circuit.validate()
        if labels is not None and len(labels) != len(circuits):
            raise SimulationError(
                f"{len(labels)} labels for {len(circuits)} lanes")
        self.circuits = circuits
        self.labels = list(labels) if labels is not None else [
            f"lane {i}" for i in range(len(circuits))]
        self.h = timestep_ps
        self.tol = newton_tol_ua
        self.max_iter = max_newton_iter
        self._n = circuits[0].num_nodes
        self._compile()

    def _compile(self) -> None:
        # Derived here, not once in __init__: a circuit that grew since
        # construction (e.g. a stimulus deck stamped in later) has a
        # new topology, and every lane must still share it.
        signatures = [topology_signature(c) for c in self.circuits]
        for lane, signature in enumerate(signatures):
            if signature != signatures[0]:
                raise SimulationError(
                    f"lane {lane} does not share the batch topology "
                    f"signature; group circuits with "
                    f"repro.josim.solver.topology_signature before "
                    f"batching")
        self.signature = signatures[0]
        self._structure = _BatchedStructure(self.circuits[0])
        self._compiled_element_counts = [
            len(c.elements) for c in self.circuits]

    def _lane_error(self, lane: int, what: str, t: float) -> SimulationError:
        return SimulationError(
            f"lane {lane} ({self.labels[lane]}): {what} at t={t:.3f} ps")

    # -- main entry --------------------------------------------------------

    def run(self, durations_ps, record_every: int = 1,
            ) -> List[TransientResult]:
        """Integrate every lane and return one result per lane.

        ``durations_ps`` is a scalar (all lanes) or a per-lane sequence;
        lanes whose duration ends early retire from the step loop.  The
        recording contract matches :meth:`TransientSolver.run` per lane
        (every ``record_every``-th step plus the lane's final step).
        """
        return self.run_reduced(durations_ps,
                                lambda lane, result: result,
                                record_every=record_every)

    def run_reduced(self, durations_ps,
                    reduce: Callable[[int, TransientResult], R],
                    record_every: int = 1) -> List[R]:
        """Integrate lanes chunk by chunk, reducing results as they land.

        ``reduce(lane, result)`` is called with each lane's
        :class:`TransientResult` as soon as its chunk finishes; the
        result buffers are dropped before the next chunk starts, so a
        mega-batch yield analysis holds at most one chunk's
        trajectories (plus the reduced summaries) in memory.  Returns
        the reduced values in lane order.
        """
        batch = len(self.circuits)
        durations = np.broadcast_to(
            np.asarray(durations_ps, dtype=float), (batch,))
        if np.any(durations <= 0):
            raise SimulationError("duration must be positive")
        if record_every < 1:
            raise SimulationError("record_every must be >= 1")
        if self._compiled_element_counts != [
                len(c.elements) for c in self.circuits]:
            self._compile()  # a circuit grew since construction
        steps = np.array([int(round(float(d) / self.h)) for d in durations])
        chunk = chunk_lane_limit()
        outputs: List[R] = []
        for start in range(0, batch, chunk):
            stop = min(start + chunk, batch)
            stamps = _BatchedStamps(self.circuits[start:stop], self.h,
                                    self._structure)
            times, phases, velocities, rows = self._run_batched(
                stamps, steps[start:stop], record_every, start)
            for offset in range(stop - start):
                upto = rows[offset]
                result = TransientResult(
                    circuit=self.circuits[start + offset],
                    times_ps=times[offset, :upto].copy(),
                    phases=phases[offset, :upto].copy(),
                    velocities=velocities[offset, :upto].copy())
                outputs.append(reduce(start + offset, result))
        return outputs

    def _record_plan(self, steps: np.ndarray, record_every: int):
        """Lane-major recording buffers sized for the longest lane."""
        num_rec = [s // record_every + 1 + (1 if s % record_every else 0)
                   for s in steps]
        max_rows = max(num_rec)
        batch = len(steps)
        times = np.zeros((batch, max_rows))
        phases = np.zeros((batch, max_rows, self._n + 1))
        velocities = np.zeros((batch, max_rows, self._n + 1))
        return times, phases, velocities

    def _run_batched(self, stamps: _BatchedStamps, steps: np.ndarray,
                     record_every: int, lane_offset: int):
        """Advance one chunk of lanes; ``steps`` is chunk-local."""
        n = self._n
        h = self.h
        tol = self.tol
        max_iter = self.max_iter
        batch = stamps.batch
        c1 = 2.0 / h
        c2 = 4.0 / (h * h)
        c3 = 4.0 / h
        phi = np.zeros((batch, n))
        v = np.zeros((batch, n))
        a = np.zeros((batch, n))
        times, phases, velocities = self._record_plan(steps, record_every)
        rows = np.ones(batch, dtype=int)  # row 0 is the t=0 state

        j_lin_flat = stamps.j_lin_flat              # (batch, n*n)
        j_lin = j_lin_flat.reshape(batch, n, n)     # block-diagonal view
        a_v = stamps.a_v_flat.reshape(batch, n, n)
        a_a = stamps.a_a_flat.reshape(batch, n, n)
        ic = stamps.ic
        incidence_t = stamps.struct.incidence_t
        r_sin_t = stamps.struct.r_sin_t
        jc_t = stamps.struct.jc_t

        max_steps = int(steps.max())
        source_rows = stamps.source_table(max_steps, h)

        all_lanes = np.arange(batch)
        min_steps = int(steps.min())

        for step in range(1, max_steps + 1):
            t = step * h
            # Lane retirement: while every lane is still running, index
            # with a slice so the per-step "gathers" are views, not
            # copies; afterwards fall back to fancy indexing.
            if step <= min_steps:
                active = all_lanes
                gather = slice(None)
            else:
                active = np.nonzero(steps >= step)[0]
                gather = active
            phi_act = phi[gather]
            v_act = v[gather]
            a_act = a[gather]
            hist = (a_v[gather] @ (c1 * phi_act + v_act)[..., None])[..., 0]
            step_const = -hist - (
                a_a[gather] @ (c2 * phi_act + c3 * v_act + a_act)[..., None]
            )[..., 0]
            if source_rows is not None:
                step_const += source_rows[step - 1][gather]
            else:
                step_const += stamps.source_residual(t)[gather]
            j_lin_act = j_lin[gather]
            j_lin_flat_act = j_lin_flat[gather]
            ic_act = ic[gather]

            trial = phi_act.copy()  # previous solution is the predictor
            work = np.arange(len(active))  # lanes still iterating
            norms = np.zeros(len(active))
            for _ in range(max_iter):
                sub = trial[work]
                dphi = sub @ incidence_t
                residual = (j_lin_act[work] @ sub[..., None])[..., 0]
                residual += step_const[work]
                residual += (ic_act[work] * np.sin(dphi)) @ r_sin_t
                sub_norms = np.abs(residual).max(axis=1)
                norms[work] = sub_norms
                converged = sub_norms < tol
                if converged.any():
                    # Lane freezing: converged lanes keep their trial
                    # phases and drop out of further Newton solves.
                    keep = ~converged
                    work = work[keep]
                    if work.size == 0:
                        break
                    residual = residual[keep]
                    dphi = dphi[keep]
                jac = (j_lin_flat_act[work]
                       + (ic_act[work] * np.cos(dphi)) @ jc_t)
                jac = jac.reshape(-1, n, n)
                try:
                    update = np.linalg.solve(jac, residual[..., None])[..., 0]
                except np.linalg.LinAlgError as exc:
                    lane = lane_offset + self._singular_lane(
                        jac, residual, active[work])
                    raise self._lane_error(
                        lane, "singular Jacobian", t) from exc
                # Damped Newton keeps 2pi phase slips stable (per lane).
                max_step = np.abs(update).max(axis=1)
                over = max_step > 1.0
                if bool(over.any()):
                    update[over] /= max_step[over][:, None]
                trial[work] -= update
            if work.size:
                lane = lane_offset + int(active[work[0]])
                raise SimulationError(
                    f"lane {lane} ({self.labels[lane]}): Newton failed "
                    f"to converge at t={t:.3f} ps "
                    f"(residual {norms[work[0]]:.3e} uA)")
            v_new = 2.0 / h * (trial - phi_act) - v_act
            a_new = 4.0 / (h * h) * (trial - phi_act) - 4.0 / h * v_act - a_act
            phi[gather] = trial
            v[gather] = v_new
            a[gather] = a_new
            record = (step % record_every == 0) | (steps[active] == step)
            selected = active[record]
            if selected.size:
                at = rows[selected]
                times[selected, at] = t
                phases[selected, at, 1:] = phi[selected]
                velocities[selected, at, 1:] = v[selected]
                rows[selected] = at + 1
        return times, phases, velocities, rows

    @staticmethod
    def _singular_lane(jacobians: np.ndarray, residuals: np.ndarray,
                       lanes: np.ndarray) -> int:
        """Identify which lane of a failed stacked solve is singular."""
        for pos, lane in enumerate(lanes):
            if not np.isfinite(jacobians[pos]).all():
                return int(lane)
            try:
                solution = np.linalg.solve(jacobians[pos], residuals[pos])
            except np.linalg.LinAlgError:
                return int(lane)
            if not np.isfinite(solution).all():
                return int(lane)
        return int(lanes[0])
