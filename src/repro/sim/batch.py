"""Batched multi-defect Newton solves on stacked fault systems.

One fault campaign solves hundreds of operating points that differ from
the fault-free circuit by a rank-1/2 conductance update.  The serial
delta path (:func:`repro.sim.dc.delta_solve`) already shares the
compiled system across defects but still runs one Python-level Newton
loop per defect; this module runs one Newton loop per *batch*:

* **device evaluation** is one vectorised call over ``(n_defects,
  n_devices)`` arrays (:meth:`CompiledStamps.eval_nonlinear_batch`),
* **assembly** scatters every member's device stamps into one stacked
  array (dense matrices, or CSC ``data`` rows on the sparse path) and
  overlays each member's fault conductances at precomputed slots,
* the **linear solve** routes every still-converging member through a
  single stacked dense solve, or — on the sparse path — one multi-RHS
  back-substitution of the shared fault-free factorization with a
  per-member Woodbury correction,
* **convergence masking** drops finished members out of the batch
  without touching the arithmetic of the others.

The batch runs the rungs of the serial low-rank ladder itself, so a
member is never re-solved by a rung the batch already ran:

* Dense: one rung, the batched replay — for every member the exact
  floating-point operation sequence of the serial
  :func:`~repro.sim.dc._delta_replay`: same reset limiting state, same
  accumulation order (``np.add.at`` broadcast semantics), and a stacked
  ``np.linalg.solve`` whose per-slice results are bitwise equal to the
  serial 1-D solves.  A member that converges in the batch therefore
  lands on the bit-identical operating point.
* Sparse: members chord through the shared factorization exactly as the
  serial :func:`~repro.sim.dc._delta_chord` does (multi-RHS
  ``splu.solve`` is column-bitwise equal to the serial vector solves),
  including the stall escalation to a member-local refactorized
  operator.  A member the chord abandons (step blow-up, repeated
  stalls, non-finite or singular iterate, iteration cap) stays in the
  batch and joins the batched replay phase: one device evaluation per
  iteration for all of them, stacked CSC ``data`` assembly, and one
  ``splu`` per member — the serial sparse ``_delta_replay`` bit for bit.
* A member that fails the batch's last rung (the replay) leaves with
  the serial ladder's exact failure text and the work the batch spent
  on it; the caller continues with the conventional rungs (warm full
  solve, then cold retry), so its record is field-identical to a
  serial delta campaign's.  Only members that never entered a rung
  (unsupported options) or ran out of wall-clock budget are re-solved
  by the serial per-defect ladder from the start.

Every rung exit is counted by reason in
:attr:`BatchCounters.fallback_reasons`.  Array operations go through
:mod:`repro.sim.backend`, keeping an explicit seam for accelerator
backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .backend import ArrayBackend, get_backend
from .dc import (DeltaContext, NewtonStats, SolveDeadlineExceeded,
                 _check_deadline, _converged, _deadline_for,
                 _DELTA_STEP_BLOWUP, _DELTA_MAX_LOCAL_FACTORIZATIONS)
from .mna import (FactorCache, FaultedSystem, LowRankSolver,
                  SingularMatrixError)
from .options import SimOptions

#: One batch member's fault view: (net-index pairs, added conductances).
MemberSpec = Tuple[Sequence[Tuple[int, int]], Sequence[float]]

#: Failure text of a non-finite iterate (the serial solvers' wording).
_NONFINITE = "solution contains non-finite values"


@dataclass
class BatchMember:
    """Outcome of one member of a batched solve.

    ``x`` is the converged operating point (host array) or ``None`` when
    the member left the batch; ``failure`` then carries the serial
    ladder's failure text and ``reason`` its bucket (see
    :class:`BatchCounters`).  ``declined`` is the reason the sparse chord handed the
    member to the replay phase (``None`` if it never did).  ``stats``
    counts the work the batch spent on this member across its rungs,
    with the serial solvers' accounting.
    """

    stats: NewtonStats = field(
        default_factory=lambda: NewtonStats(strategy="batched"))
    x: Optional[np.ndarray] = None
    failure: Optional[str] = None
    reason: Optional[str] = None
    declined: Optional[str] = None


@dataclass
class BatchCounters:
    """Batch-level observability counters (see :class:`NewtonStats`).

    ``fallback_reasons`` counts rung exits by ``"<rung>.<reason>"``.
    The rung is ``chord``, ``replay`` or ``batch`` (the member never
    entered a rung).  The reason is ``stall``, ``blowup``,
    ``not_converged``, ``nonfinite`` or ``singular`` when the rung gave
    up numerically, ``deadline`` when the wall-clock budget ran out, and
    ``unsupported`` when the options or devices are outside what the
    batch models.  A chord exit hands the member to the replay phase;
    every other exit is one of ``batch_fallbacks``.
    """

    n_batched_solves: int = 0
    batch_occupancy: int = 0
    batch_fallbacks: int = 0
    fallback_reasons: Dict[str, int] = field(default_factory=dict)

    def count_exit(self, rung: str, reason: str) -> None:
        key = f"{rung}.{reason}"
        self.fallback_reasons[key] = self.fallback_reasons.get(key, 0) + 1

    def merge(self, other: "BatchCounters") -> None:
        """Add another batch's counters to these."""
        self.n_batched_solves += other.n_batched_solves
        self.batch_occupancy += other.batch_occupancy
        self.batch_fallbacks += other.batch_fallbacks
        for key, count in other.fallback_reasons.items():
            self.fallback_reasons[key] = (
                self.fallback_reasons.get(key, 0) + count)


def _leave(counters: BatchCounters, member: BatchMember, rung: str,
           reason: str, failure: str) -> None:
    """Take ``member`` out of the batch with the serial failure text."""
    member.failure = failure
    member.reason = reason
    counters.count_exit(rung, reason)


def solve_batch(context: DeltaContext, members: Sequence[MemberSpec],
                options: SimOptions,
                backend: Optional[ArrayBackend] = None
                ) -> Tuple[List[BatchMember], BatchCounters]:
    """Solve a batch of low-rank fault systems as one stacked iteration.

    Every member shares ``context`` (the fault-free compiled system at
    the reference operating point).  Returns one :class:`BatchMember`
    per spec, in order, plus the batch counters.  Never raises for a
    member-level failure: failed members carry ``x=None`` and count in
    ``batch_fallbacks``.
    """
    results = [BatchMember() for _ in members]
    counters = BatchCounters()
    if not members:
        return results, counters
    if backend is None:
        backend = get_backend()
    stamps = context.system.stamps
    # Same strategy gate as the serial ``delta_solve``; the batch only
    # models the two mainline pairings (dense replay, sparse chord).
    use_chord = options.newton_reuse != "never" and (
        context.system.sparse or options.newton_reuse == "always")
    supported = (options.delta_residual_tol <= 0 and stamps.supports_batch
                 and use_chord == context.system.sparse)
    if not supported:
        # Residual-gated acceptance re-assembles at the accepted iterate
        # (a per-member control flow the batch does not model), fallback
        # devices stamp through per-component callbacks, and the
        # off-diagonal reuse pairings (dense chord / sparse replay) are
        # serial-only; all route to the serial delta path.
        for member in results:
            _leave(counters, member, "batch", "unsupported",
                   "batching unsupported for these options")
    else:
        replay = list(range(len(members)))
        if context.system.sparse:
            replay = _batch_chord(context, members, options, backend,
                                  counters, results)
        _batch_replay(context, members, replay, options, backend, counters,
                      results)
    counters.batch_fallbacks = sum(
        1 for member in results if member.x is None)
    return results, counters


def _tile(backend: ArrayBackend, array, count: int):
    """``count`` stacked copies of ``array`` (each bitwise a ``.copy()``)."""
    hosted = backend.asarray(array)
    return backend.xp.repeat(hosted[None, ...], count, axis=0)


def _batch_replay(context: DeltaContext, members: Sequence[MemberSpec],
                  indices: Sequence[int], options: SimOptions,
                  backend: ArrayBackend, counters: BatchCounters,
                  results: List[BatchMember]) -> None:
    """Stacked bitwise replay of the serial per-defect Newton solves.

    Runs the members ``indices`` of ``members`` from the reference point
    and the reset limiting state, exactly like the serial
    ``_delta_replay``: one stacked dense solve per iteration, or on the
    sparse path the stacked CSC ``data`` rows factorized per member
    through the same ``solve_assembled`` the serial replay calls.
    """
    count = len(indices)
    if count == 0:
        return
    system = context.system
    stamps = system.stamps
    xp = backend.xp
    n_nets = context.structure.n_nets
    if system.sparse:
        faulted = [FaultedSystem(system, *members[j]) for j in indices]
        bases = _tile(backend, system.base_data, count)
    else:
        # Only the stacked bases outlive this: one dense base per member
        # is as large as the stack itself.
        bases = backend.stack([FaultedSystem(system, *members[j]).base_dense
                               for j in indices])
    rhs_base = backend.asarray(system.rhs_base)
    d_reset, qbe_reset, qbc_reset = context._reset_limits
    d_vlast = _tile(backend, d_reset, count)
    q_vbe = _tile(backend, qbe_reset, count)
    q_vbc = _tile(backend, qbc_reset, count)
    x_stack = _tile(backend, context.x_ref, count)

    active = np.arange(count)
    deadline = _deadline_for(options)
    mvs = options.max_voltage_step
    for iteration in range(options.max_nr_iterations):
        if active.size == 0:
            return
        try:
            _check_deadline(deadline, iteration, "batched replay solve")
        except SolveDeadlineExceeded as error:
            for a in active:
                _leave(counters, results[indices[a]], "replay", "deadline",
                       str(error))
            return
        x_active = x_stack[active]
        (nl_vals, nl_rhs_vals, limited, d_new, qbe_new,
         qbc_new) = stamps.eval_nonlinear_batch(
            x_active, d_vlast[active], q_vbe[active], q_vbc[active], xp)
        d_vlast[active] = d_new
        q_vbe[active] = qbe_new
        q_vbc[active] = qbc_new

        rows = np.arange(active.size)
        rhs = _tile(backend, rhs_base, active.size)
        if nl_rhs_vals.shape[1]:
            backend.scatter_add(
                rhs, (rows[:, None], stamps.nl_rhs_rows[None, :]),
                nl_rhs_vals)
        matrices = bases[active]
        if nl_vals.shape[1]:
            slots = ((rows[:, None], system.pattern.nl_pos[None, :])
                     if system.sparse else
                     (rows[:, None], stamps.nl_rows[None, :],
                      stamps.nl_cols[None, :]))
            backend.scatter_add(matrices, slots, nl_vals)

        counters.n_batched_solves += 1
        counters.batch_occupancy += int(active.size)
        failed = np.zeros(active.size, dtype=bool)

        def fail(row: int, text: str) -> None:
            failed[row] = True
            _leave(counters, results[indices[active[row]]], "replay",
                   "nonfinite" if text == _NONFINITE else "singular", text)

        if system.sparse:
            x_next = xp.zeros_like(rhs)
            for row, a in enumerate(active):
                try:
                    x_next[row] = system.solve_assembled(
                        faulted[a].matrix(matrices[row]), rhs[row])
                except SingularMatrixError as error:
                    fail(row, str(error))
        else:
            try:
                x_next = backend.solve_stacked(matrices, rhs)
            except np.linalg.LinAlgError:
                # One singular member poisons the stacked solve; isolate
                # it with per-member solves (bitwise equal to the rows).
                x_next = xp.zeros_like(rhs)
                for row in range(active.size):
                    try:
                        x_next[row] = backend.solve_one(matrices[row],
                                                        rhs[row])
                    except np.linalg.LinAlgError as error:
                        fail(row, str(error))
            finite = backend.to_numpy(xp.isfinite(x_next).all(axis=1))
            for row in np.nonzero(~finite & ~failed)[0]:
                fail(row, _NONFINITE)

        if mvs > 0:
            step = x_next[:, :n_nets] - x_active[:, :n_nets]
            xp.clip(step, -mvs, mvs, out=step)
            x_next[:, :n_nets] = x_active[:, :n_nets] + step

        survivors = ~failed
        for row in np.nonzero(survivors)[0]:
            stats = results[indices[active[row]]].stats
            stats.iterations += 1
            stats.n_factorizations += 1

        # Elementwise broadcast of the serial ``_converged`` test.
        delta = xp.abs(x_next - x_active)
        scale = xp.maximum(xp.abs(x_next), xp.abs(x_active))
        tol = options.reltol * scale
        tol[:, :n_nets] += options.vntol
        tol[:, n_nets:] += options.abstol
        conv = backend.to_numpy((delta <= tol).all(axis=1))
        lim = backend.to_numpy(limited)
        done = survivors & ~lim & conv
        for row in np.nonzero(done)[0]:
            results[indices[active[row]]].x = np.array(
                backend.to_numpy(x_next[row]), copy=True)
        x_stack[active] = x_next
        active = active[survivors & ~done]
    for a in active:
        _leave(counters, results[indices[a]], "replay", "not_converged",
               f"delta replay Newton did not converge in "
               f"{options.max_nr_iterations} iterations")


def _batch_chord(context: DeltaContext, members: Sequence[MemberSpec],
                 options: SimOptions, backend: ArrayBackend,
                 counters: BatchCounters,
                 results: List[BatchMember]) -> List[int]:
    """Batched Woodbury chords through the shared sparse factorization.

    The shared work — device evaluation, CSC ``data`` assembly and the
    reference-factorization back-substitution — runs batched; the small
    ``k x k`` capacitance corrections and the sparse residual matvecs
    stay per-member (``k`` is 1 or 2).  A stalled member refactorizes
    its true faulty Jacobian into a member-local operator and keeps
    chording through it — same escalation, same arithmetic as the
    serial chord — while still riding the batched device evaluation.
    Returns, in order, the members the chord abandons where the serial
    chord would (step blow-up, repeated stalls, non-finite or singular
    iterates, iteration cap): the replay phase takes them over.
    """
    system = context.system
    stamps = system.stamps
    xp = backend.xp
    n = system.n
    n_nets = context.structure.n_nets
    count = len(members)
    declined: List[int] = []

    def decline(j: int, reason: str) -> None:
        results[j].declined = reason
        counters.count_exit("chord", reason)
        declined.append(j)

    faulted = [FaultedSystem(system, pairs, gs) for pairs, gs in members]
    solvers: List[Optional[LowRankSolver]] = []
    for index, (pairs, gs) in enumerate(members):
        try:
            solvers.append(LowRankSolver(context.cache, n, pairs, gs))
        except (SingularMatrixError, np.linalg.LinAlgError):
            solvers.append(None)
            decline(index, "singular")

    d_ref, qbe_ref, qbc_ref = context._reference_limits
    d_vlast = _tile(backend, d_ref, count)
    q_vbe = _tile(backend, qbe_ref, count)
    q_vbc = _tile(backend, qbc_ref, count)
    x_stack = _tile(backend, context.x_ref, count)

    active = np.array([i for i in range(count) if solvers[i] is not None],
                      dtype=np.intp)
    # Members whose chord stalled carry a member-local refactorized
    # operator, exactly like the serial chord; they keep riding the
    # batched device evaluation but solve per-member.
    operators: List[Optional[FactorCache]] = [None] * count
    local_factorizations = np.zeros(count, dtype=int)
    prev_rnorm = np.full(count, np.nan)
    deadline = _deadline_for(options)
    mvs = options.max_voltage_step
    accept = options.delta_accept_factor
    for iteration in range(options.delta_max_iterations):
        if active.size == 0:
            return sorted(declined)
        try:
            _check_deadline(deadline, iteration, "batched chord solve")
        except SolveDeadlineExceeded as error:
            for j in active:
                _leave(counters, results[j], "chord", "deadline",
                       str(error))
            return sorted(declined)
        x_active = x_stack[active]
        (nl_vals, nl_rhs_vals, limited, d_new, qbe_new,
         qbc_new) = stamps.eval_nonlinear_batch(
            x_active, d_vlast[active], q_vbe[active], q_vbc[active], xp)
        d_vlast[active] = d_new
        q_vbe[active] = qbe_new
        q_vbc[active] = qbc_new

        # Stacked assembly (row-wise bitwise ``FaultedSystem.assemble``)
        # and per-member residuals ``b - A x``.
        rows = np.arange(active.size)
        data = backend.to_numpy(_tile(backend, system.base_data,
                                      active.size))
        rhs = backend.to_numpy(_tile(backend, system.rhs_base, active.size))
        nl_vals_host = backend.to_numpy(nl_vals)
        if nl_vals_host.shape[1]:
            backend.scatter_add(
                data, (rows[:, None], system.pattern.nl_pos[None, :]),
                nl_vals_host)
        nl_rhs_host = backend.to_numpy(nl_rhs_vals)
        if nl_rhs_host.shape[1]:
            backend.scatter_add(
                rhs, (rows[:, None], stamps.nl_rhs_rows[None, :]),
                nl_rhs_host)
        limited_host = backend.to_numpy(limited)
        x_host = backend.to_numpy(x_active)

        # A stalled member refactorizes its true faulty Jacobian into a
        # member-local operator, exactly like the serial chord.
        shared_rows: List[int] = []
        shared_residuals: List[np.ndarray] = []
        local_rows: List[int] = []
        local_residuals: List[np.ndarray] = []
        for row, j in enumerate(active):
            view = faulted[j]
            matrix = view.matrix(data[row])
            residual = rhs[row] - matrix.dot(x_host[row])
            rnorm = (float(np.max(np.abs(residual)))
                     if residual.size else 0.0)
            if not np.isfinite(rnorm):
                decline(j, "nonfinite")
                continue
            if (np.isfinite(prev_rnorm[j])
                    and rnorm > options.reuse_stall_ratio * prev_rnorm[j]):
                if (local_factorizations[j]
                        >= _DELTA_MAX_LOCAL_FACTORIZATIONS):
                    decline(j, "stall")
                    continue
                if operators[j] is None:
                    operators[j] = FactorCache()
                try:
                    operators[j].factorize(matrix, view.factor_token,
                                           view.sparse)
                except SingularMatrixError:
                    decline(j, "singular")
                    continue
                local_factorizations[j] += 1
                results[j].stats.n_factorizations += 1
            else:
                results[j].stats.n_reuses += 1
            prev_rnorm[j] = rnorm
            if operators[j] is None:
                shared_rows.append(int(j))
                shared_residuals.append(residual)
            else:
                local_rows.append(int(j))
                local_residuals.append(residual)

        # One multi-RHS back-substitution through the shared reference
        # factorization (column-bitwise equal to per-member solves)
        # covers every non-stalled member; stalled members solve through
        # their local operator.
        steps: List[Tuple[int, np.ndarray]] = []
        if shared_rows:
            counters.n_batched_solves += 1
            counters.batch_occupancy += len(shared_rows)
            stacked = np.stack(shared_residuals, axis=1)
            y_all = context.cache.solve(stacked)
            if y_all.ndim == 1:
                y_all = y_all.reshape(n, 1)
            for column, j in enumerate(shared_rows):
                solver = solvers[j]
                y = y_all[:, column]
                try:
                    w = np.linalg.solve(solver.capacitance, solver.u.T @ y)
                except np.linalg.LinAlgError:
                    decline(j, "singular")
                    continue
                steps.append((j, y - solver.z @ w))
        for j, residual in zip(local_rows, local_residuals):
            steps.append((j, operators[j].solve(residual)))

        position = {int(j): row for row, j in enumerate(active)}
        next_active: List[int] = []
        for j, dx in steps:
            if mvs > 0:
                np.clip(dx[:n_nets], -mvs, mvs, out=dx[:n_nets])
            x_old = x_host[position[j]]
            x_new = x_old + dx
            if not np.all(np.isfinite(x_new)):
                decline(j, "nonfinite")
                continue
            if float(np.max(np.abs(dx))) > _DELTA_STEP_BLOWUP:
                decline(j, "blowup")
                continue
            results[j].stats.iterations += 1
            if not limited_host[position[j]] and _converged(
                    x_old, x_new, n_nets, options, accept):
                results[j].x = x_new
            else:
                x_stack[j] = backend.asarray(x_new)
                next_active.append(int(j))
        next_active.sort()
        active = np.array(next_active, dtype=np.intp)
    for j in active:
        decline(int(j), "not_converged")
    return sorted(declined)
