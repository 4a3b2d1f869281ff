"""Tests for the low-rank (Woodbury / replay) fault-delta solver.

The delta path solves added-conductance defects on a shared fault-free
compiled system, skipping per-defect injection and compilation.  Its
contract is strict: the dense replay solver reproduces the conventional
inject-and-solve trajectory *bit for bit*, campaign verdicts are
identical to the warm-started campaign's, opens fall back to the full
solver, and serial/parallel runs return the same records.
"""

import numpy as np
import pytest

from repro.cml import NOMINAL, buffer_chain
from repro.dft import build_shared_monitor
from repro.faults import (
    Bridge,
    FlagOracle,
    IddqOracle,
    LogicOracle,
    Pipe,
    enumerate_defects,
    run_campaign,
)
from repro.faults.campaign import _warm_start_vector
from repro.faults.defects import ResistorShort
from repro.faults.injector import inject
from repro.sim.dc import DeltaContext, NewtonStats, delta_solve, operating_point
from repro.sim.mna import structure_for
from repro.sim.options import SimOptions

TECH = NOMINAL


@pytest.fixture(scope="module")
def bench():
    chain = buffer_chain(TECH, n_stages=3, frequency=100e6)
    monitor = build_shared_monitor(chain.circuit, chain.output_nets,
                                   tech=TECH)
    oracles = [
        LogicOracle(chain.output_nets),
        FlagOracle(monitor.nets.flag, monitor.nets.flagb),
        IddqOracle(),
    ]
    defects = list(enumerate_defects(
        chain.circuit,
        kinds=("pipe", "terminal-short", "resistor-short", "resistor-open"),
        pipe_resistances=(2e3, 4e3)))
    return chain.circuit, defects, oracles


def _full_solution(circuit, defect, options, reference):
    warm = (reference.voltages(),
            {name: reference.branch_current(name)
             for name in reference.structure.branch_index})
    faulty = inject(circuit, defect)
    initial = _warm_start_vector(structure_for(faulty), *warm)
    return operating_point(faulty, options, initial=initial).x


def test_delta_solutions_bitwise_match_full_path(bench):
    """Every low-rank defect's delta solve equals the conventional
    inject-and-solve solution exactly (not within tolerance: bitwise)."""
    circuit, defects, _ = bench
    options = SimOptions()
    reference = operating_point(circuit, options)
    context = DeltaContext.build(circuit, options, reference.x)
    checked = 0
    for defect in defects:
        deltas = defect.delta_conductances(circuit)
        if deltas is None:
            continue
        pairs = [(context.structure.index(p), context.structure.index(n))
                 for p, n, _ in deltas]
        conductances = [g for _, _, g in deltas]
        x_delta = delta_solve(context, pairs, conductances, options,
                              NewtonStats())
        x_full = _full_solution(circuit, defect, options, reference)
        assert np.array_equal(x_delta, x_full), defect.describe()
        checked += 1
    assert checked > 100  # the catalog is dominated by low-rank defects


def test_woodbury_chord_matches_full_path_closely(bench):
    """With reuse forced on, mild faults go through the Woodbury chord
    and land close to the full solution.

    The chord's gate is the KCL residual (amps), not voltage: on a node
    held only by gmin-scale conductance a 1e-12 A residual still allows
    tens of microvolts of slack, so the bound here is 1e-4 V rather
    than solver tolerance.
    """
    circuit, _, _ = bench
    options = SimOptions(newton_reuse="always", delta_residual_tol=1e-12)
    reference = operating_point(circuit, SimOptions())
    context = DeltaContext.build(circuit, options, reference.x)
    for defect in (Pipe("X1.Q3", 4e3), Pipe("X2.Q3", 2e3),
                   ResistorShort("X1.R1")):
        deltas = defect.delta_conductances(circuit)
        pairs = [(context.structure.index(p), context.structure.index(n))
                 for p, n, _ in deltas]
        conductances = [g for _, _, g in deltas]
        stats = NewtonStats()
        x_delta = delta_solve(context, pairs, conductances, options, stats)
        x_full = _full_solution(circuit, defect, SimOptions(), reference)
        assert np.max(np.abs(x_delta - x_full)) < 1e-4, defect.describe()
        assert stats.n_reuses > 0, "chord iterations should reuse the LU"


def test_delta_campaign_verdicts_identical_to_warm(bench):
    circuit, defects, oracles = bench
    warm = run_campaign(circuit, defects, oracles)
    delta = run_campaign(circuit, defects, oracles, delta=True)
    for w, d in zip(warm.records, delta.records):
        assert w.verdicts == d.verdicts, d.defect.describe()
        assert w.converged == d.converged, d.defect.describe()
    counts = delta.solver_counts()
    assert counts.get("delta", 0) > len(defects) // 2
    assert delta.woodbury_fallbacks == 0
    assert delta.coverage_matrix() == warm.coverage_matrix()


def test_opens_fall_back_to_the_full_solver(bench):
    """Topology-changing defects carry no low-rank view: solver='full'."""
    circuit, defects, oracles = bench
    delta = run_campaign(circuit, defects, oracles, delta=True)
    open_records = [r for r in delta.records
                    if r.defect.kind in ("open", "resistor-open")]
    assert open_records
    for record in open_records:
        assert record.solver == "full"
    low_rank = [r for r in delta.records
                if r.defect.kind in ("pipe", "terminal-short",
                                     "resistor-short")]
    assert all(r.solver in ("delta", "delta-fallback") for r in low_rank)


def test_parallel_delta_campaign_identical_to_serial(bench):
    circuit, defects, oracles = bench
    serial = run_campaign(circuit, defects, oracles, delta=True)
    parallel = run_campaign(circuit, defects, oracles, delta=True,
                            parallel=True, workers=2)
    assert parallel.records == serial.records


def test_delta_conductances_values_and_validation(bench):
    circuit, _, _ = bench
    # A resistor short is a single conductance across the element.
    resistor = circuit["X1.R1"]
    [(p, n, g)] = ResistorShort("X1.R1").delta_conductances(circuit)
    assert (p, n) == (resistor.net("p"), resistor.net("n"))
    assert g == 1.0 / ResistorShort("X1.R1").resistance
    # A pipe spans collector to emitter with 1/R.
    [(p, n, g)] = Pipe("X1.Q3", 4e3).delta_conductances(circuit)
    device = circuit["X1.Q3"]
    assert (p, n) == (device.net("c"), device.net("e"))
    assert g == pytest.approx(1.0 / 4e3)
    # Validation mirrors apply(): wrong component types and degenerate
    # shorts raise the same errors without mutating anything.
    with pytest.raises(TypeError):
        Pipe("X1.R1").delta_conductances(circuit)
    with pytest.raises(TypeError):
        ResistorShort("X1.Q3").delta_conductances(circuit)
    with pytest.raises(KeyError):
        Bridge("no_such_net", "0").delta_conductances(circuit)
    with pytest.raises(ValueError):
        Bridge("op1", "op1").delta_conductances(circuit)


def test_delta_records_surface_solver_counters(bench):
    circuit, defects, oracles = bench
    delta = run_campaign(circuit, defects, oracles, delta=True)
    solved = [r for r in delta.records if r.solver == "delta"]
    assert solved
    assert all(r.newton_iterations > 0 for r in solved)
    assert sum(r.n_factorizations for r in solved) > 0


def _scipy_faulted(system, data, pairs, conductances):
    """The sparse add the CSC overlay replaces: ``csc(data) + faults``."""
    from scipy.sparse import coo_matrix, csc_matrix
    rows, cols, vals = [], [], []
    for (p, q), g in zip(pairs, conductances):
        for i, j, v in ((p, p, g), (q, q, g), (p, q, -g), (q, p, -g)):
            if i >= 0 and j >= 0:
                rows.append(i)
                cols.append(j)
                vals.append(v)
    n = system.n
    base = csc_matrix((data, system.pattern.indices, system.pattern.indptr),
                      shape=(n, n))
    return base + coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()


def test_sparse_fault_overlay_equals_scipy_add(bench):
    """The fault overlay on CSC ``data`` gives the scipy sparse add's
    matrix bit for bit and entry for entry: for every low-rank catalog
    defect at perturbed iterates, for a short between two nets no
    element joins (the pattern grows), and when an entry sums to exactly
    zero (the add drops it)."""
    from repro.sim.mna import FaultedSystem
    circuit, defects, _ = bench
    options = SimOptions(sparse_threshold=1)
    reference = operating_point(circuit, options)
    context = DeltaContext.build(circuit, options, reference.x.copy())
    system = context.system
    assert system.sparse
    specs = []
    for defect in defects:
        deltas = defect.delta_conductances(circuit)
        if deltas is not None:
            specs.append(([(context.structure.index(p),
                            context.structure.index(q))
                           for p, q, _ in deltas],
                          [g for _, _, g in deltas]))
    joined = system.pattern.indices[
        system.pattern.indptr[0]:system.pattern.indptr[1]]
    far = next(j for j in range(context.structure.n_nets)
               if j not in joined)
    specs.append(([(0, far)], [1e-3]))
    rng = np.random.default_rng(7)
    grown = 0
    for pairs, conductances in specs:
        view = FaultedSystem(system, pairs, conductances)
        grown += view._base_pos is not None
        for _ in range(2):
            x = reference.x + rng.normal(0.0, 0.2, system.n)
            data = system.base_data.copy()
            nl_vals, _, _ = system.stamps.eval_nonlinear(x)
            np.add.at(data, system.pattern.nl_pos, nl_vals)
            expected = _scipy_faulted(system, data.copy(), pairs,
                                      conductances)
            got = view.matrix(data.copy())
            assert np.array_equal(got.indptr, expected.indptr)
            assert np.array_equal(got.indices, expected.indices)
            assert got.data.tobytes() == expected.data.tobytes()
    assert grown == 1

    pairs, conductances = specs[0]
    view = FaultedSystem(system, pairs, conductances)
    data = system.base_data.copy()
    data[view._fault_pos[0]] = -view._fault_vals[0]
    expected = _scipy_faulted(system, data.copy(), pairs, conductances)
    got = view.matrix(data.copy())
    assert got.nnz == expected.nnz < system.pattern.nnz
    assert np.array_equal(got.indices, expected.indices)
    assert got.data.tobytes() == expected.data.tobytes()
    # Pruning a matrix never touches the shared fault-free pattern.
    assert view._indices is system.pattern.indices
