"""Tests for the batched multi-defect campaign engine.

The batched engine stacks many low-rank fault systems into one
vectorised Newton iteration (``repro.sim.batch``).  Its contract is the
strongest the repo makes: per-member operating points, solver stats and
campaign verdicts are *bit-identical* to the serial delta engine's.  The
batch runs the low-rank rungs itself (sparse chord, then replay), so a
member is never re-solved by a rung the batch already ran: a member the
chord abandons is finished by the batch's replay phase, and one that
fails the replay goes straight on to the conventional rungs — either
way its record matches a serial campaign's field for field.  The batch
counters, including rung exits by reason, surface through
CampaignResult, telemetry and the RunReport.
"""

import os
import time

import numpy as np
import pytest

import repro.faults.campaign as campaign_module
import repro.sim.batch as batch_module
from repro.cml import NOMINAL, buffer_chain
from repro.dft import build_shared_monitor
from repro.faults import (
    FlagOracle,
    IddqOracle,
    LogicOracle,
    enumerate_defects,
    run_campaign,
)
from repro.faults.campaign import DEFAULT_BATCH_SIZE
from repro.sim.batch import solve_batch
from repro.sim.dc import (ConvergenceError, DeltaContext, NewtonStats,
                          delta_solve, operating_point)
from repro.sim.mna import SingularMatrixError
from repro.sim.options import SimOptions
from repro.telemetry import RunReport, Telemetry
from repro.verify import cross_check, load_scenario
from repro.verify.generate import build_scenario
from repro.verify.oracle import ENGINES_BY_NAME, VERIFY_OPTIONS, _fresh_oracles

CORPUS_WITNESS = os.path.join(os.path.dirname(__file__), "corpus",
                              "batched_midbatch_fallback.json")


def _bench():
    chain = buffer_chain(NOMINAL, n_stages=3, frequency=100e6)
    monitor = build_shared_monitor(chain.circuit, chain.output_nets,
                                   tech=NOMINAL)
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


@pytest.fixture(scope="module")
def bench():
    return _bench()


def _member_specs(circuit, defects, context):
    specs, kept = [], []
    for defect in defects:
        deltas = defect.delta_conductances(circuit)
        if deltas is None:
            continue
        pairs = [(context.structure.index(p), context.structure.index(n))
                 for p, n, _ in deltas]
        specs.append((pairs, [g for _, _, g in deltas]))
        kept.append(defect)
    return kept, specs


def _record_core(record):
    """Everything checkpointable about a record except the solver tag
    (a batch-converged member is tagged ``batched`` instead of
    ``delta`` by design)."""
    return (dict(record.verdicts), record.converged,
            record.newton_iterations, record.n_factorizations,
            record.n_reuses, record.gmin_steps, record.source_steps,
            record.quarantined, record.quarantine_reason)


def _forbid_serial_ladder(monkeypatch):
    """Fail the test if a campaign re-enters the serial low-rank ladder."""
    def delta_solve(*args, **kwargs):
        raise AssertionError("batch member re-solved by delta_solve")
    monkeypatch.setattr(campaign_module, "delta_solve", delta_solve)


def _assert_records_match_serial(serial, batched):
    """Field-identical records; ``batched`` tags the batch's first rung
    where the serial engine says ``delta``."""
    assert len(serial.records) == len(batched.records)
    for a, b in zip(serial.records, batched.records):
        assert _record_core(a) == _record_core(b)
        assert b.solver == a.solver or (b.solver, a.solver) == (
            "batched", "delta")


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_solve_batch_bitwise_identical_to_serial(bench, sparse):
    """Every member ends where the serial ``delta_solve`` ends: the same
    bit-identical operating point and solver stats when it converges in
    the batch (chord or replay phase), the same failure text and stats
    when it leaves the batch."""
    circuit, defects, _ = bench
    options = SimOptions(sparse_threshold=1) if sparse else SimOptions()
    reference = operating_point(circuit, options)
    context = DeltaContext.build(circuit, options, reference.x.copy())
    assert context.system.sparse is sparse
    kept, specs = _member_specs(circuit, defects, context)
    assert len(specs) > 50

    outcomes, counters = solve_batch(context, specs, options)
    assert counters.n_batched_solves > 0
    assert counters.batch_occupancy >= counters.n_batched_solves
    assert counters.batch_fallbacks == sum(
        1 for outcome in outcomes if outcome.x is None)

    n_bitwise = n_replayed = 0
    for (pairs, gs), outcome in zip(specs, outcomes):
        stats = NewtonStats(strategy="woodbury")
        try:
            x_serial = delta_solve(context, pairs, gs, options, stats)
            failure = None
        except (ConvergenceError, SingularMatrixError) as error:
            x_serial, failure = None, str(error)
        assert (outcome.stats.iterations, outcome.stats.n_factorizations,
                outcome.stats.n_reuses) == (
            stats.iterations, stats.n_factorizations, stats.n_reuses)
        if outcome.x is None:
            assert x_serial is None and outcome.failure == failure
            continue
        assert x_serial is not None
        assert np.array_equal(outcome.x, x_serial)
        n_bitwise += 1
        n_replayed += outcome.declined is not None
    assert n_bitwise > 30
    # Only the sparse path has a chord that can hand members on.
    assert (n_replayed > 10) is sparse


def test_batched_campaign_records_match_serial_delta(bench):
    """run_campaign(batched=True) reproduces the serial delta campaign
    record for record: identical verdicts everywhere, identical stats on
    batch-solved members, and *field-identical* fallback records."""
    circuit, defects, _ = bench
    # oracles hold prepared state — build a fresh set per campaign
    serial = run_campaign(circuit, defects, _bench()[2], delta=True)
    batched = run_campaign(circuit, defects, _bench()[2], batched=True)

    assert len(serial.records) == len(batched.records)
    for a, b in zip(serial.records, batched.records):
        assert _record_core(a) == _record_core(b)
        if b.solver == "batched":
            assert a.solver == "delta"
        else:
            assert b.solver == a.solver

    counts = batched.solver_counts()
    assert counts.get("batched", 0) > 50
    assert batched.n_batched_solves > 0
    assert batched.batch_occupancy > batched.n_batched_solves
    aggregate = batched.aggregate_stats()
    assert aggregate.n_batched_solves == batched.n_batched_solves
    assert aggregate.batch_occupancy == batched.batch_occupancy
    assert aggregate.batch_fallbacks == batched.batch_fallbacks


def test_sparse_chord_exits_finish_in_batch_replay(bench, monkeypatch):
    """A member the sparse chord abandons is finished by the batch's
    replay phase, never by the serial ladder: its record keeps the
    serial engine's ``delta`` tag and every counter, while the members
    the chord converges keep their ``batched`` tag."""
    circuit, defects, _ = bench
    options = SimOptions(sparse_threshold=1)
    serial = run_campaign(circuit, defects, _bench()[2], delta=True,
                          options=options)
    _forbid_serial_ladder(monkeypatch)
    batched = run_campaign(circuit, defects, _bench()[2], batched=True,
                           options=options)
    _assert_records_match_serial(serial, batched)

    chord_exits = sum(count for key, count in
                      batched.fallback_reasons.items()
                      if key.startswith("chord."))
    assert chord_exits > 10
    assert batched.batch_fallbacks == 0
    counts = batched.solver_counts()
    assert counts["delta"] == chord_exits
    assert counts["batched"] > 50


def test_dense_replay_failures_continue_to_conventional_rungs(
        bench, monkeypatch):
    """A dense member that fails the batched replay goes straight to
    warm-full (then cold retry) with the batch's work and the serial
    failure text: fallback and quarantined records — quarantine reason
    included — match the serial delta campaign's field for field."""
    circuit, defects, _ = bench
    subset = defects[:60]
    options = SimOptions(max_nr_iterations=10)
    serial = run_campaign(circuit, subset, _bench()[2], delta=True,
                          options=options)
    _forbid_serial_ladder(monkeypatch)
    batched = run_campaign(circuit, subset, _bench()[2], batched=True,
                           options=options)
    _assert_records_match_serial(serial, batched)

    assert batched.batch_fallbacks > 0
    assert batched.fallback_reasons == {
        "replay.not_converged": batched.batch_fallbacks}
    assert batched.solver_counts().get("delta-fallback", 0) > 0
    quarantined = batched.quarantined()
    assert quarantined
    assert all(r.quarantine_reason.startswith(
        "delta: delta replay Newton did not converge in 10 iterations; "
        "warm-full: ") for r in quarantined)


def test_deadline_exits_reenter_serial_ladder(bench, monkeypatch):
    """A member that runs out of wall-clock budget inside the batch is
    re-solved from the start by the serial per-defect ladder, so its
    record is the serial delta campaign's, solver tag included."""
    circuit, defects, _ = bench
    subset = defects[:30]
    options = SimOptions(sparse_threshold=1)
    serial = run_campaign(circuit, subset, _bench()[2], delta=True,
                          options=options)
    # Every batch phase starts out of budget; the serial ladder keeps
    # the (unlimited) budget of the options.
    monkeypatch.setattr(batch_module, "_deadline_for",
                        lambda options: time.perf_counter() - 1.0)
    batched = run_campaign(circuit, subset, _bench()[2], batched=True,
                           options=options)
    assert batched.batch_fallbacks > 0
    assert batched.fallback_reasons == {
        "chord.deadline": batched.batch_fallbacks}
    assert [(_record_core(a), a.solver) for a in serial.records] == \
           [(_record_core(b), b.solver) for b in batched.records]


def test_fallback_reasons_parallel_match_serial(bench):
    """Rung-exit counts are the same whether batches run in-process or
    in worker processes, and reach the metrics registry and the
    RunReport's batch tables."""
    circuit, defects, _ = bench
    subset = defects[:60]
    telemetry = Telemetry.capturing()
    serial = run_campaign(circuit, subset, _bench()[2], batched=True,
                          options=SimOptions(sparse_threshold=1,
                                             telemetry=telemetry))
    parallel = run_campaign(circuit, subset, _bench()[2], batched=True,
                            options=SimOptions(sparse_threshold=1),
                            parallel=True, workers=2)
    assert serial.fallback_reasons
    assert parallel.fallback_reasons == serial.fallback_reasons

    counters = telemetry.metrics.snapshot()["counters"]
    assert {key: counters[f"campaign.batch_exit.{key}"]
            for key in serial.fallback_reasons} == serial.fallback_reasons
    spans = [e for e in telemetry.events()
             if e.get("type") == "span" and e.get("name") == "campaign"]
    assert spans[0]["attrs"]["fallback_reasons"] == serial.fallback_reasons
    report = RunReport.from_telemetry(telemetry)
    assert report.batch_summary()["exits"] == serial.fallback_reasons
    text = report.render()
    assert "Batch rung exits" in text and "Batched solves" in text


def test_batched_campaign_parallel_matches_serial_batched(bench):
    circuit, defects, _ = bench
    subset = defects[:40]
    serial = run_campaign(circuit, subset, _bench()[2], batched=True)
    parallel = run_campaign(circuit, subset, _bench()[2], batched=True,
                            parallel=True, workers=2)
    assert [(_record_core(a), a.solver) for a in serial.records] == \
           [(_record_core(b), b.solver) for b in parallel.records]
    assert (parallel.n_batched_solves, parallel.batch_occupancy,
            parallel.batch_fallbacks) == (
        serial.n_batched_solves, serial.batch_occupancy,
        serial.batch_fallbacks)


def test_batched_campaign_batch_size_one(bench):
    """Degenerate batches (one member each) still reproduce verdicts."""
    circuit, defects, _ = bench
    subset = defects[:12]
    full = run_campaign(circuit, subset, _bench()[2], batched=True)
    tiny = run_campaign(circuit, subset, _bench()[2], batched=True,
                        batch_size=1)
    assert [_record_core(r) for r in full.records] == \
           [_record_core(r) for r in tiny.records]
    assert tiny.n_batched_solves >= full.n_batched_solves


def test_batched_campaign_residual_tol_falls_back_serial(bench):
    """Residual-gated acceptance is a serial-only control flow: every
    member must fall back (counted as ``batch.unsupported``), and the
    records must equal the serial delta campaign's under the same
    options."""
    circuit, defects, _ = bench
    subset = defects[:10]
    options = SimOptions(delta_residual_tol=1e-6)
    serial = run_campaign(circuit, subset, _bench()[2], delta=True,
                          options=options)
    batched = run_campaign(circuit, subset, _bench()[2], batched=True,
                           options=options)
    assert batched.n_batched_solves == 0
    assert batched.batch_fallbacks > 0
    assert batched.fallback_reasons == {
        "batch.unsupported": batched.batch_fallbacks}
    assert [(_record_core(a), a.solver) for a in serial.records] == \
           [(_record_core(b), b.solver) for b in batched.records]


def test_batched_campaign_checkpoint_resume(bench, tmp_path):
    circuit, defects, _ = bench
    subset = defects[:20]
    path = tmp_path / "batched.ckpt.jsonl"
    first = run_campaign(circuit, subset, _bench()[2], batched=True,
                         checkpoint=path)
    resumed = run_campaign(circuit, subset, _bench()[2], batched=True,
                           checkpoint=path, resume=True)
    assert resumed.n_resumed == len(subset)
    assert [_record_core(r) for r in first.records] == \
           [_record_core(r) for r in resumed.records]


def test_batched_campaign_telemetry_counters(bench):
    """Batch counters flow through NEWTON_COUNTERS into the metrics
    registry (and from there into the RunReport solver table)."""
    circuit, defects, _ = bench
    subset = defects[:20]
    telemetry = Telemetry.capturing()
    options = SimOptions(telemetry=telemetry)
    result = run_campaign(circuit, subset, _bench()[2], batched=True,
                          options=options)
    counters = telemetry.metrics.snapshot()["counters"]
    assert counters.get("campaign.batched_solves") == result.n_batched_solves
    assert counters.get("campaign.batch_occupancy") == result.batch_occupancy
    assert result.n_batched_solves > 0
    spans = [e for e in telemetry.events()
             if e.get("type") == "span" and e.get("name") == "campaign"]
    assert spans and spans[0]["attrs"]["batched"] is True
    assert spans[0]["attrs"]["n_batched_solves"] == result.n_batched_solves


def test_corpus_witness_has_midbatch_divergence():
    """The committed witness scenario batches a converging member and a
    diverging member together: the diverger leaves the batched replay
    for the conventional rungs, and its fallback record must be
    field-identical to the serial delta campaign's (same quarantine
    trail, same stats, same solver tag), while the surviving member
    stays batch-solved."""
    scenario = load_scenario(CORPUS_WITNESS)
    engine = ENGINES_BY_NAME["compiled-batched"]
    options = engine.options(VERIFY_OPTIONS)

    built = build_scenario(scenario)
    batched = run_campaign(built.circuit, built.defects,
                           _fresh_oracles(built), options=options,
                           batched=True)
    assert len(built.defects) <= DEFAULT_BATCH_SIZE  # one batch
    assert batched.batch_fallbacks > 0
    counts = batched.solver_counts()
    assert counts.get("batched", 0) > 0

    built2 = build_scenario(scenario)
    serial = run_campaign(built2.circuit, built2.defects,
                          _fresh_oracles(built2), options=options,
                          delta=True)
    assert serial.woodbury_fallbacks > 0
    for a, b in zip(serial.records, batched.records):
        assert _record_core(a) == _record_core(b)
        if b.solver != "batched":
            # fallback and conventional records replay the serial
            # engine's exactly, solver tag included
            assert b.solver == a.solver


def test_corpus_witness_cross_checks_clean():
    scenario = load_scenario(CORPUS_WITNESS)
    engines = tuple(e for e in
                    (ENGINES_BY_NAME["compiled-dense"],
                     ENGINES_BY_NAME["compiled-delta"],
                     ENGINES_BY_NAME["compiled-batched"]))
    result = cross_check(scenario, engines)
    assert result.ok, result.format()
