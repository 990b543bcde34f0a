"""Schedule verifier: clean paper example, typed violations on corruption."""

import pytest

from repro.analysis.verify import (
    verify_coallocation,
    verify_distribution,
    verify_outcome,
    verify_strategy,
    verify_trace,
)
from repro.analysis.violations import ViolationKind
from repro.core.calendar import ReservationCalendar
from repro.core.collisions import Collision
from repro.core.critical_works import (
    CriticalWorksScheduler,
    ScheduleInvariantError,
)
from repro.core.resources import NodeGroup
from repro.core.schedule import Distribution, Placement, booking_tag
from repro.core.strategy import StrategyGenerator, StrategyType
from repro.experiments.fig2_example import paper_distributions
from repro.grid.execution import simulate_execution
from repro.workload.paper_example import fig2_job, fig2_pool


@pytest.fixture()
def job():
    return fig2_job()


@pytest.fixture()
def pool():
    return fig2_pool()


@pytest.fixture()
def empty_calendars(pool):
    return {node.node_id: ReservationCalendar() for node in pool}


# ----------------------------------------------------------------------
# The paper example is invariant-clean
# ----------------------------------------------------------------------

def test_fig2_paper_distributions_have_zero_violations(job, pool):
    for distribution in paper_distributions(job, pool).values():
        report = verify_distribution(job, distribution, pool)
        assert report.ok, report.summary()


def test_fig2_critical_works_outcome_is_clean(job, pool, empty_calendars):
    outcome = CriticalWorksScheduler(pool).build_schedule(
        job, empty_calendars)
    report = verify_outcome(job, outcome, pool)
    assert report.ok, report.summary()


@pytest.mark.parametrize("stype", list(StrategyType))
def test_fig2_strategies_are_clean(job, pool, empty_calendars, stype):
    generator = StrategyGenerator(pool)
    strategy = generator.generate(job, empty_calendars, stype)
    report = verify_strategy(
        strategy, pool,
        transfer_model=generator.policy_models[strategy.spec.policy])
    assert report.ok, report.summary()


# ----------------------------------------------------------------------
# Deliberate corruption yields the expected typed violations
# ----------------------------------------------------------------------

def _fig2_distribution(job, pool):
    return paper_distributions(job, pool)["Distribution 1"]


def test_double_booked_node_detected(job, pool):
    distribution = _fig2_distribution(job, pool)
    victim = distribution.placement("P4")
    # Park P5 on P4's node over P4's exact interval: a collision the
    # critical works method would have had to resolve.
    corrupted = distribution.replace(Placement(
        "P5", victim.node_id, victim.start, victim.end))
    report = verify_distribution(job, corrupted, pool)
    assert ViolationKind.DOUBLE_BOOKING in report.kinds()
    clash = report.by_kind(ViolationKind.DOUBLE_BOOKING)[0]
    assert clash.node_id == victim.node_id


def test_touching_placements_are_not_double_booking(job, pool):
    distribution = _fig2_distribution(job, pool)
    report = verify_distribution(job, distribution, pool)
    # Distribution 1 serializes P1 and P2 back-to-back on node 1 — the
    # touching-but-not-overlapping case must stay clean.
    p1, p2 = distribution.placement("P1"), distribution.placement("P2")
    assert p1.node_id == p2.node_id and p1.end == p2.start
    assert report.ok, report.summary()


def test_broken_precedence_detected(job, pool):
    distribution = _fig2_distribution(job, pool)
    # P6 consumes P4 and P5; dragging it to slot 0 starts it before its
    # producers finish (and before their transfer windows close).
    corrupted = distribution.replace(Placement("P6", 4, 0, 8))
    report = verify_distribution(job, corrupted, pool)
    assert ViolationKind.PRECEDENCE in report.kinds()
    offenders = {v.task_id for v in report.by_kind(ViolationKind.PRECEDENCE)}
    assert offenders == {"P6"}


def test_deadline_breach_detected(pool):
    tight_job = fig2_job(deadline=5)
    distribution = _fig2_distribution(tight_job, pool)
    report = verify_distribution(tight_job, distribution, pool)
    assert ViolationKind.DEADLINE in report.kinds()


def test_release_window_bounds_detected(job, pool):
    distribution = _fig2_distribution(job, pool)
    report = verify_distribution(job, distribution, pool, release=3,
                                 check_deadline=False)
    assert ViolationKind.WINDOW_BOUNDS in report.kinds()
    early = report.by_kind(ViolationKind.WINDOW_BOUNDS)
    assert all(distribution.placement(v.task_id).start < 3 for v in early)


def test_reservation_too_short_detected(job, pool):
    distribution = _fig2_distribution(job, pool)
    placed = distribution.placement("P2")
    # P2 needs 3 slots on node 1; reserve only 1.
    corrupted = distribution.replace(Placement(
        "P2", placed.node_id, placed.start, placed.start + 1))
    report = verify_distribution(job, corrupted, pool)
    assert ViolationKind.RESERVATION_TOO_SHORT in report.kinds()


def test_missing_and_unknown_tasks_detected(job, pool):
    distribution = _fig2_distribution(job, pool)
    partial = Distribution(job.job_id, [
        placement for placement in distribution
        if placement.task_id != "P3"
    ] + [Placement("P99", 1, 15, 17)])
    report = verify_distribution(job, partial, pool,
                                 check_deadline=False)
    assert ViolationKind.MISSING_TASK in report.kinds()
    assert ViolationKind.UNKNOWN_TASK in report.kinds()


def test_cf_mismatch_detected(job, pool, empty_calendars):
    outcome = CriticalWorksScheduler(pool).build_schedule(
        job, empty_calendars)
    outcome.cost = outcome.cost + 1.0
    report = verify_outcome(job, outcome, pool)
    assert ViolationKind.CF_MISMATCH in report.kinds()


def test_makespan_mismatch_detected(job, pool, empty_calendars):
    outcome = CriticalWorksScheduler(pool).build_schedule(
        job, empty_calendars)
    outcome.makespan = outcome.makespan + 5
    report = verify_outcome(job, outcome, pool)
    assert ViolationKind.CF_MISMATCH in report.kinds()


def test_admissibility_flag_mismatch_detected(job, pool, empty_calendars):
    outcome = CriticalWorksScheduler(pool).build_schedule(
        job, empty_calendars)
    outcome.admissible = False
    report = verify_outcome(job, outcome, pool)
    assert ViolationKind.ADMISSIBILITY in report.kinds()


def test_collision_record_cross_check(job, pool, empty_calendars):
    outcome = CriticalWorksScheduler(pool).build_schedule(
        job, empty_calendars)
    # A collision recorded on node 4 (performance 1/4, SLOW) but tagged
    # FAST contradicts the pool — the core/collisions.py ground truth.
    outcome.collisions.append(Collision(
        job_id=job.job_id, task_id="P5", holder="P4", node_id=4,
        node_group=NodeGroup.FAST, time=3))
    report = verify_outcome(job, outcome, pool)
    assert ViolationKind.COLLISION_MISMATCH in report.kinds()


# ----------------------------------------------------------------------
# The scheduler's own invariant hook
# ----------------------------------------------------------------------

def test_self_check_accepts_clean_schedules(job, pool, empty_calendars):
    scheduler = CriticalWorksScheduler(pool, self_check=True)
    outcome = scheduler.build_schedule(job, empty_calendars)
    assert outcome.admissible


def test_self_check_raises_on_corrupted_accounting(job, pool,
                                                   empty_calendars):
    scheduler = CriticalWorksScheduler(pool, self_check=True)
    original = scheduler.accounting_model

    class DriftingModel:
        """Prices drift between calls, so the verifier's recomputation
        cannot match what ``build_schedule`` recorded."""

        def __init__(self):
            self.calls = 0

        def task_cost(self, task, placement, node):
            self.calls += 1
            base = original.task_cost(task, placement, node)
            return base + (1.0 if self.calls <= len(job.tasks) else 0.0)

    scheduler.accounting_model = DriftingModel()
    with pytest.raises(ScheduleInvariantError):
        scheduler.build_schedule(job, empty_calendars)


# ----------------------------------------------------------------------
# Cross-job capacity (co-allocation) checks
# ----------------------------------------------------------------------

def test_coallocation_flags_cross_job_overlap(pool):
    first = Distribution("jobA", [Placement("T1", 1, 0, 4)])
    second = Distribution("jobB", [Placement("U1", 1, 2, 6)])
    report = verify_coallocation([first, second], pool)
    assert ViolationKind.CAPACITY_OVERCOMMIT in report.kinds()


def test_coallocation_flags_background_overlap(pool):
    calendars = {node.node_id: ReservationCalendar() for node in pool}
    calendars[1].reserve(0, 10, tag="background")
    committed = Distribution("jobA", [Placement("T1", 1, 5, 8)])
    report = verify_coallocation([committed], pool, calendars)
    assert ViolationKind.CAPACITY_OVERCOMMIT in report.kinds()


def test_coallocation_ignores_own_booking(pool):
    calendars = {node.node_id: ReservationCalendar() for node in pool}
    calendars[1].reserve(5, 8, tag=booking_tag("jobA", "T1"))
    committed = Distribution("jobA", [Placement("T1", 1, 5, 8)])
    report = verify_coallocation([committed], pool, calendars)
    assert report.ok, report.summary()


def test_coallocation_flags_other_jobs_booking_of_same_task(pool):
    calendars = {node.node_id: ReservationCalendar() for node in pool}
    calendars[1].reserve(5, 8, tag=booking_tag("jobB", "T1"))
    committed = Distribution("jobA", [Placement("T1", 1, 5, 8)])
    report = verify_coallocation([committed], pool, calendars)
    assert ViolationKind.CAPACITY_OVERCOMMIT in report.kinds()


def test_online_run_verifies_against_live_calendars():
    """Every booking the online flow commits is exempt as the
    placement's own, so the live calendars verify clean."""
    from repro.flow.simulation import OnlineConfig, OnlineSimulation
    from repro.sim import RandomStreams
    from repro.workload import generate_pool

    simulation = OnlineSimulation(
        generate_pool(RandomStreams(5).stream("pool")), seed=5,
        config=OnlineConfig(horizon=120, busy_fraction=0.3))
    simulation.run()
    committed = [record.chosen.distribution
                 for record in simulation.metascheduler.records
                 if record.committed]
    assert committed
    report = verify_coallocation(committed, simulation.pool,
                                 simulation.grid.calendars)
    assert report.ok, report.summary()


def test_coallocation_touching_jobs_are_clean(pool):
    first = Distribution("jobA", [Placement("T1", 1, 0, 4)])
    second = Distribution("jobB", [Placement("U1", 1, 4, 6)])
    report = verify_coallocation([first, second], pool)
    assert report.ok, report.summary()


# ----------------------------------------------------------------------
# Execution traces
# ----------------------------------------------------------------------

def test_clean_replay_trace_verifies(job, pool):
    distribution = _fig2_distribution(job, pool)
    trace = simulate_execution(job, distribution, pool, actual_level=1.0)
    report = verify_trace(job, distribution, trace, pool)
    assert report.ok, report.summary()


def test_corrupted_trace_detected(job, pool):
    distribution = _fig2_distribution(job, pool)
    trace = simulate_execution(job, distribution, pool)
    run = trace.runs["P6"]
    trace.runs["P6"] = type(run)(
        task_id=run.task_id, node_id=run.node_id,
        planned_start=run.planned_start, planned_end=run.planned_end,
        actual_start=0, actual_end=run.actual_end)
    report = verify_trace(job, distribution, trace, pool)
    assert ViolationKind.PRECEDENCE in report.kinds()
    assert ViolationKind.WINDOW_BOUNDS in report.kinds()


# ----------------------------------------------------------------------
# Report ergonomics
# ----------------------------------------------------------------------

def test_report_summary_lists_each_violation(job, pool):
    distribution = _fig2_distribution(job, pool)
    corrupted = distribution.replace(Placement("P6", 4, 0, 8))
    report = verify_distribution(job, corrupted, pool)
    text = report.summary()
    assert "violation" in text
    assert "precedence" in text
    assert str(len(report.violations)) in text
