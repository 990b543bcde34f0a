"""Static schedule verifier: check any schedule against the paper's invariants.

Pure functions — nothing here mutates calendars, distributions, or
outcomes.  Each ``verify_*`` entry point returns a
:class:`~repro.analysis.violations.VerificationReport` listing every
invariant breach as a typed
:class:`~repro.analysis.violations.Violation`:

* :func:`verify_distribution` — one supporting schedule against its job
  and resource pool (structure, precedence + transfer windows, window
  bounds, release-aware deadline, node double-booking);
* :func:`verify_outcome` — a :class:`~repro.core.critical_works.SchedulingOutcome`,
  adding admissibility-flag consistency, ``CF``/makespan recomputation,
  and a cross-check of its collision records against
  :mod:`repro.core.collisions` ground truth;
* :func:`verify_strategy` — every supporting schedule of a generated
  :class:`~repro.core.strategy.Strategy`;
* :func:`verify_coallocation` — several committed distributions plus
  background calendars sharing one pool (cross-job capacity);
* :func:`verify_trace` — a replayed :class:`~repro.grid.execution.ExecutionTrace`
  against its distribution (actual-time precedence and reservation
  starts).

The structural checks delegate to
:func:`repro.core.schedule.check_distribution` — the core's own
validity oracle — and lift its string-kinded findings into typed
violations, so core and verifier cannot silently drift apart.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from ..core.calendar import ReservationCalendar
from ..core.collisions import Collision
from ..core.costs import CostModel, distribution_cost
from ..core.critical_works import SchedulingOutcome
from ..core.job import Job
from ..core.resources import ResourcePool
from ..core.schedule import (Distribution, Placement, booking_tag,
                             check_distribution)
from ..core.strategy import Strategy
from ..core.transfers import NeutralTransferModel, TransferModel, \
    transfer_time_fn
from ..grid.execution import ExecutionTrace
from .violations import VerificationReport, Violation, ViolationKind

__all__ = [
    "verify_distribution",
    "verify_outcome",
    "verify_strategy",
    "verify_coallocation",
    "verify_trace",
]

#: Absolute tolerance for recomputed float quantities (CF values are
#: sums of integers and small rationals; exact to far below this).
_COST_TOLERANCE = 1e-6

#: check_distribution's string kinds lifted into typed violation kinds.
_CORE_KINDS: dict[str, ViolationKind] = {
    "missing": ViolationKind.MISSING_TASK,
    "unknown-task": ViolationKind.UNKNOWN_TASK,
    "unknown-node": ViolationKind.UNKNOWN_NODE,
    "too-short": ViolationKind.RESERVATION_TOO_SHORT,
    "precedence": ViolationKind.PRECEDENCE,
    "deadline": ViolationKind.DEADLINE,
    "overlap": ViolationKind.DOUBLE_BOOKING,
}


def verify_distribution(job: Job, distribution: Distribution,
                        pool: ResourcePool,
                        transfer_model: Optional[TransferModel] = None,
                        level: float = 0.0, release: int = 0,
                        check_deadline: bool = True) -> VerificationReport:
    """Verify one supporting schedule against the paper's invariants.

    Parameters
    ----------
    job:
        The compound job the distribution schedules (the *scheduled*
        job — pass the coarsened variant for S3 strategies).
    distribution:
        The supporting schedule under test.
    pool:
        Processor nodes the placements may use.
    transfer_model:
        Data-policy timing model the schedule was built under
        (default: neutral — free on one node, base time across nodes).
    level:
        Estimation level the reservations must cover (0 = best case).
    release:
        The job's arrival slot; no placement may start earlier, and the
        deadline window is ``[release, release + job.deadline]``.
    check_deadline:
        Disable to verify a schedule already known to be inadmissible
        (its lateness is then the finding, not a defect).
    """
    model = transfer_model or NeutralTransferModel()
    label = distribution.scenario or "distribution"
    report = VerificationReport(
        subject=f"{job.job_id}/{label}")

    for core_violation in check_distribution(
            job, distribution, pool,
            transfer_time=transfer_time_fn(model),
            estimation_level=level):
        kind = _CORE_KINDS.get(core_violation.kind)
        if kind is None:  # pragma: no cover - future core kinds
            kind = ViolationKind.CF_MISMATCH
        if kind is ViolationKind.DEADLINE:
            # Re-derived below with release-awareness.
            continue
        node_id = None
        if kind in (ViolationKind.UNKNOWN_NODE, ViolationKind.DOUBLE_BOOKING,
                    ViolationKind.RESERVATION_TOO_SHORT):
            placed = distribution.placements.get(core_violation.task_id)
            node_id = placed.node_id if placed is not None else None
        report.add(Violation(kind=kind, job_id=job.job_id,
                             task_id=core_violation.task_id,
                             node_id=node_id,
                             detail=core_violation.detail))

    for placement in distribution:
        if placement.start < release:
            report.add(Violation(
                kind=ViolationKind.WINDOW_BOUNDS, job_id=job.job_id,
                task_id=placement.task_id, node_id=placement.node_id,
                detail=(f"starts at {placement.start} before release "
                        f"{release}")))

    if check_deadline and job.deadline:
        limit = release + job.deadline
        if distribution.makespan > limit:
            report.add(Violation(
                kind=ViolationKind.DEADLINE, job_id=job.job_id,
                detail=(f"makespan {distribution.makespan} exceeds "
                        f"deadline window [{release}, {limit}]")))
    return report


def _check_collision_records(job: Job, collisions: Iterable[Collision],
                             pool: ResourcePool,
                             report: VerificationReport) -> None:
    """Cross-check collision records against the pool's ground truth."""
    for collision in collisions:
        if collision.node_id not in pool:
            report.add(Violation(
                kind=ViolationKind.COLLISION_MISMATCH, job_id=job.job_id,
                task_id=collision.task_id, node_id=collision.node_id,
                detail=f"collision on node {collision.node_id} not in pool"))
            continue
        actual_group = pool.node(collision.node_id).group
        if collision.node_group is not actual_group:
            report.add(Violation(
                kind=ViolationKind.COLLISION_MISMATCH, job_id=job.job_id,
                task_id=collision.task_id, node_id=collision.node_id,
                detail=(f"recorded group {collision.node_group} but node "
                        f"{collision.node_id} is {actual_group}")))
        if collision.task_id not in job:
            report.add(Violation(
                kind=ViolationKind.COLLISION_MISMATCH, job_id=job.job_id,
                task_id=collision.task_id, node_id=collision.node_id,
                detail=f"collision names foreign task "
                       f"{collision.task_id!r}"))


def verify_outcome(job: Job, outcome: SchedulingOutcome, pool: ResourcePool,
                   transfer_model: Optional[TransferModel] = None,
                   release: int = 0,
                   accounting_model: Optional[CostModel] = None
                   ) -> VerificationReport:
    """Verify one critical-works outcome (one supporting schedule).

    Beyond :func:`verify_distribution`, this checks that the outcome's
    ``admissible`` flag, reported ``cost`` (``CF``), and ``makespan``
    agree with recomputation from the placements, and that every
    collision record is consistent with the pool.
    """
    report = VerificationReport(
        subject=f"{outcome.job_id}/outcome(level={outcome.level:g})")

    _check_collision_records(job, outcome.collisions, pool, report)

    distribution = outcome.distribution
    if distribution is None:
        if outcome.admissible:
            report.add(Violation(
                kind=ViolationKind.ADMISSIBILITY, job_id=outcome.job_id,
                detail="admissible outcome carries no distribution"))
        return report

    meets = (not job.deadline
             or distribution.makespan <= release + job.deadline)
    if outcome.admissible != meets:
        report.add(Violation(
            kind=ViolationKind.ADMISSIBILITY, job_id=outcome.job_id,
            detail=(f"admissible={outcome.admissible} but makespan "
                    f"{distribution.makespan} vs deadline window "
                    f"[{release}, {release + job.deadline}]")))

    inner = verify_distribution(
        job, distribution, pool, transfer_model=transfer_model,
        level=outcome.level, release=release,
        check_deadline=outcome.admissible)
    report.merge(inner)

    if outcome.makespan is not None and \
            outcome.makespan != distribution.makespan:
        report.add(Violation(
            kind=ViolationKind.CF_MISMATCH, job_id=outcome.job_id,
            detail=(f"reported makespan {outcome.makespan} != recomputed "
                    f"{distribution.makespan}")))
    if outcome.cost is not None:
        recomputed = distribution_cost(distribution, job, pool,
                                       accounting_model)
        if abs(recomputed - outcome.cost) > _COST_TOLERANCE:
            report.add(Violation(
                kind=ViolationKind.CF_MISMATCH, job_id=outcome.job_id,
                detail=(f"reported CF {outcome.cost} != recomputed "
                        f"{recomputed}")))
    return report


def verify_strategy(strategy: Strategy, pool: ResourcePool,
                    transfer_model: Optional[TransferModel] = None,
                    release: int = 0,
                    accounting_model: Optional[CostModel] = None
                    ) -> VerificationReport:
    """Verify every supporting schedule of a generated strategy.

    The scheduled (possibly coarsened) job is the reference structure —
    S3 distributions place aggregated tasks, not the user's originals.
    """
    report = VerificationReport(
        subject=f"{strategy.job.job_id}/strategy({strategy.stype})")
    for supporting in strategy.schedules:
        if abs(supporting.level - supporting.outcome.level) > 1e-9:
            report.add(Violation(
                kind=ViolationKind.ADMISSIBILITY,
                job_id=strategy.job.job_id,
                detail=(f"supporting schedule level {supporting.level:g} "
                        f"!= outcome level {supporting.outcome.level:g}")))
        report.merge(verify_outcome(
            strategy.scheduled_job, supporting.outcome, pool,
            transfer_model=transfer_model, release=release,
            accounting_model=accounting_model))
    return report


def verify_coallocation(distributions: Iterable[Distribution],
                        pool: ResourcePool,
                        calendars: Optional[Mapping[
                            int, ReservationCalendar]] = None
                        ) -> VerificationReport:
    """Verify that several committed schedules share the pool cleanly.

    Two placements of *different* jobs overlapping on one node are a
    capacity overcommit (the job-flow level's collision); overlaps
    within one job are double-booking (the application level's).  When
    background ``calendars`` are given, placements clashing with
    foreign reservations (e.g. the independent-flow load) are also
    capacity overcommits — unless the calendar entry is the placement's
    own booking (its :func:`~repro.core.schedule.booking_tag` and
    interval).
    """
    report = VerificationReport(subject="coallocation")
    by_node: dict[int, list[tuple[str, Placement]]] = {}
    for distribution in distributions:
        for placement in distribution:
            by_node.setdefault(placement.node_id, []).append(
                (distribution.job_id, placement))

    for node_id, entries in sorted(by_node.items()):
        if node_id not in pool:
            for job_id, placement in entries:
                report.add(Violation(
                    kind=ViolationKind.UNKNOWN_NODE, job_id=job_id,
                    task_id=placement.task_id, node_id=node_id,
                    detail=f"node {node_id} not in pool"))
            continue
        entries.sort(key=lambda item: (item[1].start, item[1].end))
        for index, (job_id, placement) in enumerate(entries):
            for other_job, other in entries[index + 1:]:
                if other.start >= placement.end:
                    break
                kind = (ViolationKind.DOUBLE_BOOKING
                        if other_job == job_id
                        else ViolationKind.CAPACITY_OVERCOMMIT)
                report.add(Violation(
                    kind=kind, job_id=job_id, task_id=placement.task_id,
                    node_id=node_id,
                    detail=(f"[{placement.start}, {placement.end}) clashes "
                            f"with {other_job}/{other.task_id} "
                            f"[{other.start}, {other.end})")))
        if calendars is None or node_id not in calendars:
            continue
        for job_id, placement in entries:
            for reservation in calendars[node_id].conflicts(
                    placement.start, placement.end):
                if (reservation.tag == booking_tag(job_id,
                                                   placement.task_id)
                        and reservation.start == placement.start
                        and reservation.end == placement.end):
                    continue  # the placement's own booking
                report.add(Violation(
                    kind=ViolationKind.CAPACITY_OVERCOMMIT, job_id=job_id,
                    task_id=placement.task_id, node_id=node_id,
                    detail=(f"[{placement.start}, {placement.end}) overlaps "
                            f"reservation {reservation.tag!r} "
                            f"[{reservation.start}, {reservation.end})")))
    return report


def verify_trace(job: Job, distribution: Distribution,
                 trace: "ExecutionTrace", pool: ResourcePool,
                 transfer_model: Optional[TransferModel] = None
                 ) -> VerificationReport:
    """Verify a replayed execution trace against its distribution.

    A valid replay never starts a task before its reservation or before
    its inputs are available (producer's *actual* end plus the transfer
    lag between the concrete nodes).  Overruns past the reserved end
    are legitimate — they are the QoS-erosion signal the replay exists
    to measure — and are not violations.
    """
    model = transfer_model or NeutralTransferModel()
    report = VerificationReport(subject=f"{job.job_id}/trace")
    for task_id in job.tasks:
        if task_id not in trace.runs:
            report.add(Violation(
                kind=ViolationKind.MISSING_TASK, job_id=job.job_id,
                task_id=task_id, detail="task has no run in the trace"))

    for task_id, run in trace.runs.items():
        if task_id not in distribution:
            report.add(Violation(
                kind=ViolationKind.UNKNOWN_TASK, job_id=job.job_id,
                task_id=task_id,
                detail="trace run for a task the distribution omits"))
            continue
        placement = distribution.placement(task_id)
        if run.actual_start < placement.start:
            report.add(Violation(
                kind=ViolationKind.WINDOW_BOUNDS, job_id=job.job_id,
                task_id=task_id, node_id=placement.node_id,
                detail=(f"actual start {run.actual_start} before reserved "
                        f"start {placement.start}")))
        for pred in job.predecessors(task_id):
            pred_run = trace.runs.get(pred)
            if pred_run is None:
                continue
            transfer = job.transfer_between(pred, task_id)
            if transfer is None or pred_run.node_id not in pool or \
                    placement.node_id not in pool:
                continue
            lag = model.time(transfer, pool.node(pred_run.node_id),
                             pool.node(placement.node_id))
            if run.actual_start < pred_run.actual_end + lag:
                report.add(Violation(
                    kind=ViolationKind.PRECEDENCE, job_id=job.job_id,
                    task_id=task_id, node_id=placement.node_id,
                    detail=(f"actual start {run.actual_start} before "
                            f"{pred} actual end {pred_run.actual_end} "
                            f"+ transfer {lag}")))
    return report
