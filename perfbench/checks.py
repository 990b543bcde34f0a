"""Per-run correctness checks, decision digests and decision tallies.

A run passes when every arrival has exactly one outcome, every arrival
got one timed decision, the committed distributions are exactly the
job bookings on the live calendars, and those distributions pass
:func:`repro.analysis.verify.verify_coallocation` both on their own and
against the *background-only* calendars.

Why background-only: the verifier exempts a calendar entry as "the
placement's own booking" only when its tag equals the task id, but
:meth:`repro.grid.environment.GridEnvironment.commit_distribution` tags
bookings ``<job_id>:<task_id>``.  Against the live calendars every
committed placement therefore reads as a ``CAPACITY_OVERCOMMIT`` with
itself.  The benchmark removes the job bookings (after checking they
equal the committed placements) and checks the rest, which is the
background load the program had to plan around.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Any, Callable, Dict, List, Sequence

__all__ = ["check_run"]


def _job_of(tag: str, arrivals: set) -> str:
    """The arrival a calendar tag books for, or "" for foreign load."""
    job_id, sep, _ = tag.partition(":")
    return job_id if sep and job_id in arrivals else ""


def _coallocation_errors(simulation: Any, committed: Sequence[Any],
                         arrivals: set) -> List[str]:
    from repro.analysis.verify import verify_coallocation
    from repro.core.calendar import ReservationCalendar

    errors: List[str] = []
    pool = simulation.pool
    booked = Counter(
        (p.node_id, p.start, p.end, f"{d.job_id}:{p.task_id}")
        for d in committed for p in d)
    live: Counter = Counter()
    background: Dict[int, ReservationCalendar] = {}
    for node_id, calendar in simulation.grid.calendars.items():
        foreign = ReservationCalendar()
        for r in calendar.reservations:
            if _job_of(r.tag, arrivals):
                live[(node_id, r.start, r.end, r.tag)] += 1
            else:
                foreign.reserve(r.start, r.end, tag=r.tag)
        background[node_id] = foreign
    if live != booked:
        errors.append(
            f"live job bookings differ from committed placements: "
            f"{sum((live - booked).values())} unexplained, "
            f"{sum((booked - live).values())} missing")
    for label, calendars in (("pool", None), ("background", background)):
        report = verify_coallocation(committed, pool, calendars)
        if not report.ok:
            first = report.violations[0]
            errors.append(
                f"verify_coallocation ({label}): {len(report.violations)} "
                f"violations, first {first.kind.name} {first.job_id}/"
                f"{first.task_id}: {first.detail}")
    return errors


def check_run(lane: str, simulation: Any, outcomes: Sequence[Any],
              committed: Sequence[Any], times: Sequence[float],
              decisions: int, factory: Callable[..., Any]
              ) -> Dict[str, Any]:
    """Check one finished run and tally its decisions.

    ``committed`` are the distributions the program booked, in booking
    order; ``times`` the arrival times from the independent oracle;
    ``decisions`` how many timed decisions the run made.  Returns the
    errors found, the arrivals left without an outcome, the decision
    digest and the sums the end-to-end shares are pooled from.
    """
    errors: List[str] = []
    arrivals = [f"job{index}" for index in range(len(times))]
    arrival_set = set(arrivals)
    seen = Counter(o.job_id for o in outcomes)
    missing = sum(1 for job_id in arrivals if seen[job_id] == 0)
    if missing:
        errors.append(f"{missing} of {len(arrivals)} arrivals have no outcome")
    duplicated = sorted(j for j, n in seen.items() if n > 1)
    unknown = sorted(set(seen) - arrival_set)
    if duplicated or unknown:
        errors.append(f"outcomes for duplicated {duplicated[:3]} or unknown "
                      f"{unknown[:3]} arrivals")
    if decisions != len(arrivals):
        errors.append(f"{decisions} timed decisions for "
                      f"{len(arrivals)} arrivals")
    admitted = Counter(o.job_id for o in outcomes if o.committed)
    if admitted != Counter(d.job_id for d in committed):
        errors.append("committed outcomes differ from booked distributions")
    errors.extend(_coallocation_errors(simulation, committed, arrival_set))

    if lane == "online":
        tally = _online_tally(simulation, outcomes, errors)
    else:
        tally = _sharded_tally(simulation, outcomes, times, factory, errors)
    tally.update(errors=errors, missing=missing, arrivals=len(arrivals))
    return tally


def _online_tally(simulation: Any, outcomes: Sequence[Any],
                  errors: List[str]) -> Dict[str, Any]:
    """Shares and digest of an OnlineSimulation run (FlowRecord costs)."""
    chosen = {r.job_id: r for r in simulation.metascheduler.records
              if r.committed}
    hasher = hashlib.sha256()
    costs: List[float] = []
    met = met_of = 0
    for o in outcomes:
        record = chosen.get(o.job_id) if o.committed else None
        cost = record.chosen.outcome.cost if record is not None else None
        if o.committed:
            costs.append(cost)
            if o.actual_makespan is None:
                errors.append(f"committed {o.job_id} never finished")
        if o.met_deadline is not None:
            met_of += 1
            met += bool(o.met_deadline)
        hasher.update(
            f"|{o.job_id},{o.stype.name},{o.submitted},{int(o.committed)},"
            f"{o.reason},{o.planned_makespan},{o.actual_makespan},"
            f"{o.met_deadline},{o.charge},"
            f"{record.domain if record else None},{cost}".encode())
    return {"digest": hasher.hexdigest(), "committed": len(costs),
            "cost_sum": sum(costs), "met": met, "met_of": met_of}


def _sharded_tally(simulation: Any, outcomes: Sequence[Any],
                   times: Sequence[float], factory: Callable[..., Any],
                   errors: List[str]) -> Dict[str, Any]:
    """Shares and digest of a ShardedSimulation run.

    The sharded lane does not execute jobs, so the deadline share
    applies the program's own rule (completion within the job's fixed
    time counted from its submission slot) to the committed schedule's
    planned completion.
    """
    from repro.sim.rng import RandomStreams

    streams = RandomStreams(simulation.seed)
    if [o.index for o in outcomes] != list(range(len(outcomes))):
        errors.append("sharded outcomes are not in arrival order")
    costs: List[float] = []
    met = 0
    for o in outcomes:
        if not o.committed:
            continue
        costs.append(o.cost)
        job = factory(streams.fork("jobs", o.index), o.index)
        met += o.makespan <= int(times[o.index]) + job.deadline
    return {"digest": simulation.digest(), "committed": len(costs),
            "cost_sum": sum(costs), "met": met, "met_of": len(costs)}
