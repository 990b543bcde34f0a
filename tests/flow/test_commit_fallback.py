"""Tests for the metascheduler's commit-time reallocation fallback.

In sequential dispatch the environment cannot drift between planning
and commitment, so these tests inject the drift by hand: occupy the
slots of the cheapest supporting schedule after planning, then commit.
"""

import pytest

from repro.core.job import Job, Task
from repro.core.resources import ProcessorNode, ResourcePool
from repro.core.strategy import StrategyType
from repro.flow.metascheduler import Metascheduler, PlannedDispatch
from repro.grid.environment import GridEnvironment


def make_scheduler(conflict_retries=0):
    pool = ResourcePool([
        ProcessorNode(node_id=1, performance=1.0),
        ProcessorNode(node_id=2, performance=0.5),
        ProcessorNode(node_id=3, performance=0.33),
    ])
    grid = GridEnvironment(pool)
    return Metascheduler(grid, conflict_retries=conflict_retries), grid


def plan(scheduler, grid, job, stype=StrategyType.S1):
    manager = scheduler.managers[0]
    return manager, manager.plan(job, grid.snapshot(), stype)


def commit(scheduler, job, manager, strategy, stype=StrategyType.S1):
    return scheduler.commit_planned(
        PlannedDispatch(job, stype, 0, manager, strategy))


def simple_job(deadline=40):
    # Distinct best/worst estimates so the level variants differ.
    return Job("j", [Task("A", volume=20, best_time=2, worst_time=6),
                     Task("B", volume=10, best_time=1, worst_time=3)], [],
               deadline=deadline)


def test_commit_falls_back_when_best_variant_is_stolen():
    scheduler, grid = make_scheduler()
    job = simple_job()
    manager, strategy = plan(scheduler, grid, job)
    variants = sorted(strategy.admissible_schedules(),
                      key=lambda s: (s.outcome.cost, s.outcome.makespan))
    assert len(variants) >= 2
    best = variants[0]

    def covers(variant, node_id, slot):
        return any(p.node_id == node_id and p.start <= slot < p.end
                   for p in variant.distribution)

    # Drift: steal one slot that the best variant needs but some other
    # variant does not touch, so a fallback is guaranteed to exist.
    stolen = None
    for placement in best.distribution:
        for slot in range(placement.start, placement.end):
            survivors = [v for v in variants[1:]
                         if not covers(v, placement.node_id, slot)]
            if survivors:
                stolen = (placement.node_id, slot)
                break
        if stolen:
            break
    assert stolen is not None, "variants are indistinguishable"
    grid.calendars[stolen[0]].reserve(stolen[1], stolen[1] + 1, "intruder")

    record = commit(scheduler, job, manager, strategy)
    assert record.reallocations >= 1
    assert record.committed
    assert record.chosen is not best


def test_commit_reports_conflict_when_everything_is_stolen():
    scheduler, grid = make_scheduler()
    job = simple_job()
    manager, strategy = plan(scheduler, grid, job)
    # Drift: saturate every node for the whole window.
    for node_id, calendar in grid.calendars.items():
        calendar.reserve(0, 10_000, "intruder")
    record = commit(scheduler, job, manager, strategy)
    assert not record.committed
    assert record.reason == "conflict"
    assert record.reallocations == len(strategy.admissible_schedules())


def test_committed_fallback_is_valid_against_environment():
    scheduler, grid = make_scheduler()
    job = simple_job()
    manager, strategy = plan(scheduler, grid, job)
    best = min(strategy.admissible_schedules(),
               key=lambda s: (s.outcome.cost, s.outcome.makespan))
    grid.commit_distribution(
        type(best.distribution)("intruder",
                                [p for p in best.distribution]))
    record = commit(scheduler, job, manager, strategy)
    if record.committed:
        # The fallback variant's reservations really are booked now.
        for placement in record.chosen.distribution:
            assert not grid.calendars[placement.node_id].is_free(
                placement.start, placement.end)


def test_reallocations_add_up_across_conflict_replans():
    """The fallbacks tried before a conflict replan still count: the
    record sums every attempt's variant switches."""
    scheduler, grid = make_scheduler(conflict_retries=1)
    job = simple_job()
    manager, strategy = plan(scheduler, grid, job)
    # Drift: steal every slot any variant of the first plan uses, so
    # the first attempt falls through all of them and replans.
    for variant in strategy.admissible_schedules():
        for placement in variant.distribution:
            calendar = grid.calendars[placement.node_id]
            for slot in range(placement.start, placement.end):
                if calendar.is_free(slot, slot + 1):
                    calendar.reserve(slot, slot + 1, "intruder")
    record = commit(scheduler, job, manager, strategy)
    assert record.committed  # the replan found fresh slots
    assert record.reallocations >= len(strategy.admissible_schedules())
