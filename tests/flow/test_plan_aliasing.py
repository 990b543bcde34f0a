"""Exact plan-cache hits are served by reference; identity binds at commit.

The plan cache hands the cached :class:`~repro.core.strategy.Strategy`
itself to every template sibling that hits it, so the strategy's
``job`` may name another job until
:func:`~repro.flow.metascheduler.choose_commit` re-addresses it.  These
tests pin that contract on both flow lanes: committed distributions and
their booking tags carry the committing job, the cached entry is never
modified, and offers that lose or are refused copy nothing.
"""

import repro.flow.sharded as sharded_module
import repro.flow.sharding as sharding_module
from repro.core.job import Job, Task
from repro.core.resources import ProcessorNode, ResourcePool
from repro.core.schedule import booking_tag
from repro.core.strategy import Strategy, StrategyType
from repro.flow.metascheduler import Metascheduler
from repro.flow.sharded import ShardedConfig, ShardedSimulation
from repro.grid.environment import GridEnvironment
from repro.sim import RandomStreams
from repro.workload import WorkloadConfig, generate_pool
from repro.workload.generator import template_workload_factory

from .test_metascheduler import recorded_plan_reads, strategy_snapshot


def sibling(job_id, deadline=10):
    """One of a family of structurally identical jobs."""
    return Job(job_id, [Task("A", volume=20, best_time=2, worst_time=4),
                        Task("B", volume=10, best_time=1, worst_time=2)],
               [], deadline=deadline, owner="user")


def twin_domain_grid():
    """Two one-node domains of equal speed: the first wins cost ties."""
    return GridEnvironment(ResourcePool([
        ProcessorNode(node_id=1, performance=1.0, domain="alpha"),
        ProcessorNode(node_id=2, performance=1.0, domain="beta"),
    ]))


def count_rebinds(monkeypatch):
    """Record every :meth:`Strategy.rebind` call from now on, as
    ``(source, rebound)`` pairs."""
    calls = []
    rebind = Strategy.rebind

    def counting(self, job):
        rebound = rebind(self, job)
        calls.append((self, rebound))
        return rebound

    monkeypatch.setattr(Strategy, "rebind", counting)
    return calls


def booked(grid):
    """Every live reservation as ``(node, start, end, tag)``."""
    return {(node_id, r.start, r.end, r.tag)
            for node_id, calendar in grid.calendars.items()
            for r in calendar.reservations}


def assert_booked_as(grid, job_id, distribution):
    assert distribution.job_id == job_id
    live = booked(grid)
    for p in distribution:
        assert (p.node_id, p.start, p.end,
                booking_tag(job_id, p.task_id)) in live


def test_online_siblings_share_one_cached_entry(monkeypatch):
    """Two siblings planned over unchanged calendars share the cached
    strategies; both commit under their own ids and the cached entries
    keep the id and placements they were generated with."""
    grid = twin_domain_grid()
    scheduler = Metascheduler(grid, conflict_retries=1)
    reads = recorded_plan_reads(monkeypatch)
    first, second = sibling("first"), sibling("second")

    planned_first = scheduler.plan_job(first, StrategyType.S1, 0)
    cached = dict(reads)
    before = {domain: (strategy.job.job_id, strategy_snapshot(strategy))
              for domain, strategy in cached.items()}
    rebinds = count_rebinds(monkeypatch)
    planned_second = scheduler.plan_job(second, StrategyType.S1, 0)
    # Exact hits on both domains, served by reference: the losing beta
    # offer and the winning alpha offer cost no copy.
    assert [id(strategy) for _, strategy in reads[2:]] == [
        id(strategy) for strategy in cached.values()]
    assert planned_second.strategy is planned_first.strategy
    assert planned_second.strategy.job is first
    assert rebinds == []

    assert scheduler.commit_planned(planned_first).committed
    assert rebinds == []  # the strategy already names this job
    record = scheduler.commit_planned(planned_second)
    # Alpha was taken by the first sibling; the replan is served beta's
    # cached entry (still naming the first sibling) and binds it.
    assert record.committed and record.domain == "beta"
    assert reads[-1][1] is cached["beta"]
    # One copy per commit attempt: alpha's entry, then beta's.
    assert [(id(source), rebound.job) for source, rebound in rebinds] == [
        (id(cached["alpha"]), second), (id(cached["beta"]), second)]
    assert record.strategy.job is second
    assert record.chosen.outcome.job_id == "second"
    assert_booked_as(grid, "first",
                     scheduler.records[0].chosen.distribution)
    assert_booked_as(grid, "second", record.chosen.distribution)
    assert ({(p.task_id, p.node_id, p.start, p.end)
             for p in record.chosen.distribution}
            <= {(p.task_id, p.node_id, p.start, p.end)
                for s in cached["beta"].admissible_schedules()
                for p in s.distribution})

    after = {domain: (strategy.job.job_id, strategy_snapshot(strategy))
             for domain, strategy in cached.items()}
    assert after == before


def test_online_refused_sibling_copies_nothing(monkeypatch):
    """A sibling served an inadmissible cached strategy is refused
    without any rebind."""
    scheduler = Metascheduler(twin_domain_grid(), conflict_retries=1)
    reads = recorded_plan_reads(monkeypatch)
    assert scheduler.plan_job(sibling("x", deadline=1), StrategyType.S1,
                              0).offer is None
    rebinds = count_rebinds(monkeypatch)
    record = scheduler.commit_planned(
        scheduler.plan_job(sibling("y", deadline=1), StrategyType.S1, 0))
    assert record.reason == "inadmissible"
    assert [id(strategy) for _, strategy in reads[2:]] == [
        id(strategy) for _, strategy in reads[:2]]
    assert rebinds == []


def test_sharded_siblings_bind_only_at_commit(monkeypatch):
    """Through the sharded lane: reads never copy, commits bind at most
    once per attempt, every commit books under its own id (including
    those bound from a sibling's cached entry), and no cached entry is
    modified."""
    rebinds = count_rebinds(monkeypatch)
    read_rebinds = 0
    #: Entries served to a sibling, by id, with their state when served.
    served = {}
    read = sharding_module.plan_with_cache

    def guarded_read(manager, job, *args, **kwargs):
        nonlocal read_rebinds
        before = len(rebinds)
        strategy = read(manager, job, *args, **kwargs)
        read_rebinds += len(rebinds) - before
        if strategy.job is not job and id(strategy) not in served:
            served[id(strategy)] = (strategy, strategy.job.job_id,
                                    strategy_snapshot(strategy))
        return strategy

    monkeypatch.setattr(sharding_module, "plan_with_cache", guarded_read)
    commits = []
    choose = sharded_module.choose_commit

    def recording_choose(grid, job, *args):
        commitment = choose(grid, job, *args)
        commits.append((job, commitment))
        return commitment

    monkeypatch.setattr(sharded_module, "choose_commit", recording_choose)

    pool = generate_pool(RandomStreams(42).stream("pool"),
                         WorkloadConfig(pool_size=(24, 24)), domains=6)
    config = ShardedConfig(jobs=300, mean_interarrival=0.05, window=4,
                           shards=2)
    simulation = ShardedSimulation(
        pool, seed=7, config=config,
        job_factory=template_workload_factory((5.0, 3.0, 1.0)))
    simulation.run()

    assert served, "no exact hit was served to a template sibling"
    assert read_rebinds == 0
    attempts = sum(1 + c.replans - (c.reason == "inadmissible")
                   for _, c in commits)
    assert 0 < len(rebinds) <= attempts
    sources = {id(rebound): source for source, rebound in rebinds}
    assert any(c.chosen is not None
               and id(sources.get(id(c.strategy))) in served
               for _, c in commits), \
        "no commit was bound from a sibling-served entry"
    for job, commitment in commits:
        if commitment.chosen is not None:
            assert commitment.strategy.job is job
            assert_booked_as(simulation.grid, job.job_id,
                             commitment.chosen.distribution)
    for strategy, job_id, snapshot in served.values():
        assert strategy.job.job_id == job_id
        assert strategy_snapshot(strategy) == snapshot
