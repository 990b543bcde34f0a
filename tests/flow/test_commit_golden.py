"""Golden digests pinning both flow lanes' commit decisions.

Both lanes commit through one function
(:func:`repro.flow.metascheduler.choose_commit`).  The digests come
from runs where commit-time conflicts and replans really happen, so
any change to which variant a job commits, where, or why it is
refused shows up here.  The online digest covers the benchmark's
decision tuple and leaves out ``FlowRecord.reallocations``, which
counts fallbacks rather than decisions.  The sibling digest pins a run
where exact plan-cache hits serve template siblings, down to the
booking tags each commit leaves on the calendars.
"""

import hashlib

import pytest

from repro.core.strategy import StrategyType
from repro.flow.sharded import ShardedConfig, ShardedSimulation
from repro.flow.simulation import OnlineConfig, OnlineSimulation
from repro.perf import PERF
from repro.sim import RandomStreams
from repro.workload import WorkloadConfig, generate_pool
from repro.workload.generator import template_workload_factory

SHARDED_DIGEST = (
    "af0b365f8b9261c8785a775ea6c0cc83c42ef8f26f90fed99806cca48b1cc9d4")
#: Per shard count; ``SHARDED_DIGEST`` is the two-shard run.
SHARDED_DIGESTS = {
    1: "7a7ac2e3c7bdcf38edd745c3ca137299cec7a4d96251b281adaa65f0af3908ae",
    2: SHARDED_DIGEST,
    4: "7ca4b73e42bb48d8e071819a26d5327d52286ff84f8a2f9e5d865bcbc365a193",
}
ONLINE_DIGEST = (
    "cd6e8fa4e7c38fd2eddfd623f3b31dbcced9311eb27ae2dabcb70585396c4d68")


def pool_24(seed, **kwargs):
    return generate_pool(RandomStreams(seed).stream("pool"),
                         WorkloadConfig(pool_size=(24, 24)), **kwargs)


@pytest.mark.parametrize("shards", sorted(SHARDED_DIGESTS))
def test_sharded_digest_is_pinned(shards):
    config = ShardedConfig(jobs=150, mean_interarrival=0.05, window=4,
                           shards=shards)
    simulation = ShardedSimulation(
        pool_24(42, domains=6), seed=7, config=config,
        job_factory=template_workload_factory((5.0, 3.0, 1.0)))
    simulation.run()
    assert any(o.replans > 0 for o in simulation.outcomes)
    assert simulation.digest() == SHARDED_DIGESTS[shards]


def test_online_decision_digest_is_pinned(monkeypatch):
    config = OnlineConfig(horizon=120, mean_interarrival=2.0,
                          busy_fraction=0.25, plan_latency=4,
                          conflict_retries=1,
                          stypes=(StrategyType.S1, StrategyType.S2))
    simulation = OnlineSimulation(
        pool_24(3), seed=3, config=config,
        job_factory=template_workload_factory((0.7, 0.3)))
    metascheduler = simulation.metascheduler
    plans = []
    plan_job = metascheduler.plan_job

    def counting_plan_job(*args, **kwargs):
        plans.append(args[0].job_id)
        return plan_job(*args, **kwargs)

    monkeypatch.setattr(metascheduler, "plan_job", counting_plan_job)
    outcomes = simulation.run()
    # Commit-time conflicts really happened: some jobs were replanned.
    assert len(plans) > len(outcomes)
    chosen = {r.job_id: r for r in metascheduler.records if r.committed}
    rows = []
    for o in outcomes:
        record = chosen.get(o.job_id) if o.committed else None
        rows.append((
            o.job_id, o.stype.name, o.submitted, o.committed, o.reason,
            o.planned_makespan, o.actual_makespan, o.met_deadline, o.charge,
            record.domain if record else None,
            record.chosen.outcome.cost if record else None))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == ONLINE_DIGEST


SIBLING_DIGEST = (
    "05f42abd23c5ff7cd4f78e5bfd0e728f55021aa2e2ad369de8ea3a57a9448e78")


def test_online_sibling_digest_is_pinned(monkeypatch):
    """Template siblings served exact plan-cache hits commit under their
    own ids: the digest covers every live reservation's tag and every
    record's committed distribution."""
    config = OnlineConfig(horizon=80, mean_interarrival=1.0,
                          busy_fraction=0.25, plan_latency=2,
                          conflict_retries=1,
                          stypes=(StrategyType.S1, StrategyType.S2))
    simulation = OnlineSimulation(
        pool_24(5, domains=3), seed=5, config=config,
        job_factory=template_workload_factory((0.7, 0.3)))
    metascheduler = simulation.metascheduler
    plans = []
    plan_job = metascheduler.plan_job

    def counting_plan_job(*args, **kwargs):
        plans.append(args[0].job_id)
        return plan_job(*args, **kwargs)

    monkeypatch.setattr(metascheduler, "plan_job", counting_plan_job)
    with PERF.collecting() as registry:
        outcomes = simulation.run()
        counters = dict(registry.counters)
    # Exact hits were served to siblings, and conflicts forced replans.
    assert counters.get("flow.plan_rebinds", 0) > 0
    assert len(plans) > len(outcomes)
    hasher = hashlib.sha256()
    for node_id in sorted(simulation.grid.calendars):
        hasher.update(f"n{node_id}".encode())
        for r in simulation.grid.calendars[node_id].reservations:
            hasher.update(f":{r.start},{r.end},{r.tag}".encode())
    for r in metascheduler.records:
        chosen = r.chosen
        hasher.update(repr((
            r.job_id, r.committed, r.reason, r.domain,
            None if chosen is None else (chosen.level,
                                         chosen.distribution.job_id,
                                         chosen.outcome.cost))).encode())
    assert hasher.hexdigest() == SIBLING_DIGEST
