"""The benchmark's three arrival-stream workloads.

Each workload is an open loop on the simulated clock: Poisson arrivals
that do not depend on system state, replayed as fast as the host
allows.  A workload seed draws the resource pool, its background load,
the arrival times and the jobs; the template mixes use the program's
fixed templates, so a seed changes which template arrives when, not
the templates themselves.  Pool sizes are pinned so that seeds vary
the inputs without also varying the amount of work per arrival.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Mapping, Tuple

__all__ = ["Workload", "WORKLOADS", "arrival_times"]


@dataclass(frozen=True)
class Workload:
    """One workload: its lane, its size and how to build a run of it."""

    name: str
    #: "online" (OnlineSimulation on the DES clock) or "sharded"
    #: (ShardedSimulation, windowed plan/commit).
    lane: str
    #: Nominal host seconds of one repetition; sets how many
    #: repetitions fit in ``--seconds`` without timing anything.
    rep_seconds: float
    why: str
    #: What the traced run's counters must show for the workload to
    #: still be the one it was chosen to be, and the check itself.
    regime_text: str
    regime: Callable[[Mapping[str, float]], bool]


def _reads(c: Mapping[str, float]) -> float:
    """Plan-cache reads: exact hits, warm repairs and misses."""
    return (c["flow.plan_cache_hits"] + c["flow.plan_repairs"]
            + c["flow.plan_cache_misses"])


WORKLOADS = {
    w.name: w for w in (
        Workload("unique_cold", "online", 8.5,
                 "every job is unique, so only conflict replans hit the "
                 "plan cache and cold DP (allocate_chain) takes most of the run",
                 "exact hits are under 20% of plan-cache reads",
                 lambda c: c["flow.plan_cache_hits"] < 0.20 * _reads(c)),
        Workload("template_repair", "online", 5.5,
                 "two templates repeat while calendars drift, so most "
                 "plan-cache reads are warm repairs",
                 "warm repairs outnumber exact hits",
                 lambda c: c["flow.plan_repairs"] > c["flow.plan_cache_hits"]),
        Workload("template_overload", "sharded", 5.5,
                 "a flash crowd through the sharded lane: exact hits with "
                 "rebind, refusals and the commit loop; DP is a minority",
                 "exact hits are over half of plan-cache reads",
                 lambda c: c["flow.plan_cache_hits"] > 0.5 * _reads(c)),
    )
}

#: Template weights of the two template workloads.
REPAIR_WEIGHTS = (0.7, 0.3)
OVERLOAD_WEIGHTS = (5.0, 3.0, 1.0)


def build(name: str, seed: int,
          wrap_factory: Callable[[Callable[..., Any]], Callable[..., Any]]
          = lambda f: f) -> Tuple[Any, Callable[..., Any]]:
    """A fresh simulation of workload ``name`` and its job factory.

    ``wrap_factory`` lets the traced run time the factory; the returned
    factory is the unwrapped one, for regenerating jobs afterwards.
    """
    from repro.core.strategy import StrategyType
    from repro.flow.sharded import ShardedConfig, ShardedSimulation
    from repro.flow.simulation import OnlineConfig, OnlineSimulation
    from repro.sim.rng import RandomStreams
    from repro.workload.generator import (WorkloadConfig, generate_job,
                                          generate_pool,
                                          template_workload_factory)

    pool_stream = RandomStreams(seed).stream("perfbench.pool")
    if name == "unique_cold":
        pool = generate_pool(pool_stream, WorkloadConfig(pool_size=(24, 24)))
        config = OnlineConfig(horizon=2400, mean_interarrival=6.0,
                              busy_fraction=0.3, plan_latency=4,
                              conflict_retries=1)
        factory: Callable[..., Any] = generate_job
        return OnlineSimulation(pool, seed=seed, config=config,
                                job_factory=wrap_factory(factory)), factory
    if name == "template_repair":
        pool = generate_pool(pool_stream, WorkloadConfig(pool_size=(24, 24)))
        config = OnlineConfig(horizon=1000, mean_interarrival=2.0,
                              busy_fraction=0.25, plan_latency=4,
                              conflict_retries=1,
                              stypes=(StrategyType.S1, StrategyType.S2))
        factory = template_workload_factory(REPAIR_WEIGHTS)
        return OnlineSimulation(pool, seed=seed, config=config,
                                job_factory=wrap_factory(factory)), factory
    if name == "template_overload":
        pool = generate_pool(pool_stream, WorkloadConfig(pool_size=(48, 48)),
                             domains=12)
        config = ShardedConfig(jobs=20_000, mean_interarrival=0.02,
                               window=16, shards=4, workers=1)
        factory = template_workload_factory(OVERLOAD_WEIGHTS)
        return ShardedSimulation(pool, seed=seed, config=config,
                                 job_factory=wrap_factory(factory)), factory
    raise ValueError(f"unknown workload {name!r}")


def arrival_times(lane: str, simulation: Any) -> List[float]:
    """Every arrival's simulated time, drawn afresh from the seed.

    An oracle independent of the run: it replays the program's
    documented arrival process (exponential gaps from the ``arrivals``
    stream; the online lane stops at the horizon, the sharded lane
    after ``jobs`` arrivals) instead of reading what the run recorded.
    """
    from repro.sim.rng import RandomStreams

    config = simulation.config
    rng = RandomStreams(simulation.streams.seed).stream("arrivals")
    times: List[float] = []
    clock = 0.0
    if lane == "online":
        while True:
            clock += float(rng.exponential(config.mean_interarrival))
            if clock >= config.horizon:
                return times
            times.append(clock)
    for _ in range(config.jobs):
        clock += float(rng.exponential(config.mean_interarrival))
        times.append(clock)
    return times
