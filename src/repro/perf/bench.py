"""Pinned kernel benchmark: fixed workloads, exact counts, count gate.

``run_kernel_bench`` runs seven seeded, deterministic workloads that
together cover the scheduling kernel's hot paths, each once under its
own :meth:`~repro.perf.registry.PerfRegistry.collecting` scope:

``study_fig3a``
    The Fig. 3a application-level study at a pinned scale — strategy
    generation end to end (DP, calendars, critical-works ranking).
``critical_works_fig2``
    200 repetitions of the paper's Fig. 2 worked example against empty
    calendars — the critical-works method without background load.
``calendar_ops``
    A reservation-calendar micro-workload: 1 000 bookings, 2 000
    ``conflicts``/``earliest_fit`` queries, one what-if copy.
``strategy_generation``
    Incremental strategy generation: S1/S2/MS1 strategies for a batch
    of random jobs over background-loaded calendars through one
    generator — the warm-start + fit-cache path.
``online_sim``
    A pinned :class:`~repro.flow.simulation.OnlineSimulation` run —
    plan, epoch-aware commit, and discrete-event execution end to end.
``online_large``
    The plan-reuse scenario: >10³ template-skewed arrivals (two job
    classes at 70/30) through a dense flash-crowd window, where the
    flow layer's semantic plan keys turn most commits into exact cache
    hits or warm repairs.  The strict gate floors this workload's
    ``flow.plan_cache`` reuse rate (``PLAN_CACHE_FLOORS``).
``online_sharded``
    The scale scenario: 10^5 template-mixed arrivals through the
    domain-sharded batch engine
    (:class:`~repro.flow.sharded.ShardedSimulation`) at the pinned
    shard count (``--shards``, default 4) over a 12-domain pool.  Also
    floored by ``PLAN_CACHE_FLOORS``.

Every workload's entry in the report holds its pinned ``params`` and
the exact :data:`~repro.perf.registry.PERF` ``counters`` of its run.
The runs are seeded discrete-event computations, so the counts repeat
exactly on any machine; ``compare_counts`` diffs them against a
committed baseline and any difference fails ``repro perf --compare``.
Nothing here reads a clock: wall time is measured by the repository
benchmark (``perfbench/``), which times the same program from outside.

Workloads that run through a
:class:`~repro.core.context.SchedulingContext` additionally report the
context's own per-cache view (entries, capacities, eviction policies)
under ``context.<workload>``, which the plan-cache floors read.  A
:mod:`gc` callback probe reports, per workload, the cyclic collector's
passes per generation under ``gc``; those depend on the allocation
history of the whole process, so no gate reads them.

Workload imports are lazy: the kernel imports :mod:`repro.perf` for the
``PERF`` registry, so this module must not import the kernel at module
scope.
"""

from __future__ import annotations

import gc
import platform
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Optional

from .registry import PERF

__all__ = ["BENCH_SCHEMA_VERSION", "BENCH_WORKLOADS", "PLAN_CACHE_FLOORS",
           "run_kernel_bench", "compare_counts", "check_plan_floors"]

#: Bump when the pinned workloads or the report layout change
#: incompatibly; comparisons across schema versions are refused.
BENCH_SCHEMA_VERSION = 2


@contextmanager
def _gc_probe() -> Iterator[dict[str, Any]]:
    """Count the cyclic GC's passes per generation while the block
    runs; the yielded dict is filled at exit."""
    passes = [0] * len(gc.get_count())

    def callback(phase: str, info: dict[str, Any]) -> None:
        if phase == "stop":
            passes[info["generation"]] += 1

    result: dict[str, Any] = {}
    gc.callbacks.append(callback)
    try:
        yield result
    finally:
        gc.callbacks.remove(callback)
        result["passes"] = {f"gen{generation}": count
                            for generation, count in enumerate(passes)}


#: Names of the pinned workloads, in report order.
BENCH_WORKLOADS = ("study_fig3a", "critical_works_fig2", "calendar_ops",
                   "strategy_generation", "online_sim", "online_large",
                   "online_sharded")

#: Minimum ``flow.plan_cache`` reuse rate (exact hits + warm repairs
#: over reads) per online workload, enforced by ``repro perf --strict``.
#: ``online_large`` is the scenario semantic plan keys were built for —
#: most commits must be served from the cache; ``online_sim`` draws
#: unique jobs, so only conflict replans can reuse and the floor is a
#: canary against the cache being disabled outright.  ``online_sharded``
#: plans 10^5 template arrivals in windows, so within-window siblings
#: must hit exactly and across windows at worst repair — only the first
#: (template, family, domain) probe of a window may miss.
PLAN_CACHE_FLOORS = {"online_large": 0.50, "online_sim": 0.05,
                     "online_sharded": 0.80}


def check_plan_floors(report: dict[str, Any]) -> list[str]:
    """Plan-cache reuse-rate floor violations in a bench ``report``.

    Checks every :data:`PLAN_CACHE_FLOORS` workload that ran in this
    report (others are skipped, so CI can gate subsets) and returns one
    human-readable line per violated floor — empty means the gate
    passes.
    """
    failures: list[str] = []
    for name, floor in sorted(PLAN_CACHE_FLOORS.items()):
        context = report.get("context", {}).get(name)
        if context is None:
            continue
        rate = float(context["flow.plan_cache"]["reuse_rate"])
        if rate < floor:
            failures.append(
                f"{name}: flow.plan_cache reuse rate {rate:.1%} is below "
                f"the {floor:.0%} floor")
    return failures


def compare_counts(baseline: dict[str, Any], current: dict[str, Any]
                   ) -> list[str]:
    """Every difference between two reports' per-workload counts.

    Returns one human-readable line per difference — empty means the
    gate passes.  A schema mismatch is one line and nothing else is
    compared; so is a workload whose params differ, because counts of
    differently configured runs say nothing about each other.  A
    counter present on one side only is reported with ``absent`` for
    the other.  Workloads in the baseline that ``current`` did not run
    are skipped, so CI and tests can gate subsets; a workload the
    baseline does not record is a difference.
    """
    if baseline.get("schema") != current.get("schema"):
        return [f"benchmark schema mismatch: baseline "
                f"{baseline.get('schema')!r}, current "
                f"{current.get('schema')!r}"]
    differences: list[str] = []
    recorded = baseline.get("workloads", {})
    for name, entry in current.get("workloads", {}).items():
        base_entry = recorded.get(name)
        if base_entry is None:
            differences.append(f"{name}: workload absent from the baseline")
            continue
        if base_entry["params"] != entry["params"]:
            differences.append(
                f"{name}: params differ: baseline {base_entry['params']}, "
                f"current {entry['params']}")
            continue
        base_counts, counts = base_entry["counters"], entry["counters"]
        for counter in sorted(set(base_counts) | set(counts)):
            before = base_counts.get(counter, "absent")
            after = counts.get(counter, "absent")
            if before != after:
                differences.append(f"{name}: {counter}: baseline {before}, "
                                   f"current {after}")
    return differences


def run_kernel_bench(jobs: int = 60, seed: int = 2009,
                     workloads: Optional[Iterable[str]] = None,
                     shards: int = 4,
                     sharded_jobs: Optional[int] = None) -> dict[str, Any]:
    """Run the pinned kernel workloads once each; a JSON-ready report.

    ``workloads`` restricts the run to a subset of
    :data:`BENCH_WORKLOADS` (all of them by default).  ``shards`` pins
    the shard count of the ``online_sharded`` scenario; ``sharded_jobs``
    overrides that scenario's pinned 10^5 arrivals — a test-scale knob,
    not something a committed baseline should ever set.
    """
    from ..core.calendar import ReservationCalendar
    from ..core.critical_works import CriticalWorksScheduler
    from ..core.strategy import StrategyGenerator, StrategyType
    from ..experiments.study import (ApplicationStudyConfig,
                                     application_level_study)
    from ..flow.sharded import ShardedConfig, ShardedSimulation
    from ..flow.simulation import OnlineConfig, OnlineSimulation
    from ..grid.environment import GridEnvironment
    from ..sim.rng import RandomStreams
    from ..workload.generator import (WorkloadConfig, generate_job,
                                      generate_pool,
                                      template_workload_factory)
    from ..workload.paper_example import fig2_job, fig2_pool

    if workloads is None:
        selected = list(BENCH_WORKLOADS)
    else:
        selected = list(workloads)
        unknown = sorted(set(selected) - set(BENCH_WORKLOADS))
        if unknown:
            raise ValueError(
                f"unknown workload(s) {', '.join(unknown)}; "
                f"choose from {', '.join(BENCH_WORKLOADS)}")

    # Each runner returns the object whose ``stats(counters)`` gives
    # the workload's per-cache context view, or None when it schedules
    # without a SchedulingContext.
    config = ApplicationStudyConfig(seed=seed, n_jobs=jobs)

    def study() -> None:
        # In-process: subprocess workers would report into their own
        # registries, not this one.
        application_level_study(config, workers=1)

    pool, job = fig2_pool(), fig2_job()

    def critical_works() -> Any:
        scheduler = CriticalWorksScheduler(pool)
        for _ in range(200):
            calendars = {node.node_id: ReservationCalendar()
                         for node in pool}
            scheduler.schedule(job, pool, calendars)
        return scheduler.context

    def calendar_ops() -> None:
        calendar = ReservationCalendar()
        for index in range(1_000):
            calendar.reserve(index * 5, index * 5 + 3, tag=f"r{index}")
        for index in range(2_000):
            calendar.conflicts(index * 2, index * 2 + 4)
            calendar.earliest_fit(2, earliest=index, deadline=index + 5_000)
        calendar.copy()

    # Strategy generation over loaded calendars, through one generator
    # whose warm-start/fit-cache state starts cold.
    sgen_jobs, sgen_stypes, sgen_busy = 30, 3, 0.5
    streams = RandomStreams(seed)
    sgen_rng = streams.stream("bench.sgen")
    sgen_pool = generate_pool(sgen_rng)
    sgen_batch = [generate_job(sgen_rng, index) for index in range(sgen_jobs)]
    sgen_env = GridEnvironment(sgen_pool)
    sgen_env.apply_background_load(sgen_rng, sgen_busy, 400)

    def strategy_generation() -> Any:
        generator = StrategyGenerator(sgen_pool)
        for batch_job in sgen_batch:
            for stype in (StrategyType.S1, StrategyType.S2,
                          StrategyType.MS1):
                generator.generate(batch_job, sgen_env.snapshot(), stype)
        return generator.context

    # plan_latency > 0 separates planning from commitment on the DES
    # clock, so commitment conflicts (and the epoch-aware replans that
    # exercise the plan cache) actually occur in the benchmark.
    online_config = OnlineConfig(horizon=400, mean_interarrival=6.0,
                                 busy_fraction=0.3, conflict_retries=1,
                                 plan_latency=4)
    online_pool = generate_pool(streams.stream("bench.online_pool"))

    def online_sim() -> Any:
        simulation = OnlineSimulation(online_pool, seed=seed,
                                      config=online_config)
        simulation.run()
        return simulation.context

    # The plan-reuse scenario: a dense flash crowd (~8 arrivals per
    # slot) of two dominant job templates with a long decision lag, so
    # thousands of commits land against a mostly-frozen environment and
    # same-template arrivals resolve to exact plan-cache hits; the
    # drifted remainder exercises warm repair.
    large_weights = (0.7, 0.3)
    large_config = OnlineConfig(horizon=150, mean_interarrival=0.12,
                                busy_fraction=0.25, conflict_retries=2,
                                plan_latency=10,
                                stypes=(StrategyType.S1, StrategyType.S2))
    large_pool = generate_pool(streams.stream("bench.online_large_pool"))

    def online_large() -> Any:
        simulation = OnlineSimulation(
            large_pool, seed=seed, config=large_config,
            job_factory=template_workload_factory(large_weights))
        simulation.run()
        return simulation.context

    # The scale scenario: 10^5 arrivals from a 3-template mix through
    # the sharded batch engine over a 12-domain / 48-node pool; each
    # job only meets its own shard's domains.
    sharded_weights = (5.0, 3.0, 1.0)
    sharded_config = ShardedConfig(
        jobs=100_000 if sharded_jobs is None else sharded_jobs,
        mean_interarrival=0.02, window=16, shards=shards)
    sharded_pool = generate_pool(streams.stream("bench.sharded_pool"),
                                 WorkloadConfig(pool_size=(48, 48)),
                                 domains=12)

    def online_sharded() -> Any:
        # The sharded simulation exposes the same stats(counters)
        # surface as a context, merged over its per-shard contexts.
        simulation = ShardedSimulation(
            sharded_pool, seed=seed, config=sharded_config,
            job_factory=template_workload_factory(sharded_weights))
        simulation.run()
        return simulation

    runners: dict[str, tuple[Callable[[], Any], dict[str, Any]]] = {
        "study_fig3a": (study, {"jobs": jobs, "seed": seed}),
        "critical_works_fig2": (critical_works, {"repetitions": 200}),
        "calendar_ops": (calendar_ops, {"reservations": 1_000,
                                        "queries": 2_000}),
        "strategy_generation": (strategy_generation, {
            "jobs": sgen_jobs, "stypes": sgen_stypes, "seed": seed,
            "busy_fraction": sgen_busy}),
        "online_sim": (online_sim, {
            "horizon": online_config.horizon,
            "mean_interarrival": online_config.mean_interarrival,
            "busy_fraction": online_config.busy_fraction,
            "conflict_retries": online_config.conflict_retries,
            "plan_latency": online_config.plan_latency,
            "seed": seed}),
        "online_large": (online_large, {
            "horizon": large_config.horizon,
            "mean_interarrival": large_config.mean_interarrival,
            "busy_fraction": large_config.busy_fraction,
            "conflict_retries": large_config.conflict_retries,
            "plan_latency": large_config.plan_latency,
            "template_weights": list(large_weights),
            "seed": seed}),
        "online_sharded": (online_sharded, {
            "jobs": sharded_config.jobs,
            "mean_interarrival": sharded_config.mean_interarrival,
            "window": sharded_config.window,
            "shards": shards,
            "domains": 12,
            "pool_nodes": len(sharded_pool),
            "template_weights": list(sharded_weights),
            "seed": seed}),
    }

    report: dict[str, Any] = {
        "benchmark": "kernel",
        "schema": BENCH_SCHEMA_VERSION,
        "python": platform.python_version(),
        "workloads": {},
        "context": {},
        "gc": {},
    }
    for name in BENCH_WORKLOADS:
        if name not in selected:
            continue
        runner, params = runners[name]
        with PERF.collecting() as registry:
            with _gc_probe() as collected:
                context = runner()
            counters = dict(sorted(registry.counters.items()))
        report["workloads"][name] = {"params": params, "counters": counters}
        report["gc"][name] = collected
        if context is not None:
            report["context"][name] = context.stats(counters)
    return report
