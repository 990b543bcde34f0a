"""Pinned kernel benchmark: fixed workloads, JSON reports, comparison.

``run_kernel_bench`` times seven seeded, deterministic workloads that
together cover the scheduling kernel's hot paths:

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
    hits or warm repairs.  The strict perf gate floors this workload's
    ``flow.plan_cache`` reuse rate (``PLAN_CACHE_FLOORS``).
``online_sharded``
    The scale scenario: 10^5 template-mixed arrivals through the
    domain-sharded batch engine
    (:class:`~repro.flow.sharded.ShardedSimulation`) at the pinned
    shard count (``--shards``, default 4) over a 12-domain pool.  The
    same run is repeated once at ``shards=1`` and the entry records
    ``baseline_shards1_seconds`` and ``speedup_vs_shards1`` — the
    wall-clock payoff of planning each arrival against its own shard's
    domains only.  Also floored by ``PLAN_CACHE_FLOORS``.

The report also embeds a merged :class:`~repro.perf.registry.
PerfRegistry` snapshot of one instrumented pass over every selected
workload plus derived per-cache hit rates (``caches``), so counter
drift (e.g. a cache that stopped hitting) is visible next to the
timings.  Workloads that run through a
:class:`~repro.core.context.SchedulingContext` additionally report the
context's own per-cache view (entries, capacities, eviction policies)
under ``context.<workload>`` — the unified ``context.stats()`` surface
the refactor consolidated the cache inventory behind.
The same pass is watched by a :mod:`gc` callback probe: ``gc`` reports,
per workload, the cyclic collector's passes per generation and the
host seconds they took, so the share of a run spent in cyclic
collection is a reported number.
``compare_reports`` diffs two reports for the CI regression gates;
it reads only the timed ``seconds``.

Workload imports are lazy: the kernel imports :mod:`repro.perf` for the
``PERF`` registry, so this module must not import the kernel at module
scope.
"""

from __future__ import annotations

import gc
import platform
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Optional

from .registry import PERF, derive_cache_stats

__all__ = ["BENCH_SCHEMA_VERSION", "BENCH_WORKLOADS", "PLAN_CACHE_FLOORS",
           "run_kernel_bench", "compare_reports", "format_comparison",
           "check_plan_floors"]

#: Bump when the pinned workloads change incompatibly; comparisons
#: across schema versions are refused.
BENCH_SCHEMA_VERSION = 1

#: Default warn threshold: flag a workload slower than baseline by more
#: than this fraction.  Generous because CI machines are noisy and the
#: gate is warn-only.
DEFAULT_THRESHOLD = 0.30


def _best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Minimum wall seconds over ``repeats`` runs (noise floor)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()  # lint: perf-timer — measures the host
        fn()
        elapsed = time.perf_counter() - started  # lint: perf-timer
        if elapsed < best:
            best = elapsed
    return best


@contextmanager
def _gc_probe() -> Iterator[dict[str, Any]]:
    """Count the cyclic GC's passes per generation, and their host
    seconds, while the block runs; the yielded dict is filled at exit."""
    passes = [0] * len(gc.get_count())
    seconds = started = 0.0

    def callback(phase: str, info: dict[str, Any]) -> None:
        nonlocal seconds, started
        if phase == "start":
            started = time.perf_counter()  # lint: perf-timer — GC time
        else:
            seconds += time.perf_counter() - started  # lint: perf-timer
            passes[info["generation"]] += 1

    result: dict[str, Any] = {}
    gc.callbacks.append(callback)
    try:
        yield result
    finally:
        gc.callbacks.remove(callback)
        result["passes"] = {f"gen{generation}": count
                            for generation, count in enumerate(passes)}
        result["seconds"] = round(seconds, 6)


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


def run_kernel_bench(jobs: int = 60, seed: int = 2009, repeats: int = 3,
                     workers: Optional[int] = 1,
                     workloads: Optional[Iterable[str]] = None,
                     shards: int = 4,
                     sharded_jobs: Optional[int] = None) -> dict[str, Any]:
    """Run the pinned kernel workloads and return a JSON-ready report.

    ``workloads`` restricts the run to a subset of
    :data:`BENCH_WORKLOADS` (all of them by default) — CI uses this to
    gate strictly on the fast micro scenarios without paying for the
    end-to-end ones twice.  ``shards`` pins the shard count of the
    ``online_sharded`` scenario (its ``shards=1`` baseline is measured
    inside the same report whenever ``shards != 1``); ``sharded_jobs``
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

    config = ApplicationStudyConfig(seed=seed, n_jobs=jobs)

    def study() -> None:
        application_level_study(config, workers=workers)

    pool, job = fig2_pool(), fig2_job()
    scheduler = CriticalWorksScheduler(pool)

    def critical_works() -> None:
        for _ in range(200):
            calendars = {node.node_id: ReservationCalendar()
                         for node in pool}
            scheduler.schedule(job, pool, calendars)

    def calendar_ops() -> int:
        calendar = ReservationCalendar()
        for index in range(1_000):
            calendar.reserve(index * 5, index * 5 + 3, tag=f"r{index}")
        hits = 0
        for index in range(2_000):
            hits += len(calendar.conflicts(index * 2, index * 2 + 4))
            calendar.earliest_fit(2, earliest=index, deadline=index + 5_000)
        calendar.copy()
        return hits

    # Strategy generation over loaded calendars: built once, reused by
    # every repetition (the generator itself is fresh per run, so its
    # warm-start/fit-cache state always starts cold).
    sgen_jobs, sgen_stypes, sgen_busy = 30, 3, 0.5
    streams = RandomStreams(seed)
    sgen_rng = streams.stream("bench.sgen")
    sgen_pool = generate_pool(sgen_rng)
    sgen_batch = [generate_job(sgen_rng, index) for index in range(sgen_jobs)]
    sgen_env = GridEnvironment(sgen_pool)
    sgen_env.apply_background_load(sgen_rng, sgen_busy, 400)

    last_sgen_context: list[Any] = [None]

    def strategy_generation() -> int:
        generator = StrategyGenerator(sgen_pool)
        last_sgen_context[0] = generator.context
        expense = 0
        for batch_job in sgen_batch:
            for stype in (StrategyType.S1, StrategyType.S2,
                          StrategyType.MS1):
                strategy = generator.generate(batch_job, sgen_env.snapshot(),
                                              stype)
                expense += strategy.generation_expense
        return expense

    # plan_latency > 0 separates planning from commitment on the DES
    # clock, so commitment conflicts (and the epoch-aware replans that
    # exercise the plan cache) actually occur in the benchmark.
    online_config = OnlineConfig(horizon=400, mean_interarrival=6.0,
                                 busy_fraction=0.3, conflict_retries=1,
                                 plan_latency=4)
    online_pool = generate_pool(streams.stream("bench.online_pool"))
    last_online_context: list[Any] = [None]

    def online_sim() -> None:
        simulation = OnlineSimulation(online_pool, seed=seed,
                                      config=online_config)
        last_online_context[0] = simulation.context
        simulation.run()

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
    last_large_context: list[Any] = [None]

    def online_large() -> None:
        simulation = OnlineSimulation(
            large_pool, seed=seed, config=large_config,
            job_factory=template_workload_factory(large_weights))
        last_large_context[0] = simulation.context
        simulation.run()

    # The scale scenario: 10^5 arrivals from a 3-template mix through
    # the sharded batch engine over a 12-domain / 48-node pool.  The
    # speedup is semantic: each job only meets its own shard's domains,
    # and each shard's plan cache serves a narrower working set.  The
    # ``shards=1`` reference run below measures the same stream planned
    # against the whole VO.
    if shards < 1:
        raise ValueError(f"shards must be positive, got {shards}")
    sharded_weights = (5.0, 3.0, 1.0)
    sharded_config = ShardedConfig(
        jobs=100_000 if sharded_jobs is None else sharded_jobs,
        mean_interarrival=0.02, window=16, shards=shards)
    sharded_pool = generate_pool(streams.stream("bench.sharded_pool"),
                                 WorkloadConfig(pool_size=(48, 48)),
                                 domains=12)
    sharded_factory = template_workload_factory(sharded_weights)
    last_sharded: list[Any] = [None]

    def online_sharded() -> None:
        simulation = ShardedSimulation(sharded_pool, seed=seed,
                                       config=sharded_config,
                                       job_factory=sharded_factory)
        last_sharded[0] = simulation
        simulation.run()

    runners: dict[str, tuple[Callable[[], Any], dict[str, Any]]] = {
        "study_fig3a": (study, {"jobs": jobs, "seed": seed,
                                "workers": workers}),
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
    }
    for name in BENCH_WORKLOADS:
        if name not in selected:
            continue
        runner, params = runners[name]
        entry = {"seconds": round(_best_of(runner, repeats), 6)}
        entry.update(params)
        report["workloads"][name] = entry

    if "online_sharded" in report["workloads"] and shards != 1:
        # The unsharded reference, measured in the same process right
        # after the sharded runs so the comparison shares every warmup
        # effect; one pass — it exists to size the speedup, not to be
        # a low-noise timing of its own.
        from dataclasses import replace

        reference_config = replace(sharded_config, shards=1)

        def sharded_reference() -> None:
            ShardedSimulation(sharded_pool, seed=seed,
                              config=reference_config,
                              job_factory=sharded_factory).run()

        entry = report["workloads"]["online_sharded"]
        entry["baseline_shards1_seconds"] = round(
            _best_of(sharded_reference, 1), 6)
        entry["speedup_vs_shards1"] = round(
            entry["baseline_shards1_seconds"] / entry["seconds"], 3)

    # One instrumented pass of every selected workload, each under its
    # own collection scope: the merged counters document how hard the
    # kernel worked overall, and workloads that schedule through a
    # SchedulingContext additionally report that context's unified
    # per-cache stats (hits/misses from the scoped counters, plus
    # entries, capacities, and eviction policies from the context).
    # The study runs in-process here (workers=1) — subprocess workers
    # report into their own registries, not this one; its generators
    # (and calendar_ops) are context-free in this report.
    instrumented = dict(runners)
    instrumented["study_fig3a"] = (
        lambda: application_level_study(config, workers=1), {})
    workload_contexts: dict[str, Callable[[], Any]] = {
        "critical_works_fig2": lambda: scheduler.context,
        "strategy_generation": lambda: last_sgen_context[0],
        "online_sim": lambda: last_online_context[0],
        "online_large": lambda: last_large_context[0],
        # The sharded simulation exposes the same stats(counters)
        # surface as a context, merged over its per-shard contexts.
        "online_sharded": lambda: last_sharded[0],
    }
    merged_counters: dict[str, int] = {}
    merged_timers: dict[str, float] = {}
    report["context"] = {}
    report["gc"] = {}
    for name in BENCH_WORKLOADS:
        if name not in selected:
            continue
        with PERF.collecting() as registry:
            with _gc_probe() as collected:
                instrumented[name][0]()
            snapshot = registry.snapshot()
        report["gc"][name] = collected
        for counter, value in snapshot["counters"].items():
            merged_counters[counter] = (
                merged_counters.get(counter, 0) + int(value))
        for timer, seconds in snapshot["timers"].items():
            merged_timers[timer] = round(
                merged_timers.get(timer, 0.0) + float(seconds), 6)
        context = workload_contexts.get(name, lambda: None)()
        if context is not None:
            report["context"][name] = context.stats(snapshot["counters"])
    report["counters"] = dict(sorted(merged_counters.items()))
    report["timers"] = dict(sorted(merged_timers.items()))
    report["caches"] = derive_cache_stats(merged_counters)
    return report


def compare_reports(baseline: dict[str, Any], current: dict[str, Any],
                    threshold: float = DEFAULT_THRESHOLD
                    ) -> list[dict[str, Any]]:
    """Per-workload comparison rows; ``regressed`` marks slowdowns.

    A workload regresses when its time exceeds the baseline by more
    than ``threshold`` (fractional).  Workloads present on only one
    side are skipped.
    """
    if baseline.get("schema") != current.get("schema"):
        raise ValueError(
            f"benchmark schema mismatch: baseline "
            f"{baseline.get('schema')!r} vs current {current.get('schema')!r}")
    rows: list[dict[str, Any]] = []
    base_workloads = baseline.get("workloads", {})
    for name, entry in current.get("workloads", {}).items():
        base_entry = base_workloads.get(name)
        if base_entry is None:
            continue
        base_seconds = float(base_entry["seconds"])
        seconds = float(entry["seconds"])
        ratio = seconds / base_seconds if base_seconds > 0 else float("inf")
        rows.append({
            "workload": name,
            "baseline_seconds": base_seconds,
            "seconds": seconds,
            "ratio": round(ratio, 3),
            "regressed": ratio > 1.0 + threshold,
        })
    return rows


def format_comparison(rows: list[dict[str, Any]],
                      threshold: float = DEFAULT_THRESHOLD) -> str:
    """A human-readable table of :func:`compare_reports` rows."""
    lines = [f"{'workload':<24} {'baseline':>10} {'current':>10} "
             f"{'ratio':>7}  status"]
    for row in rows:
        status = ("REGRESSED" if row["regressed"]
                  else "ok" if row["ratio"] >= 1.0 else "faster")
        lines.append(
            f"{row['workload']:<24} {row['baseline_seconds']:>9.4f}s "
            f"{row['seconds']:>9.4f}s {row['ratio']:>6.2f}x  {status}")
    regressed = [row["workload"] for row in rows if row["regressed"]]
    if regressed:
        lines.append(f"warning: {len(regressed)} workload(s) slower than "
                     f"baseline by >{threshold:.0%}: {', '.join(regressed)}")
    else:
        lines.append(f"all workloads within {threshold:.0%} of baseline")
    return "\n".join(lines)


def measure_speedup(baseline: dict[str, Any], current: dict[str, Any]
                    ) -> Optional[float]:
    """Aggregate speedup (geometric mean of baseline/current ratios)."""
    rows = compare_reports(baseline, current, threshold=float("inf"))
    if not rows:
        return None
    product = 1.0
    for row in rows:
        if row["seconds"] <= 0:
            return None
        product *= row["baseline_seconds"] / row["seconds"]
    return product ** (1.0 / len(rows))
