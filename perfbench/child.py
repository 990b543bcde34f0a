"""One repetition of one workload, in a fresh process.

Invoked by ``run.py`` as ``python3 perfbench/child.py '<json spec>'``
with ``src`` on ``PYTHONPATH``; prints one JSON line with the run's
timings, decision samples, correctness findings and, when traced, the
per-layer ledger.  Exit code 3 means the program itself could not be
imported.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import check_run  # noqa: E402
from hostspeed import host_factor, probe_blocks  # noqa: E402
from spans import (GRADE_COUNTERS, GRADES, Patches, Tracer,  # noqa: E402
                   grade_of, span_wrapper)
from workloads import WORKLOADS, arrival_times, build  # noqa: E402

#: The PERF counters the traced run reports.
COUNTERS = (
    "dp.expansions", "dp.pruned", "dp.incumbents_warm", "dp.incumbents_cold",
    "calendar.earliest_fit", "calendar.is_free", "calendar.cow_copies",
    "calendar.materializations",
    "placement.batch_queries", "placement.rows_per_batch",
    "flow.plan_cache_hits", "flow.plan_rebinds", "flow.plan_repairs",
    "flow.plan_cache_misses", "flow.plan_coarse_hits",
)

#: Span name, then (module, class or None, attribute) for every place a
#: caller looks the function up.
SPANS = (
    ("dp.allocate_chain", "repro.core.critical_works", None,
     "allocate_chain"),
    ("critical_works.build_schedule", "repro.core.critical_works",
     "CriticalWorksScheduler", "build_schedule"),
    ("strategy.generate", "repro.core.strategy", "StrategyGenerator",
     "generate"),
    ("strategy.rebind", "repro.core.strategy", "Strategy", "rebind"),
    ("grid.snapshot", "repro.grid.environment", "GridEnvironment",
     "snapshot"),
    ("flow.plan", "repro.flow.metascheduler", "Metascheduler", "plan_job"),
    ("flow.plan", "repro.flow.sharding", "ShardPlanner", "plan"),
    ("flow.commit", "repro.flow.metascheduler", "Metascheduler",
     "commit_planned"),
    ("flow.commit", "repro.flow.sharded", "ShardedSimulation",
     "_commit_offer"),
    ("grid.can_commit", "repro.grid.environment", "GridEnvironment",
     "can_commit"),
    ("grid.commit_distribution", "repro.grid.environment",
     "GridEnvironment", "commit_distribution"),
    ("sim.step", "repro.sim.engine", "Environment", "step"),
    ("grid.node.execute", "repro.grid.node", "NodeAgent", "execute"),
    ("grid.background", "repro.grid.environment", "GridEnvironment",
     "apply_background_load"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in SPANS)) + (
    "workload.job",)

#: Where each lane's per-arrival decision starts and ends, and how to
#: read the arrival's job id off the call's positional arguments.
DECISION_HOOKS = {
    "online": (("repro.flow.metascheduler", "Metascheduler", "plan_job",
                lambda args: args[1].job_id),
               ("repro.flow.metascheduler", "Metascheduler",
                "commit_planned", lambda args: args[1].job.job_id)),
    "sharded": (("repro.flow.sharding", "ShardPlanner", "plan",
                 lambda args: args[1].job_id),
                ("repro.flow.sharded", "ShardedSimulation", "_commit_offer",
                 lambda args: args[2].job_id)),
}


def _owner(module: str, cls: Any) -> Any:
    import importlib

    target = importlib.import_module(module)
    return target if cls is None else getattr(target, cls)


class DecisionClock:
    """Host time of each arrival's own decision.

    A decision is the outermost plan call for the arrival plus its
    commit call, including any replans nested inside the commit; a plan
    call made while a commit is open is part of that commit and is not
    timed again.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.planned: Dict[str, float] = {}
        self.samples: List[float] = []
        self._committing = False

    def plan(self, fn: Callable[..., Any], key: Callable[[tuple], str]
             ) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self._committing:
                return fn(*args, **kwargs)
            started = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                job_id = key(args)
                self.planned[job_id] = (self.planned.get(job_id, 0.0)
                                        + self.clock() - started)
        return wrapper

    def commit(self, fn: Callable[..., Any], key: Callable[[tuple], str]
               ) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self._committing = True
            started = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - started
                self._committing = False
                self.samples.append(self.planned.pop(key(args), 0.0)
                                    + elapsed)
        return wrapper

    def decisions(self) -> List[float]:
        """Every decision, counting arrivals refused before any commit."""
        return self.samples + list(self.planned.values())


def _install_spans(patches: Patches, tracer: Tracer,
                   plan_by_job: Dict[str, float],
                   grades: Dict[str, List[float]]) -> None:
    from repro.perf import PERF

    def by_job(args: tuple, duration: float) -> None:
        job_id = args[1].job_id
        plan_by_job[job_id] = plan_by_job.get(job_id, 0.0) + duration

    for name, module, cls, attr in SPANS:
        on_close = by_job if name == "flow.plan" else None
        patches.wrap(_owner(module, cls), attr,
                     lambda fn, name=name, on_close=on_close:
                     span_wrapper(tracer, name, fn, on_close))

    def graded(fn: Callable[..., Any]) -> Callable[..., Any]:
        counters = PERF.counters

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            before = {c: counters.get(c, 0) for _, c in GRADE_COUNTERS}
            tracer.enter("plan_cache.read")
            try:
                return fn(*args, **kwargs)
            finally:
                duration = tracer.exit()
                entry = grades[grade_of(before, counters)]
                entry[0] += 1
                entry[1] += duration
        return wrapper

    for module in ("repro.flow.metascheduler", "repro.flow.sharding"):
        patches.wrap(_owner(module, None), "plan_with_cache", graded)


def _ledger(tracer: Tracer, counters: Dict[str, int],
            grades: Dict[str, List[float]], refused_share: float,
            deadline_share: float) -> Dict[str, float]:
    ledger: Dict[str, float] = {}
    for name in SPAN_NAMES:
        ledger[f"{name}.calls"] = tracer.calls.get(name, 0)
        ledger[f"{name}.self_s"] = tracer.self_s.get(name, 0.0)
    for grade in GRADES:
        calls, total = grades[grade]
        ledger[f"plan_cache.read.{grade}.calls"] = calls
        ledger[f"plan_cache.read.{grade}.total_s"] = total
    for name in COUNTERS:
        ledger[name] = counters.get(name, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    hits = counters.get("flow.plan_cache_hits", 0)
    repairs = counters.get("flow.plan_repairs", 0)
    misses = counters.get("flow.plan_cache_misses", 0)
    fit_hits = counters.get("dp.fit_cache_hits", 0)
    ledger["dp.fit_cache.hit_ratio"] = ratio(
        fit_hits, fit_hits + counters.get("dp.fit_cache_misses", 0))
    ledger["flow.plan_cache.reuse_rate"] = ratio(hits + repairs,
                                                 hits + repairs + misses)
    ledger["dp.prune_ratio"] = ratio(
        counters.get("dp.pruned", 0),
        counters.get("dp.pruned", 0) + counters.get("dp.expansions", 0))
    ledger["flow.commit.useful_ratio"] = ratio(
        tracer.calls.get("grid.commit_distribution", 0),
        tracer.calls.get("grid.can_commit", 0))
    ledger["flow.plan.refused_time_share"] = refused_share
    ledger["flow.deadline_met_share"] = deadline_share
    return ledger


def run_rep(name: str, seed: int, traced: bool, spawned: float
            ) -> Dict[str, Any]:
    """Build, run and check one repetition; see the module docstring."""
    from repro.perf import PERF

    workload = WORKLOADS[name]
    decisions = DecisionClock()
    committed: List[Any] = []
    tracer = Tracer()
    plan_by_job: Dict[str, float] = {}
    grades: Dict[str, List[float]] = {g: [0, 0.0] for g in GRADES}

    def capture(fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(grid: Any, distribution: Any) -> None:
            fn(grid, distribution)
            committed.append(distribution)
        return wrapper

    def wrap_factory(fn: Callable[..., Any]) -> Callable[..., Any]:
        return span_wrapper(tracer, "workload.job", fn) if traced else fn

    with Patches() as patches:
        if traced:
            _install_spans(patches, tracer, plan_by_job, grades)
        for (module, cls, attr, key), hook in zip(
                DECISION_HOOKS[workload.lane],
                (decisions.plan, decisions.commit)):
            patches.wrap(_owner(module, cls), attr,
                         lambda fn, hook=hook, key=key: hook(fn, key))
        patches.wrap(_owner("repro.grid.environment", "GridEnvironment"),
                     "commit_distribution", capture)
        simulation, factory = build(name, seed, wrap_factory)
        setup_s = time.perf_counter() - spawned
        blocks = probe_blocks()
        started = time.perf_counter()
        if traced:
            with PERF.collecting():
                outcomes = simulation.run()
            counters = dict(PERF.counters)
        else:
            outcomes = simulation.run()
        run_s = time.perf_counter() - started
        blocks += probe_blocks()

    samples = decisions.decisions()
    result = check_run(workload.lane, simulation, outcomes, committed,
                       arrival_times(workload.lane, simulation),
                       len(samples), factory)
    result.update(
        workload=name, seed=seed, traced=traced,
        setup_s=setup_s, run_s=run_s, host_factor=host_factor(blocks),
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        decisions_ms=[s * 1e3 for s in samples])
    if traced:
        refused = {o.job_id for o in outcomes if not o.committed}
        total = sum(plan_by_job.values())
        share = (sum(t for j, t in plan_by_job.items() if j in refused)
                 / total if total else 0.0)
        result["ledger"] = _ledger(
            tracer, counters, grades, share,
            result["met"] / result["met_of"] if result["met_of"] else 0.0)
    return result


def main(argv: List[str]) -> int:
    spec = json.loads(argv[1])
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}",
              file=sys.stderr)
        return 3
    try:
        result = run_rep(spec["workload"], spec["seed"], spec["traced"],
                         spec["spawned"])
    except Exception:  # the boundary: report the failure, don't hide it
        traceback.print_exc()
        result = {"workload": spec["workload"], "seed": spec["seed"],
                  "errors": ["run raised; traceback on stderr"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
