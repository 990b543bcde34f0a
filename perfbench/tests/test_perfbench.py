"""Small-scale tests of the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import child
import spans
from checks import check_run
from hostspeed import REFERENCE_BLOCK_S, host_factor
from metrics import END_TO_END, end_to_end, layer_unit, percentile, result_line
from spans import GRADES, Patches, Tracer, grade_of, span_wrapper
from workloads import WORKLOADS, arrival_times

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def fake_clock(*ticks: float):
    """A clock returning ``ticks`` in order, one per call."""
    values = iter(ticks)
    return lambda: next(values)


# ----------------------------------------------------------------------
# Percentiles carry their sample counts
# ----------------------------------------------------------------------

def test_percentile_reports_samples_beyond():
    samples = [float(v) for v in range(200, 0, -1)]
    p95 = percentile(samples, 95)
    assert p95 == (190.0, 200, 10)
    assert percentile(samples, 50) == (100.0, 200, 100)
    assert percentile(samples, 100) == (200.0, 200, 0)


def test_percentile_of_one_sample_and_of_none():
    assert percentile([3.5], 95) == (3.5, 1, 0)
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


# ----------------------------------------------------------------------
# Span self time: duration minus what child spans cover
# ----------------------------------------------------------------------

def test_self_time_with_nested_and_sibling_spans():
    # a [0, 10) holds b [1, 3) and c [4, 8); c holds d [5, 6).
    tracer = Tracer(clock=fake_clock(0, 1, 3, 4, 5, 6, 8, 10))
    tracer.enter("a")
    tracer.enter("b")
    assert tracer.exit() == 2
    tracer.enter("c")
    tracer.enter("d")
    tracer.exit()
    assert tracer.exit() == 4
    assert tracer.exit() == 10 == sum(tracer.self_s.values())
    assert tracer.self_s == {"a": 4, "b": 2, "c": 3, "d": 1}


def test_repeated_span_accumulates_calls_and_closes_on_raise():
    # A span left open by the first raise would nest the second call.
    tracer = Tracer(clock=fake_clock(0, 1, 2, 5))

    def boom():
        raise KeyError("x")

    wrapped = span_wrapper(tracer, "s", boom)
    for _ in range(2):
        with pytest.raises(KeyError):
            wrapped()
    assert tracer.calls == {"s": 2}
    assert tracer.self_s == {"s": 4}


def test_patches_restore_class_and_module_attributes():
    class Owner:
        def method(self):
            return "original"

    with Patches() as patches:
        patches.wrap(Owner, "method", lambda fn: lambda self: "wrapped")
        patches.wrap(spans, "grade_of", lambda fn: None)
        assert Owner().method() == "wrapped"
        assert spans.grade_of is None
    assert Owner().method() == "original"
    assert spans.grade_of is grade_of
    with pytest.raises(KeyError):
        Patches().wrap(Owner, "missing", lambda fn: fn)


# ----------------------------------------------------------------------
# Plan-cache grades from counter deltas
# ----------------------------------------------------------------------

@pytest.mark.parametrize("moved, grade", [
    (("flow.plan_cache_hits", "flow.plan_rebinds"), "hit"),
    (("flow.plan_repairs",), "repair"),
    (("flow.plan_cache_misses", "flow.plan_coarse_hits"), "coarse"),
    (("flow.plan_cache_misses", "flow.plan_coarse_misses"), "cold"),
])
def test_grade_from_counter_deltas(moved, grade):
    before = {"flow.plan_cache_hits": 7, "flow.plan_repairs": 3}
    after = dict(before)
    for name in moved:
        after[name] = after.get(name, 0) + 1
    assert grade_of(before, after) == grade
    assert grade in GRADES


def test_decision_clock_counts_nested_plans_once():
    clock = child.DecisionClock(
        clock=fake_clock(0, 2, 10, 15, 20, 21))

    class Job:
        def __init__(self, job_id):
            self.job_id = job_id

    plan = clock.plan(lambda self, job: None, lambda args: args[1].job_id)
    commit = clock.commit(lambda self, job: plan(None, job),
                          lambda args: args[1].job_id)
    plan(None, Job("a"))            # [0, 2): 2
    commit(None, Job("a"))          # [10, 15) holding a nested replan
    plan(None, Job("b"))            # [20, 21): refused before any commit
    assert clock.decisions() == [2 + 5, 1]


# ----------------------------------------------------------------------
# Metric names, units and the result line match BENCHMARK.json
# ----------------------------------------------------------------------

def _rep(**overrides):
    rep = {"arrivals": 4, "committed": 2, "run_s": 2.0, "setup_s": 0.5,
           "host_factor": 1.0,
           "rss_mb": 80.0, "decisions_ms": [1.0, 2.0, 3.0, 4.0],
           "cost_sum": 10.0}
    rep.update(overrides)
    return rep


def test_end_to_end_pools_repetitions():
    metrics, percentiles = end_to_end(
        [_rep(), _rep(run_s=6.0, setup_s=0.7, committed=0, cost_sum=0.0)])
    assert metrics["jobs_per_s"] == 8 / 8.0
    assert metrics["admitted_share"] == 2 / 8
    assert metrics["cf_per_admitted"] == 5.0
    assert metrics["setup_s"] == pytest.approx(0.6)
    assert percentiles["decision_p95_ms"].samples == 8


def test_end_to_end_scales_host_times_by_host_factor():
    # Twice as slow a host, twice the raw host times: the same figures.
    fast, _ = end_to_end([_rep()])
    slow, _ = end_to_end([_rep(run_s=4.0, setup_s=1.0, host_factor=0.5,
                               decisions_ms=[2.0, 4.0, 6.0, 8.0])])
    assert slow == fast
    assert host_factor([REFERENCE_BLOCK_S * 2] * 3) == 0.5


def test_end_to_end_metrics_match_benchmark_json():
    metrics, _ = end_to_end([_rep()])
    declared = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    assert list(metrics) == list(declared)
    for name, (unit, better) in END_TO_END.items():
        assert declared[name]["unit"] == unit
        assert declared[name]["better"] == better


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}


def test_per_layer_metrics_match_benchmark_json():
    grades = {grade: [0, 0.0] for grade in GRADES}
    ledger = child._ledger(Tracer(), {}, grades, 0.0, 0.0)
    ledger["trace.overhead_jobs_per_s"] = 0.0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: layer_unit(name) for name in ledger} == declared


def test_result_line_shape():
    line = result_line(True, 3, 0, {"setup_s": 0.25}, {"setup_s": "s"})
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert line["metrics"] == {"setup_s": {"value": 0.25, "unit": "s"}}
    assert json.loads(json.dumps(line)) == line


# ----------------------------------------------------------------------
# The correctness check passes a real run and fails a tampered one
# ----------------------------------------------------------------------

def _small_online_run():
    from repro.flow.simulation import OnlineConfig, OnlineSimulation
    from repro.sim.rng import RandomStreams
    from repro.workload.generator import generate_pool

    committed = []
    with Patches() as patches:
        patches.wrap(child._owner("repro.grid.environment", "GridEnvironment"),
                     "commit_distribution",
                     lambda fn: lambda grid, d: (fn(grid, d),
                                                 committed.append(d)))
        simulation = OnlineSimulation(
            generate_pool(RandomStreams(3).stream("pool")), seed=3,
            config=OnlineConfig(horizon=60, mean_interarrival=6.0,
                                busy_fraction=0.3, plan_latency=4,
                                conflict_retries=1))
        outcomes = simulation.run()
    return simulation, outcomes, committed, arrival_times("online", simulation)


def test_check_run_accepts_a_real_run_and_rejects_tampering():
    simulation, outcomes, committed, times = _small_online_run()
    assert committed, "the small run should commit something"
    result = check_run("online", simulation, outcomes, committed, times,
                       len(times), None)
    assert result["errors"] == []
    assert result["arrivals"] == len(outcomes) == len(times)

    # A booking no committed distribution explains.
    placement = next(iter(committed[0]))
    calendar = simulation.grid.calendars[placement.node_id]
    calendar.reserve(10_000, 10_001, tag=f"{committed[0].job_id}:extra")
    result = check_run("online", simulation, outcomes, committed, times,
                       len(times), None)
    assert any("live job bookings" in e for e in result["errors"])

    # An arrival whose outcome went missing, and a decision not timed.
    result = check_run("online", simulation, outcomes[1:], committed, times,
                       len(times) - 1, None)
    assert result["missing"] == 1
    assert any("timed decisions" in e for e in result["errors"])
