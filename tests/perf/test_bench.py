"""Tests for the pinned kernel benchmark and its count gate."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.perf import BENCH_SCHEMA_VERSION, compare_counts, run_kernel_bench
from repro.perf.bench import (BENCH_WORKLOADS, PLAN_CACHE_FLOORS,
                              check_plan_floors)

BASELINE = Path(__file__).parents[2] / "benchmarks" / "BENCH_kernel.json"


def load_baseline():
    return json.loads(BASELINE.read_text(encoding="utf-8"))


def make_report(**workloads):
    """A report whose workloads each hold ``(params, counters)``."""
    return {
        "benchmark": "kernel",
        "schema": BENCH_SCHEMA_VERSION,
        "workloads": {name: {"params": dict(params),
                             "counters": dict(counters)}
                      for name, (params, counters) in workloads.items()},
    }


def test_run_kernel_bench_report_shape():
    # sharded_jobs scales the pinned 10^5 sharded scenario down to
    # test size; everything else runs at its pinned configuration.
    report = run_kernel_bench(jobs=2, sharded_jobs=400)
    assert report["schema"] == BENCH_SCHEMA_VERSION
    assert set(report["workloads"]) == set(BENCH_WORKLOADS)
    for entry in report["workloads"].values():
        assert set(entry) == {"params", "counters"}
        assert entry["counters"]
        assert all(isinstance(count, int)
                   for count in entry["counters"].values())
    workloads = report["workloads"]
    assert workloads["online_sharded"]["params"]["shards"] == 4
    assert workloads["online_sharded"]["params"]["jobs"] == 400
    assert workloads["study_fig3a"]["params"] == {"jobs": 2, "seed": 2009}
    assert workloads["strategy_generation"]["counters"]["dp.expansions"] > 0
    assert workloads["calendar_ops"]["counters"]["calendar.conflicts"] == 2_000
    # The plan-reuse scenario must clear its own strict floor in-tree.
    large = report["context"]["online_large"]["flow.plan_cache"]
    assert large["reuse_rate"] >= PLAN_CACHE_FLOORS["online_large"]
    assert check_plan_floors(report) == []
    text = json.dumps(report, allow_nan=False)  # strict JSON as-is
    assert "seconds" not in text


def test_run_kernel_bench_workload_filter():
    report = run_kernel_bench(workloads=["calendar_ops"])
    assert set(report["workloads"]) == {"calendar_ops"}
    assert report["workloads"]["calendar_ops"]["counters"]
    with pytest.raises(ValueError, match="unknown workload"):
        run_kernel_bench(workloads=["calendar_ops", "nope"])


def test_run_kernel_bench_reports_gc_per_workload():
    report = run_kernel_bench(workloads=["calendar_ops",
                                         "critical_works_fig2"])
    assert set(report["gc"]) == {"calendar_ops", "critical_works_fig2"}
    for entry in report["gc"].values():
        assert set(entry["passes"]) == {"gen0", "gen1", "gen2"}
        assert all(isinstance(count, int) and count >= 0
                   for count in entry["passes"].values())
    # The Fig. 2 repetitions allocate enough to trigger young passes.
    assert report["gc"]["critical_works_fig2"]["passes"]["gen0"] > 0
    json.dumps(report)


def test_compare_counts_passes_equal_reports():
    report = make_report(a=({"seed": 1}, {"x": 3, "y": 0}),
                         b=({}, {"z": 7}))
    assert compare_counts(report, json.loads(json.dumps(report))) == []


def test_compare_counts_names_a_moved_count():
    baseline = make_report(a=({"seed": 1}, {"dp.expansions": 866_274,
                                            "calendar.is_free": 5}))
    current = make_report(a=({"seed": 1}, {"dp.expansions": 866_275,
                                           "calendar.is_free": 5}))
    assert compare_counts(baseline, current) == [
        "a: dp.expansions: baseline 866274, current 866275"]
    # Either direction is a difference: there is no tolerance band.
    assert compare_counts(current, baseline) == [
        "a: dp.expansions: baseline 866275, current 866274"]


def test_compare_counts_reports_missing_workload_and_counter():
    baseline = make_report(a=({}, {"kept": 1, "dropped": 2}))
    current = make_report(a=({}, {"kept": 1, "added": 4}),
                          brand_new=({}, {"kept": 1}))
    assert compare_counts(baseline, current) == [
        "a: added: baseline absent, current 4",
        "a: dropped: baseline 2, current absent",
        "brand_new: workload absent from the baseline",
    ]


def test_compare_counts_skips_baseline_workloads_that_did_not_run():
    baseline = make_report(a=({}, {"x": 1}), b=({}, {"x": 2}))
    assert compare_counts(baseline, make_report(a=({}, {"x": 1}))) == []


def test_compare_counts_refuses_param_and_schema_mismatch():
    baseline = make_report(a=({"seed": 1}, {"x": 1}))
    reseeded = make_report(a=({"seed": 2}, {"x": 1}))
    differences = compare_counts(baseline, reseeded)
    assert len(differences) == 1
    assert differences[0].startswith("a: params differ")
    other_schema = make_report(a=({"seed": 1}, {"x": 1}))
    other_schema["schema"] = BENCH_SCHEMA_VERSION + 1
    differences = compare_counts(baseline, other_schema)
    assert len(differences) == 1
    assert "schema mismatch" in differences[0]


def floor_report(rate, workload="online_large"):
    return {"context": {workload: {"flow.plan_cache": {"reuse_rate": rate}}}}


def test_check_plan_floors_flags_low_reuse():
    floor = PLAN_CACHE_FLOORS["online_large"]
    assert check_plan_floors(floor_report(floor)) == []
    failures = check_plan_floors(floor_report(floor - 0.01))
    assert len(failures) == 1
    assert "online_large" in failures[0] and "floor" in failures[0]


def test_check_plan_floors_skips_workloads_that_did_not_run():
    assert check_plan_floors({"context": {}}) == []
    assert check_plan_floors({}) == []
    # A non-floored workload's context never trips the gate.
    assert check_plan_floors(floor_report(0.0, workload="calendar_ops")) == []


def test_cli_strict_skips_floors_for_micro_workloads(capsys):
    """--strict on workloads without a plan cache exits clean: the
    floors gate only workloads that actually ran."""
    assert main(["perf", "--strict", "--workloads", "calendar_ops"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("option", ["--shards", "--jobs"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_cli_perf_rejects_non_positive_counts(option, value, capsys):
    """A shard or job count below 1 is a usage error, even when no
    workload that reads it was selected."""
    with pytest.raises(SystemExit) as exit_info:
        main(["perf", option, value, "--workloads", "calendar_ops"])
    assert exit_info.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--workloads", "--profile"])
def test_cli_perf_rejects_unknown_workload(option, capsys):
    """An unknown workload name is a usage error naming the choices,
    not a traceback from the benchmark runner."""
    with pytest.raises(SystemExit) as exit_info:
        main(["perf", option, "nope"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'nope'" in err
    assert "calendar_ops" in err


def test_committed_baseline_is_comparable():
    """The committed BENCH_kernel.json is schema-current, records every
    pinned workload's params and counts and no timing, and clears the
    plan-cache floors."""
    baseline = load_baseline()
    assert baseline["schema"] == BENCH_SCHEMA_VERSION
    assert compare_counts(baseline, baseline) == []
    assert set(baseline["workloads"]) == set(BENCH_WORKLOADS)
    for entry in baseline["workloads"].values():
        assert set(entry) == {"params", "counters"}
    for field in ("seconds", "reference", "speedup"):
        assert field not in json.dumps(baseline)
    # The unified context stats ride along in the committed report:
    # every context cache, with policy/entries/eviction structure.
    assert set(baseline["context"]) == {
        "critical_works_fig2", "strategy_generation", "online_sim",
        "online_large", "online_sharded"}
    online = baseline["context"]["online_sim"]
    assert online["flow.plan_cache"]["policy"] == "two-tier-lru"
    assert online["flow.plan_cache"]["hits"] >= 32  # PR 4 warm baseline
    assert online["flow.plan_cache"]["hit_rate"] > 0
    # The plan-reuse scenario clears its strict floor in the committed
    # report, with most reads served as exact hits.
    large = baseline["context"]["online_large"]["flow.plan_cache"]
    assert large["reuse_rate"] >= PLAN_CACHE_FLOORS["online_large"]
    reads = large["hits"] + large["repairs"] + large["misses"]
    assert large["hits"] > 0.5 * reads
    assert large["rebinds"] > 0  # template siblings rebind exact hits
    assert check_plan_floors(baseline) == []
    # The batch placement kernel ran in the recorded strategy workload.
    counters = baseline["workloads"]["strategy_generation"]["counters"]
    assert counters["placement.batch_queries"] > 0
    assert counters["placement.rows_per_batch"] > 0
    # The sharded scale scenario: 10^5 arrivals over four shards, with
    # the per-shard plan caches clearing the same strict reuse floor.
    sharded = baseline["workloads"]["online_sharded"]["params"]
    assert sharded["jobs"] >= 100_000
    assert sharded["shards"] == 4
    sharded_cache = baseline["context"]["online_sharded"]["flow.plan_cache"]
    assert sharded_cache["reuse_rate"] >= PLAN_CACHE_FLOORS["online_sharded"]


def test_pinned_workload_counts_match_committed_baseline():
    """The fast pinned workloads reproduce every committed count."""
    report = run_kernel_bench(workloads=["calendar_ops",
                                         "critical_works_fig2",
                                         "strategy_generation",
                                         "online_sim"])
    assert compare_counts(load_baseline(), report) == []


def test_cli_perf_smoke(tmp_path, capsys):
    """`repro perf` runs end to end, writes JSON, and gates its counts."""
    micro = ["--workloads", "calendar_ops", "critical_works_fig2"]
    out = tmp_path / "bench.json"
    assert main(["perf", "--json", str(out), *micro]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["schema"] == BENCH_SCHEMA_VERSION
    assert set(report["workloads"]) == {"calendar_ops",
                                        "critical_works_fig2"}
    capsys.readouterr()

    assert main(["perf", "--compare", str(out), *micro]) == 0
    assert "every count equals" in capsys.readouterr().out

    # One count moved by one fails the gate and is named, without
    # --strict.
    counters = report["workloads"]["calendar_ops"]["counters"]
    counters["calendar.earliest_fit"] += 1
    out.write_text(json.dumps(report), encoding="utf-8")
    assert main(["perf", "--compare", str(out), *micro]) == 1
    bumped = counters["calendar.earliest_fit"]
    assert (f"calendar_ops: calendar.earliest_fit: baseline {bumped}, "
            f"current {bumped - 1}") in capsys.readouterr().out
