"""Tests for the pinned kernel benchmark and its comparison helpers."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.perf import (
    BENCH_SCHEMA_VERSION,
    compare_reports,
    format_comparison,
    measure_speedup,
    run_kernel_bench,
)
from repro.perf.bench import PLAN_CACHE_FLOORS, check_plan_floors


def make_report(**seconds):
    return {
        "benchmark": "kernel",
        "schema": BENCH_SCHEMA_VERSION,
        "workloads": {name: {"seconds": value}
                      for name, value in seconds.items()},
    }


def test_run_kernel_bench_report_shape():
    # sharded_jobs scales the pinned 10^5 sharded scenario down to
    # test size; everything else runs at its pinned configuration.
    report = run_kernel_bench(jobs=2, repeats=1, sharded_jobs=400)
    assert report["schema"] == BENCH_SCHEMA_VERSION
    assert set(report["workloads"]) == {
        "study_fig3a", "critical_works_fig2", "calendar_ops",
        "strategy_generation", "online_sim", "online_large",
        "online_sharded"}
    for entry in report["workloads"].values():
        assert entry["seconds"] > 0
    sharded = report["workloads"]["online_sharded"]
    assert sharded["shards"] == 4
    assert sharded["baseline_shards1_seconds"] > 0
    assert sharded["speedup_vs_shards1"] > 0
    assert report["counters"]["dp.expansions"] > 0
    assert report["timers"]["strategy.generate"] > 0
    # Derived cache stats ride along for every hits/misses counter pair.
    assert report["caches"]["dp.fit_cache"]["hits"] > 0
    assert 0.0 <= report["caches"]["dp.fit_cache"]["hit_rate"] <= 1.0
    assert "flow.plan_cache" in report["caches"]
    # The plan-reuse scenario must clear its own strict floor in-tree.
    large = report["context"]["online_large"]["flow.plan_cache"]
    assert large["reuse_rate"] >= PLAN_CACHE_FLOORS["online_large"]
    assert check_plan_floors(report) == []
    json.dumps(report)  # must be JSON-serializable as-is


def test_run_kernel_bench_workload_filter():
    report = run_kernel_bench(repeats=1, workloads=["calendar_ops"])
    assert set(report["workloads"]) == {"calendar_ops"}
    assert "caches" in report
    with pytest.raises(ValueError, match="unknown workload"):
        run_kernel_bench(repeats=1, workloads=["calendar_ops", "nope"])


def test_run_kernel_bench_reports_gc_per_workload():
    report = run_kernel_bench(repeats=1, workloads=["calendar_ops",
                                                    "critical_works_fig2"])
    assert set(report["gc"]) == {"calendar_ops", "critical_works_fig2"}
    for entry in report["gc"].values():
        assert set(entry["passes"]) == {"gen0", "gen1", "gen2"}
        assert all(isinstance(count, int) and count >= 0
                   for count in entry["passes"].values())
        assert entry["seconds"] >= 0.0
    # The Fig. 2 repetitions allocate enough to trigger young passes.
    assert report["gc"]["critical_works_fig2"]["passes"]["gen0"] > 0
    json.dumps(report)


def test_compare_reports_flags_only_regressions():
    baseline = make_report(a=1.0, b=1.0, c=1.0)
    current = make_report(a=1.5, b=1.1, c=0.5)
    rows = {row["workload"]: row
            for row in compare_reports(baseline, current, threshold=0.30)}
    assert rows["a"]["regressed"] is True
    assert rows["b"]["regressed"] is False  # within the 30% tolerance
    assert rows["c"]["regressed"] is False
    assert rows["c"]["ratio"] == 0.5


def test_compare_reports_skips_unmatched_and_checks_schema():
    baseline = make_report(a=1.0)
    current = make_report(a=1.0, brand_new=9.9)
    assert len(compare_reports(baseline, current)) == 1
    baseline["schema"] = BENCH_SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="schema mismatch"):
        compare_reports(baseline, current)


def test_format_comparison_mentions_regressions():
    baseline = make_report(a=1.0, b=1.0)
    rows = compare_reports(baseline, make_report(a=2.0, b=0.9))
    text = format_comparison(rows)
    assert "REGRESSED" in text and "warning" in text
    clean = compare_reports(baseline, make_report(a=1.0, b=0.9))
    assert "within" in format_comparison(clean)


def test_measure_speedup_geometric_mean():
    baseline = make_report(a=4.0, b=1.0)
    current = make_report(a=1.0, b=1.0)
    assert measure_speedup(baseline, current) == pytest.approx(2.0)
    assert measure_speedup(make_report(), make_report()) is None


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
    assert main(["perf", "--repeats", "1", "--strict",
                 "--workloads", "calendar_ops"]) == 0
    capsys.readouterr()


def test_committed_baseline_is_comparable():
    """The committed BENCH_kernel.json stays loadable and schema-current."""
    path = Path(__file__).parents[2] / "benchmarks" / "BENCH_kernel.json"
    baseline = json.loads(path.read_text(encoding="utf-8"))
    assert baseline["schema"] == BENCH_SCHEMA_VERSION
    rows = compare_reports(baseline, baseline)
    assert len(rows) == 7
    assert not any(row["regressed"] for row in rows)
    assert baseline["geometric_mean_speedup_vs_reference"] > 1.0
    # The online flow scenarios must stay recorded at a >= 1.5x
    # geometric-mean speedup over the pre-plan-reuse reference (commit
    # 012a1a3, same machine, paired alternating runs): the semantic
    # plan keys turn the template-skewed flash crowd from per-arrival
    # replanning into cache service.
    reference = baseline["reference"]["workloads"]
    product = 1.0
    for name in ("online_sim", "online_large"):
        product *= (reference[name]["seconds"]
                    / baseline["workloads"][name]["seconds"])
    assert product ** 0.5 >= 1.5
    assert baseline["caches"]["dp.fit_cache"]["hits"] > 0
    # The unified context stats ride along in the committed report:
    # every context cache, with policy/entries/eviction structure.
    assert set(baseline["context"]) == {
        "critical_works_fig2", "strategy_generation", "online_sim",
        "online_large", "online_sharded"}
    online = baseline["context"]["online_sim"]
    assert online["flow.plan_cache"]["policy"] == "two-tier-lru"
    assert online["flow.plan_cache"]["hits"] >= 32  # PR 4 warm baseline
    # The plan-reuse scenario clears its strict floor in the committed
    # report, with most reads served as exact hits.
    large = baseline["context"]["online_large"]["flow.plan_cache"]
    assert large["reuse_rate"] >= PLAN_CACHE_FLOORS["online_large"]
    reads = large["hits"] + large["repairs"] + large["misses"]
    assert large["hits"] > 0.5 * reads
    assert large["rebinds"] > 0  # template siblings rebind exact hits
    assert check_plan_floors(baseline) == []
    # The batch placement kernel ran and the plan cache is alive in the
    # recorded online scenario.
    assert baseline["counters"]["placement.batch_queries"] > 0
    assert baseline["counters"]["placement.rows_per_batch"] > 0
    assert baseline["caches"]["flow.plan_cache"]["hit_rate"] > 0
    # The sharded scale scenario: 10^5 arrivals, recorded at >= 2x over
    # its own shards=1 reference (the semantic speedup of planning each
    # job against its shard's domains only), with the per-shard plan
    # caches clearing the same strict reuse floor.
    sharded = baseline["workloads"]["online_sharded"]
    assert sharded["jobs"] >= 100_000
    assert sharded["shards"] == 4
    assert sharded["speedup_vs_shards1"] >= 2.0
    sharded_cache = baseline["context"]["online_sharded"]["flow.plan_cache"]
    assert sharded_cache["reuse_rate"] >= PLAN_CACHE_FLOORS["online_sharded"]


def test_cli_perf_smoke(tmp_path, capsys):
    """`repro perf` runs end to end, writes JSON, and compares."""
    micro = ["--workloads", "calendar_ops", "critical_works_fig2"]
    out = tmp_path / "bench.json"
    assert main(["perf", "--jobs", "2", "--repeats", "1",
                 "--json", str(out), *micro]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["schema"] == BENCH_SCHEMA_VERSION
    assert set(report["workloads"]) == {"calendar_ops",
                                        "critical_works_fig2"}
    assert "caches" in report
    capsys.readouterr()

    assert main(["perf", "--jobs", "2", "--repeats", "1",
                 "--compare", str(out), "--threshold", "1000",
                 *micro]) == 0
    assert "workload" in capsys.readouterr().out

    # Strict mode turns a regression into a non-zero exit.
    shrunk = dict(report)
    shrunk["workloads"] = {
        name: {**entry, "seconds": entry["seconds"] / 1000}
        for name, entry in report["workloads"].items()}
    out.write_text(json.dumps(shrunk), encoding="utf-8")
    assert main(["perf", "--jobs", "2", "--repeats", "1",
                 "--compare", str(out), "--strict", *micro]) == 1
    assert "REGRESSED" in capsys.readouterr().out
