"""Metric definitions, aggregation over repetitions, and the result line."""

from __future__ import annotations

import math
from statistics import median
from typing import Any, Dict, List, NamedTuple, Sequence

__all__ = ["END_TO_END", "Percentile", "percentile", "end_to_end",
           "layer_unit", "result_line"]

#: Every end-to-end metric: unit and which direction is better.
END_TO_END: Dict[str, tuple] = {
    "jobs_per_s": ("1/s", "higher"),
    "decision_p50_ms": ("ms", "lower"),
    "decision_p95_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "admitted_share": ("ratio", "higher"),
    "cf_per_admitted": ("CF", "lower"),
}


class Percentile(NamedTuple):
    """A nearest-rank percentile with the samples that back it."""

    value: float
    samples: int
    #: Samples ranked strictly beyond the percentile.
    beyond: int


def percentile(samples: Sequence[float], q: float) -> Percentile:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"q must lie in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return Percentile(ordered[rank - 1], len(ordered), len(ordered) - rank)


def end_to_end(reps: Sequence[Dict[str, Any]]
               ) -> tuple[Dict[str, float], Dict[str, Percentile]]:
    """Pool untraced repetitions into the end-to-end metrics.

    Every host time is first scaled by its repetition's host factor
    (:mod:`hostspeed`).  Counts and host seconds are summed over
    repetitions, so every arrival weighs the same; decision samples are
    pooled before taking percentiles; set-up time and peak memory are
    per process, so they report the median process.  Also returns the
    percentiles, whose sample counts belong next to their values.
    """
    arrivals = sum(r["arrivals"] for r in reps)
    committed = sum(r["committed"] for r in reps)
    samples: List[float] = [s * r["host_factor"] for r in reps
                            for s in r["decisions_ms"]]
    p50, p95 = percentile(samples, 50), percentile(samples, 95)
    metrics = {
        "jobs_per_s": arrivals / sum(r["run_s"] * r["host_factor"]
                                     for r in reps),
        "decision_p50_ms": p50.value,
        "decision_p95_ms": p95.value,
        "setup_s": median([r["setup_s"] * r["host_factor"] for r in reps]),
        "peak_rss_mb": median([r["rss_mb"] for r in reps]),
        "admitted_share": committed / arrivals,
        "cf_per_admitted": (sum(r["cost_sum"] for r in reps) / committed
                            if committed else 0.0),
    }
    return metrics, {"decision_p50_ms": p50, "decision_p95_ms": p95}


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "rate", "share")):
        return "ratio"
    return "count"


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, float], units: Dict[str, str]
                ) -> Dict[str, Any]:
    """The final JSON object, in the shape the driver reads."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
