"""Run one benchmark workload and print its metrics as one JSON line.

From the repository root::

    python3 perfbench/run.py --workload unique_cold --seed 1 \\
        --seconds 35 --trace 0

``--trace 0`` runs the workload's repetitions untraced, each in a fresh
process on its own sub-seed, checks every run and prints the
end-to-end metrics.  ``--trace 1`` runs the first repetition twice,
untraced and traced, checks that both made the same decisions, and
prints the per-layer ledger.  One process at a time, no threads, no
worker pools.  See ``NOTES.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, end_to_end, layer_unit, result_line  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Host seconds after which no further child is waited for; keeps a run
#: well inside the 180 s a run may take.
RUN_BUDGET_S = 170.0


class ProgramMissing(RuntimeError):
    """The program under test is not importable from this checkout."""


def sub_seed(seed: int, rep: int) -> int:
    """The seed of repetition ``rep`` of a run seeded ``seed``."""
    return seed * 1000 + rep


def spawn(root: Path, workload: str, seed: int, traced: bool,
          deadline: float) -> Dict[str, Any]:
    """Run one repetition in a fresh process and return its report."""
    # A fixed string-hash seed gives every child the same dict layouts,
    # so identical inputs cost the same host time in every process.
    env = dict(os.environ, PYTHONHASHSEED="0")
    src = str(root / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    spec = {"workload": workload, "seed": seed, "traced": traced,
            "spawned": time.perf_counter()}
    child = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=root, env=env, stdout=subprocess.PIPE)
    try:
        out, _ = child.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        return {"seed": seed, "errors": ["timed out"]}
    if child.returncode == 3:
        raise ProgramMissing("the program could not be imported")
    lines = out.decode().strip().splitlines()
    if child.returncode != 0 or not lines:
        return {"seed": seed,
                "errors": [f"child exited {child.returncode}"]}
    return json.loads(lines[-1])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program at src/repro; run from the repository "
              "root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.perf_counter() + RUN_BUDGET_S
    if args.trace:
        plan = [(sub_seed(args.seed, 0), False), (sub_seed(args.seed, 0), True)]
    else:
        count = max(1, int(args.seconds // workload.rep_seconds))
        plan = [(sub_seed(args.seed, rep), False) for rep in range(count)]

    reps: List[Dict[str, Any]] = []
    errors: List[str] = []
    attempted = failed = 0
    for seed, traced in plan:
        try:
            rep = spawn(root, workload.name, seed, traced, deadline)
        except ProgramMissing as missing:
            print(f"perfbench: {missing}", file=sys.stderr)
            return 3
        arrivals = max(1, int(rep.get("arrivals", 1)))
        attempted += arrivals
        if rep["errors"]:
            failed += arrivals
            errors.extend(f"seed {seed}: {e}" for e in rep["errors"])
            continue
        reps.append(rep)
        print(f"rep seed={seed} traced={int(traced)} "
              f"arrivals={rep['arrivals']} committed={rep['committed']} "
              f"run_s={rep['run_s']:.3f} setup_s={rep['setup_s']:.3f} "
              f"host_factor={rep['host_factor']:.3f} "
              f"digest={rep['digest'][:16]}")

    untraced = [r for r in reps if not r["traced"]]
    metrics: Dict[str, float] = {}
    units: Dict[str, str] = {}
    if args.trace and len(reps) == 2:
        plain, traced_rep = reps
        if plain["digest"] != traced_rep["digest"]:
            errors.append("traced run decided differently from untraced run")
        metrics = dict(traced_rep["ledger"])
        metrics["trace.overhead_jobs_per_s"] = (
            plain["arrivals"] / (plain["run_s"] * plain["host_factor"])
            - traced_rep["arrivals"]
            / (traced_rep["run_s"] * traced_rep["host_factor"]))
        if not workload.regime(metrics):
            errors.append(f"regime guard failed: {workload.regime_text}")
        units = {name: layer_unit(name) for name in metrics}
    elif not args.trace and untraced:
        metrics, percentiles = end_to_end(untraced)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        raw = (sum(r["arrivals"] for r in untraced)
               / sum(r["run_s"] for r in untraced))
        print(f"unscaled jobs_per_s={raw:.4f}")
        for name, p in percentiles.items():
            print(f"{name}={p.value:.4f} samples={p.samples} "
                  f"beyond={p.beyond}")
    for error in errors:
        print(f"FAILED {error}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name}={value:.6g} {units[name]}")
    print(json.dumps(result_line(not errors and bool(metrics), attempted,
                                 failed, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
