"""Performance instrumentation: exact counters and the pinned count gate.

The scheduling kernel reports into a process-global
:class:`~repro.perf.registry.PerfRegistry` (``PERF``) when it is
enabled; the hot paths guard every report behind ``PERF.enabled`` so
the disabled-by-default cost is a single attribute read.  ``repro
perf`` runs the pinned kernel workloads of :mod:`repro.perf.bench`
once each and reports every workload's exact counts next to its
params; ``--compare`` fails on any count that differs from the
committed ``benchmarks/BENCH_kernel.json``.  Nothing here times the
program — wall time is the repository benchmark's (``perfbench/``).
"""

from .bench import BENCH_SCHEMA_VERSION, compare_counts, run_kernel_bench
from .registry import PERF, PerfRegistry

__all__ = [
    "PERF",
    "PerfRegistry",
    "BENCH_SCHEMA_VERSION",
    "run_kernel_bench",
    "compare_counts",
]
