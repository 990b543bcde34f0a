"""A lightweight counter registry for the scheduling kernel.

Hot paths report with the pattern::

    from ..perf import PERF
    ...
    if PERF.enabled:
        PERF.incr("calendar.conflicts")

so the disabled cost is one attribute read and one branch.  The
registry is process-global and *not* thread-safe by design: the
parallel study runner fans out over processes, and each process owns
its own registry.

Counter names reported by the kernel
------------------------------------

``calendar.conflicts``
    Overlap queries answered by :meth:`ReservationCalendar.conflicts`.
``calendar.is_free``
    Boolean availability probes (O(log n) fast path).
``calendar.earliest_fit``
    Lazy first-fit searches over free windows.
``calendar.cow_copies``
    What-if snapshots taken via copy-on-write (O(1) each).
``calendar.materializations``
    Snapshots that were actually written to and paid the list copy.
``dp.expansions``
    DP state expansions actually performed.  The paper's
    strategy-generation expense metric (``evaluations``) counts the
    same events; warm-started runs perform — and therefore report —
    fewer of them while returning bit-identical schedules.
``dp.pruned``
    Candidate transitions discarded by warm-start branch-and-bound
    bounds (work the cold path would have expanded).
``dp.incumbents_warm`` / ``dp.incumbents_cold``
    Warm-start hints that re-fit as a feasible incumbent vs. hints
    that no longer fit the current level/calendars (the run is then
    cold).  Deliberately *not* a ``*_hits``/``*_misses`` pair: the
    incumbent machinery is not a cache, and the pair suffix is
    reserved for caches owned by the
    :class:`~repro.core.context.SchedulingContext`.
``dp.greedy_incumbents``
    Hint recoveries: the warm-start hint no longer re-fit as a whole,
    but the hint-preferring greedy descent left it where it had to and
    still produced a feasible incumbent to prune with (a subset of
    ``dp.incumbents_warm``).
``dp.transfer_cache_hits`` / ``dp.transfer_cache_misses``
    Per-``(transfer, src, dst)`` transfer-time memoization — the
    context's per-(job, transfer model) lag memo.
``dp.fit_cache_hits`` / ``dp.fit_cache_misses``
    The context's version-keyed ``earliest_fit`` memo shared across DP
    calls; a hit means the node's calendar is provably unchanged since
    the answer was computed.
``dp.fit_cache_evictions``
    Single entries dropped by the fit cache's LRU bound (was a
    wholesale-clear count before the context refactor).
``dp.duration_cache_hits`` / ``dp.duration_cache_misses``
    Lookups of the context's per-pool row table
    (:meth:`~repro.core.context.SchedulingContext.row_table`), one per
    (task, level) of a DP call: a hit reads the task's durations (and,
    for priced models, its prices) for every node of the pool from
    lists already built; a miss builds them in one vectorized sweep.
``dp.warm_fallbacks``
    Warm runs that fell back to a cold pass (defensive; expected 0).
``dp.transfer_matrix_builds``
    Per-(job, model, pool) transfer-lag matrices precomputed for the
    batch engine (replacing per-edge transfer-time calls).
``placement.batch_queries`` / ``placement.rows_per_batch``
    Batched gap-table placement-kernel invocations and the total query
    rows they answered; the ratio is the batching factor.
``placement.gap_table_hits`` / ``placement.gap_table_misses``
    The context's version-keyed gap-table cache (a miss derives the
    table from the reservation list — the former
    ``placement.gap_rebuilds``); ``placement.gap_table_evictions``
    counts LRU drops.
``placement.stack_hits`` / ``placement.stack_misses``
    The context's stacked-array cache, keyed on version tuples (a miss
    concatenates — the former ``placement.stack_builds``);
    ``placement.stack_evictions`` counts LRU drops.
``flow.plan_cache_hits`` / ``flow.plan_cache_misses``
    Metascheduler strategy reuse through the context's two-tier plan
    cache, keyed semantically: skeletons by (job shape, family, domain)
    and concrete variants by (structural hash, release, epoch slice).
    A hit serves an identically structured plan against provably
    unchanged calendars; a miss generates cold.
    ``flow.plan_cache_evictions`` counts LRU drops on either tier.
``flow.plan_rebinds``
    Exact plan-cache hits served to a job other than the one the cached
    strategy was generated for (a template sibling with the same
    structural hash), counted at read time.  The strategy is served by
    reference and re-addressed to the job only when the flow layer
    commits it.  Always a subset of ``flow.plan_cache_hits``.
``flow.plan_repairs``
    Warm repairs — the middle outcome between a hit and a miss: a
    same-structure variant exists but its release or epochs drifted,
    so its per-level assignments seed a warm-started regeneration that
    re-searches only what no longer fits (bit-identical to a cold
    replan).  The plan-cache *reuse rate* the strict perf gate floors
    is (hits + repairs) / (hits + repairs + misses).
``flow.plan_coarse_hits`` / ``flow.plan_coarse_misses``
    The plan cache's coarse seed tier, consulted only on cold misses
    (no exact variant, no same-structure repair seed): a hit found a
    prior strategy for the same (family, domain, pool signature) —
    regardless of job shape — whose assignments warm-start the
    regeneration; a miss means generation ran fully cold.  The
    all-unique-jobs fallback: seeds only hint the warm start, so
    outcomes stay bit-identical either way.
``critical_works.rank_cache_hits`` / ``..._misses``
    Reuse of the context's per-(job, model, pool, level) critical-works
    ranking.
``job.paths_cache_hits`` / ``job.paths_cache_misses``
    Reuse of the context's per-job source→sink path enumeration.
``platform.store_served`` / ``platform.store_absent`` /
``platform.store_corrupt``
    Content-addressed result-store reads (``repro.platform.store``):
    verified records served without recomputation, keys with no record
    on disk, and records that existed but failed digest/key
    verification (treated as absent and recomputed).  Deliberately
    *not* a ``*_hits``/``*_misses`` pair — the store is a cross-run
    on-disk cache keyed by config content, not a
    :class:`~repro.core.context.SchedulingContext` cache, and the pair
    suffix is reserved for those.

Every ``*_hits``/``*_misses`` pair above is emitted by exactly one
cache owned by the :class:`~repro.core.context.SchedulingContext`
(see ``CONTEXT_CACHE_NAMES``); ``tests/perf/test_counter_audit.py``
enforces the invariant so orphaned pairs cannot accumulate.

The registry keeps counts only.  Wall time is measured from outside
the program by the repository benchmark (``perfbench/``), so no clock
is read on the kernel's paths.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = ["PerfRegistry", "PERF"]


class PerfRegistry:
    """Process-global performance counters."""

    __slots__ = ("enabled", "counters")

    def __init__(self) -> None:
        #: Hot paths check this flag before reporting; keep it cheap.
        self.enabled: bool = False
        self.counters: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def enable(self) -> None:
        """Start collecting (does not clear previous numbers)."""
        self.enabled = True

    def disable(self) -> None:
        """Stop collecting; accumulated numbers stay readable."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every counter."""
        self.counters.clear()

    @contextmanager
    def collecting(self, reset: bool = True) -> Iterator["PerfRegistry"]:
        """Enable within a block, restoring the previous state after."""
        was_enabled = self.enabled
        if reset:
            self.reset()
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = was_enabled

    # ------------------------------------------------------------------
    # Reporting (call sites guard on ``enabled``)
    # ------------------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at zero)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, int]]:
        """A JSON-ready copy of the current counts."""
        return {"counters": dict(sorted(self.counters.items()))}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "on" if self.enabled else "off"
        return f"<PerfRegistry {state}: {len(self.counters)} counters>"


#: The process-global registry the kernel reports into.
PERF = PerfRegistry()
