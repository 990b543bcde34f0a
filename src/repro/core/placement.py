"""Batched placement queries over structure-of-arrays gap tables.

The DP kernel (:func:`repro.core.dp.allocate_chain`) asks one question
far more than any other: "where is the earliest free slot of this
duration on this node before this deadline?".  The scalar path answers
one ``(node, probe)`` pair at a time through
:meth:`~repro.core.calendar.ReservationCalendar.earliest_fit`; this
module answers the question for *every* candidate row of a task — and
every pending DP state — in one numpy sweep over the stacked
:class:`~repro.core.calendar.GapTable` arrays of the rows' calendars.

This module holds the pure, in-process array kernels only.  Caching
per-version gap tables and stacked arrays is the job of
:class:`repro.core.context.SchedulingContext` (``gap_table`` /
``cached_stack`` / ``stack_gap_tables``), which bounds them with
per-entry LRU eviction and reports them through ``context.stats()``.

Counters: ``placement.batch_queries`` (kernel invocations) and
``placement.rows_per_batch`` (total query rows — the batching factor
is their ratio); the cache hit/miss/eviction counters are emitted by
the context.

Slot values must stay far below :data:`~repro.core.calendar.GAP_HORIZON`
(``1 << 40``); the sentinel gap ends and the per-row key stride rely on
it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..perf import PERF
from .calendar import GapTable

__all__ = ["batch_earliest_fit", "table_earliest_fit", "StackedGaps"]

#: Offset separating consecutive rows' gap-end keys in one stacked
#: array, so a single global ``searchsorted`` resolves every row's
#: entry gap at once.  Must exceed the full gap-end value range
#: (``2 * GAP_HORIZON``).
_ROW_STRIDE = 1 << 42


class StackedGaps:
    """Gap tables of several calendars, concatenated for batch queries.

    ``keyed_end`` offsets each row's gap ends by ``row * _ROW_STRIDE``,
    making the concatenation globally sorted; one ``searchsorted`` with
    equally offset probes then finds every query's entry gap — the
    first gap of its row still open at the probe.  ``counts`` holds the
    per-row gap counts (for broadcasting per-row values over the
    concatenation)."""

    __slots__ = ("versions", "gap_start", "gap_end", "gap_len", "counts",
                 "keyed_end")

    def __init__(self, tables: Sequence[GapTable]):
        self.versions = tuple(table.version for table in tables)
        self.gap_start = np.concatenate(
            [table.gap_start for table in tables])
        self.gap_end = np.concatenate([table.gap_end for table in tables])
        self.gap_len = self.gap_end - self.gap_start
        self.counts = np.fromiter(
            (table.gap_start.shape[0] for table in tables),
            dtype=np.int64, count=len(tables))
        self.keyed_end = self.gap_end + np.repeat(
            np.arange(len(tables), dtype=np.int64) * _ROW_STRIDE,
            self.counts)


def batch_earliest_fit(stacked: StackedGaps, row_index: np.ndarray,
                       probes: np.ndarray, durations: np.ndarray,
                       deadlines: np.ndarray) -> np.ndarray:
    """Earliest fits for a batch of ``(row, probe)`` queries at once.

    ``row_index[q]`` selects the query's calendar among the stacked
    tables; ``durations``/``deadlines`` are per-*row* arrays (indexed
    by ``row_index``).  Returns per-query start slots (int64), ``-1``
    where no slot of the duration ends by the deadline — exactly the
    answers of scalar ``earliest_fit(duration, earliest=probe,
    deadline=deadline)`` on each row's calendar.

    Loop-free: one ``searchsorted`` finds every query's entry gap — the
    first gap of its row still open at the probe.  A query either fits
    there (clamped start ``max(gap_start, probe)``), or its answer is
    the first *later* gap of its row at least ``duration`` long: later
    gaps begin at or past the entry gap's end, hence past the probe, so
    the probe no longer clamps and plain gap length decides.  Those
    "first long-enough gap after" queries are answered by a second
    ``searchsorted`` over the (globally sorted) positions of long-enough
    gaps; each row's sentinel gap is unbounded, so the search never
    escapes the query's row.  The deadline check runs last — starts
    are monotone over a row's gaps, so a deadline miss at the found
    gap is a miss everywhere later.
    """
    queries = row_index.shape[0]
    out = np.full(queries, -1, dtype=np.int64)
    if queries == 0:
        return out
    if PERF.enabled:
        PERF.incr("placement.batch_queries")
        PERF.incr("placement.rows_per_batch", queries)
    duration = durations[row_index]
    deadline = deadlines[row_index]
    entry = np.searchsorted(stacked.keyed_end,
                            probes + row_index * _ROW_STRIDE, side="right")
    start = np.maximum(stacked.gap_start[entry], probes)
    overflow = start + duration > stacked.gap_end[entry]
    rest = np.nonzero(overflow)[0]
    if rest.size:
        long_enough = np.nonzero(
            stacked.gap_len >= np.repeat(durations, stacked.counts))[0]
        found = long_enough[np.searchsorted(long_enough, entry[rest] + 1)]
        start[rest] = stacked.gap_start[found]
    ok = start + duration <= deadline
    out[ok] = start[ok]
    return out


def table_earliest_fit(table: GapTable, duration: int, earliest: int = 0,
                       deadline: Optional[int] = None) -> Optional[int]:
    """Scalar-signature ``earliest_fit`` answered from a gap table.

    Mirrors :meth:`ReservationCalendar.earliest_fit` bit for bit —
    including the implied horizon when ``deadline`` is None — by
    running a one-query batch.  Exists for differential testing and
    one-off probes; hot paths should batch.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if deadline is None:
        deadline = max(earliest, table.last_end) + duration
    stacked = StackedGaps([table])
    start = batch_earliest_fit(
        stacked, np.zeros(1, dtype=np.int64),
        np.asarray([earliest], dtype=np.int64),
        np.asarray([duration], dtype=np.int64),
        np.asarray([deadline], dtype=np.int64))[0]
    return None if start < 0 else int(start)
