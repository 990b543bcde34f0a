"""Dynamic-programming allocation of one critical work (task chain).

Section 2 of the paper: "The strategy is built by using methods of
dynamic programming in a way that allows optimizing scheduling and
resource allocation for a set of tasks comprising the compound job."

Given a chain of tasks that must run sequentially, the DP chooses, for
every task, a processor node and a start slot so that

* each task fits a free window of its node's reservation calendar;
* precedence holds, including data-transfer lags between the chosen
  nodes and constraints from already-placed neighbour tasks;
* the whole chain finishes by the job's fixed completion time;

while minimizing total cost (the paper's ``CF``), with earliest finish
as the tie-breaker.  The state is ``(chain position, data-ready time,
previous node)``; for a fixed node choice the earliest feasible start
dominates all later ones (it can only enlarge downstream feasibility),
so each transition considers one start per node.

One call prepares one :class:`ChainProblem` (candidate rows, bounds,
prices, warm incumbent) and hands it to one of two solvers, picked from
the input alone: the recursion (:func:`solve_scalar`) or the
level-synchronous array sweep (:func:`solve_batch`).  Both return
bit-identical allocations.  Row durations and prices are not derived
per call: they are read by pool position from the context's
per-(task, level) row table, which the estimation levels, replans and
template siblings of one job structure share.

Incremental generation (two orthogonal mechanisms, both exact):

* the ``context`` fit cache — a shared memo of ``earliest_fit``
  answers keyed on the owning calendar's content *version* (see
  :attr:`~repro.core.calendar.ReservationCalendar.version`), owned by
  the caller's :class:`~repro.core.context.SchedulingContext`.  Each
  ``(node, version, duration, deadline)`` bucket holds *interval
  witnesses*: one computed fit at ``e1`` answering ``s1`` covers every
  query in ``[e1, s1]``, and one failure covers every query at or past
  its probe — both consequences of ``earliest_fit``'s monotonicity in
  ``earliest``.  A bucket is one flat list: its first half holds the
  sorted probe keys (``earliest`` values), its second half their
  answers in the same order (``None``: no fit from that key on) — one
  GC-tracked object per bucket, which matters because a full cache is
  most of the live heap the cyclic GC walks.  Entries
  written by earlier calls — previous estimation levels, previous
  arrivals — stay valid exactly as long as the node is untouched, so
  invalidation is O(nodes touched): a mutated node simply stops
  matching its old keys.

* ``hint`` — a warm start: the adjacent estimation level's allocation,
  re-evaluated on the current calendars to obtain a feasible
  *incumbent*, which then drives branch-and-bound pruning of dominated
  partial chains.  Pruning is strict (``lower bound > incumbent``) with
  admissible bounds, and memo entries track whether they are exact or
  merely bound proofs, so the returned placements, cost, finish, and
  feasibility are **bit-identical** to the cold path — only the number
  of state expansions (``evaluations`` / the ``dp.expansions`` counter)
  shrinks.  For the ``"cost"`` objective pruning additionally requires
  a start-time-invariant cost model (``time_invariant`` attribute, true
  for every built-in model); otherwise the hint is ignored and the run
  is simply cold.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from ..perf import PERF
from . import placement as _placement
from .calendar import ReservationCalendar
from .context import SchedulingContext
from .costs import CostModel, VolumeOverTimeCost
from .job import DataTransfer, Job
from .resources import ProcessorNode, ResourcePool
from .schedule import Placement
from .transfers import NeutralTransferModel, TransferModel

__all__ = ["ChainAllocation", "ChainProblem", "allocate_chain",
           "materialize_gap_tables", "solve_batch", "solve_scalar"]

_INFINITY = float("inf")

#: Sort key of a candidate row by its (start-invariant) price.
_PRICE = itemgetter(7)

#: Shortest chain routed to the batch solver.  A single-task chain
#: touches each candidate row exactly once — array setup costs more
#: than the loop it replaces.
_BATCH_MIN_CHAIN = 2

#: Widest candidate row set required before a chain is batched.  Small
#: pools (e.g. per-domain subpools of a metascheduler) spawn so few
#: states per level that the scalar recursion beats the fixed
#: per-level cost of the array ops; measured crossover on the bench
#: scenarios sits around a dozen rows.  The same width gates the
#: gap-table prebuild (:func:`materialize_gap_tables`).
_BATCH_MIN_ROWS = 12

#: Stride packing a DP state ``(pool position, data-ready slot)`` into
#: one int64 key for deduplication; must exceed every slot value (see
#: :data:`repro.core.calendar.GAP_HORIZON`).
_STATE_STRIDE = 1 << 41

#: Shared empty columns for degenerate batch positions (no states or
#: no candidate rows); read-only by convention.
_EMPTY_I = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=np.float64)


@dataclass
class ChainAllocation:
    """Optimal placements for one chain, with bookkeeping."""

    placements: list[Placement]
    cost: float
    finish: int
    #: Number of DP state expansions actually performed — the strategy
    #: generation expense metric (S1 vs MS1 comparison in Section 4).
    #: Warm-started runs perform (and report) fewer expansions while
    #: returning bit-identical placements.  Cold counts agree between
    #: the solvers; warm counts do not (the batch sweep prunes on a
    #: forward prefix-cost bound, the recursion on its running
    #: allowance).  The batch solver runs only on pools of 12 or more
    #: rows — seed-2009 ``repro perf strategy_generation`` (26 nodes)
    #: counts 56,410 batched against 54,948 scalar over 90 strategies,
    #: same schedules; the paper studies' 8-node subsets always count
    #: the scalar solver's.
    evaluations: int


class ChainProblem:
    """One chain allocation, validated and prepared once for either solver.

    Parameters are those of :func:`allocate_chain`.  Per chain position
    it holds the candidate *rows*, one per node that can host the task
    at all: ``[node, node_id, calendar, version, duration, floor,
    ceiling, row_cost, fits]`` — the calendar and its content version
    (the DP never mutates calendars), the task's duration there, the
    external start floor and end ceiling (release, deadline, placed
    neighbours), the start-invariant price, and the row's
    interval-witness bucket of the shared fit cache (node, version,
    duration and ceiling are its key), attached on first touch.
    Durations and prices are read from the context's per-pool row table
    (:meth:`~repro.core.context.SchedulingContext.row_table`), so the
    levels, replans and template siblings of one job structure size and
    price each (task, level) once per pool; models without a
    ``price_key`` or a ``task_cost_array`` leave the price slot None
    and are priced on first touch, uncached across calls.  It
    also holds the per-edge transfer constants and, for hinted calls,
    the warm incumbent: ``pruning``, its value ``allowance``, and
    ``tail_lb[i]``, an admissible lower bound on the primary criterion
    of ``chain[i:]``.  Solvers only fill the rows' lazy slots.
    """

    def __init__(self, job: Job, chain: Sequence[str], pool: ResourcePool,
                 calendars: Mapping[int, ReservationCalendar],
                 deadline: int,
                 level: float = 0.0,
                 transfer_model: Optional[TransferModel] = None,
                 cost_model: Optional[CostModel] = None,
                 fixed: Optional[Mapping[str, Placement]] = None,
                 release: int = 0,
                 allowed_nodes: Optional[set[int]] = None,
                 objective: str = "cost",
                 hint: Optional[Mapping[str, int]] = None,
                 context: Optional[SchedulingContext] = None):
        if objective not in ("cost", "time"):
            raise ValueError(f"unknown objective {objective!r}")
        fixed = fixed or {}
        #: The transfer edge into each chain position (None at 0).
        self.incoming: list[Optional[DataTransfer]] = [None] * len(chain)
        for position in range(1, len(chain)):
            earlier, later = chain[position - 1], chain[position]
            incoming = job.transfer_between(earlier, later)
            if incoming is None:
                raise ValueError(
                    f"chain edge ({earlier!r}, {later!r}) is not in job "
                    f"{job.job_id!r}")
            self.incoming[position] = incoming
        for task_id in chain:
            if task_id in fixed:
                raise ValueError(f"chain task {task_id!r} is already placed")
        # Pool positions of the allowed nodes: the row table's lists are
        # indexed by pool position, so a subset reads the same lists.
        positions: Sequence[int] = range(len(pool))
        if allowed_nodes is not None:
            positions = [position
                         for position, node_id in enumerate(pool.node_ids())
                         if node_id in allowed_nodes]
        #: A non-empty chain with no allowed node is never solved.
        self.infeasible = bool(chain) and not positions
        self.job, self.chain, self.pool = job, chain, pool
        self.release, self.context = release, context
        self.transfer_model = transfer_model = (transfer_model
                                                or NeutralTransferModel())
        self.cost_model = cost_model = cost_model or VolumeOverTimeCost()
        #: Candidate rank is (cost, finish) or (finish, cost); the
        #: comparison is branch-specialized in the solvers.
        self.cost_mode = objective == "cost"
        #: Start-time-invariant pricing (true for every built-in model)
        #: makes per-(task, node) costs constants — the soundness
        #: requirement for cost-objective lower bounds, the batch
        #: solver's precondition, and an opportunity to price rows once
        #: instead of once per expansion.
        self.invariant_cost = bool(getattr(cost_model, "time_invariant",
                                           False))

        # Every cache lives in the caller's context, scoped wide enough
        # to be exact: lags per (job, transfer model), durations and
        # prices per (job, pool), lag matrices per (job, model, pool) — the
        # batch solver indexes them by pool position, and fetches them
        # only when it builds one (:meth:`lag_matrix`).  Without a
        # context the call runs cacheless: a private lag dict (the DP
        # asks for the same lag once per state expansion), no fit memo,
        # no batched tables, a row table private to the call.
        if context is not None:
            self.fit_cache = context.fit_cache
            self.transfer_cache = context.transfer_lags(job, transfer_model)
        else:
            self.fit_cache = None
            # lint: context-cache (private lag memo of a contextless call)
            self.transfer_cache = {}

        # Start-invariant models declaring a ``price_key`` and a
        # vectorized ``task_cost_array`` price whole rows in the row
        # table, once per (task, level, price key) and pool; every other
        # model prices rows lazily, one ``task_cost`` call each (None).
        self.price_key = (getattr(cost_model, "price_key", None)
                          if self.invariant_cost
                          and hasattr(cost_model, "task_cost_array")
                          else None)

        self.tasks = [job.task(task_id) for task_id in chain]
        # Per-position constants, hoisted so each state expansion
        # touches lists instead of re-querying the job graph.  Uniform-
        # lag models collapse each edge's lag to one constant (zero
        # co-located): the solvers then compare node ids instead of
        # consulting the transfer cache at all.
        uniform_lag_fn = getattr(transfer_model, "uniform_lag", None)
        self.uniform: list[Optional[int]] = [None] * len(chain)
        if uniform_lag_fn is not None:
            for position, incoming in enumerate(self.incoming):
                if incoming is not None:
                    self.uniform[position] = uniform_lag_fn(incoming)

        self.rows = self._candidate_rows(calendars, positions, deadline,
                                         level, fixed, uniform_lag_fn)
        self.pruning = False
        self.allowance = _INFINITY
        self.tail_lb: list[float] = []
        # Single-task chains cannot profit: the cold DP touches each row
        # exactly once, which is no more work than building the
        # incumbent and the lower bounds would be.
        if (hint is not None and len(chain) > 1 and not self.infeasible
                and (self.invariant_cost or not self.cost_mode)):
            self._warm_start(hint)

    # ------------------------------------------------------------------
    # Preparation
    # ------------------------------------------------------------------

    def _candidate_rows(self, calendars: Mapping[int, ReservationCalendar],
                        positions: Sequence[int],
                        deadline: int, level: float,
                        fixed: Mapping[str, Placement],
                        uniform_lag_fn: Optional[Callable[[DataTransfer],
                                                          int]]
                        ) -> list[list[list]]:
        """Candidate rows per chain position (see the class docstring).

        Durations and prices come from the context's row table
        (:meth:`~repro.core.context.SchedulingContext.row_table`): one
        list per (task, level) — and per price key — in pool order,
        built in one vectorized sweep on first use and read by pool
        position after that.  ``duration_array`` and ``task_cost_array``
        run the same float ops as ``duration_on`` and ``task_cost``, so
        table values equal the scalar ones exactly.  Without a context
        the table is private to the call.

        The external bounds (earliest start from already-placed
        predecessors, latest end from the deadline and placed
        successors) depend only on (task, node), so they are computed
        here once instead of in the DP inner loop.  Nodes that can never
        host a task (``floor + duration > ceiling`` regardless of the
        data-ready time: the DP start bound is never below the external
        floor) get no row.
        """
        job, pool, release = self.job, self.pool, self.release
        context = self.context
        table = context.row_table(job, pool) if context is not None else {}
        count_lookups = context is not None and PERF.enabled
        price_key = self.price_key
        price_array = getattr(self.cost_model, "task_cost_array", None)
        performances = None
        # Per-node columns, zipped in the row loop so that no per-node
        # tuple is built.
        nodes: Sequence[ProcessorNode] = pool.nodes
        node_ids: Sequence[int] = pool.node_ids()
        if len(positions) < len(pool):
            nodes = [nodes[position] for position in positions]
            node_ids = [node.node_id for node in nodes]
        node_calendars = [calendars[node_id] for node_id in node_ids]
        versions = [calendar.version for calendar in node_calendars]
        transfer_time = self.transfer_time
        unpriced: list[Optional[float]] = [None] * len(pool)
        candidates = []
        for task_id, job_task in zip(self.chain, self.tasks):
            durations = table.get((task_id, level))
            swept = None
            if durations is None:
                if count_lookups:
                    PERF.incr("dp.duration_cache_misses")
                if performances is None:
                    performances = np.fromiter(
                        (node.performance for node in pool),
                        dtype=np.float64, count=len(pool))
                swept = job_task.duration_array(performances, level)
                durations = table[(task_id, level)] = swept.tolist()
            elif count_lookups:
                PERF.incr("dp.duration_cache_hits")
            prices: Optional[list[Optional[float]]] = None
            if price_key is not None:
                prices = table.get((task_id, level, price_key))
                if prices is None and price_array is not None:
                    if swept is None:
                        swept = np.array(durations, dtype=np.int64)
                    prices = table[(task_id, level, price_key)] = (
                        price_array(job_task, swept, pool.nodes).tolist())

            placed_preds = []
            for pred in job.predecessors(task_id):
                placed = fixed.get(pred)
                if placed is None:
                    continue
                transfer = job.transfer_between(pred, task_id)
                if transfer is None:  # pragma: no cover - preds have edges
                    continue
                placed_preds.append(
                    (placed.end, transfer, pool.node(placed.node_id)))
            placed_succs = []
            for succ in job.successors(task_id):
                placed = fixed.get(succ)
                if placed is None:
                    continue
                transfer = job.transfer_between(task_id, succ)
                if transfer is None:  # pragma: no cover - succs have edges
                    continue
                placed_succs.append(
                    (placed.start, transfer, pool.node(placed.node_id)))

            # External bounds: one (floor, ceiling) pair every node
            # shares, and exact pairs for the nodes where it differs.
            # Uniform-lag models (every built-in policy) make the bounds
            # node-independent except on the placed neighbours' own
            # nodes, where that neighbour's lag drops to zero — so only
            # those few nodes need their own pair, and no per-node
            # transfer lookup runs.  Other models get an exact pair for
            # every node, through the transfer-lag memo.
            shared = (release, deadline)
            exact: dict[int, tuple[int, int]] = {}
            if uniform_lag_fn is None:
                for node, node_id in zip(nodes, node_ids):
                    floor, ceiling = release, deadline
                    for end, transfer, src in placed_preds:
                        bound = end + transfer_time(transfer, src, node)
                        if bound > floor:
                            floor = bound
                    for start, transfer, dst in placed_succs:
                        bound = start - transfer_time(transfer, node, dst)
                        if bound < ceiling:
                            ceiling = bound
                    exact[node_id] = (floor, ceiling)
            elif placed_preds or placed_succs:
                floor, ceiling = release, deadline
                pred_lags = []
                for end, transfer, src in placed_preds:
                    lag = uniform_lag_fn(transfer)
                    if end + lag > floor:
                        floor = end + lag
                    pred_lags.append((end, lag, src.node_id))
                succ_lags = []
                for start, transfer, dst in placed_succs:
                    lag = uniform_lag_fn(transfer)
                    if start - lag < ceiling:
                        ceiling = start - lag
                    succ_lags.append((start, lag, dst.node_id))
                shared = (floor, ceiling)
                for _, _, node_id in pred_lags + succ_lags:
                    floor, ceiling = release, deadline
                    for end, lag, src_id in pred_lags:
                        bound = end if src_id == node_id else end + lag
                        if bound > floor:
                            floor = bound
                    for start, lag, dst_id in succ_lags:
                        bound = start if dst_id == node_id else start - lag
                        if bound < ceiling:
                            ceiling = bound
                    exact[node_id] = (floor, ceiling)

            if prices is None:
                prices = unpriced
            rows = []
            for position, node, node_id, calendar, version in zip(
                    positions, nodes, node_ids, node_calendars, versions):
                floor, ceiling = exact.get(node_id, shared)
                duration = durations[position]
                if floor + duration > ceiling:
                    continue
                rows.append([node, node_id, calendar, version, duration,
                             floor, ceiling, prices[position], None])
            # An empty row set is kept (not short-circuited) so the DP
            # explores — and counts — exactly the states it always did.
            candidates.append(rows)
        return candidates

    def _warm_start(self, hint: Mapping[str, int]) -> None:
        """Re-fit the hint into an incumbent and the tail lower bounds.

        Partial chains whose admissible lower bound is *strictly* worse
        than the incumbent are then pruned.  ``tail_lb[i]`` bounds the
        primary criterion of ``chain[i:]`` from below (per-task minimum
        over candidate rows; transfer lags, being non-negative, are
        soundly dropped).
        """
        cost_mode = self.cost_mode
        incumbent, left_hint = self.greedy_incumbent(hint)
        if incumbent is None and cost_mode:
            # Cheapest-first can paint itself past a tight ceiling; an
            # earliest-finish descent maximizes slack and often still
            # completes the chain.
            incumbent, left_hint = self.greedy_incumbent(hint,
                                                         by_finish=True)
        if incumbent is None:
            if PERF.enabled:
                PERF.incr("dp.incumbents_cold")
            return
        if PERF.enabled:
            if left_hint:
                PERF.incr("dp.greedy_incumbents")
            PERF.incr("dp.incumbents_warm")
        self.pruning = True
        self.allowance = incumbent
        tail_lb = [0.0] * (len(self.chain) + 1)
        for position in range(len(self.chain) - 1, -1, -1):
            rows = self.rows[position]
            if cost_mode:
                step = min((row[7] for row in self.priced_rows(position)),
                           default=_INFINITY)
            else:
                step = min((row[4] for row in rows), default=_INFINITY)
            tail_lb[position] = step + tail_lb[position + 1]
        self.tail_lb = tail_lb

    def greedy_incumbent(self, hint: Mapping[str, int],
                         by_finish: bool = False
                         ) -> tuple[Optional[float], bool]:
        """Primary value of a hint-preferring greedy descent.

        Each step first re-tries the task's own hinted row — tasks
        whose nodes kept their slots keep their assignment, so only the
        drifted remainder is re-chosen — and otherwise takes the
        cheapest (cost mode) or earliest-finishing (time mode) feasible
        row.  A hint that still fits as a whole is thus re-evaluated
        as-is.  This is what makes plan repair incremental: a stale plan
        with one stolen slot re-derives an incumbent that differs from
        the hint in exactly the patched tasks.  ``by_finish`` forces the
        earliest-finish choice even in cost mode — a second descent for
        deadline-tight chains where cheapest-first painted itself past
        the ceiling; the returned value is still that chain's exact
        cost, so it remains a sound upper bound.  No backtracking — a
        dead end returns None and the run is simply cold.  Incumbents
        only prune (exact bounds), so the returned allocation is
        bit-identical to a cold run's.

        Returns ``(value or None, left_hint)``; ``left_hint`` is True
        when some step could not take its hinted row.
        """
        cost_mode = self.cost_mode
        prev_node: Optional[ProcessorNode] = None
        ready = self.release
        total_cost = 0.0
        left_hint = False
        for index, rows in enumerate(self.rows):
            if cost_mode:
                rows = self.priced_rows(index)
            hinted = hint.get(self.chain[index])
            row, end = self._fit_step([r for r in rows if r[1] == hinted],
                                      index, prev_node, ready, False)
            if row is None:
                left_hint = True
                if cost_mode and not by_finish:
                    # Start-invariant prices: cheapest-first order,
                    # first feasible row wins the step.
                    rows = sorted(rows, key=_PRICE)
                row, end = self._fit_step(rows, index, prev_node, ready,
                                          not cost_mode or by_finish)
                if row is None:
                    return None, True
            if cost_mode:
                total_cost += row[7]
            prev_node = row[0]
            ready = end
        return (total_cost if cost_mode else float(ready)), left_hint

    def _fit_step(self, rows: list, index: int,
                  prev_node: Optional[ProcessorNode], ready: int,
                  earliest_finish: bool) -> tuple[Optional[list], int]:
        """The first row of ``rows`` that fits chain position ``index``
        after ``prev_node`` (the earliest-ending one with
        ``earliest_finish``), and its end slot."""
        incoming = self.incoming[index]
        chosen_row = None
        chosen_end = 0
        for row in rows:
            duration, floor, ceiling = row[4], row[5], row[6]
            if incoming is None or prev_node is None:
                start_bound = ready
            else:
                start_bound = ready + self.transfer_time(incoming, prev_node,
                                                         row[0])
            if floor > start_bound:
                start_bound = floor
            if start_bound + duration > ceiling:
                continue
            start = self.find_fit(row, start_bound)
            if start is None:
                continue
            end = start + duration
            if not earliest_finish:
                return row, end
            if chosen_row is None or end < chosen_end:
                chosen_row, chosen_end = row, end
        return chosen_row, chosen_end

    # ------------------------------------------------------------------
    # Row queries shared by the preparation and the solvers
    # ------------------------------------------------------------------

    def transfer_time(self, transfer: DataTransfer, src_node: ProcessorNode,
                      dst_node: ProcessorNode) -> int:
        """The transfer's lag between two nodes, through the lag memo."""
        key = (transfer.transfer_id, src_node.node_id, dst_node.node_id)
        lag = self.transfer_cache.get(key)
        if lag is None:
            if PERF.enabled:
                PERF.incr("dp.transfer_cache_misses")
            lag = self.transfer_model.time(transfer, src_node, dst_node)
            self.transfer_cache[key] = lag
        elif PERF.enabled:
            PERF.incr("dp.transfer_cache_hits")
        return lag

    def find_fit(self, row: list, earliest: int) -> Optional[int]:
        """``earliest_fit`` through the row's interval-witness memo.

        Witnesses exploit the monotone structure of ``earliest_fit``
        for a fixed (calendar version, duration, deadline): an answer
        ``(e1, s1)`` also answers every query in ``[e1, s1]`` with
        ``s1`` (no earlier slot exists past ``e1``, and ``s1`` still
        fits), and a failed probe at ``e1`` proves failure for every
        query at or past ``e1`` (shrinking the search window never
        creates slots).  One computed fit therefore covers a whole
        interval of ``earliest`` values — exact, never heuristic.

        The bucket ``fits`` is one list of even length ``2n``:
        ``fits[:n]`` are the sorted probe keys, ``fits[n:]`` their
        answers (``None``: no fit from that key on).  A lookup bisects
        the first half only; an insert writes the answer first, then
        the key, so both halves stay aligned.  An empty bucket is falsy
        — a missing one is told apart with ``is None`` only.
        :func:`solve_scalar` inlines the same lookup.
        """
        fits = row[8]
        if fits is None:
            if self.fit_cache is None:
                return row[2].earliest_fit(row[4], earliest=earliest,
                                           deadline=row[6])
            calendar_version = row[3]
            fit_key = (row[1], calendar_version, row[4], row[6])
            fits = self.fit_cache.get(fit_key)
            if fits is None:
                fits = []
                self.fit_cache[fit_key] = fits
            row[8] = fits
        half = len(fits) >> 1
        position = bisect_right(fits, earliest, 0, half) - 1
        if position >= 0:
            cached = fits[half + position]
            if cached is None or earliest <= cached:
                if PERF.enabled:
                    PERF.incr("dp.fit_cache_hits")
                return cached
        if PERF.enabled:
            PERF.incr("dp.fit_cache_misses")
        start = row[2].earliest_fit(row[4], earliest=earliest,
                                    deadline=row[6])
        fits.insert(half + position + 1, start)
        fits.insert(position + 1, earliest)
        return start

    def price_row(self, index: int, row: list) -> float:
        """The row's (start-invariant) cost, cached on the row.

        Only rows of models the row table does not price reach here.
        """
        task = self.tasks[index]
        row[7] = row_cost = self.cost_model.task_cost(
            task, Placement(task.task_id, row[1], row[5], row[5] + row[4]),
            row[0])
        return row_cost

    def priced_rows(self, index: int) -> list:
        """The rows of one chain position, every one priced.

        Table-priced rows arrive priced; the rest are priced here.
        """
        rows = self.rows[index]
        if self.price_key is None:
            for row in rows:
                if row[7] is None:
                    self.price_row(index, row)
        return rows

    def lag_matrix(self, transfer: DataTransfer) -> np.ndarray:
        """The transfer's (pool src × pool dst) lag matrix, memoized in
        the context so the batch solver pays one build per (job, model,
        pool, edge) instead of per call.  The memo is looked up here,
        not at preparation: most calls never batch."""
        matrices = (self.context.transfer_matrices(
            self.job, self.transfer_model, self.pool)
            if self.context is not None else None)
        matrix = (matrices.get(transfer.transfer_id)
                  if matrices is not None else None)
        if matrix is not None:
            return matrix
        pool_nodes = list(self.pool)
        size = len(pool_nodes)
        matrix = np.empty((size, size), dtype=np.int64)
        for src_at, src in enumerate(pool_nodes):
            for dst_at, dst in enumerate(pool_nodes):
                matrix[src_at, dst_at] = self.transfer_model.time(
                    transfer, src, dst)
        if PERF.enabled:
            PERF.incr("dp.transfer_matrix_builds")
        if matrices is not None:
            matrices[transfer.transfer_id] = matrix
        return matrix

    def stacked_tables(self) -> Optional[list]:
        """Stacked gap tables per chain position, or None.

        None when there is no context or any candidate calendar has no
        materialized gap table — exactly the freshly mutated what-if
        copies the scalar solver exists for; tables are never built
        here.  Positions with no candidate rows stack as None (the batch
        solver never queries them).
        """
        context = self.context
        if context is None:
            return None
        stacks: list = []
        for rows in self.rows:
            if not rows:
                stacks.append(None)
                continue
            # The rows carry their calendar versions (row[3]), so a
            # cached stack is found without touching the per-calendar
            # tables — the stacked arrays are self-contained copies.
            stacked = context.cached_stack(tuple(row[3] for row in rows))
            if stacked is None:
                tables = []
                for row in rows:
                    table = context.gap_table(row[2], build=False)
                    if table is None:
                        return None
                    tables.append(table)
                stacked = context.stack_gap_tables(tables)
            stacks.append(stacked)
        return stacks

    # ------------------------------------------------------------------

    def solve(self, solver: Callable[..., tuple[Optional[ChainAllocation],
                                                int]],
              *args: object) -> Optional[ChainAllocation]:
        """Run ``solver`` (pruned when warm), rerunning cold on None.

        The incumbent proved a feasible solution exists, so None from a
        pruned run would mean the bounds misfired; the cold rerun keeps
        the answer exact.  ``evaluations`` counts both runs.
        """
        allocation, spent = solver(self, self.pruning, *args)
        if allocation is None and self.pruning:
            if PERF.enabled:  # pragma: no cover - defensive
                PERF.incr("dp.warm_fallbacks")
            allocation, extra = solver(self, False, *args)
            spent += extra
        if allocation is not None:
            allocation.evaluations = spent
        return allocation


def allocate_chain(job: Job, chain: Sequence[str], pool: ResourcePool,
                   calendars: Mapping[int, ReservationCalendar],
                   deadline: int,
                   level: float = 0.0,
                   transfer_model: Optional[TransferModel] = None,
                   cost_model: Optional[CostModel] = None,
                   fixed: Optional[Mapping[str, Placement]] = None,
                   release: int = 0,
                   allowed_nodes: Optional[set[int]] = None,
                   objective: str = "cost",
                   hint: Optional[Mapping[str, int]] = None,
                   context: Optional[SchedulingContext] = None,
                   ) -> Optional[ChainAllocation]:
    """Allocate every task of ``chain`` or return None if infeasible.

    Parameters
    ----------
    job:
        The compound job the chain belongs to.
    chain:
        Task ids in precedence order; consecutive tasks must be joined
        by a transfer edge of the job.
    pool, calendars:
        Candidate nodes and their availability; tasks are *not* booked
        here — the caller owns calendar mutation.
    deadline:
        Absolute completion bound for every task of the chain.
    level:
        Estimation level in [0, 1] (0 = best case, 1 = worst case).
    transfer_model:
        Data-policy timing model (default: neutral).
    cost_model:
        Placement pricing (default: the paper's CF term).
    fixed:
        Placements of already-assigned tasks; they impose release times
        (placed predecessors) and latest-end bounds (placed successors)
        on chain tasks.
    release:
        Earliest slot any chain task may start (the job's arrival).
    allowed_nodes:
        Optional whitelist of node ids (used by flow-level policies and
        the S3 family's resource monopolization).
    objective:
        ``"cost"`` minimizes total CF with earliest finish as the
        tie-break (the economic strategies S1/MS1/S3); ``"time"``
        minimizes finish time with cost as the tie-break (the paper's
        "fastest, most expensive, most accurate" S2 family).
    hint:
        Optional warm start: a ``task id -> node id`` mapping (e.g. the
        adjacent estimation level's allocation) used to seed an
        incumbent for branch-and-bound pruning.  Results are identical
        to ``hint=None``; only the expansion count drops.
    context:
        The caller's :class:`~repro.core.context.SchedulingContext`,
        which owns every cache this function consults: the
        interval-witness fit cache, the per-(job, model) transfer-lag
        memo, the per-(job, pool) row table of durations and prices,
        the per-(job, model, pool) lag matrices of the batch solver,
        and the gap-table/stack caches.  All exact, so sharing a
        context across calls, levels, and jobs never changes results —
        only speed.  ``None`` runs the call cacheless (and scalar: no
        materialized gap tables exist to batch over).

        .. versionchanged:: PR 5
           replaces the removed ``fit_cache`` / ``transfer_cache`` /
           ``duration_cache`` / ``transfer_matrices`` keyword
           arguments; construct a context instead of threading dicts.

    The batch solver takes start-invariant-cost chains of two or more
    tasks with at least a dozen candidate rows at some position, once
    every candidate calendar has a gap table
    (:func:`materialize_gap_tables`); the rest — notably the mutated
    what-if copies of collision repair — takes the recursion.
    """
    problem = ChainProblem(job, chain, pool, calendars, deadline, level,
                           transfer_model, cost_model, fixed, release,
                           allowed_nodes, objective, hint, context)
    if problem.infeasible:
        return None
    stacks = None
    if (problem.invariant_cost and len(chain) >= _BATCH_MIN_CHAIN
            and max(len(rows) for rows in problem.rows) >= _BATCH_MIN_ROWS):
        stacks = problem.stacked_tables()
    if stacks is None:
        return problem.solve(solve_scalar)
    return problem.solve(solve_batch, stacks)


def materialize_gap_tables(calendars: Mapping[int, ReservationCalendar],
                           context: SchedulingContext) -> None:
    """Build (or reuse, by version) gap tables for a snapshot wide
    enough to pass the batch solver's row gate; narrower ones (the
    domain pools of online flows) always take the scalar path."""
    if len(calendars) >= _BATCH_MIN_ROWS:
        for calendar in calendars.values():
            context.gap_table(calendar)


def solve_scalar(problem: ChainProblem, pruning: bool
                 ) -> tuple[Optional[ChainAllocation], int]:
    """Memoized recursion over states ``(position, previous node,
    data-ready slot)``, one state at a time.

    Returns ``(allocation or None, evaluations)``; ``pruning`` prunes
    against the problem's warm incumbent.
    """
    # The recursion reads everything through locals (closure cells).
    chain, rows_at, tail_lb = problem.chain, problem.rows, problem.tail_lb
    incoming_by_index, uniform_by_index = problem.incoming, problem.uniform
    cost_mode, invariant_cost = problem.cost_mode, problem.invariant_cost
    cost_model, transfer_model = problem.cost_model, problem.transfer_model
    transfer_cache, fit_cache = problem.transfer_cache, problem.fit_cache
    lag_cache_get = transfer_cache.get
    price_row, pool = problem.price_row, problem.pool
    chain_length = len(chain)
    evaluations = 0
    # memo[(index, prev_node_id, ready)] ->
    #   (cost, finish, chosen node, start, end, next state key,
    #    exact, allowance the entry was computed under)
    # Exact entries equal the cold DP's value for the state.  Inexact
    # entries are bound proofs: the state's true primary criterion
    # exceeds the recorded allowance (they are reused to prune when the
    # caller's allowance is no larger, and recomputed otherwise).
    # Placements are only materialized during reconstruction — the DP
    # itself works on plain ints.
    memo: dict[tuple[int, Optional[int], int], tuple] = {}

    # ``best_from`` reaches itself through its own closure cell — a
    # reference cycle that would keep the rows, memo and problem alive
    # until a cyclic GC pass.  The ``finally`` below empties that cell,
    # so reference counting frees everything at return.
    def best_from(index: int, prev_node_id: Optional[int], ready: int,
                  allowance: float) -> tuple[float, int, bool]:
        """Min (cost, finish, exact) for chain[index:], data-ready at
        ``ready``, exploring only solutions with primary ≤ allowance."""
        nonlocal evaluations
        if index == chain_length:
            return 0.0, ready, True
        key = (index, prev_node_id, ready)
        entry = memo.get(key)
        if entry is not None:
            if entry[6]:
                return entry[0], entry[1], True
            if allowance <= entry[7]:
                # Proven: true primary > entry[7] >= allowance.
                return entry[0], entry[1], False
            # Stale bound proof — recompute under the larger allowance.
        evaluations += 1
        if PERF.enabled:
            PERF.incr("dp.expansions")

        task_id = chain[index]
        incoming = incoming_by_index[index]
        no_incoming = incoming is None or prev_node_id is None
        uniform = None if no_incoming else uniform_by_index[index]
        # The previous node object is only needed to price an uncached
        # transfer lag — resolved lazily on the first cache miss.
        prev_node: Optional[ProcessorNode] = None
        next_lb = tail_lb[index + 1] if pruning else 0.0
        perf_on = PERF.enabled

        complete = True
        best_cost = best_finish = _INFINITY
        best_node = best_start = best_end = None
        for row in rows_at[index]:
            (node, node_id, calendar, version, duration, floor, end_bound,
             row_cost, fits) = row
            if no_incoming:
                start_bound = ready
            elif uniform is not None:
                # Uniform-lag model: free co-located, one constant
                # across nodes — no cache, no model call.
                start_bound = (ready if prev_node_id == node_id
                               else ready + uniform)
            else:
                # Inlined transfer_time: this is the hottest lookup in
                # the kernel, worth skipping the call overhead for.
                lag_key = (incoming.transfer_id, prev_node_id, node_id)
                lag = lag_cache_get(lag_key)
                if lag is None:
                    if perf_on:
                        PERF.incr("dp.transfer_cache_misses")
                    if prev_node is None:
                        prev_node = pool.node(prev_node_id)
                    lag = transfer_model.time(incoming, prev_node, node)
                    transfer_cache[lag_key] = lag
                elif perf_on:
                    PERF.incr("dp.transfer_cache_hits")
                start_bound = ready + lag
            if floor > start_bound:
                start_bound = floor
            if start_bound + duration > end_bound:
                continue
            if pruning:
                bound = (row_cost + next_lb if cost_mode
                         else start_bound + duration + next_lb)
                if bound > allowance:
                    # Admissible lower bound strictly beats the
                    # incumbent-backed allowance: no solution through
                    # this candidate can match the optimum.
                    complete = False
                    if perf_on:
                        PERF.incr("dp.pruned")
                    continue
            # Inlined ChainProblem.find_fit: the fit query dominates the
            # inner loop, so the interval-witness lookup avoids a call.
            # Buckets attach lazily on the row's first query — rows the
            # DP never reaches stay bucket-free.
            if fits is None and fit_cache is not None:
                fit_key = (node_id, version, duration, end_bound)
                fits = fit_cache.get(fit_key)
                if fits is None:
                    fits = []
                    fit_cache[fit_key] = fits
                row[8] = fits
            if fits is None:
                # lint: scalar-fallback (no fit cache: bare query)
                start = calendar.earliest_fit(
                    duration, earliest=start_bound, deadline=end_bound)
            else:
                half = len(fits) >> 1
                position = bisect_right(fits, start_bound, 0, half) - 1
                if position >= 0 and (
                        (cached := fits[half + position]) is None
                        or start_bound <= cached):
                    start = cached
                    if perf_on:
                        PERF.incr("dp.fit_cache_hits")
                else:
                    if perf_on:
                        PERF.incr("dp.fit_cache_misses")
                    # lint: scalar-fallback (witness miss; answer cached)
                    start = calendar.earliest_fit(
                        duration, earliest=start_bound, deadline=end_bound)
                    fits.insert(half + position + 1, start)
                    fits.insert(position + 1, start_bound)
            if start is None:
                continue
            end = start + duration
            if row_cost is not None:
                own_cost = row_cost
            elif invariant_cost:
                own_cost = price_row(index, row)
            else:
                own_cost = cost_model.task_cost(
                    problem.tasks[index],
                    Placement(task_id, node_id, start, end), node)
            child_allowance = (allowance - own_cost if cost_mode
                               else allowance)
            tail_cost, tail_finish, tail_exact = best_from(
                index + 1, node_id, end, child_allowance)
            if tail_cost == _INFINITY:
                if not tail_exact:
                    complete = False
                continue
            candidate_cost = own_cost + tail_cost
            candidate_finish = tail_finish if tail_finish > end else end
            if pruning:
                primary = candidate_cost if cost_mode else candidate_finish
                if primary > allowance:
                    complete = False
                    if perf_on:
                        PERF.incr("dp.pruned")
                    continue
            # Strict rank comparison, branch-specialized per objective:
            # the first candidate achieving the best rank wins ties (the
            # node iteration order is the pool order, as always).
            if cost_mode:
                better = (candidate_cost < best_cost
                          or (candidate_cost == best_cost
                              and candidate_finish < best_finish))
            else:
                better = (candidate_finish < best_finish
                          or (candidate_finish == best_finish
                              and candidate_cost < best_cost))
            if better:
                best_cost = candidate_cost
                best_finish = candidate_finish
                best_node = node_id
                best_start = start
                best_end = end
                if pruning:
                    # Every found solution is itself an incumbent:
                    # anything strictly worse on the primary criterion
                    # cannot win the rank comparison, so the remaining
                    # rows explore under the tightened allowance.  The
                    # inequality stays strict, so primary ties survive
                    # to be ranked on the secondary criterion exactly
                    # as in the cold pass.
                    allowance = best_cost if cost_mode else best_finish

        best_primary = best_cost if cost_mode else best_finish
        exact = complete or best_primary <= allowance
        next_key = ((index + 1, best_node, best_end)
                    if best_node is not None else None)
        memo[key] = (best_cost, best_finish, best_node, best_start,
                     best_end, next_key, exact, allowance)
        return best_cost, best_finish, exact

    release = problem.release
    try:
        total_cost, finish, _ = best_from(
            0, None, release, problem.allowance if pruning else _INFINITY)
    finally:
        del best_from
    if total_cost == _INFINITY:
        return None, evaluations

    placements: list[Placement] = []
    key: Optional[tuple] = (0, None, release)
    while key is not None and key[0] < chain_length:
        entry = memo[key]
        placements.append(
            Placement(chain[key[0]], entry[2], entry[3], entry[4]))
        key = entry[5]
    return (ChainAllocation(placements, total_cost, int(finish), evaluations),
            evaluations)


def solve_batch(problem: ChainProblem, pruning: bool, stacks: list
                ) -> tuple[Optional[ChainAllocation], int]:
    """Level-synchronous batched DP over the candidate rows.

    The scalar recursion explores states ``(position, previous node,
    data-ready slot)`` one at a time; this solver sweeps the whole
    state *level* of each chain position at once: an ``states × rows``
    start-bound matrix (one lag-matrix gather + floor clamp), a
    feasibility/pruning mask, one :func:`~repro.core.placement.
    batch_earliest_fit` call over ``stacks`` (the problem's
    :meth:`~ChainProblem.stacked_tables`) for every surviving pair, and
    an ``np.unique`` dedup of ``(node, end)`` successor states.  The
    backward pass then ranks each state's candidates with vectorized
    lexicographic argmins.

    Bit-identical to the recursion by construction:

    * candidate values use the same float operations in the same
      association — ``row_cost + tail_cost`` right to left, finishes as
      ``max(tail_finish, end)``;
    * ties on the primary criterion break to the secondary, then to the
      *first row in pool order* (the reversed-index scatter below);
    * pruning drops a pair only when ``min prefix cost + row cost +
      tail lower bound`` (cost mode) or ``start bound + duration +
      tail lower bound`` (time mode) strictly exceeds the incumbent —
      every state on an optimal path keeps its full tie set, so values,
      winners, and placements match the cold recursion exactly (the
      same argument as the scalar warm start, with the forward-minimum
      prefix cost standing in for the recursion's running allowance);
    * the expansion count is the number of states entering each
      position — exactly the states the cold recursion would expand.

    Returns ``(allocation or None, evaluations)``.
    """
    chain = problem.chain
    chain_length = len(chain)
    cost_mode = problem.cost_mode
    tail_lb = problem.tail_lb
    allowance = problem.allowance
    pool_position = {node.node_id: index
                     for index, node in enumerate(problem.pool)}

    # Candidate rows as per-position SoA columns.
    col_pos: list[np.ndarray] = []
    col_dur: list[np.ndarray] = []
    col_floor: list[np.ndarray] = []
    col_ceiling: list[np.ndarray] = []
    col_cost: list[np.ndarray] = []
    for index, rows in enumerate(problem.rows):
        count = len(rows)
        col_pos.append(np.fromiter((pool_position[row[1]] for row in rows),
                                   dtype=np.int64, count=count))
        col_dur.append(np.fromiter((row[4] for row in rows), dtype=np.int64,
                                   count=count))
        col_floor.append(np.fromiter((row[5] for row in rows),
                                     dtype=np.int64, count=count))
        col_ceiling.append(np.fromiter((row[6] for row in rows),
                                       dtype=np.int64, count=count))
        col_cost.append(np.fromiter(
            (row[7] for row in problem.priced_rows(index)),
            dtype=np.float64, count=count))

    # Forward sweep: enumerate the reachable state level of every
    # position (ready slots per pool position), recording the feasible
    # (state, row) pairs and their fitted start/end slots.
    states_ready = np.full(1, problem.release, dtype=np.int64)
    states_pos = np.full(1, -1, dtype=np.int64)
    # Minimum prefix cost per state — the pruning bound's g-value.
    states_cost = np.zeros(1, dtype=np.float64)
    evaluations = 0
    perf_on = PERF.enabled
    pairs: list[tuple] = []
    for index in range(chain_length):
        state_count = states_ready.shape[0]
        row_count = col_dur[index].shape[0]
        if state_count:
            evaluations += state_count
            if perf_on:
                PERF.incr("dp.expansions", state_count)
        if state_count == 0 or row_count == 0:
            pairs.append((_EMPTY_I, _EMPTY_I, _EMPTY_I, _EMPTY_I, _EMPTY_I,
                          state_count))
            states_ready = states_pos = _EMPTY_I
            states_cost = _EMPTY_F
            continue
        durations = col_dur[index]
        ceilings = col_ceiling[index]
        incoming = problem.incoming[index]
        if incoming is None:
            start_bound = np.maximum(states_ready[:, None],
                                     col_floor[index][None, :])
        else:
            uniform = problem.uniform[index]
            if uniform is not None:
                # Constant cross-node lag: one masked add replaces the
                # node × node matrix gather.
                start_bound = np.where(
                    states_pos[:, None] == col_pos[index][None, :],
                    states_ready[:, None],
                    states_ready[:, None] + uniform)
            else:
                start_bound = states_ready[:, None] + problem.lag_matrix(
                    incoming)[states_pos[:, None], col_pos[index][None, :]]
            np.maximum(start_bound, col_floor[index][None, :],
                       out=start_bound)
        feasible = start_bound + durations[None, :] <= ceilings[None, :]
        if pruning:
            if cost_mode:
                bound = (states_cost[:, None] + col_cost[index][None, :]
                         + tail_lb[index + 1])
            else:
                bound = (start_bound + durations[None, :]
                         + tail_lb[index + 1])
            feasible &= bound <= allowance
        state_at, row_at = np.nonzero(feasible)
        starts = _placement.batch_earliest_fit(
            stacks[index], row_at, start_bound[state_at, row_at],
            durations, ceilings)
        placed = starts >= 0
        state_at, row_at, starts = (state_at[placed], row_at[placed],
                                    starts[placed])
        ends = starts + durations[row_at]
        keys = col_pos[index][row_at] * _STATE_STRIDE + ends
        unique_keys, successor = np.unique(keys, return_inverse=True)
        pairs.append((state_at, row_at, starts, ends, successor,
                      state_count))
        states_pos = unique_keys // _STATE_STRIDE
        states_ready = unique_keys - states_pos * _STATE_STRIDE
        if pruning and cost_mode:
            accumulated = np.full(unique_keys.shape[0], _INFINITY)
            np.minimum.at(accumulated, successor,
                          states_cost[state_at] + col_cost[index][row_at])
            states_cost = accumulated

    # Backward value pass: per-state lexicographic argmin over pairs,
    # ties to the first pair (pool order × monotone unique keys — the
    # pair order within a state matches the scalar row order).
    next_cost = next_finish = _EMPTY_F
    picks: list[np.ndarray] = []
    for index in range(chain_length - 1, -1, -1):
        state_at, row_at, _, ends, successor, state_count = pairs[index]
        cand_cost = col_cost[index][row_at]
        if index == chain_length - 1:
            cand_finish = ends.astype(np.float64)
        else:
            cand_cost = cand_cost + next_cost[successor]
            cand_finish = np.maximum(next_finish[successor],
                                     ends.astype(np.float64))
        primary = cand_cost if cost_mode else cand_finish
        secondary = cand_finish if cost_mode else cand_cost
        best_primary = np.full(state_count, _INFINITY)
        np.minimum.at(best_primary, state_at, primary)
        tie = primary == best_primary[state_at]
        best_secondary = np.full(state_count, _INFINITY)
        np.minimum.at(best_secondary, state_at[tie], secondary[tie])
        winners = np.nonzero(tie & (secondary == best_secondary[state_at]))[0]
        pick = np.full(state_count, -1, dtype=np.int64)
        pick[state_at[winners[::-1]]] = winners[::-1]
        value_cost = np.full(state_count, _INFINITY)
        value_finish = np.full(state_count, _INFINITY)
        chosen = pick >= 0
        value_cost[chosen] = cand_cost[pick[chosen]]
        value_finish[chosen] = cand_finish[pick[chosen]]
        picks.append(pick)
        next_cost, next_finish = value_cost, value_finish
    picks.reverse()

    root_primary = next_cost[0] if cost_mode else next_finish[0]
    if root_primary == _INFINITY:
        return None, evaluations

    placements: list[Placement] = []
    state = 0
    for index in range(chain_length):
        pair = int(picks[index][state])
        _, row_at, starts, ends, successor, _ = pairs[index]
        row = problem.rows[index][int(row_at[pair])]
        placements.append(Placement(
            chain[index], row[1], int(starts[pair]), int(ends[pair])))
        state = int(successor[pair])
    return (ChainAllocation(placements, float(next_cost[0]),
                            int(next_finish[0]), evaluations),
            evaluations)
