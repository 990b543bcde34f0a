"""The DP leaves nothing for the cyclic GC, and its fit memo is exact.

Cycle freedom: a self-recursive closure reaches itself through its own
closure cell, which keeps everything it refers to alive until a cyclic
GC pass.  Each case runs one call with the collector disabled and then
asks ``gc.collect()`` how much cyclic garbage the call left behind —
it must be none.

Witness exactness: every ``(node, version, duration, deadline)`` fit
bucket is one list, sorted probe keys in the first half and their
answers in the second.  Random query sequences against random
calendars must see exactly ``earliest_fit``'s answers, failures
included, and leave well-formed buckets behind.
"""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calendar import ReservationCalendar
from repro.core.context import SchedulingContext
from repro.core.dp import ChainProblem, allocate_chain
from repro.core.job import Job, Task
from repro.core.resources import ProcessorNode, ResourcePool
from repro.core.strategy import StrategyGenerator, StrategyType
from repro.grid.environment import GridEnvironment
from repro.perf import PERF
from repro.workload.paper_example import fig2_job, fig2_pool
from repro.workload.shapes import intree_job

from .test_batch_engine import loaded_chain

DEADLINE = 10_000


def cyclic_garbage(call):
    """Objects only the cyclic GC could free, left behind by ``call()``."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def batch_queries(call):
    """Batch placement queries made by ``call()``."""
    with PERF.collecting() as registry:
        call()
    return registry.counters.get("placement.batch_queries", 0)


def chain_setup():
    """A loaded random chain, its cold allocation, and that as a hint."""
    pool, calendars, job, chain = loaded_chain(42)
    allocation = allocate_chain(job, chain, pool, calendars, DEADLINE)
    assert allocation is not None
    hint = {p.task_id: p.node_id for p in allocation.placements}
    return pool, calendars, job, chain, hint


def test_scalar_allocate_chain_leaves_no_cycles():
    pool, calendars, job, chain, hint = chain_setup()
    context = SchedulingContext()  # no gap tables: the recursion runs

    def run(use_hint):
        return lambda: allocate_chain(job, chain, pool, calendars, DEADLINE,
                                      hint=hint if use_hint else None,
                                      context=context)

    assert batch_queries(run(False)) == 0
    for use_hint in (False, True):
        assert cyclic_garbage(run(use_hint)) == 0
        # Warm caches (fit buckets, lags, durations) take the same path.
        assert cyclic_garbage(run(use_hint)) == 0
    # Contextless calls keep a private lag memo and no fit cache.
    assert cyclic_garbage(lambda: allocate_chain(
        job, chain, pool, calendars, DEADLINE)) == 0
    assert cyclic_garbage(lambda: allocate_chain(
        job, chain, pool, calendars, DEADLINE, hint=hint)) == 0


def test_batch_allocate_chain_leaves_no_cycles():
    pool, calendars, job, chain, hint = chain_setup()

    def tabled_context():
        context = SchedulingContext()
        for calendar in calendars.values():
            context.gap_table(calendar)
        return context

    def run(context, use_hint):
        return lambda: allocate_chain(job, chain, pool, calendars, DEADLINE,
                                      hint=hint if use_hint else None,
                                      context=context)

    assert batch_queries(run(tabled_context(), False)) > 0
    for use_hint in (False, True):
        context = tabled_context()
        assert cyclic_garbage(run(context, use_hint)) == 0  # cold memos
        assert cyclic_garbage(run(context, use_hint)) == 0  # warm memos


def test_strategy_generation_leaves_no_cycles():
    pool, job = fig2_pool(), fig2_job()
    environment = GridEnvironment(pool)
    generator = StrategyGenerator(pool)
    for stype in (StrategyType.S1, StrategyType.S2, StrategyType.MS1):
        assert cyclic_garbage(lambda: generator.generate(
            job, environment.snapshot(), stype)) == 0
        assert cyclic_garbage(lambda: StrategyGenerator(pool).generate(
            job, environment.snapshot(), stype)) == 0


def test_all_paths_leaves_no_cycles():
    job = fig2_job()
    paths = job.all_paths()
    assert len(paths) > 1
    assert cyclic_garbage(job.all_paths) == 0
    assert cyclic_garbage(lambda: job.all_paths(limit=1)) == 0


def test_intree_job_leaves_no_cycles():
    assert len(intree_job(depth=3).tasks) == 15
    assert cyclic_garbage(lambda: intree_job(depth=3)) == 0


reservations = st.lists(st.tuples(st.integers(0, 120),   # start
                                  st.integers(1, 12)),   # length
                        max_size=14)
queries = st.lists(st.tuples(st.integers(0, 2),          # task (duration)
                             st.integers(0, 150)),       # earliest
                   min_size=1, max_size=60)


@given(reservations, queries, st.integers(8, 160))
@settings(max_examples=150, deadline=None)
def test_find_fit_matches_earliest_fit(booked, probes, deadline):
    calendar = ReservationCalendar()
    for index, (start, length) in enumerate(booked):
        if calendar.is_free(start, start + length):
            calendar.reserve(start, start + length, tag=f"r{index}")
    pool = ResourcePool([ProcessorNode(node_id=1, performance=1.0)])
    job = Job("witness", [Task(f"T{i}", volume=5, best_time=best)
                          for i, best in enumerate((1, 3, 7))],
              deadline=deadline)
    context = SchedulingContext()
    rows = []
    for task_id in ("T0", "T1", "T2"):
        problem = ChainProblem(job, [task_id], pool, {1: calendar}, deadline,
                               context=context)
        rows.append((problem, problem.rows[0][0]
                     if problem.rows[0] else None))
    for task, earliest in probes:
        problem, row = rows[task]
        if row is None:  # the task cannot fit before the deadline at all
            continue
        assert problem.find_fit(row, earliest) == calendar.earliest_fit(
            row[4], earliest=earliest, deadline=row[6])
    for fits in context.fit_cache.values():
        assert len(fits) % 2 == 0
        half = len(fits) >> 1
        keys, starts = fits[:half], fits[half:]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert all(start is None or start >= key
                   for key, start in zip(keys, starts))
