"""The batch DP solver is bit-identical to the scalar recursion.

The batch solver answers every candidate row's placement query through
the stacked gap tables (:mod:`repro.core.placement`) and ranks rows
with vectorized lexicographic argmins; the guarantee is that solver
choice is purely a matter of speed — every schedule, cost, makespan,
collision list, and admissibility flag must equal the scalar run's
exactly, for every strategy family.

Direct cases run both solvers on one prepared
:class:`~repro.core.dp.ChainProblem`.  Generator-level cases move the
one routing threshold (``dp._BATCH_MIN_ROWS``) to force either solver
wherever the inputs allow it.
"""

import sys

import pytest

from repro.core import dp
from repro.core.context import SchedulingContext
from repro.core.dp import (ChainProblem, allocate_chain, solve_batch,
                           solve_scalar)
from repro.core.strategy import StrategyGenerator, StrategyType
from repro.grid.environment import GridEnvironment
from repro.perf import PERF
from repro.workload.generator import generate_job, generate_pool
from repro.workload.paper_example import fig2_job, fig2_pool

from .test_warm_start import strategies_equal

#: Row thresholds forcing each solver: every snapshot is tabled and
#: every eligible chain batched, or none is.
FORCE_BATCH = 1
FORCE_SCALAR = sys.maxsize


def generate_with(pool, job, calendars, stype, min_rows, release=0):
    """One strategy under a routing threshold (None: the default), and
    the number of batch placement queries it made."""
    with pytest.MonkeyPatch.context() as patch:
        if min_rows is not None:
            patch.setattr(dp, "_BATCH_MIN_ROWS", min_rows)
        with PERF.collecting() as registry:
            strategy = StrategyGenerator(pool).generate(
                job, calendars, stype, release=release)
    return strategy, registry.counters.get("placement.batch_queries", 0)


def engines_equal(pool, job, calendars, stype, release=0):
    """Assert all routings agree; return the forced run's batch count."""
    scalar, scalar_queries = generate_with(
        pool, job, dict(calendars), stype, FORCE_SCALAR, release)
    batch, batch_queries = generate_with(
        pool, job, dict(calendars), stype, FORCE_BATCH, release)
    auto, _ = generate_with(pool, job, dict(calendars), stype, None,
                            release)
    assert scalar_queries == 0
    strategies_equal(batch, scalar)
    strategies_equal(auto, scalar)
    return batch_queries


@pytest.mark.parametrize("stype", list(StrategyType))
def test_fig2_batch_equals_scalar_on_empty_calendars(stype):
    pool, job = fig2_pool(), fig2_job()
    environment = GridEnvironment(pool)
    assert engines_equal(pool, job, environment.snapshot(), stype) > 0


@pytest.mark.parametrize("stype", list(StrategyType))
@pytest.mark.parametrize("seed", [7, 2009])
def test_fig2_batch_equals_scalar_under_background_load(stype, seed):
    from repro.sim.rng import RandomStreams

    pool, job = fig2_pool(), fig2_job()
    environment = GridEnvironment(pool)
    environment.apply_background_load(
        RandomStreams(seed).stream("bg"), 0.4, 300)
    assert engines_equal(pool, job, environment.snapshot(), stype) > 0


@pytest.mark.parametrize("seed", range(6))
def test_random_workloads_batch_equals_scalar(seed):
    """Seeded random jobs on a loaded random pool, all families."""
    from repro.sim.rng import RandomStreams

    streams = RandomStreams(seed)
    pool = generate_pool(streams.stream("pool"))
    environment = GridEnvironment(pool)
    environment.apply_background_load(streams.stream("bg"), 0.5, 400)
    batch_queries = 0
    for index in range(3):
        job = generate_job(streams.stream(f"job{index}"), index)
        for stype in StrategyType:
            batch_queries += engines_equal(
                pool, job, environment.snapshot(), stype,
                release=index * 7)
    assert batch_queries > 0


def loaded_chain(seed):
    """A loaded random pool, one of its jobs, and a chain of the job."""
    from repro.sim.rng import RandomStreams

    streams = RandomStreams(seed)
    pool = generate_pool(streams.stream("pool"))
    environment = GridEnvironment(pool)
    environment.apply_background_load(streams.stream("bg"), 0.5, 300)
    job = generate_job(streams.stream("job"), 0)
    order = job.topological_order()
    chain = [order[0]]
    for task_id in order[1:]:
        if job.transfer_between(chain[-1], task_id) is not None:
            chain.append(task_id)
    assert len(chain) >= 2, "workload generator no longer yields chains"
    return pool, environment.snapshot(), job, chain


def solve_both(problem, context, calendars):
    """Both solvers on one prepared problem (gap tables built first)."""
    for calendar in calendars.values():
        context.gap_table(calendar)
    stacks = problem.stacked_tables()
    assert stacks is not None
    return problem.solve(solve_scalar), problem.solve(solve_batch, stacks)


@pytest.mark.parametrize("objective", ["cost", "time"])
def test_allocate_chain_engines_agree_directly(objective):
    """Solver equality on one prepared problem, both objectives.

    The batch solver must return the same placements, cost, and finish
    as the scalar recursion — and, cold against cold, the same
    expansion count (the batch sweep expands exactly the states the
    cold recursion would).
    """
    pool, calendars, job, chain = loaded_chain(42)
    context = SchedulingContext()
    problem = ChainProblem(job, chain, pool, calendars, 10_000,
                           objective=objective, context=context)
    scalar, batch = solve_both(problem, context, calendars)
    assert scalar is not None and batch is not None
    assert batch.placements == scalar.placements
    assert batch.cost == scalar.cost
    assert batch.finish == scalar.finish
    assert batch.evaluations == scalar.evaluations


@pytest.mark.parametrize("objective", ["cost", "time"])
def test_solvers_agree_on_freshly_mutated_calendars(objective):
    """Collision repair plans on freshly mutated what-if copies.

    Their new versions have no gap tables, so routing never batches
    them — even at the lowest threshold.  With tables built by hand the
    batch solver must still agree with the recursion there, cold and
    warm-started from the pre-mutation allocation.
    """
    pool, calendars, job, chain = loaded_chain(42)
    deadline = 10_000
    context = SchedulingContext()
    for calendar in calendars.values():
        context.gap_table(calendar)
    before = allocate_chain(job, chain, pool, calendars, deadline,
                            objective=objective, context=context)
    assert before is not None
    # Steal every slot of the allocation: the copies mutate into fresh,
    # untabled versions, as phase-B working calendars do.
    working = {node_id: calendar.copy()
               for node_id, calendar in calendars.items()}
    for placement in before.placements:
        working[placement.node_id].reserve(placement.start, placement.end,
                                           tag="thief")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dp, "_BATCH_MIN_ROWS", FORCE_BATCH)
        with PERF.collecting() as registry:
            routed = allocate_chain(job, chain, pool, working, deadline,
                                    objective=objective, context=context)
    assert registry.counters.get("placement.batch_queries", 0) == 0

    hint = {p.task_id: p.node_id for p in before.placements}
    for warm_hint in (None, hint):
        fresh = SchedulingContext()
        problem = ChainProblem(job, chain, pool, working, deadline,
                               objective=objective, hint=warm_hint,
                               context=fresh)
        assert problem.stacked_tables() is None
        scalar, batch = solve_both(problem, fresh, working)
        assert scalar is not None and batch is not None
        assert scalar.placements == routed.placements
        assert batch.placements == scalar.placements
        assert batch.cost == scalar.cost
        assert batch.finish == scalar.finish
