"""The DP's per-(task, level) row table is exact and correctly scoped.

:meth:`~repro.core.context.SchedulingContext.row_table` holds, per job
structure and pool, one duration list per (task, level) and one price
list per (task, level, price key), both in pool order.  Every value
must equal the scalar ``Task.duration_on`` / ``cost_model.task_cost``
element by element, whatever the pool subset a call reads, and tables
must never alias across pools, pricing parameters or evicted
structures.
"""

import numpy as np
import pytest

from repro.core.context import SchedulingContext
from repro.core.costs import BalancedTimeCost, PricedTimeCost, \
    VolumeOverTimeCost
from repro.core.dp import ChainProblem, allocate_chain
from repro.core.job import Job, Task
from repro.core.resources import ResourcePool
from repro.core.schedule import Placement
from repro.perf import PERF

from .test_batch_engine import loaded_chain

DEADLINE = 10_000
LEVELS = (0.0, 0.5, 1.0)


class UnkeyedCost:
    """A start-invariant model with a vectorized pricer but no
    ``price_key``: its rows are priced lazily, never tabled."""

    time_invariant = True

    def task_cost(self, task, placement, node):
        return 3.0 * placement.duration + task.volume

    def task_cost_array(self, task, durations, nodes):
        return 3.0 * durations + task.volume


def scalar_price(model, task, node, duration):
    return model.task_cost(task, Placement(task.task_id, node.node_id, 0,
                                           duration), node)


def check_rows(problem, level, model, priced):
    """Every row's duration and price equal the scalar answers."""
    for index, (task, rows) in enumerate(zip(problem.tasks, problem.rows)):
        assert rows, "the loaded chain leaves every task some node"
        for row in rows:
            node = row[0]
            duration = task.duration_on(node.performance, level)
            assert row[4] == duration
            if priced:
                assert row[7] == scalar_price(model, task, node, duration)
            else:
                assert row[7] is None
                assert problem.price_row(index, row) == scalar_price(
                    model, task, node, duration)


def check_table(context, job, pool, chain, level, model, price_key):
    """The table lists themselves, position by position."""
    table = context.row_table(job, pool)
    for task_id in chain:
        task = job.task(task_id)
        durations = table[(task_id, level)]
        assert len(durations) == len(pool)
        for node, duration in zip(pool, durations):
            assert duration == task.duration_on(node.performance, level)
        if price_key is None:
            assert not any(len(key) == 3 and key[0] == task_id
                           for key in table)
            continue
        prices = table[(task_id, level, price_key)]
        assert prices == [scalar_price(model, task, node, duration)
                          for node, duration in zip(pool, durations)]


@pytest.mark.parametrize("model", [
    VolumeOverTimeCost(), BalancedTimeCost(2.5), BalancedTimeCost(0.75),
    PricedTimeCost(1.3), UnkeyedCost()],
    ids=["cf", "balanced-2.5", "balanced-0.75", "priced", "unkeyed"])
def test_rows_equal_scalar_durations_and_prices(model):
    pool, calendars, job, chain = loaded_chain(42)
    context = SchedulingContext()
    price_key = getattr(model, "price_key", None)
    for level in LEVELS:
        for _ in range(2):  # cold table, then warm table
            problem = ChainProblem(job, chain, pool, calendars, DEADLINE,
                                   level=level, cost_model=model,
                                   context=context)
            check_rows(problem, level, model, price_key is not None)
        check_table(context, job, pool, chain, level, model, price_key)
        # A contextless call builds the same rows from a private table.
        bare = ChainProblem(job, chain, pool, calendars, DEADLINE,
                            level=level, cost_model=model)
        assert [[row[1:7] for row in rows] for rows in bare.rows] == \
            [[row[1:7] for row in rows] for rows in problem.rows]
        check_rows(bare, level, model, price_key is not None)


def test_changed_weight_does_not_reuse_prices():
    pool, calendars, job, chain = loaded_chain(42)
    context = SchedulingContext()
    model = BalancedTimeCost(2.5)
    before = ChainProblem(job, chain, pool, calendars, DEADLINE,
                          cost_model=model, context=context)
    model.cf_weight = 0.5
    after = ChainProblem(job, chain, pool, calendars, DEADLINE,
                         cost_model=model, context=context)
    check_rows(after, 0.0, model, priced=True)
    assert [row[7] for row in after.rows[0]] != \
        [row[7] for row in before.rows[0]]
    table = context.row_table(job, pool)
    assert (chain[0], 0.0, ("balanced", 2.5)) in table
    assert (chain[0], 0.0, ("balanced", 0.5)) in table


def test_allowed_subset_reads_its_pool_positions():
    pool, calendars, job, chain = loaded_chain(42)
    context = SchedulingContext()
    ids = list(pool.node_ids())
    allowed = set(ids[1::3])
    performances = {pool.node(node_id).performance for node_id in allowed}
    assert len(performances) > 1, "the subset must tell positions apart"
    model = PricedTimeCost(1.1)
    # Warm the table with a whole-pool call, then read a subset of it.
    ChainProblem(job, chain, pool, calendars, DEADLINE, cost_model=model,
                 context=context)
    subset = ChainProblem(job, chain, pool, calendars, DEADLINE,
                          cost_model=model, allowed_nodes=allowed,
                          context=context)
    for rows in subset.rows:
        assert {row[1] for row in rows} <= allowed
    check_rows(subset, 0.0, model, priced=True)
    # The subset's allocation equals a contextless one on the subset.
    assert allocate_chain(job, chain, pool, calendars, DEADLINE,
                          cost_model=model, allowed_nodes=allowed,
                          context=context) == allocate_chain(
        job, chain, pool, calendars, DEADLINE, cost_model=model,
        allowed_nodes=allowed)


def test_reordered_pools_do_not_alias():
    pool, calendars, job, chain = loaded_chain(42)
    reordered = ResourcePool(list(reversed(pool.nodes)))
    context = SchedulingContext()
    model = VolumeOverTimeCost()
    assert context.row_table(job, pool) is not \
        context.row_table(job, reordered)
    for candidate in (pool, reordered, pool):
        problem = ChainProblem(job, chain, candidate, calendars, DEADLINE,
                               cost_model=model, context=context)
        check_rows(problem, 0.0, model, priced=True)
        check_table(context, job, candidate, chain, 0.0, model,
                    model.price_key)
    assert context.row_table(job, pool)[(chain[0], 0.0)] == list(reversed(
        context.row_table(job, reordered)[(chain[0], 0.0)]))


def test_evicted_structures_lose_their_tables():
    pool, calendars, _, _ = loaded_chain(42)
    context = SchedulingContext(struct_capacity=2)

    def job(volume):
        return Job(f"j{volume}", [Task("A", volume=volume, best_time=3),
                                  Task("B", volume=7, best_time=2)],
                   deadline=DEADLINE)

    stale = job(11)
    ChainProblem(stale, ["A"], pool, calendars, DEADLINE, context=context)
    assert ("A", 0.0) in context.row_table(stale, pool)
    for volume in (12, 13):
        ChainProblem(job(volume), ["A"], pool, calendars, DEADLINE,
                     context=context)
    assert context._struct_caches.get(stale.structural_hash) is None
    assert context.row_table(stale, pool) == {}


def test_one_lookup_per_task_and_level():
    pool, calendars, job, chain = loaded_chain(42)
    context = SchedulingContext()
    with PERF.collecting() as registry:
        for level in (0.0, 1.0, 0.0):
            ChainProblem(job, chain, pool, calendars, DEADLINE, level=level,
                         context=context)
    counters = registry.counters
    assert counters["dp.duration_cache_misses"] == 2 * len(chain)
    assert counters["dp.duration_cache_hits"] == len(chain)


def test_table_durations_match_vectorized_sweep():
    """The table stores ``duration_array``'s values as Python ints."""
    pool, calendars, job, chain = loaded_chain(42)
    context = SchedulingContext()
    ChainProblem(job, chain, pool, calendars, DEADLINE, level=0.5,
                 context=context)
    performances = np.array([node.performance for node in pool])
    durations = context.row_table(job, pool)[(chain[0], 0.5)]
    assert all(type(value) is int for value in durations)
    assert durations == job.task(chain[0]).duration_array(
        performances, 0.5).tolist()
