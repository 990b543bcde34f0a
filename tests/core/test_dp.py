"""Unit tests for the dynamic-programming chain allocator."""

import itertools

import pytest

from repro.core.calendar import ReservationCalendar
from repro.core.context import SchedulingContext
from repro.core.costs import VolumeOverTimeCost
from repro.core.dp import ChainProblem, allocate_chain, solve_scalar
from repro.core.job import DataTransfer, Job, Task
from repro.core.resources import ProcessorNode, ResourcePool
from repro.core.schedule import Placement
from repro.core.transfers import NeutralTransferModel
from repro.perf import PERF


def make_pool(*performances):
    return ResourcePool([
        ProcessorNode(node_id=i + 1, performance=perf)
        for i, perf in enumerate(performances)
    ])


def empty_calendars(pool):
    return {node.node_id: ReservationCalendar() for node in pool}


def chain_job(deadline=20):
    return Job(
        "chain",
        [Task("A", volume=20, best_time=2),
         Task("B", volume=30, best_time=3),
         Task("C", volume=10, best_time=1)],
        [DataTransfer("D1", "A", "B"), DataTransfer("D2", "B", "C")],
        deadline=deadline,
    )


def test_empty_chain_is_trivial():
    job = chain_job()
    pool = make_pool(1.0)
    result = allocate_chain(job, [], pool, empty_calendars(pool), 20)
    assert result.placements == []
    assert result.cost == 0.0


def test_single_task_on_single_node():
    job = chain_job()
    pool = make_pool(1.0)
    result = allocate_chain(job, ["A"], pool, empty_calendars(pool), 20)
    assert result.placements == [Placement("A", 1, 0, 2)]
    assert result.cost == 10  # ceil(20 / 2)


def test_chain_respects_precedence_and_transfers():
    job = chain_job()
    pool = make_pool(1.0, 1.0)
    result = allocate_chain(job, ["A", "B", "C"], pool,
                            empty_calendars(pool), 20)
    placements = {p.task_id: p for p in result.placements}
    for earlier, later in [("A", "B"), ("B", "C")]:
        lag = 0 if (placements[earlier].node_id
                    == placements[later].node_id) else 1
        assert placements[later].start >= placements[earlier].end + lag


def test_deadline_infeasible_returns_none():
    job = chain_job(deadline=20)
    pool = make_pool(1.0)
    # Chain needs at least 2 + 3 + 1 = 6 slots co-located.
    assert allocate_chain(job, ["A", "B", "C"], pool,
                          empty_calendars(pool), 5) is None


def test_prefers_cheaper_slow_node_when_deadline_allows():
    """CF = ceil(V/T): slower nodes yield longer T, hence lower cost."""
    job = Job("j", [Task("A", volume=20, best_time=2)], deadline=20)
    pool = make_pool(1.0, 0.5)
    result = allocate_chain(job, ["A"], pool, empty_calendars(pool), 20)
    assert result.placements[0].node_id == 2  # slow: ceil(20/4)=5 < 10


def test_forced_to_fast_node_by_tight_deadline():
    job = Job("j", [Task("A", volume=20, best_time=2)], deadline=3)
    pool = make_pool(1.0, 0.5)
    result = allocate_chain(job, ["A"], pool, empty_calendars(pool), 3)
    assert result.placements[0].node_id == 1


def test_avoids_busy_windows():
    job = Job("j", [Task("A", volume=20, best_time=2)], deadline=10)
    pool = make_pool(1.0)
    calendars = empty_calendars(pool)
    calendars[1].reserve(0, 4, "background")
    result = allocate_chain(job, ["A"], pool, calendars, 10)
    assert result.placements[0].start == 4


def test_all_nodes_busy_returns_none():
    job = Job("j", [Task("A", volume=20, best_time=2)], deadline=10)
    pool = make_pool(1.0)
    calendars = empty_calendars(pool)
    calendars[1].reserve(0, 10, "background")
    assert allocate_chain(job, ["A"], pool, calendars, 10) is None


def test_fixed_predecessor_imposes_release():
    job = chain_job()
    pool = make_pool(1.0, 1.0)
    fixed = {"A": Placement("A", 1, 0, 2)}
    result = allocate_chain(job, ["B", "C"], pool, empty_calendars(pool), 20,
                            fixed=fixed)
    b = result.placements[0]
    lag = 0 if b.node_id == 1 else 1
    assert b.start >= 2 + lag


def test_fixed_successor_imposes_latest_end():
    job = chain_job()
    pool = make_pool(1.0)
    fixed = {"C": Placement("C", 1, 10, 11)}
    result = allocate_chain(job, ["A", "B"], pool, empty_calendars(pool), 20,
                            fixed=fixed)
    b = [p for p in result.placements if p.task_id == "B"][0]
    # B on node 1 (same as C): must end by C.start.
    assert b.end <= 10
    # And B may not overlap C on the node? The DP does not book, but the
    # caller checks; here node 1 is free before 10 so no clash.


class PlainLagModel:
    """The neutral transfer timing without ``uniform_lag``, so the DP
    takes the per-node external-bound path."""

    def time(self, transfer, src_node, dst_node):
        return NeutralTransferModel().time(transfer, src_node, dst_node)

    def estimate(self, transfer):
        return transfer.base_time


def test_external_bounds_agree_with_and_without_uniform_lags():
    """Placed neighbours on both sides: the shared-bound shortcut of
    uniform-lag models and the per-node path give the same rows."""
    job = Job("mid", [Task("A", volume=20, best_time=2),
                      Task("B", volume=30, best_time=3),
                      Task("C", volume=10, best_time=1)],
              [DataTransfer("D1", "A", "B", base_time=2),
               DataTransfer("D2", "B", "C", base_time=3)], deadline=40)
    pool = make_pool(1.0, 0.8, 0.5)
    fixed = {"A": Placement("A", 1, 0, 4), "C": Placement("C", 2, 20, 21)}
    problems = [ChainProblem(job, ["B"], pool, empty_calendars(pool), 40,
                             transfer_model=model, fixed=fixed,
                             context=SchedulingContext())
                for model in (NeutralTransferModel(), PlainLagModel())]
    bounds = [[(row[1], row[5], row[6]) for row in problem.rows[0]]
              for problem in problems]
    assert bounds[0] == bounds[1]
    assert bounds[0] == [(1, 4, 17), (2, 6, 20), (3, 6, 17)]
    assert problems[0].solve(solve_scalar) == problems[1].solve(solve_scalar)


def test_release_shifts_everything():
    job = Job("j", [Task("A", volume=20, best_time=2)], deadline=100)
    pool = make_pool(1.0)
    result = allocate_chain(job, ["A"], pool, empty_calendars(pool), 100,
                            release=50)
    assert result.placements[0].start >= 50


def test_estimation_level_lengthens_reservations():
    job = Job("j", [Task("A", volume=20, best_time=2, worst_time=6)],
              deadline=20)
    pool = make_pool(1.0)
    best = allocate_chain(job, ["A"], pool, empty_calendars(pool), 20,
                          level=0.0)
    worst = allocate_chain(job, ["A"], pool, empty_calendars(pool), 20,
                           level=1.0)
    assert best.placements[0].duration == 2
    assert worst.placements[0].duration == 6


def test_allowed_nodes_whitelist():
    job = Job("j", [Task("A", volume=20, best_time=2)], deadline=20)
    pool = make_pool(1.0, 0.5)
    result = allocate_chain(job, ["A"], pool, empty_calendars(pool), 20,
                            allowed_nodes={1})
    assert result.placements[0].node_id == 1
    assert allocate_chain(job, ["A"], pool, empty_calendars(pool), 20,
                          allowed_nodes=set()) is None


def test_rejects_non_chain_input():
    job = chain_job()
    pool = make_pool(1.0)
    with pytest.raises(ValueError):
        allocate_chain(job, ["A", "C"], pool, empty_calendars(pool), 20)


@pytest.mark.parametrize("chain", [[], ["A"]])
def test_rejects_unknown_objective_even_for_empty_chain(chain):
    job = chain_job()
    pool = make_pool(1.0)
    with pytest.raises(ValueError, match="objective"):
        allocate_chain(job, chain, pool, empty_calendars(pool), 20,
                       objective="bogus")


def test_rejects_already_fixed_chain_task():
    job = chain_job()
    pool = make_pool(1.0)
    with pytest.raises(ValueError):
        allocate_chain(job, ["A", "B"], pool, empty_calendars(pool), 20,
                       fixed={"A": Placement("A", 1, 0, 2)})


def brute_force_best(job, chain, pool, deadline):
    """Exhaustive minimum cost over node assignments with greedy timing."""
    model = VolumeOverTimeCost()
    best_cost = None
    for nodes in itertools.product(list(pool), repeat=len(chain)):
        ready = 0
        cost = 0.0
        feasible = True
        prev_node = None
        for task_id, node in zip(chain, nodes):
            lag = 0
            if prev_node is not None and prev_node.node_id != node.node_id:
                lag = job.transfer_between(
                    chain[chain.index(task_id) - 1], task_id).base_time
            start = ready + lag
            duration = job.task(task_id).duration_on(node.performance)
            end = start + duration
            if end > deadline:
                feasible = False
                break
            cost += model.task_cost(
                job.task(task_id), Placement(task_id, node.node_id,
                                             start, end), node)
            ready = end
            prev_node = node
        if feasible and (best_cost is None or cost < best_cost):
            best_cost = cost
    return best_cost


@pytest.mark.parametrize("deadline", [8, 10, 14, 20, 30])
def test_dp_matches_brute_force_on_empty_calendars(deadline):
    job = chain_job(deadline=deadline)
    pool = make_pool(1.0, 0.5, 1 / 3)
    chain = ["A", "B", "C"]
    result = allocate_chain(job, chain, pool, empty_calendars(pool), deadline)
    expected = brute_force_best(job, chain, pool, deadline)
    if expected is None:
        assert result is None
    else:
        assert result.cost == expected


def test_evaluations_counter_positive():
    job = chain_job()
    pool = make_pool(1.0, 0.5)
    result = allocate_chain(job, ["A", "B", "C"], pool,
                            empty_calendars(pool), 20)
    assert result.evaluations > 0


def test_context_caches_do_not_change_results():
    """The context's version-keyed fit cache and transfer-lag memo are
    pure memoization: results must equal the cacheless run's exactly."""
    from repro.core.context import SchedulingContext

    job = chain_job()
    pool = make_pool(1.0, 0.5, 1 / 3)
    chain = ["A", "B", "C"]
    calendars = empty_calendars(pool)
    calendars[1].reserve(0, 3, tag="bg")
    calendars[2].reserve(4, 6, tag="bg")

    plain = allocate_chain(job, chain, pool, calendars, 25)
    context = SchedulingContext()
    cached = allocate_chain(job, chain, pool, calendars, 25,
                            context=context)
    assert plain is not None and cached is not None
    assert cached.placements == plain.placements
    assert cached.cost == plain.cost
    assert cached.evaluations == plain.evaluations
    assert len(context.fit_cache)  # the run actually populated it

    # A second run through the same context reuses entries and agrees.
    again = allocate_chain(job, chain, pool, calendars, 25,
                           context=context)
    assert again.placements == plain.placements
    assert again.cost == plain.cost


def test_stale_fit_cache_keys_are_ignored_after_mutation():
    """Calendar mutations bump versions, so entries from the old state
    can never be read back — the warm context must track fresh state."""
    from repro.core.context import SchedulingContext

    job = chain_job()
    pool = make_pool(1.0, 0.5)
    chain = ["A", "B", "C"]
    calendars = empty_calendars(pool)
    context = SchedulingContext()
    allocate_chain(job, chain, pool, calendars, 25, context=context)

    calendars[1].reserve(0, 4, tag="bg")
    fresh = allocate_chain(job, chain, pool, calendars, 25,
                           context=context)
    uncached = allocate_chain(job, chain, pool, calendars, 25)
    assert (fresh is None) == (uncached is None)
    if uncached is not None:
        assert fresh.placements == uncached.placements
        assert fresh.cost == uncached.cost


def test_hint_warm_start_is_bit_identical():
    """A warm hint may only reduce work; the allocation itself must be
    exactly the cold one's, even when the hint is wrong or stale."""
    job = chain_job()
    pool = make_pool(1.0, 0.5, 1 / 3)
    chain = ["A", "B", "C"]
    calendars = empty_calendars(pool)
    calendars[2].reserve(0, 5, tag="bg")
    cold = allocate_chain(job, chain, pool, calendars, 25)
    assert cold is not None

    good_hint = {p.task_id: p.node_id for p in cold.placements}
    bad_hint = {"A": 2, "B": 2, "C": 2}
    partial_hint = {"A": 1}
    for hint in (good_hint, bad_hint, partial_hint, {}):
        warm = allocate_chain(job, chain, pool, calendars, 25, hint=hint)
        assert warm is not None
        assert warm.placements == cold.placements
        assert warm.cost == cold.cost


def test_hint_on_infeasible_instance_still_returns_none():
    job = chain_job(deadline=3)
    pool = make_pool(0.33)
    chain = ["A", "B", "C"]
    hint = {"A": 1, "B": 1, "C": 1}
    assert allocate_chain(job, chain, pool, empty_calendars(pool), 3,
                          hint=hint) is None


def test_greedy_incumbent_counter_counts_only_descents_off_the_hint():
    """``dp.greedy_incumbents`` counts warm incumbents whose descent had
    to leave the hint; a hint that re-fits whole is not one of them."""
    job = chain_job()
    pool = make_pool(1.0, 0.5, 1 / 3)
    chain = ["A", "B", "C"]
    cold = allocate_chain(job, chain, pool, empty_calendars(pool), 25)
    hint = {p.task_id: p.node_id for p in cold.placements}

    def counted(calendars, warm_hint):
        with PERF.collecting() as registry:
            warm = allocate_chain(job, chain, pool, calendars, 25,
                                  hint=warm_hint,
                                  context=SchedulingContext())
        assert warm is not None
        expected = allocate_chain(job, chain, pool, calendars, 25)
        assert warm.placements == expected.placements
        return (registry.counters.get("dp.incumbents_warm", 0),
                registry.counters.get("dp.greedy_incumbents", 0),
                registry.counters.get("dp.incumbents_cold", 0))

    assert counted(empty_calendars(pool), hint) == (1, 0, 0)
    assert counted(empty_calendars(pool), {"A": hint["A"]}) == (1, 1, 0)
    blocked = empty_calendars(pool)
    blocked[hint["B"]].reserve(0, 25, tag="bg")
    assert counted(blocked, hint) == (1, 1, 0)
