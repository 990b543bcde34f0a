"""Dynamic reallocation: switching between supporting schedules.

"Innovation of our approach consists in mechanisms of dynamic job-flow
environment reallocation based on scheduling strategies."  A strategy
holds several supporting schedules; when the environment drifts (new
background reservations appear), the metascheduler abandons the active
schedule and activates another variant that is still consistent with
everything observed so far.  The time until *no* variant survives is
the strategy's **time-to-live** — Fig. 4c's persistence factor.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.schedule import Distribution
from ..core.strategy import Strategy, SupportingSchedule
from ..grid.environment import BackgroundEvent

__all__ = ["invalidates", "TimeToLiveResult", "strategy_time_to_live"]


def invalidates(event: BackgroundEvent, distribution: Distribution,
                executed_before: Optional[int] = None) -> bool:
    """True if the new reservation clashes with the schedule.

    By default the distribution is treated as a *plan*: every placement
    window is stealable until the plan is committed, whenever the event
    arrives.  Pass ``executed_before`` (a simulation time) to grant
    immunity to placements that already completed by then — a placement
    with ``end <= executed_before`` has already run to completion and
    cannot be stolen — the committed-and-running interpretation.

    Resolution is O(log placements-on-node) per event through a
    :class:`_NodeIntervalIndex` attached to the distribution on first
    query (placements are append-once at construction, so the index
    never goes stale); the old per-event linear scan over every
    placement dominated drift replays at high event counts.
    """
    index = getattr(distribution, "_invalidation_index", None)
    if index is None:
        index = _NodeIntervalIndex(distribution)
        distribution._invalidation_index = index  # type: ignore[attr-defined]
    return index.clashes(event, executed_before)


class _NodeIntervalIndex:
    """Per-node interval index over a distribution's placements.

    Placements are grouped by node and start-sorted, with a running
    prefix maximum over their ends.  A drift event on one node then
    resolves in O(log placements-on-node): among the placements
    starting before the event's end (a bisection), some interval
    overlaps iff the largest end among them exceeds the event's start —
    exactly the :func:`invalidates` predicate, without scanning nodes
    the event does not touch.
    """

    def __init__(self, distribution: Distribution):
        spans_by_node: dict[int, list[tuple[int, int]]] = {}
        for placement in distribution:
            spans_by_node.setdefault(placement.node_id, []).append(
                (placement.start, placement.end))
        self._starts: dict[int, list[int]] = {}
        self._max_ends: dict[int, list[int]] = {}
        for node_id, spans in spans_by_node.items():
            spans.sort()
            running = 0
            max_ends = []
            for _, end in spans:
                if end > running:
                    running = end
                max_ends.append(running)
            self._starts[node_id] = [start for start, _ in spans]
            self._max_ends[node_id] = max_ends

    def nodes(self) -> Sequence[int]:
        """Node ids this distribution places work on."""
        return tuple(self._starts)

    def clashes(self, event: BackgroundEvent,
                executed_before: Optional[int] = None) -> bool:
        """Equivalent of ``invalidates(event, distribution, ...)``."""
        starts = self._starts.get(event.node_id)
        if starts is None:
            return False
        # Only placements starting before the event's end can overlap.
        index = bisect.bisect_left(starts, event.end)
        if index == 0:
            return False
        floor = event.start
        if executed_before is not None and executed_before > floor:
            floor = executed_before
        # Overlap (and, with `executed_before`, still-running) iff some
        # such placement ends after both the event start and the
        # execution frontier — i.e. the prefix max does.
        return self._max_ends[event.node_id][index - 1] > floor


@dataclass
class TimeToLiveResult:
    """Outcome of replaying environment drift against one strategy."""

    #: Slots from strategy activation until no variant remained
    #: (the horizon when the strategy survived the whole replay).
    ttl: int
    #: True when some variant was still alive at the horizon.
    survived: bool
    #: How many times the active schedule had to be switched.
    switches: int
    #: The variant active at the end (None when the strategy died).
    final: Optional[SupportingSchedule]


def strategy_time_to_live(strategy: Strategy,
                          events: Sequence[BackgroundEvent],
                          horizon: int,
                          min_level: float = 0.0) -> TimeToLiveResult:
    """Replay drift events and measure the strategy's time-to-live.

    The cheapest admissible variant covering ``min_level`` (the
    environment's forecast estimation level — a variant planned below it
    reserves too little to be usable) is activated first.  The replay
    maintains the *alive* set incrementally: variants are bucketed by
    the nodes they place work on, so each arriving event only consults
    the variants that actually touch its node (each in O(log
    placements-on-node) through the per-node interval index), the set
    always equals the variants consistent with the full history, and a
    fallback switch never rescans past events.  A switch is counted
    only when the *active* schedule dies.

    Events replay in deterministic order ``(arrival, node_id, start)``
    — simultaneous arrivals do not reorder across runs or platforms.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if not 0.0 <= min_level <= 1.0:
        raise ValueError(f"min_level must lie in [0, 1], got {min_level}")

    alive = strategy.covering_schedules(min_level)
    if not alive:
        # Nothing covers the forecast: fall back to whatever exists
        # (the metascheduler would rather run optimistically than not).
        alive = list(strategy.admissible_schedules())
    if not alive:
        return TimeToLiveResult(ttl=0, survived=False, switches=0, final=None)
    indexes = {id(schedule): _NodeIntervalIndex(schedule.distribution)
               for schedule in alive}
    active = min(alive, key=lambda s: (s.outcome.cost, s.outcome.makespan))

    # Bucket variants by the nodes they touch: an event can only kill
    # the variants placing work on its node, so the replay visits those
    # instead of the whole alive set (dead variants are tombstoned, and
    # the rare fallback switch filters the original order-preserving
    # list — min() then keeps the historical first-of-equals choice).
    by_node: dict[int, list[SupportingSchedule]] = {}
    for schedule in alive:
        for node_id in indexes[id(schedule)].nodes():
            by_node.setdefault(node_id, []).append(schedule)
    dead: set[int] = set()
    remaining = len(alive)

    switches = 0
    for event in sorted(events,
                        key=lambda e: (e.arrival, e.node_id, e.start)):
        if event.arrival >= horizon:
            break
        active_died = False
        for candidate in by_node.get(event.node_id, ()):
            if id(candidate) in dead:
                continue
            if indexes[id(candidate)].clashes(event):
                dead.add(id(candidate))
                remaining -= 1
                if candidate is active:
                    active_died = True
        if not active_died:
            continue
        if not remaining:
            return TimeToLiveResult(ttl=event.arrival, survived=False,
                                    switches=switches, final=None)
        # Prefer the cheapest surviving variant, like the initial choice.
        active = min((s for s in alive if id(s) not in dead),
                     key=lambda s: (s.outcome.cost, s.outcome.makespan))
        switches += 1

    return TimeToLiveResult(ttl=horizon, survived=True, switches=switches,
                            final=active)
