"""The sharded batch engine: 10^5+ online arrivals, planned per shard.

The scaling lane of the job-flow layer.  Arrivals are grouped into
fixed-width *windows*; each window is planned shard-by-shard against a
frozen snapshot of the environment (the window's start state) and then
committed in arrival order against the live calendars, with the flow
layer's one commit discipline (:func:`~repro.flow.metascheduler.
choose_commit`: variant fallback, then bounded replans) resolving
whatever drifted inside the window.  Shards partition the VO's
*nodes* (:func:`~repro.flow.sharding.partition_domains` assigns whole
domains), so two shards can never race for a slot — cross-shard
conflicts are structurally impossible, and arbitration is only ever
needed between same-window jobs of one shard.

Two planning lanes produce bit-identical results (differential-tested
in ``tests/flow/test_sharded.py``):

* **in-process** (``workers=1``, the default and the benchmark lane) —
  shards are planned one after another inside the parent; concurrency
  is logical (each job only ever meets its own shard's domains, which
  is where the speedup at ``--shards N`` comes from);
* **process fan-out** (``workers>1``) — one
  :class:`~concurrent.futures.ProcessPoolExecutor` task per shard per
  window.  Workers regenerate their jobs from arrival indices (the
  fork-streams discipline: ``streams.fork("jobs", index)`` is
  reproducible across processes), plan against *replica* calendars,
  and ship strategies back; the parent merges in shard order and
  commits in arrival order, so any worker count is bit-identical to
  ``workers=1``.  Replicas sync through shared memory plus a delta
  log: read-only gap tables ship as zero-copy
  :class:`~repro.core.placement.SharedGapExport` views (rebuilt only
  when the per-shard log of committed placements outgrows
  ``sync_interval`` — the epoch change), and between exports workers
  catch up by replaying only the log entries past their applied
  offset, so the protocol is correct for any task→process assignment.

Worker-side perf counters are not dropped: each task returns a
:meth:`~repro.perf.registry.PerfRegistry.delta` snapshot that the
parent :meth:`~repro.perf.registry.PerfRegistry.merge`-s, so
``repro perf`` reports the whole fleet.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..core.job import Job
from ..core.resources import ProcessorNode, ResourcePool
from ..core.strategy import Strategy, StrategyType
from ..grid.environment import GridEnvironment
from ..perf import PERF
from ..sim import RandomStreams
from .metascheduler import choose_commit
from .sharding import ShardPlanner, partition_domains, replica_calendars

__all__ = ["ShardedConfig", "ShardedOutcome", "ShardedSimulation"]


@dataclass(frozen=True)
class ShardedConfig:
    """Parameters of a sharded batch run."""

    #: Total arrivals to plan and commit.
    jobs: int = 1000
    #: Mean inter-arrival gap (slots); at 10^5 jobs this is what sets
    #: the schedule span, so keep it small.
    mean_interarrival: float = 0.05
    #: Slots per commit window.  All jobs arriving inside one window
    #: are planned against the window's start state with release at the
    #: window end, then committed in arrival order.
    window: int = 4
    #: Domain shards (the semantic knob: each arrival is planned only
    #: against its shard's domains).  1 = the whole VO per job.
    shards: int = 1
    #: Planning processes (the transport knob: any value is
    #: bit-identical to 1).  1 = in-process lane, no fan-out.
    workers: int = 1
    #: Background utilization pre-loaded before the run.
    busy_fraction: float = 0.2
    background_burst: int = 6
    #: Background horizon; None derives one covering the arrival span.
    horizon: Optional[int] = None
    #: Strategy families assigned round-robin to arrivals.  S1/S2 by
    #: default: their commits rebind in O(variants), while S3's
    #: rebind rebuilds the aggregated job — poison at this scale.
    stypes: Tuple[StrategyType, ...] = (StrategyType.S1, StrategyType.S2)
    #: Replans allowed when every variant of a same-window neighbour's
    #: plan was stolen at commit time (intra-shard arbitration).
    conflict_retries: int = 1
    #: Committed placements a shard's delta log may accumulate before
    #: the parent re-exports its gap tables to shared memory
    #: (worker lane only).
    sync_interval: int = 2048

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be positive, got {self.jobs}")
        if self.mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        if self.window < 1:
            raise ValueError(f"window must be positive, got {self.window}")
        if self.shards < 1:
            raise ValueError(f"shards must be positive, got {self.shards}")
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if not self.stypes:
            raise ValueError("at least one strategy family is required")
        if self.conflict_retries < 0:
            raise ValueError(
                f"conflict_retries must be >= 0, got {self.conflict_retries}")
        if self.sync_interval < 1:
            raise ValueError(
                f"sync_interval must be positive, got {self.sync_interval}")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError(f"horizon must be positive, got {self.horizon}")


@dataclass
class ShardedOutcome:
    """Accounting for one arrival through the sharded engine."""

    job_id: str
    index: int
    stype: StrategyType
    shard: int
    committed: bool
    #: "", or why not: "inadmissible" / "conflict".
    reason: str = ""
    domain: Optional[str] = None
    cost: Optional[float] = None
    makespan: Optional[int] = None
    #: Variant fallbacks tried at commit time (reallocation mechanism).
    reallocations: int = 0
    #: Full replans after every variant was stolen (arbitration).
    replans: int = 0


# ----------------------------------------------------------------------
# Worker side (module-level so the pool can pickle it)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _WorkerSpec:
    """Everything a worker process needs to mirror the parent's shards."""

    nodes: Tuple[ProcessorNode, ...]
    partition: Tuple[Tuple[str, ...], ...]
    seed: int
    stypes: Tuple[StrategyType, ...]
    job_factory: Optional[Callable[..., Job]]


class _ShardReplica:
    """A worker's mirror of one shard: planner plus replica calendars."""

    def __init__(self, planner: ShardPlanner) -> None:
        self.planner = planner
        self.calendars: Dict[int, Any] = {}
        #: Which export generation the calendars were rebuilt from
        #: (-1: never synced).
        self.export_generation = -1
        #: Absolute delta-log offset already applied on top.
        self.applied = 0


#: Per-process worker state, set up once by the pool initializer.
_WORKER_STATE: dict[str, Any] = {}


def _init_shard_worker(spec: _WorkerSpec) -> None:
    """Process-pool initializer: build the pool and empty replicas."""
    pool = ResourcePool(list(spec.nodes))
    # Written once by the pool initializer before any task runs, and
    # only ever read within this process — the sanctioned per-process
    # worker-state pattern.
    _WORKER_STATE["spec"] = spec  # lint: shared-state — see above
    _WORKER_STATE["pool"] = pool  # lint: shared-state — see above
    _WORKER_STATE["replicas"] = {}  # lint: shared-state — see above


def _sync_replica(shard_id: int, sync: tuple) -> _ShardReplica:
    """Bring this process's replica of one shard up to date.

    ``sync`` is ``(generation, handle, export_offset, pending,
    total_offset)``: a replica on an older export generation rebuilds
    its calendars from the shared-memory gap tables (bulk O(n) loads
    over zero-copy views, closed right after), then every replica
    replays just the ``pending`` delta entries past its own applied
    offset.  Any task→process assignment converges to the same
    calendar content — the parent's state as of the window start.
    """
    from ..core.placement import attach_gap_tables

    generation, handle, export_offset, pending, total_offset = sync
    replicas: Dict[int, _ShardReplica] = _WORKER_STATE["replicas"]
    replica = replicas.get(shard_id)
    if replica is None:
        spec: _WorkerSpec = _WORKER_STATE["spec"]
        replica = _ShardReplica(ShardPlanner(
            shard_id, spec.partition[shard_id], _WORKER_STATE["pool"]))
        replicas[shard_id] = replica
    if replica.export_generation < generation:
        attached = attach_gap_tables(handle)
        try:
            replica.calendars = replica_calendars(attached.tables)
        finally:
            attached.close()
        replica.export_generation = generation
        replica.applied = export_offset
    for node_id, start, end in pending[replica.applied - export_offset:]:
        replica.calendars[node_id].reserve(start, end, tag="replica")
    replica.applied = total_offset
    return replica


def _plan_shard_window(task: tuple) -> tuple:
    """One worker task: plan a window's slice of one shard's jobs.

    Returns ``(shard_id, offers, perf_delta)`` where ``offers`` is
    ``[(index, domain, strategy-or-None), ...]`` in arrival order.
    Jobs are regenerated from their indices through the same fork
    discipline the parent uses, so they are bit-identical.
    """
    shard_id, release, indices, sync, collect = task
    replica = _sync_replica(shard_id, sync)
    spec: _WorkerSpec = _WORKER_STATE["spec"]
    factory = spec.job_factory
    if factory is None:
        from ..workload.generator import generate_job as factory

    base = PERF.snapshot() if collect else None
    was_enabled = PERF.enabled
    if collect:
        PERF.enable()
    try:
        streams = RandomStreams(spec.seed)
        offers: List[Tuple[int, Optional[str], Optional[Strategy]]] = []
        for index in indices:
            job = factory(streams.fork("jobs", index), index)
            stype = spec.stypes[index % len(spec.stypes)]
            offer = replica.planner.plan(job, stype, release,
                                         replica.calendars)
            if offer is None:
                offers.append((index, None, None))
            else:
                manager, strategy = offer
                offers.append((index, manager.domain, strategy))
    finally:
        if collect:
            PERF.enabled = was_enabled
    delta = PERF.delta(base) if collect else None
    return shard_id, offers, delta


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

class ShardedSimulation:
    """Windowed plan/commit of a large arrival stream over shards."""

    def __init__(self, pool: ResourcePool, seed: int = 0,
                 config: Optional[ShardedConfig] = None,
                 job_factory: Optional[Callable[..., Job]] = None,
                 policy_models=None, cost_model=None):
        """``job_factory(rng, index) -> Job`` must be picklable when
        ``workers > 1`` (see :class:`~repro.workload.generator.
        TemplateWorkload`); None uses the Section 4 generator."""
        self.pool = pool
        self.seed = seed
        self.config = config or ShardedConfig()
        self.streams = RandomStreams(seed)
        self.grid = GridEnvironment(pool)
        self.partition = partition_domains(pool.domains(),
                                           self.config.shards)
        self.planners = [
            ShardPlanner(shard_id, group, pool, policy_models, cost_model)
            for shard_id, group in enumerate(self.partition)]
        self._shard_of_node: Dict[int, int] = {
            node_id: planner.shard_id
            for planner in self.planners for node_id in planner.node_ids}
        self._job_factory = job_factory
        self.outcomes: List[ShardedOutcome] = []
        self.windows = 0
        # Worker-lane sync state, all per shard: the append-only log of
        # committed placements, the live export (generation, handle,
        # log offset at export), and the export objects for cleanup.
        self._delta_log: List[List[Tuple[int, int, int]]] = [
            [] for _ in self.planners]
        self._export_state: List[Optional[Tuple[int, Any, int]]] = [
            None for _ in self.planners]
        self._live_exports: List[Any] = [None for _ in self.planners]
        self._executor = None

    # ------------------------------------------------------------------

    def _job(self, index: int) -> Tuple[Job, StrategyType]:
        factory = self._job_factory
        if factory is None:
            from ..workload.generator import generate_job as factory
        job = factory(self.streams.fork("jobs", index), index)
        stype = self.config.stypes[index % len(self.config.stypes)]
        return job, stype

    def _arrival_windows(self) -> List[Tuple[int, List[int]]]:
        """Arrival indices grouped by window, both in ascending order."""
        rng = self.streams.stream("arrivals")
        window = self.config.window
        grouped: Dict[int, List[int]] = {}
        clock = 0.0
        for index in range(self.config.jobs):
            clock += float(rng.exponential(self.config.mean_interarrival))
            grouped.setdefault(int(clock // window), []).append(index)
        return sorted(grouped.items())

    def _derived_horizon(self, windows: List[Tuple[int, List[int]]]) -> int:
        if self.config.horizon is not None:
            return self.config.horizon
        last = windows[-1][0] + 1 if windows else 1
        return max(64, 2 * last * self.config.window)

    def run(self) -> List[ShardedOutcome]:
        """Plan and commit every arrival; returns outcomes in order."""
        config = self.config
        windows = self._arrival_windows()
        if config.busy_fraction > 0:
            self.grid.apply_background_load(
                self.streams.stream("background"), config.busy_fraction,
                self._derived_horizon(windows),
                max_burst=config.background_burst)
        self.windows = len(windows)
        try:
            if config.workers > 1:
                self._start_workers()
            for window_index, indices in windows:
                release = (window_index + 1) * config.window
                offers = self._plan_window(indices, release)
                self._commit_window(indices, release, offers)
        finally:
            self._teardown_workers()
        return self.outcomes

    # ------------------------------------------------------------------
    # Plan phase
    # ------------------------------------------------------------------

    def _shard_of(self, index: int) -> int:
        return index % len(self.planners)

    def _plan_window(self, indices: List[int], release: int
                     ) -> Dict[int, Tuple[Optional[str],
                                          Optional[Strategy], Job]]:
        """Plan a window's jobs, each against its own shard only.

        Every job is planned against the *window start* state — the
        frozen snapshot all shards share — so planning is a pure
        function of (window state, shard, job) and the lanes can only
        differ in transport, not results.
        """
        by_shard: Dict[int, List[int]] = {}
        for index in indices:
            by_shard.setdefault(self._shard_of(index), []).append(index)
        offers: Dict[int, Tuple[Optional[str], Optional[Strategy], Job]] = {}
        if self._executor is None:
            snapshot = self.grid.snapshot()
            for shard_id in sorted(by_shard):
                planner = self.planners[shard_id]
                for index in by_shard[shard_id]:
                    job, stype = self._job(index)
                    offer = planner.plan(job, stype, release, snapshot)
                    if offer is None:
                        offers[index] = (None, None, job)
                    else:
                        offers[index] = (offer[0].domain, offer[1], job)
            return offers
        collect = PERF.enabled
        tasks = [
            (shard_id, release, tuple(by_shard[shard_id]),
             self._sync_payload(shard_id), collect)
            for shard_id in sorted(by_shard)]
        for shard_id, shard_offers, delta in self._executor.map(
                _plan_shard_window, tasks):
            if delta is not None:
                PERF.merge(delta)
            for index, domain, strategy in shard_offers:
                job, _ = self._job(index)
                offers[index] = (domain, strategy, job)
        return offers

    # ------------------------------------------------------------------
    # Worker-lane sync
    # ------------------------------------------------------------------

    def _sync_payload(self, shard_id: int) -> tuple:
        """The (generation, handle, offsets, pending) for one shard.

        Re-exports the shard's gap tables to shared memory when its
        delta log outgrew ``sync_interval`` since the live export —
        the epoch change; otherwise ships only the log tail.  Called
        between windows, when no task is in flight, so a superseded
        export can be closed immediately.
        """
        from ..core.placement import SharedGapExport

        log = self._delta_log[shard_id]
        state = self._export_state[shard_id]
        if state is None or len(log) - state[2] > self.config.sync_interval:
            generation = 0 if state is None else state[0] + 1
            planner = self.planners[shard_id]
            export = SharedGapExport({
                node_id: self.grid.calendars[node_id].gap_table()
                for node_id in planner.node_ids})
            superseded = self._live_exports[shard_id]
            if superseded is not None:
                superseded.close()
            self._live_exports[shard_id] = export
            state = (generation, export.handle, len(log))
            self._export_state[shard_id] = state
        generation, handle, export_offset = state
        return (generation, handle, export_offset,
                tuple(log[export_offset:]), len(log))

    def _start_workers(self) -> None:
        from concurrent.futures import ProcessPoolExecutor

        spec = _WorkerSpec(
            nodes=tuple(self.pool.nodes),
            partition=tuple(self.partition),
            seed=self.seed,
            stypes=self.config.stypes,
            job_factory=self._job_factory)
        self._executor = ProcessPoolExecutor(
            max_workers=self.config.workers,
            initializer=_init_shard_worker, initargs=(spec,))

    def _teardown_workers(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        for shard_id, export in enumerate(self._live_exports):
            if export is not None:
                export.close()
                self._live_exports[shard_id] = None
        self._export_state = [None for _ in self.planners]

    # ------------------------------------------------------------------
    # Commit phase (the merge/arbitration seam)
    # ------------------------------------------------------------------

    def _commit_window(self, indices: List[int], release: int,
                       offers: Dict[int, Tuple[Optional[str],
                                               Optional[Strategy], Job]]
                       ) -> None:
        """Commit a planned window in arrival order against live state.

        The in-order merge: identical regardless of which lane (or how
        many workers) produced the offers.  Same-window neighbours of
        one shard may have planned overlapping slots; the reallocation
        discipline resolves that — variant fallback first, then up to
        ``conflict_retries`` live replans on the job's own shard.
        Cross-shard conflicts cannot happen (shards own disjoint
        nodes).
        """
        for index in indices:
            domain, strategy, job = offers[index]
            shard_id = self._shard_of(index)
            stype = self.config.stypes[index % len(self.config.stypes)]
            outcome = ShardedOutcome(
                job_id=job.job_id, index=index, stype=stype,
                shard=shard_id, committed=False)
            if strategy is None:
                outcome.reason = "inadmissible"
            else:
                self._commit_offer(outcome, job, stype, shard_id, domain,
                                   strategy, release)
            self.outcomes.append(outcome)

    def _commit_offer(self, outcome: ShardedOutcome, job: Job,
                      stype: StrategyType, shard_id: int,
                      domain: Optional[str], strategy: Strategy,
                      release: int) -> None:
        """:func:`~repro.flow.metascheduler.choose_commit` against the
        live calendars, then book on the grid and the shard's delta log.

        Offers are identified by domain name here (the worker lane ships
        no managers back).  A replan is arbitration: a same-window
        neighbour on this shard stole every variant, so the job replans
        at the live state, on its own shard only.
        """
        planner = self.planners[shard_id]

        def replan() -> Optional[Tuple[str, Strategy]]:
            offer = planner.plan(job, stype, release, self.grid.snapshot())
            return None if offer is None else (offer[0].domain, offer[1])

        commitment = choose_commit(self.grid, job, domain, strategy,
                                   replan, self.config.conflict_retries)
        outcome.domain = commitment.owner
        outcome.reason = commitment.reason
        outcome.reallocations = commitment.reallocations
        outcome.replans = commitment.replans
        chosen = commitment.chosen
        if chosen is not None:
            self.grid.commit_distribution(chosen.distribution)
            self._delta_log[shard_id].extend(
                (p.node_id, p.start, p.end) for p in chosen.distribution)
            outcome.committed = True
            outcome.cost = chosen.outcome.cost
            outcome.makespan = chosen.outcome.makespan

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def admission_rate(self) -> float:
        """Fraction of arrivals that got a committed schedule."""
        if not self.outcomes:
            return 0.0
        committed = sum(1 for o in self.outcomes if o.committed)
        return committed / len(self.outcomes)

    def digest(self) -> str:
        """A content hash of every schedule and outcome of the run.

        Covers each node's final reservation list (start, end, tag —
        the committed schedules themselves) and every per-job outcome,
        so two runs with equal digests placed every task identically.
        This is the equality the differential tests assert across
        worker counts and lanes.
        """
        hasher = hashlib.sha256()
        for node_id in sorted(self.grid.calendars):
            hasher.update(f"n{node_id}".encode())
            for r in self.grid.calendars[node_id].reservations:
                hasher.update(f":{r.start},{r.end},{r.tag}".encode())
        for o in self.outcomes:
            hasher.update(
                f"|{o.index},{o.job_id},{o.shard},{int(o.committed)},"
                f"{o.domain},{o.cost},{o.makespan},{o.reason},"
                f"{o.reallocations},{o.replans}".encode())
        return hasher.hexdigest()

    def stats(self, counters: Optional[Mapping[str, int]] = None
              ) -> Dict[str, Dict[str, object]]:
        """Merged per-cache statistics over every shard's context."""
        from ..core.context import merged_context_stats

        return merged_context_stats(
            [planner.context for planner in self.planners], counters)
