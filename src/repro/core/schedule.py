"""Schedules: task placements and whole-job distributions.

A *distribution* (the paper's term) is one supporting schedule of a
strategy::

    Distribution := <<Task 1/Allocation i, [Start 1, End 1]>,
                     ..., <Task N/Allocation j, [Start N, End N]>>

where each allocation names a processor node and ``[Start, End)`` is the
wall time reserved in the local batch-job management system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .job import DataTransfer, Job
from .resources import ProcessorNode, ResourcePool

__all__ = ["Placement", "Distribution", "ScheduleViolation",
           "booking_tag", "check_distribution"]

#: Signature of a transfer-time model: slots needed for a transfer whose
#: endpoints run on the given (possibly identical) nodes.
TransferTimeFn = Callable[[DataTransfer, ProcessorNode, ProcessorNode], int]


def neutral_transfer_time(transfer: DataTransfer, src_node: ProcessorNode,
                          dst_node: ProcessorNode) -> int:
    """Default transfer model: free on one node, base time across nodes."""
    if src_node.node_id == dst_node.node_id:
        return 0
    return transfer.base_time


def booking_tag(job_id: str, task_id: str) -> str:
    """The calendar tag a committed placement is booked under.

    ``<job_id>:<task_id>``; with an empty ``task_id`` it is the prefix
    every booking of the job shares (what releasing the job matches).
    """
    return f"{job_id}:{task_id}"


@dataclass(frozen=True)
class Placement:
    """One task's allocation: a node plus a wall-time interval."""

    task_id: str
    node_id: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"start must be non-negative, got {self.start}")
        if self.end <= self.start:
            raise ValueError(
                f"empty or inverted interval [{self.start}, {self.end})")

    @property
    def duration(self) -> int:
        """Reserved wall time — the real load time ``T_i`` of the cost CF."""
        return self.end - self.start

    def overlaps(self, other: "Placement") -> bool:
        """True if the two placements clash on the same node."""
        return (self.node_id == other.node_id
                and self.start < other.end and other.start < self.end)


@dataclass(frozen=True)
class ScheduleViolation:
    """One reason a distribution is not a valid schedule."""

    kind: str
    task_id: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}({self.task_id}): {self.detail}"


class Distribution:
    """A complete schedule variant for one job.

    Parameters
    ----------
    job_id:
        The job this distribution schedules.
    placements:
        One placement per task of the job.
    scenario:
        Free-form label of the environment event / estimation level this
        supporting schedule covers (set by the strategy generator).
    """

    def __init__(self, job_id: str, placements: Iterable[Placement],
                 scenario: str = ""):
        self.job_id = job_id
        self.scenario = scenario
        self.placements: dict[str, Placement] = {}
        for placement in placements:
            if placement.task_id in self.placements:
                raise ValueError(
                    f"duplicate placement for task {placement.task_id!r}")
            self.placements[placement.task_id] = placement

    def __len__(self) -> int:
        return len(self.placements)

    def __iter__(self) -> Iterator[Placement]:
        return iter(self.placements.values())

    def __contains__(self, task_id: str) -> bool:
        return task_id in self.placements

    def placement(self, task_id: str) -> Placement:
        """The placement of one task."""
        try:
            return self.placements[task_id]
        except KeyError:
            raise KeyError(f"no placement for task {task_id!r}") from None

    @property
    def makespan(self) -> int:
        """Completion time of the last task."""
        if not self.placements:
            return 0
        return max(p.end for p in self.placements.values())

    @property
    def start_time(self) -> int:
        """Start time of the earliest task."""
        if not self.placements:
            return 0
        return min(p.start for p in self.placements.values())

    def node_ids(self) -> set[int]:
        """All nodes this distribution reserves."""
        return {p.node_id for p in self.placements.values()}

    def by_node(self) -> dict[int, list[Placement]]:
        """Placements grouped by node, each group in start order."""
        groups: dict[int, list[Placement]] = {}
        for placement in self.placements.values():
            groups.setdefault(placement.node_id, []).append(placement)
        for group in groups.values():
            group.sort(key=lambda p: p.start)
        return groups

    def is_admissible(self, deadline: int) -> bool:
        """True if the job completes within its fixed completion time."""
        return self.makespan <= deadline

    def internal_overlaps(self) -> list[tuple[Placement, Placement]]:
        """Pairs of this distribution's own placements that clash."""
        clashes: list[tuple[Placement, Placement]] = []
        for group in self.by_node().values():
            for first, second in zip(group, group[1:]):
                if first.overlaps(second):
                    clashes.append((first, second))
        return clashes

    def replace(self, placement: Placement) -> "Distribution":
        """A copy with one task's placement substituted."""
        if placement.task_id not in self.placements:
            raise KeyError(f"no placement for task {placement.task_id!r}")
        updated = dict(self.placements)
        updated[placement.task_id] = placement
        return Distribution(self.job_id, updated.values(), self.scenario)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(
            f"{p.task_id}/{p.node_id}[{p.start},{p.end})"
            for p in sorted(self.placements.values(), key=lambda p: p.start))
        return f"<Distribution {self.job_id!r} {body}>"


def check_distribution(job: Job, distribution: Distribution,
                       pool: ResourcePool,
                       transfer_time: TransferTimeFn = neutral_transfer_time,
                       estimation_level: float = 0.0
                       ) -> list[ScheduleViolation]:
    """Validate a distribution against the job structure and resources.

    Checks performed:

    * every task is placed exactly once on a known node;
    * the reserved wall time covers the task's estimated duration on the
      chosen node at ``estimation_level``;
    * precedence: a consumer starts no earlier than producer end plus the
      transfer time between the chosen nodes;
    * the job deadline;
    * no two tasks of this job overlap on one node.

    Returns an empty list when the distribution is a valid schedule.
    """
    violations: list[ScheduleViolation] = []

    for task_id in job.tasks:
        if task_id not in distribution:
            violations.append(ScheduleViolation(
                "missing", task_id, "task has no placement"))
    for task_id in distribution.placements:
        if task_id not in job.tasks:
            violations.append(ScheduleViolation(
                "unknown-task", task_id, "placement for a foreign task"))

    for placement in distribution:
        if placement.task_id not in job.tasks:
            continue
        if placement.node_id not in pool:
            violations.append(ScheduleViolation(
                "unknown-node", placement.task_id,
                f"node {placement.node_id} not in pool"))
            continue
        node = pool.node(placement.node_id)
        needed = job.task(placement.task_id).duration_on(
            node.performance, estimation_level)
        if placement.duration < needed:
            violations.append(ScheduleViolation(
                "too-short", placement.task_id,
                f"reserved {placement.duration} < required {needed} "
                f"on {node}"))

    for transfer in job.transfers:
        if transfer.src not in distribution or transfer.dst not in distribution:
            continue
        src_place = distribution.placement(transfer.src)
        dst_place = distribution.placement(transfer.dst)
        if src_place.node_id not in pool or dst_place.node_id not in pool:
            continue
        lag = transfer_time(transfer, pool.node(src_place.node_id),
                            pool.node(dst_place.node_id))
        if dst_place.start < src_place.end + lag:
            violations.append(ScheduleViolation(
                "precedence", transfer.dst,
                f"starts at {dst_place.start} before {transfer.src} end "
                f"{src_place.end} + transfer {lag}"))

    if job.deadline and distribution.makespan > job.deadline:
        violations.append(ScheduleViolation(
            "deadline", job.job_id,
            f"makespan {distribution.makespan} > deadline {job.deadline}"))

    for first, second in distribution.internal_overlaps():
        violations.append(ScheduleViolation(
            "overlap", second.task_id,
            f"clashes with {first.task_id} on node {first.node_id}"))

    return violations
