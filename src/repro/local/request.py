"""Resource requests: what the upper scheduling layers send down.

"Each task is executed on a single node and ... the local management
system interprets it as a job accompanied by a resource request."
(Section 1.)  A :class:`ResourceRequest` is that accompanying query,
playing the role JDL / ClassAds expressions play in the systems the
paper surveys: node count, wall time, an optional fixed reservation
window, and optional attribute constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from ..core.resources import ProcessorNode
from ..core.schedule import Placement, booking_tag
from ..workload.traces import BatchJob

__all__ = ["ResourceRequest"]


@dataclass(frozen=True)
class ResourceRequest:
    """A node/wall-time query for one task (or one independent job)."""

    request_id: str
    #: Nodes needed simultaneously (compound-job tasks use 1).
    width: int = 1
    #: Requested wall time (the reservation length).
    wall_time: int = 1
    #: Earliest acceptable start.
    earliest_start: int = 0
    #: Optional fixed start (an advance reservation at this exact slot).
    reserved_start: Optional[int] = None
    #: Latest acceptable completion (None: unconstrained).
    deadline: Optional[int] = None
    #: Minimal relative node performance (None: any node).
    min_performance: Optional[float] = None
    #: Optional requirements expression in the resource-query language
    #: (see :mod:`repro.local.query`), e.g. ``"group != 'slow'"``.
    requirements: Optional[str] = None
    owner: str = "anonymous"
    #: Free-form attributes (job id, task id, strategy type, ...).
    attributes: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be positive, got {self.width}")
        if self.wall_time < 1:
            raise ValueError(
                f"wall_time must be positive, got {self.wall_time}")
        if self.earliest_start < 0:
            raise ValueError(
                f"earliest_start must be non-negative, got "
                f"{self.earliest_start}")
        if (self.reserved_start is not None
                and self.reserved_start < self.earliest_start):
            raise ValueError(
                f"reserved_start {self.reserved_start} precedes "
                f"earliest_start {self.earliest_start}")
        if self.deadline is not None:
            finish_floor = (self.reserved_start
                            if self.reserved_start is not None
                            else self.earliest_start) + self.wall_time
            if self.deadline < finish_floor:
                raise ValueError(
                    f"deadline {self.deadline} cannot be met: earliest "
                    f"finish is {finish_floor}")
        if self.min_performance is not None and not (
                0 < self.min_performance <= 1):
            raise ValueError(
                f"min_performance must lie in (0, 1], got "
                f"{self.min_performance}")
        if self.requirements is not None:
            # Compile eagerly so malformed queries fail at build time.
            from .query import ResourceQuery

            object.__setattr__(self, "_query",
                               ResourceQuery(self.requirements))
        else:
            object.__setattr__(self, "_query", None)

    @classmethod
    def from_placement(cls, job_id: str, placement: Placement,
                       owner: str = "anonymous") -> "ResourceRequest":
        """The request a metascheduler derives from a supporting schedule:
        a width-1 advance reservation at the planned wall-time window."""
        return cls(
            request_id=booking_tag(job_id, placement.task_id),
            width=1,
            wall_time=placement.duration,
            earliest_start=placement.start,
            reserved_start=placement.start,
            owner=owner,
            attributes={"job_id": job_id, "task_id": placement.task_id,
                        "node_id": placement.node_id},
        )

    def admits(self, node: ProcessorNode) -> bool:
        """True if the node satisfies the request's constraints."""
        if (self.min_performance is not None
                and node.performance < self.min_performance):
            return False
        if self._query is not None and not self._query.matches(node):
            return False
        return True

    def to_batch_job(self, arrival: Optional[int] = None,
                     runtime: Optional[int] = None) -> BatchJob:
        """The queue-level view of this request.

        ``runtime`` is the actual runtime for simulation purposes and
        defaults to the full wall time.
        """
        actual = runtime if runtime is not None else self.wall_time
        return BatchJob(
            job_id=self.request_id,
            arrival=arrival if arrival is not None else self.earliest_start,
            width=self.width,
            runtime=actual,
            estimate=self.wall_time,
        )
