"""Heterogeneous processor nodes of a virtual organization.

Section 4 of the paper groups nodes by relative performance: a "fast"
group at 0.66–1.0, a medium group at 0.33–0.66, and "slow" nodes at 0.33.
Fig. 2 instead uses four node *types* with performance 1, 1/2, 1/3, 1/4
(hence the estimate rows ``Ti1..Ti4``).  Both views are supported: every
node carries its own performance factor plus a group label derived from
the paper's thresholds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .units import scale_duration

__all__ = [
    "NodeGroup",
    "classify_performance",
    "ProcessorNode",
    "ResourcePool",
    "FIG2_TYPE_PERFORMANCES",
]

#: Performance factors of the four node types in the Fig. 2 example
#: (estimate rows Ti1..Ti4 scale as 1x, 2x, 3x, 4x the base time).
FIG2_TYPE_PERFORMANCES: tuple[float, ...] = (1.0, 1 / 2, 1 / 3, 1 / 4)


class NodeGroup(enum.Enum):
    """Performance classes from Section 4 of the paper."""

    FAST = "fast"      # relative performance 0.66 .. 1.0
    MEDIUM = "medium"  # relative performance 0.33 .. 0.66
    SLOW = "slow"      # relative performance 0.33

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Group boundary between slow and medium nodes (paper: slow = 0.33).
_SLOW_CEILING = 0.34
#: Group boundary between medium and fast nodes (paper: fast starts at 0.66).
_FAST_FLOOR = 0.66


def classify_performance(performance: float) -> NodeGroup:
    """Map a relative performance factor onto the paper's node groups."""
    if not 0 < performance <= 1:
        raise ValueError(
            f"relative performance must lie in (0, 1], got {performance}")
    if performance >= _FAST_FLOOR:
        return NodeGroup.FAST
    if performance >= _SLOW_CEILING:
        return NodeGroup.MEDIUM
    return NodeGroup.SLOW


@dataclass(frozen=True)
class ProcessorNode:
    """One processor node of the distributed environment.

    Parameters
    ----------
    node_id:
        Unique identifier within the resource pool.
    performance:
        Relative performance in (0, 1]; 1.0 is the reference (fastest) node.
    type_index:
        1-based node type used by estimate tables (1 = fastest type).
    domain:
        Administrative domain the node belongs to (one per job manager in
        the Fig. 1 hierarchy).
    price_rate:
        Cost in conventional quota units per busy slot; defaults to the
        performance factor so faster nodes cost proportionally more.
    """

    node_id: int
    performance: float
    type_index: int = 1
    domain: str = "default"
    price_rate: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0 < self.performance <= 1:
            raise ValueError(
                f"performance must lie in (0, 1], got {self.performance}")
        if self.type_index < 1:
            raise ValueError(
                f"type_index must be >= 1, got {self.type_index}")
        if self.price_rate is None:
            object.__setattr__(self, "price_rate", self.performance)
        elif self.price_rate < 0:
            raise ValueError(
                f"price_rate must be non-negative, got {self.price_rate}")

    @property
    def group(self) -> NodeGroup:
        """The paper's performance class of this node."""
        return classify_performance(self.performance)

    def duration_of(self, base_time: float) -> int:
        """Slots needed on this node for ``base_time`` reference slots."""
        return scale_duration(base_time, self.performance)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"node{self.node_id}(perf={self.performance:.2f})"


@dataclass
class ResourcePool:
    """An ordered collection of processor nodes with lookup helpers."""

    nodes: list[ProcessorNode] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for node in self.nodes:
            if node.node_id in seen:
                raise ValueError(f"duplicate node_id {node.node_id}")
            seen.add(node.node_id)
        self._by_id = {node.node_id: node for node in self.nodes}
        self._node_ids = tuple(self._by_id)

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[ProcessorNode]:
        return iter(self.nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._by_id

    def node_ids(self) -> tuple[int, ...]:
        """All node ids in pool order (the epoch-vector axis)."""
        return self._node_ids

    def node(self, node_id: int) -> ProcessorNode:
        """Return the node with the given id."""
        try:
            return self._by_id[node_id]
        except KeyError:
            raise KeyError(f"no node with id {node_id}") from None

    def add(self, node: ProcessorNode) -> None:
        """Append a node to the pool."""
        if node.node_id in self._by_id:
            raise ValueError(f"duplicate node_id {node.node_id}")
        self.nodes.append(node)
        self._by_id[node.node_id] = node
        self._node_ids += (node.node_id,)

    def by_group(self, group: NodeGroup) -> list[ProcessorNode]:
        """All nodes in a performance class."""
        return [node for node in self.nodes if node.group is group]

    def by_type(self, type_index: int) -> list[ProcessorNode]:
        """All nodes of an estimate-table type."""
        return [node for node in self.nodes if node.type_index == type_index]

    def by_domain(self, domain: str) -> list[ProcessorNode]:
        """All nodes managed by one domain's job manager."""
        return [node for node in self.nodes if node.domain == domain]

    def domains(self) -> list[str]:
        """Distinct domain names, in first-appearance order."""
        seen: list[str] = []
        for node in self.nodes:
            if node.domain not in seen:
                seen.append(node.domain)
        return seen

    def fastest(self) -> ProcessorNode:
        """The node with the highest performance (ties: lowest id)."""
        if not self.nodes:
            raise ValueError("empty resource pool")
        return max(self.nodes, key=lambda n: (n.performance, -n.node_id))

    def sorted_by_performance(self, descending: bool = True
                              ) -> list[ProcessorNode]:
        """Nodes ordered by performance (stable on node id)."""
        return sorted(self.nodes,
                      key=lambda n: (-n.performance if descending
                                     else n.performance, n.node_id))

    @classmethod
    def fig2_pool(cls) -> "ResourcePool":
        """The four-type pool of the paper's Fig. 2 worked example."""
        nodes = [
            ProcessorNode(node_id=index + 1, performance=perf,
                          type_index=index + 1)
            for index, perf in enumerate(FIG2_TYPE_PERFORMANCES)
        ]
        return cls(nodes)

    @classmethod
    def from_performances(cls, performances: Sequence[float],
                          domain: str = "default") -> "ResourcePool":
        """Build a pool from raw performance factors (ids are 1-based).

        Type indices are assigned by descending performance rank of the
        distinct factors, matching the estimate-table convention.
        """
        distinct = sorted(set(performances), reverse=True)
        type_of = {perf: rank + 1 for rank, perf in enumerate(distinct)}
        nodes = [
            ProcessorNode(node_id=index + 1, performance=perf,
                          type_index=type_of[perf], domain=domain)
            for index, perf in enumerate(performances)
        ]
        return cls(nodes)
