"""Canonical compound-job shapes.

Deterministic builders for the DAG families that recur in scheduling
literature — handy as test fixtures and for studying how the critical
works method behaves on known structures (a pure chain has exactly one
critical work; a fork-join of width *w* has *w* competing ones).
"""

from __future__ import annotations

from typing import Optional

from ..core.job import DataTransfer, Job, Task

__all__ = ["chain_job", "fork_join_job", "diamond_job", "intree_job"]


def _task(index: int, base_time: int, volume_rate: float,
          spread: float) -> Task:
    best = base_time
    worst = max(best, round(best * spread))
    return Task(f"P{index}", volume=round(best * volume_rate, 2),
                best_time=best, worst_time=worst)


def chain_job(length: int = 4, base_time: int = 2,
              transfer_time: int = 1, volume_rate: float = 10.0,
              spread: float = 1.5, deadline: Optional[int] = None,
              job_id: str = "chain") -> Job:
    """A pure pipeline P1 → P2 → ... → Pn (one critical work)."""
    if length < 1:
        raise ValueError(f"length must be positive, got {length}")
    tasks = [_task(i + 1, base_time, volume_rate, spread)
             for i in range(length)]
    transfers = [
        DataTransfer(f"D{i + 1}", f"P{i + 1}", f"P{i + 2}",
                     base_time=transfer_time)
        for i in range(length - 1)
    ]
    job = Job(job_id, tasks, transfers, deadline=0)
    return Job(job_id, tasks, transfers,
               deadline=deadline if deadline is not None
               else 2 * job.minimal_makespan(1.0))


def fork_join_job(width: int = 3, base_time: int = 2,
                  transfer_time: int = 1, volume_rate: float = 10.0,
                  spread: float = 1.5, deadline: Optional[int] = None,
                  job_id: str = "forkjoin") -> Job:
    """Source → *width* parallel branches → sink (*width* critical works)."""
    if width < 1:
        raise ValueError(f"width must be positive, got {width}")
    tasks = [_task(1, base_time, volume_rate, spread)]
    transfers: list[DataTransfer] = []
    for branch in range(width):
        index = branch + 2
        tasks.append(_task(index, base_time, volume_rate, spread))
        transfers.append(DataTransfer(f"Din{branch + 1}", "P1",
                                      f"P{index}",
                                      base_time=transfer_time))
    sink = width + 2
    tasks.append(_task(sink, base_time, volume_rate, spread))
    for branch in range(width):
        transfers.append(DataTransfer(f"Dout{branch + 1}",
                                      f"P{branch + 2}", f"P{sink}",
                                      base_time=transfer_time))
    job = Job(job_id, tasks, transfers, deadline=0)
    return Job(job_id, tasks, transfers,
               deadline=deadline if deadline is not None
               else 2 * job.minimal_makespan(1.0))


def diamond_job(base_time: int = 2, transfer_time: int = 1,
                volume_rate: float = 10.0, spread: float = 1.5,
                deadline: Optional[int] = None,
                job_id: str = "diamond") -> Job:
    """The four-task diamond (fork-join of width 2)."""
    return fork_join_job(width=2, base_time=base_time,
                         transfer_time=transfer_time,
                         volume_rate=volume_rate, spread=spread,
                         deadline=deadline, job_id=job_id)


def intree_job(depth: int = 2, base_time: int = 2,
               transfer_time: int = 1, volume_rate: float = 10.0,
               spread: float = 1.5, deadline: Optional[int] = None,
               job_id: str = "intree") -> Job:
    """A complete binary in-tree: 2^depth leaves reduce to one root.

    The classic reduction/aggregation workload: every internal task
    consumes its two children's outputs.
    """
    if depth < 1:
        raise ValueError(f"depth must be positive, got {depth}")
    tasks: list[Task] = []
    transfers: list[DataTransfer] = []
    index = 0

    # ``build`` reaches itself through its closure cell; the ``finally``
    # empties the cell so no reference cycle outlives the call.
    def build(level: int) -> str:
        """Create the subtree reducing into one task; returns its id."""
        nonlocal index
        index += 1
        task_index = index
        tasks.append(_task(task_index, base_time, volume_rate, spread))
        task_id = f"P{task_index}"
        if level > 0:
            for child in range(2):
                child_id = build(level - 1)
                transfers.append(DataTransfer(
                    f"D{child_id}-{task_id}", child_id, task_id,
                    base_time=transfer_time))
        return task_id

    try:
        build(depth)
    finally:
        del build
    job = Job(job_id, tasks, transfers, deadline=0)
    return Job(job_id, tasks, transfers,
               deadline=deadline if deadline is not None
               else 2 * job.minimal_makespan(1.0))
