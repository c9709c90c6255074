"""Service specifications, partitioning, and replica placement.

Neptune (paper §3.1 and Figure 1) aggregates *partitioned, replicated*
services: e.g. a photo album service over an image store partitioned in
two groups, each group replicated on several nodes. A service access is
"fulfilled exclusively on one data partition", so the load balancer's
candidate set is the replica group of the partition being accessed.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ServiceSpec", "PartitionMap"]


@dataclass(frozen=True)
class ServiceSpec:
    """A partitionable, replicated service.

    ``n_partitions`` data partitions, each hosted on ``replication``
    nodes. ``n_partitions=1`` describes a fully replicated service (like
    the paper's discussion-group example).
    """

    name: str
    n_partitions: int = 1
    replication: int = 1

    def __post_init__(self) -> None:
        if self.n_partitions < 1:
            raise ValueError(f"n_partitions must be >= 1, got {self.n_partitions}")
        if self.replication < 1:
            raise ValueError(f"replication must be >= 1, got {self.replication}")


class PartitionMap:
    """Placement of (service, partition) replica groups onto nodes."""

    def __init__(self) -> None:
        self._placement: dict[tuple[str, int], list[int]] = {}

    def place(self, spec: ServiceSpec, node_ids: list[int]) -> None:
        """Assign replica groups round-robin over ``node_ids``.

        Partition ``p`` of the service lands on ``replication``
        consecutive nodes starting at offset ``p * replication`` (mod
        pool size), mirroring Figure 1's striped layout. Raises if the
        pool is smaller than one replica group.
        """
        if len(node_ids) < spec.replication:
            raise ValueError(
                f"{spec.name}: replication {spec.replication} exceeds pool "
                f"of {len(node_ids)} nodes"
            )
        pool = len(node_ids)
        for partition in range(spec.n_partitions):
            start = (partition * spec.replication) % pool
            group = [node_ids[(start + r) % pool] for r in range(spec.replication)]
            self._placement[(spec.name, partition)] = group

    def assign(self, service: str, partition: int, node_ids: list[int]) -> None:
        """Explicitly assign a replica group."""
        if not node_ids:
            raise ValueError("replica group cannot be empty")
        if len(set(node_ids)) != len(node_ids):
            raise ValueError(f"duplicate nodes in replica group: {node_ids}")
        self._placement[(service, partition)] = list(node_ids)

    def replicas(self, service: str, partition: int = 0) -> list[int]:
        """Replica node ids hosting ``(service, partition)``."""
        try:
            return list(self._placement[(service, partition)])
        except KeyError:
            raise KeyError(f"no placement for {service!r} partition {partition}") from None
