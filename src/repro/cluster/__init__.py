"""Cluster substrate: nodes, services, availability, failures.

This models the inside of a Neptune-style service cluster (paper §3.1):
a flat architecture in which any node can act as an internal server
and/or client. Servers hold a FIFO request queue and a worker pool;
clients discover servers through the service availability subsystem
(publish/subscribe channel with soft state) and choose one through a
load balancing policy (:mod:`repro.core`).

:class:`~repro.cluster.system.ServiceCluster` wires everything together
and runs the request lifecycle; it is also the *policy context* object
handed to load balancers.
"""

from repro.cluster.request import Request
from repro.cluster.server import ServerNode
from repro.cluster.client import ClientNode
from repro.cluster.service import PartitionMap, ServiceSpec
from repro.cluster.availability import (
    AvailabilityChannel,
    ServiceMappingTable,
    ServicePublisher,
)
from repro.cluster.failures import (
    ChaosInjector,
    ChaosSpec,
    FailureInjector,
    resilience_counters,
)
from repro.cluster.reliability import (
    CircuitBreaker,
    ReliabilityEngine,
    ReliabilityPolicy,
)
from repro.cluster.overload import OverloadController, OverloadPolicy
from repro.cluster.dispatcher import Dispatcher, DispatcherPolicy, DispatcherTier
from repro.cluster.autoscaler import Autoscaler, AutoscalerPolicy
from repro.cluster.system import ClusterMetrics, ServiceCluster

__all__ = [
    "AvailabilityChannel",
    "ClientNode",
    "ChaosInjector",
    "ChaosSpec",
    "ClusterMetrics",
    "FailureInjector",
    "resilience_counters",
    "CircuitBreaker",
    "Autoscaler",
    "AutoscalerPolicy",
    "Dispatcher",
    "DispatcherPolicy",
    "DispatcherTier",
    "OverloadController",
    "OverloadPolicy",
    "PartitionMap",
    "ReliabilityEngine",
    "ReliabilityPolicy",
    "Request",
    "ServerNode",
    "ServiceCluster",
    "ServiceMappingTable",
    "ServicePublisher",
    "ServiceSpec",
]
