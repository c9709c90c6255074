"""Cluster substrate: nodes, services, availability, failures.

This models the inside of a Neptune-style service cluster (paper §3.1):
a flat architecture in which any node can act as an internal server
and/or client. Servers hold a FIFO request queue and a worker pool;
clients discover servers through the service availability subsystem
(publish/subscribe channel with soft state) and choose one through a
load balancing policy (:mod:`repro.core`).

:class:`~repro.cluster.system.ServiceCluster` wires the paper's cluster
together and runs the request lifecycle; it is also the *policy context*
object handed to load balancers. Each optional subsystem module's
``install`` adds that subsystem to a built cluster.
"""

from repro import exports

__all__, __getattr__, __dir__ = exports(
    __name__,
    "repro.cluster.availability:AvailabilityChannel",
    "repro.cluster.client:ClientNode",
    "repro.cluster.failures:ChaosInjector",
    "repro.cluster.failures:ChaosSpec",
    "repro.cluster.metrics:ClusterMetrics",
    "repro.cluster.failures:FailureInjector",
    "repro.cluster.failures:resilience_counters",
    "repro.cluster.reliability:CircuitBreaker",
    "repro.cluster.autoscaler:Autoscaler",
    "repro.cluster.autoscaler:AutoscalerPolicy",
    "repro.cluster.dispatcher:Dispatcher",
    "repro.cluster.dispatcher:DispatcherPolicy",
    "repro.cluster.dispatcher:DispatcherTier",
    "repro.cluster.overload:OverloadController",
    "repro.cluster.overload:OverloadPolicy",
    "repro.cluster.service:PartitionMap",
    "repro.cluster.reliability:ReliabilityEngine",
    "repro.cluster.reliability:ReliabilityPolicy",
    "repro.cluster.request:Request",
    "repro.cluster.server:ServerNode",
    "repro.cluster.system:ServiceCluster",
    "repro.cluster.availability:ServiceMappingTable",
    "repro.cluster.availability:ServicePublisher",
    "repro.cluster.service:ServiceSpec",
)
