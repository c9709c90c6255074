"""Empirical full-load calibration (paper §4).

"Due to various system overhead, we notice that the server load level
cannot simply be the mean service time divided by the mean arrival
interval. For each workload on a single-server setting, we consider the
server reach full load (100%) when around 98% of client requests were
successfully completed within two seconds. Then we use this as the
basis to calculate the client request rate for various server load
levels."

This matters enormously for the shape of Figure 6: for the
near-deterministic Fine-Grain trace the 98%-under-2s point sits near
nominal utilization 1.0, so "90% busy" leaves almost no CPU headroom
and polling overhead pushes servers toward saturation; for the
heavy-tailed Medium-Grain trace the 2 s tail criterion trips at much
lower nominal utilization, so "90% busy" carries a large hidden
headroom and tolerates polling overhead — which is why poll size 8
hurts the Fine-Grain trace but not the Medium-Grain trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.latency import PAPER_NET, PaperNetworkConstants
from repro.prototype.overhead import PrototypeOverheadModel
from repro.sim.rng import RngHub
from repro.workload.workloads import Workload

__all__ = ["FullLoadCalibration", "calibrate_full_load"]


@dataclass(frozen=True)
class FullLoadCalibration:
    """Result of the 98%-under-2s bisection.

    ``nominal_rho_at_full_load`` is the single-server nominal
    utilization (mean service / mean interarrival) the rule declares to
    be "100% load". Experiment load levels multiply into it:
    ``nominal(load) = load * nominal_rho_at_full_load``.
    """

    workload_name: str
    nominal_rho_at_full_load: float
    achieved_completion_fraction: float
    threshold: float
    target_fraction: float

    def nominal(self, load: float) -> float:
        """Nominal per-server utilization for a requested load level."""
        if load <= 0:
            raise ValueError(f"load must be > 0, got {load}")
        return load * self.nominal_rho_at_full_load


def _single_server_responses(
    gaps: np.ndarray, services: np.ndarray, one_way: float
) -> np.ndarray:
    """Response times on one FIFO server, ``one_way`` away each way.

    With one server and no polls a prototype ``ServiceCluster`` run *is*
    this Lindley recursion; the float operations are the event engine's,
    in its order, so the array equals ``ClusterMetrics.response_time``.
    """
    responses = []
    free = 0.0
    for arrival, service in zip(np.cumsum(gaps).tolist(), services.tolist()):
        at_server = arrival + one_way
        begin = at_server if at_server > free else free
        free = begin + service
        responses.append((free + one_way) - arrival)
    return np.array(responses)


def calibrate_full_load(
    workload: Workload,
    overhead: PrototypeOverheadModel | None = None,
    seed: int = 0,
    n_requests: int = 6000,
    threshold: float = 2.0,
    target_fraction: float = 0.98,
    constants: PaperNetworkConstants = PAPER_NET,
    rho_bounds: tuple[float, float] = (0.40, 1.02),
    iterations: int = 12,
) -> FullLoadCalibration:
    """Bisect the nominal utilization at which the 98%-rule trips.

    Every probe sees the same request stream, so the completion
    fraction is a deterministic, effectively monotone function of the
    nominal rate and bisection is well-posed.
    """
    if not 0 < target_fraction < 1:
        raise ValueError(f"target_fraction must be in (0,1), got {target_fraction}")
    overhead = overhead or PrototypeOverheadModel()
    lo, hi = rho_bounds
    if not 0 < lo < hi:
        raise ValueError(f"invalid rho_bounds {rho_bounds}")

    # Common random numbers: one request stream, rescaled per probe.
    gaps, services = workload.generate(RngHub(seed).stream("calibration.workload"), n_requests)
    mean_service, mean_gap = float(services.mean()), float(gaps.mean())
    services = services + overhead.request_cpu_overhead
    warmup = int(n_requests * 0.1)  # as ClusterMetrics.measurement_slice

    def fraction(rho: float) -> float:
        """Share of post-warm-up requests within ``threshold`` on 1 server."""
        responses = _single_server_responses(
            gaps * ((mean_service / rho) / mean_gap), services, constants.request_one_way
        )
        return float((responses[warmup:] <= threshold).mean())

    # The fraction decreases with rho. If even the upper bound meets the
    # target, full load is at (or beyond) the bound.
    at_hi = fraction(hi)
    if at_hi >= target_fraction:
        return FullLoadCalibration(workload.name, hi, at_hi, threshold, target_fraction)
    if fraction(lo) < target_fraction:
        raise RuntimeError(
            f"workload {workload.name!r} misses the {target_fraction:.0%} "
            f"criterion even at rho={lo}; widen rho_bounds"
        )
    achieved = float("nan")
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        achieved = fraction(mid)
        if achieved >= target_fraction:
            lo = mid
        else:
            hi = mid
    return FullLoadCalibration(workload.name, lo, achieved, threshold, target_fraction)
