"""Named workloads: the paper's three evaluation workloads + extensions.

A :class:`Workload` bundles an arrival process and a service-time
distribution (or a trace) and produces aligned (interarrival, service)
arrays. The experiment runner rescales arrivals to hit the target
per-server load, exactly as the paper scales its trace arrival
intervals.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

import numpy as np

from repro import locate
from repro.sim.rng import RngHub
from repro.workload.arrivals import ArrivalProcess, PoissonProcess
from repro.workload.distributions import (
    Deterministic,
    Distribution,
    Exponential,
    lognormal_from_moments,
)
from repro.workload.synthesis import (
    FINE_GRAIN_SPEC,
    MEDIUM_GRAIN_SPEC,
    TraceSpec,
    synthesize_trace,
)
from repro.workload.traces import Trace

__all__ = ["Workload", "make_workload", "available_workloads", "request_stream"]

#: Mean service time used by the paper for Poisson/Exp in the
#: multi-server experiments (Figures 3, 4, 6): 50 ms.
POISSON_EXP_MEAN_SERVICE = 50e-3


class Workload:
    """A request-stream generator.

    Either (``arrivals``, ``service``) or a ``trace_builder`` must be
    provided. ``generate(rng, n)`` returns ``(interarrival, service)``
    float64 arrays of length ``n``.
    """

    def __init__(
        self,
        name: str,
        arrivals: Optional[ArrivalProcess] = None,
        service: Optional[Distribution] = None,
        trace_builder: Optional[Callable[[np.random.Generator, int], Trace]] = None,
    ):
        if trace_builder is None and (arrivals is None or service is None):
            raise ValueError("provide arrivals+service or a trace_builder")
        self.name = name
        self.arrivals = arrivals
        self.service = service
        self.trace_builder = trace_builder

    def generate(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Aligned interarrival gaps and service times, length ``n``."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if self.trace_builder is not None:
            trace = self.trace_builder(rng, n)
            return trace.interarrival, trace.service
        assert self.arrivals is not None and self.service is not None
        gaps = np.asarray(self.arrivals.interarrivals(rng, n), dtype=np.float64)
        service = np.asarray(self.service.sample(rng, n), dtype=np.float64)
        return gaps, service

    def mean_service_time(self, rng: np.random.Generator | None = None) -> float:
        """Expected service time (sampled for trace-built workloads)."""
        if self.service is not None:
            return self.service.mean()
        assert self.trace_builder is not None
        probe_rng = rng or np.random.default_rng(0)
        trace = self.trace_builder(probe_rng, 4096)
        return float(trace.service.mean())

    def __repr__(self) -> str:
        return f"Workload({self.name!r})"


def _trace_workload(spec: TraceSpec) -> Workload:
    def build(rng: np.random.Generator, n: int) -> Trace:
        return synthesize_trace(spec, n=n, rng=rng)

    return Workload(spec.name, trace_builder=build)


def _poisson_exp(mean_service: float = POISSON_EXP_MEAN_SERVICE) -> Workload:
    # The arrival rate here is a placeholder; the runner rescales gaps
    # to the target load, so only the *shape* (exponential) matters.
    return Workload(
        f"Poisson/Exp {mean_service * 1e3:.0f}ms",
        arrivals=PoissonProcess(rate=1.0 / mean_service),
        service=Exponential(mean_service),
    )


def _replay_file(path: str, digest: Optional[str] = None) -> Workload:
    file_trace = locate("repro.workload.replay:file_trace")
    return Workload(
        f"Replay {path}",
        trace_builder=lambda rng, n: file_trace(path, digest=digest).tiled(n),
    )


_REGISTRY: dict[str, Callable[..., Workload]] = {
    "poisson_exp": _poisson_exp,
    "fine_grain": lambda: _trace_workload(FINE_GRAIN_SPEC),
    "medium_grain": lambda: _trace_workload(MEDIUM_GRAIN_SPEC),
    # Extensions beyond the paper, for sensitivity studies:
    "poisson_deterministic": lambda mean_service=POISSON_EXP_MEAN_SERVICE: Workload(
        f"Poisson/Det {mean_service * 1e3:.0f}ms",
        arrivals=PoissonProcess(rate=1.0 / mean_service),
        service=Deterministic(mean_service),
    ),
    "poisson_lognormal": lambda mean_service=POISSON_EXP_MEAN_SERVICE, cv=2.0: Workload(
        f"Poisson/Lognormal cv={cv}",
        arrivals=PoissonProcess(rate=1.0 / mean_service),
        service=lognormal_from_moments(mean_service, cv * mean_service),
    ),
    "mmpp_exp": lambda mean_service=POISSON_EXP_MEAN_SERVICE, burst_ratio=5.0, sojourn=1.0: Workload(
        f"MMPP/Exp burst_ratio={burst_ratio}",
        # Two phases with equal sojourns; rates chosen so the long-run
        # mean rate is 1/mean_service (placeholder — rescaled by the
        # runner) with a `burst_ratio` swing between calm and burst.
        arrivals=_mmpp(mean_service, burst_ratio, sojourn),
        service=Exponential(mean_service),
    ),
    # Trace replay (repro.workload.replay, imported when a replay
    # workload is built): a synthetic bursty trace, or a CSV file.
    "replay_bursty": lambda mean_service=POISSON_EXP_MEAN_SERVICE, service_cv=1.0, burst_ratio=20.0, burst_fraction=0.1, cycle=2.0: Workload(
        f"Replay bursty x{burst_ratio:g}",
        trace_builder=partial(
            locate("repro.workload.replay:bursty_trace"),
            mean_service=mean_service, service_cv=service_cv,
            burst_ratio=burst_ratio, burst_fraction=burst_fraction, cycle=cycle,
        ),
    ),
    # The trace file is replayed as-is (tiled, unshuffled, when the run
    # needs more requests than the file holds); pass the digest from
    # replay_file_params so cached results are content-addressed.
    "replay_file": _replay_file,
}


def _mmpp(mean_service: float, burst_ratio: float, sojourn: float):
    from repro.workload.arrivals import MarkovModulatedPoisson

    if burst_ratio <= 1.0:
        raise ValueError(f"burst_ratio must be > 1, got {burst_ratio}")
    base_rate = 1.0 / mean_service
    # Equal sojourns: mean rate = (r_low + r_high)/2 = base_rate.
    r_low = 2.0 * base_rate / (1.0 + burst_ratio)
    r_high = burst_ratio * r_low
    return MarkovModulatedPoisson(rates=(r_low, r_high), sojourn_means=(sojourn, sojourn))


def available_workloads() -> list[str]:
    """Registered workload names."""
    return sorted(_REGISTRY)


def make_workload(name: str, **kwargs) -> Workload:
    """Build a registered workload by name.

    The paper's three workloads are ``poisson_exp`` (optionally
    ``mean_service=``), ``fine_grain``, and ``medium_grain``.
    """
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {available_workloads()}"
        ) from None
    return builder(**kwargs)


def request_stream(
    name: str,
    params: dict,
    seed: int,
    n_requests: int,
    n_servers: int,
    rho: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(gaps, services)`` arrays of one run.

    Drawn from the seed's ``workload`` substream, then the paper's
    demand-level knob: service times are left untouched and the gaps are
    multiplied by a single factor so that ``mean service / (n_servers *
    mean gap) == rho``. Both exact engines, the fast engine and the live
    harness call this, which is what makes their request streams the
    same bits.
    """
    workload = make_workload(name, **params)
    gaps, services = workload.generate(RngHub(seed).stream("workload"), n_requests)
    target_interval = float(services.mean()) / (n_servers * rho)
    return gaps * (target_interval / float(gaps.mean())), services
