"""Replicated runs: seed-level confidence intervals for any config.

Single simulation runs carry correlated noise (one arrival sample, one
service sample); comparing two policies on one seed can flip. This
module runs a config across independent seeds and reports a Student-t
confidence interval over the per-run means — the right error bar for
"policy A beats policy B" claims, and what the comparison helpers here
use to call a winner (or a tie).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.analysis.stats import t_quantile
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import SimulationResult, parallel_sweep

__all__ = ["ReplicatedResult", "replicate", "compare_policies"]

#: the two-sided confidence level of every interval
CONFIDENCE = 0.95


@dataclass(frozen=True)
class ReplicatedResult:
    """Mean response time across replications, with a t-interval."""

    config: SimulationConfig
    per_seed_means: tuple[float, ...]

    @property
    def n_replications(self) -> int:
        return len(self.per_seed_means)

    @property
    def mean(self) -> float:
        return float(np.mean(self.per_seed_means))

    @property
    def half_width(self) -> float:
        n = self.n_replications
        if n < 2:
            return math.inf
        sem = float(np.std(self.per_seed_means, ddof=1)) / math.sqrt(n)
        return t_quantile(0.5 + CONFIDENCE / 2.0, n - 1) * sem

    def row(self) -> str:
        return (
            f"{self.config.describe():<50s} "
            f"{self.mean * 1e3:8.2f} ms ± {self.half_width * 1e3:6.2f} "
            f"({CONFIDENCE:.0%}, n={self.n_replications})"
        )


def replicate(
    config: SimulationConfig,
    n_replications: int = 5,
    parallel: bool = True,
    max_workers: Optional[int] = None,
) -> ReplicatedResult:
    """Run ``config`` under ``n_replications`` derived seeds.

    Seeds are ``base_seed*1000 + i`` — disjoint substream universes via
    the RngHub derivation, deterministic for a given config.
    """
    if n_replications < 1:
        raise ValueError(f"n_replications must be >= 1, got {n_replications}")
    configs = [
        config.with_updates(seed=config.seed * 1000 + i) for i in range(n_replications)
    ]
    results = parallel_sweep(configs, parallel=parallel, max_workers=max_workers)
    return ReplicatedResult(
        config=config,
        per_seed_means=tuple(r.mean_response_time for r in results),
    )


def compare_policies(
    base: SimulationConfig,
    policies: Sequence[tuple[str, str, dict]],
    n_replications: int = 5,
    parallel: bool = True,
) -> list[tuple[str, ReplicatedResult]]:
    """Replicate several policies on a common base config.

    ``policies`` is ``[(label, policy_name, policy_params), ...]``.
    Common random numbers: replication *i* of every policy shares the
    same seed, so comparisons are paired. Results are sorted by mean.
    """
    out = []
    for label, name, params in policies:
        config = base.with_updates(policy=name, policy_params=params, label=label)
        out.append(
            (label, replicate(config, n_replications, parallel=parallel))
        )
    out.sort(key=lambda item: item[1].mean)
    return out
