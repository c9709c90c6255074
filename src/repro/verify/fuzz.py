"""Deterministic fault-schedule fuzzer with reproducer shrinking.

``repro fuzz`` samples random configurations across the policy ×
reliability × overload × dispatcher × autoscaler × chaos space plus a
randomized fault *schedule* (crashes, recoveries, stragglers,
partitions, dispatcher kills at adversarial times), runs each case
under the :class:`~repro.verify.InvariantOracle` on **both** exact
engines, and cross-checks the two runs byte-for-byte. Every case is a
pure function of ``(seed, case index)`` through a named RNG substream,
so any finding replays exactly.

On a finding (oracle violation, deadlock, crash, or heap/calendar
divergence) the failing ``(config, schedule)`` pair is shrunk by
delta-debugging — drop schedule events (classic ddmin), shorten the
request horizon, drop optional subsystems, reduce the server pool —
to a minimal self-contained JSON reproducer. Reproducers are committed
to ``tests/verify/corpus/`` and replayed as regression tests.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.experiments.config import SimulationConfig
from repro.sim.engine import SimulationError
from repro.sim.rng import RngHub
from repro.verify.oracle import InvariantViolation

__all__ = [
    "SPEC_SCHEMA",
    "ENGINES",
    "CaseOutcome",
    "ShrinkResult",
    "FuzzFinding",
    "FuzzReport",
    "sample_case",
    "validate_spec",
    "validate_spec_file",
    "load_spec",
    "run_spec",
    "replay",
    "shrink_spec",
    "fuzz_campaign",
]

SPEC_SCHEMA = 1
ENGINES = ("heap", "calendar")

#: schedule event kinds and the extra keys each requires
_EVENT_KEYS = {
    "crash": ("node",),
    "recover": ("node",),
    "straggle": ("node", "duration_frac", "factor"),
    "partition": ("servers", "duration_frac"),
    "dispatcher_crash": ("index",),
    "dispatcher_recover": ("index",),
}

#: policies eligible for fuzzing. ``manager`` is excluded: its count
#: table is known to drift under timeout retries (each re-selection
#: charges the manager again but only one completion releases) — a
#: separate accounting rework, out of scope here.
_POLICY_POOL = ("random", "polling", "broadcast", "jiq", "least_connections")


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------


def _sample_policy(rng) -> tuple[str, dict[str, Any]]:
    name = str(rng.choice(_POLICY_POOL))
    if name == "polling":
        return name, {
            "poll_size": int(rng.integers(2, 4)),
            "discard_slow": bool(rng.random() < 0.5),
        }
    if name == "broadcast":
        return name, {"mean_interval": round(float(rng.uniform(0.02, 0.1)), 4)}
    return name, {}


def _sample_schedule(rng, n_servers: int, has_dispatcher: bool) -> list[dict[str, Any]]:
    schedule: list[dict[str, Any]] = []
    for _ in range(int(rng.integers(0, 9))):
        kind_draw = float(rng.random())
        at = round(float(rng.uniform(0.05, 0.7)), 4)
        if has_dispatcher and kind_draw < 0.15:
            index = int(rng.integers(0, 4))
            schedule.append({"kind": "dispatcher_crash", "index": index, "at_frac": at})
            if rng.random() < 0.8:
                schedule.append(
                    {
                        "kind": "dispatcher_recover",
                        "index": index,
                        "at_frac": round(at + float(rng.uniform(0.05, 0.2)), 4),
                    }
                )
        elif kind_draw < 0.45:
            node = int(rng.integers(0, n_servers))
            schedule.append({"kind": "crash", "node": node, "at_frac": at})
            if rng.random() < 0.85:
                schedule.append(
                    {
                        "kind": "recover",
                        "node": node,
                        "at_frac": round(at + float(rng.uniform(0.05, 0.25)), 4),
                    }
                )
        elif kind_draw < 0.7:
            schedule.append(
                {
                    "kind": "straggle",
                    "node": int(rng.integers(0, n_servers)),
                    "at_frac": at,
                    "duration_frac": round(float(rng.uniform(0.05, 0.25)), 4),
                    "factor": round(float(rng.uniform(2.0, 6.0)), 3),
                }
            )
        else:
            schedule.append(
                {
                    "kind": "partition",
                    "servers": int(rng.integers(1, max(2, n_servers // 2 + 1))),
                    "at_frac": at,
                    "duration_frac": round(float(rng.uniform(0.03, 0.2)), 4),
                }
            )
    schedule.sort(key=lambda event: (event["at_frac"], event["kind"]))
    return schedule


def sample_case(seed: int, case: int) -> dict[str, Any]:
    """The fuzz case for ``(seed, case)`` — a pure function of both."""
    rng = RngHub(int(seed)).stream(f"verify.fuzz.case{int(case)}")
    n_servers = int(rng.choice([4, 6, 8]))
    policy, policy_params = _sample_policy(rng)
    refresh = round(float(rng.uniform(0.05, 0.25)), 4)
    cluster_params: dict[str, Any] = {
        "availability": True,
        "availability_refresh": refresh,
        "availability_ttl": round(refresh * float(rng.uniform(2.0, 4.0)), 4),
        "request_timeout": round(float(rng.uniform(0.06, 0.25)), 4),
        "max_retries": int(rng.integers(20, 41)),
    }
    if rng.random() < 0.25:
        cluster_params["server_max_queue"] = int(rng.integers(5, 25))
    config: dict[str, Any] = {
        "policy": policy,
        "policy_params": policy_params,
        "n_servers": n_servers,
        "n_clients": int(rng.integers(2, 4)),
        "n_requests": int(rng.choice([150, 250, 400])),
        "load": round(float(rng.uniform(0.5, 1.6)), 3),
        "seed": int(rng.integers(0, 2**31 - 1)),
        "cluster_params": cluster_params,
    }
    if rng.random() < 0.5:
        config["chaos_params"] = {
            "loss": round(float(rng.uniform(0.0, 0.06)), 4),
            "duplicate": round(float(rng.uniform(0.0, 0.03)), 4),
            "jitter_mean": round(float(rng.uniform(0.0, 0.0008)), 6),
        }
    if rng.random() < 0.5:
        reliability: dict[str, Any] = {}
        if rng.random() < 0.6:
            reliability["breaker_threshold"] = int(rng.integers(3, 7))
            reliability["breaker_cooldown"] = round(float(rng.uniform(0.1, 0.4)), 4)
        if rng.random() < 0.5:
            reliability["hedge_quantile"] = 0.9
        if rng.random() < 0.4:
            reliability["backoff_base"] = round(float(rng.uniform(0.001, 0.005)), 5)
        if rng.random() < 0.3:
            reliability["deadline"] = round(float(rng.uniform(1.0, 3.0)), 3)
        if not reliability:
            reliability = {"breaker_threshold": 4, "breaker_cooldown": 0.25}
        config["reliability_params"] = reliability
    if rng.random() < 0.4:
        overload: dict[str, Any] = {
            "sojourn_target": round(float(rng.uniform(0.08, 0.3)), 4),
            "interval": round(float(rng.uniform(0.05, 0.2)), 4),
            "fast_reject": bool(rng.random() < 0.5),
        }
        if rng.random() < 0.5:
            overload["withdraw_after"] = round(float(rng.uniform(0.2, 0.6)), 4)
        config["overload_params"] = overload
    has_dispatcher = rng.random() < 0.35
    if has_dispatcher:
        dispatcher: dict[str, Any] = {
            "count": int(rng.integers(2, 4)),
            "assignment": str(rng.choice(["static", "failover"])),
        }
        if rng.random() < 0.3:
            dispatcher["view_lag"] = round(float(rng.uniform(0.0, 0.15)), 4)
        config["dispatcher_params"] = dispatcher
    if rng.random() < 0.3:
        min_servers = int(rng.integers(1, 3))
        config["autoscaler_params"] = {
            "interval": round(float(rng.uniform(0.1, 0.3)), 4),
            "min_servers": min_servers,
            "initial_servers": int(rng.integers(min_servers, n_servers + 1)),
        }
    return {
        "schema": SPEC_SCHEMA,
        "fuzz_seed": int(seed),
        "case": int(case),
        "check_interval": 8,
        "config": config,
        "schedule": _sample_schedule(rng, n_servers, has_dispatcher),
    }


# ----------------------------------------------------------------------
# validation / IO
# ----------------------------------------------------------------------


def _is_int(value: Any) -> bool:
    """A JSON integer (``true`` is not one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return _is_int(value) or isinstance(value, float)


def _config_problems(config: dict[str, Any]) -> list[str]:
    """What stops ``config`` from building: the config's own checks, then
    its policy and its workload, constructed the way a run constructs
    them (:meth:`ScenarioSpec.validate` does the same)."""
    from repro.core.registry import make_policy
    from repro.workload.workloads import make_workload

    problems = [
        f"config.{reserved} is supplied by the runner and must not appear in a spec"
        for reserved in ("engine", "verify_params")
        if reserved in config
    ]
    try:
        checked = SimulationConfig(
            **{k: v for k, v in config.items() if k not in ("engine", "verify_params")}
        )
    except (TypeError, ValueError) as exc:
        return [*problems, f"config rejected: {exc}"]
    for what, build, name, params in (
        ("policy", make_policy, checked.policy, checked.policy_params),
        ("workload", make_workload, checked.workload, checked.workload_params),
    ):
        try:
            build(name, **params)
        except Exception as exc:  # a replay would die on the same line
            problems.append(
                f"config.{what} {name!r} cannot be built: {type(exc).__name__}: {exc}"
            )
    return problems


def validate_spec(spec: Any) -> list[str]:
    """Every problem with a reproducer spec (empty list == valid).

    Never raises: a spec that would not replay is a problem string here,
    not an error from inside the run."""
    problems: list[str] = []
    if not isinstance(spec, dict):
        return [f"spec must be a JSON object, got {type(spec).__name__}"]
    schema = spec.get("schema")
    if not (_is_int(schema) and schema == SPEC_SCHEMA):
        problems.append(f"schema must be {SPEC_SCHEMA}, got {schema!r}")
    config = spec.get("config")
    if isinstance(config, dict):
        problems += _config_problems(config)
    else:
        problems.append("config must be an object of SimulationConfig kwargs")
    interval = spec.get("check_interval", 8)
    if not _is_int(interval) or interval < 1:
        problems.append(f"check_interval must be a positive int, got {interval!r}")
    schedule = spec.get("schedule", [])
    if not isinstance(schedule, list):
        problems.append("schedule must be a list of fault events")
        schedule = []
    for position, event in enumerate(schedule):
        where = f"schedule[{position}]"
        if not isinstance(event, dict):
            problems.append(f"{where} must be an object")
            continue
        kind = event.get("kind")
        if not isinstance(kind, str) or kind not in _EVENT_KEYS:
            problems.append(
                f"{where}.kind must be one of {sorted(_EVENT_KEYS)}, got {kind!r}"
            )
            continue
        at_frac = event.get("at_frac")
        if not _is_number(at_frac) or not 0 <= at_frac <= 1:
            problems.append(f"{where}.at_frac must be in [0, 1], got {at_frac!r}")
        for key in _EVENT_KEYS[kind]:
            if key not in event:
                problems.append(f"{where} ({kind}) is missing {key!r}")
                continue
            value = event[key]
            if key in ("node", "index", "servers"):
                if not _is_int(value) or value < 0:
                    problems.append(
                        f"{where}.{key} must be a non-negative int, got {value!r}"
                    )
            elif key == "duration_frac":
                if not _is_number(value) or not 0 < value <= 1:
                    problems.append(
                        f"{where}.duration_frac must be in (0, 1], got {value!r}"
                    )
            elif key == "factor":
                if not _is_number(value) or not value > 0:
                    problems.append(f"{where}.factor must be > 0, got {value!r}")
    return problems


def validate_spec_file(path: str | Path) -> list[str]:
    """Validate a reproducer spec on disk without running it.

    Returns the list of problems (empty when well-formed); unreadable or
    non-JSON files report as a single problem rather than raising, so
    callers can aggregate across a corpus.
    """
    try:
        spec = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable reproducer spec ({exc})"]
    return validate_spec(spec)


def load_spec(path: str | Path) -> dict[str, Any]:
    """Load + validate a reproducer; raises ``ValueError`` on problems."""
    try:
        spec = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: unreadable reproducer spec ({exc})") from exc
    problems = validate_spec(spec)
    if problems:
        raise ValueError(
            f"{path}: malformed reproducer spec:\n  " + "\n  ".join(problems)
        )
    return spec


def save_spec(spec: dict[str, Any], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(spec, indent=2, sort_keys=True) + "\n")
    return path


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CaseOutcome:
    """Result of running one spec on both engines."""

    status: str  # "ok" | "violation" | "deadlock" | "divergence" | "error"
    message: str = ""
    engine: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _config_from_spec(spec: dict[str, Any], engine: str) -> SimulationConfig:
    return SimulationConfig(
        engine=engine,
        verify_params={
            "enabled": True,
            "check_interval": int(spec.get("check_interval", 8)),
        },
        **spec["config"],
    )


def _apply_schedule(cluster, injector, schedule, horizon: float) -> None:
    for event in schedule:
        kind = event["kind"]
        at = float(event["at_frac"]) * horizon
        if kind == "crash":
            injector.schedule_crash(int(event["node"]) % cluster.n_servers, at)
        elif kind == "recover":
            injector.schedule_recovery(int(event["node"]) % cluster.n_servers, at)
        elif kind == "straggle":
            injector.schedule_straggle(
                int(event["node"]) % cluster.n_servers,
                at,
                float(event["duration_frac"]) * horizon,
                float(event["factor"]),
            )
        elif kind == "partition":
            isolated = max(1, min(int(event["servers"]), cluster.n_servers - 1))
            group_a = list(range(isolated))
            group_b = list(range(isolated, cluster.n_servers))
            group_b += [client.node_id for client in cluster.clients]
            if cluster.dispatchers is not None:
                group_b += [
                    d.agent.node_id for d in cluster.dispatchers.dispatchers
                ]
            injector.schedule_partition(
                group_a, group_b, at, float(event["duration_frac"]) * horizon
            )
        elif kind in ("dispatcher_crash", "dispatcher_recover"):
            tier = cluster.dispatchers
            if tier is None:
                continue  # shrinker may have dropped dispatcher_params
            index = int(event["index"]) % len(tier.dispatchers)
            if kind == "dispatcher_crash":
                injector.schedule_dispatcher_crash(index, at)
            else:
                injector.schedule_dispatcher_recovery(index, at)
        else:  # pragma: no cover - validate_spec rejects unknown kinds
            raise ValueError(f"unknown schedule event kind {kind!r}")


def _fingerprint(result, metrics) -> tuple:
    """Byte-exact run signature for the cross-engine divergence check:
    the run's digest (every outcome field, counters included) and its
    per-request outcome arrays."""
    return (
        result.digest(),
        metrics.response_time.tobytes(),
        metrics.server_id.tobytes(),
        metrics.retries.tobytes(),
        metrics.failed.tobytes(),
    )


def _execute(spec: dict[str, Any], engine: str):
    """Run the spec on one engine: ``(status, message, fingerprint)``."""
    from repro.cluster.failures import ChaosInjector
    from repro.experiments.runner import _summarize_run, build_cluster

    try:
        config = _config_from_spec(spec, engine)
        cluster, nominal_rho = build_cluster(config)
    except Exception as exc:
        return ("error", f"build failed: {type(exc).__name__}: {exc}", None)
    injector = cluster.chaos if cluster.chaos is not None else ChaosInjector(cluster)
    assert cluster._arrival_times is not None
    horizon = float(cluster._arrival_times[-1])
    try:
        _apply_schedule(cluster, injector, spec.get("schedule", ()), horizon)
        result = _summarize_run(config, cluster, nominal_rho, time.perf_counter())
    except InvariantViolation as exc:
        return ("violation", str(exc), None)
    except SimulationError as exc:
        return ("deadlock", str(exc), None)
    except Exception as exc:
        return ("error", f"{type(exc).__name__}: {exc}", None)
    return ("ok", "", _fingerprint(result, cluster.metrics))


def run_spec(
    spec: dict[str, Any], engines: Sequence[str] = ENGINES
) -> CaseOutcome:
    """Run a spec under the oracle on every engine + cross-check."""
    fingerprints = []
    for engine in engines:
        status, message, fingerprint = _execute(spec, engine)
        if status != "ok":
            return CaseOutcome(status=status, message=message, engine=engine)
        fingerprints.append(fingerprint)
    if len(fingerprints) > 1 and any(f != fingerprints[0] for f in fingerprints[1:]):
        return CaseOutcome(
            status="divergence",
            message=(
                "engines disagree on the run digest or the per-request outcome arrays "
                f"({' vs '.join(engines)})"
            ),
            engine="/".join(engines),
        )
    return CaseOutcome(status="ok")


def replay(path: str | Path, engines: Sequence[str] = ENGINES) -> CaseOutcome:
    """Re-execute a committed reproducer spec deterministically."""
    return run_spec(load_spec(path), engines)


# ----------------------------------------------------------------------
# shrinking (delta debugging)
# ----------------------------------------------------------------------


_CATEGORY_RE = re.compile(r"\]\s*([\w-]+):")


def outcome_signature(outcome: CaseOutcome) -> tuple:
    """What must be preserved while shrinking: the failure *class*."""
    if outcome.status == "violation":
        match = _CATEGORY_RE.search(outcome.message)
        return ("violation", match.group(1) if match else outcome.message[:60])
    return (outcome.status,)


@dataclass
class ShrinkResult:
    spec: dict[str, Any]
    original_events: int
    final_events: int
    original_requests: int
    final_requests: int
    steps: int = 0


def _ddmin(items: list, still_fails: Callable[[list], bool]) -> list:
    """Classic ddmin: minimal sublist that still fails."""
    if still_fails([]):
        return []
    granularity = 2
    while len(items) >= 2:
        chunk = max(1, len(items) // granularity)
        reduced = False
        start = 0
        while start < len(items):
            candidate = items[:start] + items[start + chunk :]
            if candidate and still_fails(candidate):
                items = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                start = 0
            else:
                start += chunk
        if not reduced:
            if granularity >= len(items):
                break
            granularity = min(len(items), granularity * 2)
    return items


def shrink_spec(
    spec: dict[str, Any],
    run_fn: Optional[Callable[[dict[str, Any]], tuple]] = None,
    target: Optional[tuple] = None,
) -> ShrinkResult:
    """Delta-debug a failing spec down to a minimal reproducer.

    ``run_fn`` maps a candidate spec to its failure signature (injectable
    for tests); the default runs both engines under the oracle.
    """
    if run_fn is None:
        run_fn = lambda s: outcome_signature(run_spec(s))  # noqa: E731
    if target is None:
        target = run_fn(spec)
    steps = 0

    def fails(candidate: dict[str, Any]) -> bool:
        nonlocal steps
        steps += 1
        return run_fn(candidate) == target

    original_events = len(spec.get("schedule", []))
    original_requests = int(spec["config"]["n_requests"])
    current = json.loads(json.dumps(spec))  # deep copy, JSON-native

    # 1. minimize the fault schedule
    schedule = list(current.get("schedule", []))
    if schedule:
        current["schedule"] = _ddmin(
            schedule,
            lambda events: fails({**current, "schedule": events}),
        )

    # 2. shorten the horizon (halve n_requests while it still fails)
    while current["config"]["n_requests"] >= 120:
        candidate = json.loads(json.dumps(current))
        candidate["config"]["n_requests"] = current["config"]["n_requests"] // 2
        if not fails(candidate):
            break
        current = candidate

    # 3. drop optional subsystems one at a time
    for key in (
        "chaos_params",
        "overload_params",
        "reliability_params",
        "autoscaler_params",
        "dispatcher_params",
    ):
        if key not in current["config"]:
            continue
        candidate = json.loads(json.dumps(current))
        del candidate["config"][key]
        if fails(candidate):
            current = candidate

    # 4. reduce the server pool
    while current["config"]["n_servers"] >= 4:
        candidate = json.loads(json.dumps(current))
        candidate["config"]["n_servers"] = current["config"]["n_servers"] // 2
        if not fails(candidate):
            break
        current = candidate

    return ShrinkResult(
        spec=current,
        original_events=original_events,
        final_events=len(current.get("schedule", [])),
        original_requests=original_requests,
        final_requests=int(current["config"]["n_requests"]),
        steps=steps,
    )


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------


@dataclass
class FuzzFinding:
    case: int
    status: str
    message: str
    spec: dict[str, Any]
    path: Optional[Path] = None
    original_events: int = 0
    final_events: int = 0


@dataclass
class FuzzReport:
    seed: int
    budget: int
    n_ok: int = 0
    findings: list[FuzzFinding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def render(self) -> str:
        lines = [
            f"repro fuzz — seed {self.seed}, {self.budget} schedules, "
            f"{self.n_ok} clean, {len(self.findings)} finding(s)",
        ]
        for finding in self.findings:
            lines.append(
                f"  case {finding.case} [{finding.status}] "
                f"schedule {finding.original_events}→{finding.final_events} "
                f"events: {finding.message}"
            )
            if finding.path is not None:
                lines.append(f"    reproducer: {finding.path}")
        if self.clean:
            lines.append("  no invariant violations, deadlocks, or divergences")
        return "\n".join(lines)


def fuzz_campaign(
    seed: int = 0,
    budget: int = 100,
    out_dir: Optional[str | Path] = None,
    shrink: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Run ``budget`` sampled cases; shrink + save every finding."""
    report = FuzzReport(seed=int(seed), budget=int(budget))
    for case in range(int(budget)):
        spec = sample_case(seed, case)
        outcome = run_spec(spec)
        if outcome.ok:
            report.n_ok += 1
            continue
        if progress is not None:
            progress(
                f"case {case}: {outcome.status} — {outcome.message} (shrinking...)"
            )
        final_spec = spec
        original_events = final_events = len(spec.get("schedule", []))
        if shrink:
            shrunk = shrink_spec(spec, target=outcome_signature(outcome))
            final_spec = shrunk.spec
            original_events = shrunk.original_events
            final_events = shrunk.final_events
        final_outcome = run_spec(final_spec)
        message = final_outcome.message or outcome.message
        final_spec["note"] = (
            f"found by repro fuzz --seed {seed} (case {case}); "
            f"{final_outcome.status}: {message}"
        )
        path = None
        if out_dir is not None:
            path = save_spec(
                final_spec,
                Path(out_dir) / f"fuzz-seed{seed}-case{case}.json",
            )
        report.findings.append(
            FuzzFinding(
                case=case,
                status=final_outcome.status or outcome.status,
                message=message,
                spec=final_spec,
                path=path,
                original_events=original_events,
                final_events=final_events,
            )
        )
    return report
