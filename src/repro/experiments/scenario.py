"""Declarative scenario composition: axes x modes x grid -> cells -> report.

Chaos (PR 2), reliability (PR 4), overload (PR 5), and telemetry each
grew their own campaign module with the same shape — a hand-rolled
nest of loops over (mode, policy, level) building ``SimulationConfig``
objects, a ``SweepExecutor``/``parallel_sweep`` branch, and a bespoke
report. This module factors that shape out once:

- a :class:`ScenarioSpec` declares the axes — workloads, policies,
  loads, subsystem *modes* (reliability/overload/telemetry knob sets),
  *faults* (chaos knob sets), and *scales* (cluster sizes) — plus the
  shared scalars (seed, engine, cluster params, a label format);
- :meth:`ScenarioSpec.expand` validates the composition and produces
  the full cross-product as :class:`ScenarioCell` objects, each
  carrying an ordinary :class:`SimulationConfig` — so every cell flows
  through the existing executor, content-addressed result cache, and
  archive machinery unchanged;
- :meth:`ScenarioSpec.run` executes the cells (optionally under the
  invariant oracle) and returns the one :class:`ScenarioReport`, laid
  out by the spec's :class:`ReportLayout` — title, table columns,
  comparison lines.

The named campaigns (:mod:`repro.experiments.chaos`,
:mod:`repro.experiments.overload`, :mod:`repro.experiments.autoscale`)
and the paper's own sweeps (:mod:`repro.experiments.figures`: Fig. 3,
Figs. 4/6, Table 2, §2.4) are spec builders plus a layout, registered in
:data:`BUILTIN_SCENARIOS` beside :func:`composed_spec`; there is no
other way to run a campaign. The golden suites
(``tests/experiments/test_scenario_golden.py``,
``tests/experiments/test_figure_golden.py``) pin their results and
rendered reports bit-for-bit at fixed seeds.

Validation is eager and *names the offending axis*: unknown policy or
workload names, bad subsystem knobs, colliding cell labels, and knob
combinations the chosen engine cannot execute (e.g. ``engine="fast"``
with chaos or telemetry) all raise :class:`ScenarioError` before any
simulation starts. Specs are declarative data: :func:`spec_from_dict`
builds one from a plain dict, :func:`load_spec` reads a JSON spec file
(``repro scenario --spec``), and :func:`composed_spec` is the built-in
"paper + chaos + overload + hardened, at three scales, one command"
grid — including a trace-replay workload (:mod:`repro.workload.replay`),
the first axis the bespoke campaigns could not express.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence

from repro import locate
from repro.experiments.cache import config_key
from repro.experiments.config import SUBSYSTEMS, SimulationConfig, param_keys
from repro.experiments.io import _no_constant, save_results
from repro.experiments.results import ResultTable
from repro.experiments.runner import SimulationResult

__all__ = [
    "BUILTIN_SCENARIOS",
    "FaultAxis",
    "ModeAxis",
    "PolicyAxis",
    "ReportLayout",
    "ScaleAxis",
    "ScenarioCell",
    "ScenarioError",
    "ScenarioReport",
    "ScenarioSpec",
    "WorkloadAxis",
    "axis",
    "builtin_spec",
    "composed_spec",
    "counter",
    "failed",
    "goodput_pct",
    "load_spec",
    "mean_ms",
    "p95_ms",
    "spec_from_dict",
]

_ENGINES = ("heap", "calendar", "fast")

#: SimulationConfig fields a spec may set via ``config_overrides``
#: (everything not already owned by an axis or a spec scalar)
_OVERRIDE_FIELDS = frozenset(
    {
        "n_clients",
        "model",
        "warmup_fraction",
        "workers",
        "server_speeds",
        "overhead_params",
        "full_load_rho",
    }
)


class ScenarioError(ValueError):
    """A spec failed validation; ``axis`` names the offending axis."""

    def __init__(self, axis: str, message: str, entry: Optional[str] = None):
        self.axis = axis
        self.entry = entry
        where = f"axis {axis!r}"
        if entry is not None:
            where += f", entry {entry!r}"
        super().__init__(f"invalid scenario: {where}: {message}")


# ----------------------------------------------------------------------
# axes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PolicyAxis:
    """One policy leg: display label, registry name, constructor params."""

    label: str
    policy: str
    params: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class WorkloadAxis:
    """One workload leg: display label, registry name, builder params."""

    label: str
    workload: str
    params: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ModeAxis:
    """One subsystem mode: reliability/overload/telemetry/dispatcher/
    autoscaler knob sets.

    An all-empty mode is the naive baseline — per the repo invariant,
    it runs bit-identical to a pre-subsystem build.
    """

    label: str
    reliability: dict[str, Any] = field(default_factory=dict)
    overload: dict[str, Any] = field(default_factory=dict)
    telemetry: dict[str, Any] = field(default_factory=dict)
    dispatcher: dict[str, Any] = field(default_factory=dict)
    autoscaler: dict[str, Any] = field(default_factory=dict)


#: :class:`ModeAxis` knob set -> the :class:`SimulationConfig` field it fills
_MODE_FIELDS = {row.mode: name for name, row in SUBSYSTEMS.items() if row.mode}


@dataclass(frozen=True)
class FaultAxis:
    """One chaos level: a :class:`~repro.cluster.failures.ChaosSpec`
    knob set, plus an optional numeric ``value`` (e.g. the intensity
    scalar it was derived from) for reports."""

    label: str
    chaos: dict[str, Any] = field(default_factory=dict)
    value: Optional[float] = None


@dataclass(frozen=True)
class ScaleAxis:
    """One cluster scale; ``None`` fields inherit the spec defaults
    (``n_clients``: ``config_overrides``, else the config's own)."""

    label: str
    n_servers: Optional[int] = None
    n_requests: Optional[int] = None
    n_clients: Optional[int] = None


@dataclass(frozen=True)
class ScenarioCell:
    """One expanded grid point: axis labels + the runnable config."""

    mode: str
    workload: str
    policy: str
    load: float
    fault: str
    scale: str
    fault_value: Optional[float]
    config: SimulationConfig


#: axis field of a :class:`ScenarioSpec` -> the class of its entries
_AXES = {
    "policies": PolicyAxis,
    "workloads": WorkloadAxis,
    "modes": ModeAxis,
    "faults": FaultAxis,
    "scales": ScaleAxis,
}

_NONE = type(None)
#: spec-file key -> the type it is used as. JSON can put anything
#: anywhere, and a wrong one is reported by name instead of surfacing as
#: a TypeError from whichever line first compares, hashes or iterates it
_SPEC_TYPES: dict[str, tuple[type, ...]] = {
    **dict.fromkeys(("name", "engine", "label_format"), (str,)),
    **dict.fromkeys(("n_servers", "n_requests", "seed"), (int,)),
    **dict.fromkeys(("cluster_params", "config_overrides"), (dict,)),
    **dict.fromkeys(("loads", *_AXES), (list, tuple)),
}
#: the same for the fields of an axis entry (``None``: inherit, not given)
_ENTRY_TYPES: dict[str, tuple[type, ...]] = {
    **dict.fromkeys(("label", "policy", "workload"), (str,)),
    **dict.fromkeys(("params", "chaos", *_MODE_FIELDS), (dict,)),
    **dict.fromkeys(("n_servers", "n_requests", "n_clients"), (int, _NONE)),
    "value": (int, float, _NONE),
}


def _check_types(values: dict, types: dict, axis: Optional[str] = None) -> None:
    """Raise :class:`ScenarioError` naming the first of ``values`` (spec
    keys, or the fields of one ``axis`` entry) that has the wrong type."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, types[name]):
            expected = " or ".join(k.__name__ for k in types[name] if k is not _NONE)
            raise ScenarioError(
                axis or name,
                f"{name + ' ' if axis else ''}must be {expected}, got {value!r}",
            )


def _coerce(axis: str, entries: Sequence) -> tuple:
    """Accept axis entries as dataclasses, tuples, or dicts."""
    kind = _AXES[axis]
    out = []
    for entry in entries:
        if isinstance(entry, (dict, tuple, list)):
            try:
                entry = kind(**entry) if isinstance(entry, dict) else kind(*entry)
            except TypeError as err:
                raise ScenarioError(axis, str(err)) from None
        elif not isinstance(entry, kind):
            raise ScenarioError(
                axis, f"cannot build {kind.__name__} from {entry!r}"
            )
        _check_types(vars(entry), _ENTRY_TYPES, axis)
        out.append(entry)
    return tuple(out)


def _check_keys(axis: str, entry: str, kind: str, params: dict, allowed) -> None:
    """``allowed`` is a key set, or the :class:`SimulationConfig` field
    whose knob names (:func:`param_keys`) apply — looked up only for a
    non-empty dict, like the config's own validation."""
    if not params:
        return
    if isinstance(allowed, str):
        allowed = param_keys(allowed)
    unknown = set(params) - set(allowed)
    if unknown:
        raise ScenarioError(
            axis,
            f"unknown {kind} key(s): {sorted(unknown)} "
            f"(allowed: {sorted(allowed)})",
            entry=entry,
        )


def _unique_labels(axis: str, labels: Sequence[str]) -> None:
    seen: set[str] = set()
    for label in labels:
        if label in seen:
            raise ScenarioError(axis, f"duplicate label {label!r}")
        seen.add(label)


# ----------------------------------------------------------------------
# report layout: what a campaign's table and comparison lines contain
# ----------------------------------------------------------------------

#: axis-label attributes of a cell, in expansion (and display) order
#: -> the spec field holding that axis's entries
_AXIS_COLUMNS = {"mode": "modes", "workload": "workloads", "policy": "policies",
                 "load": "loads", "fault": "faults", "scale": "scales"}

#: a column extractor: ``(cell, result, base) -> value``, where ``base``
#: is the result of the same cell at the first entry of the layout's
#: ``base_axis`` (by default the first fault: the fault-free row of a
#: chaos grid; the cell's own result on a single-fault grid)
Extractor = Callable[["ScenarioCell", SimulationResult, SimulationResult], Any]


def axis(name: str) -> Extractor:
    """Extract a cell attribute (an axis label, or ``fault_value``)."""
    return lambda cell, result, base: getattr(cell, name)


def counter(*names: str) -> Extractor:
    """Extract the integer sum of the named resilience counters
    (``SimulationResult.chaos_counters``; absent counters count 0)."""
    return lambda cell, result, base: int(
        sum(result.chaos_counters.get(name, 0) for name in names)
    )


def mean_ms(cell, result, base) -> float:
    return result.mean_response_time_ms


def p95_ms(cell, result, base) -> float:
    return result.p95_response_time * 1e3


def goodput_pct(cell, result, base) -> float:
    """Share of offered requests that completed successfully."""
    offered = result.config.n_requests
    return 100.0 * (offered - result.n_failed) / offered


def failed(cell, result, base) -> int:
    return result.n_failed


_GENERIC_METRICS: tuple[tuple[str, Extractor], ...] = (
    ("mean_ms", mean_ms),
    ("p95_ms", p95_ms),
    ("goodput_pct", goodput_pct),
    ("timeouts", counter("request_timeouts_fired")),
    ("retries", counter("total_retries")),
    ("lost", counter("requests_lost")),
    ("rejected", counter("requests_rejected")),
    ("shed", counter("requests_shed")),
)


def _peers(cell: ScenarioCell, skip: str) -> tuple:
    """The cell's axis labels minus one axis: equal for cells that
    differ only along ``skip``."""
    return tuple(getattr(cell, name) for name in _AXIS_COLUMNS if name != skip)


def _generic_comparison(baseline, cell, base, row) -> str:
    where = " ".join(str(part) for part in _peers(cell, "mode") if part != "")
    return (
        f"{cell.mode} vs {baseline} | {where}: "
        f"p95 {base['p95_ms']:.1f} -> {row['p95_ms']:.1f} ms, "
        f"goodput {base['goodput_pct']:.1f}% -> {row['goodput_pct']:.1f}%"
    )


@dataclass(frozen=True)
class ReportLayout:
    """What differs between campaign reports, carried as data.

    A builder attaches one to the spec it returns (``ScenarioSpec.
    layout``); it is not a spec-file key. The default is the generic
    report every spec file gets.

    ``title`` and ``comparison_heading`` are format strings over
    ``{name}`` (the spec's), ``{cells}`` (the count) and ``{baseline}``
    (the first mode's label). ``columns`` is the table, in order, as
    ``(column, extractor)`` pairs; ``None`` means the labels of every
    non-degenerate axis followed by the generic metrics.
    ``comparison_line(baseline, cell, base_row, row)`` formats one cell
    of a non-baseline mode against the same cell of the spec's first
    mode (``baseline`` is its label; both rows are table rows), or
    returns ``None`` to skip the cell.

    ``base_axis`` names the axis whose first entry is every row's
    ``base`` (the extractors' third argument), and ``show_base_rows``
    whether those base cells get rows of their own: a figure normalised
    to its first policy sets ``base_axis="policy"`` and hides them.
    ``row_order`` lists axes, outermost first, that the rows are sorted
    by (each axis in its spec order; ties keep expansion order): the
    spec expands mode, workload, policy, load, fault, scale, and a
    table grouped another way names its own nesting.
    """

    title: str = "Scenario '{name}': {cells} cells"
    columns: Optional[tuple[tuple[str, Extractor], ...]] = None
    comparison_heading: str = "Modes vs '{baseline}'"
    comparison_line: Callable[..., Optional[str]] = _generic_comparison
    base_axis: str = "fault"
    show_base_rows: bool = True
    row_order: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in (self.base_axis, *self.row_order):
            if name not in _AXIS_COLUMNS:
                raise ValueError(
                    f"layout names axis {name!r}; axes are {tuple(_AXIS_COLUMNS)}"
                )


# ----------------------------------------------------------------------
# the spec
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative experiment grid.

    Cells expand in fixed nesting order — mode, workload, policy, load,
    fault, scale (outer to inner) — so reports group naturally and the
    legacy campaigns reproduce their historical result ordering.
    Heterogeneous server speeds are ``config_overrides.server_speeds``:
    one positive factor per server, so every scale must have that many.

    ``label_format`` builds each cell's config label (and hence its
    archive/cache identity) from the placeholders ``{scenario}``,
    ``{workload}``, ``{policy}``, ``{load}``, ``{mode}``, ``{fault}``,
    ``{scale}``, ``{n_servers}``, ``{n_requests}``, and ``{seed}``;
    surplus whitespace from empty labels is collapsed. Two cells that
    expand to identical configs (same label *and* same knobs) are
    rejected — every cell must be separately cache-addressable.

    ``layout`` is the report's shape (:class:`ReportLayout`); builders
    of named campaigns set it, spec files always get the default.
    """

    name: str = "scenario"
    policies: tuple[PolicyAxis, ...] = (PolicyAxis("random", "random"),)
    workloads: tuple[WorkloadAxis, ...] = (WorkloadAxis("poisson_exp", "poisson_exp"),)
    loads: tuple[float, ...] = (0.9,)
    modes: tuple[ModeAxis, ...] = (ModeAxis(""),)
    faults: tuple[FaultAxis, ...] = (FaultAxis(""),)
    scales: tuple[ScaleAxis, ...] = (ScaleAxis(""),)
    n_servers: int = 16
    n_requests: int = 4_000
    seed: int = 0
    engine: str = "heap"
    cluster_params: dict[str, Any] = field(default_factory=dict)
    config_overrides: dict[str, Any] = field(default_factory=dict)
    label_format: str = "{scenario} {workload} {policy} L={load:g} {mode} {fault} {scale}"
    layout: ReportLayout = ReportLayout()

    def __post_init__(self) -> None:
        for axis in _AXES:
            object.__setattr__(self, axis, _coerce(axis, getattr(self, axis)))
        object.__setattr__(self, "loads", tuple(float(v) for v in self.loads))

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ScenarioError` (naming the axis) on any problem."""
        from repro.core.registry import available_policies, make_policy
        from repro.workload.workloads import available_workloads, make_workload

        if not self.name or not isinstance(self.name, str):
            raise ScenarioError("name", f"must be a non-empty string, got {self.name!r}")
        if self.engine not in _ENGINES:
            raise ScenarioError(
                "engine", f"must be one of {_ENGINES}, got {self.engine!r}"
            )
        for axis in ("loads", *_AXES):
            if not getattr(self, axis):
                raise ScenarioError(axis, "must not be empty")
        for axis in _AXES:
            _unique_labels(axis, [entry.label for entry in getattr(self, axis)])
        if len(set(self.loads)) != len(self.loads):
            raise ScenarioError("loads", f"duplicate load in {list(self.loads)}")
        for load in self.loads:
            if not 0 < load < math.inf:
                raise ScenarioError("loads", f"load must be finite and > 0, got {load}")

        known_policies = set(available_policies())
        for p in self.policies:
            if p.policy not in known_policies:
                raise ScenarioError(
                    "policies",
                    f"unknown policy {p.policy!r} "
                    f"(available: {sorted(known_policies)})",
                    entry=p.label,
                )
            try:
                make_policy(p.policy, **p.params)
            except (TypeError, ValueError) as err:
                raise ScenarioError(
                    "policies", f"bad params for {p.policy!r}: {err}", entry=p.label
                ) from None
        known_workloads = set(available_workloads())
        for w in self.workloads:
            if w.workload not in known_workloads:
                raise ScenarioError(
                    "workloads",
                    f"unknown workload {w.workload!r} "
                    f"(available: {sorted(known_workloads)})",
                    entry=w.label,
                )
            try:
                make_workload(w.workload, **w.params)
            except TypeError as err:
                raise ScenarioError(
                    "workloads", f"bad params for {w.workload!r}: {err}", entry=w.label
                ) from None
            except (OSError, ValueError) as err:
                raise ScenarioError(
                    "workloads", f"cannot build {w.workload!r}: {err}", entry=w.label
                ) from None

        for m in self.modes:
            for kind, config_field in _MODE_FIELDS.items():
                _check_keys("modes", m.label, kind, getattr(m, kind), config_field)
        for f in self.faults:
            _check_keys("faults", f.label, "chaos", f.chaos, "chaos_params")
            if f.chaos:
                # the knob values, checked by the class a run builds from them
                try:
                    locate(SUBSYSTEMS["chaos_params"].owner)(**f.chaos)
                except (TypeError, ValueError) as err:
                    raise ScenarioError("faults", str(err), entry=f.label) from None
        _check_keys("cluster_params", "", "cluster", self.cluster_params, "cluster_params")
        _check_keys(
            "config_overrides", "", "override", self.config_overrides, _OVERRIDE_FIELDS
        )

        for s in self.scales:
            n_servers = s.n_servers if s.n_servers is not None else self.n_servers
            n_requests = s.n_requests if s.n_requests is not None else self.n_requests
            if n_servers < 1:
                raise ScenarioError(
                    "scales", f"n_servers must be >= 1, got {n_servers}", entry=s.label
                )
            if n_requests < 10:
                raise ScenarioError(
                    "scales", f"n_requests must be >= 10, got {n_requests}", entry=s.label
                )
            if s.n_clients is not None and s.n_clients < 1:
                raise ScenarioError(
                    "scales", f"n_clients must be >= 1, got {s.n_clients}", entry=s.label
                )
            try:
                # the config's own checks (model, overhead_params, one
                # server speed per server, ...) on the overrides alone, so
                # a bad one is not blamed on the first cell
                SimulationConfig(n_servers=n_servers, **self._overrides(s))
            except (TypeError, ValueError) as err:
                raise ScenarioError("config_overrides", str(err)) from None

        # the cells' engine, imported before a sweep forks its workers
        # so that no worker compiles it
        if self.engine == "fast":
            self._validate_fast()
        else:
            locate("repro.cluster.system")

    def _validate_fast(self) -> None:
        """The fast engine rejects most knobs — name the axis that set
        one now rather than letting workers raise
        FastpathUnsupportedError. The rules are the engine's own
        (:func:`fastpath_refusals`), asked of every cell."""
        from repro.sim.fastpath import FASTPATH_POLICIES, fastpath_refusals

        exact = "; use an exact engine (heap/calendar)"
        for cell in self._cells():
            refusals = list(fastpath_refusals(cell.config))
            if not refusals:
                continue
            name, violation = refusals[0]
            axis, entry, message = "config_overrides", None, f"cannot run {violation}"
            if name == "model":
                message = "requires model='simulation'"
            elif name == "policy":
                axis, entry = "policies", cell.policy
                message = (
                    f"supports only {sorted(FASTPATH_POLICIES)}; "
                    f"got {cell.config.policy!r}"
                )
            elif name == "policy_params":
                axis, entry = "policies", cell.policy
            elif name == "cluster_params":
                keys = [v.partition(".")[2] for n, v in refusals if n == name]
                axis, message = name, f"does not support {keys}"
            elif name == "chaos_params":
                axis, entry = "faults", cell.fault
                message = "cannot inject faults" + exact
            elif name in SUBSYSTEMS:
                axis, entry = "modes", cell.mode
                message = f"cannot run the {SUBSYSTEMS[name].mode} subsystem" + exact
            raise ScenarioError(axis, f"engine 'fast' {message}", entry=entry)

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------
    def _overrides(self, scale: ScaleAxis) -> dict[str, Any]:
        """``config_overrides``, with the scale's client count over it."""
        if scale.n_clients is None:
            return self.config_overrides
        return {**self.config_overrides, "n_clients": scale.n_clients}

    def _label(self, **fields: Any) -> str:
        try:
            raw = self.label_format.format(scenario=self.name, **fields)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as err:
            raise ScenarioError(
                "label_format", f"bad format {self.label_format!r}: {err}"
            ) from None
        return " ".join(raw.split())

    def expand(self) -> list[ScenarioCell]:
        """Validate, then produce every cell in deterministic order."""
        return self._expand()[0]

    def _expand(self, verify: bool = False) -> tuple[list[ScenarioCell], list[str]]:
        """:meth:`expand` (every config oracle-enabled if ``verify``),
        plus the ``config_key`` of each cell its duplicate check computed
        — the key the sweep then reads and writes the cache under."""
        self.validate()
        cells: list[ScenarioCell] = []
        keys: list[str] = []
        seen: dict[str, str] = {}
        for cell in self._cells():
            if verify:
                cell = replace(
                    cell,
                    config=cell.config.with_updates(verify_params={"enabled": True}),
                )
            cells.append(cell)
            config = cell.config
            key = config_key(config)
            keys.append(key)
            if key in seen:
                raise ScenarioError(
                    "label_format",
                    f"cells {seen[key]!r} and {config.label!r} expand to "
                    "identical configs; include the distinguishing axis "
                    "placeholder in label_format or drop the duplicate axis entry",
                )
            seen[key] = config.label
        return cells, keys

    def _cells(self) -> Iterator[ScenarioCell]:
        """Every grid point, in nesting order, unvalidated."""
        for entries in itertools.product(
            self.modes, self.workloads, self.policies, self.loads,
            self.faults, self.scales,
        ):
            yield self._cell(*entries)

    def _cell(
        self,
        mode: ModeAxis,
        wl: WorkloadAxis,
        policy: PolicyAxis,
        load: float,
        fault: FaultAxis,
        scale: ScaleAxis,
    ) -> ScenarioCell:
        n_servers = scale.n_servers if scale.n_servers is not None else self.n_servers
        n_requests = scale.n_requests if scale.n_requests is not None else self.n_requests
        label = self._label(
            workload=wl.label,
            policy=policy.label,
            load=load,
            mode=mode.label,
            fault=fault.label,
            scale=scale.label,
            n_servers=n_servers,
            n_requests=n_requests,
            seed=self.seed,
        )
        wl_params = dict(wl.params)
        if wl.workload == "replay_file" and "digest" not in wl_params:
            # Pin the trace's content digest so the result-cache key is
            # content-addressed: a replay_file cell keyed by path alone
            # would keep returning stale cached results after the trace
            # file is edited or regenerated on disk.
            from repro.workload.replay import replay_file_params

            path = wl_params.get("path")
            if path is None:
                raise ScenarioError(
                    "workloads",
                    f"cell {label!r}: replay_file requires a 'path' param",
                )
            try:
                wl_params.update(replay_file_params(path))
            except OSError as err:
                raise ScenarioError(
                    "workloads", f"cell {label!r}: replay_file {path!r}: {err}"
                ) from None
        try:
            config = SimulationConfig(
                policy=policy.policy,
                policy_params=dict(policy.params),
                workload=wl.workload,
                workload_params=wl_params,
                load=float(load),
                n_servers=n_servers,
                n_requests=n_requests,
                seed=self.seed,
                engine=self.engine,
                cluster_params=dict(self.cluster_params),
                chaos_params=dict(fault.chaos),
                label=label,
                **{
                    config_field: dict(getattr(mode, kind))
                    for kind, config_field in _MODE_FIELDS.items()
                },
                **self._overrides(scale),
            )
        except (TypeError, ValueError) as err:
            raise ScenarioError("spec", f"cell {label!r}: {err}") from None
        return ScenarioCell(
            mode=mode.label,
            workload=wl.label,
            policy=policy.label,
            load=float(load),
            fault=fault.label,
            scale=scale.label,
            fault_value=fault.value,
            config=config,
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        parallel: bool = True,
        max_workers: Optional[int] = None,
        cache=None,
        archive: Optional[str] = None,
        verify: bool = False,
    ) -> "ScenarioReport":
        """Expand and execute the grid; return the unified report.

        The cells run on the spec's ``engine``: another engine is
        ``replace(spec, engine=...)``, so :meth:`expand` validates the
        grid for the engine that runs it. ``archive`` saves every result
        in the standard archive format. ``verify`` (the CLI's ``--oracle``)
        re-executes every cell under :class:`repro.verify.
        InvariantOracle`: a violation propagates out of the sweep as
        :class:`repro.verify.InvariantViolation`, and oracle-enabled
        configs cache under their own key (``verify_params``
        participates), so verified results never shadow the plain ones.
        """
        # a spec that is only expanded (``--validate``, the fuzzer) loads no pool
        from repro.experiments.executor import SweepExecutor

        cells, keys = self._expand(verify)
        # the one sweep loop: cache consulted under the keys expand
        # computed, results in cell order, bit-identical in-process
        # (parallel=False) or in the pool
        with SweepExecutor(max_workers=max_workers, cache=cache) as executor:
            results = executor.sweep(
                [cell.config for cell in cells], parallel=parallel, keys=keys
            )
        if archive is not None:
            save_results(results, archive)
        return ScenarioReport(spec=self, cells=cells, results=results)


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------

@dataclass
class ScenarioReport:
    """The campaign output: one table row per cell (base cells may be
    hidden), laid out by the spec's :class:`ReportLayout`; ``row_cells``
    holds the cell of each row of ``table``."""

    spec: ScenarioSpec
    cells: list[ScenarioCell]
    results: list[SimulationResult]

    def __post_init__(self) -> None:
        if len(self.cells) != len(self.results):
            raise ValueError(
                f"{len(self.cells)} cells but {len(self.results)} results"
            )
        self.row_cells, self.table = self._build_table()

    def _axis_columns(self) -> list[tuple[str, Extractor]]:
        """Axis-label columns, degenerate unlabeled axes dropped."""
        columns = []
        for name in _AXIS_COLUMNS:
            if name == "load":
                if len(self.spec.loads) > 1 or "{load" in self.spec.label_format:
                    columns.append((name, axis(name)))
                continue
            values = {getattr(cell, name) for cell in self.cells}
            if values != {""}:
                columns.append((name, axis(name)))
        return columns

    def _axis_entries(self, name: str) -> list:
        """One axis's cell labels (the load axis: its values), in spec order."""
        entries = getattr(self.spec, _AXIS_COLUMNS[name])
        return list(entries) if name == "load" else [entry.label for entry in entries]

    def _build_table(self) -> tuple[list[ScenarioCell], ResultTable]:
        layout = self.spec.layout
        columns = layout.columns
        if columns is None:
            columns = (*self._axis_columns(), *_GENERIC_METRICS)
        first = self._axis_entries(layout.base_axis)[0]
        pairs = list(zip(self.cells, self.results))
        bases = {
            _peers(cell, layout.base_axis): result
            for cell, result in pairs
            if getattr(cell, layout.base_axis) == first
        }
        if not layout.show_base_rows:
            pairs = [pair for pair in pairs if getattr(pair[0], layout.base_axis) != first]
        if layout.row_order:
            position = {
                name: {entry: i for i, entry in enumerate(self._axis_entries(name))}
                for name in layout.row_order
            }
            pairs.sort(
                key=lambda pair: tuple(
                    position[name][getattr(pair[0], name)] for name in layout.row_order
                )
            )
        table = ResultTable([name for name, _ in columns])
        for cell, result in pairs:
            base = bases.get(_peers(cell, layout.base_axis), result)
            table.add(**{name: extract(cell, result, base) for name, extract in columns})
        return [cell for cell, _ in pairs], table

    def mode_comparison(self) -> list[str]:
        """Per-cell deltas of every mode against the spec's first mode.

        Empty when the spec has a single mode (nothing to compare).
        """
        if len(self.spec.modes) < 2:
            return []
        baseline = self.spec.modes[0].label
        base_rows = {
            _peers(cell, "mode"): row
            for cell, row in zip(self.row_cells, self.table.rows)
            if cell.mode == baseline
        }
        lines = []
        for cell, row in zip(self.row_cells, self.table.rows):
            base = base_rows.get(_peers(cell, "mode"))
            if cell.mode == baseline or base is None:
                continue
            line = self.spec.layout.comparison_line(baseline, cell, base, row)
            if line is not None:
                lines.append(line)
        return lines

    def render(self) -> str:
        layout = self.spec.layout
        fields = {
            "name": self.spec.name,
            "cells": len(self.cells),
            "baseline": self.spec.modes[0].label,
        }
        out = f"== {layout.title.format(**fields)} ==\n{self.table.render()}"
        comparison = self.mode_comparison()
        if comparison:
            out += f"\n\n== {layout.comparison_heading.format(**fields)} ==\n"
            out += "\n".join(comparison)
        return out


# ----------------------------------------------------------------------
# declarative construction: dicts, files, builtins
# ----------------------------------------------------------------------

def _fault_from_entry(entry: Any, n_servers: int) -> FaultAxis:
    """A fault entry: explicit chaos knobs, or a scalar ``intensity``
    routed through the chaos campaign's canonical scaling."""
    if isinstance(entry, FaultAxis):
        return entry
    if isinstance(entry, dict) and "intensity" in entry:
        from repro.experiments.chaos import chaos_params_for

        extra = set(entry) - {"intensity", "label"}
        if extra:
            raise ScenarioError(
                "faults",
                f"intensity shorthand takes only 'label', got {sorted(extra)}",
                entry=str(entry.get("label", "")),
            )
        intensity = float(entry["intensity"])
        return FaultAxis(
            label=entry.get("label", f"I={intensity:g}"),
            chaos=chaos_params_for(intensity, n_servers),
            value=intensity,
        )
    return entry  # _coerce in __post_init__ handles dicts/tuples


def spec_from_dict(data: dict[str, Any]) -> ScenarioSpec:
    """Build a :class:`ScenarioSpec` from plain (JSON-native) data.

    Unknown top-level keys are rejected so a typo'd axis name fails
    loudly instead of silently running the default grid.
    """
    if not isinstance(data, dict):
        raise ScenarioError("spec", f"expected a mapping, got {type(data).__name__}")
    unknown = set(data) - set(_SPEC_TYPES)
    if unknown:
        raise ScenarioError(
            "spec",
            f"unknown key(s): {sorted(unknown)} (allowed: {sorted(_SPEC_TYPES)})",
        )
    _check_types(data, _SPEC_TYPES)
    kwargs = dict(data)
    try:
        if "faults" in kwargs:
            n_servers = kwargs.get("n_servers", ScenarioSpec.n_servers)
            kwargs["faults"] = tuple(
                _fault_from_entry(entry, n_servers) for entry in kwargs["faults"]
            )
        return ScenarioSpec(**kwargs)
    except ScenarioError:
        raise
    except (TypeError, ValueError) as err:
        raise ScenarioError("spec", str(err)) from None


def _finite_float(text: str) -> float:
    """A JSON number that fits a float: ``1e999`` is as refused as ``Infinity``."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def load_spec(path: str | Path) -> ScenarioSpec:
    """Read a ``.json`` spec file (``examples/grid.json`` is one)."""
    path = Path(path)
    if path.suffix != ".json":
        raise ScenarioError(
            "spec", f"{path}: unsupported spec suffix {path.suffix!r} (expected .json)"
        )
    try:
        text = path.read_text()
    except OSError as err:
        raise ScenarioError("spec", f"cannot read {path}: {err}") from None
    try:
        data = json.loads(text, parse_constant=_no_constant, parse_float=_finite_float)
    except ValueError as err:
        raise ScenarioError("spec", f"{path}: invalid JSON: {err}") from None
    return spec_from_dict(data)


# ----------------------------------------------------------------------
# built-in scenarios
# ----------------------------------------------------------------------

def composed_spec(
    n_requests: int = 4_000, seed: int = 0, quick: bool = False
) -> ScenarioSpec:
    """The ROADMAP one-liner: paper policies + chaos + overload-hardened
    reliability, at three cluster scales, with a trace-replay workload.

    ``quick`` trims the grid (two policies, two scales) for the <60s
    ``make scenario-smoke`` path while keeping at least one cell on
    every axis — including one replay cell.
    """
    from repro.experiments.chaos import (
        chaos_cluster_params,
        chaos_params_for,
        hardened_reliability_params,
    )
    from repro.experiments.overload import overload_control_params

    policies = (
        PolicyAxis("random", "random"),
        PolicyAxis("polling-3", "polling", {"poll_size": 3, "discard_slow": True}),
        PolicyAxis("broadcast-50ms", "broadcast", {"mean_interval": 0.05}),
        PolicyAxis("jiq", "jiq"),
        PolicyAxis("least-conn", "least_connections"),
    )
    scales = (
        ScaleAxis("8s", 8, max(200, n_requests // 2)),
        ScaleAxis("16s", 16, n_requests),
        ScaleAxis("32s", 32, 2 * n_requests),
    )
    if quick:
        policies = policies[:2]
        scales = scales[:2]
    return ScenarioSpec(
        name="composed",
        policies=policies,
        workloads=(
            WorkloadAxis("poisson", "poisson_exp"),
            WorkloadAxis("replay-bursty", "replay_bursty", {"burst_ratio": 10.0}),
        ),
        loads=(0.7,),
        modes=(
            ModeAxis("naive"),
            ModeAxis(
                "hardened",
                reliability=hardened_reliability_params(),
                overload=overload_control_params(),
            ),
        ),
        faults=(
            FaultAxis("I=0", {"loss": 0.0}, value=0.0),
            FaultAxis("I=1", chaos_params_for(1.0, 16), value=1.0),
        ),
        scales=scales,
        n_servers=16,
        n_requests=n_requests,
        seed=seed,
        cluster_params=chaos_cluster_params(),
        label_format="composed {workload} {policy} {mode} {fault} {scale}",
    )


#: named builtin specs accepted by ``repro scenario --spec <name>`` (and
#: by the ``repro <name>`` aliases): ``module:builder`` locations,
#: imported on first use because the campaign modules import this one
BUILTIN_SCENARIOS: dict[str, str] = {
    "composed": "repro.experiments.scenario:composed_spec",
    "chaos": "repro.experiments.chaos:chaos_scenario_spec",
    "resilience": "repro.experiments.chaos:resilience_scenario_spec",
    "overload": "repro.experiments.overload:overload_scenario_spec",
    "autoscale": "repro.experiments.autoscale:autoscale_scenario_spec",
    "fig3": "repro.experiments.figures:figure3_spec",
    "fig4": "repro.experiments.figures:figure4_spec",
    "fig6": "repro.experiments.figures:figure6_spec",
    "table2": "repro.experiments.figures:table2_spec",
    "messages": "repro.experiments.figures:message_scaling_spec",
}


def builtin_spec(name: str, quick: bool = False, **kwargs: Any) -> ScenarioSpec:
    """Build a :data:`BUILTIN_SCENARIOS` spec by name.

    ``kwargs`` (``n_requests``, ``seed``, ...) go to the builder, whose
    own defaults size the grid when omitted; ``quick`` reaches only the
    builders that have a trimmed smoke grid.
    """
    builder = locate(BUILTIN_SCENARIOS[name])
    if "quick" in inspect.signature(builder).parameters:
        kwargs["quick"] = quick
    return builder(**kwargs)
