"""repro — reproduction of *Cluster Load Balancing for Fine-grain
Network Services* (Shen, Yang, Chu; IPPS 2002).

Public API layout:

- :mod:`repro.sim` — discrete-event simulation kernel.
- :mod:`repro.net` — message-level cluster network substrate.
- :mod:`repro.cluster` — server/client/service cluster substrate.
- :mod:`repro.core` — the load balancing policies (the paper's topic).
- :mod:`repro.workload` — distributions, traces, Table-1 synthesis.
- :mod:`repro.analysis` — queueing formulas, Eq.1 bound, statistics.
- :mod:`repro.prototype` — prototype-fidelity overhead model.
- :mod:`repro.experiments` — configs, runners, figure/table drivers.

Quick start::

    from repro.experiments import SimulationConfig, run_simulation
    cfg = SimulationConfig(policy="polling", policy_params={"poll_size": 2},
                           workload="poisson_exp", load=0.9, seed=1)
    result = run_simulation(cfg)
    print(result.mean_response_time_ms)

Every package ``__init__`` names its exports and imports none of them:
:func:`exports` resolves each on first access, so a run loads the
modules it uses and no others.
"""

import importlib
import sys

__version__ = "1.0.0"


def locate(where: str):
    """The object a ``module:attr`` string names, imported on use; a bare
    ``module`` names the module itself."""
    module, _, attr = where.partition(":")
    found = importlib.import_module(module)
    return getattr(found, attr) if attr else found


def exports(package: str, *where: str):
    """``__all__``, ``__getattr__`` and ``__dir__`` (PEP 562) for a package
    whose exports are the :func:`locate` strings ``where``: each is
    imported on first access and then kept on the package."""
    table = {w.partition(":")[2] or w.rpartition(".")[2]: w for w in where}

    def __getattr__(name: str):
        if name not in table:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = locate(table[name])
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list:
        return sorted({*vars(sys.modules[package]), *table})

    return list(table), __getattr__, __dir__


__all__, __getattr__, __dir__ = exports(
    __name__,
    "repro.analysis",
    "repro.cluster",
    "repro.core",
    "repro.experiments",
    "repro.net",
    "repro.prototype",
    "repro.sim",
    "repro.workload",
)
__all__.append("__version__")
