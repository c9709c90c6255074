"""Re-fork guard: the request lifecycle exists once.

``LiveCluster`` and ``ServiceCluster`` are two transports of
``RequestLifecycle``. A copy-paste override of a lifecycle method on
either side would drift silently — retry/timeout paths are where
schedule-dependent bugs concentrate — so every shared name must resolve
to the same function object on both classes.
"""

import inspect

import pytest

from repro.cluster.system import RequestLifecycle, ServiceCluster
from repro.live.client import LiveCluster

SHARED = [
    "_init_lifecycle",
    "install",
    "rebind",
    "_wire_points",
    "_on_arrival",
    "_safe_select",
    "run_policy",
    "_select",
    "dispatch",
    "_arm_attempt_timeout",
    "_attempt_timeout",
    "_cancel_attempt_timeout",
    "_on_request_timeout",
    "_retry",
    "_fail_fast",
    "_retry_delay",
    "_clone_lost",
    "_reselect",
    "_on_response",
    "_finish",
    "_notify_policy",
    "_on_reject",
    "available_servers",
    "_members",
    "_skip_rejecter",
    "client_for",
    "selector_agents",
    "_selector_agents",
    "selector_for",
    "reselect_delay",
    "load_workload",
    "rng",
]


@pytest.mark.parametrize("name", SHARED)
def test_lifecycle_method_is_single_sourced(name):
    shared = inspect.getattr_static(RequestLifecycle, name)
    assert inspect.getattr_static(ServiceCluster, name) is shared
    assert inspect.getattr_static(LiveCluster, name) is shared

