"""Unit tests for the LoadBalancer base and helpers."""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.core
from repro.cluster import ServiceCluster
from repro.core import LoadBalancer, RandomPolicy, choose_min_with_ties
from repro.core.base import NoCandidatesError


def test_choose_min_single():
    rng = np.random.default_rng(0)
    assert choose_min_with_ties([5], [2.0], rng) == 5


def test_choose_min_unique_minimum():
    rng = np.random.default_rng(0)
    assert choose_min_with_ties([1, 2, 3], [5.0, 1.0, 9.0], rng) == 2


def test_choose_min_ties_random_uniform():
    rng = np.random.default_rng(0)
    picks = [choose_min_with_ties([1, 2, 3], [0.0, 0.0, 1.0], rng) for _ in range(2000)]
    ones = picks.count(1)
    assert picks.count(3) == 0
    assert 800 < ones < 1200  # roughly uniform over the two ties


def test_choose_min_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(NoCandidatesError):
        choose_min_with_ties([], [], rng)
    with pytest.raises(ValueError):
        choose_min_with_ties([1, 2], [1.0], rng)


def test_no_policy_copies_a_table_per_candidate():
    """``[table[i] for i in candidates]`` (bare, or through ``int()`` /
    ``float()``) is the O(N) interpreter pass ``choose_min_in_table``
    replaced; no module under ``core/`` may grow one back. Reading an
    attribute of ``servers[i]`` (``ideal``) is not a table copy."""
    offenders = []
    for path in sorted(Path(repro.core.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                continue
            element = node.elt
            while isinstance(element, ast.Call) and len(element.args) == 1:
                element = element.args[0]
            bound = {n.id for gen in node.generators for n in ast.walk(gen.target) if isinstance(n, ast.Name)}
            if (
                isinstance(element, ast.Subscript)
                and isinstance(element.slice, ast.Name)
                and element.slice.id in bound
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_double_bind_rejected():
    """A policy binds to the first cluster that loads a workload with it."""
    policy = RandomPolicy()
    gaps = services = np.full(10, 0.01)
    first = ServiceCluster(n_servers=2, policy=policy)
    first.load_workload(gaps, services)
    first.load_workload(gaps, services)  # the same cluster: bound once
    assert policy.ctx is first
    second = ServiceCluster(n_servers=2, policy=policy)
    with pytest.raises(RuntimeError):
        second.load_workload(gaps, services)


def test_describe_default():
    assert RandomPolicy().describe() == "random"


def test_abstract_select_required():
    class Incomplete(LoadBalancer):
        name = "incomplete"

    with pytest.raises(TypeError):
        Incomplete()
