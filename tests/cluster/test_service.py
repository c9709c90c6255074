"""Unit tests for service specs and partition placement."""

import pytest

from repro.cluster import PartitionMap, ServiceSpec


def test_spec_validation():
    with pytest.raises(ValueError):
        ServiceSpec("s", n_partitions=0)
    with pytest.raises(ValueError):
        ServiceSpec("s", replication=0)


def test_place_round_robin_striping():
    pm = PartitionMap()
    pm.place(ServiceSpec("image_store", n_partitions=2, replication=3), [0, 1, 2, 3, 4, 5])
    assert pm.replicas("image_store", 0) == [0, 1, 2]
    assert pm.replicas("image_store", 1) == [3, 4, 5]


def test_place_wraps_pool():
    pm = PartitionMap()
    pm.place(ServiceSpec("s", n_partitions=3, replication=2), [10, 11, 12])
    assert pm.replicas("s", 0) == [10, 11]
    assert pm.replicas("s", 1) == [12, 10]
    assert pm.replicas("s", 2) == [11, 12]


def test_place_rejects_small_pool():
    pm = PartitionMap()
    with pytest.raises(ValueError):
        pm.place(ServiceSpec("s", replication=4), [0, 1])


def test_assign_explicit_and_validation():
    pm = PartitionMap()
    pm.assign("svc", 0, [3, 5])
    assert pm.replicas("svc") == [3, 5]
    with pytest.raises(ValueError):
        pm.assign("svc", 1, [])
    with pytest.raises(ValueError):
        pm.assign("svc", 1, [1, 1])


def test_unknown_lookup_raises():
    pm = PartitionMap()
    with pytest.raises(KeyError):
        pm.replicas("ghost", 0)


def test_replicas_returns_copy():
    pm = PartitionMap()
    pm.assign("svc", 0, [1, 2])
    group = pm.replicas("svc", 0)
    group.append(99)
    assert pm.replicas("svc", 0) == [1, 2]
