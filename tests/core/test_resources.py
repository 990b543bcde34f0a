"""Unit tests for processor nodes and resource pools."""

import pytest

from repro.core.resources import (
    FIG2_TYPE_PERFORMANCES,
    NodeGroup,
    ProcessorNode,
    ResourcePool,
    classify_performance,
)


def test_classify_performance_paper_groups():
    assert classify_performance(1.0) is NodeGroup.FAST
    assert classify_performance(0.66) is NodeGroup.FAST
    assert classify_performance(0.5) is NodeGroup.MEDIUM
    assert classify_performance(0.34) is NodeGroup.MEDIUM
    assert classify_performance(0.33) is NodeGroup.SLOW
    assert classify_performance(0.1) is NodeGroup.SLOW


def test_classify_performance_range_check():
    with pytest.raises(ValueError):
        classify_performance(0)
    with pytest.raises(ValueError):
        classify_performance(1.5)


def test_node_validation():
    with pytest.raises(ValueError):
        ProcessorNode(node_id=1, performance=0)
    with pytest.raises(ValueError):
        ProcessorNode(node_id=1, performance=0.5, type_index=0)
    with pytest.raises(ValueError):
        ProcessorNode(node_id=1, performance=0.5, price_rate=-1)


def test_node_default_price_follows_performance():
    node = ProcessorNode(node_id=1, performance=0.5)
    assert node.price_rate == 0.5
    custom = ProcessorNode(node_id=2, performance=0.5, price_rate=3.0)
    assert custom.price_rate == 3.0


def test_node_group_property():
    assert ProcessorNode(node_id=1, performance=0.9).group is NodeGroup.FAST
    assert ProcessorNode(node_id=2, performance=0.33).group is NodeGroup.SLOW


def test_node_duration_of():
    node = ProcessorNode(node_id=3, performance=1 / 3)
    assert node.duration_of(2) == 6


def test_pool_lookup_and_membership():
    pool = ResourcePool.fig2_pool()
    assert len(pool) == 4
    assert 1 in pool and 5 not in pool
    assert pool.node(2).performance == 0.5
    with pytest.raises(KeyError):
        pool.node(99)


def test_pool_rejects_duplicate_ids():
    node = ProcessorNode(node_id=1, performance=1.0)
    with pytest.raises(ValueError):
        ResourcePool([node, node])
    pool = ResourcePool([node])
    with pytest.raises(ValueError):
        pool.add(ProcessorNode(node_id=1, performance=0.5))


def test_pool_add():
    pool = ResourcePool()
    pool.add(ProcessorNode(node_id=7, performance=0.7))
    assert pool.node(7).group is NodeGroup.FAST


def test_pool_add_updates_node_ids():
    pool = ResourcePool([ProcessorNode(node_id=3, performance=1.0)])
    assert pool.node_ids() == (3,)
    pool.add(ProcessorNode(node_id=1, performance=0.5))
    assert pool.node_ids() == (3, 1)
    with pytest.raises(ValueError):
        pool.add(ProcessorNode(node_id=1, performance=0.5))
    assert pool.node_ids() == (3, 1)


def test_fig2_pool_types():
    pool = ResourcePool.fig2_pool()
    assert [n.performance for n in pool] == list(FIG2_TYPE_PERFORMANCES)
    assert [n.type_index for n in pool] == [1, 2, 3, 4]


def test_pool_by_group_and_type():
    pool = ResourcePool.fig2_pool()
    assert [n.node_id for n in pool.by_group(NodeGroup.FAST)] == [1]
    assert [n.node_id for n in pool.by_group(NodeGroup.MEDIUM)] == [2]
    assert [n.node_id for n in pool.by_group(NodeGroup.SLOW)] == [3, 4]
    assert [n.node_id for n in pool.by_type(3)] == [3]


def test_pool_domains():
    pool = ResourcePool([
        ProcessorNode(node_id=1, performance=1.0, domain="a"),
        ProcessorNode(node_id=2, performance=0.5, domain="b"),
        ProcessorNode(node_id=3, performance=0.4, domain="a"),
    ])
    assert pool.domains() == ["a", "b"]
    assert [n.node_id for n in pool.by_domain("a")] == [1, 3]


def test_pool_fastest_and_sorting():
    pool = ResourcePool([
        ProcessorNode(node_id=1, performance=0.4),
        ProcessorNode(node_id=2, performance=0.9),
        ProcessorNode(node_id=3, performance=0.9),
    ])
    assert pool.fastest().node_id == 2
    assert [n.node_id for n in pool.sorted_by_performance()] == [2, 3, 1]
    assert [n.node_id for n in
            pool.sorted_by_performance(descending=False)] == [1, 2, 3]


def test_fastest_on_empty_pool():
    with pytest.raises(ValueError):
        ResourcePool().fastest()


def test_from_performances_assigns_type_ranks():
    pool = ResourcePool.from_performances([0.5, 1.0, 0.5, 0.25])
    assert [n.node_id for n in pool] == [1, 2, 3, 4]
    assert [n.type_index for n in pool] == [2, 1, 2, 3]
