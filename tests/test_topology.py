import pytest
from hypothesis import given, strategies as st

from losstomo import fixtures
from losstomo.topology import (GeneralNetwork, LinkRecord, MulticastTree,
                               TopologyError, parse_topology, serialize_topology,
                               topological_order)

TOY7_TEXT = """\
network toy7
link 1 0 1
link 2 1 2
link 3 1 3
link 4 2 4
link 5 2 5
link 6 3 6
link 7 3 7
tree 1 1 : 1 2 3 4 5 6 7
"""


def test_toy7_derived_sets():
    net = parse_topology(TOY7_TEXT)
    tree = net.trees[0]
    assert net.child_links[1] == (2, 3)
    assert net.child_links[2] == (4, 5)
    assert tree.brothers[2] == (2, 3)
    assert tree.leaves == (4, 5, 6, 7)
    assert tree.subtree_leaves[2] == {4, 5}
    assert tree.parent[2] == 1


def test_single_link_tree():
    net = fixtures.single_link()
    tree = net.trees[0]
    assert tree.leaves == (1,)
    assert net.child_links[1] == ()
    assert tree.brothers[1] == (1,)


def test_shared_pair_parent_links():
    net = fixtures.shared_pair()
    assert net.parent_links[2] == (1, 4)
    assert net.parent_links[3] == (1, 4)
    assert net.shared_links == (2, 3)
    assert net.source_links == (1, 4)


def test_topological_order_root_first():
    net = fixtures.toy7()
    order = topological_order(net)
    assert order[0] == 1
    assert set(order[-4:]) == {4, 5, 6, 7}


def test_topological_order_chain():
    net = fixtures.chain(3)
    assert topological_order(net) == (1, 2, 3)


def test_topological_order_parents_first():
    for net in (fixtures.shared_pair(), fixtures.twotree12(), fixtures.layered49()):
        seen = set()
        for i in topological_order(net):
            assert all(p in seen for p in net.parent_links[i])
            seen.add(i)
        assert seen == set(net.links)


def test_parent_child_consistency():
    for net in (fixtures.toy7(), fixtures.twotree12(), fixtures.layered49()):
        for tree in net.trees:
            for i in tree.links:
                if i == tree.root_link:
                    continue
                f = tree.parent[i]
                assert f in tree.links
                assert i in tree.children[f]


def test_brother_sets_partition_node_children():
    net = fixtures.layered49()
    seen = set()
    for group in net.brother_sets:
        assert not (set(group) & seen)
        seen.update(group)
    assert seen == set(net.links) - set(net.source_links)


def test_link_count_vs_tree_sizes():
    net = fixtures.twotree12()
    total = sum(len(t.links) for t in net.trees)
    assert total == len(net.links) + len(net.shared_links) * (len(net.trees) - 1)
    disjoint = fixtures.toy7()
    assert sum(len(t.links) for t in disjoint.trees) == len(disjoint.links)


def test_roundtrip_all_fixtures():
    for net in (fixtures.single_link(), fixtures.star3(), fixtures.toy7(),
                fixtures.shared_pair(), fixtures.twotree12(), fixtures.layered49()):
        assert parse_topology(serialize_topology(net)) == net


def test_tree_networks_built_once_on_first_use():
    net = parse_topology(serialize_topology(fixtures.twotree12()))
    assert "tree_networks" not in vars(net)
    subs = net.tree_networks
    assert net.tree_networks is subs
    assert sorted(subs) == [t.tree_id for t in net.trees]
    for k, sub in subs.items():
        assert sub.trees == (net.tree_by_id[k],)
        assert set(sub.links) == net.tree_by_id[k].links
        assert sub.name == f"{net.name}.tree{k}"


def test_layered49_shape():
    net = fixtures.layered49()
    assert len(net.links) == 48
    nodes = {r.parent_node for r in net.links.values()}
    nodes |= {r.child_node for r in net.links.values()}
    assert len(nodes) == 49
    assert net.links[net.trees[0].root_link].parent_node == 0
    assert net.links[net.trees[1].root_link].parent_node == 32
    assert len(net.shared_links) == 8
    for t in net.trees:
        assert len(t.links) == 28
        assert len(t.leaves) == 18


@pytest.mark.parametrize("bad,msg", [
    ("network x\nlink 1 0 1\nlink 1 0 2\ntree 1 1 : 1", "duplicate link"),
    ("network x\nlink 1 0 1\ntree 1 1 : 1 2", "unknown link"),
    ("network x\nlink 1 0 1\ntree 1 2 : 1", "not in its link list"),
    ("network x\nlink 1 0 1\nlink 2 5 6\ntree 1 1 : 1 2", "hangs from node"),
    ("network x\nlink 1 0 1\nlink 2 1 2\ntree 1 1 : 1 2\ntree 2 2 : 2", "source node"),
    ("network x\nlink 1 0 1\ntree 1 1 :", "takes <id>"),
    ("network x\nlink 1 1 1\ntree 1 1 : 1", "self-loop"),
    ("link 1 0 1\ntree 1 1 : 1", "missing 'network'"),
    ("network x\nlink 1 0 1", "no trees"),
    ("network x\nlink 1 0 1\nlink 2 0 2\ntree 1 1 : 1", "not covered"),
])
def test_parse_errors(bad, msg):
    with pytest.raises(TopologyError, match=msg):
        parse_topology(bad)


def test_rejects_cycle_within_tree():
    text = ("network x\nlink 1 0 1\nlink 2 1 2\nlink 3 2 3\nlink 4 3 2\n"
            "tree 1 1 : 1 2 3 4\n")
    with pytest.raises(TopologyError):
        parse_topology(text)


def test_rejects_inconsistent_child_sets():
    # link 2 is internal in tree 1 but a leaf in tree 2
    text = ("network x\n"
            "link 1 0 1\nlink 2 1 2\nlink 3 2 3\nlink 4 5 1\n"
            "tree 1 1 : 1 2 3\ntree 2 4 : 4 2\n")
    with pytest.raises(TopologyError, match="child links"):
        parse_topology(text)


def test_rejects_link_into_source_node():
    text = ("network x\n"
            "link 1 0 1\nlink 2 1 0\n"
            "tree 1 1 : 1 2\n")
    with pytest.raises(TopologyError, match="source node"):
        parse_topology(text)


def test_comments_and_blank_lines():
    text = "# header\nnetwork x\n\nlink 1 0 1  # root\ntree 1 1 : 1\n"
    net = parse_topology(text)
    assert net.name == "x"
    assert set(net.links) == {1}


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=40))
def test_random_tree_construction(parent_draws):
    # build a random tree by attaching each new link under a uniformly
    # chosen earlier link, then check order and round-trip properties
    records = [LinkRecord(1, 0, 1)]
    for pos, draw in enumerate(parent_draws, start=2):
        parent = records[draw % len(records)]
        records.append(LinkRecord(pos, parent.child_node, pos))
    rec_map = {r.link_id: r for r in records}
    tree = MulticastTree(1, 1, list(rec_map), rec_map)
    net = GeneralNetwork("rand", records, [tree])
    order = topological_order(net)
    seen = set()
    for i in order:
        assert all(p in seen for p in net.parent_links[i])
        seen.add(i)
    assert parse_topology(serialize_topology(net)) == net
    assert all(tree.subtree_leaves[i] == {i} for i in tree.leaves)
