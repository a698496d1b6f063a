"""Brother sets on positions, the one regularity rule, and le_xi as mvwa's
one-tree case.

Networks and trees both carry brother_pos, feed_pos and root_pos, built at
construction; statistics.regularity_by_position reads them for the network
(through regularity_report) and for each tree (in mvwa).  The references
here walk the rule by link id instead: _regularity_reference over
net.brother_sets and net.parent_links, and _tree_bad_reference over each
tree's child_pos.  mvwa_reference reaches the rule through tree_views, so
it cannot catch a fault in it.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from losstomo import fixtures
from losstomo.estimators import le_xi, mvwa
from losstomo.simulator import SimConfig, sample_theta, simulate
from losstomo.statistics import (PatternTable, RegularityReport, internal_views,
                                 regularity_by_position, regularity_report)
from losstomo.topology import parse_topology

from mvwa_reference import tree_networks, tree_views
from test_estimators import _simulated_small_nets
from test_statistics import _networks

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.inputs import hub_network  # noqa: E402

HUB = parse_topology(hub_network(1).topology_text())
# node 1 is reached by link 1 in tree 1 and by link 2 in tree 2, which continue
# through different subsets of its child links; the second numbering swaps ids
# 3 and 4, so the set at node 1 is fed by links 1 and 2, or by link 2 alone
SPLIT = parse_topology("network split_node\nlink 1 10 1\nlink 2 20 1\nlink 3 1 2\n"
                       "link 4 1 3\ntree 1 1 : 1 3\ntree 2 2 : 2 3 4\n")
SPLIT_SWAPPED = parse_topology("network split_node\nlink 1 10 1\nlink 2 20 1\nlink 4 1 2\n"
                               "link 3 1 3\ntree 1 1 : 1 4\ntree 2 2 : 2 4 3\n")


def _regularity_reference(view, net) -> RegularityReport:
    n1_zero, n0_zero, no_info, brother_bad = set(), set(), set(), set()
    for i in net.links:
        if view.n1[i] + view.n0[i] == 0:
            no_info.add(i)
            continue
        if view.n1[i] == 0:
            n1_zero.add(i)
        if view.n0[i] == 0:
            n0_zero.add(i)
    for brothers in net.brother_sets:
        parents = net.parent_links[brothers[0]]
        attempts = sum(view.n1[p] for p in parents)
        passes = sum(view.n1[j] for j in brothers)
        if attempts > 0 and attempts >= passes:
            brother_bad.update(brothers)
    all_ok = not (n1_zero or n0_zero or no_info or brother_bad)
    return RegularityReport(frozenset(n1_zero), frozenset(n0_zero),
                            frozenset(no_info), frozenset(brother_bad), all_ok)


def _tree_bad_reference(tree, n1, n0) -> set:
    bad = {i for i, c1, c0 in zip(tree.order, n1, n0) if c1 == 0 or c0 == 0}
    for c1, kids in zip(n1, tree.child_pos):
        if kids and c1 > 0 and c1 >= sum(n1[c] for c in kids):
            bad.update(tree.order[c] for c in kids)
    return bad


def _assert_same_report(a: RegularityReport, b: RegularityReport):
    assert a.n1_zero == b.n1_zero
    assert a.n0_zero == b.n0_zero
    assert a.no_information == b.no_information
    assert a.brother_sum_violation == b.brother_sum_violation
    assert a.all_ok == b.all_ok


def _assert_rule_matches_references(views, net):
    _assert_same_report(regularity_report(views, net), _regularity_reference(views, net))
    for k in sorted(views.per_tree_n1):
        tree = net.tree_by_id[k]
        n1 = [views.per_tree_n1[k][i] for i in tree.order]
        n0 = [views.per_tree_n0[k][i] for i in tree.order]
        got = regularity_by_position(tree, n1, n0)
        sub = tree_networks(net)[k]
        _assert_same_report(got, _regularity_reference(tree_views(views, sub)[0], sub))
        assert got.flagged() - got.no_information \
            == _tree_bad_reference(tree, n1, n0) - got.no_information


@settings(max_examples=200, deadline=None)
@given(_simulated_small_nets())
def test_rule_matches_dict_reference_small_nets(case):
    net, patterns = case
    views, report = internal_views(patterns, net)
    _assert_rule_matches_references(views, net)
    _assert_same_report(report, _regularity_reference(views, net))


@pytest.mark.parametrize("a,b,probes", [(1, 100, 8000), (1, 1000, 80000)],
                         ids=["beta1_100", "beta1_1000"])
def test_rule_matches_dict_reference_hub(a, b, probes):
    theta = sample_theta(a, b, HUB, np.random.default_rng(1))
    views, _ = internal_views(simulate(SimConfig(HUB, probes, 1), theta), HUB)
    _assert_rule_matches_references(views, HUB)


def _split_tables(net):
    """Pattern tables on a SPLIT numbering: simulated ones, and one where no
    tree-2 probe reaches both leaves while tree 1 confirms link 1."""
    tables = [simulate(SimConfig(net, probes, seed), theta)
              for theta in ({1: .1, 2: .1, 3: .2, 4: .3}, {1: .5, 2: .5, 3: .8, 4: .8})
              for probes in (3, 20, 20000) for seed in range(4)]
    trees = {k: net.tree_by_id[k].leaves for k in (1, 2)}
    tables.append(PatternTable("split", {1: 2, 2: 2}, trees,
                               {1: {"1": 2}, 2: {"10": 1, "01": 1}}))
    return tables


@pytest.mark.parametrize("net", [SPLIT, SPLIT_SWAPPED], ids=["split", "split_swapped"])
def test_rule_matches_dict_reference_split_node(net):
    feeds_disagree = False
    for table in _split_tables(net):
        views, _ = internal_views(table, net)
        _assert_rule_matches_references(views, net)
        # the set at node 1 under either feed: links 1 and 2, or link 2 alone
        passes = views.n1[3] + views.n1[4]
        verdicts = {a > 0 and a >= passes for a in (views.n1[1] + views.n1[2], views.n1[2])}
        feeds_disagree |= len(verdicts) == 2
    # the data tell the smallest-id brother's feed from the largest-id one's
    assert feeds_disagree


def _assert_structure_matches_brute_force(net):
    groups = {}
    for i in sorted(net.links):
        if i not in net.source_links:
            groups.setdefault(net.links[i].parent_node, []).append(i)
    sets = [tuple(g) for _, g in sorted(groups.items())]
    assert list(net.brother_sets) == sets
    assert net.brother_pos == tuple(tuple(net.pos[i] for i in b) for b in sets)
    assert net.feed_pos == tuple(tuple(net.pos[p] for p in net.parent_links[b[0]])
                                 for b in sets)
    assert net.root_pos == tuple(net.pos[s] for s in net.source_links)
    assert net.id_pos == tuple(net.pos[i] for i in sorted(net.links))
    for tree in net.trees:
        kids = [(i, tree.children[i]) for i in tree.order if tree.children[i]]
        assert tree.brother_pos == tuple(tuple(tree.pos[c] for c in cs) for _, cs in kids)
        assert tree.feed_pos == tuple((tree.pos[i],) for i, _ in kids)
        assert tree.root_pos == (tree.pos[tree.root_link],)


@settings(max_examples=200, deadline=None)
@given(_networks())
def test_brother_positions_match_brute_force_random(net):
    _assert_structure_matches_brute_force(net)


@pytest.mark.parametrize("net", [HUB, SPLIT, SPLIT_SWAPPED], ids=["hub", "split", "split_swapped"])
def test_brother_positions_match_brute_force_fixed(net):
    _assert_structure_matches_brute_force(net)


def _assert_le_xi_equals_mvwa(views, net):
    assert len(net.trees) == 1
    a, b = le_xi(views, net), mvwa(views, net)
    assert repr(a.theta_hat) == repr(b.theta_hat)
    assert a.flags == b.flags
    assert a.iterations == b.iterations


@pytest.mark.parametrize("net", [
    pytest.param(fixtures.star3(), id="star3"),
    pytest.param(fixtures.toy7(), id="toy7"),
    pytest.param(fixtures.kary_tree(2, 5), id="kary_2_5"),
    pytest.param(fixtures.kary_tree(4, 5), id="kary_4_5"),
])
@pytest.mark.parametrize("a,b,probes", [(1, 100, 2000), (1, 10, 200), (5, 1000, 30)],
                         ids=["beta1_100", "beta1_10", "beta5_1000"])
def test_le_xi_is_mvwa_on_single_trees_fixed(net, a, b, probes):
    theta = sample_theta(a, b, net, np.random.default_rng(3))
    views, _ = internal_views(simulate(SimConfig(net, probes, 3), theta), net)
    _assert_le_xi_equals_mvwa(views, net)


@st.composite
def _single_tree_cases(draw):
    net = draw(_networks())
    net = tree_networks(net)[draw(st.sampled_from(net.trees)).tree_id]
    a, b = draw(st.sampled_from([(1, 100), (1, 10), (2, 18), (5, 1000)]))
    seed = draw(st.integers(0, 2**16))
    theta = sample_theta(a, b, net, np.random.default_rng(seed))
    return net, simulate(SimConfig(net, draw(st.integers(1, 300)), seed), theta)


@settings(max_examples=200, deadline=None)
@given(_single_tree_cases())
def test_le_xi_is_mvwa_on_single_trees_random(case):
    net, patterns = case
    views, _ = internal_views(patterns, net)
    _assert_le_xi_equals_mvwa(views, net)
