import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from losstomo import fixtures
from losstomo.simulator import SimConfig, sample_theta, simulate
from losstomo.statistics import (DataError, PatternTable, collapse_patterns,
                                 internal_states, internal_views, parse_data,
                                 serialize_data, sufficiency_check, tree_views)
from losstomo.topology import GeneralNetwork, LinkRecord, MulticastTree

STAR = fixtures.star3()
TOY = fixtures.toy7()


def star_table(counts):
    n = sum(counts.values())
    return PatternTable("t", {1: n}, {1: (2, 3)}, {1: counts})


def test_collapse_counts():
    table = collapse_patterns({1: ["11", "10", "11"]}, STAR)
    assert table.counts[1] == {"11": 2, "10": 1}
    assert table.probes[1] == 3
    assert table.receivers[1] == (2, 3)


def test_collapse_all_zero():
    table = collapse_patterns({1: ["00"] * 5}, STAR)
    assert table.counts[1] == {"00": 5}


def test_collapse_rejects_bad_records():
    with pytest.raises(DataError):
        collapse_patterns({1: ["111"]}, STAR)
    with pytest.raises(DataError):
        collapse_patterns({1: ["1x"]}, STAR)


@settings(max_examples=100, deadline=None)
@given(st.permutations(["11", "10", "01", "00", "11", "10", "11"]))
def test_collapse_order_independent(records):
    table = collapse_patterns({1: list(records)}, STAR)
    assert table.counts[1] == {"11": 3, "10": 2, "01": 1, "00": 1}


def test_internal_states_monotone_along_paths():
    for bits in ("1010", "0001", "1111", "0000", "0110"):
        states = internal_states(bits, TOY.trees[0])
        tree = TOY.trees[0]
        for i in tree.links:
            if i != tree.root_link:
                assert states.y[i] <= states.y[tree.parent[i]]
        assert set(states.confirmed) | set(states.dark_tops) | set(states.unknown) \
            == set(tree.links)


def test_star_views_hand_counts():
    views, report = internal_views(
        star_table({"11": 2, "10": 1, "01": 1, "00": 1}), STAR)
    assert views.n1 == {1: 4, 2: 3, 3: 3}
    assert views.n0 == {1: 1, 2: 1, 3: 1}
    assert views.r == {1: 0.8, 2: 0.75, 3: 0.75}
    assert report.all_ok


def test_all_received_fails_regularity():
    views, report = internal_views(star_table({"11": 6}), STAR)
    assert all(views.n0[i] == 0 for i in STAR.links)
    assert not report.all_ok
    assert report.n0_zero == {1, 2, 3}


def test_shared_links_aggregate_across_trees():
    net = fixtures.shared_pair()
    table = PatternTable(
        "t", {1: 4, 2: 3},
        {1: (2, 3), 2: (2, 3)},
        {1: {"11": 2, "10": 1, "00": 1}, 2: {"01": 2, "11": 1}})
    views, _ = internal_views(table, net)
    assert views.per_tree_n1[1][2] == 3 and views.per_tree_n1[2][2] == 1
    assert views.n1[2] == 4
    assert views.n1[3] == 2 + 3
    # conservation through multiple parent links
    assert views.n0[2] + views.n1[2] == views.n1[1] + views.n1[4]


def test_conservation_on_simulated_data():
    import numpy as np
    from losstomo.simulator import SimConfig, sample_theta, simulate

    net = fixtures.twotree12()
    rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(5)))
    theta = sample_theta(2.0, 30.0, net, rng)
    views, _ = internal_views(simulate(SimConfig(net, 400, seed=9), theta), net)
    for i in net.links:
        parents = net.parent_links[i]
        if parents:
            assert views.n0[i] + views.n1[i] == sum(views.n1[p] for p in parents)
    for t in net.trees:
        s = t.root_link
        assert views.per_tree_n1[t.tree_id][s] + views.per_tree_n0[t.tree_id][s] \
            == views.probes[t.tree_id]


def test_collapse_is_lossless_for_views():
    rng = random.Random(7)
    records = ["".join(rng.choice("01") for _ in range(4)) for _ in range(60)]
    table = collapse_patterns({1: records}, TOY)
    views, _ = internal_views(table, TOY)
    # second route: one table entry per probe
    n1 = {i: 0 for i in TOY.links}
    tree = TOY.trees[0]
    for bits in records:
        states = internal_states(bits, tree)
        for i in states.confirmed:
            n1[i] += 1
    assert views.n1 == n1


def test_no_information_marks_subtree():
    views, report = internal_views(star_table({"00": 4}), STAR)
    assert views.r[2] is None and views.r[3] is None
    assert report.no_information == {2, 3}
    assert report.n1_zero == {1}


def test_sufficiency_equal_tables():
    a = star_table({"11": 2, "00": 2})
    b = star_table({"11": 2, "00": 2})
    assert sufficiency_check(a, b, STAR, points=25)


def test_sufficiency_distinct_tables_same_views():
    a = PatternTable("a", {1: 2}, {1: (4, 5, 6, 7)}, {1: {"1110": 1, "0001": 1}})
    b = PatternTable("b", {1: 2}, {1: (4, 5, 6, 7)}, {1: {"1101": 1, "0010": 1}})
    va, _ = internal_views(a, TOY)
    vb, _ = internal_views(b, TOY)
    assert va.n1 == vb.n1
    assert a.counts != b.counts
    assert sufficiency_check(a, b, TOY, points=50)


def test_sufficiency_negative_control():
    a = star_table({"11": 2, "00": 2})
    b = star_table({"11": 3, "00": 1})
    assert not sufficiency_check(a, b, STAR, points=10)


def test_data_file_roundtrip():
    table = PatternTable("probe-run", {1: 4}, {1: (2, 3)},
                         {1: {"11": 2, "01": 1, "00": 1}})
    text = serialize_data(table)
    parsed = parse_data(text, STAR)
    assert parsed == table


@pytest.mark.parametrize("text,msg", [
    ("probes 1 2\n", "missing 'data'"),
    ("data x\nprobes 1 2\nreceivers 1 : 2 3\npattern 1 11 1\n", "sum to"),
    ("data x\nprobes 1 1\nreceivers 1 : 3 2\npattern 1 11 1\n", "do not match"),
    ("data x\nprobes 1 1\nreceivers 1 : 2 3\npattern 1 111 1\n", "bad pattern"),
    ("data x\nprobes 1 1\npattern 1 11 1\n", "missing receivers"),
    ("data x\nprobes 9 1\nreceivers 9 : 2 3\npattern 9 11 1\n", "unknown tree"),
    ("data x\nprobes 1 2\nreceivers 1 : 2 3\npattern 1 11 1\npattern 1 11 1\n",
     "duplicate pattern"),
    ("data x\nprobes 1 0\nreceivers 1 : 2 3\nbogus\n", "unknown keyword"),
])
def test_data_file_errors(text, msg):
    with pytest.raises(DataError, match=msg):
        parse_data(text, STAR)


def test_duplicate_probes_line_rejected():
    text = "data x\nprobes 1 1\nprobes 1 1\nreceivers 1 : 2 3\npattern 1 11 1\n"
    with pytest.raises(DataError, match="duplicate probes"):
        parse_data(text, STAR)


def test_duplicate_receivers_line_rejected():
    text = ("data x\nprobes 1 1\nreceivers 1 : 2 3\nreceivers 1 : 2 3\n"
            "pattern 1 11 1\n")
    with pytest.raises(DataError, match="duplicate receivers"):
        parse_data(text, STAR)


def _two_disjoint_stars() -> GeneralNetwork:
    records = [LinkRecord(1, 0, 1), LinkRecord(2, 1, 2), LinkRecord(3, 1, 3),
               LinkRecord(4, 10, 11), LinkRecord(5, 11, 12), LinkRecord(6, 11, 13)]
    rec_map = {r.link_id: r for r in records}
    trees = [MulticastTree(1, 1, [1, 2, 3], rec_map),
             MulticastTree(2, 4, [4, 5, 6], rec_map)]
    return GeneralNetwork("disjoint", records, trees)


def _simulated(net, a, b, probes, seed):
    rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(seed)))
    return simulate(SimConfig(net, probes, seed=seed), sample_theta(a, b, net, rng))


def _tree_view_cases():
    layered = fixtures.layered49()
    cases = [(layered, _simulated(layered, 1, 100, 200, seed)) for seed in range(6)]
    twotree = fixtures.twotree12()
    cases += [(twotree, _simulated(twotree, 2, 30, 300, seed)) for seed in range(3)]
    counts = {"11": 6, "10": 2, "01": 2, "00": 2}
    cases.append((fixtures.shared_pair(), PatternTable(
        "t", {1: 12, 2: 4}, {1: (2, 3), 2: (2, 3)},
        {1: counts, 2: {"11": 1, "10": 3}})))
    cases.append((_two_disjoint_stars(), PatternTable(
        "t", {1: 5, 2: 5}, {1: (2, 3), 2: (5, 6)},
        {1: {"11": 2, "10": 1, "01": 1, "00": 1}, 2: {"11": 3, "10": 1, "01": 1}})))
    return cases


def test_tree_views_equal_views_of_the_tree_alone():
    # reference: count the tree's own pattern table on the tree alone
    irregular = 0
    for net, patterns in _tree_view_cases():
        views, _ = internal_views(patterns, net)
        for k in patterns.counts:
            tree = net.tree_by_id[k]
            tree_net = GeneralNetwork(
                f"{net.name}.tree{k}", [net.links[i] for i in sorted(tree.links)], [tree])
            alone = PatternTable(patterns.name, {k: patterns.probes[k]},
                                 {k: patterns.receivers[k]}, {k: patterns.counts[k]})
            want_view, want_report = internal_views(alone, tree_net)
            got_view, got_report = tree_views(views, tree_net)
            for f in dataclasses.fields(want_view):
                assert getattr(got_view, f.name) == getattr(want_view, f.name), f.name
            for f in dataclasses.fields(want_report):
                assert getattr(got_report, f.name) == getattr(want_report, f.name), f.name
            irregular += not want_report.all_ok
    assert irregular > 0   # boundary cases were exercised
