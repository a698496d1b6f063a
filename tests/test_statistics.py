import dataclasses
import random
import tracemalloc
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from losstomo import fixtures
from losstomo.likelihood import per_probe_loglik
from losstomo.simulator import SimConfig, sample_theta, simulate
from losstomo.statistics import (DataError, InternalView, PatternTable, internal_states,
                                 internal_views, internal_views_replicates, parse_data,
                                 regularity_report, serialize_data)
from losstomo.topology import GeneralNetwork, LinkRecord, MulticastTree

from mvwa_reference import tree_views

STAR = fixtures.star3()
TOY = fixtures.toy7()


def star_table(counts):
    n = sum(counts.values())
    return PatternTable("t", {1: n}, {1: (2, 3)}, {1: counts})


def test_internal_views_peak_memory_stays_below_an_int64_copy():
    # the count product must not cast the (links x patterns) bool array of
    # internal states to int64 whole, as seen @ counts would
    net = fixtures.kary_tree(4, 4)
    patterns = simulate(SimConfig(net, 4000, seed=1), dict.fromkeys(net.links, 0.1))
    width = len(patterns.counts[1])
    assert width > 3000
    tracemalloc.start()
    try:
        internal_views(patterns, net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(net.links) * width


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
    table = PatternTable("t", {1: len(records)}, {1: TOY.trees[0].leaves},
                         {1: dict(Counter(records))})
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


SUFFICIENCY_SEED = 20240
SUFFICIENCY_TOL = 1e-9


def sufficiency_check(patterns_a: PatternTable, patterns_b: PatternTable,
                      net: GeneralNetwork, points: int = 100) -> bool:
    """True when the two tables carry the same information about the rates.

    The tables must produce identical internal views, and their full
    log-likelihoods (per-pattern sums, not the reduced form) may differ only
    by an additive constant across random interior rate vectors.
    """
    view_a, _ = internal_views(patterns_a, net)
    view_b, _ = internal_views(patterns_b, net)
    if view_a.n1 != view_b.n1 or view_a.n0 != view_b.n0:
        return False

    def full_loglik(patterns: PatternTable, theta: dict[int, float]) -> float:
        total = 0.0
        for k, table in patterns.counts.items():
            for bits, c in table.items():
                total += c * per_probe_loglik(bits, k, theta, net)
        return total

    rng = random.Random(SUFFICIENCY_SEED)
    diffs = []
    for _ in range(points):
        theta = {i: rng.uniform(0.05, 0.95) for i in net.links}
        diffs.append(full_loglik(patterns_a, theta) - full_loglik(patterns_b, theta))
    spread = max(diffs) - min(diffs)
    scale = 1.0 + max(abs(d) for d in diffs)
    return spread <= SUFFICIENCY_TOL * scale


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


def _reference_views(patterns, net):
    """Views counted pattern by pattern through internal_states."""
    per1, per0 = {}, {}
    for k, table in patterns.counts.items():
        tree = net.tree_by_id[k]
        n1 = {i: 0 for i in tree.links}
        for bits, c in table.items():
            for i in internal_states(bits, tree).confirmed:
                n1[i] += c
        per1[k] = n1
        per0[k] = {i: (patterns.probes[k] if i == tree.root_link else n1[tree.parent[i]])
                   - n1[i] for i in tree.links}
    n1 = {i: sum(per1[k].get(i, 0) for k in per1) for i in net.links}
    n0 = {i: sum(per0[k].get(i, 0) for k in per0) for i in net.links}
    r = {i: n1[i] / (n1[i] + n0[i]) if n1[i] + n0[i] else None for i in net.links}
    view = InternalView(per1, per0, n1, n0, r, dict(patterns.probes))
    return view, regularity_report(view, net)


def _assert_identical(got, want):
    """Every field equal, dicts in the same key order, counts plain ints."""
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a == b, f.name
        if isinstance(b, dict):
            assert list(a) == list(b), f.name
            for x, y in zip(a.values(), b.values()):
                assert type(x) is type(y), f.name
                if isinstance(y, dict):
                    assert list(x) == list(y), f.name
                    assert all(type(v) is int for v in x.values()), f.name


def _assert_views_match_reference(patterns, net):
    got = internal_views(patterns, net)
    want = _reference_views(patterns, net)
    _assert_identical(got[0], want[0])
    _assert_identical(got[1], want[1])


@st.composite
def _networks(draw):
    """Up to 20 links: 1-3 trees with private parts, some entering one shared subtree.

    Links are (parent node, child node) pairs named by position; the first
    tree always enters the shared subtree, so every link is covered.  Link
    ids are a random permutation, so receiver order differs from tree order.
    """
    links = []
    nodes = iter(range(1, 100))

    def grow(frontier, size):
        made = []
        for _ in range(size):
            links.append((draw(st.sampled_from(frontier)), next(nodes)))
            frontier.append(links[-1][1])
            made.append(len(links) - 1)
        return made

    hub = next(nodes)
    shared = grow([hub], draw(st.integers(0, 5)))
    specs = []
    for k in draw(st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True)):
        links.append((next(nodes), next(nodes)))
        root = len(links) - 1
        frontier = [links[root][1]]
        members = [root] + grow(frontier, draw(st.integers(0, 3)))
        if shared and (not specs or draw(st.booleans())):
            links.append((draw(st.sampled_from(frontier)), hub))
            members += [len(links) - 1] + shared
        specs.append((k, root, members))
    ids = draw(st.permutations(range(1, len(links) + 1)))
    recs = {ids[q]: LinkRecord(ids[q], up, down) for q, (up, down) in enumerate(links)}
    trees = [MulticastTree(k, ids[root], [ids[q] for q in members], recs)
             for k, root, members in specs]
    return GeneralNetwork("random", list(recs.values()), trees)


@st.composite
def _nets_and_tables(draw):
    net = draw(_networks())
    return net, _table_on(draw, net)


def _table_on(draw, net):
    """A random table on net: trees in any order, some with no counts entry."""
    probes, receivers, counts = {}, {}, {}
    for tree in draw(st.permutations(net.trees)):
        k, width = tree.tree_id, len(tree.leaves)
        table = draw(st.dictionaries(st.text("01", min_size=width, max_size=width),
                                     st.integers(1, 6), max_size=10))
        probes[k] = sum(table.values())
        receivers[k] = tree.leaves
        if table or draw(st.booleans()):
            counts[k] = table
    return PatternTable("random", probes, receivers, counts)


@settings(max_examples=200, deadline=None)
@given(_nets_and_tables())
def test_views_equal_per_pattern_reference(case):
    net, patterns = case
    _assert_views_match_reference(patterns, net)


@st.composite
def _nets_and_table_lists(draw):
    net = draw(_networks())
    return net, [_table_on(draw, net) for _ in range(draw(st.integers(1, 5)))]


@settings(max_examples=100, deadline=None)
@given(_nets_and_table_lists())
def test_replicate_views_equal_per_pattern_reference(case):
    # the tables' patterns share one array per tree; each table's views and
    # report must be those of the table alone
    net, tables = case
    got = internal_views_replicates(tables, net)
    assert len(got) == len(tables)
    for table, (view, report) in zip(tables, got):
        want = _reference_views(table, net)
        _assert_identical(view, want[0])
        _assert_identical(report, want[1])


def test_replicate_views_of_simulated_cells_equal_each_table_alone():
    # twotree12 at 1 probe leaves tree 2 empty; layered49 tables differ in size
    for net, probes in [(fixtures.twotree12(), 1), (fixtures.twotree12(), 300),
                        (fixtures.layered49(), 500)]:
        tables = [_simulated(net, 1, 30, probes, seed) for seed in range(6)]
        got = internal_views_replicates(tables, net)
        for table, (view, report) in zip(tables, got):
            want = internal_views(table, net)
            _assert_identical(view, want[0])
            _assert_identical(report, want[1])
            _assert_identical(view, _reference_views(table, net)[0])


REPORT_FIELDS = ("n1_zero", "n0_zero", "no_information", "brother_sum_violation", "all_ok")
# the first read of a counted report: == either way round, flagged(), all_ok
FIRST_READS = {
    "eq": lambda lazy, eager: lazy == eager,
    "eq-reversed": lambda lazy, eager: eager == lazy,
    "flagged": lambda lazy, eager: lazy.flagged() == eager.flagged(),
    "all_ok": lambda lazy, eager: lazy.all_ok == eager.all_ok,
}


@pytest.mark.parametrize("first", sorted(FIRST_READS))
def test_counted_reports_fill_on_first_read_and_equal_eager_ones(first):
    # internal_views_replicates' reports hold their count rows; the first read
    # of any field fills all five from regularity_by_position, and the report
    # then equals regularity_report's, field by field and both ways under ==
    kinds = set()
    for net, probes in [(fixtures.twotree12(), 1), (fixtures.twotree12(), 300),
                        (fixtures.layered49(), 500), (STAR, 2000)]:
        tables = [_simulated(net, 1, 30, probes, seed) for seed in range(4)]
        for view, lazy in internal_views_replicates(tables, net):
            eager = regularity_report(view, net)
            assert type(eager) is not type(lazy)
            assert not vars(lazy).keys() & set(REPORT_FIELDS)
            assert FIRST_READS[first](lazy, eager)
            assert vars(lazy).keys() >= set(REPORT_FIELDS)
            assert lazy == eager and eager == lazy and not lazy != eager
            assert [getattr(lazy, f) for f in REPORT_FIELDS] == \
                [getattr(eager, f) for f in REPORT_FIELDS]
            assert lazy.flagged() == eager.flagged() and lazy.all_ok == eager.all_ok
            assert repr(lazy) == repr(eager)
            kinds.add(eager.all_ok)
    assert kinds == {True, False}


def test_reports_of_different_counts_differ():
    net = fixtures.twotree12()
    (_, a), (_, b) = internal_views_replicates(
        [_simulated(net, 1, 30, 1, 0), _simulated(net, 1, 30, 300, 0)], net)
    assert a != b and b != a and a != regularity_report(internal_views(
        _simulated(net, 1, 30, 300, 0), net)[0], net)
    with pytest.raises(AttributeError):
        a.not_a_field


def _views_edge_cases():
    """(network, table builder) pairs: the tables are built inside the test, so
    a simulate fault fails that test, not the module's collection."""
    twotree = fixtures.twotree12()
    # a tree with no probes, with and without an (empty) counts entry
    tree2 = {"1111": 2, "1011": 1, "0000": 2}
    receivers = {1: twotree.tree_by_id[1].leaves, 2: twotree.tree_by_id[2].leaves}
    return [
        (STAR, partial(star_table, {"00": 4})),
        (STAR, partial(star_table, {"11": 6})),
        (fixtures.single_link(),
         partial(PatternTable, "t", {1: 5}, {1: (1,)}, {1: {"1": 3, "0": 2}})),
        (fixtures.single_link(), partial(PatternTable, "t", {1: 0}, {1: (1,)}, {1: {}})),
        (twotree, partial(PatternTable, "t", {1: 0, 2: 5}, receivers, {1: {}, 2: tree2})),
        (twotree, partial(PatternTable, "t", {1: 0, 2: 5}, receivers, {2: tree2})),
        (twotree, partial(_simulated, twotree, 1, 10, 300, 4)),
    ]


@pytest.mark.parametrize("net,patterns", _views_edge_cases())
def test_views_edge_cases_equal_reference(net, patterns):
    _assert_views_match_reference(patterns(), net)


def test_kary_tree_views_equal_reference():
    net = fixtures.kary_tree(2, 8)
    assert len(net.links) == 511 and len(net.trees[0].leaves) == 256
    patterns = _simulated(net, 1, 100, 1000, 3)
    assert len(patterns.counts[1]) > 100
    _assert_views_match_reference(patterns, net)


@pytest.mark.parametrize("distinct", [255, 256, 257, 513])
def test_views_across_column_blocks_equal_reference(distinct):
    """internal_views sums its count product over blocks of 256 patterns; the
    last pattern, alone in its block at 257 and 513, carries the largest count."""
    net = fixtures.kary_tree(2, 4)
    leaves = net.trees[0].leaves
    rng = random.Random(distinct)
    bits = [format(v, f"0{len(leaves)}b") for v in rng.sample(range(2 ** len(leaves)), distinct)]
    table = {b: rng.randint(1, 9) for b in bits}
    table[bits[-1]] = 1000
    patterns = PatternTable("t", {1: sum(table.values())}, {1: leaves}, {1: table})
    _assert_views_match_reference(patterns, net)


@pytest.mark.parametrize("counts,msg", [
    ({"1x": 4}, "tree 1: bad pattern '1x'"),
    ({"٠1": 4}, "tree 1: bad pattern '٠1'"),
    ({"111": 4}, "tree 1: bad pattern '111'"),
    ({"11": 2, "1": 1, "101": 1}, "tree 1: bad pattern '1'"),
    ({"11": 1, "10": 1, "0x": 1, "x0": 1}, "tree 1: bad pattern '0x'"),
    ({"11": 4, "00": 0}, "tree 1: pattern 00 has count 0"),
    ({"11": 5, "00": -1}, "tree 1: pattern 00 has count -1"),
    ({"11": 2, "00": 1}, "tree 1: pattern counts sum to 3, expected 4"),
    ({}, "tree 1: pattern counts sum to 0, expected 4"),
])
def test_malformed_table_names_first_bad_pattern(counts, msg):
    table = PatternTable("t", {1: 4}, {1: (2, 3)}, {1: counts})
    for check in (table.validate, lambda: internal_views(table, STAR)):
        with pytest.raises(DataError) as exc:
            check()
        assert str(exc.value) == msg


def test_malformed_second_tree_is_named():
    table = PatternTable("t", {1: 2, 2: 2}, {1: (2, 3), 2: (2, 3)},
                         {1: {"11": 2}, 2: {"11": 1, "1-": 1}})
    with pytest.raises(DataError, match=r"^tree 2: bad pattern '1-'$"):
        internal_views(table, fixtures.shared_pair())


@pytest.mark.parametrize("table,msg", [
    # receivers out of order would credit the wrong leaf
    (PatternTable("x", {1: 4}, {1: (3, 2)}, {1: {"10": 4}}),
     r"tree 1: receivers \(3, 2\) do not match leaf links \(2, 3\)"),
    (PatternTable("x", {1: 4}, {}, {1: {"10": 4}}), "tree 1: receivers None"),
    (PatternTable("x", {1: 4, 99: 1}, {1: (2, 3), 99: (2, 3)},
                  {1: {"10": 4}, 99: {"11": 1}}), "unknown tree 99"),
    (PatternTable("x", {1: 4}, {1: (2, 3)}, {1: {"10": 4}, 99: {"11": 1}}),
     "unknown tree 99"),
    (PatternTable("x", {1: 4, 7: 0}, {1: (2, 3)}, {1: {"10": 4}}), "unknown tree 7"),
])
def test_views_reject_tables_that_do_not_fit_the_net(table, msg):
    with pytest.raises(DataError, match=msg):
        internal_views(table, STAR)


def test_views_reject_patterns_without_probe_count():
    table = PatternTable("x", {1: 1}, {1: (2, 3), 2: (2, 3)},
                         {1: {"11": 1}, 2: {"11": 1}})
    with pytest.raises(DataError, match="tree 2: patterns without a probe count"):
        internal_views(table, fixtures.shared_pair())


def test_views_check_each_tree_once(monkeypatch):
    net = fixtures.twotree12()
    patterns = _simulated(net, 1, 10, 300, 4)
    seen = []
    real = PatternTable.bit_matrix
    monkeypatch.setattr(PatternTable, "bit_matrix",
                        lambda table, k: seen.append(k) or real(table, k))
    internal_views(patterns, net)
    assert seen == [1, 2]


def test_internal_states_rejects_a_pattern_of_the_wrong_width():
    with pytest.raises(DataError) as exc:
        internal_states("1", fixtures.star3().trees[0])
    assert str(exc.value) == "pattern '1' has 1 bits, tree 1 has 2 receivers"
