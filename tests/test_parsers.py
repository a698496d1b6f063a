"""Exact parse errors, and the bulk parsers against the line-by-line reading.

parse_data and parse_topology read a well-formed file in bulk and read it
again line by line only to name the first bad line.  The texts below pin
every message whole, line number included, on the malformed inputs of
test_data_file_errors and test_parse_errors and on inputs whose fault only
the line loop sees: a repeat or a bad token on the last line of a long file,
one tree id spelled two ways, a comment or a lone carriage return cutting a
line short, and lines that each hold the wrong number of tokens while the
file holds the right total.  The properties then check that messy but valid
rewrites parse equal to the canonical text, and that a network read back from
its text derives every structural attribute as tests/topology_reference.py
does.  Rate and grid files, read by the same line lexer, get their exact
texts pinned too, each behind comment and blank lines that shift its number.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from losstomo import cli, fixtures, statistics, topology
from losstomo.bench import GridError, parse_grid
from losstomo.params import parse_rates
from losstomo.simulator import SimConfig, sample_theta, simulate
from losstomo.estimators import METHODS
from losstomo.statistics import DataError, PatternTable, parse_data, serialize_data
from losstomo.topology import (TopologyError, keyword_block, parse_topology,
                               serialize_topology)

from test_brother_sets import HUB, SPLIT
from test_statistics import _networks
from topology_reference import NETWORK_ATTRS, TREE_ATTRS, network_structure

STAR = fixtures.star3()
LAYERED = fixtures.layered49()
STAR_HEAD = "data x\nprobes 1 2\nreceivers 1 : 2 3\n"


def _long_data(tail="", n=600):
    """A valid layered49 data file with n distinct tree-1 patterns, then tail."""
    leaves = " ".join(map(str, LAYERED.trees[0].leaves))
    rows = "".join(f"pattern 1 {j:018b} 1\n" for j in range(n))
    return f"data long\nprobes 1 {n}\nreceivers 1 : {leaves}\n{rows}{tail}"


def _long_topology(at, line):
    """kary_tree(4, 4)'s topology text with its line number `at` replaced."""
    lines = serialize_topology(fixtures.kary_tree(4, 4)).splitlines()
    lines[at - 1] = line
    return "\n".join(lines) + "\n"


DATA_ERRORS = [
    (STAR, "probes 1 2\n", "missing 'data' line"),
    (STAR, STAR_HEAD + "pattern 1 11 1\n", "tree 1: pattern counts sum to 1, expected 2"),
    (STAR, "data x\nprobes 1 1\nreceivers 1 : 3 2\npattern 1 11 1\n",
     "tree 1: receivers (3, 2) do not match leaf links (2, 3)"),
    (STAR, "data x\nprobes 1 1\nreceivers 1 : 2 3\npattern 1 111 1\n",
     "tree 1: bad pattern '111'"),
    (STAR, "data x\nprobes 1 1\npattern 1 11 1\n", "missing receivers line for tree 1"),
    (STAR, "data x\nprobes 9 1\nreceivers 9 : 2 3\npattern 9 11 1\n", "unknown tree 9"),
    (STAR, STAR_HEAD + "pattern 1 11 1\npattern 1 11 1\n",
     "line 5: duplicate pattern 11 for tree 1"),
    (STAR, "data x\nprobes 1 0\nreceivers 1 : 2 3\nbogus\n", "line 4: unknown keyword 'bogus'"),
    (STAR, "data x\nprobes 1 1\nprobes 1 1\nreceivers 1 : 2 3\npattern 1 11 1\n",
     "line 3: duplicate probes line for tree 1"),
    (STAR, "data x\nprobes 1 1\nreceivers 1 : 2 3\nreceivers 1 : 2 3\npattern 1 11 1\n",
     "line 4: duplicate receivers line for tree 1"),
    # the line loop alone sees these
    (LAYERED, _long_data("pattern 1 000000000000000101 1\n"),
     "line 604: duplicate pattern 000000000000000101 for tree 1"),
    (STAR, STAR_HEAD + "pattern 1 11 1\npattern 01 11 1\n",
     "line 5: duplicate pattern 11 for tree 1"),
    (LAYERED, _long_data("bogus 1 2\n"), "line 604: unknown keyword 'bogus'"),
    (STAR, STAR_HEAD + "pattern 1 11 x\npattern 1 10 1\n",
     "line 4: malformed integer in 'pattern 1 11 x'"),
    (LAYERED, _long_data("pattern 1 111111111111111111 1x\n"),
     "line 604: malformed integer in 'pattern 1 111111111111111111 1x'"),
    (STAR, STAR_HEAD + "pattern 1 11 # 1\npattern 1 10 1\n",
     "line 4: 'pattern' takes <tree_id> <bits> <count>"),
    (STAR, STAR_HEAD + "pattern 1 11 1 5\npattern 1 10\n",
     "line 4: 'pattern' takes <tree_id> <bits> <count>"),
    (STAR, STAR_HEAD + "pattern 1\npattern 3 pattern 1 11 2\n",
     "line 4: 'pattern' takes <tree_id> <bits> <count>"),
    (STAR, STAR_HEAD + "pattern\npattern 1 11 1\n",
     "line 4: 'pattern' takes <tree_id> <bits> <count>"),
    (STAR, STAR_HEAD + "pattern 1 11 1 1 1\npattern 1\n",
     "line 4: 'pattern' takes <tree_id> <bits> <count>"),
    (STAR, STAR_HEAD + "pattern 1 11 1 pattern 1 10 1\n\npattern 1 01 1\n",
     "line 4: 'pattern' takes <tree_id> <bits> <count>"),
    (STAR, STAR_HEAD + "pattern 1 1#1 1\npattern 1 10 1\n",
     "line 4: 'pattern' takes <tree_id> <bits> <count>"),
    (STAR, STAR_HEAD + "pattern 1 11 1\r1\n", "line 5: unknown keyword '1'"),
    (STAR, STAR_HEAD + "pattern 1 11\x0b1\npattern 1 10 1\n",
     "line 4: 'pattern' takes <tree_id> <bits> <count>"),
    (STAR, STAR_HEAD + "pattern 1 pattern 1\npattern 1 10 1\n", "tree 1: bad pattern 'pattern'"),
    (STAR, STAR_HEAD + "pattern x 11 1\npattern 1 10 1\n",
     "line 4: malformed integer in 'pattern x 11 1'"),
    (STAR, STAR_HEAD + "pattern 1 11 1\npattern 1 10 1\ndata y\n",
     "line 6: exactly one 'data <name>' line required"),
    (STAR, STAR_HEAD + "pattern 1 11 1\npattern 1 10 1\nprobes 1 2\n",
     "line 6: duplicate probes line for tree 1"),
    (STAR, "data\nprobes 1 2\nreceivers 1 : 2 3\npattern 1 11 2\n",
     "line 1: exactly one 'data <name>' line required"),
    (STAR, "data x\nprobes x 2\nreceivers 1 : 2 3\npattern 1 11 2\n",
     "line 2: malformed integer in 'probes x 2'"),
    (STAR, "data x\nprobes 1 2\nreceivers 1 2 3\npattern 1 11 2\n",
     "line 3: 'receivers' takes <tree_id> : <leaf links>"),
    (STAR, "data x\nprobes 1 2\nreceivers 1 : 2 y\npattern 1 11 2\n",
     "line 3: malformed integer in 'receivers 1 : 2 y'"),
    (STAR, STAR_HEAD + "pattern 1 11 1\npattern 2 11 1\n",
     "tree mentioned without a 'probes' line"),
    (STAR, "data x\r\nprobes 1 2\r\nreceivers 1 : 2 3\r\npattern 1 11 1\r\npattern 1 11 1\r\n",
     "line 5: duplicate pattern 11 for tree 1"),
    (STAR, STAR_HEAD + "pattern\t1\t11\t1\npattern 1 11 1\n",
     "line 5: duplicate pattern 11 for tree 1"),
    (STAR, STAR_HEAD + "pattern 1 11 0\npattern 1 10 2\n", "tree 1: pattern 11 has count 0"),
    (LAYERED, _long_data("pattern 1 000000000000000111 1 # a comment\n"
                         "pattern 1 000000000000000111 1\n"),
     "line 604: duplicate pattern 000000000000000111 for tree 1"),
    (LAYERED, _long_data().replace("pattern 1 000000000100000000 1\n",
                                   "pattern 1 000000000100000000\n"),
     "line 260: 'pattern' takes <tree_id> <bits> <count>"),
    (LAYERED, _long_data().replace("pattern 1 000000000100000001 1\n",
                                   "pattern 1 000000000100000001 1 1\n"),
     "line 261: 'pattern' takes <tree_id> <bits> <count>"),
]

TOPOLOGY_ERRORS = [
    ("network x\nlink 1 0 1\nlink 1 0 2\ntree 1 1 : 1", "duplicate link id 1"),
    ("network x\nlink 1 0 1\ntree 1 1 : 1 2", "tree 1 references unknown link 2"),
    ("network x\nlink 1 0 1\ntree 1 2 : 1", "tree 1: root link 2 not in its link list"),
    ("network x\nlink 1 0 1\nlink 2 5 6\ntree 1 1 : 1 2",
     "tree 1: link 2 hangs from node 5 which no tree link reaches"),
    ("network x\nlink 1 0 1\nlink 2 1 2\ntree 1 1 : 1 2\ntree 2 2 : 2",
     "link 1 ends at source node 1"),
    ("network x\nlink 1 0 1\ntree 1 1 :", "line 3: 'tree' takes <id> <root_link> : <link> ..."),
    ("network x\nlink 1 1 1\ntree 1 1 : 1", "line 2: link 1 is a self-loop at node 1"),
    ("link 1 0 1\ntree 1 1 : 1", "missing 'network' line"),
    ("network x\nlink 1 0 1", "topology declares no trees"),
    ("network x\nlink 1 0 1\nlink 2 0 2\ntree 1 1 : 1", "links [2] are not covered by any tree"),
    ("network x\nlink 1 0 1\nlink 2 1 2\nlink 3 2 3\nlink 4 5 1\n"
     "tree 1 1 : 1 2 3\ntree 2 4 : 4 2",
     "link 2 has child links (3,) in one tree but () in tree 2"),
    ("network x\nlink 1 0 1\nlink 2 1 0\ntree 1 1 : 1 2",
     "tree 1: source node 0 is a child node within the tree"),
    ("network x\nlink 1 0 1\nlink 2 1 2\nlink 3 2 3\nlink 4 3 2\ntree 1 1 : 1 2 3 4",
     "tree 1: links 2 and 4 both end at node 2"),
    ("network x\nlink 1 0 1\nlink 2 1 2\nlink 4 7 0\ntree 1 1 : 1 2\ntree 2 4 : 4 1 2",
     "link 4 ends at source node 0"),
    ("network x\nlink 1 0 1\nlink 2 5 6\nlink 3 6 5\ntree 1 1 : 1 2 3",
     "tree 1: links [2, 3] are not reachable from the root"),
    ("network x\nlink 1 0 1\nlink 2 1 2\nlink 3 1 2\ntree 1 1 : 1 2 3",
     "tree 1: links 2 and 3 both end at node 2"),
    ("network x\ntree 1 1 : 1\ntree 1 1 : 1\nlink 1 0 1", "duplicate tree id 1"),
    ("network x\nnetwork y\nlink 1 0 1\ntree 1 1 : 1", "line 2: multiple 'network' lines"),
    ("network\nlink 1 0 1\ntree 1 1 : 1", "line 1: 'network' takes exactly one name"),
    ("network x\nlink 1 0 x\ntree 1 1 : 1", "line 2: malformed integer in 'link 1 0 x'"),
    ("network x\nlink 1 0\ntree 1 1 : 1", "line 2: 'link' takes <id> <parent_node> <child_node>"),
    ("network x\nlink 0 0 1\ntree 1 1 : 1", "line 2: link id must be positive, got 0"),
    ("network x\nlink -3 0 1\ntree 1 1 : 1", "line 2: link id must be positive, got -3"),
    ("network x\nlink 1 0 1 # a comment\nlink 2 1 # 2\ntree 1 1 : 1 2",
     "line 3: 'link' takes <id> <parent_node> <child_node>"),
    ("network x\nlink 1 0 1\nlink 2 1 2\r3\ntree 1 1 : 1 2", "line 4: unknown keyword '3'"),
    ("network x\nlink 1 0 1\nlinks 2 1 2\ntree 1 1 : 1 2", "line 3: unknown keyword 'links'"),
    ("network x\nlink 1 0 1\ntree 1 1 1", "line 3: 'tree' takes <id> <root_link> : <link> ..."),
    ("network x\nlink 1 0 1\ntree x 1 : 1", "line 3: malformed integer in 'tree x 1 : 1'"),
    ("network x\nlink 1 0 1\nlink 2 1 2 3\nlink 3 1 3\ntree 1 1 : 1 2 3",
     "line 3: 'link' takes <id> <parent_node> <child_node>"),
    ("network x\r\nlink 1 0 1\r\nlink 2 1 1\r\ntree 1 1 : 1 2\r\n",
     "line 3: link 2 is a self-loop at node 1"),
    (_long_topology(200, "link 199 51 51"), "line 200: link 199 is a self-loop at node 51"),
    (_long_topology(300, "link 299 75 x"), "line 300: malformed integer in 'link 299 75 x'"),
    (_long_topology(341, "link 340 85 341 7"),
     "line 341: 'link' takes <id> <parent_node> <child_node>"),
    (_long_topology(2, "link 2 1 2"), "duplicate link id 2"),
    (_long_topology(100, "# nothing\tlink 99 25 100"), "tree 1 references unknown link 99"),
]


@pytest.mark.parametrize("net,text,msg", DATA_ERRORS)
def test_data_error_text_is_exact(net, text, msg):
    with pytest.raises(DataError) as exc:
        parse_data(text, net)
    assert str(exc.value) == msg


def _estimate(tmp_path, net, text, method) -> int:
    topo, data = tmp_path / "net.topo", tmp_path / "probes.data"
    topo.write_text(serialize_topology(net))
    data.write_text(text)
    return cli.main(["estimate", "--topology", str(topo), "--data", str(data),
                     "--method", method, "--out", str(tmp_path / "out.csv")])


@pytest.mark.parametrize("net,text,msg", DATA_ERRORS)
def test_estimate_reports_the_data_error_text(net, text, msg, tmp_path, capsys):
    # estimate leaves a table's closing checks to internal_views, and nem,
    # which refuses a large network first, to parse_data: every method
    # prints parse_data's message and exits 2
    for method in METHODS:
        assert _estimate(tmp_path, net, text, method) == 2
        assert capsys.readouterr().err.startswith(f"error: {msg}\n"), method


def test_estimate_builds_each_bit_matrix_once(tmp_path, monkeypatch):
    net = fixtures.twotree12()
    text = serialize_data(simulate(SimConfig(net, 200, 1),
                                   sample_theta(1, 10, net, np.random.default_rng(1))))
    built = []
    real = PatternTable.bit_matrix
    monkeypatch.setattr(PatternTable, "bit_matrix",
                        lambda table, k: built.append(k) or real(table, k))
    for method in METHODS:
        del built[:]
        assert _estimate(tmp_path, net, text, method) == 0
        # nem's table is checked by parse_data, then counted by internal_views
        assert built == [1, 2] * (2 if method == "nem" else 1), method


def test_probes_line_needs_a_tree_and_a_count():
    with pytest.raises(DataError) as exc:
        parse_data("data x\nprobes 1\n", STAR)
    assert str(exc.value) == "line 2: 'probes' takes <tree_id> <count>"


@pytest.mark.parametrize("text,msg", TOPOLOGY_ERRORS)
def test_topology_error_text_is_exact(text, msg):
    with pytest.raises(TopologyError) as exc:
        parse_topology(text)
    assert str(exc.value) == msg


HEAD = "# head comment\n\n   \n"   # three lines the rate and grid parsers skip

RATE_ERRORS = [
    ("", "rate file is empty"),
    ("# only comments\n\n", "rate file is empty"),
    (HEAD + "theta 1\n", "line 4: expected 'theta|xi <link_id> <value>'"),
    ("theta 1 0.2\n# c\n\nxi 2 0.3\n", "line 4: mixed rate kinds 'theta' and 'xi'"),
    ("theta 1 0.2\n\t\n# c\ntheta 1 0.4\n", "line 4: duplicate link 1"),
    (HEAD + "gamma 1 0.5\n", "line 4: expected 'theta|xi <link_id> <value>'"),
    (HEAD + "theta x 0.5  # note\n", "line 4: malformed number in 'theta x 0.5'"),
    ("theta 1 0.2 # tail\n\n\ttheta 2 zero\n", "line 3: malformed number in 'theta 2 zero'"),
    (HEAD + "theta 1 0.2#0.3 4\ntheta 1.5 0.2\n",
     "line 5: malformed number in 'theta 1.5 0.2'"),
    (HEAD + "theta#1 0.2\n", "line 4: expected 'theta|xi <link_id> <value>'"),
    ("xi 1 0.2\r\n# c\r\n\r\nxi 2 0.3 0.4\r\n",
     "line 4: expected 'theta|xi <link_id> <value>'"),
    (HEAD + "theta 1 0.2\n\n# x\nxi 3 nan\ntheta 3 0.1\n",
     "line 7: mixed rate kinds 'theta' and 'xi'"),
]

GRID_ERRORS = [
    ("", "grid file declares no cells"),
    ("# only comments\n\n", "grid file declares no cells"),
    (HEAD + "cell 1 100 50 3\n",
     "line 4: expected 'cell <beta_a> <beta_b> <n> <reps> <methods>'"),
    (HEAD + "cell 1 100 50#2 pcem\n",
     "line 4: expected 'cell <beta_a> <beta_b> <n> <reps> <methods>'"),
    (HEAD + "row 1 100 50 3 pcem\n",
     "line 4: expected 'cell <beta_a> <beta_b> <n> <reps> <methods>'"),
    (HEAD + "cell one 100 50 3 pcem\n", "line 4: malformed number"),
    (HEAD + "cell 1 100 50 2.5 pcem\n", "line 4: malformed number"),
    (HEAD + "cell 1 100 50 3 bogus,pcem,nope\n", "line 4: unknown methods ['bogus', 'nope']"),
    (HEAD + "cell 1 100 50 0 le-xi\n", "line 4: replicates must be >= 1, got 0"),
    (HEAD + "cell 1 100 50 -3 le-xi\n", "line 4: replicates must be >= 1, got -3"),
    (HEAD + "cell 1 100 0 2 le-xi\n", "line 4: probe count must be >= 1, got 0"),
    (HEAD + "cell 0 100 50 2 le-xi\n",
     "line 4: Beta parameters must be finite and > 0, got (0, 100)"),
    (HEAD + "cell nan 100 50 2 le-xi\n",
     "line 4: Beta parameters must be finite and > 0, got (nan, 100)"),
    (HEAD + "cell 1 inf 50 2 le-xi\n",
     "line 4: Beta parameters must be finite and > 0, got (1, inf)"),
    ("cell 1 100 50 2 le-xi\n# c\n\ncell 1 100 50 0 le-xi\n",
     "line 4: replicates must be >= 1, got 0"),
    (HEAD + "cell 1 100 50 2 le-xi,le-xi # twice\n",
     "line 4: le-xi at Beta(1,100), n=50 already runs on line 4"),
    ("cell 1 100 50 2 le-xi\n\n# c\ncell 1 100 50 3 pcem,le-xi\n",
     "line 4: le-xi at Beta(1,100), n=50 already runs on line 1"),
    ("cell 1 100 50 1 le-xi\n#\n\ncell 1.0000001 100 50 1 le-xi\n",
     "line 4: le-xi at Beta(1,100), n=50 already runs on line 1"),
    ("cell 1 100 50 2 le-xi\n\t# c\n\ncell 1 100 50 2 mvwa,pcem # c\n"
     "cell 2 100 50 1 pcem,pcem\n",
     "line 5: pcem at Beta(2,100), n=50 already runs on line 5"),
]


@pytest.mark.parametrize("text,msg", RATE_ERRORS)
def test_rate_error_text_is_exact(text, msg):
    with pytest.raises(ValueError) as exc:
        parse_rates(text)
    assert str(exc.value) == msg


@pytest.mark.parametrize("text,msg", GRID_ERRORS)
def test_grid_error_text_is_exact(text, msg):
    with pytest.raises(GridError) as exc:
        parse_grid(text)
    assert str(exc.value) == msg


def test_canonical_files_are_split_in_bulk():
    net = fixtures.twotree12()
    table = simulate(SimConfig(net, 300, seed=4), {i: 0.1 for i in net.links})
    text = serialize_topology(net)
    others, records = keyword_block(text, "link", 4, topology._link_records)
    assert records == [net.links[i] for i in sorted(net.links)]
    assert [(n, line) for n, line in others if line] == [
        (n, line) for n, line in enumerate(text.splitlines(), 1) if not line.startswith("link ")]
    others, counts = keyword_block(serialize_data(table), "pattern", 4,
                                   statistics._pattern_counts)
    assert counts == {k: c for k, c in table.counts.items() if c}
    assert all(not line.startswith("pattern") for _, line in others)
    assert keyword_block(_long_data(), "pattern", 4, statistics._pattern_counts)[1] \
        == {1: {f"{j:018b}": 1 for j in range(600)}}


@st.composite
def _simulated_files(draw):
    net = draw(_networks())
    a, b = draw(st.sampled_from([(1, 100), (1, 10), (2, 18), (1, 1)]))
    seed = draw(st.integers(0, 2**16))
    theta = sample_theta(a, b, net, np.random.default_rng(seed))
    return net, simulate(SimConfig(net, draw(st.integers(1, 400)), seed), theta)


def _messy(text: str, rng: random.Random) -> str:
    """text with comments, blank lines, tabs, runs of blanks, CRLF and its lines
    reordered: a run of pattern lines before the header lines, and every
    other kind of line shuffled."""
    lines = text.splitlines()
    patterns = [line for line in lines if line.startswith("pattern ")]
    others = [line for line in lines if not line.startswith("pattern ")]
    cut = rng.randrange(len(patterns) + 1)
    rng.shuffle(others)
    lines = others[:1] + patterns[cut:] + others[1:] + patterns[:cut]
    out = []
    for line in lines:
        if rng.random() < 0.2:
            out.append(rng.choice(["", "   ", "# a comment", "\t# pattern 1 11 1"]))
        sep = rng.choice([" ", "\t", "  ", " \t "])
        line = rng.choice(["", " ", "\t"]) + sep.join(line.split())
        out.append(line + rng.choice(["", " ", "\t", " # note", "#"]))
    return rng.choice(["\n", "\r\n"]).join(out) + rng.choice(["", "\n", "\r\n"])


def _around_block(text: str, keyword: str, rng: random.Random) -> str:
    """text with its keyword lines kept as one plain block, and every other line
    shuffled, with tabs, leading blanks and comments, before or after it."""
    lines = text.splitlines()
    block = [line for line in lines if line.startswith(keyword + " ")]
    others = [rng.choice(["", "\t"]) + rng.choice([" ", "\t"]).join(line.split())
              + rng.choice(["", "  # note"]) for line in lines if line not in block]
    rng.shuffle(others)
    cut = rng.randrange(len(others) + 1)
    return "\n".join(["# a comment", *others[:cut], *block, "", *others[cut:], ""])


@settings(max_examples=150, deadline=None)
@given(_simulated_files(), st.randoms(use_true_random=False))
def test_data_round_trip_and_messy_rewrites(case, rng):
    net, table = case
    text = serialize_data(table)
    assert parse_data(text, net) == table
    assert parse_data(_messy(text, rng), net) == table
    around = _around_block(text, "pattern", rng)
    assert parse_data(around, net) == table
    assert keyword_block(around, "pattern", 4, statistics._pattern_counts)[1] \
        == {k: c for k, c in table.counts.items() if c}


def _assert_structure_matches_reference(net):
    want = network_structure(net)
    for attr in NETWORK_ATTRS:
        assert getattr(net, attr) == want[attr], attr
    for tree, tree_want in zip(net.trees, want["trees"]):
        for attr in TREE_ATTRS:
            assert getattr(tree, attr) == tree_want[attr], (tree.tree_id, attr)


@settings(max_examples=200, deadline=None)
@given(_networks(), st.randoms(use_true_random=False))
def test_topology_round_trip_and_reference_structure(net, rng):
    text = serialize_topology(net)
    assert parse_topology(text) == net
    messy = parse_topology(_messy(text, rng))
    assert messy == net
    around = _around_block(text, "link", rng)
    assert parse_topology(around) == net
    assert keyword_block(around, "link", 4, topology._link_records)[1] \
        == [net.links[i] for i in sorted(net.links)]
    _assert_structure_matches_reference(net)
    _assert_structure_matches_reference(messy)


@pytest.mark.parametrize("net", [HUB, SPLIT, fixtures.layered49(), fixtures.twotree12(),
                                 fixtures.kary_tree(4, 4), fixtures.shared_pair()],
                         ids=["hub", "split_node", "layered49", "twotree12", "kary_4_4",
                              "shared_pair"])
def test_fixture_structure_matches_reference(net):
    _assert_structure_matches_reference(parse_topology(serialize_topology(net)))
