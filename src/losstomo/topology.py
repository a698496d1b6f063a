"""Multicast tree and multi-tree network structures.

A network is described by directed links (parent node -> child node) and a
set of multicast trees that cover those links.  Each tree has a root link
fed by a dedicated source node; probes travel from the source toward the
leaf links, whose child nodes are the receivers.  All structural sets the
estimators need (parent links, brother sets, child sets, topological
orders) are derived once at construction, mostly by zips and maps, and
never mutated afterwards, so a network can be shared freely across threads.

The positional form indexes links by their place in a parents-first order:
GeneralNetwork.pos (link id -> index in net.order), parent_pos, child_pos
and id_pos (the positions in ascending link id), read by
params.xi_by_position, le_xi and the pcem and nem E-steps; per tree, pos
(link id -> index in tree.order), parent_pos (-1 at the root), child_pos and
leaf_pos, read by the simulator, internal_views, mvwa and nem.  Both carry
their brother sets as position tuples (brother_pos), the positions of the
links feeding each set (feed_pos) and of the root links (root_pos), read by
statistics.regularity_by_position, le_xi and mvwa.  No other module builds
a link-to-index map.  Each structure's padded property holds the same form
as index arrays (PaddedForm), built on first use, for the estimators' array
path over (datasets x positions).

Only this module reads a network's link dicts (child_links, parent_links,
brother_sets, source_links); the numeric layers read the positional form.

parse_topology and parse_data split their block of link or pattern lines in
one pass (keyword_block) and check it in bulk; their line loop reads the few
other lines, and the whole file only when a bulk check fails, for a bad or
an unusual file (comments or tabs in the block), so errors name their line.
They, parse_rates and parse_grid read lines through token_lines.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import eq
from typing import Iterable, Iterator

import numpy as np


class TopologyError(ValueError):
    """Raised when a topology file or structure is invalid."""


class LinkRecord(namedtuple("LinkRecord", "link_id parent_node child_node")):
    """One directed link, a named tuple. The child node receives what the parent forwards."""

    __slots__ = ()

    def __new__(cls, link_id: int, parent_node: int, child_node: int):
        if link_id <= 0:
            raise TopologyError(f"link id must be positive, got {link_id}")
        if parent_node == child_node:
            raise TopologyError(f"link {link_id} is a self-loop at node {parent_node}")
        return super().__new__(cls, link_id, parent_node, child_node)


class MulticastTree:
    """A rooted tree of links, derived sets included.

    Attributes (all read-only by convention):
        tree_id:    integer id of the tree
        root_link:  id of the link leaving the source node
        links:      frozenset of link ids in the tree
        parent:     link -> parent link id within the tree (absent for root)
        children:   link -> tuple of child link ids (ascending)
        leaves:     ascending tuple of leaf link ids; defines receiver bit order
        order:      link ids, parents before children, ties by ascending id
        pos:        link id -> its position in order
        parent_pos: per position in order, the parent's position (-1 at the root)
        child_pos:  per position in order, the children's positions, by ascending id
        leaf_pos:   positions in order of the leaves, in receiver bit order
        brother_pos, feed_pos, root_pos: the brother sets (each non-empty
                    child_pos group), the one parent feeding each, and (0,)
    """

    def __init__(self, tree_id: int, root_link: int, link_ids: Iterable[int],
                 records: dict[int, LinkRecord]):
        self.tree_id = tree_id
        self.root_link = root_link
        self.links = frozenset(link_ids)
        if not self.links:
            raise TopologyError(f"tree {tree_id} has no links")
        if root_link not in self.links:
            raise TopologyError(f"tree {tree_id}: root link {root_link} not in its link list")
        if not records.keys() >= self.links:
            i = next(i for i in self.links if i not in records)
            raise TopologyError(f"tree {tree_id} references unknown link {i}")

        ids = sorted(self.links)
        _, ups, downs = zip(*map(records.__getitem__, ids))
        by_child_node = dict(zip(downs, ids))
        if len(by_child_node) < len(ids):
            q = next(q for q, node in enumerate(downs) if node in downs[:q])
            raise TopologyError(f"tree {tree_id}: links {ids[downs.index(downs[q])]} and "
                                f"{ids[q]} both end at node {downs[q]}")

        source = records[root_link].parent_node
        if source in by_child_node:
            raise TopologyError(
                f"tree {tree_id}: source node {source} is a child node within the tree")

        # ids ascend, so each link's children are appended in ascending order
        self.parent = dict(zip(ids, map(by_child_node.get, ups)))
        del self.parent[root_link]
        kids: dict[int, list[int]] = {i: [] for i in ids}
        for i, up in self.parent.items():
            if up is None:
                raise TopologyError(
                    f"tree {tree_id}: link {i} hangs from node {records[i].parent_node} "
                    f"which no tree link reaches")
            kids[up].append(i)
        self.children = dict(zip(kids, map(tuple, kids.values())))

        # parents-before-children walk; also proves every link is reachable
        self.order = order = _merged_order(self.children, [root_link], {})
        if len(order) != len(self.links):
            missing = sorted(self.links - set(order))
            raise TopologyError(f"tree {tree_id}: links {missing} are not reachable from the root")
        self.pos = pos = dict(zip(order, range(len(order))))
        # the root's parent is None, at position -1
        self.parent_pos = tuple(map(pos.get, map(self.parent.get, order), repeat(-1)))
        # the walk pops brothers in ascending id order, so each tuple is by id
        below: list[list[int]] = [[] for _ in order]
        for q, up in enumerate(self.parent_pos[1:], 1):
            below[up].append(q)
        self.child_pos = tuple(map(tuple, below))
        self.brother_pos = tuple(filter(None, self.child_pos))
        self.feed_pos = tuple((q,) for q, c in enumerate(self.child_pos) if c)
        self.root_pos = (0,)
        self.leaves = tuple(i for i, c in self.children.items() if not c)
        self.leaf_pos = tuple(map(pos.__getitem__, self.leaves))

    @cached_property
    def padded(self) -> PaddedForm:
        return PaddedForm(self.child_pos, tuple(() if p < 0 else (p,) for p in self.parent_pos))

    def __eq__(self, other):
        return (isinstance(other, MulticastTree)
                and self.tree_id == other.tree_id
                and self.root_link == other.root_link
                and self.links == other.links)

    def __hash__(self):
        return hash((self.tree_id, self.root_link, self.links))

    def __repr__(self):
        return f"MulticastTree(id={self.tree_id}, root={self.root_link}, m={len(self.links)})"


class GeneralNetwork:
    """A network covered by one or more multicast trees.

    Shared links are declared once and listed in each covering tree.  A link
    must look the same in every tree that contains it: same child links, or
    a leaf everywhere.  Source nodes inject probes and are never reached by
    any link.  Violations raise TopologyError, since the loss model cannot
    express them.
    """

    def __init__(self, name: str, records: Iterable[LinkRecord], trees: Iterable[MulticastTree]):
        self.name = name
        self.links = _by_id(list(records))
        self.trees = tuple(sorted(trees, key=lambda t: t.tree_id))
        if not self.trees:
            raise TopologyError("network has no trees")
        seen = set()
        for t in self.trees:
            if t.tree_id in seen:
                raise TopologyError(f"duplicate tree id {t.tree_id}")
            seen.add(t.tree_id)
        self.tree_by_id = {t.tree_id: t for t in self.trees}

        covered = frozenset().union(*(t.links for t in self.trees))
        uncovered = sorted(set(self.links) - covered)
        if uncovered:
            raise TopologyError(f"links {uncovered} are not covered by any tree")

        self.source_links = tuple(sorted({t.root_link for t in self.trees}))
        source_nodes = {self.links[s].parent_node for s in self.source_links}
        for rec in self.links.values():
            if rec.child_node in source_nodes:
                raise TopologyError(
                    f"link {rec.link_id} ends at source node {rec.child_node}")

        # a link's child set is its first tree's, and every tree repeats it
        self.child_links: dict[int, tuple[int, ...]] = {}
        for t in reversed(self.trees):
            self.child_links.update(t.children)
        for t in self.trees:
            if not t.children.items() <= self.child_links.items():
                i = next(i for i in t.links if self.child_links[i] != t.children[i])
                raise TopologyError(
                    f"link {i} has child links {self.child_links[i]} in one tree "
                    f"but {t.children[i]} in tree {t.tree_id}")
        # in ascending id: the parent links, and the links grouped by the node
        # they hang from, the brother sets (a source node's one child is a root)
        ups: dict[int, list[int]] = {i: [] for i in sorted(self.links)}
        groups: dict[int, list[int]] = {}
        for i, rec in zip(ups, map(self.links.__getitem__, ups)):
            for c in self.child_links[i]:
                ups[c].append(i)
            groups.setdefault(rec.parent_node, []).append(i)
        self.parent_links = {i: tuple(u) for i, u in ups.items()}
        self.brother_sets = tuple(tuple(g) for node, g in sorted(groups.items())
                                  if node not in source_nodes)

        self.order = _merged_order(
            self.child_links, [i for i, u in ups.items() if not u],
            {i: len(u) - 1 for i, u in ups.items() if len(u) > 1})
        if len(self.order) != len(ups):
            # each tree's walk from its root rejects every cycle first: a cycle
            # here would force, through the child-set agreement check, a cycle
            # within one tree.  The guard stays in case that chain ever breaks.
            raise TopologyError("link graph contains a cycle")
        self.pos = dict(zip(self.order, range(len(self.order))))
        self.parent_pos = _positions(self.pos, map(self.parent_links.__getitem__, self.order))
        self.child_pos = _positions(self.pos, map(self.child_links.__getitem__, self.order))
        # each brother set is fed by the parent links of its smallest-id brother
        self.brother_pos = _positions(self.pos, self.brother_sets)
        self.feed_pos = tuple([self.parent_pos[b[0]] for b in self.brother_pos])
        self.root_pos = tuple(map(self.pos.__getitem__, self.source_links))
        self.id_pos = tuple(map(self.pos.__getitem__, ups))

    @cached_property
    def padded(self) -> PaddedForm:
        return PaddedForm(self.child_pos, self.parent_pos)

    def __eq__(self, other):
        return (isinstance(other, GeneralNetwork)
                and self.name == other.name
                and self.links == other.links
                and self.trees == other.trees)

    def __hash__(self):
        return hash((self.name, frozenset(self.links), self.trees))

    def __repr__(self):
        return (f"GeneralNetwork({self.name!r}, m={len(self.links)}, "
                f"trees={len(self.trees)})")


class PaddedForm:
    """A positional form's child sets and parent sets, as index arrays for
    products, sums and recursions over (datasets x positions) arrays.

    Index len(child_pos) names a padding column: a caller fills it with 1.0
    for a product and with 0 or False for a sum, so a padded row adds its
    real terms in the scalar loop's order and then exact no-ops.

    kids:  (widest child set x positions), each position's children by
           ascending id, as child_pos lists them;
    seed:  1.0 where a position has children and 0.0 at a leaf, the start of
           params.pi_by_position's product;
    rises: (positions, their kids) of the links with children, one level per
           height above the leaves, lowest first, so each level's children
           are done before it: xi_by_position's leaf-to-root order.
    drops: (positions, their parents) one level per depth below the roots
           (the longest chain of parent links), roots first, each position's
           parents in the given order, padded to the widest parent set:
           pcem's parents-first order.
    A form whose links have one parent at most, as every tree's, also has
    parent: each position's parent, the padding index at a root;
    falls: (positions, parents, brothers) per depth below the roots,
           shallowest first, where brothers lists each position's parent's
           other children by ascending id: the root-to-leaf order.
    """

    def __init__(self, child_pos: tuple[tuple[int, ...], ...],
                 parent_pos: tuple[tuple[int, ...], ...]):
        m = len(child_pos)
        self.kids = kids = _padded_table(child_pos)
        self.seed = (kids < m).any(axis=0).astype(float)
        self.rises = tuple((at, kids[:, at]) for at in _levels(_chain_lengths(kids), 1))
        ups = _padded_table(parent_pos)
        depths = _levels(_chain_lengths(ups), 0)
        self.drops = tuple((at, ups[:, at]) for at in depths)
        if len(ups) > 1:
            return
        self.parent = parent = ups[0] if len(ups) else np.full(m, m, np.intp)
        # each position's parent's children, itself moved last and dropped
        family = np.concatenate([kids, np.full((len(kids), 1), m, np.intp)], axis=1)[:, parent]
        last = np.argsort(family == np.arange(m), axis=0, kind="stable")
        brothers = np.take_along_axis(family, last, axis=0)[:-1]
        self.falls = tuple((at, parent[at], brothers[:, at]) for at in depths[1:])


def _padded_table(sets: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """(widest set x positions): each position's set as listed, then the
    padding index len(sets)."""
    m = len(sets)
    widths = np.fromiter(map(len, sets), np.intp, m)
    table = np.full((widths.max(initial=0), m), m, np.intp)
    # row-major over table.T: each position's set in turn
    table.T[np.arange(len(table)) < widths[:, None]] = list(chain.from_iterable(sets))
    return table


def _chain_lengths(table: np.ndarray) -> np.ndarray:
    """Per position, the longest chain of links through the padded table's
    entries (children: the height above the leaves; parents: the depth below
    the roots); 0 at a position whose entries are all padding."""
    m = table.shape[1]
    length = np.zeros(m + 1, np.intp)
    length[m] = -1
    while True:
        # each pass lifts a position one above its longest entry
        lifted = length[table].max(axis=0, initial=-1) + 1
        if (lifted == length[:m]).all():
            return length[:m]
        length[:m] = lifted


def _levels(level: np.ndarray, lowest: int) -> list[np.ndarray]:
    """The positions at each level from lowest up, ascending within a level."""
    by_level = np.argsort(level, kind="stable")
    groups = np.split(by_level, np.cumsum(np.bincount(level))[:-1])
    return [at for at in groups[lowest:] if len(at)]


def _by_id(records: list[LinkRecord]) -> dict[int, LinkRecord]:
    """Link id -> record; TopologyError at the first repeated id."""
    links = {rec.link_id: rec for rec in records}
    if len(links) < len(records):
        seen: set[int] = set()
        repeat_id = next(i for i, _, _ in records if i in seen or seen.add(i))
        raise TopologyError(f"duplicate link id {repeat_id}")
    return links


def _merged_order(children: dict[int, tuple[int, ...]], ready: list[int],
                  pending: dict[int, int]) -> tuple[int, ...]:
    """The links reached from ready, each after all its parent links, ties by
    ascending id (Kahn's algorithm with a heap).  pending[c] counts the parent
    links still to come of a link c with several; the caller checks that every
    link was reached."""
    heapq.heapify(ready)
    push, pop = heapq.heappush, heapq.heappop
    out: list[int] = []
    while ready:
        i = pop(ready)
        out.append(i)
        for c in children[i]:
            if pending.get(c):
                pending[c] -= 1
            else:
                push(ready, c)
    return tuple(out)


def _positions(pos: dict[int, int], groups: Iterable[tuple[int, ...]]) -> tuple[tuple, ...]:
    """Each group of link ids as a tuple of positions: one map, a slice per group."""
    groups = list(groups)
    flat = tuple(map(pos.__getitem__, chain.from_iterable(groups)))
    ends = list(accumulate(map(len, groups), initial=0))
    return tuple([flat[a:b] for a, b in zip(ends, ends[1:])])


def keyword_block(text: str, keyword: str, width: int, convert):
    """(text's lines outside its block, numbered from 1 as in the file, and
    convert(the block's token columns 1 to width - 1, from one split)).  The
    block runs from the first to the last line that starts with keyword and a
    blank; unless each of its lines starts so and holds width tokens, with no
    comment or line break but \\n, no other line names keyword and convert
    raises no ValueError, every line is outside and the columns are empty."""
    lead = keyword + " "
    first = 0 if text.startswith(lead) else text.find("\n" + lead) + 1
    end = text.find("\n", text.rfind("\n" + lead) + 1) % (len(text) + 1)   # -1: the end
    head, tail, n = text[:first], text[end:], text.count("\n", first, end) + 1
    tok = text.split()
    tok = tok[len(head.split()):len(tok) - len(tail.split())]
    # n lines start with keyword; when it occurs n times, every width-th
    # token, those are the line starts and each line holds width
    if (text.startswith(lead, first) and keyword not in head and keyword not in tail
            and text.isascii() and text.count("\n" + lead, first, end) == n - 1
            and not any(text.find(c, first, end) >= 0 for c in "#\r\v\f\x1c\x1d\x1e")
            and len(tok) == width * n and tok.count(keyword) == tok[::width].count(keyword) == n):
        try:
            columns = convert(*(tok[j::width] for j in range(1, width)))
            head = head.splitlines()
            return [*enumerate(head, 1), *enumerate(tail.splitlines(), len(head) + n)], columns
        except ValueError:
            pass
    return enumerate(text.splitlines(), 1), convert(*[[]] * (width - 1))


def token_lines(numbered: Iterable[tuple[int, str]]) -> Iterator[tuple[int, str, list[str]]]:
    """(lineno, line, tokens) for each (lineno, raw line) pair whose line, the
    raw line cut at its first '#' and stripped, is not blank."""
    for lineno, raw in numbered:
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line, line.split()


def parse_topology(text: str) -> GeneralNetwork:
    """Parse the line-oriented topology format into a validated network.

    Grammar (tokens whitespace separated, '#' starts a comment)::

        network <name>
        link <link_id> <parent_node_id> <child_node_id>
        tree <tree_id> <root_link_id> : <link_id> ...

    The link lines are split and checked in bulk, and the loop below reads
    the other lines; it reads them all when a bulk check fails, so that an
    error names the first bad line.
    """
    others, records = keyword_block(text, "link", 4, _link_records)
    name = None
    tree_specs: list[tuple[int, int, list[int]]] = []
    for lineno, line, tok in token_lines(others):
        try:
            if tok[0] == "network":
                if name is not None:
                    raise TopologyError("multiple 'network' lines")
                if len(tok) != 2:
                    raise TopologyError("'network' takes exactly one name")
                name = tok[1]
            elif tok[0] == "link":
                if len(tok) != 4:
                    raise TopologyError("'link' takes <id> <parent_node> <child_node>")
                records.append(LinkRecord(int(tok[1]), int(tok[2]), int(tok[3])))
            elif tok[0] == "tree":
                if len(tok) < 5 or tok[3] != ":":
                    raise TopologyError("'tree' takes <id> <root_link> : <link> ...")
                tree_specs.append((int(tok[1]), int(tok[2]), list(map(int, tok[4:]))))
            else:
                raise TopologyError(f"unknown keyword {tok[0]!r}")
        except TopologyError as exc:
            raise TopologyError(f"line {lineno}: {exc}") from None
        except ValueError:
            raise TopologyError(f"line {lineno}: malformed integer in {line!r}") from None
    if name is None:
        raise TopologyError("missing 'network' line")
    if not tree_specs:
        raise TopologyError("topology declares no trees")
    rec_map = _by_id(records)
    trees = [MulticastTree(tid, root, ids, rec_map) for tid, root, ids in tree_specs]
    return GeneralNetwork(name, records, trees)


def _link_records(ids: list[str], ups: list[str], downs: list[str]) -> list[LinkRecord]:
    """keyword_block's link columns as records; ValueError where a line may be bad."""
    ids, ups, downs = ([*map(int, column)] for column in (ids, ups, downs))
    if min(ids, default=1) < 1 or any(map(eq, ups, downs)):
        raise ValueError("a link id below 1 or a self-loop")
    return list(map(tuple.__new__, repeat(LinkRecord), zip(ids, ups, downs)))


def serialize_topology(net: GeneralNetwork) -> str:
    """Canonical text form; parse_topology(serialize_topology(net)) == net."""
    lines = [f"network {net.name}"]
    for i in sorted(net.links):
        rec = net.links[i]
        lines.append(f"link {rec.link_id} {rec.parent_node} {rec.child_node}")
    for t in net.trees:
        ids = " ".join(str(i) for i in sorted(t.links))
        lines.append(f"tree {t.tree_id} {t.root_link} : {ids}")
    return "\n".join(lines) + "\n"
