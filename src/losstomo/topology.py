"""Multicast tree and multi-tree network structures.

A network is described by directed links (parent node -> child node) and a
set of multicast trees that cover those links.  Each tree has a root link
fed by a dedicated source node; probes travel from the source toward the
leaf links, whose child nodes are the receivers.  All structural sets the
estimators need (parent links, brother sets, child sets, per-subtree
receiver sets, topological orders) are derived once at construction and
never mutated afterwards, so a network can be shared freely across
threads.  The one exception is GeneralNetwork.tree_networks, built on first
use; two threads racing to build it build equal values.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable


class TopologyError(ValueError):
    """Raised when a topology file or structure is invalid."""


@dataclass(frozen=True)
class LinkRecord:
    """One directed link. The child node receives what the parent forwards."""

    link_id: int
    parent_node: int
    child_node: int

    def __post_init__(self):
        if self.link_id <= 0:
            raise TopologyError(f"link id must be positive, got {self.link_id}")
        if self.parent_node == self.child_node:
            raise TopologyError(f"link {self.link_id} is a self-loop at node {self.parent_node}")


class MulticastTree:
    """A rooted tree of links, derived sets included.

    Attributes (all read-only by convention):
        tree_id:    integer id of the tree
        root_link:  id of the link leaving the source node
        links:      frozenset of link ids in the tree
        parent:     link -> parent link id within the tree (absent for root)
        children:   link -> tuple of child link ids (ascending)
        brothers:   link -> tuple of links sharing its parent node, self included
        leaves:     ascending tuple of leaf link ids; defines receiver bit order
        subtree_leaves: link -> frozenset of leaf links below (and including) it
        order:      link ids, parents before children, ties by ascending id
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
        for i in self.links:
            if i not in records:
                raise TopologyError(f"tree {tree_id} references unknown link {i}")

        by_child_node = {}
        for i in sorted(self.links):
            node = records[i].child_node
            if node in by_child_node:
                raise TopologyError(
                    f"tree {tree_id}: links {by_child_node[node]} and {i} both end at node {node}")
            by_child_node[node] = i

        source = records[root_link].parent_node
        if source in by_child_node:
            raise TopologyError(
                f"tree {tree_id}: source node {source} is a child node within the tree")

        self.parent: dict[int, int] = {}
        kids: dict[int, list[int]] = {i: [] for i in self.links}
        for i in sorted(self.links):
            if i == root_link:
                continue
            up = by_child_node.get(records[i].parent_node)
            if up is None:
                raise TopologyError(
                    f"tree {tree_id}: link {i} hangs from node {records[i].parent_node} "
                    f"which no tree link reaches")
            self.parent[i] = up
            kids[up].append(i)
        self.children = {i: tuple(sorted(c)) for i, c in kids.items()}

        # parents-before-children walk; also proves every link is reachable
        order: list[int] = []
        frontier = [root_link]
        while frontier:
            i = heapq.heappop(frontier)
            order.append(i)
            for c in self.children[i]:
                heapq.heappush(frontier, c)
        if len(order) != len(self.links):
            missing = sorted(self.links - set(order))
            raise TopologyError(f"tree {tree_id}: links {missing} are not reachable from the root")
        self.order = tuple(order)

        self.brothers: dict[int, tuple[int, ...]] = {root_link: (root_link,)}
        for i, cs in self.children.items():
            for c in cs:
                self.brothers[c] = cs

        self.leaves = tuple(sorted(i for i in self.links if not self.children[i]))
        sub: dict[int, frozenset[int]] = {}
        for i in reversed(self.order):
            if not self.children[i]:
                sub[i] = frozenset((i,))
            else:
                sub[i] = frozenset().union(*(sub[c] for c in self.children[i]))
        self.subtree_leaves = sub
        self.source_node = source

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
        self.links: dict[int, LinkRecord] = {}
        for rec in records:
            if rec.link_id in self.links:
                raise TopologyError(f"duplicate link id {rec.link_id}")
            self.links[rec.link_id] = rec
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

        # network-level child set per link: must agree across trees
        self.child_links: dict[int, tuple[int, ...]] = {}
        for t in self.trees:
            for i in t.links:
                cs = t.children[i]
                if i in self.child_links:
                    if self.child_links[i] != cs:
                        raise TopologyError(
                            f"link {i} has child links {self.child_links[i]} in one tree "
                            f"but {cs} in tree {t.tree_id}")
                else:
                    self.child_links[i] = cs

        root_set = set(self.source_links)
        self.parent_links: dict[int, tuple[int, ...]] = {}
        for i in sorted(self.links):
            ups = sorted({t.parent[i] for t in self.trees if i in t.links and i != t.root_link})
            if i in root_set and ups:
                raise TopologyError(f"root link {i} also appears as a non-root link")
            self.parent_links[i] = tuple(ups)

        self.trees_with_link = {
            i: tuple(t.tree_id for t in self.trees if i in t.links) for i in self.links}
        self.shared_links = tuple(
            sorted(i for i, ks in self.trees_with_link.items() if len(ks) >= 2))
        self.leaf_links = tuple(sorted(i for i in self.links if not self.child_links[i]))

        # child links grouped by the node they hang from; the unit of the
        # brother-set solves (source nodes excluded, their single child is a root)
        groups: dict[int, set[int]] = {}
        for i, rec in self.links.items():
            if i in root_set:
                continue
            groups.setdefault(rec.parent_node, set()).add(i)
        self.brother_sets = tuple(
            tuple(sorted(g)) for _, g in sorted(groups.items()))

        self.order = _merged_order(self.links, self.parent_links)

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

    def is_leaf(self, link_id: int) -> bool:
        return not self.child_links[link_id]

    @cached_property
    def tree_networks(self) -> dict[int, GeneralNetwork]:
        """Tree id -> a network of that tree alone, over its links; built on first use."""
        return {t.tree_id: GeneralNetwork(f"{self.name}.tree{t.tree_id}",
                                          [self.links[i] for i in sorted(t.links)], [t])
                for t in self.trees}


def _merged_order(links: dict[int, LinkRecord], parents: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    # Kahn's algorithm with a heap: every link after all its parent links,
    # ties broken by ascending link id.
    pending = {i: len(parents[i]) for i in links}
    ready = [i for i, d in pending.items() if d == 0]
    heapq.heapify(ready)
    down: dict[int, list[int]] = {i: [] for i in links}
    for i, ups in parents.items():
        for u in ups:
            down[u].append(i)
    out: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        out.append(i)
        for c in down[i]:
            pending[c] -= 1
            if pending[c] == 0:
                heapq.heappush(ready, c)
    if len(out) != len(links):
        raise TopologyError("link graph contains a cycle")
    return tuple(out)


def topological_order(net: GeneralNetwork) -> tuple[int, ...]:
    """Merged link order: every link appears after all its parent links."""
    return net.order


def parse_topology(text: str) -> GeneralNetwork:
    """Parse the line-oriented topology format into a validated network.

    Grammar (tokens whitespace separated, '#' starts a comment)::

        network <name>
        link <link_id> <parent_node_id> <child_node_id>
        tree <tree_id> <root_link_id> : <link_id> ...
    """
    name = None
    records: list[LinkRecord] = []
    tree_specs: list[tuple[int, int, list[int]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
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
                tree_specs.append((int(tok[1]), int(tok[2]), [int(x) for x in tok[4:]]))
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
    rec_map = {}
    for rec in records:
        if rec.link_id in rec_map:
            raise TopologyError(f"duplicate link id {rec.link_id}")
        rec_map[rec.link_id] = rec
    trees = [MulticastTree(tid, root, ids, rec_map) for tid, root, ids in tree_specs]
    return GeneralNetwork(name, records, trees)


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
