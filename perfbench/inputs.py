"""Benchmark inputs, generated from the workload seed.

Nothing here imports losstomo: the network, the true rates and the grid are
written as files in the program's own text formats, so a change to the
program's fixtures cannot change what the benchmark measures.

The general network ("hub network") has `sources` multicast trees.  Each
source feeds one root link; below it hangs a private complete binary
subtree of `private_depth` levels plus two entry links into two of the
`hubs` shared hub subtrees (complete binary, `hub_depth` levels).  Every hub
is entered by exactly two trees, so the hub subtree links are shared by two
trees and the links leaving a hub node have two parent links.  The seed
picks which trees meet at which hub and permutes link and node ids; the
shape, and so the amount of work, is the same for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
LAYERED49 = HERE / "layered49.topo"

# cells of fixtures/table_grid.txt: Beta settings x sample sizes
GRID_SETTINGS = ((1, 100), (5, 1000), (2, 1000), (1, 1000))
GRID_PROBES = (50, 100, 200, 500)
THETA_CLAMP = 1e-6


@dataclass(frozen=True)
class HubShape:
    sources: int = 4
    hubs: int = 4
    private_depth: int = 6
    hub_depth: int = 5


@dataclass
class HubNetwork:
    """A generated network: links, trees and everything the checks need."""

    links: dict[int, tuple[int, int]]          # link id -> (parent node, child node)
    trees: dict[int, tuple[int, list[int]]]    # tree id -> (root link, link ids)
    children: dict[int, tuple[int, ...]]       # link id -> child link ids
    tree_parent: dict[int, dict[int, int]]     # tree id -> link -> parent link in tree
    roots: frozenset[int]

    def topology_text(self, name: str = "hubnet") -> str:
        lines = [f"network {name}"]
        for i in sorted(self.links):
            lines.append(f"link {i} {self.links[i][0]} {self.links[i][1]}")
        for k in sorted(self.trees):
            root, ids = self.trees[k]
            lines.append(f"tree {k} {root} : " + " ".join(map(str, sorted(ids))))
        return "\n".join(lines) + "\n"

    def leaves(self, k: int) -> list[int]:
        """Receiver order of tree k: ascending leaf link ids."""
        return sorted(i for i in self.trees[k][1] if not self.children[i])

    def brother_sets(self) -> list[tuple[int, ...]]:
        """Non-root links grouped by the node they hang from."""
        groups: dict[int, list[int]] = {}
        for i, (up, _) in self.links.items():
            if i not in self.roots:
                groups.setdefault(up, []).append(i)
        return [tuple(sorted(g)) for _, g in sorted(groups.items())]


def _binary_below(node: int, depth: int, new_node, new_link) -> list[int]:
    """Complete binary subtree of `depth` link levels under `node`."""
    made, frontier = [], [node]
    for _ in range(depth):
        nxt = []
        for up in frontier:
            for _ in range(2):
                down = new_node()
                made.append(new_link(up, down))
                nxt.append(down)
        frontier = nxt
    return made


def hub_network(seed: int, shape: HubShape = HubShape()) -> HubNetwork:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0x70B0))))
    raw_links: list[tuple[int, int]] = []
    node_count = [0]

    def new_node() -> int:
        node_count[0] += 1
        return node_count[0] - 1

    def new_link(up: int, down: int) -> int:
        raw_links.append((up, down))
        return len(raw_links) - 1

    hub_nodes, hub_links = [], []
    for _ in range(shape.hubs):
        h = new_node()
        hub_nodes.append(h)
        hub_links.append(_binary_below(h, shape.hub_depth, new_node, new_link))
    perm = rng.permutation(shape.hubs)
    raw_trees = []
    for s in range(shape.sources):
        src, top = new_node(), new_node()
        root = new_link(src, top)
        members = [root] + _binary_below(top, shape.private_depth, new_node, new_link)
        for h in (perm[s % shape.hubs], perm[(s + 1) % shape.hubs]):
            members.append(new_link(top, hub_nodes[h]))
            members.extend(hub_links[h])
        raw_trees.append((root, members))

    link_ids = rng.permutation(len(raw_links)) + 1
    node_ids = rng.permutation(node_count[0])
    links = {int(link_ids[q]): (int(node_ids[u]), int(node_ids[d]))
             for q, (u, d) in enumerate(raw_links)}
    trees = {k + 1: (int(link_ids[root]), [int(link_ids[q]) for q in members])
             for k, (root, members) in enumerate(raw_trees)}
    return _finish(links, trees)


def _finish(links: dict[int, tuple[int, int]],
            trees: dict[int, tuple[int, list[int]]]) -> HubNetwork:
    by_parent_node: dict[int, list[int]] = {}
    for i, (up, _) in links.items():
        by_parent_node.setdefault(up, []).append(i)
    children = {i: tuple(sorted(by_parent_node.get(links[i][1], ()))) for i in links}
    tree_parent = {}
    for k, (root, ids) in trees.items():
        tree_parent[k] = {c: i for i in ids for c in children[i]}
    roots = frozenset(root for root, _ in trees.values())
    return HubNetwork(links, trees, children, tree_parent, roots)


def parse_topology_text(text: str) -> HubNetwork:
    """Read back a topology file (used for the shipped layered49 network)."""
    links, trees = {}, {}
    for raw in text.splitlines():
        tok = raw.split("#", 1)[0].split()
        if not tok:
            continue
        if tok[0] == "link":
            links[int(tok[1])] = (int(tok[2]), int(tok[3]))
        elif tok[0] == "tree":
            trees[int(tok[1])] = (int(tok[2]), [int(x) for x in tok[4:]])
    return _finish(links, trees)


def true_rates(seed: int, link_ids, a: float, b: float) -> dict[int, float]:
    """Per-link loss rates: the m quantiles of Beta(a, b) at (q + 0.5) / m, dealt
    to the links in an order drawn from the seed.

    Every seed gets the same set of rates, so the work a workload does depends
    little on the seed; independent draws changed the number of distinct
    receiver patterns, and with it the run time, by 10% between seeds.
    """
    ids = sorted(link_ids)
    sample = np.random.Generator(np.random.PCG64(0xBE7A)).beta(a, b, size=400 * len(ids))
    levels = np.quantile(sample, (np.arange(len(ids)) + 0.5) / len(ids))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xBE7A))))
    rates = np.clip(rng.permutation(levels), THETA_CLAMP, 1.0 - THETA_CLAMP)
    return {i: float(v) for i, v in zip(ids, rates)}


def rates_text(theta: dict[int, float]) -> str:
    return "".join(f"theta {i} {theta[i]!r}\n" for i in sorted(theta))

