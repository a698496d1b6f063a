"""Canonical networks used by tests, examples and the benchmark harness."""

from __future__ import annotations

from .topology import GeneralNetwork, LinkRecord, MulticastTree


def _net(name, records, tree_specs):
    recs = [LinkRecord(*r) for r in records]
    rec_map = {r.link_id: r for r in recs}
    trees = [MulticastTree(tid, root, ids, rec_map) for tid, root, ids in tree_specs]
    return GeneralNetwork(name, recs, trees)


def star3() -> GeneralNetwork:
    """Root link feeding a node with two leaf links; smallest branching net."""
    return _net(
        "star3",
        [(1, 0, 1), (2, 1, 2), (3, 1, 3)],
        [(1, 1, [1, 2, 3])],
    )


def single_link() -> GeneralNetwork:
    """One root link straight to a receiver."""
    return _net("single", [(1, 0, 1)], [(1, 1, [1])])


def toy7() -> GeneralNetwork:
    """Seven-link binary tree of depth three, receivers on links 4..7."""
    return _net(
        "toy7",
        [(1, 0, 1), (2, 1, 2), (3, 1, 3), (4, 2, 4), (5, 2, 5), (6, 3, 6), (7, 3, 7)],
        [(1, 1, [1, 2, 3, 4, 5, 6, 7])],
    )


def chain(m: int) -> GeneralNetwork:
    """A path of m links with a single receiver at the bottom."""
    records = [(i, i - 1, i) for i in range(1, m + 1)]
    return _net(f"chain{m}", records, [(1, 1, list(range(1, m + 1)))])


def kary_tree(k: int, depth: int) -> GeneralNetwork:
    """A complete k-ary tree: a root link, then depth levels of k-way fan-out.

    Links are numbered level by level from 1; link i ends at node i, and
    the children of link i are links k*(i-1)+2 .. k*i+1.  kary_tree(2, 8)
    has 511 links and 256 receivers.
    """
    m = sum(k ** d for d in range(depth + 1))
    records = [(1, 0, 1)] + [(i, (i - 2) // k + 1, i) for i in range(2, m + 1)]
    return _net(f"kary{k}_depth{depth}", records, [(1, 1, list(range(1, m + 1)))])


def shared_pair() -> GeneralNetwork:
    """Two single-link-root trees converging on one node with two leaf links.

    Links 2 and 3 are shared; link 2 has parent links {1, 4}.
    """
    return _net(
        "shared_pair",
        [(1, 0, 2), (2, 2, 3), (3, 2, 4), (4, 5, 2)],
        [(1, 1, [1, 2, 3]), (2, 4, [4, 2, 3])],
    )


def twotree12() -> GeneralNetwork:
    """Twelve links in two trees sharing a three-leaf subtree.

    Small enough for exhaustive-enumeration estimators; still exercises
    multi-parent links, a three-way brother set fed by both trees, and
    private subtrees per tree.
    """
    records = [
        (1, 100, 1),    # root of tree 1
        (2, 200, 2),    # root of tree 2
        (3, 1, 3),      # tree 1 leaf
        (4, 1, 4),      # tree 1 internal
        (5, 4, 5),      # tree 1 leaf
        (6, 4, 6),      # tree 1 leaf
        (7, 1, 9),      # tree 1 entry into the shared node
        (8, 2, 8),      # tree 2 leaf
        (9, 2, 9),      # tree 2 entry into the shared node
        (10, 9, 10),    # shared leaf
        (11, 9, 11),    # shared leaf
        (12, 9, 12),    # shared leaf
    ]
    trees = [
        (1, 1, [1, 3, 4, 5, 6, 7, 10, 11, 12]),
        (2, 2, [2, 8, 9, 10, 11, 12]),
    ]
    return _net("twotree12", records, trees)


def layered49() -> GeneralNetwork:
    """Five node layers, 49 nodes, two trees with sources at nodes 0 and 32.

    Both trees converge on node 4; everything below it (two fan-out nodes,
    six receivers) is shared.  Each tree has 28 links, 18 receivers; the
    network has 48 distinct links of which 8 are shared.
    """
    records = [
        (1, 0, 1),                      # tree 1 root
        (2, 1, 2), (3, 1, 3), (4, 1, 4),
        (5, 2, 5), (6, 2, 6), (7, 3, 7), (8, 3, 8),
        (9, 4, 9), (10, 4, 10),         # shared fan-out
        (33, 32, 33),                   # tree 2 root
        (34, 33, 34), (35, 33, 35), (104, 33, 4),
        (36, 34, 36), (37, 34, 37), (38, 35, 38), (39, 35, 39),
    ]
    leaf_parents = {
        5: (11, 12, 13), 6: (14, 15, 16), 7: (17, 18, 19), 8: (20, 21, 22),
        9: (23, 24, 25), 10: (26, 27, 28),
        36: (40, 41, 42), 37: (43, 44, 45), 38: (46, 47, 48), 39: (29, 30, 31),
    }
    for node, leaves in leaf_parents.items():
        for leaf in leaves:
            records.append((leaf, node, leaf))

    shared = [9, 10, 23, 24, 25, 26, 27, 28]
    tree1 = [1, 2, 3, 4, 5, 6, 7, 8] + list(range(11, 29)) + [9, 10]
    tree2 = ([33, 34, 35, 104, 36, 37, 38, 39]
             + list(range(40, 49)) + [29, 30, 31] + shared)
    return _net("layered49", records, [(1, 1, tree1), (2, 33, tree2)])
