"""Reference derivation of a network's structure: the per-link dict walks that
MulticastTree and GeneralNetwork ran before their derivations moved to bulk
zips and maps.

tree_structure and network_structure take a built network's link records and
trees' link sets and derive every structural attribute again, one link at a
time: parents through a child-node map, children sorted per link, the
heap walk from the root, the network's child and parent sets gathered tree by
tree, brother sets grouped by parent node and the merged order by Kahn's
algorithm over explicit child lists.  The network must hold the same values.
"""

import heapq

TREE_ATTRS = ("parent", "children", "leaves", "order", "pos", "parent_pos", "child_pos",
              "leaf_pos", "brother_pos", "feed_pos", "root_pos")
NETWORK_ATTRS = ("source_links", "child_links", "parent_links", "brother_sets", "order", "pos",
                 "parent_pos", "child_pos", "brother_pos", "feed_pos", "root_pos", "id_pos")


def tree_structure(tree, records) -> dict:
    links, root = tree.links, tree.root_link
    by_child_node = {records[i].child_node: i for i in sorted(links)}
    parent, kids = {}, {i: [] for i in links}
    for i in sorted(links):
        if i != root:
            parent[i] = by_child_node[records[i].parent_node]
            kids[parent[i]].append(i)
    children = {i: tuple(sorted(c)) for i, c in kids.items()}
    order, frontier = [], [root]
    while frontier:
        i = heapq.heappop(frontier)
        order.append(i)
        for c in children[i]:
            heapq.heappush(frontier, c)
    pos = {i: q for q, i in enumerate(order)}
    parent_pos = tuple(pos[parent[i]] if i in parent else -1 for i in order)
    child_pos = tuple(tuple(pos[c] for c in children[i]) for i in order)
    leaves = tuple(sorted(i for i in links if not children[i]))
    return {"parent": parent, "children": children, "leaves": leaves, "order": tuple(order),
            "pos": pos, "parent_pos": parent_pos, "child_pos": child_pos,
            "leaf_pos": tuple(pos[i] for i in leaves),
            "brother_pos": tuple(c for c in child_pos if c),
            "feed_pos": tuple((q,) for q, c in enumerate(child_pos) if c), "root_pos": (0,)}


def network_structure(net) -> dict:
    records = net.links
    trees = [tree_structure(t, records) for t in net.trees]
    source_links = tuple(sorted({t.root_link for t in net.trees}))
    child_links, ups = {}, {i: set() for i in records}
    for t, s in zip(net.trees, trees):
        for i in t.links:
            child_links.setdefault(i, s["children"][i])
            if i in s["parent"]:
                ups[i].add(s["parent"][i])
    parent_links = {i: tuple(sorted(ups[i])) for i in sorted(records)}
    groups = {}
    for i in sorted(set(records) - set(source_links)):
        groups.setdefault(records[i].parent_node, []).append(i)
    brother_sets = tuple(tuple(g) for _, g in sorted(groups.items()))

    pending = {i: len(parent_links[i]) for i in records}
    down = {i: [] for i in records}
    for i, us in parent_links.items():
        for u in us:
            down[u].append(i)
    ready = [i for i, d in pending.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for c in down[i]:
            pending[c] -= 1
            if pending[c] == 0:
                heapq.heappush(ready, c)
    pos = {i: p for p, i in enumerate(order)}
    parent_pos = tuple(tuple(pos[u] for u in parent_links[i]) for i in order)
    brother_pos = tuple(tuple(pos[i] for i in b) for b in brother_sets)
    return {"source_links": source_links, "child_links": child_links,
            "parent_links": parent_links, "brother_sets": brother_sets,
            "order": tuple(order), "pos": pos, "parent_pos": parent_pos,
            "child_pos": tuple(tuple(pos[c] for c in child_links[i]) for i in order),
            "brother_pos": brother_pos,
            "feed_pos": tuple(parent_pos[b[0]] for b in brother_pos),
            "root_pos": tuple(pos[s] for s in source_links),
            "id_pos": tuple(pos[i] for i in sorted(records)), "trees": trees}
