"""Reference simulator: the row-sort collapse an earlier simulate used.

Each (seed, replicate, tree, block) stream is drawn exactly as simulate draws
it and walked probe-major, one link column at a time; each block's receiver
bit matrix is collapsed with np.unique over rows, its patterns are put in the
order of their first row, and the block counts are merged by hand in block
order.  simulate must give the same table, with the same key order within
each tree's counts.
"""

import numpy as np

from losstomo.simulator import BLOCK_PROBES, SimConfig
from losstomo.statistics import PatternTable


def _block_patterns(cfg: SimConfig, theta: dict[int, float], tree_id: int,
                    rows: int, block: int) -> dict[str, int]:
    tree = cfg.net.tree_by_id[tree_id]
    m = len(tree.order)
    ss = np.random.SeedSequence((cfg.seed, cfg.replicate, tree_id, block))
    u = np.random.Generator(np.random.Philox(seed=ss)).random((rows, m))
    passed = np.empty((rows, m), dtype=bool)
    for q, (i, up) in enumerate(zip(tree.order, tree.parent_pos)):
        ok = u[:, q] >= theta[i]
        passed[:, q] = ok if up < 0 else passed[:, up] & ok
    bits = passed[:, list(tree.leaf_pos)]
    uniq, first, counts = np.unique(bits, axis=0, return_index=True, return_counts=True)
    return {"".join("1" if b else "0" for b in uniq[j]): int(counts[j])
            for j in np.argsort(first)}


def simulate_reference(cfg: SimConfig, theta) -> PatternTable:
    """simulate's table for valid input, built block by block with np.unique."""
    split = cfg.tree_probes()
    counts: dict[int, dict[str, int]] = {k: {} for k in split}
    for k in sorted(split):
        n_k = split[k]
        for block in range(0, max(1, (n_k + BLOCK_PROBES - 1) // BLOCK_PROBES)):
            rows = min(BLOCK_PROBES, n_k - block * BLOCK_PROBES)
            if rows > 0:
                for bits, c in _block_patterns(cfg, theta, k, rows, block).items():
                    counts[k][bits] = counts[k].get(bits, 0) + c
    receivers = {k: cfg.net.tree_by_id[k].leaves for k in split}
    return PatternTable(f"sim-seed{cfg.seed}-rep{cfg.replicate}", split, receivers, counts)
