"""Ideal-model probe simulator.

Probes propagate root-to-leaf through each tree with independent Bernoulli
losses per link; only receiver bits are recorded, already collapsed into a
pattern table.  Randomness is addressed by (seed, replicate, tree, block):
probes are generated in fixed-size blocks with an independent counter-based
stream per block.  Blocks run in order (trees ascending, then blocks
ascending) on the calling thread, which fixes the key order of the merged
counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import LossRates, rates_dict
from .statistics import PatternTable
from .topology import GeneralNetwork

BLOCK_PROBES = 4096
THETA_CLAMP = 1e-6


@dataclass
class SimConfig:
    """One simulated experiment: cfg.probes total probes split evenly across
    trees (remainder to the lowest tree id)."""

    net: GeneralNetwork
    probes: int
    seed: int
    replicate: int = 0

    def tree_probes(self) -> dict[int, int]:
        ids = [t.tree_id for t in self.net.trees]
        base, extra = divmod(self.probes, len(ids))
        return {k: base + (1 if pos < extra else 0) for pos, k in enumerate(ids)}


def sample_theta(a: float, b: float, net: GeneralNetwork,
                 rng: np.random.Generator) -> LossRates:
    """Draw i.i.d. Beta(a, b) loss rates per link, ascending link-id order."""
    if a <= 0 or b <= 0:
        raise ValueError("Beta parameters must be positive")
    ids = sorted(net.links)
    draws = rng.beta(a, b, size=len(ids))
    clipped = np.clip(draws, THETA_CLAMP, 1.0 - THETA_CLAMP)
    return LossRates({i: float(v) for i, v in zip(ids, clipped)})


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
    uniq, counts = np.unique(bits, axis=0, return_counts=True)
    return {"".join("1" if b else "0" for b in row): int(c)
            for row, c in zip(uniq, counts)}


def simulate(cfg: SimConfig, theta, workers: int = 1) -> PatternTable:
    """Run the experiment and return collapsed receiver observations.

    workers is accepted and ignored: the blocks run on the calling thread.
    """
    th = rates_dict(theta)
    if cfg.probes < 0:
        raise ValueError(f"probe count must be >= 0, got {cfg.probes}")
    bad = sorted(i for i in cfg.net.links if not 0.0 <= th.get(i, math.nan) <= 1.0)
    if bad:
        raise ValueError(f"links {bad} lack a loss rate in [0, 1]")
    split = cfg.tree_probes()
    counts: dict[int, dict[str, int]] = {k: {} for k in split}
    for k in sorted(split):
        n_k = split[k]
        for block in range(0, max(1, (n_k + BLOCK_PROBES - 1) // BLOCK_PROBES)):
            rows = min(BLOCK_PROBES, n_k - block * BLOCK_PROBES)
            if rows > 0:
                for bits, c in _block_patterns(cfg, th, k, rows, block).items():
                    counts[k][bits] = counts[k].get(bits, 0) + c
    receivers = {k: cfg.net.tree_by_id[k].leaves for k in split}
    name = f"sim-seed{cfg.seed}-rep{cfg.replicate}"
    return PatternTable(name, split, receivers, counts)
