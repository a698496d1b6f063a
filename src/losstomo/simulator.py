"""Ideal-model probe simulator.

Probes propagate root-to-leaf through each tree with independent Bernoulli
losses per link; each probe's receiver bits become one '0'/'1' row, and
statistics.collapse_patterns counts the rows into a pattern table.
Randomness is addressed by (seed, replicate, tree, block): probes are
generated in fixed-size blocks with an independent counter-based stream per
block, and only one block's rows are held at a time.

A block is drawn probe-major, one (probes x links) array of raw 64-bit
Philox words in C order, and processed link-major.  Generator.random would
turn word w into the uniform u = (w >> 11) * 2**-53, so u >= theta exactly
when w >= ceil(theta * 2**53) << 11: one comparison of the words with these
per-link integer thresholds gives the pass bits that comparing the uniforms
with the rates gives, without the floats.  theta = 1 has no uint64
threshold (2**64); its links pass no probe.  The pass bits are transposed
so that each link's bits are one contiguous row, and each link is then
ANDed with its parent, parents first.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .params import LossRates, rates_dict
from .statistics import PatternTable, collapse_patterns
from .topology import GeneralNetwork

BLOCK_PROBES = 4096
THETA_CLAMP = 1e-6
_NEVER = 1 << 64   # the threshold of theta = 1: above every 64-bit word


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


def _probe_rows(cfg: SimConfig, theta: dict[int, float], tree_id: int,
                probes: int) -> Iterator[str]:
    """Tree tree_id's probes as receiver bit strings, one block in memory at a time.

    passed is the block link-major, (links x probes): after the parents-first
    walk, passed[q] holds link tree.order[q]'s pass bit for every probe of
    the block, set when the probe passed the link and every link above it.
    """
    tree = cfg.net.tree_by_id[tree_id]
    limits = [math.ceil(theta[i] * 2.0 ** 53) << 11 for i in tree.order]
    dead = []
    if _NEVER in limits:
        dead = [q for q, v in enumerate(limits) if v == _NEVER]
        limits = [v % _NEVER for v in limits]
    limits = np.array(limits, dtype=np.uint64)
    w = len(tree.leaves)
    for block in range(-(-probes // BLOCK_PROBES)):
        rows = min(BLOCK_PROBES, probes - block * BLOCK_PROBES)
        ss = np.random.SeedSequence((cfg.seed, cfg.replicate, tree_id, block))
        draw = np.random.Philox(seed=ss).random_raw
        passed = np.ascontiguousarray((draw(rows * len(limits)).reshape(rows, -1) >= limits).T)
        for q in dead:
            passed[q] = False
        for q, up in enumerate(tree.parent_pos):
            if up >= 0:
                passed[q] &= passed[up]
        text = (passed[list(tree.leaf_pos)].T.view(np.uint8) + 48).tobytes().decode("ascii")
        del passed   # free the block's array while its rows are read
        for s in range(0, rows * w, w):
            yield text[s:s + w]


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
    rows = {k: _probe_rows(cfg, th, k, n) for k, n in cfg.tree_probes().items()}
    return collapse_patterns(rows, cfg.net, f"sim-seed{cfg.seed}-rep{cfg.replicate}")
