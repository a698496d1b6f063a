"""Ideal-model probe simulator.

Probes propagate root-to-leaf through each tree with independent Bernoulli
losses per link, and each tree's probes are counted by receiver pattern.
Randomness is addressed by (seed, replicate, tree, block): probes are
generated in fixed-size blocks with an independent counter-based stream per
block, and only one block's draws are held at a time.

A block is drawn probe-major, one (probes x links) array of raw 64-bit
Philox words in C order.  Generator.random would turn word w into the
uniform u = (w >> 11) * 2**-53, so u < theta exactly when
w < ceil(theta * 2**53) << 11: one comparison of the words with these
per-link integer thresholds finds the losses that comparing the uniforms
with the rates finds, without the floats.  theta = 1 has no uint64
threshold (2**64); its links pass no probe.

Each block works from its losses alone.  Link q's mask packs, as bit j of
uint64 words for leaf j, every leaf but those below q; a lossy probe's
pattern is the AND of its lost links' masks, one bitwise_and.reduceat per
block.  theta = 1 links are folded into a base mask that every mask carries
and every lossless probe gets.  Patterns are counted as bytes, in the order
first seen, and only each tree's distinct ones are decoded to '0'/'1'.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .params import LossRates, rates_dict
from .statistics import PatternTable
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


def _tree_counts(cfg: SimConfig, theta: dict[int, float], tree_id: int,
                 probes: int) -> dict[str, int]:
    """Tree tree_id's receiver patterns and their counts, in first-seen order.

    A block's keys are its lossy probes' ANDed masks, with the base key
    inserted once, at the first lossless probe, to count for all of them.
    """
    tree = cfg.net.tree_by_id[tree_id]
    m, w = len(tree.order), len(tree.leaves)
    below = [0] * m
    for j, q in enumerate(tree.leaf_pos):
        below[q] = 1 << j
    for q in range(m - 1, 0, -1):   # children first; the root is position 0
        below[tree.parent_pos[q]] |= below[q]
    limits = [math.ceil(theta[i] * 2.0 ** 53) << 11 for i in tree.order]
    base = (1 << w) - 1
    if _NEVER in limits:
        for q, v in enumerate(limits):
            if v == _NEVER:
                base &= ~below[q]
        limits = [v % _NEVER for v in limits]
    limits = np.array(limits, dtype=np.uint64)
    nb = -(-w // 64) * 8
    masks = np.frombuffer(b"".join([(base & ~b).to_bytes(nb, "little") for b in below]),
                          np.uint64).reshape(m, -1)
    base_key = base.to_bytes(nb, "little")
    key = np.dtype(f"V{nb}")
    keys: Counter[bytes] = Counter()
    for block in range(-(-probes // BLOCK_PROBES)):
        rows = min(BLOCK_PROBES, probes - block * BLOCK_PROBES)
        ss = np.random.SeedSequence((cfg.seed, cfg.replicate, tree_id, block))
        draw = np.random.Philox(seed=ss).random_raw
        probe, pos = np.divmod(np.flatnonzero(draw(rows * m).reshape(rows, m) < limits), m)
        head = np.empty(len(probe), bool)   # set at each lossy probe's first loss
        head[:1] = True
        np.not_equal(probe[1:], probe[:-1], out=head[1:])
        heads = np.flatnonzero(head)
        block_keys = np.bitwise_and.reduceat(masks[pos], heads).view(key).ravel().tolist()
        lossless = rows - len(heads)
        if lossless:
            # the lossy probes before the first lossless one are probes 0, 1, ...
            block_keys.insert(np.count_nonzero(probe[heads] == np.arange(len(heads))), base_key)
        keys.update(block_keys)
        if lossless > 1:
            keys[base_key] += lossless - 1
    bits = np.unpackbits(np.frombuffer(b"".join(keys), np.uint8).reshape(len(keys), nb),
                         axis=1, count=w, bitorder="little")
    text = (bits + 48).tobytes().decode("ascii")
    return dict(zip([text[s:s + w] for s in range(0, len(text), w)], keys.values()))


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
    split = dict(sorted(cfg.tree_probes().items()))
    table = PatternTable(f"sim-seed{cfg.seed}-rep{cfg.replicate}", split,
                         {k: cfg.net.tree_by_id[k].leaves for k in split},
                         {k: _tree_counts(cfg, th, k, n) for k, n in split.items()})
    table.validate()
    return table
