"""Ideal-model probe simulator.

Probes propagate root-to-leaf through each tree with independent Bernoulli
losses at per-link rates, a plain {link_id: rate} dict, and each tree's
probes are counted by receiver pattern.
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
block.  theta = 1 links are folded into a base mask that every lossy
pattern is ANDed with and every lossless probe gets.  Patterns are counted
as bytes, in the order first seen, and only each tree's distinct ones are
decoded to '0'/'1'.  simulate is simulate_replicates on one config, its table
checked as it leaves; run_grid's are checked where internal_views counts them.
simulate_replicates stacks the configs' blocks of one index for one compare
and one reduceat, each config with its own stream, base mask and counts;
run_grid hands it at most one block of probes per tree in all, or one config.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

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
                 rng: np.random.Generator) -> dict[int, float]:
    """A {link_id: rate} dict of i.i.d. Beta(a, b) draws, in ascending link-id order."""
    if not all(math.isfinite(v) and v > 0 for v in (a, b)):
        raise ValueError(f"Beta parameters must be finite and > 0, got ({a:g}, {b:g})")
    ids = sorted(net.links)
    draws = rng.beta(a, b, size=len(ids))
    clipped = np.clip(draws, THETA_CLAMP, 1.0 - THETA_CLAMP)
    return {i: float(v) for i, v in zip(ids, clipped)}


def _tree_counts(cfgs: list[SimConfig], ths: list[dict[int, float]], tree_id: int,
                 probes: int) -> list[dict[str, int]]:
    """Tree tree_id's receiver patterns and their counts, in first-seen order,
    per config.  A config's keys are its lossy probes' ANDed masks, with its
    base key inserted once per block, at the first lossless probe, to count
    for all of them."""
    tree = cfgs[0].net.tree_by_id[tree_id]
    m, w = len(tree.order), len(tree.leaves)
    below = [0] * m
    for j, q in enumerate(tree.leaf_pos):
        below[q] = 1 << j
    for q in range(m - 1, 0, -1):   # children first; the root is position 0
        below[tree.parent_pos[q]] |= below[q]
    full = (1 << w) - 1
    bases, limits = [], []
    for th in ths:
        lim = [math.ceil(th[i] * 2.0 ** 53) << 11 for i in tree.order]
        dark = [b for b, v in zip(below, lim) if v == _NEVER] if _NEVER in lim else []
        bases.append(full & ~functools.reduce(int.__or__, dark, 0))
        limits.append([v % _NEVER for v in lim] if dark else lim)
    limits = np.array(limits, dtype=np.uint64)[:, None, :]
    nb = -(-w // 64) * 8
    masks = np.frombuffer(b"".join([(full & ~b).to_bytes(nb, "little") for b in below]),
                          np.uint64).reshape(m, -1)
    base_keys = [b.to_bytes(nb, "little") for b in bases]
    base_words = np.frombuffer(b"".join(base_keys), np.uint64).reshape(len(bases), -1)
    key = np.dtype(f"V{nb}")
    some_dark = any(b != full for b in bases)   # a config has theta = 1 links
    keys: list[Counter[bytes]] = [Counter() for _ in cfgs]
    for block in range(-(-probes // BLOCK_PROBES)):
        rows = min(BLOCK_PROBES, probes - block * BLOCK_PROBES)
        words = [np.random.Philox(seed=np.random.SeedSequence(
            (c.seed, c.replicate, tree_id, block))).random_raw(rows * m) for c in cfgs]
        words = words[0] if len(cfgs) == 1 else np.concatenate(words)
        lost = np.flatnonzero(words.reshape(len(cfgs), rows, m) < limits)
        del words   # freed before the next block's words are drawn
        probe, pos = np.divmod(lost, m)
        head = np.empty(len(probe), bool)   # set at each lossy probe's first loss
        head[:1] = True
        np.not_equal(probe[1:], probe[:-1], out=head[1:])
        heads = np.flatnonzero(head)
        first = probe[heads]   # each lossy probe's row in the stack
        block_keys = np.bitwise_and.reduceat(masks[pos], heads)
        if some_dark:
            block_keys &= base_words[first // rows]
        block_keys = block_keys.view(key).ravel().tolist()
        ends = np.searchsorted(first, np.arange(0, len(cfgs) * rows + 1, rows)).tolist()
        for r, (a, b) in enumerate(zip(ends, ends[1:])):
            seg = block_keys[a:b]
            if b - a < rows:
                # the lossy probes before the first lossless one are rows 0, 1, ...
                seg.insert(np.count_nonzero(first[a:b] - r * rows == np.arange(b - a)),
                           base_keys[r])
            keys[r].update(seg)
            if rows - (b - a) > 1:
                keys[r][base_keys[r]] += rows - (b - a) - 1
    distinct = keys[0] if len(keys) == 1 else dict.fromkeys(itertools.chain.from_iterable(keys))
    bits = np.unpackbits(np.frombuffer(b"".join(distinct), np.uint8).reshape(-1, nb),
                         axis=1, count=w, bitorder="little")
    text = (bits + 48).tobytes().decode("ascii")
    texts = [text[s:s + w] for s in range(0, len(text), w)]
    if len(keys) == 1:   # its keys are the distinct ones, in order
        return [dict(zip(texts, keys[0].values()))]
    decode = dict(zip(distinct, texts)).__getitem__
    return [dict(zip(map(decode, counts), counts.values())) for counts in keys]


def simulate(cfg: SimConfig, theta: dict[int, float], workers: int = 1) -> PatternTable:
    """Collapsed receiver observations of one experiment: simulate_replicates
    on cfg, checked.  workers is ignored; blocks run on the calling thread."""
    table = simulate_replicates([cfg], [theta])[0]
    table.validate()
    return table


def simulate_replicates(cfgs: list[SimConfig], thetas: list[dict[int, float]]
                        ) -> list[PatternTable]:
    """One pattern table per config, cfgs[r] run under thetas[r], unchecked;
    the configs share a network and a probe count, so each tree's blocks
    stack, and a stack holds len(cfgs) times a block's rows."""
    net, probes = cfgs[0].net, cfgs[0].probes
    if any(c.net is not net or c.probes != probes for c in cfgs):
        raise ValueError("replicates must share a network and a probe count")
    if probes < 0:
        raise ValueError(f"probe count must be >= 0, got {probes}")
    for th in thetas:
        bad = sorted(i for i in net.links if not 0.0 <= th.get(i, math.nan) <= 1.0)
        if bad:
            raise ValueError(f"links {bad} lack a loss rate in [0, 1]")
    split = dict(sorted(cfgs[0].tree_probes().items()))
    per_tree = {k: _tree_counts(cfgs, thetas, k, n) for k, n in split.items()}
    return [PatternTable(f"sim-seed{c.seed}-rep{c.replicate}", dict(split),
                         {k: net.tree_by_id[k].leaves for k in split},
                         {k: per_tree[k][r] for k in split})
            for r, c in enumerate(cfgs)]
