"""Ideal-model probe simulator.

Probes propagate root-to-leaf through each tree with independent Bernoulli
losses at per-link rates, a plain {link_id: rate} dict, and each tree's
probes are counted by receiver pattern.
Randomness is addressed by (seed, replicate, tree, block): probes are
generated in fixed-size blocks with an independent counter-based stream per
block.  A block's stream is drawn in slices of whole probes, at most
SLICE_WORDS words at a time where a probe fits: Philox is counter-based, so
random_raw(a) then random_raw(b) give the words of random_raw(a + b), and
each slice is reduced to its keys before the next one is drawn.

A slice is drawn probe-major, one (probes x links) array of raw 64-bit
Philox words in C order.  Generator.random would turn word w into the
uniform u = (w >> 11) * 2**-53, so u < theta exactly when
w < ceil(theta * 2**53) << 11: one comparison of the words with these
per-link integer thresholds finds the losses that comparing the uniforms
with the rates finds, without the floats.  theta = 1 has no uint64
threshold (2**64); its links pass no probe.

Each slice works from its losses alone.  Link q's mask packs, as bit j of
uint64 words for leaf j, every leaf but those below q; a lossy probe's
pattern is the AND of its lost links' masks, one bitwise_and.reduceat per
slice.  theta = 1 links are folded into a base mask that every lossy
pattern is ANDed with and every lossless probe gets.  Patterns are counted
as bytes, in the order first seen, and only each tree's distinct ones are
decoded to '0'/'1', a slice's worth of characters at a time, so a call holds
one slice besides the keys and the table it returns.  simulate is
simulate_replicates on one config, its table checked as it leaves, in
pieces of a slice; run_grid's are checked where internal_views counts them.
simulate_replicates stacks the configs' blocks of one index for one compare
and one reduceat per slice, each config with its own stream, base mask and
counts; whole configs share a slice while they fit, and a config larger than
a slice is cut by rows.  run_grid hands it at most one block of probes per
tree in all, or one config: on the benchmark grid's layered49, at most
4096 x 28 words, one slice.
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
SLICE_WORDS = 1 << 17   # words drawn and compared at a time: 1 MB, inside a 2 MB L2


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


def _slices(configs: int, rows: int, m: int) -> list[tuple[int, int, int, int]]:
    """A block's stack of configs x rows probes of m words each, cut into
    slices (c0, c1, r0, r1), rows r0:r1 of configs c0:c1, in stack order.
    Whole configs share a slice while they fit in SLICE_WORDS words; a config
    larger than that is cut into slices of whole probes, one at least."""
    fit = SLICE_WORDS // (rows * m)
    if fit >= configs:   # one slice, as for every grid batch, without a comprehension
        return [(0, configs, 0, rows)]
    if fit:
        return [(c, min(c + fit, configs), 0, rows) for c in range(0, configs, fit)]
    step = max(1, SLICE_WORDS // m)
    return [(c, c + 1, r, min(r + step, rows)) for c in range(configs)
            for r in range(0, rows, step)]


def _tree_counts(cfgs: list[SimConfig], ths: list[dict[int, float]], tree_id: int,
                 probes: int) -> list[dict[str, int]]:
    """Tree tree_id's receiver patterns and their counts, in first-seen order,
    per config.  Each block's stack is walked in _slices; each config draws
    its slices' words from one stream per block, in stream order.  A config's
    keys are its lossy probes' ANDed masks, counted slice by slice in probe
    order, with its base key inserted at its first lossless probe, unless
    already counted, to count for all of them."""
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
        for c0, c1, r0, r1 in _slices(len(cfgs), rows, m):
            if r0 == 0:   # the slice's configs start their streams of this block
                gens = [np.random.Philox(seed=np.random.SeedSequence(
                    (c.seed, c.replicate, tree_id, block))) for c in cfgs[c0:c1]]
            n = r1 - r0
            words = [g.random_raw(n * m) for g in gens]
            words = words[0] if len(gens) == 1 else np.concatenate(words)
            lost = np.flatnonzero(words.reshape(len(gens), n, m) < limits[c0:c1])
            del words   # freed before the next slice's words are drawn
            probe, pos = np.divmod(lost, m)
            head = np.empty(len(probe), bool)   # set at each lossy probe's first loss
            head[:1] = True
            np.not_equal(probe[1:], probe[:-1], out=head[1:])
            heads = np.flatnonzero(head)
            first = probe[heads]   # each lossy probe's row in the slice
            slice_keys = np.bitwise_and.reduceat(masks[pos], heads)
            if some_dark:
                slice_keys &= base_words[c0 + first // n]
            slice_keys = slice_keys.view(key).ravel().tolist()
            ends = [0, len(first)] if len(gens) == 1 else np.searchsorted(
                first, np.arange(0, len(gens) * n + 1, n)).tolist()
            for j, (a, b) in enumerate(zip(ends, ends[1:])):
                counts, base = keys[c0 + j], base_keys[c0 + j]
                seg = slice_keys[a:b]
                lossless = n - (b - a)
                if lossless and base not in counts:
                    # the lossy probes before the first lossless one are the
                    # config's first rows in the slice
                    lead = np.count_nonzero(first[a:b] == np.arange(j * n, j * n + b - a))
                    seg.insert(lead, base)
                    lossless -= 1
                counts.update(seg)
                if lossless:
                    counts[base] += lossless
    del below, masks   # m masks of w bits, freed before the decode
    distinct = list(keys[0] if len(keys) == 1
                    else dict.fromkeys(itertools.chain.from_iterable(keys)))
    texts: list[str] = []
    step = max(1, SLICE_WORDS // nb)   # keys a piece: SLICE_WORDS * 8 characters at most
    for s in range(0, len(distinct), step):
        bits = np.unpackbits(np.frombuffer(b"".join(distinct[s:s + step]), np.uint8)
                             .reshape(-1, nb), axis=1, count=w, bitorder="little")
        bits += 48
        text = str(bits, "ascii")   # decoded from the array's buffer, with no bytes copy
        texts += [text[i:i + w] for i in range(0, len(text), w)]
    if len(keys) == 1:   # its keys are the distinct ones, in order
        return [dict(zip(texts, keys[0].values()))]
    decode = dict(zip(distinct, texts)).__getitem__
    return [dict(zip(map(decode, counts), counts.values())) for counts in keys]


def simulate(cfg: SimConfig, theta: dict[int, float], workers: int = 1) -> PatternTable:
    """Collapsed receiver observations of one experiment: simulate_replicates
    on cfg, checked.  workers is ignored; blocks run on the calling thread."""
    table = simulate_replicates([cfg], [theta])[0]
    table.validate(SLICE_WORDS * 8)
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
