import contextlib
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from losstomo import fixtures, simulator
from losstomo.simulator import (BLOCK_PROBES, SimConfig, sample_theta, simulate,
                                simulate_replicates)
from losstomo.statistics import internal_views, serialize_data

from sim_reference import simulate_reference
from test_statistics import _networks

STAR = fixtures.star3()


def test_even_split_remainder_to_lowest_tree():
    net = fixtures.twotree12()
    cfg = SimConfig(net, 201, seed=0)
    assert cfg.tree_probes() == {1: 101, 2: 100}
    cfg = SimConfig(net, 5, seed=0)
    assert cfg.tree_probes() == {1: 3, 2: 2}


def test_lossless_network_all_ones():
    theta = {i: 0.0 for i in STAR.links}
    patterns = simulate(SimConfig(STAR, 50, seed=4), theta)
    assert patterns.counts[1] == {"11": 50}


def test_dead_root_all_zeros():
    theta = {1: 1.0, 2: 0.1, 3: 0.1}
    patterns = simulate(SimConfig(STAR, 40, seed=4), theta)
    assert patterns.counts[1] == {"00": 40}


def test_simulated_tables_pass_their_check_at_uniform_rates():
    # simulate checks its table as it leaves (PatternTable.validate)
    for net in (STAR, fixtures.toy7(), fixtures.twotree12(), fixtures.layered49()):
        for rate in (0.0, 0.3, 1.0):
            table = simulate(SimConfig(net, 300, seed=2), dict.fromkeys(net.links, rate))
            assert sum(table.probes.values()) == 300


def test_fixed_seed_reproducible():
    theta = {i: 0.2 for i in STAR.links}
    a = simulate(SimConfig(STAR, 300, seed=12, replicate=2), theta)
    b = simulate(SimConfig(STAR, 300, seed=12, replicate=2), theta)
    assert a.counts == b.counts
    c = simulate(SimConfig(STAR, 300, seed=12, replicate=3), theta)
    assert c.counts != a.counts


def test_worker_count_invariance_across_blocks():
    # more probes than one block so several streams really participate
    net = fixtures.twotree12()
    theta = {i: 0.15 for i in net.links}
    n = 2 * BLOCK_PROBES + 123
    base = simulate(SimConfig(net, n, seed=99), theta, workers=1)
    for workers in (2, 8):
        again = simulate(SimConfig(net, n, seed=99), theta, workers=workers)
        assert again.counts == base.counts
        assert again.probes == base.probes


def test_beta_sampler_moments_and_clamp():
    net = fixtures.layered49()
    rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(0)))
    draws = []
    for _ in range(2000):
        draws.extend(sample_theta(1.0, 999.0, net, rng).values())
    mean = sum(draws) / len(draws)
    expected = 1.0 / 1000.0
    se = math.sqrt(expected * (1 - expected) / len(draws))  # conservative
    assert abs(mean - expected) < 3 * se + 1e-5
    assert min(draws) >= 1e-6 and max(draws) <= 1 - 1e-6


def test_beta_sampler_rejects_bad_params():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_theta(0.0, 10.0, STAR, rng)


@pytest.mark.parametrize("a, b, shown", [
    (math.nan, 1.0, "nan, 1"), (math.inf, 1.0, "inf, 1"), (1.0, math.inf, "1, inf"),
    (1.0, math.nan, "1, nan"), (-math.inf, 1.0, "-inf, 1"), (0.0, 1.0, "0, 1"),
    (1.0, -2.5, "1, -2.5"),
])
def test_beta_sampler_rejects_non_finite_or_non_positive_params(a, b, shown):
    # the rule and text of bench.GridCell.check
    with pytest.raises(ValueError) as exc:
        sample_theta(a, b, STAR, np.random.default_rng(0))
    assert str(exc.value) == f"Beta parameters must be finite and > 0, got ({shown})"


def test_star_pattern_frequencies_match_model():
    theta = {1: 0.1, 2: 1 / 3, 3: 1 / 3}
    n = 1_000_000
    patterns = simulate(SimConfig(STAR, n, seed=2024), theta)
    freq = {bits: c / n for bits, c in patterns.counts[1].items()}
    expect = {"11": 0.4, "10": 0.2, "01": 0.2, "00": 0.2}
    for bits, p in expect.items():
        assert abs(freq[bits] - p) < 0.002


def test_estimates_approach_truth_with_sample_size():
    net = fixtures.toy7()
    theta = {i: 0.1 for i in net.links}
    from losstomo.estimators import le_xi

    errs = {}
    for n in (200, 20000):
        patterns = simulate(SimConfig(net, n, seed=31), theta)
        views, report = internal_views(patterns, net)
        res = le_xi(views, net, report=report)
        errs[n] = max(abs(res.theta_hat[i] - 0.1) for i in net.links)
    assert errs[20000] < errs[200]
    assert errs[20000] < 0.02


@pytest.mark.parametrize("theta,probes,msg", [
    ({1: math.nan, 2: 0.1, 3: 0.1}, 10, r"links \[1\] lack"),
    ({1: 0.1, 2: 1.5, 3: 0.1}, 10, r"links \[2\] lack"),
    ({1: 0.1, 2: -0.1, 3: 0.1}, 10, r"links \[2\] lack"),
    ({1: 0.1, 2: 0.1, 3: 0.1}, -1, "probe count"),
    ({1: 0.1, 2: 0.1}, 10, r"links \[3\] lack"),
], ids=["nan-rate", "rate-above-one", "negative-rate", "negative-probes", "missing-link"])
def test_simulate_rejects_bad_input(theta, probes, msg):
    with pytest.raises(ValueError, match=msg):
        simulate(SimConfig(STAR, probes, seed=1), theta)


def _assert_equals_reference(cfg, theta):
    got, want = simulate(cfg, theta), simulate_reference(cfg, theta)
    assert got.name == want.name
    assert got.probes == want.probes
    assert got.receivers == want.receivers
    assert got.counts == want.counts
    for k, table in want.counts.items():
        assert list(got.counts[k]) == list(table)   # first-seen key order
    assert serialize_data(got) == serialize_data(want)


@st.composite
def _sim_cases(draw):
    net = draw(_networks())
    theta = {i: draw(st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]) | st.floats(0.0, 1.0))
             for i in net.links}
    cfg = SimConfig(net, draw(st.integers(0, 300)), draw(st.integers(0, 2**32 - 1)),
                    replicate=draw(st.integers(0, 3)))
    return cfg, theta


@settings(max_examples=100, deadline=None)
@given(_sim_cases())
def test_simulate_equals_block_reference(case):
    _assert_equals_reference(*case)


@pytest.mark.parametrize("probes", [0, 1, 2 * BLOCK_PROBES + 123])
@pytest.mark.parametrize("net", [fixtures.toy7(), fixtures.twotree12(), fixtures.layered49()],
                         ids=["toy7", "twotree12", "layered49"])
def test_simulate_equals_block_reference_across_blocks(net, probes):
    # 1 probe leaves a second tree empty; the largest count gives toy7's one
    # tree two full blocks and a short third, and each of two trees one full
    # block and a short second
    theta = {i: 0.02 + 0.01 * (i % 7) for i in net.links}
    _assert_equals_reference(SimConfig(net, probes, seed=5, replicate=1), theta)


@pytest.mark.parametrize("per_tree", [BLOCK_PROBES, BLOCK_PROBES + 1, 2 * BLOCK_PROBES - 1])
@pytest.mark.parametrize("net", [fixtures.layered49(), fixtures.kary_tree(2, 8)],
                         ids=["layered49", "kary_2_8"])
def test_simulate_equals_block_reference_at_block_edges(net, per_tree):
    # exactly one full block per tree, one more probe, and one probe short of two
    theta = {i: 0.02 + 0.01 * (i % 7) for i in net.links}
    cfg = SimConfig(net, per_tree * len(net.trees), seed=7, replicate=2)
    assert set(cfg.tree_probes().values()) == {per_tree}
    _assert_equals_reference(cfg, theta)


# twotree12 with two blocks in each tree, the second of 2 rows; link 4 of tree
# 1 sits above leaves 5 and 6
THRESHOLD_CFG = SimConfig(fixtures.twotree12(), 2 * (BLOCK_PROBES + 2), seed=4, replicate=1)


def _link_words(cfg: SimConfig, tree_id: int, link: int, block: int) -> np.ndarray:
    """The raw Philox words the simulator draws for one link in one block."""
    tree = cfg.net.tree_by_id[tree_id]
    rows = min(BLOCK_PROBES, cfg.tree_probes()[tree_id] - block * BLOCK_PROBES)
    ss = np.random.SeedSequence((cfg.seed, cfg.replicate, tree_id, block))
    words = np.random.Philox(seed=ss).random_raw(rows * len(tree.order))
    return words.reshape(rows, -1)[:, tree.pos[link]]


def test_simulate_equals_reference_at_drawn_uniforms():
    # Every other rate is 0, so link 4 alone decides which probes of tree 1
    # are lost.  Its rate is set to uniforms drawn at its own stream positions
    # and to their float neighbours: the rows on either side of the block edge,
    # the last row, and the block-0 rows whose word has its low 11 bits zero,
    # the only words for which w >= limit and w > limit differ.
    cfg = THRESHOLD_CFG
    words = [_link_words(cfg, 1, 4, block) for block in (0, 1)]
    zero_low = np.flatnonzero(words[0] % 2048 == 0)
    assert len(zero_low) == 2
    rows = [(0, BLOCK_PROBES - 1), (1, 0), (1, 1), *((0, int(r)) for r in zero_low)]
    drawn = [float(words[block][row] >> 11) * 2.0 ** -53 for block, row in rows]
    # below 0.5 the neighbour above u is no multiple of 2**-53, where ceil and floor differ
    assert min(drawn) < 0.5
    for u in drawn:
        tables = []
        for rate in (np.nextafter(u, 0.0), u, np.nextafter(u, 1.0)):
            theta = dict.fromkeys(cfg.net.links, 0.0) | {4: float(rate)}
            _assert_equals_reference(cfg, theta)
            tables.append(simulate(cfg, theta).counts[1])
        # the probe that drew u passes link 4 up to rate u and is lost above it
        assert tables[0] == tables[1] != tables[2]


@pytest.mark.parametrize("rate", [0.0, 5e-324, 2.0 ** -53, 1.0 - 2.0 ** -53, 1.0])
def test_simulate_equals_reference_at_extreme_rates(rate):
    # link 4 is internal in tree 1, link 9 in tree 2
    theta = dict.fromkeys(THRESHOLD_CFG.net.links, 0.1) | {4: rate, 9: rate}
    _assert_equals_reference(THRESHOLD_CFG, theta)


@pytest.mark.parametrize("leaves", [1, 63, 64, 65, 128, 129])
def test_simulate_equals_reference_on_wide_stars(leaves):
    # a pattern packs into 1, 1, 1, 2, 2 and 3 uint64 words; leaf rates are
    # drawn from the threshold edges and 0.5, the root's is 1e-3 so that most
    # probes reach the leaves, and the last leaf, the last word's top bit in
    # use, loses half of them
    net = fixtures.kary_tree(leaves, 1)
    rng = np.random.default_rng(leaves)
    theta = {i: float(rng.choice([0.0, 5e-324, 1e-3, 0.5, 1.0])) for i in net.links}
    theta |= {1: 1e-3, leaves + 1: 0.5}
    _assert_equals_reference(SimConfig(net, 2 * BLOCK_PROBES + 123, seed=3), theta)


def test_simulate_first_seen_order_when_the_first_probes_lose():
    # at rate 0.3 on each of toy7's 7 links, 8% of probes lose nothing; here
    # the first probes lose links, and the all-lit pattern is the 8th one seen
    net = fixtures.toy7()
    theta = dict.fromkeys(net.links, 0.3)
    cfg = SimConfig(net, 2 * BLOCK_PROBES + 123, seed=0)
    assert list(simulate(cfg, theta).counts[1]).index("1111") == 7
    _assert_equals_reference(cfg, theta)


def test_simulate_lossy_probes_can_repeat_the_base_pattern():
    # link 2, above leaves 4 and 5, passes nothing, so a probe that loses link 4
    # or 5 but not 6 has the pattern of a probe that loses nothing
    net = fixtures.toy7()
    theta = {1: 0.0, 2: 1.0, 3: 0.0, 4: 0.5, 5: 0.5, 6: 0.2, 7: 0.0}
    cfg = SimConfig(net, 2 * BLOCK_PROBES + 123, seed=11)
    assert list(simulate(cfg, theta).counts[1]) == ["0011", "0001"]
    _assert_equals_reference(cfg, theta)


def _replicate_cases():
    """(network, probes, configs' (seed, replicate) pairs, rate maps): theta = 1
    on some links in some replicates only, so each has its own base mask."""
    cases = []
    for net, probes in [(fixtures.toy7(), 1), (fixtures.twotree12(), 1),
                        (fixtures.twotree12(), 300),
                        # 1500 probes per tree: five replicates stack 7500 rows
                        (fixtures.twotree12(), 3000),
                        (fixtures.layered49(), 2 * BLOCK_PROBES + 123),
                        (fixtures.kary_tree(65, 1), BLOCK_PROBES + 7)]:
        rng = np.random.default_rng(probes)
        ids = sorted(net.links)
        thetas = []
        for r in range(5):
            theta = {i: float(rng.uniform(0.0, 0.2)) for i in ids}
            if r == 1:
                theta[ids[1]] = 1.0            # an internal link, or a leaf of the star
            elif r == 3:
                theta[ids[-1]] = 1.0           # a leaf
            elif r == 4:
                theta[ids[0]] = 1.0            # a root: every probe all dark
            thetas.append(theta)
        keys = [(11, 0), (11, 5), (3, 2), (11, 7), (40, 1)]
        cases.append((net, probes, keys, thetas))
    return cases


@pytest.mark.parametrize("net,probes,keys,thetas", _replicate_cases(),
                         ids=["toy7-1", "twotree12-1", "twotree12-300", "twotree12-3000",
                              "layered49-blocks", "star65-blocks"])
def test_simulate_replicates_equal_each_config_alone(net, probes, keys, thetas):
    cfgs = [SimConfig(net, probes, seed, replicate=rep) for seed, rep in keys]
    got = simulate_replicates(cfgs, thetas)
    assert len(got) == len(cfgs)
    for cfg, theta, table in zip(cfgs, thetas, got):
        want = simulate_reference(cfg, theta)
        assert table == want
        for k, counts in want.counts.items():
            assert list(table.counts[k]) == list(counts)   # first-seen key order
        assert table == simulate(cfg, theta)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_simulate_replicates_equal_reference_on_random_networks(data):
    net = data.draw(_networks())
    probes = data.draw(st.integers(0, 300))
    rates = st.sampled_from([0.0, 0.05, 0.3, 1.0]) | st.floats(0.0, 1.0)
    cfgs, thetas = [], []
    for rep in range(data.draw(st.integers(1, 4))):
        cfgs.append(SimConfig(net, probes, data.draw(st.integers(0, 2**32 - 1)), replicate=rep))
        thetas.append({i: data.draw(rates) for i in net.links})
    for cfg, theta, table in zip(cfgs, thetas, simulate_replicates(cfgs, thetas)):
        want = simulate_reference(cfg, theta)
        assert table == want
        for k, counts in want.counts.items():
            assert list(table.counts[k]) == list(counts)


def test_simulate_replicates_need_one_network_and_probe_count():
    net = fixtures.twotree12()
    theta = dict.fromkeys(net.links, 0.1)
    with pytest.raises(ValueError, match="share a network and a probe count"):
        simulate_replicates([SimConfig(net, 10, 1), SimConfig(net, 11, 1)], [theta, theta])
    with pytest.raises(ValueError, match="share a network and a probe count"):
        simulate_replicates([SimConfig(net, 10, 1), SimConfig(fixtures.twotree12(), 10, 1)],
                            [theta, theta])


# words per slice: one probe per slice; 1000 words, which leave a partial last
# slice on most blocks here; and one slice per block stack
SLICE_SIZES = [1, 1000, 10**9]


@contextlib.contextmanager
def _slice_words(words):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "SLICE_WORDS", words)
        yield


@pytest.mark.parametrize("configs,rows,m,words", [
    (1, BLOCK_PROBES, 28, 1 << 17),   # layered49's larger tree: one slice
    (28, 146, 28, 1 << 17),           # a grid batch of 4088 rows: still one slice
    (100, 40, 341, 1 << 17),          # kary_tree(4, 4): 9 whole configs a slice
    (5, 300, 7, 4200),                # 2 whole configs a slice, then 1
    (3, 300, 7, 1000),                # each config cut into 142, 142 and 16 rows
    (2, 10, 5, 1),                    # one probe a slice
    (1, 3, 2000, 1000),               # a probe larger than a slice is a slice
])
def test_slices_cut_the_stack_in_order_within_the_budget(configs, rows, m, words):
    with _slice_words(words):
        plan = simulator._slices(configs, rows, m)
    cells = [(c, r) for c0, c1, r0, r1 in plan for c in range(c0, c1) for r in range(r0, r1)]
    assert cells == [(c, r) for c in range(configs) for r in range(rows)]
    for c0, c1, r0, r1 in plan:
        assert (c1 - c0) * (r1 - r0) * m <= words or (c1 - c0, r1 - r0) == (1, 1)
        assert c1 - c0 == 1 or (r0, r1) == (0, rows)   # configs share a slice only whole
    # slices are as large as the budget allows
    fit = words // (rows * m)
    assert len(plan) == (-(-configs // fit) if fit
                         else configs * -(-rows // max(1, words // m)))


@pytest.mark.parametrize("words", SLICE_SIZES)
@settings(max_examples=40, deadline=None)
@given(case=_sim_cases())
def test_simulate_equals_block_reference_across_slices(words, case):
    with _slice_words(words):
        _assert_equals_reference(*case)


@pytest.mark.parametrize("words", SLICE_SIZES)
def test_simulate_equals_reference_across_slices_on_kary_4_4(words):
    # 341 links, 256 leaves in four uint64 words: at 1000 words two probes a
    # slice, and the 123-row second block ends in a one-probe slice; links 3
    # (internal) and 300 (a leaf) never pass, so every pattern is ANDed with
    # the base mask
    net = fixtures.kary_tree(4, 4)
    theta = sample_theta(1, 100, net, np.random.default_rng(4)) | {3: 1.0, 300: 1.0}
    with _slice_words(words):
        _assert_equals_reference(SimConfig(net, BLOCK_PROBES + 123, seed=2, replicate=1), theta)


@pytest.mark.parametrize("words", SLICE_SIZES)
@pytest.mark.parametrize("leaves", [63, 65, 129])
def test_simulate_equals_reference_on_wide_stars_across_slices(leaves, words):
    # as on the wide stars above; at 1000 words a slice holds 15, 15 and 7
    # probes, and the decode takes 125, 62 and 41 keys at a time
    net = fixtures.kary_tree(leaves, 1)
    rng = np.random.default_rng(leaves)
    theta = {i: float(rng.choice([0.0, 5e-324, 1e-3, 0.5, 1.0])) for i in net.links}
    theta |= {1: 1e-3, leaves + 1: 0.5}
    with _slice_words(words):
        _assert_equals_reference(SimConfig(net, 2 * BLOCK_PROBES + 123, seed=3), theta)


@pytest.mark.parametrize("cut", ["one-probe", "paired", "split"])
@pytest.mark.parametrize("net,probes,keys,thetas", _replicate_cases(),
                         ids=["toy7-1", "twotree12-1", "twotree12-300", "twotree12-3000",
                              "layered49-blocks", "star65-blocks"])
def test_simulate_replicates_equal_each_config_alone_across_slices(net, probes, keys, thetas,
                                                                   cut):
    # paired: the smallest tree's block holds two whole configs a slice, so
    # the five configs' stack spans three slices; split: the largest tree's
    # configs are each cut by rows into three slices or more
    cfgs = [SimConfig(net, probes, seed, replicate=rep) for seed, rep in keys]
    shapes = [(min(BLOCK_PROBES, n), len(net.tree_by_id[k].order))
              for k, n in cfgs[0].tree_probes().items() if n]
    sizes = [rows * m for rows, m in shapes]
    words = {"one-probe": 1, "paired": 2 * min(sizes), "split": max(sizes) // 3}[cut]
    with _slice_words(words):
        plans = [simulator._slices(len(cfgs), rows, m) for rows, m in shapes]
        if cut == "paired":
            assert any(len(plan) == 3 and plan[0][1] == 2 for plan in plans)
        elif cut == "split" and max(rows for rows, _ in shapes) > 3:
            assert any(plan[0][1] == 1 and plan[0][3] < plan[-1][3] for plan in plans)
        got = simulate_replicates(cfgs, thetas)
    for cfg, theta, table in zip(cfgs, thetas, got):
        want = simulate_reference(cfg, theta)
        assert table == want
        for k, counts in want.counts.items():
            assert list(table.counts[k]) == list(counts)   # first-seen key order


def _first_lossless_row(cfg: SimConfig, theta: dict[int, float], tree_id: int) -> int:
    """The first probe of block 0 that loses no link, from the uniforms the
    simulator's words stand for."""
    tree = cfg.net.tree_by_id[tree_id]
    rows = min(BLOCK_PROBES, cfg.tree_probes()[tree_id])
    ss = np.random.SeedSequence((cfg.seed, cfg.replicate, tree_id, 0))
    words = np.random.Philox(seed=ss).random_raw(rows * len(tree.order)).reshape(rows, -1)
    u = (words >> np.uint64(11)).astype(float) * 2.0 ** -53
    return int(np.flatnonzero((u >= [theta[i] for i in tree.order]).all(axis=1))[0])


def test_simulate_first_lossless_probe_in_a_later_slice():
    # toy7 at rate 0.3: the first lossless probe comes late in block 0, and the
    # slice holds about half as many probes, so it falls in the second slice,
    # after a whole slice of lossy probes; stacked, a second config's first
    # lossless probe falls elsewhere
    net = fixtures.toy7()
    theta = dict.fromkeys(net.links, 0.3)
    cfgs = [SimConfig(net, 2 * BLOCK_PROBES + 123, seed=0),
            SimConfig(net, 2 * BLOCK_PROBES + 123, seed=0, replicate=1)]
    first = _first_lossless_row(cfgs[0], theta, 1)
    per = first // 2 + 1
    assert per <= first < 2 * per
    assert _first_lossless_row(cfgs[1], theta, 1) != first
    with _slice_words(per * len(net.links)):
        _assert_equals_reference(cfgs[0], theta)
        got = simulate_replicates(cfgs, [theta, theta])
    assert list(got[0].counts[1]).index("1111") == 7
    for cfg, table in zip(cfgs, got):
        want = simulate_reference(cfg, theta)
        assert table == want and list(table.counts[1]) == list(want.counts[1])


@pytest.mark.parametrize("words", SLICE_SIZES)
def test_simulate_base_mask_across_slices(words):
    # link 2 passes nothing, so lossy probes repeat the lossless pattern in
    # every slice; the root passes nothing in the second config, whose every
    # probe is all dark
    net = fixtures.toy7()
    thetas = [{1: 0.0, 2: 1.0, 3: 0.0, 4: 0.5, 5: 0.5, 6: 0.2, 7: 0.0},
              {1: 1.0, 2: 0.1, 3: 0.1, 4: 0.5, 5: 0.5, 6: 0.2, 7: 0.0}]
    cfgs = [SimConfig(net, 2 * BLOCK_PROBES + 123, seed=11, replicate=r) for r in (0, 1)]
    with _slice_words(words):
        got = simulate_replicates(cfgs, thetas)
        _assert_equals_reference(cfgs[0], thetas[0])
    assert list(got[0].counts[1]) == ["0011", "0001"]
    assert got[1].counts[1] == {"0000": 2 * BLOCK_PROBES + 123}
    for cfg, theta, table in zip(cfgs, thetas, got):
        assert table == simulate_reference(cfg, theta)


@pytest.mark.parametrize("b", [1000, 100])
def test_simulate_peak_memory_stays_within_its_table_and_a_few_slices(b):
    # kary_tree(4, 5): 1365 links, 1024 leaves; at Beta(1,100) nearly every
    # probe is its own pattern.  A whole block of words is 45 MB; the draws,
    # the reduce, the decode and the check must each hold about one slice
    net = fixtures.kary_tree(4, 5)
    theta = sample_theta(1, b, net, np.random.default_rng(1))
    cfg = SimConfig(net, 2 * BLOCK_PROBES, seed=1)
    tracemalloc.start()
    try:
        table = simulate(cfg, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pattern_bytes = sum(map(sys.getsizeof, table.counts[1]))
    assert len(table.counts[1]) > 4000
    assert peak < pattern_bytes + 8 * simulator.SLICE_WORDS * 8
