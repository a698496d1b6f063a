"""The scalar and the batched brother-set solve take the same iterates.

le_xi hands every brother set that needs an interior root to one
_solve_interiors call, which runs the scalar _solve_interior per set below
BATCH_MIN_SETS sets and _solve_interior_rows from there on.  Estimates must
not depend on the path, so every comparison here is bit for bit: floats by
float.hex, results by repr (which also keeps dict order and the sign of 0).
mvwa hands every tree's sets to one _solve_interiors call, and must equal
tests/mvwa_reference.py, which runs le_xi on each tree's sub-network.
Both estimators finish per dataset or, from ARRAY_MIN_POSITIONS positions
on, on (datasets x positions) arrays; every comparison runs with that
constant forced each way (ARRAY_PATHS).  That rule also picks the
brother-set solve: from ARRAY_MIN_POSITIONS on, _solve_rows sorts every set
on (datasets x sets) arrays, where _solve_xi runs _solve_node per set and
dataset; the two must give the same results on sets of every kind.
pcem_replicates sweeps every dataset at once on arrays and must equal pcem
on each dataset, field for field and in key order.
"""

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from losstomo import estimators, fixtures
from losstomo.estimators import (_brother_columns, _residual_and_slope,
                                 _residuals_and_slopes, _solve_interior,
                                 _solve_interior_rows, le_xi, le_xi_replicates, left_sum, mvwa,
                                 mvwa_replicates, pcem, pcem_replicates)
from losstomo.simulator import SimConfig, sample_theta, simulate
from losstomo.statistics import (InternalView, PatternTable, count_rows, internal_views,
                                 internal_views_replicates, pass_fractions,
                                 regularity_by_position, regularity_rows)
from losstomo.topology import parse_topology

from mvwa_reference import mvwa_reference
from test_bench_cli import SPLIT_NODE, SPLIT_NODE_SWAPPED
from test_estimators import _simulated_small_nets
from test_statistics import _networks

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.inputs import hub_network  # noqa: E402

HI = 1.0 - 1e-9
# ARRAY_MIN_POSITIONS forcing the array finish on and off
ARRAY_PATHS = (0, 10**9)


def _bits(values):
    return [float(v).hex() for v in values]


def _random_rows(seed, count, widths=range(1, 9)):
    """Pass fractions as le_xi sees them (most near 1) and spread over (0, 1)."""
    rng = np.random.default_rng(seed)
    rows = []
    for q in range(count):
        w = int(rng.choice(list(widths)))
        if q % 2:
            rs = 1.0 - rng.beta(1.0, rng.choice([3.0, 30.0, 300.0]), w)
        else:
            rs = rng.uniform(0.01, 0.99, w)
        rows.append(np.clip(rs, 1e-6, 1.0 - 1e-6).tolist())
    return rows


def _assert_paths_agree(rows, max_iter=200):
    scalar = [_solve_interior(rs, max_iter) for rs in rows]
    roots, iters = _solve_interior_rows(rows, max_iter)
    assert _bits(roots) == _bits(x for x, _ in scalar)
    assert iters == [it for _, it in scalar]
    return scalar


@pytest.mark.parametrize("seed", range(4))
def test_batched_rows_equal_scalar_padded(seed):
    rows = _random_rows(seed, 600)
    scalar = _assert_paths_agree(rows)
    # the draw covers interior solves, early returns and long runs
    assert any(it == 0 for _, it in scalar)
    assert max(it for _, it in scalar) >= 10


@pytest.mark.parametrize("width", [1, 2, 3, 5, 8])
def test_batched_rows_equal_scalar_unpadded(width):
    _assert_paths_agree(_random_rows(10 + width, 300, widths=[width]))


def test_early_return_rows_keep_their_place():
    # g(1 - 1e-9) >= 0: no interior root bracketed, 0 iterations
    early = [[0.3, 0.4], [0.45, 0.5], [0.9], [0.2, 0.2, 0.2]]
    interior = [[0.9, 0.8], [0.75, 0.75, 0.75]]
    rows = [early[0], interior[0], early[1], early[2], interior[1], early[3]]
    scalar = _assert_paths_agree(rows)
    assert [scalar[q] for q in (0, 2, 3, 5)] == [(HI, 0)] * 4
    assert scalar[1][1] > 0 and scalar[4][1] > 0
    roots, iters = _solve_interior_rows(early)
    assert roots == [HI] * 4 and iters == [0] * 4


@pytest.mark.parametrize("max_iter", [1, 2, 3])
def test_iteration_cap_returns_the_same_iterate(max_iter):
    rows = _random_rows(20 + max_iter, 400)
    scalar = _assert_paths_agree(rows, max_iter)
    assert any(it == max_iter for _, it in scalar)


def _start_point(rs):
    return 0.5 * (math.prod(1.0 - r for r in rs) + HI)


def test_tolerance_met_exactly_stops_both_paths(monkeypatch):
    """A residual exactly at SOLVER_TOL is converged (<=), on either path."""
    rows = [rs for rs in _random_rows(30, 300, widths=[2, 3, 4])
            if _solve_interior(rs)[1] > 3][:40]
    assert len(rows) == 40
    later = [_solve_interior(rs, max_iter=2)[0] for rs in rows]
    for q, (rs, x2) in enumerate(zip(rows, later)):
        # the first iterate: g there becomes the tolerance
        x0 = _start_point(rs)
        monkeypatch.setattr(estimators, "SOLVER_TOL", abs(_residual_and_slope(rs, x0)[0]))
        assert _solve_interior(rs) == (x0, 1)
        batch = [rs] + rows[:q] + rows[q + 1:]
        roots, iters = _solve_interior_rows(batch)
        assert (roots[0], iters[0]) == (x0, 1)
        _assert_paths_agree(batch)
        # a later iterate, the one a run capped at 2 steps ends on
        monkeypatch.setattr(estimators, "SOLVER_TOL", abs(_residual_and_slope(rs, x2)[0]))
        _assert_paths_agree(batch)


def test_padding_is_exactly_neutral_wherever_the_product_is_finite():
    """A padded brother (r = 0) has the factor 1.0 and the slope term 0.0 at any x.

    The solver only evaluates x in [0, 1], where a pad of r = 1e-300 would
    hide too; so each row of width w is also evaluated at |x| up to
    1e300**(1/w), which keeps its own product finite, and the pad must
    change no bit of g or g' there either.
    """
    rows = _random_rows(40, 200, widths=[1, 2, 3]) + [[0.5] * 5]
    r = _brother_columns(rows)
    for t in np.linspace(-1.0, 1.0, 41):
        x = np.array([math.copysign(abs(t) * 1e300 ** (1.0 / len(rs)), t) if abs(t) > 0.5
                      else t + 0.5 for rs in rows])
        g, slope = _residuals_and_slopes(r, 1.0 - r, x)
        scalar = [_residual_and_slope(rs, xq) for rs, xq in zip(rows, x.tolist())]
        assert _bits(g) == _bits(a for a, _ in scalar)
        assert _bits(slope) == _bits(b for _, b in scalar)


def _assert_same_result(a, b):
    assert repr(a.theta_hat) == repr(b.theta_hat)
    assert repr(a.xi_hat) == repr(b.xi_hat)
    assert a.flags == b.flags
    assert a.iterations == b.iterations


def _both_paths(views, net, estimator):
    """Run estimator with the solver threshold at 0 and out of reach, each with
    the array finish forced on and off; return the batched run's batch sizes."""
    calls, finished = [], []
    batched, finish_rows = estimators._solve_interior_rows, estimators._finish_rows

    def counted(rows, *args):
        calls.append(len(rows))
        return batched(rows, *args)

    def finish_counted(xi, *args):
        finished.append(len(xi))
        return finish_rows(xi, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_solve_interior_rows", counted)
        mp.setattr(estimators, "_finish_rows", finish_counted)
        results = []
        for array in ARRAY_PATHS:
            mp.setattr(estimators, "ARRAY_MIN_POSITIONS", array)
            mp.setattr(estimators, "BATCH_MIN_SETS", 0)
            del finished[:]
            results.append(estimator(views, net))
            assert bool(finished) == (array == 0)   # the forced path ran
            batch_calls = list(calls)
            mp.setattr(estimators, "BATCH_MIN_SETS", 10**9)
            results.append(estimator(views, net))
            assert len(calls) == len(batch_calls)   # the loop path never batches
            del calls[:]
    for other in results[1:]:
        _assert_same_result(results[0], other)
    return batch_calls


@settings(max_examples=150, deadline=None)
@given(_simulated_small_nets())
def test_le_xi_and_mvwa_do_not_depend_on_the_path_small_nets(case):
    net, patterns = case
    views, _ = internal_views(patterns, net)
    for estimator in (le_xi, mvwa):
        _both_paths(views, net, estimator)


HUB = parse_topology(hub_network(1).topology_text())


@pytest.mark.parametrize("net,a,b,probes", [
    pytest.param(fixtures.kary_tree(4, 5), 1, 100, 2000, id="kary_4_5"),
    pytest.param(HUB, 1, 100, 8000, id="hub-beta1_100"),
    pytest.param(HUB, 1, 10, 2000, id="hub-beta1_10"),
])
def test_le_xi_and_mvwa_do_not_depend_on_the_path_large_nets(net, a, b, probes):
    theta = sample_theta(a, b, net, np.random.default_rng(1))
    views, _ = internal_views(simulate(SimConfig(net, probes, 1), theta), net)
    for estimator in (le_xi, mvwa):
        batch_calls = _both_paths(views, net, estimator)
        # every call with interior solves went through the batched solve
        assert batch_calls and max(batch_calls) > estimators.BATCH_MIN_SETS


def _assert_mvwa_equals_reference(views, net, report):
    want = mvwa_reference(views, net, report)
    for array in ARRAY_PATHS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimators, "ARRAY_MIN_POSITIONS", array)
            _assert_same_result(mvwa(views, net, report=report), want)


@settings(max_examples=150, deadline=None)
@given(_simulated_small_nets())
def test_mvwa_equals_per_tree_reference_small_nets(case):
    net, patterns = case
    views, report = internal_views(patterns, net)
    _assert_mvwa_equals_reference(views, net, report)


def _four_trees_one_hub():
    """Four trees, each a root link with two private leaves and one entry link
    into node 1, below which all four share a complete binary subtree of 14
    links: mvwa averages each shared link over four trees."""
    links = [(u, 2 * u + c) for u in range(1, 8) for c in (0, 1)]
    shared = list(range(1, len(links) + 1))
    trees = []
    for k in range(1, 5):
        links += [(100 + k, 200 + k), (200 + k, 300 + 2 * k), (200 + k, 301 + 2 * k),
                  (200 + k, 1)]
        trees.append(f"tree {k} {len(links) - 3} : "
                     + " ".join(map(str, [*range(len(links) - 3, len(links) + 1), *shared])))
    return parse_topology("network hub4\n"
                          + "".join(f"link {i} {u} {d}\n" for i, (u, d) in enumerate(links, 1))
                          + "\n".join(trees))


def test_mvwa_replicates_on_tables_of_one_tree_equal_reference():
    # twotree12 tables that name tree 1 only: tree 2 has no entry in any
    # dataset, and the array combine skips it
    net = fixtures.twotree12()
    tables = []
    for seed in range(5):
        full = simulate(SimConfig(net, 200, seed), sample_theta(1, 20, net,
                                                                np.random.default_rng(seed)))
        tables.append(PatternTable(full.name, {1: full.probes[1]}, {1: full.receivers[1]},
                                   {1: full.counts[1]}))
    pairs = internal_views_replicates(tables, net)
    want = [mvwa_reference(views, net, report) for views, report in pairs]
    for array in ARRAY_PATHS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimators, "ARRAY_MIN_POSITIONS", array)
            got = mvwa_replicates([v for v, _ in pairs], net, [r for _, r in pairs])
        for a, b in zip(got, want, strict=True):
            _assert_same_result(a, b)


@pytest.mark.parametrize("net,a,b,probes", [
    pytest.param(fixtures.kary_tree(4, 5), 1, 100, 2000, id="kary_4_5"),
    pytest.param(HUB, 1, 100, 8000, id="hub-beta1_100"),
    pytest.param(HUB, 1, 1000, 80000, id="hub-beta1_1000"),
    # sums of four weighted estimates, whose order shows in the last bits
    pytest.param(_four_trees_one_hub(), 1, 20, 2000, id="four_trees_one_hub"),
    # 20 probes: a tree estimate within XI_BOUNDARY_TOL of the boundary, and
    # trees whose likelihood is not finite at their estimate (no variances)
    pytest.param(_four_trees_one_hub(), 2, 18, 20, id="four_trees_one_hub-snapped"),
    pytest.param(_four_trees_one_hub(), 1, 3, 20, id="four_trees_one_hub-no_variances"),
])
def test_mvwa_equals_per_tree_reference_large_nets(net, a, b, probes):
    theta = sample_theta(a, b, net, np.random.default_rng(1))
    views, report = internal_views(simulate(SimConfig(net, probes, 1), theta), net)
    _assert_mvwa_equals_reference(views, net, report)


def _assert_pcem_replicates_equal_pcem(pairs, net, **kwargs):
    """pcem_replicates on (views, report) pairs equals pcem on each: every
    field by repr, flags in key order, iterations and converged.  Returns
    pcem's results."""
    views, reports = [v for v, _ in pairs], [r for _, r in pairs]
    want = [pcem(v, net, report=r, **kwargs) for v, r in pairs]
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "pcem", lambda *a, **k: calls.append(1) or pcem(*a, **k))
        got = pcem_replicates(views, net, reports, **kwargs)
    assert not calls   # the array sweeps ran, not pcem
    for a, b in zip(got, want, strict=True):
        assert repr(a.theta_hat) == repr(b.theta_hat)
        assert repr(a.xi_hat) == repr(b.xi_hat)
        assert list(a.flags.items()) == list(b.flags.items())
        assert (a.iterations, a.converged) == (b.iterations, b.converged)
    return want


# pcem's default stop, a cap that some datasets meet first, a tight tol, and
# tol <= 0, which runs every dataset exactly max_iter sweeps
PCEM_STOPS = ({}, {"max_iter": 3}, {"tol": 1e-10}, {"tol": 0.0, "max_iter": 4})


@st.composite
def _pcem_datasets(draw):
    """A _networks() draw, one to five tables simulated on it at one Beta
    setting and differing probe counts, and a PCEM_STOPS entry."""
    net = draw(_networks())
    a, b = draw(st.sampled_from([(1, 100), (1, 10), (2, 18), (5, 1000)]))
    tables = []
    for _ in range(draw(st.integers(1, 5))):
        seed = draw(st.integers(0, 2**16))
        theta = sample_theta(a, b, net, np.random.default_rng(seed))
        tables.append(simulate(SimConfig(net, draw(st.integers(1, 300)), seed), theta))
    return net, tables, draw(st.sampled_from(PCEM_STOPS))


@settings(max_examples=150, deadline=None)
@given(_pcem_datasets())
def test_pcem_replicates_equal_pcem_small_nets(case):
    net, tables, stop = case
    _assert_pcem_replicates_equal_pcem(internal_views_replicates(tables, net), net, **stop)


def _tables(net, a, b, probe_counts):
    return [simulate(SimConfig(net, probes, seed), sample_theta(a, b, net,
                                                                np.random.default_rng(seed)))
            for seed, probes in enumerate(probe_counts)]


def _pairs(net, a, b, probe_counts):
    return internal_views_replicates(_tables(net, a, b, probe_counts), net)


@pytest.mark.parametrize("stop", PCEM_STOPS, ids=["default", "max_iter", "tight", "tol0"])
@pytest.mark.parametrize("make_net,a,b,probe_counts", [
    pytest.param(lambda: parse_topology(SPLIT_NODE), 1, 10, [400, 40, 4000], id="split_node"),
    pytest.param(lambda: parse_topology(SPLIT_NODE_SWAPPED), 1, 10, [400, 40, 4000],
                 id="split_node_swapped"),
    # a probe count of 1 leaves tree 2 without probes
    pytest.param(fixtures.twotree12, 1, 20, [1, 200, 1, 30], id="twotree12-one-probe"),
    pytest.param(fixtures.layered49, 1, 100, [50, 100, 200, 500] * 5, id="layered49"),
    pytest.param(lambda: HUB, 1, 100, [1000, 8000], id="hub"),
])
def test_pcem_replicates_equal_pcem(make_net, a, b, probe_counts, stop):
    net = make_net()
    want = _assert_pcem_replicates_equal_pcem(_pairs(net, a, b, probe_counts), net, **stop)
    if stop.get("tol", 1.0) <= 0.0:
        assert all(r.iterations == stop["max_iter"] and not r.converged for r in want)


def test_pcem_replicates_mask_each_dataset_at_its_own_sweep():
    # the tables converge at different sweeps, and a cap between them leaves
    # some datasets unconverged while the others stop on tol
    net = fixtures.twotree12()
    pairs = _pairs(net, 1, 10, [30, 300, 3000, 30, 300, 3000])
    sweeps = [r.iterations for r in _assert_pcem_replicates_equal_pcem(pairs, net)]
    assert len(set(sweeps)) > 2
    cap = sorted(sweeps)[len(sweeps) // 2]
    capped = _assert_pcem_replicates_equal_pcem(pairs, net, max_iter=cap)
    assert {r.converged for r in capped} == {True, False}


def test_pcem_replicates_on_tables_of_one_tree():
    # twotree12 tables that name tree 1 only: tree 2's private links 2, 8 and
    # 9 get no information
    net = fixtures.twotree12()
    tables = []
    for full in _tables(net, 1, 20, [200] * 5):
        tables.append(PatternTable(full.name, {1: full.probes[1]}, {1: full.receivers[1]},
                                   {1: full.counts[1]}))
    want = _assert_pcem_replicates_equal_pcem(internal_views_replicates(tables, net), net)
    assert all(r.flags[i] == "non_estimable" and r.theta_hat[i] is r.xi_hat[i] is None
               for r in want for i in (2, 8, 9))


def test_pcem_replicates_clamp_the_unseen_count():
    # tests/test_estimators.py's inconsistent views on shared_pair: link 2
    # claims 30 passes below parent links that confirm 10, so its unseen count
    # is negative until the clamp; the reports are computed in the call
    n1 = {1: 5, 2: 30, 3: 2, 4: 5}
    n0 = {1: 5, 2: 1, 3: 8, 4: 5}
    views = InternalView({}, {}, n1, n0, {i: n1[i] / (n1[i] + n0[i]) for i in n1}, {1: 10, 2: 10})
    want = _assert_pcem_replicates_equal_pcem([(views, None)] * 3, fixtures.shared_pair())
    assert all(r.theta_hat[2] == 0.0 for r in want)


# the kinds of brother set _solve_node tells apart
SET_KINDS = {"none", "zero", "one", "exhausted", "interior"}


def _set_kinds(pairs, net):
    """The SET_KINDS that the brother sets of these views reach, on the
    network (le_xi) and on each tree with counts (mvwa)."""
    kinds = set()
    for views, _ in pairs:
        for s in [net, *map(net.tree_by_id.__getitem__, views.tree_ids())]:
            r = pass_fractions(*views.counts(s))
            for rs in ([r[j] for j in b] for b in s.brother_pos):
                if None in rs:
                    kinds.add("none")
                    continue
                kinds |= {"zero"} if 0.0 in rs else set()
                kinds |= {"one"} if 1.0 in rs else set()
                mid = [v for v in rs if 0.0 < v < 1.0]
                if mid and 1.0 not in rs:
                    kinds.add("interior" if left_sum(mid) > 1.0 else "exhausted")
    return kinds


def _assert_array_solve_matches_scalar(pairs, net):
    """le_xi and mvwa on each dataset alone, and le_xi_replicates and
    mvwa_replicates on all of them, give the same theta_hat, xi_hat, flags
    and iterations, by repr, with ARRAY_MIN_POSITIONS forced to 0 (the array
    solve, _solve_rows) and to 10**9 (_solve_node per set), each under
    BATCH_MIN_SETS 0 and 10**9.  Returns the results of the scalar runs."""
    views, reports = [v for v, _ in pairs], [r for _, r in pairs]
    runs, calls = {}, []
    solve_rows = estimators._solve_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_solve_rows", lambda *a: calls.append(1) or solve_rows(*a))
        for array, batch in itertools.product(ARRAY_PATHS, (0, 10**9)):
            mp.setattr(estimators, "ARRAY_MIN_POSITIONS", array)
            mp.setattr(estimators, "BATCH_MIN_SETS", batch)
            del calls[:]
            results = [f(v, net, report=r) for f in (le_xi, mvwa) for v, r in pairs]
            results += le_xi_replicates(views, net, reports) + mvwa_replicates(views, net, reports)
            assert bool(calls) == (array == 0)   # the forced path ran
            runs[array, batch] = results
    want = runs[ARRAY_PATHS[1], 0]
    for key, got in runs.items():
        for a, b in zip(got, want, strict=True):
            assert ((repr(a.theta_hat), repr(a.xi_hat), repr(a.flags), repr(a.iterations))
                    == (repr(b.theta_hat), repr(b.xi_hat), repr(b.flags), repr(b.iterations))), key
    return want


@st.composite
def _edge_datasets(draw):
    """A _networks() draw and one to four tables simulated on it from
    Beta(1, 10) rates, some links set to 0 or 1, so that brother sets see
    r = 0 and r = 1; one probe leaves every tree but the first without any,
    and its rows None."""
    net = draw(_networks())
    tables = []
    for _ in range(draw(st.integers(1, 4))):
        seed = draw(st.integers(0, 2**16))
        theta = sample_theta(1, 10, net, np.random.default_rng(seed))
        edges = draw(st.lists(st.sampled_from([None, None, None, 0.0, 1.0]),
                              min_size=len(theta), max_size=len(theta)))
        theta = {i: v if e is None else e for (i, v), e in zip(theta.items(), edges)}
        probes = draw(st.sampled_from([1, 2, 5, 40, 300]))
        tables.append(simulate(SimConfig(net, probes, seed), theta))
    return net, tables


@settings(max_examples=150, deadline=None)
@given(_edge_datasets())
def test_array_solve_equals_scalar_solve_small_nets(case):
    net, tables = case
    _assert_array_solve_matches_scalar(internal_views_replicates(tables, net), net)


def _star_views(counts):
    """Views of kary_tree(4, 1), root link 1 above leaves 2 to 5, from one
    table of the given pattern counts."""
    net = fixtures.kary_tree(4, 1)
    table = PatternTable("star", {1: sum(counts.values())}, {1: (2, 3, 4, 5)}, {1: counts})
    return net, internal_views_replicates([table], net)


# the leaves' pass fractions 0.56, 0.16, 0.18 and 0.1 add to 1 + 2**-52 left
# to right, and to 1.0 right to left: the set waits on an interior root
EXHAUSTION = {"1000": 56, "0100": 16, "0010": 18, "0001": 10, "0000": 20}
# fractions 0.5, 0.25, 0.25 add to exactly 1.0: the set is exhausted
EXACT_ONE = {"1000": 50, "0100": 25, "0010": 25, "0000": 20}


@pytest.mark.parametrize("counts,kinds", [(EXHAUSTION, {"interior"}),
                                          (EXACT_ONE, {"exhausted", "zero"})],
                         ids=["exhaustion", "exact_one"])
def test_array_solve_keeps_the_exhaustion_decision(counts, kinds):
    net, pairs = _star_views(counts)
    assert _set_kinds(pairs, net) == kinds
    xi = _assert_array_solve_matches_scalar(pairs, net)[0].xi_hat
    # the mid brothers: an exhausted set pins them at 1, a root leaves them below
    assert [xi[i] == 1.0 for i in (2, 3, 4)] == ["exhausted" in kinds] * 3


def _edge_tables(net, probe_counts, seed=0):
    """Beta(1, 10) tables on net with every third link lossless and every
    seventh link losing every probe."""
    theta = sample_theta(1, 10, net, np.random.default_rng(seed))
    for q, i in enumerate(sorted(theta)):
        theta[i] = 0.0 if q % 3 == 0 else 1.0 if q % 7 == 6 else theta[i]
    return [simulate(SimConfig(net, probes, seed + j), theta)
            for j, probes in enumerate(probe_counts)]


@pytest.mark.parametrize("make_net,probe_counts", [
    pytest.param(lambda: parse_topology(SPLIT_NODE), [1, 40, 400], id="split_node"),
    pytest.param(lambda: parse_topology(SPLIT_NODE_SWAPPED), [1, 40, 400],
                 id="split_node_swapped"),
    pytest.param(fixtures.twotree12, [1, 30, 300], id="twotree12"),
    pytest.param(fixtures.layered49, [1, 50, 500] * 3, id="layered49"),
    pytest.param(lambda: HUB, [1, 2000], id="hub"),
])
def test_array_solve_equals_scalar_solve(make_net, probe_counts):
    net = make_net()
    pairs = internal_views_replicates(_edge_tables(net, probe_counts), net)
    pairs += internal_views_replicates(_tables(net, 1, 100, probe_counts[1:]), net)
    kinds = _set_kinds(pairs, net)
    # a one-probe table leaves a tree without probes, and lossless links give r = 1
    assert {"none", "one"} <= kinds
    _assert_array_solve_matches_scalar(pairs, net)


def test_array_solve_cases_cover_every_kind_of_set():
    kinds = set()
    for make_net, probe_counts in [(fixtures.layered49, [1, 50, 500]), (lambda: HUB, [1, 2000])]:
        net = make_net()
        kinds |= _set_kinds(internal_views_replicates(_edge_tables(net, probe_counts), net), net)
    for counts in (EXHAUSTION, EXACT_ONE):
        net, pairs = _star_views(counts)
        kinds |= _set_kinds(pairs, net)
    assert kinds == SET_KINDS


# node 1 is reached by link 1 (tree 1) and link 2 (tree 2); links 3 and 5
# hang from it in both trees, link 4 in tree 2 alone
SPLIT_THREE = ("network split_three\nlink 1 10 1\nlink 2 20 1\nlink 3 1 2\nlink 4 1 3\n"
               "link 5 1 4\ntree 1 1 : 1 3 5\ntree 2 2 : 2 3 4 5\n")


def test_array_solve_leaves_a_set_with_a_none_brother_none():
    # without tree 2's probes, link 4 has no information, while its brothers
    # 3 and 5 pass nearly every probe of tree 1: their fractions add past 1,
    # and the set still stays None
    net = parse_topology(SPLIT_THREE)
    full = simulate(SimConfig(net, 800, 1), sample_theta(1, 100, net, np.random.default_rng(1)))
    table = PatternTable(full.name, {1: full.probes[1], 2: 0}, full.receivers,
                         {1: full.counts[1], 2: {}})
    pairs = internal_views_replicates([table, full], net)
    r = dict(zip(net.order, pass_fractions(*pairs[0][0].counts(net))))
    assert r[4] is None and r[3] + r[5] > 1.0 and 0.0 < min(r[3], r[5]) < 1.0
    alone = _assert_array_solve_matches_scalar(pairs, net)[0]
    assert [alone.xi_hat[i] for i in (3, 4, 5)] == [None] * 3


def _assert_rows_flag_as_reports(pairs, net):
    """regularity_rows on the count rows of net, and of each tree with counts,
    marks the positions that regularity_by_position flags, dataset by dataset,
    and n1 + n0 == 0 on net's rows marks its no_information.  Returns the
    link ids of the failed brother sets fed by several links."""
    views = [v for v, _ in pairs]
    counts = count_rows(views, net)
    several = set()
    for (_, report), row, mask in zip(pairs, counts,
                                      regularity_rows(net, counts[:, 0], counts[:, 1])):
        want = regularity_by_position(net, *row.tolist())
        assert report == want
        assert mask.tolist() == [i in want.flagged() for i in net.order]
        assert (row.sum(axis=0) == 0).tolist() == [i in want.no_information for i in net.order]
        several |= {net.order[q] for b, feeds in zip(net.brother_pos, net.feed_pos)
                    if len(feeds) > 1 for q in b} & want.brother_sum_violation
    for tree in net.trees:
        rows = count_rows([v for v in views if tree.tree_id in v.tree_ids()], tree)
        for row, mask in zip(rows, regularity_rows(tree, rows[:, 0], rows[:, 1])):
            flagged = regularity_by_position(tree, *row.tolist()).flagged()
            assert mask.tolist() == [i in flagged for i in tree.order]
    return several


@settings(max_examples=150, deadline=None)
@given(_edge_datasets())
def test_regularity_rows_equal_reports_small_nets(case):
    net, tables = case
    _assert_rows_flag_as_reports(internal_views_replicates(tables, net), net)


@pytest.mark.parametrize("make_net,probe_counts,several", [
    # node 1's brothers are fed by links 1 and 2 in one numbering, by link 2
    # alone in the other
    pytest.param(lambda: parse_topology(SPLIT_NODE), [1, 40, 400], {3, 4}, id="split_node"),
    pytest.param(lambda: parse_topology(SPLIT_NODE_SWAPPED), [1, 40, 400], set(),
                 id="split_node_swapped"),
    pytest.param(lambda: parse_topology(SPLIT_THREE), [1, 40, 400], {3, 4, 5},
                 id="split_three"),
    pytest.param(lambda: HUB, [1, 2000], {142, 756}, id="hub"),
])
def test_regularity_rows_equal_reports(make_net, probe_counts, several):
    # the lossless and dead links of _edge_tables fail brother sets, some of
    # them fed by several links; on SPLIT_THREE, node 1's set fails where
    # links 3 and 5 lose every probe
    net = make_net()
    tables = _edge_tables(net, probe_counts) + _tables(net, 1, 100, probe_counts[1:])
    if net.name == "split_three":
        tables.append(simulate(SimConfig(net, 400, 0),
                               {1: 0.1, 2: 0.1, 3: 1.0, 4: 0.2, 5: 1.0}))
    assert _assert_rows_flag_as_reports(internal_views_replicates(tables, net), net) == several
