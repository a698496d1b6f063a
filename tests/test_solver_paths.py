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
constant forced each way (ARRAY_PATHS).
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from losstomo import estimators, fixtures
from losstomo.estimators import (_brother_columns, _residual_and_slope,
                                 _residuals_and_slopes, _solve_interior,
                                 _solve_interior_rows, le_xi, mvwa, mvwa_replicates)
from losstomo.simulator import SimConfig, sample_theta, simulate
from losstomo.statistics import PatternTable, internal_views, internal_views_replicates
from losstomo.topology import parse_topology

from mvwa_reference import mvwa_reference
from test_estimators import _simulated_small_nets

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
