import builtins
import dataclasses
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from losstomo import bench, estimators, fixtures
from losstomo.bench import mse
from losstomo.estimators import (FLAG_BOUNDARY, FLAG_NON_ESTIMABLE, FLAG_OK,
                                 FLAG_REGULARITY, _clamp_mean, _solve_interior, le_xi, mvwa,
                                 nem, pcem, project_to_theta_star)
from losstomo.likelihood import loglik_xi, observed_information
from losstomo.simulator import SimConfig, sample_theta, simulate
from losstomo.statistics import InternalView, PatternTable, internal_views, regularity_report
from losstomo.topology import GeneralNetwork, LinkRecord, MulticastTree, parse_topology

from fd_reference import grad_fd
from test_bench_cli import SPLIT_NODE, SPLIT_NODE_SWAPPED
from test_statistics import _nets_and_tables, _networks

STAR = fixtures.star3()
TOY = fixtures.toy7()
TWOTREE = fixtures.twotree12()


def star_data(counts):
    n = sum(counts.values())
    table = PatternTable("t", {1: n}, {1: (2, 3)}, {1: counts})
    views, report = internal_views(table, STAR)
    return table, views, report


def residual(rs, pi):
    prod = 1.0
    for r in rs:
        prod *= (1.0 - r) + r * pi
    return prod - pi


def two_brother_root(r1, r2):
    # closed form for two brothers: the fixed-point quadratic's other root is 1
    return (1.0 - r1) * (1.0 - r2) / (r1 * r2)


class UniqueRootUnavailable(ValueError):
    """The brother-set equation has no unique root in (0, 1)."""


@dataclass
class BrotherSetProblem:
    """One brother set's pass fractions, by brother link id."""

    r: dict[int, float]


def solve_brother_fixed_point(problem):
    # the scalar solve le_xi runs per brother set, refused where no unique
    # interior root exists: every r_j in (0, 1), summing to more than 1
    rs = [problem.r[j] for j in sorted(problem.r)]
    if not (all(0.0 < r < 1.0 for r in rs) and sum(rs) > 1.0):
        raise UniqueRootUnavailable(f"pass fractions {sorted(rs)} admit no unique root")
    return _solve_interior(rs)[0]


def bisect_root(rs, lo=0.0, hi=1.0 - 1e-9, steps=200):
    # independent oracle for the fixed point, no derivatives involved
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if residual(rs, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBrotherSolver:
    def test_two_brothers_closed_form(self):
        pi = solve_brother_fixed_point(BrotherSetProblem({2: 0.75, 3: 0.75}))
        assert pi == pytest.approx(1 / 9, abs=1e-15)
        assert abs(residual([0.75, 0.75], pi)) <= 1e-12

    def test_three_brothers_against_bisection(self):
        rs = [2 / 3, 2 / 3, 2 / 3]
        pi = solve_brother_fixed_point(BrotherSetProblem({1: rs[0], 2: rs[1], 3: rs[2]}))
        assert abs(residual(rs, pi)) <= 1e-12
        assert pi == pytest.approx(bisect_root(rs), abs=1e-9)
        assert 0.0 < pi < 1.0

    def test_insufficient_pass_mass_raises(self):
        with pytest.raises(UniqueRootUnavailable):
            solve_brother_fixed_point(BrotherSetProblem({1: 0.4, 2: 0.5}))
        with pytest.raises(UniqueRootUnavailable):
            solve_brother_fixed_point(BrotherSetProblem({1: 1.0, 2: 0.9}))
        with pytest.raises(UniqueRootUnavailable):
            solve_brother_fixed_point(BrotherSetProblem({1: 0.0, 2: 0.9}))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=2, max_size=6))
    def test_random_solvable_sets(self, rs):
        assume(sum(rs) > 1.02)
        pi = solve_brother_fixed_point(BrotherSetProblem(dict(enumerate(rs, 1))))
        assert 0.0 < pi < 1.0 - 1e-10
        assert abs(residual(rs, pi)) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.01, max_value=0.99),
           st.floats(min_value=0.01, max_value=0.99))
    def test_two_brothers_match_closed_form(self, r1, r2):
        assume(r1 + r2 > 1.02)
        x = solve_brother_fixed_point(BrotherSetProblem({1: r1, 2: r2}))
        pi = two_brother_root(r1, r2)
        # g(x) = (1 - r1 + r1 x)(1 - r2 + r2 x) - x has g(pi) = 0, a slope
        # g'(x) = r1 (1 - r2 + r2 x) + r2 (1 - r1 + r1 x) - 1 linear in x, and
        # g'(pi) = 1 - r1 - r2 < 0.  While g' keeps its sign between x and pi,
        # the mean value theorem gives |x - pi| <= |g(x)| / min|g'| over that
        # interval, the smaller of |g'(x)| and |g'(pi)|.  The solver stops at
        # a computed |g(x)| <= 1e-12, which the exact g exceeds by a few ulps,
        # and the closed form itself is within a few ulps of pi.
        slope_x = r1 * (1.0 - r2 + r2 * x) + r2 * (1.0 - r1 + r1 * x) - 1.0
        assert slope_x < 0.0
        min_slope = min(-slope_x, r1 + r2 - 1.0)
        eps = np.finfo(float).eps
        assert abs(x - pi) <= (1e-12 + 8 * eps) / min_slope + 4 * eps * pi


class TestLeXi:
    def test_star_exact(self):
        _, views, report = star_data({"11": 2, "10": 1, "01": 1, "00": 1})
        res = le_xi(views, STAR, report=report)
        assert res.xi_hat[1] == pytest.approx(0.2, abs=1e-12)
        assert res.theta_hat[1] == pytest.approx(0.1, abs=1e-12)
        assert res.theta_hat[2] == pytest.approx(1 / 3, abs=1e-12)
        assert all(f == FLAG_OK for f in res.flags.values())

    def test_star_xi_boundary_case(self):
        _, views, _ = star_data({"11": 1, "10": 1, "01": 1, "00": 1})
        res = le_xi(views, STAR)
        assert res.xi_hat[2] == pytest.approx(0.5, abs=1e-12)
        assert res.xi_hat[1] == pytest.approx(0.25, abs=1e-12)
        assert res.theta_hat[1] == 0.0
        assert res.flags[1] == FLAG_BOUNDARY

    def test_matches_pcem_on_shared_brother_set(self):
        theta = {i: 0.08 for i in TWOTREE.links}
        patterns = simulate(SimConfig(TWOTREE, 600, seed=5), theta)
        views, report = internal_views(patterns, TWOTREE)
        a = le_xi(views, TWOTREE, report=report)
        b = pcem(views, TWOTREE, tol=1e-11, report=report)
        roots = {t.root_link: t.tree_id for t in TWOTREE.trees}
        for s in roots:
            assert a.xi_hat[s] == pytest.approx(1.0 - views.r[s], abs=1e-15)
        if report.all_ok:
            for i in TWOTREE.links:
                assert a.theta_hat[i] == pytest.approx(b.theta_hat[i], abs=1e-6)

    def test_worker_count_does_not_change_output(self):
        theta = {i: 0.07 for i in fixtures.layered49().links}
        net = fixtures.layered49()
        patterns = simulate(SimConfig(net, 300, seed=77), theta)
        views, report = internal_views(patterns, net)
        base = le_xi(views, net, workers=1, report=report)
        for workers in (2, 8):
            again = le_xi(views, net, workers=workers, report=report)
            assert again.theta_hat == base.theta_hat
            assert again.xi_hat == base.xi_hat

    def test_gradient_vanishes_at_interior_solution(self):
        theta = {i: 0.1 for i in TOY.links}
        patterns = simulate(SimConfig(TOY, 400, seed=13), theta)
        views, report = internal_views(patterns, TOY)
        res = le_xi(views, TOY, report=report)
        if not report.all_ok:
            pytest.skip("seeded data unexpectedly irregular")

        def fn(point):
            return loglik_xi(views, point, TOY).value

        value = fn(res.xi_hat)
        grad = grad_fd(fn, res.xi_hat)
        assert max(abs(g) for g in grad.values()) <= 1e-6 * (1 + abs(value))


class TestDegenerateCases:
    def test_never_confirmed_link_pins_xi_to_one(self):
        # receiver at link 4 is dead; the tree still yields estimates elsewhere
        table = PatternTable("t", {1: 8}, {1: (4, 5, 6, 7)},
                             {1: {"0100": 3, "0110": 2, "0001": 2, "0000": 1}})
        views, report = internal_views(table, TOY)
        assert views.n1[4] == 0 and views.n0[4] > 0
        assert 4 in report.n1_zero
        res = le_xi(views, TOY, report=report)
        assert res.xi_hat[4] == 1.0
        assert res.theta_hat[4] == 1.0
        assert res.flags[4] == FLAG_REGULARITY

    def test_never_lost_link_pins_xi_to_zero(self):
        _, views, report = star_data({"11": 3, "01": 1, "00": 1})
        assert views.n0[3] == 0
        res = le_xi(views, STAR, report=report)
        assert res.xi_hat[3] == 0.0
        assert res.theta_hat[3] == 0.0
        assert res.flags[3] == FLAG_REGULARITY
        assert res.flags[2] == FLAG_OK

    def test_brother_sum_equality_zeroes_parent(self):
        _, views, report = star_data({"10": 2, "01": 2, "00": 1})
        assert report.brother_sum_violation == {2, 3}
        res = le_xi(views, STAR, report=report)
        assert res.theta_hat[1] == 0.0
        assert res.flags[1] == FLAG_BOUNDARY
        assert res.flags[2] == FLAG_REGULARITY

    def test_outside_domain_projected(self):
        _, views, report = star_data({"11": 1, "10": 2, "01": 2, "00": 1})
        res = le_xi(views, STAR, report=report)
        # raw estimate is negative before projection
        assert res.xi_hat[1] < res.xi_hat[2] * res.xi_hat[3]
        assert res.theta_hat[1] == 0.0
        assert res.flags[1] == FLAG_BOUNDARY

    def test_dark_subtree_not_estimable(self):
        _, views, report = star_data({"00": 5})
        res = le_xi(views, STAR, report=report)
        assert report.no_information == {2, 3}
        assert res.theta_hat[2] is None and res.theta_hat[3] is None
        assert res.flags[2] == FLAG_NON_ESTIMABLE
        assert res.xi_hat[1] == pytest.approx(1.0)
        assert res.theta_hat[1] == 1.0


class TestPcem:
    def test_star_fixed_point(self):
        _, views, _ = star_data({"11": 2, "10": 1, "01": 1, "00": 1})
        start = {1: 0.1, 2: 1 / 3, 3: 1 / 3}
        res = pcem(views, STAR, theta0=start, tol=0.0, max_iter=1, keep_history=True)
        after = res.theta_path[0]
        for i in STAR.links:
            assert after[i] == pytest.approx(start[i], abs=1e-14)

    def test_leaves_never_gain_phantom_passes(self):
        # one sweep from arbitrary rates: a leaf's expected fail count equals
        # all its unexplained attempts, so theta_leaf = u/(n1+u)
        _, views, _ = star_data({"11": 4, "10": 2, "00": 2})
        theta0 = {1: 0.5, 2: 0.25, 3: 0.25}
        res = pcem(views, STAR, theta0=theta0, tol=0.0, max_iter=1, keep_history=True)
        xi1 = 0.5 + 0.5 * 0.25 * 0.25
        p1 = (xi1 - 0.5) / xi1
        u1 = views.n0[1]
        om1_1 = views.n1[1] + u1 * p1
        u2 = om1_1 - views.n1[2]
        expected_theta2 = u2 / (views.n1[2] + u2)
        assert res.theta_path[0][2] == pytest.approx(expected_theta2, abs=1e-14)

    def test_converges_to_le_xi_on_regular_data(self):
        theta = {i: 0.12 for i in TOY.links}
        patterns = simulate(SimConfig(TOY, 500, seed=101), theta)
        views, report = internal_views(patterns, TOY)
        assume_ok = report.all_ok
        a = le_xi(views, TOY, report=report)
        b = pcem(views, TOY, tol=1e-11, report=report)
        if assume_ok:
            for i in TOY.links:
                assert b.theta_hat[i] == pytest.approx(a.theta_hat[i], abs=1e-6)

    def test_loglik_never_decreases(self):
        theta = {i: 0.15 for i in TWOTREE.links}
        patterns = simulate(SimConfig(TWOTREE, 120, seed=3), theta)
        views, report = internal_views(patterns, TWOTREE)
        res = pcem(views, TWOTREE, track_loglik=True, report=report)
        path = res.loglik_path
        assert len(path) == res.iterations
        for prev, nxt in zip(path, path[1:]):
            assert nxt >= prev - 1e-10

    def test_max_iter_reached_returns_best(self):
        theta = {i: 0.2 for i in TOY.links}
        patterns = simulate(SimConfig(TOY, 200, seed=8), theta)
        views, _ = internal_views(patterns, TOY)
        res = pcem(views, TOY, tol=0.0, max_iter=7)
        assert res.iterations == 7
        assert all(v is not None for v in res.theta_hat.values())


    def test_unseen_count_clamped_on_inconsistent_views(self):
        # link 2 claims 30 passes below parent links that confirm 10, so its
        # unseen count 10 - 30 is negative until pcem clamps it to 0
        n1 = {1: 5, 2: 30, 3: 2, 4: 5}
        n0 = {1: 5, 2: 1, 3: 8, 4: 5}
        r = {i: n1[i] / (n1[i] + n0[i]) for i in n1}
        views = InternalView({}, {}, n1, n0, r, {1: 10, 2: 10})
        res = pcem(views, fixtures.shared_pair())
        assert res.theta_hat[2] == 0.0
        assert all(0.0 <= v <= 1.0 for v in res.theta_hat.values())


class TestNem:
    def test_refuses_large_networks(self):
        net = fixtures.layered49()
        patterns = simulate(SimConfig(net, 50, seed=1), {i: 0.05 for i in net.links})
        with pytest.raises(ValueError, match="guard"):
            nem(patterns, net)

    def test_pattern_00_posterior_split(self):
        # dark star: either the root link failed, or it passed and both
        # leaves failed; one sweep must mix exactly by those posteriors
        table = PatternTable("t", {1: 1}, {1: (2, 3)}, {1: {"00": 1}})
        theta0 = {1: 0.4, 2: 0.5, 3: 0.5}
        res = nem(table, STAR, theta0=theta0, tol=0.0, max_iter=1, keep_history=True)
        w_fail = 0.4
        w_pass = 0.6 * 0.25
        post_fail = w_fail / (w_fail + w_pass)
        assert res.theta_path[0][1] == pytest.approx(post_fail, abs=1e-14)

    def test_first_sweep_equals_pcem(self):
        counts = {"1111": 5, "1010": 2, "0100": 2, "0000": 2, "0111": 1}
        table = PatternTable("t", {1: 12}, {1: (4, 5, 6, 7)}, {1: counts})
        views, _ = internal_views(table, TOY)
        a = pcem(views, TOY, tol=0.0, max_iter=3, keep_history=True)
        b = nem(table, TOY, tol=0.0, max_iter=3, keep_history=True)
        for step_a, step_b in zip(a.theta_path, b.theta_path):
            for i in TOY.links:
                assert step_a[i] == pytest.approx(step_b[i], abs=1e-12)

    def test_final_estimates_match_pcem_on_seeded_runs(self):
        rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(2)))
        for seed in range(5):
            theta = sample_theta(2, 18, TWOTREE, rng)
            patterns = simulate(SimConfig(TWOTREE, 200, seed=1000 + seed), theta)
            views, _ = internal_views(patterns, TWOTREE)
            a = pcem(views, TWOTREE)
            b = nem(patterns, TWOTREE)
            assert a.iterations == b.iterations
            for i in TWOTREE.links:
                va, vb = a.theta_hat[i], b.theta_hat[i]
                if va is None:
                    assert vb is None
                else:
                    assert va == pytest.approx(vb, abs=1e-9)


def two_disjoint_stars() -> GeneralNetwork:
    records = [LinkRecord(1, 0, 1), LinkRecord(2, 1, 2), LinkRecord(3, 1, 3),
               LinkRecord(4, 10, 11), LinkRecord(5, 11, 12), LinkRecord(6, 11, 13)]
    rec_map = {r.link_id: r for r in records}
    trees = [MulticastTree(1, 1, [1, 2, 3], rec_map),
             MulticastTree(2, 4, [4, 5, 6], rec_map)]
    return GeneralNetwork("disjoint", records, trees)


class TestMvwa:
    def test_disjoint_trees_equal_per_tree_solution(self):
        net = two_disjoint_stars()
        table = PatternTable(
            "t", {1: 5, 2: 5}, {1: (2, 3), 2: (5, 6)},
            {1: {"11": 2, "10": 1, "01": 1, "00": 1},
             2: {"11": 3, "10": 1, "01": 1}})
        views, report = internal_views(table, net)
        joint = le_xi(views, net, report=report)
        avg = mvwa(views, net)
        for i in net.links:
            if joint.theta_hat[i] is None:
                assert avg.theta_hat[i] is None
            else:
                assert avg.theta_hat[i] == pytest.approx(joint.theta_hat[i], abs=1e-12)

    def test_symmetric_shared_data_simple_average(self):
        net = fixtures.shared_pair()
        counts = {"11": 6, "10": 2, "01": 2, "00": 2}
        table = PatternTable("t", {1: 12, 2: 12}, {1: (2, 3), 2: (2, 3)},
                             {1: dict(counts), 2: dict(counts)})
        avg = mvwa(internal_views(table, net)[0], net)
        sub = PatternTable("t", {1: 12}, {1: (2, 3)}, {1: dict(counts)})
        sub_net = GeneralNetwork(
            "one", [net.links[i] for i in (1, 2, 3)], [net.trees[0]])
        views, _ = internal_views(sub, sub_net)
        solo = le_xi(views, sub_net)
        # identical trees with identical data: the weighted average of two
        # equal estimates is that estimate
        for i in (2, 3):
            assert avg.theta_hat[i] == pytest.approx(solo.theta_hat[i], abs=1e-12)

    def test_builds_no_sub_networks(self, monkeypatch):
        net = fixtures.twotree12()
        views, _ = internal_views(simulate(SimConfig(net, 200, seed=5),
                                           {i: 0.1 for i in net.links}), net)
        built = []
        init = GeneralNetwork.__init__

        def counted(self, *args, **kwargs):
            built.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(GeneralNetwork, "__init__", counted)
        first = mvwa(views, net)
        second = mvwa(views, net)
        assert built == []
        assert first.theta_hat == second.theta_hat

    def test_single_tree_links_pass_through(self):
        theta = {i: 0.1 for i in TWOTREE.links}
        patterns = simulate(SimConfig(TWOTREE, 400, seed=21), theta)
        avg = mvwa(internal_views(patterns, TWOTREE)[0], TWOTREE)
        k1 = TWOTREE.trees[0].tree_id
        sub_net = GeneralNetwork(
            "t1", [TWOTREE.links[i] for i in sorted(TWOTREE.trees[0].links)],
            [TWOTREE.trees[0]])
        sub = PatternTable(patterns.name, {k1: patterns.probes[k1]},
                           {k1: patterns.receivers[k1]}, {k1: patterns.counts[k1]})
        views, _ = internal_views(sub, sub_net)
        solo = le_xi(views, sub_net)
        for i in (3, 4, 5, 6):   # links only tree 1 sees
            assert avg.theta_hat[i] == pytest.approx(solo.theta_hat[i], abs=1e-12)


    def test_weighted_average_not_more_accurate_than_joint(self):
        # pooled over sample sizes at low rates, averaging per-tree solutions
        # must not beat the joint estimator in most replicates
        from losstomo.bench import mse

        ge = total = 0
        for rep in range(40):
            rng = np.random.Generator(
                np.random.Philox(seed=np.random.SeedSequence((4, rep))))
            truth = sample_theta(1, 1000, TWOTREE, rng)
            for n in (50, 100, 200, 500):
                patterns = simulate(SimConfig(TWOTREE, n, seed=60_000 + 16 * rep + n),
                                    truth)
                views, report = internal_views(patterns, TWOTREE)
                m_joint = mse(le_xi(views, TWOTREE, report=report).theta_hat, truth)
                m_avg = mse(mvwa(views, TWOTREE).theta_hat, truth)
                ge += m_avg >= m_joint
                total += 1
        assert ge / total >= 0.80


def test_project_to_theta_star():
    raw = {1: -0.05, 2: 0.4, 3: 1.2, 4: None, 5: -math.inf}
    projected, clamped = project_to_theta_star(raw)
    assert projected == {1: 0.0, 2: 0.4, 3: 1.0, 4: None, 5: 0.0}
    assert clamped == {1, 3, 5}


def test_combine_clamp_is_min_max_on_floats_and_arrays():
    # min(1.0, max(0.0, est)): nan and -0.0 become 0.0, and est < 1.0 decides the top
    edges = [math.nan, -0.0, 0.0, -1e-300, 5e-324, 0.5, math.nextafter(1.0, 0.0), 1.0,
             math.nextafter(1.0, 2.0), math.inf, -math.inf]
    want = [min(1.0, max(0.0, e)) for e in edges]
    assert [math.copysign(1.0, w) for w in want] == [1.0] * len(edges)
    for got in ([_clamp_mean(e) for e in edges],
                _clamp_mean(np.array(edges), np.where).tolist()):
        assert [float(g).hex() for g in got] == [w.hex() for w in want]


def test_em_reports_whether_tol_stopped_the_loop():
    table, views, report = star_data({"11": 2, "10": 1, "01": 1, "00": 1})
    assert pcem(views, STAR, report=report).converged is True
    assert pcem(views, STAR, max_iter=1, report=report).converged is False
    assert pcem(views, STAR, tol=0.0, max_iter=5, report=report).converged is False
    assert nem(table, STAR).converged is True
    assert nem(table, STAR, max_iter=1).converged is False


def test_closed_form_estimators_report_converged():
    _, views, report = star_data({"11": 2, "10": 1, "01": 1, "00": 1})
    assert le_xi(views, STAR, report=report).converged is True
    assert mvwa(views, STAR, report=report).converged is True


@st.composite
def _simulated_small_nets(draw):
    net = draw(_networks())
    a, b = draw(st.sampled_from([(1, 100), (1, 10), (2, 18), (5, 1000)]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(seed)))
    theta = sample_theta(a, b, net, rng)
    probes = draw(st.integers(1, 300))
    return net, simulate(SimConfig(net, probes, seed=seed), theta)


@settings(max_examples=300, deadline=None)
@given(_simulated_small_nets())
def test_pcem_equals_nem_sweep_by_sweep(case):
    net, patterns = case
    views, report = internal_views(patterns, net)
    a = pcem(views, net, tol=0.0, max_iter=3, keep_history=True, report=report)
    b = nem(patterns, net, tol=0.0, max_iter=3, keep_history=True)
    assert len(a.theta_path) == len(b.theta_path) == 3
    for step_a, step_b in zip(a.theta_path, b.theta_path):
        assert list(step_a) == list(step_b)
        assert max(abs(step_a[i] - step_b[i]) for i in net.links) <= 1e-9


def _reversed(d: dict) -> dict:
    return dict(reversed(d.items()))


def _assert_key_order_free(patterns, net):
    """A view rebuilt through InternalView's constructor with every dict's keys
    reversed estimates exactly as the view internal_views builds: the
    estimators read the views by position (InternalView.counts), not by
    dict order."""
    view, report = internal_views(patterns, net)
    rebuilt = InternalView({k: _reversed(d) for k, d in _reversed(view.per_tree_n1).items()},
                           {k: _reversed(d) for k, d in _reversed(view.per_tree_n0).items()},
                           _reversed(view.n1), _reversed(view.n0), _reversed(view.r),
                           _reversed(view.probes))
    assert list(rebuilt.n1) != list(view.n1) or len(net.links) == 1
    assert regularity_report(rebuilt, net) == report
    for method in (le_xi, pcem, mvwa):
        got, want = method(rebuilt, net), method(view, net)
        assert (repr(dataclasses.replace(got, wall_time=0.0))
                == repr(dataclasses.replace(want, wall_time=0.0))), method.__name__
    if all(len(ups) <= 1 for ups in net.parent_pos):
        theta = {i: math.nan if v is None else v for i, v in le_xi(view, net).theta_hat.items()}
        assert (repr(observed_information(theta, rebuilt, net))
                == repr(observed_information(theta, view, net)))


@settings(max_examples=150, deadline=None)
@given(_nets_and_tables())
def test_views_with_reversed_dicts_estimate_alike(case):
    _assert_key_order_free(*reversed(case))


@pytest.mark.parametrize("text", [SPLIT_NODE, SPLIT_NODE_SWAPPED], ids=["split", "swapped"])
@pytest.mark.parametrize("seed", range(4))
def test_split_node_views_with_reversed_dicts_estimate_alike(text, seed):
    net = parse_topology(text)
    theta = sample_theta(1, 10, net, np.random.default_rng(seed))
    _assert_key_order_free(simulate(SimConfig(net, 400, seed=seed), theta), net)


def compensated_sum(values, start=0):
    """sum() as Python 3.12 computes it: Neumaier-compensated once a float comes."""
    values = list(values)
    if not any(isinstance(v, float) for v in values):
        return builtins.sum(values, start)
    total, comp = float(start), 0.0
    for v in map(float, values):
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_float_sums_do_not_depend_on_the_python_version(monkeypatch):
    # the leaves' pass fractions 0.56, 0.16, 0.18 and 0.1 add to 1 + 2**-52
    # left to right and to 1.0 compensated, either side of _solve_node's branch
    fractions = [0.56, 0.16, 0.18, 0.1]
    assert compensated_sum(fractions) == 1.0 < 0.56 + 0.16 + 0.18 + 0.1
    net = fixtures.kary_tree(4, 1)
    counts = {"1000": 56, "0100": 16, "0010": 18, "0001": 10, "0000": 20}
    views, report = internal_views(PatternTable("t", {1: 120}, {1: (2, 3, 4, 5)}, {1: counts}),
                                   net)
    hat, truth = {1: 0.5, 2: 0.6, 3: 0.9, 4: 0.5}, {1: 0.28, 2: 0.76, 3: 0.62, 4: 0.25}
    squares = [(hat[i] - truth[i]) ** 2 for i in hat]
    assert compensated_sum(squares) != functools.reduce(operator.add, squares)

    def outputs():
        fits = [f(views, net, report=report) for f in (le_xi, mvwa)]
        return [(r.theta_hat, r.xi_hat, r.flags, r.iterations) for r in fits], mse(hat, truth)

    expected = outputs()
    monkeypatch.setattr(estimators, "sum", compensated_sum, raising=False)
    monkeypatch.setattr(bench, "sum", compensated_sum, raising=False)
    assert outputs() == expected


def test_unknown_method_names_itself():
    with pytest.raises(ValueError) as exc:
        estimators.estimator("bogus")
    assert str(exc.value) == "unknown method 'bogus'"
