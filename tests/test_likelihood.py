import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from losstomo import fixtures, likelihood
from losstomo.estimators import le_xi
from losstomo.likelihood import (loglik_psi, loglik_theta, loglik_xi, observed_information,
                                 per_probe_loglik)
from losstomo.params import theta_to_xi, xi_to_psi
from losstomo.simulator import SimConfig, sample_theta, simulate
from losstomo.statistics import InternalView, PatternTable, internal_views
from losstomo.topology import GeneralNetwork, LinkRecord, MulticastTree

from fd_reference import grad_fd, observed_information_fd

STAR = fixtures.star3()
TOY = fixtures.toy7()
TWOTREE = fixtures.twotree12()


def star_views(counts):
    n = sum(counts.values())
    table = PatternTable("t", {1: n}, {1: (2, 3)}, {1: counts})
    return table, internal_views(table, STAR)[0]


def random_theta(net, rng, lo=0.05, hi=0.6):
    return {i: rng.uniform(lo, hi) for i in sorted(net.links)}


def test_star_loglik_matches_pattern_probabilities():
    _, views = star_views({"11": 2, "10": 1, "01": 1, "00": 1})
    value = loglik_theta(views, {1: 0.1, 2: 1 / 3, 3: 1 / 3}, STAR).value
    assert value == pytest.approx(2 * math.log(0.4) + 3 * math.log(0.2), abs=1e-12)


def test_single_leaf_bernoulli():
    net = fixtures.single_link()
    table = PatternTable("t", {1: 10}, {1: (1,)}, {1: {"1": 7, "0": 3}})
    views, _ = internal_views(table, net)
    for theta in (0.1, 0.3, 0.8):
        expected = 7 * math.log(1 - theta) + 3 * math.log(theta)
        assert loglik_theta(views, {1: theta}, net).value == pytest.approx(expected)


def test_three_forms_agree_on_random_points():
    rng = random.Random(3)
    for net in (TOY, TWOTREE):
        cfg = SimConfig(net, 300, seed=rng.randrange(2**31))
        gen = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(17)))
        patterns = simulate(cfg, sample_theta(2, 20, net, gen))
        views, _ = internal_views(patterns, net)
        for _ in range(20):
            theta = random_theta(net, rng)
            xi = theta_to_xi(theta, net)
            psi = xi_to_psi(xi, net)
            lt = loglik_theta(views, theta, net).value
            lx = loglik_xi(views, xi, net).value
            lp = loglik_psi(views, psi, net).value
            assert lx == pytest.approx(lt, abs=1e-10 * (1 + abs(lt)))
            assert lp == pytest.approx(lt, abs=1e-10 * (1 + abs(lt)))


def test_per_probe_star_cases():
    theta = {1: 0.1, 2: 1 / 3, 3: 1 / 3}
    assert per_probe_loglik("10", 1, theta, STAR) == pytest.approx(math.log(0.2))
    assert per_probe_loglik("11", 1, theta, STAR) == pytest.approx(
        sum(math.log(1 - theta[i]) for i in (1, 2, 3)))
    xi = theta_to_xi(theta, STAR)
    assert per_probe_loglik("00", 1, theta, STAR) == pytest.approx(math.log(xi[1]))


def test_views_form_equals_per_probe_sum():
    rng = random.Random(11)
    gen = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(23)))
    for net in (TOY, TWOTREE):
        patterns = simulate(SimConfig(net, 250, seed=41), sample_theta(1, 12, net, gen))
        views, _ = internal_views(patterns, net)
        for _ in range(5):
            theta = random_theta(net, rng)
            direct = sum(c * per_probe_loglik(bits, k, theta, net)
                         for k, table in patterns.counts.items()
                         for bits, c in table.items())
            reduced = loglik_theta(views, theta, net).value
            assert reduced == pytest.approx(direct, abs=1e-10 * (1 + abs(direct)))


def test_loglik_psi_affine_in_pass_counts():
    _, views_a = star_views({"11": 2, "10": 1, "01": 1, "00": 1})
    _, views_b = star_views({"11": 4, "10": 1, "01": 2, "00": 1})
    theta = {1: 0.2, 2: 0.25, 3: 0.3}
    psi = xi_to_psi(theta_to_xi(theta, STAR), STAR)
    la = loglik_psi(views_a, psi, STAR).value
    lb = loglik_psi(views_b, psi, STAR).value
    # same probe totals would differ only through the linear term; here n
    # differs too, so compare against the explicit affine expression
    base_a = views_a.probes[1] * math.log(theta_to_xi(theta, STAR)[1])
    base_b = views_b.probes[1] * math.log(theta_to_xi(theta, STAR)[1])
    lin_a = sum(views_a.n1[i] * psi[i] for i in STAR.links)
    lin_b = sum(views_b.n1[i] * psi[i] for i in STAR.links)
    assert la == pytest.approx(base_a + lin_a, abs=1e-12)
    assert lb == pytest.approx(base_b + lin_b, abs=1e-12)


def test_zero_coefficient_terms_do_not_blow_up():
    _, views = star_views({"11": 3})   # every n0 is zero
    value = loglik_theta(views, {1: 0.2, 2: 0.1, 3: 0.1}, STAR).value
    assert math.isfinite(value)
    # boundary point with a positive coefficient gives -inf, not an exception
    _, views2 = star_views({"11": 2, "00": 2})
    assert loglik_theta(views2, {1: 1.0, 2: 0.1, 3: 0.1}, STAR).value == -math.inf


def test_grad_single_leaf_matches_analytic():
    net = fixtures.single_link()
    table = PatternTable("t", {1: 10}, {1: (1,)}, {1: {"1": 7, "0": 3}})
    views, _ = internal_views(table, net)

    def fn(point):
        return loglik_theta(views, point, net).value

    for theta in (0.2, 0.3, 0.7):
        grad = grad_fd(fn, {1: theta})
        analytic = -7 / (1 - theta) + 3 / theta
        assert grad[1] == pytest.approx(analytic, rel=1e-5)


def test_grad_zero_at_star_mle():
    _, views = star_views({"11": 2, "10": 1, "01": 1, "00": 1})

    def fn(point):
        return loglik_theta(views, point, STAR).value

    grad = grad_fd(fn, {1: 0.1, 2: 1 / 3, 3: 1 / 3})
    assert max(abs(g) for g in grad.values()) < 1e-5


def test_grad_respects_boundary():
    net = fixtures.single_link()

    def fn(point):
        return -((point[1] - 0.25) ** 2)

    grad = grad_fd(fn, {1: 1e-9})
    assert math.isfinite(grad[1])
    assert math.isnan(grad_fd(fn, {1: 0.0})[1])


def test_observed_information_positive_at_mle():
    _, views = star_views({"11": 2, "10": 1, "01": 1, "00": 1})
    variances = observed_information({1: 0.1, 2: 1 / 3, 3: 1 / 3}, views, STAR)
    for i in STAR.links:
        assert math.isfinite(variances[i]) and variances[i] > 0


def test_observed_information_boundary_is_nan():
    _, views = star_views({"11": 2, "10": 1, "01": 1, "00": 1})
    variances = observed_information({1: 0.0, 2: 0.3, 3: 0.3}, views, STAR)
    assert math.isnan(variances[1])


def test_observed_information_star_exact():
    # at the star's MLE by hand: link 1 gets 4/0.9^2 + (8/9)^2 * 1/0.2^2 = 2000/81;
    # link 2 gets 3/(2/3)^2 + 1/(1/3)^2 + (0.9 * 1/3)^2 * 1/0.2^2 = 18, link 3 alike
    _, views = star_views({"11": 2, "10": 1, "01": 1, "00": 1})
    variances = observed_information({1: 0.1, 2: 1 / 3, 3: 1 / 3}, views, STAR)
    assert variances[1] == pytest.approx(81 / 2000, rel=1e-14)
    assert variances[2] == pytest.approx(1 / 18, rel=1e-14)
    assert variances[3] == pytest.approx(1 / 18, rel=1e-14)


@st.composite
def _trees_with_views(draw):
    m = draw(st.integers(min_value=1, max_value=20))
    records = [LinkRecord(1, 0, 1)] + [
        LinkRecord(k, draw(st.integers(min_value=1, max_value=k - 1)), k)
        for k in range(2, m + 1)]
    rec_map = {r.link_id: r for r in records}
    net = GeneralNetwork("random", records, [MulticastTree(1, 1, range(1, m + 1), rec_map)])
    counts = st.integers(min_value=0, max_value=50)
    n1 = {i: draw(counts) for i in net.links}
    n0 = {i: draw(counts) for i in net.links}
    r = {i: n1[i] / (n1[i] + n0[i]) if n1[i] + n0[i] else None for i in net.links}
    views = InternalView({1: n1}, {1: n0}, n1, n0, r, {1: n1[1] + n0[1]})
    theta = {i: draw(st.floats(min_value=0.01, max_value=0.99)) for i in net.links}
    return net, views, theta


@settings(max_examples=200, deadline=None)
@given(_trees_with_views())
def test_observed_information_matches_finite_differences(case):
    net, views, theta = case
    h = 1e-5   # the reference's step
    exact = observed_information(theta, views, net)
    approx = observed_information_fd(theta, views, net, step=h)
    loglik = abs(loglik_theta(views, theta, net).value)
    # Truncation: every term is c*log(affine in theta_j) with the affine part at
    # least 0.01 and slope at most 1, so it is at most h^2/(2*0.01^2) = 5e-7 of
    # the curvature.  Rounding: each of the three likelihood sums of 2m terms
    # is off by up to about 2m*eps*|L|, and the second difference adds the
    # three errors with weights 1, 2, 1 before dividing by h^2.
    rounding = 4 * 2 * len(net.links) * 2.2e-16 * (1 + loglik) / (h * h)
    assert [i for i in exact if math.isnan(exact[i])] == \
        [i for i in approx if math.isnan(approx[i])]
    for i in net.links:
        if math.isnan(exact[i]):
            continue
        curvature = 1 / exact[i]
        assert abs(curvature - 1 / approx[i]) <= 1e-6 * curvature + rounding


def _same_nan_pattern(theta, views, net):
    exact = observed_information(theta, views, net)
    approx = observed_information_fd(theta, views, net)
    assert {i: math.isnan(v) for i, v in exact.items()} == \
        {i: math.isnan(v) for i, v in approx.items()}
    return exact


def test_observed_information_nan_pattern_matches_reference():
    _, mixed = star_views({"11": 2, "10": 1, "01": 1, "00": 1})
    # boundary rates: only the pinned link is nan
    got = _same_nan_pattern({1: 0.0, 2: 0.3, 3: 0.3}, mixed, STAR)
    assert math.isnan(got[1]) and not math.isnan(got[2]) and not math.isnan(got[3])
    # a leaf at rate 1 with confirmed passes: the likelihood is -inf, all nan
    got = _same_nan_pattern({1: 0.2, 2: 1.0, 3: 0.3}, mixed, STAR)
    assert all(math.isnan(v) for v in got.values())
    # all-dark data: no link below the root has a confirmed visit
    _, dark = star_views({"00": 4})
    filled = {i: (math.nan if v is None else v)
              for i, v in le_xi(dark, STAR).theta_hat.items()}
    got = _same_nan_pattern(filled, dark, STAR)
    assert all(math.isnan(v) for v in got.values())
    got = _same_nan_pattern({1: 0.2, 2: 0.3, 3: 0.4}, dark, STAR)
    assert not any(math.isnan(v) for v in got.values())


def test_observed_information_zero_coefficient_at_zero_xi():
    # n0 is zero on links 1 and 2, whose xi is 0 here; only link 3 is interior
    _, views = star_views({"11": 3, "10": 1})
    got = _same_nan_pattern({1: 0.0, 2: 0.0, 3: 0.3}, views, STAR)
    assert got[3] == pytest.approx(1 / (3 / 0.7 ** 2 + 1 / 0.3 ** 2), rel=1e-14)


def test_observed_information_rejects_multi_parent_links():
    net = fixtures.layered49()
    views, _ = internal_views(simulate(SimConfig(net, 50, seed=2), {i: 0.05 for i in net.links}),
                              net)
    with pytest.raises(ValueError, match="parent"):
        observed_information({i: 0.05 for i in net.links}, views, net)


def test_observed_information_one_likelihood_pass(monkeypatch):
    net = fixtures.kary_tree(4, 5)
    gen = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(29)))
    theta = sample_theta(1, 100, net, gen).theta
    views, _ = internal_views(simulate(SimConfig(net, 300, seed=3), theta), net)
    calls = []

    def counted(*args):
        calls.append(1)
        return loglik_theta(*args)

    monkeypatch.setattr(likelihood, "loglik_theta", counted)
    variances = observed_information(theta, views, net)
    assert len(calls) <= 1
    assert sum(math.isfinite(v) for v in variances.values()) == len(net.links)
