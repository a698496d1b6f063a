import math

import pytest
from hypothesis import given, settings, strategies as st

from losstomo import fixtures
from losstomo.params import (parse_rates, psi_to_xi, serialize_rates, theta_to_xi,
                             xi_membership, xi_to_psi, xi_to_theta)

from test_statistics import _networks

TOY = fixtures.toy7()
STAR = fixtures.star3()


def uniform_theta(net, value):
    return {i: value for i in net.links}


def test_toy_tree_xi_values():
    xi = theta_to_xi(uniform_theta(TOY, 0.1), TOY)
    for leaf in (4, 5, 6, 7):
        assert xi[leaf] == 0.1
    assert xi[2] == pytest.approx(0.109, abs=1e-15)
    assert xi[3] == pytest.approx(0.109, abs=1e-15)
    assert xi[1] == pytest.approx(0.110693, abs=1e-6)


def test_two_link_chain():
    net = fixtures.chain(2)
    xi = theta_to_xi({1: 0.5, 2: 0.5}, net)
    assert xi[2] == 0.5
    assert xi[1] == 0.75


def test_star_forward_and_back():
    xi = theta_to_xi({1: 0.1, 2: 1 / 3, 3: 1 / 3}, STAR)
    assert xi[1] == pytest.approx(0.2, abs=1e-15)
    assert xi[2] == pytest.approx(1 / 3)
    theta = xi_to_theta(xi, STAR)
    assert theta[1] == pytest.approx(0.1, abs=1e-12)
    assert theta[2] == pytest.approx(1 / 3, abs=1e-15)


def test_leaf_links_fixed_by_both_maps():
    theta = {1: 0.3, 2: 0.2, 3: 0.7}
    xi = theta_to_xi(theta, STAR)
    assert xi[2] == 0.2 and xi[3] == 0.7
    back = xi_to_theta({1: 0.5, 2: 0.2, 3: 0.7}, STAR)
    assert back[2] == 0.2 and back[3] == 0.7


def test_xi_on_xi_boundary_gives_zero_theta():
    theta = xi_to_theta({1: 0.25, 2: 0.5, 3: 0.5}, STAR)
    assert theta[1] == 0.0
    membership = xi_membership({1: 0.25, 2: 0.5, 3: 0.5}, STAR)
    assert membership[1] == "boundary"


def test_xi_outside_gives_negative_theta():
    xi = {1: 0.05, 2: 0.3, 3: 0.3}
    theta = xi_to_theta(xi, STAR)
    assert theta[1] < 0.0
    assert xi_membership(xi, STAR)[1] == "outside"


def test_xi_membership_interior_for_toy_values():
    xi = theta_to_xi(uniform_theta(TOY, 0.1), TOY)
    assert all(v == "interior" for v in xi_membership(xi, TOY).values())


def test_toy_tree_psi_values():
    xi = theta_to_xi(uniform_theta(TOY, 0.1), TOY)
    psi = xi_to_psi(xi, TOY)
    assert psi[4] == pytest.approx(math.log(9.0), abs=1e-12)
    assert psi[4] == pytest.approx(2.1972, abs=1e-4)
    assert psi[2] == pytest.approx(-2.4941, abs=1e-4)
    assert psi[1] == pytest.approx(-2.337, abs=1e-3)


def test_psi_leaf_symmetry_point():
    net = fixtures.single_link()
    assert xi_to_psi({1: 0.5}, net)[1] == 0.0


def test_psi_nonleaf_matches_direct_ratio():
    # log((xi - theta)/xi) computed through the inverse map must agree with
    # the product form used in the implementation
    theta = {1: 0.07, 2: 0.2, 3: 0.45, 4: 0.3, 5: 0.12, 6: 0.6, 7: 0.25}
    xi = theta_to_xi(theta, TOY)
    psi = xi_to_psi(xi, TOY)
    back = xi_to_theta(xi, TOY)
    for i in (1, 2, 3):
        direct = math.log((xi[i] - back[i]) / xi[i])
        assert psi[i] == pytest.approx(direct, abs=1e-12)
        assert psi[i] < 0.0


def test_psi_to_xi_inverts_logit_on_leaf():
    net = fixtures.single_link()
    xi = psi_to_xi({1: math.log(9.0)}, net)
    assert xi[1] == pytest.approx(0.1, abs=1e-15)


def test_table_of_rounded_psi_recovers_xi():
    psi = {1: -2.3366, 2: -2.4941, 3: -2.4941,
           4: 2.1972, 5: 2.1972, 6: 2.1972, 7: 2.1972}
    xi = psi_to_xi(psi, TOY)
    assert xi[4] == pytest.approx(0.1, abs=1e-3)
    assert xi[2] == pytest.approx(0.109, abs=1e-3)
    assert xi[1] == pytest.approx(0.1107, abs=1e-3)


def test_xi_to_psi_rejects_nonmembers():
    with pytest.raises(ValueError):
        xi_to_psi({1: 0.05, 2: 0.3, 3: 0.3}, STAR)
    with pytest.raises(ValueError):
        xi_to_psi({1: 1.0, 2: 0.3, 3: 0.3}, STAR)


theta_vectors = st.lists(
    st.floats(min_value=0.01, max_value=0.5, allow_nan=False), min_size=7, max_size=7)


@settings(max_examples=200, deadline=None)
@given(theta_vectors)
def test_roundtrip_theta_xi_theta(values):
    theta = {i: v for i, v in zip(sorted(TOY.links), values)}
    back = xi_to_theta(theta_to_xi(theta, TOY), TOY)
    assert max(abs(back[i] - theta[i]) for i in TOY.links) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(theta_vectors)
def test_roundtrip_xi_psi_xi(values):
    theta = {i: v for i, v in zip(sorted(TOY.links), values)}
    xi = theta_to_xi(theta, TOY)
    back = psi_to_xi(xi_to_psi(xi, TOY), TOY)
    assert max(abs(back[i] - xi[i]) for i in TOY.links) <= 1e-12


def test_ancestor_xi_increases_when_theta_bumped():
    theta = uniform_theta(TOY, 0.15)
    base = theta_to_xi(theta, TOY)
    bumped = dict(theta)
    bumped[4] = 0.15 + 1e-3
    moved = theta_to_xi(bumped, TOY)
    assert moved[4] > base[4]
    assert moved[2] > base[2]
    assert moved[1] > base[1]
    assert moved[3] == base[3] and moved[5] == base[5]


def test_shared_link_transform_uses_common_child_set():
    net = fixtures.shared_pair()
    theta = {1: 0.1, 2: 0.2, 3: 0.3, 4: 0.4}
    xi = theta_to_xi(theta, net)
    assert xi[1] == pytest.approx(0.1 + 0.9 * 0.06)
    assert xi[4] == pytest.approx(0.4 + 0.6 * 0.06)
    back = xi_to_theta(xi, net)
    assert max(abs(back[i] - theta[i]) for i in net.links) <= 1e-15


def test_rates_file_roundtrip():
    values = {1: 0.125, 2: 1 / 3, 3: 0.0625}
    kind, parsed = parse_rates(serialize_rates("theta", values))
    assert kind == "theta" and parsed == values
    kind, parsed = parse_rates("xi 5 0.25\n")
    assert kind == "xi" and parsed == {5: 0.25}


@pytest.mark.parametrize("text", [
    "", "theta 1\n", "theta 1 0.2\nxi 2 0.3\n", "theta 1 0.2\ntheta 1 0.4\n",
    "gamma 1 0.5\n",
])
def test_rates_file_errors(text):
    with pytest.raises(ValueError):
        parse_rates(text)


def test_none_child_xi_gives_none_parent_xi():
    xi = theta_to_xi({1: 0.2, 2: None, 3: None}, STAR)
    assert xi == {1: None, 2: None, 3: None}


def test_none_child_pins_parent_theta_at_one():
    assert xi_to_theta({1: 1.0, 2: None, 3: None}, STAR) == {1: 1.0, 2: None, 3: None}


def test_none_xi_gives_none_theta():
    theta = xi_to_theta({1: None, 2: 0.3, 3: 0.4}, STAR)
    assert theta[1] is None
    assert theta[2] == 0.3 and theta[3] == 0.4


def test_maps_return_plain_dicts():
    theta = {1: 0.1, 2: 0.2, 3: 0.3}
    xi = theta_to_xi(theta, STAR)
    psi = xi_to_psi(xi, STAR)
    for out in (xi, psi, xi_to_theta(xi, STAR), psi_to_xi(psi, STAR),
                xi_membership(xi, STAR)):
        assert type(out) is dict
        assert sorted(out) == [1, 2, 3]


def test_em_xi_hat_is_theta_to_xi_on_dark_star():
    from losstomo.estimators import mvwa, pcem
    from losstomo.statistics import PatternTable, internal_views

    table = PatternTable("dark", {1: 4}, {1: (2, 3)}, {1: {"00": 4}})
    views, _ = internal_views(table, STAR)
    for res in (pcem(views, STAR), mvwa(views, STAR)):
        assert res.theta_hat[2] is None and res.theta_hat[3] is None
        assert res.xi_hat == theta_to_xi(res.theta_hat, STAR)
        assert res.xi_hat[1] is None


def _xi_reference(theta, net):
    """theta_to_xi by walking the child-link dicts, recursively from each link."""
    def xi(i):
        th = theta[i]
        kids = [xi(c) for c in net.child_links[i]]
        if th is None or any(v is None for v in kids):
            return None
        prod = 1.0
        for v in kids:
            prod *= v
        return th + (1.0 - th) * (prod if kids else 0.0)
    return {i: xi(i) for i in sorted(net.links)}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_theta_to_xi_with_nones_equals_dict_walk(data):
    net = data.draw(_networks())
    rate = st.floats(0.0, 1.0) | st.none()
    theta = {i: data.draw(rate) for i in sorted(net.links)}
    got = theta_to_xi(theta, net)
    assert list(got.items()) == list(_xi_reference(theta, net).items())
