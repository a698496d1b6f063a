"""The ξ/ψ layer against tests/params_reference.py, the dict-walking version.

Every map, likelihood and curvature that reads a child product must return
the same values bit for bit (compared by repr, so nan, -0.0 and key order
count) and raise the same errors: the same ValueError text, and the same
exception type otherwise.  Values are drawn interior, on the boundary (theta
0 or 1, so xi equals its child product or 1, and within XI_BOUNDARY_TOL of
those), outside (below 0, above 1, below the child product) and None.
"""

import math
import random

from hypothesis import given, settings, strategies as st

from losstomo import fixtures, likelihood, params
from losstomo.simulator import SimConfig, simulate
from losstomo.statistics import internal_views

import params_reference as ref
from test_brother_sets import HUB, SPLIT
from test_statistics import _nets_and_tables

TOL = params.XI_BOUNDARY_TOL
EDGES = [0.0, 1.0, TOL / 2, -TOL / 2, 1.0 - TOL / 2, 1.0 + TOL / 2, -0.0, -0.25, 1.25,
         math.inf, -math.inf, math.nan]


def _outcome(f, *args):
    try:
        return "ok", repr(f(*args))
    except ValueError as exc:
        return type(exc), str(exc)
    except (TypeError, ZeroDivisionError, OverflowError) as exc:
        return type(exc), None


def _value(rng: random.Random, none_share: float):
    u = rng.random()
    if u < none_share:
        return None
    if u < 0.4:
        return rng.choice(EDGES)
    return rng.uniform(-0.2, 1.2) if u < 0.6 else rng.uniform(0.01, 0.99)


def _xi_draws(net, rng):
    """xi dicts: from drawn theta (a theta of 0 or 1 puts xi on the boundary,
    a negative one below its child product), raw draws, and the same with Nones."""
    for none_share in (0.0, 0.0, 0.1):
        theta = {i: _value(rng, none_share) for i in net.links}
        yield theta, params.theta_to_xi(theta, net)
        yield theta, {i: _value(rng, none_share) for i in net.links}


def _assert_layer_matches_reference(net, views, rng):
    for theta, xi in _xi_draws(net, rng):
        xs = [xi[i] for i in net.order]
        assert (_outcome(params.theta_by_position, xs, net.child_pos)
                == _outcome(ref.theta_by_position, xs, net.child_pos))
        for new, old in ((params.xi_to_psi, ref.xi_to_psi),
                         (params.xi_membership, ref.xi_membership)):
            assert _outcome(new, xi, net) == _outcome(old, xi, net)
        assert _outcome(likelihood.loglik_xi, views, xi, net) == _outcome(
            ref.loglik_xi, views, xi, net)
        psi = {i: (None if v is None else rng.choice([v, 40 * v - 20, 800 * v]))
               for i, v in xi.items()}
        assert _outcome(params.psi_to_xi, psi, net) == _outcome(ref.psi_to_xi, psi, net)
        interior = {i: rng.uniform(0.01, 0.99) for i in net.links}
        psi = params.xi_to_psi(params.theta_to_xi(interior, net), net)
        assert repr(params.psi_to_xi(psi, net)) == repr(ref.psi_to_xi(psi, net))

        rates = {i: math.nan if v is None else v for i, v in theta.items()}
        for th in (rates, interior):
            assert _outcome(likelihood.observed_information, th, views, net) == _outcome(
                ref.observed_information, th, views, net)
        for tree in net.trees:
            if tree.tree_id not in views.per_tree_n1:
                continue
            n1 = [views.per_tree_n1[tree.tree_id][i] for i in tree.order]
            n0 = [views.per_tree_n0[tree.tree_id][i] for i in tree.order]
            for th in (rates, interior):
                args = ([th[i] for i in tree.order], n1, n0, tree.parent_pos, tree.child_pos)
                assert (_outcome(likelihood.information_by_position, *args)
                        == _outcome(ref.information_by_position, *args))


@settings(max_examples=200, deadline=None)
@given(_nets_and_tables(), st.randoms(use_true_random=False))
def test_child_products_equal_dict_walk(case, rng):
    net, patterns = case
    views, _ = internal_views(patterns, net)
    _assert_layer_matches_reference(net, views, rng)


def test_child_products_equal_dict_walk_on_wide_nodes():
    # four or more children per node: a product taken in another order
    # differs in its last bits
    rng = random.Random(4)
    for net in (fixtures.kary_tree(4, 3), fixtures.kary_tree(5, 2), fixtures.toy7(),
                fixtures.twotree12(), HUB, SPLIT):
        patterns = simulate(SimConfig(net, 500, seed=1), dict.fromkeys(net.links, 0.2))
        views, _ = internal_views(patterns, net)
        for _ in range(10):
            _assert_layer_matches_reference(net, views, rng)


def test_pi_by_position_is_the_child_product():
    net = fixtures.toy7()
    xi = [0.5 + q / 100 for q in range(len(net.order))]
    pi = params.pi_by_position(xi, net.child_pos)
    for q, i in enumerate(net.order):
        assert repr(pi[q]) == repr(ref.child_product(dict(zip(net.order, xi)), net, i))
    xi[net.pos[4]] = None
    pi = params.pi_by_position(xi, net.child_pos)
    assert pi[net.pos[net.trees[0].parent[4]]] is None
    assert pi[net.pos[4]] == 0.0
