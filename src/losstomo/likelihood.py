"""Observed-data log-likelihood in the three parametrizations.

Parameters come as plain {link_id: value} dicts, as the params maps return.

All three forms are algebraically identical on interior parameters; the
tests lean on that.  Boundary evaluations return -inf rather than raising,
so optimizers can still compare candidates.  A term with a zero coefficient
contributes nothing even when its log argument is zero.

observed_information gives mvwa its per-link variances from the exact
diagonal curvature of loglik_theta, one pass over the links with no
finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import child_product, psi_to_xi, theta_to_xi
from .statistics import InternalView, internal_states
from .topology import GeneralNetwork


@dataclass(frozen=True)
class LogLikValue:
    value: float
    parametrization: str

    def __float__(self):
        return self.value


def _xlogy(coef: float, arg: float) -> float:
    if coef == 0.0:
        return 0.0
    if arg <= 0.0:
        return -math.inf
    return coef * math.log(arg)


def loglik_theta(views: InternalView, theta, net: GeneralNetwork) -> LogLikValue:
    """Sum over links of n1*log(1-theta) + n0*log(subtree loss)."""
    xi = theta_to_xi(theta, net)
    total = 0.0
    for i in net.links:
        total += _xlogy(views.n1[i], 1.0 - theta[i]) + _xlogy(views.n0[i], xi[i])
    return LogLikValue(total, "theta")


def loglik_xi(views: InternalView, xi, net: GeneralNetwork) -> LogLikValue:
    """Same likelihood with subtree loss rates as the free parameters."""
    total = 0.0
    for i in net.links:
        denom = 1.0 - child_product(xi, net, i)
        if denom <= 0.0:
            if views.n1[i] != 0.0:
                return LogLikValue(-math.inf, "xi")
        else:
            total += _xlogy(views.n1[i], (1.0 - xi[i]) / denom)
        total += _xlogy(views.n0[i], xi[i])
    return LogLikValue(total, "xi")


def loglik_psi(views: InternalView, psi, net: GeneralNetwork) -> LogLikValue:
    """Exponential-family form: affine in the confirmed pass counts."""
    xi = psi_to_xi(psi, net)
    total = 0.0
    for k, n_k in views.probes.items():
        total += _xlogy(n_k, xi[net.tree_by_id[k].root_link])
    for i in net.links:
        total += views.n1[i] * psi[i]
    return LogLikValue(total, "psi")


def per_probe_loglik(bits: str, tree_id: int, theta, net: GeneralNetwork) -> float:
    """Log probability of one receiver pattern on one tree.

    Confirmed links contribute log(1-theta); each topmost dark link
    contributes the log of its subtree loss rate; links below a dark top
    contribute nothing.
    """
    tree = net.tree_by_id[tree_id]
    states = internal_states(bits, tree)
    xi = theta_to_xi(theta, net)
    total = 0.0
    for i in states.confirmed:
        total += _xlogy(1.0, 1.0 - theta[i])
    for i in states.dark_tops:
        total += _xlogy(1.0, xi[i])
    return total


def observed_information(theta, views: InternalView, net: GeneralNetwork
                         ) -> dict[int, float]:
    """Per-link variance estimates from the diagonal observed information.

    Returns 1 / (-d2L/dtheta_j^2) per link, in closed form.  On a network
    where every link has at most one parent link (a single tree, say), each
    xi_i is affine in theta_j, so

        -d2L/dtheta_j^2 = n1_j/(1-theta_j)^2
                          + sum over i in {j} and j's ancestors of
                            n0_i (dxi_i/dtheta_j)^2 / xi_i^2,

    with dxi_j/dtheta_j = 1 - prod(xi over j's children) and each step up
    to a parent a multiplying by (1-theta_a) times the product of xi over
    the brothers left behind.  The sum over ancestors is carried down from
    the parent, so one parents-first pass covers every link.  A term with
    n0_i = 0 contributes nothing, as in the likelihood.

    Links where theta is outside (0, 1) or the curvature is not finite and
    positive come back as nan, and every link does when the likelihood at
    theta is not finite; callers fall back to probe-count weights.  A link
    with several parent links makes xi non-affine, so such a network raises
    ValueError.
    """
    multi = sorted(i for i, ups in net.parent_links.items() if len(ups) > 1)
    if multi:
        raise ValueError(f"observed_information needs at most one parent link per link; "
                         f"links {multi} have several")
    if not math.isfinite(loglik_theta(views, theta, net).value):
        return {i: math.nan for i in sorted(net.links)}
    xi = theta_to_xi(theta, net)
    # carried[i]: sum over i and its ancestors a of n0_a (dxi_a/dxi_i)^2 / xi_a^2
    carried: dict[int, float] = {}
    for i in net.order:
        n0 = views.n0[i]
        s = 0.0 if n0 == 0.0 else n0 / (xi[i] * xi[i])
        if net.parent_links[i]:
            a = net.parent_links[i][0]
            up = 1.0 - theta[a]
            for b in net.child_links[a]:
                if b != i:
                    up *= xi[b]
            s += up * up * carried[a]
        carried[i] = s
    variances: dict[int, float] = {}
    for i in sorted(net.links):
        th = theta[i]
        curvature = math.nan
        if 0.0 < th < 1.0:
            d = 1.0 - child_product(xi, net, i)
            curvature = views.n1[i] / ((1.0 - th) * (1.0 - th)) + d * d * carried[i]
        if math.isfinite(curvature) and curvature > 0.0:
            variances[i] = 1.0 / curvature
        else:
            variances[i] = math.nan
    return variances
