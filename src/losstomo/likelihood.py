"""Observed-data log-likelihood in the three parametrizations.

Parameters come as plain {link_id: value} dicts, as the params maps return.

All three forms are algebraically identical on interior parameters; the
tests lean on that.  Boundary evaluations return -inf rather than raising,
so optimizers can still compare candidates.  A term with a zero coefficient
contributes nothing even when its log argument is zero.

observed_information gives the exact diagonal curvature of loglik_theta on
the counts InternalView.counts reads, one pass over the links with no finite
differences; mvwa runs the same computation on each tree's counts
(information_by_position) for its per-link variances, or on many datasets'
counts of one tree at once (information_rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import pi_by_position, pi_rows, psi_to_xi, theta_to_xi, xi_by_position, xi_rows
from .statistics import InternalView, internal_states
from .topology import GeneralNetwork, MulticastTree


@dataclass(frozen=True)
class LogLikValue:
    value: float


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
    return LogLikValue(total)


def loglik_xi(views: InternalView, xi, net: GeneralNetwork) -> LogLikValue:
    """Same likelihood with subtree loss rates as the free parameters."""
    pos, pi = net.pos, pi_by_position([xi[i] for i in net.order], net.child_pos)
    total = 0.0
    for i in net.links:
        denom = 1.0 - pi[pos[i]]
        if denom <= 0.0:
            if views.n1[i] != 0.0:
                return LogLikValue(-math.inf)
        else:
            total += _xlogy(views.n1[i], (1.0 - xi[i]) / denom)
        total += _xlogy(views.n0[i], xi[i])
    return LogLikValue(total)


def loglik_psi(views: InternalView, psi, net: GeneralNetwork) -> LogLikValue:
    """Exponential-family form: affine in the confirmed pass counts."""
    xi = psi_to_xi(psi, net)
    total = 0.0
    for k, n_k in views.probes.items():
        total += _xlogy(n_k, xi[net.tree_by_id[k].root_link])
    for i in net.links:
        total += views.n1[i] * psi[i]
    return LogLikValue(total)


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
    ValueError.  information_by_position is the same computation on lists.
    """
    multi = sorted(i for i, ups in zip(net.order, net.parent_pos) if len(ups) > 1)
    if multi:
        raise ValueError(f"observed_information needs at most one parent link per link; "
                         f"links {multi} have several")
    variances = information_by_position(
        [theta[i] for i in net.order], *views.counts(net),
        [ups[0] if ups else -1 for ups in net.parent_pos], net.child_pos)
    return {net.order[q]: variances[q] for q in net.id_pos}


def information_by_position(theta: list[float], n1: list[int], n0: list[int],
                            parent_pos, child_pos: tuple[tuple[int, ...], ...]
                            ) -> list[float]:
    """observed_information on lists over a parents-first order.

    parent_pos holds one parent position per link (-1 at a root), as a
    tree's parent_pos does; child_pos lists each link's children by
    ascending link id.  xi is computed once, and the likelihood counts as
    finite when each of its terms is, as loglik_theta's sum is short of an
    overflow: a term c*log(a) with c != 0 needs 0 < a < inf.
    """
    xi = xi_by_position(theta, child_pos)
    for th, v, c1, c0 in zip(theta, xi, n1, n0):
        if not ((c1 == 0 or 0.0 < 1.0 - th < math.inf) and (c0 == 0 or 0.0 < v < math.inf)):
            return [math.nan] * len(theta)
    # carried[q]: sum over q and its ancestors a of n0_a (dxi_a/dxi_q)^2 / xi_a^2
    carried: list[float] = []
    for q, (a, c0) in enumerate(zip(parent_pos, n0)):
        sq = xi[q] * xi[q]
        s = 0.0 if c0 == 0.0 else c0 / sq if sq else math.nan   # nan when xi^2 underflows
        if a >= 0:
            up = 1.0 - theta[a]
            for b in child_pos[a]:
                if b != q:
                    up *= xi[b]
            s += up * up * carried[a]
        carried.append(s)
    variances: list[float] = []
    for th, prod, c1, s in zip(theta, pi_by_position(xi, child_pos), n1, carried):
        curvature = math.nan
        if 0.0 < th < 1.0:
            d = 1.0 - prod
            curvature = c1 / ((1.0 - th) * (1.0 - th)) + d * d * s
        variances.append(1.0 / curvature if math.isfinite(curvature) and curvature > 0.0
                         else math.nan)
    return variances


def information_rows(theta: np.ndarray, n1: np.ndarray, n0: np.ndarray,
                     tree: MulticastTree) -> np.ndarray:
    """information_by_position on (datasets x positions) arrays over tree.order,
    nan for None in theta.

    The recursions run one level of the tree's PaddedForm at a time: xi
    leaf to root, then the carried sum root to leaf, each term in the scalar
    loop's order.  A row whose likelihood is not finite is nan throughout.
    """
    form = tree.padded
    xi = xi_rows(theta, form)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        fine = (((n1 == 0) | ((0.0 < 1.0 - theta) & (1.0 - theta < math.inf)))
                & ((n0 == 0) | ((0.0 < xi[:, :-1]) & (xi[:, :-1] < math.inf)))).all(axis=1)
        sq = xi[:, :-1] * xi[:, :-1]
        carried = np.where(n0 == 0, 0.0, np.where(sq != 0.0, n0 / sq, math.nan))
        for at, parents, brothers in form.falls:
            up = 1.0 - theta[:, parents]
            for b in brothers:
                up = up * xi[:, b]
            carried[:, at] += up * up * carried[:, parents]
        d = 1.0 - pi_rows(xi[:, :-1], form)
        curvature = n1 / ((1.0 - theta) * (1.0 - theta)) + d * d * carried
        curvature = np.where((0.0 < theta) & (theta < 1.0) & fine[:, None], curvature, math.nan)
        return np.where(np.isfinite(curvature) & (curvature > 0.0), 1.0 / curvature, math.nan)
