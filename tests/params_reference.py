"""Reference ξ/ψ layer: the dict walks params and likelihood ran before every
child product moved to one positional helper, params.pi_by_position.

child_product walks net.child_links per link; xi_to_psi, xi_membership and
loglik_xi call it per link, psi_to_xi recurses over reversed(net.order) with
it, theta_by_position and information_by_position multiply each link's
children inline, and observed_information finds links with several parents
in net.parent_links.  The library's versions must return the same values, bit
for bit, and raise the same errors.
"""

import math

from losstomo.likelihood import LogLikValue, _xlogy
from losstomo.params import XI_BOUNDARY_TOL, xi_by_position


def child_product(xi, net, link_id):
    kids = net.child_links[link_id]
    if not kids:
        return 0.0
    prod = 1.0
    for c in kids:
        v = xi[c]
        if v is None:
            return None
        prod *= v
    return prod


def theta_by_position(xi, child_pos):
    theta = []
    for v, kids in zip(xi, child_pos):
        prod = 0.0 if not kids else 1.0
        for c in kids:
            w = xi[c]
            if w is None:
                prod = None
                break
            prod *= w
        if v is None:
            theta.append(None)
        elif prod is None:
            theta.append(1.0)
        elif prod >= 1.0:
            theta.append(1.0 if v >= 1.0 else -math.inf)
        else:
            theta.append((v - prod) / (1.0 - prod))
    return theta


def xi_to_psi(xi, net):
    psi = {}
    for i in sorted(net.links):
        v = xi[i]
        if not 0.0 < v < 1.0:
            raise ValueError(f"xi[{i}]={v} outside (0,1); psi undefined")
        if not net.child_links[i]:
            psi[i] = math.log((1.0 - v) / v)
        else:
            prod = child_product(xi, net, i)
            arg = prod * (1.0 - v) / (v * (1.0 - prod))
            if not 0.0 < arg < 1.0:
                raise ValueError(f"xi[{i}]={v} at or below child product {prod}; psi undefined")
            psi[i] = math.log(arg)
    return psi


def psi_to_xi(psi, net):
    xi = {}
    for i in reversed(net.order):
        if not net.child_links[i]:
            xi[i] = 1.0 / (1.0 + math.exp(psi[i]))
        else:
            prod = child_product(xi, net, i)
            xi[i] = prod / (prod + math.exp(psi[i]) * (1.0 - prod))
    return {i: xi[i] for i in sorted(xi)}


def xi_membership(xi, net):
    out = {}
    for i in sorted(net.links):
        v = xi[i]
        if not net.child_links[i]:
            gap = min(v, 1.0 - v)
        else:
            gap = min(v - child_product(xi, net, i), 1.0 - v)
        if gap > XI_BOUNDARY_TOL:
            out[i] = "interior"
        elif gap >= -XI_BOUNDARY_TOL:
            out[i] = "boundary"
        else:
            out[i] = "outside"
    return out


def loglik_xi(views, xi, net):
    total = 0.0
    for i in net.links:
        denom = 1.0 - child_product(xi, net, i)
        if denom <= 0.0:
            if views.n1[i] != 0.0:
                return LogLikValue(-math.inf)
        else:
            total += _xlogy(views.n1[i], (1.0 - xi[i]) / denom)
        total += _xlogy(views.n0[i], xi[i])
    return LogLikValue(total)


def information_by_position(theta, n1, n0, parent_pos, child_pos):
    xi = xi_by_position(theta, child_pos)
    for th, v, c1, c0 in zip(theta, xi, n1, n0):
        if not ((c1 == 0 or 0.0 < 1.0 - th < math.inf) and (c0 == 0 or 0.0 < v < math.inf)):
            return [math.nan] * len(theta)
    carried = []
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
    variances = []
    for th, kids, c1, s in zip(theta, child_pos, n1, carried):
        curvature = math.nan
        if 0.0 < th < 1.0:
            prod = 0.0 if not kids else 1.0
            for c in kids:
                prod *= xi[c]
            d = 1.0 - prod
            curvature = c1 / ((1.0 - th) * (1.0 - th)) + d * d * s
        variances.append(1.0 / curvature if math.isfinite(curvature) and curvature > 0.0
                         else math.nan)
    return variances


def observed_information(theta, views, net):
    multi = sorted(i for i, ups in net.parent_links.items() if len(ups) > 1)
    if multi:
        raise ValueError(f"observed_information needs at most one parent link per link; "
                         f"links {multi} have several")
    variances = information_by_position(
        [theta[i] for i in net.order], [views.n1[i] for i in net.order],
        [views.n0[i] for i in net.order],
        [ups[0] if ups else -1 for ups in net.parent_pos], net.child_pos)
    return {net.order[q]: variances[q] for q in net.id_pos}
