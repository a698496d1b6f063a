"""Observed-data log-likelihood in the three parametrizations.

Parameters come as plain {link_id: value} dicts, as the params maps return.

All three forms are algebraically identical on interior parameters; the
tests lean on that.  Boundary evaluations return -inf rather than raising,
so optimizers can still compare candidates.  A term with a zero coefficient
contributes nothing even when its log argument is zero.
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


def grad_fd(fn, point: dict[int, float], step: float = 1e-6,
            lo: float = 0.0, hi: float = 1.0) -> dict[int, float]:
    """Central-difference gradient of fn over a link-keyed point.

    The step shrinks per coordinate so that both probe points stay inside
    (lo, hi); coordinates pinned at the boundary get a nan gradient.
    """
    grad: dict[int, float] = {}
    for i in sorted(point):
        v = point[i]
        h = step
        while h > 0 and not (lo < v - h and v + h < hi):
            h /= 2.0
            if h < 1e-300:
                h = 0.0
        if h == 0.0:
            grad[i] = math.nan
            continue
        up = dict(point)
        dn = dict(point)
        up[i] = v + h
        dn[i] = v - h
        grad[i] = (float(fn(up)) - float(fn(dn))) / (2.0 * h)
    return grad


def observed_information(theta, views: InternalView, net: GeneralNetwork,
                         step: float = 1e-5) -> dict[int, float]:
    """Per-link variance estimates from the diagonal observed information.

    Returns 1 / (-d2L/dtheta_i^2) per link, by central second differences.
    Links where the curvature is not finite and positive (boundary points,
    flat ridges) come back as nan; callers fall back to probe-count weights.
    """
    th = dict(theta)

    def at(pt):
        return loglik_theta(views, pt, net).value

    base = at(th)
    variances: dict[int, float] = {}
    for i in sorted(net.links):
        v = th[i]
        h = step
        while h > 0 and not (0.0 < v - h and v + h < 1.0):
            h /= 2.0
            if h < 1e-12:
                h = 0.0
                break
        if h == 0.0 or not math.isfinite(base):
            variances[i] = math.nan
            continue
        up = dict(th)
        dn = dict(th)
        up[i] = v + h
        dn[i] = v - h
        curvature = -(at(up) - 2.0 * base + at(dn)) / (h * h)
        if math.isfinite(curvature) and curvature > 0.0:
            variances[i] = 1.0 / curvature
        else:
            variances[i] = math.nan
    return variances
