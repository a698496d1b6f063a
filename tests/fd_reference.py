"""Finite-difference references for the likelihood's derivatives.

grad_fd checks stationarity of the estimators' solutions; the central
second-difference observed_information_fd is the reference the closed-form
likelihood.observed_information is checked against.
"""

import math

from losstomo.likelihood import loglik_theta
from losstomo.statistics import InternalView
from losstomo.topology import GeneralNetwork


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


def observed_information_fd(theta, views: InternalView, net: GeneralNetwork,
                            step: float = 1e-5) -> dict[int, float]:
    """Per-link variance estimates from the diagonal observed information.

    Returns 1 / (-d2L/dtheta_i^2) per link, by central second differences.
    Links where the curvature is not finite and positive (boundary points,
    flat ridges) come back as nan.
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
