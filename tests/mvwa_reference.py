"""Reference mvwa: each tree estimated on a network of that tree alone.

Per tree, in ascending tree id: the tree's sub-network
(GeneralNetwork.tree_networks), its slice of the views (tree_views), a full
le_xi on them and observed_information at the estimate, then the same
inverse-variance combination mvwa makes.  mvwa must give the same result,
bit for bit.
"""

import math
import time

from losstomo.estimators import (_FLAG_RANK, FLAG_NON_ESTIMABLE, EstimateResult,
                                 le_xi)
from losstomo.likelihood import observed_information
from losstomo.params import theta_to_xi
from losstomo.statistics import regularity_report, tree_views


def mvwa_reference(views, net, report=None) -> EstimateResult:
    t0 = time.perf_counter()
    if report is None:
        report = regularity_report(views, net)
    # link -> (tree id, estimate, variance, flag) per estimating tree, by tree id
    by_link = {i: [] for i in net.links}
    iterations = 0
    for k in sorted(views.per_tree_n1):
        sub = net.tree_networks[k]
        sub_views, sub_report = tree_views(views, sub)
        res = le_xi(sub_views, sub, report=sub_report)
        filled = {i: (math.nan if v is None else v) for i, v in res.theta_hat.items()}
        variances = observed_information(filled, sub_views, sub)
        for i, est in res.theta_hat.items():
            if est is not None:
                by_link[i].append((k, est, variances.get(i, math.nan), res.flags[i]))
        iterations = max(iterations, res.iterations)

    theta_hat, flags = {}, {}
    for i in sorted(net.links):
        entries = by_link[i]
        if not entries:
            theta_hat[i] = None
            flags[i] = FLAG_NON_ESTIMABLE
            continue
        if len(entries) == 1:
            _, est, _, flag = entries[0]
            theta_hat[i] = est
            flags[i] = flag
            continue
        usable = [(k, e, v, f) for k, e, v, f in entries
                  if math.isfinite(v) and v > 0.0]
        if usable:
            weights = [1.0 / v for _, _, v, _ in usable]
        else:
            usable = entries
            weights = [float(views.probes[k]) for k, _, _, _ in usable]
        total = sum(weights)
        est = sum(w * e for w, (_, e, _, _) in zip(weights, usable)) / total
        theta_hat[i] = min(1.0, max(0.0, est))
        flags[i] = max((f for _, _, _, f in usable), key=_FLAG_RANK.__getitem__)

    return EstimateResult("mvwa", theta_hat, theta_to_xi(theta_hat, net), flags,
                          iterations, report, time.perf_counter() - t0)
