"""Reference mvwa: each tree estimated on a network of that tree alone.

Per tree, in ascending tree id: the tree's sub-network (tree_networks),
its slice of the views (tree_views), a full
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
from losstomo.statistics import InternalView, RegularityReport, regularity_report
from losstomo.topology import GeneralNetwork


def tree_networks(net: GeneralNetwork) -> dict[int, GeneralNetwork]:
    """Tree id -> a network of that tree alone, over its links."""
    return {t.tree_id: GeneralNetwork(f"{net.name}.tree{t.tree_id}",
                                      [net.links[i] for i in sorted(t.links)], [t])
            for t in net.trees}


def tree_views(views: InternalView, tree_net: GeneralNetwork
               ) -> tuple[InternalView, RegularityReport]:
    """internal_views of tree_net, a network of one tree, sliced from views."""
    k = tree_net.trees[0].tree_id
    n1 = {i: views.per_tree_n1[k][i] for i in tree_net.links}
    n0 = {i: views.per_tree_n0[k][i] for i in tree_net.links}
    r = {i: n1[i] / (n1[i] + n0[i]) if n1[i] + n0[i] > 0 else None for i in tree_net.links}
    view = InternalView({k: views.per_tree_n1[k]}, {k: views.per_tree_n0[k]}, n1, n0, r,
                        {k: views.probes[k]})
    return view, regularity_report(view, tree_net)


def mvwa_reference(views, net, report=None) -> EstimateResult:
    t0 = time.perf_counter()
    if report is None:
        report = regularity_report(views, net)
    # link -> (tree id, estimate, variance, flag) per estimating tree, by tree id
    by_link = {i: [] for i in net.links}
    iterations = 0
    subs = tree_networks(net)
    for k in sorted(views.per_tree_n1):
        sub = subs[k]
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
        # left to right: sum() of floats is compensated from Python 3.12
        total = num = 0.0
        for w, (_, e, _, _) in zip(weights, usable):
            total += w
            num += w * e
        est = num / total
        theta_hat[i] = min(1.0, max(0.0, est))
        flags[i] = max((f for _, _, _, f in usable), key=_FLAG_RANK.__getitem__)

    return EstimateResult("mvwa", theta_hat, theta_to_xi(theta_hat, net), flags,
                          iterations, report, time.perf_counter() - t0)
