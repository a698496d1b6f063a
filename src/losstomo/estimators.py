"""Loss-rate estimators.

Four procedures over the same internal-view statistics:

* le_xi: solves the likelihood equations in the subtree-loss
  parametrization.  Root links have a closed form; every other link is
  covered by one polynomial fixed-point solve per brother set, and the
  solves are independent of each other, so any execution order (or thread
  pool) gives bit-identical output.
* pcem: expectation-maximization driven entirely by the collapsed
  statistics; cost per sweep is linear in the number of links.
* nem: the brute-force EM that enumerates, per distinct receiver pattern,
  every feasible assignment of link states.  Exponential cost; kept as an
  oracle for small networks and refused above 20 links.
* mvwa: solves each tree separately with le_xi, on that tree's slice of
  the shared views and on its single-tree network (built once per network,
  GeneralNetwork.tree_networks), and combines shared links by
  inverse-variance weights.  The variances are the exact diagonal observed
  information of each tree's likelihood; contributions without a usable
  variance are dropped from the average.

Estimates for links whose data fail the regularity conditions are still
produced (projected onto [0, 1]) but flagged; links with no information at
all come back as None.
"""

from __future__ import annotations

import itertools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .likelihood import loglik_theta, observed_information
from .params import XI_BOUNDARY_TOL, theta_to_xi, xi_to_theta
from .statistics import (InternalView, PatternTable, RegularityReport,
                         internal_views, regularity_report, tree_views)
from .topology import GeneralNetwork

FLAG_OK = "ok"
FLAG_BOUNDARY = "boundary_projected"
FLAG_REGULARITY = "regularity_violated"
FLAG_NON_ESTIMABLE = "non_estimable"
_FLAG_RANK = {FLAG_OK: 0, FLAG_BOUNDARY: 1, FLAG_REGULARITY: 2, FLAG_NON_ESTIMABLE: 3}

NEM_MAX_LINKS = 20

METHODS = ("le-xi", "pcem", "nem", "mvwa")


class UniqueRootUnavailable(ValueError):
    """The brother-set equation has no unique root in (0, 1)."""


@dataclass
class BrotherSetProblem:
    """One brother set's pass fractions and the product being solved for."""

    r: dict[int, float]

    @property
    def solvable_uniquely(self) -> bool:
        vals = list(self.r.values())
        return all(0.0 < v < 1.0 for v in vals) and sum(vals) > 1.0


def solve_brother_fixed_point(problem: BrotherSetProblem, tol: float = 1e-12) -> float:
    """Root in (0, 1) of  x = prod_j[(1 - r_j) + r_j x].

    x = 1 always solves the equation and is never returned.  Two brothers
    admit a closed form; larger sets use Newton iterations safeguarded by
    bisection on the bracket [prod_j(1 - r_j), 1 - 1e-9].
    """
    if not problem.solvable_uniquely:
        raise UniqueRootUnavailable(
            f"pass fractions {sorted(problem.r.values())} admit no unique root")
    rs = [problem.r[j] for j in sorted(problem.r)]
    if len(rs) == 2:
        return ((1.0 - rs[0]) * (1.0 - rs[1])) / (rs[0] * rs[1])
    pi, _ = _solve_interior(rs, tol)
    return pi


def _solve_interior(rs: list[float], tol: float = 1e-12,
                    max_iter: int = 200) -> tuple[float, int]:
    delta = 1e-9

    def g_and_slope(x: float) -> tuple[float, float]:
        prod = 1.0
        factors = []
        for r in rs:
            f = (1.0 - r) + r * x
            factors.append(f)
            prod *= f
        slope = sum(r * prod / f for r, f in zip(rs, factors)) - 1.0
        return prod - x, slope

    lo = 1.0
    for r in rs:
        lo *= 1.0 - r
    hi = 1.0 - delta
    g_hi, _ = g_and_slope(hi)
    if g_hi >= 0.0:
        # the interior root is within delta of the spurious root at 1;
        # callers see a near-boundary value and flag downstream
        return hi, 0
    x = 0.5 * (lo + hi)
    for it in range(1, max_iter + 1):
        g, slope = g_and_slope(x)
        if abs(g) <= tol:
            return x, it
        if g > 0.0:
            lo = x
        else:
            hi = x
        if slope != 0.0:
            x_new = x - g / slope
        else:
            x_new = 0.5 * (lo + hi)
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        x = x_new
    return x, max_iter


@dataclass
class EstimateResult:
    """Estimator output with per-link diagnostics.

    theta_hat values live in [0, 1]; None marks a link the data say nothing
    about.  flags holds one of 'ok', 'boundary_projected',
    'regularity_violated', 'non_estimable' per link.  converged is False
    when an EM run stopped at its sweep cap before meeting its tolerance.
    """

    method: str
    theta_hat: dict[int, float | None]
    xi_hat: dict[int, float | None]
    flags: dict[int, str]
    iterations: int
    loglik: float
    regularity: RegularityReport
    wall_time: float
    loglik_path: list[float] = field(default_factory=list)
    theta_path: list[dict[int, float]] = field(default_factory=list)
    converged: bool = True

    def estimable_links(self) -> list[int]:
        return sorted(i for i, v in self.theta_hat.items() if v is not None)

    def violations(self) -> int:
        return sum(1 for f in self.flags.values() if f != FLAG_OK)


def project_to_theta_star(theta_raw: dict[int, float | None]
                          ) -> tuple[dict[int, float | None], frozenset[int]]:
    """Clamp raw rates onto [0, 1] coordinate-wise; report which moved."""
    projected: dict[int, float | None] = {}
    clamped = set()
    for i, v in theta_raw.items():
        if v is None:
            projected[i] = None
        elif v < 0.0:
            projected[i] = 0.0
            clamped.add(i)
        elif v > 1.0:
            projected[i] = 1.0
            clamped.add(i)
        else:
            projected[i] = v
    return projected, frozenset(clamped)


def _solve_node(brothers: tuple[int, ...], r: dict[int, float | None],
                tol: float) -> tuple[dict[int, float | None], int]:
    """Estimated subtree loss rates for one brother set.

    Pass fractions of 0 or 1 pin the corresponding rate to the boundary
    (1 and 0 respectively); the rest follow the fixed point of the reduced
    equation or, when no interior root exists, the limiting value 1.
    """
    if any(r[j] is None for j in brothers):
        return {j: None for j in brothers}, 0
    xi: dict[int, float | None] = {}
    ones = [j for j in brothers if r[j] >= 1.0]
    zeros = [j for j in brothers if r[j] <= 0.0]
    mid = [j for j in brothers if 0.0 < r[j] < 1.0]
    for j in zeros:
        xi[j] = 1.0
    for j in ones:
        xi[j] = 0.0
    if not mid:
        return xi, 0
    if ones:
        # a zero factor collapses the product; the others decouple
        for j in mid:
            xi[j] = 1.0 - r[j]
        return xi, 0
    if sum(r[j] for j in mid) > 1.0:
        pi, iters = _solve_interior([r[j] for j in mid], tol)
        for j in mid:
            xi[j] = (1.0 - r[j]) + r[j] * pi
        return xi, iters
    # pass counts below the brothers exactly exhaust the parent's: the fixed
    # point degenerates to 1 and the parent's rate collapses to 0 downstream
    for j in mid:
        xi[j] = 1.0
    return xi, 0


def _loglik_at(views: InternalView, theta_hat: dict[int, float | None],
               net: GeneralNetwork) -> float:
    # links with None carry zero-coefficient terms only; any filler works
    filled = {i: (0.5 if v is None else v) for i, v in theta_hat.items()}
    return loglik_theta(views, filled, net).value


def _assemble_flags(net: GeneralNetwork, report: RegularityReport,
                    theta_raw: dict[int, float | None],
                    clamped: frozenset[int]) -> dict[int, str]:
    flags = {}
    regular_bad = report.n1_zero | report.n0_zero | report.brother_sum_violation
    for i in net.links:
        v = theta_raw[i]
        if v is None:
            flags[i] = FLAG_NON_ESTIMABLE
        elif i in regular_bad:
            flags[i] = FLAG_REGULARITY
        elif i in clamped or v <= 0.0 or v >= 1.0:
            flags[i] = FLAG_BOUNDARY
        else:
            flags[i] = FLAG_OK
    return flags


def le_xi(views: InternalView, net: GeneralNetwork, workers: int = 1,
          report: RegularityReport | None = None, tol: float = 1e-12) -> EstimateResult:
    """Likelihood-equation estimator.

    Each source node and each brother set is an independent task over the
    shared read-only statistics; results merge by link id, so the output
    does not depend on the schedule.
    """
    t0 = time.perf_counter()
    if report is None:
        report = regularity_report(views, net)

    def root_task(s: int):
        r = views.r[s]
        return ({s: None if r is None else 1.0 - r}, 0)

    tasks = [lambda s=s: root_task(s) for s in net.source_links]
    tasks += [lambda b=b: _solve_node(b, views.r, tol) for b in net.brother_sets]

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(lambda f: f(), tasks))
    else:
        outcomes = [f() for f in tasks]

    xi_hat: dict[int, float | None] = {}
    solver_iters = 0
    for partial, iters in outcomes:
        xi_hat.update(partial)
        solver_iters = max(solver_iters, iters)

    theta_raw = xi_to_theta(xi_hat, net)
    for i, v in theta_raw.items():
        # an estimate this close to the edge is the edge up to rounding in
        # the solved rates; snap so boundary cases are flagged as such
        if v is not None and abs(v) <= XI_BOUNDARY_TOL:
            theta_raw[i] = 0.0
        elif v is not None and abs(v - 1.0) <= XI_BOUNDARY_TOL:
            theta_raw[i] = 1.0
    theta_hat, clamped = project_to_theta_star(theta_raw)
    flags = _assemble_flags(net, report, theta_raw, clamped)
    ll = _loglik_at(views, theta_hat, net)
    return EstimateResult("le-xi", theta_hat, xi_hat, flags, solver_iters, ll,
                          report, time.perf_counter() - t0)


def _dense_structure(net: GeneralNetwork):
    order = net.order
    pos = {i: p for p, i in enumerate(order)}
    parents = [tuple(pos[q] for q in net.parent_links[i]) for i in order]
    children = [tuple(pos[q] for q in net.child_links[i]) for i in order]
    return order, pos, parents, children


def _em_loop(net: GeneralNetwork, views: InternalView, estep, theta0, tol: float,
             max_iter: int, track_loglik: bool, keep_history: bool):
    """Shared EM driver: estep fills expected pass/fail counts per link.

    Stops when max|theta change| <= tol; tol <= 0 disables the rule and runs
    exactly max_iter sweeps (useful for lockstep comparisons and timing).
    Converged means the tol rule stopped the loop.
    """
    order = net.order
    m = len(order)
    if isinstance(theta0, dict):
        theta = [float(theta0[i]) for i in order]
    else:
        theta = [float(theta0)] * m
    loglik_path: list[float] = []
    theta_path: list[dict[int, float]] = []
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        om1, om0 = estep(theta)
        delta = 0.0
        for p in range(m):
            denom = om0[p] + om1[p]
            new = om0[p] / denom if denom > 0.0 else theta[p]
            d = abs(new - theta[p])
            if d > delta:
                delta = d
            theta[p] = new
        if track_loglik:
            loglik_path.append(
                loglik_theta(views, {order[p]: theta[p] for p in range(m)}, net).value)
        if keep_history:
            theta_path.append({order[p]: theta[p] for p in range(m)})
        if tol > 0.0 and delta <= tol:
            converged = True
            break
    theta_map = {order[p]: theta[p] for p in range(m)}
    return theta_map, iterations, converged, loglik_path, theta_path


def _finish_em(method: str, net: GeneralNetwork, views: InternalView,
               report: RegularityReport, theta_map: dict[int, float],
               iterations: int, converged: bool, loglik_path, theta_path,
               t0: float) -> EstimateResult:
    theta_hat: dict[int, float | None] = {}
    for i in net.links:
        theta_hat[i] = None if i in report.no_information else theta_map[i]
    flags = _assemble_flags(net, report, theta_hat, frozenset())
    xi_hat = theta_to_xi(theta_hat, net)
    ll = _loglik_at(views, theta_hat, net)
    return EstimateResult(method, theta_hat, xi_hat, flags, iterations, ll,
                          report, time.perf_counter() - t0,
                          loglik_path=loglik_path, theta_path=theta_path,
                          converged=converged)


def pcem(views: InternalView, net: GeneralNetwork, theta0=0.03, tol: float = 1e-6,
         max_iter: int = 10000, track_loglik: bool = False,
         keep_history: bool = False,
         report: RegularityReport | None = None) -> EstimateResult:
    """Pattern-collapsed EM: expectations from internal views alone.

    Per sweep and per link, in parent-first order: u is the expected number
    of probes that reached the link's parent node without being seen below
    the link; a fraction p = (xi - theta)/xi of those passed invisibly.
    Expected pass/fail counts follow, and the maximization step is the
    fail fraction.  One sweep costs O(links).
    """
    t0 = time.perf_counter()
    if report is None:
        report = regularity_report(views, net)
    order, pos, parents, children = _dense_structure(net)
    m = len(order)
    n1 = [float(views.n1[i]) for i in order]
    n0 = [float(views.n0[i]) for i in order]
    internal = [q for q in range(m - 1, -1, -1) if children[q]]
    rng_fwd = range(m)
    xi = [0.0] * m
    p_pass = [0.0] * m
    om1 = [0.0] * m
    om0 = [0.0] * m

    def estep(theta: list[float]):
        xi[:] = theta
        for q in internal:
            prod = 1.0
            for c in children[q]:
                prod *= xi[c]
            v = theta[q] + (1.0 - theta[q]) * prod
            xi[q] = v
            p_pass[q] = (v - theta[q]) / v if v > 0.0 else 0.0
        for q in rng_fwd:
            ups = parents[q]
            if ups:
                u = -n1[q]
                for a in ups:
                    u += om1[a]
                if u < 0.0:
                    u = 0.0
            else:
                u = n0[q]
            p = p_pass[q]
            om1[q] = n1[q] + u * p
            om0[q] = u * (1.0 - p)
        return om1, om0

    theta_map, iterations, converged, ll_path, th_path = _em_loop(
        net, views, estep, theta0, tol, max_iter, track_loglik, keep_history)
    return _finish_em("pcem", net, views, report, theta_map, iterations,
                      converged, ll_path, th_path, t0)


class _TreeSpace:
    """Static description of one tree's full link-state space.

    configs holds every assignment of {0,1} to the tree's links; the E-step
    walks all of them for every distinct pattern, every sweep.  parent_of
    maps a local link index to its parent's local index (-1 for the root)
    and net_pos maps local indices to dense network positions.
    """

    def __init__(self, net: GeneralNetwork, tree_id: int, pos: dict[int, int]):
        tree = net.tree_by_id[tree_id]
        ids = list(tree.order)
        local = {i: q for q, i in enumerate(ids)}
        self.m = len(ids)
        self.parent_of = [-1 if i == tree.root_link else local[tree.parent[i]]
                          for i in ids]
        self.net_pos = [pos[i] for i in ids]
        self.leaf_pos = [local[leaf] for leaf in tree.leaves]
        self.configs = list(itertools.product((1, 0), repeat=self.m))


def nem(patterns: PatternTable, net: GeneralNetwork, theta0=0.03, tol: float = 1e-6,
        max_iter: int = 10000, track_loglik: bool = False,
        keep_history: bool = False) -> EstimateResult:
    """Naive EM oracle: per pattern, enumerate feasible link states.

    Every sweep walks the whole configuration space of each tree for each
    distinct pattern, weighting configurations by their probability under
    the current rates.  Worst-case exponential in links; refused beyond
    NEM_MAX_LINKS.
    """
    if len(net.links) > NEM_MAX_LINKS:
        raise ValueError(
            f"nem is an oracle for small networks; {len(net.links)} links exceeds "
            f"the {NEM_MAX_LINKS}-link guard")
    t0 = time.perf_counter()
    views, report = internal_views(patterns, net)
    order, pos, _, _ = _dense_structure(net)
    m = len(order)
    per_tree = []
    for k in sorted(patterns.counts):
        space = _TreeSpace(net, k, pos)
        rows = [(tuple(int(ch) for ch in bits), float(c))
                for bits, c in sorted(patterns.counts[k].items())]
        per_tree.append((rows, space))

    def estep(theta: list[float]):
        om1 = [0.0] * m
        om0 = [0.0] * m
        for rows, space in per_tree:
            parent_of = space.parent_of
            net_pos = space.net_pos
            leaf_pos = space.leaf_pos
            rng_m = range(space.m)
            for target, count in rows:
                hits: list[tuple[float, tuple[int, ...]]] = []
                total = 0.0
                for states in space.configs:
                    ok = True
                    for t_bit, lp in zip(target, leaf_pos):
                        if states[lp] != t_bit:
                            ok = False
                            break
                    if not ok:
                        continue
                    w = 1.0
                    for q in rng_m:
                        up = parent_of[q]
                        if up < 0 or states[up]:
                            w *= 1.0 - theta[net_pos[q]] if states[q] else theta[net_pos[q]]
                        elif states[q]:
                            w = 0.0   # unreachable link marked as passed
                            break
                    if w > 0.0:
                        hits.append((w, states))
                        total += w
                if total <= 0.0:
                    continue
                scale = count / total
                for w, states in hits:
                    share = w * scale
                    for q in rng_m:
                        up = parent_of[q]
                        if up < 0 or states[up]:
                            if states[q]:
                                om1[net_pos[q]] += share
                            else:
                                om0[net_pos[q]] += share
        return om1, om0

    theta_map, iterations, converged, ll_path, th_path = _em_loop(
        net, views, estep, theta0, tol, max_iter, track_loglik, keep_history)
    return _finish_em("nem", net, views, report, theta_map, iterations,
                      converged, ll_path, th_path, t0)


def mvwa(views: InternalView, net: GeneralNetwork,
         report: RegularityReport | None = None) -> EstimateResult:
    """Per-tree estimates combined by minimum-variance weighted averaging.

    Each tree is estimated on its own with le_xi.  Links seen by several
    trees are averaged with weights 1/variance from the exact diagonal
    observed information of the tree's own likelihood.  A per-tree
    estimate with no usable variance (boundary point, flat curvature) gets
    zero weight, matching the minimum-variance reading; only when no tree
    has a usable variance does the link fall back to probe-count weights.
    Links seen by one tree pass through.
    """
    t0 = time.perf_counter()
    if report is None:
        report = regularity_report(views, net)
    per_tree: dict[int, tuple[EstimateResult, dict[int, float]]] = {}
    iterations = 0
    for k in sorted(views.per_tree_n1):
        sub = net.tree_networks[k]
        sub_views, sub_report = tree_views(views, sub)
        res = le_xi(sub_views, sub, report=sub_report)
        filled = {i: (math.nan if v is None else v) for i, v in res.theta_hat.items()}
        variances = observed_information(filled, sub_views, sub)
        per_tree[k] = (res, variances)
        iterations = max(iterations, res.iterations)

    theta_hat: dict[int, float | None] = {}
    flags: dict[int, str] = {}
    for i in sorted(net.links):
        entries = []
        for k in net.trees_with_link[i]:
            if k not in per_tree:
                continue
            res, variances = per_tree[k]
            if res.theta_hat.get(i) is None:
                continue
            entries.append((k, res.theta_hat[i], variances.get(i, math.nan),
                            res.flags[i]))
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

    xi_hat = theta_to_xi(theta_hat, net)
    ll = _loglik_at(views, theta_hat, net)
    return EstimateResult("mvwa", theta_hat, xi_hat, flags, iterations, ll,
                          report, time.perf_counter() - t0)


def estimator(method: str):
    """The function a METHODS name selects, looked up when called so patches apply."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    return globals()[method.replace("-", "_")]
