"""Loss-rate estimators.

Four procedures over the same internal-view statistics, read by position
through InternalView.counts or count_rows, with pass fractions from
pass_fractions (_pass_rows on arrays):

* le_xi: solves the likelihood equations in the subtree-loss
  parametrization on the network's positional form.  _solve_xi (or
  _solve_rows) gives the links at root_pos their closed form, settles
  every set of brother_pos that needs no root, and hands the rest to one
  _solve_interiors call, on
  the calling thread by a size rule: below BATCH_MIN_SETS sets, a
  pure-Python Newton loop per set; from there on, one numpy Newton pass
  over all of them, masked per set once it meets SOLVER_TOL.  Both paths
  take the same iterates, so the estimates do not depend on the path.
* mvwa: the same steps on every tree at once, each on its slice of the
  views and its own positional form, with one joint _solve_interiors call
  and flags from statistics.regularity_by_position (regularity_rows on
  arrays).  Shared links are
  combined by inverse-variance weights, the exact diagonal observed
  information of each tree's likelihood; contributions without a usable
  variance are dropped from the average.
* pcem: EM driven entirely by the collapsed statistics; O(links) a sweep.
  pcem_replicates runs it on many datasets, every sweep on (datasets x
  positions) arrays, one depth level of the network's padded parent table
  at a time; each dataset leaves the sweeps once it meets tol.
* nem: the brute-force EM that enumerates, per distinct receiver pattern,
  every feasible assignment of link states; an oracle refused above 20 links.

le_xi and mvwa are le_xi_replicates and mvwa_replicates on one dataset.
A size rule picks their path before the solve: from ARRAY_MIN_POSITIONS
positions in one call (datasets times the network's positions for le_xi,
times the observed trees' positions for mvwa), they read the views as
(datasets x positions) arrays (statistics.count_rows), _solve_rows sorts
every brother set on (datasets x sets) arrays as _solve_node does, and
_finish_rows turns xi into theta and flags, nan for None; the regularity
flags come from the count rows (statistics.regularity_rows), not from the
reports, and mvwa's variances and average follow on arrays too
(_combine_rows).  Below
it, numpy's per-call overhead and the first build of a structure's padded
tables (topology.PaddedForm) outweigh the per-dataset saving:
_solve_xi settles each set per dataset with _solve_node and _finish runs
on lists over the order of the network or of one tree.  1024 is the
measured break-even of a call on a freshly parsed network, between one and
two datasets of the 764-link hub network for mvwa.  Link ids key an
estimate only where its EstimateResult is built.  The array recursions take
each tree level by level over the padded tables, and the sorts add and
multiply in the scalar loops' order, so both paths give the same bits.
pcem and nem run the one EM driver, _em, whose sweeps pcem_replicates
repeats on arrays in the scalar order, to the same bits.  _flag is the one
flag rule of all four (_flag_rows on arrays), _clamp the one projection
onto [0, 1], shared with project_to_theta_star, and _clamp_mean the one
clamp of mvwa's averages.  Links whose data fail the regularity
conditions are still estimated but flagged; links with no information at
all come back as None.  A report that a caller passes in reaches its
result; where flags are read on arrays, and in pcem_replicates, it is only
carried there, so a report of internal_views_replicates stays unfilled.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .likelihood import information_by_position, information_rows, loglik_theta
from .params import (XI_BOUNDARY_TOL, theta_by_position, theta_rows, theta_to_xi,
                     xi_by_position, xi_rows)
from .statistics import (InternalView, PatternTable, RegularityReport, count_rows,
                         internal_views, pass_fractions, regularity_by_position,
                         regularity_report, regularity_rows)
from .topology import GeneralNetwork, MulticastTree

FLAG_OK = "ok"
FLAG_BOUNDARY = "boundary_projected"
FLAG_REGULARITY = "regularity_violated"
FLAG_NON_ESTIMABLE = "non_estimable"
_FLAGS = (FLAG_OK, FLAG_BOUNDARY, FLAG_REGULARITY, FLAG_NON_ESTIMABLE)   # by rank
_FLAG_RANK = {f: rank for rank, f in enumerate(_FLAGS)}
_FLAG_NAMES = np.array(_FLAGS, dtype=object)

NEM_MAX_LINKS = 20
SOLVER_TOL = 1e-12
BATCH_MIN_SETS = 32
ARRAY_MIN_POSITIONS = 1024
_SOLVER_DELTA = 1e-9

METHODS = ("le-xi", "pcem", "nem", "mvwa")


def left_sum(values) -> float:
    """The floats added left to right.  From Python 3.12 sum() of floats is
    compensated; a sum that picks a branch or reaches an output must not
    depend on the interpreter."""
    total = 0.0
    for v in values:
        total += v
    return total


def _residual_and_slope(rs: list[float], x: float) -> tuple[float, float]:
    """g(x) = prod_j[(1 - r_j) + r_j x] - x and g'(x), both summed left to right."""
    prod = 1.0
    factors = []
    for r in rs:
        f = (1.0 - r) + r * x
        factors.append(f)
        prod *= f
    # summed left to right (see left_sum), in the batched solve's order
    slope = 0.0
    for r, f in zip(rs, factors):
        slope += r * prod / f
    return prod - x, slope - 1.0


def _solve_interior(rs: list[float], max_iter: int = 200) -> tuple[float, int]:
    """Root in (0, 1) of x = prod_j[(1 - r_j) + r_j x], one brother set's fixed
    point, and the iteration count.

    x = 1 always solves the equation and is never returned.  The scalar
    path, which le_xi runs per set below BATCH_MIN_SETS sets: Newton
    iterations safeguarded by bisection on the bracket [prod_j(1 - r_j),
    1 - 1e-9], stopped once the residual is <= SOLVER_TOL.
    _solve_interior_rows takes the same iterates on many sets at once.
    """
    lo = 1.0
    for r in rs:
        lo *= 1.0 - r
    hi = 1.0 - _SOLVER_DELTA
    g_hi, _ = _residual_and_slope(rs, hi)
    if g_hi >= 0.0:
        # the interior root is within 1e-9 of the spurious root at 1;
        # callers see a near-boundary value and flag downstream
        return hi, 0
    x = 0.5 * (lo + hi)
    for it in range(1, max_iter + 1):
        g, slope = _residual_and_slope(rs, x)
        if abs(g) <= SOLVER_TOL:
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


def _residuals_and_slopes(r: np.ndarray, keep: np.ndarray, x: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """_residual_and_slope per column of r (brothers x sets), keep = 1 - r.

    The loops over brothers keep the scalar order of every product and sum.
    A padded brother (r = 0) has the factor 1.0 and the slope term 0.0 at
    every x where the column's own product is finite.
    """
    factors = keep + r * x
    prod = factors[0]
    for f in factors[1:]:
        prod = prod * f
    terms = r * prod / factors
    slope = terms[0]
    for t in terms[1:]:
        slope = slope + t
    return prod - x, slope - 1.0


def _brother_columns(rows: list[list[float]] | np.ndarray) -> np.ndarray:
    """Rows of pass fractions as the columns of one (brothers x sets) array.

    Short rows are padded with r = 0 after their own brothers, which
    _residuals_and_slopes turns into the factor 1.0 and the slope term 0.0.
    A (sets x brothers) array comes padded so already.
    """
    if isinstance(rows, np.ndarray):
        return np.ascontiguousarray(rows.T)
    widths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    padded = np.zeros((len(rows), int(widths.max())))
    padded[np.arange(padded.shape[1]) < widths[:, None]] = list(
        itertools.chain.from_iterable(rows))
    return np.ascontiguousarray(padded.T)


def _solve_interior_rows(rows: list[list[float]] | np.ndarray, max_iter: int = 200
                         ) -> tuple[list[float], list[int]]:
    """_solve_interior on every row at once; each row takes the same iterates.

    A row is live until its residual meets SOLVER_TOL; from then on its
    root and its count are frozen, exactly where the scalar loop returns
    them.
    """
    r = _brother_columns(rows)
    keep = 1.0 - r
    lo = keep[0]
    for k in keep[1:]:
        lo = lo * k
    hi = np.full(len(rows), 1.0 - _SOLVER_DELTA)
    g_hi, _ = _residuals_and_slopes(r, keep, hi)
    live = g_hi < 0.0   # the other rows return hi after 0 steps
    x = np.where(live, 0.5 * (lo + hi), hi)
    iters = np.zeros(len(rows), dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            if not np.count_nonzero(live):
                break
            iters += live
            g, slope = _residuals_and_slopes(r, keep, x)
            live &= ~(np.abs(g) <= SOLVER_TOL)
            up = g > 0.0
            lo = np.where(up, x, lo)
            hi = np.where(up, hi, x)
            # a zero slope makes the step infinite or nan, which fails the
            # bracket test: the midpoint, as in the scalar loop
            step = x - g / slope
            x = np.where(live, np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi)), x)
    return x.tolist(), iters.tolist()


def _solve_interiors(rows: list[list[float]] | np.ndarray) -> tuple[list[float], list[int]]:
    """Roots and iteration counts of many brother sets, by the size rule: rows
    as _brother_columns takes them.

    From BATCH_MIN_SETS sets on, one batched pass; below it, the scalar
    loop, which costs less than numpy's per-call overhead on few sets.  A
    padded brother (r = 0) changes no bit of the scalar loop either.
    """
    if len(rows) >= max(BATCH_MIN_SETS, 1):
        return _solve_interior_rows(rows)
    solved = [_solve_interior(rs) for rs in (rows.tolist() if isinstance(rows, np.ndarray)
                                             else rows)]
    return [x for x, _ in solved], [it for _, it in solved]


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
    regularity: RegularityReport
    wall_time: float
    loglik_path: list[float] = field(default_factory=list)
    theta_path: list[dict[int, float]] = field(default_factory=list)
    converged: bool = True

    def estimable_links(self) -> list[int]:
        return sorted(i for i, v in self.theta_hat.items() if v is not None)

    def violations(self) -> int:
        return len(self.flags) - list(self.flags.values()).count(FLAG_OK)


def _clamp(v: float | None) -> float | None:
    """v onto [0, 1]; None and nan pass through."""
    return v if v is None else 0.0 if v < 0.0 else 1.0 if v > 1.0 else v


def _pick(cond: bool, a, b):
    """a if cond else b: np.where on one element."""
    return a if cond else b


def _clamp_mean(est, where=_pick):
    """mvwa's weighted mean onto [0, 1] as min(1.0, max(0.0, est)) puts it: nan
    and -0.0 become 0.0, and est < 1.0 decides the top.  where is np.where
    on arrays."""
    est = where(est > 0.0, est, 0.0)
    return where(est < 1.0, est, 1.0)


def _flag(v: float | None, bad: bool) -> str:
    """The flag of an unclamped estimate v, bad when the regularity report flags
    its link: the first of non_estimable, regularity, boundary and ok that holds."""
    if v is None:
        return FLAG_NON_ESTIMABLE
    if bad:
        return FLAG_REGULARITY
    if v <= 0.0 or v >= 1.0:
        return FLAG_BOUNDARY
    return FLAG_OK


def project_to_theta_star(theta_raw: dict[int, float | None]
                          ) -> tuple[dict[int, float | None], frozenset[int]]:
    """Clamp raw rates onto [0, 1] coordinate-wise; report which moved."""
    clamped = frozenset(i for i, v in theta_raw.items()
                        if v is not None and (v < 0.0 or v > 1.0))
    return {i: _clamp(v) for i, v in theta_raw.items()}, clamped


def _solve_node(brothers: tuple[int, ...], r: list[float | None],
                xi: list[float | None]) -> list[int]:
    """Write one brother set's subtree loss rates into xi, less its interior solve.

    Pass fractions of 0 or 1 pin the corresponding rate to the boundary
    (1 and 0 respectively); the rest follow the fixed point pi of the
    reduced equation or, when no interior root exists, the limiting value 1.
    The brothers that wait on pi come back as a list and keep None in xi;
    their rate is (1 - r_j) + r_j pi.  With any brother's r None, all stay None.
    """
    if any(r[j] is None for j in brothers):
        return []
    ones = [j for j in brothers if r[j] >= 1.0]
    mid = [j for j in brothers if 0.0 < r[j] < 1.0]
    for j in brothers:
        if r[j] <= 0.0:
            xi[j] = 1.0
    for j in ones:
        xi[j] = 0.0
    if not mid:
        return []
    if ones:
        # a zero factor collapses the product; the others decouple
        for j in mid:
            xi[j] = 1.0 - r[j]
        return []
    if left_sum(r[j] for j in mid) > 1.0:
        return mid
    # pass counts below the brothers exactly exhaust the parent's: the fixed
    # point degenerates to 1 and the parent's rate collapses to 0 downstream
    for j in mid:
        xi[j] = 1.0
    return []


def _solve_xi(problems) -> tuple[list[list[float | None]], list[int]]:
    """xi per position for each (structure, r) problem, and each problem's
    largest solver iteration count.

    The structure is a network or a tree; r holds the confirmed pass
    fraction per position of its order, None without information.  Links at
    root_pos take their closed form and each set of brother_pos goes through
    _solve_node; then the sets of every problem that wait on an interior
    root go to one _solve_interiors call.
    """
    xis, pending = [], []
    for p, (s, r) in enumerate(problems):
        xi: list[float | None] = [None] * len(r)
        for q in s.root_pos:
            if r[q] is not None:
                xi[q] = 1.0 - r[q]
        pending += ((p, xi, r, mid) for mid in [_solve_node(b, r, xi) for b in s.brother_pos]
                    if mid)
        xis.append(xi)
    pis, iters = _solve_interiors([[r[j] for j in mid] for _, _, r, mid in pending])
    most = [0] * len(xis)
    for (p, xi, r, mid), pi, it in zip(pending, pis, iters):
        for j in mid:
            xi[j] = (1.0 - r[j]) + r[j] * pi
        most[p] = max(most[p], it)
    return xis, most


def _solve_rows(problems) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """_solve_xi on arrays: each (structure, r) problem holds r as one row per
    dataset over its order, nan for None.  Returns each problem's xi rows,
    nan for None, and each row's largest solver iteration count.

    The sets of brother_pos are sorted on (datasets x sets) arrays, one slot
    per brother, as _solve_node sorts them: a None brother leaves the set
    None; r = 0 gives xi = 1 and r = 1 gives xi = 0; beside an r = 1 brother,
    a mid brother's rate is 1 - r; without one, the mid fractions summed left
    to right, with an exact 0.0 in every other slot, decide between an
    interior root and exhaustion (xi = 1).  The sets that wait on a root go,
    0.0 slots included, to one _solve_interiors call.
    """
    sorted_sets = []
    for s, r in problems:
        # the padding column is a brother with r = 0.0, which settles at 1.0
        # and adds 0.0; a set's slots follow brother_pos
        fr = np.concatenate([r, np.zeros((len(r), 1))], axis=1)[:, s.padded.brothers.T]
        mid, one = (fr > 0.0) & (fr < 1.0), fr >= 1.0
        fr_mid = np.where(mid, fr, 0.0)
        total = 0.0
        for slot in fr_mid.transpose(2, 0, 1):
            total = total + slot
        has_one, none = one.any(axis=2), np.isnan(fr).any(axis=2)
        waits = ~none & ~has_one & mid.any(axis=2) & (total > 1.0)
        settled = np.where(mid, np.where(has_one[..., None], 1.0 - fr, 1.0),
                           np.where(one, 0.0, 1.0))
        settled[none] = math.nan
        sorted_sets.append((fr, mid, waits, settled, fr_mid[waits]))
    pending = [rows for *_, rows in sorted_sets]
    ends = list(itertools.accumulate(map(len, pending), initial=0))
    stacked = np.zeros((ends[-1], max((rows.shape[1] for rows in pending), default=0)))
    for rows, a, b in zip(pending, ends, ends[1:]):
        stacked[a:b, :rows.shape[1]] = rows
    pis, iters = _solve_interiors(stacked)
    pis, iters = np.array(pis, float), np.array(iters, np.int64)
    xis, most = [], []
    for (s, r), (fr, mid, waits, settled, _), a, b in zip(problems, sorted_sets, ends, ends[1:]):
        pi, its = np.zeros(waits.shape), np.zeros(waits.shape, np.int64)
        pi[waits], its[waits] = pis[a:b], iters[a:b]
        xi = np.full((len(r), r.shape[1] + 1), math.nan)
        xi[:, s.padded.brothers.T] = np.where(waits[..., None] & mid,
                                            (1.0 - fr) + fr * pi[..., None], settled)
        roots = list(s.root_pos)
        xi[:, roots] = 1.0 - r[:, roots]
        xis.append(xi[:, :-1])
        most.append(its.max(axis=1, initial=0))
    return xis, most


def _finish(xi: list[float | None], s: GeneralNetwork | MulticastTree,
            bad: frozenset[int]) -> tuple[list[float | None], list[str]]:
    """theta_hat and flags from xi, solved on the network or tree s, as lists
    over s.order; bad holds the link ids the regularity report flags."""
    theta = theta_by_position(xi, s.child_pos)
    flags = []
    for q, (i, v) in enumerate(zip(s.order, theta)):
        # an estimate this close to the edge is the edge up to rounding in
        # the solved rates; snap so boundary cases are flagged as such
        if v is not None and abs(v) <= XI_BOUNDARY_TOL:
            v = 0.0
        elif v is not None and abs(v - 1.0) <= XI_BOUNDARY_TOL:
            v = 1.0
        flags.append(_flag(v, i in bad))
        theta[q] = _clamp(v)
    return theta, flags


def _finish_rows(xi: np.ndarray, s: GeneralNetwork | MulticastTree, bad: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """_finish on (datasets x positions) arrays over s.order, nan for None: bad
    marks the positions each dataset's regularity report flags.  Returns theta,
    nan for None, and each position's flag as its rank in _FLAGS."""
    theta = theta_rows(xi, s.padded)
    theta = np.where(np.abs(theta) <= XI_BOUNDARY_TOL, 0.0,
                     np.where(np.abs(theta - 1.0) <= XI_BOUNDARY_TOL, 1.0, theta))
    return np.where(theta < 0.0, 0.0, np.where(theta > 1.0, 1.0, theta)), _flag_rows(theta, bad)


def _flag_rows(theta: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """_flag on arrays, nan for None: each flag as its rank in _FLAGS."""
    # _flag's order: non_estimable, regularity, boundary, ok
    return np.where(np.isnan(theta), 3,
                    np.where(bad, 2, np.where((theta <= 0.0) | (theta >= 1.0), 1, 0)))


def _on_arrays(positions: int) -> bool:
    """The size rule: solve and finish on arrays from ARRAY_MIN_POSITIONS
    positions in all, summed over the datasets and the networks or trees of
    one call."""
    return positions >= ARRAY_MIN_POSITIONS


def _pass_rows(counts: np.ndarray) -> np.ndarray:
    """pass_fractions on count_rows' (datasets x 2 x positions), nan for None."""
    with np.errstate(invalid="ignore"):
        return counts[:, 0] / (counts[:, 0] + counts[:, 1])


def _values(rows: np.ndarray) -> list[list[float | None]]:
    """rows as lists of floats, None where nan."""
    out = rows.astype(object)
    out[np.isnan(rows)] = None
    return out.tolist()


def le_xi(views: InternalView, net: GeneralNetwork, workers: int = 1,
          report: RegularityReport | None = None) -> EstimateResult:
    """Likelihood-equation estimator: le_xi_replicates on one dataset.  workers
    is accepted and ignored: the solves run on the calling thread."""
    return le_xi_replicates([views], net, [report])[0]


def _timed(results: list[EstimateResult], t0: float) -> list[EstimateResult]:
    """Give each result an equal share of the wall time since t0."""
    share = (time.perf_counter() - t0) / len(results)
    for res in results:
        res.wall_time = share
    return results


def le_xi_replicates(views_list: list[InternalView], net: GeneralNetwork,
                     reports: list[RegularityReport | None]) -> list[EstimateResult]:
    """le_xi on each dataset's views and report (None: computed here).

    mvwa's two steps on net alone, for every dataset at once: by the size
    rule, _solve_xi and a _finish per dataset on its report's flags, or
    _solve_rows and _finish_rows on (datasets x positions) arrays, flagged
    by regularity_rows on the count rows.  A result's iterations is its own
    largest solver iteration count.
    """
    t0 = time.perf_counter()
    reports = [regularity_report(v, net) if r is None else r
               for v, r in zip(views_list, reports)]
    if _on_arrays(len(views_list) * len(net.order)):
        counts = count_rows(views_list, net)
        (xi,), (iterations,) = _solve_rows([(net, _pass_rows(counts))])
        theta, rank = _finish_rows(xi, net, regularity_rows(net, counts[:, 0], counts[:, 1]))
        at = list(net.id_pos)
        finished = zip(_values(theta[:, at]), _values(xi[:, at]),
                       _FLAG_NAMES[rank[:, at]].tolist(), iterations.tolist())
    else:
        xis, iterations = _solve_xi([(net, pass_fractions(*v.counts(net))) for v in views_list])
        finished = []
        for xi, its, report in zip(xis, iterations, reports):
            theta, flags = _finish(xi, net, report.flagged())
            finished.append([[rows[q] for q in net.id_pos] for rows in (theta, xi, flags)] + [its])
    ids = [net.order[q] for q in net.id_pos]
    out = [EstimateResult("le-xi", dict(zip(ids, theta)), dict(zip(ids, xi)),
                          dict(zip(ids, flags)), its, report, 0.0)
           for report, (theta, xi, flags, its) in zip(reports, finished)]
    return _timed(out, t0)


def _em(method: str, views: InternalView, net: GeneralNetwork, report: RegularityReport,
        estep, t0: float, theta0, tol: float, max_iter: int, track_loglik: bool,
        keep_history: bool) -> EstimateResult:
    """The one EM driver: estep fills expected pass/fail counts per position.

    Stops when max|theta change| <= tol; tol <= 0 disables the rule and runs
    exactly max_iter sweeps (useful for lockstep comparisons and timing).
    Converged means the tol rule stopped the loop.  Links without
    information come back None; every link is flagged by _flag.
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
            loglik_path.append(loglik_theta(views, dict(zip(order, theta)), net).value)
        if keep_history:
            theta_path.append(dict(zip(order, theta)))
        if tol > 0.0 and delta <= tol:
            converged = True
            break
    bad = report.flagged()
    theta_hat = {i: None if i in report.no_information else theta[net.pos[i]]
                 for i in net.links}
    flags = {i: _flag(v, i in bad) for i, v in theta_hat.items()}
    return EstimateResult(method, theta_hat, theta_to_xi(theta_hat, net), flags, iterations,
                          report, time.perf_counter() - t0, loglik_path=loglik_path,
                          theta_path=theta_path, converged=converged)


def pcem(views: InternalView, net: GeneralNetwork, theta0=0.03, tol: float = 1e-6,
         max_iter: int = 10000, track_loglik: bool = False,
         keep_history: bool = False,
         report: RegularityReport | None = None) -> EstimateResult:
    """Pattern-collapsed EM: expectations from internal views alone.

    A sweep works on lists over net.order, the network's positional form.
    xi comes from params.xi_by_position, the recursion theta_to_xi runs.
    Then per link, in parent-first order: u is the expected number of
    probes that reached the link's parent node without being seen below
    the link; a fraction p = (xi - theta)/xi of those passed invisibly.
    Expected pass/fail counts follow, and the maximization step is the
    fail fraction.  One sweep costs O(links).
    """
    t0 = time.perf_counter()
    if report is None:
        report = regularity_report(views, net)
    parents, children = net.parent_pos, net.child_pos
    m = len(parents)
    n1, n0 = ([float(c) for c in cs] for cs in views.counts(net))
    om1 = [0.0] * m
    om0 = [0.0] * m

    def estep(theta: list[float]):
        xi = xi_by_position(theta, children)
        for q, ups, th, v, c1, c0 in zip(range(m), parents, theta, xi, n1, n0):
            if ups:
                u = -c1
                for a in ups:
                    u += om1[a]
                if u < 0.0:
                    u = 0.0
            else:
                u = c0
            if v > th:   # v >= th for theta in [0, 1]; v == th (p = 0) at every leaf
                p = (v - th) / v
                om1[q] = c1 + u * p
                om0[q] = u * (1.0 - p)
            else:
                om1[q] = c1
                om0[q] = u
        return om1, om0

    return _em("pcem", views, net, report, estep, t0, theta0, tol, max_iter,
               track_loglik, keep_history)


def pcem_replicates(views_list: list[InternalView], net: GeneralNetwork,
                    reports: list[RegularityReport | None], tol: float = 1e-6,
                    max_iter: int = 10000) -> list[EstimateResult]:
    """pcem on each dataset's views and report (None: computed here), from
    pcem's default start.

    _em's sweeps on (datasets x positions) arrays, whatever their number:
    xi_rows leaf-to-root, then pcem's E-step one level of net.padded.drops at
    a time, parents first, each parent set padded by a column of om1 held at
    0.0, so u adds its parents in parent_pos order and then exact no-ops; the
    M-step is elementwise.  Every product and sum keeps the scalar sweep's order,
    and each dataset's rates are pcem's bits.  A dataset leaves the sweeps
    once its max|theta change| <= tol, with its own iterations and
    converged; tol <= 0 runs every dataset max_iter sweeps.  The finish runs
    on arrays too: theta nan where n1 + n0 == 0 (no_information), xi from
    xi_rows, flags by _flag_rows on regularity_rows of the count rows; the
    keys keep pcem's order.  Each result gets an equal share of the call's
    time.
    """
    t0 = time.perf_counter()
    reports = [regularity_report(v, net) if r is None else r
               for v, r in zip(views_list, reports)]
    form, m = net.padded, len(net.order)
    counts = count_rows(views_list, net)
    n1, n0 = counts.astype(float).transpose(1, 0, 2)
    theta = np.full((len(views_list), m), 0.03)   # pcem's default start
    iterations = np.zeros(len(views_list), np.intp)
    converged = np.zeros(len(views_list), bool)
    live = np.arange(len(views_list))   # the datasets still sweeping, rows of th
    th, c1, c0 = theta, n1, n0
    with np.errstate(divide="ignore", invalid="ignore"):
        for sweep in range(1, max_iter + 1):
            xi = xi_rows(th, form)
            om1 = np.zeros((len(live), m + 1))   # the padding column stays 0.0
            om0 = np.empty((len(live), m))
            for depth, (at, ups) in enumerate(form.drops):
                if depth:
                    u = -c1[:, at]
                    for a in ups:
                        u = u + om1[:, a]
                    u = np.where(u < 0.0, 0.0, u)
                else:
                    u = c0[:, at]
                v, t, c = xi[:, at], th[:, at], c1[:, at]
                p = (v - t) / v
                gains = v > t   # v >= t for theta in [0, 1]; v == t (p = 0) at every leaf
                om1[:, at] = np.where(gains, c + u * p, c)
                om0[:, at] = np.where(gains, u * (1.0 - p), u)
            denom = om0 + om1[:, :m]
            new = np.where(denom > 0.0, om0 / denom, th)
            # a nan change never raises the scalar loop's delta
            delta = np.fmax.reduce(np.abs(new - th), axis=1, initial=0.0)
            iterations[live] = sweep
            done = delta <= tol if tol > 0.0 else np.zeros(len(live), bool)
            theta[live[done]] = new[done]
            converged[live[done]] = True
            keep = ~done
            live, th, c1, c0 = live[keep], new[keep], c1[keep], c0[keep]
            if not len(live):
                break
    theta[live] = th
    theta[counts.sum(axis=1) == 0] = math.nan   # no information
    xi = xi_rows(theta, form)[:, net.id_pos]
    rank = _flag_rows(theta, regularity_rows(net, counts[:, 0], counts[:, 1]))
    links = [(i, net.pos[i]) for i in net.links]
    ids = [net.order[q] for q in net.id_pos]
    out = [EstimateResult("pcem", {i: rates[q] for i, q in links}, dict(zip(ids, x)),
                          {i: flags[q] for i, q in links}, its, report, 0.0, converged=conv)
           for report, rates, x, flags, its, conv in zip(
               reports, _values(theta), _values(xi), _FLAG_NAMES[rank].tolist(),
               iterations.tolist(), converged.tolist())]
    return _timed(out, t0)


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
    m = len(net.order)
    per_tree = []
    for k in sorted(patterns.counts):
        tree = net.tree_by_id[k]
        rows = [(tuple(int(ch) for ch in bits), float(c))
                for bits, c in sorted(patterns.counts[k].items())]
        # every assignment of {0,1} to the tree's links, walked for every
        # distinct pattern, every sweep
        configs = list(itertools.product((1, 0), repeat=len(tree.order)))
        per_tree.append((rows, tree, [net.pos[i] for i in tree.order], configs))

    def estep(theta: list[float]):
        om1 = [0.0] * m
        om0 = [0.0] * m
        for rows, tree, net_pos, configs in per_tree:
            parent_of = tree.parent_pos
            leaf_pos = tree.leaf_pos
            rng_m = range(len(net_pos))
            for target, count in rows:
                hits: list[tuple[float, tuple[int, ...]]] = []
                total = 0.0
                for states in configs:
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

    return _em("nem", views, net, report, estep, t0, theta0, tol, max_iter,
               track_loglik, keep_history)


def mvwa(views: InternalView, net: GeneralNetwork,
         report: RegularityReport | None = None) -> EstimateResult:
    """Per-tree estimates combined by minimum-variance weighted averaging:
    mvwa_replicates on one dataset."""
    return mvwa_replicates([views], net, [report])[0]


def mvwa_replicates(views_list: list[InternalView], net: GeneralNetwork,
                    reports: list[RegularityReport | None]) -> list[EstimateResult]:
    """mvwa on each dataset's views and report (None: computed here).

    Each tree is estimated as le_xi would on a network of that tree alone,
    on its slice of the views and its positional form; every dataset's and
    tree's sets go to one _solve_interiors call, and regularity_by_position
    flags each tree's links on its own counts.  Links seen by several trees
    are averaged, in ascending tree id, with weights 1/variance from the
    exact diagonal observed information of the tree's likelihood; without a
    usable variance (boundary point, flat curvature) an estimate gets zero
    weight, and when no tree has one the link falls back to probe-count
    weights.  A result's iterations is the largest of its own trees'.  By
    the size rule, the solve, the finish and the average run per dataset
    (_solve_xi, _combine) or on all of them at once, one tree's datasets at
    a time (_solve_rows, _combine_rows).
    """
    t0 = time.perf_counter()
    reports = [regularity_report(v, net) if r is None else r
               for v, r in zip(views_list, reports)]
    observed = [views.tree_ids() for views in views_list]
    if _on_arrays(sum(len(net.tree_by_id[k].order) for ids in observed for k in ids)):
        combined, iterations = _combine_rows(views_list, net, observed)
    else:
        per_view = [[(tree, *views.counts(tree)) for tree in map(net.tree_by_id.__getitem__, ids)]
                    for views, ids in zip(views_list, observed)]
        xis, its = _solve_xi([(tree, pass_fractions(n1, n0))
                              for per_tree in per_view for tree, n1, n0 in per_tree])
        ends = list(itertools.accumulate(map(len, per_view), initial=0))
        combined = [_combine(views, net, per_tree, xis[a:b])
                    for views, per_tree, a, b in zip(views_list, per_view, ends, ends[1:])]
        iterations = [max(its[a:b], default=0) for a, b in zip(ends, ends[1:])]
    out = [EstimateResult("mvwa", theta_hat, xi_hat, flags, its, report, 0.0)
           for report, (theta_hat, xi_hat, flags), its in zip(reports, combined, iterations)]
    return _timed(out, t0)


def _combine(views: InternalView, net: GeneralNetwork, per_tree, xis
             ) -> tuple[dict[int, float | None], dict[int, float | None], dict[int, str]]:
    """mvwa's theta_hat, xi_hat and flags on one dataset, from each tree's solved xi."""
    # link -> (tree id, estimate, variance, flag) per estimating tree, by tree id
    by_link: dict[int, list[tuple[int, float, float, str]]] = {i: [] for i in net.links}
    for (tree, n1, n0), xi in zip(per_tree, xis):
        theta, tree_flags = _finish(xi, tree, regularity_by_position(tree, n1, n0).flagged())
        variances = information_by_position([math.nan if v is None else v for v in theta],
                                            n1, n0, tree.parent_pos, tree.child_pos)
        for i, est, var, flag in zip(tree.order, theta, variances, tree_flags):
            if est is not None:
                by_link[i].append((tree.tree_id, est, var, flag))

    theta_hat: dict[int, float | None] = {}
    flags: dict[int, str] = {}
    for i in sorted(net.links):
        entries = by_link[i]
        if not entries:
            theta_hat[i], flags[i] = None, FLAG_NON_ESTIMABLE
            continue
        if len(entries) == 1:
            _, theta_hat[i], _, flags[i] = entries[0]
            continue
        usable = [(k, e, v, f) for k, e, v, f in entries
                  if math.isfinite(v) and v > 0.0]
        if usable:
            weights = [1.0 / v for _, _, v, _ in usable]
        else:
            usable = entries
            weights = [float(views.probes[k]) for k, _, _, _ in usable]
        # left to right, the order _combine_rows adds in
        num = left_sum(w * e for w, (_, e, _, _) in zip(weights, usable))
        theta_hat[i] = _clamp_mean(num / left_sum(weights))
        flags[i] = max((f for _, _, _, f in usable), key=_FLAG_RANK.__getitem__)
    return theta_hat, theta_to_xi(theta_hat, net), flags


def _combine_rows(views_list: list[InternalView], net: GeneralNetwork,
                  observed: list[list[int]]
                  ) -> tuple[list[tuple[dict[int, float | None], dict[int, float | None],
                                        dict[int, str]]], list[int]]:
    """_combine on every dataset at once, observed[d] listing dataset d's trees,
    with each dataset's largest solver iteration count.

    Per tree, count_rows, _solve_rows (one joint _solve_interiors call),
    then _finish_rows, regularity_rows and information_rows run on the
    (datasets x positions) arrays of the datasets that observed the tree.
    The average runs on (trees x datasets x links) arrays, links by ascending
    id: a tree without an entry adds exact zeros, and the trees add in
    ascending id, as _combine does.  xi_hat comes from xi_rows on net.
    """
    by_tree: dict[int, list[int]] = {}
    for d, ids in enumerate(observed):
        for k in ids:
            by_tree.setdefault(k, []).append(d)
    per_tree = [(t, tree, by_tree[tree.tree_id],
                 count_rows([views_list[d] for d in by_tree[tree.tree_id]], tree))
                for t, tree in enumerate(net.trees) if tree.tree_id in by_tree]
    xis, most = _solve_rows([(tree, _pass_rows(counts)) for _, tree, _, counts in per_tree])
    links = sorted(net.links)
    column = dict(zip(links, range(len(links))))
    shape = (len(net.trees), len(views_list), len(links))
    est, var, rank = np.full(shape, math.nan), np.full(shape, math.nan), np.full(shape, -1)
    probes = np.zeros(shape[:2] + (1,))
    iterations = np.zeros(len(views_list), np.int64)
    for (t, tree, ds, counts), xi, its in zip(per_tree, xis, most):
        n1, n0 = counts[:, 0], counts[:, 1]
        theta, flags = _finish_rows(xi, tree, regularity_rows(tree, n1, n0))
        at = np.ix_(ds, [column[i] for i in tree.order])
        est[t][at], rank[t][at] = theta, flags
        var[t][at] = information_rows(theta, n1, n0, tree)
        probes[t, ds, 0] = [views_list[d].probes[tree.tree_id] for d in ds]
        iterations[ds] = np.maximum(iterations[ds], its)

    present = ~np.isnan(est)
    usable = present & np.isfinite(var) & (var > 0.0)
    some = usable.any(axis=0)
    chosen = np.where(some, usable, present)
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.where(chosen, np.where(some, 1.0 / var, probes), 0.0)
        terms = weights * np.where(chosen, est, 0.0)
        total = num = 0.0
        for w, term in zip(weights, terms):
            total = total + w
            num = num + term
        mean = _clamp_mean(num / total, np.where)
    count = present.sum(axis=0)
    none = count == 0
    theta = np.where(none, math.nan, np.where(count == 1, np.fmax.reduce(est, axis=0), mean))
    on_net = np.empty((len(views_list), len(net.order)))
    on_net[:, net.id_pos] = theta
    xi = xi_rows(on_net, net.padded)[:, net.id_pos]
    flags = _FLAG_NAMES[np.where(none, 3, np.where(chosen, rank, -1).max(axis=0))].tolist()
    return [(dict(zip(links, th)), dict(zip(links, v)), dict(zip(links, fl)))
            for th, v, fl in zip(_values(theta), _values(xi), flags)], iterations.tolist()


def estimator(method: str):
    """The function a METHODS name selects, looked up when called so patches apply."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    return globals()[method.replace("-", "_")]
