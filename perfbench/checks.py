"""Output checks, computed apart from the program.

Internal views are counted here from the data file by a bitwise OR over
receivers; CSVs are read with the csv module.  Every check returns an error
message, or None when the output passes.  Nothing here imports losstomo.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from .inputs import HubNetwork

ESTIMATE_COLUMNS = ["link_id", "theta_hat", "xi_hat", "flag", "estimable"]
BENCH_COLUMNS = ["setting", "beta_a", "beta_b", "n", "replicate", "method", "mse",
                 "runtime_ms", "iterations", "violations"]
FLAGS = {"ok", "boundary_projected", "regularity_violated", "non_estimable"}
EQUATION_TOL = 1e-9
# An estimator's MSE may exceed the mean binomial variance theta(1-theta)/N by
# this factor: links are observed through their subtrees, never directly, so
# the MLE's variance is a few times the binomial one; an estimate that is off
# by the rate's own size is far beyond it.
MSE_VARIANCE_FACTOR = 10.0


def tree_split(probes: int, tree_ids) -> dict[int, int]:
    """Probes per tree: an even split, the remainder to the lowest tree ids."""
    ids = sorted(tree_ids)
    base, extra = divmod(probes, len(ids))
    return {k: base + (1 if pos < extra else 0) for pos, k in enumerate(ids)}


def read_data(text: str) -> tuple[dict, dict, dict]:
    """Probes, receivers and patterns per tree from a data file."""
    probes, receivers, patterns = {}, {}, {}
    for raw in text.splitlines():
        tok = raw.split("#", 1)[0].split()
        if not tok or tok[0] == "data":
            continue
        k = int(tok[1])
        if tok[0] == "probes":
            probes[k] = int(tok[2])
        elif tok[0] == "receivers":
            receivers[k] = [int(x) for x in tok[3:]]
        elif tok[0] == "pattern":
            patterns.setdefault(k, []).append((tok[2], int(tok[3])))
        else:
            raise ValueError(f"unknown line {raw!r}")
    return probes, receivers, patterns


def check_data(text: str, net: HubNetwork, probes: int) -> str | None:
    try:
        got_probes, receivers, patterns = read_data(text)
    except (ValueError, IndexError) as exc:
        return f"data file unreadable: {exc}"
    if got_probes != tree_split(probes, net.trees):
        return f"probes per tree {got_probes}"
    for k in net.trees:
        if receivers.get(k) != net.leaves(k):
            return f"tree {k}: receivers differ from the leaf links"
        rows = patterns.get(k, [])
        width = len(net.leaves(k))
        if any(len(b) != width or set(b) - {"0", "1"} or c < 1 for b, c in rows):
            return f"tree {k}: malformed pattern"
        if len({b for b, _ in rows}) != len(rows):
            return f"tree {k}: duplicate pattern"
        if sum(c for _, c in rows) != got_probes[k]:
            return f"tree {k}: pattern counts do not sum to the probes"
    return None


def count_views(text: str, net: HubNetwork) -> tuple[dict[int, int], dict[int, int]]:
    """Aggregated internal views {n1, n0} per link.

    n1 of a link in one tree counts the probes some receiver below the link
    saw: the OR of the receiver columns under it, weighted by pattern counts.
    """
    probes, receivers, patterns = read_data(text)
    n1 = {i: 0 for i in net.links}
    n0 = {i: 0 for i in net.links}
    for k, (root, ids) in net.trees.items():
        rows = patterns.get(k, [])
        counts = np.array([c for _, c in rows], dtype=np.int64)
        bits = (np.frombuffer("".join(b for b, _ in rows).encode(), dtype=np.uint8)
                .reshape(len(rows), len(receivers[k])) == ord("1"))
        column = {leaf: q for q, leaf in enumerate(receivers[k])}
        seen: dict[int, np.ndarray] = {}

        def below(i: int) -> np.ndarray:
            if i not in seen:
                kids = net.children[i]
                if kids:
                    acc = below(kids[0]).copy()
                    for c in kids[1:]:
                        acc |= below(c)
                    seen[i] = acc
                else:
                    seen[i] = bits[:, column[i]]
            return seen[i]

        tree_n1 = {i: int(counts[below(i)].sum()) for i in ids}
        parent = net.tree_parent[k]
        for i in ids:
            n1[i] += tree_n1[i]
            n0[i] += (probes[k] if i == root else tree_n1[parent[i]]) - tree_n1[i]
    return n1, n0


def read_estimate(text: str) -> dict[int, tuple[float | None, float | None, str]]:
    """Rows of an estimate CSV; raises ValueError on any malformed row."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ESTIMATE_COLUMNS:
        raise ValueError(f"header {rows[:1]}")
    out = {}
    for row in rows[1:]:
        if len(row) != len(ESTIMATE_COLUMNS):
            raise ValueError(f"row {row} has {len(row)} fields")
        link, theta, xi, flag, estimable = row
        if flag not in FLAGS or estimable not in ("yes", "no"):
            raise ValueError(f"row {row}: illegal flag")
        if (estimable == "yes") != (theta != "") or (theta == "") != (xi == ""):
            raise ValueError(f"row {row}: estimable disagrees with the values")
        if int(link) in out:
            raise ValueError(f"duplicate link {link}")
        out[int(link)] = (float(theta) if theta else None, float(xi) if xi else None, flag)
    return out


def check_estimate(text: str, net: HubNetwork) -> str | None:
    """One row per link, legal flags, rates in [0, 1], xi consistent with theta.

    On links flagged ok, xi_hat = theta_hat + (1 - theta_hat) * prod(children's
    xi_hat), with xi_hat = theta_hat on a leaf.
    """
    try:
        est = read_estimate(text)
    except ValueError as exc:
        return f"malformed estimate CSV: {exc}"
    if set(est) != set(net.links):
        return "rows do not match the links"
    for i, (theta, xi, flag) in est.items():
        if theta is None:
            continue
        if not (0.0 <= theta <= 1.0 and 0.0 <= xi <= 1.0):
            return f"link {i}: rate outside [0, 1]"
        if flag != "ok":
            continue
        kids = [est[c][1] for c in net.children[i]]
        if any(v is None for v in kids):
            return f"link {i}: ok with a non-estimable child"
        want = theta + (1.0 - theta) * math.prod(kids) if kids else theta
        if abs(xi - want) > EQUATION_TOL:
            return f"link {i}: xi_hat {xi!r} but theta_hat implies {want!r}"
    return None


def check_likelihood_equations(text: str, net: HubNetwork, n1: dict[int, int],
                               n0: dict[int, int]) -> str | None:
    """le-xi's solution on links flagged ok, from views counted here.

    With r = n1 / (n1 + n0): a root link has xi = 1 - r; a link in a brother
    set has xi_j = 1 - r_j + r_j * prod(xi of all its brothers).
    """
    try:
        est = read_estimate(text)
    except ValueError as exc:
        return f"malformed estimate CSV: {exc}"
    r = {i: n1[i] / (n1[i] + n0[i]) for i in net.links if n1[i] + n0[i] > 0}
    for i in net.roots:
        if est[i][2] == "ok" and abs(est[i][1] - (1.0 - r[i])) > EQUATION_TOL:
            return f"root link {i}: xi_hat {est[i][1]!r}, 1 - r = {1.0 - r[i]!r}"
    for brothers in net.brother_sets():
        ok = [j for j in brothers if est[j][2] == "ok"]
        if not ok:
            continue
        xis = [est[j][1] for j in brothers]
        if any(v is None for v in xis):
            return f"brothers {brothers}: ok next to a non-estimable brother"
        prod = math.prod(xis)
        for j in ok:
            want = 1.0 - r[j] + r[j] * prod
            if abs(est[j][1] - want) > EQUATION_TOL:
                return f"link {j}: xi_hat {est[j][1]!r}, equation gives {want!r}"
    return None


def binomial_variance(theta: dict[int, float], n1: dict[int, int],
                      n0: dict[int, int]) -> float:
    """Mean over informed links of theta(1 - theta) / N, N the probes at the parent."""
    terms = [theta[i] * (1.0 - theta[i]) / (n1[i] + n0[i])
             for i in theta if n1[i] + n0[i] > 0]
    return sum(terms) / len(terms)


def check_mse(text: str, theta: dict[int, float], variance: float) -> str | None:
    try:
        est = read_estimate(text)
    except ValueError as exc:
        return f"malformed estimate CSV: {exc}"
    errs = [(est[i][0] - theta[i]) ** 2 for i in theta if est[i][0] is not None]
    if not errs:
        return "no estimable links"
    mse = sum(errs) / len(errs)
    if not mse <= MSE_VARIANCE_FACTOR * variance:
        return (f"MSE {mse:.3e} above {MSE_VARIANCE_FACTOR:g} x binomial "
                f"variance {variance:.3e}")
    return None


def check_bench_csv(text: str, rows_expected: int) -> str | None:
    """The bench CSV reads back with the csv module: a header and full rows."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != BENCH_COLUMNS:
        return f"header {rows[:1]}"
    if len(rows) - 1 != rows_expected:
        return f"{len(rows) - 1} rows, expected {rows_expected}"
    for row in rows[1:]:
        if len(row) != len(BENCH_COLUMNS):
            return (f"row {row} has {len(row)} fields under a "
                    f"{len(BENCH_COLUMNS)}-column header")
    return None


def read_summary(text: str) -> dict[tuple[str, int, str], float]:
    """(setting, n, method) -> mean MSE from the bench summary table."""
    lines = text.strip().splitlines()
    out = {}
    for line in lines[1:]:
        setting, n, method, mean_mse = line.split()[:4]
        out[(setting, int(n), method)] = float(mean_mse)
    return out


def beta_setting(a: float, b: float) -> str:
    return f"Beta({a:g},{b:g})"


def check_summary_cells(summary: dict, cells: list[tuple[float, float, int, str]],
                        trees: int) -> str | None:
    """One summary line per cell and method, each mean MSE within the bound.

    The bound uses the mean binomial variance E[theta(1 - theta)] / (n / trees)
    under the cell's Beta(a, b) rates.
    """
    want = {(beta_setting(a, b), n, m) for a, b, n, m in cells}
    if set(summary) != want:
        return f"summary has cells {sorted(set(summary) ^ want)[:3]} unexpected or missing"
    for a, b, n, m in cells:
        mse = summary[(beta_setting(a, b), n, m)]
        variance = a * b / ((a + b) * (a + b + 1.0)) / (n / trees)
        if not mse <= MSE_VARIANCE_FACTOR * variance:
            return (f"{beta_setting(a, b)} n={n} {m}: mean MSE {mse:.3e} above "
                    f"{MSE_VARIANCE_FACTOR:g} x binomial variance {variance:.3e}")
    return None


def check_mse_falls(summary: dict, settings, probes, methods) -> str | None:
    """Mean MSE at the largest n is below that at the smallest, per setting and method."""
    for a, b in settings:
        for m in methods:
            lo = summary.get((beta_setting(a, b), min(probes), m), math.nan)
            hi = summary.get((beta_setting(a, b), max(probes), m), math.nan)
            if not hi < lo:
                return (f"{beta_setting(a, b)} {m}: MSE {lo:.3e} at n={min(probes)}, "
                        f"{hi:.3e} at n={max(probes)}")
    return None


def check_mvwa_worse(summary: dict, settings, probes) -> str | None:
    """mvwa's mean MSE is at or above le-xi's in most cells."""
    cells = [(beta_setting(a, b), n) for a, b in settings for n in probes]
    worse = sum(summary.get((s, n, "mvwa"), math.nan)
                >= summary.get((s, n, "le-xi"), math.nan) for s, n in cells)
    if not 2 * worse > len(cells):
        return f"mvwa at or above le-xi in only {worse} of {len(cells)} cells"
    return None
