"""Monte Carlo benchmark: methods x rate settings x sample sizes x replicates.

Per setting and replicate, one true rate vector is drawn and reused for
every sample size, so MSE comparisons across sizes are paired.  All seeds
derive from the master seed plus the cell coordinates; reruns are
byte-identical apart from the runtime column.
A cell's replicates are simulated and counted together, in batches of at
most BLOCK_PROBES probes per tree.  nem, the one reader of a pattern table,
runs on each batch's tables as they are made; the batches' views, reports
and true rates are pooled across cells up to POOL_POSITIONS positions, and
le-xi, pcem and mvwa run once on each pool, each row timed at an equal
share of that call.  The rows are those of running each alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .estimators import (METHODS, estimator, le_xi_replicates, left_sum, mvwa_replicates, nem,
                         pcem_replicates)
from .simulator import BLOCK_PROBES, SimConfig, sample_theta, simulate_replicates
from .statistics import internal_views_replicates
from .topology import GeneralNetwork, token_lines

CSV_HEADER = "setting,beta_a,beta_b,n,replicate,method,mse,runtime_ms,iterations,violations"

DEFAULT_METHODS = tuple(m for m in METHODS if m != "nem")

# A pool closes before the batch that would take it past this many positions
# (datasets times the trees' positions): about 73 datasets of the 48-link
# layered49 network, four times estimators.ARRAY_MIN_POSITIONS, so its pooled
# calls take the array path.  Pooling the whole benchmark grid was no faster
# in measurement and held about 3 MB more.
POOL_POSITIONS = 4096


class GridError(ValueError):
    """Raised for malformed grid files."""


@dataclass(frozen=True)
class GridCell:
    beta_a: float
    beta_b: float
    probes: int
    replicates: int
    methods: tuple[str, ...]

    def check(self) -> None:
        """Raise GridError unless the cell can be run."""
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise GridError(f"unknown methods {bad}")
        if not all(math.isfinite(v) and v > 0 for v in (self.beta_a, self.beta_b)):
            raise GridError(f"Beta parameters must be finite and > 0, got "
                            f"({self.beta_a:g}, {self.beta_b:g})")
        if self.probes < 1:
            raise GridError(f"probe count must be >= 1, got {self.probes}")
        if self.replicates < 1:
            raise GridError(f"replicates must be >= 1, got {self.replicates}")

    @property
    def setting(self) -> str:
        return f"Beta({self.beta_a:g},{self.beta_b:g})"


def _claim_runs(runs: dict[tuple[str, int, str], str], cell: GridCell, where: str) -> None:
    """Note where cell's runs are declared; GridError if the CSV would print one twice."""
    for m in cell.methods:
        key = (cell.setting, cell.probes, m)
        if key in runs:
            raise GridError(f"{where}: {m} at {cell.setting}, n={cell.probes} "
                            f"already runs on {runs[key]}")
        runs[key] = where


class ExperimentGrid:
    """The cells a benchmark runs, in order, and the master seed.

    The constructor crosses Beta settings with probe counts, settings
    outermost; parse_grid lists its cells through from_cells.
    """

    def __init__(self, beta_settings: list[tuple[float, float]], probe_counts: list[int],
                 replicates: int = 100, methods: tuple[str, ...] = DEFAULT_METHODS,
                 master_seed: int = 0):
        cells = [GridCell(a, b, n, replicates, tuple(methods))
                 for a, b in beta_settings for n in probe_counts]
        if not cells:
            raise GridError("grid needs at least one setting and one probe count")
        runs: dict[tuple[str, int, str], str] = {}
        for q, cell in enumerate(cells, start=1):
            cell.check()
            _claim_runs(runs, cell, f"cell {q}")
        self._cells = cells
        self.master_seed = master_seed

    @classmethod
    def from_cells(cls, cells: list[GridCell], master_seed: int = 0) -> ExperimentGrid:
        """A grid of the given cells, in order; the caller has checked each one."""
        grid = cls.__new__(cls)
        grid._cells, grid.master_seed = list(cells), master_seed
        return grid

    def cells(self) -> list[GridCell]:
        return list(self._cells)


def parse_grid(text: str, master_seed: int = 0) -> ExperimentGrid:
    """Parse grid files: one 'cell <a> <b> <n> <replicates> <methods>' per line."""
    cells = []
    runs: dict[tuple[str, int, str], str] = {}
    for lineno, _, tok in token_lines(enumerate(text.splitlines(), start=1)):
        if tok[0] != "cell" or len(tok) != 6:
            raise GridError(
                f"line {lineno}: expected 'cell <beta_a> <beta_b> <n> <reps> <methods>'")
        try:
            a, b = float(tok[1]), float(tok[2])
            n, reps = int(tok[3]), int(tok[4])
        except ValueError:
            raise GridError(f"line {lineno}: malformed number") from None
        cell = GridCell(a, b, n, reps, tuple(tok[5].split(",")))
        try:
            cell.check()
        except GridError as exc:
            raise GridError(f"line {lineno}: {exc}") from None
        _claim_runs(runs, cell, f"line {lineno}")
        cells.append(cell)
    if not cells:
        raise GridError("grid file declares no cells")
    return ExperimentGrid.from_cells(cells, master_seed)


@dataclass
class ExperimentReport:
    rows: list[dict]

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for row in self.rows:
            mse_txt = "" if row["mse"] is None else repr(row["mse"])
            lines.append(
                f"{row['setting']},{row['beta_a']:g},{row['beta_b']:g},{row['n']},"
                f"{row['replicate']},{row['method']},{mse_txt},"
                f"{row['runtime_ms']:.3f},{row['iterations']},{row['violations']}")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        cells: dict[tuple, list[dict]] = {}
        for row in self.rows:
            cells.setdefault((row["setting"], row["n"], row["method"]), []).append(row)
        lines = [f"{'setting':<18}{'n':>6}{'method':>8}{'mean_mse':>14}"
                 f"{'mean_ms':>10}{'violations':>12}"]
        for key in sorted(cells, key=lambda k: (k[0], k[1], k[2])):
            rows = cells[key]
            mses = [r["mse"] for r in rows if r["mse"] is not None]
            mean_mse = left_sum(mses) / len(mses) if mses else float("nan")
            mean_ms = sum(r["runtime_ms"] for r in rows) / len(rows)
            viol = sum(r["violations"] for r in rows if "error" not in r)
            lines.append(f"{key[0]:<18}{key[1]:>6}{key[2]:>8}{mean_mse:>14.4e}"
                         f"{mean_ms:>10.2f}{viol:>12}")
        return "\n".join(lines)


def mse(theta_hat: dict[int, float | None], theta_true: dict[int, float]) -> float:
    """Mean squared error over the links estimated on both sides."""
    common = [i for i, v in theta_hat.items() if v is not None and i in theta_true]
    if not common:
        raise ValueError("no estimable links in common")
    return left_sum((theta_hat[i] - theta_true[i]) ** 2 for i in common) / len(common)


def _theta_seed(master: int, cell: GridCell, replicate: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        (master, int(cell.beta_a * 1e6), int(cell.beta_b * 1e6), replicate))


def _data_seed(master: int, cell: GridCell, replicate: int) -> int:
    ss = np.random.SeedSequence(
        (master, int(cell.beta_a * 1e6), int(cell.beta_b * 1e6), cell.probes, replicate))
    return int(ss.generate_state(1)[0])


_BATCHED = {"le-xi": le_xi_replicates, "pcem": pcem_replicates, "mvwa": mvwa_replicates}


def _row(cell: GridCell, rep: int, method: str, truth: dict[int, float], estimate) -> dict:
    """The CSV row of one dataset and method.  estimate() returns its result,
    and the row takes the result's wall_time.  When estimate() raises
    ValueError, the row is an error row timed from the call; when only mse
    raises, the error row keeps the result's wall_time."""
    row = {"setting": cell.setting, "beta_a": cell.beta_a, "beta_b": cell.beta_b,
           "n": cell.probes, "replicate": rep, "method": method}
    res = None
    t0 = time.perf_counter()
    try:
        res = estimate()
        row.update(mse=mse(res.theta_hat, truth), iterations=res.iterations,
                   violations=res.violations())
    except ValueError as exc:
        row.update(mse=None, iterations=0, violations=-1, error=str(exc))
    row["runtime_ms"] = (time.perf_counter() - t0 if res is None else res.wall_time) * 1e3
    return row


def _pool_rows(net: GeneralNetwork, pool: list[tuple]) -> list[dict]:
    """One row per _BATCHED method (le-xi, pcem, mvwa) of each pooled (cell,
    replicate, (views, report), truth) dataset whose cell lists it.  Each
    method runs on all of its datasets in one _BATCHED call, whose results
    share its time equally; a call that raises is rerun one dataset at a
    time, so each error row is its own."""
    rows = []
    for method, batched in _BATCHED.items():
        datasets = [d for d in pool if method in d[0].methods]
        if not datasets:
            continue
        try:
            results = batched([v for _, _, (v, _), _ in datasets], net,
                              [r for _, _, (_, r), _ in datasets])
        except ValueError:
            results = [None] * len(datasets)
        for (cell, rep, (views, report), truth), done in zip(datasets, results):
            rows.append(_row(cell, rep, method, truth, lambda: done or estimator(method)(
                views, net, report=report)))
    return rows


def run_grid(grid: ExperimentGrid, net: GeneralNetwork,
             workers: int = 1) -> ExperimentReport:
    """Run every (cell, replicate, method) and return ordered rows.

    A cell's replicates run in batches of at most BLOCK_PROBES probes per
    tree in all, or of one replicate whose tree alone gets more, so a
    batch's draws, tables and views stay within one block per tree.  nem
    runs on each batch's tables as they are made, and no table outlives its
    batch.  The views, reports and true rates of the batches whose cell lists
    le-xi, pcem or mvwa are pooled across cells until the next such batch
    would take the pool past POOL_POSITIONS positions, counted as datasets
    times the sum of the trees' positions (a batch past it alone is a pool of
    its own); then each of those methods runs on the pool's datasets whose
    cell lists it (_pool_rows).
    workers is accepted and ignored: the replicates run on the calling thread.
    """
    rows, pool = [], []
    size = sum(len(tree.order) for tree in net.trees)   # positions per dataset
    for cell in grid.cells():
        tree_probes = -(-cell.probes // len(net.trees))   # the first tree's share
        step = max(1, BLOCK_PROBES // max(tree_probes, 1))
        pooled = any(m in _BATCHED for m in cell.methods)   # not nem alone
        for start in range(0, cell.replicates, step):
            reps = range(start, min(start + step, cell.replicates))
            if pooled and (len(pool) + len(reps)) * size > POOL_POSITIONS:
                rows += _pool_rows(net, pool)
                pool = []
            truths = [sample_theta(cell.beta_a, cell.beta_b, net, np.random.Generator(
                np.random.Philox(seed=_theta_seed(grid.master_seed, cell, rep)))) for rep in reps]
            tables = simulate_replicates(
                [SimConfig(net, cell.probes, _data_seed(grid.master_seed, cell, rep),
                           replicate=rep) for rep in reps], truths)
            if "nem" in cell.methods:
                rows += [_row(cell, rep, "nem", truth, lambda: nem(table, net))
                         for rep, table, truth in zip(reps, tables, truths)]
            if pooled:
                pool += zip([cell] * len(reps), reps, internal_views_replicates(tables, net),
                            truths)
            # only the pool may keep a batch's views alive while the next one is drawn
            del truths, tables
    rows += _pool_rows(net, pool)
    rows.sort(key=lambda r: (r["setting"], r["n"], r["replicate"], r["method"]))
    return ExperimentReport(rows)
