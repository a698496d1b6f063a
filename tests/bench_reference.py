"""Reference grid runner: run_grid as it ran one replicate at a time.

Each replicate draws its true rates, simulates its own table, counts its
own views and runs each method on them alone, timing each method call.
run_grid batches the replicates of a cell and must give the same rows,
apart from runtime_ms.
"""

import time

import numpy as np

from losstomo.bench import ExperimentReport, _data_seed, _theta_seed, mse
from losstomo.estimators import estimator, nem
from losstomo.simulator import SimConfig, sample_theta, simulate
from losstomo.statistics import internal_views


def _run_methods(net, cell, replicate, master_seed):
    rng = np.random.Generator(np.random.Philox(seed=_theta_seed(master_seed, cell, replicate)))
    theta_true = sample_theta(cell.beta_a, cell.beta_b, net, rng)
    cfg = SimConfig(net, cell.probes, _data_seed(master_seed, cell, replicate),
                    replicate=replicate)
    patterns = simulate(cfg, theta_true)
    views, report = internal_views(patterns, net)
    out = []
    for method in cell.methods:
        row = {"setting": cell.setting, "beta_a": cell.beta_a, "beta_b": cell.beta_b,
               "n": cell.probes, "replicate": replicate, "method": method}
        t0 = time.perf_counter()
        try:
            res = (nem(patterns, net) if method == "nem"
                   else estimator(method)(views, net, report=report))
            row.update(mse=mse(res.theta_hat, theta_true), iterations=res.iterations,
                       violations=res.violations())
        except ValueError as exc:
            row.update(mse=None, iterations=0, violations=-1, error=str(exc))
        row["runtime_ms"] = (time.perf_counter() - t0) * 1e3
        out.append(row)
    return out


def run_grid_reference(grid, net) -> ExperimentReport:
    """Every (cell, replicate, method) run on its own, rows in run_grid's order."""
    rows = [row for cell in grid.cells() for rep in range(cell.replicates)
            for row in _run_methods(net, cell, rep, grid.master_seed)]
    rows.sort(key=lambda r: (r["setting"], r["n"], r["replicate"], r["method"]))
    return ExperimentReport(rows)
