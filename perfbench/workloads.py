"""What one pass of each workload runs through `losstomo.cli.main`, and its checks.

A pass is a fixed sequence of user commands on files the benchmark wrote:
`simulate` a data file from known rates, `estimate` it with each method,
then `bench` a replicated grid.  Every pass of a run repeats the same
commands on the same inputs and the same checks, so each run attempts
whole rounds of identical operations.
"""

from __future__ import annotations

import contextlib
import functools
import io
from dataclasses import dataclass
from pathlib import Path

from . import checks, inputs

METHODS = ("le-xi", "pcem", "mvwa")
ORDER = ("simulate", "estimate_le_xi", "estimate_pcem", "estimate_mvwa", "bench")


@dataclass(frozen=True)
class Workload:
    name: str
    shape: inputs.HubShape | None  # generated hub network, or None for layered49
    beta: tuple[float, float]     # rates of the simulate/estimate files
    probes: int                   # probes of the simulated data file
    grid: tuple[tuple[float, float, int, int], ...]   # bench cells (a, b, n, replicates)
    repeats: int                  # simulate/estimate commands per timed sample
    traced_passes: int            # enough traced work to time sub-millisecond calls

    @property
    def grid_datasets(self) -> int:
        return sum(reps for *_, reps in self.grid)

    def repeats_of(self, key: str) -> int:
        """Commands per timed sample: `bench` is long enough on its own."""
        return 1 if key == "bench" else self.repeats


GRID_REPLICATES = 10

WORKLOADS = {w.name: w for w in (
    Workload("grid-layered49", None, (1, 100), 2000,
             tuple((a, b, n, GRID_REPLICATES)
                   for a, b in inputs.GRID_SETTINGS for n in inputs.GRID_PROBES), 10, 3),
    Workload("files-multitree-lossy", inputs.HubShape(), (1, 100), 8000,
             ((1, 100, 1000, 1),), 1, 1),
    Workload("files-multitree-quiet", inputs.HubShape(), (1, 1000), 80000,
             ((1, 1000, 1000, 3),), 1, 1),
)}


class Pass:
    """The files and commands of one workload, written once per run."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.w = workload
        workdir.mkdir(parents=True, exist_ok=True)
        if workload.shape is not None:
            self.net = inputs.hub_network(seed, workload.shape)
            topo_text = self.net.topology_text()
        else:
            topo_text = inputs.LAYERED49.read_text(encoding="utf-8")
            self.net = inputs.parse_topology_text(topo_text)
        self.theta = inputs.true_rates(seed, self.net.links, *workload.beta)
        self.topology = workdir / "network.topo"
        self.topology.write_text(topo_text, encoding="utf-8")
        rates = workdir / "truth.rates"
        rates.write_text(inputs.rates_text(self.theta), encoding="utf-8")
        grid = workdir / "grid.txt"
        grid.write_text("".join(
            f"cell {a:g} {b:g} {n} {reps} {','.join(METHODS)}\n"
            for a, b, n, reps in workload.grid), encoding="utf-8")
        self.data = workdir / "probes.data"
        self.csv = {m: workdir / f"{m}.csv" for m in METHODS}
        self.bench_csv = workdir / "bench.csv"
        self.bench_stdout = ""
        topo = str(self.topology)
        self.commands = {
            "simulate": ["simulate", "--topology", topo, "--theta", str(rates),
                         "--probes", str(workload.probes), "--seed", str(seed),
                         "--out", str(self.data)],
            **{f"estimate_{m.replace('-', '_')}": [
                "estimate", "--topology", topo, "--data", str(self.data),
                "--method", m, "--out", str(self.csv[m])] for m in METHODS},
            "bench": ["bench", "--topology", topo, "--grid", str(grid),
                      "--out", str(self.bench_csv), "--seed", str(seed)],
        }

    def run_command(self, key: str):
        """Run one user command in-process; raises if it does not exit 0."""
        from losstomo import cli   # looked up per call, so a tracer's wrapper is seen
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.commands[key])
        if code != 0:
            raise RuntimeError(f"losstomo {self.commands[key][0]} exited {code}")
        if key == "bench":
            self.bench_stdout = out.getvalue()

    def check(self) -> list[tuple[str, str | None]]:
        """(check name, error or None) for the outputs of the last pass.

        A check that raises on a malformed output counts as failed.
        """
        net, w = self.net, self.w
        data = self.data.read_text(encoding="utf-8")
        csvs = {m: self.csv[m].read_text(encoding="utf-8") for m in METHODS}
        bench_csv = self.bench_csv.read_text(encoding="utf-8")

        @functools.cache
        def views():
            return checks.count_views(data, net)

        def variance():
            return checks.binomial_variance(self.theta, *views())

        todo = [("data", lambda: checks.check_data(data, net, w.probes))]
        for m in METHODS:
            todo.append((f"{m}.csv", lambda m=m: checks.check_estimate(csvs[m], net)))
            todo.append((f"{m}.mse", lambda m=m: checks.check_mse(
                csvs[m], self.theta, variance())))
        todo.append(("le-xi.equations", lambda: checks.check_likelihood_equations(
            csvs["le-xi"], net, *views())))
        todo.append(("bench.csv", lambda: checks.check_bench_csv(
            bench_csv, w.grid_datasets * len(METHODS))))
        cells = [(a, b, n, m) for a, b, n, _ in w.grid for m in METHODS]
        todo.append(("bench.summary", lambda: checks.check_summary_cells(
            checks.read_summary(self.bench_stdout), cells, len(net.trees))))
        settings = sorted({(a, b) for a, b, _, _ in w.grid})
        probes = sorted({n for _, _, n, _ in w.grid})
        if len(probes) > 1:
            todo.append(("bench.mse_falls", lambda: checks.check_mse_falls(
                checks.read_summary(self.bench_stdout), settings, probes, METHODS)))
            todo.append(("bench.mvwa_at_or_above_le_xi", lambda: checks.check_mvwa_worse(
                checks.read_summary(self.bench_stdout), settings, probes)))
        results = []
        for name, fn in todo:
            try:
                results.append((name, fn()))
            except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
                results.append((name, f"{type(exc).__name__}: {exc}"))
        return results
