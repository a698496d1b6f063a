import argparse
import math
import random
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import bench_reference
from bench_reference import run_grid_reference
from losstomo import bench, cli, estimators, fixtures
from losstomo.bench import (ExperimentGrid, GridCell, GridError, mse, parse_grid,
                            run_grid)
from losstomo.cli import main
from losstomo.estimators import BATCH_MIN_SETS, le_xi
from losstomo.simulator import BLOCK_PROBES, SimConfig, simulate
from losstomo.statistics import PatternTable, internal_views
from losstomo.topology import parse_topology, serialize_topology

STAR_DATA = """\
data star-fixture
probes 1 5
receivers 1 : 2 3
pattern 1 11 2
pattern 1 10 1
pattern 1 01 1
pattern 1 00 1
"""


@pytest.fixture
def star_files(tmp_path):
    topo = tmp_path / "star3.topo"
    topo.write_text(serialize_topology(fixtures.star3()), encoding="utf-8")
    data = tmp_path / "star3.data"
    data.write_text(STAR_DATA, encoding="utf-8")
    return topo, data


class TestMse:
    def test_identical_vectors(self):
        assert mse({1: 0.2, 2: 0.4}, {1: 0.2, 2: 0.4}) == 0.0

    def test_single_link(self):
        assert mse({1: 0.11}, {1: 0.10}) == pytest.approx(1e-4)

    def test_matches_second_implementation(self):
        rng = random.Random(0)
        est = {i: rng.random() for i in range(20)}
        truth = {i: rng.random() for i in range(20)}
        alt = float(np.mean([(est[i] - truth[i]) ** 2 for i in sorted(est)]))
        assert mse(est, truth) == pytest.approx(alt, rel=1e-12)

    def test_skips_missing_and_rejects_disjoint(self):
        assert mse({1: None, 2: 0.3}, {1: 0.1, 2: 0.3}) == 0.0
        with pytest.raises(ValueError):
            mse({1: None}, {1: 0.1})
        with pytest.raises(ValueError):
            mse({1: 0.5}, {2: 0.5})


class TestGrid:
    def test_parse_grid_cells(self):
        grid = parse_grid("cell 1 100 50 3 le-xi,pcem\ncell 2 1000 100 2 mvwa\n")
        cells = grid.cells()
        assert cells[0] == GridCell(1.0, 100.0, 50, 3, ("le-xi", "pcem"))
        assert cells[1].methods == ("mvwa",)

    @pytest.mark.parametrize("text", [
        "", "cell 1 100 50 3\n", "cell one 100 50 3 pcem\n",
        "cell 1 100 50 3 bogus\n", "row 1 100 50 3 pcem\n",
        "cell 1 100 50 0 le-xi\n", "cell 1 100 50 -3 le-xi\n", "cell 1 100 0 2 le-xi\n",
        "cell 0 100 50 2 le-xi\n", "cell nan 100 50 2 le-xi\n", "cell 1 inf 50 2 le-xi\n",
        "cell 1 -5 50 2 le-xi\n", "cell 1 100 50 2 le-xi\ncell 1 100 50 0 le-xi\n",
        "cell 1 100 50 2 le-xi,le-xi\n", "cell 1 100 50 2 le-xi\ncell 1 100 50 3 pcem,le-xi\n",
        "cell 1 100 50 1 le-xi\ncell 1.0000001 100 50 1 le-xi\n",
    ])
    def test_parse_grid_errors(self, text):
        with pytest.raises(GridError):
            parse_grid(text)

    def test_bad_cell_names_its_line(self):
        with pytest.raises(GridError, match="line 3: probe count"):
            parse_grid("cell 1 100 50 2 le-xi\n\ncell 1 100 0 2 le-xi\n")
        with pytest.raises(GridError, match="replicates"):
            ExperimentGrid([(1, 100)], [50], replicates=0)
        with pytest.raises(GridError, match="Beta"):
            ExperimentGrid([(math.nan, 100)], [50])

    def test_duplicate_runs_name_their_line(self):
        with pytest.raises(GridError, match="line 1: le-xi at Beta.1,100., n=50 "
                                            "already runs on line 1"):
            parse_grid("cell 1 100 50 2 le-xi,pcem,le-xi\n")
        with pytest.raises(GridError, match="line 3: pcem .* already runs on line 1"):
            parse_grid("cell 1 100 50 2 le-xi,pcem\ncell 1 100 100 2 pcem\n"
                       "cell 1.0 100 50 5 mvwa,pcem\n")
        grid = parse_grid("cell 1 100 50 2 le-xi\ncell 1 100 50 2 pcem\n")
        assert [c.methods for c in grid.cells()] == [("le-xi",), ("pcem",)]

    def test_product_grid_rejects_repeated_runs(self):
        with pytest.raises(GridError, match="cell 2: le-xi at Beta.1,100., n=50 "
                                            "already runs on cell 1"):
            ExperimentGrid([(1, 100), (1, 100)], [50], replicates=1, methods=("le-xi",))
        with pytest.raises(GridError, match="cell 3: pcem .* already runs on cell 1"):
            ExperimentGrid([(1, 100), (1.0000001, 100)], [50, 100], methods=("pcem",))
        with pytest.raises(GridError, match="cell 2: .* already runs on cell 1"):
            ExperimentGrid([(1, 100)], [50, 50], methods=("mvwa",))
        with pytest.raises(GridError, match="cell 1: le-xi .* already runs on cell 1"):
            ExperimentGrid([(1, 100)], [50], methods=("le-xi", "le-xi"))

    def test_product_grid_rejects_unknown_methods(self):
        # the one cell rule both constructors share
        with pytest.raises(GridError) as exc:
            ExperimentGrid([(1, 100)], [50], methods=("bogus",))
        assert str(exc.value) == "unknown methods ['bogus']"
        with pytest.raises(GridError) as exc:
            ExperimentGrid([], [50])
        assert str(exc.value) == "grid needs at least one setting and one probe count"

    def test_product_grid_expands(self):
        grid = ExperimentGrid([(1, 100), (1, 1000)], [50, 100], replicates=7,
                              methods=("le-xi",))
        cells = grid.cells()
        assert len(cells) == 4
        assert all(c.replicates == 7 for c in cells)

    def test_run_grid_rows_and_determinism(self):
        net = fixtures.twotree12()
        grid = parse_grid("cell 2 60 80 3 le-xi,pcem,mvwa\n", master_seed=5)
        rep_a = run_grid(grid, net)
        rep_b = run_grid(grid, net)
        assert len(rep_a.rows) == 9
        strip = lambda rows: [{k: v for k, v in r.items() if k != "runtime_ms"}
                              for r in rows]
        assert strip(rep_a.rows) == strip(rep_b.rows)
        csv = rep_a.to_csv()
        header, first = csv.splitlines()[:2]
        assert header == ("setting,beta_a,beta_b,n,replicate,method,"
                          "mse,runtime_ms,iterations,violations")
        assert first.startswith("Beta(2,60),2,60,80,0,")
        assert "mean_mse" in rep_a.summary()

    def test_run_grid_worker_invariance(self):
        net = fixtures.star3()
        grid = parse_grid("cell 1 30 40 4 le-xi\n", master_seed=9)
        strip = lambda rows: [{k: v for k, v in r.items() if k != "runtime_ms"}
                              for r in rows]
        assert strip(run_grid(grid, net).rows) == strip(run_grid(grid, net, workers=4).rows)

    def test_workers_start_no_threads(self, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        net = fixtures.layered49()
        patterns = simulate(SimConfig(net, 9000, seed=3),
                            {i: 0.05 for i in net.links}, workers=8)
        views, report = internal_views(patterns, net)
        assert le_xi(views, net, workers=8, report=report).estimable_links()
        grid = parse_grid("cell 1 30 40 2 le-xi,pcem,mvwa\n", master_seed=9)
        assert len(run_grid(grid, fixtures.star3(), workers=8).rows) == 6

    def test_nem_refused_above_guard_is_recorded(self):
        net = fixtures.layered49()
        grid = parse_grid("cell 1 50 20 1 nem\n", master_seed=1)
        rows = run_grid(grid, net).rows
        assert rows[0]["mse"] is None and rows[0]["violations"] == -1


def _strip(rows):
    return [{k: v for k, v in r.items() if k != "runtime_ms"} for r in rows]


# node 1 is reached by link 1 in tree 1 and by link 2 in tree 2, with child
# sets {3} and {3, 4}; the second text numbers the two children the other way
SPLIT_NODE = ("network split_node\nlink 1 10 1\nlink 2 20 1\nlink 3 1 2\nlink 4 1 3\n"
              "tree 1 1 : 1 3\ntree 2 2 : 2 3 4\n")
SPLIT_NODE_SWAPPED = ("network split_node\nlink 1 10 1\nlink 2 20 1\nlink 4 1 2\n"
                      "link 3 1 3\ntree 1 1 : 1 4\ntree 2 2 : 2 4 3\n")

REFERENCE_CASES = {
    # one probe: tree 2 of twotree12 gets none
    "twotree12-one-probe": (fixtures.twotree12, "cell 1 20 1 3 le-xi,pcem,mvwa,nem\n"),
    # star3's one tree gets a full block and a second of 5 rows
    "star3-two-blocks": (fixtures.star3, f"cell 1 100 {BLOCK_PROBES + 5} 2 le-xi,pcem,mvwa\n"),
    # 1500 probes per tree: two replicates per batch, seven in four batches
    "twotree12-four-batches": (fixtures.twotree12, "cell 2 60 3000 7 le-xi,pcem,mvwa\n"),
    # 3000 probes per tree: one replicate per batch
    "twotree12-lone-batches": (fixtures.twotree12, "cell 2 60 6000 3 le-xi,pcem,mvwa\n"),
    "star3-nem": (fixtures.star3, "cell 1 20 60 4 nem,le-xi,mvwa\n"),
    "twotree12-nem": (fixtures.twotree12, "cell 2 60 80 3 nem,pcem,mvwa\n"),
    "split-node": (lambda: parse_topology(SPLIT_NODE), "cell 1 10 400 4 le-xi,pcem,mvwa,nem\n"),
    "split-node-swapped": (lambda: parse_topology(SPLIT_NODE_SWAPPED),
                           "cell 1 10 400 4 le-xi,pcem,mvwa,nem\n"),
    # the same setting at two sizes, and a setting whose seeds equal Beta(1,100)'s
    "layered49-shared-settings": (fixtures.layered49, "cell 1 100 50 4 le-xi,mvwa\n"
                                  "cell 1 100 200 4 le-xi,pcem\n"
                                  "cell 1.0000001 100 80 4 le-xi,mvwa\n"),
}


def _record_sizes(monkeypatch) -> dict[str, list[int]]:
    """Patch bench._BATCHED to record each pooled call's dataset count, per method."""
    sizes = {method: [] for method in bench._BATCHED}
    for method, real in list(bench._BATCHED.items()):
        monkeypatch.setitem(bench._BATCHED, method, lambda views, net, reports, m=method,
                            real=real: sizes[m].append(len(views)) or real(views, net, reports))
    return sizes


class TestBatchedGrid:
    """run_grid batches each cell's replicates and pools them across cells for
    every method; its rows, apart from runtime_ms, equal tests/bench_reference.py's,
    which runs them one by one."""

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_rows_equal_per_replicate_reference(self, case, monkeypatch):
        make_net, text = REFERENCE_CASES[case]
        net, grid = make_net(), parse_grid(text, master_seed=4)
        want = _strip(run_grid_reference(grid, net).rows)
        # by the size rule, then with the estimators' array finish forced
        for array in (estimators.ARRAY_MIN_POSITIONS, 0):
            monkeypatch.setattr(estimators, "ARRAY_MIN_POSITIONS", array)
            rows = run_grid(grid, net).rows
            assert _strip(rows) == want
            assert len(rows) == sum(c.replicates * len(c.methods) for c in grid.cells())

    def test_pools_span_cells_up_to_pool_positions(self, monkeypatch):
        # kary_tree(63, 1) holds 64 positions a dataset, so 64 datasets fill a
        # pool exactly: the first two cells do, and the third cell's one
        # dataset closes it.  The 8000-probe replicates of the last cell run
        # one batch each and join that dataset's pool: probes do not close it.
        net = fixtures.kary_tree(63, 1)
        fill = bench.POOL_POSITIONS // len(net.order)
        assert fill * len(net.order) == bench.POOL_POSITIONS
        grid = parse_grid(f"cell 1 20 60 {fill - 24} le-xi,mvwa\ncell 1 20 100 24 le-xi,pcem\n"
                          "cell 2 60 80 1 le-xi,mvwa\ncell 2 60 8000 2 pcem,mvwa\n",
                          master_seed=5)
        sizes = _record_sizes(monkeypatch)
        rows = run_grid(grid, net).rows
        assert sizes == {"le-xi": [fill, 1], "pcem": [24, 2], "mvwa": [fill - 24, 3]}
        assert _strip(rows) == _strip(run_grid_reference(grid, net).rows)
        assert not any("error" in r for r in rows)
        # a pool's results share its call's time equally
        for method in ("le-xi", "pcem"):
            first = [r["runtime_ms"] for r in rows
                     if r["method"] == method and r["setting"] == "Beta(1,20)"]
            assert len(set(first)) == 1

    def test_every_method_fills_the_one_pool(self, monkeypatch):
        # kary_tree(7, 1) holds 8 positions a dataset: le-xi and mvwa datasets,
        # then pcem's alone, fill one pool exactly; a cell of nem alone is run
        # on its tables and not pooled, so the pool stays open until the last
        # cell's one dataset closes it
        net = fixtures.kary_tree(7, 1)
        fill = bench.POOL_POSITIONS // len(net.order)
        assert fill * len(net.order) == bench.POOL_POSITIONS
        grid = parse_grid(f"cell 1 20 8 {fill - 12} le-xi,mvwa\ncell 1 20 8 12 pcem\n"
                          "cell 2 60 8 3 nem\ncell 2 60 8 1 le-xi,mvwa\n", master_seed=5)
        sizes = _record_sizes(monkeypatch)
        rows = run_grid(grid, net).rows
        assert sizes == {"le-xi": [fill - 12, 1], "pcem": [12], "mvwa": [fill - 12, 1]}
        assert _strip(rows) == _strip(run_grid_reference(grid, net).rows)
        assert sum(r["method"] == "nem" for r in rows) == 3

    def test_no_table_outlives_its_batch(self, monkeypatch):
        # the pool holds views, reports and true rates; nem, the one reader of
        # a table, runs on each batch's tables as they are made.  Every table
        # of an earlier batch is gone, without a garbage collection, when the
        # next batch is drawn and when a pool is estimated.
        net = fixtures.twotree12()
        grid = parse_grid("cell 1 20 3000 5 le-xi,pcem\ncell 1 20 60 4 nem,mvwa\n"
                          "cell 2 60 80 3 nem\ncell 2 60 9000 2 le-xi,mvwa\n", master_seed=5)
        made, checks = [], []

        def assert_tables_gone():
            checks.append(len(made))
            assert all(ref() is None for ref in made)

        real = bench.simulate_replicates

        def simulate_replicates(configs, truths):
            assert_tables_gone()
            tables = real(configs, truths)
            made.extend(map(weakref.ref, tables))
            return tables
        monkeypatch.setattr(bench, "simulate_replicates", simulate_replicates)
        for method, batched in list(bench._BATCHED.items()):
            monkeypatch.setitem(bench._BATCHED, method, lambda views, net, reports, b=batched:
                                assert_tables_gone() or b(views, net, reports))
        rows = run_grid(grid, net).rows
        assert len(made) == sum(c.replicates for c in grid.cells())
        assert checks and max(checks) == len(made)
        assert _strip(rows) == _strip(run_grid_reference(grid, net).rows)

    def test_pooled_sets_reach_the_batched_solve(self, monkeypatch):
        # no replicate alone has BATCH_MIN_SETS sets that need an interior root,
        # the ten of a batch do; the batched solve must count each one's iterations
        net = fixtures.layered49()
        grid = parse_grid("cell 1 100 400 10 le-xi,mvwa\n", master_seed=3)
        sizes = []
        real = estimators._solve_interiors
        monkeypatch.setattr(estimators, "_solve_interiors",
                            lambda rows: sizes.append(len(rows)) or real(rows))
        rows = run_grid(grid, net).rows
        pooled, sizes[:] = list(sizes), []
        want = run_grid_reference(grid, net).rows
        assert max(sizes) < BATCH_MIN_SETS <= min(pooled)
        assert len(pooled) == 2 and len(sizes) == 20
        assert _strip(rows) == _strip(want)
        assert len({r["iterations"] for r in rows if r["method"] == "le-xi"}) > 1

    def test_mse_error_rows_equal_reference(self, monkeypatch):
        # mse raises for the replicates whose link 1 rate is above 0.03
        def picky(theta_hat, theta_true):
            if theta_true[1] > 0.03:
                raise ValueError("no estimable links in common")
            return mse(theta_hat, theta_true)
        monkeypatch.setattr(bench, "mse", picky)
        monkeypatch.setattr(bench_reference, "mse", picky)
        net = fixtures.twotree12()
        grid = parse_grid("cell 1 30 200 6 le-xi,pcem,mvwa\n", master_seed=2)
        rows = run_grid(grid, net).rows
        assert _strip(rows) == _strip(run_grid_reference(grid, net).rows)
        errors = [r for r in rows if r["mse"] is None]
        assert 0 < len(errors) < len(rows)
        assert all(r["violations"] == -1 and r["iterations"] == 0 for r in errors)

    def test_batched_error_reruns_each_replicate(self, monkeypatch):
        # le_xi raises on the replicates with an odd root pass count; the batched
        # call raises when any does, and each replicate then runs alone
        real = estimators.le_xi

        def odd_fails(views, net, workers=1, report=None):
            if views.n1[1] % 2:
                raise ValueError(f"odd root count {views.n1[1]}")
            return real(views, net, workers, report)
        monkeypatch.setattr(estimators, "le_xi", odd_fails)
        monkeypatch.setitem(bench._BATCHED, "le-xi", lambda views, net, reports: [
            odd_fails(v, net, report=r) for v, r in zip(views, reports)])
        net = fixtures.twotree12()
        grid = parse_grid("cell 1 30 200 8 le-xi,mvwa\n", master_seed=2)
        rows = run_grid(grid, net).rows
        assert _strip(rows) == _strip(run_grid_reference(grid, net).rows)
        errors = [r for r in rows if r["mse"] is None]
        assert 0 < len(errors) < 8
        assert all(r["error"].startswith("odd root count") for r in errors)

    @pytest.mark.parametrize("text", [
        pytest.param("cell 1 1000 8192 20 le-xi\n", id="1000"),
        pytest.param("cell 1 100 8192 20 le-xi\n", id="100"),
        # 24 cells of two 1500-probe replicates: a pool holds one cell's two
        # datasets, where pooling all 48 tables and views would not fit
        pytest.param("".join(f"cell 1 100 {1500 + q} 2 le-xi\n" for q in range(24)),
                     id="100-cells"),
        # cells of 100 small replicates, each a pool of its own: a batch kept
        # alive while the next is drawn would put two pools' views in memory
        pytest.param("".join(f"cell 1 100 {40 + q} 100 le-xi\n" for q in range(4)),
                     id="100-small-cells"),
        # pcem alone reads the pool too, which holds all 80 datasets
        pytest.param("".join(f"cell 1 100 {40 + q} 20 pcem\n" for q in range(4)),
                     id="pcem-small-cells"),
    ])
    def test_peak_memory_stays_within_one_stacked_block(self, text):
        # 20 replicates of two full blocks each: stacking every replicate's
        # words at once would hold 20 blocks of 8-byte words; at Beta(1,100)
        # nearly every probe has its own 256-leaf pattern, so holding all 20
        # tables and their views at once would too
        net = fixtures.kary_tree(4, 4)
        grid = parse_grid(text, master_seed=1)
        tracemalloc.start()
        try:
            rows = run_grid(grid, net).rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == sum(c.replicates for c in grid.cells())
        assert peak < 3 * BLOCK_PROBES * len(net.links) * 8


class TestCli:
    def test_estimate_golden_star(self, star_files, tmp_path):
        topo, data = star_files
        out = tmp_path / "est.csv"
        code = main(["estimate", "--topology", str(topo), "--data", str(data),
                     "--method", "le-xi", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "link_id,theta_hat,xi_hat,flag,estimable"
        rows = {int(l.split(",")[0]): l.split(",") for l in lines[1:]}
        assert float(rows[1][1]) == pytest.approx(0.1, abs=1e-9)
        assert float(rows[2][1]) == pytest.approx(1 / 3, abs=1e-9)
        assert float(rows[3][1]) == pytest.approx(1 / 3, abs=1e-9)
        assert rows[1][3] == "ok" and rows[1][4] == "yes"

    def test_estimate_methods_agree(self, star_files, tmp_path):
        topo, data = star_files
        outs = {}
        for method in ("le-xi", "pcem", "nem", "mvwa"):
            out = tmp_path / f"{method}.csv"
            code = main(["estimate", "--topology", str(topo), "--data", str(data),
                         "--method", method, "--tol", "1e-12", "--out", str(out)])
            assert code == 0
            outs[method] = out.read_text()
        le = [l.split(",")[1] for l in outs["le-xi"].splitlines()[1:]]
        for method in ("pcem", "nem", "mvwa"):
            vals = [l.split(",")[1] for l in outs[method].splitlines()[1:]]
            for a, b in zip(le, vals):
                assert float(a) == pytest.approx(float(b), abs=1e-7)

    def test_simulate_deterministic_and_estimatable(self, star_files, tmp_path):
        topo, _ = star_files
        out_a, out_b = tmp_path / "a.data", tmp_path / "b.data"
        args = ["simulate", "--topology", str(topo), "--beta", "1,9",
                "--probes", "400", "--seed", "7", "--replicate", "1"]
        assert main(args + ["--out", str(out_a),
                            "--theta-out", str(tmp_path / "truth.rates")]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_text() == out_b.read_text()
        assert (tmp_path / "truth.rates").read_text().startswith("theta 1 ")
        est = tmp_path / "est.csv"
        assert main(["estimate", "--topology", str(topo), "--data", str(out_a),
                     "--method", "pcem", "--out", str(est)]) == 0

    def test_simulate_with_explicit_theta_file(self, star_files, tmp_path):
        topo, _ = star_files
        rates = tmp_path / "theta.rates"
        rates.write_text("theta 1 0.0\ntheta 2 0.0\ntheta 3 0.0\n")
        out = tmp_path / "sim.data"
        assert main(["simulate", "--topology", str(topo), "--theta", str(rates),
                     "--probes", "25", "--seed", "3", "--out", str(out)]) == 0
        assert "pattern 1 11 25" in out.read_text()

    def test_simulate_rejects_theta_for_unknown_links(self, star_files, tmp_path, capsys):
        topo, _ = star_files
        rates = tmp_path / "theta.rates"
        rates.write_text("theta 1 0.1\ntheta 2 0.1\ntheta 99 0.5\ntheta 3 0.1\ntheta 7 0.2\n")
        out = tmp_path / "sim.data"
        assert main(["simulate", "--topology", str(topo), "--theta", str(rates),
                     "--probes", "25", "--seed", "3", "--out", str(out)]) == 2
        assert "links not in the topology: 7, 99" in capsys.readouterr().err
        assert not out.exists()

    def test_bench_one_cell(self, star_files, tmp_path, capsys):
        topo, _ = star_files
        grid = tmp_path / "grid.txt"
        grid.write_text("cell 1 20 60 5 le-xi,pcem\n")
        out = tmp_path / "bench.csv"
        code = main(["bench", "--topology", str(topo), "--grid", str(grid),
                     "--out", str(out), "--seed", "11"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 5 * 2
        assert "mean_mse" in capsys.readouterr().out

    def test_exit_codes(self, star_files, tmp_path):
        topo, data = star_files
        assert main(["estimate", "--topology", str(topo), "--data", str(data),
                     "--method", "nope", "--out", "x"]) == 2
        assert main(["bogus-command"]) == 2
        bad_topo = tmp_path / "bad.topo"
        bad_topo.write_text("network x\nlink 1 0 1\n")
        assert main(["estimate", "--topology", str(bad_topo), "--data", str(data),
                     "--method", "pcem", "--out", str(tmp_path / "o.csv")]) == 2
        assert main(["simulate", "--topology", str(topo), "--probes", "5",
                     "--seed", "1", "--out", str(tmp_path / "x.data")]) == 2

    def test_simulate_and_estimate_error_text(self, star_files, tmp_path, capsys):
        topo, data = star_files
        out = str(tmp_path / "sim.data")
        assert main(["simulate", "--topology", str(topo), "--beta", "1",
                     "--probes", "5", "--seed", "1", "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: --beta expects 'a,b', got '1'\n")
        rates = tmp_path / "xi.rates"
        rates.write_text("xi 1 0.9\nxi 2 0.9\nxi 3 0.9\n")
        assert main(["simulate", "--topology", str(topo), "--theta", str(rates),
                     "--probes", "5", "--seed", "1", "--out", out]) == 2
        assert capsys.readouterr().err.startswith(
            "error: --theta file carries 'xi' rates, expected theta\n")
        # a file that cannot be read is an OSError: exit 1
        assert main(["estimate", "--topology", str(tmp_path / "missing.topo"),
                     "--data", str(data), "--method", "pcem", "--out", out]) == 1
        assert "missing.topo" in capsys.readouterr().err
        assert not (tmp_path / "sim.data").exists()

    def test_parser_built_once_per_process(self, star_files, tmp_path, capsys, monkeypatch):
        topo, data = star_files
        cli.build_parser.cache_clear()
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        estimate = ["estimate", "--topology", str(topo), "--data", str(data),
                    "--method", "le-xi", "--out", str(tmp_path / "est.csv")]
        runs = []
        for _ in range(2):
            codes = [main(["estimate", "--method", "nope"]), main(["estimate", "--help"]),
                     main(["--help"]), main(estimate)]
            runs.append((codes, capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == [2, 0, 0, 0]
        assert "invalid choice: 'nope'" in runs[0][1].err
        assert "--method {le-xi,pcem,nem,mvwa}" in runs[0][1].out
        # one parser and its three subcommand parsers, all built by the first call
        assert built.count("losstomo") == 1 and len(built) == 4
        # the handler is looked up per call, so a replaced one runs
        monkeypatch.setattr(cli, "_cmd_estimate", lambda args: 7)
        assert main(estimate) == 7

    def test_non_estimable_links_written_empty(self, tmp_path):
        topo = tmp_path / "star.topo"
        topo.write_text(serialize_topology(fixtures.star3()), encoding="utf-8")
        dark = tmp_path / "dark.data"
        dark.write_text("data dark\nprobes 1 4\nreceivers 1 : 2 3\n"
                        "pattern 1 00 4\n")
        out = tmp_path / "est.csv"
        assert main(["estimate", "--topology", str(topo), "--data", str(dark),
                     "--method", "le-xi", "--out", str(out)]) == 0
        rows = {l.split(",")[0]: l.split(",") for l in out.read_text().splitlines()[1:]}
        assert rows["2"][1] == "" and rows["2"][4] == "no"
        assert rows["2"][3] == "non_estimable"


@pytest.mark.parametrize("command,flag,value", [
    ("estimate", "--threads", "0"),
    ("estimate", "--threads", "-3"),
    ("bench", "--workers", "0"),
    ("estimate", "--init", "0"),
    ("estimate", "--init", "1"),
    ("estimate", "--init", "2"),
    ("estimate", "--init", "nan"),
    ("estimate", "--max-iter", "0"),
    ("estimate", "--tol", "0"),
    ("estimate", "--tol", "-1e-6"),
    ("estimate", "--tol", "nan"),
    ("estimate", "--tol", "inf"),
    ("simulate", "--probes", "0"),
    ("simulate", "--probes", "-5"),
])
def test_out_of_range_flags_exit_2(star_files, tmp_path, capsys, command, flag, value):
    topo, data = star_files
    grid = tmp_path / "grid.txt"
    grid.write_text("cell 1 20 60 1 le-xi\n")
    rest = {"estimate": ["--data", str(data), "--method", "pcem"],
            "bench": ["--grid", str(grid)],
            "simulate": ["--beta", "1,9", "--seed", "1"]}[command]
    out = tmp_path / "out"
    code = main([command, "--topology", str(topo), *rest, flag, value, "--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("beta", ["nan,1", "inf,1", "1,inf", "0,1"])
def test_simulate_rejects_beta_parameters_not_finite_and_positive(star_files, tmp_path,
                                                                  capsys, beta):
    topo, _ = star_files
    out = tmp_path / "sim.data"
    assert main(["simulate", "--topology", str(topo), "--beta", beta, "--probes", "25",
                 "--seed", "3", "--out", str(out)]) == 2
    shown = beta.replace(",", ", ")
    assert f"error: Beta parameters must be finite and > 0, got ({shown})\n" in (
        capsys.readouterr().err)
    assert not out.exists()



@pytest.mark.parametrize("command,flag,value", [
    ("simulate", "--seed", "-1"),
    ("simulate", "--replicate", "-3"),
    ("bench", "--seed", "-5"),
])
def test_negative_seeds_name_their_flag(star_files, tmp_path, capsys, command, flag, value):
    topo, _ = star_files
    grid = tmp_path / "grid.txt"
    grid.write_text("cell 1 20 60 1 le-xi\n")
    rest = {"simulate": ["--beta", "1,9", "--probes", "25"],
            "bench": ["--grid", str(grid)]}[command]
    if flag != "--seed":
        rest += ["--seed", "1"]
    out = tmp_path / "out"
    code = main([command, "--topology", str(topo), *rest, flag, value, "--out", str(out)])
    assert code == 2
    assert f"argument {flag}: must be >= 0, got {value}\n" in capsys.readouterr().err
    assert not out.exists()


def test_summary_counts_violations_of_rows_that_ran(monkeypatch):
    # mse raises for the replicates whose link 1 rate is above 0.03, and nem
    # is refused on layered49's 48 links: one mixed cell, one all-error cell
    def picky(theta_hat, theta_true):
        if theta_true[1] > 0.03:
            raise ValueError("no estimable links in common")
        return mse(theta_hat, theta_true)
    monkeypatch.setattr(bench, "mse", picky)
    grid = parse_grid("cell 1 30 200 6 le-xi,pcem\ncell 1 100 50 2 nem\n", master_seed=2)
    report = run_grid(grid, fixtures.layered49())
    ran: dict[tuple, list[int]] = {}
    for row in report.rows:
        key = (row["setting"], row["n"], row["method"])
        ran.setdefault(key, [])
        if "error" not in row:
            ran[key].append(row["violations"])
    assert 0 < len(ran[("Beta(1,30)", 200, "le-xi")]) < 6
    assert ran[("Beta(1,100)", 50, "nem")] == []
    printed = {(tok[0], int(tok[1]), tok[2]): int(tok[-1])
               for tok in map(str.split, report.summary().splitlines()[1:])}
    assert printed == {key: sum(v) for key, v in ran.items()}


def test_run_grid_reads_each_table_bit_matrix_once(monkeypatch):
    # simulate_replicates leaves its tables to internal_views_replicates,
    # which checks each tree's patterns as it counts them
    calls = []
    real = PatternTable.bit_matrix
    monkeypatch.setattr(PatternTable, "bit_matrix",
                        lambda table, k: calls.append((id(table), k)) or real(table, k))
    net = fixtures.layered49()
    rows = run_grid(parse_grid("cell 1 100 200 10 le-xi,pcem,mvwa\n", master_seed=2), net).rows
    assert len(rows) == 30 and not any("error" in r for r in rows)
    assert len(calls) == 10 * len(net.trees) == 20
    assert len(set(calls)) == len(calls)


def test_estimate_exits_3_when_em_stops_at_max_iter(star_files, tmp_path, capsys):
    topo, data = star_files
    capped, default = tmp_path / "capped.csv", tmp_path / "default.csv"
    args = ["estimate", "--topology", str(topo), "--data", str(data), "--method", "pcem"]
    assert main(args + ["--max-iter", "1", "--out", str(capped)]) == 3
    err = capsys.readouterr().err
    assert "warning: pcem stopped after 1 sweeps without meeting --tol" in err
    assert capped.read_text().startswith("link_id,theta_hat,")
    assert main(args + ["--out", str(default)]) == 0
    assert capsys.readouterr().err == ""
