"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line.  Heavy shared computations (the oracle
runs, the replicated benchmark) live in session fixtures so the monotonicity
check can reuse their trajectories.
"""

import math
import time

import numpy as np
import pytest

from losstomo import fixtures
from losstomo.bench import GridCell, _data_seed, _theta_seed, mse
from losstomo.estimators import le_xi, mvwa, nem, pcem
from losstomo.likelihood import (grad_fd, loglik_psi, loglik_theta, loglik_xi,
                                 per_probe_loglik)
from losstomo.params import psi_to_xi, theta_to_xi, xi_membership, xi_to_psi, xi_to_theta
from losstomo.simulator import SimConfig, sample_theta, simulate
from losstomo.statistics import PatternTable, internal_views

TOY = fixtures.toy7()
STAR = fixtures.star3()
TWOTREE = fixtures.twotree12()
LAYERED = fixtures.layered49()

BETA_SETTINGS = ((1.0, 100.0), (5.0, 1000.0), (2.0, 1000.0), (1.0, 1000.0))
SAMPLE_SIZES = (50, 100, 200, 500)
REPLICATES = 100


def _conclude(num: int, name: str, ok: bool, detail: str = ""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _rng(*entropy):
    return np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(entropy)))


def test_criterion_01_transform_roundtrips():
    start = time.perf_counter()
    worst_gamma = worst_lambda = 0.0
    for net in (TOY, LAYERED):
        ids = sorted(net.links)
        rng = _rng(101, len(ids))
        for _ in range(1000):
            draws = rng.uniform(0.005, 0.5, size=len(ids))
            theta = {i: float(v) for i, v in zip(ids, draws)}
            xi = theta_to_xi(theta, net)
            back = xi_to_theta(xi, net)
            worst_gamma = max(worst_gamma, max(abs(back[i] - theta[i]) for i in ids))
            xi2 = psi_to_xi(xi_to_psi(xi, net), net)
            worst_lambda = max(worst_lambda, max(abs(xi2[i] - xi[i]) for i in ids))
    elapsed = time.perf_counter() - start
    ok = worst_gamma <= 1e-12 and worst_lambda <= 1e-12 and elapsed < 5.0
    _conclude(1, "transform round-trips", ok,
              f"max|theta-err|={worst_gamma:.2e} max|xi-err|={worst_lambda:.2e} "
              f"elapsed={elapsed:.2f}s")


def test_criterion_02_toy_values():
    theta = {i: 0.1 for i in TOY.links}
    xi = theta_to_xi(theta, TOY)
    psi = xi_to_psi(xi, TOY)
    checks = [
        ("xi2", abs(xi[2] - 0.109), 1e-15),      # exact up to one ulp
        ("xi1", abs(xi[1] - 0.110693), 1e-6),
        ("psi4", abs(psi[4] - 2.19722), 1e-4),
        ("psi2", abs(psi[2] - (-2.49413)), 1e-4),
        ("psi1", abs(psi[1] - (-2.337)), 1e-3),
    ]
    ok = all(err <= tol for _, err, tol in checks)
    _conclude(2, "toy parameter values", ok,
              " ".join(f"{name}:{err:.2e}" for name, err, _ in checks))


def test_criterion_03_likelihood_equivalence():
    worst_forms = worst_sum = 0.0
    pair = 0
    for trial in range(100):
        net = TOY if trial % 2 == 0 else TWOTREE
        rng = _rng(303, trial)
        truth = sample_theta(2.0, 15.0, net, rng)
        patterns = simulate(SimConfig(net, 300, seed=9000 + trial), truth)
        views, _ = internal_views(patterns, net)
        theta = {i: float(v) for i, v in
                 zip(sorted(net.links), rng.uniform(0.05, 0.6, size=len(net.links)))}
        xi = theta_to_xi(theta, net)
        psi = xi_to_psi(xi, net)
        lt = loglik_theta(views, theta, net).value
        lx = loglik_xi(views, xi, net).value
        lp = loglik_psi(views, psi, net).value
        direct = sum(c * per_probe_loglik(bits, k, theta, net)
                     for k, tab in patterns.counts.items() for bits, c in tab.items())
        worst_forms = max(worst_forms, abs(lx - lt), abs(lp - lt))
        worst_sum = max(worst_sum, abs(direct - lt))
        pair += 1
    ok = worst_forms <= 1e-10 and worst_sum <= 1e-10
    _conclude(3, "likelihood equivalence", ok,
              f"pairs={pair} forms<={worst_forms:.2e} pattern-sum<={worst_sum:.2e}")


def test_criterion_04_analytic_star_fixture():
    table = PatternTable("star", {1: 5}, {1: (2, 3)},
                         {1: {"11": 2, "10": 1, "01": 1, "00": 1}})
    views, report = internal_views(table, STAR)
    exact = {1: 0.1, 2: 1 / 3, 3: 1 / 3}
    results = {
        "le-xi": le_xi(views, STAR, report=report),
        "pcem": pcem(views, STAR, tol=1e-12, report=report),
        "nem": nem(table, STAR, tol=1e-12),
    }
    worst = max(abs(res.theta_hat[i] - exact[i])
                for res in results.values() for i in STAR.links)
    fitted = {bits: math.exp(per_probe_loglik(bits, 1, results["le-xi"].theta_hat, STAR))
              for bits in ("11", "10", "01", "00")}
    empirical = {"11": 0.4, "10": 0.2, "01": 0.2, "00": 0.2}
    dist = max(abs(fitted[b] - empirical[b]) for b in empirical)
    ok = worst <= 1e-9 and dist <= 1e-9
    _conclude(4, "analytic star fixture", ok,
              f"max|theta-err|={worst:.2e} max|dist-err|={dist:.2e}")


@pytest.fixture(scope="module")
def oracle_runs():
    runs = []
    for trial in range(100):
        rng = _rng(505, trial)
        truth = sample_theta(2.0, 18.0, TWOTREE, rng)
        patterns = simulate(SimConfig(TWOTREE, 200, seed=20_000 + trial), truth)
        views, report = internal_views(patterns, TWOTREE)
        forced_p = pcem(views, TWOTREE, tol=0.0, max_iter=25, keep_history=True,
                        report=report)
        forced_n = nem(patterns, TWOTREE, tol=0.0, max_iter=25, keep_history=True)
        conv_p = pcem(views, TWOTREE, track_loglik=True, report=report)
        conv_n = nem(patterns, TWOTREE, track_loglik=True)
        runs.append((forced_p, forced_n, conv_p, conv_n))
    return runs


def test_criterion_05_oracle_equivalence(oracle_runs):
    worst_iter = worst_final = 0.0
    for forced_p, forced_n, conv_p, conv_n in oracle_runs:
        assert len(forced_p.theta_path) == len(forced_n.theta_path) == 25
        for a, b in zip(forced_p.theta_path, forced_n.theta_path):
            worst_iter = max(worst_iter, max(abs(a[i] - b[i]) for i in TWOTREE.links))
        assert conv_p.iterations == conv_n.iterations
        for i in TWOTREE.links:
            va, vb = conv_p.theta_hat[i], conv_n.theta_hat[i]
            if va is None or vb is None:
                assert va is None and vb is None
            else:
                worst_final = max(worst_final, abs(va - vb))
    ok = worst_iter <= 1e-9 and worst_final <= 1e-9
    _conclude(5, "pcem/nem oracle equivalence", ok,
              f"runs=100 per-iter<={worst_iter:.2e} final<={worst_final:.2e}")


@pytest.fixture(scope="module")
def certification_runs():
    runs = []
    for trial in range(60):
        net = TOY if trial % 3 else TWOTREE
        rng = _rng(606, trial)
        truth = sample_theta(3.0, 25.0, net, rng)
        patterns = simulate(SimConfig(net, 500, seed=30_000 + trial), truth)
        views, report = internal_views(patterns, net)
        res_le = le_xi(views, net, report=report)
        res_em = pcem(views, net, tol=1e-9, track_loglik=True, report=report)
        runs.append((net, views, report, res_le, res_em))
    return runs


def test_criterion_06_mle_certification(certification_runs):
    qualified = 0
    worst_diff = worst_grad = 0.0
    for net, views, report, res_le, res_em in certification_runs:
        membership = xi_membership(res_le.xi_hat, net)
        if not report.all_ok or any(v != "interior" for v in membership.values()):
            continue
        qualified += 1
        worst_diff = max(worst_diff, max(abs(res_le.theta_hat[i] - res_em.theta_hat[i])
                                         for i in net.links))

        def fn(point, net=net, views=views):
            return loglik_xi(views, point, net).value

        value = fn(res_le.xi_hat)
        grad = grad_fd(fn, res_le.xi_hat)
        scaled = max(abs(g) for g in grad.values()) / (1.0 + abs(value))
        worst_grad = max(worst_grad, scaled)
    ok = qualified >= 20 and worst_diff <= 1e-6 and worst_grad <= 1e-6
    _conclude(6, "MLE certification", ok,
              f"qualified={qualified}/60 |le-pcem|<={worst_diff:.2e} "
              f"grad/(1+|L|)<={worst_grad:.2e}")


def test_criterion_07_em_monotonicity(oracle_runs, certification_runs):
    paths = []
    for _, _, conv_p, conv_n in oracle_runs:
        paths.append(conv_p.loglik_path)
        paths.append(conv_n.loglik_path)
    for _, _, _, _, res_em in certification_runs:
        paths.append(res_em.loglik_path)
    worst_drop = 0.0
    for path in paths:
        for prev, nxt in zip(path, path[1:]):
            worst_drop = max(worst_drop, prev - nxt)
    ok = worst_drop <= 1e-10
    _conclude(7, "EM monotonicity", ok,
              f"paths={len(paths)} worst-drop={worst_drop:.2e}")


def test_criterion_08_degenerate_cases():
    okay = []

    # case 1: a link never confirmed (receiver 4 dead) -> subtree loss rate 1
    dead = PatternTable("dead", {1: 8}, {1: (4, 5, 6, 7)},
                        {1: {"0100": 3, "0110": 2, "0001": 2, "0000": 1}})
    views, report = internal_views(dead, TOY)
    res = le_xi(views, TOY, report=report)
    okay.append(res.xi_hat[4] == 1.0 and 4 in report.n1_zero
                and res.flags[4] == "regularity_violated")

    # case 2: a link never lost -> subtree loss rate 0
    clean = PatternTable("clean", {1: 5}, {1: (2, 3)},
                         {1: {"11": 3, "01": 1, "00": 1}})
    views, report = internal_views(clean, STAR)
    res = le_xi(views, STAR, report=report)
    okay.append(res.xi_hat[3] == 0.0 and 3 in report.n0_zero
                and res.flags[3] == "regularity_violated")

    # case 3: brother pass counts exactly exhaust the parent -> parent rate 0
    split = PatternTable("split", {1: 5}, {1: (2, 3)},
                         {1: {"10": 2, "01": 2, "00": 1}})
    views, report = internal_views(split, STAR)
    res = le_xi(views, STAR, report=report)
    okay.append(res.theta_hat[1] == 0.0 and report.brother_sum_violation == {2, 3}
                and res.flags[1] == "boundary_projected"
                and res.flags[2] == "regularity_violated")

    # case 4: solved rates leave the domain -> negative estimate projected
    outside = PatternTable("outside", {1: 6}, {1: (2, 3)},
                           {1: {"11": 1, "10": 2, "01": 2, "00": 1}})
    views, report = internal_views(outside, STAR)
    res = le_xi(views, STAR, report=report)
    raw = (res.xi_hat[1] - res.xi_hat[2] * res.xi_hat[3]) / (1 - res.xi_hat[2] * res.xi_hat[3])
    okay.append(raw < 0.0 and res.theta_hat[1] == 0.0
                and res.flags[1] == "boundary_projected")

    ok = all(okay)
    _conclude(8, "degenerate-case suite", ok, f"cases={okay}")


@pytest.fixture(scope="module")
def bench_runs():
    start = time.perf_counter()
    cell_mse: dict[tuple, dict[str, list[float]]] = {}
    mvwa_ge = total_cells = 0
    n500 = {"mse_ident": 0, "allok": 0, "allok_ident": 0, "total": 0}
    for a, b in BETA_SETTINGS:
        for rep in range(REPLICATES):
            seed_cell = GridCell(a, b, 0, REPLICATES, ())
            rng = np.random.Generator(
                np.random.Philox(seed=_theta_seed(0, seed_cell, rep)))
            truth = sample_theta(a, b, LAYERED, rng)
            for n in SAMPLE_SIZES:
                cell = GridCell(a, b, n, REPLICATES, ())
                cfg = SimConfig(LAYERED, n, _data_seed(0, cell, rep), replicate=rep)
                patterns = simulate(cfg, truth)
                views, report = internal_views(patterns, LAYERED)
                r_le = le_xi(views, LAYERED, report=report)
                r_pc = pcem(views, LAYERED, report=report)
                r_mv = mvwa(views, LAYERED)
                m = {"le-xi": mse(r_le.theta_hat, truth),
                     "pcem": mse(r_pc.theta_hat, truth),
                     "mvwa": mse(r_mv.theta_hat, truth)}
                bucket = cell_mse.setdefault((a, b, n), {k: [] for k in m})
                for k, v in m.items():
                    bucket[k].append(v)
                total_cells += 1
                mvwa_ge += m["mvwa"] >= m["le-xi"]
                if n == 500:
                    n500["total"] += 1
                    n500["mse_ident"] += abs(m["le-xi"] - m["pcem"]) <= 1e-6
                    if report.all_ok:
                        n500["allok"] += 1
                        same = all(
                            (r_le.theta_hat[i] is None) == (r_pc.theta_hat[i] is None)
                            and (r_le.theta_hat[i] is None
                                 or abs(r_le.theta_hat[i] - r_pc.theta_hat[i]) <= 1e-6)
                            for i in LAYERED.links)
                        n500["allok_ident"] += same
    elapsed = time.perf_counter() - start
    return cell_mse, mvwa_ge / total_cells, n500, elapsed


def test_criterion_09_statistical_trends(bench_runs):
    cell_mse, mvwa_frac, n500, elapsed = bench_runs
    mono_ok = True
    for a, b in BETA_SETTINGS:
        for method in ("le-xi", "pcem", "mvwa"):
            means = [sum(cell_mse[(a, b, n)][method]) / REPLICATES
                     for n in SAMPLE_SIZES]
            if not all(x > y for x, y in zip(means, means[1:])):
                mono_ok = False
    ident_frac = n500["mse_ident"] / n500["total"]
    allok_ident_ok = n500["allok_ident"] == n500["allok"]
    ok = (mono_ok and mvwa_frac >= 0.80 and ident_frac >= 0.95
          and allok_ident_ok and elapsed < 600.0)
    _conclude(9, "replicated benchmark trends", ok,
              f"mono={mono_ok} mvwa_ge_frac={mvwa_frac:.3f} "
              f"n500-identity={ident_frac:.3f} "
              f"allok-identical={n500['allok_ident']}/{n500['allok']} "
              f"elapsed={elapsed:.0f}s")


def _time_em_sweeps(net, views, report, sweeps=300, repeats=3):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        pcem(views, net, tol=0.0, max_iter=sweeps, report=report)
        best = min(best, (time.perf_counter() - t0) / sweeps)
    return best


def test_criterion_10_complexity_evidence():
    sizes = (8, 16, 32, 64)
    times = []
    for m in sizes:
        net = fixtures.chain(m)
        truth = {i: 0.05 for i in net.links}
        patterns = simulate(SimConfig(net, 200, seed=m), truth)
        views, report = internal_views(patterns, net)
        times.append(_time_em_sweeps(net, views, report))
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])

    truth = {i: 0.15 for i in TWOTREE.links}
    patterns = simulate(SimConfig(TWOTREE, 500, seed=12), truth)
    views, report = internal_views(patterns, TWOTREE)
    t_pc = min(pcem(views, TWOTREE, report=report).wall_time for _ in range(3))
    t_nem = min(nem(patterns, TWOTREE).wall_time for _ in range(2))
    ratio = t_nem / t_pc
    ok = abs(slope - 1.0) <= 0.3 and ratio >= 100.0
    _conclude(10, "complexity evidence", ok,
              f"chain-slope={slope:.2f} nem/pcem-ratio={ratio:.0f}x")


def test_criterion_11_determinism():
    truth = {i: 0.05 for i in LAYERED.links}
    patterns = simulate(SimConfig(LAYERED, 400, seed=71), truth)
    views, report = internal_views(patterns, LAYERED)
    base = le_xi(views, LAYERED, workers=1, report=report)
    solver_same = all(
        le_xi(views, LAYERED, workers=w, report=report).theta_hat == base.theta_hat
        and le_xi(views, LAYERED, workers=w, report=report).xi_hat == base.xi_hat
        for w in (2, 8))

    sim_truth = {i: 0.1 for i in TWOTREE.links}
    cfg = lambda: SimConfig(TWOTREE, 9000, seed=99, replicate=4)
    ref = simulate(cfg(), sim_truth, workers=1)
    sim_same = all(simulate(cfg(), sim_truth, workers=w).counts == ref.counts
                   for w in (2, 8))
    ok = solver_same and sim_same
    _conclude(11, "determinism across workers", ok,
              f"solver={solver_same} simulator={sim_same}")
