"""The benchmark's checks on tiny inputs: they pass on the program's output and
reject a perturbed one.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import io
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, inputs  # noqa: E402
from perfbench.workloads import METHODS, ORDER, Pass, Workload  # noqa: E402

TINY_HUB = Workload("tiny-hub", inputs.HubShape(private_depth=2, hub_depth=2),
                    (1, 100), 20000, ((1, 100, 4000, 1),), 1, 1)
TINY_GRID = Workload("tiny-grid", None, (1, 100), 4000,
                     tuple((a, b, n, 4) for a, b in ((1, 100), (1, 1000))
                           for n in (50, 500)), 1, 1)


@pytest.fixture(scope="module", params=[TINY_HUB, TINY_GRID], ids=lambda w: w.name)
def done(request, tmp_path_factory):
    p = Pass(request.param, 5, tmp_path_factory.mktemp(request.param.name))
    for key in ORDER:
        p.run_command(key)
    return p


def perturbed(text: str, link: int, column: int, delta: float) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    for row in rows[1:]:
        if int(row[0]) == link:
            row[column] = repr(float(row[column]) + delta)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def ok_links(p: Pass, method: str, want) -> list[int]:
    est = checks.read_estimate(p.csv[method].read_text())
    return [i for i, (_, _, flag) in sorted(est.items()) if flag == "ok" and want(i)]


def test_every_check_but_the_read_back_passes(done):
    failed = {name for name, error in done.check() if error is not None}
    assert failed <= {"bench.csv"}


def test_views_match_the_program(done):
    from losstomo.statistics import internal_views, parse_data
    from losstomo.topology import parse_topology

    net = parse_topology(done.topology.read_text())
    data = done.data.read_text()
    views, _ = internal_views(parse_data(data, net), net)
    assert checks.count_views(data, done.net) == (views.n1, views.n0)


def test_data_check_rejects_a_changed_count(done):
    text = done.data.read_text()
    assert checks.check_data(text, done.net, done.w.probes) is None
    lines = text.splitlines()
    q = next(n for n, line in enumerate(lines) if line.startswith("pattern "))
    head, count = lines[q].rsplit(" ", 1)
    lines[q] = f"{head} {int(count) + 1}"
    assert checks.check_data("\n".join(lines) + "\n", done.net, done.w.probes)


@pytest.mark.parametrize("method", METHODS)
def test_estimate_check_rejects_a_moved_theta(done, method):
    text = done.csv[method].read_text()
    assert checks.check_estimate(text, done.net) is None
    for want in (lambda i: done.net.children[i], lambda i: not done.net.children[i]):
        link = ok_links(done, method, want)[0]
        assert checks.check_estimate(perturbed(text, link, 1, 1e-3), done.net)
    rows = text.splitlines()
    assert checks.check_estimate("\n".join(rows[:-1]) + "\n", done.net)
    assert checks.check_estimate(text.replace(",ok,", ",fine,", 1), done.net)


def test_equation_check_rejects_a_moved_xi(done):
    text = done.csv["le-xi"].read_text()
    n1, n0 = checks.count_views(done.data.read_text(), done.net)
    assert checks.check_likelihood_equations(text, done.net, n1, n0) is None
    root = ok_links(done, "le-xi", lambda i: i in done.net.roots)[0]
    inner = ok_links(done, "le-xi", lambda i: i not in done.net.roots)[0]
    for link in (root, inner):
        bad = perturbed(text, link, 2, 1e-3)
        assert checks.check_likelihood_equations(bad, done.net, n1, n0)


@pytest.mark.parametrize("method", METHODS)
def test_mse_check_rejects_the_initial_guess(done, method):
    text = done.csv[method].read_text()
    n1, n0 = checks.count_views(done.data.read_text(), done.net)
    variance = checks.binomial_variance(done.theta, n1, n0)
    assert checks.check_mse(text, done.theta, variance) is None
    rows = list(csv.reader(io.StringIO(text)))
    for row in rows[1:]:
        if row[1]:
            row[1] = "0.03"
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    assert checks.check_mse(out.getvalue(), done.theta, variance)


def test_bench_csv_check_reads_quoted_settings_and_rejects_short_files(done):
    text = done.bench_csv.read_text()
    rows_expected = done.w.grid_datasets * len(METHODS)
    quoted = io.StringIO()
    writer = csv.writer(quoted, lineterminator="\n")
    for line in text.splitlines():
        if line.startswith("Beta("):
            setting, rest = line.split("),", 1)
            writer.writerow([setting + ")"] + rest.split(","))
        else:
            writer.writerow(line.split(","))
    assert checks.check_bench_csv(quoted.getvalue(), rows_expected) is None
    assert checks.check_bench_csv(quoted.getvalue(), rows_expected + 1)
    assert checks.check_bench_csv(text, rows_expected)


def test_summary_checks_reject_perturbed_means(done):
    w = done.w
    summary = checks.read_summary(done.bench_stdout)
    cells = [(a, b, n, m) for a, b, n, _ in w.grid for m in METHODS]
    trees = len(done.net.trees)
    assert checks.check_summary_cells(summary, cells, trees) is None
    key = next(iter(summary))
    assert checks.check_summary_cells({**summary, key: summary[key] * 1e3}, cells, trees)
    assert checks.check_summary_cells({k: v for k, v in summary.items() if k != key},
                                      cells, trees)
    settings = sorted({(a, b) for a, b, _, _ in w.grid})
    probes = sorted({n for _, _, n, _ in w.grid})
    if len(probes) < 2:
        return
    assert checks.check_mse_falls(summary, settings, probes, METHODS) is None
    a, b = settings[0]
    s = checks.beta_setting(a, b)
    swapped = {**summary, (s, probes[0], "pcem"): summary[(s, probes[-1], "pcem")],
               (s, probes[-1], "pcem"): summary[(s, probes[0], "pcem")]}
    assert checks.check_mse_falls(swapped, settings, probes, METHODS)
    assert checks.check_mvwa_worse(summary, settings, probes) is None
    better = {k: (v * 1e-3 if k[2] == "mvwa" else v) for k, v in summary.items()}
    assert checks.check_mvwa_worse(better, settings, probes)


def test_tracer_nests_spans_and_restores_the_program(done):
    from losstomo import cli, estimators, statistics
    from perfbench.tracing import Tracer

    originals = (cli.main, cli.internal_views, estimators.loglik_theta,
                 statistics.regularity_report)
    with Tracer() as tracer:
        assert cli.internal_views is not originals[1]
        done.run_command("estimate_le_xi")
    assert (cli.main, cli.internal_views, estimators.loglik_theta,
            statistics.regularity_report) == originals
    names = [span[0] for span in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0][3] == -1
    views = tracer.spans[names.index("statistics.internal_views")]
    assert tracer.spans[views[3]][0] == "cli.main"
    times = tracer.layer_times()
    self_s, total_s, calls = times["cli.main"]
    assert calls == 1 and 0.0 < self_s < total_s
    assert tracer.counts["statistics.internal_views.patterns"] > 0
