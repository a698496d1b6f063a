"""Command-line front end: simulate, estimate, bench."""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .bench import GridError, parse_grid, run_grid
from .estimators import METHODS, estimator, nem
from .params import parse_rates, serialize_rates
from .simulator import SimConfig, sample_theta, simulate
from .statistics import DataError, internal_views, parse_data, serialize_data
from .topology import TopologyError, parse_topology

ESTIMATE_HEADER = "link_id,theta_hat,xi_hat,flag,estimable"


class CliError(Exception):
    """User-facing failure: bad input file, bad flag combination."""


def _load_topology(path: str):
    return parse_topology(Path(path).read_text(encoding="utf-8"))


def _fmt(value) -> str:
    return "" if value is None else repr(value)


def estimate_csv(result) -> str:
    lines = [ESTIMATE_HEADER]
    for i in sorted(result.theta_hat):
        est = result.theta_hat[i] is not None
        lines.append(f"{i},{_fmt(result.theta_hat[i])},{_fmt(result.xi_hat[i])},"
                     f"{result.flags[i]},{'yes' if est else 'no'}")
    return "\n".join(lines) + "\n"


def _cmd_simulate(args) -> int:
    net = _load_topology(args.topology)
    if (args.beta is None) == (args.theta is None):
        raise CliError("exactly one of --beta or --theta is required")
    cfg = SimConfig(net, args.probes, args.seed, replicate=args.replicate)
    if args.beta is not None:
        try:
            a, b = (float(x) for x in args.beta.split(","))
        except ValueError:
            raise CliError(f"--beta expects 'a,b', got {args.beta!r}") from None
        rng = np.random.Generator(np.random.Philox(
            seed=np.random.SeedSequence((args.seed, args.replicate, 0xA11CE))))
        theta = sample_theta(a, b, net, rng)
    else:
        kind, theta = parse_rates(Path(args.theta).read_text(encoding="utf-8"))
        if kind != "theta":
            raise CliError(f"--theta file carries {kind!r} rates, expected theta")
        unknown = sorted(set(theta) - set(net.links))
        if unknown:
            raise CliError(f"--theta file has rates for links not in the topology: "
                           f"{', '.join(map(str, unknown))}")
    patterns = simulate(cfg, theta)
    Path(args.out).write_text(serialize_data(patterns), encoding="utf-8")
    if args.theta_out:
        Path(args.theta_out).write_text(serialize_rates("theta", theta), encoding="utf-8")
    return 0


def _cmd_estimate(args) -> int:
    net = _load_topology(args.topology)
    # internal_views checks the table as it counts it; nem first refuses a
    # large network, so its table is checked here
    patterns = parse_data(Path(args.data).read_text(encoding="utf-8"), net,
                          check=args.method == "nem")
    em = {"theta0": args.init, "tol": args.tol, "max_iter": args.max_iter}
    if args.method == "nem":
        result = nem(patterns, net, **em)
    else:
        options = {"le-xi": {"workers": args.threads}, "pcem": em, "mvwa": {}}
        views, report = internal_views(patterns, net)
        result = estimator(args.method)(views, net, report=report, **options[args.method])
    Path(args.out).write_text(estimate_csv(result), encoding="utf-8")
    if not result.converged:
        print(f"warning: {args.method} stopped after {result.iterations} sweeps "
              f"without meeting --tol", file=sys.stderr)
        return 3
    return 0


def _cmd_bench(args) -> int:
    net = _load_topology(args.topology)
    grid = parse_grid(Path(args.grid).read_text(encoding="utf-8"),
                      master_seed=args.seed)
    report = run_grid(grid, net, workers=args.workers)
    Path(args.out).write_text(report.to_csv(), encoding="utf-8")
    print(report.summary())
    return 0


def _bounded(convert, ok, rule: str):
    """An argparse type: convert the text, then require ok(value)."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    parse.__name__ = convert.__name__   # argparse names it in "invalid int value"
    return parse


_COUNT = _bounded(int, lambda v: v >= 1, ">= 1")
_SEED = _bounded(int, lambda v: v >= 0, ">= 0")
_TOL = _bounded(float, lambda v: math.isfinite(v) and v > 0.0, "finite and > 0")
_RATE = _bounded(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared; not to be changed."""
    parser = argparse.ArgumentParser(
        prog="losstomo",
        description="Link-level loss estimation from end-to-end multicast probes.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate probe data under known rates")
    sim.add_argument("--topology", required=True)
    sim.add_argument("--beta", help="a,b: draw per-link rates from Beta(a,b)")
    sim.add_argument("--theta", help="loss-rate file with explicit per-link rates")
    sim.add_argument("--probes", type=_COUNT, required=True)
    sim.add_argument("--seed", type=_SEED, required=True)
    sim.add_argument("--replicate", type=_SEED, default=0)
    sim.add_argument("--out", required=True)
    sim.add_argument("--theta-out", help="also write the rates that were used")

    est = sub.add_parser("estimate", help="estimate loss rates from probe data")
    est.add_argument("--topology", required=True)
    est.add_argument("--data", required=True)
    est.add_argument("--method", required=True, choices=METHODS)
    est.add_argument("--tol", type=_TOL, default=1e-6)
    est.add_argument("--max-iter", type=_COUNT, default=10000)
    est.add_argument("--init", type=_RATE, default=0.03)
    est.add_argument("--threads", type=_COUNT, default=1,
                     help="accepted for compatibility; estimation is single-threaded")
    est.add_argument("--out", required=True)

    ben = sub.add_parser("bench", help="run a replicated method-comparison grid")
    ben.add_argument("--topology", required=True)
    ben.add_argument("--grid", required=True)
    ben.add_argument("--out", required=True)
    ben.add_argument("--seed", type=_SEED, default=0)
    ben.add_argument("--workers", type=_COUNT, default=1,
                     help="accepted for compatibility; the grid runs single-threaded")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # looked up per call, so a replaced handler is the one that runs
        return globals()[f"_cmd_{args.command}"](args)
    except (CliError, TopologyError, DataError, GridError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"run 'losstomo {args.command} --help' for usage", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
