#!/usr/bin/env python3
"""Benchmark of losstomo's user commands, end to end and layer by layer.

    python3 perfbench/run.py --workload grid-layered49 --seed 1 --seconds 40 --trace 0

Run from the repository root; the program is imported from ./src.  One
client runs whole passes of user commands (see workloads.py), one at a
time and single-threaded, while the next pass would still end within
--seconds, and checks the outputs of every pass.  Times are in `ref`: a command's wall time divided by the mean wall
time of a fixed reference computation timed just before and just after it.
The last line of stdout is one JSON object: end-to-end metrics with
--trace 0, per-layer metrics from separate traced passes with --trace 1.
Details and reference figures: perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench.tracing import LAYER_METRICS, Tracer, layer_unit  # noqa: E402
from perfbench.workloads import ORDER, WORKLOADS, Pass  # noqa: E402

# failing at the start of this benchmark: the bench CSV's setting column holds an
# unquoted comma, so the csv module reads 11 fields under a 10-column header
READ_BACK = "bench.csv"
SETUP_RUNS = 5
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import losstomo; "
              "losstomo.parse_topology(open(sys.argv[2], encoding='utf-8').read())")


def reference_pass() -> float:
    """Fixed plain-Python and numpy work, the unit `ref`; imports nothing from losstomo.

    Half of it is dict and float work like the program's per-link loops, half
    random draws and a row-wise unique over a bit matrix like its simulator, so
    that the unit follows the machine's speed on both kinds of work.
    """
    x, values = 0.3, {}
    for i in range(20000):
        x = 3.99 * x * (1.0 - x)
        values[i] = x
    acc = 0.0
    for i in range(0, 20000, 2):
        acc += values[i] * values[i + 1] if values[i] < 0.5 else values[i] - values[i + 1]
    draws = np.random.Generator(np.random.Philox(7)).random((2048, 128))
    rows = np.unique(draws[:, :64] >= 0.3, axis=0)
    return acc + len(rows)


def reference_seconds() -> float:
    """Wall time of one reference pass: the median of three back to back, so that
    a pass caught by a scheduler stall does not set the unit."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_pass()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def setup_seconds(topology: Path) -> float:
    """Median wall time of a fresh interpreter importing losstomo and parsing the topology."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(topology)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def one_pass(p) -> dict[str, tuple[float, float]]:
    """command -> (wall seconds of one command, ref seconds around it) for one pass.

    A short command runs `repeats` times back to back within one sample, so
    that the sample spans several refs.
    """
    samples = {}
    ref = reference_seconds()
    for key in ORDER:
        reps = p.w.repeats_of(key)
        start = time.perf_counter()
        for _ in range(reps):
            p.run_command(key)
        wall = (time.perf_counter() - start) / reps
        ref_after = reference_seconds()
        samples[key] = (wall, (ref + ref_after) / 2)
        ref = ref_after
    return samples


class Ledger:
    """Operations attempted and failed.

    The run is correct unless a check other than the CSV read-back fails.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, str] = {}

    def record(self, results):
        for name, error in results:
            self.attempted += 1
            if error is not None:
                self.failed += 1
                self.errors.setdefault(name, error)

    @property
    def correct(self) -> bool:
        return set(self.errors) <= {READ_BACK}


def in_ref(passes, key: str) -> list[float]:
    return [s[key][0] / s[key][1] for s in passes]


def end_to_end(w, passes, setup_s) -> dict[str, tuple[float, str]]:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "grid_rate": (statistics.median(w.grid_datasets / v for v in in_ref(passes, "bench")),
                      "datasets/ref"),
    }
    for key in ORDER[:-1]:
        out[f"{key}_time"] = (statistics.median(in_ref(passes, key)), "ref")
    return out


def per_layer(w, tracer, traced, untraced) -> tuple[dict[str, tuple[float, str]], dict]:
    def pass_ref(s):
        return sum(s[k][0] * w.repeats_of(k) / s[k][1] for k in ORDER)

    n = len(traced)
    ref = statistics.mean(s[k][1] for s in traced for k in ORDER)
    times = tracer.layer_times()
    values: dict[str, float] = {"trace.overhead": statistics.median(map(pass_ref, traced))
                                - statistics.median(map(pass_ref, untraced))}
    for name, (self_s, total_s, calls) in times.items():
        values[f"{name}.self"] = self_s / n / ref
        values[f"{name}.total"] = total_s / n / ref
        values[f"{name}.calls"] = calls // n
    for name, count in tracer.counts.items():
        values[name] = count // n
    metrics = {m: (values.get(m, 0), layer_unit(m)) for m in LAYER_METRICS}
    wall = sum(s[k][0] * w.repeats_of(k) for s in traced for k in ORDER)
    shares = {name: round(self_s / wall, 4) for name, (self_s, _, _) in
              sorted(times.items(), key=lambda kv: -kv[1][0])}
    return metrics, shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "losstomo" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'losstomo'} is missing", file=sys.stderr)
        return 2
    import losstomo
    if Path(losstomo.__file__).resolve().parent != SRC / "losstomo":
        print(f"error: imported losstomo from {losstomo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]

    p = Pass(w, args.seed, RESULTS / w.name)
    ledger = Ledger()
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass(p))
        ledger.record(p.check())
        spent = time.perf_counter() - start
        if spent + spent / len(passes) > args.seconds:   # the next pass would end late
            break

    notes = {"workload": w.name, "seed": args.seed, "passes": len(passes),
             "ref_seconds": statistics.median(s[k][1] for s in passes for k in ORDER),
             "wall_seconds": {k: statistics.median(s[k][0] for s in passes) for k in ORDER}}
    if args.trace:
        # each traced pass follows an untraced one, so the overhead compares
        # passes made under the same machine load
        tracer, traced, paired = Tracer(), [], []
        for _ in range(w.traced_passes):
            paired.append(one_pass(p))
            with tracer:
                traced.append(one_pass(p))
            ledger.record(p.check())
        tracer.write(RESULTS / f"{w.name}.spans.json")
        metrics, notes["self_share"] = per_layer(w, tracer, traced, paired)
    else:
        metrics = end_to_end(w, passes, setup_seconds(p.topology))
    notes["errors"] = ledger.errors
    print(json.dumps(notes), file=sys.stderr)
    print(json.dumps({
        "correct": ledger.correct, "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
