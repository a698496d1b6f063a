#!/usr/bin/env python3
"""Write the outputs of a fixed matrix of losstomo commands into OUTDIR.

Usage: python3 scripts/output_matrix.py OUTDIR

Run it on two checkouts and compare them with `diff -r`: an empty diff
shows that a change kept every output byte for byte.  The commands go
through losstomo.cli.main in-process, with OUTDIR as the working
directory, on the fixtures/*.topo networks plus shared_pair,
kary_tree(4, 5) and SPLIT_NODE in both of its numberings, and on the
benchmark's hub network (perfbench.inputs.hub_network(1), 764 links in four
trees, with shared and multi-parent links).  SPLIT_NODE's node 1 is reached
by link 1 in tree 1 and link 2 in tree 2, which continue through different
subsets of its child links; the second numbering swaps ids 3 and 4, so the
brother set at node 1 is fed by links 1 and 2 in one numbering and by link 2
alone in the other.  The commands:

* simulate at seeds 0-3 and Beta(1,100), Beta(5,1000) and Beta(1,10);
* simulate twotree12 and kary_tree(4, 5) at MULTI_BLOCK_PROBES probes, so
  each tree gets full simulator blocks and a short last one, and twotree12
  at 1 probe, which leaves its tree 2 with none;
* simulate at BLOCK_EDGE_RUNS, the probe counts at simulator block edges:
  twotree12 with exactly one full block per tree and with one probe more,
  and layered49 with one full block in one tree and one probe more in the
  other;
* simulate the hub network at HUB_RUNS, Beta(1,100) with 8000 probes and
  Beta(1,1000) with 80000 probes, where le_xi and mvwa solve more than
  BATCH_MIN_SETS brother sets per call;
* simulate the smaller hub network hub_network(1, SMALL_HUB) (124 links) at
  Beta(1,100) with 8000 probes, and estimate it with le-xi and mvwa: each
  of its four trees has 16-21 brother sets that need an interior root,
  fewer than BATCH_MIN_SETS, but 75 together, so mvwa's one solve over all
  trees runs batched where each tree alone would take the scalar loop;
* simulate star3 and twotree12 with --theta files of EDGE_RATES, the rates
  at the ends of the simulator's integer loss thresholds (0, the smallest
  float, 2**-53, 1 - 2**-53 and 1), dealt to the links in ascending id
  order, once from each starting rate;
* simulate the stars kary_tree(n, 1) for n in WIDE_STARS, whose receiver
  patterns fill one 64-bit word and spill one bit into a second, at
  MULTI_BLOCK_PROBES probes with --theta files that set theta = 1 on the
  last leaf and, in a second run, on the root;
* estimate on each data file with le-xi, pcem and mvwa, and with nem on
  networks of at most NEM_MAX_LINKS links;
* one pcem run stopped by --max-iter 2 (exit 3), every method on all-dark
  star3 data and on EXHAUSTION, the star kary_tree(4, 1) whose leaves' pass
  counts exactly exhaust the root's, with pass fractions 0.56, 0.16, 0.18
  and 0.1 (their float sum, left to right, is 1 + 2**-52), and bench on
  fixtures/table_grid.txt over layered49;
* bench on EDGE_GRIDS, cells at the edges of bench's per-cell batching: a
  tree with no probes, more than one simulator block per tree, several
  batches of replicates in a cell, nem, the split node in both numberings,
  and brother sets that reach BATCH_MIN_SETS only across a cell's
  replicates; and at the edges of its pools across cells: consecutive
  cells whose probes per tree sum to exactly BLOCK_PROBES, a cell one
  probe past it, cells with differing method lists, and pcem cells that
  fill a pool up to POOL_POSITIONS positions and one dataset past it;
* one estimate per BAD_TOPOLOGIES file, each malformed in a different way
  (exit 2), so the log pins every topology error message;
* one le-xi estimate on star3 per BAD_DATA file, each malformed in a
  different way (exit 2), so the log pins every data error message through
  the CLI, the line-numbered ones included;
* simulate star3 at each BAD_BETAS setting, Beta parameters that are 0,
  nan or inf (exit 2), so the log pins sample_theta's message;
* simulate star3 with --seed -1 and with --replicate -1, and bench with
  --seed -1 (exit 2), so the log pins the message that names the flag;
* le-xi on valid but unusual rewrites (UNUSUAL) of star3's fixture data and
  of the twotree12 and hub data files: comments, tabs, blank lines, CRLF
  line ends, and pattern lines before and between the header lines.

Every file the commands write stays in OUTDIR; commands.log holds each
command with its exit code and stderr.  Nothing is timed: the bench CSV
loses its runtime_ms column, and stdout (bench's summary, with its mean
times) is dropped.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from losstomo import cli, fixtures  # noqa: E402
from losstomo.estimators import NEM_MAX_LINKS  # noqa: E402
from losstomo.topology import parse_topology, serialize_topology  # noqa: E402
from perfbench.inputs import HubShape, hub_network  # noqa: E402

SEEDS = range(4)
BETAS = ("1,100", "5,1000", "1,10")
PROBES = "500"
MULTI_BLOCK_PROBES = "9000"
BLOCK_EDGE_RUNS = (("twotree12", "8192"), ("twotree12", "8194"), ("layered49", "8193"))
HUB_RUNS = (("1,100", "8000"), ("1,1000", "80000"))
SMALL_HUB = HubShape(private_depth=3, hub_depth=3)
EDGE_RATES = (0.0, 5e-324, 2.0 ** -53, 1.0 - 2.0 ** -53, 1.0)
EDGE_GRIDS = (
    # twotree12 at 1 probe leaves tree 2 none; at 1500 probes per tree two
    # replicates share a batch, seven in four batches; at 3000 each runs alone
    ("twotree12", "cell 1 20 1 3 le-xi,pcem,mvwa,nem\ncell 2 60 3000 7 le-xi,pcem,mvwa\n"
                  "cell 2 60 6000 3 le-xi,pcem,mvwa\ncell 2 60 80 3 nem\n"),
    # a full block and a 5-row one in star3's one tree
    ("star3", "cell 1 100 4101 2 le-xi,pcem,mvwa\ncell 1 20 60 4 nem,le-xi,mvwa\n"),
    ("split_node", "cell 1 10 400 4 le-xi,pcem,mvwa,nem\n"),
    ("split_node_swapped", "cell 1 10 400 4 le-xi,pcem,mvwa,nem\n"),
    # under 10 sets per replicate need an interior root, over 50 across the
    # cell's one batch
    ("layered49", "cell 1 100 400 10 le-xi,mvwa\n"),
    # per tree: 2000 + 2096 probes fill one pool exactly, and the next probe
    # opens another; 4095 + 1 fill it again, and 4096 more open a third
    ("layered49", "cell 1 100 400 10 le-xi,mvwa\ncell 1 100 262 16 le-xi,pcem,mvwa\n"
                  "cell 1 100 2 1 le-xi,mvwa\ncell 5 1000 8190 1 le-xi,mvwa\n"
                  "cell 5 1000 8192 1 mvwa\n"),
    # one pool of cells that list le-xi, mvwa, both, or nem beside them
    ("twotree12", "cell 1 40 100 12 le-xi\ncell 1 40 200 12 mvwa,pcem\n"
                  "cell 1 40 300 12 le-xi,mvwa,nem\n"),
    ("layered49", "cell 2 1000 100 6 le-xi\ncell 2 1000 200 6 mvwa,pcem\n"
                  "cell 2 1000 300 6 le-xi,mvwa\n"),
    # at 56 positions a dataset, 27 + 13 + 33 datasets fill a pool up to its
    # last whole dataset below POOL_POSITIONS, and the next one opens another;
    # pcem's datasets stop at different sweeps in both pools
    ("layered49", "cell 1 100 300 40 le-xi,pcem,mvwa\ncell 1 1000 150 33 pcem,mvwa\n"
                  "cell 2 1000 80 1 le-xi,pcem\ncell 5 1000 400 20 pcem\n"),
)
WIDE_STARS = (64, 65)
ALL_DARK = "data all-dark\nprobes 1 4\nreceivers 1 : 2 3\npattern 1 00 4\n"
EXHAUSTION = ("data exhaustion\nprobes 1 120\nreceivers 1 : 2 3 4 5\npattern 1 1000 56\n"
              "pattern 1 0100 16\npattern 1 0010 18\npattern 1 0001 10\npattern 1 0000 20\n")
SPLIT_NODE = ("network split_node\nlink 1 10 1\nlink 2 20 1\nlink 3 1 2\nlink 4 1 3\n"
              "tree 1 1 : 1 3\ntree 2 2 : 2 3 4\n")
SPLIT_NODE_SWAPPED = ("network split_node\nlink 1 10 1\nlink 2 20 1\nlink 4 1 2\nlink 3 1 3\n"
                      "tree 1 1 : 1 4\ntree 2 2 : 2 4 3\n")
BAD_TOPOLOGIES = (
    "network x\nlink 1 0 1\nlink 1 0 2\ntree 1 1 : 1",
    "network x\nlink 1 0 1\ntree 1 1 : 1 2",
    "network x\nlink 1 0 1\ntree 1 2 : 1",
    "network x\nlink 1 0 1\nlink 2 5 6\ntree 1 1 : 1 2",
    "network x\nlink 1 0 1\nlink 2 1 2\ntree 1 1 : 1 2\ntree 2 2 : 2",
    "network x\nlink 1 0 1\ntree 1 1 :",
    "network x\nlink 1 1 1\ntree 1 1 : 1",
    "link 1 0 1\ntree 1 1 : 1",
    "network x\nlink 1 0 1",
    "network x\nlink 1 0 1\nlink 2 0 2\ntree 1 1 : 1",
    # link 2 is internal in tree 1 but a leaf in tree 2
    "network x\nlink 1 0 1\nlink 2 1 2\nlink 3 2 3\nlink 4 5 1\n"
    "tree 1 1 : 1 2 3\ntree 2 4 : 4 2",
    "network x\nlink 1 0 1\nlink 2 1 0\ntree 1 1 : 1 2",
    "network x\nlink 1 0 1\nlink 2 1 2\nlink 3 2 3\nlink 4 3 2\ntree 1 1 : 1 2 3 4",
    # tree 1's root link reused below tree 2's root, which enters tree 1's source
    "network x\nlink 1 0 1\nlink 2 1 2\nlink 4 7 0\ntree 1 1 : 1 2\ntree 2 4 : 4 1 2",
)

STAR_HEAD = "data x\nprobes 1 2\nreceivers 1 : 2 3\n"
BAD_DATA = (
    "probes 1 2\nreceivers 1 : 2 3\npattern 1 11 2\n",
    STAR_HEAD + "pattern 1 11 1\n",
    "data x\nprobes 1 1\nreceivers 1 : 3 2\npattern 1 11 1\n",
    STAR_HEAD + "pattern 1 111 2\n",
    "data x\nprobes 1 1\npattern 1 11 1\n",
    "data x\nprobes 9 1\nreceivers 9 : 2 3\npattern 9 11 1\n",
    STAR_HEAD + "pattern 1 11 1\npattern 1 11 1\n",
    # one tree id spelled two ways
    STAR_HEAD + "pattern 1 11 1\npattern 01 11 1\n",
    STAR_HEAD + "pattern 1 11 1\nbogus 1\n",
    "data x\nprobes 1 1\nprobes 1 1\nreceivers 1 : 2 3\npattern 1 11 1\n",
    "data x\nprobes 1 1\nreceivers 1 : 2 3\nreceivers 1 : 2 3\npattern 1 11 1\n",
    STAR_HEAD + "pattern 1 11 x\npattern 1 10 1\n",
    # a comment cuts a pattern line short
    STAR_HEAD + "pattern 1 11 # 1\npattern 1 10 1\n",
    # the right number of tokens in all, the wrong number on each line
    STAR_HEAD + "pattern 1 11 1 5\npattern 1 10\n",
    STAR_HEAD + "pattern 1 11 1\npattern 2 10 1\n",
    STAR_HEAD + "pattern 1 11 0\npattern 1 10 2\n",
    "data x y\nprobes 1 2\nreceivers 1 : 2 3\npattern 1 11 2\n",
    "data x\nprobes 1 2\nreceivers 1 2 3\npattern 1 11 2\n",
)
BAD_BETAS = ("0,1", "nan,1", "inf,1", "1,inf")
UNUSUAL = ("comments", "crlf-tabs", "out-of-order")


def _unusual(text: str, kind: str) -> str:
    """text rewritten as a valid data file of the given UNUSUAL kind."""
    lines = text.splitlines()
    head = [line for line in lines if not line.startswith("pattern ")]
    patterns = [line for line in lines if line.startswith("pattern ")]
    if kind == "comments":
        return "".join(f"# line {n}\n{line}  # trailing\n" for n, line in enumerate(lines))
    if kind == "crlf-tabs":
        return "\r\n".join(["", *("\t".join(line.split()) for line in lines), "  "]) + "\r\n"
    half = len(patterns) // 2
    return "\n".join(patterns[half:] + head[::-1] + patterns[:half]) + "\n"


def _run(log: list[str], *argv: str) -> None:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    log.append(f"$ losstomo {' '.join(argv)}\nexit {code}\n{err.getvalue()}")


def _drop_runtime(csv: str) -> str:
    # runtime_ms is the third field from the right; the setting field holds a comma
    rows = []
    for line in csv.splitlines():
        head, _, iterations, violations = line.rsplit(",", 3)
        rows.append(f"{head},{iterations},{violations}\n")
    return "".join(rows)


def _simulate_and_estimate(log: list[str], name: str, methods: list[str], rates: str,
                           seed: int, probes: str, stem: str, flag: str = "--beta") -> None:
    """Simulate under rates, Beta parameters 'a,b' or with flag="--theta" a rate
    file, then estimate the data with each method."""
    topo = f"{name}.topo"
    _run(log, "simulate", "--topology", topo, flag, rates, "--probes", probes,
         "--seed", str(seed), "--out", f"{stem}.data", "--theta-out", f"{stem}.rates")
    for method in methods:
        _run(log, "estimate", "--topology", topo, "--data", f"{stem}.data",
             "--method", method, "--out", f"{stem}.{method}.csv")


def run_matrix(log: list[str]) -> None:
    nets = {p.stem: p.read_text(encoding="utf-8")
            for p in sorted((ROOT / "fixtures").glob("*.topo"))}
    nets["shared_pair"] = serialize_topology(fixtures.shared_pair())
    nets["kary_4_5"] = serialize_topology(fixtures.kary_tree(4, 5))
    nets["split_node"] = SPLIT_NODE
    nets["split_node_swapped"] = SPLIT_NODE_SWAPPED
    methods = {}
    for name, text in nets.items():
        Path(f"{name}.topo").write_text(text, encoding="utf-8")
        methods[name] = ["le-xi", "pcem", "mvwa"]
        if len(parse_topology(text).links) <= NEM_MAX_LINKS:
            methods[name].append("nem")
        for beta in BETAS:
            for seed in SEEDS:
                _simulate_and_estimate(log, name, methods[name], beta, seed, PROBES,
                                       f"{name}.beta{beta.replace(',', '_')}.seed{seed}")
    for name, probes in (("twotree12", MULTI_BLOCK_PROBES), ("kary_4_5", MULTI_BLOCK_PROBES),
                         ("twotree12", "1"), *BLOCK_EDGE_RUNS):
        _simulate_and_estimate(log, name, methods[name], "1,100", 0, probes,
                               f"{name}.beta1_100.seed0.probes{probes}")
    for name in ("star3", "twotree12"):
        links = sorted(parse_topology(nets[name]).links)
        for start in range(len(EDGE_RATES)):
            stem = f"{name}.edge-rates{start}"
            Path(f"{stem}.theta").write_text("".join(
                f"theta {i} {EDGE_RATES[(n + start) % len(EDGE_RATES)]!r}\n"
                for n, i in enumerate(links)), encoding="utf-8")
            _simulate_and_estimate(log, name, methods[name], f"{stem}.theta", 0, PROBES,
                                   stem, flag="--theta")
    for leaves in WIDE_STARS:
        name = f"star{leaves}"
        star = fixtures.kary_tree(leaves, 1)
        Path(f"{name}.topo").write_text(serialize_topology(star), encoding="utf-8")
        for dead in (leaves + 1, 1):
            stem = f"{name}.dead{dead}"
            Path(f"{stem}.theta").write_text("".join(
                f"theta {i} {1.0 if i == dead else 0.02 + 0.01 * (i % 7)!r}\n"
                for i in sorted(star.links)), encoding="utf-8")
            _simulate_and_estimate(log, name, ["le-xi", "pcem", "mvwa"], f"{stem}.theta", 0,
                                   MULTI_BLOCK_PROBES, stem, flag="--theta")
    Path("hub.topo").write_text(hub_network(1).topology_text(), encoding="utf-8")
    for beta, probes in HUB_RUNS:
        _simulate_and_estimate(log, "hub", ["le-xi", "pcem", "mvwa"], beta, 0, probes,
                               f"hub.beta{beta.replace(',', '_')}.seed0.probes{probes}")
    Path("hub_small.topo").write_text(hub_network(1, SMALL_HUB).topology_text(), encoding="utf-8")
    _simulate_and_estimate(log, "hub_small", ["le-xi", "mvwa"], "1,100", 0, "8000",
                           "hub_small.beta1_100.seed0.probes8000")

    _run(log, "estimate", "--topology", "layered49.topo",
         "--data", "layered49.beta1_100.seed0.data", "--method", "pcem",
         "--max-iter", "2", "--out", "layered49.pcem-max-iter-2.csv")

    Path("all-dark.data").write_text(ALL_DARK, encoding="utf-8")
    Path("star4.topo").write_text(serialize_topology(fixtures.kary_tree(4, 1)), encoding="utf-8")
    Path("exhaustion.data").write_text(EXHAUSTION, encoding="utf-8")
    for topo, stem in (("star3", "all-dark"), ("star4", "exhaustion")):
        for method in ("le-xi", "pcem", "mvwa", "nem"):
            _run(log, "estimate", "--topology", f"{topo}.topo", "--data", f"{stem}.data",
                 "--method", method, "--out", f"{stem}.{method}.csv")

    grid = Path("table_grid.txt")
    grid.write_text((ROOT / "fixtures" / "table_grid.txt").read_text(encoding="utf-8"),
                    encoding="utf-8")
    _run(log, "bench", "--topology", "layered49.topo", "--grid", str(grid),
         "--out", "bench.csv", "--seed", "0")
    benches = [Path("bench.csv")]
    for n, (name, cells) in enumerate(EDGE_GRIDS):
        Path(f"edge{n}.grid").write_text(cells, encoding="utf-8")
        benches.append(Path(f"bench-edge{n}.csv"))
        _run(log, "bench", "--topology", f"{name}.topo", "--grid", f"edge{n}.grid",
             "--out", benches[-1].name, "--seed", str(n))
    for bench in benches:
        if bench.exists():
            bench.write_text(_drop_runtime(bench.read_text(encoding="utf-8")),
                             encoding="utf-8")

    for n, text in enumerate(BAD_TOPOLOGIES):
        Path(f"bad{n}.topo").write_text(text, encoding="utf-8")
        _run(log, "estimate", "--topology", f"bad{n}.topo", "--data", "all-dark.data",
             "--method", "le-xi", "--out", f"bad{n}.csv")

    for n, text in enumerate(BAD_DATA):
        Path(f"bad{n}.data").write_text(text, encoding="utf-8")
        _run(log, "estimate", "--topology", "star3.topo", "--data", f"bad{n}.data",
             "--method", "le-xi", "--out", f"bad{n}.data.csv")

    for beta in BAD_BETAS:
        _run(log, "simulate", "--topology", "star3.topo", "--beta", beta, "--probes", PROBES,
             "--seed", "0", "--out", f"star3.bad-beta{beta.replace(',', '_')}.data")

    _run(log, "simulate", "--topology", "star3.topo", "--beta", "1,100", "--probes", PROBES,
         "--seed", "-1", "--out", "star3.seed-1.data")
    _run(log, "simulate", "--topology", "star3.topo", "--beta", "1,100", "--probes", PROBES,
         "--seed", "0", "--replicate", "-1", "--out", "star3.replicate-1.data")
    _run(log, "bench", "--topology", "layered49.topo", "--grid", str(grid),
         "--out", "bench.seed-1.csv", "--seed", "-1")

    sources = {"star3": (ROOT / "fixtures" / "star3.data").read_text(encoding="utf-8"),
               "twotree12": Path("twotree12.beta1_100.seed0.data").read_text(encoding="utf-8"),
               "hub": Path("hub.beta1_100.seed0.probes8000.data").read_text(encoding="utf-8")}
    for name, text in sources.items():
        for kind in UNUSUAL:
            stem = f"{name}.{kind}"
            with open(f"{stem}.data", "w", encoding="utf-8", newline="") as f:
                f.write(_unusual(text, kind))
            _run(log, "estimate", "--topology", f"{name}.topo", "--data", f"{stem}.data",
                 "--method", "le-xi", "--out", f"{stem}.csv")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: output_matrix.py OUTDIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    # argparse wraps a usage line to the terminal's width, which COLUMNS sets
    os.environ["COLUMNS"] = "80"
    log: list[str] = []
    try:
        run_matrix(log)
    finally:
        Path("commands.log").write_text("".join(log), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
