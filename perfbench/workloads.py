"""Seeded inputs, CLI command lines and output checks for each workload.

A workload is a list of `degnn` CLI commands. Every input file is written
here from the workload seed, and every check reads the artifacts a command
wrote with its own parsing, never with degnn code, so a defect in the
program cannot also hide itself from the check.

Each workload joins two parts that stress different layers:
  sweep_train        depth_sweep + wide_train: repeated partitioning and
                     dense training, no SVD at all
  certify_partition  certify + partition_large: SVD-bound certificates and
                     one large partition whose key never repeats
so each optimization on the roadmap has a workload that exercises it and
one that bypasses it. Two workloads rather than four because a shared
2-core host drifts in speed over tens of seconds: a run must measure for
about a minute to give a steady median, and a full set of runs has to stay
within an hour.

The parts, with shares of the workload's traced wall time as measured
with `--trace 1` at the sizes below (2-core x86 host, python SVD lane,
seeds 7 and 11):
  depth_sweep      51-55% of sweep_train. 24 partition calls on 8 distinct
                   keys are 77-81% of the command and 42-44% of the
                   workload, so a partition cache or a faster FM pass shows
                   here. Its epoch loops are most of the rest.
  wide_train       45-49% of sweep_train. No partition and no SVD; the epoch
                   loop is 86-88% of the command and piece_matrices 9-10%.
                   With depth_sweep's, epoch loops are 49-50% of the
                   workload, so sparse propagation shows here.
  certify          decay is 28-30% of certify_partition: 31 SVDs, 96% of
                   the command inside the Jacobi sweep. verify is 29-33%:
                   1.7k SVDs, mostly 6x6 or smaller, 69-70% of the command
                   in the sweep and 19-20% in svd() around it. Together SVD
                   is 54-59% of the workload, the sweep 47-51%.
  partition_large  38-43% of certify_partition; one partition call is 93-94%
                   of the command and 36-41% of the workload. Its key never
                   repeats, so a cache gains nothing and any cost it adds
                   shows; a faster FM pass still shows.
Layers outside these shares are too small for a change to them alone to move
wall_s past its bound: svd() outside the sweep (7% of certify_partition),
graph loading (1%) and the CLI's own code (under 0.2%). Their per-layer
metrics show such a change.
"""

import csv
import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Sizes are cut down from the paper-scale runs so that one repetition takes
# a few seconds on a 2-core box and a run can take the median of several.
# Each part stays at least a quarter of its workload's wall time, so a gain
# in the layer it targets can move wall_s past its bound.
FULL = {
    "depth_sweep": {"nodes": 150, "p_in": 0.21, "p_out": 0.013},
    "wide_train": {"nodes": 1000, "epochs": 25},
    "certify": {"graph_nodes": 16, "graph_edges": 40, "samples": 3,
                "trials": 120},
    "partition_large": {"nodes": 2000, "blocks": 10},
}

# Small enough that the smoke test runs every workload in seconds.
TINY = {
    "depth_sweep": {"nodes": 40, "p_in": 0.4, "p_out": 0.05},
    "wide_train": {"nodes": 60, "epochs": 3},
    "certify": {"graph_nodes": 6, "graph_edges": 9, "samples": 2,
                "trials": 2},
    "partition_large": {"nodes": 120, "blocks": 4},
}

WORKLOADS = {
    "sweep_train": ("depth_sweep", "wide_train"),
    "certify_partition": ("certify", "partition_large"),
}

# decay certificate: bound must be 0.5**depth (sigma_w = 0.5 and the
# normalized adjacency has top singular value 1) to this relative tolerance
BOUND_REL_TOL = 1e-12
# realized singular values may exceed the bound only by roundoff
SV_REL_TOL = 1e-9
ENTROPY_TOL = 1e-12


@dataclass
class Command:
    """One CLI invocation: `python -m degnn.cli <args>`, writing into out."""

    label: str
    args: list
    out: Path
    check: object
    expect: dict = field(default_factory=dict)


def _write_edges(path, edges):
    path.write_text("".join(f"{i} {j}\n" for i, j in edges), encoding="utf-8")


def _random_graph(rng, n, m):
    """n nodes, m distinct edges: a random spanning tree plus random extras.

    The tree keeps every node present, so the file always spans n nodes and
    the work per seed does not depend on which ids happen to be drawn.
    """
    order = rng.permutation(n)
    edges = set()
    for idx in range(1, n):
        parent = order[int(rng.integers(0, idx))]
        a, b = int(order[idx]), int(parent)
        edges.add((min(a, b), max(a, b)))
    while len(edges) < m:
        a, b = (int(v) for v in rng.integers(0, n, size=2))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def _planted_partition(rng, n, blocks, deg_in=8.0, deg_out=0.8):
    """Sparse planted-partition graph with about n*(deg_in+deg_out)/2 edges."""
    block_of = np.arange(n) % blocks
    members = [np.flatnonzero(block_of == b) for b in range(blocks)]
    edges = set()
    target = int(round(n * deg_in / 2))
    while len(edges) < target:
        b = int(rng.integers(0, blocks))
        a, c = rng.choice(members[b], size=2)
        if a != c:
            edges.add((int(min(a, c)), int(max(a, c))))
    target = len(edges) + int(round(n * deg_out / 2))
    while len(edges) < target:
        a, c = (int(v) for v in rng.integers(0, n, size=2))
        if block_of[a] != block_of[c]:
            edges.add((min(a, c), max(a, c)))
    return sorted(edges)


def rep_seed(seed, rep):
    """The seed of repetition `rep` of the run with seed `seed`."""
    state = np.random.SeedSequence([seed, rep]).generate_state(1)[0]
    return int(state % 2**30)


def build(workload, seed, work_dir, sizes=FULL):
    """Write the workload's inputs under work_dir; return its commands."""
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    return [cmd for part in WORKLOADS[workload]
            for cmd in _part(part, sizes[part], seed, work_dir, rng)]


def _part(part, size, seed, work_dir, rng):
    seed_args = ["--seed", str(seed)]

    if part == "depth_sweep":
        out = work_dir / "depthsweep"
        return [Command(
            "depthsweep",
            ["depthsweep", "--backbones", "gcn", "--depths", "2,6",
             "--decompose", "none,ca", "--seeds", "0..2", "--k", "4",
             "--p", "16", "--nodes", str(size["nodes"]),
             "--p-in", str(size["p_in"]), "--p-out", str(size["p_out"]),
             "--data-seed", str(seed), *seed_args, "--out", str(out)],
            out, check_depthsweep,
            {"depths": [2, 6], "sources": ["none", "connectivity_aware"],
             "seeds": 3},
        )]

    if part == "wide_train":
        # patience >= max_epochs: early stopping can never fire, so every
        # seed trains exactly `epochs` epochs and does the same work
        config = work_dir / "model.cfg"
        epochs = size["epochs"]
        config.write_text(
            "backbone=jknet\ndepth=6\nhidden=16\nk_schedule=4,4,4,4,4,4\n"
            f"max_epochs={epochs}\npatience={epochs}\n", encoding="utf-8")
        out = work_dir / "train"
        return [Command(
            "train",
            ["train", "--config", str(config), "--decompose", "random",
             "--nodes", str(size["nodes"]), "--p-in", "0.04",
             "--p-out", "0.002", "--data-seed", str(seed), *seed_args,
             "--out", str(out)],
            out, check_train, {"epochs": epochs},
        )]

    if part == "certify":
        edges = work_dir / "certify_edges.txt"
        _write_edges(edges, _random_graph(rng, size["graph_nodes"],
                                          size["graph_edges"]))
        decay_out = work_dir / "decay"
        verify_out = work_dir / "verify"
        return [
            Command(
                "decay",
                ["decay", "--edges", str(edges), "--depths", "1..6",
                 "--samples", str(size["samples"]), *seed_args,
                 "--out", str(decay_out)],
                decay_out, check_decay, {"depths": list(range(1, 7))},
            ),
            Command(
                "verify",
                ["verify", "--trials", str(size["trials"]), *seed_args,
                 "--out", str(verify_out)],
                verify_out, check_verify,
                {"suites": ["kron", "lemma1", "lemma3", "regimes"]},
            ),
        ]

    if part == "partition_large":
        edges = work_dir / "planted_edges.txt"
        _write_edges(edges, _planted_partition(rng, size["nodes"],
                                               size["blocks"]))
        out = work_dir / "decompose"
        return [Command(
            "decompose",
            ["decompose", "--edges", str(edges), "--strategy", "ca",
             "--k", "4", "--p", "16", *seed_args, "--out", str(out)],
            out, check_decompose, {"edges": edges, "k": 4},
        )]

    raise ValueError(f"unknown workload part {part!r}")


def reset_outputs(commands):
    """Remove the commands' output directories before a repetition."""
    for cmd in commands:
        shutil.rmtree(cmd.out, ignore_errors=True)


def tree_digest(directory, skip=("manifest.json",)):
    """sha256 over each file's relative path and bytes, skipping named parts.

    By default manifests are skipped: they carry wall-clock times, so they
    differ on every run, while the other artifacts are deterministic under
    the seed and should stay byte-identical across changes that claim not
    to alter results.
    """
    digest = hashlib.sha256()
    directory = Path(directory)
    for path in sorted(directory.rglob("*")):
        relative = path.relative_to(directory)
        if path.is_file() and not set(skip).intersection(relative.parts):
            digest.update(str(relative).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _finite(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_depthsweep(cmd):
    """Every cell present with a finite accuracy; aggregates match cells."""
    problems = []
    rows = _read_csv(cmd.out / "depthsweep.csv")
    cells = {}
    aggregates = {}
    for row in rows:
        key = (row["backbone"], int(row["depth"]), row["source"])
        if row["kind"] == "cell":
            if not _finite(row["test_acc"]) or not (
                    0.0 <= float(row["test_acc"]) <= 1.0):
                problems.append(f"cell {key}: test_acc {row['test_acc']!r}")
                continue
            cells.setdefault(key, []).append(float(row["test_acc"]))
        else:
            aggregates[key] = row
    want = {("gcn", d, s) for d in cmd.expect["depths"]
            for s in cmd.expect["sources"]}
    if set(cells) != want or set(aggregates) != want:
        problems.append(f"cells {sorted(cells)} != expected {sorted(want)}")
    for key, accs in cells.items():
        if len(accs) != cmd.expect["seeds"]:
            problems.append(f"cell {key}: {len(accs)} seeds")
        agg = aggregates.get(key)
        if agg is None:
            continue
        if not _finite(agg["test_mean"]) or abs(
                float(agg["test_mean"]) - sum(accs) / len(accs)) > 1e-12:
            problems.append(f"aggregate {key}: mean does not match its cells")
    return problems


def check_train(cmd):
    """Finite history of exactly the configured epoch count."""
    problems = []
    result = json.loads((cmd.out / "result.json").read_text(encoding="utf-8"))
    rows = _read_csv(cmd.out / "history.csv")
    epochs = cmd.expect["epochs"]
    if result.get("epochs_run") != epochs:
        problems.append(f"epochs_run {result.get('epochs_run')} != {epochs}")
    if len(rows) != epochs:
        problems.append(f"history has {len(rows)} rows, expected {epochs}")
    for row in rows:
        for column in ("train_loss", "train_acc", "val_loss", "val_acc"):
            if not _finite(row[column]):
                problems.append(f"epoch {row['epoch']}: {column} not finite")
    acc = result.get("test_acc")
    if not isinstance(acc, float) or not 0.0 <= acc <= 1.0:
        problems.append(f"test_acc {acc!r} outside [0, 1]")
    return problems


def check_decay(cmd):
    """bound == 0.5**depth, max_sv <= bound, entropy never increases."""
    problems = []
    rows = _read_csv(cmd.out / "decay.csv")
    depths = [int(r["depth"]) for r in rows]
    if depths != cmd.expect["depths"]:
        problems.append(f"depths {depths} != {cmd.expect['depths']}")
    entropy_prev = math.inf
    for row in rows:
        depth = int(row["depth"])
        bound, max_sv = float(row["bound"]), float(row["max_sv"])
        entropy = float(row["entropy_bits"])
        exact = 0.5 ** depth
        if abs(bound - exact) > BOUND_REL_TOL * exact:
            problems.append(f"depth {depth}: bound {bound!r} != {exact!r}")
        if not max_sv <= bound * (1.0 + SV_REL_TOL):
            problems.append(f"depth {depth}: max_sv {max_sv!r} > bound")
        if not entropy <= entropy_prev + ENTROPY_TOL:
            problems.append(f"depth {depth}: entropy rose to {entropy!r}")
        entropy_prev = entropy
    return problems


def check_verify(cmd):
    """Every suite ran and passed every trial."""
    problems = []
    report = json.loads((cmd.out / "report.json").read_text(encoding="utf-8"))
    if sorted(report) != cmd.expect["suites"]:
        problems.append(f"suites {sorted(report)} != {cmd.expect['suites']}")
    for name, rep in report.items():
        if rep.get("passed") != rep.get("total") or not rep.get("ok"):
            problems.append(f"{name}: {rep.get('passed')}/{rep.get('total')}")
    return problems


def _read_pairs(path):
    pairs = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            if fields:
                a, b = int(fields[0]), int(fields[1])
                pairs.add((min(a, b), max(a, b)))
    return pairs


def check_decompose(cmd):
    """The pieces cover exactly the input edges; the skeleton is in each."""
    problems = []
    k = cmd.expect["k"]
    pieces = [_read_pairs(cmd.out / f"piece_{i}.txt") for i in range(k)]
    skeleton = _read_pairs(cmd.out / "skeleton.txt")
    edges = _read_pairs(cmd.expect["edges"])
    union = set().union(*pieces)
    if union != edges:
        problems.append(
            f"piece union differs from the edge set: {len(union - edges)} "
            f"extra, {len(edges - union)} missing")
    if not skeleton:
        problems.append("skeleton is empty")
    for i, piece in enumerate(pieces):
        if not skeleton <= piece:
            problems.append(f"piece {i} lacks {len(skeleton - piece)} "
                            "skeleton edges")
    return problems
