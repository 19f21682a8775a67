"""Golden output digests: run a fixed, seeded set of CLI commands on a tree.

    python3 tools/golden_digests.py [TREE]

TREE is the root of a source checkout (default: the checkout holding this
script); degnn is imported from TREE/src. Every command runs in a fresh
process, one at a time, in a temporary directory, with every DEGNN_*
variable removed from the environment (click would read unset options from
them). The script prints one `sha256  artifact` line per output file, sorted
by path. manifest.json files are skipped: they carry wall-clock times.

Two trees whose outputs are byte-identical print identical lines, so

    diff <(python3 tools/golden_digests.py A) <(python3 tools/golden_digests.py B)

is the byte-identity check. The set covers decay (also at two depths with
unrequested layers between them, and on a weighted graph), verify (also at
a trial count that the suites run in several blocks), train for every
backbone (vanilla and random-decomposed) and from a --config file, partition,
connectivity-aware decompose, and the k and depth sweeps with both the random
and the connectivity-aware decomposition (one depth sweep also with
--discount and --no-skeleton). It takes a few minutes on two cores.
"""

import hashlib
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

BACKBONES = ("gcn", "res", "dense", "jk")


def _cycle_graph(path, weighted=False):
    """A 40-cycle plus 80 distinct random chords: 40 nodes, 120 edges.

    weighted gives each edge a seeded weight drawn from U(0.5, 3).
    """
    rng = random.Random(2024)
    edges = {(i, i + 1) for i in range(39)} | {(0, 39)}
    while len(edges) < 120:
        i, j = sorted(rng.sample(range(40), 2))
        edges.add((i, j))
    weights = random.Random(2025)
    path.write_text("".join(
        f"{i} {j} {weights.uniform(0.5, 3.0)!r}\n" if weighted
        else f"{i} {j}\n" for i, j in sorted(edges)))


def _planted_graph(path, n=600, blocks=6):
    """Planted partition: about 8 edges a node inside blocks, 0.8 across."""
    rng = random.Random(600)
    edges = set()
    while len(edges) < n * 4:
        b = rng.randrange(blocks)
        i, j = sorted(rng.sample(range(b, n, blocks), 2))
        edges.add((i, j))
    while len(edges) < n * 4 + int(n * 0.4):
        i, j = sorted(rng.sample(range(n), 2))
        if i % blocks != j % blocks:
            edges.add((i, j))
    path.write_text("".join(f"{i} {j}\n" for i, j in sorted(edges)))


def commands(work):
    """(name, argv) for every command of the golden set."""
    cycle = work / "cycle_edges.txt"
    weighted = work / "weighted_cycle_edges.txt"
    planted = work / "planted_edges.txt"
    _cycle_graph(cycle)
    _cycle_graph(weighted, weighted=True)
    _planted_graph(planted)
    cmds = [
        ("decay", ["decay", "--edges", str(cycle), "--depths", "1..6",
                   "--samples", "4", "--dim", "3"]),
        # a held depth waits across layers that were not requested
        ("decay_gaps", ["decay", "--edges", str(cycle), "--depths", "2,5",
                        "--samples", "4", "--dim", "3"]),
        # weighted edges, whose normalization the other decays do not reach
        ("decay_weighted", ["decay", "--edges", str(weighted), "--depths",
                            "1..6", "--samples", "4", "--dim", "3"]),
        ("verify", ["verify", "--trials", "40"]),
        # more trials than one batch of the verify suites holds
        ("verify_blocks", ["verify", "--trials", "300", "--seed", "11"]),
        ("partition", ["partition", "--edges", str(planted), "--p", "16",
                       "--seed", "3"]),
        ("decompose_ca", ["decompose", "--edges", str(planted),
                          "--strategy", "ca", "--k", "4", "--p", "16",
                          "--seed", "3"]),
    ]
    for backbone in BACKBONES:
        cmds.append((f"train_{backbone}_dec",
                     ["train", "--backbone", backbone, "--depth", "5",
                      "--k", "3", "--decompose", "random"]))
        cmds.append((f"train_{backbone}_van",
                     ["train", "--backbone", backbone, "--depth", "4"]))
    # a non-uniform schedule that only a --config file can set
    model = work / "model.cfg"
    model.write_text("backbone = jknet\ndepth = 4\nhidden = 16\n"
                     "k_schedule = 3,2,2,1\nmax_epochs = 60\npatience = 60\n")
    cmds += [
        ("train_config", ["train", "--config", str(model),
                          "--decompose", "random"]),
        ("ksweep", ["ksweep", "--k", "1..3", "--depth", "3"]),
        ("ksweep_ca", ["ksweep", "--k", "1..3", "--depth", "2",
                       "--seeds", "0..1", "--decompose", "ca", "--p", "16"]),
        ("depthsweep", ["depthsweep", "--depths", "2,4",
                        "--backbones", "gcn,dense,res,jk",
                        "--decompose", "none,random"]),
        ("depthsweep_ca", ["depthsweep", "--depths", "2,6",
                           "--decompose", "none,ca", "--seeds", "0..2",
                           "--p", "16", "--nodes", "150", "--p-in", "0.21",
                           "--p-out", "0.013"]),
        # the sweep's run settings, which no other golden changes from
        # their defaults
        ("depthsweep_discount", ["depthsweep", "--depths", "2",
                                 "--decompose", "none,ca", "--seeds", "0..1",
                                 "--k", "3", "--p", "8", "--discount",
                                 "--no-skeleton"]),
    ]
    return cmds


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(tree, work):
    """Run the golden set on the checkout at tree, with outputs under work.

    Returns {artifact: path}, where artifact is the path relative to work;
    manifest.json files are left out.
    """
    src = (Path(tree) / "src").resolve()
    if not (src / "degnn").is_dir():
        sys.exit(f"golden_digests: no degnn package under {src}")
    env = {k: v for k, v in os.environ.items() if not k.startswith("DEGNN_")}
    env["PYTHONPATH"] = str(src)
    artifacts = {}
    for name, args in commands(work):
        out = work / name
        subprocess.run(
            [sys.executable, "-m", "degnn.cli", *args, "--out", str(out)],
            env=env, check=True, stdout=subprocess.DEVNULL, cwd=work,
        )
        for path in sorted(out.rglob("*")):
            if path.is_file() and path.name != "manifest.json":
                artifacts[str(path.relative_to(work))] = path
    return artifacts


def main(argv):
    tree = Path(argv[1] if len(argv) > 1 else Path(__file__).parent.parent)
    with tempfile.TemporaryDirectory() as tmp:
        artifacts = run(tree, Path(tmp))
        print("\n".join(f"{_sha256(path)}  {name}"
                        for name, path in sorted(artifacts.items())))


if __name__ == "__main__":
    main(sys.argv)
