"""End-to-end tests for the command line, via click's test runner."""

import csv
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from degnn.cli import main
from degnn.decompose import SOURCES, layer_decompositions, load_decomposition
from degnn.graphs import load_edge_list
from degnn.partition import import_partition
from degnn.propagate import DECAY_COLUMNS
from degnn.train import DEPTHSWEEP_COLUMNS, KSWEEP_COLUMNS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from golden_digests import _cycle_graph  # noqa: E402

_SBM_FLAGS = ["--nodes", "80", "--blocks", "2", "--p-in", "0.2",
              "--p-out", "0.01", "--dim", "4"]


def _edges_file(tmp_path, n=40, m=120, seed=0):
    rng = np.random.default_rng(seed)
    seen = set()
    lines = []
    while len(lines) < m:
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        if i == j or (min(i, j), max(i, j)) in seen:
            continue
        seen.add((min(i, j), max(i, j)))
        lines.append(f"{i} {j}\n")
    path = tmp_path / "g.txt"
    path.write_text("".join(lines))
    return path


def _run(args, **kwargs):
    return CliRunner().invoke(main, args, catch_exceptions=False, **kwargs)


def test_version_flag():
    res = _run(["--version"])
    assert res.exit_code == 0
    assert "0.1.0" in res.output


def test_partition_writes_labels_stats_manifest(tmp_path):
    edges = _edges_file(tmp_path)
    out = tmp_path / "run"
    res = _run(["partition", "--edges", str(edges), "--p", "4",
                "--seed", "7", "--out", str(out)])
    assert res.exit_code == 0
    part = import_partition(out / "partition.txt", 40)
    assert part.p == 4
    stats = json.loads((out / "stats.json").read_text())
    assert stats["p"] == 4 and stats["n"] == 40
    assert f"cut_edges={stats['cut_edges']}" in res.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "partition"
    assert manifest["seed"] == 7
    assert manifest["flags"]["p"] == 4
    assert str(edges) in manifest["input_hashes"]
    assert len(manifest["input_hashes"][str(edges)]) == 64
    assert manifest["version"] == "0.1.0"
    assert manifest["wall_clock_seconds"] >= 0.0
    assert manifest["numpy_version"] == np.__version__
    # what can make two runs of one install differ in their last bits
    assert isinstance(manifest["blas"], str) and manifest["blas"]
    assert manifest["blas_thread_env"] == {
        k: os.environ.get(k)
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    assert manifest["cpu_count"] == os.cpu_count()


_SBM_NAMES = ("nodes", "blocks", "p_in", "p_out", "dim", "noise", "data_seed")


@pytest.mark.parametrize("command, args, names, expect", [
    ("partition", ["--edges", "{edges}", "--p", "2"],
     ("edges", "p", "seed", "max_imbalance", "out"),
     {"p": 2, "max_imbalance": 1.3}),
    ("decompose", ["--edges", "{edges}", "--k", "2", "--no-skeleton"],
     ("edges", "strategy", "k", "p", "seed", "skeleton", "out"),
     {"strategy": "connectivity_aware", "k": 2, "p": 4,
      "skeleton": False}),
    ("verify", ["--which", "kron"],
     ("which", "trials", "seed", "out"),
     {"which": ["kron"], "trials": 5}),
    ("decay", ["--edges", "{edges}", "--depths", "3,1,3", "--samples", "2",
               "--sigma-w", "0.25"],
     ("edges", "depths", "dim", "sigma_w", "slope", "samples", "epsilon",
      "input_scale", "seed", "out"),
     {"depths": [1, 3], "sigma_w": 0.25, "samples": 2}),
    ("train", ["--backbone", "jk", "--depth", "3", *_SBM_FLAGS],
     ("config", "backbone", "depth", "hidden", "k", "decompose", "p",
      "discount", "skeleton", *_SBM_NAMES, "seed", "out"),
     {"config": None, "backbone": "jknet", "depth": 3, "k": 1,
      "decompose": "none", "nodes": 80, "p_in": 0.2, "data_seed": 7}),
    ("ksweep", ["--k", "1..2", "--seeds", "0", *_SBM_FLAGS],
     ("k", "seeds", "backbone", "depth", "hidden", "decompose", "p",
      "discount", "skeleton", *_SBM_NAMES, "seed", "out"),
     {"k": [1, 2], "seeds": [0], "decompose": "connectivity_aware"}),
    ("depthsweep", ["--depths", "2", "--backbones", "jk", "--decompose",
                    "none", "--seeds", "0", *_SBM_FLAGS],
     ("depths", "backbones", "decompose", "seeds", "hidden", "k", "p",
      "discount", "skeleton", *_SBM_NAMES, "seed", "out"),
     {"depths": [2], "backbones": ["jknet"], "decompose": ["none"]}),
])
def test_manifest_records_every_option(tmp_path, command, args, names,
                                       expect):
    """flags holds each option by long name as resolved, env vars too."""
    edges = _edges_file(tmp_path)
    out = tmp_path / "run"
    argv = [arg.format(edges=edges) for arg in args]
    res = _run([command, *argv, "--seed", "3", "--out", str(out)],
               env={"DEGNN_VERIFY_TRIALS": "5"})
    assert res.exit_code == 0
    # the options in the order the command declares them; the file itself
    # sorts its keys
    assert [param.opts[0] for param in main.commands[command].params] == [
        "--" + name.replace("_", "-") for name in names]
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["flags"]) == sorted(names)
    assert manifest["flags"]["seed"] == 3 and manifest["seed"] == 3
    assert manifest["flags"]["out"] == str(out)
    for name, value in expect.items():
        assert manifest["flags"][name] == value, name
    assert manifest["subcommand"] == command
    hashed = [edges] if "{edges}" in args else []
    assert manifest["input_hashes"] == {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in hashed}


def test_partition_is_deterministic(tmp_path):
    edges = _edges_file(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        res = _run(["partition", "--edges", str(edges), "--p", "4",
                    "--seed", "3", "--out", str(out)])
        assert res.exit_code == 0
        outs.append((out / "partition.txt").read_bytes())
    assert outs[0] == outs[1]


def test_partition_single_part_has_no_cut(tmp_path):
    edges = _edges_file(tmp_path)
    out = tmp_path / "run"
    res = _run(["partition", "--edges", str(edges), "--p", "1",
                "--out", str(out)])
    assert res.exit_code == 0
    assert "cut_edges=0" in res.output


def test_partition_missing_file_exits_2(tmp_path):
    res = _run(["partition", "--edges", str(tmp_path / "nope.txt"),
                "--p", "2"])
    assert res.exit_code == 2


def test_partition_nan_max_imbalance_exits_2(tmp_path):
    edges = _edges_file(tmp_path, n=30, m=60)
    out = tmp_path / "run"
    res = _run(["partition", "--edges", str(edges), "--p", "3",
                "--max-imbalance", "nan", "--out", str(out)])
    assert res.exit_code == 2
    assert not out.exists()


def test_decompose_connectivity_aware_directory(tmp_path):
    edges = _edges_file(tmp_path)
    out = tmp_path / "dec"
    res = _run(["decompose", "--edges", str(edges), "--strategy", "ca",
                "--k", "4", "--p", "4", "--seed", "1", "--out", str(out)])
    assert res.exit_code == 0
    for idx in range(4):
        assert (out / f"piece_{idx}.txt").exists()
    dec = load_decomposition(out)
    assert dec.k == 4 and dec.source == "connectivity_aware"
    assert len(dec.skeleton) > 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["skeleton_edges"] == len(dec.skeleton)


def test_decompose_random_has_empty_skeleton(tmp_path):
    edges = _edges_file(tmp_path)
    out = tmp_path / "dec"
    res = _run(["decompose", "--edges", str(edges), "--strategy", "random",
                "--k", "3", "--out", str(out)])
    assert res.exit_code == 0
    dec = load_decomposition(out)
    assert dec.source == "random" and len(dec.skeleton) == 0


@pytest.mark.parametrize("source", SOURCES)
def test_decompose_writes_the_first_layer_of_a_model(tmp_path, source):
    """The command draws what layer_decompositions gives a model's layer 1."""
    edges = _edges_file(tmp_path)
    out = tmp_path / "dec"
    res = _run(["decompose", "--edges", str(edges), "--strategy", source,
                "--k", "3", "--p", "4", "--seed", "5", "--out", str(out)])
    assert res.exit_code == 0
    written = load_decomposition(out)
    drawn = layer_decompositions(load_edge_list(edges), [3], source, p=4,
                                 seed=5)[0]
    assert written.source == drawn.source == source
    assert [written.triples(piece) for piece in written.pieces] == [
        drawn.triples(piece) for piece in drawn.pieces]
    assert written.triples(written.skeleton) == drawn.triples(drawn.skeleton)


def test_decompose_zero_pieces_exits_2(tmp_path):
    edges = _edges_file(tmp_path)
    res = _run(["decompose", "--edges", str(edges), "--strategy", "random",
                "--k", "0"])
    assert res.exit_code == 2


def test_verify_single_suite(tmp_path):
    out = tmp_path / "rep"
    res = _run(["verify", "--which", "lemma3", "--trials", "100",
                "--out", str(out)])
    assert res.exit_code == 0
    assert "lemma3: 100/100 pass" in res.output
    report = json.loads((out / "report.json").read_text())
    assert report["lemma3"]["ok"] is True
    assert report["lemma3"]["passed"] == 100


def test_verify_defaults_to_all_suites():
    res = _run(["verify", "--trials", "20"])
    assert res.exit_code == 0
    for name in ("lemma1", "lemma3", "kron", "regimes"):
        assert f"{name}: 20/20 pass" in res.output


def test_verify_runs_a_repeated_suite_once(tmp_path):
    out = tmp_path / "rep"
    res = _run(["verify", "--which", "kron", "--which", "lemma1",
                "--which", "kron", "--trials", "5", "--out", str(out)])
    assert res.exit_code == 0
    # each suite once, in the order first named
    assert [line.split(":")[0] for line in res.output.splitlines()] == [
        "kron", "lemma1"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["flags"]["which"] == ["kron", "lemma1"]


def test_verify_unknown_suite_exits_2():
    res = _run(["verify", "--which", "lemma9"])
    assert res.exit_code == 2


def test_verify_env_var_override():
    res = _run(["verify", "--which", "kron"],
               env={"DEGNN_VERIFY_TRIALS": "5"})
    assert res.exit_code == 0
    assert "kron: 5/5 pass" in res.output


def test_decay_csv_bound_column(tmp_path):
    edges = _edges_file(tmp_path)
    out = tmp_path / "run"
    res = _run(["decay", "--edges", str(edges), "--depths", "1..6",
                "--sigma-w", "0.5", "--out", str(out)])
    assert res.exit_code == 0
    with open(out / "decay.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == DECAY_COLUMNS
    assert len(rows) == 7
    for depth, row in enumerate(rows[1:], start=1):
        assert int(row[0]) == depth
        assert abs(float(row[1]) - 0.5 ** depth) < 1e-12


def test_decay_at_slope_one_bounds_every_depth(tmp_path):
    """A linear stack (slope 1) gets its certificate, which bounds it.

    On the self-looped normalized adjacency sigma(A) = 1, so the linear
    map's top singular value meets the bound up to roundoff.
    """
    edges = tmp_path / "cycle.txt"
    _cycle_graph(edges)
    out = tmp_path / "run"
    res = _run(["decay", "--edges", str(edges), "--depths", "1..3",
                "--dim", "3", "--samples", "4", "--sigma-w", "0.5",
                "--slope", "1", "--out", str(out)])
    assert res.exit_code == 0
    with open(out / "decay.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["depth"]) for row in rows] == [1, 2, 3]
    for row in rows:
        assert float(row["max_sv"]) <= float(row["bound"]) * (1 + 1e-12)


@pytest.mark.parametrize("sigma_w", ["-0.5", "inf"])
def test_decay_impossible_sigma_w_exits_2(tmp_path, sigma_w):
    edges = _edges_file(tmp_path)
    out = tmp_path / "run"
    res = _run(["decay", "--edges", str(edges), "--depths", "1..2",
                "--sigma-w", sigma_w, "--out", str(out)])
    assert res.exit_code == 2
    assert "top singular value" in res.output
    assert not out.exists()


@pytest.mark.parametrize("dim", ["0", "-1"])
def test_decay_non_positive_dim_exits_2(tmp_path, dim):
    edges = _edges_file(tmp_path)
    out = tmp_path / "run"
    res = _run(["decay", "--edges", str(edges), "--depths", "1..2",
                "--dim", dim, "--out", str(out)])
    assert res.exit_code == 2
    assert f"two positive dimensions, got ({dim}, {dim})" in res.output
    assert not out.exists()


def test_decay_infinite_epsilon_exits_2(tmp_path):
    edges = _edges_file(tmp_path)
    out = tmp_path / "run"
    res = _run(["decay", "--edges", str(edges), "--depths", "1..2",
                "--epsilon", "inf", "--out", str(out)])
    assert res.exit_code == 2
    assert "epsilon must be finite" in res.output
    assert not out.exists()


def test_train_writes_history_and_summary(tmp_path):
    out = tmp_path / "run"
    res = _run(["train", "--backbone", "gcn", "--depth", "2",
                *_SBM_FLAGS, "--out", str(out)])
    assert res.exit_code == 0
    summary = json.loads((out / "result.json").read_text())
    assert 0.0 <= summary["test_acc"] <= 1.0
    assert summary["epochs_run"] >= summary["best_epoch"]
    with open(out / "history.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + summary["epochs_run"]
    assert "test_acc=" in res.output


def test_train_runs_are_reproducible(tmp_path):
    payloads = []
    for name in ("a", "b"):
        out = tmp_path / name
        res = _run(["train", "--decompose", "ca", "--k", "2",
                    *_SBM_FLAGS, "--out", str(out)])
        assert res.exit_code == 0
        payloads.append((out / "history.csv").read_bytes())
    assert payloads[0] == payloads[1]


def test_train_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("backbone = jknet\ndepth = 3\nhidden = 8\n"
                   "k_schedule = 2,2,1\n")
    out = tmp_path / "run"
    res = _run(["train", "--config", str(cfg), "--backbone", "gcn",
                "--depth", "2", "--k", "1", "--decompose", "random",
                *_SBM_FLAGS, "--out", str(out)])
    assert res.exit_code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # the manifest records the model the file set, not the ignored flags
    assert manifest["flags"]["backbone"] == "jknet"
    assert manifest["flags"]["depth"] == 3
    assert manifest["flags"]["hidden"] == 8
    assert manifest["flags"]["k"] == [2, 2, 1]
    assert str(cfg) in manifest["input_hashes"]


def test_train_conflicting_flags_exit_2():
    res = _run(["train", "--decompose", "none", "--k", "3", *_SBM_FLAGS])
    assert res.exit_code == 2


@pytest.mark.parametrize("flags, line", [
    (["--noise", "nan"], ""),
    ([], "lr = nan\n"),
    ([], "weight_decay = inf\n"),
], ids=["noise", "lr", "weight_decay"])
def test_train_non_finite_input_exits_2(tmp_path, flags, line):
    """A non-finite setting is an input problem, not a diverging run."""
    cfg = tmp_path / "model.cfg"
    cfg.write_text("backbone = gcn\ndepth = 2\nhidden = 8\n" + line)
    with np.errstate(all="ignore"):
        res = _run(["train", "--config", str(cfg), *_SBM_FLAGS, *flags])
    assert res.exit_code == 2


@pytest.mark.parametrize("hidden", ["0", "-3"])
def test_train_empty_hidden_width_exits_2(tmp_path, hidden):
    out = tmp_path / "run"
    res = _run(["train", "--hidden", hidden, *_SBM_FLAGS, "--out", str(out)])
    assert res.exit_code == 2
    assert "hidden width must be >= 1" in res.output
    assert not out.exists()


def test_train_divergent_config_exits_3(tmp_path):
    cfg = tmp_path / "boom.cfg"
    cfg.write_text("backbone = gcn\ndepth = 2\nhidden = 8\n"
                   "lr = 1000000.0\nmax_epochs = 50\npatience = 50\n")
    with np.errstate(all="ignore"):
        res = _run(["train", "--config", str(cfg), *_SBM_FLAGS])
    assert res.exit_code == 3


def _echo_lines(csv_path, line):
    """line formatted from each aggregate row of a sweep CSV, then wrote."""
    with open(csv_path, newline="") as fh:
        rows = [row for row in csv.DictReader(fh)
                if row["kind"] == "aggregate"]
    stats = ("test_mean", "test_median", "test_std")
    return [line.format(**{**row, **{c: float(row[c]) for c in stats
                                     if c in row}})
            for row in rows] + [f"wrote {csv_path}"]


def test_ksweep_range_syntax_and_csv(tmp_path):
    out = tmp_path / "run"
    res = _run(["ksweep", "--k", "1..3", "--seeds", "0..1",
                *_SBM_FLAGS, "--out", str(out)])
    assert res.exit_code == 0
    with open(out / "ksweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == KSWEEP_COLUMNS
    # 3 k values x (2 cells + 1 aggregate)
    assert len(rows) == 1 + 9
    # one line per aggregate row, in CSV order, then the path
    lines = _echo_lines(out / "ksweep.csv",
                        "k={k}: mean={test_mean:.4f} std={test_std:.4f}")
    assert [line.split(":")[0] for line in lines[:3]] == ["k=1", "k=2", "k=3"]
    assert res.stdout.splitlines() == lines


def test_ksweep_bad_range_exits_2():
    res = _run(["ksweep", "--k", "5..2", *_SBM_FLAGS])
    assert res.exit_code == 2
    res = _run(["ksweep", "--k", "abc", *_SBM_FLAGS])
    assert res.exit_code == 2


def test_depthsweep_aliases_and_csv(tmp_path):
    out = tmp_path / "run"
    res = _run(["depthsweep", "--depths", "2,3", "--backbones", "gcn,dense",
                "--decompose", "none,ca", "--seeds", "0", "--k", "2",
                *_SBM_FLAGS, "--out", str(out)])
    assert res.exit_code == 0
    with open(out / "depthsweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == DEPTHSWEEP_COLUMNS
    # 2 backbones x 2 depths x 2 sources x (1 cell + 1 aggregate)
    assert len(rows) == 1 + 16
    assert "densegcn" in {row[0] for row in rows[1:]}
    lines = _echo_lines(out / "depthsweep.csv",
                        "{backbone} depth={depth} source={source}: "
                        "median={test_median:.4f} mean={test_mean:.4f}")
    assert len(lines) == 1 + 8
    assert res.stdout.splitlines() == lines
    res = _run(["depthsweep", "--backbones", "transformer", *_SBM_FLAGS])
    assert res.exit_code == 2
