"""Time and memory of one training model at a given scale, stage by stage.

    python3 tools/train_memory.py TREE [--n 20000] [--depth 8] [--k 5]
                                       [--source random]

TREE is the root of a source checkout; degnn is imported from TREE/src, so
the same command on two trees compares them. The graph is a 3-block
stochastic block model of average degree about 4.5 (p_in = 12/n,
p_out = 0.75/n, 16 feature columns, seed 7), the stand-in for Pubmed at
n = 19,717. The model is a gcn of hidden width 16 with K pieces per layer
from the given decomposition source; the script builds it (build_model)
and runs three full-batch epochs with train()'s own _forward_loss and
_gradient_step, without early stopping.

The model is built and trained twice in one process. The first run has
tracemalloc off and gives each stage's seconds and the process's own peak
RSS (ru_maxrss) at its end. The second, with tracemalloc on, gives the
memory traced at each stage's end and the traced peak during it, and the
distinct arrays the model's PieceOperators hold, by attribute (an array
shared by several operators, or viewed by several attributes, counts
once). The graph is drawn at a fixed seed, so both runs build the same
graph, and the second run reuses the first run's partitions: with
--source connectivity_aware its build_model does not partition every layer
again under tracemalloc, and its traced figures leave the partitioner out.
Only numpy and the standard library are used. BLAS threads are
whatever the environment sets; OPENBLAS_NUM_THREADS=1 makes runs
comparable.
"""

import argparse
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

MB = 1e6
EPOCHS = 3


def _root(a):
    """The array that owns a's memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def operator_arrays(ops, exclude=()):
    """{attribute: bytes} of the distinct arrays the operators hold.

    Arrays are told apart by the array that owns their memory; one listed
    in exclude (such as the input features) is not counted.
    """
    seen = {id(_root(a)) for a in exclude}
    table = {}
    for op in ops:
        for name, value in vars(op).items():
            values = value if isinstance(value, tuple) else (value,)
            for a in values:
                if not isinstance(a, np.ndarray) or id(_root(a)) in seen:
                    continue
                seen.add(id(_root(a)))
                table[name] = table.get(name, 0) + _root(a).nbytes
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree", type=Path)
    parser.add_argument("--n", type=int, default=20000)
    parser.add_argument("--depth", type=int, default=8)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--source", default="random")
    args = parser.parse_args(argv)
    src = (args.tree / "src").resolve()
    if not (src / "degnn").is_dir():
        sys.exit(f"train_memory: no degnn package under {src}")
    sys.path.insert(0, str(src))
    from degnn import train as tr

    k = 1 if args.source == "none" else args.k
    cfg = tr.ModelConfig(backbone="gcn", depth=args.depth, hidden=16,
                         k_schedule=(k,) * args.depth)
    spec = tr.SBMSpec(n=args.n, b=3, p_in=12 / args.n, p_out=0.75 / args.n,
                      d=16)
    # the first run's model is dropped before the second starts; only its
    # partitions are kept
    seconds, _, _, parts = _run(tr, cfg, spec, args.source, {})
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tracemalloc.start()
    try:
        _, traced, (data, ops), _ = _run(tr, cfg, spec, args.source, parts)
    finally:
        tracemalloc.stop()

    print(f"tree {args.tree}  numpy {np.__version__}")
    print(f"n={args.n} m={data.graph.m} gcn depth={args.depth} K={k} "
          f"hidden=16 source={args.source} seed=7")
    print(f"{'stage':<14}{'seconds':>9}{'traced_mb':>11}{'peak_mb':>9}")
    for (name, sec), (current, peak) in zip(seconds, traced):
        print(f"{name:<14}{sec:>9.3f}{current / MB:>11.1f}{peak / MB:>9.1f}")
    print("operator arrays (distinct, MB):")
    table = operator_arrays(ops, exclude=(data.features,))
    for name, nbytes in sorted(table.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<14}{nbytes / MB:>9.1f}")
    print(f"  {'total':<14}{sum(table.values()) / MB:>9.1f}")
    epoch_s = [sec for _, sec in seconds[2:]]
    print(f"build_model_s {seconds[1][1]:.3f}")
    print(f"epoch_s min {min(epoch_s):.3f} "
          f"median {statistics.median(epoch_s):.3f}")
    print(f"ru_maxrss_mib {maxrss_kib / 1024:.1f}")


def _run(tr, cfg, spec, source, parts):
    """([(stage, seconds)], [(traced, traced peak)], (data, operators), parts).

    parts maps (p, layer seed) to a partition of the graph, as drawn by an
    earlier run; the returned parts add this run's own. The traced figures
    are zero while tracemalloc is off.
    """
    seconds, traced = [], []
    start = time.perf_counter()

    def stage(name):
        nonlocal start
        seconds.append((name, time.perf_counter() - start))
        traced.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        start = time.perf_counter()

    data = tr.generate_sbm(spec, seed=7)
    stage("generate_sbm")
    partitions = {(data.graph, *key): part for key, part in parts.items()}
    ops, weights = tr.build_model(cfg, data, source=source, seed=7,
                                  partitions=partitions)
    stage("build_model")
    for epoch in range(1, EPOCHS + 1):
        _, prob, ys, zs, ins = tr._forward_loss(cfg, ops, weights, data)
        tr._gradient_step(cfg, ops, weights, data, ys, zs, ins, prob)
        del prob, ys, zs, ins
        stage(f"epoch {epoch}")
    parts = {key[1:]: part for key, part in partitions.items()}
    return seconds, traced, (data, ops), parts


if __name__ == "__main__":
    main()
