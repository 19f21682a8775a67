"""In-process span tracing of the degnn layers, from outside the package.

Wrappers go on the name where each caller looks a function up, because the
modules import by name (`from .partition import multilevel_partition`), so
patching only the defining module would miss most calls. A name that does
not exist, or no longer refers to the same function, is left alone, so a
refactor inside degnn drops a span rather than breaking the benchmark. A
recorder that fails on a changed argument or return type likewise only
drops its fields: the span keeps its time and a `record_error`, and the
metrics built from those fields count the span as not recorded.

Each span records its name, start, end, parent span and repetition id.
Spans stay in memory; the caller writes them out when the run ends. A
layer's self time is its span minus the time its child spans cover.
"""

import importlib
import time
from contextlib import contextmanager

import numpy as np

# span name -> (defining module, attribute, [(caller module, attribute), ...])
TARGETS = {
    "graphs.load_edge_list": (
        "degnn.graphs", "load_edge_list", [("degnn.cli", "load_edge_list")]),
    "graphs.normalized_adjacency": (
        "degnn.graphs", "normalized_adjacency",
        [("degnn.cli", "normalized_adjacency"),
         ("degnn.decompose", "normalized_adjacency"),
         ("degnn.train", "normalized_adjacency")]),
    "partition.multilevel_partition": (
        "degnn.partition", "multilevel_partition",
        [("degnn.cli", "multilevel_partition"),
         ("degnn.decompose", "multilevel_partition")]),
    "decompose.connectivity_aware_decompose": (
        "degnn.decompose", "connectivity_aware_decompose",
        [("degnn.cli", "connectivity_aware_decompose"),
         ("degnn.decompose", "connectivity_aware_decompose")]),
    "decompose.random_decompose": (
        "degnn.decompose", "random_decompose",
        [("degnn.cli", "random_decompose"),
         ("degnn.decompose", "random_decompose")]),
    "decompose.piece_matrices": (
        "degnn.decompose", "piece_matrices",
        [("degnn.train", "piece_matrices")]),
    "decompose.save_decomposition": (
        "degnn.decompose", "save_decomposition",
        [("degnn.cli", "save_decomposition")]),
    "decompose.decomposition_stats": (
        "degnn.decompose", "decomposition_stats",
        [("degnn.cli", "decomposition_stats")]),
    "train.generate_sbm": (
        "degnn.train", "generate_sbm", [("degnn.cli", "generate_sbm")]),
    "train.train": (
        "degnn.train", "train",
        [("degnn.cli", "train_model"), ("degnn.train", "train")]),
    "train.build_model": (
        "degnn.train", "build_model", [("degnn.train", "build_model")]),
    "spectral.svd": (
        "degnn.spectral", "svd",
        [("degnn.spectral", "svd"), ("degnn.decompose", "svd"),
         ("degnn.verify", "svd")]),
    # svd() reads degnn._kernels.jacobi_sweep at call time
    "kernels.jacobi_sweep": (
        "degnn._kernels", "jacobi_sweep",
        [("degnn._kernels", "jacobi_sweep")]),
    "propagate.decay_curve": (
        "degnn.propagate", "decay_curve", [("degnn.cli", "decay_curve")]),
}

# the verify command looks its suites up in this dict by token
SUITE_TABLE = ("degnn.cli", "_SUITE_BY_NAME")
SUITES = ("lemma1", "lemma3", "kron", "regimes")


class Tracer:
    """Collects spans and per-call counters for one run."""

    def __init__(self):
        self.spans = []
        self.run = 0
        self._stack = []
        self._graph_keys = {}

    def open(self, name):
        rec = {"id": len(self.spans), "name": name, "run": self.run,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter()}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def close(self, rec):
        rec["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        record = _RECORDERS.get(name)

        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if record is not None:
                # a recorder that no longer fits the function's signature or
                # return type loses its fields; the caller still gets `out`
                try:
                    record(self, rec, args, kwargs, out)
                except Exception as exc:  # noqa: BLE001
                    rec["record_error"] = f"{type(exc).__name__}: {exc}"
            return out

        return traced

    def graph_key(self, g):
        # graphs are immutable; keep a reference so the id stays unique
        entry = self._graph_keys.get(id(g))
        if entry is None:
            entry = (g, hash((g.n, tuple(g.edge_list()))))
            self._graph_keys[id(g)] = entry
        return entry[1]


def _seed_key(seed):
    if isinstance(seed, np.random.SeedSequence):
        return ("seq", seed.entropy, tuple(seed.spawn_key))
    return ("int", seed)


# Each recorder computes all its fields before it stores any, so a span
# either has a recorder's fields or none of them.

def _record_load(tracer, rec, args, kwargs, out):
    rec["edges"] = int(out.m)


def _record_partition(tracer, rec, args, kwargs, out):
    g = args[0] if args else kwargs["g"]
    p = args[1] if len(args) > 1 else kwargs["p"]
    seed = args[2] if len(args) > 2 else kwargs["seed"]
    rec["key"] = [tracer.graph_key(g), int(p), repr(_seed_key(seed))]


def _record_pieces(tracer, rec, args, kwargs, out):
    rec["bytes"] = int(sum(a.nbytes for a in out))


def _record_train(tracer, rec, args, kwargs, out):
    epochs, acc = int(out.epochs_run), float(out.test_acc)
    rec.update(epochs=epochs, test_acc=acc)


def _record_svd(tracer, rec, args, kwargs, out):
    m = np.array(args[0] if args else kwargs["m"], dtype=np.float64)
    sigma = np.array(out.sigma, dtype=np.float64)
    # compared with LAPACK once the repetition ends, outside every span
    rec.update(_input=m, _sigma=sigma)


def _record_sweep(tracer, rec, args, kwargs, out):
    bt, vt = args[0], args[1]
    n, m = bt.shape
    pairs, rotations = n * (n - 1) // 2, int(out)
    # computed, not counted: three length-m dot products per pair, then
    # 6 flops per element of the two rotated rows of bt and of vt
    flop = 6 * m * pairs + 6 * (m + vt.shape[1]) * rotations
    rec.update(pairs=pairs, rotations=rotations, flop=flop)


_RECORDERS = {
    "graphs.load_edge_list": _record_load,
    "partition.multilevel_partition": _record_partition,
    "decompose.piece_matrices": _record_pieces,
    "train.train": _record_train,
    "spectral.svd": _record_svd,
    "kernels.jacobi_sweep": _record_sweep,
}


@contextmanager
def installed(tracer):
    """Patch every traced name for the duration of the block."""
    saved = []
    try:
        for name, (home, attr, callers) in TARGETS.items():
            original = getattr(importlib.import_module(home), attr, None)
            if original is None:
                continue
            wrapper = tracer.wrap(name, original)
            for mod_name, caller_attr in callers:
                module = importlib.import_module(mod_name)
                if getattr(module, caller_attr, None) is original:
                    saved.append((module, caller_attr, original))
                    setattr(module, caller_attr, wrapper)
        module = importlib.import_module(SUITE_TABLE[0])
        table = getattr(module, SUITE_TABLE[1], None)
        if isinstance(table, dict):
            saved.append((module, SUITE_TABLE[1], table))
            setattr(module, SUITE_TABLE[1], {
                key: tracer.wrap(f"verify.{key}", fn)
                for key, fn in table.items()})
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _duration(span):
    return span["end"] - span["start"]


def sv_error(spans):
    """max |sigma - sigma_LAPACK| / sigma_max over the recorded SVD inputs."""
    worst = 0.0
    for span in spans:
        if "_input" not in span:
            continue
        ref = np.linalg.svd(span.pop("_input"), compute_uv=False)
        sigma = span.pop("_sigma")
        if ref.size and ref[0] > 0.0:
            worst = max(worst, float(np.max(np.abs(sigma - ref)) / ref[0]))
    return worst


def layer_metrics(spans, traced_wall):
    """Per-layer numbers from one repetition's spans."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)

    def self_time(span):
        return _duration(span) - sum(
            _duration(c) for c in children.get(span["id"], ()))

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def busy(*names):
        return sum(_duration(s) for s in named(*names))

    def child_time(parents, *names):
        return sum(_duration(c) for p in parents
                   for c in children.get(p["id"], ()) if c["name"] in names)

    def ratio(num, den):
        return num / den if den else 0.0

    def recorded(found, key):
        # spans whose recorder stored `key`; a failed recorder stored none
        return [s for s in found if key in s]

    def total(found, key):
        return sum(s[key] for s in recorded(found, key))

    cli = [s for s in spans if s["name"].startswith("cli.")]
    parts = named("partition.multilevel_partition")
    decomposers = ("decompose.connectivity_aware_decompose",
                   "decompose.random_decompose")
    decs = named(*decomposers)
    trains = named("train.train")
    svds = named("spectral.svd")
    sweeps = named("kernels.jacobi_sweep")
    decays = named("propagate.decay_curve")
    part_busy = busy("partition.multilevel_partition")
    epochs = total(trains, "epochs")
    epoch_loop = busy("train.train") - child_time(trains, "train.build_model")
    pairs = total(sweeps, "pairs")
    rotations = total(sweeps, "rotations")
    keyed = recorded(parts, "key")
    covered = sum(_duration(c) for s in cli for c in children.get(s["id"], ()))

    metrics = {
        "cli.self_s": sum(self_time(s) for s in cli),
        "graphs.load_s": busy("graphs.load_edge_list"),
        "graphs.edges_loaded": total(named("graphs.load_edge_list"), "edges"),
        "graphs.normalize_s": busy("graphs.normalized_adjacency"),
        "partition.calls": len(parts),
        "partition.distinct_keys": len({repr(s["key"]) for s in keyed}),
        "partition.busy_s": part_busy,
        "partition.ms_per_call": 1e3 * ratio(part_busy, len(parts)),
        "decompose.calls": len(decs),
        "decompose.self_s": busy(*decomposers) - child_time(
            decs, "partition.multilevel_partition"),
        "decompose.piece_matrices_s": busy("decompose.piece_matrices"),
        "decompose.piece_matrix_mb": total(
            named("decompose.piece_matrices"), "bytes") / 1e6,
        "decompose.save_s": busy("decompose.save_decomposition"),
        "train.runs": len(trains),
        "train.generate_sbm_s": busy("train.generate_sbm"),
        "train.build_model_s": busy("train.build_model"),
        "train.epochs": epochs,
        "train.epoch_loop_s": epoch_loop,
        "train.epoch_ms": 1e3 * ratio(epoch_loop, epochs),
        "train.test_acc": ratio(total(trains, "test_acc"),
                                len(recorded(trains, "test_acc"))),
        "spectral.svd_calls": len(svds),
        "spectral.svd_busy_s": busy("spectral.svd"),
        "spectral.svd_self_s": sum(self_time(s) for s in svds),
        "spectral.sv_err": sv_error(svds),
        "kernels.sweeps": len(sweeps),
        "kernels.pairs": pairs,
        "kernels.rotations": rotations,
        "kernels.rotation_ratio": ratio(rotations, pairs),
        "kernels.busy_s": busy("kernels.jacobi_sweep"),
        "kernels.computed_mflop": total(sweeps, "flop") / 1e6,
        "propagate.decay_s": busy("propagate.decay_curve"),
        "propagate.decay_self_s": busy("propagate.decay_curve")
        - child_time(decays, "spectral.svd"),
        "trace.coverage": ratio(covered, traced_wall),
    }
    metrics["partition.useful_ratio"] = ratio(
        metrics["partition.distinct_keys"], len(keyed))
    for suite in SUITES:
        metrics[f"verify.{suite}_s"] = busy(f"verify.{suite}")
    return metrics


def kernel_section(seed, sizes=(24, 80), budget_s=0.5):
    """Milliseconds per full SVD on random n x n matrices, for every lane.

    Returns (per-lane table, default-lane ms per size, max |d sigma| between
    lanes). The lane registry is optional: without it only the default lane
    that svd() uses is timed. A registered lane that is the default is not
    timed twice.
    """
    from degnn import _kernels
    from degnn.spectral import svd

    registry = getattr(_kernels, "sweep_implementations", None)
    lanes = dict(registry()) if callable(registry) else {}
    default = getattr(_kernels, "jacobi_sweep", None)
    lanes = {name: fn for name, fn in lanes.items() if fn is not default}
    rng = np.random.default_rng(seed)
    table = {}
    default_ms = {}
    max_dsigma = 0.0
    for n in sizes:
        matrix = rng.normal(size=(n, n))
        runs = {"default": lambda: svd(matrix)}
        for name, sweep in lanes.items():
            runs[name] = lambda sweep=sweep: svd(matrix, sweep=sweep)
        sigmas = {}
        for name, call in runs.items():
            times = []
            started = time.perf_counter()
            while len(times) < 3 or (len(times) < 50 and
                                     time.perf_counter() - started < budget_s):
                t0 = time.perf_counter()
                sigmas[name] = call().sigma
                times.append(time.perf_counter() - t0)
            ms = 1e3 * float(np.median(times))
            table[f"{name}_n{n}"] = {"ms": ms, "samples": len(times)}
            if name == "default":
                default_ms[n] = ms
        for sigma in sigmas.values():
            max_dsigma = max(max_dsigma, float(
                np.max(np.abs(sigma - sigmas["default"]))))
    return table, default_ms, max_dsigma
