"""Command-line front door wiring the library into reproducible runs.

Every subcommand is deterministic under (flags, seed, inputs), writes its
artifacts under --out next to a manifest.json recording every option as
resolved, input file hashes, tool version, and wall-clock time. Exit codes
are a stable contract: 0 success, 2 for usage or input problems, 3 for
numeric failures.
"""

import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import click
import numpy as np

from . import __version__
from .decompose import (
    SOURCES,
    decompose_by,
    decomposition_stats,
    save_decomposition,
)
from .graphs import load_edge_list, normalized_adjacency
from .partition import multilevel_partition, partition_stats
from .propagate import (
    decay_curve,
    gcn_stack,
    random_unit_features,
    weights_with_top_singular,
    write_csv,
    write_decay_csv,
)
from .train import (
    BACKBONES,
    DECOMP_SOURCES,
    DEPTHSWEEP_COLUMNS,
    KSWEEP_COLUMNS,
    ModelConfig,
    SBMSpec,
    depth_cells,
    generate_sbm,
    k_cells,
    load_model_config,
    sweep,
    write_history_csv,
)
from .train import train as train_model
from .verify import SUITES

# the verify command looks its suites up here by token at call time
_SUITE_BY_NAME = SUITES

# short names the name options take beside the canonical ones; callbacks
# resolve them, so commands and manifests see canonical names only
_SHORT_NAMES = {
    "ca": "connectivity_aware",
    "res": "resgcn",
    "dense": "densegcn",
    "jk": "jknet",
}


@dataclass(frozen=True)
class RunManifest:
    """Record of one invocation, written next to every output artifact.

    numpy_version and blas name the install: the SVD sweeps and every
    product run through numpy and its BLAS, so two installs can give
    different bits under the same flags. One install can too: BLAS
    products split their sums by thread, so the trained weights depend on
    the thread count. blas_thread_env holds the variables that set it
    (None when unset) and cpu_count the cores a default count follows.
    """

    subcommand: str
    flags: dict
    seed: int
    input_hashes: dict
    version: str
    wall_clock_seconds: float
    numpy_version: str
    blas: str
    blas_thread_env: dict
    cpu_count: int | None
    created: str


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _blas_name():
    """numpy's BLAS as "name version", or "unknown" where numpy cannot say."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        # an older numpy has no dict mode; a build may omit the entry
        return "unknown"


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path, payload):
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _emit_manifest(out_dir, **resolved):
    """Write manifest.json for the command that is running.

    flags holds every option of the command by its long name, with the value
    click resolved from the flag, a DEGNN_* variable or the default; resolved
    replaces the values the command took from elsewhere (a --config file).
    Every existing input file that was given is hashed.
    """
    ctx = click.get_current_context()
    flags, input_hashes = {}, {}
    for param in ctx.command.params:
        value = ctx.params[param.name]
        flags[param.opts[0].lstrip("-").replace("-", "_")] = value
        if (isinstance(param.type, click.Path) and param.type.exists
                and not param.type.dir_okay and value is not None):
            input_hashes[value] = _sha256(value)
    manifest = RunManifest(
        subcommand=ctx.info_name,
        flags={**flags, **resolved},
        seed=int(ctx.params["seed"]),
        input_hashes=input_hashes,
        version=__version__,
        wall_clock_seconds=time.time() - ctx.meta["started"],
        numpy_version=np.__version__,
        blas=_blas_name(),
        blas_thread_env={k: os.environ.get(k) for k in _BLAS_THREAD_VARS},
        cpu_count=os.cpu_count(),
        created=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    )
    _write_json(out_dir / "manifest.json", asdict(manifest))


def _out_dir(out):
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _guarded(fn):
    """Map library errors to the exit-code contract (2 input, 3 numeric).

    Also stamps the start time that the manifest's wall clock counts from.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        click.get_current_context().meta["started"] = time.time()
        try:
            return fn(*args, **kwargs)
        except click.ClickException:
            raise
        except ValueError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except ArithmeticError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)

    return wrapper


def _parse_int_list(text):
    """Accept '1..8', '2,4,6,8', or a mix like '1,4..6'."""
    out = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo_text, hi_text = part.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError(f"empty range {part!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(part))
    if not out:
        raise ValueError("expected at least one integer")
    return out


def _int_list_option(ctx, param, value):
    try:
        return _parse_int_list(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc))


def _int_set_option(ctx, param, value):
    """An integer list, each value once, ascending."""
    return sorted(set(_int_list_option(ctx, param, value)))


def _suite_list_option(ctx, param, value):
    """Each named suite once, in the order first named; default all."""
    return list(dict.fromkeys(value)) or list(SUITES)


def _choices(names):
    """names and the short names of those among them, sorted."""
    shorts = [short for short, name in _SHORT_NAMES.items() if name in names]
    return sorted([*names, *shorts])


def _canonical_option(ctx, param, value):
    return _SHORT_NAMES.get(value, value)


def _name_list_option(canonical):
    """A comma list of names or short names, resolved to canonical names."""
    choices = _choices(canonical)

    def callback(ctx, param, value):
        names = []
        for part in str(value).split(","):
            part = part.strip()
            if not part:
                continue
            if part not in choices:
                raise click.BadParameter(
                    f"unknown value {part!r}; choose from "
                    + ", ".join(choices)
                )
            names.append(_SHORT_NAMES.get(part, part))
        if not names:
            raise click.BadParameter("expected at least one name")
        return names

    return callback


def _training_options(fn):
    """train's, ksweep's and depthsweep's decomposition and graph options."""
    options = [
        click.option("--p", default=4, show_default=True, type=int),
        click.option("--discount/--no-discount", default=False,
                     show_default=True, help="divide shared entries so the "
                     "pieces sum to the original"),
        click.option("--skeleton/--no-skeleton", default=True,
                     show_default=True),
        click.option("--nodes", default=400, show_default=True, type=int,
                     help="node count of the synthetic graph"),
        click.option("--blocks", default=4, show_default=True, type=int,
                     help="number of planted blocks / classes"),
        click.option("--p-in", default=0.08, show_default=True, type=float,
                     help="intra-block edge probability"),
        click.option("--p-out", default=0.005, show_default=True, type=float,
                     help="inter-block edge probability"),
        click.option("--dim", default=8, show_default=True, type=int,
                     help="feature dimension"),
        click.option("--noise", default=0.5, show_default=True, type=float,
                     help="feature noise scale"),
        click.option("--data-seed", default=7, show_default=True, type=int,
                     help="seed for the synthetic graph draw"),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


def _make_data(nodes, blocks, p_in, p_out, dim, noise, data_seed):
    spec = SBMSpec(n=int(nodes), b=int(blocks), p_in=p_in, p_out=p_out,
                   d=int(dim), noise=noise)
    return generate_sbm(spec, seed=int(data_seed))


@click.group(context_settings={"auto_envvar_prefix": "DEGNN"})
@click.version_option(__version__)
def main():
    """Connectivity-aware graph decomposition and certification toolkit."""


@main.command()
@click.option("--edges", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="whitespace edge-list file")
@click.option("--p", required=True, type=int, help="number of parts")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--max-imbalance", default=1.3, show_default=True, type=float)
@click.option("--out", default="degnn_out", show_default=True,
              type=click.Path(file_okay=False))
@_guarded
def partition(edges, p, seed, max_imbalance, out):
    """Split a graph into p balanced parts with a small edge cut."""
    g = load_edge_list(edges)
    part = multilevel_partition(g, p, seed, max_imbalance=max_imbalance)
    stats = partition_stats(g, part)
    out_dir = _out_dir(out)
    labels_path = out_dir / "partition.txt"
    labels_path.write_text(
        "".join(f"{v}\n" for v in part.labels), encoding="utf-8"
    )
    _write_json(out_dir / "stats.json", stats)
    _emit_manifest(out_dir)
    click.echo(
        f"p={p} cut_edges={stats['cut_edges']} "
        f"imbalance={stats['imbalance']:.4f}"
    )
    click.echo(f"wrote {labels_path}")


@main.command()
@click.option("--edges", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--strategy", default="ca", show_default=True,
              type=click.Choice(_choices(SOURCES)),
              callback=_canonical_option)
@click.option("--k", required=True, type=int, help="number of pieces")
@click.option("--p", default=4, show_default=True, type=int,
              help="partition count used by the connectivity-aware strategy")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--skeleton/--no-skeleton", default=True, show_default=True,
              help="replicate a shared spanning forest into every piece")
@click.option("--out", default="degnn_out", show_default=True,
              type=click.Path(file_okay=False))
@_guarded
def decompose(edges, strategy, k, p, seed, skeleton, out):
    """Split a graph's edges into k pieces, one file per piece."""
    g = load_edge_list(edges)
    dec = decompose_by(strategy, g, k, p, seed, with_skeleton=skeleton)
    out_dir = _out_dir(out)
    save_decomposition(dec, out_dir)
    stats = decomposition_stats(dec)
    _write_json(out_dir / "stats.json", stats)
    _emit_manifest(out_dir)
    click.echo(
        f"k={dec.k} source={dec.source} "
        f"skeleton_edges={stats['skeleton_edges']} "
        f"duplication={stats['duplication_factor']:.4f}"
    )
    click.echo(f"wrote {out_dir}/piece_0.txt .. piece_{dec.k - 1}.txt")


@main.command()
@click.option("--which", "suites", multiple=True,
              type=click.Choice(list(SUITES)), callback=_suite_list_option,
              help="suite to run; repeatable; default all")
@click.option("--trials", default=100, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", default=None, type=click.Path(file_okay=False),
              help="also write report.json and a manifest here")
@_guarded
def verify(suites, trials, seed, out):
    """Run randomized identity suites and report pass counts."""
    reports = []
    for name in suites:
        rep = _SUITE_BY_NAME[name](trials=trials, seed=seed)
        reports.append(rep)
        click.echo(rep.summary())
    if out is not None:
        out_dir = _out_dir(out)
        payload = {
            rep.name: {"passed": rep.passed, "total": rep.total,
                       "max_err": rep.max_err, "ok": rep.ok}
            for rep in reports
        }
        _write_json(out_dir / "report.json", payload)
        _emit_manifest(out_dir)
    if any(not rep.ok for rep in reports):
        sys.exit(3)


@main.command()
@click.option("--edges", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--depths", default="1..8", show_default=True,
              callback=_int_set_option,
              help="depths to evaluate, e.g. 1..12 or 2,4,6")
@click.option("--dim", default=2, show_default=True, type=int,
              help="feature width of the probe stack")
@click.option("--sigma-w", default=0.5, show_default=True, type=float,
              help="largest singular value each weight is scaled to")
@click.option("--slope", default=0.2, show_default=True, type=float)
@click.option("--samples", default=16, show_default=True, type=int)
@click.option("--epsilon", default=1e-6, show_default=True, type=float)
@click.option("--input-scale", default=1.0, show_default=True, type=float,
              help="max-abs entry of the sampled inputs")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", default="degnn_out", show_default=True,
              type=click.Path(file_okay=False))
@_guarded
def decay(edges, depths, dim, sigma_w, slope, samples, epsilon, input_scale,
          seed, out):
    """Bound vs realized singular values and entropy across depth."""
    g = load_edge_list(edges)
    a_mat = normalized_adjacency(g)
    weights = [
        weights_with_top_singular((dim, dim), sigma_w, seed + 1 + i)
        for i in range(max(depths))
    ]
    stack = gcn_stack(a_mat, weights, slope=slope)
    inputs = [
        x * input_scale
        for x in random_unit_features(g.n, dim, samples, seed)
    ]
    rows = decay_curve(
        stack, depths, n_samples=samples, epsilon=epsilon, seed=seed,
        inputs=inputs,
    )
    out_dir = _out_dir(out)
    csv_path = out_dir / "decay.csv"
    write_decay_csv(rows, csv_path)
    _emit_manifest(out_dir)
    last = rows[-1]
    click.echo(
        f"depths {depths[0]}..{depths[-1]}: final bound={last['bound']:.3e} "
        f"max_sv={last['max_sv']:.3e} entropy={last['entropy_bits']:.2f} bits"
    )
    click.echo(f"wrote {csv_path}")


def _model_config(config, backbone, depth, hidden, k):
    if config is not None:
        return load_model_config(config)
    return ModelConfig(
        backbone=backbone, depth=depth, hidden=hidden,
        k_schedule=tuple([k] * depth),
    )


@main.command()
@click.option("--config", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="key=value model file; overrides the model flags")
@click.option("--backbone", default="gcn", show_default=True,
              type=click.Choice(_choices(BACKBONES)),
              callback=_canonical_option)
@click.option("--depth", default=2, show_default=True, type=int)
@click.option("--hidden", default=16, show_default=True, type=int)
@click.option("--k", default=1, show_default=True, type=int,
              help="pieces per layer (uniform schedule)")
@click.option("--decompose", "strategy", default="none", show_default=True,
              type=click.Choice(_choices(DECOMP_SOURCES)),
              callback=_canonical_option,
              help="adjacency decomposition fed to the model")
@_training_options
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", default="degnn_out", show_default=True,
              type=click.Path(file_okay=False))
@_guarded
def train(config, backbone, depth, hidden, k, strategy, p, discount,
          skeleton, nodes, blocks, p_in, p_out, dim, noise, data_seed, seed,
          out):
    """Train one model on a synthetic block-model graph."""
    cfg = _model_config(config, backbone, depth, hidden, k)
    data = _make_data(nodes, blocks, p_in, p_out, dim, noise, data_seed)
    result = train_model(
        cfg, data, source=strategy, seed=seed, p=p, discount=discount,
        with_skeleton=skeleton,
    )
    out_dir = _out_dir(out)
    write_history_csv(result, out_dir / "history.csv")
    summary = {
        "test_acc": result.test_acc,
        "best_epoch": result.best_epoch,
        "epochs_run": result.epochs_run,
        "final_train_loss": result.train_loss[-1],
        "best_val_acc": max(result.val_acc),
        "seed": result.seed,
    }
    _write_json(out_dir / "result.json", summary)
    if config is None:
        _emit_manifest(out_dir)
    else:
        # the file's model keys override the model flags
        _emit_manifest(out_dir, backbone=cfg.backbone, depth=cfg.depth,
                       hidden=cfg.hidden, k=cfg.k_schedule)
    click.echo(
        f"test_acc={result.test_acc:.4f} best_epoch={result.best_epoch} "
        f"epochs_run={result.epochs_run}"
    )
    click.echo(f"wrote {out_dir / 'history.csv'}")


def _sweep(name, cells, columns, line, seeds, p, discount, skeleton, seed,
           out, **sbm):
    """ksweep's and depthsweep's run: sweep the cells, write <name>.csv.

    Each sweep seed is offset by seed; line is formatted from each aggregate
    row and echoed.
    """
    data = _make_data(**sbm)
    rows = sweep(cells, columns, data, [seed + s for s in seeds], p=p,
                 discount=discount, with_skeleton=skeleton)
    out_dir = _out_dir(out)
    csv_path = out_dir / f"{name}.csv"
    write_csv(rows, columns, csv_path)
    _emit_manifest(out_dir)
    for row in rows:
        if row["kind"] == "aggregate":
            click.echo(line.format(**row))
    click.echo(f"wrote {csv_path}")


@main.command()
@click.option("--k", "k_values", default="1..8", show_default=True,
              callback=_int_list_option,
              help="piece counts to sweep, e.g. 1..8 or 1,2,4")
@click.option("--seeds", default="0..4", show_default=True,
              callback=_int_list_option)
@click.option("--backbone", default="gcn", show_default=True,
              type=click.Choice(_choices(BACKBONES)),
              callback=_canonical_option)
@click.option("--depth", default=2, show_default=True, type=int)
@click.option("--hidden", default=16, show_default=True, type=int)
@click.option("--decompose", "strategy", default="ca", show_default=True,
              type=click.Choice(_choices(DECOMP_SOURCES)),
              callback=_canonical_option)
@_training_options
@click.option("--seed", default=0, show_default=True, type=int,
              help="offset added to every sweep seed")
@click.option("--out", default="degnn_out", show_default=True,
              type=click.Path(file_okay=False))
@_guarded
def ksweep(k_values, seeds, backbone, depth, hidden, strategy, **run):
    """Sweep the number of decomposed pieces; one CSV row per run."""
    cfg = ModelConfig(
        backbone=backbone, depth=depth, hidden=hidden,
        k_schedule=tuple([1] * depth),
    )
    _sweep("ksweep", k_cells(cfg, k_values, strategy), KSWEEP_COLUMNS,
           "k={k}: mean={test_mean:.4f} std={test_std:.4f}", seeds, **run)


@main.command()
@click.option("--depths", default="2,4,6,8", show_default=True,
              callback=_int_list_option)
@click.option("--backbones", default="gcn", show_default=True,
              callback=_name_list_option(BACKBONES),
              help="comma list, e.g. gcn,dense,res,jk")
@click.option("--decompose", "sources", default="none,ca", show_default=True,
              callback=_name_list_option(DECOMP_SOURCES),
              help="comma list of decomposition strategies to compare")
@click.option("--seeds", default="0..4", show_default=True,
              callback=_int_list_option)
@click.option("--hidden", default=16, show_default=True, type=int)
@click.option("--k", default=4, show_default=True, type=int,
              help="pieces per layer for decomposed cells")
@_training_options
@click.option("--seed", default=0, show_default=True, type=int,
              help="offset added to every sweep seed")
@click.option("--out", default="degnn_out", show_default=True,
              type=click.Path(file_okay=False))
@_guarded
def depthsweep(depths, backbones, sources, seeds, hidden, k, **run):
    """Compare depths, backbones, and decompositions; CSV per cell."""
    cfg = ModelConfig(
        backbone=backbones[0], depth=2, hidden=hidden, k_schedule=(1, 1),
    )
    _sweep("depthsweep", depth_cells(cfg, depths, backbones, sources, k),
           DEPTHSWEEP_COLUMNS, "{backbone} depth={depth} source={source}: "
           "median={test_median:.4f} mean={test_mean:.4f}", seeds, **run)


if __name__ == "__main__":
    main()
