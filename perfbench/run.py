"""The degnn benchmark: seeded CLI workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; degnn is imported from its src/.
The load is a closed loop: one caller runs one `python -m degnn.cli`
process at a time, nothing concurrent, BLAS at its default thread count.

--trace 0 repeats the workload in fresh processes for S seconds and reports
the end-to-end metrics of BENCHMARK.json as medians over the repetitions.
Repetition r runs on inputs of its own, written from a seed derived from
N and r, so one N always gives the same sequence of inputs.
--trace 1 runs the same commands in this process through click, once plain
and once with span wrappers installed (see tracing.py), and reports the
per-layer metrics, the tracing overhead and an SVD kernel section.

Each run checks every command's outputs (workloads.py), writes a results
JSON stamped with its environment and, for traced runs, the spans as JSONL
under perfbench/out/results/, and prints one JSON object as its last line.
"""

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# every run, its set-up and all its commands finish well inside the 180 s
# a run may take
DEADLINE_S = 170.0
SETUP_SAMPLES_FIRST = 3
# the CLI reads any option it is not given from DEGNN_<COMMAND>_<OPTION>
# (click's auto_envvar_prefix); a stray one would change the workload
ENV_PREFIX = "DEGNN_"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, else 'unknown'."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.lower() and ".so" in line}
    except OSError:
        paths = set()
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return "unknown"


def _blas_vendor(numpy):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def _git_commit():
    try:
        res = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or (
            Path(lines[0]).resolve() != ROOT):
        return "unknown (not a git checkout)"
    return lines[1]


def environment():
    """What produced the numbers: two installs must never look the same."""
    import numpy

    import degnn
    from degnn import _kernels

    active = getattr(_kernels, "active_lane", None)
    package = Path(degnn.__file__).resolve().parent
    return {
        "svd_lane": active() if callable(active) else "unknown",
        "numpy": numpy.__version__,
        "blas": _blas_vendor(numpy),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "degnn_from": ("src" if package.is_relative_to(SRC)
                       else f"install {package}"),
        "degnn_digest": workloads.tree_digest(
            package, skip=("__pycache__",)),
    }


def _check(cmd, code):
    """Problems with one command's run: its exit code, then its outputs."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        return cmd.check(cmd)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{type(exc).__name__}: {exc}"]


class Runner:
    """Runs commands, counts failures, and keeps a per-command record."""

    def __init__(self, work_dir, deadline):
        self.work_dir = work_dir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.records = []
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith(ENV_PREFIX)}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]]
                          if self.env.get("PYTHONPATH") else []))

    def _tally(self, label, wall, problems, digest=None):
        self.attempted += 1
        self.failed += bool(problems)
        self.records.append({"command": label, "wall_s": wall,
                             "problems": problems, "digest": digest})

    def spawn(self, args, label):
        """Run `python -m degnn.cli args` afresh: (wall s, peak MB, code)."""
        log_path = self.work_dir / f"{label}.log"
        with open(log_path, "wb") as log:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "degnn.cli", *args], cwd=ROOT,
                env=self.env, stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(
                max(self.deadline - time.perf_counter(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode

    def setup_sample(self):
        wall, _, code = self.spawn(["--version"], "version")
        self._tally("--version", wall, [] if code == 0 else
                    [f"exit code {code}"])
        return wall

    def fresh_process(self, cmd):
        wall, rss_mb, code = self.spawn(cmd.args, cmd.label)
        problems = _check(cmd, code)
        self._tally(cmd.label, wall, problems,
                    workloads.tree_digest(cmd.out))
        return wall, rss_mb

    def in_process(self, cmd, tracer=None):
        """Run cmd through click's main in this process; return its wall s."""
        from degnn.cli import main

        buf = io.StringIO()
        rec = tracer.open(f"cli.{cmd.label}") if tracer else None
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(buf):
                main.main(args=list(cmd.args), prog_name="degnn",
                          standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - a failing command is a result
            buf.write(traceback.format_exc())
            code = 1
        finally:
            wall = time.perf_counter() - started
            if rec is not None:
                tracer.close(rec)
        (self.work_dir / f"{cmd.label}.log").write_text(buf.getvalue())
        problems = _check(cmd, code)
        self._tally(cmd.label, wall, problems,
                    workloads.tree_digest(cmd.out))
        return wall


def _summary(samples):
    return {"median": statistics.median(samples), "min": min(samples),
            "max": max(samples), "samples": len(samples)}


def measure(make, runner, seconds):
    """End-to-end metrics: repeat the workload in fresh processes.

    make(rep) writes repetition rep's inputs and returns its commands.
    """
    started = time.perf_counter()
    setup = [runner.setup_sample() for _ in range(SETUP_SAMPLES_FIRST)]
    walls, peaks = [], []
    per_command = {}
    loop_started = time.perf_counter()
    while True:
        commands = make(len(walls))
        wall = rss = 0.0
        for cmd in commands:
            cmd_wall, cmd_rss = runner.fresh_process(cmd)
            per_command.setdefault(cmd.label, []).append(cmd_wall)
            wall += cmd_wall
            rss = max(rss, cmd_rss)
        walls.append(wall)
        peaks.append(rss)
        setup.append(runner.setup_sample())
        now = time.perf_counter()
        per_rep = (now - loop_started) / len(walls)
        if now - started + per_rep > seconds:
            break
    detail = {"wall_s": _summary(walls), "setup_s": _summary(setup),
              "peak_rss_mb": _summary(peaks)}
    metrics = {name: d["median"] for name, d in detail.items()}
    detail.update({f"wall_s[{label}]": _summary(samples)
                   for label, samples in per_command.items()})
    metrics["pass_share"] = (
        (runner.attempted - runner.failed) / runner.attempted)
    return metrics, detail


def measure_traced(make, runner, seconds, seed):
    """Per-layer metrics: plain and traced in-process runs, then medians."""
    import tracing

    started = time.perf_counter()
    table, default_ms, max_dsigma = tracing.kernel_section(seed)
    tracer = tracing.Tracer()
    reps = []
    loop_started = time.perf_counter()
    while True:
        commands = make(len(reps))
        plain = sum(runner.in_process(cmd) for cmd in commands)
        workloads.reset_outputs(commands)
        tracer.run = len(reps)
        first_span = len(tracer.spans)
        with tracing.installed(tracer):
            traced = sum(runner.in_process(cmd, tracer) for cmd in commands)
        metrics = tracing.layer_metrics(tracer.spans[first_span:], traced)
        metrics["trace.overhead_s"] = traced - plain
        reps.append(metrics)
        now = time.perf_counter()
        per_rep = (now - loop_started) / len(reps)
        if now - started + per_rep > seconds:
            break
    metrics = {key: statistics.median(rep[key] for rep in reps)
               for key in reps[0]}
    metrics["svdbench.ms_n24"] = default_ms[24]
    metrics["svdbench.ms_n80"] = default_ms[80]
    metrics["svdbench.lane_max_dsigma"] = max_dsigma
    detail = {"repetitions": len(reps), "per_repetition": reps,
              "kernel_lanes": table,
              "record_errors": sorted({s["record_error"] for s in tracer.spans
                                       if "record_error" in s})}
    return metrics, detail, tracer.spans


def main(argv=None, sizes=workloads.FULL):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (SRC / "degnn" / "cli.py").is_file():
        _fail(f"no degnn sources under {SRC}; run from a source checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, str(SRC))
    for key in [key for key in os.environ if key.startswith(ENV_PREFIX)]:
        del os.environ[key]  # in-process runs parse options from here too
    env = environment()

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / "work" / stem
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    runner = Runner(work_dir, deadline)

    def make(rep):
        # each repetition gets inputs of its own, fixed by the run's seed:
        # the work differs from input to input by about 15%, and a median
        # over several inputs keeps that out of the spread between seeds
        return workloads.build(args.workload,
                               workloads.rep_seed(args.seed, rep),
                               work_dir / f"rep{rep}", sizes)

    spans = None
    if args.trace:
        metrics, detail, spans = measure_traced(
            make, runner, args.seconds, args.seed)
        names = spec["per_layer"]
    else:
        metrics, detail = measure(make, runner, args.seconds)
        names = spec["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        _fail(f"metrics not measured: {', '.join(missing)}")

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in names},
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "result": result, "detail": detail,
              "commands": runner.records}
    (results_dir / f"{stem}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    if spans is not None:
        with open(results_dir / f"{stem}.spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
    if runner.failed == 0:
        shutil.rmtree(work_dir, ignore_errors=True)

    print("environment: " + json.dumps(env, sort_keys=True))
    for problem in (p for r in runner.records for p in r["problems"]):
        print(f"check failed: {problem}")
    if not args.trace:
        for name, d in detail.items():
            print(f"{name}: median {d['median']:.6g} (min {d['min']:.6g}, "
                  f"max {d['max']:.6g}, {d['samples']} samples)")
    else:
        for name, d in detail["kernel_lanes"].items():
            print(f"svd {name}: {d['ms']:.4g} ms per call "
                  f"({d['samples']} samples)")
        for error in detail["record_errors"]:
            print(f"trace: a recorder failed, its fields are left out: {error}")
        print(f"{detail['repetitions']} traced repetitions; medians follow")
    for m in names:
        print(f"{m['name']}: {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
