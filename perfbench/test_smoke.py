"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each workload prints every metric BENCHMARK.json names, with
its unit, in both modes, and that a corrupted artifact fails its check.
"""

import csv
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# far from the seeds a real run is given, so its result files stay apart
SEED = 424242


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace, capsys):
    result = run.main(
        ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace)],
        sizes=workloads.TINY)
    printed = _last_result(capsys)
    assert printed == json.loads(json.dumps(result))
    assert sorted(printed) == ["attempted", "correct", "failed", "metrics"]
    assert printed["correct"] and printed["failed"] == 0
    assert printed["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(printed["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        entry = printed["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))


def _last_result(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_failing_recorder_drops_fields_not_the_run(monkeypatch, capsys):
    def broken(tracer, rec, args, kwargs, out):
        raise AttributeError("return type changed")

    monkeypatch.setattr(tracing, "_RECORDERS",
                        {name: broken for name in tracing._RECORDERS})
    run.main(["--workload", "sweep_train", "--seed", str(SEED),
              "--seconds", "1", "--trace", "1"], sizes=workloads.TINY)
    captured = capsys.readouterr().out
    printed = json.loads(captured.strip().splitlines()[-1])
    assert printed["correct"] and printed["failed"] == 0
    assert "trace: a recorder failed" in captured
    assert printed["metrics"]["train.runs"]["value"] >= 1
    assert printed["metrics"]["train.epochs"]["value"] == 0


@pytest.mark.parametrize("trace", [0, 1])
def test_degnn_environment_does_not_reach_the_cli(trace, monkeypatch,
                                                  capsys):
    # would make the decay bound 0.9**depth and fail its check
    monkeypatch.setenv("DEGNN_DECAY_SIGMA_W", "0.9")
    run.main(["--workload", "certify_partition", "--seed", str(SEED),
              "--seconds", "1", "--trace", str(trace)], sizes=workloads.TINY)
    printed = _last_result(capsys)
    assert printed["correct"] and printed["failed"] == 0


def _edit_csv(path, column, value):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[0][column] = value
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _drop_last_line(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def _fail_one_trial(path):
    report = json.loads(path.read_text())
    report["lemma1"]["passed"] -= 1
    path.write_text(json.dumps(report))


CORRUPT = {
    "depthsweep": lambda out: _edit_csv(out / "depthsweep.csv", "test_acc",
                                        "nan"),
    "train": lambda out: _drop_last_line(out / "history.csv"),
    "decay": lambda out: _edit_csv(out / "decay.csv", "bound", "0.6"),
    "verify": lambda out: _fail_one_trial(out / "report.json"),
    "decompose": lambda out: _drop_last_line(out / "piece_0.txt"),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_artifact_fails_its_check(workload, tmp_path):
    commands = workloads.build(workload, SEED, tmp_path, workloads.TINY)
    runner = run.Runner(tmp_path, time.perf_counter() + 120.0)
    for cmd in commands:
        runner.fresh_process(cmd)
        assert cmd.check(cmd) == []
        CORRUPT[cmd.label](cmd.out)
        assert cmd.check(cmd) != []
