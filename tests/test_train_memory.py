"""Smoke test of tools/train_memory.py on a small model."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_train_memory_prints_stages_keys_and_peak():
    # the default source (random), then the second one a scale run uses
    for extra in ([], ["--source", "connectivity_aware"]):
        out = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "train_memory.py"),
             str(ROOT), "--n", "200", *extra],
            capture_output=True, text=True, check=True, timeout=300,
        ).stdout
        lines = out.splitlines()
        assert lines[1].startswith("n=200 ")
        assert ("source=connectivity_aware" in lines[1]) == bool(extra)
        for name in ("generate_sbm", "build_model", "epoch 1", "epoch 2",
                     "epoch 3", "  row_keys", "  run_keys", "  total"):
            row = [line for line in lines if line.startswith(name + " ")]
            assert len(row) == 1, name
            assert all(float(v) >= 0.0 for v in row[0][len(name):].split())
        assert float(lines[-1].split()[-1]) > 0.0  # ru_maxrss_mib
