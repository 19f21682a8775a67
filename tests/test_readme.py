"""The README's Python examples run as written."""

import contextlib
import io
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
from golden_digests import _cycle_graph  # noqa: E402


def _python_blocks():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    """Each block runs in a directory holding the golden 40-node graph.txt."""
    blocks = _python_blocks()
    assert len(blocks) == 2
    _cycle_graph(tmp_path / "graph.txt")
    monkeypatch.chdir(tmp_path)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        for block in blocks:
            exec(compile(block, "README.md", "exec"), {})
    # the quickstart's certificate line comes first
    regime, bound = printed.getvalue().splitlines()[0].split()
    assert regime == "decay"
    assert abs(float(bound) - 0.5) < 1e-10
