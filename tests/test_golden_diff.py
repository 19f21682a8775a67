"""Tests for the file comparison of tools/golden_diff.py."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from golden_diff import Mismatch, compare  # noqa: E402


def _pair(tmp_path, suffix, a, b):
    path_a, path_b = tmp_path / f"a{suffix}", tmp_path / f"b{suffix}"
    path_a.write_text(a)
    path_b.write_text(b)
    return path_a, path_b


def test_csv_reports_largest_difference_per_float_column(tmp_path):
    a = ("k,kind,acc,spread\n"
         "1,cell,0.5,nan\n"
         "2,cell,0.75,1.0\n"
         "3,cell,0.8,1.0\n")
    b = ("k,kind,acc,spread\n"
         "1,cell,0.5,NaN\n"
         "2,cell,0.6,1.0\n"
         "3,cell,0.7,1.0\n")
    diffs = compare(*_pair(tmp_path, ".csv", a, b))
    # NaN against NaN (spelled differently) counts as no difference
    assert diffs == {"acc": pytest.approx(0.2), "spread": 0.0}


def test_json_reports_each_key_path(tmp_path):
    a = '{"a": 1.0, "b": {"c": [0.5, 2.0]}, "n": 3, "s": "x", "z": NaN}'
    b = '{"a": 1.0, "b": {"c": [0.4, 2.0]}, "n": 3, "s": "x", "z": NaN}'
    diffs = compare(*_pair(tmp_path, ".json", a, b))
    assert diffs == {"$.a": 0.0, "$.b.c[]": pytest.approx(0.2), "$.z": 0.0}


def test_text_reports_each_token_column(tmp_path):
    diffs = compare(*_pair(tmp_path, ".txt", "0 1 0.5\n2 3 1.0\n",
                           "0 1 0.25\n2 3 1.0\n"))
    assert diffs == {"column 2": 0.5}


@pytest.mark.parametrize("suffix, a, b", [
    (".csv", "k,acc\n1,0.5\n", "k,acc\n2,0.5\n"),
    (".csv", "kind,acc\ncell,0.5\n", "kind,acc\naggregate,0.5\n"),
    (".csv", "k,acc\n1,0.5\n", "k,acc\n1.0,0.5\n"),
    (".csv", "k,acc\n1,0.5\n", "k,acc\n1,inf\n"),
    (".csv", "k,acc\n1,0.5\n", "k,acc\n1,0.5\n2,0.5\n"),
    (".csv", "k,acc\n1,0.5\n", "k,acc\n1,0.5,0.5\n"),
    (".txt", "0 1\n", "0 1 0.5\n"),
    (".json", '{"n": 3}', '{"n": 4}'),
    (".json", '{"s": "x"}', '{"s": "y"}'),
    (".json", '{"n": 3}', '{"m": 3}'),
    (".json", '{"c": [0.5]}', '{"c": [0.5, 0.5]}'),
], ids=["int-cell", "text-cell", "int-vs-float", "inf", "line-count",
        "field-count", "text-field-count", "json-int", "json-text",
        "json-keys", "json-length"])
def test_other_differences_raise_mismatch(tmp_path, suffix, a, b):
    with pytest.raises(Mismatch):
        compare(*_pair(tmp_path, suffix, a, b))
