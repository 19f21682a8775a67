"""Compare the golden outputs of two checkouts to a tolerance.

    python3 tools/golden_diff.py TREE_A TREE_B

Runs the golden set of tools/golden_digests.py on both trees, one after the
other, and prints one line per artifact:

    identical  ARTIFACT         the bytes are the same
    numeric    ARTIFACT         only float fields differ; each differing
      FIELD  max rel D          column (CSV), key path (JSON) or token column
                                (other text) follows with its largest
                                relative difference |a - b| / max(|a|, |b|)
    DIFFERENT  ARTIFACT: WHY    a field that is not a float differs, or the
                                files differ in shape

A float field is a JSON float, or a CSV cell or whitespace-separated token
that parses as a float but not as an int. The script exits 1 when any
artifact is DIFFERENT, else 0. It takes twice as long as golden_digests.py.
"""

import csv
import json
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from golden_digests import run  # noqa: E402


class Mismatch(Exception):
    """A difference that is not a float difference."""


def _float_text(text):
    """text as a float if it is a float field, else None."""
    try:
        int(text)
        return None
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return None


def _note(diffs, field, a, b):
    """Record a float difference under field; equal values record 0."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        rel = 0.0
    elif math.isfinite(a) and math.isfinite(b):
        rel = abs(a - b) / max(abs(a), abs(b))
    else:
        raise Mismatch(f"{field}: {a!r} vs {b!r}")
    diffs[field] = max(diffs.get(field, 0.0), rel)


def _cells(diffs, field, a, b):
    if a == b:
        return
    fa, fb = _float_text(a), _float_text(b)
    if fa is None or fb is None:
        raise Mismatch(f"{field}: {a!r} vs {b!r}")
    _note(diffs, field, fa, fb)


def _json(diffs, field, a, b):
    if type(a) is not type(b):
        raise Mismatch(f"{field}: {a!r} vs {b!r}")
    if isinstance(a, dict):
        if a.keys() != b.keys():
            raise Mismatch(f"{field}: keys {sorted(a)} vs {sorted(b)}")
        for key in a:
            _json(diffs, f"{field}.{key}", a[key], b[key])
    elif isinstance(a, list):
        if len(a) != len(b):
            raise Mismatch(f"{field}: length {len(a)} vs {len(b)}")
        for x, y in zip(a, b):
            _json(diffs, f"{field}[]", x, y)
    elif isinstance(a, float):
        _note(diffs, field, a, b)
    elif a != b:
        raise Mismatch(f"{field}: {a!r} vs {b!r}")


def _rows(path):
    if path.suffix == ".csv":
        with path.open(newline="") as f:
            return list(csv.reader(f))
    return [line.split() for line in path.read_text().splitlines()]


def compare(path_a, path_b):
    """{field: max relative difference} over the float fields of two files.

    Raises Mismatch when anything other than a float field differs.
    """
    diffs = {}
    if path_a.suffix == ".json":
        _json(diffs, "$", json.loads(path_a.read_text()),
              json.loads(path_b.read_text()))
        return diffs
    rows_a, rows_b = _rows(path_a), _rows(path_b)
    if len(rows_a) != len(rows_b):
        raise Mismatch(f"{len(rows_a)} vs {len(rows_b)} lines")
    header = rows_a[0] if path_a.suffix == ".csv" and rows_a else []
    for row_a, row_b in zip(rows_a, rows_b):
        if len(row_a) != len(row_b):
            raise Mismatch(f"a line of {len(row_a)} vs {len(row_b)} fields")
        for col, (a, b) in enumerate(zip(row_a, row_b)):
            field = header[col] if col < len(header) else f"column {col}"
            _cells(diffs, field, a, b)
    return diffs


def main(argv):
    if len(argv) != 3:
        sys.exit("usage: golden_diff.py TREE_A TREE_B")
    different = False
    with tempfile.TemporaryDirectory() as tmp:
        work_a, work_b = Path(tmp) / "a", Path(tmp) / "b"
        work_a.mkdir()
        work_b.mkdir()
        outputs_a = run(argv[1], work_a)
        outputs_b = run(argv[2], work_b)
        for name in sorted(outputs_a.keys() | outputs_b.keys()):
            path_a, path_b = outputs_a.get(name), outputs_b.get(name)
            if path_a is None or path_b is None:
                print(f"DIFFERENT  {name}: only in "
                      f"{argv[1] if path_b is None else argv[2]}")
                different = True
                continue
            if path_a.read_bytes() == path_b.read_bytes():
                print(f"identical  {name}")
                continue
            try:
                diffs = compare(path_a, path_b)
            except Mismatch as exc:
                print(f"DIFFERENT  {name}: {exc}")
                different = True
                continue
            print(f"numeric    {name}")
            for field, rel in diffs.items():
                if rel > 0.0:
                    print(f"  {field}  max rel {rel:.3e}")
    sys.exit(1 if different else 0)


if __name__ == "__main__":
    main(sys.argv)
