"""Reports regenerated in-process against the committed files in tests/golden/.

Each golden file was written by `pwlab.cli` at one BLAS thread: a JSON report
by `--out`, a CSV mirror by `--csv`, and a text file from the standard output
of a command with no report file, its timings removed (UNTIMED).  Strings,
integers, booleans, nulls, text lines and the shape of a report must match
exactly, floats to 1e-12 relative, the tolerance of the pins in
test_refactor_pins.
A change that moves a report value on purpose re-records the file and lists
the moved fields in CHANGES.md.
"""

import csv
import json
import re
from pathlib import Path

import pytest

from pwlab.cli import run

GOLDEN = Path(__file__).parent / "golden"
FLOAT_REL_TOL = 1e-12
UNTIMED = re.compile(r"\d+(\.\d+)?s\b")   # a timing such as `0.4s`, struck from text reports

REPORTS = {
    "hardy_halfline_product.json": ["hardy", "--family", "halfline_product",
                                    "--trials", "100", "--seed", "0"],
    "hardy_tent_product_square.json": ["hardy", "--family", "tent_product",
                                       "--body", "square"],
    "hardy_tent_product_cube.json": ["hardy", "--family", "tent_product", "--body", "cube"],
    "hardy_corner_bumps.json": ["hardy", "--family", "corner_bumps", "--d", "1.5"],
    "nehari_sweep_p6.json": ["nehari-sweep", "--p", "6"],
    "nehari_sweep_p6.csv": ["nehari-sweep", "--p", "6"],
    "hardy_integrability_square.json": ["hardy", "--family", "integrability",
                                        "--body", "square", "--d", "1.5"],
    "calibrate.json": ["calibrate"],
    "sublevel_triangle.json": ["sublevel", "--body", "triangle", "--samples", "200000"],
    "sublevel_triangle.csv": ["sublevel", "--body", "triangle", "--samples", "200000"],
    "verify_all.txt": ["verify", "--suite", "all"],
}


def cell(text: str):
    """A CSV cell as the value the writer repr'd: an int, else a float,
    else the string itself."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def read_report(path: Path):
    """A report file parsed to nested values: a JSON document as it is, a
    CSV as a list with one {column: value} dict a row, a text file as its
    list of lines with the timings struck."""
    if path.suffix == ".txt":
        return UNTIMED.sub("", path.read_text()).splitlines()
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            return [{key: cell(text) for key, text in row.items()}
                    for row in csv.DictReader(fh)]
    return json.loads(path.read_text())


def mismatch(expected, actual, field: str = "") -> str | None:
    """The first field, as a path like `ratios[3]`, where `actual` departs
    from `expected`; None when the two agree."""
    where = field or "<report>"
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or sorted(actual) != sorted(expected):
            return f"{where} (keys)"
        for key in sorted(expected):
            found = mismatch(expected[key], actual[key], f"{field}.{key}" if field else key)
            if found:
                return found
        return None
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return f"{where} (length)"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = mismatch(e, a, f"{field}[{i}]")
            if found:
                return found
        return None
    if type(expected) is float and type(actual) is float:
        return None if abs(actual - expected) <= FLOAT_REL_TOL * abs(expected) else where
    return None if type(actual) is type(expected) and actual == expected else where


def leaves(doc, keys: tuple = ()):
    """The key path of every value of a parsed report that is not a dict
    or a list, with the value."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        yield keys, doc
        return
    for key, value in items:
        yield from leaves(value, keys + (key,))


def field_name(keys: tuple) -> str:
    """The key path written as mismatch() names it, e.g. `ratios[3]`."""
    name = ""
    for key in keys:
        name += f"[{key}]" if isinstance(key, int) else f".{key}" if name else key
    return name


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_golden(tmp_path, capsys, name):
    out = tmp_path / name
    if out.suffix == ".txt":
        assert run(REPORTS[name]) == 0
        out.write_text(capsys.readouterr().out)
    else:
        flag = "--csv" if out.suffix == ".csv" else "--out"
        assert run(REPORTS[name] + [flag, str(out)]) == 0
    found = mismatch(read_report(GOLDEN / name), read_report(out))
    assert found is None, f"{name}: field {found} departs from the golden report"


@pytest.mark.parametrize("name", sorted(n for n in REPORTS if not n.endswith(".txt")))
def test_any_value_moved_by_1e10_fails(name):
    golden = read_report(GOLDEN / name)
    assert mismatch(golden, golden) is None
    numbers = [(keys, v) for keys, v in leaves(golden)
               if isinstance(v, (int, float)) and not isinstance(v, bool)]
    assert len(numbers) >= 4          # d, seed and at least two results
    for keys, value in numbers:
        moved = json.loads(json.dumps(golden))
        target = moved
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value * (1.0 + 1e-10) if value else 1e-10
        assert mismatch(golden, moved) == field_name(keys)


@pytest.mark.parametrize("name", sorted(n for n in REPORTS if n.endswith(".txt")))
def test_any_line_changed_fails(name):
    # text lines compare exactly, so one added character is a mismatch
    golden = read_report(GOLDEN / name)
    assert mismatch(golden, golden) is None and len(golden) >= 4
    for i, line in enumerate(golden):
        moved = golden[:i] + [line + " "] + golden[i + 1:]
        assert mismatch(golden, moved) == f"[{i}]"
