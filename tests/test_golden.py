"""The output contract: small runs of trace, echo-curve and scaling reproduce
the committed goldens under tests/golden/ (tools/regenerate_goldens.py)."""

import csv
import json
import math
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
TOOL = runpy.run_path(str(ROOT / "tools" / "regenerate_goldens.py"))

#: unitary evolution keeps round-off linear in the steps, so a BLAS kernel's
#: last-bit differences stay about 1e-14; a stream or dynamics change moves
#: cells by about 1e-2
TOLERANCE = 1e-12


def _number(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _csv_difference(expected: Path, actual: Path) -> float:
    """The largest absolute difference between two CSVs' cells; inf when
    their shapes, headers or non-numeric cells differ."""
    with expected.open(newline="") as f, actual.open(newline="") as g:
        rows, others = list(csv.reader(f)), list(csv.reader(g))
    if len(rows) != len(others) or rows[:1] != others[:1]:
        return math.inf
    worst = 0.0
    for row, other in zip(rows[1:], others[1:]):
        if len(row) != len(other):
            return math.inf
        for cell, got in zip(row, other):
            a, b = _number(cell), _number(got)
            if a is None or b is None:
                worst = max(worst, 0.0 if cell == got else math.inf)
            elif a != b:
                worst = max(worst, abs(a - b) if math.isfinite(a - b) else math.inf)
    return worst


def _json_difference(expected, actual) -> float:
    """The largest absolute difference between two JSON values' numbers; inf
    when anything else differs."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return math.inf
        return max((_json_difference(expected[k], actual[k]) for k in expected), default=0.0)
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return math.inf
        return max(map(_json_difference, expected, actual), default=0.0)
    numeric = all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in (expected, actual)
    )
    if numeric and expected != actual:
        return abs(expected - actual) if math.isfinite(expected - actual) else math.inf
    return 0.0 if expected == actual else math.inf


def _comparable(document):
    """A manifest or summary without its timestamp, and with each curve
    file reduced to its name."""
    document = {k: v for k, v in document.items() if k != "generated_at"}
    if "curve_files" in document:
        document["curve_files"] = [Path(p).name for p in document["curve_files"]]
    return document


@pytest.mark.parametrize("name", list(TOOL["RUNS"]))
def test_outputs_reproduce_the_goldens(tmp_path, name):
    # every CSV cell within TOLERANCE, and every manifest and summary key
    # but the timestamp and curve files' directories
    expected_dir = GOLDEN / name
    expected = sorted(p.relative_to(expected_dir) for p in expected_dir.rglob("*") if p.is_file())
    assert expected, f"no goldens in {expected_dir}"
    TOOL["generate"](tmp_path, name)
    actual = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    assert actual == expected
    worst, identical = 0.0, True
    for relative in expected:
        golden, rerun = expected_dir / relative, tmp_path / relative
        if relative.suffix == ".csv":
            worst = max(worst, _csv_difference(golden, rerun))
            identical &= golden.read_bytes() == rerun.read_bytes()
        else:
            documents = (_comparable(json.loads(p.read_text())) for p in (golden, rerun))
            worst = max(worst, _json_difference(*documents))
    bytes_match = "identical" if identical else "not identical"
    report = f"{name}: largest difference {worst:.3e}, CSV bytes {bytes_match}"
    print(report)
    assert worst <= TOLERANCE, report
