"""Deterministic CSV and JSON manifest output.

Every numeric CSV field is serialized with up to 17 significant digits
(%.17g), which round-trips double precision exactly, so re-running a
command with the same flags and seed reproduces the file byte for byte.
Files are UTF-8 with LF line endings.
"""

import json
import math
from dataclasses import fields
from operator import attrgetter
from pathlib import Path

from .echo import EchoRecord

# one column per EchoRecord field, in field order
_OBSERVABLE_COLUMNS = ["E_mean", "E_std", "S_mean", "S_std", "f_mean", "f_std"]
_observables = attrgetter(*(f.name for f in fields(EchoRecord)[1:]))
TRACE_HEADER = ["t", *_OBSERVABLE_COLUMNS]
CURVE_HEADER = ["t_e", *_OBSERVABLE_COLUMNS]


def fmt(value: float) -> str:
    return format(float(value), ".17g")


def records_to_rows(records) -> list:
    return [(str(r.t), *map(fmt, _observables(r))) for r in records]


def write_csv(path, header, rows) -> None:
    path = Path(path)
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_records_csv(path) -> list:
    """Read a trace or echo-curve CSV back into records; every time must be
    an integer that a float holds and every value a finite number, or the
    ValueError names the file and the row."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    header = lines[0].split(",")
    if header not in (TRACE_HEADER, CURVE_HEADER):
        raise ValueError(f"{path}: unexpected CSV header {header!r}")
    records = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}: malformed row {line!r}")
        try:
            t, values = int(cells[0]), [float(c) for c in cells[1:]]
            float(t)  # the fits take every time as a float
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: unreadable value in row {line!r}: {exc}") from None
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{path}: non-finite value in row {line!r}")
        records.append(EchoRecord(t, *values))
    return records


def write_manifest(path, manifest: dict) -> None:
    Path(path).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
        newline="\n",
    )


def load_manifest(path) -> dict:
    manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest is not a JSON object")
    return manifest


def manifest_path_for(csv_path) -> Path:
    csv_path = Path(csv_path)
    return csv_path.with_name(csv_path.stem + ".manifest.json")
