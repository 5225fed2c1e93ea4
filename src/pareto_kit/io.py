"""File formats: point CSV, instance JSON, report JSON, plot TSV.

Rationals are serialized as canonical strings ("a" or "a/b") so files
round-trip exactly.  All emitted indices are 1-based row numbers; the
Python API stays 0-based.
"""

from __future__ import annotations

import csv
import io as _io
import json
from fractions import Fraction

from .errors import MalformedInput
from .hulls import HullSet, hull
from .numerics.rational import rational_format, rational_parse

Point = tuple[Fraction, ...]


def points_to_csv(points) -> str:
    rows = list(points)
    if not rows:
        raise MalformedInput("refusing to write an empty point CSV")
    p = len(rows[0])
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"y{j + 1}" for j in range(p)])
    for row in rows:
        writer.writerow([rational_format(x) for x in row])
    return buf.getvalue()


def points_from_csv(text: str) -> list[Point]:
    reader = csv.reader(_io.StringIO(text))
    rows = [row for row in reader if row]
    if len(rows) < 2:
        raise MalformedInput("point CSV needs a header and at least one row")
    header = [c.strip() for c in rows[0]]
    expected = [f"y{j + 1}" for j in range(len(header))]
    if header != expected:
        raise MalformedInput(f"point CSV header must be {','.join(expected)}")
    points = []
    for row in rows[1:]:
        if len(row) != len(header):
            raise MalformedInput("point CSV row width differs from header")
        points.append(tuple(rational_parse(cell) for cell in row))
    return points


def hull_to_json(w: HullSet) -> dict:
    return {"generators": [[rational_format(x) for x in g] for g in w.generators]}


def hull_from_json(data: dict) -> HullSet:
    if not isinstance(data, dict) or "generators" not in data:
        raise MalformedInput('hull JSON needs a "generators" key')
    return hull(data["generators"])


def format_point(point) -> list[str]:
    return [rational_format(x) for x in point]


def dump_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def load_json(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int over the digit limit
        raise MalformedInput(f"invalid JSON: {exc}") from None


def connectivity_tsv(report) -> str:
    p = len(report.samples[0]) if report.samples else 0
    lines = ["\t".join([f"y{j + 1}" for j in range(p)] + ["component"])]
    for point, comp in zip(report.samples, report.components):
        lines.append("\t".join(format_point(point) + [str(comp)]))
    return "\n".join(lines) + "\n"
