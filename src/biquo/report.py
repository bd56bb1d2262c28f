"""Parameter scans over the three families, with deterministic reports.

Rows are computed independently (optionally by a worker pool) and merged
in sorted parameter order, so serial and parallel runs emit byte
identical output.  Degenerate rows of the t3 family are flagged with the
sentinel invariant string and excluded from the distinct count.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from . import __version__
from .invariants import (
    DegenerateFamilyMember,
    t1_invariant,
    t2_det_class,
    t3_discriminant_class,
)

DEGENERATE = "degenerate"

PARAM_NAMES = {"t1": ("b1", "c1"), "t2": ("a0", "a1"), "t3": ("a", "b", "c")}

# Largest grid a scan builds: the rows are materialised before the first
# one is computed (t3 at radius 50 has exactly this many).
MAX_SCAN_ROWS = 10**6


@dataclass(frozen=True)
class ScanReport:
    family: str
    search_radius: int
    rows: tuple[tuple[tuple[int, ...], str], ...]
    distinct_count: int
    tool_version: str

    def to_json(self) -> str:
        payload = {
            "family": self.family,
            "searchRadius": self.search_radius,
            "toolVersion": self.tool_version,
            "distinctCount": self.distinct_count,
            "parameters": list(PARAM_NAMES[self.family]),
            "rows": [
                {"params": list(params), "invariant": inv}
                for params, inv in self.rows
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list(PARAM_NAMES[self.family]) + ["invariant"])
        for params, inv in self.rows:
            writer.writerow(list(params) + [inv])
        return buf.getvalue()

    @classmethod
    def from_json(cls, text: str) -> "ScanReport":
        payload = json.loads(text)
        rows = tuple(
            (tuple(row["params"]), row["invariant"]) for row in payload["rows"]
        )
        return cls(
            family=payload["family"],
            search_radius=payload["searchRadius"],
            rows=rows,
            distinct_count=payload["distinctCount"],
            tool_version=payload["toolVersion"],
        )


def _t1_row(params: tuple[int, ...]) -> tuple[tuple[int, ...], str]:
    b1, c1 = params
    return params, t1_invariant(b1, c1).serialize()


def _t2_row(params: tuple[int, ...]) -> tuple[tuple[int, ...], str]:
    a0, a1 = params
    return params, t2_det_class(a0, a1).serialize()


def _t3_row(params: tuple[int, ...]) -> tuple[tuple[int, ...], str]:
    a, b, c = params
    try:
        return params, t3_discriminant_class(a, b, c).serialize()
    except DegenerateFamilyMember:
        return params, DEGENERATE


_ROW_FUNCS = {"t1": _t1_row, "t2": _t2_row, "t3": _t3_row}


def _row_count(family: str, radius: int) -> int:
    """The length of ``_grid(family, radius)``, without building it."""
    side = 2 * radius  # nonzero values in [-radius, radius]
    return {"t1": (side + 1) ** 2 - 1, "t2": side**2, "t3": side**3}[family]


def _grid(family: str, radius: int) -> list[tuple[int, ...]]:
    span = range(-radius, radius + 1)
    if family == "t1":
        return sorted(
            (b1, c1) for b1 in span for c1 in span if (b1, c1) != (0, 0)
        )
    nonzero = [v for v in span if v != 0]
    if family == "t2":
        return sorted((a0, a1) for a0 in nonzero for a1 in nonzero)
    if family == "t3":
        return sorted(
            (a, b, c) for a in nonzero for b in nonzero for c in nonzero
        )
    raise ValueError(f"unknown family {family!r}")


def scan(family: str, radius: int, jobs: int = 1) -> ScanReport:
    """Scan all parameters with coordinates up to the radius.

    ``jobs`` (at least 1) worker processes share the rows, at most one
    per CPU.

    >>> scan("t1", 1).distinct_count
    2
    """
    if radius < 1:
        raise ValueError("radius must be at least 1")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    if family not in _ROW_FUNCS:
        raise ValueError(f"unknown family {family!r}")
    rows = _row_count(family, radius)
    if rows > MAX_SCAN_ROWS:
        raise ValueError(
            f"{family} radius {radius} gives {rows} rows, above the limit {MAX_SCAN_ROWS}"
        )
    grid = _grid(family, radius)
    func = _ROW_FUNCS[family]
    jobs = min(jobs, os.cpu_count() or 1)  # more workers than cores only add overhead
    if jobs > 1:
        import multiprocessing  # only a parallel scan pays for its import

        with multiprocessing.Pool(processes=jobs) as pool:
            rows = pool.map(func, grid, chunksize=64)
    else:
        rows = [func(p) for p in grid]
    rows.sort(key=lambda row: row[0])
    distinct = len({inv for _, inv in rows if inv != DEGENERATE})
    return ScanReport(
        family=family,
        search_radius=radius,
        rows=tuple(rows),
        distinct_count=distinct,
        tool_version=__version__,
    )
