"""Parameter scans over the three families, with deterministic reports.

The families' parameters and invariant functions come from the one table
``cli.FAMILIES``.  Rows are computed independently (optionally by a
worker pool) in sorted parameter order, so serial and parallel runs emit
byte identical output.  Degenerate rows (only t3 has them) are flagged
with the sentinel invariant string and excluded from the distinct count.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
from dataclasses import dataclass

from . import __version__, invariants
from .cli import FAMILIES
from .invariants import DegenerateFamilyMember

DEGENERATE = "degenerate"

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
            "parameters": list(FAMILIES[self.family][1]),
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
        writer.writerow(list(FAMILIES[self.family][1]) + ["invariant"])
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


def _row(family: str, params: tuple[int, ...]) -> tuple[tuple[int, ...], str]:
    # looked up in `invariants` on every call, so that a wrapper bound there
    # later (perfbench's row timers) sees each row
    invariant = getattr(invariants, FAMILIES[family][0])
    try:
        return params, invariant(*params).serialize()
    except DegenerateFamilyMember:
        return params, DEGENERATE


def _values(family: str, radius: int) -> tuple[range, range]:
    """A coordinate's values in [-radius, radius], ascending, 0 only in t1:
    two ranges, which ``_row_count`` measures without listing them."""
    return range(-radius, 0), range(0 if family == "t1" else 1, radius + 1)


def _row_count(family: str, radius: int) -> int:
    """The length of ``_grid(family, radius)``, without building it."""
    below, above = _values(family, radius)
    return (len(below) + len(above)) ** len(FAMILIES[family][1]) - (0 in above)


def _grid(family: str, radius: int) -> list[tuple[int, ...]]:
    """The family's parameter tuples but all zeros, in sorted order."""
    zero = (0,) * len(FAMILIES[family][1])
    values = list(itertools.chain(*_values(family, radius)))
    return [p for p in itertools.product(values, repeat=len(zero)) if p != zero]


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
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    rows = _row_count(family, radius)
    if rows > MAX_SCAN_ROWS:
        raise ValueError(
            f"{family} radius {radius} gives {rows} rows, above the limit {MAX_SCAN_ROWS}"
        )
    grid = _grid(family, radius)
    func = functools.partial(_row, family)
    jobs = min(jobs, os.cpu_count() or 1)  # more workers than cores only add overhead
    if jobs > 1:
        import multiprocessing  # only a parallel scan pays for its import

        with multiprocessing.Pool(processes=jobs) as pool:
            rows = pool.map(func, grid, chunksize=64)
    else:
        rows = [func(p) for p in grid]
    distinct = len({inv for _, inv in rows if inv != DEGENERATE})
    return ScanReport(
        family=family,
        search_radius=radius,
        rows=tuple(rows),
        distinct_count=distinct,
        tool_version=__version__,
    )
