"""Workload inputs, one measured pass of each workload, and its reference checks.

A run repeats one input, made from ``--seed``, in every timed pass, so the
fastest time of each call measures that input's cost with the least
interference from other tenants of the machine.  A pass measures with the
package's public functions; its outputs are checked afterwards, outside
any traced region, so reference work never shows in the trace.

Every pass returns the same record: ``units`` times each public call of
the pass separately, ``pass_units`` names the calls that make up the
workload's fixed unit of work, ``item_units`` the calls that processed
its ``items`` (scan rows, pipeline invariants, verify checks), and
``attempted``/``failed`` count the items checked against a reference.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from math import comb
from pathlib import Path

from tracer import Tracer

WORKLOADS = ("scan", "ring", "verify")

# Radii with a frozen golden count, so the seed does not change the grids.
# t1 is the largest golden grid; t2 and t3 use their smallest so a pass
# stays near two seconds and a run holds many passes.
SCAN_RADII = {"t1": 20, "t2": 5, "t3": 4}

# Ranks of the rings every timed pass builds.  A rank-6 ring spends 2.7 s
# in one call (its degree-12 piece), too coarse to time steadily on a shared
# machine, so it is built, checked and timed once per run, outside the
# timed passes.  Rank 7 (77 s for the identity) is left out.
RING_RANKS = (4, 5)
CHECKED_RANK = 6
# A sign flip is a diagonal similarity D A D, which leaves every elimination
# the same size: with fixed magnitudes and seeded signs the ring cost is the
# same for every seed.  Entries in [-1, 1] drawn freely put the rank-6 cost
# anywhere from 6.8 s to 11.6 s.
RING_ENTRIES = "unit diagonal; +-1 at (i, i-1) for odd i, sign from the seed; 0 elsewhere"
PIPELINE_ITEMS = 100
PIPELINE_RADIUS = 20

# The public function report.scan calls for each row of a family.
ROW_FUNCTIONS = {
    "t1": "t1_invariant",
    "t2": "t2_det_class",
    "t3": "t3_discriminant_class",
}

# Calls timed one by one inside verify checks: each check and the public
# functions that take most of its time, so no unit but one rational_roots
# call (0.8 s) lasts more than a few tenths of a second.
VERIFY_CALLS = (
    ("check", "biquo.checks", "_Recorder.run"),
    ("rank_one", "biquo.invariants", "rank_one_elements"),
    ("roots", "biquo.univar", "rational_roots"),
    ("pipeline", "biquo.invariants", "t1_invariant_pipeline"),
    ("t2_det", "biquo.invariants", "t2_det_class"),
    ("trilinear", "biquo.biquotient", "KleinRing.trilinear"),
    ("cube_class", "biquo.arith", "cube_class_mod_q"),
    ("substitute", "biquo.poly", "HomPoly.substitute"),
    ("piece", "biquo.graded", "GradedQuotient.piece"),
    ("rref", "biquo.linalg", "rref"),
)

REFERENCE = Path(__file__).resolve().parent / "reference.json"

clock = time.perf_counter


def span_units(prefix: str, spans: list, first: int, wall: float) -> dict[str, float]:
    """Self time of each span from ``first`` on, in call order, and the rest
    of ``wall`` outside them, in seconds."""
    own = [span[4] - span[3] for span in spans[first:]]
    outside = wall * 1e9
    for span in spans[first:]:
        if span[1] >= first:
            own[span[1] - first] -= span[4] - span[3]
        else:
            outside -= span[4] - span[3]
    units = {f"{prefix}.{i}": ns / 1e9 for i, ns in enumerate(own)}
    units[f"{prefix}.rest"] = outside / 1e9
    return units


def ring_matrix(rng: random.Random, k: int) -> list[list[int]]:
    return [
        [
            1 if i == j
            else rng.choice((-1, 1)) if j == i - 1 and i % 2
            else 0
            for j in range(k)
        ]
        for i in range(k)
    ]


def inputs(workload: str, seed: int) -> dict:
    """The input every timed pass of a run repeats."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan":
        return {"radii": dict(SCAN_RADII)}
    if workload == "ring":
        matrices = [ring_matrix(rng, k) for k in RING_RANKS]
        pairs = []
        while len(pairs) < PIPELINE_ITEMS:
            pair = [rng.randint(-PIPELINE_RADIUS, PIPELINE_RADIUS) for _ in range(2)]
            if pair != [0, 0]:
                pairs.append(pair)
        return {"matrices": matrices, "pairs": pairs}
    if workload == "verify":
        # the suite's own default seed, as `biquo verify --suite all` runs it:
        # the t3 checks alone take 1.3 s on one seed and 2.8 s on another
        return {"verify_seed": None}
    raise ValueError(f"unknown workload {workload!r}")


def checked_inputs(workload: str, seed: int) -> list[dict]:
    """Inputs run and checked once per run, outside the timed passes."""
    rng = random.Random(f"{workload}:{seed}:checked")
    if workload == "ring":
        return [{"matrices": [ring_matrix(rng, CHECKED_RANK)], "pairs": []}]
    if workload == "verify":
        return [{"verify_seed": rng.randrange(2**31)}]
    return []


# -- scan ------------------------------------------------------------------


def measure_scan(spec: dict) -> dict:
    from biquo import report

    # Rows are timed one by one through the public function that computes
    # each row, wherever report binds it; the rest of a scan (grid, sort,
    # distinct count, JSON) is one more call per family.
    rows = Tracer(tuple(
        (family, "biquo.invariants", attr) for family, attr in ROW_FUNCTIONS.items()
    ))
    units, reports = {}, {}
    with rows.installed():
        for family, radius in spec["radii"].items():
            first = len(rows.spans)
            t0 = clock()
            result = report.scan(family, radius)
            text = result.to_json()
            units.update(span_units(family, rows.spans, first, clock() - t0))
            reports[family] = (len(result.rows), result.distinct_count, text)
    return {
        "units": units,
        "pass_units": list(units),
        "item_units": list(units),
        "items": sum(n for n, _, _ in reports.values()),
        "family_rows": {family: n for family, (n, _, _) in reports.items()},
        "outputs": reports,
    }


def check_scan(spec: dict, result: dict) -> list[str]:
    import biquo

    golden_path = Path(biquo.__file__).parent / "data" / "expected_counts.json"
    golden = json.loads(golden_path.read_text())
    frozen = json.loads(REFERENCE.read_text())["scan"]
    errors = []
    for family, (rows, distinct, text) in result["outputs"].items():
        radius = spec["radii"][family]
        ref = frozen[family]
        if ref["radius"] != radius or ref["rows"] != rows:
            errors.append(f"{family} r={radius}: {rows} rows, reference {ref}")
        want = golden[family][str(radius)]
        if distinct != want:
            errors.append(f"{family} r={radius}: distinct {distinct} != golden {want}")
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != ref["sha256"]:
            errors.append(f"{family} r={radius}: report digest {digest} != {ref['sha256']}")
    return errors


# -- ring ------------------------------------------------------------------


def measure_ring(spec: dict) -> dict:
    from biquo.biquotient import quotient_ring
    from biquo.invariants import t1_invariant_pipeline

    units, rings, pipeline = {}, [], []
    for matrix in spec["matrices"]:
        k = len(matrix)
        try:
            t0 = clock()
            ring = quotient_ring(matrix)
            units[f"rank{k}.relations"] = clock() - t0
            dims = []
            for d in range(0, 2 * k + 1, 2):  # each call builds one graded piece
                t0 = clock()
                dims.append(ring.graded_dim(d))
                units[f"rank{k}.degree{d}"] = clock() - t0
            t0 = clock()
            ci = ring.is_complete_intersection()
            units[f"rank{k}.ci"] = clock() - t0
            rings.append((k, {"dims": dims, "ci": ci}))
        except Exception as exc:  # a failed item, reported by check_ring
            rings.append((k, {"error": repr(exc)}))
    ring_units = list(units)
    for i, (b1, c1) in enumerate(spec["pairs"]):
        t0 = clock()
        try:
            answer = t1_invariant_pipeline(b1, c1).serialize()
        except Exception as exc:
            answer = {"error": repr(exc)}
        units[f"pipeline{i}"] = clock() - t0
        pipeline.append(answer)
    return {
        "units": units,
        "pass_units": ring_units,
        "item_units": [name for name in units if name not in ring_units],
        "items": len(pipeline),
        "outputs": {"rings": rings, "pipeline": pipeline},
    }


def check_ring(spec: dict, result: dict) -> list[str]:
    from biquo.invariants import t1_invariant

    errors = []
    for k, answer in result["outputs"]["rings"]:
        expected = {"dims": [comb(k, w) for w in range(k + 1)], "ci": True}
        if answer != expected:
            errors.append(f"rank {k} ring: {answer} != {expected}")
    for (b1, c1), got in zip(spec["pairs"], result["outputs"]["pipeline"]):
        want = t1_invariant(b1, c1).serialize()
        if got != want:
            errors.append(f"pipeline ({b1}, {c1}): {got} != closed form {want}")
    return errors


# -- verify ----------------------------------------------------------------


def measure_verify(spec: dict) -> dict:
    from biquo.checks import DEFAULT_SEED, SUITE_NAMES, verify

    # verify("all", seed) is exactly these suites in this order, each on a
    # fresh Random(seed).  Units are each check, run by the suite recorder,
    # and the calls to VERIFY_CALLS inside it.
    seed = DEFAULT_SEED if spec["verify_seed"] is None else spec["verify_seed"]
    checks = Tracer(VERIFY_CALLS)
    units, results = {}, []
    with checks.installed():
        for suite in SUITE_NAMES:
            first = len(checks.spans)
            t0 = clock()
            results += verify(suite, seed)
            units.update(span_units(suite, checks.spans, first, clock() - t0))
    return {
        "units": units,
        "pass_units": list(units),
        "item_units": list(units),
        "items": len(results),
        "outputs": [(r.line(), r.ok) for r in results],
    }


def check_verify(spec: dict, result: dict) -> list[str]:
    return [line for line, ok in result["outputs"] if not ok]


def account(workload: str, result: dict, errors: list[str]) -> tuple[int, int]:
    """(attempted, failed) items of one checked pass."""
    if workload == "ring":
        return len(result["outputs"]["rings"]) + result["items"], len(errors)
    if workload == "verify":
        return result["items"], len(errors)
    # a scan report is checked as a whole, so one error fails all its rows
    failed = sum(
        rows for family, rows in result["family_rows"].items()
        if any(e.startswith(f"{family} ") for e in errors)
    )
    return result["items"], failed


MEASURE = {"scan": measure_scan, "ring": measure_ring, "verify": measure_verify}
CHECK = {"scan": check_scan, "ring": check_ring, "verify": check_verify}
