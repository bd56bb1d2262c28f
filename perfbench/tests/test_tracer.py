"""Exact-count self-test of the benchmark's tracer.

On tiny fixed inputs the traced call counts must equal hand-derived
values, so a name the tracer failed to rebind fails here instead of
reading as zero in a traced benchmark run.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import biquo  # noqa: E402
from biquo import arith, checks, invariants, linalg, report  # noqa: E402
from tracer import TARGETS, Tracer, layer_metric_names  # noqa: E402


def traced(fn):
    tracer = Tracer()
    with tracer.installed():
        fn()
    return tracer.summary()


def test_one_t1_row_takes_two_cube_classes():
    # T1Invariant.from_alpha_beta classifies alpha+beta*i and its mirror
    counts = traced(lambda: invariants.t1_invariant(3, 5))
    assert counts["arith.cube_class_mod_q.calls"] == 2


def test_t1_scan_counts_through_report_aliases():
    counts = traced(lambda: report.scan("t1", 1))  # 8 rows
    assert counts["report.scan.calls"] == 1
    assert counts["arith.cube_class_mod_q.calls"] == 16
    assert counts["arith.gaussian_factor.calls"] == 16
    assert all(
        v == 0 for k, v in counts.items() if k.startswith("nodal.") and k.endswith(".calls")
    )


def test_one_t3_row_builds_one_quotient_space():
    counts = traced(lambda: invariants.t3_discriminant_class(1, 1, 3))
    assert counts["linalg.QuotientSpace.new.calls"] == 1
    assert counts["invariants.t3_membership_quadratic.calls"] == 1


def test_t3_scan_builds_one_quotient_space_per_row():
    counts = traced(lambda: biquo.scan("t3", 1))  # 8 rows, none degenerate
    assert counts["report.scan.calls"] == 1
    assert counts["linalg.QuotientSpace.new.calls"] == 8
    assert counts["invariants.t3_membership_quadratic.calls"] == 8


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.installed():
        report.scan("t1", 1)
    root = [s for s in tracer.spans if s[1] == -1]
    assert [s[0] for s in root] == ["report.scan"]
    counts = tracer.summary()
    total = sum(v for k, v in counts.items() if k.endswith(".self_s"))
    assert all(v >= 0 for k, v in counts.items() if k.endswith(".self_s"))
    # Gaussian.div reports no self time, so the rest falls short of the root span
    duration = (root[0][4] - root[0][3]) / 1e9
    assert 0 < total <= duration + 1e-9


def test_uninstall_restores_every_alias():
    def bindings():
        return {
            (mod.__name__, name): getattr(mod, name)
            for mod in (arith, invariants, checks, biquo)
            for name in ("cube_class_mod_q", "square_class")
        } | {
            "Gaussian.div": arith.Gaussian.__truediv__,
            "QuotientSpace.new": linalg.QuotientSpace.__init__,
        }

    before = bindings()
    with Tracer().installed():
        during = bindings()
        assert all(during[key] is not before[key] for key in before)
        assert invariants.cube_class_mod_q is arith.cube_class_mod_q
    assert bindings() == before


def test_benchmark_lists_every_layer_metric():
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in spec["per_layer"] if not m["name"].startswith("trace.")]
    assert listed == layer_metric_names()
    assert len({name for name, _, _ in TARGETS}) == len(TARGETS)


def test_span_units_split_self_time_and_rest():
    from workloads import span_units

    # one earlier span, then a root with one child, then a second root
    spans = [
        ["x", -1, "", 0, 5],
        ["a", -1, "", 10, 40],
        ["b", 1, "", 15, 25],
        ["a", -1, "", 50, 60],
    ]
    units = span_units("s", spans, 1, 100e-9)
    assert units == pytest.approx({"s.0": 20e-9, "s.1": 10e-9, "s.2": 10e-9, "s.rest": 60e-9})
