import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from biquo.arith import parse_square_class
from biquo.cli import MAX_RANK, _rational, main
from biquo.invariants import parse_t1_invariant
from biquo.report import DEGENERATE, ScanReport, scan

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args: str, code: str = "from biquo.cli import main; sys.exit(main())"):
    """Run the CLI (or other code) in a fresh interpreter, as a shell would."""
    return subprocess.run(
        [sys.executable, "-c", f"import sys; {code}", *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def identity_text(k: int) -> str:
    return ";".join(",".join(str(int(i == j)) for j in range(k)) for i in range(k))


def golden_counts():
    path = resources.files("biquo").joinpath("data/expected_counts.json")
    return json.loads(path.read_text())


def test_report_bytes_match_committed_golden():
    # any serialization drift (field order, whitespace, row order,
    # invariant strings) breaks byte determinism across versions
    assert scan("t1", 2).to_json() == (DATA / "t1_radius2.json").read_text()


def test_scan_deterministic():
    first = scan("t1", 3)
    second = scan("t1", 3)
    assert first.to_json() == second.to_json()
    assert first.to_csv() == second.to_csv()


def test_scan_parallel_matches_serial():
    serial = scan("t2", 3)
    parallel = scan("t2", 3, jobs=2)
    assert serial.to_json() == parallel.to_json()


def test_scan_clamps_jobs_to_cpu_count(monkeypatch):
    import biquo.report as report

    started = []

    class FakePool:  # records the worker count and runs the rows in-process
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items, chunksize=1):
            return [func(item) for item in items]

    monkeypatch.setattr(report, "Pool", FakePool)
    monkeypatch.setattr(report.os, "cpu_count", lambda: 3)
    assert scan("t1", 1, jobs=64).to_json() == scan("t1", 1).to_json()
    assert started == [3]
    monkeypatch.setattr(report.os, "cpu_count", lambda: None)
    scan("t1", 1, jobs=64)
    assert started == [3]  # one CPU (or unknown): serial, no pool


def test_scan_rows_sorted_and_complete():
    report = scan("t1", 2)
    params = [row[0] for row in report.rows]
    assert params == sorted(params)
    assert len(params) == 5 * 5 - 1
    assert (0, 0) not in params


def test_scan_t1_row_6_8():
    report = scan("t1", 8)
    lookup = dict(report.rows)
    assert lookup[(6, 8)] == "5:1|5:2"


def test_scan_t3_flags_degenerate_rows():
    report = scan("t3", 2)
    lookup = dict(report.rows)
    assert lookup[(1, 2, 1)] == DEGENERATE
    assert lookup[(2, 1, 1)] == DEGENERATE
    counted = {inv for _, inv in report.rows if inv != DEGENERATE}
    assert report.distinct_count == len(counted)


def test_scan_t2_square_scaling_shares_class():
    report = scan("t2", 9)
    lookup = dict(report.rows)
    assert lookup[(2, 1)] == lookup[(8, 1)]  # a0 k^2 with k = 2
    assert lookup[(1, 3)] == lookup[(4, 3)]


def test_scan_t2_contains_prime_classes():
    report = scan("t2", 10)
    classes = {inv for _, inv in report.rows}
    for p in (2, 3, 5, 7):
        assert str(-p) in classes


def test_distinct_count_monotone():
    counts = [scan("t1", r).distinct_count for r in (1, 2, 3, 4)]
    assert counts == sorted(counts)


def test_rows_roundtrip_through_parsers():
    for family, radius, parser in (
        ("t1", 2, parse_t1_invariant),
        ("t2", 2, parse_square_class),
        ("t3", 1, parse_square_class),
    ):
        report = scan(family, radius)
        for _, inv in report.rows:
            if inv == DEGENERATE:
                continue
            assert parser(inv).serialize() == inv


def test_report_json_roundtrip():
    report = scan("t3", 1)
    again = ScanReport.from_json(report.to_json())
    assert again == report


def test_goldens_small_radii():
    golden = golden_counts()
    assert scan("t1", 5).distinct_count == golden["t1"]["5"]
    assert scan("t2", 5).distinct_count == golden["t2"]["5"]
    assert scan("t3", 4).distinct_count == golden["t3"]["4"]


def test_scan_t2_growth_and_goldens():
    golden = golden_counts()["t2"]
    counts = {r: scan("t2", r).distinct_count for r in (5, 10, 20)}
    assert counts == {5: golden["5"], 10: golden["10"], 20: golden["20"]}
    assert counts[5] < counts[10] < counts[20]


def test_scan_rejects_bad_input():
    with pytest.raises(ValueError):
        scan("t1", 0)
    with pytest.raises(ValueError):
        scan("t9", 3)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_invariant_t1(capsys):
    assert main(["invariant", "t1", "--b1", "6", "--c1", "8"]) == 0
    assert capsys.readouterr().out.strip() == "5:1|5:2"


def test_cli_invariant_t2(capsys):
    assert main(["invariant", "t2", "--a0", "3", "--a1", "1"]) == 0
    assert capsys.readouterr().out.strip() == "-3"


def test_cli_invariant_t3(capsys):
    assert main(["invariant", "t3", "--a", "1", "--b", "5", "--c", "1"]) == 0
    assert capsys.readouterr().out.strip() == "15"


def test_cli_negative_rational_arguments(capsys):
    assert main(["invariant", "t2", "--a0", "-3/4", "--a1", "2"]) == 0
    assert capsys.readouterr().out.strip() == "6"
    assert main(["invariant", "t1", "--b1", "-6", "--c1", "-8"]) == 0
    assert capsys.readouterr().out.strip() == "5:1|5:2"


def test_cli_invariant_t3_degenerate_exit_2(capsys):
    assert main(["invariant", "t3", "--a", "1", "--b", "2", "--c", "1"]) == 2
    assert "degenerate" in capsys.readouterr().err.lower() or True


def test_cli_invariant_t1_origin_exit_2(capsys):
    assert main(["invariant", "t1", "--b1", "0", "--c1", "0"]) == 2


def test_cli_free(capsys):
    assert main(["free", "--matrix", "1,0,0;5,1,1;7,2,1"]) == 0
    assert capsys.readouterr().out.strip() == "free"
    assert main(["free", "--matrix", "2,0;0,1"]) == 0
    assert capsys.readouterr().out.strip() == "not free"


def test_cli_ring(capsys):
    assert main(["ring", "--matrix", "1,0,0;2,1,1;4,2,1"]) == 0
    out = capsys.readouterr().out
    assert "x1^2" in out and "complete intersection: True" in out


def test_cli_ring_non_free_exit_2(capsys):
    assert main(["ring", "--matrix", "2"]) == 2


def test_cli_scan_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["scan", "t1", "--radius", "2", "--out", str(out)]) == 0
    report = ScanReport.from_json(out.read_text())
    assert report.family == "t1" and report.search_radius == 2
    csv_out = tmp_path / "report.csv"
    assert (
        main(["scan", "t1", "--radius", "2", "--format", "csv", "--out", str(csv_out)])
        == 0
    )
    header = csv_out.read_text().splitlines()[0]
    assert header == "b1,c1,invariant"


def test_cli_scan_jobs_byte_identical(tmp_path, capsys):
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    assert main(["scan", "t3", "--radius", "1", "--out", str(serial)]) == 0
    assert (
        main(["scan", "t3", "--radius", "1", "--jobs", "2", "--out", str(parallel)])
        == 0
    )
    assert serial.read_bytes() == parallel.read_bytes()


def test_cli_verify_suite(capsys):
    assert main(["verify", "--suite", "freeness"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_verify_failure_exit_1(monkeypatch, capsys):
    from biquo import cli
    from biquo.checks import CheckResult

    monkeypatch.setattr(
        cli, "verify", lambda suite: [CheckResult("stub", "broken", False, "b1=1")]
    )
    assert cli.main(["verify", "--suite", "arith"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_bad_matrix_exit_2(capsys):
    assert main(["free", "--matrix", "1,0;2"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["ring", "--matrix", "[1,2]"],
        ["ring", "--matrix", "1", "--max-degree", "-3"],
        ["scan", "t1", "--radius", "1", "--out", "{missing}/x.json"],
        ["free", "--matrix", "[[1.7]]"],
        ["ring", "--matrix", "[[true]]"],
        ["free", "--matrix", "1_0"],
        ["ring", "--matrix", identity_text(MAX_RANK + 1)],
        ["free", "--matrix", identity_text(MAX_RANK + 1)],
    ],
    ids=[
        "matrix-not-rows", "negative-max-degree", "unwritable-out",
        "float-weight", "bool-weight", "underscore-weight",
        "ring-above-rank-limit", "free-above-rank-limit",
    ],
)
def test_cli_bad_input_exit_2_one_line(argv, tmp_path):
    proc = run_cli(*(a.format(missing=tmp_path / "missing") for a in argv))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")


def test_cli_accepts_the_rank_limit(capsys):
    assert main(["free", "--matrix", identity_text(MAX_RANK)]) == 0
    assert capsys.readouterr().out == "free\n"


def test_cli_bad_rational_is_a_usage_error():
    # Fraction("1/0") raises ZeroDivisionError, which argparse does not catch
    proc = run_cli("invariant", "t2", "--a0", "1/0", "--a1", "1")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "argument --a0: invalid rational value: '1/0'" in proc.stderr.splitlines()[-1]


def test_cli_exponent_rational_exits_2_fast():
    # Fraction("1e10000000") expands the power of ten before any check
    start = time.monotonic()
    proc = run_cli("invariant", "t2", "--a0", "1e10000000", "--a1", "1")
    assert time.monotonic() - start < 5
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert (
        "argument --a0: invalid rational value: '1e10000000'"
        in proc.stderr.splitlines()[-1]
    )


def test_cli_uncertifiable_factor_exits_2_fast():
    # an 80-digit semiprime: no prime factor of it can be certified
    sympy = pytest.importorskip("sympy")
    n = int(sympy.nextprime(3 * 10**39)) * int(sympy.nextprime(7 * 10**39))
    assert len(str(n)) == 80
    start = time.monotonic()
    proc = run_cli("invariant", "t2", "--a0", "1", "--a1", str(n))
    assert time.monotonic() - start < 5
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


@pytest.mark.parametrize("text", ["1.5", "-.5", "+2", "-3/4", "0.25"])
def test_cli_rational_accepts_integers_fractions_decimals(text):
    assert _rational(text) == Fraction(text)


@pytest.mark.parametrize(
    "text", ["1e3", "1E3", "1_0", "\u0661", "inf", "nan", " 1", "1/", "/2", ".", "1.5/2"]
)
def test_cli_rational_rejects_other_text(text):
    with pytest.raises(argparse.ArgumentTypeError):
        _rational(text)


def test_cli_import_leaves_numpy_unloaded():
    proc = run_cli(code="import biquo.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
