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
from biquo import invariants
from biquo.cli import FAMILIES, MAX_DEGREE, MAX_RANK, _build_parser, _integer, _rational, main
from biquo.invariants import parse_t1_invariant
from biquo.report import DEGENERATE, MAX_SCAN_ROWS, ScanReport, _grid, _row_count, scan

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
    import multiprocessing

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

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
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
    assert capsys.readouterr().err.startswith(
        "error: invariant t3 (a=1, b=2, c=1): discriminant vanishes"
    )


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


def test_cli_ring_high_max_degree_stops_at_the_zero_piece(capsys):
    # every piece above weight 3 is zero; building them took 23 s at 300
    start = time.process_time()
    argv = ["ring", "--matrix", "1,0,0;1,1,0;0,1,1", "--max-degree", "300"]
    assert main(argv) == 0
    assert time.process_time() - start < 1.0
    out = capsys.readouterr().out.splitlines()
    dims = [1, 3, 3, 1] + [0] * 147
    assert out[-2] == f"graded dims (even degrees 0..300): {dims}"
    assert out[-1] == "complete intersection: True"


def test_cli_ring_accepts_the_max_degree_limit(capsys):
    assert MAX_DEGREE >= 300
    assert main(["ring", "--matrix", "1,0;1,1", "--max-degree", str(MAX_DEGREE)]) == 0
    dims = [1, 2, 1] + [0] * (MAX_DEGREE // 2 - 2)
    out = capsys.readouterr().out.splitlines()
    assert out[-2] == f"graded dims (even degrees 0..{MAX_DEGREE}): {dims}"


@pytest.mark.parametrize("degree", [MAX_DEGREE + 1, 10**7])
def test_cli_ring_above_the_max_degree_limit_exit_2(degree, capsys):
    start = time.process_time()
    assert main(["ring", "--matrix", "1,0;1,1", "--max-degree", str(degree)]) == 2
    assert time.process_time() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: max degree {degree} is above the limit {MAX_DEGREE}\n"


def test_scan_row_count_matches_the_grid():
    for family in FAMILIES:
        for radius in (1, 2, 5):
            grid = _grid(family, radius)
            assert _row_count(family, radius) == len(grid)
            assert grid == sorted(set(grid)) and (0,) * len(grid[0]) not in grid
            # t1 takes 0 in one coordinate, t2 and t3 never
            assert any(0 in p for p in grid) == (family == "t1")
    # t3 at radius 50 is exactly the limit, one more is above it
    assert _row_count("t3", 50) == MAX_SCAN_ROWS
    assert _row_count("t3", 51) > MAX_SCAN_ROWS


@pytest.mark.parametrize(
    "family,radius", [("t1", 500), ("t2", 501), ("t3", 51), ("t3", 100000)]
)
def test_scan_refuses_a_grid_above_the_row_limit(family, radius, capsys):
    start = time.process_time()
    rows = _row_count(family, radius)
    with pytest.raises(ValueError) as info:
        scan(family, radius)
    assert str(info.value) == (
        f"{family} radius {radius} gives {rows} rows, above the limit {MAX_SCAN_ROWS}"
    )
    assert main(["scan", family, "--radius", str(radius)]) == 2
    assert time.process_time() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {info.value}\n"


def test_scan_rows_look_up_their_invariant_on_every_call(monkeypatch):
    # a wrapper bound in `invariants` after import (as the benchmark's row
    # timers bind one) sees every row of a scan
    calls = []
    original = invariants.t2_det_class

    def counting(*params):
        calls.append(params)
        return original(*params)

    monkeypatch.setattr(invariants, "t2_det_class", counting)
    report = scan("t2", 2)
    assert calls == [params for params, _ in report.rows] and len(calls) == 16


def test_parsers_and_report_columns_follow_the_family_table():
    def subcommands(parser):
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    commands = subcommands(_build_parser())
    (family_arg,) = [a for a in commands["scan"]._actions if a.dest == "family"]
    assert family_arg.choices == tuple(FAMILIES) == ("t1", "t2", "t3")
    parsers = subcommands(commands["invariant"])
    assert list(parsers) == list(FAMILIES)
    for family, (name, params, kind) in FAMILIES.items():
        options = [a for a in parsers[family]._actions if a.dest != "help"]
        assert [a.option_strings for a in options] == [[f"--{p}"] for p in params]
        assert all(a.type is kind and a.required for a in options)
        assert callable(getattr(invariants, name))
        report = scan(family, 1)
        assert json.loads(report.to_json())["parameters"] == list(params)
        assert report.to_csv().splitlines()[0] == ",".join(params) + ",invariant"


def test_cli_invariant_t2_with_a_prime_power_in_the_determinant():
    # the determinant of t2 (1, p) holds p^3, which factor splits as a power
    proc = run_cli("invariant", "t2", "--a0", "1", "--a1", "1000000000039")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "-1000000000039\n", "")


def test_cli_invariant_t2_with_a_prime_power_above_the_witness_limit():
    # p = nextprime(10^17): the determinant holds p^3, 52 digits, which
    # is_prime cannot sort; factor splits it through its cube root
    proc = run_cli("invariant", "t2", "--a0", "1", "--a1", "100000000000000003")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "-100000000000000003\n", ""
    )


def test_cli_refusal_counts_the_digits_of_an_integer_str_refuses():
    # the refused integer is a1^3, 6001 digits: more than str() converts
    a1 = 10**2000 + 3
    proc = run_cli("invariant", "t2", "--a0", "1", "--a1", str(a1))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        f"error: invariant t2 (a0=1, a1={a1}): primality of a 6001-digit "
        "integer is beyond the certified range\n"
    )


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


def test_cli_verify_all_matches_the_golden(capsys):
    # the 37 check names, their order and the summary line at the default seed
    assert main(["verify", "--suite", "all"]) == 0
    assert capsys.readouterr().out == (DATA / "verify_all.txt").read_text()


def test_cli_verify_failure_exit_1(monkeypatch, capsys):
    from biquo import checks, cli
    from biquo.checks import CheckResult

    monkeypatch.setattr(
        checks, "verify", lambda suite: [CheckResult("stub", "broken", False, "b1=1")]
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


def test_cli_unsplit_semiprime_exits_2_naming_the_arguments():
    # t3 at (1, b, 1) factors the discriminant 4 b (b - 2); with twin
    # primes b - 2 and b of 13 digits the cofactor is a 25-digit product
    # of two 13-digit primes, which Pollard rho would need millions of
    # steps to split
    sympy = pytest.importorskip("sympy")
    b = 1500000000271
    assert sympy.isprime(b) and sympy.isprime(b - 2) and len(str(b)) == 13
    start = time.monotonic()
    proc = run_cli("invariant", "t3", "--a", "1", "--b", str(b), "--c", "1")
    assert time.monotonic() - start < 5
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: invariant t3 (a=1, b={b}, c=1): no factor of a 25-digit integer "
        "found in 262144 Pollard rho steps"
    ]


def test_cli_invariant_errors_name_the_family_and_arguments(capsys):
    # the refused integer may be one derived from the input, so the line
    # names the arguments the user gave
    sympy = pytest.importorskip("sympy")
    n = int(sympy.nextprime(3 * 10**39)) * int(sympy.nextprime(7 * 10**39))
    cases = [
        (["t2", "--a0", "1", "--a1", str(n)], f"invariant t2 (a0=1, a1={n}): primality of a "),
        (["t2", "--a0", "-3/4", "--a1", "0"], "invariant t2 (a0=-3/4, a1=0): "),
        (["t3", "--a", "1", "--b", "2", "--c", "1"], "invariant t3 (a=1, b=2, c=1): "),
        (["t1", "--b1", "0", "--c1", "0"], "invariant t1 (b1=0, c1=0): "),
    ]
    for argv, prefix in cases:
        assert main(["invariant", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: " + prefix), captured.err


def test_cli_invariant_t1_at_large_primes():
    # N = nextprime(10^8) exited 2 until the cube classes factored square
    # norms through their root, and N = nextprime(10^14) until a composite
    # cofactor above the Miller-Rabin limit went to Pollard rho
    # (tests/test_arith.py checks both values against sympy); at
    # nextprime(10^15) a 25-digit prime cofactor is still refused
    proc = run_cli("invariant", "t1", "--b1", "100000007", "--c1", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "5:1,13:1,622337:1,494414357:2|5:2,13:2,622337:2,494414357:1\n"
    proc = run_cli("invariant", "t1", "--b1", "100000000000031", "--c1", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "9002801:1,2221530832461164031061:1|9002801:2,2221530832461164031061:2\n"
    )
    n = 1000000000000037
    proc = run_cli("invariant", "t1", "--b1", str(n), "--c1", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: invariant t1 (b1={n}, c1=1): primality of a 25-digit integer "
        "is beyond the certified range"
    ]


def test_cli_invariant_t2_factors_a_composite_above_the_limit():
    # the determinant has 29 digits, above arith._MR_LIMIT; it exited 2
    # while is_prime refused every integer that large, and a Miller-Rabin
    # witness now sends it to Pollard rho
    sympy = pytest.importorskip("sympy")
    a0, a1 = 10000019, 10000079
    proc = run_cli("invariant", "t2", "--a0", str(a0), "--a1", str(a1))
    assert proc.returncode == 0, proc.stderr
    odd = [p for p, e in sympy.factorint(a0 * a1).items() if e % 2]
    want = -1
    for p in odd:
        want *= p
    assert proc.stdout == f"{want}\n"


@pytest.mark.parametrize("text", ["1.5", "-.5", "+2", "-3/4", "0.25"])
def test_cli_rational_accepts_integers_fractions_decimals(text):
    assert _rational(text) == Fraction(text)


@pytest.mark.parametrize(
    "text", ["1e3", "1E3", "1_0", "\u0661", "inf", "nan", " 1", "1/", "/2", ".", "1.5/2"]
)
def test_cli_rational_rejects_other_text(text):
    with pytest.raises(argparse.ArgumentTypeError):
        _rational(text)


@pytest.mark.parametrize("text", ["0", "17", "-3", "+5", "007"])
def test_cli_integer_accepts_ascii_integers(text):
    assert _integer(text) == int(text)


@pytest.mark.parametrize(
    "text", ["1_0", "\u0661", " 1", "1 ", "1.0", "1/1", "", "+", "--1", "1e3"]
)
def test_cli_integer_rejects_other_text(text):
    with pytest.raises(argparse.ArgumentTypeError):
        _integer(text)


@pytest.mark.parametrize(
    "argv, option",
    [
        (["invariant", "t1", "--b1", "1_0", "--c1", "4"], "--b1"),
        (["invariant", "t1", "--b1", "10", "--c1", " 4"], "--c1"),
        (["scan", "t1", "--radius", "\u0661"], "--radius"),
        (["scan", "t1", "--radius", "1", "--jobs", "1_0"], "--jobs"),
        (["ring", "--matrix", "1", "--max-degree", "\u0662"], "--max-degree"),
    ],
    ids=["underscore", "space", "arabic-indic-digit", "jobs", "max-degree"],
)
def test_cli_integer_options_exit_2_on_other_text(argv, option):
    proc = run_cli(*argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    last = proc.stderr.splitlines()[-1]
    assert f"argument {option}: invalid integer value: {argv[argv.index(option) + 1]!r}" in last


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_scan_refuses_fewer_than_one_job(jobs):
    # no longer clamped up to one worker: a bad input, with no rows written
    proc = run_cli("scan", "t1", "--radius", "1", "--jobs", jobs)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: jobs must be at least 1, not {jobs}\n"
    with pytest.raises(ValueError, match=f"^jobs must be at least 1, not {jobs}$"):
        scan("t1", 1, jobs=int(jobs))


def test_cli_reads_signed_integers_as_arith_does():
    plus = run_cli("invariant", "t1", "--b1", "+10", "--c1", "4")
    plain = run_cli("invariant", "t1", "--b1", "10", "--c1", "4")
    assert plus.returncode == plain.returncode == 0
    assert plus.stdout == plain.stdout == "17:1|17:2\n"
    free = run_cli("free", "--matrix", "+1")
    assert (free.returncode, free.stdout) == (0, "free\n")


def test_cli_reads_a_matrix_that_starts_with_a_minus_sign():
    spaced = run_cli("ring", "--matrix", "-1,0;0,1")
    joined = run_cli("ring", "--matrix=-1,0;0,1")
    assert spaced.returncode == joined.returncode == 0, spaced.stderr
    assert spaced.stdout == joined.stdout != ""
    free = run_cli("free", "--matrix", "-2,0;0,1")
    assert (free.returncode, free.stdout) == (0, "not free\n")


def test_cli_import_leaves_numpy_unloaded():
    proc = run_cli(code="import biquo.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
