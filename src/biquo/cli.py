"""Command-line interface.

Subcommands:
  scan t1|t2|t3 --radius N [--format json|csv] [--out FILE] [--jobs N]
                                    (at most report.MAX_SCAN_ROWS rows)
  invariant t1|t2|t3 --PARAM V ...  (the family's parameters in FAMILIES)
  ring --matrix "1,0,0;2,1,1;4,2,1" [--max-degree D]  (D <= MAX_DEGREE)
  free --matrix ...                 (ring and free: rank <= MAX_RANK)
  verify --suite arith|ring|freeness|t1|t2|t3|all

Exit codes: 0 success, 1 verification failure, 2 invalid input.

Each subcommand imports only the modules it runs: `--help` and usage
errors load argparse alone, and only `verify` loads `checks`.

``FAMILIES`` declares the three families for these parsers and for
``report``; it lives here so that importing the CLI loads no math module.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from . import __version__

# let argparse treat "-3/4", "-.5" and "-1,0;0,1" as values, not options:
# no option name starts with a digit
_NEGATIVE_VALUE = re.compile(r"^-\.?\d")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2

# Largest torus rank that `ring` and `free` accept: the ring of a seeded
# free action (unit lower triangular, entries in [-3, 3]) takes 0.02-0.03 s
# at rank 8 and 0.07-0.08 s at rank 9 (in process, on a shared 2-vCPU
# host); `free` checks the principal minors by Schur complements, up to
# 2^k of them.
MAX_RANK = 8

# Largest `ring --max-degree`: every piece above degree 2 * rank is zero,
# yet each one is still built and printed (10^7 took about 4.5 s and printed
# 15 MB for a rank-2 ring).
MAX_DEGREE = 1000

# the suites `verify` runs, here so that the parser does not import `checks`
SUITE_NAMES = ("arith", "ring", "freeness", "t1", "t2", "t3")


# ASCII integers, p/q and plain decimals only: Fraction() also takes exponent
# notation, and expanding "1e10000000" alone takes seconds
_RATIONAL = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+)?|[0-9]*\.[0-9]+)")


def _rational(text: str) -> Fraction:
    """argparse type for a rational like "-3/4" or "1.5"; "1/0" is a usage error."""
    try:
        if not _RATIONAL.fullmatch(text):
            raise ValueError(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational value: {text!r}") from None


def _integer(text: str) -> int:
    """argparse type for an ASCII integer like "-3" or "+5", read as ``arith``
    reads one; like ``_rational``, no whitespace around it."""
    from .arith import _parse_integer

    try:
        if text != text.strip():
            raise ValueError(text)
        return _parse_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}") from None


# The families: each one's invariant function in `invariants`, its
# parameter names and the argparse type of a parameter.
FAMILIES = {
    "t1": ("t1_invariant", ("b1", "c1"), _integer),
    "t2": ("t2_det_class", ("a0", "a1"), _rational),
    "t3": ("t3_discriminant_class", ("a", "b", "c"), _rational),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biquo",
        description="Exact invariants of torus-quotient cohomology rings.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="scan a parameter family")
    p_scan.add_argument("family", choices=tuple(FAMILIES))
    p_scan.add_argument("--radius", type=_integer, required=True)
    p_scan.add_argument("--format", choices=("json", "csv"), default="json")
    p_scan.add_argument("--out", help="output file (default: stdout)")
    p_scan.add_argument("--jobs", type=_integer, default=1, help="worker processes")

    p_inv = sub.add_parser("invariant", help="one invariant value")
    inv_sub = p_inv.add_subparsers(dest="family", required=True)
    for family, (_, names, kind) in FAMILIES.items():
        p_family = inv_sub.add_parser(family)
        p_family._negative_number_matcher = _NEGATIVE_VALUE
        for name in names:
            p_family.add_argument(f"--{name}", type=kind, required=True)

    p_ring = sub.add_parser("ring", help="quotient ring of a free torus action")
    p_ring.add_argument("--matrix", required=True, help='rows like "1,0,0;2,1,1;4,2,1"')
    p_ring.add_argument("--max-degree", type=_integer, default=None)

    p_free = sub.add_parser("free", help="freeness of a torus action")
    p_free.add_argument("--matrix", required=True)

    for valued_parser in (p_scan, p_ring, p_free):
        valued_parser._negative_number_matcher = _NEGATIVE_VALUE

    p_verify = sub.add_parser("verify", help="run the property suites")
    p_verify.add_argument(
        "--suite", required=True, choices=SUITE_NAMES + ("all",)
    )
    return parser


def _cmd_scan(args) -> int:
    from .report import scan

    report = scan(args.family, args.radius, jobs=args.jobs)
    text = report.to_json() if args.format == "json" else report.to_csv()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(
            f"{report.family} radius {report.search_radius}: "
            f"{len(report.rows)} rows, {report.distinct_count} distinct -> {args.out}"
        )
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_invariant(args) -> int:
    from . import invariants

    name, names, _ = FAMILIES[args.family]
    invariant = getattr(invariants, name)
    values = [getattr(args, name) for name in names]
    try:
        print(invariant(*values).serialize())
    except (ValueError, ZeroDivisionError) as exc:
        given = ", ".join(f"{name}={value}" for name, value in zip(names, values))
        raise ValueError(f"invariant {args.family} ({given}): {exc}") from None
    return EXIT_OK


def _matrix(text: str):
    from .biquotient import TorusActionMatrix

    matrix = TorusActionMatrix.parse(text)
    if matrix.size > MAX_RANK:
        raise ValueError(f"torus rank {matrix.size} is above the limit {MAX_RANK}")
    return matrix


def _cmd_ring(args) -> int:
    from .biquotient import quotient_ring

    matrix = _matrix(args.matrix)
    if args.max_degree is not None and args.max_degree > MAX_DEGREE:
        raise ValueError(f"max degree {args.max_degree} is above the limit {MAX_DEGREE}")
    ring = quotient_ring(matrix, args.max_degree)
    print(f"generators: {ring.generators} (degree 2)")
    for rel in ring.relations:
        print(f"relation: {rel.to_str()}")
    dims = [ring.graded_dim(d) for d in range(0, ring.max_degree + 1, 2)]
    print("graded dims (even degrees 0..{}): {}".format(ring.max_degree, dims))
    print(f"complete intersection: {ring.is_complete_intersection()}")
    return EXIT_OK


def _cmd_free(args) -> int:
    from .biquotient import is_free

    matrix = _matrix(args.matrix)
    print("free" if is_free(matrix) else "not free")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .checks import verify

    results = verify(args.suite)
    for result in results:
        print(result.line())
    failures = [r for r in results if not r.ok]
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "scan": _cmd_scan,
        "invariant": _cmd_invariant,
        "ring": _cmd_ring,
        "free": _cmd_free,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
