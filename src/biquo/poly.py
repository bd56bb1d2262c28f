"""Homogeneous multivariate polynomials over Q.

A ``HomPoly`` stores a map from exponent tuples to nonzero Fractions;
all stored monomials share one total exponent degree (the ``weight``).
In ring contexts every generator sits in cohomological degree 2, so the
cohomological degree of a polynomial is twice its weight.

Terms print in graded lex order ("3*x1^2*x3 + x2^3" style), which fixes
a deterministic text form; ``parse_poly`` inverts it.

Which paths validate: ``HomPoly(...)``, ``zero``, ``variable``,
``linear`` and ``parse_poly`` check every exponent tuple (``nvars``
non-negative ints summing to ``weight``), coerce every coefficient to a
Fraction and drop zeros, and so do ``+``, ``-``, ``*``, ``scale`` and
``substitute``, which build their results through ``HomPoly(...)``.
``partial`` and ``coefficients_in_var``, which only re-key the terms of
a valid polynomial, and ``nodal._poly_det``, which multiplies term dicts
with ``_mul_terms``, wrap their results with the private
``HomPoly._trusted`` instead, without checks.  They rely on the dict they
pass being clean: int-tuple keys of length ``nvars`` that sum to the
weight, and nonzero Fraction values (``_mul_terms`` leaves cancelled
coefficients as zeros, and its callers drop them).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Mapping, Sequence

from .arith import CertificateError, _parse_rational


def monomials(nvars: int, weight: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, descending lex.

    >>> monomials(2, 2)
    [(2, 0), (1, 1), (0, 2)]
    """
    out = []
    for combo in combinations_with_replacement(range(nvars), weight):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return sorted(out, reverse=True)


class HomPoly:
    """An exact homogeneous polynomial; immutable once constructed."""

    __slots__ = ("nvars", "weight", "coeffs")

    def __init__(self, nvars: int, weight: int, terms: Mapping[tuple[int, ...], object] = ()):
        coeffs: dict[tuple[int, ...], Fraction] = {}
        for exps, c in dict(terms).items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if c == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for {nvars} variables")
            if sum(exps) != weight:
                raise ValueError(f"term {exps} breaks homogeneity (weight {weight})")
            coeffs[exps] = coeffs.get(exps, Fraction(0)) + c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(
            self, "coeffs", {e: c for e, c in coeffs.items() if c != 0}
        )

    def __setattr__(self, *_):
        raise AttributeError("HomPoly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def _trusted(cls, nvars: int, weight: int, coeffs: dict) -> "HomPoly":
        """Wrap a clean dict without checks (see the module docstring)."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "weight", weight)
        object.__setattr__(poly, "coeffs", coeffs)
        return poly

    @classmethod
    def zero(cls, nvars: int, weight: int) -> "HomPoly":
        return cls(nvars, weight, {})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "HomPoly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, 1, {tuple(e): 1})

    @classmethod
    def linear(cls, coeffs: Sequence) -> "HomPoly":
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            e = [0] * n
            e[i] = 1
            terms[tuple(e)] = c
        return cls(n, 1, terms)

    # -- ring structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Cohomological degree: twice the exponent weight."""
        return 2 * self.weight

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.coeffs.get(tuple(exps), Fraction(0))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomPoly)
            and self.nvars == other.nvars
            and self.weight == other.weight
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.nvars, self.weight, frozenset(self.coeffs.items())))

    def __add__(self, other: "HomPoly") -> "HomPoly":
        """The sum; a zero operand of another weight takes the other's weight."""
        self._check_compatible(other)
        merged = dict(self.coeffs)
        for e, c in other.coeffs.items():
            merged[e] = merged.get(e, Fraction(0)) + c
        weight = other.weight if other.coeffs and not self.coeffs else self.weight
        return HomPoly(self.nvars, weight, merged)

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        return self + (-other)

    def __neg__(self) -> "HomPoly":
        return HomPoly(self.nvars, self.weight, {e: -c for e, c in self.coeffs.items()})

    def scale(self, c) -> "HomPoly":
        c = Fraction(c)
        return HomPoly(self.nvars, self.weight, {e: c * v for e, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, HomPoly):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        return HomPoly(
            self.nvars, self.weight + other.weight, _mul_terms(self.coeffs, other.coeffs)
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def _check_compatible(self, other: "HomPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        if self.weight != other.weight and self.coeffs and other.coeffs:
            raise ValueError("weights differ")

    # -- calculus and substitution ------------------------------------------

    def partial(self, i: int) -> "HomPoly":
        # distinct terms with e[i] > 0 stay distinct, and c * e[i] != 0
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.coeffs.items():
            k = e[i]
            if k:
                out[e[:i] + (k - 1,) + e[i + 1 :]] = c * k
        return HomPoly._trusted(self.nvars, max(self.weight - 1, 0), out)

    def substitute(self, matrix: Sequence[Sequence]) -> "HomPoly":
        """Apply x_i -> sum_j matrix[i][j] * x_j."""
        if len(matrix) != self.nvars or any(len(row) != self.nvars for row in matrix):
            raise ValueError("substitution matrix has the wrong shape")
        images = [HomPoly.linear([Fraction(c) for c in row]) for row in matrix]
        out = HomPoly.zero(self.nvars, self.weight)
        for e, c in self.coeffs.items():
            term = HomPoly(self.nvars, 0, {(0,) * self.nvars: c})
            for i, exp in enumerate(e):
                for _ in range(exp):
                    term = term * images[i]
            out = out + term
        return out

    def evaluate(self, point: Sequence) -> Fraction:
        vals = [Fraction(x) for x in point]
        total = Fraction(0)
        for e, c in self.coeffs.items():
            term = c
            for x, k in zip(vals, e):
                term *= x**k
            total += term
        return total

    def evaluate_complex(self, point: Sequence[complex]) -> complex:
        total = 0j
        for e, c in self.coeffs.items():
            term = complex(c)
            for x, k in zip(point, e):
                term *= x**k
            total += term
        return total

    def coefficients_in_var(self, v: int) -> dict[int, "HomPoly"]:
        """Collect as a polynomial in variable v: exponent -> coefficient form.

        The coefficient forms live in the same variable set with
        variable v unused.
        """
        out: dict[int, dict[tuple[int, ...], Fraction]] = {}
        for e, c in self.coeffs.items():
            k = e[v]
            rest = list(e)
            rest[v] = 0
            out.setdefault(k, {})[tuple(rest)] = c
        return {
            k: HomPoly._trusted(self.nvars, self.weight - k, terms)
            for k, terms in sorted(out.items())
        }

    # -- text form -----------------------------------------------------------

    def to_str(self, names: Sequence[str] | None = None) -> str:
        if not self.coeffs:
            return "0"
        if names is None:
            names = [f"x{i + 1}" for i in range(self.nvars)]
        pieces = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            vars_txt = "*".join(
                f"{names[i]}^{k}" if k > 1 else names[i]
                for i, k in enumerate(e)
                if k
            )
            if not vars_txt:
                body = str(abs(c))
            elif abs(c) == 1:
                body = vars_txt
            else:
                body = f"{abs(c)}*{vars_txt}"
            pieces.append(("- " if c < 0 else "+ ") + body)
        head = pieces[0][2:] if pieces[0].startswith("+ ") else "-" + pieces[0][2:]
        return " ".join([head] + pieces[1:])

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"HomPoly({self.nvars}, {self.weight}, {self.to_str()!r})"


def _mul_terms(a: dict, b: dict) -> dict:
    """The product of two term dicts; a coefficient that cancels stays as 0."""
    out: dict[tuple[int, ...], Fraction] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return out


def parse_poly(text: str, nvars: int, names: Sequence[str] | None = None) -> HomPoly:
    """Parse the deterministic text form back into a HomPoly.

    Accepts terms like "3/2*x1^2*x3", "-x2", "x1*x2", joined by + or -.
    """
    if names is None:
        names = [f"x{i + 1}" for i in range(nvars)]
    index = {name: i for i, name in enumerate(names)}
    s = text.replace(" ", "").replace("−", "-")  # accept the unicode minus
    if not s or s == "0":
        raise ValueError("cannot parse an empty/zero polynomial without a weight")
    # split into signed chunks
    chunks: list[str] = []
    current = ""
    for ch in s:
        if ch in "+-" and current and current[-1] not in "+-*/^":
            chunks.append(current)
            current = ch
        else:
            current += ch
    chunks.append(current)
    terms: dict[tuple[int, ...], Fraction] = {}
    weight: int | None = None
    for chunk in chunks:
        sign = Fraction(1)
        body = chunk
        while body and body[0] in "+-":
            if body[0] == "-":
                sign = -sign
            body = body[1:]
        coeff = sign
        exps = [0] * nvars
        for part in body.split("*"):
            if not part:
                raise ValueError(f"cannot parse term {chunk!r}")
            if part[0].isdigit():
                coeff *= _parse_rational(part)
                continue
            if "^" in part:
                name, _, power = part.partition("^")
                k = int(power)
            else:
                name, k = part, 1
            if name not in index:
                raise ValueError(f"unknown variable {name!r}")
            exps[index[name]] += k
        w = sum(exps)
        if weight is None:
            weight = w
        elif weight != w:
            raise ValueError("terms are not homogeneous")
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    if weight is None:
        raise CertificateError(f"no term parsed from {text!r}")
    poly = HomPoly(nvars, weight, terms)
    if poly.is_zero():
        raise ValueError(f"the terms of {text!r} cancel")
    return poly
