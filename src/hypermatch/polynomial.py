"""Exact sparse univariate polynomials over the integers.

Every SparsePolynomial holds exponents >= 0 and nonzero Python-int
coefficients. The constructor and every argument of scale, shift and **
read integers by `_integer`'s rule, and every result is built by
`_from_terms`, the one place that drops zero coefficients.
"""

from __future__ import annotations

import operator
from typing import Iterator, Mapping


class PolynomialShapeError(ValueError):
    """A polynomial violated an expected exponent structure."""


def _integer(value, what: str) -> int:
    """value as a plain int: ints and other integer types (such as numpy's)
    pass; floats, strings and bools raise TypeError instead of truncating."""
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{what} must be an integer, got {value!r}")


class SparsePolynomial:
    """Integer-coefficient polynomial stored as exponent -> coefficient.

    Exponents are ints >= 0 and coefficients nonzero Python ints
    (arbitrary precision): inputs are read by `_integer`'s rule, so numpy
    integers become ints and floats, strings and bools raise TypeError.
    Every result is built by `_from_terms`. Equality is exact term-wise
    equality. Instances are immutable: every operation returns a new value.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int]):
        pairs = [(_integer(exp, "exponent"), _integer(coef, "coefficient"))
                 for exp, coef in terms.items()]
        for exp, _ in pairs:
            if exp < 0:
                raise ValueError(f"negative exponent {exp}")
        self._terms = {exp: coef for exp, coef in pairs if coef}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "SparsePolynomial":
        return cls({})

    @classmethod
    def one(cls) -> "SparsePolynomial":
        return cls({0: 1})

    # -- inspection ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Largest exponent with nonzero coefficient; -1 for the zero polynomial."""
        return max(self._terms) if self._terms else -1

    def min_exponent(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no terms")
        return min(self._terms)

    def leading_coefficient(self) -> int:
        return self._terms[max(self._terms)] if self._terms else 0

    def terms(self) -> Iterator[tuple[int, int]]:
        """Yield (exponent, coefficient) pairs in descending exponent order."""
        for exp in sorted(self._terms, reverse=True):
            yield exp, self._terms[exp]

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        acc = dict(self._terms)
        for exp, coef in other._terms.items():
            acc[exp] = acc.get(exp, 0) + coef
        return _from_terms(acc)

    def __neg__(self) -> "SparsePolynomial":
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        acc: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return _from_terms(acc)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "SparsePolynomial":
        k = _integer(k, "power")
        if k < 0:
            raise ValueError("negative power")
        out = SparsePolynomial.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def scale(self, c: int) -> "SparsePolynomial":
        c = _integer(c, "scale factor")
        return _from_terms({e: c * v for e, v in self._terms.items()})

    def shift(self, k: int) -> "SparsePolynomial":
        """Multiply by x**k."""
        k = _integer(k, "shift")
        if k < 0:
            raise ValueError("negative shift")
        return _from_terms({e + k: c for e, c in self._terms.items()})

    def derivative(self) -> "SparsePolynomial":
        return SparsePolynomial({e - 1: e * c for e, c in self._terms.items() if e})

    def evaluate(self, x):
        """Evaluate at x (int, float, complex, Fraction...)."""
        return sum(c * x**e for e, c in self._terms.items())

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- serialization -------------------------------------------------

    def to_dense(self) -> list[int]:
        """Coefficients in descending exponent order, degree() + 1 entries."""
        d = self.degree()
        if d < 0:
            return [0]
        return [self._terms.get(e, 0) for e in range(d, -1, -1)]

    def to_json_dict(self) -> dict:
        return _json_dict(self.terms())

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exp, coef in self.terms():
            mag = abs(coef)
            if exp == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = f"{head}x" if exp == 1 else f"{head}x^{exp}"
            if not parts:
                parts.append(body if coef > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coef > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"SparsePolynomial({self})"


def _from_terms(terms: dict[int, int]) -> SparsePolynomial:
    """The one constructor of results: terms maps int exponents >= 0 to
    int coefficients, already checked; its zero coefficients are dropped."""
    out = SparsePolynomial.__new__(SparsePolynomial)
    out._terms = {e: c for e, c in terms.items() if c}
    return out


def _json_dict(terms) -> dict:
    """The one writer of a polynomial's JSON form, from its nonzero
    (exponent, coefficient) terms, highest exponent first."""
    return {"var": "x", "terms": [{"exp": e, "coef": str(c)} for e, c in terms]}
