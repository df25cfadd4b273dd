"""Character polynomials, apart from the engine.

A character polynomial is a rational polynomial in the simultaneous class
functions X_k^{(j)} counting k-cycles in the j-th factor; it evaluates on the
conjugacy classes of every level at once, to a ``fim.ClassFunction``.  Only
``fim`` and ``record`` are imported, so a config's twisted polynomial is
parsed without engine code; a job that neither fits nor twists never loads
this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .fim import ClassFunction, ConjClass, MultiIndex, conj_classes
from .record import record

_ZERO = Fraction(0)
_ONE = Fraction(1)

# A monomial maps (factor j, cycle length k) -> exponent; canonical form is a
# tuple of ((j, k), e) sorted by (j, k) with positive e.  Factors are 0-based.
Monomial = tuple[tuple[tuple[int, int], int], ...]


@record
class CharacterPolynomial:
    """Rational polynomial in the X_k^{(j)}, canonically ordered."""

    m: int
    coeffs: tuple[tuple[Monomial, Fraction], ...]

    @staticmethod
    def _key(mono: Monomial) -> tuple:
        total = sum(k * e for (_, k), e in mono)
        return (total, mono)

    @classmethod
    def from_dict(cls, m: int, data: Mapping[Monomial, Fraction]) -> "CharacterPolynomial":
        cleaned = {mono: v for mono, v in data.items() if v != 0}
        ordered = tuple(sorted(cleaned.items(), key=lambda kv: cls._key(kv[0])))
        return cls(m, ordered)

    @classmethod
    def constant(cls, value, m: int = 1) -> "CharacterPolynomial":
        return cls.from_dict(m, {(): Fraction(value)})

    @classmethod
    def variable(cls, k: int, j: int = 1, m: int = 1) -> "CharacterPolynomial":
        """X_k^{(j)} with 1-based factor index j."""
        if not (1 <= j <= m):
            raise ValueError("factor index out of range")
        if k < 1:
            raise ValueError("cycle length must be positive")
        return cls.from_dict(m, {(((j - 1, k), 1),): _ONE})

    def _as_dict(self) -> dict[Monomial, Fraction]:
        return dict(self.coeffs)

    def __add__(self, other) -> "CharacterPolynomial":
        other = self._coerce(other)
        data = self._as_dict()
        for mono, v in other.coeffs:
            data[mono] = data.get(mono, _ZERO) + v
        return CharacterPolynomial.from_dict(self.m, data)

    def __sub__(self, other) -> "CharacterPolynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "CharacterPolynomial":
        return self._coerce(other) + (-self)

    __radd__ = __add__

    def __neg__(self) -> "CharacterPolynomial":
        return CharacterPolynomial.from_dict(
            self.m, {mono: -v for mono, v in self.coeffs}
        )

    def __mul__(self, other) -> "CharacterPolynomial":
        if isinstance(other, (int, Fraction)):
            return CharacterPolynomial.from_dict(
                self.m, {mono: v * Fraction(other) for mono, v in self.coeffs}
            )
        other = self._coerce(other)
        data: dict[Monomial, Fraction] = {}
        for ma, va in self.coeffs:
            for mb, vb in other.coeffs:
                exps: dict[tuple[int, int], int] = dict(ma)
                for key, e in mb:
                    exps[key] = exps.get(key, 0) + e
                mono = tuple(sorted(exps.items()))
                data[mono] = data.get(mono, _ZERO) + va * vb
        return CharacterPolynomial.from_dict(self.m, data)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "CharacterPolynomial":
        return CharacterPolynomial.from_dict(
            self.m, {mono: v / Fraction(scalar) for mono, v in self.coeffs}
        )

    def _coerce(self, other) -> "CharacterPolynomial":
        if isinstance(other, CharacterPolynomial):
            if other.m != self.m:
                raise ValueError("factor counts differ")
            return other
        if isinstance(other, (int, Fraction)):
            return CharacterPolynomial.constant(other, self.m)
        raise TypeError(f"cannot combine with {other!r}")

    def multidegree(self) -> MultiIndex:
        """Componentwise max over monomials of the weighted exponent sums."""
        degs = [0] * self.m
        for mono, _ in self.coeffs:
            current = [0] * self.m
            for (j, k), e in mono:
                current[j] += k * e
            degs = [max(a, b) for a, b in zip(degs, current)]
        return MultiIndex(degs)

    def evaluate(self, c: ConjClass) -> Fraction:
        return sum((coeff * _monomial_value(mono, c) for mono, coeff in self.coeffs), _ZERO)

    def as_class_function(self, level: MultiIndex) -> ClassFunction:
        if level.m != self.m:
            raise ValueError("level has wrong number of factors")
        return ClassFunction(level, {c: self.evaluate(c) for c in conj_classes(level)})

    def render(self) -> str:
        return _render_terms(self.coeffs, _power_factor)

    @classmethod
    def parse(cls, text: str, m: int = 1) -> "CharacterPolynomial":
        """The polynomial written as ``render`` writes it (a factor ^0 is 1);
        any other text raises ``ValueError``."""
        import re

        poly = cls.from_dict(m, {})
        stripped = text.replace(" ", "")
        if not stripped or stripped == "0":
            return poly
        if not re.fullmatch(r"[+-]?[^+-]+(?:[+-][^+-]+)*", stripped):
            raise ValueError(f"malformed polynomial {text!r}")
        for sign, term in re.findall(r"([+-]?)([^+-]+)", stripped):
            coeff = Fraction(-1 if sign == "-" else 1)
            mono: dict[tuple[int, int], int] = {}
            for factor in term.split("*"):
                match = re.fullmatch(r"X(\d+)\^\((\d+)\)(?:\^(\d+))?", factor)
                if match:
                    k, j, e = int(match[1]), int(match[2]), int(match[3] or 1)
                    if not (1 <= j <= m):
                        raise ValueError(f"factor index {j} out of range")
                    if k < 1:
                        raise ValueError("cycle length must be positive")
                    if e:
                        mono[(j - 1, k)] = mono.get((j - 1, k), 0) + e
                else:
                    try:
                        coeff *= Fraction(factor)
                    except ZeroDivisionError:
                        raise ValueError(f"zero denominator in {factor!r}") from None
            key = tuple(sorted(mono.items()))
            poly = poly + cls.from_dict(m, {key: coeff})
        return poly

    def __repr__(self):
        return f"CharacterPolynomial({self.render()!r})"


def _monomial_value(mono: Monomial, c: ConjClass) -> int:
    """The monomial at class c: the product of multiplicity(j, k)^e."""
    return math.prod(c.multiplicity(j, k) ** e for (j, k), e in mono)


def _power_factor(j: int, k: int, e: int) -> str:
    return f"X{k}^({j + 1})" + (f"^{e}" if e > 1 else "")


def _binomial_factor(j: int, k: int, b: int) -> str:
    return f"binom(X{k}^({j + 1}),{b})" if b > 1 else f"X{k}^({j + 1})"


def _render_terms(
    terms: Sequence[tuple[Monomial, Fraction]], factor: Callable[[int, int, int], str]
) -> str:
    """The signed sum of the terms in order, each factor rendered by ``factor(j, k, e)``."""
    out = ""
    for mono, coeff in terms:
        body = "*".join(factor(j, k, e) for (j, k), e in mono)
        mag = abs(coeff)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if out:
            out += " - " if coeff < 0 else " + "
        elif coeff < 0:
            out = "-"
        out += text
    return out or "0"
