"""Exact sparse Laurent-polynomial arithmetic in the variables z and t.

There is one polynomial type, `BivarLaurent`.  A polynomial in t alone (a
coefficient of one power of z, such as the h- and p-coefficients of a
link) is a `BivarLaurent` whose terms all have z exponent 0; `coeff_of_z`
and `by_z` return such z-free values, `shift(ez)` puts one back at the
power z**ez, and `to_triples` serializes one without the z exponent.

Coefficients are exact rationals: plain `int` while integral (the common
case, and much faster), `fractions.Fraction` otherwise.  The two mix
transparently and there is no floating point anywhere.  Terms are stored
sparsely and every public view is emitted in a fixed canonical order
(ascending z exponent, then ascending t exponent), so two equal
polynomials always serialize byte-identically.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

__all__ = [
    "BivarLaurent",
    "NotDivisible",
    "PoleAtZero",
    "Z",
    "T",
]

Rational = Fraction | int


class NotDivisible(ArithmeticError):
    """No Laurent-polynomial quotient exists for the requested division."""


class PoleAtZero(ZeroDivisionError):
    """A negative exponent was evaluated at zero."""


def _coerce(value: Rational) -> Rational:
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _ratio(a: Rational, b: Rational) -> Rational:
    """Exact quotient of two rationals (never a float)."""
    return _coerce(Fraction(a) / Fraction(b))


def _wrap(data: dict[tuple[int, int], Rational]) -> "BivarLaurent":
    """A polynomial on a term dict that already holds no zero coefficients."""
    out = BivarLaurent.__new__(BivarLaurent)
    out._terms = data
    return out


def _format_t_terms(terms: dict[tuple[int, int], Rational]) -> str:
    # Human-readable form uses descending powers of t (math convention);
    # the canonical serialization order stays ascending.
    parts: list[str] = []
    for (_, et), c in sorted(terms.items(), reverse=True):
        mag = abs(c)
        base = "" if et == 0 else ("t" if et == 1 else f"t^{et}")
        if base and mag == 1:
            body = base
        elif base:
            body = f"{mag}*{base}"
        else:
            body = str(mag)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts) if parts else "0"


class BivarLaurent:
    """A Laurent polynomial in (z, t) over the rationals, stored sparsely.

    Exponent pairs may be negative in either variable.  Values are immutable
    after construction; all operations return new polynomials.
    """

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[tuple[int, int], Rational] | Iterable[tuple[tuple[int, int], Rational]] = (),
    ):
        data: dict[tuple[int, int], Rational] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (ez, et), c in items:
            c = _coerce(c)
            if not c:
                continue
            key = (int(ez), int(et))
            total = data.get(key, 0) + c
            if total:
                data[key] = total
            else:
                data.pop(key, None)
        self._terms = data

    @classmethod
    def zero(cls) -> "BivarLaurent":
        return _wrap({})

    @classmethod
    def one(cls) -> "BivarLaurent":
        return _wrap({(0, 0): 1})

    @classmethod
    def monomial(cls, ez: int = 0, et: int = 0, coeff: Rational = 1) -> "BivarLaurent":
        return cls({(ez, et): coeff})

    def terms(self) -> Iterator[tuple[tuple[int, int], Rational]]:
        """Terms in canonical order (ascending e_z, then ascending e_t)."""
        for key in sorted(self._terms):
            yield key, self._terms[key]

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        """The number of nonzero terms."""
        return len(self._terms)

    def __add__(self, other: "BivarLaurent | Rational") -> "BivarLaurent":
        if not isinstance(other, BivarLaurent):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = BivarLaurent({(0, 0): other})
        data = dict(self._terms)
        for key, c in other._terms.items():
            total = data.get(key, 0) + c
            if total:
                data[key] = total
            else:
                data.pop(key, None)
        return _wrap(data)

    __radd__ = __add__

    def __neg__(self) -> "BivarLaurent":
        return _wrap({key: -c for key, c in self._terms.items()})

    def __sub__(self, other: "BivarLaurent | Rational") -> "BivarLaurent":
        if isinstance(other, (int, Fraction)):
            other = BivarLaurent({(0, 0): other})
        return self + (-other)

    def __rsub__(self, other: Rational) -> "BivarLaurent":
        return (-self) + other

    def __mul__(self, other: "BivarLaurent | Rational") -> "BivarLaurent":
        if not isinstance(other, BivarLaurent):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            c = _coerce(other)
            if not c:
                return _wrap({})
            return _wrap({key: v * c for key, v in self._terms.items()})
        data: dict[tuple[int, int], Rational] = {}
        for (z1, t1), c1 in self._terms.items():
            for (z2, t2), c2 in other._terms.items():
                key = (z1 + z2, t1 + t2)
                total = data.get(key, 0) + c1 * c2
                if total:
                    data[key] = total
                else:
                    data.pop(key, None)
        return _wrap(data)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BivarLaurent":
        if n < 0:
            if len(self._terms) != 1:
                raise ValueError("only monomials can be raised to a negative power")
            (((ez, et), c),) = self._terms.items()
            return BivarLaurent({(ez * n, et * n): Fraction(c) ** n})
        result = BivarLaurent.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, ez: int, et: int = 0) -> "BivarLaurent":
        """Multiply by the monomial z**ez * t**et."""
        return _wrap({(z + ez, t + et): c for (z, t), c in self._terms.items()})

    def reciprocal_t(self) -> "BivarLaurent":
        """Substitute t -> 1/t."""
        return _wrap({(ez, -et): c for (ez, et), c in self._terms.items()})

    def coeff_of_z(self, k: int) -> "BivarLaurent":
        """The coefficient of z**k, as a z-free polynomial in t (zero if absent)."""
        return _wrap({(0, et): c for (ez, et), c in self._terms.items() if ez == k})

    def by_z(self) -> Iterator[tuple[int, "BivarLaurent"]]:
        """Nonzero z-levels in ascending order with their z-free t-coefficients."""
        levels: dict[int, dict[tuple[int, int], Rational]] = {}
        for (ez, et), c in self._terms.items():
            levels.setdefault(ez, {})[(0, et)] = c
        for ez in sorted(levels):
            yield ez, _wrap(levels[ez])

    def min_z_degree(self) -> int | None:
        """Lowest z exponent over nonzero terms, or None for the zero polynomial."""
        if not self._terms:
            return None
        return min(ez for ez, _ in self._terms)

    def is_even_nonneg_in_z(self) -> bool:
        """True iff every nonzero term has an even, nonnegative z exponent."""
        return all(ez >= 0 and ez % 2 == 0 for ez, _ in self._terms)

    def divide_exact(self, divisor: "BivarLaurent") -> "BivarLaurent":
        """Exact division: return q with q * divisor == self.

        Raises NotDivisible when no Laurent-polynomial quotient exists, and
        ZeroDivisionError for a zero divisor.
        """
        if not isinstance(divisor, BivarLaurent):
            divisor = BivarLaurent({(0, 0): divisor})
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return _wrap({})
        # Strip monomial units so both operands become honest polynomials
        # in Q[z, t]; divisibility is unchanged and the quotient of honest
        # polynomials is honest (lowest-degree slices multiply).
        a_z = min(ez for ez, _ in self._terms)
        a_t = min(et for _, et in self._terms)
        d_z = min(ez for ez, _ in divisor._terms)
        d_t = min(et for _, et in divisor._terms)
        rem = {(ez - a_z, et - a_t): c for (ez, et), c in self._terms.items()}
        den = {(ez - d_z, et - d_t): c for (ez, et), c in divisor._terms.items()}
        lead = max(den)
        lead_c = den.pop(lead)
        quot: dict[tuple[int, int], Rational] = {}
        # Leading terms come off a heap of negated keys: a step writes only
        # keys below the one it cancels (lexicographic on (e_z, e_t), a
        # well-order on N^2), so a key is pushed as it enters the remainder
        # and skipped if it has left it.
        heap = [(-ez, -et) for ez, et in rem]
        heapq.heapify(heap)
        while heap:
            nz, nt = heapq.heappop(heap)
            top = (-nz, -nt)
            c_top = rem.pop(top, 0)
            if not c_top:
                continue
            qz, qt = top[0] - lead[0], top[1] - lead[1]
            if qz < 0 or qt < 0:
                raise NotDivisible(f"{self} is not divisible by {divisor}")
            qc = _ratio(c_top, lead_c)
            quot[(qz, qt)] = qc
            for (ez, et), c in den.items():
                key = (ez + qz, et + qt)
                old = rem.get(key)
                total = (old or 0) - qc * c
                if total:
                    rem[key] = total
                    if old is None:
                        heapq.heappush(heap, (-key[0], -key[1]))
                elif old is not None:
                    del rem[key]
        return _wrap(quot).shift(a_z - d_z, a_t - d_t)

    def evaluate(self, z0: Rational, t0: Rational) -> Fraction:
        """Exact value of the substitution z -> z0, t -> t0."""
        z0 = Fraction(_coerce(z0))
        t0 = Fraction(_coerce(t0))
        total = Fraction(0)
        for (ez, et), c in self._terms.items():
            if z0 == 0 and ez < 0:
                raise PoleAtZero("negative power of z evaluated at z = 0")
            if t0 == 0 and et < 0:
                raise PoleAtZero("negative power of t evaluated at t = 0")
            total += c * z0**ez * t0**et
        return total

    def to_quadruples(self) -> list[list[int]]:
        """Canonical serialization: [e_z, e_t, numerator, denominator] per term."""
        return [[ez, et, c.numerator, c.denominator] for (ez, et), c in self.terms()]

    def to_triples(self) -> list[list[int]]:
        """Canonical serialization of a z-free polynomial: [e_t, numerator,
        denominator] per term.  Raises ValueError if any term has a power of z."""
        if any(ez for ez, _ in self._terms):
            raise ValueError(f"{self} is not a polynomial in t alone")
        return [[et, c.numerator, c.denominator] for (_, et), c in self.terms()]

    @classmethod
    def from_quadruples(cls, quadruples: Iterable[Iterable[int]]) -> "BivarLaurent":
        return cls(
            {(int(ez), int(et)): Fraction(int(num), int(den)) for ez, et, num, den in quadruples}
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = BivarLaurent({(0, 0): other})
        if not isinstance(other, BivarLaurent):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(self.terms()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for ez, ct in self.by_z():
            t_str = _format_t_terms(ct._terms)
            if ez == 0:
                parts.append(t_str)
            else:
                z_str = "z" if ez == 1 else f"z^{ez}"
                parts.append(f"({t_str})*{z_str}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"BivarLaurent({self})"


Z = BivarLaurent.monomial(1, 0)
T = BivarLaurent.monomial(0, 1)
