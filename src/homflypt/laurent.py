"""Exact sparse Laurent-polynomial arithmetic in the variables z and t.

There is one polynomial type, `BivarLaurent`, and it is the ring
Z[z^+-1, t^+-1]: every value the package computes (R, h, p, F and the
Hecke trace) is an integer Laurent polynomial, and no step divides.  A
polynomial in t alone (a coefficient of one power of z, such as the h- and
p-coefficients of a link) is a `BivarLaurent` whose terms all have z
exponent 0; `coeff_of_z` and `by_z` return such z-free values, `shift(ez)`
puts one back at the power z**ez, and `to_triples` serializes one without
the z exponent.

Coefficients and scalars are plain `int`s; anything else raises TypeError,
so there is no floating point anywhere.  Only `evaluate` leaves the ring:
its value at a rational point is a `fractions.Fraction`.  Terms are stored
sparsely and every public view is emitted in a fixed canonical order
(ascending z exponent, then ascending t exponent), so two equal
polynomials always serialize byte-identically.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping

__all__ = [
    "BivarLaurent",
    "PoleAtZero",
    "Z",
    "T",
]


class PoleAtZero(ZeroDivisionError):
    """A negative exponent was evaluated at zero."""


def _wrap(data: dict[tuple[int, int], int]) -> "BivarLaurent":
    """A polynomial on a term dict that already holds no zero coefficients."""
    out = BivarLaurent.__new__(BivarLaurent)
    out._terms = data
    return out


def _format_t_terms(terms: dict[tuple[int, int], int]) -> str:
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
    """A Laurent polynomial in (z, t) over the integers, stored sparsely.

    Exponent pairs may be negative in either variable.  Values are immutable
    after construction; all operations return new polynomials.
    """

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[tuple[int, int], int] | Iterable[tuple[tuple[int, int], int]] = (),
    ):
        data: dict[tuple[int, int], int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (ez, et), c in items:
            if not isinstance(c, int):
                raise TypeError(f"expected an integer coefficient, got {type(c).__name__}")
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
    def monomial(cls, ez: int = 0, et: int = 0, coeff: int = 1) -> "BivarLaurent":
        return cls({(ez, et): coeff})

    def terms(self) -> Iterator[tuple[tuple[int, int], int]]:
        """Terms in canonical order (ascending e_z, then ascending e_t)."""
        return iter(sorted(self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        """The number of nonzero terms."""
        return len(self._terms)

    def __add__(self, other: "BivarLaurent | int") -> "BivarLaurent":
        if not isinstance(other, BivarLaurent):
            if not isinstance(other, int):
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

    def __sub__(self, other: "BivarLaurent | int") -> "BivarLaurent":
        if isinstance(other, int):
            other = BivarLaurent({(0, 0): other})
        elif not isinstance(other, BivarLaurent):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> "BivarLaurent":
        if not isinstance(other, int):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other: "BivarLaurent | int") -> "BivarLaurent":
        if not isinstance(other, BivarLaurent):
            if not isinstance(other, int):
                return NotImplemented
            if not other:
                return _wrap({})
            return _wrap({key: c * other for key, c in self._terms.items()})
        data: dict[tuple[int, int], int] = {}
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
            if len(self._terms) != 1 or abs(next(iter(self._terms.values()))) != 1:
                raise ValueError("only unit monomials can be raised to a negative power")
            (((ez, et), c),) = self._terms.items()
            return _wrap({(ez * n, et * n): c ** -n})  # c = 1/c for a unit
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
        levels: dict[int, dict[tuple[int, int], int]] = {}
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

    def evaluate(self, z0: int | Fraction, t0: int | Fraction) -> Fraction:
        """Exact value of the substitution z -> z0, t -> t0 at a rational
        point, which may leave the ring."""
        for value in (z0, t0):
            if not isinstance(value, (int, Fraction)):
                raise TypeError(f"expected an exact rational, got {type(value).__name__}")
        z0, t0 = Fraction(z0), Fraction(t0)
        total = Fraction(0)
        for (ez, et), c in self._terms.items():
            if z0 == 0 and ez < 0:
                raise PoleAtZero("negative power of z evaluated at z = 0")
            if t0 == 0 and et < 0:
                raise PoleAtZero("negative power of t evaluated at t = 0")
            total += c * z0**ez * t0**et
        return total

    def to_quadruples(self) -> list[list[int]]:
        """Canonical serialization: [e_z, e_t, coefficient, 1] per term; the
        denominator, always 1, keeps the format of rational coefficients."""
        return [[ez, et, c, 1] for (ez, et), c in sorted(self._terms.items())]

    def to_triples(self) -> list[list[int]]:
        """Canonical serialization of a z-free polynomial: [e_t, coefficient,
        1] per term.  Raises ValueError if any term has a power of z."""
        terms = sorted(self._terms.items())
        if terms and (terms[0][0][0] or terms[-1][0][0]):  # the least or the most z exponent
            raise ValueError(f"{self} is not a polynomial in t alone")
        return [[et, c, 1] for (_, et), c in terms]

    @classmethod
    def from_quadruples(cls, quadruples: Iterable[Iterable[int]]) -> "BivarLaurent":
        """The inverse of `to_quadruples`; raises ValueError on a denominator
        other than 1."""
        terms = {}
        for ez, et, num, den in quadruples:
            if int(den) != 1:
                raise ValueError(f"coefficient {num}/{den} is not an integer")
            terms[(int(ez), int(et))] = int(num)
        return cls(terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
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
