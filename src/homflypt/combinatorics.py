"""Partitions, ordered set decompositions, surjection counts, and the
exact counting identities the decomposition sums rely on.

All arithmetic is exact (big integers and `fractions.Fraction`).  Iterator
orders are fixed: integer partitions come out in reverse-lexicographic
order starting from (m,), ordered decompositions follow the lexicographic
order of their block-assignment functions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .report import VerificationReport

__all__ = [
    "InvalidRange",
    "partitions",
    "multiplicities",
    "aut_order",
    "set_partitions",
    "ordered_decompositions",
    "surjection_count",
    "surjection_count_enumerated",
    "surjection_count_partition_form",
    "verify_lemma",
    "verify_partition_identity",
    "LEMMA_RANGES",
]

# lemma id -> (parameter name, least parameter)
LEMMA_RANGES = {"5.1": ("m", 2), "5.2": ("m", 3), "5.3": ("m", 1), "5.4": ("n", 1)}


class InvalidRange(ValueError):
    """Parameter outside the valid range of the requested enumeration."""


def partitions(m: int) -> Iterator[tuple[int, ...]]:
    """All partitions of m as weakly decreasing tuples, largest part first.

    >>> list(partitions(3))
    [(3,), (2, 1), (1, 1, 1)]
    """
    if m < 1:
        raise InvalidRange("partitions are defined for m >= 1")

    def rec(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest

    yield from rec(m, m)


def multiplicities(parts: Sequence[int]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for part in parts:
        counts[part] = counts.get(part, 0) + 1
    return counts


def aut_order(parts: Sequence[int]) -> int:
    """Order of the part-permuting automorphism group: product of m_i!."""
    out = 1
    for count in multiplicities(parts).values():
        out *= math.factorial(count)
    return out


def set_partitions(items: Iterable[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Unordered partitions of `items` into nonempty blocks.

    Blocks are ordered by first (= smallest) element, elements within a
    block in input order, so the enumeration is deterministic.
    """
    pool = list(items)

    def rec(i: int, blocks: list[list[int]]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i == len(pool):
            yield tuple(tuple(b) for b in blocks)
            return
        x = pool[i]
        for block in blocks:
            block.append(x)
            yield from rec(i + 1, blocks)
            block.pop()
        blocks.append([x])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def ordered_decompositions(m: int, n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Ordered decompositions of {1..m} into n disjoint nonempty blocks.

    Enumerated by the surjective assignment functions {1..m} -> {1..n} in
    lexicographic order (non-surjective branches are pruned, never built).
    """
    if m < 1 or n < 1 or n > m:
        raise InvalidRange(f"need 1 <= n <= m, got m={m}, n={n}")
    assign = [0] * m

    def rec(i: int, mask: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        missing = n - bin(mask).count("1")
        if missing > m - i:
            return
        if i == m:
            blocks: list[list[int]] = [[] for _ in range(n)]
            for pos, b in enumerate(assign):
                blocks[b].append(pos + 1)
            yield tuple(tuple(b) for b in blocks)
            return
        for b in range(n):
            assign[i] = b
            yield from rec(i + 1, mask | (1 << b))

    yield from rec(0, 0)


@lru_cache(maxsize=None)
def _stirling2(m: int, n: int) -> int:
    if n == 0:
        return 1 if m == 0 else 0
    if m == 0 or n > m:
        return 0
    return n * _stirling2(m - 1, n) + _stirling2(m - 1, n - 1)


def surjection_count(m: int, n: int) -> int:
    """Number of ordered decompositions of {1..m} into n blocks: n! * S2(m, n)."""
    if m < 1 or n < 1:
        raise InvalidRange(f"need m, n >= 1, got m={m}, n={n}")
    if n > m:
        return 0
    return math.factorial(n) * _stirling2(m, n)


def surjection_count_partition_form(m: int, n: int) -> int:
    """The same count through partitions: sum over shapes of
    multinomial(m; parts) * n! / |Aut(parts)|."""
    if m < 1 or n < 1:
        raise InvalidRange(f"need m, n >= 1, got m={m}, n={n}")
    if n > m:
        return 0
    total = 0
    for parts in partitions(m):
        if len(parts) != n:
            continue
        multinomial = math.factorial(m)
        for part in parts:
            multinomial //= math.factorial(part)
        total += multinomial * math.factorial(n) // aut_order(parts)
    return total


def surjection_count_enumerated(m: int, n: int) -> int:
    """The same count by explicit structure enumeration: every unordered
    partition of {1..m} into n blocks is materialized and contributes one
    decomposition per ordering of its (pairwise distinct) blocks."""
    if m < 1 or n < 1:
        raise InvalidRange(f"need m, n >= 1, got m={m}, n={n}")
    if n > m:
        return 0
    return _decomposition_counts_enumerated(m).get(n, 0)


@lru_cache(maxsize=16)
def _decomposition_counts_enumerated(m: int) -> Mapping[int, int]:
    """Ordered-decomposition counts for every block count n, via one
    explicit sweep over the unordered partitions of {1..m}.  Cached, so
    lemmas 5.1-5.3 share one sweep per m (the CLI never passes m > 11);
    the result is read-only because every caller shares it."""
    counts: dict[int, int] = {}
    for blocks in set_partitions(range(1, m + 1)):
        n = len(blocks)
        counts[n] = counts.get(n, 0) + math.factorial(n)
    return MappingProxyType(counts)


def _subsets_enumerated(n: int, k: int) -> int:
    """C(n, k) by walking the k-subsets of {0..n-1}."""
    return sum(1 for _ in itertools.combinations(range(n), k))


def _lemma_lhs(lemma_id: str, p: int, count) -> Fraction | int:
    """The left side of a lemma at parameter p, from a count: D(m, n) for
    5.1-5.3, C(n, k) for 5.4.  5.1 sums Fractions, the others integers."""
    if lemma_id == "5.1":
        return sum((Fraction((-1) ** n, n) * count(p, n) for n in range(2, p + 1)), Fraction(0))
    if lemma_id == "5.2":
        return sum((-1) ** n * (count(p - 1, n - 1) + count(p - 1, n)) for n in range(2, p + 1))
    if lemma_id == "5.3":
        return sum((-1) ** n * count(p, n) for n in range(1, p + 1))
    return sum((-1) ** k * (k + 1) * count(p, k) for k in range(p))


def verify_lemma(lemma_id: str | float, parameter: int) -> VerificationReport:
    """Check one counting lemma at one parameter value, two ways.

    The left side is evaluated both from explicitly enumerated structures
    and from the closed-form counts (surjection counts, binomials); both
    values and the right side are reported exactly.  Lemma ids:

    * ``"5.1"`` (m >= 2):  sum_{n=2..m} (-1)^n / n * D(m, n) == 1
    * ``"5.2"`` (m >= 3):  sum_{n=2..m} (-1)^n * (D(m-1, n-1) + D(m-1, n)) == 1
    * ``"5.3"`` (m >= 1):  sum_{n=1..m} (-1)^n * D(m, n) == (-1)^m
    * ``"5.4"`` (n >= 1):  sum_{k=0..n-1} (-1)^k (k+1) C(n, k) == (-1)^(n+1) (n+1)

    where D(m, n) counts ordered decompositions of {1..m} into n blocks.
    The stated range of 5.4 includes n = 1, where the identity is in fact
    false (left 1, right 2); the verifier reports that honestly.
    """
    lid = f"{lemma_id}"
    if lid not in LEMMA_RANGES:
        raise InvalidRange(f"unknown lemma id {lemma_id!r}")
    p = int(parameter)
    name, least = LEMMA_RANGES[lid]
    if p < least:
        raise InvalidRange(f"lemma {lid} needs {name} >= {least}")
    if lid == "5.4":
        enumerated, closed = _subsets_enumerated, math.comb
    else:
        enumerated, closed = surjection_count_enumerated, surjection_count
    lhs_enum, lhs_closed = _lemma_lhs(lid, p, enumerated), _lemma_lhs(lid, p, closed)
    rhs = {"5.1": Fraction(1), "5.2": 1, "5.3": (-1) ** p, "5.4": (-1) ** (p + 1) * (p + 1)}[lid]
    context = {name: p, "lhs_enumerated": lhs_enum, "lhs_closed_form": lhs_closed}
    return VerificationReport.of(
        f"lemma{lid}({name}={p})", lhs_closed, rhs, context, also=lhs_enum == lhs_closed
    )


def verify_partition_identity(m: int) -> VerificationReport:
    """Check lemma 5.1 with D(m, n) counted over the partitions of m: for
    m >= 2, summing (-1)^len / len * len! * m! / (prod of part factorials *
    |Aut|) over partitions of m with at least two parts gives exactly 1."""
    least = LEMMA_RANGES["5.1"][1]
    if m < least:
        raise InvalidRange(f"the partition identity needs m >= {least}")
    lhs = _lemma_lhs("5.1", m, surjection_count_partition_form)
    return VerificationReport.of(f"partition-identity(m={m})", lhs, Fraction(1), {"m": m})
