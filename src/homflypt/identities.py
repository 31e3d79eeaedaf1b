"""The decomposition-sum invariant F and exact coefficient-identity checks.

For a link with components indexed by {1..L}, write H(S) for the unframed
invariant of the sublink on a component subset S (so H = z**(-|S|) times
the framed invariant).  The intermediate invariant is

    F = sum over l = 1..L of (-1)**(l-1) / l *
        sum over ordered decompositions of {1..L} into l nonempty disjoint
        blocks I_1..I_l of the product H(I_1) * ... * H(I_l).

F vanishes on split unions of knots and its low z-coefficients vanish in
general, which forces a family of exact identities on the coefficient
polynomials h and p of the link and its sublinks.  Each identity here is
checked by exact polynomial equality; there is no tolerance anywhere.

Identity ids (also the CLI vocabulary):

* ``prop31``  - the z-coefficients of F at z**(2g-L) vanish for g = 0..L-2;
* ``thm13``   - h[g] of the link equals the alternating decomposition sum of
                sublink h-coefficients, for each g = 0..L-2;
* ``thm14``   - the g = 0 coefficient factorizes over the components, in
                both the h-form and the p-form (with the linking-number
                twist t**(-2 lk));
* ``thm15``   - the g = 1 coefficient equals a pair sum over two-component
                sublinks minus (L-2) times a single-component correction,
                in both forms;
* ``skeinF``  - F(L+) - F(L-) = z * F(L0) at an inter-component crossing;
* ``splitF``  - F of a split union of two or more knots is zero.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .combinatorics import set_partitions
from .laurent import BivarLaurent
from .links import Link
from .report import VerificationReport
from .skein import _T_FACTOR, MEMO_CAP, CoeffTable, SkeinEngine, coeff_table

__all__ = [
    "FValue",
    "NotInterComponent",
    "GOutOfRange",
    "intermediate_F",
    "f_coefficients",
    "verify_prop31",
    "verify_thm13",
    "verify_thm13_all",
    "verify_thm14",
    "verify_thm15",
    "verify_skein_F",
    "verify_split_F",
]


class NotInterComponent(ValueError):
    """The chosen crossing is not between two distinct components."""


class GOutOfRange(ValueError):
    """Coefficient index g outside the identity's admissible range."""


@dataclass(frozen=True)
class FValue:
    """F of a link with `components` components.

    The polynomial is z**(-components) times an element of Z[z**2, t^{+-1}]:
    the recursion of `intermediate_F` multiplies and subtracts integer
    values only.  The constructor enforces the z-shape.
    """

    components: int
    poly: BivarLaurent

    def __post_init__(self):
        for (ez, _), _c in self.poly.terms():
            if ez < -self.components or (ez + self.components) % 2:
                raise ValueError(
                    f"F of an {self.components}-component link cannot have a z^{ez} term"
                )

    def coeff_at_g(self, g: int) -> BivarLaurent:
        """The z**(2g - L) coefficient, as a z-free polynomial in t."""
        return self.poly.coeff_of_z(2 * g - self.components)


def intermediate_F(diagram: Link, engine: SkeinEngine | None = None) -> FValue:
    """Compute F as the joint cumulant of the sublink invariants H.

    The partition sum of the module docstring is the moment-cumulant
    inversion of H, so F obeys the subset recursion

        F(S) = H(S) - sum over T containing min S, T != S, of F(T) * H(S - T).

    Only the subsets S containing component 0 need F, and each of them
    only the smaller ones: at most 3^(L-1) - 2^(L-1) products, no
    partition sum.

    HOMFLY-PT is multiplicative on split unions, so F(S) = 0 whenever S
    is disconnected in the crossing graph, where two components are
    adjacent when any crossing joins them, whatever its sign (a linking
    number of zero says nothing: the Borromean rings are not split).  So
    F of a disconnected link is zero before any sublink is built, and the
    recursion sums only over the parts T for which {0} and T are
    connected, grown from component 0 along the adjacency; every other
    part is never visited, nor its H(S - T).  Only the connected subsets
    cost engine work: on the Hopf chain ``strands=L; 1 1 2 2 ...``, L of
    them contain component 0, against 2^(L-1) subsets.

    F(S) is intrinsic to the sublink on S, so it is memoized in the
    engine's `f_memo` on the sublink's canonical key.  Links that share
    sublinks, such as the two sides and the smoothing of a skeinF check,
    share those values of F and of H.  F of the whole link, zero when it
    is split, is read off the memo before any walk.

    The walk is charged to the engine's node budget as it goes: one node
    per part enumerated (on a complete crossing graph, 2^(L-1) of them
    for the whole link) and, in `_subset_F`, one per sublink built.
    """
    L = diagram.num_components
    eng = engine if engine is not None else SkeinEngine()
    if L:
        cached = eng.f_memo.get(diagram.canonical_key())
        if cached is not None:
            return FValue(L, cached)
    adjacent: list[set[int]] = [set() for _ in range(L)]
    for a, b, _sign in diagram._linking():
        adjacent[a].add(b)
        adjacent[b].add(a)

    @functools.cache
    def parts(members: tuple[int, ...]) -> list[tuple[int, ...]]:
        """Every T among `members` with {0} and T connected, each once, by
        size and then in order: grown from component 0 one neighbour at a
        time, each neighbour of the frontier either added or left out for
        good."""
        allowed = set(members)
        found: list[tuple[int, ...]] = []
        work = [((), [v for v in adjacent[0] if v in allowed], frozenset())]
        while work:
            chosen, frontier, out = work.pop()
            eng.charge(1)
            found.append(tuple(sorted(chosen)))
            for i, v in enumerate(frontier):
                out = out | {v}  # v is added here and left out after
                rest = frontier[i + 1:]
                new = [u for u in adjacent[v] if u in allowed and u not in out and u not in rest]
                work.append((chosen + (v,), rest + new, out))
        return sorted(found, key=lambda part: (len(part), part))

    whole = tuple(range(1, L))
    if L and parts(whole)[-1] != whole:  # the link is split
        if len(eng.f_memo) < MEMO_CAP:
            eng.f_memo[diagram.canonical_key()] = BivarLaurent.zero()
        return FValue(L, BivarLaurent.zero())
    return _subset_F(diagram, eng, lambda others: parts(others)[:-1])


def _subset_F(
    diagram: Link,
    engine: SkeinEngine,
    parts: Callable[[tuple[int, ...]], Iterable[tuple[int, ...]]],
) -> FValue:
    """F by the subset recursion of `intermediate_F`, in which F(S) of
    S = {0} + `others` is H(S) less F(T) * H(S - T) over the parts T in
    `parts(others)`, the proper parts of `others` on which F may not be zero.

    H = (t - t^-1) * h with h(S) = z**(-|S|) * R(S), the engine's value, so
    F(S) = (t - t^-1) * (h(S) - sum of F(T) * h(S - T)): one multiplication
    by t - t^-1 per F, and none per H.  Each sublink built is charged one
    node of the engine's budget; the whole link is no sublink."""
    L = diagram.num_components
    if L < 1:
        raise ValueError("F needs at least one component")

    def build(subset: tuple[int, ...]) -> Link:
        if len(subset) == L:
            return diagram
        engine.charge(1)
        return diagram.sublink(subset)

    @functools.cache
    def h(subset: tuple[int, ...]) -> BivarLaurent:
        return engine.reduced_invariant(build(subset)).shift(-len(subset))

    @functools.cache
    def F(others: tuple[int, ...]) -> BivarLaurent:
        """F of the sublink on component 0 and `others`."""
        sublink = build((0,) + others)
        key = sublink.canonical_key()
        value = engine.f_memo.get(key)
        if value is None:
            value = engine.reduced_invariant(sublink).shift(-1 - len(others))
            for part in parts(others):
                f_part = F(part)
                if f_part:
                    value = value - f_part * h(tuple(i for i in others if i not in part))
            value = value * _T_FACTOR
            if len(engine.f_memo) < MEMO_CAP:
                engine.f_memo[key] = value
        return value

    try:
        return FValue(L, F(tuple(range(1, L))))
    finally:
        # F refers to itself through its closure: a cycle that would keep
        # the engine and every cached value alive until the next cyclic
        # garbage collection, not just until return
        del F


def _F_partition_sum(
    diagram: Link,
    engine: SkeinEngine | None = None,
) -> FValue:
    """F summed over component-set partitions: the independent oracle for
    `intermediate_F`, called by the tests only.

    Ordered decompositions with the same underlying blocks contribute the
    same product, so each unordered partition into l blocks is counted once
    with the integer weight (-1)**(l-1) * (l-1)!.
    """
    if diagram.num_components < 1:
        raise ValueError("F needs at least one component")
    eng = engine if engine is not None else SkeinEngine()
    total = BivarLaurent.zero()
    for blocks in set_partitions(range(diagram.num_components)):
        weight = (-1) ** (len(blocks) - 1) * math.factorial(len(blocks) - 1)
        product = BivarLaurent.one()
        for block in blocks:
            product = product * eng.framed_invariant(diagram.sublink(block)).shift(-len(block))
        total = total + product * weight
    return FValue(diagram.num_components, total)


def f_coefficients(
    diagram: Link,
    engine: SkeinEngine | None = None,
) -> dict[int, BivarLaurent]:
    """Nonzero coefficients of F by genus index: g -> z**(2g-L) coefficient.

    Absent keys are zero; for a knot this is exactly the h-table.
    """
    value = intermediate_F(diagram, engine=engine)
    out: dict[int, BivarLaurent] = {}
    for ez, coeff in value.poly.by_z():
        out[(ez + value.components) // 2] = coeff
    return out


def _context(diagram: Link, label: str | None, **extra) -> dict:
    ctx = {
        "label": label or f"{diagram.num_components}-component diagram "
        f"with {diagram.num_crossings} crossings",
        "components": diagram.num_components,
        "writhe": diagram.writhe(),
        "total_linking": diagram.total_linking(),
    }
    ctx.update(extra)
    return ctx


def verify_prop31(
    diagram: Link,
    engine: SkeinEngine | None = None,
    label: str | None = None,
) -> VerificationReport:
    """Vanishing of F below z**(L-2): coefficients at g = 0..L-2 are zero."""
    L = diagram.num_components
    if L < 2:
        raise ValueError("the vanishing check needs at least 2 components")
    value = intermediate_F(diagram, engine=engine)
    low = [value.coeff_at_g(g) for g in range(L - 1)]
    lhs = BivarLaurent.zero()
    for g, coeff in enumerate(low):
        lhs = lhs + coeff.shift(2 * g - L)
    min_deg = value.poly.min_z_degree()
    context = _context(
        diagram,
        label,
        vanishing_range=f"g=0..{L - 2}",
        min_z_degree=min_deg if min_deg is not None else "none (F = 0)",
    )
    return VerificationReport.of("prop31", lhs, BivarLaurent.zero(), context)


def verify_thm13(
    diagram: Link,
    g: int,
    engine: SkeinEngine | None = None,
    label: str | None = None,
) -> VerificationReport:
    """h[g] of the link against the decomposition sum, for 0 <= g <= L-2.

    The decomposition sum is h[g] minus the z**(2g-L) coefficient of F, so
    the residual is that coefficient, which prop31 says vanishes.
    """
    L = diagram.num_components
    if L < 2:
        raise ValueError("the decomposition identity needs at least 2 components")
    if not 0 <= g <= L - 2:
        raise GOutOfRange(f"g must lie in 0..{L - 2}, got {g}")
    return verify_thm13_all(diagram, engine=engine, label=label)[g]


def verify_thm13_all(
    diagram: Link,
    engine: SkeinEngine | None = None,
    label: str | None = None,
) -> list[VerificationReport]:
    """`verify_thm13` at every g = 0..L-2, computing F and the table once."""
    L = diagram.num_components
    if L < 2:
        raise ValueError("the decomposition identity needs at least 2 components")
    eng = engine if engine is not None else SkeinEngine()
    value = intermediate_F(diagram, engine=eng)
    table = coeff_table(diagram, engine=eng)
    reports = []
    for g in range(L - 1):
        lhs = table.h_at(g)
        rhs = lhs - value.coeff_at_g(g)
        reports.append(VerificationReport.of("thm13", lhs, rhs, _context(diagram, label, g=g)))
    return reports


def _two_form_report(
    identity: str, diagram: Link, label: str | None, g: int, h_lhs, h_rhs, p_lhs, p_rhs
) -> VerificationReport:
    """Report on the h-form sides; the p-form sides travel in the context,
    and both forms must hold for a pass."""
    p_residual = p_lhs - p_rhs
    context = _context(
        diagram,
        label,
        g=g,
        h_form_pass=h_lhs == h_rhs,
        p_form_pass=not p_residual,
        p_lhs=p_lhs,
        p_rhs=p_rhs,
        p_residual=p_residual,
    )
    return VerificationReport.of(identity, h_lhs, h_rhs, context, also=not p_residual)


def verify_thm14(
    diagram: Link,
    engine: SkeinEngine | None = None,
    label: str | None = None,
) -> VerificationReport:
    """Factorization of the g = 0 coefficient over the components.

    h-form: h[0] of the link equals the product of the components' h[0].
    p-form: p[0] equals t**(-2 lk) (t - t^-1)**(L-1) times the product of
    the components' p[0].  Both are checked; the reported lhs/rhs/residual
    are the h-form, the p-form sides travel in the context.
    """
    L = diagram.num_components
    if L < 1:
        raise ValueError("needs at least one component")
    eng = engine if engine is not None else SkeinEngine()
    knots = [coeff_table(diagram.sublink([alpha]), engine=eng) for alpha in range(L)]
    full = coeff_table(diagram, engine=eng)

    h_lhs = full.h_at(0)
    h_rhs = BivarLaurent.one()
    for knot in knots:
        h_rhs = h_rhs * knot.h_at(0)

    lk = diagram.total_linking()
    p_lhs = full.p_at(0)
    p_rhs = (_T_FACTOR ** (L - 1)).shift(0, -2 * lk)
    for knot in knots:
        p_rhs = p_rhs * knot.p_at(0)

    return _two_form_report("thm14", diagram, label, 0, h_lhs, h_rhs, p_lhs, p_rhs)


def verify_thm15(
    diagram: Link,
    engine: SkeinEngine | None = None,
    label: str | None = None,
) -> VerificationReport:
    """Pair-sum expression for the g = 1 coefficient, in both forms.

    h-form:
        h[1](link) = sum over pairs b < c of h[1](sublink {b,c}) times the
        product of h[0] over the other components, minus (L-2) times the
        sum over b of h[1](component b) times the product of h[0] over the
        other components.
    p-form: same shape with p-coefficients, a t**(2 lk(pair)) twist inside
    the pair sum, a global t**(-2 lk) factor, and (t - t^-1) powers L-2 and
    L-1 on the two sums.
    """
    L = diagram.num_components
    if L < 2:
        raise ValueError("the pair-sum identity needs at least 2 components")
    eng = engine if engine is not None else SkeinEngine()
    tables = {
        subset: coeff_table(diagram.sublink(subset), engine=eng)
        for size in (1, 2)
        for subset in itertools.combinations(range(L), size)
    }
    full = coeff_table(diagram, engine=eng)

    def subset_sum(size, at, twist=lambda subset: 0):
        """Sum over the `size`-subsets S of at(S, 1) * t**twist(S) times the
        product of at(alpha, 0) over the components alpha outside S."""
        total = BivarLaurent.zero()
        for subset in itertools.combinations(range(L), size):
            term = at(tables[subset], 1).shift(0, twist(subset))
            for alpha in range(L):
                if alpha not in subset:
                    term = term * at(tables[(alpha,)], 0)
            total = total + term
        return total

    h_lhs = full.h_at(1)
    h_rhs = subset_sum(2, CoeffTable.h_at) - subset_sum(1, CoeffTable.h_at) * (L - 2)

    lk = diagram.total_linking()
    p_lhs = full.p_at(1)
    p_pairs = subset_sum(2, CoeffTable.p_at, lambda pair: 2 * diagram.linking_number(*pair))
    p_single = subset_sum(1, CoeffTable.p_at)
    p_rhs = (
        p_pairs * _T_FACTOR ** (L - 2) - p_single * _T_FACTOR ** (L - 1) * (L - 2)
    ).shift(0, -2 * lk)

    return _two_form_report("thm15", diagram, label, 1, h_lhs, h_rhs, p_lhs, p_rhs)


def verify_skein_F(
    diagram: Link,
    cid: int,
    engine: SkeinEngine | None = None,
    label: str | None = None,
) -> VerificationReport:
    """F(L+) - F(L-) = z * F(L0) at one inter-component crossing."""
    if diagram.is_self_crossing(cid):
        raise NotInterComponent(f"crossing {cid} is a self-crossing")
    eng = engine if engine is not None else SkeinEngine()
    if diagram.signs[cid] > 0:
        plus, minus = diagram, diagram.switch_crossing(cid)
    else:
        plus, minus = diagram.switch_crossing(cid), diagram
    zero_smoothing = diagram.smooth_crossing(cid)
    f_plus = intermediate_F(plus, engine=eng).poly
    f_minus = intermediate_F(minus, engine=eng).poly
    f_zero = intermediate_F(zero_smoothing, engine=eng).poly
    lhs = f_plus - f_minus
    rhs = f_zero.shift(1)
    return VerificationReport.of("skeinF", lhs, rhs, _context(diagram, label, crossing=cid))


def verify_split_F(
    knots: list[Link],
    engine: SkeinEngine | None = None,
    label: str | None = None,
) -> VerificationReport:
    """F of the split union of two or more knots equals zero."""
    if len(knots) < 2:
        raise ValueError("need at least two knots")
    for k, d in enumerate(knots):
        if d.num_components != 1:
            raise ValueError(f"input {k} has {d.num_components} components, expected a knot")
    union = knots[0]
    for d in knots[1:]:
        union = union.disjoint_union(d)
    eng = engine if engine is not None else SkeinEngine()

    # the split rule of `intermediate_F` is the theorem checked here, so
    # this F is computed on every subset, split or not; each part is
    # charged one node as it is enumerated
    def every_part(others):
        for size in range(len(others)):
            for part in itertools.combinations(others, size):
                eng.charge(1)
                yield part

    value = _subset_F(union, eng, every_part)
    context = _context(union, label, factors=len(knots))
    return VerificationReport.of("splitF", value.poly, BivarLaurent.zero(), context)
