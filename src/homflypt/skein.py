"""Skein-recursion engine for the framed HOMFLY-PT invariant.

The framed invariant of a diagram, written Hf here, lives in Z[z^2, t^{+-1}]
and is computed by resolving crossings until the diagram is descending:

* a diagram is *descending* when a based, ordered traversal meets every
  crossing first on its over-strand; its value is
  ``t**(sum of self-writhes) * (t - t^-1)**(number of components)``
  (the empty diagram gives 1);
* otherwise, at the first violating crossing c,
  ``Hf(L+) - Hf(L-) = z**(2*eps) * Hf(L0)`` with eps = 0 for a
  self-crossing and eps = 1 for a crossing between two components,
  so the diagram is rewritten in terms of its switched and smoothed
  resolutions, which strictly reduce (crossing count, violation count).

Both a memoized engine and a deliberately separate cache-free brute-force
resolver are exposed; the test suite asserts their agreement.  The engine
holds the integer Laurent polynomial R with Hf = R * (t - t^-1), so that
R(unknot) = 1: the same recursion on R ends in
``(t - t^-1)**(components - 1)`` at a nonempty descending diagram.  It also
takes a braid closure, a `ClosedBraid`, which it simplifies by braid moves
and evaluates by the Hecke trace of `homflypt.hecke` in place of resolving
crossings, and it braids and traces every diagram that `_trace_width`
allows.  `CoeffTable.from_reduced` computes Hf = R * (t - t^-1) and the
HOMFLY-PT polynomial ``P = t**(-writhe) * z**(1-L) * R`` once each, and
reads the coefficient table off their z-levels.  Nothing in the package
divides one polynomial by another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .hecke import framed_trace
from .laurent import BivarLaurent, T
from .links import OVER, ClosedBraid, Link, LinkDiagram

__all__ = [
    "DEFAULT_MAX_NODES",
    "ResourceLimitExceeded",
    "SkeinEngine",
    "CoeffTable",
    "is_descending",
    "descending_value",
    "framed_homfly",
    "framed_homfly_bruteforce",
    "coeff_table",
    "homfly",
]

DEFAULT_MAX_NODES = 10_000_000
# Memo entries an engine stores; once full, further values are recomputed.
MEMO_CAP = 1_000_000

_T_FACTOR = T - T**-1  # t - t^-1
_ONE = BivarLaurent.one()


class ResourceLimitExceeded(RuntimeError):
    """The configured resolution-node budget was exhausted."""


def _trace_width(crossings: int) -> int:
    """The most strands n with n! <= 2**crossings.  The Hecke trace of a
    braid on n strands writes at most n! permutations per element, and
    skein resolution of a diagram with c crossings has at most 2**c leaves,
    so the engine traces the braid of a diagram only up to this width and
    resolves a diagram with more Seifert circles as it stands."""
    n, bits = 1, 0.0
    while bits + math.log2(n + 1) <= crossings:
        n += 1
        bits += math.log2(n)
    return n


def is_descending(diagram: LinkDiagram) -> tuple[bool, Optional[int]]:
    """Check descending-ness under the based, ordered traversal.

    Returns ``(True, None)`` or ``(False, cid)`` where `cid` is the first
    crossing (in traversal order) met on its under-strand first.
    """
    seen: set[int] = set()
    for comp in diagram.components:
        for cid, role in comp:
            if cid in seen:
                continue
            if role != OVER:
                return False, cid
            seen.add(cid)
    return True, None


def descending_value(diagram: LinkDiagram) -> BivarLaurent:
    """Value of a descending diagram: framing factor times unlink value."""
    framing = sum(diagram.self_writhe(i) for i in range(diagram.num_components))
    return (_T_FACTOR**diagram.num_components).shift(0, framing)


class SkeinEngine:
    """Memoized value R = Hf / (t - t**-1) of a `LinkDiagram` or a
    `ClosedBraid`, so that R(unknot) = 1; `framed_invariant` returns
    Hf = R * (t - t**-1).

    A diagram with at most `_trace_width` Seifert circles for its
    crossings is evaluated as its braid; any other diagram is resolved
    crossing by crossing as in the module docstring, on R: the skein
    relation is linear, and a descending leaf of k components is
    ``t**framing * (t - t**-1)**(k - 1)``.  A braid closure is
    first simplified by `ClosedBraid.pieces` (cancellation, splitting at
    unused generators, Markov destabilization, connected-sum cuts):
    ``R = t**power * prod R(piece) * (t - t**-1)**(pieces - 1 - cuts)``, with
    each piece memoized on its own key.  Only a word no move simplifies is
    evaluated by the Hecke trace (`homflypt.hecke`), whose relation
    t g_i - t**-1 g_i**-1 = z is the skein relation on braids.  No value
    is ever divided.

    One budget counts the work on both.  A node is one expanded
    (non-memoized) skein resolution, one coefficient term the trace writes
    into its element, or one term of the result of a product of piece
    values; a factor 1 is no product.  An unlink power (a descending
    leaf's, or a braid's split factor) is written in closed form but
    charged, up front, as multiplying out its factors t - t**-1 one at a
    time would be.  So an N-component crossing-free diagram costs what
    ``strands=N;`` costs.  `LinkDiagram.braid` charges its scans, and
    `ClosedBraid.pieces` its passes, through `charge` as well.  `max_nodes`
    bounds the nodes over every value the engine computes; exceeding it
    raises ResourceLimitExceeded.  No element of the trace holds more than
    MEMO_CAP permutations.

    Values of R are memoized on `link.canonical_key()` (at most MEMO_CAP
    of them): a tuple of ints for a diagram, and (strand count, letters)
    for a braid, so no two links of different types share a key; a
    braided diagram is memoized under its own key and its braid's.  Equal
    diagrams up to crossing relabeling share one entry, and `f_memo` holds
    values of `identities.intermediate_F` under the same key.  The
    intermediate words of `pieces` are not memoized, nor are the
    intermediate powers of an unlink value: only the powers asked for.
    """

    def __init__(self, max_nodes: int | None = None):
        self.max_nodes = DEFAULT_MAX_NODES if max_nodes is None else int(max_nodes)
        self.nodes = 0
        self._memo: dict[tuple, BivarLaurent] = {}
        self.f_memo: dict[tuple, BivarLaurent] = {}
        self._unlinks: dict[int, BivarLaurent] = {0: _ONE, 1: _T_FACTOR}

    def framed_invariant(self, link: Link) -> BivarLaurent:
        """Hf = R * (t - t**-1), and 1 for the empty diagram."""
        if link.num_components == 0:
            return _ONE
        return self.reduced_invariant(link) * _T_FACTOR

    def reduced_invariant(self, link: Link) -> BivarLaurent:
        """R = Hf / (t - t**-1) of a nonempty link; a diagram that
        `LinkDiagram.braid` braids within `_trace_width` strands is
        evaluated as its braid times t**power, and memoized under its own
        key as well, so that it is braided once."""
        if isinstance(link, LinkDiagram) and link.num_components:
            key = link.canonical_key()
            cached = self._memo.get(key)
            if cached is not None:
                return cached
            braided = link.braid(self.charge, _trace_width(link.num_crossings))
            if braided is not None:
                value = self.skein_invariant(braided[1]).shift(0, braided[0])
                if len(self._memo) < MEMO_CAP:
                    self._memo[key] = value
                return value
        return self.skein_invariant(link)

    def skein_invariant(self, link: Link) -> BivarLaurent:
        """R of a nonempty link as it stands: a braid closure by its pieces
        and their traces, a diagram by skein resolution, never braided
        (switching and smoothing keep the Seifert circles)."""
        key = link.canonical_key()
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if isinstance(link, ClosedBraid):
            power, cuts, pieces = link.pieces(self.charge)
            if pieces == [link]:  # no move applies
                value = framed_trace(link, self._add)
            else:
                factors = [self.skein_invariant(piece) for piece in pieces]
                factors.append(self._unlink(len(pieces) - 1 - cuts))
                value = self._product(factors).shift(0, power)
        else:
            # one skein step, recursing through this method so that a
            # resolution level costs one stack frame
            self.charge(1)
            descending, cid = is_descending(link)
            k = link.num_components
            if descending:
                if k == 0:
                    raise ValueError("the empty diagram has no value R")
                framing = sum(link.self_writhe(i) for i in range(k))
                value = self._unlink(k - 1).shift(0, framing)
            else:
                switched = self.skein_invariant(link.switch_crossing(cid))
                smoothing = link.smooth_crossing(cid)
                smoothed = self.skein_invariant(smoothing)
                # smoothing an inter-component crossing joins two components
                if smoothing.num_components < k:
                    smoothed = smoothed.shift(2)
                value = switched + smoothed if link.signs[cid] > 0 else switched - smoothed
        if len(self._memo) < MEMO_CAP:
            self._memo[key] = value
        return value

    def charge(self, nodes: int) -> None:
        """Count `nodes` more nodes; raise ResourceLimitExceeded past the budget."""
        self.nodes += nodes
        if self.nodes > self.max_nodes:
            raise ResourceLimitExceeded(f"node budget of {self.max_nodes} exceeded")

    def _unlink(self, k: int) -> BivarLaurent:
        """(t - t**-1)**k, memoized, charged as the product of k factors.

        The k - 1 products of `_product` would write 3, 4, ..., k + 1 terms,
        so the whole charge, (k + 1)(k + 2)/2 - 3 nodes, is made first; the
        power is then written in closed form,
        sum over j of (-1)**j * C(k, j) * t**(k - 2j)."""
        if k not in self._unlinks:
            self.charge((k + 1) * (k + 2) // 2 - 3)
            terms = {}
            binomial = 1
            for j in range(k + 1):
                terms[0, k - 2 * j] = -binomial if j & 1 else binomial
                binomial = binomial * (k - j) // (j + 1)
            self._unlinks[k] = BivarLaurent(terms)
        return self._unlinks[k]

    def _product(self, factors: Iterable[BivarLaurent]) -> BivarLaurent:
        """The product of `factors`, left to right, charging each product
        one node per term of its result; a factor 1 is skipped."""
        value = _ONE
        for factor in factors:
            if factor == _ONE:
                continue
            if value is _ONE:
                value = factor
            else:
                value = value * factor
                self.charge(len(value))
        return value

    def _add(self, element: dict, w: tuple[int, ...], c: BivarLaurent) -> None:
        """Merge c into element[w] for the Hecke trace, charging len(c) nodes."""
        self.charge(len(c))
        old = element.get(w)
        if old is None:
            if len(element) >= MEMO_CAP:
                raise ResourceLimitExceeded(f"Hecke element exceeded {MEMO_CAP} permutations")
            element[w] = c
            return
        total = old + c
        if total:
            element[w] = total
        else:
            del element[w]


def framed_homfly(link: Link, max_nodes: int | None = None) -> BivarLaurent:
    """Framed invariant of a diagram or braid closure via a fresh engine."""
    return SkeinEngine(max_nodes=max_nodes).framed_invariant(link)


def framed_homfly_bruteforce(
    diagram: LinkDiagram, max_nodes: int | None = None
) -> BivarLaurent:
    """Cache-free full resolution; the independent oracle for the engine."""
    budget = DEFAULT_MAX_NODES if max_nodes is None else int(max_nodes)
    remaining = [budget]

    def resolve(d: LinkDiagram) -> BivarLaurent:
        remaining[0] -= 1
        if remaining[0] < 0:
            raise ResourceLimitExceeded(f"node budget of {budget} exceeded")
        descending, cid = is_descending(d)
        if descending:
            return descending_value(d)
        switched = resolve(d.switch_crossing(cid))
        smoothed = resolve(d.smooth_crossing(cid))
        if not d.is_self_crossing(cid):
            smoothed = smoothed.shift(2)
        return switched + smoothed if d.signs[cid] > 0 else switched - smoothed

    return resolve(diagram)


@dataclass(frozen=True)
class CoeffTable:
    """The values of one link that the CLI prints, each computed once from
    the engine's value R = Hf / (t - t^-1): the framed invariant
    ``framed`` = Hf = R * (t - t^-1), one product, and the HOMFLY-PT
    polynomial ``homfly`` = P = t**(-writhe) * z**(1-L) * R, one shift.

    The coefficient polynomials, indexed by the genus parameter g, are their
    z-levels: ``h[g]`` is the z**(2g) coefficient of Hf (an integer Laurent
    polynomial in t, sitting at z-power 2g-L in the unframed expansion);
    ``p[g]`` is the z**(2g+1-L) coefficient of P.  The two are linked by
    ``h[g] == p[g] * t**writhe * (t - t^-1)`` for every g.
    """

    components: int
    writhe: int
    total_linking: int
    framed: BivarLaurent = field(repr=False)
    homfly: BivarLaurent = field(repr=False)
    h: dict[int, BivarLaurent] = field(repr=False)
    p: dict[int, BivarLaurent] = field(repr=False)

    @classmethod
    def from_reduced(cls, diagram: Link, reduced: BivarLaurent) -> "CoeffTable":
        """The table of a nonempty diagram from its value R, without
        division.  Raises ValueError if R cannot be a link's value: if Hf,
        whose z-levels are R's, has an odd or a negative power of z."""
        if diagram.num_components == 0:
            raise ValueError("the empty diagram has no coefficient expansion")
        L, w = diagram.num_components, diagram.writhe()
        framed = reduced * _T_FACTOR
        h: dict[int, BivarLaurent] = {}
        for ez, coeff in framed.by_z():
            if ez < 0 or ez & 1:
                raise ValueError(
                    "framed invariant left Z[z^2, t^(+-1)]; the diagram data is not realizable"
                )
            h[ez >> 1] = coeff
        homfly = reduced.shift(1 - L, -w)  # P
        return cls(
            components=L,
            writhe=w,
            total_linking=diagram.total_linking(),
            framed=framed,
            homfly=homfly,
            h=h,
            p={(ez + L - 1) >> 1: coeff for ez, coeff in homfly.by_z()},
        )

    def h_at(self, g: int) -> BivarLaurent:
        return self.h.get(g, BivarLaurent.zero())

    def p_at(self, g: int) -> BivarLaurent:
        return self.p.get(g, BivarLaurent.zero())

    def genus_range(self) -> list[int]:
        return sorted(self.h)

    def polynomial(self) -> BivarLaurent:
        """The HOMFLY-PT polynomial: the sum of p[g] * z**(2g+1-L)."""
        return self.homfly

    def to_json_dict(self) -> dict:
        return {
            "components": self.components,
            "writhe": self.writhe,
            "total_linking": self.total_linking,
            "framed": self.framed.to_quadruples(),
            "homfly": self.homfly.to_quadruples(),
            "h": {str(g): self.h[g].to_triples() for g in sorted(self.h)},
            "p": {str(g): self.p[g].to_triples() for g in sorted(self.p)},
        }


def coeff_table(diagram: Link, engine: SkeinEngine | None = None) -> CoeffTable:
    """Extract the h/p coefficient table of a nonempty link with `engine`
    (default a fresh SkeinEngine)."""
    eng = engine if engine is not None else SkeinEngine()
    return CoeffTable.from_reduced(diagram, eng.reduced_invariant(diagram))


def homfly(diagram: Link, engine: SkeinEngine | None = None) -> BivarLaurent:
    """The HOMFLY-PT polynomial, assembled from the coefficient table."""
    return coeff_table(diagram, engine=engine).polynomial()
