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
crossings, and it braids every diagram and traces its braid's pieces
when `_trace_width` allows.  A `CoeffTable` stores R alone and reads
Hf = R * (t - t^-1), the HOMFLY-PT polynomial
``P = t**(-writhe) * z**(1-L) * R`` and the coefficients h and p off R's
z-levels, and writes them all as JSON in one pass over R's terms.
Nothing in the package divides one polynomial by another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
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
    so the engine traces the pieces of a diagram's braid only when none is
    wider than this, and otherwise resolves the diagram as it stands."""
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

    A braid closure, or the braid `LinkDiagram.braid` finds for a diagram,
    is simplified by `ClosedBraid.pieces` (cancellation, splitting at unused
    generators, Markov destabilization, connected-sum cuts):
    ``R = t**power * prod R(piece) * (t - t**-1)**(pieces - 1 - cuts)``, with
    each piece given as its word, its memo key.  `_piece_value` closes a
    word only to trace one the memo lacks: the one call of the Hecke trace
    (`homflypt.hecke`), whose relation t g_i - t**-1 g_i**-1 = z is the
    skein relation on braids.  A diagram whose braid has a piece wider
    than `_trace_width` allows for the diagram's crossings is resolved
    crossing by crossing as in the module docstring, on R: the skein
    relation is linear, and a descending leaf of k components is
    ``t**framing * (t - t**-1)**(k - 1)``.  No value is ever divided.

    One budget counts the work on both.  A node is one expanded
    (non-memoized) skein resolution, one coefficient term the trace writes
    into its element, or one term of the result of a product of piece
    values; a factor 1 is no product.  An unlink power (a descending
    leaf's, or a braid's split factor) is written in closed form but
    charged, up front, as multiplying out its factors t - t**-1 one at a
    time would be.  So an N-component crossing-free diagram costs what
    ``strands=N;`` costs.  `LinkDiagram.braid` charges its scans,
    `ClosedBraid.pieces` its passes and `sublink` each sublink through
    `charge` as well.  `max_nodes` bounds the nodes over every value the
    engine computes; exceeding it raises ResourceLimitExceeded.  No
    element of the trace holds more than MEMO_CAP permutations.

    Values of R are memoized on `link.canonical_key()`: a tuple of ints
    for a diagram, and (strand count, letters) for a braid, so no two
    links of different types share a key; a braided diagram is memoized
    under its own key only, and its pieces under their words.  Equal
    diagrams up to crossing relabeling share one entry, and `f_memo` holds
    values of `identities.intermediate_F` under the same key (splitF,
    which checks the split rule, keeps its own).  Every memo stores
    through `remember`, which stops at MEMO_CAP entries.  The intermediate
    words of `pieces` are not memoized, nor are the intermediate powers of
    an unlink value: only the powers asked for.
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
        """R = Hf / (t - t**-1) of a nonempty link.  A diagram is braided
        and its braid's `pieces` found once, and they are traced when none
        is wider than `_trace_width` of the diagram's crossings, memoized
        under its own key; otherwise the diagram is resolved as it stands."""
        if isinstance(link, LinkDiagram) and link.num_components:
            key = link.canonical_key()
            cached = self._memo.get(key)
            if cached is not None:
                return cached
            power, braid = link.braid(self.charge)
            shift, cuts, words = braid.pieces(self.charge)
            if max(n for n, _ in words) <= _trace_width(link.num_crossings):
                value = self._braid_value(power + shift, cuts, words)
                return self.remember(self._memo, key, value)
        return self.skein_invariant(link)

    def skein_invariant(self, link: Link) -> BivarLaurent:
        """R of a nonempty link as it stands: a braid closure by its pieces
        and their traces, a diagram by skein resolution, never braided."""
        key = link.canonical_key()
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if isinstance(link, ClosedBraid):
            value = self._braid_value(*link.pieces(self.charge))
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
        return self.remember(self._memo, key, value)

    def _braid_value(self, power: int, cuts: int, words: list) -> BivarLaurent:
        """R of a braid from the result of its `pieces`:
        ``t**power * prod R(word) * (t - t**-1)**(len(words) - 1 - cuts)``."""
        factors = [self._piece_value(word) for word in words]
        factors.append(self._unlink(len(words) - 1 - cuts))
        value = self._product(factors)
        return value.shift(0, power) if power else value

    def _piece_value(self, word: tuple[int, tuple[int, ...]]) -> BivarLaurent:
        """R of a word from `ClosedBraid.pieces`, which no move simplifies:
        memoized, else closed and traced, with no pass of `pieces`."""
        value = self._memo.get(word)
        if value is None:
            value = framed_trace(ClosedBraid._of(*word), self._add)
            self.remember(self._memo, word, value)
        return value

    @staticmethod
    def remember(memo: dict, key: tuple, value):
        """Store `value` under `key` if `memo` holds fewer than MEMO_CAP
        entries; return `value`."""
        if len(memo) < MEMO_CAP:
            memo[key] = value
        return value

    def sublink(self, link: Link, components: Iterable[int]) -> Link:
        """``link.sublink(components)``, charged one node first."""
        self.charge(1)
        return link.sublink(components)

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
    """The values of one link that the CLI prints, all read off the one
    polynomial it stores, the engine's value R = Hf / (t - t^-1).  With R_g
    the z**(2g) coefficient of R, for the genus parameter g: ``framed`` is
    Hf = R * (t - t^-1) and ``homfly`` is the HOMFLY-PT polynomial
    P = t**(-writhe) * z**(1-L) * R; ``h_at(g)`` = R_g * (t - t^-1) is the
    z**(2g) coefficient of Hf (at z-power 2g-L in the unframed expansion)
    and ``p_at(g)`` = R_g * t**(-writhe) the z**(2g+1-L) coefficient of P,
    so ``h_at(g) == p_at(g) * t**writhe * (t - t^-1)`` for every g.
    `to_json_text` writes all of these as ``homfly --format json`` prints
    them, in one pass over R's terms, without `json.dumps`.
    """

    components: int
    writhe: int
    total_linking: int
    reduced: BivarLaurent = field(repr=False)

    @classmethod
    def from_reduced(cls, diagram: Link, reduced: BivarLaurent) -> "CoeffTable":
        """The table of a nonempty diagram from its value R, without
        division.  Raises ValueError if R cannot be a link's value: if Hf,
        whose z-levels are R's, has an odd or a negative power of z."""
        if diagram.num_components == 0:
            raise ValueError("the empty diagram has no coefficient expansion")
        if any(ez < 0 or ez & 1 for ez, _ in reduced.by_z()):
            raise ValueError(
                "framed invariant left Z[z^2, t^(+-1)]; the diagram data is not realizable"
            )
        return cls(
            components=diagram.num_components,
            writhe=diagram.writhe(),
            total_linking=diagram.total_linking(),
            reduced=reduced,
        )

    @property
    def framed(self) -> BivarLaurent:
        return self.reduced * _T_FACTOR

    @property
    def homfly(self) -> BivarLaurent:
        return self.reduced.shift(1 - self.components, -self.writhe)

    def h_at(self, g: int) -> BivarLaurent:
        return self.reduced.coeff_of_z(2 * g) * _T_FACTOR

    def p_at(self, g: int) -> BivarLaurent:
        return self.reduced.coeff_of_z(2 * g).shift(0, -self.writhe)

    def genus_range(self) -> list[int]:
        return [ez >> 1 for ez, _ in self.reduced.by_z()]

    def to_json_text(self, label: str) -> str:
        """``json.dumps(layout, sort_keys=True, indent=2)`` of the table
        with its ``link`` label, written in one pass over R's terms:
        ``framed`` and ``homfly`` are the quadruples of Hf and P, ``h`` and
        ``p`` map ``str(g)`` to the triples of h_at(g) and p_at(g), and the
        other keys hold the ints of the table.  Hf = R * (t - t^-1) is
        summed into one dict, P is R's terms shifted by (1 - L, -writhe),
        and each row is filled into a fixed template at its depth."""
        shift_z, writhe = 1 - self.components, self.writhe
        framed: dict[tuple[int, int], int] = {}
        homfly, p_rows = [], {}
        for (ez, et), c in self.reduced.terms():
            framed[ez, et + 1] = framed.get((ez, et + 1), 0) + c
            framed[ez, et - 1] = framed.get((ez, et - 1), 0) - c
            homfly.append(_QUAD % (ez + shift_z, et - writhe, c))
            p_rows.setdefault(ez >> 1, []).append(_TRIPLE % (et - writhe, c))
        framed_rows, h_rows = [], {}
        for (ez, et), c in sorted(framed.items()):
            if c:
                framed_rows.append(_QUAD % (ez, et, c))
                h_rows.setdefault(ez >> 1, []).append(_TRIPLE % (et, c))
        return _TABLE % (
            self.components,
            ",\n".join(framed_rows),
            _levels_text(h_rows),
            ",\n".join(homfly),
            encode_basestring_ascii(label),
            _levels_text(p_rows),
            self.total_linking,
            writhe,
        )


# `json.dumps(..., sort_keys=True, indent=2)` of a coefficient table, filled
# in by `CoeffTable.to_json_text`: the keys in sorted order, a polynomial's
# quadruple at depth 2 and a z-level's triple at depth 3.  No list or
# object is empty, since a link's R is not zero.
_TABLE = (
    '{\n  "components": %d,\n  "framed": [\n%s\n  ],\n  "h": {\n%s\n  },'
    '\n  "homfly": [\n%s\n  ],\n  "link": %s,\n  "p": {\n%s\n  },'
    '\n  "total_linking": %d,\n  "writhe": %d\n}'
)
_QUAD = "    [\n      %d,\n      %d,\n      %d,\n      1\n    ]"
_TRIPLE = "      [\n        %d,\n        %d,\n        1\n      ]"


def _levels_text(levels: dict[int, list[str]]) -> str:
    """The members of the JSON object of z-levels, keyed by ``str(g)`` in
    the string order of `json.dumps`, so "10" precedes "2"."""
    items = sorted((str(g), rows) for g, rows in levels.items())
    return ",\n".join(f'    "{g}": [\n' + ",\n".join(rows) + "\n    ]" for g, rows in items)


def coeff_table(diagram: Link, engine: SkeinEngine | None = None) -> CoeffTable:
    """Extract the h/p coefficient table of a nonempty link with `engine`
    (default a fresh SkeinEngine)."""
    eng = engine if engine is not None else SkeinEngine()
    return CoeffTable.from_reduced(diagram, eng.reduced_invariant(diagram))


def homfly(diagram: Link, engine: SkeinEngine | None = None) -> BivarLaurent:
    """The HOMFLY-PT polynomial, read off the coefficient table."""
    return coeff_table(diagram, engine=engine).homfly
