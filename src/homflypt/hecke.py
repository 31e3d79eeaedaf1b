"""Hecke-algebra trace engine for the framed invariant of a closed braid.

A braid word on n strands is an element of the Hecke algebra H_n, written
here in the basis T_w of permutations w (a tuple, w[k] the value at
position k) with `BivarLaurent` coefficients.  Right multiplication by a
generator g_i (0-indexed) is

    T_w * g_i = T_{w s_i}                          if w[i] < w[i+1],
              = (z/t) T_w + t**-2 T_{w s_i}        otherwise,

and g_i**-1 = t**2 g_i - z t, so t g_i - t**-1 g_i**-1 = z: the skein
relation t P(L+) - t**-1 P(L-) = z P(L0) of the HOMFLY-PT polynomial P.
The Ocneanu trace tr_n, normalized to tr_1(1) = 1, gives P of the closure
(Jones, Ann. Math. 126, 1987; Morton & Short, J. Algorithms 11, 1990).  It
is evaluated by dropping one strand at a time:

* if w fixes the last strand, tr_n(T_w) = delta * tr_{n-1}(T_w) with
  delta = (t - t**-1)/z, the value of a split unknot;
* otherwise the value n-1 sits at a position j < n-1; with u the tuple w
  without that value, tr_n(T_w) = tr_{n-1}(T_u g_{n-3} ... g_j).

Each level rewrites the whole element of H_k into one of H_{k-1} with the
same trace, so every permutation met at a level is rewritten once (equal
permutations are merged first) and there is no recursion.  The framed
invariant is Hf = t**writhe (t - t**-1) z**(L-1) P.  The cost is
polynomial in the word length for a fixed strand count, against the
exponential skein resolution of `homflypt.skein`.
"""

from __future__ import annotations

from .laurent import BivarLaurent, T, Z
from .links import BraidWord, ClosedBraid, Link
from .skein import DEFAULT_MAX_NODES, MEMO_CAP, ResourceLimitExceeded, SkeinEngine

__all__ = ["HeckeEngine", "engine_for", "framed_homfly_braid"]

_T_FACTOR = T - T**-1
_DELTA = _T_FACTOR * Z**-1

Element = dict[tuple[int, ...], BivarLaurent]


class HeckeEngine:
    """The framed invariant of a `ClosedBraid`, with the interface of
    `SkeinEngine`: `framed_invariant`, `nodes` and `max_nodes`.

    Writing a coefficient into an element costs one node per term of the
    coefficient, so the node count follows the work done as the
    coefficients grow with the word.  `max_nodes` bounds the count over
    every trace the engine takes, like the skein engine's budget over one
    link's resolutions.  No element holds more than MEMO_CAP permutations.
    Values are memoized on the word (at most MEMO_CAP of them), and
    `f_memo` holds values of `identities.intermediate_F` under the same key.
    """

    def __init__(self, max_nodes: int | None = None):
        self.max_nodes = DEFAULT_MAX_NODES if max_nodes is None else int(max_nodes)
        self.nodes = 0
        self._memo: dict[tuple, BivarLaurent] = {}
        self.f_memo: dict[tuple, BivarLaurent] = {}

    @staticmethod
    def key(link: ClosedBraid) -> tuple:
        """The memo key of a closure: its word."""
        return link.strand_count, link.letters

    def framed_invariant(self, link: ClosedBraid) -> BivarLaurent:
        key = self.key(link)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        element: Element = {}
        self._add(element, tuple(range(link.strand_count)), BivarLaurent.one())
        for letter in link.letters:
            element = self._times(element, abs(letter) - 1, letter > 0)
        for top in range(link.strand_count - 1, 0, -1):
            element = self._drop_strand(element, top)
        polynomial = element.get((0,), BivarLaurent.zero())
        value = (polynomial * _T_FACTOR).shift(link.num_components - 1, link.writhe())
        if len(self._memo) < MEMO_CAP:
            self._memo[key] = value
        return value

    def _add(self, element: Element, w: tuple[int, ...], c: BivarLaurent) -> None:
        self.nodes += len(c)
        if self.nodes > self.max_nodes:
            raise ResourceLimitExceeded(f"Hecke trace exceeded {self.max_nodes} nodes")
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

    def _times(self, element: Element, i: int, positive: bool) -> Element:
        """element * g_i, or element * g_i**-1 when not `positive`."""
        out: Element = {}
        for w, c in element.items():
            ws = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
            if (w[i] < w[i + 1]) == positive:
                # g_i on an ascending pair, or g_i**-1 on a descending one
                self._add(out, ws, c)
            elif positive:
                self._add(out, w, c.shift(1, -1))
                self._add(out, ws, c.shift(0, -2))
            else:  # g_i**-1 = t**2 g_i - z t on an ascending pair
                self._add(out, ws, c.shift(0, 2))
                self._add(out, w, -c.shift(1, 1))
        return out

    def _drop_strand(self, element: Element, top: int) -> Element:
        """An element of H_top with the trace of `element`, an element of
        H_{top+1} (whose last strand carries the value `top`)."""
        out: Element = {}
        by_position: dict[int, Element] = {}
        for w, c in element.items():
            j = w.index(top)
            u = w[:j] + w[j + 1:]
            if j == top:
                self._add(out, u, c * _DELTA)
            else:
                self._add(by_position.setdefault(j, {}), u, c)
        for j, part in by_position.items():
            for i in range(top - 2, j - 1, -1):
                part = self._times(part, i, True)
            for u, c in part.items():
                self._add(out, u, c)
        return out


def engine_for(link: Link, max_nodes: int | None = None) -> HeckeEngine | SkeinEngine:
    """A fresh engine for `link`: the Hecke engine for a braid closure, the
    skein engine for a diagram."""
    if isinstance(link, ClosedBraid):
        return HeckeEngine(max_nodes)
    return SkeinEngine(max_nodes)


def framed_homfly_braid(word: BraidWord, max_nodes: int | None = None) -> BivarLaurent:
    """The framed invariant of the closure of `word`, equal to
    ``framed_homfly(close_braid(word))``, by the Ocneanu trace on H_n.

    `max_nodes` bounds the coefficient terms written (default
    DEFAULT_MAX_NODES); past it, or past MEMO_CAP permutations in one
    element, ResourceLimitExceeded is raised.
    """
    return HeckeEngine(max_nodes).framed_invariant(ClosedBraid(word))
