"""Hecke-algebra trace of a closed braid: the engine value R by the Ocneanu
trace, the algorithm `skein.SkeinEngine` runs on a `ClosedBraid`.

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
permutations are merged first) and there is no recursion.  The value
returned is R = t**writhe z**(L-1) P, the framed invariant
Hf = (t - t**-1) R divided by its unknot value, so R(unknot) = 1.  The cost is
polynomial in the word length for a fixed strand count, against the
exponential skein resolution of diagrams.

Every coefficient is written into an element through a caller's
``add(element, w, c)``, which merges c into element[w] (deleting a zero)
and may charge the work to a budget or refuse it.
"""

from __future__ import annotations

from .laurent import BivarLaurent, T, Z
from .links import ClosedBraid

__all__ = ["framed_trace"]

_DELTA = (T - T**-1) * Z**-1

Element = dict[tuple[int, ...], BivarLaurent]


def framed_trace(link: ClosedBraid, add) -> BivarLaurent:
    """R of `link`, each coefficient written by ``add(element, w, c)`` as the
    module docstring says."""
    element: Element = {}
    add(element, tuple(range(link.strand_count)), BivarLaurent.one())
    for letter in link.letters:
        element = _times(element, abs(letter) - 1, letter > 0, add)
    for top in range(link.strand_count - 1, 0, -1):
        element = _drop_strand(element, top, add)
    polynomial = element.get((0,), BivarLaurent.zero())
    return polynomial.shift(link.num_components - 1, link.writhe())


def _times(element: Element, i: int, positive: bool, add) -> Element:
    """element * g_i, or element * g_i**-1 when not `positive`."""
    out: Element = {}
    for w, c in element.items():
        ws = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
        if (w[i] < w[i + 1]) == positive:
            # g_i on an ascending pair, or g_i**-1 on a descending one
            add(out, ws, c)
        elif positive:
            add(out, w, c.shift(1, -1))
            add(out, ws, c.shift(0, -2))
        else:  # g_i**-1 = t**2 g_i - z t on an ascending pair
            add(out, ws, c.shift(0, 2))
            add(out, w, -c.shift(1, 1))
    return out


def _drop_strand(element: Element, top: int, add) -> Element:
    """An element of H_top with the trace of `element`, an element of
    H_{top+1} (whose last strand carries the value `top`)."""
    out: Element = {}
    by_position: dict[int, Element] = {}
    for w, c in element.items():
        j = w.index(top)
        u = w[:j] + w[j + 1:]
        if j == top:
            add(out, u, c * _DELTA)
        else:
            add(by_position.setdefault(j, {}), u, c)
    for j, part in by_position.items():
        for i in range(top - 2, j - 1, -1):
            part = _times(part, i, True, add)
        for u, c in part.items():
            add(out, u, c)
    return out
