"""The planar map a signed Gauss code fixes, and Vogel's braiding algorithm
on it.

Everything here works on the data of a `links.LinkDiagram`: components as
sequences of (crossing id, role) passages, role "o" (over) or "u" (under),
and a sign per crossing.  The signs and roles fix the cyclic order of the
four ends of each crossing, so the code fixes a map on a closed surface,
and a diagram is planar when that surface is a sphere for every connected
piece.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

__all__ = ["faces", "euler_characteristic", "vogel_braid"]

# The four ends of a crossing counterclockwise, by its sign: the in ("i")
# and out ("o") ends of the over ("o") and under ("u") strands.  The over
# strand's two ends face each other and the sign says on which side the
# under strand comes in.  The mirror convention reverses every rotation at
# once, which leaves every face count unchanged.
_ROTATION = {1: ("oi", "ui", "oo", "uo"), -1: ("oi", "uo", "oo", "ui")}


def faces(components, signs: Mapping[int, int]) -> tuple[list[int], list[int], int]:
    """(out, face, F) for the 4-valent graph of the crossings, embedded by
    the rotations the signs and roles fix.

    Crossing k, in sorted id order, has the ends 4k..4k+3 in the order of
    `_ROTATION`.  Passage q, counting through the components in order,
    leaves its crossing by end out[q] and enters it by out[q] ^ 2.  The
    F faces are the orbits of "cross the edge, then turn to the next end
    counterclockwise"; face[e] is the face of the orbit that leaves by end
    e, the face on the right of that edge.
    """
    index = {cid: k for k, cid in enumerate(sorted(signs))}
    out = [
        4 * index[cid] + _ROTATION[signs[cid]].index(role + "o")
        for comp in components
        for cid, role in comp
    ]
    across = [0] * (4 * len(index))
    q = 0
    for comp in components:
        for j in range(len(comp)):
            leave, enter = out[q + j], out[q + (j + 1) % len(comp)] ^ 2
            across[leave], across[enter] = enter, leave
        q += len(comp)
    face = [-1] * len(across)
    count = 0
    for start in range(len(across)):
        if face[start] < 0:
            e = start
            while face[e] < 0:
                face[e] = count
                e = across[e]
                e += 1 if e % 4 < 3 else -3
            count += 1
    return out, face, count


def euler_characteristic(components, signs: Mapping[int, int]) -> tuple[int, int]:
    """(V - E + F, number of connected pieces) of the graph `faces` embeds.

    A piece has V - E + F = 2 - 2 * genus <= 2, so the sum is 2 per piece
    exactly when every piece is planar.  Crossing-free circles are planar
    pieces of their own and are not counted.
    """
    parent = list(range(len(components)))

    def root(ci: int) -> int:
        while parent[ci] != ci:
            parent[ci] = ci = parent[parent[ci]]
        return ci

    met: dict[int, int] = {}
    for ci, comp in enumerate(components):
        for cid, _ in comp:
            parent[root(met.setdefault(cid, ci))] = root(ci)
    pieces = len({root(ci) for ci, comp in enumerate(components) if comp})
    # every crossing has four ends, and every edge two
    return faces(components, signs)[2] - len(signs), pieces


def vogel_braid(
    components: Sequence[Sequence[tuple[int, str]]],
    signs: Mapping[int, int],
    charge: Callable[[int], None],
    max_strands: int,
) -> tuple[int, list[int]] | None:
    """(strand count, letters) of a braid whose closure is the planar
    diagram given, by Vogel's algorithm (P. Vogel, Comment. Math. Helv. 65,
    1990) on the map of `faces`; None when the diagram has more than
    `max_strands` Seifert circles.

    An arc runs from a passage to the next passage of its component, and
    the arc that ends at a crossing continues from the crossing's other
    passage: the cycles of arcs are the Seifert circles.  While a face lies
    on the same side of two arcs a and b on distinct circles, a
    Reidemeister II move pushes a over b across it, which keeps the number
    of circles; each scan for such a face calls `charge` with the number of
    passages.  Then the faces joined through the corners between the two
    circles of each crossing form regions; along each connected piece the
    circles form a path whose inner regions lie on opposite sides of their
    two circles.  Circle k of a path is cut at an arc a_k, with a_(k+1) on
    the face of region (k, k+1) that a_k borders, and the crossing
    sequences of the circles from their cuts merge into a word in which a
    crossing between circles k and k + 1 is the letter sign * (k + 1).
    Pieces take disjoint strand ranges, and crossing-free components are
    free strands after them.  The moves keep the writhe, so the closure is
    the same framed link, on one strand per Seifert circle (S. Yamada,
    Invent. Math. 89, 1987).  A planar diagram that cannot be read so
    raises RuntimeError.
    """
    comps = [list(comp) for comp in components]
    signs = dict(signs)
    while True:
        charge(2 * len(signs))
        out, face, count = faces(comps, signs)
        where = [(ci, j) for ci, comp in enumerate(comps) for j in range(len(comp))]
        flat = [p for comp in comps for p in comp]
        succ: list[int] = []  # the next passage of the same component
        for comp in comps:
            q = len(succ)
            succ.extend(range(q + 1, q + len(comp)))
            if comp:
                succ.append(q)
        other, first = [0] * len(flat), {}  # the other passage of the crossing
        for q, (cid, _) in enumerate(flat):
            p = first.setdefault(cid, q)
            other[q], other[p] = p, q
        # the faces on the right and on the left of each arc
        sides = [(face[out[a]], face[out[succ[a]] ^ 2]) for a in range(len(flat))]
        circle, firsts = [-1] * len(flat), []  # the first arc of each circle
        for a in range(len(flat)):
            if circle[a] < 0:
                firsts.append(a)
                while circle[a] < 0:
                    circle[a], a = len(firsts) - 1, other[succ[a]]
        if len(firsts) > max_strands:
            return None
        seen: dict[tuple[int, int], int] = {}
        for a, key in ((a, (f, side)) for a in range(len(flat)) for side, f in enumerate(sides[a])):
            b = seen.setdefault(key, a)
            if circle[b] != circle[a]:
                break
        else:
            break
        # push arc b over arc a across face key[0]
        x, y = max(signs) + 1, max(signs) + 2
        signs[x], signs[y] = (1, -1) if key[1] else (-1, 1)
        for ci, j, new in sorted(
            [(*where[b], [(x, "o"), (y, "o")]), (*where[a], [(y, "u"), (x, "u")])],
            reverse=True,
        ):
            comps[ci][j + 1 : j + 1] = new

    def fail():
        raise RuntimeError("the diagram is not a closed braid after its Vogel moves")

    # Seifert regions: the corners 0-1 and 2-3 of a positive crossing's
    # rotation, and 1-2 and 3-0 of a negative one's, lie between its
    # two circles; the corner before end e lies in face[e]
    region = list(range(count))

    def root(f: int) -> int:
        while region[f] != f:
            region[f] = f = region[region[f]]
        return f

    for q, (cid, role) in enumerate(flat):
        if role == "o":
            e = (out[q] & ~3) + (signs[cid] > 0)
            region[root(face[e])] = root(face[e + 2])
    borders: dict[int, dict[int, int]] = {}  # region -> circle -> side
    for a, pair in enumerate(sides):
        for side, f in enumerate(pair):
            if borders.setdefault(root(f), {}).setdefault(circle[a], side) != side:
                fail()
    circles = len(firsts)
    links: list[list[tuple[int, int]]] = [[] for _ in range(circles)]
    for r, by_circle in borders.items():
        if len(set(by_circle.values())) != len(by_circle):
            fail()  # more than two circles, or two on the same side
        if len(by_circle) == 2:
            c, d = by_circle
            links[c].append((d, r))
            links[d].append((c, r))
    position, cut, strands = [-1] * circles, firsts, 0
    for start in range(circles):
        if position[start] >= 0 or len(links[start]) > 1:
            continue
        c, r = start, -1
        while True:
            position[c], strands = strands, strands + 1
            step = [(d, s) for d, s in links[c] if s != r]
            if not step:
                break
            d, r = step[0]
            far = next((f for f in sides[cut[c]] if root(f) == r), None)
            arcs = [b for b in range(len(flat)) if circle[b] == d and far in sides[b]]
            if position[d] >= 0 or not arcs:
                fail()
            c, cut[d] = d, arcs[0]
    if -1 in position:
        fail()
    heads, waiting, ready, letters = [], {}, [], []

    def advance(c: int) -> None:
        x = next(heads[c], None)
        if x in waiting:
            ready.append((x, waiting.pop(x), c))
        elif x is not None:
            waiting[x] = c

    for c in range(circles):
        seq, a = [], cut[c]
        while not seq or a != cut[c]:
            seq.append(flat[succ[a]][0])
            a = other[succ[a]]
        heads.append(iter(seq))
        advance(c)
    while ready:
        x, c, d = ready.pop()
        if abs(position[c] - position[d]) != 1:
            fail()
        letters.append(signs[x] * (min(position[c], position[d]) + 1))
        advance(c)
        advance(d)
    if len(letters) != len(signs):
        fail()
    return strands + sum(1 for comp in comps if not comp), letters
