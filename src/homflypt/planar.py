"""The planar map a signed Gauss code fixes, and Vogel's braiding algorithm
on it.

Everything here works on the data of a `links.LinkDiagram`: components as
sequences of (crossing id, role) passages, role "o" (over) or "u" (under),
and a sign per crossing.  The signs and roles fix the cyclic order of the
four ends of each crossing, so the code fixes a map on a closed surface,
and a diagram is planar when that surface is a sphere for every connected
piece.  The map `faces` builds for the constructor's planarity check is
kept with the diagram, and `vogel_braid` takes it as its first scan's map.
After its moves, `vogel_braid` reads the braid by walking the circles that
share crossings, with no regions of faces.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

__all__ = ["faces", "connected_pieces", "vogel_braid"]

# The four ends of a crossing counterclockwise, by its sign: the in ("i")
# and out ("o") ends of the over ("o") and under ("u") strands.  The over
# strand's two ends face each other and the sign says on which side the
# under strand comes in.  The mirror convention reverses every rotation at
# once, which leaves every face count unchanged.
#
#     sign +1: ("oi", "ui", "oo", "uo")     sign -1: ("oi", "uo", "oo", "ui")
#
# So the over strand leaves by end 2 and the under strand by end 2 + sign,
# and every strand enters by the end opposite the one it leaves by, e ^ 2.

PlanarMap = tuple[list[int], list[int], int]


def faces(components, signs: Mapping[int, int]) -> PlanarMap | None:
    """(out, face, F) for the 4-valent graph of the crossings, embedded by
    the rotations the signs and roles fix; None when the data is not a
    signed Gauss code: a sign other than +1 or -1, a passage that is not
    the over or the under passage of a signed crossing, or a crossing
    without exactly one of each.

    Crossing k, in sorted id order, has the ends 4k..4k+3 in the order of
    the rotation above.  Passage q, counting through the components in
    order, leaves its crossing by end out[q] and enters it by out[q] ^ 2.
    The F faces are the orbits of "cross the edge, then turn to the next
    end counterclockwise"; face[e] is the face of the orbit that leaves by
    end e, the face on the right of that edge.
    """
    end = {}
    for k, cid in enumerate(sorted(signs)):
        sign = signs[cid]
        if sign != 1 and sign != -1:
            return None
        end[cid, "o"] = 4 * k + 2
        end[cid, "u"] = 4 * k + 2 + sign
    try:
        out = [end[p] for comp in components for p in comp]
    except (KeyError, TypeError):
        return None
    if len(out) != len(end) or len(set(out)) != len(out):
        return None
    # turn[e]: the end after e's edge is crossed and the turn is made
    turn = [0] * (2 * len(end))
    q = 0
    for comp in components:
        if comp:
            leave = out[q + len(comp) - 1]
            for e in out[q : q + len(comp)]:
                enter = e ^ 2
                turn[leave] = enter + 1 if enter & 3 != 3 else enter - 3
                turn[enter] = leave + 1 if leave & 3 != 3 else leave - 3
                leave = e
        q += len(comp)
    face = [-1] * len(turn)
    count = 0
    for start in range(len(turn)):
        if face[start] < 0:
            e = start
            while face[e] < 0:
                face[e] = count
                e = turn[e]
            count += 1
    return out, face, count


def connected_pieces(components) -> int:
    """The connected pieces of the graph `faces` embeds, crossing-free
    circles not counted.  Each piece has V - E + F = 2 - 2 * genus <= 2,
    and V - E = -(crossings) since every crossing has four ends and every
    edge two, so a signed Gauss code is planar exactly when its F is
    crossings + 2 * pieces."""
    pieces = sum(1 for comp in components if comp)
    parent = list(range(len(components)))

    def root(ci: int) -> int:
        while parent[ci] != ci:
            parent[ci] = ci = parent[parent[ci]]
        return ci

    met: dict[int, int] = {}
    for ci, comp in enumerate(components):
        for cid, _ in comp:
            a, b = root(met.setdefault(cid, ci)), root(ci)
            if a != b:
                parent[a] = b
                pieces -= 1
    return pieces


def _search(right, left, circle, count):
    """(move, first_right, first_left) for the arcs' faces on the right
    and on the left and their circles.  move is (b, a, side) for the first
    arc a, in arc order, that has a face on the same side (0 right, 1 left)
    as an earlier arc b of another circle, b the first arc with that face
    on that side, and None when no face has two circles on one side.
    first_right[f] and first_left[f] are the first arcs with face f on
    their right and on their left, -1 for none, among the arcs before a."""
    first_right, first_left = [-1] * count, [-1] * count
    for a, c in enumerate(circle):
        b = first_right[right[a]]
        if b < 0:
            first_right[right[a]] = a
        elif circle[b] != c:
            return (b, a, 0), first_right, first_left
        b = first_left[left[a]]
        if b < 0:
            first_left[left[a]] = a
        elif circle[b] != c:
            return (b, a, 1), first_right, first_left
    return None, first_right, first_left


def vogel_braid(
    components: Sequence[Sequence[tuple[int, str]]],
    signs: Mapping[int, int],
    charge: Callable[[int], None],
    max_strands: int,
    embedding: PlanarMap | None,
) -> tuple[int, list[int]] | None:
    """(strand count, letters) of a braid whose closure is the planar
    diagram given, by Vogel's algorithm (P. Vogel, Comment. Math. Helv. 65,
    1990) on the map of `faces`; None when the diagram has more than
    `max_strands` Seifert circles.  `embedding` is the `faces` map of the
    diagram, which the first scan reads instead of building it, or None.

    An arc runs from a passage to the next passage of its component, and
    the arc that ends at a crossing continues from the crossing's other
    passage: the cycles of arcs are the Seifert circles.  While a face lies
    on the same side of two arcs a and b on distinct circles, a
    Reidemeister II move pushes a over b across it, which keeps the number
    of circles; each scan for such a face, the first included, calls
    `charge` with the number of passages.  Then each crossing joins two
    circles, and the circles of each connected piece that share crossings
    form a path, walked from one end with no regions of faces built.
    Circle k of a path is cut at an arc a_k, with a_(k+1) the first arc of
    circle k + 1 that borders a face of a_k, and the crossing sequences of
    the circles from their cuts merge into a word in which a crossing
    between circles k and k + 1 is the letter sign * (k + 1).  Pieces take
    disjoint strand ranges, and crossing-free components are free strands
    after them.  The moves keep the writhe, so the closure is the same
    framed link, on one strand per Seifert circle (S. Yamada, Invent. Math.
    89, 1987).  A planar diagram that cannot be read so raises
    RuntimeError.
    """
    comps = components
    while True:
        charge(2 * len(signs))
        out, face, count = embedding or faces(comps, signs)
        embedding = None
        arcs = len(out)
        succ: list[int] = []  # the next passage of the same component
        for comp in comps:
            q = len(succ)
            succ.extend(range(q + 1, q + len(comp)))
            if comp:
                succ.append(q)
        # the other passage of the crossing, found by the crossing's index
        other, first = [0] * arcs, [-1] * len(signs)
        for q, e in enumerate(out):
            p = first[e >> 2]
            if p < 0:
                first[e >> 2] = q
            else:
                other[q], other[p] = p, q
        # the faces on the right and on the left of each arc
        right = [face[e] for e in out]
        left = [face[out[s] ^ 2] for s in succ]
        circle, firsts = [-1] * arcs, []  # the first arc of each circle
        for a in range(arcs):
            if circle[a] < 0:
                firsts.append(a)
                while circle[a] < 0:
                    circle[a], a = len(firsts) - 1, other[succ[a]]
        if len(firsts) > max_strands:
            return None
        move, first_right, first_left = _search(right, left, circle, count)
        if move is None:
            break
        # push arc b over arc a across the face on side `side` of both
        b, a, side = move
        x, y = max(signs) + 1, max(signs) + 2
        signs = {**signs, x: 1 if side else -1, y: -1 if side else 1}
        comps = [list(comp) for comp in comps]
        sites = []
        for q, new in ((b, [(x, "o"), (y, "o")]), (a, [(y, "u"), (x, "u")])):
            ci = 0
            while q >= len(comps[ci]):
                q, ci = q - len(comps[ci]), ci + 1
            sites.append((ci, q, new))
        for ci, j, new in sorted(sites, reverse=True):
            comps[ci][j + 1 : j + 1] = new

    def fail():
        raise RuntimeError("the diagram is not a closed braid after its Vogel moves")

    # the circles of each crossing are neighbours
    circles = len(firsts)
    near: list[set[int]] = [set() for _ in range(circles)]
    for q in range(arcs):
        c, d = circle[q], circle[other[q]]
        if c == d:
            fail()  # a crossing on one circle
        near[c].add(d)
    # walk each piece's path of circles from an end; no face has two
    # circles on one side now, so the first arc with a face on one side is
    # the first such arc of its circle
    position, cut, strands = [-1] * circles, firsts, 0
    for start in range(circles):
        if position[start] >= 0 or len(near[start]) > 1:
            continue
        c = start
        while True:
            position[c], strands = strands, strands + 1
            step = [d for d in near[c] if position[d] < 0]
            if not step:
                break
            if len(step) > 1:
                fail()  # a circle with two unvisited neighbours
            d = step[0]
            arcs_on = [
                b
                for f in (right[cut[c]], left[cut[c]])
                for b in (first_right[f], first_left[f])
                if b >= 0 and circle[b] == d
            ]
            if not arcs_on:
                fail()
            c, cut[d] = d, min(arcs_on)
    if -1 in position:
        fail()  # a circle on no path
    # merge the crossing sequences of the circles from their cuts: a
    # crossing is ready when it heads the sequences of both its circles
    ids, heads, waiting, ready, letters = sorted(signs), [], [-1] * len(signs), [], []
    for c in range(circles):
        seq, a = [], cut[c]
        while not seq or a != cut[c]:
            seq.append(out[succ[a]] >> 2)
            a = other[succ[a]]
        heads.append(iter(seq))
    advanced = range(circles)
    while True:
        for c in advanced:
            k = next(heads[c], -1)
            if k >= 0:
                if waiting[k] < 0:
                    waiting[k] = c
                else:
                    ready.append((k, waiting[k], c))
        if not ready:
            break
        k, c, d = ready.pop()
        if abs(position[c] - position[d]) != 1:
            fail()  # a letter between strands that are not adjacent
        letters.append(signs[ids[k]] * (min(position[c], position[d]) + 1))
        advanced = (c, d)
    if len(letters) != len(signs):
        fail()
    return strands + sum(1 for comp in comps if not comp), letters
