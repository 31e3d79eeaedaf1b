"""Combinatorial model of oriented link diagrams.

A diagram is Gauss-code-like: each component is a cyclic sequence of
*passages*, a passage being a crossing id paired with the role the strand
plays there (``"o"`` over / ``"u"`` under), and each crossing carries a sign
in {+1, -1}.  Every diagram is planar: the constructor rejects a signed
Gauss code that no plane diagram realizes (`planar.euler_characteristic`),
and every surgery (crossing switch, oriented smoothing, sublink
extraction, disjoint union, kink, base-point rotation) is well defined on
this data alone and keeps a plane diagram planar, so none checks again.

A braid closure has a second representation, `ClosedBraid`, which does the
same surgeries and answers the same queries on the braid word itself, so
that no diagram is built for its sublinks, switches and smoothings.  It is
the one braid type: `parse_braid` reads a word into it, and `close_braid`
builds its diagram.  `LinkDiagram.braid` turns a planar diagram into a
`ClosedBraid` of the same link by Vogel's algorithm.

Sign convention, fixed once for the whole library: the braid generator with
positive index is a positive crossing, and in its picture the strand coming
from the lower-numbered position passes over.  Diagrams built from braid
closures under this convention are always realizable.
"""

from __future__ import annotations

import bisect
import re
from collections import Counter
from typing import Callable, Iterable, Mapping

from .planar import euler_characteristic, vogel_braid

__all__ = [
    "OVER",
    "UNDER",
    "Passage",
    "LinkDiagram",
    "ClosedBraid",
    "Link",
    "parse_braid",
    "close_braid",
    "DiagramError",
    "UnknownCrossing",
    "EmptySelection",
    "ParseError",
    "GeneratorOutOfRange",
]

OVER = "o"
UNDER = "u"

Passage = tuple[int, str]


class DiagramError(ValueError):
    """The diagram data violates a structural invariant."""


class UnknownCrossing(DiagramError):
    """A crossing id that does not occur in the diagram."""


class EmptySelection(DiagramError):
    """A sublink was requested for an empty component selection."""


class ParseError(ValueError):
    """Malformed textual input; `position` is a 0-based character offset."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class GeneratorOutOfRange(ParseError):
    """Braid letter outside the valid generator range."""


_HEADER = re.compile(r"\s*strands\s*=\s*([0-9]+)\s*;")
_LETTER = re.compile(r"[+-]?[0-9]+")
# a body of letters only: signed integers separated by whitespace
_LETTERS = re.compile(r"\s*(?:[+-]?[0-9]+(?:\s+[+-]?[0-9]+)*\s*)?")
# The largest strand count `parse_braid` accepts: a closure allocates per
# strand before any node budget applies.  The 6000-strand unlink already
# exceeds the default budget, so only words that braid moves shrink fit
# near this limit.
MAX_STRANDS = 100_000


def parse_braid(text: str) -> "ClosedBraid":
    """Parse ``"strands=N; i1 i2 ..."`` into the closure of that word.

    Raises ParseError / GeneratorOutOfRange with the offending offset, also
    for a strand count outside 1..MAX_STRANDS.
    """
    m = _HEADER.match(text)
    if not m:
        raise ParseError("expected a 'strands=N;' header", 0)
    digits = m.group(1).lstrip("0")
    # a count too long to convert is over the limit as well
    strands = int(digits or 0) if len(digits) <= len(str(MAX_STRANDS)) else MAX_STRANDS + 1
    if strands > MAX_STRANDS:
        raise ParseError(f"strand count must be at most {MAX_STRANDS}", m.start(1))
    if strands < 1:
        raise ParseError("strand count must be at least 1", m.start(1))
    body = text[m.end():]
    if _LETTERS.fullmatch(body):
        try:
            return ClosedBraid(strands, body.split())
        except GeneratorOutOfRange:
            pass
    # a token is bad: scan the tokens again for the first one and its offset
    for tok in re.finditer(r"\S+", body):
        pos = m.end() + tok.start()
        if not _LETTER.fullmatch(tok.group()):
            raise ParseError(f"expected a signed integer, got {tok.group()!r}", pos)
        value = int(tok.group())
        if value == 0 or abs(value) >= strands:
            raise GeneratorOutOfRange(
                f"generator {value} out of range for {strands} strands", pos
            )
    raise AssertionError(f"no bad token in {body!r}")


def close_braid(word: "ClosedBraid") -> "LinkDiagram":
    """The link diagram of a braid closure, built from its strand count and
    letters alone.

    Components are the cycles of the braid permutation, ordered by their
    smallest starting strand; crossing signs equal the letter signs.  The
    CLI never builds this diagram: `ClosedBraid` answers the same queries
    on the word itself.  It is the independent oracle that the tests and
    perfbench's reference checks compare `ClosedBraid` against.
    """
    n = word.strand_count
    pos = list(range(n))  # pos[k] = strand line currently at position k
    passages: list[list[Passage]] = [[] for _ in range(n)]
    signs: dict[int, int] = {}
    for cid, letter in enumerate(word.letters):
        k = abs(letter) - 1
        a, b = pos[k], pos[k + 1]
        if letter > 0:
            signs[cid] = 1
            passages[a].append((cid, OVER))
            passages[b].append((cid, UNDER))
        else:
            signs[cid] = -1
            passages[a].append((cid, UNDER))
            passages[b].append((cid, OVER))
        pos[k], pos[k + 1] = b, a
    # Closure joins the end of each position back to its start, so a line
    # continues as the line whose starting position is where it ended.
    succ = {line: k for k, line in enumerate(pos)}
    components: list[tuple[Passage, ...]] = []
    seen: set[int] = set()
    for start in range(n):
        if start in seen:
            continue
        seq: list[Passage] = []
        line = start
        while True:
            seen.add(line)
            seq.extend(passages[line])
            line = succ[line]
            if line == start:
                break
        components.append(tuple(seq))
    return LinkDiagram(components, signs)


class _Linking:
    """The linking numbers of both link types, read off the (component,
    component, sign) triples of their inter-component crossings that
    `_linking()` lists in one pass.  Two closed curves in the plane cross
    an even number of times, so every signed count halves exactly."""

    __slots__ = ()

    def linking_number(self, a: int, b: int) -> int:
        """Half the signed count of crossings between components `a` and `b`."""
        if a == b:
            raise ValueError("linking number needs two distinct components")
        for idx in (a, b):
            if not 0 <= idx < self.num_components:
                raise IndexError(f"component index {idx} out of range")
        return sum(sign for c, d, sign in self._linking() if {c, d} == {a, b}) // 2

    def total_linking(self) -> int:
        """Sum of the linking numbers over all component pairs."""
        return sum(sign for _, _, sign in self._linking()) // 2


def _cancel(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The word with every adjacent pair x, -x cancelled, cyclically too."""
    kept: list[int] = []
    for x in letters:
        if kept and kept[-1] == -x:
            kept.pop()
        else:
            kept.append(x)
    return _trim(tuple(kept))


def _trim(letters: tuple[int, ...]) -> tuple[int, ...]:
    """A word without adjacent pairs x, -x, with its first and last letters
    cancelled while they are such a pair."""
    i, j = 0, len(letters) - 1
    while i < j and letters[i] == -letters[j]:
        i, j = i + 1, j - 1
    return letters[i : j + 1]


def _cut(n: int, letters: tuple[int, ...]) -> int:
    """The least k in 2..n-1 at which the letters on generators k - 1 and k
    form one cyclic run each, or 0, found in one pass over the word."""
    # per k, the generator (k - 1 or k) of the first and of the last letter
    # met on either, and the number of changes between the two so far
    first, last, changes = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    for x in letters:
        g = x if x > 0 else -x
        for k in (g, g + 1):
            if last[k] != g:
                if last[k]:
                    changes[k] += 1
                else:
                    first[k] = g
                last[k] = g
    for k in range(2, n):
        if changes[k] + (first[k] != last[k]) == 2:
            return k
    return 0


def _is_int(value) -> bool:
    """An integer of the JSON schema: a bool is not one, nor is 1.0."""
    return isinstance(value, int) and not isinstance(value, bool)


def _trusted(components: Iterable[tuple[Passage, ...]], signs: dict[int, int]) -> "LinkDiagram":
    """A diagram on data an internal surgery derived from a valid diagram:
    tuples of (int, str) passages and an int -> int sign dict, planar since
    every surgery keeps a plane diagram planar.  Skips the conversion and
    validation of the public constructor."""
    out = LinkDiagram.__new__(LinkDiagram)
    object.__setattr__(out, "components", tuple(components))
    object.__setattr__(out, "signs", signs)
    return out


class LinkDiagram(_Linking):
    """An oriented link diagram as component passage sequences plus signs.

    Instances are immutable; surgeries return new diagrams.  The empty
    diagram (no components) and crossing-free circle components are legal;
    a signed Gauss code that is not planar raises DiagramError.
    """

    __slots__ = ("components", "signs")

    def __init__(self, components: Iterable[Iterable[Passage]], signs: Mapping[int, int]):
        comps = tuple(tuple((int(cid), role) for cid, role in comp) for comp in components)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "signs", {int(cid): int(s) for cid, s in signs.items()})
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("LinkDiagram is immutable")

    def _validate(self) -> None:
        roles: dict[int, list[str]] = {}
        for comp in self.components:
            for cid, role in comp:
                if role not in (OVER, UNDER):
                    raise DiagramError(f"invalid passage role {role!r} for crossing {cid}")
                roles.setdefault(cid, []).append(role)
        if set(roles) != set(self.signs):
            missing = sorted(set(self.signs) - set(roles))
            stray = sorted(set(roles) - set(self.signs))
            raise DiagramError(
                f"crossing ids inconsistent (unused signs: {missing}, unsigned passages: {stray})"
            )
        for cid in sorted(roles):
            if sorted(roles[cid]) != [OVER, UNDER]:
                raise DiagramError(
                    f"crossing {cid} must appear exactly once as over and once as under"
                )
        for cid in sorted(self.signs):
            if self.signs[cid] not in (1, -1):
                raise DiagramError(f"crossing {cid} has sign {self.signs[cid]}, expected +1/-1")
        euler, pieces = euler_characteristic(self.components, self.signs)
        if euler != 2 * pieces:
            raise DiagramError(
                f"the signed Gauss code is not planar (V - E + F = {euler} over {pieces}"
                f" connected pieces, a plane diagram has 2 per piece); no link has this diagram"
            )

    # -- basic queries ----------------------------------------------------

    @property
    def num_components(self) -> int:
        return len(self.components)

    @property
    def num_crossings(self) -> int:
        return len(self.signs)

    def crossing_ids(self) -> list[int]:
        return sorted(self.signs)

    def _passage_sites(self, cid: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """(component, position) of the two passages of `cid`, in traversal order."""
        sites = []
        for ci, comp in enumerate(self.components):
            for pi, (c, _) in enumerate(comp):
                if c == cid:
                    sites.append((ci, pi))
        if len(sites) != 2:
            raise UnknownCrossing(f"crossing {cid} not in diagram")
        return sites[0], sites[1]

    def is_self_crossing(self, cid: int) -> bool:
        (c1, _), (c2, _) = self._passage_sites(cid)
        return c1 == c2

    def writhe(self) -> int:
        """Sum of crossing signs."""
        return sum(self.signs.values())

    def self_writhe(self, comp: int) -> int:
        """Sum of signs over crossings with both passages on component `comp`."""
        if not 0 <= comp < len(self.components):
            raise IndexError(f"component index {comp} out of range")
        counts = Counter(cid for cid, _ in self.components[comp])
        return sum(self.signs[cid] for cid, k in sorted(counts.items()) if k == 2)

    def _linking(self) -> list[tuple[int, int, int]]:
        """(component, component, sign) of each inter-component crossing."""
        first: dict[int, int] = {}
        crossings = []
        for ci, comp in enumerate(self.components):
            for cid, _ in comp:
                other = first.setdefault(cid, ci)
                if other != ci:
                    crossings.append((other, ci, self.signs[cid]))
        return crossings

    # -- surgeries ---------------------------------------------------------

    def sublink(self, indices: Iterable[int]) -> "LinkDiagram":
        """Keep only the selected components.

        Crossings with a passage on a removed component disappear; the kept
        sequences are re-spliced in cyclic order, so self-crossings (hence
        self-writhes) of kept components are untouched.
        """
        kept = sorted(set(int(i) for i in indices))
        if not kept:
            raise EmptySelection("sublink needs a nonempty component selection")
        for idx in kept:
            if not 0 <= idx < len(self.components):
                raise IndexError(f"component index {idx} out of range")
        counts: Counter[int] = Counter()
        for ci in kept:
            counts.update(cid for cid, _ in self.components[ci])
        keep_ids = {cid for cid, k in counts.items() if k == 2}
        comps = tuple(
            tuple(p for p in self.components[ci] if p[0] in keep_ids) for ci in kept
        )
        signs = {cid: self.signs[cid] for cid in sorted(keep_ids)}
        return _trusted(comps, signs)

    def switch_crossing(self, cid: int) -> "LinkDiagram":
        """Swap the over/under roles of one crossing and negate its sign."""
        if cid not in self.signs:
            raise UnknownCrossing(f"crossing {cid} not in diagram")
        flip = {OVER: UNDER, UNDER: OVER}
        comps = tuple(
            tuple((c, flip[r] if c == cid else r) for c, r in comp) for comp in self.components
        )
        signs = dict(self.signs)
        signs[cid] = -signs[cid]
        return _trusted(comps, signs)

    def smooth_crossing(self, cid: int) -> "LinkDiagram":
        """Delete one crossing and rejoin the strands respecting orientation.

        An inter-component crossing merges the two components into one; a
        self-crossing splits its component in two.
        """
        (c1, p1), (c2, p2) = self._passage_sites(cid)
        signs = {c: s for c, s in self.signs.items() if c != cid}
        comps = list(self.components)
        if c1 == c2:
            seq = comps[c1]
            i, j = p1, p2
            part_a = seq[i + 1 : j]
            part_b = seq[j + 1 :] + seq[:i]
            comps[c1 : c1 + 1] = [part_a, part_b]
        else:
            a, b = comps[c1], comps[c2]
            merged = a[p1 + 1 :] + a[:p1] + b[p2 + 1 :] + b[:p2]
            comps[c1] = merged
            del comps[c2]
        return _trusted(comps, signs)

    def disjoint_union(self, other: "LinkDiagram") -> "LinkDiagram":
        """Place two diagrams side by side; no new crossings."""
        offset = max(self.signs, default=-1) + 1
        relabel = {cid: offset + k for k, cid in enumerate(sorted(other.signs))}
        comps = self.components + tuple(
            tuple((relabel[c], r) for c, r in comp) for comp in other.components
        )
        signs = dict(self.signs)
        for cid, s in sorted(other.signs.items()):
            signs[relabel[cid]] = s
        return _trusted(comps, signs)

    def add_kink(self, comp: int, sign: int, over_first: bool = True) -> "LinkDiagram":
        """Append a one-crossing curl (R1 loop) to a component."""
        if not 0 <= comp < len(self.components):
            raise IndexError(f"component index {comp} out of range")
        if sign not in (1, -1):
            raise ValueError("kink sign must be +1 or -1")
        cid = max(self.signs, default=-1) + 1
        pair = ((cid, OVER), (cid, UNDER)) if over_first else ((cid, UNDER), (cid, OVER))
        comps = list(self.components)
        comps[comp] = comps[comp] + pair
        signs = dict(self.signs)
        signs[cid] = sign
        return _trusted(comps, signs)

    def rotate_base_point(self, comp: int, shift: int) -> "LinkDiagram":
        """Move a component's base point along its cyclic sequence."""
        if not 0 <= comp < len(self.components):
            raise IndexError(f"component index {comp} out of range")
        seq = self.components[comp]
        if seq:
            k = shift % len(seq)
            seq = seq[k:] + seq[:k]
        comps = list(self.components)
        comps[comp] = seq
        return _trusted(comps, self.signs)

    def braid(
        self, charge: Callable[[int], None], max_strands: int
    ) -> tuple[int, "ClosedBraid"] | None:
        """(power, braid) with R(self) = t**power * R(braid), R the engine's
        value: the braid's closure is this planar diagram without its R1
        kinks, and power is the sum of the kinks' signs, the writhe they
        add.  The braid is found by `planar.vogel_braid`, which calls
        `charge` with the number of passages of each scan and returns None,
        as this method does, when the diagram has more than `max_strands`
        Seifert circles."""
        # an R1 kink is two passages of one crossing in a row: with the
        # passages of crossing k coded k + 1 (over) and -k - 1 (under),
        # `_cancel` takes out every kink, nested ones too
        ids = list(self.signs)
        code = {cid: k + 1 for k, cid in enumerate(ids)}
        comps = []
        for comp in self.components:
            kept = _cancel(tuple(code[cid] if role == OVER else -code[cid] for cid, role in comp))
            comps.append([(ids[abs(x) - 1], OVER if x > 0 else UNDER) for x in kept])
        signs = {cid: self.signs[cid] for comp in comps for cid, _ in comp}
        braided = vogel_braid(comps, signs, charge, max_strands)
        if braided is None:
            return None
        power = sum(sign for cid, sign in self.signs.items() if cid not in signs)
        return power, ClosedBraid._of(braided[0], tuple(braided[1]))

    # -- identity and serialization -----------------------------------------

    def canonical_key(self) -> tuple[int, ...]:
        """Deterministic key, invariant under crossing relabeling: the
        engine's memo key, built in one traversal.

        Crossings are labelled 0, 1, ... in the order they are first met
        (component order, then position).  The key is a tuple of ints: the
        component count; for each component the code ``2*label + (role ==
        "o")`` of each passage, followed by -1; then the crossing signs in
        label order.  Every item is an int, so no key equals a
        `ClosedBraid` key, whose second item is a tuple.  No randomized
        hashing is involved, so keys are the same on every run.
        """
        label: dict[int, int] = {}
        key = [len(self.components)]
        for comp in self.components:
            key.extend(
                [2 * label.setdefault(cid, len(label)) + (role == OVER) for cid, role in comp]
            )
            key.append(-1)
        signs = self.signs
        key.extend([signs[cid] for cid in label])
        return tuple(key)

    def to_json_dict(self) -> dict:
        """The documented diagram JSON schema."""
        sites: dict[int, dict[str, list[int]]] = {}
        for ci, comp in enumerate(self.components):
            for pi, (cid, role) in enumerate(comp):
                sites.setdefault(cid, {})[role] = [ci, pi]
        return {
            "components": [[[cid, role] for cid, role in comp] for comp in self.components],
            "crossings": [
                {
                    "id": cid,
                    "sign": self.signs[cid],
                    "over": sites[cid][OVER],
                    "under": sites[cid][UNDER],
                }
                for cid in sorted(self.signs)
            ],
        }

    @classmethod
    def from_json_dict(cls, obj) -> "LinkDiagram":
        """Parse the documented schema, reporting the path of any defect."""

        def fail(path: str, message: str):
            raise DiagramError(f"{path}: {message}")

        if not isinstance(obj, dict):
            fail("$", "expected an object")
        for key in ("components", "crossings"):
            if key not in obj:
                fail("$", f"missing key {key!r}")
        if not isinstance(obj["components"], list):
            fail("components", "expected a list")
        comps: list[list[Passage]] = []
        for ci, comp in enumerate(obj["components"]):
            if not isinstance(comp, list):
                fail(f"components[{ci}]", "expected a list of passages")
            passages: list[Passage] = []
            for pi, passage in enumerate(comp):
                where = f"components[{ci}][{pi}]"
                if (
                    not isinstance(passage, (list, tuple))
                    or len(passage) != 2
                    or not _is_int(passage[0])
                    or passage[1] not in (OVER, UNDER)
                ):
                    fail(where, "expected [crossing_id, 'o'|'u']")
                passages.append((passage[0], passage[1]))
            comps.append(passages)
        if not isinstance(obj["crossings"], list):
            fail("crossings", "expected a list")
        signs: dict[int, int] = {}
        declared: dict[int, tuple[int, dict]] = {}
        for ki, rec in enumerate(obj["crossings"]):
            where = f"crossings[{ki}]"
            if not isinstance(rec, dict):
                fail(where, "expected an object")
            for key in ("id", "sign", "over", "under"):
                if key not in rec:
                    fail(where, f"missing key {key!r}")
            if not _is_int(rec["id"]):
                fail(f"{where}.id", "expected an integer")
            if not _is_int(rec["sign"]) or rec["sign"] not in (1, -1):
                fail(f"{where}.sign", "expected +1 or -1")
            if rec["id"] in signs:
                fail(f"{where}.id", f"duplicate crossing id {rec['id']}")
            signs[rec["id"]] = rec["sign"]
            declared[rec["id"]] = (ki, rec)
        try:
            diagram = cls(comps, signs)
        except DiagramError as exc:
            raise DiagramError(f"$: {exc}") from None
        for cid in sorted(declared):
            ki, rec = declared[cid]
            for role, key in ((OVER, "over"), (UNDER, "under")):
                ref = rec[key]
                where = f"crossings[{ki}].{key}"
                if (
                    not isinstance(ref, (list, tuple))
                    or len(ref) != 2
                    or not all(_is_int(v) for v in ref)
                ):
                    fail(where, "expected [component, position]")
                ci, pi = ref
                if not (0 <= ci < len(diagram.components)) or not (
                    0 <= pi < len(diagram.components[ci])
                ):
                    fail(where, f"passage reference [{ci}, {pi}] out of range")
                if diagram.components[ci][pi] != (cid, role):
                    fail(where, f"passage reference [{ci}, {pi}] does not hold ({cid}, {role!r})")
        return diagram

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinkDiagram):
            return NotImplemented
        return self.components == other.components and self.signs == other.signs

    def __hash__(self) -> int:
        return hash((self.components, tuple(sorted(self.signs.items()))))

    def __repr__(self) -> str:
        return (
            f"LinkDiagram(components={self.num_components}, "
            f"crossings={self.num_crossings}, writhe={self.writhe()})"
        )


class ClosedBraid(_Linking):
    """The closure of a braid word on `strand_count` strands, with
    LinkDiagram's surgeries and queries done on the word itself: the one
    braid type, from `parse_braid` to the engine's trace.

    ``ClosedBraid(n, letters)`` takes letters i with 1 <= |i| <= n - 1 and
    raises ValueError for n < 1 and GeneratorOutOfRange for any other
    letter.  Instances are immutable, and two closures are equal when their
    strand counts and letters are; `as_text` writes the word as
    `parse_braid` reads it.

    Crossing k is letter k and components are numbered by their smallest
    starting strand, as in `close_braid`, so every answer is the answer of
    the diagram ``close_braid(link)``:

    * the sublink on some components keeps their strands, renumbered, and
      the letters between two kept strands;
    * switching crossing k negates letter k, smoothing it deletes letter k;
    * a disjoint union places the other word's strands after these.

    Smoothing moves the component numbers and base points of the diagram
    surgery, which leaves every invariant unchanged.  `pieces` simplifies
    the word by braid moves into the pieces the engine traces.
    """

    __slots__ = ("strand_count", "letters", "num_components", "_lines", "_component")

    def __init__(self, strand_count: int, letters: Iterable[int]):
        if strand_count < 1:
            raise ValueError("strand count must be positive")
        n = strand_count
        letters = tuple(map(int, letters))
        if 0 in letters or max(letters, default=0) >= n or min(letters, default=0) <= -n:
            bad = next(x for x in letters if x == 0 or abs(x) >= n)
            raise GeneratorOutOfRange(f"generator {bad} invalid for {n} strands")
        self._close(n, letters)

    @classmethod
    def _of(cls, strand_count: int, letters: tuple[int, ...]) -> "ClosedBraid":
        """The closure of letters a surgery derived from a valid word."""
        out = cls.__new__(cls)
        out._close(strand_count, letters)
        return out

    def _close(self, strand_count: int, letters: tuple[int, ...]) -> None:
        pos = list(range(strand_count))  # pos[k] = strand line at position k
        lines = []  # the two lines letter k crosses, lower position first
        for letter in letters:
            k = abs(letter) - 1
            a, b = pos[k], pos[k + 1]
            lines.append((a, b))
            pos[k], pos[k + 1] = b, a
        succ = [0] * strand_count
        for k, line in enumerate(pos):
            succ[line] = k
        component = [-1] * strand_count
        count = 0
        for start in range(strand_count):
            if component[start] < 0:
                line = start
                while component[line] < 0:
                    component[line] = count
                    line = succ[line]
                count += 1
        put = object.__setattr__  # instances are immutable, as their hash requires
        put(self, "strand_count", strand_count)
        put(self, "letters", letters)
        put(self, "num_components", count)
        put(self, "_lines", lines)
        put(self, "_component", component)

    def __setattr__(self, name, value):
        raise AttributeError("ClosedBraid is immutable")

    def as_text(self) -> str:
        body = " ".join(str(x) for x in self.letters)
        return f"strands={self.strand_count};" + (f" {body}" if body else "")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClosedBraid):
            return NotImplemented
        return self.strand_count == other.strand_count and self.letters == other.letters

    def __hash__(self) -> int:
        return hash((self.strand_count, self.letters))

    def __repr__(self) -> str:
        return f"ClosedBraid(strand_count={self.strand_count}, letters={self.letters})"

    @property
    def num_crossings(self) -> int:
        return len(self.letters)

    def canonical_key(self) -> tuple[int, tuple[int, ...]]:
        """The word as (strand count, letters): the engine's memo key."""
        return self.strand_count, self.letters

    @property
    def signs(self) -> dict[int, int]:
        return {k: 1 if letter > 0 else -1 for k, letter in enumerate(self.letters)}

    def crossing_ids(self) -> list[int]:
        return list(range(len(self.letters)))

    def _check_crossing(self, k: int) -> None:
        if not 0 <= k < len(self.letters):
            raise UnknownCrossing(f"crossing {k} not in diagram")

    def is_self_crossing(self, k: int) -> bool:
        self._check_crossing(k)
        a, b = self._lines[k]
        return self._component[a] == self._component[b]

    def writhe(self) -> int:
        return sum(1 if letter > 0 else -1 for letter in self.letters)

    def _linking(self) -> list[tuple[int, int, int]]:
        """(component, component, sign) of each inter-component crossing."""
        component = self._component
        return [
            (component[a], component[b], 1 if letter > 0 else -1)
            for (a, b), letter in zip(self._lines, self.letters)
            if component[a] != component[b]
        ]

    def sublink(self, indices: Iterable[int]) -> "ClosedBraid":
        kept = set(int(i) for i in indices)
        if not kept:
            raise EmptySelection("sublink needs a nonempty component selection")
        for idx in kept:
            if not 0 <= idx < self.num_components:
                raise IndexError(f"component index {idx} out of range")
        if len(kept) == self.num_components:
            return self
        where = {}  # position of each kept line among the kept lines
        for line, comp in enumerate(self._component):
            if comp in kept:
                where[line] = len(where)
        letters = []
        for (a, b), letter in zip(self._lines, self.letters):
            if a in where and b in where:
                j = where[a]
                letters.append(j + 1 if letter > 0 else -j - 1)
                where[a], where[b] = j + 1, j
        return ClosedBraid._of(len(where), tuple(letters))

    def switch_crossing(self, k: int) -> "ClosedBraid":
        self._check_crossing(k)
        letters = self.letters
        return ClosedBraid._of(self.strand_count, letters[:k] + (-letters[k],) + letters[k + 1:])

    def smooth_crossing(self, k: int) -> "ClosedBraid":
        self._check_crossing(k)
        return ClosedBraid._of(self.strand_count, self.letters[:k] + self.letters[k + 1:])

    def disjoint_union(self, other: "ClosedBraid") -> "ClosedBraid":
        n = self.strand_count
        shifted = tuple(x + n if x > 0 else x - n for x in other.letters)
        return ClosedBraid._of(n + other.strand_count, self.letters + shifted)

    def pieces(self, charge: Callable[[int], None]) -> tuple[int, int, list["ClosedBraid"]]:
        """(power, cuts, pieces) with R(self) = t**power times the product of
        R over the pieces times (t - t**-1)**(len(pieces) - 1 - cuts), where
        R = Hf / (t - t**-1) is the engine's value; (0, 0, [self]) when none
        of these moves applies:

        * free and cyclic cancellation of adjacent letters x, -x (braid
          relations and conjugation, which keep the framed link);
        * a split at every unused generator: each maximal run of used
          generators is a block, renumbered from strand 1, and a strand no
          letter touches is an unknot.  Hf is multiplicative on split unions;
        * Markov destabilization when the top generator, or generator 1,
          occurs exactly once: rotate that letter to the end of the word,
          drop it and its strand (renumbering from 1 for generator 1), and
          add its sign to the power, the writhe it took away;
        * a connected-sum cut, tried only when no other move applies, at the
          least k at which the letters on generators k - 1 and k form one
          cyclic run each.  Up to conjugation and the commutation of distant
          generators the word is then a*b, with a the letters on generators
          < k (on k strands) and b the others shifted down by k - 1 (on
          n - k + 1 strands), and its closure is the connected sum of their
          closures along strand k.  R is multiplicative under connected
          sum, so each cut, counted in `cuts`, saves one factor t - t**-1.

        The moves run in a loop over a work list until none applies, so a
        piece is a word on which `pieces` returns (0, 0, [piece]).  Each
        pass reads its whole word, and calls `charge` with its length.
        """
        power = cuts = 0
        done: list[tuple[int, tuple[int, ...]]] = []
        work = [(self.strand_count, _cancel(self.letters))]  # words cancelled
        while work:
            n, letters = work.pop()
            charge(len(letters))
            used = set(map(abs, letters))
            if len(used) < n - 1:
                # a maximal run g..h of used generators is a block on strands
                # g..h+1; every other strand is an unknot
                gens = sorted(used)
                runs = [g for g in gens if g - 1 not in used]
                ends = [g for g in gens if g + 1 not in used]
                blocks: list[list[int]] = [[] for _ in runs]
                for x in letters:
                    k = bisect.bisect(runs, abs(x)) - 1
                    blocks[k].append(x - runs[k] + 1 if x > 0 else x + runs[k] - 1)
                split = zip(runs, ends, blocks)
                work.extend(reversed([(h - g + 2, _cancel(tuple(b))) for g, h, b in split]))
                done.extend([(1, ())] * (n - sum(h - g + 2 for g, h in zip(runs, ends))))
                continue
            for gen, shift in ((n - 1, 0), (1, 1)):
                if letters.count(gen) + letters.count(-gen) == 1:
                    k = letters.index(gen) if gen in letters else letters.index(-gen)
                    power += 1 if letters[k] > 0 else -1
                    # only the letters that now meet at the ends can cancel
                    rest = letters[k + 1:] + letters[:k]
                    if shift:
                        rest = tuple(x - 1 if x > 0 else x + 1 for x in rest)
                    work.append((n - 1, _trim(rest)))
                    break
            else:
                k = _cut(n, letters)
                if k:
                    cuts += 1
                    a = tuple(x for x in letters if -k < x < k)
                    b = tuple(x - k + 1 if x > 0 else x + k - 1 for x in letters if not -k < x < k)
                    work += [(n - k + 1, _cancel(b)), (k, _cancel(a))]
                else:
                    done.append((n, letters))
        if power == 0 and done == [(self.strand_count, self.letters)]:
            return 0, 0, [self]
        made = {word: ClosedBraid._of(*word) for word in set(done)}
        return power, cuts, [made[word] for word in done]


# A link in either representation; both answer the queries of the verifiers.
Link = LinkDiagram | ClosedBraid
# the former name of the braid type, which perfbench/corpus.py imports
BraidWord = ClosedBraid
