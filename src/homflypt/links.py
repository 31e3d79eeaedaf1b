"""Combinatorial model of oriented link diagrams.

A diagram is Gauss-code-like: each component is a cyclic sequence of
*passages*, a passage being a crossing id paired with the role the strand
plays there (``"o"`` over / ``"u"`` under), and each crossing carries a sign
in {+1, -1}.  No planar embedding is stored; every surgery used by the
skein recursion (crossing switch, oriented smoothing, sublink extraction,
disjoint union) is well defined on this data alone.

Sign convention, fixed once for the whole library: the braid generator with
positive index is a positive crossing, and in its picture the strand coming
from the lower-numbered position passes over.  Diagrams built from braid
closures under this convention are always realizable.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

__all__ = [
    "OVER",
    "UNDER",
    "Passage",
    "LinkDiagram",
    "BraidWord",
    "parse_braid",
    "close_braid",
    "DiagramError",
    "UnknownCrossing",
    "OddCrossingParity",
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


class OddCrossingParity(DiagramError):
    """Signed inter-component crossing count is odd (non-realizable data)."""


class EmptySelection(DiagramError):
    """A sublink was requested for an empty component selection."""


class ParseError(ValueError):
    """Malformed textual input; `position` is a 0-based character offset."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class GeneratorOutOfRange(ParseError):
    """Braid letter outside the valid generator range."""


@dataclass(frozen=True)
class BraidWord:
    """A braid word: strand count n and letters i with 1 <= |i| <= n-1."""

    strand_count: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strand_count < 1:
            raise ValueError("strand count must be positive")
        object.__setattr__(self, "letters", tuple(int(x) for x in self.letters))
        for x in self.letters:
            if x == 0 or abs(x) >= self.strand_count:
                raise GeneratorOutOfRange(
                    f"generator {x} invalid for {self.strand_count} strands"
                )

    def as_text(self) -> str:
        body = " ".join(str(x) for x in self.letters)
        return f"strands={self.strand_count};" + (f" {body}" if body else "")


_HEADER = re.compile(r"\s*strands\s*=\s*(\d+)\s*;")


def parse_braid(text: str) -> BraidWord:
    """Parse ``"strands=N; i1 i2 ..."`` into a BraidWord.

    Raises ParseError / GeneratorOutOfRange with the offending offset.
    """
    m = _HEADER.match(text)
    if not m:
        raise ParseError("expected a 'strands=N;' header", 0)
    strands = int(m.group(1))
    if strands < 1:
        raise ParseError("strand count must be at least 1", m.start(1))
    letters: list[int] = []
    for tok in re.finditer(r"\S+", text[m.end():]):
        pos = m.end() + tok.start()
        try:
            value = int(tok.group())
        except ValueError:
            raise ParseError(f"expected a signed integer, got {tok.group()!r}", pos) from None
        if value == 0 or abs(value) >= strands:
            raise GeneratorOutOfRange(
                f"generator {value} out of range for {strands} strands", pos
            )
        letters.append(value)
    return BraidWord(strands, tuple(letters))


def close_braid(word: BraidWord) -> "LinkDiagram":
    """Close a braid word into a link diagram.

    Components are the cycles of the braid permutation, ordered by their
    smallest starting strand; crossing signs equal the letter signs.
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


def _trusted(components: Iterable[tuple[Passage, ...]], signs: dict[int, int]) -> "LinkDiagram":
    """A diagram on data an internal surgery derived from a valid diagram:
    tuples of (int, str) passages and an int -> int sign dict.  Skips the
    conversion and validation of the public constructor."""
    out = LinkDiagram.__new__(LinkDiagram)
    object.__setattr__(out, "components", tuple(components))
    object.__setattr__(out, "signs", signs)
    return out


class LinkDiagram:
    """An oriented link diagram as component passage sequences plus signs.

    Instances are immutable; surgeries return new diagrams.  The empty
    diagram (no components) and crossing-free circle components are legal.
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

    def crossing_components(self, cid: int) -> tuple[int, int]:
        """Component indices met by crossing `cid` (equal for a self-crossing)."""
        (c1, _), (c2, _) = self._passage_sites(cid)
        return c1, c2

    def is_self_crossing(self, cid: int) -> bool:
        c1, c2 = self.crossing_components(cid)
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

    def linking_number(self, a: int, b: int) -> int:
        """Half the signed count of crossings between components `a` and `b`."""
        if a == b:
            raise ValueError("linking number needs two distinct components")
        for idx in (a, b):
            if not 0 <= idx < len(self.components):
                raise IndexError(f"component index {idx} out of range")
        ids_a = {cid for cid, _ in self.components[a]}
        ids_b = {cid for cid, _ in self.components[b]}
        signed = sum(self.signs[cid] for cid in sorted(ids_a & ids_b))
        if signed % 2:
            raise OddCrossingParity(
                f"odd signed crossing count {signed} between components {a} and {b}"
            )
        return signed // 2

    def total_linking(self) -> int:
        """Sum of pairwise linking numbers over all component pairs."""
        total = 0
        for a in range(len(self.components)):
            for b in range(a + 1, len(self.components)):
                total += self.linking_number(a, b)
        return total

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

    # -- identity and serialization -----------------------------------------

    def canonical_key(self) -> bytes:
        """Deterministic key, invariant under crossing relabeling.

        Crossings are renumbered in traversal order (component order, then
        position); the key encodes the passage pattern and the sign string.
        No randomized hashing is involved, so keys are stable across runs.
        """
        label: dict[int, int] = {}
        parts = []
        for comp in self.components:
            bits = []
            for cid, role in comp:
                if cid not in label:
                    label[cid] = len(label)
                bits.append(f"{label[cid]}{role}")
            parts.append(",".join(bits))
        sign_str = "".join(
            "+" if self.signs[cid] > 0 else "-"
            for cid, _ in sorted(label.items(), key=lambda kv: kv[1])
        )
        return f"{len(self.components)}#{'|'.join(parts)}#{sign_str}".encode("ascii")

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
                    or not isinstance(passage[0], int)
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
            if not isinstance(rec["id"], int):
                fail(f"{where}.id", "expected an integer")
            if rec["sign"] not in (1, -1):
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
                    or not all(isinstance(v, int) for v in ref)
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
