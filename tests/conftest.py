"""Shared helpers: seeded diagram corpora, diagram and polynomial
surgeries only the tests need, and braid-word moves."""

from __future__ import annotations

import json

import pytest

from homflypt import (
    OVER,
    UNDER,
    BivarLaurent,
    ClosedBraid,
    LinkDiagram,
    SplitMix64,
    close_braid,
    random_braid,
)
from homflypt import catalog as cat
from homflypt.skein import CoeffTable


def no_charge(nodes: int) -> None:
    """A `charge` callback without a budget."""


def seeded_closures(seed: int, count: int, strands=(2, 3, 4), max_length: int = 12):
    """Deterministic list of (word, diagram) pairs with <= max_length crossings."""
    rng = SplitMix64(seed)
    out = []
    while len(out) < count:
        n = strands[rng.below(len(strands))]
        length = 3 + rng.below(max_length - 2)
        word = random_braid(rng, n, length)
        out.append((word, close_braid(word)))
    return out


def reversed_component(diagram: LinkDiagram, ci: int) -> LinkDiagram:
    """The same plane curves with component `ci` traversed backwards: the
    signs of its crossings with other components change."""
    comps = list(diagram.components)
    comps[ci] = tuple(reversed(comps[ci]))
    counts: dict[int, int] = {}
    for cid, _ in comps[ci]:
        counts[cid] = counts.get(cid, 0) + 1
    signs = {c: -s if counts.get(c) == 1 else s for c, s in diagram.signs.items()}
    return LinkDiagram(comps, signs)


def add_kink(diagram: LinkDiagram, comp: int, sign: int, over_first: bool = True) -> LinkDiagram:
    """`diagram` with a one-crossing curl (R1 loop) of sign `sign` appended
    to component `comp`, built by the public constructor, which checks it."""
    cid = max(diagram.signs, default=-1) + 1
    comps = list(diagram.components)
    comps[comp] += ((cid, OVER), (cid, UNDER)) if over_first else ((cid, UNDER), (cid, OVER))
    return LinkDiagram(comps, {**diagram.signs, cid: sign})


def rotate_base_point(diagram: LinkDiagram, comp: int, shift: int) -> LinkDiagram:
    """`diagram` with the base point of component `comp` moved `shift`
    passages along it, built by the public constructor, which checks it."""
    comps = list(diagram.components)
    seq = comps[comp]
    k = shift % len(seq) if seq else 0
    comps[comp] = seq[k:] + seq[:k]
    return LinkDiagram(comps, diagram.signs)


def reciprocal_t(poly: BivarLaurent) -> BivarLaurent:
    """`poly` with t -> 1/t substituted."""
    return BivarLaurent({(ez, -et): c for (ez, et), c in poly.terms()})


def is_even_nonneg_in_z(poly: BivarLaurent) -> bool:
    """True iff every nonzero term of `poly` has an even, nonnegative z exponent."""
    return all(ez >= 0 and ez % 2 == 0 for (ez, _), _ in poly.terms())


def seeded_links_with_components(seed: int, count: int, components: int,
                                 strands=(2, 3, 4, 5), max_length: int = 12):
    """Deterministic closures filtered to an exact component count."""
    rng = SplitMix64(seed)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 100_000:
            raise RuntimeError("corpus generation did not converge")
        usable = [n for n in strands if n >= components]
        n = usable[rng.below(len(usable))]
        length = 2 + rng.below(max_length - 1)
        word = random_braid(rng, n, length)
        diagram = close_braid(word)
        if diagram.num_components == components:
            out.append((word, diagram))
    return out


# -- braid-word moves that preserve the ambient invariant ---------------------


def braid_relation_sites(word: ClosedBraid) -> list[int]:
    """Positions where letters (i, i+1, i) with equal signs occur."""
    xs = word.letters
    sites = []
    for k in range(len(xs) - 2):
        a, b, c = xs[k : k + 3]
        if a == c and abs(b) == abs(a) + 1 and (a > 0) == (b > 0):
            sites.append(k)
    return sites


def apply_braid_relation(word: ClosedBraid, k: int) -> ClosedBraid:
    xs = list(word.letters)
    a, b, _ = xs[k : k + 3]
    xs[k : k + 3] = [b, a, b]
    return ClosedBraid(word.strand_count, tuple(xs))


def commutation_sites(word: ClosedBraid) -> list[int]:
    xs = word.letters
    return [k for k in range(len(xs) - 1) if abs(abs(xs[k]) - abs(xs[k + 1])) >= 2]


def apply_commutation(word: ClosedBraid, k: int) -> ClosedBraid:
    xs = list(word.letters)
    xs[k], xs[k + 1] = xs[k + 1], xs[k]
    return ClosedBraid(word.strand_count, tuple(xs))


def apply_conjugation(word: ClosedBraid, generator: int) -> ClosedBraid:
    return ClosedBraid(
        word.strand_count, (generator,) + word.letters + (-generator,)
    )


def apply_stabilization(word: ClosedBraid, sign: int) -> ClosedBraid:
    """Add one strand and one crossing with the new strand."""
    n = word.strand_count
    return ClosedBraid(n + 1, word.letters + (sign * n,))


def apply_free_insertion(word: ClosedBraid, position: int, generator: int) -> ClosedBraid:
    xs = list(word.letters)
    xs[position:position] = [generator, -generator]
    return ClosedBraid(word.strand_count, tuple(xs))


def markov_variant(word: ClosedBraid, rng: SplitMix64, moves: int = 3) -> ClosedBraid:
    """Apply a few random invariance-preserving word moves."""
    out = word
    for _ in range(moves):
        choice = rng.below(5)
        if choice == 0:
            sites = braid_relation_sites(out)
            if sites:
                out = apply_braid_relation(out, sites[rng.below(len(sites))])
                continue
            choice = 3
        if choice == 1:
            sites = commutation_sites(out)
            if sites:
                out = apply_commutation(out, sites[rng.below(len(sites))])
                continue
            choice = 3
        if choice == 2 and out.strand_count <= 4:
            out = apply_stabilization(out, 1 if rng.below(2) == 0 else -1)
            continue
        if choice == 3:
            gen = 1 + rng.below(out.strand_count - 1) if out.strand_count > 1 else None
            if gen is not None:
                out = apply_conjugation(out, gen if rng.below(2) == 0 else -gen)
                continue
        if out.strand_count > 1:
            gen = 1 + rng.below(out.strand_count - 1)
            pos = rng.below(len(out.letters) + 1)
            out = apply_free_insertion(out, pos, gen if rng.below(2) == 0 else -gen)
    return out


def table_layout(table: CoeffTable, label: str) -> dict:
    """The documented layout of ``homfly --format json``, read off the
    table's public values: the oracle of `CoeffTable.to_json_text`, which
    prints ``json.dumps(table_layout(table, label), sort_keys=True,
    indent=2)``."""
    return {
        "components": table.components,
        "writhe": table.writhe,
        "total_linking": table.total_linking,
        "framed": table.framed.to_quadruples(),
        "homfly": table.homfly.to_quadruples(),
        "h": {str(g): table.h_at(g).to_triples() for g in table.genus_range()},
        "p": {str(g): table.p_at(g).to_triples() for g in table.genus_range()},
        "link": label,
    }


@pytest.fixture(autouse=True)
def json_text_is_json_dumps(monkeypatch):
    """Every coefficient table that `homfly` prints as JSON in a test is
    also checked against ``json.dumps(layout, sort_keys=True, indent=2)``
    of its documented layout, byte for byte: `CoeffTable.to_json_text`
    writes it from the table itself."""
    table_text = CoeffTable.to_json_text

    def checked_table(table, label):
        text = table_text(table, label)
        assert text == json.dumps(table_layout(table, label), sort_keys=True, indent=2)
        return text

    monkeypatch.setattr(CoeffTable, "to_json_text", checked_table)


@pytest.fixture(scope="session")
def catalog_diagrams() -> dict[str, LinkDiagram]:
    return {name: cat.diagram(name) for name in cat.names()}
