"""A small catalog of named links, all given as braid closures.

The expected facts recorded per entry (component count, writhe, total
linking number) are cross-checked against recomputed values by the test
suite; the CLI always recomputes and never prints the stored notes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .links import ClosedBraid, LinkDiagram, close_braid, parse_braid

__all__ = ["CatalogEntry", "CATALOG", "names", "get", "diagram"]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    braid: str
    summary: str
    expected: dict

    def word(self) -> ClosedBraid:
        return parse_braid(self.braid)

    def diagram(self) -> LinkDiagram:
        return close_braid(self.word())


def _entry(name, braid, summary, components, writhe, total_linking):
    return CatalogEntry(
        name=name,
        braid=braid,
        summary=summary,
        expected={
            "components": components,
            "writhe": writhe,
            "total_linking": total_linking,
        },
    )


CATALOG: tuple[CatalogEntry, ...] = (
    _entry("unknot", "strands=1;", "crossing-free circle", 1, 0, 0),
    _entry("unlink2", "strands=2;", "two split circles", 2, 0, 0),
    _entry("unlink3", "strands=3;", "three split circles", 3, 0, 0),
    _entry("unlink4", "strands=4;", "four split circles", 4, 0, 0),
    _entry("hopf+", "strands=2; 1 1", "positive Hopf link", 2, 2, 1),
    _entry("hopf-", "strands=2; -1 -1", "negative Hopf link", 2, -2, -1),
    _entry("trefoil", "strands=2; 1 1 1", "right-handed trefoil", 1, 3, 0),
    _entry("trefoil-left", "strands=2; -1 -1 -1", "left-handed trefoil", 1, -3, 0),
    _entry("figure8", "strands=3; 1 -2 1 -2", "figure-eight knot", 1, 0, 0),
    _entry("t24", "strands=2; 1 1 1 1", "(2,4) torus link", 2, 4, 2),
    _entry("t26", "strands=2; 1 1 1 1 1 1", "(2,6) torus link", 2, 6, 3),
    _entry(
        "borromean", "strands=3; 1 -2 1 -2 1 -2", "Borromean rings", 3, 0, 0
    ),
    _entry(
        "trefoil-hopf+",
        "strands=4; 1 1 1 3 3",
        "split union of a trefoil and a positive Hopf link",
        3,
        5,
        1,
    ),
    _entry(
        "granny",
        "strands=3; 1 1 1 2 2 2",
        "granny knot (sum of two right trefoils)",
        1,
        6,
        0,
    ),
    _entry(
        "square",
        "strands=3; 1 1 1 -2 -2 -2",
        "square knot (sum of mirror trefoils)",
        1,
        0,
        0,
    ),
)

_BY_NAME = {entry.name: entry for entry in CATALOG}


def names() -> list[str]:
    return [entry.name for entry in CATALOG]


def get(name: str) -> CatalogEntry:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown catalog link {name!r}; known: {', '.join(names())}") from None


def diagram(name: str) -> LinkDiagram:
    return get(name).diagram()
