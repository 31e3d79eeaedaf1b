"""Braiding a planar diagram: `LinkDiagram.braid` against the skein engine.

Every braid, times t to the power of the diagram's R1 kinks, is checked
against the value `SkeinEngine.skein_invariant` resolves on the diagram
itself, and against the diagram's writhe, components and total linking
number.  Each scan of the Vogel-move loop is also checked to see a planar
diagram (the first on the map the constructor checked), and the braid has
at most as many strands as the diagram has Seifert circles, exactly as
many when the diagram has no kink.  The engine braids every diagram file
that the width rule lets through, under `homfly` and `verify` alike.
"""

import io
import json
import time

import pytest

from homflypt import (
    OVER,
    UNDER,
    LinkDiagram,
    SkeinEngine,
    SplitMix64,
    close_braid,
    parse_braid,
)
from homflypt import catalog as cat
from homflypt import planar, skein
from homflypt.cli import EXIT_OK, EXIT_RESOURCE, main
from homflypt.links import MAX_STRANDS
from homflypt.skein import homfly as homfly_value

from conftest import (
    add_kink,
    no_charge,
    reversed_component,
    rotate_base_point,
    seeded_closures,
    seeded_links_with_components,
)

TREFOIL_CODE = [(0, OVER), (1, UNDER), (2, OVER), (0, UNDER), (1, OVER), (2, UNDER)]


def seifert_circles(diagram: LinkDiagram) -> int:
    """The cycles of "follow an arc to its crossing and leave by the
    crossing's other passage", one per crossing-free component too."""
    sites: dict[int, list[tuple[int, int]]] = {}
    for ci, comp in enumerate(diagram.components):
        for pi, (cid, _) in enumerate(comp):
            sites.setdefault(cid, []).append((ci, pi))
    seen: set[tuple[int, int]] = set()
    count = sum(1 for comp in diagram.components if not comp)
    for ci, comp in enumerate(diagram.components):
        for pi in range(len(comp)):
            count += (ci, pi) not in seen
            arc = (ci, pi)
            while arc not in seen:
                seen.add(arc)
                end = (arc[0], (arc[1] + 1) % len(diagram.components[arc[0]]))
                cid = diagram.components[end[0]][end[1]][0]
                arc = next(site for site in sites[cid] if site != end)
    return count


def connected_pieces(components) -> int:
    """Connected pieces of the crossing graph; crossing-free circles are not counted."""
    piece: dict[int, int] = {}
    joined = []
    for ci, comp in enumerate(components):
        met = {piece[cid] for cid, _ in comp if cid in piece} | {ci}
        for cid, _ in comp:
            piece[cid] = ci
        joined.append(met)
    groups: list[set[int]] = []
    for met in joined:
        touching = [g for g in groups if g & met]
        merged = set(met).union(*touching)
        groups = [g for g in groups if not g & met] + [merged]
    return sum(1 for g in groups if any(components[ci] for ci in g))


def braid_of(diagram: LinkDiagram):
    """The braid of `diagram` without a budget or a width limit."""
    return diagram.braid(no_charge, MAX_STRANDS)[1]


def has_kink(diagram: LinkDiagram) -> bool:
    """Whether some component meets one crossing twice in a row, cyclically."""
    return any(
        comp[i][0] == comp[i - 1][0] for comp in diagram.components for i in range(len(comp))
    )


def braided(diagram: LinkDiagram) -> tuple:
    """(power, braid, Vogel moves) of `diagram`, checking that every scan of
    the move loop sees a planar diagram: V - E + F = 2 on each piece.

    Scans are counted through `charge`, which each scan calls once.  The
    first scan of a diagram from the public constructor reads the map that
    the constructor checked, unless its kinks were taken out first; every
    other scan builds its map by `planar.faces`, and each of those maps is
    checked here."""
    charges, built = [], []
    faces = planar.faces

    def checked(components, signs):
        out, face, count = faces(components, signs)
        built.append(count - len(signs) - 2 * connected_pieces(components))
        return out, face, count

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(planar, "faces", checked)
        power, braid = diagram.braid(charges.append, MAX_STRANDS)
    assert charges and not any(built)
    assert len(built) == len(charges) - (not has_kink(diagram))
    return power, braid, len(charges) - 1


def check(diagram: LinkDiagram) -> int:
    """Assert that the braid of `diagram`, with the writhe of its kinks, is
    the same framed link; its moves."""
    power, braid, moves = braided(diagram)
    assert braid.num_components == diagram.num_components
    assert braid.writhe() + power == diagram.writhe()
    assert braid.total_linking() == diagram.total_linking()
    circles = seifert_circles(diagram)
    assert braid.strand_count <= circles
    if not has_kink(diagram):
        assert braid.strand_count == circles  # one strand per circle
    value = SkeinEngine().reduced_invariant(braid).shift(0, power)
    assert value == SkeinEngine().skein_invariant(diagram)
    return moves


def gauss_variant(rng: SplitMix64, diagram: LinkDiagram) -> LinkDiagram:
    """The diagram with permuted crossing ids and rotated base points."""
    ids = diagram.crossing_ids()
    shuffled = list(ids)
    for i in range(len(shuffled) - 1, 0, -1):
        j = rng.below(i + 1)
        shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
    relabel = {cid: 3 * new + 5 for cid, new in zip(ids, shuffled)}
    comps = []
    for comp in diagram.components:
        shift = rng.below(len(comp)) if comp else 0
        comps.append([(relabel[c], r) for c, r in comp[shift:] + comp[:shift]])
    return LinkDiagram(comps, {relabel[c]: s for c, s in diagram.signs.items()})


def antiparallel_twist(crossings: int) -> LinkDiagram:
    """T(2, crossings) with one component reversed: its Seifert circles
    sit side by side, and braiding it takes about crossings**2 / 4 moves."""
    return reversed_component(close_braid(parse_braid(f"strands=2; {' 1' * crossings}")), 1)


def kinked(diagram: LinkDiagram, rng: SplitMix64, kinks: int) -> LinkDiagram:
    for _ in range(kinks):
        sign = 1 if rng.below(2) else -1
        diagram = add_kink(diagram, rng.below(diagram.num_components), sign, bool(rng.below(2)))
    return diagram


class TestDifferential:
    def test_catalog_as_json(self):
        for name in cat.names():
            diagram = LinkDiagram.from_json_dict(cat.diagram(name).to_json_dict())
            assert check(diagram) == 0, name

    def test_gauss_codes_of_closures_need_no_moves(self):
        rng = SplitMix64(16)
        for word, diagram in seeded_closures(seed=16, count=60, strands=(2, 3, 4)):
            variant = gauss_variant(rng, diagram)
            assert check(variant) == 0, word.as_text()
            assert braid_of(variant).strand_count <= word.strand_count

    def test_kinks_come_back_as_a_power(self):
        rng = SplitMix64(17)
        for word, diagram in seeded_closures(seed=17, count=40, strands=(2, 3, 4), max_length=8):
            variant = kinked(diagram, rng, 1 + rng.below(3))
            for ci in range(variant.num_components):
                variant = rotate_base_point(variant, ci, rng.below(5))
            assert check(variant) == 0, word.as_text()
            assert braid_of(variant).strand_count <= word.strand_count

    def test_reversed_components_need_moves(self):
        rng = SplitMix64(18)
        moves = []
        for L in (2, 3):
            for word, diagram in seeded_links_with_components(18, 25, L, max_length=10):
                for ci in range(1, L):
                    diagram = reversed_component(diagram, ci)
                moves.append(check(kinked(diagram, rng, rng.below(2))))
        assert sum(moves) > 50 and max(moves) >= 6
        for crossings in (2, 4, 6, 8):
            assert check(antiparallel_twist(crossings)) == crossings**2 // 4 - crossings // 2

    def test_hand_written_trefoils(self):
        swapped = [(cid, UNDER if role == OVER else OVER) for cid, role in TREFOIL_CODE]
        for code in (TREFOIL_CODE, swapped, TREFOIL_CODE[2:] + TREFOIL_CODE[:2]):
            for sign in (1, -1):
                diagram = LinkDiagram([code], {0: sign, 1: sign, 2: sign})
                assert LinkDiagram.from_json_dict(diagram.to_json_dict()) == diagram
                check(diagram)
                assert braid_of(diagram) == parse_braid(f"strands=2; {sign} {sign} {sign}")

    def test_split_unions_with_crossing_free_components(self):
        rng = SplitMix64(19)
        closures = seeded_closures(seed=19, count=40, strands=(2, 3), max_length=7)
        unknot = LinkDiagram([[]], {})
        for k in range(20):
            left, right = closures[2 * k][1], closures[2 * k + 1][1]
            union = left.disjoint_union(unknot if k % 3 == 0 else right)
            if k % 2:
                union = union.disjoint_union(unknot)
            union = kinked(union, rng, rng.below(2))
            check(gauss_variant(rng, union))
        assert braid_of(LinkDiagram([[], []], {})) == parse_braid("strands=2;")
        # a reversed component makes a piece need Vogel moves, and every
        # piece's circles are walked as a path after its moves
        links = seeded_links_with_components(19, 20, 2, strands=(2, 3), max_length=8)
        both = 0
        for k in range(10):
            left, right = (reversed_component(d, 1) for _, d in links[2 * k : 2 * k + 2])
            pieces = check(left), check(right)
            union = left.disjoint_union(unknot).disjoint_union(right)
            moves = check(gauss_variant(rng, kinked(union, rng, rng.below(2))))
            assert (moves > 0) == any(pieces)
            both += min(pieces) > 0
        assert both >= 3

    def test_each_scan_charges_its_passages(self):
        for diagram in (cat.diagram("borromean"), antiparallel_twist(8)):
            charges = []
            diagram.braid(charges.append, MAX_STRANDS)
            assert charges[0] == 2 * diagram.num_crossings
            # each move adds two crossings
            assert charges == [charges[0] + 4 * k for k in range(len(charges))]

    def test_too_many_seifert_circles(self):
        # the moves keep the number of circles, so no move is made
        for crossings in (4, 12):
            diagram = antiparallel_twist(crossings)
            charges = []
            assert diagram.braid(charges.append, crossings - 1) is None
            assert charges == [2 * crossings]
            assert diagram.braid(no_charge, crossings) is not None


class TestOneMap:
    """A diagram file is loaded and braided over one planar map: the map of
    the load's planarity check is Vogel's first scan, and only a scan after
    a move, or after the kinks are taken out, builds another."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The calls of `planar.faces`, one entry each."""
        calls = []
        faces = planar.faces

        def counted(components, signs):
            calls.append(len(signs))
            return faces(components, signs)

        monkeypatch.setattr(planar, "faces", counted)
        return calls

    @staticmethod
    def load_and_braid(diagram: LinkDiagram, built: list) -> tuple[int, int]:
        """(maps built, Vogel moves) from loading `diagram`'s JSON to its braid."""
        text, braid = json.dumps(diagram.to_json_dict()), diagram.braid(no_charge, MAX_STRANDS)
        built.clear()
        charges = []
        loaded = LinkDiagram.from_json_dict(json.loads(text))
        assert loaded.braid(charges.append, MAX_STRANDS) == braid
        return len(built), len(charges) - 1

    def test_a_seeded_closure_builds_one_map(self, built):
        kinked = 0
        for word, diagram in seeded_closures(seed=25, count=60, strands=(2, 3, 4)):
            maps, moves = self.load_and_braid(diagram, built)
            assert moves == 0, word.as_text()
            # taking the kinks out changes the code, whose map is built again
            assert maps == 1 + has_kink(diagram), word.as_text()
            kinked += has_kink(diagram)
        assert 0 < kinked < 60

    def test_a_reversed_component_builds_one_map_per_move(self, built):
        total = 0
        for L in (2, 3):
            for word, diagram in seeded_links_with_components(26, 20, L, max_length=10):
                diagram = reversed_component(diagram, L - 1)
                maps, moves = self.load_and_braid(diagram, built)
                assert maps == 1 + has_kink(diagram) + moves, word.as_text()
                total += moves
        assert total > 20
        for crossings in (4, 8):
            maps, moves = self.load_and_braid(antiparallel_twist(crossings), built)
            assert maps == 1 + moves == 1 + crossings**2 // 4 - crossings // 2


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def homfly(argv):
    return run(["homfly", *argv])


class TestHomflyFile:
    def test_catalog_files_print_the_catalog_output(self, tmp_path):
        # the link: label (text) or "link" line (json) is the one difference
        for name in cat.names():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cat.diagram(name).to_json_dict()))
            for fmt in ("text", "json"):
                file_code, file_text = homfly(["--file", str(path), "--format", fmt])
                code, text = homfly(["--catalog", name, "--format", fmt])
                assert file_code == code == EXIT_OK
                drop = ("link: ", '  "link": ')
                assert [line for line in file_text.split("\n") if not line.startswith(drop)] == [
                    line for line in text.split("\n") if not line.startswith(drop)
                ], (name, fmt)

    def test_verify_braids_the_file_as_homfly_does(self, tmp_path, monkeypatch):
        # no skein resolution step, on the file or on any sublink, switch
        # or smoothing that verify derives from it
        def refuse(diagram):
            raise AssertionError("a narrow diagram reached skein resolution")

        monkeypatch.setattr(skein, "is_descending", refuse)
        small = ["--m-max", "2", "--n-max", "2"]
        for name in cat.names():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cat.diagram(name).to_json_dict()))
            file_code, file_text = run(["verify", "all", "--file", str(path), *small])
            code, text = run(["verify", "all", "--catalog", name, *small])
            assert file_code == code == EXIT_OK
            assert file_text.replace(str(path), name) == text, name

    def test_each_distinct_diagram_is_braided_once(self, tmp_path, monkeypatch):
        # a braided diagram is memoized under its own key, so verify braids
        # each distinct diagram it derives once (24 for the Borromean rings)
        braid, keys = LinkDiagram.braid, []

        def counted(diagram, charge, max_strands):
            keys.append(diagram.canonical_key())
            return braid(diagram, charge, max_strands)

        monkeypatch.setattr(LinkDiagram, "braid", counted)
        small = ["--m-max", "2", "--n-max", "2"]
        torus = "strands=2;" + " 1" * 120
        links = [(name, cat.diagram(name), ["--catalog", name]) for name in ("borromean", "t26")]
        links.append((torus, close_braid(parse_braid(torus)), ["--braid", torus]))
        for label, diagram, source in links:
            path = tmp_path / "link.json"
            path.write_text(json.dumps(diagram.to_json_dict()))
            keys.clear()
            file_code, file_text = run(["verify", "all", "--file", str(path), *small])
            assert len(keys) == len(set(keys)) > 1, label
            code, text = run(["verify", "all", *source, *small])
            assert file_code == code == EXIT_OK
            assert file_text.replace(str(path), label) == text, label

    def test_braiding_is_charged_to_the_node_budget(self, tmp_path, capsys):
        # 62 Seifert circles on 360 crossings are few enough to braid, and
        # the antiparallel twist takes 870 moves
        torus = close_braid(parse_braid(f"strands=2; {' 1' * 300}"))
        path = tmp_path / "union.json"
        path.write_text(json.dumps(torus.disjoint_union(antiparallel_twist(60)).to_json_dict()))
        start = time.perf_counter()
        code, _ = homfly(["--file", str(path), "--max-nodes", "20000"])
        assert code == EXIT_RESOURCE
        assert time.perf_counter() - start < 5
        assert capsys.readouterr().err == "error: node budget of 20000 exceeded\n"

    def test_wide_diagrams_are_resolved_as_they_stand(self, tmp_path, capsys):
        # braided, the 12 Seifert circles of the antiparallel twist make a
        # 12-strand word whose trace exceeds the default budget
        diagram = antiparallel_twist(12)
        path = tmp_path / "antiparallel12.json"
        path.write_text(json.dumps(diagram.to_json_dict()))
        start = time.perf_counter()
        code, text = homfly(["--file", str(path)])
        assert code == EXIT_OK and time.perf_counter() - start < 10
        assert f"homfly: {homfly_value(diagram)}" in text.split("\n")

    def test_twenty_thousand_kinks(self, tmp_path):
        # the kinks are a power of t: no strand, no stabilization, no move
        obj = close_braid(parse_braid("strands=2; 1 1 1")).to_json_dict()
        for cid in range(3, 20003):
            sign = 1 if cid % 3 else -1
            obj["components"][0] += [[cid, "o"], [cid, "u"]]
            pi = len(obj["components"][0]) - 2
            obj["crossings"].append({"id": cid, "sign": sign, "over": [0, pi], "under": [0, pi + 1]})
        path = tmp_path / "kinks20000.json"
        path.write_text(json.dumps(obj))
        start = time.perf_counter()
        code, text = homfly(["--file", str(path), "--max-nodes", "100"])
        assert code == EXIT_OK and time.perf_counter() - start < 10
        assert "writhe: 6669 " in text

    def test_eighty_kinks(self, tmp_path, capsys):
        diagram = kinked(close_braid(parse_braid("strands=3; 1 -2 1 -2")), SplitMix64(80), 80)
        path = tmp_path / "kinks80.json"
        path.write_text(json.dumps(diagram.to_json_dict()))
        start = time.perf_counter()
        assert homfly(["--file", str(path), "--max-nodes", "5"])[0] == EXIT_RESOURCE
        assert capsys.readouterr().err == "error: node budget of 5 exceeded\n"
        code, text = homfly(["--file", str(path)])
        assert code == EXIT_OK and f"writhe: {diagram.writhe()} " in text
        assert time.perf_counter() - start < 5
