"""Diagram model: parsing, braid closure, surgeries, and bookkeeping."""

import json
import re
from collections import Counter

import pytest

from homflypt import (
    OVER,
    UNDER,
    ClosedBraid,
    DiagramError,
    EmptySelection,
    GeneratorOutOfRange,
    LinkDiagram,
    ParseError,
    SplitMix64,
    UnknownCrossing,
    close_braid,
    parse_braid,
    random_braid,
)
from homflypt import catalog as cat
from homflypt import links
from homflypt.links import MAX_STRANDS

from conftest import reversed_component, seeded_closures

TREFOIL_CODE = [(0, OVER), (1, UNDER), (2, OVER), (0, UNDER), (1, OVER), (2, UNDER)]
# (components, signs) of signed Gauss codes that no plane diagram realizes;
# the constructor refuses each, so they stay raw data
NON_PLANAR = (
    ([[(0, OVER), (1, UNDER), (0, UNDER), (1, OVER)]], {0: 1, 1: 1}),
    ([TREFOIL_CODE], {0: 1, 1: -1, 2: 1}),
    # strands=3; -2 -1 -2 closed, with the last sign flipped
    (
        [[(1, UNDER), (2, UNDER), (0, OVER), (1, OVER)], [(0, UNDER), (2, OVER)]],
        {0: -1, 1: -1, 2: 1},
    ),
)
NOT_PLANAR = "the signed Gauss code is not planar"


def gauss_json(components, signs) -> dict:
    """The diagram JSON of a signed Gauss code, written without building a diagram."""
    sites: dict[int, dict[str, list[int]]] = {}
    for ci, comp in enumerate(components):
        for pi, (cid, role) in enumerate(comp):
            sites.setdefault(cid, {})[role] = [ci, pi]
    return {
        "components": [[[cid, role] for cid, role in comp] for comp in components],
        "crossings": [
            {"id": cid, "sign": signs[cid], "over": sites[cid][OVER], "under": sites[cid][UNDER]}
            for cid in sorted(signs)
        ],
    }


def random_gauss_code(rng: SplitMix64) -> tuple[list[list[tuple[int, str]]], dict[int, int]]:
    """A random signed Gauss code: 1-7 crossings whose passages are shuffled
    and cut into 2-4 components, some of them possibly crossing-free."""
    crossings = 1 + rng.below(7)
    passages = [(cid, role) for cid in range(crossings) for role in (OVER, UNDER)]
    for i in range(len(passages) - 1, 0, -1):
        j = rng.below(i + 1)
        passages[i], passages[j] = passages[j], passages[i]
    cuts = sorted(rng.below(len(passages) + 1) for _ in range(1 + rng.below(3)))
    bounds = [0, *cuts, len(passages)]
    components = [passages[a:b] for a, b in zip(bounds, bounds[1:])]
    return components, {cid: 1 if rng.below(2) else -1 for cid in range(crossings)}


class TestParseBraid:
    def test_basic(self):
        word = parse_braid("strands=2; 1 1")
        assert word == ClosedBraid(2, (1, 1))

    def test_negative_letters(self):
        word = parse_braid("strands=3; 1 -2 1 -2 1 -2")
        assert word == ClosedBraid(3, (1, -2, 1, -2, 1, -2))

    def test_out_of_range(self):
        with pytest.raises(GeneratorOutOfRange):
            parse_braid("strands=2; 5")
        with pytest.raises(GeneratorOutOfRange):
            parse_braid("strands=3; 0")

    def test_missing_header(self):
        with pytest.raises(ParseError) as err:
            parse_braid("1 1")
        assert err.value.position == 0

    def test_bad_token_position(self):
        text = "strands=2; 1 x"
        with pytest.raises(ParseError) as err:
            parse_braid(text)
        assert err.value.position == text.index("x")

    def test_empty_word(self):
        assert parse_braid("strands=4;") == ClosedBraid(4, ())

    def test_only_ascii_integers(self):
        # int() would read 1_0 as 10, and \d matches the Arabic-Indic three
        text = "strands=12; 1_0"
        with pytest.raises(ParseError) as err:
            parse_braid(text)
        assert err.value.position == text.index("1_0")
        for text in ("strands=\u0663; 1 2", "strands=3; \u0661"):
            with pytest.raises(ParseError):
                parse_braid(text)
        assert parse_braid("strands=3; +1 -2") == ClosedBraid(3, (1, -2))

    def test_round_trip_text(self):
        word = parse_braid("strands=3; 1 -2 1")
        assert parse_braid(word.as_text()) == word

    def test_messages_and_offsets_match_a_token_scan(self):
        # seeded braid text, mostly malformed, against an oracle that scans
        # the letters token by token as `re.finditer(r"\S+")` finds them
        rng = SplitMix64(1919)
        headers = ("strands=3;", " strands = 4 ;", "\tstrands=05;\n", "strands=1;",
                   "strands=0;", f"strands={MAX_STRANDS + 1};", "strands=;", "strand=3;",
                   "strands=3", "strands=\u0663;", "strands=\uff13;", "strands=2;;", "")
        tokens = ("1", "-1", "2", "-2", "+1", "+2", "007", "-3", "4", "-5", "0", "+3",
                  "--1", "-0", "+-1", "1_0", "x", "1a", "1;", "99999999999999999999",
                  "\u0661", "\uff12", "\u00b2", "-\u0661", "\u00e9")
        spaces = (" ", " ", " ", "\t", "\n", "\r\n", "\u00a0", "\u2003", "\u3000",
                  "\x1c", "\u2028", "", "  ")
        texts = ["strands=3; 1 2 -1 -2", "strands=4;", "strands=2;\u00a0"]
        for _ in range(3000):
            text = headers[rng.below(len(headers))]
            for _ in range(rng.below(7)):
                text += spaces[rng.below(len(spaces))] + tokens[rng.below(len(tokens))]
            if rng.below(3) == 0:
                text += spaces[rng.below(len(spaces))]
            texts.append(text)
        good = 0
        for text in texts:
            expected = _answer(_scan_tokens, text)
            assert _answer(parse_braid, text) == expected, text
            good += expected[0] == "ok"
        assert 100 < good < len(texts) - 1000  # both kinds are well represented


class TestBraidType:
    def test_constructor_refuses_strand_counts_and_generators(self):
        # the exception types and messages of the former BraidWord type
        cases = [
            (0, (), ValueError, "strand count must be positive"),
            (-1, (), ValueError, "strand count must be positive"),
            (3, (1, 0), GeneratorOutOfRange, "generator 0 invalid for 3 strands (at offset 0)"),
            (3, (2, 3), GeneratorOutOfRange, "generator 3 invalid for 3 strands (at offset 0)"),
            (3, (-3, 1), GeneratorOutOfRange, "generator -3 invalid for 3 strands (at offset 0)"),
        ]
        for strands, letters, kind, message in cases:
            with pytest.raises(kind) as err:
                ClosedBraid(strands, letters)
            assert type(err.value) is kind and str(err.value) == message

    def test_parse_braid_refuses_the_same_at_their_offsets(self):
        cases = [
            ("strands=0;", ParseError, "strand count must be at least 1", 8),
            ("strands=-1;", ParseError, "expected a 'strands=N;' header", 0),
            ("strands=3; 1 0", GeneratorOutOfRange, "generator 0 out of range for 3 strands", 13),
            ("strands=3; 2 3", GeneratorOutOfRange, "generator 3 out of range for 3 strands", 13),
            ("strands=3; -3 1", GeneratorOutOfRange, "generator -3 out of range for 3 strands", 11),
        ]
        for text, kind, message, offset in cases:
            with pytest.raises(kind) as err:
                parse_braid(text)
            assert type(err.value) is kind, text
            assert str(err.value) == f"{message} (at offset {offset})"
            assert err.value.position == offset

    def test_equality_and_hash_go_by_strand_count_and_letters(self):
        word = ClosedBraid(3, (1, -2))
        same = parse_braid("strands=3;  +1 -2")
        assert word == same and hash(word) == hash(same)
        assert word.switch_crossing(0).switch_crossing(0) == word
        for other in (ClosedBraid(4, (1, -2)), ClosedBraid(3, (1, 2)), ClosedBraid(3, (1,))):
            assert word != other
        assert word != close_braid(word) and word != (3, (1, -2))
        assert len({word, same, ClosedBraid(4, (1, -2)), ClosedBraid(3, ())}) == 3
        assert repr(word) == "ClosedBraid(strand_count=3, letters=(1, -2))"
        with pytest.raises(AttributeError):
            word.letters = (1,)
        assert word.letters == (1, -2) and hash(word) == hash(same)

    def test_former_name_is_the_braid_type(self):
        assert links.BraidWord is ClosedBraid

    def test_text_round_trip_on_seeded_words(self):
        rng = SplitMix64(2020)
        words = [parse_braid("strands=1;"), ClosedBraid(1, ()), ClosedBraid(5, ())]
        words += [random_braid(rng, 2 + rng.below(5), rng.below(15)) for _ in range(300)]
        assert words[0].as_text() == "strands=1;"
        for word in words:
            assert parse_braid(word.as_text()) == word, word


class TestCloseBraid:
    def test_hopf(self):
        d = close_braid(ClosedBraid(2, (1, 1)))
        assert d.num_components == 2
        assert d.num_crossings == 2
        assert all(s == 1 for s in d.signs.values())

    def test_trefoil(self):
        d = close_braid(ClosedBraid(2, (1, 1, 1)))
        assert d.num_components == 1
        assert d.num_crossings == 3

    def test_borromean(self):
        d = close_braid(ClosedBraid(3, (1, -2, 1, -2, 1, -2)))
        assert d.num_components == 3
        assert d.num_crossings == 6

    def test_component_count_matches_permutation_cycles(self):
        for word, diagram in seeded_closures(seed=101, count=40):
            # recompute cycle count by walking the permutation directly
            pos = list(range(word.strand_count))
            for letter in word.letters:
                k = abs(letter) - 1
                pos[k], pos[k + 1] = pos[k + 1], pos[k]
            succ = {line: k for k, line in enumerate(pos)}
            seen, cycles = set(), 0
            for start in range(word.strand_count):
                if start in seen:
                    continue
                cycles += 1
                line = start
                while line not in seen:
                    seen.add(line)
                    line = succ[line]
            assert diagram.num_components == cycles


class TestCounts:
    def test_writhe(self, catalog_diagrams):
        assert catalog_diagrams["hopf+"].writhe() == 2
        assert catalog_diagrams["trefoil"].writhe() == 3
        assert LinkDiagram([], {}).writhe() == 0

    def test_self_writhe(self, catalog_diagrams):
        hopf = catalog_diagrams["hopf+"]
        assert hopf.self_writhe(0) == 0
        assert hopf.self_writhe(1) == 0
        assert catalog_diagrams["trefoil"].self_writhe(0) == 3
        borr = catalog_diagrams["borromean"]
        assert [borr.self_writhe(i) for i in range(3)] == [0, 0, 0]
        with pytest.raises(IndexError):
            hopf.self_writhe(2)

    def test_linking_number(self, catalog_diagrams):
        hopf = catalog_diagrams["hopf+"]
        assert hopf.linking_number(0, 1) == 1
        assert cat.diagram("unlink2").linking_number(0, 1) == 0
        borr = catalog_diagrams["borromean"]
        assert borr.linking_number(0, 1) == 0
        assert borr.linking_number(0, 2) == 0
        assert borr.linking_number(1, 2) == 0

    def test_linking_number_errors(self, catalog_diagrams):
        hopf = catalog_diagrams["hopf+"]
        with pytest.raises(ValueError):
            hopf.linking_number(0, 0)
        with pytest.raises(IndexError):
            hopf.linking_number(0, 5)
        # two components that cross once: no plane diagram has them
        with pytest.raises(DiagramError, match=NOT_PLANAR):
            LinkDiagram([((0, OVER),), ((0, UNDER),)], {0: 1})

    def test_total_linking(self, catalog_diagrams):
        assert catalog_diagrams["hopf+"].total_linking() == 1
        assert catalog_diagrams["trefoil"].total_linking() == 0
        assert catalog_diagrams["t24"].total_linking() == 2

    def test_total_linking_is_the_pairwise_sum(self):
        for _, diagram in seeded_closures(seed=56, count=60, strands=(2, 3, 4, 5)):
            pairs = range(diagram.num_components)
            pairwise = sum(
                diagram.linking_number(a, b) for a in pairs for b in pairs if a < b
            )
            assert diagram.total_linking() == pairwise
        with pytest.raises(DiagramError, match=NOT_PLANAR):
            LinkDiagram([((0, OVER),), ((0, UNDER),), ()], {0: 1})

    def test_odd_crossing_counts_are_not_planar(self):
        # two closed curves in the plane cross an even number of times, so
        # the planarity check refuses every code with an odd signed count
        # between two components, and every linking number halves exactly
        rng = SplitMix64(1811)
        odd = accepted = 0
        for _ in range(4000):
            components, signs = random_gauss_code(rng)
            first: dict[int, int] = {}
            signed: Counter[tuple[int, int]] = Counter()
            for ci, comp in enumerate(components):
                for cid, _ in comp:
                    other = first.setdefault(cid, ci)
                    if other != ci:
                        signed[other, ci] += signs[cid]
            if any(count % 2 for count in signed.values()):
                odd += 1
                with pytest.raises(DiagramError, match=NOT_PLANAR):
                    LinkDiagram(components, signs)
                continue
            try:
                diagram = LinkDiagram(components, signs)
            except DiagramError:
                continue
            accepted += 1
            for (a, b), count in signed.items():
                assert diagram.linking_number(a, b) * 2 == count
            assert diagram.total_linking() * 2 == sum(signed.values())
        assert odd > 1000 and accepted > 100

    def test_writhe_identity_on_random_diagrams(self):
        # writhe == sum of self-writhes + twice the total linking number,
        # on closures and on every surgery applied to them
        rng = SplitMix64(7)
        for word, diagram in seeded_closures(seed=55, count=30):
            variants = [diagram]
            if diagram.num_crossings:
                ids = diagram.crossing_ids()
                cid = ids[rng.below(len(ids))]
                variants.append(diagram.switch_crossing(cid))
                variants.append(diagram.smooth_crossing(cid))
            if diagram.num_components > 1:
                variants.append(diagram.sublink(range(diagram.num_components - 1)))
            for d in variants:
                total = sum(d.self_writhe(i) for i in range(d.num_components))
                assert d.writhe() == total + 2 * d.total_linking()


class TestSurgeries:
    def test_sublink_single_component_of_hopf(self, catalog_diagrams):
        sub = catalog_diagrams["hopf+"].sublink([1])
        assert sub.num_components == 1
        assert sub.num_crossings == 0

    def test_sublink_identity(self, catalog_diagrams):
        borr = catalog_diagrams["borromean"]
        assert borr.sublink(range(3)) == borr

    def test_sublink_of_borromean_pair(self, catalog_diagrams):
        sub = catalog_diagrams["borromean"].sublink([0, 1])
        assert sub.num_components == 2
        assert sum(sub.signs.values()) == 0

    def test_sublink_nested(self):
        for _, diagram in seeded_closures(seed=31, count=20, strands=(3, 4)):
            if diagram.num_components < 3:
                continue
            once = diagram.sublink([0, 1, 2])
            twice = once.sublink([0, 1])
            direct = diagram.sublink([0, 1])
            assert twice == direct

    def test_sublink_preserves_self_writhe(self):
        for _, diagram in seeded_closures(seed=32, count=20, strands=(3, 4)):
            if diagram.num_components < 2:
                continue
            sub = diagram.sublink([0])
            assert sub.self_writhe(0) == diagram.self_writhe(0)

    def test_sublink_errors(self, catalog_diagrams):
        with pytest.raises(EmptySelection):
            catalog_diagrams["hopf+"].sublink([])
        with pytest.raises(IndexError):
            catalog_diagrams["hopf+"].sublink([5])

    def test_switch_is_involution(self, catalog_diagrams):
        tref = catalog_diagrams["trefoil"]
        assert tref.switch_crossing(1).switch_crossing(1) == tref

    def test_switch_writhe(self, catalog_diagrams):
        hopf = catalog_diagrams["hopf+"]
        assert sorted(hopf.switch_crossing(0).signs.values()) == [-1, 1]
        assert catalog_diagrams["trefoil"].switch_crossing(0).writhe() == 1

    def test_switch_unknown(self, catalog_diagrams):
        with pytest.raises(UnknownCrossing):
            catalog_diagrams["hopf+"].switch_crossing(99)

    def test_smooth_hopf(self, catalog_diagrams):
        smoothed = catalog_diagrams["hopf+"].smooth_crossing(0)
        assert smoothed.num_components == 1
        assert smoothed.num_crossings == 1

    def test_smooth_trefoil_gives_hopf_diagram(self, catalog_diagrams):
        smoothed = catalog_diagrams["trefoil"].smooth_crossing(0)
        assert smoothed.num_components == 2
        assert smoothed.num_crossings == 2
        assert smoothed.total_linking() == 1

    def test_smooth_changes_component_count_by_one(self):
        for _, diagram in seeded_closures(seed=77, count=30):
            for cid in diagram.crossing_ids():
                delta = diagram.smooth_crossing(cid).num_components - diagram.num_components
                assert delta == (1 if diagram.is_self_crossing(cid) else -1)

    def test_union(self, catalog_diagrams):
        u = cat.diagram("unknot")
        two = u.disjoint_union(u)
        assert two.num_components == 2 and two.num_crossings == 0
        d = catalog_diagrams["trefoil"].disjoint_union(catalog_diagrams["hopf+"])
        assert d.num_components == 3 and d.num_crossings == 5
        empty = LinkDiagram([], {})
        assert catalog_diagrams["trefoil"].disjoint_union(empty) == catalog_diagrams["trefoil"]

    def test_add_kink(self, catalog_diagrams):
        tref = catalog_diagrams["trefoil"]
        kinked = tref.add_kink(0, -1)
        assert kinked.num_crossings == 4
        assert kinked.self_writhe(0) == 2

    def test_surgery_bookkeeping_stays_valid(self):
        # every produced diagram revalidates: each crossing once over, once under
        rng = SplitMix64(13)
        for _, diagram in seeded_closures(seed=99, count=25):
            d = diagram
            for _ in range(4):
                ids = d.crossing_ids()
                if not ids:
                    break
                cid = ids[rng.below(len(ids))]
                d = d.switch_crossing(cid) if rng.below(2) else d.smooth_crossing(cid)
                # the public constructor always validates, and the trusted
                # surgeries already hold its normalized data
                assert LinkDiagram(d.components, d.signs) == d


class TestCanonicalKey:
    def test_relabeling_invariance(self, catalog_diagrams):
        hopf = catalog_diagrams["hopf+"]
        relabeled = LinkDiagram(
            [[(7, r) if c == 0 else (3, r) for c, r in comp] for comp in hopf.components],
            {7: 1, 3: 1},
        )
        assert hopf.canonical_key() == relabeled.canonical_key()

    def test_distinguishes_links(self, catalog_diagrams):
        assert catalog_diagrams["hopf+"].canonical_key() != cat.diagram("unlink2").canonical_key()

    def test_stable_format(self, catalog_diagrams):
        # pinned so the key is the same on every run: no randomized hashing
        # or iteration order enters it
        assert catalog_diagrams["hopf+"].canonical_key() == (2, 1, 2, -1, 0, 3, -1, 1, 1)

    def test_equality_matches_the_byte_key(self, catalog_diagrams):
        # two diagrams share an integer key exactly when they share the byte
        # key the engine was first memoized on, kept here as the oracle
        def byte_key(d):
            label = {}
            parts = []
            for comp in d.components:
                bits = []
                for cid, role in comp:
                    if cid not in label:
                        label[cid] = len(label)
                    bits.append(f"{label[cid]}{role}")
                parts.append(",".join(bits))
            sign_str = "".join(
                "+" if d.signs[cid] > 0 else "-"
                for cid, _ in sorted(label.items(), key=lambda kv: kv[1])
            )
            return f"{len(d.components)}#{'|'.join(parts)}#{sign_str}".encode("ascii")

        rng = SplitMix64(2024)
        roots = list(catalog_diagrams.values())
        roots += [d for _, d in seeded_closures(seed=404, count=60, strands=(2, 3, 4, 5))]
        roots += [LinkDiagram([()] * n, {}) for n in range(3)]
        corpus = []
        for d in roots:
            ids = d.crossing_ids()
            new_ids = [3 * i + 5 for i in range(len(ids))]
            for i in range(len(new_ids) - 1, 0, -1):
                j = rng.below(i + 1)
                new_ids[i], new_ids[j] = new_ids[j], new_ids[i]
            relabel = dict(zip(ids, new_ids))
            corpus.append(d)
            corpus.append(
                LinkDiagram(
                    [[(relabel[c], r) for c, r in comp] for comp in d.components],
                    {relabel[c]: s for c, s in d.signs.items()},
                )
            )
            corpus += [d.switch_crossing(cid) for cid in ids]
            corpus += [d.smooth_crossing(cid) for cid in ids]
            corpus += [
                d.rotate_base_point(ci, shift)
                for ci, comp in enumerate(d.components)
                for shift in range(1, len(comp))
            ]
        classes = {(byte_key(d), d.canonical_key()) for d in corpus}
        assert len({old for old, _ in classes}) == len(classes)
        assert len({new for _, new in classes}) == len(classes)
        assert len(classes) < len(corpus)  # some keys are shared

    def test_never_equals_a_braid_key(self):
        diagram_keys = set()
        braid_keys = set()
        for entry in cat.CATALOG:
            diagram_keys.add(close_braid(entry.word()).canonical_key())
            braid_keys.add(entry.word().canonical_key())
        for n in range(1, 60):
            diagram_keys.add(LinkDiagram([()] * n, {}).canonical_key())
            braid_keys.add(parse_braid(f"strands={n};").canonical_key())
        assert all(isinstance(item, int) for key in diagram_keys for item in key)
        assert not diagram_keys & braid_keys


class TestJson:
    def test_round_trip(self, catalog_diagrams):
        for name in ("unknot", "hopf+", "borromean", "trefoil-hopf+"):
            d = catalog_diagrams[name]
            again = LinkDiagram.from_json_dict(json.loads(json.dumps(d.to_json_dict())))
            assert again == d

    def test_malformed_inputs_give_paths(self):
        with pytest.raises(DiagramError, match=r"\$"):
            LinkDiagram.from_json_dict([])
        with pytest.raises(DiagramError, match=r"components\[0\]\[0\]"):
            LinkDiagram.from_json_dict({"components": [[[0, "x"]]], "crossings": []})
        with pytest.raises(DiagramError, match=r"crossings\[0\]\.sign"):
            LinkDiagram.from_json_dict(
                {"components": [], "crossings": [{"id": 0, "sign": 2, "over": [0, 0], "under": [0, 0]}]}
            )
        good = cat.diagram("hopf+").to_json_dict()
        bad = json.loads(json.dumps(good))
        bad["crossings"][0]["over"] = [0, 1]
        with pytest.raises(DiagramError, match=r"crossings\[0\]\.over"):
            LinkDiagram.from_json_dict(bad)

    def test_integers_are_not_bools_or_floats(self):
        # JSON true passes isinstance(x, int) and 1.0 == 1; neither is an integer
        def kink(id_=0, sign=1, over=(0, 0), passage=0):
            return {
                "components": [[[passage, "o"], [passage, "u"]]],
                "crossings": [{"id": id_, "sign": sign, "over": list(over), "under": [0, 1]}],
            }

        assert LinkDiagram.from_json_dict(kink()).num_crossings == 1
        cases = [
            (kink(True, True, passage=True), r"^components\[0\]\[0\]:"),
            (kink(True), r"^crossings\[0\]\.id:"),
            (kink(sign=1.0), r"^crossings\[0\]\.sign:"),
            (kink(sign=True), r"^crossings\[0\]\.sign:"),
            (kink(over=(False, 0)), r"^crossings\[0\]\.over:"),
            (kink(over=(0, 0.0)), r"^crossings\[0\]\.over:"),
        ]
        for obj, path in cases:
            with pytest.raises(DiagramError, match=path):
                LinkDiagram.from_json_dict(json.loads(json.dumps(obj)))

    def test_reference_errors_name_the_list_index(self):
        # ids 7 and 3 in a 2-element list: the path must be the list index
        good = {
            "components": [[[7, "o"], [3, "u"]], [[7, "u"], [3, "o"]]],
            "crossings": [
                {"id": 7, "sign": 1, "over": [0, 0], "under": [1, 0]},
                {"id": 3, "sign": 1, "over": [1, 1], "under": [0, 1]},
            ],
        }
        assert LinkDiagram.from_json_dict(good).num_crossings == 2
        bad = json.loads(json.dumps(good))
        bad["crossings"][1]["under"] = [0, 0]
        with pytest.raises(DiagramError, match=r"^crossings\[1\]\.under:"):
            LinkDiagram.from_json_dict(bad)

    def test_non_planar_gauss_codes_are_rejected(self):
        # genus 1: the two-crossing code whose value would give
        # P(t, t - 1/t) = 91/81, and the trefoil's code with its middle sign
        # flipped, whose value would pass the ring and P(t, t - 1/t) = 1 tests
        for components, signs in NON_PLANAR:
            with pytest.raises(DiagramError, match=f"^{NOT_PLANAR}"):
                LinkDiagram(components, signs)
            with pytest.raises(DiagramError, match=rf"^\$: {NOT_PLANAR}"):
                LinkDiagram.from_json_dict(json.loads(json.dumps(gauss_json(components, signs))))
        trefoil = LinkDiagram([TREFOIL_CODE], {0: 1, 1: 1, 2: 1})
        assert LinkDiagram.from_json_dict(gauss_json([TREFOIL_CODE], trefoil.signs)) == trefoil

    def test_braid_closures_and_their_surgeries_are_planar(self):
        # the surgeries build their diagrams without the constructor's
        # planarity check, so each must keep a plane diagram planar; a
        # closure with a component reversed needs Vogel moves to braid
        rng = SplitMix64(58)
        other = cat.diagram("trefoil-hopf+")
        for _, closure in seeded_closures(seed=57, count=80, strands=(2, 3, 4, 5), max_length=14):
            flipped = reversed_component(closure, rng.below(closure.num_components))
            for diagram in (closure, flipped):
                ci = rng.below(diagram.num_components)
                variants = [
                    diagram,
                    diagram.sublink([0]),
                    diagram.add_kink(ci, 1 - 2 * rng.below(2), rng.below(2) == 0),
                    diagram.rotate_base_point(ci, 1 + rng.below(5)),
                    diagram.disjoint_union(other),
                    other.disjoint_union(diagram),
                ]
                for cid in diagram.crossing_ids()[:2]:
                    variants += [diagram.switch_crossing(cid), diagram.smooth_crossing(cid)]
                for d in variants:
                    assert LinkDiagram(d.components, d.signs) == d
                    assert LinkDiagram.from_json_dict(d.to_json_dict()) == d

    def test_validation_catches_broken_diagrams(self):
        with pytest.raises(DiagramError):
            LinkDiagram([((0, OVER),)], {0: 1})  # missing under passage
        with pytest.raises(DiagramError):
            LinkDiagram([((0, OVER), (0, OVER))], {0: 1})
        with pytest.raises(DiagramError):
            LinkDiagram([((0, OVER), (0, UNDER))], {0: 2})


class TestRandomBraid:
    def test_determinism(self):
        a = random_braid(SplitMix64(42), 3, 10)
        b = random_braid(SplitMix64(42), 3, 10)
        assert a == b

    def test_rejects_single_strand(self):
        with pytest.raises(ValueError):
            random_braid(SplitMix64(1), 1, 5)


def _answer(parse, text: str) -> tuple:
    """What `parse` makes of `text`: its word, or its error's type, message
    and offset."""
    try:
        return ("ok", parse(text))
    except ParseError as exc:
        return (type(exc).__name__, str(exc), exc.position)


def _scan_tokens(text: str) -> ClosedBraid:
    """`parse_braid` as a scan of one token after another: the oracle of
    its messages and offsets."""
    m = re.match(r"\s*strands\s*=\s*([0-9]+)\s*;", text)
    if not m:
        raise ParseError("expected a 'strands=N;' header", 0)
    strands = int(m.group(1))
    if strands > MAX_STRANDS:
        raise ParseError(f"strand count must be at most {MAX_STRANDS}", m.start(1))
    if strands < 1:
        raise ParseError("strand count must be at least 1", m.start(1))
    letters = []
    for tok in re.finditer(r"\S+", text[m.end():]):
        pos = m.end() + tok.start()
        if not re.fullmatch(r"[+-]?[0-9]+", tok.group()):
            raise ParseError(f"expected a signed integer, got {tok.group()!r}", pos)
        value = int(tok.group())
        if value == 0 or abs(value) >= strands:
            raise GeneratorOutOfRange(
                f"generator {value} out of range for {strands} strands", pos
            )
        letters.append(value)
    return ClosedBraid(strands, tuple(letters))
