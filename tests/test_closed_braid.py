"""Braid-level links and the Hecke trace behind `verify`: every surgery and
query of `ClosedBraid` against the `close_braid` diagram, the braid moves of
`ClosedBraid.pieces` against the trace of the unsimplified word, the trace
against skein resolution, the module functions on braids, and every link
target's reports on braids against the same reports on diagrams."""

import io
import itertools
import json
import time

import pytest

from homflypt import (
    BivarLaurent,
    ClosedBraid,
    EmptySelection,
    LinkDiagram,
    ResourceLimitExceeded,
    SkeinEngine,
    SplitMix64,
    T,
    UnknownCrossing,
    close_braid,
    coeff_table,
    framed_homfly,
    homfly,
    intermediate_F,
    parse_braid,
    random_braid,
)
from homflypt import catalog as cat
from homflypt import cli, skein
from homflypt.hecke import framed_trace
from homflypt.identities import _F_partition_sum

from conftest import no_charge, seeded_closures

CHAIN5 = "strands=5; 1 1 2 2 3 3 4 4"
# Skein resolution of the reference reports stays fast up to here.
MAX_CROSSINGS = 10


def subsets(n: int):
    for size in range(1, n + 1):
        yield from itertools.combinations(range(n), size)


def pure_words(seed: int, components: int, count: int) -> list[str]:
    """Braids of at most MAX_CROSSINGS letters whose closures have exactly
    `components` components and are not split: a clasp (s*i s*i, or one
    conjugated by an adjacent letter) on every generator, in random order,
    and where there is room, on odd draws, a spare strand joined to its
    neighbour by s*1 s*1 s*1 into one knotted component."""
    rng = SplitMix64(seed)

    def sign() -> int:
        return 1 if rng.below(2) else -1

    words = []
    for _ in range(count):
        spare = 2 * components + 3 <= MAX_CROSSINGS and rng.below(2) == 1
        n = components + spare
        letters = [sign()] * 3 if spare else []
        gens = list(range(1, n))
        for k in range(len(gens) - 1, 0, -1):
            j = rng.below(k + 1)
            gens[k], gens[j] = gens[j], gens[k]
        for left, i in enumerate(gens):
            s = sign()
            room = MAX_CROSSINGS - len(letters) - 2 * (len(gens) - left)
            if n > 2 and room >= 2 and rng.below(2) == 0:
                j = i + 1 if i < n - 1 else i - 1
                t = sign()
                letters += [t * j, s * i, s * i, -t * j]
            else:
                letters += [s * i, s * i]
        words.append(f"strands={n}; " + " ".join(map(str, letters)))
    return words


def corpus() -> list[str]:
    words = [entry.braid for entry in cat.CATALOG]
    for components in range(2, 7):
        words += pure_words(100 + components, components, 6 if components < 6 else 3)
    return words


class TestQueries:
    def test_queries_match_the_diagram(self):
        words = [word for word, _ in seeded_closures(seed=61, count=60, strands=(2, 3, 4, 5))]
        for link in words + [entry.word() for entry in cat.CATALOG]:
            diagram = close_braid(link)
            text = link.as_text()
            assert link.num_components == diagram.num_components, text
            assert link.num_crossings == diagram.num_crossings, text
            assert link.crossing_ids() == diagram.crossing_ids(), text
            assert link.signs == diagram.signs, text
            assert link.writhe() == diagram.writhe(), text
            assert link.total_linking() == diagram.total_linking(), text
            for cid in link.crossing_ids():
                assert link.is_self_crossing(cid) == diagram.is_self_crossing(cid), text
            for a, b in itertools.combinations(range(link.num_components), 2):
                assert link.linking_number(a, b) == diagram.linking_number(a, b), text

    def test_bad_crossing_and_component(self):
        link = parse_braid("strands=2; 1 1")
        for surgery in (link.switch_crossing, link.smooth_crossing, link.is_self_crossing):
            with pytest.raises(UnknownCrossing):
                surgery(2)
        with pytest.raises(EmptySelection):
            link.sublink([])
        with pytest.raises(IndexError):
            link.sublink([2])
        with pytest.raises(ValueError):
            link.linking_number(1, 1)


class TestSurgeries:
    def test_sublinks_close_to_the_diagram_sublinks(self):
        # the closure of the reduced word is the diagram sublink, crossing
        # relabelling aside
        for word in corpus():
            link = parse_braid(word)
            diagram = close_braid(link)
            for subset in subsets(link.num_components):
                reduced = close_braid(link.sublink(subset))
                assert reduced.canonical_key() == diagram.sublink(subset).canonical_key(), (
                    word,
                    subset,
                )

    def test_switch_is_the_diagram_switch(self):
        for link, diagram in seeded_closures(seed=62, count=40, strands=(2, 3, 4)):
            for cid in link.crossing_ids():
                switched = close_braid(link.switch_crossing(cid))
                assert switched == diagram.switch_crossing(cid), link.as_text()

    def test_switched_and_smoothed_values_match_skein(self):
        resolve = SkeinEngine().skein_invariant
        for link, diagram in seeded_closures(seed=63, count=30, strands=(2, 3, 4), max_length=9):
            engine = SkeinEngine()
            for cid in link.crossing_ids():
                assert engine.reduced_invariant(link.switch_crossing(cid)) == resolve(
                    diagram.switch_crossing(cid)
                ), (link.as_text(), cid)
                assert engine.reduced_invariant(link.smooth_crossing(cid)) == resolve(
                    diagram.smooth_crossing(cid)
                ), (link.as_text(), cid)

    def test_union_is_the_diagram_union(self):
        words = [word for word, _ in seeded_closures(seed=64, count=20)]
        for left, right in zip(words, words[1:]):
            union = left.disjoint_union(right)
            expected = close_braid(left).disjoint_union(close_braid(right))
            assert close_braid(union).canonical_key() == expected.canonical_key()


class TestGenericApi:
    def test_no_engine_given_on_braids(self):
        # the module functions build their own engine for either link type
        for entry in cat.CATALOG:
            link = entry.word()
            diagram = close_braid(link)
            for function in (coeff_table, homfly, framed_homfly, intermediate_F):
                assert function(link) == function(diagram), (entry.name, function.__name__)


class TestEngine:
    def test_memo_and_budget_span_the_link(self):
        link = parse_braid(CHAIN5)
        engine = SkeinEngine()
        value = engine.framed_invariant(link)
        one_trace = engine.nodes
        assert engine.framed_invariant(link) == value and engine.nodes == one_trace
        other = link.switch_crossing(0)
        engine.framed_invariant(other)
        both = engine.nodes
        # the budget counts every trace of the engine, not each one alone
        tight = SkeinEngine(max_nodes=both - 1)
        tight.framed_invariant(link)
        with pytest.raises(ResourceLimitExceeded):
            tight.framed_invariant(other)

    def test_F_on_braids_matches_the_partition_sum_on_diagrams(self):
        for word in corpus():
            link = parse_braid(word)
            engine = SkeinEngine()
            value = intermediate_F(link, engine=engine)
            assert value == _F_partition_sum(close_braid(link)), word
            # the second call reads F off the memo: no engine work
            nodes = engine.nodes
            assert intermediate_F(link, engine=engine) == value and engine.nodes == nodes

    def test_F_of_split_unions_is_computed_zero(self):
        # no crossing joins the two sides, so F of the union is zero by the
        # split rule, with no sublink built and nothing traced: the engine
        # is charged only the walk, one node per component set containing
        # component 0 that the crossing graph connects; the partition sum
        # on the diagram computes every sublink's value and must find the
        # same zero
        words = [parse_braid(w) for w in corpus()[:12]]
        for left, right in zip(words, words[1:]):
            union = left.disjoint_union(right)
            engine = SkeinEngine()
            value = intermediate_F(union, engine=engine)
            assert value.poly.is_zero(), (left.as_text(), right.as_text())
            assert engine.nodes == _connected_sets_with_first(union)
            assert value == _F_partition_sum(close_braid(union))


def _connected_sets_with_first(link) -> int:
    """The number of component sets containing component 0 that the
    crossing graph connects, by brute force over all sets."""
    L = link.num_components
    edges = {frozenset(pair[:2]) for pair in link._linking()}
    count = 0
    for size in range(L):
        for rest in itertools.combinations(range(1, L), size):
            members, reached = {0, *rest}, {0}
            while True:
                grown = {v for v in members for u in reached if frozenset((u, v)) in edges}
                if grown <= reached:
                    break
                reached |= grown
            count += reached == members
    return count


def _reports(target: str, link) -> str:
    reports, skipped = cli._link_reports(target, "L", link, 10**7)
    return json.dumps([[r.to_json_dict() for r in reports], skipped], sort_keys=True)


class TestReports:
    @pytest.mark.parametrize("target", list(cli._LINK_TARGETS))
    def test_braid_reports_match_skein_reports(self, target, monkeypatch):
        # no braid for a diagram: the engine resolves every one by skein
        monkeypatch.setattr(LinkDiagram, "braid", lambda diagram, charge, width: None)
        for word in corpus():
            link = parse_braid(word)
            assert _reports(target, link) == _reports(target, close_braid(link)), word

    def test_verify_on_braids_never_runs_skein(self, monkeypatch):
        def refuse(diagram):
            raise AssertionError("a braid input reached skein resolution")

        # every skein resolution step starts by looking for a violating crossing
        monkeypatch.setattr(skein, "is_descending", refuse)
        small = ["--m-max", "2", "--n-max", "2"]
        for link in (["--braid", CHAIN5], ["--catalog", "borromean"]):
            out = io.StringIO()
            assert cli.main(["verify", "all", *link, *small], out=out) == cli.EXIT_OK
            assert "FAIL" not in out.getvalue()


def trace(link) -> BivarLaurent:
    """`framed_trace` of the word as it stands, with no budget, no memo and
    no braid moves: R = Hf / (t - t^-1)."""

    def add(element, w, c):
        total = element.get(w, BivarLaurent.zero()) + c
        if total:
            element[w] = total
        else:
            element.pop(w, None)

    return framed_trace(link, add)


def moved_words(seed: int, count: int) -> list[ClosedBraid]:
    """Seeded words on which the moves of `pieces` apply: a cancelling pair
    inserted inside or around the word, letterless strands added on either
    side, and a single top or bottom letter added on a new strand."""
    rng = SplitMix64(seed)
    words = []
    for _ in range(count):
        n = 2 + rng.below(3)
        letters = list(random_braid(rng, n, 2 + rng.below(6)).letters)
        x = (1 + rng.below(n - 1)) * (1 if rng.below(2) else -1)
        where = rng.below(3)
        if where == 0:
            k = rng.below(len(letters) + 1)
            letters[k:k] = [x, -x]
        elif where == 1:
            letters = [x] + letters + [-x]
        else:
            letters = [x, -x] + letters
        left, right = rng.below(3), rng.below(3)
        letters = [v + left if v > 0 else v - left for v in letters]
        n += left + right
        sign = 1 if rng.below(2) else -1
        if rng.below(2):
            letters.insert(rng.below(len(letters) + 1), sign * n)  # a new top strand
        else:
            letters = [v + 1 if v > 0 else v - 1 for v in letters]
            letters.insert(rng.below(len(letters) + 1), sign)  # a new bottom strand
        words.append(ClosedBraid(n + 1, tuple(letters)))
    return words


def summed_words(seed: int, count: int) -> list[ClosedBraid]:
    """Seeded words a*b whose closures are connected sums: a on k strands
    and b on the strands k.., with commuting neighbours swapped at random
    so that a's and b's letters interleave, then a cancelling pair
    inserted and the word rotated."""
    rng = SplitMix64(seed)
    words = []
    for _ in range(count):
        k, m = 2 + rng.below(3), 2 + rng.below(3)
        a = random_braid(rng, k, 3 + rng.below(6)).letters
        b = random_braid(rng, m, 3 + rng.below(6)).letters
        letters = list(a) + [x + k - 1 if x > 0 else x - k + 1 for x in b]
        for _ in range(3 * len(letters)):
            i = rng.below(len(letters) - 1)
            if abs(abs(letters[i]) - abs(letters[i + 1])) >= 2:
                letters[i], letters[i + 1] = letters[i + 1], letters[i]
        x = (1 + rng.below(k + m - 2)) * (1 if rng.below(2) else -1)
        i = rng.below(len(letters) + 1)
        letters[i:i] = [x, -x]
        i = rng.below(len(letters))
        words.append(ClosedBraid(k + m - 1, tuple(letters[i:] + letters[:i])))
    return words


def product_of_pieces(link) -> BivarLaurent:
    """t**power * prod R(piece) * (t - t^-1)**(pieces - 1 - cuts), each
    piece traced as it stands."""
    power, cuts, pieces = link.pieces(no_charge)
    value = (T - T**-1) ** (len(pieces) - 1 - cuts)
    for piece in pieces:
        value = value * trace(piece)
    return value.shift(0, power)


class TestPieces:
    def words(self) -> list[ClosedBraid]:
        words = [word for word, _ in seeded_closures(seed=65, count=80, strands=(2, 3, 4, 5))]
        words += moved_words(66, 80)
        words += [entry.word() for entry in cat.CATALOG]
        left, right = words[:20], words[20:40]
        words += [a.disjoint_union(b) for a, b in zip(left, right)]
        for text in (CHAIN5, "strands=6; 1 1 -2 -2 3 3 4 4 5 5 1"):
            link = parse_braid(text)
            for k in link.crossing_ids():
                words += [link.switch_crossing(k), link.smooth_crossing(k)]
            for subset in subsets(link.num_components):
                words.append(link.sublink(subset))
        words += [ClosedBraid(n, ()) for n in range(1, 6)]
        words += summed_words(67, 80)
        words.append(parse_braid("strands=5; 1 2 1 2 -3 1 4 -3 4"))
        return words

    def test_pieces_multiply_to_the_trace_of_the_word(self):
        moved = cut = 0
        for link in self.words():
            _, cuts, pieces = link.pieces(no_charge)
            moved += pieces != [link]
            cut += cuts > 0
            assert product_of_pieces(link) == trace(link), link.as_text()
            assert SkeinEngine().reduced_invariant(link) == trace(link), link.as_text()
        assert moved > 300 and cut > 80

    def test_unknot_is_one_up_to_its_writhe(self):
        # the closure of s1 s2 ... s(n-1) is the unknot with writhe n - 1
        for n in range(1, 6):
            link = ClosedBraid(n, tuple(range(1, n)))
            assert trace(link) == T ** (n - 1) == SkeinEngine().reduced_invariant(link), n
            assert SkeinEngine().framed_invariant(link) == T ** (n - 1) * (T - T**-1), n

    def test_pieces_are_irreducible(self):
        for word in self.words():
            for piece in word.pieces(no_charge)[2]:
                assert piece.pieces(no_charge) == (0, 0, [piece]), word.as_text()
                assert piece.num_components >= 1

    def test_each_move(self):
        def pieces(text):
            power, cuts, parts = parse_braid(text).pieces(no_charge)
            return power, cuts, [(p.strand_count, p.letters) for p in parts]

        trefoil = (2, (1, 1, 1))
        hopf = (2, (1, 1))
        assert pieces("strands=2; 1 1 1") == (0, 0, [trefoil])
        assert pieces("strands=2; 1 -1 1 1 1") == (0, 0, [trefoil])
        assert pieces("strands=2; -1 1 1 1 1") == (0, 0, [trefoil])  # cyclic
        # cyclic cancellation, then a split off the letterless third strand
        assert pieces("strands=3; 2 1 1 1 -2") == (0, 0, [(1, ()), trefoil])
        assert pieces("strands=4;") == (0, 0, [(1, ())] * 4)
        assert pieces("strands=5; 2 2 2") == (0, 0, [(1, ())] * 3 + [(2, (1, 1, 1))])
        # a cancelling pair, a split into a Hopf link, a curl and a letterless
        # strand, and the curl destabilized
        assert pieces("strands=5; 1 1 4 -4 4") == (1, 0, [(1, ()), hopf, (1, ())])
        assert pieces("strands=3; 1 1 1 -2") == (-1, 0, [trefoil])  # top letter
        assert pieces("strands=3; 2 -1 2 2") == (-1, 0, [trefoil])  # bottom letter
        assert pieces("strands=4; 1 2 3") == (3, 0, [(1, ())])
        # connected sums: the Hopf chain falls into Hopf links, and the
        # interleaved word is cut at generator 3 into a and b
        assert pieces("strands=3; 1 1 2 2") == (0, 1, [hopf, hopf])
        assert pieces("strands=5; 1 1 2 2 3 3 4 4") == (0, 3, [hopf] * 4)
        assert pieces("strands=5; 1 2 1 2 -3 1 4 -3 4") == (
            0,
            1,
            [(3, (1, 2, 1, 2, 1)), (3, (-1, 2, -1, 2))],
        )
        # destabilization comes before the cut, which would leave an unknot
        assert pieces("strands=3; -2 -2 1") == (1, 0, [(2, (-1, -1))])

    def test_memo_holds_the_link_and_its_pieces_only(self):
        link = parse_braid("strands=6; 1 -1 2 1 1 1 4 4 4 -5 4")
        engine = SkeinEngine()
        engine.framed_invariant(link)
        _, _, pieces = link.pieces(no_charge)
        assert set(engine._memo) == {link.canonical_key()} | {p.canonical_key() for p in pieces}

    def test_products_are_charged_per_term_written(self):
        # the n-strand unlink is n unknots: one 1-node trace of R = 1,
        # memoized, and the split factor (t - t^-1)**(n - 1), multiplied out
        # in n - 2 products whose results have 3, 4, ..., n terms
        for n in range(1, 40):
            engine = SkeinEngine()
            engine.framed_invariant(parse_braid(f"strands={n};"))
            assert engine.nodes == 1 + sum(k + 1 for k in range(2, n)), n

    def test_crossing_free_diagram_costs_the_braid_unlink(self):
        # a descending diagram's unlink value is multiplied out one factor at
        # a time and charged like the braid's products of unknots; the
        # engine would braid the diagram, so it is resolved directly
        for n in range(1, 40):
            diagram, braid = SkeinEngine(), SkeinEngine()
            value = diagram.skein_invariant(LinkDiagram([()] * n, {}))
            assert value == braid.reduced_invariant(parse_braid(f"strands={n};"))
            assert diagram.nodes == braid.nodes, n

    def test_stabilized_unknot_has_no_recursion(self):
        out = io.StringIO()
        word = "strands=1500; " + " ".join(str(i) for i in range(1, 1500))
        assert cli.main(["homfly", "--braid", word], out=out) == cli.EXIT_OK
        assert "homfly: 1\n" in out.getvalue()

    def test_each_pass_of_the_moves_is_charged_its_letters(self, capsys):
        charges = []
        assert parse_braid("strands=4; 1 2 3").pieces(charges.append)[0] == 3
        assert charges == [3, 2, 1, 0]
        # a destabilization a pass, so the chain would cost about 5 * 10^7
        # nodes: refused in the first pass
        word = "strands=10001; " + " ".join(str(i) for i in range(1, 10001))
        start = time.perf_counter()
        code = cli.main(["homfly", "--braid", word, "--max-nodes", "10"], out=io.StringIO())
        assert code == cli.EXIT_RESOURCE and time.perf_counter() - start < 2
        assert capsys.readouterr().err == "error: node budget of 10 exceeded\n"

    @pytest.mark.parametrize("strands, code", [(1000, 0), (3000, 0), (6000, 2)])
    def test_unlink_exit_codes_under_the_default_budget(self, strands, code, capsys):
        # the exit codes of the trace of the whole word, which writes about
        # as many terms; the 6000-strand unlink exceeds the 10^7 default
        out = io.StringIO()
        assert cli.main(["homfly", "--braid", f"strands={strands};"], out=out) == code
        if code:
            assert capsys.readouterr().err == "error: node budget of 10000000 exceeded\n"
