"""The decomposition-sum invariant F and the coefficient identities."""

import io
import time
import tracemalloc
from fractions import Fraction

import pytest

from homflypt import (
    BivarLaurent,
    FValue,
    GOutOfRange,
    LinkDiagram,
    NotInterComponent,
    ResourceLimitExceeded,
    SkeinEngine,
    SplitMix64,
    T,
    VerificationReport,
    Z,
    close_braid,
    coeff_table,
    framed_homfly,
    intermediate_F,
    parse_braid,
    verify_prop31,
    verify_skein_F,
    verify_split_F,
    verify_thm13,
    verify_thm13_all,
    verify_thm14,
    verify_thm15,
)
from homflypt import catalog as cat
from homflypt import cli, skein
from homflypt.identities import _F_partition_sum

from conftest import seeded_links_with_components

CHAIN4 = "strands=4; 1 1 2 2 3 3"  # 4-component chain of Hopf-linked circles


class TestIntermediateF:
    def test_knot_equals_unframed_invariant(self, catalog_diagrams):
        for name in ("trefoil", "figure8", "granny"):
            diagram = catalog_diagrams[name]
            value = intermediate_F(diagram)
            assert value.poly == framed_homfly(diagram).shift(-1), name

    def test_split_two_unknots_vanishes(self):
        u = cat.diagram("unknot")
        assert intermediate_F(u.disjoint_union(u)).poly == 0

    def test_hopf_value(self, catalog_diagrams):
        value = intermediate_F(catalog_diagrams["hopf+"])
        assert value.poly == T**2 - 1
        assert value.poly.min_z_degree() == 0  # exactly L - 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            intermediate_F(LinkDiagram([], {}))

    def test_z_shape_is_enforced(self):
        # F of a 2-component link is z**-2 times a polynomial in z**2
        with pytest.raises(ValueError, match="cannot have a z\\^1 term"):
            FValue(2, Z)

    # the nonzero z-levels of F, by z exponent 2g - L

    def test_f_coefficients_of_hopf(self, catalog_diagrams):
        levels = dict(intermediate_F(catalog_diagrams["hopf+"]).poly.by_z())
        assert -2 not in levels  # the g = 0 coefficient vanishes
        assert levels[0] == T**2 - 1

    def test_f_coefficients_of_knot_match_h_table(self, catalog_diagrams):
        diagram = catalog_diagrams["figure8"]
        levels = dict(intermediate_F(diagram).poly.by_z())
        table = coeff_table(diagram)
        assert set(levels) == {2 * g - 1 for g in table.genus_range()}
        for ez, value in sorted(levels.items()):
            assert value == table.h_at((ez + 1) // 2)

    def test_borromean_low_coefficients_vanish(self, catalog_diagrams):
        levels = dict(intermediate_F(catalog_diagrams["borromean"]).poly.by_z())
        assert -3 not in levels and -1 not in levels


class TestFAgainstDecompositionSum:
    def test_recursion_equals_partition_sum(self):
        # the subset recursion against the partition-sum oracle; equal
        # polynomials agree at every g, also beyond the vanishing range
        from homflypt.identities import _F_partition_sum

        engine = SkeinEngine()
        diagrams = [entry.diagram() for entry in cat.CATALOG]
        for L in range(2, 7):
            corpus = seeded_links_with_components(940 + L, 4, L, (L, L + 1), max_length=12)
            diagrams += [d for _, d in corpus]
            # short random closures with many components are mostly split, so
            # add two chains whose F is nonzero: all positive, and alternating
            # signs with the first pair linked twice
            positive = " ".join(f"{i} {i}" for i in range(1, L))
            signed = [(-1) ** (i + 1) * i for i in range(2, L)]
            mixed = " ".join(["1 1 1 1"] + [f"{s} {s}" for s in signed])
            for word in (positive, mixed):
                diagrams.append(close_braid(parse_braid(f"strands={L}; {word}")))
        nonzero = 0
        for diagram in diagrams:
            expected = _F_partition_sum(diagram, engine=engine).poly
            assert intermediate_F(diagram, engine=engine).poly == expected, diagram
            nonzero += expected != 0
        assert nonzero >= 20


def clasp_word(rng: SplitMix64, components: int) -> str:
    """A seeded pure braid on `components` strands with a connected crossing
    graph that is not a path: a clasp s*i s*i of random sign on every
    generator, in random order, each clasp conjugated by a letter on a
    neighbouring generator on odd draws."""
    gens = list(range(1, components))
    for k in range(len(gens) - 1, 0, -1):
        j = rng.below(k + 1)
        gens[k], gens[j] = gens[j], gens[k]
    letters = []
    for i in gens:
        s = 1 if rng.below(2) else -1
        if components > 2 and rng.below(2):
            t = (i + 1 if i < components - 1 else i - 1) * (1 if rng.below(2) else -1)
            letters += [t, s * i, s * i, -t]
        else:
            letters += [s * i, s * i]
    return f"strands={components}; " + " ".join(map(str, letters))


def crossing_graph_is_complete(link) -> bool:
    pairs = {frozenset(crossing[:2]) for crossing in link._linking()}
    return len(pairs) == link.num_components * (link.num_components - 1) // 2


class TestSplitRule:
    """F is zero on the subsets disconnected in the crossing graph, read off
    the word, not computed: checked against the partition sum on an engine
    that never looks at the graph."""

    def test_F_equals_the_partition_sum(self):
        rng = SplitMix64(1105)
        links = [entry.word() for entry in cat.CATALOG]
        # linking number zero and F nonzero: the graph, not lk, decides
        lk_zero = parse_braid("strands=3; 1 1 -2 1 -2")
        assert lk_zero.total_linking() == 0 and intermediate_F(lk_zero).poly != 0
        links.append(lk_zero)
        for L in range(2, 9):
            corpus = seeded_links_with_components(1110 + L, 3, L, (L, L + 1), max_length=14)
            links += [word for word, _ in corpus]
            links += [parse_braid(clasp_word(rng, L)) for _ in range(3)]
        knots = [w for w, _ in seeded_links_with_components(1120, 8, 1, (2, 3, 4))]
        links += [a.disjoint_union(b) for a, b in zip(knots, knots[1:])]
        links.append(knots[0].disjoint_union(knots[1]).disjoint_union(knots[2]))

        engine, oracle = SkeinEngine(), SkeinEngine()
        skipped_nonzero = split = 0
        for link in links:
            value = intermediate_F(link, engine=engine)
            expected = _F_partition_sum(link, engine=oracle)
            assert value == expected, link.as_text()
            if value.poly == 0:
                split += link.num_components > 1
            else:
                skipped_nonzero += not crossing_graph_is_complete(link)
        # the rule dropped subsets of links whose F is not zero, and whole links
        assert skipped_nonzero >= 15 and split >= 30, (skipped_nonzero, split)

    def test_catalog_diagrams(self, catalog_diagrams):
        # the rule reads the graph off a Gauss diagram too; borromean has
        # pairwise lk = 0 and a complete graph, the unlinks none at all
        assert crossing_graph_is_complete(catalog_diagrams["borromean"])
        oracle = SkeinEngine()
        for name, diagram in catalog_diagrams.items():
            expected = _F_partition_sum(diagram, engine=oracle)
            assert intermediate_F(diagram) == expected, name

    def test_split_link_costs_no_engine_work(self):
        knots = [w for w, _ in seeded_links_with_components(1130, 4, 1, (3, 4))]
        for left, right in zip(knots, knots[1:]):
            union = left.disjoint_union(right)
            engine = SkeinEngine()
            assert intermediate_F(union, engine=engine).poly == 0
            # no sublink is built and nothing is traced: the one node is
            # the one part the walk from the first knot enumerates, the
            # empty one, and the memo holds the union's F alone
            assert engine.nodes == 1
            assert engine.f_memo == {union.canonical_key(): BivarLaurent.zero()}

    def test_the_subset_walk_is_charged_as_it_goes(self, capsys):
        # splitF on 20 unknots walks every subset, and prop31 on the full
        # twist of 18 strands (a complete crossing graph) enumerates 2^17
        # connected parts for the whole link alone; with the walk's parts
        # and sublinks charged, both stop at the budget at once, before
        # the walk has allocated much
        chain = "strands=20; " + " ".join(f"{i} {i}" for i in range(1, 20))
        twist = "strands=18; " + " ".join(" ".join(map(str, range(1, 18))) for _ in range(18))
        for target, word in (("splitF", chain), ("prop31", twist)):
            tracemalloc.start()
            start = time.perf_counter()
            try:
                code = cli.main(["verify", target, "--braid", word, "--max-nodes", "1000"],
                                out=io.StringIO())
                seconds = time.perf_counter() - start
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == cli.EXIT_RESOURCE, target
            assert capsys.readouterr().err == f"error: node budget of 1000 exceeded [{word}]\n"
            assert seconds < 2 and peak < 5 * 2**20, (target, seconds, peak)

    def test_split_F_does_not_use_the_rule(self):
        # the rule is the theorem splitF checks, so splitF computes its F,
        # at the same cost on an engine whose memo holds the zero that the
        # rule stored for the union
        knots = [w for w, _ in seeded_links_with_components(1130, 4, 1, (3, 4))]
        for left, right in zip(knots, knots[1:]):
            fresh = SkeinEngine()
            assert verify_split_F([left, right], engine=fresh).passed
            assert fresh.nodes > 0, (left.as_text(), right.as_text())
            engine = SkeinEngine()
            assert intermediate_F(left.disjoint_union(right), engine=engine).poly == 0
            before = engine.nodes
            assert verify_split_F([left, right], engine=engine).passed
            assert engine.nodes - before == fresh.nodes, (left.as_text(), right.as_text())

    @pytest.mark.parametrize("strands, nodes", [(4, 477), (5, 3498), (6, 31233)])
    def test_the_whole_link_is_walked_once(self, strands, nodes):
        # the full twist has a complete crossing graph, so the parts of the
        # whole link are every subset of the other components: enumerated
        # once, for the split rule and the sum alike; a second call reads
        # F off the memo
        word = f"strands={strands}; " + " ".join(
            " ".join(map(str, range(1, strands))) for _ in range(strands))
        link = parse_braid(word)
        engine = SkeinEngine()
        intermediate_F(link, engine=engine)
        assert engine.nodes == nodes
        intermediate_F(link, engine=engine)
        assert engine.nodes == nodes


class TestProp31:
    def test_catalog(self, catalog_diagrams):
        for name in ("hopf+", "hopf-", "t24", "t26", "borromean", "trefoil-hopf+"):
            assert verify_prop31(catalog_diagrams[name], label=name).passed, name

    def test_chain4(self):
        assert verify_prop31(close_braid(parse_braid(CHAIN4))).passed

    def test_requires_two_components(self, catalog_diagrams):
        with pytest.raises(ValueError):
            verify_prop31(catalog_diagrams["trefoil"])

    def test_random_corpus(self):
        engine = SkeinEngine()
        for L in (2, 3, 4):
            for _, diagram in seeded_links_with_components(900 + L, 6, L, max_length=9):
                assert verify_prop31(diagram, engine=engine).passed


class TestThm13:
    def test_hopf_g0_explicit(self, catalog_diagrams):
        report = verify_thm13(catalog_diagrams["hopf+"], 0)
        assert report.passed
        assert report.lhs == T**2 - 2 + T**-2  # (t - 1/t)^2

    def test_borromean_all_g(self, catalog_diagrams):
        for g in (0, 1):
            assert verify_thm13(catalog_diagrams["borromean"], g).passed

    def test_four_component_g2(self):
        diagram = close_braid(parse_braid(CHAIN4))
        assert diagram.num_components == 4
        for g in (0, 1, 2):
            assert verify_thm13(diagram, g).passed

    def test_g_out_of_range(self, catalog_diagrams):
        with pytest.raises(GOutOfRange):
            verify_thm13(catalog_diagrams["hopf+"], 1)
        with pytest.raises(GOutOfRange):
            verify_thm13(catalog_diagrams["hopf+"], -1)
        # a knot has no admissible g
        with pytest.raises(ValueError, match="needs at least 2 components"):
            verify_thm13(cat.diagram("unknot"), 0)

    def test_random_corpus(self):
        engine = SkeinEngine()
        for L in (2, 3):
            for _, diagram in seeded_links_with_components(910 + L, 5, L, max_length=9):
                for g in range(L - 1):
                    assert verify_thm13(diagram, g, engine=engine).passed

    def test_all_g_equals_each_g(self, catalog_diagrams):
        diagrams = [catalog_diagrams["borromean"], close_braid(parse_braid(CHAIN4))]
        for diagram in diagrams:
            reports = verify_thm13_all(diagram, label="x")
            assert [r.to_json_dict() for r in reports] == [
                verify_thm13(diagram, g, label="x").to_json_dict()
                for g in range(diagram.num_components - 1)
            ]
        with pytest.raises(ValueError):
            verify_thm13_all(catalog_diagrams["trefoil"])


class TestThm14:
    def test_knot_is_trivially_true(self, catalog_diagrams):
        report = verify_thm14(catalog_diagrams["trefoil"])
        assert report.passed
        assert report.lhs == report.rhs

    def test_hopf(self, catalog_diagrams):
        report = verify_thm14(catalog_diagrams["hopf+"])
        assert report.passed
        assert report.context["p_lhs"] == T**-1 - T**-3

    def test_catalog(self, catalog_diagrams):
        for name in ("hopf-", "t24", "t26", "borromean", "trefoil-hopf+"):
            report = verify_thm14(catalog_diagrams[name], label=name)
            assert report.passed, name
            assert report.context["h_form_pass"] and report.context["p_form_pass"]

    def test_random_corpus(self):
        engine = SkeinEngine()
        for L in (1, 2, 3, 4):
            for _, diagram in seeded_links_with_components(920 + L, 5, L, max_length=9):
                report = verify_thm14(diagram, engine=engine)
                assert report.passed
                assert report.context["h_form_pass"] == report.context["p_form_pass"]


class TestThm15:
    def test_two_component_case_is_trivial(self, catalog_diagrams):
        for name in ("hopf+", "t24", "t26"):
            report = verify_thm15(catalog_diagrams[name], label=name)
            assert report.passed, name

    def test_borromean(self, catalog_diagrams):
        report = verify_thm15(catalog_diagrams["borromean"])
        assert report.passed
        # every sublink is trivial, so both sides must be zero
        assert not report.lhs
        assert not report.rhs

    def test_split_union_with_knotted_component(self, catalog_diagrams):
        # the trefoil factor contributes a nonzero single-component term
        report = verify_thm15(catalog_diagrams["trefoil-hopf+"])
        assert report.passed
        assert report.lhs

    def test_chain4(self):
        assert verify_thm15(close_braid(parse_braid(CHAIN4))).passed

    def test_requires_two_components(self, catalog_diagrams):
        with pytest.raises(ValueError):
            verify_thm15(catalog_diagrams["figure8"])

    def test_the_pair_sum_skips_split_pairs(self):
        # the 200-component unlink has 19,900 pair tables, every one split,
        # so no term of the pair sum is multiplied out: under 1 s on 2
        # vCPUs, and 9-13 s when each pair's zero term is multiplied by the
        # other 198 components' g = 0 coefficients
        out = io.StringIO()
        start = time.perf_counter()
        code = cli.main(["verify", "thm15", "--braid", "strands=200;"], out=out)
        seconds = time.perf_counter() - start
        assert code == cli.EXIT_OK
        assert out.getvalue() == "thm15 [strands=200;]: PASS\n1/1 checks passed\n"
        assert seconds < 3, seconds

    def test_random_corpus(self):
        engine = SkeinEngine()
        for L in (2, 3, 4):
            for _, diagram in seeded_links_with_components(930 + L, 5, L, max_length=9):
                report = verify_thm15(diagram, engine=engine)
                assert report.passed
                assert report.context["h_form_pass"] == report.context["p_form_pass"]


class TestSublinkCharge:
    # every sublink the identity checks build is built by
    # `SkeinEngine.sublink`, which charges it one node, also when its value
    # is memoized: L of them for thm14, L + C(L, 2) for thm15, and the L
    # components that verify splitF splits off

    @pytest.mark.parametrize("verify, nodes", [(verify_thm14, 3), (verify_thm15, 6)])
    def test_borromean_on_a_warm_engine(self, catalog_diagrams, verify, nodes):
        for link in (cat.get("borromean").word(), catalog_diagrams["borromean"]):
            engine = SkeinEngine()
            verify(link, engine=engine)
            before = engine.nodes
            assert verify(link, engine=engine).passed
            assert engine.nodes - before == nodes
            engine.max_nodes = engine.nodes + nodes - 1
            with pytest.raises(ResourceLimitExceeded):
                verify(link, engine=engine)

    @pytest.mark.parametrize("word, nodes", [
        ("strands=5; 1 1 2 2 3 3 4 4",
         {"prop31": 143, "thm13": 143, "thm14": 71, "thm15": 83, "skeinF": 1159, "splitF": 78}),
        ("strands=3; 1 -2 1 -2 1 -2",
         {"prop31": 77, "thm13": 77, "thm14": 65, "thm15": 68, "skeinF": 790, "splitF": 19}),
        ("strands=6;",
         {"prop31": 1, "thm13": 20, "thm14": 25, "thm15": 40, "skeinF": None, "splitF": 146}),
        ("strands=4;" + " 1 2 3" * 4,
         {"prop31": 477, "thm13": 477, "thm14": 384, "thm15": 400, "skeinF": 7425, "splitF": 40}),
    ])
    def test_nodes_per_target(self, word, nodes):
        # each target on a fresh engine, as `verify` runs it; None marks a
        # target the link skips
        link = parse_braid(word)
        found = {}
        for target, (skip_reason, build) in cli._LINK_TARGETS.items():
            if skip_reason(link):
                found[target] = None
                continue
            engine = SkeinEngine()
            assert all(report.passed for report in build(link, engine, word)), target
            found[target] = engine.nodes
        assert found == nodes


class TestMemoCap:
    def test_memos_stay_capped_and_values_hold(self, monkeypatch):
        # with the cap at 3, every memo stops growing at 3 entries and the
        # values past it are recomputed, not lost: F of a 5-chain (5 subsets
        # contain component 0) and splitF's own memo (16 subsets of its
        # union) outgrow it
        chain = parse_braid("strands=5; 1 1 2 2 3 3 4 4")
        unknots = [cat.diagram("unknot")] * 5
        expected_F = intermediate_F(chain).poly
        expected_split = verify_split_F(unknots)
        sizes = {}
        remember = SkeinEngine.remember

        def recording(memo, key, value):
            result = remember(memo, key, value)
            sizes[id(memo)] = max(sizes.get(id(memo), 0), len(memo))
            return result

        monkeypatch.setattr(skein, "MEMO_CAP", 3)
        monkeypatch.setattr(SkeinEngine, "remember", staticmethod(recording))
        engine = SkeinEngine()
        assert intermediate_F(chain, engine=engine).poly == expected_F
        assert len(engine.f_memo) == 3 and len(engine._memo) == 3
        split = verify_split_F(unknots, engine=engine)
        assert split.passed and split.lhs == expected_split.lhs
        memos = {id(engine.f_memo), id(engine._memo)}
        assert len(sizes) == 3 and memos < set(sizes)  # splitF's memo is the third
        assert set(sizes.values()) == {3}


class TestSkeinF:
    def test_hopf_both_crossings(self, catalog_diagrams):
        for cid in (0, 1):
            assert verify_skein_F(catalog_diagrams["hopf+"], cid).passed

    def test_t24_and_borromean(self, catalog_diagrams):
        for name in ("t24", "borromean"):
            diagram = catalog_diagrams[name]
            for cid in diagram.crossing_ids():
                if diagram.is_self_crossing(cid):
                    continue
                assert verify_skein_F(diagram, cid).passed, (name, cid)

    def test_rejects_self_crossing(self, catalog_diagrams):
        with pytest.raises(NotInterComponent):
            verify_skein_F(catalog_diagrams["trefoil"], 0)


class TestSplitF:
    def test_two_unknots(self):
        u = cat.diagram("unknot")
        assert verify_split_F([u, u]).passed

    def test_three_knots(self, catalog_diagrams):
        knots = [catalog_diagrams["trefoil"], catalog_diagrams["trefoil"], cat.diagram("unknot")]
        report = verify_split_F(knots)
        assert report.passed
        assert report.lhs == BivarLaurent.zero()

    def test_four_unknots(self):
        u = cat.diagram("unknot")
        assert verify_split_F([u, u, u, u]).passed

    def test_input_validation(self, catalog_diagrams):
        with pytest.raises(ValueError):
            verify_split_F([cat.diagram("unknot")])
        with pytest.raises(ValueError):
            verify_split_F([cat.diagram("unknot"), catalog_diagrams["hopf+"]])


class TestReportShape:
    def test_json_round_trip_keys(self, catalog_diagrams):
        report = verify_thm14(catalog_diagrams["hopf+"], label="hopf+")
        obj = report.to_json_dict()
        assert set(obj) == {"identity", "pass", "lhs", "rhs", "residual", "context"}
        assert obj["pass"] is True
        assert obj["residual"] == []

    def test_of_is_the_one_pass_rule(self):
        one = BivarLaurent.one()
        report = VerificationReport.of("x", one, one, {}, also=False)
        assert not report.residual and not report.passed
        assert VerificationReport.of("x", one, one, {}).passed
        report = VerificationReport.of("x", one + one, one, {"m": 2})
        assert report.residual == one and not report.passed
        assert VerificationReport.of("x", Fraction(1, 2), Fraction(1, 2), {}).passed
        assert not VerificationReport.of("x", 3, 3, {}, also=False).passed

    def test_summary_of_a_failing_report_shows_both_sides(self):
        report = VerificationReport.of("x", T, Z, {"label": "k"})
        assert report.summary() == "x [k]: FAIL  lhs=t  rhs=(1)*z"

    def test_pass_iff_residual_zero(self, catalog_diagrams):
        for name in ("hopf+", "borromean"):
            report = verify_prop31(catalog_diagrams[name])
            assert report.passed == (not report.residual)
