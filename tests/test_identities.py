"""The decomposition-sum invariant F and the coefficient identities."""

import io
import time
import tracemalloc
from fractions import Fraction

import pytest

from homflypt import (
    BivarLaurent,
    GOutOfRange,
    LinkDiagram,
    NotInterComponent,
    SkeinEngine,
    SplitMix64,
    T,
    VerificationReport,
    close_braid,
    coeff_table,
    f_coefficients,
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
from homflypt import cli
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
        assert intermediate_F(u.disjoint_union(u)).poly.is_zero()

    def test_hopf_value(self, catalog_diagrams):
        value = intermediate_F(catalog_diagrams["hopf+"])
        assert value.poly == T**2 - 1
        assert value.poly.min_z_degree() == 0  # exactly L - 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            intermediate_F(LinkDiagram([], {}))

    def test_f_coefficients_of_hopf(self, catalog_diagrams):
        coeffs = f_coefficients(catalog_diagrams["hopf+"])
        assert 0 not in coeffs  # the g = 0 coefficient vanishes
        assert coeffs[1] == T**2 - 1

    def test_f_coefficients_of_knot_match_h_table(self, catalog_diagrams):
        diagram = catalog_diagrams["figure8"]
        coeffs = f_coefficients(diagram)
        table = coeff_table(diagram)
        assert set(coeffs) == set(table.genus_range())
        for g, value in sorted(coeffs.items()):
            assert value == table.h_at(g)

    def test_borromean_low_coefficients_vanish(self, catalog_diagrams):
        coeffs = f_coefficients(catalog_diagrams["borromean"])
        assert 0 not in coeffs and 1 not in coeffs


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
            nonzero += not expected.is_zero()
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
        assert lk_zero.total_linking() == 0 and not intermediate_F(lk_zero).poly.is_zero()
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
            if value.poly.is_zero():
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
            assert intermediate_F(union, engine=engine).poly.is_zero()
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
        # the rule is the theorem splitF checks, so splitF computes its F
        knots = [w for w, _ in seeded_links_with_components(1130, 4, 1, (3, 4))]
        for left, right in zip(knots, knots[1:]):
            engine = SkeinEngine()
            report = verify_split_F([left, right], engine=engine)
            assert report.passed
            assert engine.nodes > 0 and engine.f_memo, (left.as_text(), right.as_text())


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

    def test_random_corpus(self):
        engine = SkeinEngine()
        for L in (2, 3, 4):
            for _, diagram in seeded_links_with_components(930 + L, 5, L, max_length=9):
                report = verify_thm15(diagram, engine=engine)
                assert report.passed
                assert report.context["h_form_pass"] == report.context["p_form_pass"]


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

    def test_pass_iff_residual_zero(self, catalog_diagrams):
        for name in ("hopf+", "borromean"):
            report = verify_prop31(catalog_diagrams[name])
            assert report.passed == (not report.residual)
