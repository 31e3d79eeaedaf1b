"""Skein engine: frozen values, oracle agreement, and invariance properties."""

import json
import math

import pytest

from homflypt import (
    BivarLaurent,
    CoeffTable,
    LinkDiagram,
    ResourceLimitExceeded,
    SkeinEngine,
    SplitMix64,
    T,
    Z,
    close_braid,
    coeff_table,
    framed_homfly,
    framed_homfly_bruteforce,
    homfly,
    is_descending,
    parse_braid,
    random_braid,
)
from homflypt import catalog as cat

from conftest import (
    add_kink,
    is_even_nonneg_in_z,
    markov_variant,
    reciprocal_t,
    reversed_component,
    rotate_base_point,
    seeded_closures,
)

TFAC = T - T**-1


class TestDescending:
    def test_unlink_is_descending(self):
        assert is_descending(cat.diagram("unlink3")) == (True, None)

    def test_hopf_is_not(self):
        descending, cid = is_descending(cat.diagram("hopf+"))
        assert not descending
        assert cid in (0, 1)

    def test_violation_is_first_in_traversal_order(self):
        # component 0 of the Hopf closure reads (0, over), (1, under)
        _, cid = is_descending(cat.diagram("hopf+"))
        assert cid == 1


class TestBaseValues:
    def test_unknot(self):
        assert framed_homfly(cat.diagram("unknot")) == TFAC

    def test_empty(self):
        assert framed_homfly(LinkDiagram([], {})) == BivarLaurent.one()

    def test_unlinks(self):
        assert framed_homfly(cat.diagram("unlink2")) == TFAC**2
        assert framed_homfly(cat.diagram("unlink4")) == TFAC**4


class TestUnlinkPowers:
    def test_closed_form_is_the_power(self):
        engine = SkeinEngine()
        for k in range(61):
            assert engine._unlink(k) == TFAC**k, k

    def test_binomial_coefficients_at_scale(self):
        k = 2000
        engine = SkeinEngine()
        power = engine._unlink(k)
        assert dict(power.terms()) == {
            (0, k - 2 * j): (-1) ** j * math.comb(k, j) for j in range(k + 1)
        }
        # charged as the k - 1 products that write 3, 4, ..., k + 1 terms
        assert engine.nodes == sum(range(3, k + 2))
        assert engine._unlink(k) is power and engine.nodes == sum(range(3, k + 2))


class TestFrozenValues:
    def test_hopf(self):
        assert framed_homfly(cat.diagram("hopf+")) == TFAC**2 + T * TFAC * Z**2

    def test_trefoil(self):
        assert framed_homfly(cat.diagram("trefoil")) == (
            2 * T**2 - 3 + T**-2 + (T**2 - 1) * Z**2
        )

    def test_hopf_table(self):
        table = coeff_table(cat.diagram("hopf+"))
        assert table.p_at(0) == T**-1 - T**-3
        assert table.p_at(1) == T**-1

    def test_trefoil_table(self):
        table = coeff_table(cat.diagram("trefoil"))
        assert table.p_at(0) == 2 * T**-2 - T**-4
        assert table.p_at(1) == T**-2

    def test_unknot_table(self):
        table = coeff_table(cat.diagram("unknot"))
        assert table.h_at(0) == TFAC
        assert table.p_at(0) == BivarLaurent.one()

    def test_homfly_values(self):
        assert homfly(cat.diagram("unknot")) == BivarLaurent.one()
        assert homfly(cat.diagram("hopf+")) == (T**-1 - T**-3) * Z**-1 + T**-1 * Z

    def test_figure8_palindromic(self):
        table = coeff_table(cat.diagram("figure8"))
        for g in table.genus_range():
            assert table.p_at(g) == reciprocal_t(table.p_at(g))

    def test_connected_sum_multiplicativity(self):
        # the catalog composites are connected sums of trefoils, and the
        # normalized polynomial is multiplicative under connected sum
        tref = homfly(cat.diagram("trefoil"))
        tref_left = homfly(cat.diagram("trefoil-left"))
        assert homfly(cat.diagram("granny")) == tref * tref
        assert homfly(cat.diagram("square")) == tref * tref_left

    def test_mirror_symmetry(self):
        # mirroring a knot sends t -> 1/t in every p-coefficient (the
        # z-powers of a knot polynomial are even, so no sign appears)
        right = coeff_table(cat.diagram("trefoil"))
        left = coeff_table(cat.diagram("trefoil-left"))
        assert right.genus_range() == left.genus_range()
        for g in right.genus_range():
            assert left.p_at(g) == reciprocal_t(right.p_at(g))


class TestOracleAgreement:
    def test_catalog(self, catalog_diagrams):
        for name, diagram in sorted(catalog_diagrams.items()):
            assert framed_homfly(diagram) == framed_homfly_bruteforce(diagram), name

    def test_random(self):
        for _, diagram in seeded_closures(seed=2024, count=15, max_length=8):
            assert framed_homfly(diagram) == framed_homfly_bruteforce(diagram)

    def test_skein_recursion_on_narrow_diagrams(self):
        # the engine braids these diagrams, so its memoized skein recursion
        # is called directly, on them and on their surgeries and kinks
        rng = SplitMix64(2025)
        for _, diagram in seeded_closures(seed=2025, count=30, max_length=8):
            cid = diagram.crossing_ids()[rng.below(diagram.num_crossings)]
            variants = [diagram, diagram.switch_crossing(cid), diagram.smooth_crossing(cid)]
            variants += [diagram.sublink([0]), add_kink(diagram, 0, 1 - 2 * rng.below(2))]
            engine = SkeinEngine()
            for d in variants:
                assert engine.skein_invariant(d) * TFAC == framed_homfly_bruteforce(d)


class TestStructuralProperties:
    def test_ring_membership(self, catalog_diagrams):
        for name, diagram in sorted(catalog_diagrams.items()):
            value = framed_homfly(diagram)
            assert is_even_nonneg_in_z(value), name
            assert all(c.denominator == 1 for _, c in value.terms()), name

    def test_h_coefficients_integral(self):
        for _, diagram in seeded_closures(seed=5, count=20):
            table = coeff_table(diagram)
            for g in table.genus_range():
                assert all(c.denominator == 1 for _, c in table.h_at(g).terms())

    def test_table_relation(self):
        # h[g] == p[g] * t^writhe * (t - t^-1) at every g
        for _, diagram in seeded_closures(seed=6, count=20):
            table = coeff_table(diagram)
            for g in table.genus_range():
                assert table.h_at(g) == table.p_at(g).shift(0, table.writhe) * TFAC

    def test_table_holds_the_framed_invariant_and_the_polynomial(self):
        for link in _table_links():
            table = coeff_table(link)
            assert table.framed == SkeinEngine().framed_invariant(link)
            L = table.components
            levels = BivarLaurent.zero()
            for g in table.genus_range():
                levels = levels + table.p_at(g).shift(2 * g + 1 - L)
            assert table.homfly == levels == homfly(link)

    def test_table_refuses_values_outside_the_ring(self):
        # an odd or a negative power of z in R, alone or beside an even one
        link = cat.get("unknot").word()
        for reduced in (Z, Z**-2, Z**-1 * T, T + Z**3, 1 + Z**-2):
            with pytest.raises(ValueError, match=r"left Z\[z\^2"):
                CoeffTable.from_reduced(link, reduced)

    def test_skein_triple(self):
        rng = SplitMix64(99)
        engine = SkeinEngine()
        for _, diagram in seeded_closures(seed=404, count=40):
            if not diagram.num_crossings:
                continue
            ids = diagram.crossing_ids()
            cid = ids[rng.below(len(ids))]
            if diagram.signs[cid] > 0:
                plus, minus = diagram, diagram.switch_crossing(cid)
            else:
                plus, minus = diagram.switch_crossing(cid), diagram
            smoothed = diagram.smooth_crossing(cid)
            eps = 0 if diagram.is_self_crossing(cid) else 1
            lhs = engine.framed_invariant(plus) - engine.framed_invariant(minus)
            rhs = engine.framed_invariant(smoothed).shift(2 * eps)
            assert lhs == rhs

    def test_kink_framing(self):
        rng = SplitMix64(17)
        engine = SkeinEngine()
        for _, diagram in seeded_closures(seed=21, count=20, max_length=8):
            comp = rng.below(diagram.num_components)
            sign = 1 if rng.below(2) == 0 else -1
            over_first = rng.below(2) == 0
            kinked = add_kink(diagram, comp, sign, over_first=over_first)
            assert engine.framed_invariant(kinked) == (
                engine.framed_invariant(diagram) * T**sign
            )

    def test_multiplicative_over_split_union(self, catalog_diagrams):
        engine = SkeinEngine()
        pairs = [("trefoil", "hopf+"), ("figure8", "unknot"), ("t24", "trefoil")]
        for a, b in pairs:
            da, db = catalog_diagrams[a], catalog_diagrams[b]
            assert engine.framed_invariant(da.disjoint_union(db)) == (
                engine.framed_invariant(da) * engine.framed_invariant(db)
            )

    def test_split_union_catalog_entry(self, catalog_diagrams):
        engine = SkeinEngine()
        union = catalog_diagrams["trefoil-hopf+"]
        expected = engine.framed_invariant(
            catalog_diagrams["trefoil"]
        ) * engine.framed_invariant(catalog_diagrams["hopf+"])
        assert engine.framed_invariant(union) == expected

    def test_base_point_rotation_invariance(self):
        rng = SplitMix64(3)
        for _, diagram in seeded_closures(seed=11, count=15, max_length=8):
            value = framed_homfly(diagram)
            comp = rng.below(diagram.num_components)
            rotated = rotate_base_point(diagram, comp, 1 + rng.below(4))
            assert framed_homfly(rotated) == value

    def test_markov_moves_preserve_homfly(self):
        rng = SplitMix64(500)
        words = [word for word, _ in seeded_closures(seed=501, count=10, max_length=7)]
        for word in words:
            variant = markov_variant(word, rng, moves=3)
            assert homfly(close_braid(word)) == homfly(close_braid(variant))


def _table_links() -> list:
    """The catalog braids and diagrams, seeded braids, and seeded diagram
    files: closures with a component reversed and a kink added, read back
    from their JSON text, so the engine braids some and resolves others."""
    rng = SplitMix64(2021)
    links = [entry.word() for entry in cat.CATALOG] + [cat.diagram(name) for name in cat.names()]
    links += [random_braid(rng, 2 + rng.below(3), rng.below(10)) for _ in range(30)]
    for _, diagram in seeded_closures(seed=2022, count=30, max_length=8):
        if diagram.num_components > 1:
            diagram = reversed_component(diagram, rng.below(diagram.num_components))
        diagram = add_kink(diagram, 0, 1 if rng.below(2) else -1, bool(rng.below(2)))
        links.append(LinkDiagram.from_json_dict(json.loads(json.dumps(diagram.to_json_dict()))))
    return links


class TestTermination:
    def test_switching_first_violation_reduces_violation_count(self):
        from homflypt import UNDER

        def violations(d):
            seen, count = set(), 0
            for comp in d.components:
                for cid, role in comp:
                    if cid in seen:
                        continue
                    if role == UNDER:
                        count += 1
                    seen.add(cid)
            return count

        for _, diagram in seeded_closures(seed=66, count=25):
            d = diagram
            while True:
                descending, cid = is_descending(d)
                if descending:
                    break
                before = violations(d)
                d = d.switch_crossing(cid)
                assert violations(d) == before - 1
            assert is_descending(d) == (True, None)


class TestResourceLimit:
    def test_engine_limit(self):
        with pytest.raises(ResourceLimitExceeded):
            framed_homfly(cat.diagram("borromean"), max_nodes=3)

    def test_bruteforce_limit(self):
        with pytest.raises(ResourceLimitExceeded):
            framed_homfly_bruteforce(cat.diagram("borromean"), max_nodes=3)

    def test_limit_is_not_hit_for_small_inputs(self):
        value = framed_homfly(cat.diagram("trefoil"), max_nodes=100)
        assert value == framed_homfly(cat.diagram("trefoil"))


class TestDeterminism:
    def test_identical_serialization_across_engines(self):
        for _, diagram in seeded_closures(seed=31337, count=10, max_length=8):
            first = framed_homfly(diagram).to_quadruples()
            second = framed_homfly(diagram).to_quadruples()
            assert first == second

    def test_empty_diagram_has_no_table(self):
        with pytest.raises(ValueError):
            coeff_table(LinkDiagram([], {}))
