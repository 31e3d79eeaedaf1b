"""Hecke-algebra trace of braid closures: agreement with skein resolution of
their diagrams and with the brute-force oracle, the T(2,n) recurrence, the
P(t, t - 1/t) = 1 check and the resource limits."""

from fractions import Fraction

import pytest

from homflypt import (
    ClosedBraid,
    ResourceLimitExceeded,
    SplitMix64,
    T,
    Z,
    close_braid,
    coeff_table,
    framed_homfly,
    framed_homfly_bruteforce,
    parse_braid,
    random_braid,
)
from homflypt import catalog as cat
from homflypt import skein

from conftest import no_charge

TFAC = T - T**-1


def seeded_words(seed: int, strands, lengths, per_cell: int) -> list[ClosedBraid]:
    rng = SplitMix64(seed)
    words = []
    for n in strands:
        for length in lengths:
            for _ in range(per_cell):
                words.append(random_braid(rng, n, length) if n > 1 else ClosedBraid(1, ()))
    return words


def torus_word(n: int) -> ClosedBraid:
    return ClosedBraid(2, (1,) * n)


def polynomial(word: ClosedBraid):
    """P of the closure, read off the engine's value by the coefficient table."""
    return coeff_table(word).polynomial()


class TestAgreement:
    def test_catalog_matches_skein(self):
        for entry in cat.CATALOG:
            braid = entry.word()
            assert framed_homfly(braid) == framed_homfly(entry.diagram()), entry.name

    def test_random_words_match_skein(self):
        words = seeded_words(11, range(1, 6), range(0, 11), 3)
        assert len(words) == 165
        for word in words:
            value = framed_homfly(word)
            assert value == framed_homfly(close_braid(word)), word.as_text()

    def test_short_words_match_bruteforce(self):
        for word in seeded_words(12, (2, 3, 4), range(0, 9), 2):
            value = framed_homfly(word)
            assert value == framed_homfly_bruteforce(close_braid(word)), word.as_text()

    def test_tables_match(self):
        # the braid's table off the Hecke trace, the diagram's off skein
        # resolution
        for entry in cat.CATALOG:
            table = coeff_table(entry.word())
            assert table == coeff_table(entry.diagram()), entry.name

    def test_table_from_R_matches_the_bruteforce_value(self):
        # the engine's table is read off R; h[g] is the z^(2g) coefficient of
        # the brute-force framed value Hf, which has no other z-levels, and
        # h[g] = p[g] t^writhe (t - t^-1)
        words = [entry.word() for entry in cat.CATALOG]
        words += seeded_words(14, (2, 3, 4, 5), range(0, 9), 4)
        for word in words:
            table = coeff_table(word)
            framed = framed_homfly_bruteforce(close_braid(word))
            assert {ez: coeff for ez, coeff in framed.by_z()} == {
                2 * g: h for g, h in table.h.items()
            }, word.as_text()
            assert table.h.keys() == table.p.keys(), word.as_text()
            for g, h in table.h.items():
                assert h == table.p[g].shift(0, table.writhe) * TFAC, (word.as_text(), g)


class TestIndependentChecks:
    def test_torus_recurrence(self):
        # t P(T(2,n)) - t^-1 P(T(2,n-2)) = z P(T(2,n-1)), from the skein
        # relation at one crossing; T(2,0) is the 2-component unlink and
        # T(2,1) the unknot
        values = [polynomial(torus_word(n)) for n in range(201)]
        assert values[0] == TFAC * Z**-1
        assert values[1] == 1
        for n in range(2, 201):
            assert T * values[n] - T**-1 * values[n - 2] == Z * values[n - 1], n

    def test_unit_at_z_equals_t_minus_inverse(self):
        for word in seeded_words(13, (7,), (40,), 3):
            value = polynomial(word)
            for t0 in (Fraction(2), Fraction(-3, 5)):
                assert value.evaluate(t0 - 1 / t0, t0) == 1, word.as_text()

    def test_long_word_has_no_recursion(self):
        # a skein resolution of this word nests past Python's stack limit
        word = parse_braid("strands=3; " + " ".join(["1 -2"] * 150))
        assert polynomial(word).evaluate(Fraction(3, 2), Fraction(2)) == 1


class TestLimits:
    def test_tiny_budget_raises(self):
        with pytest.raises(ResourceLimitExceeded):
            framed_homfly(cat.get("borromean").word(), max_nodes=3)

    def test_budget_bounds_coefficient_growth(self):
        # two basis terms throughout, but their coefficients grow with n
        word = torus_word(400)
        with pytest.raises(ResourceLimitExceeded):
            framed_homfly(word, max_nodes=100_000)
        assert framed_homfly(word, max_nodes=200_000)

    def test_element_cap_raises(self, monkeypatch):
        monkeypatch.setattr(skein, "MEMO_CAP", 5)
        # a word no braid move simplifies, so the trace runs on all 4 strands
        link = parse_braid("strands=4; 1 2 3 1 2 3 1 2 3")
        assert link.pieces(no_charge) == (0, 0, [link])
        with pytest.raises(ResourceLimitExceeded):
            framed_homfly(link)
        assert framed_homfly(cat.get("trefoil").word()) == framed_homfly(
            cat.diagram("trefoil")
        )
