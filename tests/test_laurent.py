"""Laurent-ring arithmetic: worked examples, then algebraic properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homflypt import BivarLaurent, PoleAtZero, T, Z

from conftest import is_even_nonneg_in_z, reciprocal_t

TFAC = T - T**-1  # t - t^-1


class TestExamples:
    def test_additive_inverse(self):
        assert T + (-T) == 0

    def test_add_cancels_term(self):
        assert (T - T**-1) + T**-1 == T

    def test_add_reproduces_skein_step(self):
        # one positive inter-component resolution: unlink value plus z^2
        # times the kinked-unknot value gives the positive Hopf value
        unlink = TFAC**2
        kinked = T * TFAC
        hopf = TFAC**2 + T * TFAC * Z**2
        assert unlink + Z**2 * kinked == hopf

    def test_mul(self):
        assert TFAC * (T + T**-1) == T**2 - T**-2
        assert TFAC * BivarLaurent.one() == TFAC
        assert TFAC**2 == T**2 - 2 + T**-2

    def test_scale(self):
        assert TFAC * -3 == -3 * T + 3 * T**-1
        assert TFAC * 0 == 0
        assert TFAC * 1 == TFAC

    def test_shift(self):
        assert TFAC.shift(-1) == (T - T**-1) * Z**-1
        assert TFAC.shift(0, 0) == TFAC
        assert BivarLaurent.one().shift(2) == Z**2

    def test_coeff_of_z(self):
        assert TFAC.coeff_of_z(0) == TFAC
        assert TFAC.coeff_of_z(2) == 0
        hopf = TFAC**2 + T * TFAC * Z**2
        assert hopf.coeff_of_z(2) == T**2 - 1

    def test_min_z_degree(self):
        poly = TFAC**2 * Z**-2 + T
        assert poly.min_z_degree() == -2
        assert BivarLaurent.zero().min_z_degree() is None

    def test_even_nonneg(self):
        assert is_even_nonneg_in_z(TFAC)
        assert not is_even_nonneg_in_z(Z * T)
        assert is_even_nonneg_in_z(BivarLaurent.zero())

    def test_evaluate(self):
        assert TFAC.evaluate(1, 2) == Fraction(3, 2)
        assert (Z**2).evaluate(3, 1) == 9
        with pytest.raises(PoleAtZero):
            (Z**-1).evaluate(0, 1)
        with pytest.raises(PoleAtZero):
            (T**-1).evaluate(1, 0)

    def test_str_forms(self):
        assert str(BivarLaurent.zero()) == "0"
        assert str(TFAC) == "t - t^-1"
        assert str(TFAC**2 + T * TFAC * Z**2) == "t^2 - 2 + t^-2 + (t^2 - 1)*z^2"

    def test_negative_power_of_general_poly_rejected(self):
        with pytest.raises(ValueError):
            TFAC**-1

    def test_negative_power_of_a_unit_monomial(self):
        assert (-T) ** -3 == -(T**-3)
        assert (Z * T**2) ** -2 == Z**-2 * T**-4
        with pytest.raises(ValueError):
            (2 * T) ** -1

    def test_only_integer_coefficients(self):
        for scalar in (Fraction(1, 2), Fraction(2), 0.5, 2.0):
            with pytest.raises(TypeError):
                BivarLaurent({(0, 0): scalar})
            with pytest.raises(TypeError):
                BivarLaurent.monomial(1, 1, scalar)
            for op in (
                lambda: T + scalar,
                lambda: scalar + T,
                lambda: T - scalar,
                lambda: scalar - T,
                lambda: T * scalar,
                lambda: scalar * T,
            ):
                with pytest.raises(TypeError):
                    op()
        assert T + 2 == 2 + T and 2 - T == -(T - 2) and 3 * T == T * 3
        assert BivarLaurent.one() == 1 and BivarLaurent.zero() == 0

    def test_quadruples_have_denominator_one(self):
        assert (3 * Z * T**-1 - 2).to_quadruples() == [[0, 0, -2, 1], [1, -1, 3, 1]]
        assert BivarLaurent.from_quadruples([[0, 0, 1, 1], [1, 2, -4, 1]]) == 1 - 4 * Z * T**2
        for bad in ([[0, 0, 1, 2]], [[0, 0, 2, 2]], [[1, 1, -3, -1]]):
            with pytest.raises(ValueError):
                BivarLaurent.from_quadruples(bad)


coeffs = st.integers(min_value=-9, max_value=9)
bivar = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)), coeffs, max_size=6
).map(BivarLaurent)


class TestRingProperties:
    @given(bivar, bivar, bivar)
    @settings(max_examples=150, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(bivar)
    @settings(max_examples=150, deadline=None)
    def test_coeff_of_z_reconstructs(self, a):
        total = BivarLaurent.zero()
        for ez, ct in a.by_z():
            assert ct == a.coeff_of_z(ez)
            assert all(key[0] == 0 for key, _ in ct.terms())  # z-free
            total = total + ct.shift(ez)
        assert total == a

    @given(bivar, bivar)
    @settings(max_examples=150, deadline=None)
    def test_serialization_injective(self, a, b):
        assert (a.to_quadruples() == b.to_quadruples()) == (a == b)
        assert BivarLaurent.from_quadruples(a.to_quadruples()) == a

    @given(bivar)
    @settings(max_examples=100, deadline=None)
    def test_no_zero_terms_stored(self, a):
        assert all(c != 0 for _, c in a.terms())
        keys = [key for key, _ in a.terms()]
        assert keys == sorted(keys)


class TestPowersAtScale:
    def test_powers_of_the_unknot_factor(self):
        # the unlink values of huge unlinks, (t - t^-1)**k, against the
        # binomial theorem
        def power(k: int) -> BivarLaurent:
            terms, c = {}, 1
            for j in range(k + 1):
                terms[(0, k - 2 * j)] = c
                c = -c * (k - j) // (j + 1)
            return BivarLaurent(terms)

        for k in list(range(2, 2001, 111)) + [1999, 2000]:
            top, below, two_below = power(k), power(k - 1), power(k - 2)
            assert below * TFAC == top, k
            assert two_below.shift(3, -k) * (TFAC * TFAC) == top.shift(3, -k), k


class TestUnivar:
    """Polynomials in t alone: the z-free slice of BivarLaurent."""

    def test_roundtrip_triples(self):
        p = 3 * T**-3 - 4 * T**2
        assert p.to_triples() == [[-3, 3, 1], [2, -4, 1]]
        assert BivarLaurent.from_quadruples([0, *t] for t in p.to_triples()) == p
        with pytest.raises(ValueError):
            (T * Z).to_triples()

    def test_reciprocal(self):
        p = T**2 + 3 * T**-1
        assert reciprocal_t(p) == T**-2 + 3 * T

    def test_shift_and_pow(self):
        assert (T - T**-1) * (T + T**-1) == T**2 - T**-2
        assert (T**-1).shift(0, 2) == T
