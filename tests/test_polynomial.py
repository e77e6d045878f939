import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidpoly.corpus import random_words
from braidpoly.invariants import alexander
from braidpoly.polynomial import (
    LaurentPoly1,
    LaurentPoly2,
    SubstitutionError,
    ZeroPolynomialError,
    binomial_row,
)
from braidpoly.hecke import _delta_power
from braidpoly.resolver import assemble_tree_sum, homfly


def P(text):
    return LaurentPoly2.from_text(text)


class TestRingOperations:
    def test_square_of_delta_factor(self):
        base = P("a^2*z^-1 - z^-1")  # (a^2 - 1) z^-1
        assert base**2 == P("a^4*z^-2 - 2*a^2*z^-2 + z^-2")

    def test_additive_inverse_cancels(self):
        p = P("a^-2*z^2 + 2*a^-2 - a^-4")
        assert (p + (-p)).is_zero()

    def test_trivial_link_factor_first_power(self):
        assert P("a*z^-1 - a^-1*z^-1") ** 1 == P("a*z^-1 - a^-1*z^-1")

    def test_pow_zero_is_one(self):
        assert P("a^3 - z") ** 0 == LaurentPoly2.one()

    def test_scale_monomial(self):
        p = P("a + z")
        assert p.scale_monomial(dz=1, da=-2, coeff=3) == P("3*a^-1*z + 3*a^-2*z^2")

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            P("a") ** -1


poly_terms = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.integers(-9, 9),
    max_size=6,
)


class TestRingAxioms:
    @given(poly_terms, poly_terms, poly_terms)
    @settings(max_examples=60)
    def test_mul_associative_and_distributive(self, t1, t2, t3):
        p, q, r = LaurentPoly2(t1), LaurentPoly2(t2), LaurentPoly2(t3)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(poly_terms, poly_terms)
    @settings(max_examples=60)
    def test_commutativity(self, t1, t2):
        p, q = LaurentPoly2(t1), LaurentPoly2(t2)
        assert p + q == q + p
        assert p * q == q * p

    @given(poly_terms)
    @settings(max_examples=60)
    def test_text_round_trip(self, t1):
        p = LaurentPoly2(t1)
        assert LaurentPoly2.from_text(p.to_text()) == p

    @given(poly_terms)
    @settings(max_examples=60)
    def test_json_round_trip(self, t1):
        p = LaurentPoly2(t1)
        encoded = json.dumps(p.to_json_terms())
        assert LaurentPoly2.from_json_terms(json.loads(encoded)) == p


class TestDegrees:
    def test_two_component_trivial_value(self):
        assert P("a*z^-1 - a^-1*z^-1").a_degrees() == (1, -1, 2)

    def test_trefoil_degrees(self):
        assert P("a^-2*z^2 + 2*a^-2 - a^-4").a_degrees() == (-2, -4, 2)

    def test_constant(self):
        assert LaurentPoly2.one().a_degrees() == (0, 0, 0)

    def test_zero_raises(self):
        with pytest.raises(ZeroPolynomialError):
            LaurentPoly2.zero().a_degrees()

    @given(poly_terms, st.integers(-3, 3))
    @settings(max_examples=60)
    def test_monomial_shift(self, t1, k):
        p = LaurentPoly2(t1)
        if p.is_zero():
            return
        E, e, span = p.a_degrees()
        E2, e2, span2 = p.scale_monomial(da=k).a_degrees()
        assert (E2, e2, span2) == (E + k, e + k, span)


class TestCanonicalText:
    def test_term_order_and_formatting(self):
        p = LaurentPoly2({(2, -2): 1, (0, -2): 2, (0, -4): -1})
        assert p.to_text() == "a^-2*z^2 + 2*a^-2 - a^-4"
        assert p.to_json_terms() == [
            {"a": -2, "z": 2, "c": 1},
            {"a": -2, "z": 0, "c": 2},
            {"a": -4, "z": 0, "c": -1},
        ]

    def test_zero_prints_as_zero(self):
        assert LaurentPoly2.zero().to_text() == "0"
        assert LaurentPoly2.from_text("0").is_zero()


class TestMirrorSubstitution:
    def test_mirror_swaps_degrees_and_signs(self):
        p = P("a^-2*z^2 + 2*a^-2 - a^-4")
        assert p.mirrored() == P("a^2*z^2 + 2*a^2 - a^4")

    @given(poly_terms)
    @settings(max_examples=60)
    def test_involution(self, t1):
        p = LaurentPoly2(t1)
        assert p.mirrored().mirrored() == p


class TestAlexanderSubstitution:
    def test_unknot(self):
        assert LaurentPoly2.one().substitute_alexander() == LaurentPoly1.one()

    def test_figure_eight(self):
        p = P("a^2 + a^-2 - 1 - z^2")
        assert p.substitute_alexander() == LaurentPoly1.from_text("-s^2 + 3 - s^-2")

    def test_two_component_trivial_link_vanishes(self):
        p = P("a*z^-1 - a^-1*z^-1")
        assert p.substitute_alexander().is_zero()

    def test_hopf_value(self):
        p = P("a^-1*z + a^-1*z^-1 - a^-3*z^-1")
        assert p.substitute_alexander() == LaurentPoly1.from_text("s - s^-1")

    def test_non_link_value_rejected(self):
        with pytest.raises(SubstitutionError):
            P("z^-1").substitute_alexander()

    def test_leading(self):
        d = LaurentPoly1.from_text("-s^2 + 3 - s^-2")
        assert d.leading() == (2, -1)
        with pytest.raises(ZeroPolynomialError):
            LaurentPoly1.zero().leading()


class TestSympyCrossCheck:
    """Independent arithmetic route: the same products expanded by sympy."""

    @given(poly_terms, poly_terms)
    @settings(max_examples=25, deadline=None)
    def test_product_matches_sympy(self, t1, t2):
        from _brute import poly2_to_sympy

        p, q = LaurentPoly2(t1), LaurentPoly2(t2)
        assert poly2_to_sympy(p * q) == (poly2_to_sympy(p) * poly2_to_sympy(q)).expand()


class TestAlexanderSympyOracle:
    """The substitution against sympy: a = 1, z = s - 1/s, then ``together``."""

    @staticmethod
    def sympy_alexander(poly):
        """The substituted value as a ``LaurentPoly1``, or ``None`` when its
        denominator is not a monomial in ``s``."""
        import sympy as sp
        from _brute import A, Z, poly2_to_sympy

        s = sp.Symbol("s")
        num, den = sp.fraction(sp.together(poly2_to_sympy(poly).subs({A: 1, Z: s - 1 / s})))
        den = sp.Poly(den, s)
        if not den.is_monomial:
            return None
        ((k,), c), = den.terms()
        terms = {}
        for (e,), v in sp.Poly(sp.expand(num), s).terms():
            assert v % c == 0
            terms[e - k] = int(v // c)
        return LaurentPoly1(terms)

    @given(poly_terms, poly_terms)
    @settings(max_examples=150, deadline=None)
    def test_random_polynomials(self, t1, t2):
        # the second part vanishes at a = 1 whatever its z-powers
        p = LaurentPoly2(t1) + LaurentPoly2(t2) * P("a - 1")
        expected = self.sympy_alexander(p)
        if expected is None:
            with pytest.raises(SubstitutionError):
                p.substitute_alexander()
        else:
            assert p.substitute_alexander() == expected

    def test_corpus_words(self):
        for word in random_words(100, max_crossings=7, max_strands=4, seed=17):
            assert alexander(word).delta == self.sympy_alexander(homfly(word)), word.text()


class TestBinomialRow:
    """Each binomial row, and each expansion built from one, against sympy."""

    KS = range(41)

    def test_rows_are_the_binomial_coefficients(self):
        import sympy as sp

        x = sp.Symbol("x")
        for k in self.KS:
            assert binomial_row(k) == sp.Poly((1 + x) ** k, x).all_coeffs()[::-1]

    def test_delta_powers(self):
        import sympy as sp
        from _brute import A, Z, poly2_to_sympy

        for k in self.KS:
            assert poly2_to_sympy(_delta_power(k)) == sp.expand(((A - 1 / A) / Z) ** k)

    def test_tree_sum_powers(self):
        import sympy as sp
        from _brute import A, Z, poly2_to_sympy

        for k in self.KS:
            # one leaf with gamma = k + 1 on 2 strands of writhe 1
            down = assemble_tree_sum({(k + 1, 0): 1}, 2, 1, False)
            up = assemble_tree_sum({(k + 1, 0): 1}, 2, 1, True)
            assert poly2_to_sympy(down) == sp.expand(A**-2 * ((A**2 - 1) / Z) ** k)
            assert poly2_to_sympy(up) == sp.expand(((1 - A**-2) / Z) ** k)

    def test_alexander_powers(self):
        import sympy as sp

        s = sp.Symbol("s")
        for k in self.KS:
            expected = sp.Poly(sp.expand((s - 1 / s) ** k * s**k), s)
            terms = {e - k: int(c) for (e,), c in expected.terms()}
            assert LaurentPoly2({(k, 0): 1}).substitute_alexander() == LaurentPoly1(terms)
