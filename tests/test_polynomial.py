import math
from collections import defaultdict
from fractions import Fraction

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
    _add_shifted,
    _expand_row,
    difference_power,
    skein_holds,
)
from braidpoly.braid import parse_braid
from braidpoly.cli import main
from braidpoly.hecke import _delta_power, homfly_hecke
from braidpoly.resolver import assemble_tree_sum, homfly


DELTA = LaurentPoly2({(-1, 1): 1, (-1, -1): -1})  # a*z^-1 - a^-1*z^-1
TREFOIL = LaurentPoly2({(2, -2): 1, (0, -2): 2, (0, -4): -1})  # a^-2*z^2 + 2*a^-2 - a^-4


class TestRingOperations:
    def test_square_of_delta_factor(self):
        base = LaurentPoly2({(-1, 2): 1, (-1, 0): -1})  # (a^2 - 1) z^-1
        assert (base**2).to_text() == "a^4*z^-2 - 2*a^2*z^-2 + z^-2"

    def test_additive_inverse_cancels(self):
        assert not TREFOIL + (-TREFOIL)

    def test_trivial_link_factor_first_power(self):
        assert (DELTA**1).to_text() == "a*z^-1 - a^-1*z^-1"

    def test_pow_zero_is_one(self):
        assert LaurentPoly2({(0, 3): 1, (1, 0): -1}) ** 0 == LaurentPoly2.one()

    def test_scale_monomial(self):
        p = LaurentPoly2({(0, 1): 1, (1, 0): 1})  # a + z
        assert p.scale_monomial(dz=1, da=-2, coeff=3).to_text() == "3*a^-1*z + 3*a^-2*z^2"

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            LaurentPoly2({(0, 1): 1}) ** -1


poly_terms = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.integers(-9, 9),
    max_size=6,
)


class TestConstructors:
    """Both constructors take integers only; they never truncate or keep a zero."""

    @pytest.mark.parametrize(
        "terms", [{(0, 0): 0.4}, {(0, 0): 2.5}, {(1.5, 0): 1}, {(0, 2.0): 1}, {(0, 0): "1"}]
    )
    def test_two_variables_reject_non_integers(self, terms):
        with pytest.raises(TypeError):
            LaurentPoly2(terms)

    @pytest.mark.parametrize("terms", [{1.5: 2.9}, {1: 2.9}, {1.0: 1}, {0: 0.0}])
    def test_one_variable_rejects_non_integers(self, terms):
        with pytest.raises(TypeError):
            LaurentPoly1(terms)

    def test_zero_coefficients_are_dropped(self):
        assert LaurentPoly2({(0, 0): 0, (1, 1): 2}) == LaurentPoly2({(1, 1): 2})
        assert not LaurentPoly2({(0, 0): 0})
        assert LaurentPoly2({(0, 0): 0}) == LaurentPoly2()
        assert not LaurentPoly1({3: 0})

    def test_integer_types_are_stored_as_int(self):
        p = LaurentPoly2({(True, 0): True})
        ((key, coeff),) = p.terms()
        assert type(coeff) is int and all(type(e) is int for e in key)
        assert p == LaurentPoly2({(1, 0): 1})
        assert LaurentPoly1({False: True}) == LaurentPoly1({0: 1})


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



class TestDegrees:
    def test_two_component_trivial_value(self):
        assert DELTA.a_degrees() == (1, -1, 2)

    def test_trefoil_degrees(self):
        assert TREFOIL.a_degrees() == (-2, -4, 2)

    def test_constant(self):
        assert LaurentPoly2.one().a_degrees() == (0, 0, 0)

    def test_zero_raises(self):
        with pytest.raises(ZeroPolynomialError):
            LaurentPoly2().a_degrees()

    @given(poly_terms, st.integers(-3, 3))
    @settings(max_examples=60)
    def test_monomial_shift(self, t1, k):
        p = LaurentPoly2(t1)
        if not p:
            return
        E, e, span = p.a_degrees()
        E2, e2, span2 = p.scale_monomial(da=k).a_degrees()
        assert (E2, e2, span2) == (E + k, e + k, span)


class TestHash:
    @pytest.mark.parametrize("text", ["1 -2 1 -2", "1 1 1", "1 2 -1 -3 2 2"])
    def test_equal_values_from_every_route_hash_equal(self, text):
        tree = homfly(parse_braid(text))
        trace = homfly_hecke(parse_braid(text))
        parsed = LaurentPoly2(dict(tree.terms()))
        summed = parsed + LaurentPoly2()
        assert tree == trace == parsed == summed
        assert hash(tree) == hash(trace) == hash(parsed) == hash(summed)
        assert len({tree, trace, parsed, summed}) == 1


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
        assert LaurentPoly2().to_text() == "0"

    @given(poly_terms, poly_terms, st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
    @settings(max_examples=200)
    def test_output_is_one_to_one_with_the_value(self, t1, t2, key):
        p, q = LaurentPoly2(t1), LaurentPoly2(t2)
        same = (q + p) - q  # equal to p, its terms stored in another order
        assert (same.to_text(), same.to_json_terms()) == (p.to_text(), p.to_json_terms())
        for c in (-2, -1, 1, 3):
            moved = p + LaurentPoly2({key: c})
            assert moved.to_text() != p.to_text() and moved.to_json_terms() != p.to_json_terms()


class TestMirrorSubstitution:
    def test_mirror_swaps_degrees_and_signs(self):
        assert TREFOIL.mirrored() == LaurentPoly2({(2, 2): 1, (0, 2): 2, (0, 4): -1})

    @given(poly_terms)
    @settings(max_examples=60)
    def test_involution(self, t1):
        p = LaurentPoly2(t1)
        assert p.mirrored().mirrored() == p


class TestAlexanderSubstitution:
    def test_unknot(self):
        assert LaurentPoly2.one().substitute_alexander() == LaurentPoly1({0: 1})

    def test_figure_eight(self):
        p = LaurentPoly2({(0, 2): 1, (0, -2): 1, (0, 0): -1, (2, 0): -1})
        assert p.substitute_alexander().to_text() == "-s^2 + 3 - s^-2"

    def test_two_component_trivial_link_vanishes(self):
        assert not DELTA.substitute_alexander()

    def test_hopf_value(self):
        p = LaurentPoly2({(1, -1): 1, (-1, -1): 1, (-1, -3): -1})  # a^-1*z + a^-1*z^-1 - a^-3*z^-1
        assert p.substitute_alexander().to_text() == "s - s^-1"

    def test_non_link_value_rejected(self):
        with pytest.raises(SubstitutionError):
            LaurentPoly2({(-1, 0): 1}).substitute_alexander()

    def test_leading(self):
        d = LaurentPoly1({2: -1, 0: 3, -2: -1})
        assert d.leading() == (2, -1)
        with pytest.raises(ZeroPolynomialError):
            LaurentPoly1().leading()


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
        p = LaurentPoly2(t1) + LaurentPoly2(t2) * LaurentPoly2({(0, 1): 1, (0, 0): -1})
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
    """The one expansion of ``(x - x^-1)^k``, and each weight built from it, against sympy."""

    KS = range(41)

    def test_rows_are_the_binomial_coefficients(self):
        import sympy as sp

        x = sp.Symbol("x")
        for k in self.KS:
            terms = difference_power(k)
            row = sp.Poly((1 + x) ** k, x).all_coeffs()[::-1]
            assert [c for _, c in terms] == [(-1) ** j * b for j, b in enumerate(row)]
            expected = sp.Poly(sp.expand((x - 1 / x) ** k * x**k), x)
            assert dict(terms) == {(0, e - k): int(c) for (e,), c in expected.terms()}
            assert [key for key, _ in terms] == [(0, e) for e in range(k, -k - 1, -2)]

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


class TestKeptRows:
    """Rows are expanded once per process and returned as the same tuple."""

    def test_rows_against_math_comb(self):
        for k in range(61):
            row = difference_power(k)
            assert row == tuple(((0, k - 2 * j), (-1) ** j * math.comb(k, j)) for j in range(k + 1))
            assert difference_power(k) is row

    def test_wide_rows_are_not_kept(self):
        from braidpoly.polynomial import _kept_row

        for k in (63, 64, 65, 200):
            difference_power(k)
        assert _kept_row.cache_info().currsize <= _kept_row.cache_info().maxsize == 64
        row = difference_power(200)
        assert row == tuple(((0, 200 - 2 * j), (-1) ** j * math.comb(200, j)) for j in range(201))
        assert difference_power(200) is not row

    def test_tree_sum_expands_each_wide_row_once(self, monkeypatch):
        import braidpoly.polynomial as polynomial

        counts = {(65, 0): 1, (65, 2): -1, (65, 3): 2, (70, 1): 1, (70, 4): -3, (3, 0): 1}
        parts = [assemble_tree_sum({key: m}, 9, 1, False) for key, m in counts.items()]
        calls, real = [], polynomial._expand_row
        monkeypatch.setattr(polynomial, "_expand_row", lambda k: calls.append(k) or real(k))
        assert assemble_tree_sum(counts, 9, 1, False) == sum(parts, LaurentPoly2())
        assert sorted(calls) == [64, 69]

    @pytest.mark.parametrize("k", [-1, -64])
    def test_negative_power_rejected(self, k):
        with pytest.raises(ValueError):
            difference_power(k)

    def test_tree_sum_rejects_a_leaf_with_no_component(self):
        with pytest.raises(ValueError):
            assemble_tree_sum({(0, 0): 1}, 2, 0, False)


tallies = st.dictionaries(
    st.tuples(st.integers(1, 9), st.integers(0, 8)), st.integers(-4, 4), max_size=12
)


class TestCleanTreeSum:
    @given(tallies, st.integers(1, 6), st.integers(-8, 8), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_sum_is_clean_and_equals_the_weights(self, counts, strands, writhe, ascending):
        result = assemble_tree_sum(counts, strands, writhe, ascending)
        assert all(c != 0 for _, c in result.terms())
        assert result == LaurentPoly2(dict(result.terms()))
        # the same sum in polynomial arithmetic: each leaf times its weight
        base = LaurentPoly2({(-1, 0): 1, (-1, -2): -1} if ascending else {(-1, 2): 1, (-1, 0): -1})
        prefactor = strands - 1 - writhe if ascending else 1 - strands - writhe
        expected = LaurentPoly2()
        for (gamma, t), mult in counts.items():
            expected = expected + (base ** (gamma - 1)).scale_monomial(t, prefactor, mult)
        assert result == expected


class TestSkeinHolds:
    """The one-pass skein test against the same identity in polynomial arithmetic."""

    @given(poly_terms, poly_terms, poly_terms)
    @settings(max_examples=200)
    def test_matches_arithmetic(self, t1, t2, t3):
        plus, minus, zero = LaurentPoly2(t1), LaurentPoly2(t2), LaurentPoly2(t3)
        lhs = plus.scale_monomial(da=1) - minus.scale_monomial(da=-1)
        assert skein_holds(plus, minus, zero) == (lhs == zero.scale_monomial(dz=1))

    @given(poly_terms, poly_terms, st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
    @settings(max_examples=200)
    def test_holds_on_the_solved_zero_and_fails_one_term_off(self, t1, t2, key):
        plus, minus = LaurentPoly2(t1), LaurentPoly2(t2)
        zero = (plus.scale_monomial(da=1) - minus.scale_monomial(da=-1)).scale_monomial(dz=-1)
        assert skein_holds(plus, minus, zero)
        assert not skein_holds(plus, minus, zero + LaurentPoly2({key: 1}))
        assert not skein_holds(plus + LaurentPoly2({key: 1}), minus, zero)
        assert not skein_holds(plus, minus + LaurentPoly2({key: 1}), zero)

    def test_trefoil_at_its_first_letter(self):
        trefoil = homfly(parse_braid("1 1 1"))
        hopf = homfly(parse_braid("1 1"))
        assert skein_holds(trefoil, homfly(parse_braid("-1 1 1")), hopf)
        assert not skein_holds(trefoil, homfly(parse_braid("-1 1 1")), trefoil)


POINTS = ((Fraction(2), Fraction(3)), (Fraction(-1, 2), Fraction(5)))  # (a, z)


def value(terms, a, z):
    """``((z, a), c)`` pairs summed at ``a``, ``z`` in exact rationals."""
    return sum((c * z**dz * a**da for (dz, da), c in terms), Fraction(0))


def clean(p):
    """``p``, once it is checked to store no zero coefficient."""
    assert all(p._terms.values()), p._terms
    return p


class TestExactEvaluation:
    """Each exact sum against the same sum of values at two rational points.

    The reference evaluates the term maps with ``Fraction`` and shares no
    code with the package's one accumulate loop, ``_add_shifted``.
    """

    @given(poly_terms, poly_terms)
    @settings(max_examples=200)
    def test_ring_operations(self, t1, t2):
        p, q = LaurentPoly2(t1), LaurentPoly2(t2)
        for a, z in POINTS:
            vp, vq = value(t1.items(), a, z), value(t2.items(), a, z)
            assert value(clean(p + q).terms(), a, z) == vp + vq
            assert value(clean(p - q).terms(), a, z) == vp - vq
            assert value(clean(p * q).terms(), a, z) == vp * vq
        assert not clean(p - p)
        assert not clean(p + (-p))

    @given(
        poly_terms, poly_terms, poly_terms, st.booleans(), st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    )
    @settings(max_examples=200)
    def test_skein_holds(self, t1, t2, t3, solved, key):
        plus, minus = LaurentPoly2(t1), LaurentPoly2(t2)
        if solved:  # zero = (a*plus - a^-1*minus) / z, summed here term by term
            t3 = defaultdict(int)
            for (dz, da), c in t1.items():
                t3[dz - 1, da + 1] += c
            for (dz, da), c in t2.items():
                t3[dz - 1, da - 1] -= c
        zero = LaurentPoly2(t3)
        evaluated = [
            a * value(t1.items(), a, z) - value(t2.items(), a, z) / a == z * value(t3.items(), a, z)
            for a, z in POINTS
        ]
        holds = skein_holds(plus, minus, zero)
        assert all(evaluated) or not holds
        if solved:
            assert holds
            # one more monomial in any of the three changes both values
            off = LaurentPoly2({key: 1})
            assert not skein_holds(plus, minus, zero + off)
            assert not skein_holds(plus + off, minus, zero)
            assert not skein_holds(plus, minus + off, zero)

    @given(tallies, st.integers(1, 6), st.integers(-8, 8), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_tree_sum_is_its_closed_form(self, counts, strands, writhe, ascending):
        result = clean(assemble_tree_sum(counts, strands, writhe, ascending))
        prefactor = strands - 1 - writhe if ascending else 1 - strands - writhe
        for a, z in POINTS:
            base = (1 - a**-2) / z if ascending else (a**2 - 1) / z
            leaves = sum(
                (m * z**t * base ** (gamma - 1) for (gamma, t), m in counts.items()), Fraction(0)
            )
            assert value(result.terms(), a, z) == a**prefactor * leaves

    @given(
        poly_terms,
        poly_terms,
        st.integers(-3, 3),
        st.integers(-3, 3),
        st.sampled_from([-3, -1, 1, 2]),
    )
    @settings(max_examples=200)
    def test_kernel(self, t1, t2, dz, da, c):
        p, q = LaurentPoly2(t1), LaurentPoly2(t2)
        acc = dict(p._terms)
        pairs = tuple(q._terms.items())
        _add_shifted(acc, pairs, dz, da, c)
        assert all(acc.values())
        assert pairs == tuple(q._terms.items())
        for a, z in POINTS:
            shifted = c * z**dz * a**da * value(t2.items(), a, z)
            assert value(acc.items(), a, z) == value(t1.items(), a, z) + shifted
        _add_shifted(acc, pairs, dz, da, -c)
        assert acc == p._terms
        _add_shifted(acc, p._terms.items(), c=-1)
        assert acc == {}


class TestSharedRows:
    """The kept rows of ``difference_power`` are shared, so every caller only reads them."""

    def test_rows_are_unchanged_after_the_commands(self, capsys):
        kept = [difference_power(k) for k in range(64)]
        assert main(["selftest", "--samples", "50"]) == 0
        assert main(["analyze", "1 1 1 2 -3 -3 -3"]) == 0
        assert main(["compute", "1 1 1 2 -3 -3 -3", "--method", "all"]) == 0
        assert "all methods agree" in capsys.readouterr().out
        for k, row in enumerate(kept):
            assert difference_power(k) is row
            assert type(row) is tuple and all(type(term) is tuple for term in row)
            assert row == _expand_row(k)
