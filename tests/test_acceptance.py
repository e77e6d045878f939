"""Acceptance suite: one test per criterion, each printed as a pass line.

Every value asserted here is exact; the only tolerances are the stated wall
clock budgets.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import time
from collections import Counter

import pytest

from braidpoly import (
    LaurentPoly2,
    SMOOTHED,
    alexander,
    braid_index_certificate,
    classify,
    construct_u_prime,
    construct_u_star,
    construct_v_star,
    homfly,
    homfly_hecke,
    homfly_jaeger,
    leaf_membership_test,
    markov_variants,
    mfw_bounds,
    mirror,
    parse_braid,
    verify_bijection,
    writhe,
)
from braidpoly.corpus import all_words, alternating_words, random_words
from braidpoly.resolver import enumerate_leaves
from braidpoly.resolver import ASCENDING, DESCENDING, assemble_tree_sum

UNKNOT_FACTOR = LaurentPoly2({(-1, 1): 1, (-1, -1): -1})  # a*z^-1 - a^-1*z^-1

FIXTURES = {
    "1 1": "a^-1*z + a^-1*z^-1 - a^-3*z^-1",
    "1 1 1": "a^-2*z^2 + 2*a^-2 - a^-4",
    "1 -2 1 -2": "a^2 - z^2 - 1 + a^-2",
}


@pytest.fixture(scope="module")
def corpus():
    words = list(all_words(2, 6)) + list(all_words(3, 6))
    words += random_words(500, max_crossings=8, max_strands=4, seed=42)
    return words


@pytest.fixture(scope="module")
def alternating_corpus():
    return alternating_words(200, max_strands=5, seed=11)


def report(number, name, start):
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({time.perf_counter() - start:.2f}s)")


def five_methods(word):
    """The paper's four formulas, then the Hecke trace, an independent algorithm."""
    return (
        homfly(word, DESCENDING),
        homfly(word, ASCENDING),
        homfly_jaeger(word, "standard"),
        homfly_jaeger(word, "dual"),
        homfly_hecke(word),
    )


def test_criterion_01_trivial_links():
    start = time.perf_counter()
    for n in range(1, 7):
        expected = UNKNOT_FACTOR ** (n - 1)
        assert homfly(parse_braid("", strands=n), DESCENDING) == expected, n
    assert time.perf_counter() - start < 1.0
    report(1, "trivial-link values n=1..6", start)


def test_criterion_02_fixture_knots():
    start = time.perf_counter()
    for text, expected in FIXTURES.items():
        word = parse_braid(text)
        for value in five_methods(word):
            assert value.to_text() == expected, text
    assert time.perf_counter() - start < 1.0
    report(2, "fixture knots, all five methods", start)


def test_criterion_03_four_method_equality(corpus):
    start = time.perf_counter()
    for word in corpus:
        d, a, j, jd, h = five_methods(word)
        assert d == a == j == jd == h, word.text()
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(3, f"tree, partition and Hecke equality on {len(corpus)} words", start)


def test_criterion_04_leaf_identity(corpus):
    start = time.perf_counter()
    violations = 0
    for word in corpus:
        n = word.strands
        for leaf in enumerate_leaves(word, DESCENDING):
            if leaf.gamma - leaf.writhe != n:
                violations += 1
        for leaf in enumerate_leaves(word, ASCENDING):
            if leaf.gamma + leaf.writhe != n:
                violations += 1
        # the leaves stream from the literal tree; the search must match it
        assert verify_bijection(word, "standard"), word.text()
        assert verify_bijection(word, "dual"), word.text()
    assert violations == 0
    report(4, "component-writhe identity at every leaf", start)


def test_criterion_05_skein_relation(corpus):
    start = time.perf_counter()
    from braidpoly.checks import check_skein

    for word in corpus:
        assert check_skein(word) is None, word.text()
    report(5, "skein relation at every letter", start)


def test_criterion_06_markov_and_mirror_invariance(corpus):
    start = time.perf_counter()
    for word in corpus:
        reference = homfly(word, DESCENDING)
        for variant in markov_variants(word, seed=9, count=20):
            assert homfly_jaeger(variant.word, "standard") == reference, (
                word.text(),
                variant,
            )
        assert homfly(mirror(word), DESCENDING) == reference.mirrored(), word.text()
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(6, "Markov (20 variants) and mirror invariance", start)


def test_criterion_07_mfw_window(corpus):
    start = time.perf_counter()
    for word in corpus:
        n, w = word.strands, writhe(word)
        poly = homfly(word, DESCENDING)
        for (_, da), _ in poly.terms():
            assert 1 - n - w <= da <= n - 1 - w, word.text()
        E, e, span = poly.a_degrees()
        assert span // 2 + 1 <= n
    report(7, "MFW degree window containment", start)


def test_criterion_08_reduced_alternating_law(alternating_corpus):
    start = time.perf_counter()
    assert len(alternating_corpus) >= 200
    for word in alternating_corpus:
        n, w = word.strands, writhe(word)
        r = mfw_bounds(word)
        assert (r.E, r.e, r.span) == (n - 1 - w, 1 - n - w, 2 * (n - 1)), word.text()
        cert = braid_index_certificate(word)
        assert cert.certified and cert.braid_index == n, word.text()
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(8, f"reduced alternating degree law on {len(alternating_corpus)} words", start)


def _extremal_shape(word, states):
    live = Counter(word.gaps[i] for i, s in enumerate(states) if s is not SMOOTHED)
    return all(
        live.get(gap, 0) == (0 if gap % 2 else 2) for gap in range(1, word.strands)
    )


def test_criterion_09_witness_constructions(alternating_corpus):
    start = time.perf_counter()
    for word in alternating_corpus:
        if not classify(word).positive_leading:
            word = mirror(word)
        n, c = word.strands, len(word)
        u = construct_u_star(word)
        assert leaf_membership_test(word, u.states, DESCENDING), word.text()
        assert len(u.permutation().cycles) == n
        extremal_leaves = [
            leaf.states
            for leaf in enumerate_leaves(word, DESCENDING)
            if _extremal_shape(word, leaf.states)
        ]
        assert extremal_leaves == [u.states], word.text()
        assert verify_bijection(word, "standard"), word.text()

        v = construct_v_star(word)
        assert leaf_membership_test(word, v.states, ASCENDING), word.text()
        assert len(v.permutation().cycles) == n

        up = construct_u_prime(word)
        t_max = c - n + 1
        assert sum(1 for s in up.states if s is SMOOTHED) == t_max
        assert len(up.permutation().cycles) == 1
        assert leaf_membership_test(word, up.states, DESCENDING), word.text()
        for leaf in enumerate_leaves(word, DESCENDING):
            if leaf.gamma == 1:
                assert leaf.t <= t_max, word.text()
    report(9, "u*/v*/u' witnesses exhaustive against leaf streams", start)


def test_criterion_10_alexander(alternating_corpus):
    start = time.perf_counter()
    for word in alternating_corpus:
        assert alexander(word).leading_is_unit, word.text()
    fig8 = alexander(parse_braid("1 -2 1 -2"))
    assert fig8.delta.to_text() == "-s^2 + 3 - s^-2"
    report(10, "unit Alexander leading coefficients", start)


def test_criterion_11_bijection(corpus):
    start = time.perf_counter()
    for word in corpus:
        assert verify_bijection(word, "standard"), word.text()
        assert verify_bijection(word, "dual"), word.text()
    report(11, "leaf/partition bijection, both variants", start)


def test_criterion_12_performance_and_determinism():
    start = time.perf_counter()
    word = parse_braid("1 -2 3 1 1 -2 -2 3 3 1 -2 3 1 -2")
    assert len(word) == 14 and word.strands == 4
    values = five_methods(word)
    assert len(set(values)) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0

    # runs are bit-identical, and the leaf sum is order-independent:
    # accumulating the same contributions in shuffled order rebuilds the
    # identical polynomial (the contract any parallel schedule must meet)
    assert five_methods(word) == values
    import random

    contributions = [
        ((leaf.gamma, leaf.t), -1 if leaf.t_neg % 2 else 1)
        for leaf in enumerate_leaves(word, DESCENDING)
    ]
    rng = random.Random(1)
    for _ in range(3):
        rng.shuffle(contributions)
        counts = {}
        for key, sign in contributions:
            counts[key] = counts.get(key, 0) + sign
        rebuilt = assemble_tree_sum(counts, word.strands, writhe(word), False)
        assert rebuilt == values[0]
    assert verify_bijection(word, "standard")
    report(12, f"14-crossing word, five methods in {elapsed:.2f}s; deterministic", start)
