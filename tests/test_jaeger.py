import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidpoly.jaeger
from braidpoly import (
    BraidWord,
    CircuitPartition,
    enumerate_admissible,
    enumerate_leaves,
    homfly,
    homfly_jaeger,
    is_admissible,
    parse_braid,
    verify_bijection,
)
from braidpoly.braid import walk
from braidpoly.jaeger import DUAL, STANDARD
from braidpoly.resolver import ASCENDING, DESCENDING

EXAMPLE_WORD = "-1 3 -2 -4 -4 -4 1 -3"


def words(max_len=6, max_gap=3):
    token = st.integers(1, max_gap).flatmap(lambda g: st.sampled_from([g, -g]))
    return st.lists(token, max_size=max_len).map(BraidWord.from_tokens)


def bumped(leaves, field):
    """The search records with one field of the first record raised by one.

    A record is ``(smoothed, flipped, gamma, t, t_neg)``.
    """
    first = list(leaves[0])
    first[field] += 1
    return [tuple(first)] + leaves[1:]


class TestAdmissibility:
    @pytest.mark.parametrize("text", ["1 1 1", "-1", EXAMPLE_WORD, "1 -2 1 -2"])
    def test_nothing_smoothed_is_always_admissible(self, text):
        partition = CircuitPartition(parse_braid(text), frozenset())
        assert is_admissible(partition, STANDARD)
        assert is_admissible(partition, DUAL)

    def test_fully_smoothed_positive_triple(self):
        partition = CircuitPartition(parse_braid("1 1 1"), frozenset({0, 1, 2}))
        assert is_admissible(partition, STANDARD)

    def test_smoothed_negative_crossing_fails_standard(self):
        partition = CircuitPartition(parse_braid("-1"), frozenset({0}))
        assert not is_admissible(partition, STANDARD)
        assert is_admissible(partition, DUAL)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            CircuitPartition(parse_braid("1"), frozenset({3}))

    @given(words(max_len=5))
    @settings(max_examples=50, deadline=None)
    def test_admissibility_is_first_arrival_from_under_arm(self, word):
        # pointwise agreement between the tangence-side predicate and the
        # under-arm arrival rule, across all single-crossing smoothings
        for i in range(len(word)):
            partition = CircuitPartition(word, frozenset({i}))
            steps = walk(word, partition.as_diagram().states)
            col = next(col for j, col, first in steps if j == i and first)
            under = (col == word.gaps[i]) == (word.signs[i] > 0)
            assert is_admissible(partition, STANDARD) == under
            assert is_admissible(partition, DUAL) == (not under)


class TestEnumeration:
    def test_descending_word_has_only_trivial_partition(self):
        parts = list(enumerate_admissible(parse_braid("-1"), STANDARD))
        assert [sorted(p.smoothed) for p in parts] == [[]]

    def test_single_positive_crossing(self):
        parts = {frozenset(p.smoothed) for p in enumerate_admissible(parse_braid("1"), STANDARD)}
        assert parts == {frozenset(), frozenset({0})}

    def test_empty_word(self):
        parts = list(enumerate_admissible(parse_braid("", strands=3), STANDARD))
        assert len(parts) == 1
        assert len(parts[0].as_diagram().permutation().cycles) == 3

    @given(words(max_len=6))
    @settings(max_examples=50, deadline=None)
    def test_every_emitted_partition_is_admissible(self, word):
        for variant in (STANDARD, DUAL):
            emitted = list(enumerate_admissible(word, variant))
            assert len({p.smoothed for p in emitted}) == len(emitted)
            for p in emitted:
                assert is_admissible(p, variant)

    @given(words(max_len=4, max_gap=2))
    @settings(max_examples=30, deadline=None)
    def test_enumeration_matches_exhaustive_filter(self, word):
        import itertools

        for variant in (STANDARD, DUAL):
            emitted = {p.smoothed for p in enumerate_admissible(word, variant)}
            brute = {
                frozenset(subset)
                for r in range(len(word) + 1)
                for subset in itertools.combinations(range(len(word)), r)
                if is_admissible(CircuitPartition(word, frozenset(subset)), variant)
            }
            assert emitted == brute


class TestJaegerPolynomial:
    def test_unknot(self):
        assert homfly_jaeger(parse_braid("1"), STANDARD).to_text() == "1"
        assert homfly_jaeger(parse_braid("1"), DUAL).to_text() == "1"

    def test_trefoil(self):
        assert (
            homfly_jaeger(parse_braid("1 1 1"), STANDARD).to_text()
            == "a^-2*z^2 + 2*a^-2 - a^-4"
        )

    def test_trivial_links(self):
        from braidpoly import LaurentPoly2

        for n in range(1, 6):
            expected = LaurentPoly2.from_text("a*z^-1 - a^-1*z^-1") ** (n - 1)
            assert homfly_jaeger(parse_braid("", strands=n), STANDARD) == expected
            assert homfly_jaeger(parse_braid("", strands=n), DUAL) == expected

    @given(words(max_len=6))
    @settings(max_examples=60, deadline=None)
    def test_matches_tree_formulas_termwise(self, word):
        assert homfly_jaeger(word, STANDARD) == homfly(word, DESCENDING)
        assert homfly_jaeger(word, DUAL) == homfly(word, ASCENDING)


class TestBijection:
    @pytest.mark.parametrize("text,strands", [("1", None), (EXAMPLE_WORD, None), ("", 4)])
    def test_examples(self, text, strands):
        word = parse_braid(text, strands)
        assert verify_bijection(word, STANDARD)
        assert verify_bijection(word, DUAL)

    def test_leaf_breaking_the_component_writhe_identity_is_rejected(self, monkeypatch):
        # With no violation reported, the literal tree of "1" is its all-kept
        # root, and a search yielding that root matches it leaf for leaf.  The
        # root has gamma = 1 and w = 1: gamma + w = n = 2 holds for the
        # ascending tree, but gamma - w = 0 breaks the descending identity.
        word = parse_braid("1")
        violations = braidpoly.jaeger._violations

        def no_violations(word, states, ascending, cycles):
            # the real walk still runs and fills ``cycles``, so the literal
            # side still counts its gamma
            for _ in violations(word, states, ascending, cycles):
                pass
            return iter(())

        monkeypatch.setattr(braidpoly.jaeger, "_violations", no_violations)
        monkeypatch.setattr(
            braidpoly.jaeger, "leaf_stream", lambda word, ascending: iter([(0, 0, 1, 0, 0)])
        )
        assert verify_bijection(word, DUAL)
        assert not verify_bijection(word, STANDARD)

    @pytest.mark.parametrize("variant", [STANDARD, DUAL])
    @pytest.mark.parametrize(
        "fault",
        [
            pytest.param(lambda leaves: leaves[1:], id="dropped"),
            pytest.param(lambda leaves: leaves[:-1] + leaves[:1], id="duplicated"),
            pytest.param(lambda leaves: leaves + leaves[:1], id="repeated"),
            pytest.param(lambda leaves: bumped(leaves, 2), id="wrong-gamma"),
            pytest.param(lambda leaves: bumped(leaves, 4), id="wrong-t-neg"),
        ],
    )
    def test_faulty_search_is_rejected(self, monkeypatch, fault, variant):
        # each fault changes the search's records while the literal tree
        # stays as it is
        word = parse_braid(EXAMPLE_WORD)
        search = braidpoly.jaeger.leaf_stream
        assert len(list(search(word, variant == DUAL))) > 1
        monkeypatch.setattr(
            braidpoly.jaeger,
            "leaf_stream",
            lambda word, ascending: iter(fault(list(search(word, ascending)))),
        )
        assert not verify_bijection(word, variant)

    @pytest.mark.parametrize("variant", [STANDARD, DUAL])
    def test_two_literal_leaves_sharing_a_smoothed_set_are_rejected(self, monkeypatch, variant):
        # every smoothed child is pushed twice, so each of its leaves comes
        # out twice; the records of the copies are equal, so only the
        # distinct-smoothed-set check can see them
        word = parse_braid(EXAMPLE_WORD)
        split = braidpoly.jaeger.split_at

        def split_twice(diagram, i):
            flipped, smoothed = split(diagram, i)
            return flipped, smoothed, smoothed

        monkeypatch.setattr(braidpoly.jaeger, "split_at", split_twice)
        assert not verify_bijection(word, variant)

    @given(words(max_len=6))
    @settings(max_examples=60, deadline=None)
    def test_bijection_on_random_words(self, word):
        assert verify_bijection(word, STANDARD)
        assert verify_bijection(word, DUAL)

    @given(words(max_len=6))
    @settings(max_examples=40, deadline=None)
    def test_partition_count_equals_leaf_count(self, word):
        assert sum(1 for _ in enumerate_admissible(word, STANDARD)) == sum(
            1 for _ in enumerate_leaves(word, DESCENDING)
        )
        assert sum(1 for _ in enumerate_admissible(word, DUAL)) == sum(
            1 for _ in enumerate_leaves(word, ASCENDING)
        )
