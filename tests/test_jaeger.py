import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidpoly.jaeger
import braidpoly.resolver
from braidpoly import (
    BraidWord,
    CircuitPartition,
    ResolvedDiagram,
    enumerate_admissible,
    homfly,
    homfly_jaeger,
    is_admissible,
    parse_braid,
    verify_bijection,
)
from braidpoly.jaeger import DUAL, STANDARD
from braidpoly.resolver import ASCENDING, DESCENDING, enumerate_leaves

from _brute import KEEP, SMOOTH, brute_walk, word_letters

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


def signed_tally(records):
    """The signed ``(gamma, t)`` counts of search records, as ``leaf_search`` tallies them."""
    tally = {}
    for _, _, gamma, t, t_neg in records:
        tally[gamma, t] = tally.get((gamma, t), 0) + (-1 if t_neg & 1 else 1)
    return tally


def faulty_search(fault):
    """A ``leaf_search`` whose records pass through ``fault``.

    It returns the tally of the faulty records, so the tally agrees with
    them and only the comparison with the literal tree can see the fault.
    """
    search = braidpoly.jaeger.leaf_search

    def run(word, ascending, leaves=None):
        records = []
        search(word, ascending, records)
        records = fault(records)
        if leaves is not None:
            leaves += records
        return signed_tally(records)

    return run


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

    def test_smoothed_indices_must_be_ints(self):
        # True and 0.0 passed the range test and were taken for index 1 and 0
        word = parse_braid("1 1 1")
        with pytest.raises(TypeError, match="int"):
            CircuitPartition(word, frozenset({True}))
        with pytest.raises(TypeError, match="int"):
            CircuitPartition(word, frozenset({0.0}))
        assert CircuitPartition(word, frozenset({1})).smoothed == {1}

    def test_smoothed_must_be_a_frozenset(self):
        # a set built, but the partition could not be hashed
        word = parse_braid("1 1")
        with pytest.raises(TypeError, match="frozenset"):
            CircuitPartition(word, {0})
        partition = CircuitPartition(word, frozenset({0}))
        assert partition == CircuitPartition(parse_braid("1 1"), frozenset({0}))
        assert hash(partition) == hash(CircuitPartition(parse_braid("1 1"), frozenset({0})))
        assert repr(partition) == (
            "CircuitPartition(word=BraidWord(letters=(1, 1), strands=2), smoothed=frozenset({0}))"
        )
        with pytest.raises(AttributeError):
            partition.smoothed = frozenset()

    @given(words(max_len=5))
    @settings(max_examples=50, deadline=None)
    def test_admissibility_is_first_arrival_from_under_arm(self, word):
        # pointwise agreement between the tangence-side predicate and the
        # under-arm arrival rule, across all single-crossing smoothings
        for i in range(len(word)):
            partition = CircuitPartition(word, frozenset({i}))
            codes = "".join(SMOOTH if j == i else KEEP for j in range(len(word)))
            firsts, _ = brute_walk(word.strands, word_letters(word), codes)
            col = dict(firsts)[i]
            under = (col == word.gaps[i]) == (word.letters[i] > 0)
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
        assert parts[0].smoothed == frozenset()
        assert len(ResolvedDiagram(parts[0].word, ()).permutation().cycles) == 3

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
            expected = LaurentPoly2({(-1, 1): 1, (-1, -1): -1}) ** (n - 1)
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

    @pytest.mark.parametrize("text", ["3 -4 3 -4 4", "-3 4 4 -3 3 -4", "4", "-4 -4 3"])
    def test_untouched_columns_on_both_sides(self, text):
        # the search's slot table and the literal tree's walk each route the
        # walker through columns 1, 2, 6 and 7, which no letter touches
        word = parse_braid(text, 7)
        assert verify_bijection(word, STANDARD)
        assert verify_bijection(word, DUAL)

    def test_leaf_breaking_the_component_writhe_identity_is_rejected(self, monkeypatch):
        # With no violation reported, the literal tree of "1" is its all-kept
        # root, and a search yielding that root matches it leaf for leaf.  The
        # root has gamma = 1 and w = 1: gamma + w = n = 2 holds for the
        # ascending tree, but gamma - w = 0 breaks the descending identity.
        word = parse_braid("1")
        violations = braidpoly.resolver._violations

        def no_violations(word, states, ascending, cycles):
            # the real walk still runs and fills ``cycles``, so the literal
            # side still counts its gamma
            for _ in violations(word, states, ascending, cycles):
                pass
            return iter(())

        monkeypatch.setattr(braidpoly.resolver, "_violations", no_violations)
        monkeypatch.setattr(
            braidpoly.jaeger, "leaf_search", faulty_search(lambda records: [(0, 0, 1, 0, 0)])
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
            pytest.param(lambda leaves: leaves[::-1], id="reordered"),
        ],
    )
    def test_faulty_search_is_rejected(self, monkeypatch, fault, variant):
        # each fault changes the search's records while the literal tree
        # stays as it is
        word = parse_braid(EXAMPLE_WORD)
        records = []
        braidpoly.jaeger.leaf_search(word, variant == DUAL, records)
        assert len(records) > 1
        monkeypatch.setattr(braidpoly.jaeger, "leaf_search", faulty_search(fault))
        assert not verify_bijection(word, variant)

    @pytest.mark.parametrize("variant", [STANDARD, DUAL])
    def test_wrong_tally_with_correct_records_is_rejected(self, monkeypatch, variant):
        # the records are the search's own and match the literal tree, so
        # only the check of the tally against them can see the fault
        word = parse_braid(EXAMPLE_WORD)
        search = braidpoly.jaeger.leaf_search

        def wrong_tally(word, ascending, leaves=None):
            tally = search(word, ascending, leaves)
            tally[next(iter(tally))] += 1
            return tally

        assert verify_bijection(word, variant)
        monkeypatch.setattr(braidpoly.jaeger, "leaf_search", wrong_tally)
        assert not verify_bijection(word, variant)

    @pytest.mark.parametrize("variant", [STANDARD, DUAL])
    def test_two_literal_leaves_sharing_a_smoothed_set_are_rejected(self, monkeypatch, variant):
        # every smoothed child is replaced by a copy of the flipped child, so
        # each leaf of the flipped child comes out twice; the records of the
        # copies are equal, so only the distinct-smoothed-set check can see
        # them
        word = parse_braid(EXAMPLE_WORD)
        split = braidpoly.resolver._split_states

        def flip_twice(states, i):
            toggled, _ = split(states, i)
            return toggled, (*states[:i], toggled, *states[i + 1 :])

        monkeypatch.setattr(braidpoly.resolver, "_split_states", flip_twice)
        assert not verify_bijection(word, variant)

    @pytest.mark.parametrize("variant", [STANDARD, DUAL])
    @pytest.mark.parametrize(
        "text,strands",
        [
            ("1 1 1 1 1 1 1 1", None),
            ("1 -2 3 1 1 -2 -2 3 3 1 -2 3 1 -2", None),
            ("", 3),
            ("1 1 -3", 6),
        ],
    )
    def test_literal_tree_walks_once_per_leaf(self, monkeypatch, text, strands, variant):
        # the flipped child resumes its parent's walk, so a tree of L leaves
        # takes L walks where restarting at every node takes 2L - 1
        word = parse_braid(text, strands)
        records = []
        braidpoly.jaeger.leaf_search(word, variant == DUAL, records)
        walks = []
        violations = braidpoly.resolver._violations

        def counted(*args):
            walks.append(args)
            return violations(*args)

        monkeypatch.setattr(braidpoly.resolver, "_violations", counted)
        assert verify_bijection(word, variant)
        assert len(walks) == len(records)

    def test_literal_tree_builds_its_word_tables_once(self, monkeypatch):
        # each leaf's walk is a new walk, but the successor table and the
        # gaps its first-visit test reads depend on the word alone
        builds = []
        for name in ("column_index", "gaps"):
            build = vars(BraidWord)[name].func

            def counted(word, build=build, name=name):
                builds.append(name)
                return build(word)

            table = functools.cached_property(counted)
            table.__set_name__(BraidWord, name)
            monkeypatch.setattr(BraidWord, name, table)
        nodes = []
        split = braidpoly.resolver._split_states

        def counted_split(states, i):
            nodes.append(i)
            return split(states, i)

        monkeypatch.setattr(braidpoly.resolver, "_split_states", counted_split)
        assert verify_bijection(parse_braid(EXAMPLE_WORD), STANDARD)
        assert len(nodes) > 1
        assert sorted(builds) == ["column_index", "gaps"]

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
        assert verify_bijection(word, STANDARD)
        assert verify_bijection(word, DUAL)
