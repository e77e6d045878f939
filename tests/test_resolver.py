import itertools
import random
import signal
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidpoly import (
    BraidWord,
    FLIPPED,
    KEPT,
    LaurentPoly2,
    ResolvedDiagram,
    SMOOTHED,
    enumerate_leaves,
    first_violation,
    homfly,
    homfly_jaeger,
    leaf_membership_test,
    leaf_statistics,
    mirror,
    parse_braid,
    split_at,
    writhe,
)
from braidpoly.resolver import ASCENDING, DESCENDING, assemble_tree_sum, leaf_stream

from _brute import brute_homfly, brute_leaves, poly2_to_sympy, word_letters

EXAMPLE_WORD = "-1 3 -2 -4 -4 -4 1 -3"

STATE_CHAR = {KEPT: "K", FLIPPED: "F", SMOOTHED: "S"}


def words(max_len=6, max_gap=3):
    token = st.integers(1, max_gap).flatmap(lambda g: st.sampled_from([g, -g]))
    return st.lists(token, max_size=max_len).map(BraidWord.from_tokens)


def leaf_string(leaf) -> str:
    return "".join(STATE_CHAR[s] for s in leaf.states)


def literal_leaves(word, mode):
    """Leaves of the tree expanded node by node, flipped child first."""
    stack = [ResolvedDiagram.all_kept(word)]
    while stack:
        d = stack.pop()
        i = first_violation(d, mode)
        if i is None:
            yield d
        else:
            flipped, smoothed = split_at(d, i)
            stack += [smoothed, flipped]


def sparse_words(max_len):
    """Words in which some column carries no letter.

    Empty words on 1-4 strands, words whose middle gap is unused, and words
    with free strands from a strand override, on the left or the right.
    """
    for strands in range(1, 5):
        yield BraidWord((), strands)
    for alphabet, strands in (((1, -1, 3, -3), 4), ((1, -1, 2, -2), 5), ((2, -2, 3, -3), 5)):
        for length in range(1, max_len + 1):
            for tokens in itertools.product(alphabet, repeat=length):
                yield BraidWord(tokens, strands)


class TestFirstViolation:
    def test_running_example(self):
        d = ResolvedDiagram.all_kept(parse_braid(EXAMPLE_WORD))
        assert first_violation(d, DESCENDING) == 4

    def test_descending_word_has_none(self):
        d = ResolvedDiagram.all_kept(parse_braid("-1"))
        assert first_violation(d, DESCENDING) is None

    def test_empty_word(self):
        d = ResolvedDiagram.all_kept(parse_braid("", strands=3))
        assert first_violation(d, DESCENDING) is None
        assert first_violation(d, ASCENDING) is None

    def test_ascending_mode(self):
        assert first_violation(ResolvedDiagram.all_kept(parse_braid("1")), ASCENDING) is None
        assert first_violation(ResolvedDiagram.all_kept(parse_braid("-1")), ASCENDING) == 0

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            first_violation(ResolvedDiagram.all_kept(parse_braid("1")), "sideways")


class TestSplitAt:
    def test_definition(self):
        d = ResolvedDiagram.all_kept(parse_braid("1"))
        flipped, smoothed = split_at(d, 0)
        assert flipped.states == (FLIPPED,)
        assert smoothed.states == (SMOOTHED,)

    def test_toggle_is_involution(self):
        d = ResolvedDiagram.all_kept(parse_braid("1 2"))
        once, _ = split_at(d, 1)
        twice, _ = split_at(once, 1)
        assert twice == d

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            split_at(ResolvedDiagram.all_kept(parse_braid("1")), 1)

    def test_smoothed_cannot_split(self):
        d = ResolvedDiagram(parse_braid("1"), (SMOOTHED,))
        with pytest.raises(ValueError):
            split_at(d, 0)


class TestLeafEnumeration:
    def test_single_positive_crossing(self):
        leaves = list(enumerate_leaves(parse_braid("1"), DESCENDING))
        assert [leaf_string(l) for l in leaves] == ["F", "S"]
        flipped, smoothed = leaves
        assert (flipped.gamma, flipped.t, flipped.t_neg, flipped.writhe) == (1, 0, 0, -1)
        assert (smoothed.gamma, smoothed.t, smoothed.t_neg, smoothed.writhe) == (2, 1, 0, 0)

    def test_descending_word_is_its_own_leaf(self):
        leaves = list(enumerate_leaves(parse_braid("-1"), DESCENDING))
        assert len(leaves) == 1
        assert leaf_string(leaves[0]) == "K"

    def test_empty_word(self):
        leaves = list(enumerate_leaves(parse_braid("", strands=4), DESCENDING))
        assert len(leaves) == 1
        assert leaves[0].gamma == 4

    def test_empty_word_is_one_leaf_of_free_strands(self):
        for n in range(1, 7):
            for ascending in (False, True):
                assert list(leaf_stream(BraidWord((), n), ascending)) == [(0, 0, n, 0, 0)]

    def test_untouched_override_strands_count_as_components(self):
        # the stream stops at its last letter, before the walk reaches the
        # free strands on the right, so their components come from the
        # writhe alone
        assert list(leaf_stream(BraidWord((1,), 5), False)) == [(0, 1, 4, 0, 0), (1, 0, 5, 1, 0)]
        assert list(leaf_stream(BraidWord((1,), 5), True)) == [(0, 0, 4, 0, 0)]
        assert list(leaf_stream(BraidWord((-2, -2), 6), False)) == [
            (0, 2, 6, 0, 0), (2, 0, 5, 1, 1)
        ]
        assert list(leaf_stream(BraidWord((-2, -2), 6), True)) == [
            (0, 1, 6, 0, 0), (1, 2, 5, 1, 1), (3, 0, 6, 2, 2)
        ]

    @given(words(max_len=6))
    @settings(max_examples=80, deadline=None)
    def test_component_writhe_identity(self, word):
        # the search reads gamma off the leaf's writhe, so the identity is
        # tested on the literal tree, whose gamma is a cycle count
        n = word.strands
        for mode, sign in ((DESCENDING, -1), (ASCENDING, 1)):
            for d in literal_leaves(word, mode):
                cut = d.smoothed
                w = sum(d.effective_sign(j) for j in range(len(word)) if j not in cut)
                assert len(d.permutation().cycles) + sign * w == n
            for leaf in enumerate_leaves(word, mode):
                assert leaf.gamma + sign * leaf.writhe == n

    @given(words(max_len=5))
    @settings(max_examples=50, deadline=None)
    def test_t_fields_consistent(self, word):
        for leaf in enumerate_leaves(word, DESCENDING):
            assert leaf.t == sum(1 for s in leaf.states if s is SMOOTHED)
            assert 0 <= leaf.t_neg <= leaf.t
            assert leaf.smoothed == frozenset(
                i for i, s in enumerate(leaf.states) if s is SMOOTHED
            )


class TestMembership:
    def test_all_smoothed_triple(self):
        word = parse_braid("1 1 1")
        assert leaf_membership_test(word, (SMOOTHED,) * 3)

    def test_single_crossing_cases(self):
        word = parse_braid("1")
        assert leaf_membership_test(word, (FLIPPED,))
        assert not leaf_membership_test(word, (KEPT,))

    @given(words(max_len=4, max_gap=2))
    @settings(max_examples=40, deadline=None)
    def test_membership_characterizes_leaves(self, word):
        # exhaustive over all 3^c state vectors for small words
        import itertools

        enumerated = {leaf.states for leaf in enumerate_leaves(word, DESCENDING)}
        passing = {
            states
            for states in itertools.product((KEPT, FLIPPED, SMOOTHED), repeat=len(word))
            if leaf_membership_test(word, states)
        }
        assert enumerated == passing

    def test_membership_exhaustive_on_eight_crossing_word(self):
        # all 3^8 state vectors of the 5-strand running example
        import itertools

        word = parse_braid(EXAMPLE_WORD)
        enumerated = {leaf.states for leaf in enumerate_leaves(word, DESCENDING)}
        passing = set()
        for states in itertools.product((KEPT, FLIPPED, SMOOTHED), repeat=len(word)):
            if leaf_membership_test(word, states):
                passing.add(states)
        assert enumerated == passing

    @given(words(max_len=4, max_gap=2))
    @settings(max_examples=30, deadline=None)
    def test_ascending_membership_characterizes_ascending_leaves(self, word):
        import itertools

        enumerated = {leaf.states for leaf in enumerate_leaves(word, ASCENDING)}
        passing = {
            states
            for states in itertools.product((KEPT, FLIPPED, SMOOTHED), repeat=len(word))
            if leaf_membership_test(word, states, ASCENDING)
        }
        assert enumerated == passing


TREFOIL = "a^-2*z^2 + 2*a^-2 - a^-4"
HOPF = "a^-1*z + a^-1*z^-1 - a^-3*z^-1"
FIGURE_EIGHT = "a^2 - z^2 - 1 + a^-2"


class TestHomfly:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_trivial_links(self, n):
        expected = LaurentPoly2.from_text("a*z^-1 - a^-1*z^-1") ** (n - 1)
        word = parse_braid("", strands=n)
        assert homfly(word, DESCENDING) == expected
        assert homfly(word, ASCENDING) == expected

    def test_wide_markov_stabilization_is_fast(self):
        # both sides are the 999-component trivial link; each word's leaves
        # reach one component count, so one power of the base is expanded
        start = time.perf_counter()
        assert homfly(parse_braid("1", strands=1000)) == homfly(parse_braid("", strands=999))
        assert time.perf_counter() - start < 2.0

    def test_unknot_from_single_crossing(self):
        assert homfly(parse_braid("1"), DESCENDING) == LaurentPoly2.one()
        assert homfly(parse_braid("1"), ASCENDING) == LaurentPoly2.one()

    def test_trefoil(self):
        assert homfly(parse_braid("1 1 1")).to_text() == TREFOIL

    def test_hopf_link(self):
        assert homfly(parse_braid("1 1")).to_text() == HOPF

    def test_figure_eight(self):
        assert homfly(parse_braid("1 -2 1 -2")).to_text() == FIGURE_EIGHT

    @given(words(max_len=6))
    @settings(max_examples=60, deadline=None)
    def test_modes_agree(self, word):
        assert homfly(word, DESCENDING) == homfly(word, ASCENDING)

    @given(words(max_len=5))
    @settings(max_examples=40, deadline=None)
    def test_skein_relation(self, word):
        if not word.letters:
            return
        from braidpoly.checks import check_skein

        assert check_skein(word) is None

    @given(words(max_len=6))
    @settings(max_examples=50, deadline=None)
    def test_mirror_identity(self, word):
        assert homfly(mirror(word)) == homfly(word).mirrored()

    @given(words(max_len=5))
    @settings(max_examples=30, deadline=None)
    def test_markov_invariance(self, word):
        from braidpoly import markov_variants

        reference = homfly(word)
        for variant in markov_variants(word, seed=3, count=4):
            assert homfly(variant.word) == reference

    @given(words(max_len=6))
    @settings(max_examples=60, deadline=None)
    def test_mfw_degree_window(self, word):
        poly = homfly(word)
        n, w = word.strands, writhe(word)
        for (_, da), _ in poly.terms():
            assert 1 - n - w <= da <= n - 1 - w


class TestMemo:
    """``homfly`` evaluates each word object once per mode, and only that object."""

    def test_second_call_on_same_object_runs_no_search(self, leaf_searches):
        word = parse_braid("1 -2 1 -2")
        first = homfly(word)
        assert homfly(word) is first
        assert len(leaf_searches) == 1

    def test_equal_word_parsed_separately_searches_again(self, leaf_searches):
        first = homfly(parse_braid("1 -2 1 -2"))
        assert homfly(parse_braid("1 -2 1 -2")) == first
        assert len(leaf_searches) == 2

    def test_modes_memoized_separately(self, leaf_searches):
        word = parse_braid("1 -2 1 -2")
        for mode in (DESCENDING, ASCENDING, DESCENDING, ASCENDING):
            homfly(word, mode)
        assert [ascending for _, _, ascending in leaf_searches] == [False, True]

    def test_jaeger_reads_the_paired_tree_memo(self, leaf_searches):
        word = parse_braid("1 -2 1 -2")
        assert homfly_jaeger(word, "standard") is homfly(word)
        assert len(leaf_searches) == 1
        assert homfly_jaeger(word, "dual") is homfly(word, ASCENDING)
        assert len(leaf_searches) == 2


class TestBruteForceOracle:
    """Exhaustive independent recomputation for every small word."""

    def all_small_words(self):
        for strands in (2, 3):
            alphabet = [g * s for g in range(1, strands) for s in (1, -1)]
            for length in range(0, 4):
                for tokens in itertools.product(alphabet, repeat=length):
                    yield BraidWord.from_tokens(tokens, strands)
        yield from sparse_words(max_len=3)

    def test_leaf_sets_match(self):
        for word in self.all_small_words():
            expected = sorted(brute_leaves(word.strands, word_letters(word)))
            got = sorted(leaf_string(l) for l in enumerate_leaves(word, DESCENDING))
            assert got == expected, word.text()

    def test_polynomials_match(self):
        for word in self.all_small_words():
            expected = brute_homfly(word.strands, word_letters(word))
            got = poly2_to_sympy(homfly(word, DESCENDING))
            assert (expected - got).expand() == 0, word.text()

    def random_larger_words(self):
        rng = random.Random(9)
        for _ in range(12):
            strands = rng.randint(2, 4)
            tokens = [
                rng.randint(1, strands - 1) * rng.choice((1, -1))
                for _ in range(rng.randint(4, 5))
            ]
            yield BraidWord.from_tokens(tokens, strands)

    def test_random_larger_words(self):
        for word in self.random_larger_words():
            assert (
                brute_homfly(word.strands, word_letters(word))
                - poly2_to_sympy(homfly(word, DESCENDING))
            ).expand() == 0, word.text()

    def test_ascending_leaf_sets_match(self):
        for word in self.all_small_words():
            expected = sorted(brute_leaves(word.strands, word_letters(word), ascending=True))
            got = sorted(leaf_string(l) for l in enumerate_leaves(word, ASCENDING))
            assert got == expected, word.text()

    def test_ascending_polynomials_match(self):
        for word in itertools.chain(self.all_small_words(), self.random_larger_words()):
            expected = brute_homfly(word.strands, word_letters(word), ascending=True)
            for got in (homfly(word, ASCENDING), homfly_jaeger(word, "dual")):
                assert (expected - poly2_to_sympy(got)).expand() == 0, word.text()


@contextmanager
def deadline(seconds):
    """Raise ``TimeoutError`` in the block after ``seconds``, so a cycling walk fails."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestLeafStreamIsTheTree:
    """The leaf search against the tree expanded node by node."""

    def assert_same_leaves_in_order(self, word):
        for mode in (DESCENDING, ASCENDING):
            expected = [(d.states, len(d.permutation().cycles)) for d in literal_leaves(word, mode)]
            with deadline(10):
                got = [(leaf.states, leaf.gamma) for leaf in enumerate_leaves(word, mode)]
            assert got == expected, (word.text(), word.strands, mode)

    def test_same_leaves_in_order_on_small_three_strand_words(self):
        for length in range(6):
            for tokens in itertools.product((1, -1, 2, -2), repeat=length):
                self.assert_same_leaves_in_order(BraidWord.from_tokens(tokens, 3))

    def test_same_leaves_in_order_where_a_column_has_no_letter(self):
        for word in sparse_words(max_len=4):
            self.assert_same_leaves_in_order(word)

    def test_same_leaves_in_order_on_deeply_backtracking_words(self):
        # on 4-6 strands a letter decided in a flipped subtree is often
        # reached from its other side in the smoothed sibling, so the search
        # must undo every decision made after the split
        rng = random.Random(2024)
        for _ in range(200):
            n = rng.randint(4, 6)
            tokens = [rng.randint(1, n - 1) * rng.choice((1, -1)) for _ in range(rng.randint(6, 10))]
            self.assert_same_leaves_in_order(BraidWord(tuple(tokens), n + rng.randint(0, 2)))


class TestLeafStatistics:
    def test_single_crossing(self):
        stats = leaf_statistics(parse_braid("1"), DESCENDING)
        assert stats.count == 2

    def test_empty_word(self):
        stats = leaf_statistics(parse_braid("", strands=3), DESCENDING)
        assert stats.count == 1

    def test_count_matches_admissible_partitions(self):
        from braidpoly import enumerate_admissible

        word = parse_braid("1 1 1")
        stats = leaf_statistics(word, DESCENDING)
        assert stats.count == sum(1 for _ in enumerate_admissible(word, "standard"))


class TestOrderIndependence:
    """The leaf sum is a commutative monoid: any accumulation order agrees."""

    def test_shuffled_accumulation_is_bit_identical(self):
        word = parse_braid("1 -2 1 -2 1")
        contributions = [
            ((leaf.gamma, leaf.t), -1 if leaf.t_neg % 2 else 1)
            for leaf in enumerate_leaves(word, DESCENDING)
        ]
        rng = random.Random(0)
        reference = homfly(word, DESCENDING)
        for _ in range(5):
            rng.shuffle(contributions)
            counts: dict = {}
            for key, sign in contributions:
                counts[key] = counts.get(key, 0) + sign
            rebuilt = assemble_tree_sum(counts, word.strands, writhe(word), False)
            assert rebuilt == reference
