import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidpoly import (
    BraidParseError,
    BraidWord,
    KEPT,
    ResolvedDiagram,
    SMOOTHED,
    classify,
    classify_crossings,
    gap_profile,
    markov_variants,
    mirror,
    natural_traversal,
    parse_braid,
    permutation,
    writhe,
)

EXAMPLE_WORD = "-1 3 -2 -4 -4 -4 1 -3"


def words(max_len=6, max_gap=3):
    token = st.integers(1, max_gap).flatmap(
        lambda g: st.sampled_from([g, -g])
    )
    return st.lists(token, max_size=max_len).map(BraidWord.from_tokens)


class TestParsing:
    def test_basic_word(self):
        w = parse_braid("1 1 1")
        assert w.tokens() == (1, 1, 1)
        assert w.strands == 2

    def test_running_example_word(self):
        w = parse_braid(EXAMPLE_WORD)
        assert len(w) == 8
        assert w.strands == 5
        assert w.tokens() == (-1, 3, -2, -4, -4, -4, 1, -3)

    def test_zero_token_rejected(self):
        with pytest.raises(BraidParseError, match="zero"):
            parse_braid("0 1")

    def test_garbage_token_named(self):
        with pytest.raises(BraidParseError, match="'x2'"):
            parse_braid("1 x2")

    def test_plus_sign_not_allowed(self):
        with pytest.raises(BraidParseError):
            parse_braid("+1")

    def test_separators(self):
        assert parse_braid("1,2,\t-1  3").tokens() == (1, 2, -1, 3)

    def test_empty_input(self):
        assert parse_braid("").strands == 1
        assert parse_braid("   ").tokens() == ()
        assert parse_braid("", strands=4).strands == 4

    @pytest.mark.parametrize(
        "letters, strands, message",
        [
            ((1, 0), 3, "letter 1 is 0"),
            ((2, 3), 3, "letter 1 is 3"),
            ((-3,), 3, "letter 0 is -3"),
            ((), 0, "strand count must be >= 1"),
        ],
    )
    def test_direct_construction_is_validated(self, letters, strands, message):
        with pytest.raises(ValueError, match=message):
            BraidWord(letters, strands)

    def test_strands_override(self):
        assert parse_braid("1 1", strands=5).strands == 5
        with pytest.raises(BraidParseError, match="too small"):
            parse_braid("1 3", strands=3)


class TestWrithe:
    def test_positive_triple(self):
        assert writhe(parse_braid("1 1 1")) == 3

    def test_empty(self):
        assert writhe(parse_braid("", strands=4)) == 0

    def test_running_example(self):
        assert writhe(parse_braid(EXAMPLE_WORD)) == -4


class TestPermutation:
    def test_running_example_standard_form(self):
        p = permutation(parse_braid(EXAMPLE_WORD))
        assert p.cycles == ((1, 4), (2,), (3, 5))
        assert p.cycle_text() == "(1 4)(2)(3 5)"

    def test_running_example_return_order(self):
        p = permutation(parse_braid(EXAMPLE_WORD))
        assert p.return_order == (1, 4, 2, 3, 5)
        assert p.pivots == (1, 2, 3)
        assert p.rank == {1: 0, 4: 1, 2: 2, 3: 3, 5: 4}

    def test_identity(self):
        p = permutation(parse_braid("", strands=3))
        assert p.cycles == ((1,), (2,), (3,))
        assert p.return_order == (1, 2, 3)

    @given(words())
    @settings(max_examples=80)
    def test_matches_column_simulation(self, word):
        # independent route: drag the column contents through the letters
        columns = list(range(word.strands + 1))
        for t in word.tokens():
            g = abs(t)
            columns[g], columns[g + 1] = columns[g + 1], columns[g]
        end_column = {columns[col]: col for col in range(1, word.strands + 1)}
        cycles = permutation(word).cycles
        labels = sorted(label for cycle in cycles for label in cycle)
        assert labels == list(range(1, word.strands + 1))
        for cycle in cycles:
            for k, label in enumerate(cycle):
                assert end_column[label] == cycle[(k + 1) % len(cycle)]

    @given(words())
    @settings(max_examples=80)
    def test_rank_is_bijection(self, word):
        rank = permutation(word).rank
        assert sorted(rank.keys()) == list(range(1, word.strands + 1))
        assert sorted(rank.values()) == list(range(word.strands))


class TestCrossingClassification:
    def test_running_example_has_one_ascending(self):
        d = ResolvedDiagram.all_kept(parse_braid(EXAMPLE_WORD))
        kinds = classify_crossings(d)
        assert kinds.count("ascending") == 1
        assert kinds[4] == "ascending"  # the middle letter of the -4 -4 -4 run

    def test_single_positive_is_ascending(self):
        d = ResolvedDiagram.all_kept(parse_braid("1"))
        assert classify_crossings(d) == ("ascending",)

    def test_single_negative_is_descending(self):
        d = ResolvedDiagram.all_kept(parse_braid("-1"))
        assert classify_crossings(d) == ("descending",)

    def test_smoothed_letters_unclassified(self):
        word = parse_braid("1 1")
        d = ResolvedDiagram(word, (SMOOTHED, KEPT))
        kinds = classify_crossings(d)
        assert kinds[0] is None and kinds[1] is not None

    @given(words(max_len=5))
    @settings(max_examples=60)
    def test_agrees_with_traversal_arrival(self, word):
        # a crossing is descending exactly when the walk first reaches it on
        # the over-arm of its live sign
        d = ResolvedDiagram.all_kept(word)
        kinds = classify_crossings(d)
        for event in natural_traversal(d).events:
            if event.ordinal != 1:
                continue
            expected = "descending" if event.role == "over" else "ascending"
            assert kinds[event.index] == expected


class TestGapProfile:
    def test_figure_eight_word(self):
        profile = gap_profile(parse_braid("1 -2 1 -2"))
        assert (profile.tally(1).positive, profile.tally(1).negative) == (2, 0)
        assert (profile.tally(2).positive, profile.tally(2).negative) == (0, 2)
        assert profile.tally(1).positions == (0, 2)

    def test_positive_triple(self):
        profile = gap_profile(parse_braid("1 1 1"))
        assert profile.tally(1).positive == 3

    def test_empty_gap(self):
        profile = gap_profile(parse_braid("1 3"))
        assert profile.tally(2).count == 0

    @given(words())
    @settings(max_examples=60)
    def test_counts_sum_to_crossings(self, word):
        profile = gap_profile(word)
        assert sum(t.count for t in profile.gaps) == len(word)


class TestClassification:
    def test_figure_eight_flags(self):
        flags = classify(parse_braid("1 -2 1 -2"))
        assert flags.alternating and flags.positive_leading
        assert flags.reduced and flags.non_split
        assert not flags.negative_leading

    def test_positive_triple_flags(self):
        flags = classify(parse_braid("1 1 1"))
        assert flags.alternating and flags.positive_leading
        assert flags.reduced and flags.non_split

    def test_empty_gap_not_non_split(self):
        assert not classify(parse_braid("1 3")).non_split

    def test_single_crossing_gap_not_reduced(self):
        assert not classify(parse_braid("1 1 -2")).reduced

    def test_mixed_gap_not_alternating(self):
        assert not classify(parse_braid("1 -1")).alternating

    def test_negative_leading(self):
        flags = classify(parse_braid("-1 -1 2 2"))
        assert flags.alternating and flags.negative_leading
        assert not flags.positive_leading

    def test_crossingless_word_has_no_leading_sign(self):
        flags = classify(parse_braid("", strands=3))
        assert flags.alternating
        assert not flags.positive_leading and not flags.negative_leading

    @given(words())
    @settings(max_examples=80)
    def test_reduced_nonsplit_means_two_per_gap(self, word):
        flags = classify(word)
        profile = gap_profile(word)
        assert (flags.reduced and flags.non_split) == all(
            t.count >= 2 for t in profile.gaps
        )

    @given(words())
    @settings(max_examples=80)
    def test_leading_flags_exclusive(self, word):
        flags = classify(word)
        assert not (flags.positive_leading and flags.negative_leading)
        if flags.positive_leading or flags.negative_leading:
            assert flags.alternating


class TestMirror:
    def test_positive_triple(self):
        assert mirror(parse_braid("1 1 1")).tokens() == (-1, -1, -1)

    def test_empty_fixed_point(self):
        w = parse_braid("", strands=3)
        assert mirror(w) == w

    def test_running_example(self):
        assert mirror(parse_braid(EXAMPLE_WORD)).tokens() == (1, -3, 2, 4, 4, 4, -1, 3)

    @given(words())
    @settings(max_examples=60)
    def test_involution_and_writhe(self, word):
        assert mirror(mirror(word)) == word
        assert writhe(mirror(word)) == -writhe(word)


class TestNaturalTraversal:
    def test_single_crossing_events(self):
        report = natural_traversal(ResolvedDiagram.all_kept(parse_braid("1")))
        assert len(report.events) == 2
        first, second = report.events
        assert (first.index, first.ordinal, first.side, first.role) == (0, 1, "left", "under")
        assert (second.index, second.ordinal, second.side, second.role) == (0, 2, "right", "over")
        assert report.components == ((1, 2),)

    def test_smoothed_triple_first_visits_from_left(self):
        word = parse_braid("1 1 1")
        report = natural_traversal(ResolvedDiagram(word, (SMOOTHED,) * 3))
        firsts = [e for e in report.events if e.ordinal == 1]
        seconds = [e for e in report.events if e.ordinal == 2]
        assert [e.side for e in firsts] == ["left"] * 3
        assert [e.side for e in seconds] == ["right"] * 3
        assert report.components == ((1,), (2,))

    def test_empty_word(self):
        report = natural_traversal(ResolvedDiagram.all_kept(parse_braid("", strands=4)))
        assert report.events == ()
        assert report.components == ((1,), (2,), (3,), (4,))

    @given(words())
    @settings(max_examples=80)
    def test_each_letter_visited_twice(self, word):
        report = natural_traversal(ResolvedDiagram.all_kept(word))
        assert len(report.events) == 2 * len(word)
        for i in range(len(word)):
            ordinals = [e.ordinal for e in report.events if e.index == i]
            assert sorted(ordinals) == [1, 2]

    @given(words())
    @settings(max_examples=60)
    def test_components_follow_pivot_order(self, word):
        d = ResolvedDiagram.all_kept(word)
        report = natural_traversal(d)
        perm = permutation(word)
        assert report.components == perm.cycles


class TestMarkovVariants:
    def test_braid_relation_rewrite(self):
        from braidpoly.braid import _braid_relation_sites

        assert _braid_relation_sites([1, 2, 1]) == [0]
        assert _braid_relation_sites([1, -2, 1]) == []  # the excluded sign pattern

    def test_deterministic(self):
        w = parse_braid("1 2 -1")
        a = markov_variants(w, seed=11, count=6)
        b = markov_variants(w, seed=11, count=6)
        assert a == b

    def test_moves_annotated(self):
        for variant in markov_variants(parse_braid("1 1 1"), seed=5, count=4):
            assert variant.moves
            assert all(isinstance(m, str) for m in variant.moves)

    def test_count_zero(self):
        assert markov_variants(parse_braid("1"), seed=1, count=0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            markov_variants(parse_braid("1"), seed=1, count=-1)
