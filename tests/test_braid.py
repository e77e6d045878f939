import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidpoly import (
    BraidParseError,
    BraidWord,
    FLIPPED,
    KEPT,
    ResolvedDiagram,
    SMOOTHED,
    classify,
    classify_crossings,
    gap_profile,
    markov_variants,
    mirror,
    parse_braid,
    permutation,
    writhe,
)
from braidpoly.braid import _violations, permutation_and_kinds, walk

from _brute import FLIP, KEEP, SMOOTH, breaks_rule, brute_walk, word_letters

EXAMPLE_WORD = "-1 3 -2 -4 -4 -4 1 -3"


def words(max_len=6, max_gap=3):
    token = st.integers(1, max_gap).flatmap(
        lambda g: st.sampled_from([g, -g])
    )
    return st.lists(token, max_size=max_len).map(BraidWord.from_tokens)


def return_rank(p):
    """Position of each label in the return order of the permutation ``p``."""
    return {label: k for k, label in enumerate(p.return_order)}


def rank_classification(diagram):
    """The crossing kinds by the return-order rank, the convention as first stated.

    The strand labels are dragged through the letters (a smoothed letter
    keeps both labels in place), and a crossing is descending when its
    over-strand's label precedes its under-strand's in the diagram's own
    return order.  The over-strand is read off the effective sign: positive
    means the strand arriving in the right column passes over.
    """
    word = diagram.word
    rank = return_rank(diagram.permutation())
    columns = list(range(word.strands + 1))  # columns[c] = label now in column c
    out = []
    for i, g in enumerate(word.gaps):
        left, right = columns[g], columns[g + 1]
        if diagram.states[i] is SMOOTHED:
            out.append(None)
            continue
        sign = -word.signs[i] if diagram.states[i] is FLIPPED else word.signs[i]
        over, under = (right, left) if sign > 0 else (left, right)
        out.append("descending" if rank[over] < rank[under] else "ascending")
        columns[g], columns[g + 1] = right, left
    return tuple(out)


def arm(word, i, col):
    """The arm of letter ``i``'s original crossing that arrives in ``col``.

    The over-arm of a positive crossing arrives from the right (column
    gap + 1), of a negative crossing from the left (the gap column).
    """
    return "under" if (col == word.gaps[i]) == (word.signs[i] > 0) else "over"


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
        assert return_rank(p) == {1: 0, 4: 1, 2: 2, 3: 3, 5: 4}

    def test_identity(self):
        p = permutation(parse_braid("", strands=3))
        assert p.cycles == ((1,), (2,), (3,))
        assert p.return_order == (1, 2, 3)

    @given(words())
    @settings(max_examples=80)
    @example(BraidWord(tuple(range(1, 3000)), 3000))  # one cycle of 3,000 labels
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

    @given(words(max_len=8, max_gap=4), st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_resolved_cycles_match_composed_transpositions(self, word, rng):
        # independent route: compose the transpositions of the unsmoothed
        # letters, then follow each label to its end column
        states = tuple(rng.choice((KEPT, FLIPPED, SMOOTHED)) for _ in word.letters)
        columns = list(range(word.strands + 1))
        for g, state in zip(word.gaps, states):
            if state is not SMOOTHED:
                columns[g], columns[g + 1] = columns[g + 1], columns[g]
        end_column = {columns[col]: col for col in range(1, word.strands + 1)}
        expected = set()
        unseen = set(range(1, word.strands + 1))
        while unseen:
            label, cycle = min(unseen), set()
            while label in unseen:
                unseen.remove(label)
                cycle.add(label)
                label = end_column[label]
            expected.add(frozenset(cycle))
        cycles = ResolvedDiagram(word, states).permutation().cycles
        assert sum(map(len, cycles)) == word.strands
        assert {frozenset(cycle) for cycle in cycles} == expected

    @given(words())
    @settings(max_examples=80)
    def test_rank_is_bijection(self, word):
        rank = return_rank(permutation(word))
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
        for i, col, first in walk(word, d.states):
            if i < 0 or not first:
                continue
            expected = "descending" if arm(word, i, col) == "over" else "ascending"
            assert kinds[i] == expected

    @given(words(max_len=7, max_gap=4), st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_agrees_with_the_rank_on_resolved_diagrams(self, word, rng):
        # kept, flipped and smoothed letters: smoothing changes the return
        # order, flipping the over-strand
        states = tuple(rng.choice((KEPT, FLIPPED, SMOOTHED)) for _ in word.letters)
        d = ResolvedDiagram(word, states)
        assert classify_crossings(d) == rank_classification(d)

    @given(words(max_len=7, max_gap=4), st.randoms(use_true_random=False))
    @settings(max_examples=100)
    def test_one_walk_gives_the_permutation_and_the_kinds(self, word, rng):
        states = tuple(rng.choice((KEPT, FLIPPED, SMOOTHED)) for _ in word.letters)
        d = ResolvedDiagram(word, states)
        perm, kinds = permutation_and_kinds(d)
        assert perm == d.permutation()
        assert kinds == rank_classification(d)

    def test_running_example_agrees_with_the_rank_on_every_state_vector(self):
        word = parse_braid(EXAMPLE_WORD)
        for code in range(3 ** len(word)):
            states = tuple((KEPT, FLIPPED, SMOOTHED)[code // 3**i % 3] for i in range(len(word)))
            d = ResolvedDiagram(word, states)
            assert classify_crossings(d) == rank_classification(d), states


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


@st.composite
def gap_signed_words(draw):
    """Words whose letters take the sign their gap's parity gives a leading
    sign, with at most one letter flipped; gaps may stay empty."""
    strands = draw(st.integers(1, 6))
    leading = draw(st.sampled_from((1, -1)))
    gaps = draw(st.lists(st.integers(1, strands - 1), max_size=8)) if strands > 1 else []
    tokens = [g * (leading if g % 2 else -leading) for g in gaps]
    if tokens and draw(st.booleans()):
        i = draw(st.integers(0, len(tokens) - 1))
        tokens[i] = -tokens[i]
    return BraidWord(tuple(tokens), strands)


def reference_flags(word):
    """``classify``'s flags gap by gap, read off ``gap_profile``."""
    profile = gap_profile(word)
    odd_signs = []  # per nonempty gap: the sign it asks of the odd gaps, 0 if mixed
    for t in profile.gaps:
        if t.count:
            sign = 0 if t.positive and t.negative else 1 if t.positive else -1
            odd_signs.append(sign if t.gap % 2 else -sign)
    alternating = 0 not in odd_signs and len(set(odd_signs)) <= 1
    leading = odd_signs[0] if alternating and odd_signs else 0
    return (
        alternating,
        leading == 1,
        leading == -1,
        all(t.count != 1 for t in profile.gaps),
        all(t.count >= 1 for t in profile.gaps),
    )


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

    @given(gap_signed_words())
    @settings(max_examples=300)
    @example(BraidWord((), 1))
    @example(BraidWord((), 4))
    @example(BraidWord((-1, 2, 2, -5, -1), 6))
    @example(BraidWord((1, 3, -2, -2, 1), 5))
    def test_matches_per_gap_reference(self, word):
        flags = classify(word)
        assert (
            flags.alternating,
            flags.positive_leading,
            flags.negative_leading,
            flags.reduced,
            flags.non_split,
        ) == reference_flags(word)

    @given(words())
    @settings(max_examples=80)
    def test_leading_flags_exclusive(self, word):
        flags = classify(word)
        assert not (flags.positive_leading and flags.negative_leading)
        if flags.positive_leading or flags.negative_leading:
            assert flags.alternating


def sub_braid_blocks(word):
    """``split_blocks`` rebuilt block by block with ``sub_braid``."""
    used = set(word.gaps)
    firsts = [1] + [g + 1 for g in range(1, word.strands) if g not in used]
    lasts = [f - 2 for f in firsts[1:]] + [word.strands - 1]
    return tuple((f, word.sub_braid(f, last)) for f, last in zip(firsts, lasts))


class TestSplitBlocks:
    def test_non_split_word_is_its_own_block(self):
        word = parse_braid("1 -2 1 -2")
        assert word.split_blocks == ((1, word),)
        assert word.split_blocks[0][1] is word

    def test_matches_per_block_reference(self):
        rng = random.Random(11)
        split = 0
        for _ in range(400):
            strands = rng.randint(1, 9)
            # letters on a random subset of the gaps, so some gaps stay empty
            gaps = [g for g in range(1, strands) if rng.random() < 0.6]
            letters = tuple(
                rng.choice(gaps) * rng.choice((1, -1))
                for _ in range(rng.randint(0, 10) if gaps else 0)
            )
            word = BraidWord(letters, strands)
            blocks = word.split_blocks
            if len(blocks) > 1:
                split += 1
                assert blocks == sub_braid_blocks(word), word
        assert split > 300


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
    """The passages of :func:`walk`, read as ``(i, col, first)`` triples."""

    def test_single_crossing_events(self):
        word = parse_braid("1")
        steps = list(walk(word, (KEPT,)))
        assert steps == [(-1, 1, True), (0, 1, True), (-1, 2, False), (0, 2, False)]
        # first passage from the left (the gap column) on the under-arm of the
        # positive crossing, the second from the right on its over-arm
        assert [arm(word, i, col) for i, col, _ in steps if i >= 0] == ["under", "over"]

    def test_smoothed_triple_first_visits_from_left(self):
        word = parse_braid("1 1 1")
        steps = list(walk(word, (SMOOTHED,) * 3))
        assert [(i, col) for i, col, first in steps if i >= 0 and first] == [
            (0, 1), (1, 1), (2, 1)
        ]
        assert [(i, col) for i, col, first in steps if i >= 0 and not first] == [
            (0, 2), (1, 2), (2, 2)
        ]
        assert [(col, first) for i, col, first in steps if i < 0] == [(1, True), (2, True)]

    def test_empty_word(self):
        steps = list(walk(parse_braid("", strands=4), ()))
        assert steps == [(-1, 1, True), (-1, 2, True), (-1, 3, True), (-1, 4, True)]

    @given(words())
    @settings(max_examples=80)
    def test_each_letter_visited_twice(self, word):
        steps = [(i, first) for i, _, first in walk(word, (KEPT,) * len(word)) if i >= 0]
        assert len(steps) == 2 * len(word)
        for i in range(len(word)):
            assert sorted(first for j, first in steps if j == i) == [False, True]

    @given(words())
    @settings(max_examples=60)
    def test_components_follow_pivot_order(self, word):
        # the closure continues the strand ending in column c with label c
        columns = list(range(word.strands + 1))
        for g in word.gaps:
            columns[g], columns[g + 1] = columns[g + 1], columns[g]
        ends = {label: col for col, label in enumerate(columns)}
        components = []
        for i, col, first in walk(word, (KEPT,) * len(word)):
            if i < 0:
                if first:
                    components.append([col])
                else:
                    components[-1].append(col)
        pivots = [c[0] for c in components]
        assert pivots == sorted(set(pivots))
        assert all(c[0] == min(c) for c in components)
        assert sorted(label for c in components for label in c) == list(
            range(1, word.strands + 1)
        )
        for c in components:
            assert [ends[label] for label in c] == c[1:] + c[:1]
        assert tuple(map(tuple, components)) == permutation(word).cycles

    def test_column_index_is_a_successor_table(self):
        # letters at gaps 1 and 3 on 5 strands: gaps 2 and 4 are empty and
        # no letter touches column 5
        word = parse_braid("1 3 -1 -3 1", strands=5)
        assert word.column_index[1:] == (
            {-1: 0, 0: 2, 2: 4, 4: None},
            {-1: 0, 0: 2, 2: 4, 4: None},
            {-1: 1, 1: 3, 3: None},
            {-1: 1, 1: 3, 3: None},
            {-1: None},
        )
        assert parse_braid("", strands=2).column_index[1:] == ({-1: None}, {-1: None})

    def test_under_columns(self):
        assert parse_braid("1 -1 3 -3").under_columns == (1, 2, 3, 4)

    @given(
        st.lists(st.integers(1, 4).flatmap(lambda g: st.sampled_from([g, -g])), max_size=8),
        st.integers(0, 2),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=300)
    @example([3, -3], 2, False, random.Random(0))  # untouched columns 1, 2, 5 and 6
    @example([1, 4], 0, True, random.Random(1))  # empty gaps 2 and 3
    def test_violations_reads_the_walk(self, tokens, extra, ascending, rng):
        # ``_violations`` steps the closure in its own loop; its verdicts and
        # cycles must be what ``walk``'s passages give under the first-visit
        # rule and the strand starts
        word = BraidWord.from_tokens(tokens, max((abs(t) + 1 for t in tokens), default=1) + extra)
        states = tuple(rng.choice((KEPT, FLIPPED, SMOOTHED)) for _ in tokens)
        expected, expected_cycles = [], []
        for i, col, first in walk(word, states):
            if i < 0:
                if first:
                    expected_cycles.append([])
                expected_cycles[-1].append(col)
            elif first and (arm(word, i, col) == ("over" if ascending else "under")) == (
                states[i] is KEPT
            ):
                expected.append(i)
        cycles = []
        assert list(_violations(word, states, ascending, cycles)) == expected
        assert cycles == expected_cycles

    @given(
        st.lists(st.integers(1, 4).flatmap(lambda g: st.sampled_from([g, -g])), max_size=8),
        st.integers(0, 2),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=300)
    @example([3, -3], 2, False, random.Random(0))  # untouched columns 1, 2, 5 and 6
    @example([1, 4], 0, True, random.Random(1))  # empty gaps 2 and 3
    def test_violations_match_the_brute_walk(self, tokens, extra, ascending, rng):
        # the brute oracle scans every letter height once per passage and
        # shares no code with the package
        word = BraidWord.from_tokens(tokens, max((abs(t) + 1 for t in tokens), default=1) + extra)
        states = tuple(rng.choice((KEPT, FLIPPED, SMOOTHED)) for _ in tokens)
        letters = word_letters(word)
        codes = "".join({KEPT: KEEP, FLIPPED: FLIP, SMOOTHED: SMOOTH}[s] for s in states)
        firsts, components = brute_walk(word.strands, letters, codes)
        expected = [i for i, col in firsts if breaks_rule(letters, codes, i, col, ascending)]
        cycles = []
        assert list(_violations(word, states, ascending, cycles)) == expected
        assert len(cycles) == components


class TestMarkovVariants:
    def test_braid_relation_rewrite(self):
        from braidpoly.braid import _braid_relation_sites

        assert _braid_relation_sites([1, 2, 1]) == [0]
        assert _braid_relation_sites([1, -2, 1]) == []  # the excluded sign pattern

    @pytest.mark.parametrize(
        "text, strands, seed, variants",
        [
            # insertion drawn on one strand rotates instead; stabilizing
            # then lets a later insertion apply
            (
                "",
                1,
                3,
                [
                    ((), 1, ("rotate(0)",)),
                    ((), 1, ("rotate(0)", "rotate(0)", "rotate(0)")),
                    ((1, -1, 1), 2, ("stabilize(+)", "insert(-1)@1")),
                ],
            ),
            # the draw after an insertion no longer offers insertion
            (
                "1 -1 1",
                2,
                5,
                [
                    ((1, 2), 3, ("rotate(2)", "stabilize(+)", "cancel@1")),
                    ((1,), 2, ("rotate(1)", "rotate(2)", "cancel@0")),
                    ((-1, 1, 1, -1, 1), 2, ("insert(1)@0", "rotate(3)")),
                ],
            ),
            # the draw after a stabilization no longer offers stabilization
            (
                "1 2 1 -3 2",
                4,
                241,
                [
                    ((-3, 2, -1, 1, 1, 2, 1, 4), 5, ("insert(-1)@5", "rotate(3)", "stabilize(+)")),
                    ((2, 1, 2, -3, -4, 2), 5, ("braid@0", "stabilize(-)", "commute@4")),
                    ((1, 2, 1, -3, 2, 4), 5, ("stabilize(+)",)),
                ],
            ),
            # no braid-relation or commutation site: both rotate instead
            (
                "1 -2 1",
                3,
                2,
                [
                    ((1, -2, 1), 3, ("rotate(0)",)),
                    ((1, -2, 1), 3, ("rotate(2)", "rotate(1)")),
                    ((-2, 1, 1, -3), 4, ("rotate(1)", "rotate(3)", "stabilize(-)")),
                ],
            ),
        ],
    )
    def test_pinned_variants(self, text, strands, seed, variants):
        out = markov_variants(parse_braid(text, strands), seed=seed, count=3)
        assert [(v.word.letters, v.word.strands, v.moves) for v in out] == variants

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
