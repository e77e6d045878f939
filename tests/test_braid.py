import random
import sys

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
from braidpoly.braid import _cut, _Frozen, _violations, permutation_and_kinds
from braidpoly.checks import CheckResult, run_selftest
from braidpoly.jaeger import CircuitPartition
from braidpoly.resolver import leaf_membership_test

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
        sign = -word.letters[i] if diagram.states[i] is FLIPPED else word.letters[i]
        over, under = (right, left) if sign > 0 else (left, right)
        out.append("descending" if rank[over] < rank[under] else "ascending")
        columns[g], columns[g + 1] = right, left
    return tuple(out)


def arm(word, i, col):
    """The arm of letter ``i``'s original crossing that arrives in ``col``.

    The over-arm of a positive crossing arrives from the right (column
    gap + 1), of a negative crossing from the left (the gap column).
    """
    return "under" if (col == word.gaps[i]) == (word.letters[i] > 0) else "over"


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
            # no per-column table of that many entries can be built
            ((1,), sys.maxsize, "strand count must be below"),
            ((), sys.maxsize + 1, "strand count must be below"),
        ],
    )
    def test_direct_construction_is_validated(self, letters, strands, message):
        with pytest.raises(ValueError, match=message):
            BraidWord(letters, strands)

    def test_the_largest_strand_count_is_accepted(self):
        word = BraidWord((1,), sys.maxsize - 1)
        assert word.strands == sys.maxsize - 1

    @pytest.mark.parametrize(
        "build",
        [
            lambda: BraidWord((1.5,), 3),
            lambda: BraidWord((), 2.0),
            lambda: BraidWord.from_tokens([1.0]),
            lambda: BraidWord((True, 2), 3),
        ],
        ids=["float letter", "float strands", "float token", "bool letter"],
    )
    def test_non_int_input_is_rejected(self, build):
        with pytest.raises(TypeError):
            build()

    def test_letters_must_be_a_tuple(self):
        # a list would make the word unhashable, and the checks key dicts by word
        with pytest.raises(TypeError, match="tuple"):
            BraidWord([1, 1, 1], 2)
        assert BraidWord.from_tokens([1, 1, 1]) == BraidWord((1, 1, 1), 2)

    def test_strands_override(self):
        assert parse_braid("1 1", strands=5).strands == 5
        with pytest.raises(BraidParseError, match="too small"):
            parse_braid("1 3", strands=3)


class TestValueTypes:
    def test_equal_words_hash_equal_whatever_their_memos(self):
        a, b = BraidWord((1, -2, 1), 3), parse_braid("1 -2 1")
        a.homfly_memo["descending"] = "filled"
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert {a: 1}[b] == 1
        assert a != BraidWord((1, -2, 1), 4) and a != BraidWord((1, 2, 1), 3)
        assert a != (a.letters, a.strands)
        assert b.homfly_memo == {}

    def test_words_and_diagrams_keep_their_repr(self):
        word = parse_braid("1 -2")
        assert repr(word) == "BraidWord(letters=(1, -2), strands=3)"
        assert repr(ResolvedDiagram(word, (KEPT, SMOOTHED))) == (
            "ResolvedDiagram(word=BraidWord(letters=(1, -2), strands=3), "
            "states=(<CrossingState.KEPT: 'kept'>, <CrossingState.SMOOTHED: 'smoothed'>))"
        )

    @pytest.mark.parametrize(
        "value, name",
        [
            (BraidWord((1,), 2), "letters"),
            (BraidWord((1,), 2), "strands"),
            (BraidWord((1,), 2), "homfly_memo"),
            (BraidWord((1,), 2), "gaps"),
            (ResolvedDiagram.all_kept(BraidWord((1,), 2)), "states"),
            (gap_profile(BraidWord((1,), 2))[0], "positive"),
            (classify(BraidWord((1,), 2)), "reduced"),
            (permutation(BraidWord((1,), 2)), "cycles"),
        ],
        ids=["letters", "strands", "memo", "cached table", "states", "tally", "flags", "cycles"],
    )
    def test_fields_cannot_be_assigned_or_deleted(self, value, name):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)

    def test_cached_tables_still_fill_on_a_frozen_word(self):
        word = parse_braid("1 -2 1")
        assert word.gaps == (1, 2, 1)
        assert vars(word)["gaps"] is word.gaps

    def test_diagram_states_must_be_a_tuple(self):
        # a list built, but could not be split or hashed
        word = parse_braid("1 1")
        with pytest.raises(TypeError, match="tuple"):
            ResolvedDiagram(word, [KEPT, KEPT])
        diagram = ResolvedDiagram(word, (KEPT, KEPT))
        assert hash(diagram) == hash(ResolvedDiagram.all_kept(word))

    def test_diagram_states_must_be_crossing_states(self):
        # strings used to build, and the walk then took every one for a state other than kept
        word = parse_braid("1 1 1")
        with pytest.raises(TypeError, match="CrossingState"):
            ResolvedDiagram(word, ("kept",) * 3)
        with pytest.raises(TypeError, match="state 2"):
            ResolvedDiagram(word, (KEPT, SMOOTHED, "smoothed"))
        with pytest.raises(TypeError, match="CrossingState"):
            leaf_membership_test(word, ("smoothed",) * 3)
        assert leaf_membership_test(word, (SMOOTHED,) * 3)

    def test_only_frozen_defines_value_identity(self):
        identity = {"__eq__", "__hash__", "__repr__"}
        assert identity <= set(vars(_Frozen))
        for cls in (BraidWord, ResolvedDiagram, CircuitPartition):
            assert not identity & set(vars(cls)), cls

    def test_partitions_keep_their_repr_hash_and_equality(self):
        partition = CircuitPartition(parse_braid("1 -1 1"), frozenset({0, 2}))
        assert repr(partition) == (
            "CircuitPartition(word=BraidWord(letters=(1, -1, 1), strands=2), "
            "smoothed=frozenset({0, 2}))"
        )
        # a partition hashes as the tuple of its fields, and its word as the tuple of its own
        assert hash(partition) == hash((((1, -1, 1), 2), frozenset({0, 2})))
        assert partition == CircuitPartition(BraidWord((1, -1, 1), 2), frozenset({2, 0}))
        assert partition != CircuitPartition(parse_braid("1 -1 1"), frozenset({0}))
        assert partition != CircuitPartition(parse_braid("1 -1 1", 3), frozenset({0, 2}))
        assert partition != (partition.word, partition.smoothed)
        # another class never compares equal, whatever its key
        assert partition.__eq__(ResolvedDiagram.all_kept(partition.word)) is NotImplemented
        assert len({partition, CircuitPartition(parse_braid("1 -1 1"), frozenset({0, 2}))}) == 1

    def test_check_results_cannot_be_assigned(self):
        result = CheckResult("suite", checked=2)
        assert result.failures == () and result.elapsed == 0.0
        with pytest.raises(AttributeError):
            result.checked = 3
        with pytest.raises(AttributeError):
            result.failures = ("late failure",)
        assert CheckResult("suite", 1, ("failed on 1",)).failures == ("failed on 1",)

    def test_selftest_returns_the_seven_suites_by_name(self):
        results = run_selftest(max_crossings=1, max_strands=2, samples=5, seed=1)
        assert [r.name for r in results] == [
            "four-method equality",
            "MFW degree window",
            "leaf/partition bijection",
            "mirror identity",
            "Markov-move invariance",
            "reduced alternating degree law",
            "Alexander unit leading coefficient",
        ]
        assert all(type(r) is CheckResult and r.failures == () for r in results)
        assert all(r.checked > 0 for r in results)

    def test_records_read_as_dicts_in_field_order(self):
        tally = gap_profile(parse_braid("1 -1 2"))[0]
        assert tally._asdict() == {"gap": 1, "positive": 1, "negative": 1, "positions": (0, 1)}
        assert tally.positive + tally.negative == 2
        assert tally.count(1) == 3  # ``tuple.count``, with no field shadowing it
        assert list(classify(parse_braid("1"))._asdict()) == [
            "alternating", "positive_leading", "negative_leading", "reduced", "non_split",
        ]


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
        kinds = classify_crossings(ResolvedDiagram.all_kept(word))
        firsts, _ = brute_walk(word.strands, word_letters(word), KEEP * len(word))
        for i, col in firsts:
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
        assert (profile[0].positive, profile[0].negative) == (2, 0)
        assert (profile[1].positive, profile[1].negative) == (0, 2)
        assert profile[0].positions == (0, 2)

    def test_positive_triple(self):
        profile = gap_profile(parse_braid("1 1 1"))
        assert profile[0].positive == 3

    def test_empty_gap(self):
        profile = gap_profile(parse_braid("1 3"))
        assert profile[1].positive + profile[1].negative == 0

    @given(words())
    @settings(max_examples=60)
    def test_counts_sum_to_crossings(self, word):
        profile = gap_profile(word)
        assert len(profile) == word.strands - 1
        assert all(profile[g - 1].gap == g for g in range(1, word.strands))
        assert sum(t.positive + t.negative for t in profile) == len(word)


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
    for t in profile:
        if t.positive + t.negative:
            sign = 0 if t.positive and t.negative else 1 if t.positive else -1
            odd_signs.append(sign if t.gap % 2 else -sign)
    alternating = 0 not in odd_signs and len(set(odd_signs)) <= 1
    leading = odd_signs[0] if alternating and odd_signs else 0
    return (
        alternating,
        leading == 1,
        leading == -1,
        all(t.positive + t.negative != 1 for t in profile),
        all(t.positive + t.negative >= 1 for t in profile),
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
            t.positive + t.negative >= 2 for t in profile
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


def sub_braid(word, first, last):
    """The letters at gaps ``first..last``, re-indexed to start at gap 1.

    The result lives on strands ``first..last+1`` of ``word``, renumbered
    from 1; ``last = first - 1`` gives one strand and no letters.  Each call
    scans all of the word's letters.
    """
    shift = first - 1
    letters = tuple(
        t - shift if t > 0 else t + shift for t in word.letters if first <= abs(t) <= last
    )
    return BraidWord(letters, last - first + 2)


def sub_braid_blocks(word):
    """``split_blocks`` rebuilt block by block with :func:`sub_braid`."""
    used = set(word.gaps)
    firsts = [1] + [g + 1 for g in range(1, word.strands) if g not in used]
    lasts = [f - 2 for f in firsts[1:]] + [word.strands - 1]
    return tuple((f, sub_braid(word, f, last)) for f, last in zip(firsts, lasts))


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


class TestCut:
    # (letters, strands, fewer, empty cut gaps, parts as (first strand, letters, strands))
    CASES = [
        # nothing to cut
        ((1, -2, 1, -2), 3, 2, 0, [(1, (1, -2, 1, -2), 3)]),
        ((), 1, 1, 0, [(1, (), 1)]),
        # one letter on 7 strands: six parts, five of them one strand
        ((4,), 7, 1, 5, [(1, (), 1), (2, (), 1), (3, (), 1), (4, (1,), 2), (6, (), 1), (7, (), 1)]),
        # a letter alone in its gap is cut and belongs to no part
        ((1, 1, 2, 3, 3), 4, 2, 0, [(1, (1, 1), 2), (3, (1, 1), 2)]),
        ((1, 1, 2, 3, 3), 4, 1, 0, [(1, (1, 1, 2, 3, 3), 4)]),
        # negative letters are re-indexed like positive ones
        ((-4, 5, -4, 5, 1, 1), 6, 1, 2, [(1, (1, 1), 2), (3, (), 1), (4, (-1, 2, -1, 2), 3)]),
        # the one-letter gap 2 is cut but not counted; the empty gaps 3 and 5 are
        ((1, 1, 2, 4, -4), 6, 2, 2, [(1, (1, 1), 2), (3, (), 1), (4, (1, -1), 2), (6, (), 1)]),
    ]

    @pytest.mark.parametrize("letters, strands, fewer, empty, parts", CASES)
    def test_worked_examples(self, letters, strands, fewer, empty, parts):
        assert _cut(letters, strands, fewer) == (empty, parts)


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
    """The natural traversal: first arrivals from the brute oracle, cycles from :func:`_violations`."""

    @staticmethod
    def cycles(word, states):
        cycles = []
        list(_violations(word, states, False, cycles))
        return cycles

    def test_single_crossing_events(self):
        # the first arrival is from the left (the gap column), on the
        # under-arm of the positive crossing
        word = parse_braid("1")
        firsts, _ = brute_walk(2, word_letters(word), KEEP)
        assert firsts == [(0, 1)]
        assert arm(word, 0, 1) == "under"
        assert self.cycles(word, (KEPT,)) == [[1, 2]]

    def test_smoothed_triple_first_visits_from_left(self):
        word = parse_braid("1 1 1")
        firsts, _ = brute_walk(2, word_letters(word), SMOOTH * 3)
        assert firsts == [(0, 1), (1, 1), (2, 1)]
        assert self.cycles(word, (SMOOTHED,) * 3) == [[1], [2]]

    def test_empty_word(self):
        assert self.cycles(parse_braid("", strands=4), ()) == [[1], [2], [3], [4]]

    @given(words())
    @settings(max_examples=80)
    def test_kept_violations_of_the_two_modes_split_the_letters(self, word):
        # each letter's first arrival is on exactly one arm, which breaks
        # exactly one of the two forms
        states = (KEPT,) * len(word)
        both = list(_violations(word, states, False)) + list(_violations(word, states, True))
        assert sorted(both) == list(range(len(word)))

    @given(words())
    @settings(max_examples=60)
    def test_components_follow_pivot_order(self, word):
        # the closure continues the strand ending in column c with label c
        columns = list(range(word.strands + 1))
        for g in word.gaps:
            columns[g], columns[g + 1] = columns[g + 1], columns[g]
        ends = {label: col for col, label in enumerate(columns)}
        components = self.cycles(word, (KEPT,) * len(word))
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
        firsts, expected_cycles = brute_walk(word.strands, letters, codes)
        expected = [i for i, col in firsts if breaks_rule(letters, codes, i, col, ascending)]
        cycles = []
        assert list(_violations(word, states, ascending, cycles)) == expected
        assert cycles == expected_cycles


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
