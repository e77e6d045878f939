"""The Hecke-algebra trace against the resolving tree and the brute oracle."""

import functools
import json
import random
from collections import Counter

import pytest
import sympy as sp

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import braidpoly.checks
import braidpoly.hecke
from braidpoly import (
    BraidWord,
    LaurentPoly2,
    homfly,
    homfly_hecke,
    markov_variants,
    mirror,
    parse_braid,
)
from braidpoly.checks import check_methods_agree
from braidpoly.cli import main
from braidpoly.resolver import DESCENDING

from _brute import A, Z, brute_homfly, brute_walk, poly2_to_sympy, word_letters

DELTA = LaurentPoly2({(-1, 1): 1, (-1, -1): -1})  # a*z^-1 - a^-1*z^-1


def doubled(tokens):
    """Each letter twice in a row, so that no gap holds a single letter."""
    return tuple(t for t in tokens for _ in (0, 1))


@st.composite
def words(draw, max_len=7, max_gap=4):
    """Random words, often on more strands than their letters need."""
    tokens = draw(
        st.lists(
            st.integers(1, max_gap).flatmap(lambda g: st.sampled_from([g, -g])),
            max_size=max_len,
        )
    )
    least = max((abs(t) + 1 for t in tokens), default=1)
    return BraidWord(tuple(tokens), least + draw(st.integers(0, 2)))


@st.composite
def split_words(draw):
    """Words of two or three split blocks side by side, often with free strands."""
    parts = draw(st.lists(words(max_len=4, max_gap=2), min_size=2, max_size=3))
    letters, offset = [], 0
    for part in parts:
        letters += [t + offset if t > 0 else t - offset for t in part.letters]
        offset += part.strands
    return BraidWord(tuple(draw(st.permutations(letters))), offset)


class TestSplitBlocks:
    @given(words(max_len=9, max_gap=5))
    @settings(max_examples=150, deadline=None)
    def test_blocks_cover_the_strands_with_the_letters_of_their_gaps(self, word):
        blocks = word.split_blocks
        assert blocks[0][0] == 1
        assert sum(block.strands for _, block in blocks) == word.strands
        for (first, block), (following, _) in zip(blocks, blocks[1:]):
            assert following == first + block.strands
        for first, block in blocks:
            last_gap = first + block.strands - 2
            assert block.letters == tuple(
                t - first + 1 if t > 0 else t + first - 1
                for t in word.letters
                if first <= abs(t) <= last_gap
            )
            # no block has an empty gap of its own
            assert set(block.gaps) == set(range(1, block.strands))
        assert len(blocks) == 1 + sum(g not in word.gaps for g in range(1, word.strands))
        if len(blocks) == 1:
            assert blocks[0][1] is word

    @given(words(max_len=9, max_gap=5))
    @settings(max_examples=150, deadline=None)
    def test_a_reduced_block_is_its_own_core(self, word):
        # no gap holds one letter, and none holds both signs, so nothing is cut or cancelled
        for _, block in word.split_blocks:
            if all(block.gaps.count(g) != 1 for g in range(1, block.strands)) and not any(
                -t in block.letters for t in block.letters
            ):
                splits, pieces = braidpoly.hecke._pieces(block)
                # a one-strand block has no letters and polynomial 1, so it leaves no piece
                assert splits == 0
                assert [id(piece) for piece in pieces] == ([id(block)] if block.letters else [])


class TestDeltaExponent:
    """``P(a, a - a^-1) = 1`` and ``P(a, a^-1 - a) = (-1)^(c-1)`` on a ``c``-component closure.

    At ``z = a^-1 - a`` each factor ``delta`` is ``-1``, so a block count that
    is off by one flips the sign.
    """

    @given(split_words())
    @settings(max_examples=60, deadline=None)
    def test_every_engine_on_split_words(self, word):
        components = len(brute_walk(word.strands, word_letters(word), "K" * len(word))[1])
        for engine in (homfly_hecke, homfly):
            # a fresh word object per engine, so that no engine reads another's memo
            poly = engine(BraidWord(word.letters, word.strands))
            # times z^k, so that both sides are Laurent polynomials in a
            k = -min(dz for (dz, _), _ in poly.terms())
            cleared = sp.expand(poly2_to_sympy(poly) * Z**k)
            for z, value in ((A - 1 / A, 1), (1 / A - A, (-1) ** (components - 1))):
                assert sp.expand(cleared.subs(Z, z) - value * z**k) == 0, engine.__name__


class TestAgainstTree:
    @given(words())
    @settings(max_examples=200, deadline=None)
    def test_equals_descending_tree(self, word):
        assert homfly_hecke(word) == homfly(word)

    @given(words(max_len=5, max_gap=3))
    @settings(max_examples=40, deadline=None)
    def test_equals_brute_oracle(self, word):
        expected = brute_homfly(word.strands, word_letters(word))
        assert poly2_to_sympy(homfly_hecke(word)) == expected

    @given(words())
    @settings(max_examples=60, deadline=None)
    def test_mirror(self, word):
        """The trace of the mirror image is the mirrored trace, and the tree agrees.

        A block of nonzero writhe is traced in its positive orientation on
        both sides, so the first assertion compares one computation with
        itself there; the tree on the mirror image stays independent.
        """
        image = homfly_hecke(mirror(word))
        assert image == homfly_hecke(word).mirrored()
        assert image == homfly(mirror(word))

    @given(words(max_len=6))
    @settings(max_examples=40, deadline=None)
    def test_markov_variants(self, word):
        reference = homfly(word)
        for variant in markov_variants(word, seed=5, count=4):
            assert homfly_hecke(variant.word) == reference, variant.moves

    def test_untouched_strands_factor_as_delta(self):
        inner = homfly_hecke(parse_braid("1 -2 1 -2"))
        shifted = homfly_hecke(BraidWord((3, -4, 3, -4), 7))
        assert shifted == inner * DELTA**4

    def test_trivial_links(self):
        for n in range(1, 6):
            assert homfly_hecke(BraidWord((), n)) == DELTA ** (n - 1)

    def test_split_blocks_multiply_with_delta(self):
        # gap 2 is empty: a trefoil on strands 1-2 and a figure eight on 3-5
        word = BraidWord((1, 3, 1, -4, 3, 1, -4), 6)
        expected = homfly_hecke(parse_braid("1 1 1")) * homfly_hecke(parse_braid("1 -2 1 -2"))
        assert homfly_hecke(word) == expected * DELTA**2
        assert homfly_hecke(word) == homfly(word)

    def test_split_blocks_beyond_the_strand_constant(self):
        # a 22-strand word whose empty gap 11 leaves two blocks of 11 strands,
        # the trace's strand limit before every block was traced
        letters = tuple(range(1, 11)) + tuple(-g for g in range(12, 22))
        word = BraidWord(letters, 22)
        assert [block.strands for _, block in word.split_blocks] == [11, 11]
        assert homfly_hecke(word) == homfly(word)


@st.composite
def destabilizable_words(draw, max_strands=8, max_extra=3):
    """One split block whose first gap, and maybe more end gaps, hold one letter.

    The block spans gaps ``lo..hi``; the gaps outside a core ``ilo..ihi``
    hold one letter each, the core holds one letter per gap plus up to
    ``max_extra`` more.  Strands outside the block are free, as a strand
    override leaves them.
    """
    strands = draw(st.integers(2, max_strands))
    lo = draw(st.integers(1, strands - 1))
    hi = draw(st.integers(lo, strands - 1))
    ilo = draw(st.integers(lo + 1, hi + 1))
    ihi = draw(st.integers(ilo - 1, hi))
    gaps = list(range(lo, hi + 1))
    if ilo <= ihi:
        gaps += draw(st.lists(st.integers(ilo, ihi), max_size=max_extra))
    tokens = [g * draw(st.sampled_from([1, -1])) for g in gaps]
    return BraidWord(tuple(draw(st.permutations(tokens))), strands)


class TestDestabilization:
    """Single-letter end gaps are dropped before the block is measured and traced."""

    @given(destabilizable_words())
    @settings(max_examples=150, deadline=None)
    def test_equals_descending_tree(self, word):
        assert homfly_hecke(word) == homfly(word)

    @given(destabilizable_words(max_strands=6, max_extra=2))
    @settings(max_examples=40, deadline=None)
    def test_equals_brute_oracle(self, word):
        expected = brute_homfly(word.strands, word_letters(word))
        assert poly2_to_sympy(homfly_hecke(word)) == expected

    def test_the_block_is_measured_after_destabilizing(self, hecke_evaluations):
        # single letters at gaps 1 and 12 around a doubled core of 10 gaps (11 strands)
        core = doubled(range(2, 12))
        word = BraidWord((1, *core, -12), 13)
        assert homfly_hecke(word) == homfly(word)
        # a second letter at gap 1 keeps that gap in the traced block
        homfly_hecke(BraidWord((1, 1, *core, -12), 13))
        assert [strands for _, strands in hecke_evaluations] == [11, 12]

    def test_staircase_on_22_strands_runs_no_leaf_search(self, capsys, leaf_searches):
        text = " ".join(str(g) for g in range(1, 22))
        assert main(["analyze", text]) == 0
        assert "P: 1" in capsys.readouterr().out.splitlines()
        assert leaf_searches == []

    def test_a_wide_destabilized_block_is_traced(self, capsys, leaf_searches, hecke_evaluations):
        # gaps 1 and 2 destabilize, which leaves a doubled block of 13 strands
        core = doubled(g if g % 2 else -g for g in range(3, 15))
        text = " ".join(map(str, (1, -2, *core)))
        assert main(["analyze", text, "--json"]) == 0
        assert leaf_searches == []
        assert [strands for _, strands in hecke_evaluations] == [13]
        doc = json.loads(capsys.readouterr().out)
        assert doc["homfly"]["descending"] == homfly(parse_braid(text)).to_json_terms()


def letters_at(gaps, max_size):
    """Lists of up to ``max_size`` letters at ``gaps``, each of either sign."""
    return st.lists(st.sampled_from(gaps).flatmap(lambda h: st.sampled_from([h, -h])), max_size=max_size)


@st.composite
def cancelling_words(draw, max_strands=5, max_len=3):
    """Words in which letters cancel: ``u x u^-1``, a pair around far letters, round the end.

    * ``conjugate``: ``u x u^-1``.
    * ``far``: ``sigma_g^e``, letters at gaps at least 2 from ``g``, then
      ``sigma_g^-e``, with more letters on either side.
    * ``emptied``: the same, but no other letter uses gap ``g``, so the pair
      cancels and leaves the gap empty.
    * ``cyclic``: ``sigma_g^e x sigma_g^-e`` with ``x`` free to use gaps
      ``g +- 1``, so the pair meets only with the word read round its end.
    """
    m = draw(st.integers(2, max_strands))
    g = draw(st.integers(1, m - 1))
    e = draw(st.sampled_from([1, -1]))
    every = list(range(1, m))
    other = [h for h in every if h != g] or every
    far = [h for h in every if abs(h - g) >= 2]
    kind = draw(st.sampled_from(["conjugate", "far", "emptied", "cyclic"]))
    if kind == "conjugate":
        u = draw(letters_at(every, max_len))
        tokens = u + draw(letters_at(every, max_len)) + [-t for t in reversed(u)]
    elif kind == "cyclic":
        tokens = [g * e] + draw(letters_at(every, max_len)) + [-g * e]
    else:
        sides = letters_at(every if kind == "far" else other, max_len)
        between = draw(letters_at(far, max_len)) if far else []
        tokens = draw(sides) + [g * e] + between + [-g * e] + draw(sides)
        if kind == "emptied":
            tokens = [t for t in tokens if abs(t) != g or t in (g * e, -g * e)]
    least = max((abs(t) + 1 for t in tokens), default=1)
    return BraidWord(tuple(tokens), max(least, m) + draw(st.integers(0, 1)))


@st.composite
def one_letter_gap_words(draw, max_strands=6, max_len=4):
    """A word whose interior gap ``g`` holds a single letter, the letters shuffled.

    The letters left of ``g`` and right of it commute, so the word is a
    connected sum wherever that letter stands.
    """
    m = draw(st.integers(4, max_strands))
    g = draw(st.integers(2, m - 2))
    left, right = draw(letters_at(range(1, g), max_len)), draw(letters_at(range(g + 1, m), max_len))
    tokens = left + [g * draw(st.sampled_from([1, -1]))] + right
    return BraidWord(tuple(draw(st.permutations(tokens))), m)


class TestFrontEnd:
    """Cancelling and cutting before the trace keep the polynomial."""

    @given(cancelling_words())
    @settings(max_examples=200, deadline=None)
    def test_cancelling_words_equal_the_descending_tree(self, word):
        assert homfly_hecke(word) == homfly(BraidWord(word.letters, word.strands), DESCENDING)

    @given(cancelling_words(max_strands=4, max_len=2))
    @settings(max_examples=40, deadline=None)
    def test_cancelling_words_equal_the_brute_oracle(self, word):
        expected = brute_homfly(word.strands, word_letters(word))
        assert poly2_to_sympy(homfly_hecke(word)) == expected

    @given(one_letter_gap_words())
    @settings(max_examples=150, deadline=None)
    def test_one_letter_gaps_equal_the_descending_tree(self, word):
        assert homfly_hecke(word) == homfly(BraidWord(word.letters, word.strands), DESCENDING)

    @given(one_letter_gap_words(max_strands=5, max_len=2))
    @settings(max_examples=30, deadline=None)
    def test_one_letter_gaps_equal_the_brute_oracle(self, word):
        expected = brute_homfly(word.strands, word_letters(word))
        assert poly2_to_sympy(homfly_hecke(word)) == expected

    @given(st.one_of(words(max_len=12, max_gap=5), cancelling_words(max_len=5)))
    @settings(max_examples=300, deadline=None)
    def test_cancelling_a_second_time_removes_nothing(self, word):
        once = braidpoly.hecke._cancelled(word.letters, word.strands)
        assert braidpoly.hecke._cancelled(once, word.strands) == once

    # (letters, strands, the letters left by cancelling, k, the pieces as (letters, strands))
    CASES = [
        # a far letter between the pair
        ((1, 3, -1), 4, (3,), 2, []),
        # sigma_1^2 u x u^-1 with u = sigma_2: the pair cancels only once the
        # one letter at gap 3 is cut
        ((1, 1, 2, 3, -2), 4, (1, 1, 2, 3, -2), 1, [((1, 1), 2)]),
        # u x u^-1 with u = sigma_1, read round the end
        ((1, 2, -1), 3, (2,), 1, []),
        # the pair meets only round the end of the word
        ((1, 2, 2, -1), 3, (2, 2), 1, [((1, 1), 2)]),
        # the pair at gap 2 cancels and empties that gap
        ((1, 1, 2, 4, -2, 3, 3, 4), 5, (1, 1, 4, 3, 3, 4), 1, [((2, 1, 1, 2), 3), ((1, 1), 2)]),
        # an interior gap with one letter: a connected sum
        ((1, 1, 2, 2, -3, 2, 2), 4, (1, 1, 2, 2, -3, 2, 2), 0, [((1, 1, 2, 2, 2, 2), 3)]),
        ((1, 1, 2, 3, 3), 4, (1, 1, 2, 3, 3), 0, [((1, 1), 2), ((1, 1), 2)]),
        # neighbour letters keep the pair apart both ways
        ((1, 2, -1, 2), 3, (1, 2, -1, 2), 0, [((1, 2, -1, 2), 3)]),
    ]

    @pytest.mark.parametrize("letters, strands, cancelled, splits, pieces", CASES)
    def test_worked_examples(self, letters, strands, cancelled, splits, pieces):
        word = BraidWord(letters, strands)
        assert braidpoly.hecke._cancelled(letters, strands) == cancelled
        got = braidpoly.hecke._pieces(word)
        assert (got[0], [(p.letters, p.strands) for p in got[1]]) == (splits, pieces)
        assert homfly_hecke(word) == homfly(BraidWord(letters, strands))
        assert poly2_to_sympy(homfly_hecke(word)) == brute_homfly(strands, word_letters(word))

    def test_a_multi_block_word_starts_from_its_block_objects(self):
        # blocks: a trefoil, a free strand, sigma_1 sigma_1^-1 sigma_1^2 (which cancels), a free strand
        word = BraidWord((1, 1, 1, 4, -4, 4, 4), 6)
        (_, trefoil), _, (_, cancelling), _ = word.split_blocks
        splits, pieces = braidpoly.hecke._pieces(word)
        assert splits == 3
        assert sorted((p.letters, p.strands) for p in pieces) == [((1, 1), 2), ((1, 1, 1), 2)]
        # the block the front end leaves whole is handed on as that object
        assert any(p is trefoil for p in pieces)
        assert not any(p is cancelling for p in pieces)
        homfly_hecke(word)
        assert trefoil.homfly_memo[braidpoly.hecke.HECKE] == homfly(BraidWord((1, 1, 1), 2))

    @given(cancelling_words())
    @settings(max_examples=100, deadline=None)
    def test_a_pair_with_no_neighbour_letters_cancels(self, word):
        # with no letter at gaps g +- 1 in the word, a letter at gap g and a
        # later inverse one cannot both stay
        letters = word.letters
        g = next((abs(t) for k, t in enumerate(letters) if -t in letters[k + 1:]), None)
        assume(g is not None)
        assume(all(abs(abs(t) - g) != 1 for t in letters))
        assert len(braidpoly.hecke._cancelled(letters, word.strands)) < len(letters)


def _peak_basis(monkeypatch, word):
    """The trace of ``word`` and the most permutations its element held.

    ``word`` must be an object that no engine has evaluated yet: the memo
    would answer instead of the trace.
    """
    sizes = []
    times = braidpoly.hecke._times

    def counted(elem, t):
        out = times(elem, t)
        sizes.extend((len(elem), len(out)))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(braidpoly.hecke, "_times", counted)
        poly = homfly_hecke(word)
    return poly, max(sizes)


@st.composite
def clustered_words(draw, max_strands=6, max_extra=3):
    """One block of 4 or more strands whose top-gap letters sit together.

    The cluster lands anywhere in the cyclic word: at the start (the top
    strand is traced out early), at the end (late), or across the end of the
    word, where only a rotation brings it together.  Half of the words are
    flipped, ``sigma_i -> sigma_(m-i)``, so that gap 1 clusters instead and
    the top gap finishes early only in a flipped order.
    """
    m = draw(st.integers(4, max_strands))
    body = [g for g in range(1, m - 1) for _ in (0, 1)]
    body += draw(st.lists(st.integers(1, m - 2), max_size=max_extra))
    body = draw(st.permutations(body))
    at = draw(st.integers(0, len(body)))
    gaps = body[:at] + [m - 1] * draw(st.integers(2, 3)) + body[at:]
    turn = draw(st.integers(0, len(gaps) - 1))
    gaps = gaps[turn:] + gaps[:turn]
    if draw(st.booleans()):
        gaps = [m - g for g in gaps]
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(gaps), max_size=len(gaps)))
    return BraidWord(tuple(g * s for g, s in zip(gaps, signs)), m)


class TestEarlyTraceOut:
    """Each strand is traced out once no later letter uses it, in the cheapest order."""

    # (letters on 5 strands, the order the trace multiplies them in)
    ORDERS = [
        # the top gap finishes first as the word stands
        ((4, -4, 3, 3, -2, 2, 1, -1), (4, -4, 3, 3, -2, 2, 1, -1)),
        # a rotation brings the top gap to the front
        ((1, 4, -4, 2, 3, -2, 3, 1), (4, -4, 2, 3, -2, 3, 1, 1)),
        # the flip turns the word so that its top gap finishes first
        ((1, 1, -2, 2, 3, 3, -4, 4), (4, 4, -3, 3, 2, 2, -1, 1)),
        # the flip, then a rotation
        ((4, 1, -1, 2, -2, 3, 3, 4), (4, -4, 3, -3, 2, 2, 1, 1)),
    ]

    @pytest.mark.parametrize("letters, order", ORDERS)
    def test_the_cheapest_order_wins(self, letters, order):
        word = BraidWord(letters, 5)
        assert braidpoly.hecke._cheapest_order(word) == order
        assert homfly_hecke(word) == homfly(word)
        assert poly2_to_sympy(homfly_hecke(word)) == brute_homfly(5, word_letters(word))

    @given(clustered_words())
    @settings(max_examples=150, deadline=None)
    def test_equals_descending_tree(self, word):
        assert homfly_hecke(word) == homfly(word)
        # most of these words cancel or cut before the trace; the whole word still orders and traces
        assert braidpoly.hecke._block_trace(word) == homfly(word)

    @given(clustered_words(max_strands=5, max_extra=0))
    @settings(max_examples=30, deadline=None)
    def test_equals_brute_oracle(self, word):
        expected = brute_homfly(word.strands, word_letters(word))
        assert poly2_to_sympy(homfly_hecke(word)) == expected

    @pytest.mark.parametrize("signs", [(1,) * 10, (1, -1) * 5], ids=["positive", "alternating"])
    def test_doubled_word_keeps_a_small_basis(self, monkeypatch, signs):
        # traced out at the end, these words reach 1,024 permutations of 11 strands
        word = BraidWord(doubled(g * s for g, s in zip(range(1, 11), signs)), 11)
        poly, peak = _peak_basis(monkeypatch, word)
        assert 0 < peak <= 4
        assert poly == homfly(word)


def dense_word(strands, seed):
    """A dense word: 3(strands - 1) + 1 letters, every gap at least twice, random signs."""
    rng = random.Random(seed)
    gaps = [g for g in range(1, strands) for _ in (0, 1)]
    gaps += [rng.randint(1, strands - 1) for _ in range(strands)]
    rng.shuffle(gaps)
    return BraidWord(tuple(g * rng.choice((1, -1)) for g in gaps), strands)


def test_a_cancelled_permutation_is_dropped(monkeypatch):
    # on this word, keeping cancelled permutations let 464 empty
    # coefficients through ``_times``
    word = dense_word(14, 51)
    empty = []
    times = braidpoly.hecke._times

    def counted(elem, t):
        empty.extend(perm for perm, coeff in elem.items() if not coeff)
        out = times(elem, t)
        empty.extend(perm for perm, coeff in out.items() if not coeff)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(braidpoly.hecke, "_times", counted)
        # the whole word, not the pieces that cancelling and cutting leave of it
        poly = braidpoly.hecke._block_trace(word)
    assert empty == []
    assert poly == homfly(BraidWord(word.letters, word.strands))


@st.composite
def negative_words(draw, max_strands=8, max_len=10):
    """Words of negative writhe on 2 to ``max_strands`` strands, most of them one block."""
    m = draw(st.integers(2, max_strands))
    gaps = draw(st.lists(st.integers(1, m - 1), min_size=1, max_size=max_len))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(gaps), max_size=len(gaps)))
    letters = tuple(g * s for g, s in zip(gaps, signs))
    assume(sum(signs) != 0)
    return BraidWord(letters if sum(signs) < 0 else tuple(-t for t in letters), m)


class TestOrientation:
    """A block of negative writhe is traced as its mirror image, then mirrored back."""

    @given(negative_words())
    @settings(max_examples=150, deadline=None)
    def test_equals_descending_tree(self, word):
        assert homfly_hecke(word) == homfly(word)
        # most of these words cancel or cut before the trace; a whole block still mirrors and traces
        if len(word.split_blocks) == 1:
            assert braidpoly.hecke._block_trace(word) == homfly(word)

    @given(negative_words(max_strands=4, max_len=5))
    @settings(max_examples=40, deadline=None)
    def test_equals_brute_oracle(self, word):
        expected = brute_homfly(word.strands, word_letters(word))
        assert poly2_to_sympy(homfly_hecke(word)) == expected

    def test_negative_staircase_keeps_a_small_basis(self, monkeypatch):
        # in its own orientation the trace of this word reaches 52,488 permutations
        word = BraidWord(tuple(-g for g in range(1, 11)) * 3, 11)
        poly, peak = _peak_basis(monkeypatch, word)
        assert peak <= 16
        assert poly == homfly(word)


@st.composite
def wide_words(draw):
    """One block of 12 or 13 strands, each gap used exactly twice, shuffled, random signs.

    No gap holds a single letter, so the block is cut only where a pair
    of letters cancels.
    """
    m = draw(st.integers(12, 13))
    gaps = draw(st.permutations([g for g in range(1, m) for _ in (0, 1)]))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(gaps), max_size=len(gaps)))
    return BraidWord(tuple(g * s for g, s in zip(gaps, signs)), m)


@given(wide_words())
@settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_wide_words_are_traced_and_equal_the_tree(capsys, leaf_searches, word):
    leaf_searches.clear()
    assert main(["analyze", word.text(), "--json"]) == 0
    assert leaf_searches == []
    doc = json.loads(capsys.readouterr().out)
    poly = homfly_hecke(BraidWord(word.letters, word.strands))
    assert doc["homfly"]["descending"] == poly.to_json_terms()
    assert poly == homfly(BraidWord(word.letters, word.strands), DESCENDING)
    # the whole wide word, as it stands before cancelling and cutting
    assert braidpoly.hecke._block_trace(word) == poly


def test_sigma1_power_closed_form_at_200():
    # skein at the last letter: P(s^k) = a^-1 z P(s^(k-1)) + a^-2 P(s^(k-2))
    previous, current = DELTA, LaurentPoly2.one()
    for _ in range(2, 201):
        previous, current = current, (
            current.scale_monomial(dz=1, da=-1) + previous.scale_monomial(da=-2)
        )
    assert homfly_hecke(BraidWord((1,) * 200, 2)) == current


class TestPackedCoefficients:
    """The trace packs each coefficient's polynomial in ``x = a^-2`` into one int."""

    def test_every_sigma1_power_to_80_follows_the_skein_recursion(self):
        # P_k = a^-1 z P_(k-1) + a^-2 P_(k-2), P_0 = delta, P_1 = 1
        previous, current = DELTA, LaurentPoly2.one()
        assert homfly_hecke(BraidWord((), 2)) == previous
        for k in range(1, 81):
            if k > 1:
                previous, current = current, (
                    current.scale_monomial(dz=1, da=-1) + previous.scale_monomial(da=-2)
                )
            assert homfly_hecke(BraidWord((1,) * k, 2)) == current, k
        # the digits grow past 2^52, so a narrow digit would wrap
        assert max(abs(c) for _, c in current.terms()) > 2**52

    @staticmethod
    def packed(digits, width):
        return sum(d << (width * k) for k, d in enumerate(digits))

    @pytest.mark.parametrize(
        "digits", [[-3], [-3, 5, -1], [7, 0, 0, -2], [0, 0, 4], [-1, -1, -1], [1, 0, -1]]
    )
    def test_unpacked_reads_signed_digits(self, digits):
        width = 8
        got = list(braidpoly.hecke._unpacked(self.packed(digits, width), width))
        assert got == [(k, d) for k, d in enumerate(digits) if d]

    @pytest.mark.parametrize("width", [2, 3, 8, 61, 200])
    def test_unpacked_reads_digits_of_the_largest_magnitude(self, width):
        top = (1 << (width - 1)) - 1
        digits = [top, -top, 0, top, -1, -top]
        got = list(braidpoly.hecke._unpacked(self.packed(digits, width), width))
        assert got == [(k, d) for k, d in enumerate(digits) if d]

    def test_zero_unpacks_to_no_digit(self):
        assert list(braidpoly.hecke._unpacked(0, 8)) == []


def test_methods_check_compares_the_tree_with_the_trace(monkeypatch):
    word = parse_braid("1 -2 1 -2")
    assert check_methods_agree(word) is None
    monkeypatch.setattr(braidpoly.checks, "homfly_hecke", lambda word: LaurentPoly2.one())
    message = check_methods_agree(parse_braid("1 -2 1 -2"))
    assert message.startswith("method disagreement") and "hecke gave 1" in message


def test_methods_check_on_a_wide_block_runs_the_trace(hecke_evaluations):
    word = BraidWord(doubled(range(1, 12)), 12)
    assert check_methods_agree(word) is None
    assert hecke_evaluations == [(word.tokens(), 12)]


class TestEngineChoice:
    """``analyze`` traces every word, however wide the pieces left of its blocks."""

    def analyze_terms(self, capsys, *argv):
        assert main(["analyze", *argv, "--json"]) == 0
        return json.loads(capsys.readouterr().out)["homfly"]["descending"]

    def test_one_crossing_on_a_thousand_strands(self, capsys, leaf_searches, hecke_evaluations):
        got = self.analyze_terms(capsys, "1", "--strands", "1000")
        assert leaf_searches == []
        # the crossing's block is cut to nothing; 998 free strands are not traced
        assert hecke_evaluations == []
        assert got == homfly(parse_braid("1", strands=1000)).to_json_terms()

    def test_far_apart_letters_on_a_thousand_strands(self, capsys, leaf_searches, hecke_evaluations):
        got = self.analyze_terms(capsys, "1 -999")
        assert leaf_searches == []
        # two one-crossing blocks around 996 free strands, each cut to nothing
        assert hecke_evaluations == []
        assert got == homfly(parse_braid("1 -999")).to_json_terms()

    def test_at_the_strand_constant_the_trace_runs(self, capsys, leaf_searches, hecke_evaluations):
        # 11 strands, the trace's strand limit before every block was traced
        text = " ".join(str(g) for g in range(1, 11))
        got = self.analyze_terms(capsys, text)
        assert leaf_searches == []
        # each gap holds one letter, so every gap is cut and no piece is left
        assert len(hecke_evaluations) == 0
        assert got == homfly(parse_braid(text)).to_json_terms()

    def test_a_wide_block_runs_the_trace(self, capsys, leaf_searches, hecke_evaluations):
        text = " ".join(map(str, doubled(g if g % 2 else -g for g in range(1, 12))))
        got = self.analyze_terms(capsys, text)
        assert leaf_searches == []
        assert [strands for _, strands in hecke_evaluations] == [12]
        assert got == homfly(parse_braid(text)).to_json_terms()


class TestMemo:
    def test_each_word_object_is_traced_once(self, hecke_evaluations):
        word = parse_braid("1 -2 1 -2")
        first = homfly_hecke(word)
        assert homfly_hecke(word) is first
        assert homfly_hecke(parse_braid("1 -2 1 -2")) == first
        assert len(hecke_evaluations) == 2

    def test_trace_and_tree_share_no_memo_entry(self, leaf_searches, hecke_evaluations):
        word = parse_braid("1 1 1")
        assert homfly_hecke(word) == homfly(word)
        assert len(leaf_searches) == 1 and len(hecke_evaluations) == 1


@pytest.fixture
def block_builds(monkeypatch):
    """Record the word object of every split-block decomposition built during the test."""
    calls = []
    build = BraidWord.split_blocks.func

    def counted(word):
        calls.append(word)
        return build(word)

    counted_property = functools.cached_property(counted)
    counted_property.__set_name__(BraidWord, "split_blocks")
    monkeypatch.setattr(BraidWord, "split_blocks", counted_property)
    return calls


class TestBlocksBuiltOnce:
    def test_analyze_builds_the_blocks_at_most_once_per_word_object(self, capsys, block_builds):
        rng = random.Random(8124)
        texts = ["1 1 -3 -3", "1 1 -3 -3 3", " ".join(map(str, doubled(range(1, 12))))]
        for strands in (3, 4, 5):
            for _ in range(8):
                tokens = [rng.randint(1, strands - 1) * rng.choice((1, -1)) for _ in range(rng.randint(8, 14))]
                texts.append(" ".join(map(str, tokens)))
        for text in texts:
            block_builds.clear()
            assert main(["analyze", text, "--json"]) == 0
            capsys.readouterr()
            assert len({id(word) for word in block_builds}) == len(block_builds), text

    def test_a_second_call_on_the_same_word_builds_no_blocks(self, block_builds):
        word = parse_braid("1 -2 1 -2 3 -3")
        first = homfly_hecke(word)
        assert len(block_builds) <= 1
        homfly_hecke(parse_braid("1 1"))  # another word in between
        block_builds.clear()
        assert homfly_hecke(word) is first
        assert block_builds == []


@pytest.fixture
def front_end(monkeypatch):
    """Record the Hecke trace's front end during the test.

    ``passes`` gets the word object of every ``hecke._pieces`` call, and
    ``cuts`` gets ``(letters, strands, parts)`` for every round's
    ``hecke._cut`` call, ``parts`` being the parts it returned.
    """
    passes, cuts = [], []
    pieces, cut = braidpoly.hecke._pieces, braidpoly.hecke._cut

    def counted_pieces(word):
        passes.append(word)
        return pieces(word)

    def counted_cut(letters, strands, fewer):
        empty, parts = cut(letters, strands, fewer)
        cuts.append((letters, strands, parts))
        return empty, parts

    monkeypatch.setattr(braidpoly.hecke, "_pieces", counted_pieces)
    monkeypatch.setattr(braidpoly.hecke, "_cut", counted_cut)
    return passes, cuts


class TestDestabilizedOnce:
    """``analyze`` takes each word object through the front end once, and each block one round."""

    TEXTS = [
        "1 1 -3 -3",
        "1 1 -3 -3 3",
        "1 -2 1 -2",
        " ".join(map(str, range(1, 40))),  # one block that is cut at every gap
        " ".join(map(str, range(1, 100, 2))),  # 50 one-letter blocks
        "2 2 2 -5 6 -5 6 -5",
        "-1 3 -2 -4 -4 -4 1 -3",
        # a certified trefoil block beside a doubled block of 12 strands
        " ".join(map(str, (1, 1, 1, *(t + 3 for t in doubled(range(1, 12)))))),
    ]

    def test_analyze_destabilizes_each_block_once(self, capsys, front_end):
        passes, cuts = front_end
        cancelled = braidpoly.hecke._cancelled
        for text in self.TEXTS:
            passes.clear()
            cuts.clear()
            assert main(["analyze", text, "--json"]) == 0
            capsys.readouterr()
            # one pass, on the analyzed word: the certificate reads its blocks' memo
            word = parse_braid(text)
            assert [(w.letters, w.strands) for w in passes] == [(word.letters, word.strands)]
            lettered = [b for _, b in passes[0].split_blocks if b.letters]
            # every round cuts a lettered block or a lettered part of an earlier cut, once
            rounds = Counter((letters, m) for letters, m, _ in cuts)
            starts = Counter((cancelled(b.letters, b.strands), b.strands) for b in lettered)
            starts += Counter(
                (cancelled(part, n), n)
                for _, _, parts in cuts
                if len(parts) > 1
                for _, part, n in parts
                if part
            )
            assert rounds == starts, text
