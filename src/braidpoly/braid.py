"""Braid words, closed-braid combinatorics, and the natural traversal walk.

A braid word on ``n`` strands is a top-to-bottom sequence of letters, each a
signed generator stored as a plain int: ``i`` crosses the strands in columns
``i`` and ``i+1`` positively, ``-i`` negatively.  ``BraidWord.gaps`` and
``BraidWord.signs`` are the two halves of that int.  The closure joins each
bottom endpoint ``(k, bottom)`` back to the top endpoint ``(k, top)``.

Conventions fixed here and relied on everywhere else:

* Strand *labels* are the starting columns ``1..n``; the permutation of a word
  sends each label to its strand's ending column.
* The *standard form* of the permutation lists each cycle starting from its
  minimum, with cycles sorted by those minima.  Reading the labels off the
  standard form gives the *return order*; cycle leaders are *pivot* labels.
* *Natural traversal* walks the closed diagram component by component in pivot
  order, starting at the pivot's top endpoint and following the downward
  orientation, jumping through closure arcs at the bottom.
* Over/under drawing convention: at a positive crossing the strand arriving in
  column ``gap+1`` (from the right) passes over; at a negative crossing the
  strand arriving in column ``gap`` (from the left) passes over.  This is the
  unique choice under which a one-crossing negative 2-braid is descending, the
  closure of a single positive crossing evaluates to 1, and descending
  closures satisfy components - writhe = strands.  An import-time self check
  in the package root asserts the first two.
* A crossing is *descending* when the natural traversal first arrives at it
  on its over-arm, *ascending* otherwise (:func:`classify_crossings`).  The
  walk starts the strands in return order, so this is the paper's statement
  by labels: the over-strand's label precedes the under-strand's in the
  return order.  The tests check the code against that rank-based statement.

Letter positions are 0-based throughout the API.
"""

from __future__ import annotations

import enum
import random
import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence


class BraidParseError(ValueError):
    """Raised for malformed braid text or an inconsistent strand override."""


class CrossingState(enum.Enum):
    """Resolution state of one crossing: kept, sign-flipped, or smoothed."""

    KEPT = "kept"
    FLIPPED = "flipped"
    SMOOTHED = "smoothed"


KEPT = CrossingState.KEPT
FLIPPED = CrossingState.FLIPPED
SMOOTHED = CrossingState.SMOOTHED


@dataclass(frozen=True)
class BraidWord:
    """An ordered braid word plus its strand count.

    ``letters`` are the signed generator tokens: ``k > 0`` crosses gap ``k``
    positively and ``-k`` negatively.  The empty word is legal on any number
    of strands ``n >= 1``.
    """

    letters: tuple[int, ...]
    strands: int

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError(f"strand count must be >= 1, got {self.strands}")
        for pos, t in enumerate(self.letters):
            if not 1 <= abs(t) <= self.strands - 1:
                raise ValueError(
                    f"letter {pos} is {t}, but a letter on {self.strands} strands "
                    f"must be a nonzero generator index of size at most {self.strands - 1}"
                )

    @classmethod
    def from_tokens(cls, tokens: Sequence[int], strands: int | None = None) -> "BraidWord":
        letters = tuple(tokens)
        if strands is None:
            strands = max((abs(t) + 1 for t in letters), default=1)
        return cls(letters, strands)

    def tokens(self) -> tuple[int, ...]:
        return self.letters

    def text(self) -> str:
        return " ".join(str(t) for t in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    @cached_property
    def gaps(self) -> tuple[int, ...]:
        return tuple(abs(t) for t in self.letters)

    @cached_property
    def signs(self) -> tuple[int, ...]:
        return tuple(1 if t > 0 else -1 for t in self.letters)

    @cached_property
    def column_index(self) -> tuple[tuple[int, ...], ...]:
        """For each column ``1..n``, the sorted letter positions touching it.

        A letter at gap ``g`` occupies columns ``g`` and ``g+1``.  Entry 0 is
        an unused placeholder so columns index directly.
        """
        cols: list[list[int]] = [[] for _ in range(self.strands + 1)]
        for i, g in enumerate(self.gaps):
            cols[g].append(i)
            cols[g + 1].append(i)
        return tuple(tuple(c) for c in cols)

    def sub_braid(self, first: int, last: int) -> "BraidWord":
        """The letters at gaps ``first..last``, re-indexed to start at gap 1.

        The result lives on strands ``first..last+1`` of this word, renumbered
        from 1; ``last = first - 1`` gives one strand and no letters.
        """
        shift = first - 1
        letters = tuple(
            t - shift if t > 0 else t + shift for t in self.letters if first <= abs(t) <= last
        )
        return BraidWord(letters, last - first + 2)

    @cached_property
    def split_blocks(self) -> tuple[tuple[int, "BraidWord"], ...]:
        """The closure's split blocks as ``(first_strand, block_word)`` pairs.

        A gap that no letter uses splits the closure.  The blocks cover strands
        ``1..n`` in order, each re-indexed to start at gap 1 (see
        :meth:`sub_braid`); a strand between two empty gaps is a block with
        the empty word.  A word with no empty gap is its own single block,
        returned as is, so the block shares the word's memoized polynomials.
        """
        used = set(self.gaps)
        firsts = [1]
        block_of = [0] * self.strands  # the block of each gap in use
        for g in range(1, self.strands):
            if g not in used:
                firsts.append(g + 1)
            block_of[g] = len(firsts) - 1
        if len(firsts) == 1:
            return ((1, self),)
        # one pass buckets the letters by block, re-indexed as in ``sub_braid``
        blocks: list[list[int]] = [[] for _ in firsts]
        for t in self.letters:
            b = block_of[abs(t)]
            shift = firsts[b] - 1
            blocks[b].append(t - shift if t > 0 else t + shift)
        ends = firsts[1:] + [self.strands + 1]
        return tuple(
            (f, BraidWord(tuple(letters), end - f))
            for f, end, letters in zip(firsts, ends, blocks)
        )

    @cached_property
    def destabilized(self) -> "BraidWord":
        """This word with its single-letter end gaps dropped; the closure is the same.

        When the first or last gap holds exactly one letter, dropping that
        letter and that outer strand keeps the closure: conjugation brings the
        letter to the end of the word (and, for the first gap, the half twist
        turns the strand order round), and a Markov destabilization removes
        it.  That repeats until neither end gap holds a single letter.  A
        word emptied this way is an unknot on one strand.  A word with no
        single-letter end gap is returned as it is.  Computed once per word
        object, from one count of the letters in each gap.
        """
        counts = [0] * self.strands  # letters per gap, index 0 unused
        for g in self.gaps:
            counts[g] += 1
        first, last = 1, self.strands - 1
        while first <= last:
            if counts[first] == 1:
                first += 1
            elif counts[last] == 1:
                last -= 1
            else:
                break
        if (first, last) == (1, self.strands - 1):
            return self
        return self.sub_braid(first, last)

    @cached_property
    def homfly_memo(self) -> dict:
        """This word's HOMFLY polynomials computed so far, keyed by engine.

        Filled by :func:`braidpoly.resolver.homfly` (one key per tree mode)
        and :func:`braidpoly.hecke.homfly_hecke` (key ``"hecke"``, also on each
        of :attr:`split_blocks`), so every caller holding this object shares
        one evaluation per engine.  The memo belongs to the instance: an equal
        word parsed separately evaluates afresh.
        """
        return {}


@dataclass(frozen=True)
class ResolvedDiagram:
    """A braid word together with a per-crossing resolution state."""

    word: BraidWord
    states: tuple[CrossingState, ...]

    def __post_init__(self):
        if len(self.states) != len(self.word):
            raise ValueError(
                f"state vector length {len(self.states)} does not match "
                f"{len(self.word)} letters"
            )

    @classmethod
    def all_kept(cls, word: BraidWord) -> "ResolvedDiagram":
        return cls(word, (KEPT,) * len(word))

    def effective_sign(self, i: int) -> int:
        """Sign of letter ``i`` after flips; meaningless for smoothed letters."""
        s = self.word.signs[i]
        return -s if self.states[i] is FLIPPED else s

    def with_state(self, i: int, state: CrossingState) -> "ResolvedDiagram":
        states = list(self.states)
        states[i] = state
        return ResolvedDiagram(self.word, tuple(states))

    @property
    def smoothed(self) -> frozenset[int]:
        return frozenset(
            i for i, st in enumerate(self.states) if st is SMOOTHED
        )

    def permutation(self) -> "StrandPermutation":
        """Strand permutation with smoothed letters acting as the identity.

        Its standard-form cycles are the strand labels in the order the
        natural traversal starts them, one cycle per closure component,
        collected by :func:`_violations`, whose verdicts are dropped.
        """
        cycles: list[list[int]] = []
        for _ in _violations(self.word, self.states, False, cycles):
            pass
        return StrandPermutation(tuple(map(tuple, cycles)))


# ---------------------------------------------------------------------------
# Parsing and elementary word statistics
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"-?[1-9][0-9]*")
_SEPARATORS = re.compile(r"[ \t,]+")


def parse_braid(text: str, strands: Optional[int] = None) -> BraidWord:
    """Parse whitespace/comma-separated signed generator indices.

    Token ``k > 0`` denotes the positive generator at gap ``k`` and ``k < 0``
    its inverse.  The strand count defaults to ``max |k| + 1`` (1 for the
    empty word); an explicit ``strands`` may only enlarge it, which adds
    unknot closure components.
    """
    tokens = [t for t in _SEPARATORS.split(text.strip()) if t]
    values = []
    for tok in tokens:
        if not _TOKEN.fullmatch(tok):
            if re.fullmatch(r"-?0+", tok):
                raise BraidParseError(f"zero generator index in token {tok!r}")
            raise BraidParseError(f"invalid braid token {tok!r}")
        values.append(int(tok))
    needed = max((abs(v) + 1 for v in values), default=1)
    if strands is not None and strands < needed:
        raise BraidParseError(
            f"strand override {strands} is too small: word needs {needed}"
        )
    return BraidWord.from_tokens(values, strands if strands is not None else needed)


def writhe(word: BraidWord) -> int:
    """Sum of the crossing signs."""
    return sum(word.signs)


def mirror(word: BraidWord) -> BraidWord:
    """The mirror image: every crossing sign negated, strands unchanged."""
    return BraidWord(tuple(-t for t in word.letters), word.strands)


# ---------------------------------------------------------------------------
# Permutation, return order, pivots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrandPermutation:
    """A strand permutation in standard cycle form.

    Cycles each start at their minimum label and are sorted by those minima,
    so reading the labels left to right gives the return order.
    """

    cycles: tuple[tuple[int, ...], ...]

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.cycles)

    @cached_property
    def return_order(self) -> tuple[int, ...]:
        return tuple(label for cycle in self.cycles for label in cycle)

    @cached_property
    def rank(self) -> dict[int, int]:
        """Position of each label in the return order (a bijection to 0..n-1)."""
        return {label: i for i, label in enumerate(self.return_order)}

    def cycle_text(self) -> str:
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in self.cycles)


def permutation(word: BraidWord) -> StrandPermutation:
    return ResolvedDiagram.all_kept(word).permutation()


# ---------------------------------------------------------------------------
# Gap profile and diagram classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapTally:
    gap: int
    positive: int
    negative: int
    positions: tuple[int, ...]

    @property
    def count(self) -> int:
        return self.positive + self.negative


@dataclass(frozen=True)
class GapProfile:
    """Per-gap crossing tallies for gaps ``1..strands-1``, in gap order."""

    gaps: tuple[GapTally, ...]

    def tally(self, gap: int) -> GapTally:
        return self.gaps[gap - 1]


def gap_profile(word: BraidWord) -> GapProfile:
    pos = [0] * word.strands
    neg = [0] * word.strands
    where: list[list[int]] = [[] for _ in range(word.strands)]
    for i, t in enumerate(word.letters):
        if t > 0:
            pos[t] += 1
        else:
            neg[-t] += 1
        where[abs(t)].append(i)
    tallies = tuple(
        GapTally(g, pos[g], neg[g], tuple(where[g]))
        for g in range(1, word.strands)
    )
    return GapProfile(tallies)


@dataclass(frozen=True)
class DiagramClass:
    """Diagram-level flags of a closed braid word.

    ``alternating``: odd gaps carry one sign and even gaps the opposite sign
    (empty gaps vacuous).  ``positive_leading``/``negative_leading``: the
    parity-consistent sign of the odd gaps, inferred from the lowest nonempty
    gap; both are false for crossingless words.  ``reduced``: no gap contains
    exactly one crossing (a lone crossing in its gap is nugatory in the
    closure).  ``non_split``: every gap contains at least one crossing, so the
    closure diagram has no vertical separating line.
    """

    alternating: bool
    positive_leading: bool
    negative_leading: bool
    reduced: bool
    non_split: bool


def classify(word: BraidWord) -> DiagramClass:
    """The :class:`DiagramClass` flags, from one pass over the letters.

    Each letter asks the odd gaps for a sign: its own sign on an odd gap, the
    opposite sign on an even one.  The word alternates when its letters ask
    at most one sign, and that sign leads.
    """
    counts = [0] * word.strands  # letters per gap, index 0 unused
    odd_signs: set[int] = set()
    for t in word.letters:
        g = abs(t)
        counts[g] += 1
        odd_signs.add(1 if (t > 0) == (g % 2 == 1) else -1)
    del counts[0]
    return DiagramClass(
        alternating=len(odd_signs) <= 1,
        positive_leading=odd_signs == {1},
        negative_leading=odd_signs == {-1},
        reduced=1 not in counts,
        non_split=0 not in counts,
    )


# ---------------------------------------------------------------------------
# Natural traversal
# ---------------------------------------------------------------------------


def walk(
    word: BraidWord, states: Sequence[Optional[CrossingState]]
) -> Iterator[tuple[int, int, bool]]:
    """The natural traversal of the closed diagram, one step at a time.

    Components are walked in pivot order: each starts at the top of its
    pivot column, every strand is walked top to bottom, and the closure arc
    returns the walker to the top of the column it ended in.  Smoothed
    letters keep the walker in its column; any other state swaps it across
    the gap.  Yields ``(i, col, first)``:

    * ``i >= 0``: the walker passes letter ``i``, arriving in column ``col``,
      for the first time when ``first`` (every letter is passed twice);
    * ``i == -1``: the walker starts a strand at the top of column ``col``,
      the pivot of a new component when ``first``.

    ``states[i]`` is read only after the passage at letter ``i`` is yielded,
    so a consumer may decide a letter's state when the walker reaches it.
    """
    gaps = word.gaps
    adj = word.column_index
    seen = [False] * len(gaps)
    visited = [False] * (word.strands + 1)
    for pivot in range(1, word.strands + 1):
        if visited[pivot]:
            continue
        col = pivot
        while True:
            visited[col] = True
            yield -1, col, col == pivot
            pos = -1
            while True:
                lst = adj[col]
                k = bisect_right(lst, pos)
                if k == len(lst):
                    break
                pos = lst[k]
                yield pos, col, not seen[pos]
                seen[pos] = True
                if states[pos] is not SMOOTHED:
                    col = 2 * gaps[pos] + 1 - col
            if col == pivot:
                break


def _under_columns(word: BraidWord) -> list[int]:
    """The column from which the walker reaches each letter on its original under-arm.

    By the drawing convention the under-arm of a positive crossing arrives
    from the left, in the gap column, and that of a negative one from the
    right; arriving from the other column is arriving on the over-arm.
    """
    return [t if t > 0 else 1 - t for t in word.letters]


def _violations(
    word: BraidWord,
    states: Sequence[CrossingState],
    ascending: bool,
    cycles: Optional[list[list[int]]] = None,
) -> Iterator[int]:
    """Letters breaking the requested form at their first visit, in walk order.

    For the descending form a kept letter must be reached on its over-arm,
    and a flipped or smoothed letter on the under-arm of its original
    crossing (a flip swaps the arms); the ascending form swaps both arms.
    This is the one first-visit test: :func:`classify_crossings`, the step
    API and leaf test of :mod:`braidpoly.resolver` and the admissibility
    test of :mod:`braidpoly.jaeger` all read it.  When ``cycles`` is a list,
    the same walk appends to it the strand labels of each closure component
    in the order the walk starts them, one list per component.  This is the
    one cycle collector: :meth:`ResolvedDiagram.permutation`,
    :func:`permutation_and_kinds` and the leaves of
    :func:`braidpoly.jaeger.verify_bijection` read it.  The list is whole
    only once the walk is exhausted.
    """
    under = _under_columns(word)
    for i, col, first in walk(word, states):
        if i < 0:
            if cycles is not None:
                if first:
                    cycles.append([])
                cycles[-1].append(col)
        elif first and ((col == under[i]) == ascending) != (states[i] is KEPT):
            yield i


def permutation_and_kinds(
    diagram: ResolvedDiagram,
) -> tuple[StrandPermutation, tuple[Optional[str], ...]]:
    """:meth:`ResolvedDiagram.permutation` and :func:`classify_crossings`, from one walk."""
    cycles: list[list[int]] = []
    ascending = set(_violations(diagram.word, diagram.states, False, cycles))
    kinds = tuple(
        None if st is SMOOTHED else "ascending" if i in ascending else "descending"
        for i, st in enumerate(diagram.states)
    )
    return StrandPermutation(tuple(map(tuple, cycles))), kinds


def classify_crossings(diagram: ResolvedDiagram) -> tuple[Optional[str], ...]:
    """Label each non-smoothed letter ``"descending"`` or ``"ascending"``.

    A letter is ascending exactly when it breaks the descending form at its
    first visit (:func:`_violations`): the walk of the diagram, smoothed
    letters acting as the identity, first reaches it on the under-arm of its
    crossing as it stands.  Smoothed letters get ``None``.
    """
    return permutation_and_kinds(diagram)[1]


# ---------------------------------------------------------------------------
# Markov-move variants (property-test fuel for isotopy invariance)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkovVariant:
    word: BraidWord
    moves: tuple[str, ...]


def _braid_relation_sites(tokens: list[int]) -> list[int]:
    """Positions ``i`` where ``a^e b^d a^h`` may become ``b^h a^d b^e``.

    Gaps ``a`` and ``b`` are adjacent; the rewrite holds except when
    ``e == h == -d``.
    """
    return [
        i
        for i in range(len(tokens) - 2)
        if abs(tokens[i]) == abs(tokens[i + 2])
        and abs(abs(tokens[i]) - abs(tokens[i + 1])) == 1
        and (tokens[i] != tokens[i + 2] or (tokens[i] > 0) == (tokens[i + 1] > 0))
    ]


# Each move rewrites ``tokens`` in place and returns the new strand count and
# the move's label, or ``None`` when the word has no site for it.


def _rotate(tokens: list[int], strands: int, rng: random.Random) -> tuple[int, str]:
    k = rng.randint(0, len(tokens)) if tokens else 0
    tokens += tokens[:k]
    del tokens[:k]
    return strands, f"rotate({k})"


def _commute(tokens: list[int], strands: int, rng: random.Random) -> Optional[tuple[int, str]]:
    sites = [
        i for i in range(len(tokens) - 1) if abs(abs(tokens[i]) - abs(tokens[i + 1])) >= 2
    ]
    if not sites:
        return None
    i = rng.choice(sites)
    tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    return strands, f"commute@{i}"


def _braid(tokens: list[int], strands: int, rng: random.Random) -> Optional[tuple[int, str]]:
    sites = _braid_relation_sites(tokens)
    if not sites:
        return None
    i = rng.choice(sites)
    a, b, c = tokens[i : i + 3]
    e, d, h = (1 if t > 0 else -1 for t in (a, b, c))
    tokens[i : i + 3] = [h * abs(b), d * abs(a), e * abs(b)]
    return strands, f"braid@{i}"


def _cancel(tokens: list[int], strands: int, rng: random.Random) -> Optional[tuple[int, str]]:
    sites = [i for i in range(len(tokens) - 1) if tokens[i] == -tokens[i + 1]]
    if not sites:
        return None
    i = rng.choice(sites)
    del tokens[i : i + 2]
    return strands, f"cancel@{i}"


def _insert(tokens: list[int], strands: int, rng: random.Random) -> Optional[tuple[int, str]]:
    if strands < 2:
        return None
    t = rng.randint(1, strands - 1) * rng.choice((1, -1))
    i = rng.randint(0, len(tokens))
    tokens[i:i] = [t, -t]
    return strands, f"insert({t})@{i}"


def _stabilize(tokens: list[int], strands: int, rng: random.Random) -> tuple[int, str]:
    s = rng.choice((1, -1))
    tokens.append(strands * s)
    return strands + 1, f"stabilize({'+' if s > 0 else '-'})"


def markov_variants(
    word: BraidWord, seed: int, count: int
) -> list[MarkovVariant]:
    """Deterministic pseudo-random words with the same closure link type.

    Each variant applies one to three moves to the input word, drawn from:
    cyclic rotation (conjugation of the closure), far commutation of letters
    whose gaps differ by at least two, sign-aware braid-relation rewrites on
    three adjacent letters, cancellation or insertion of an adjacent inverse
    pair, and stabilization (append a crossing in a fresh last gap on one
    more strand).  A drawn move that finds no site in the word rotates it
    instead.  Growth is bounded: insertion and stabilization leave the draw
    once applied, so a variant has at most one of each and invariance checks
    stay cheap.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    rng = random.Random(seed)
    variants: list[MarkovVariant] = []
    for _ in range(count):
        tokens = list(word.letters)
        strands = word.strands
        moves: list[str] = []
        options = [_rotate, _commute, _braid, _cancel, _insert, _stabilize]
        for _ in range(rng.randint(1, 3)):
            move = rng.choice(options)
            step = move(tokens, strands, rng)
            if step is None:
                step = _rotate(tokens, strands, rng)
            elif move is _insert or move is _stabilize:
                options.remove(move)
            strands, label = step
            moves.append(label)
        variants.append(
            MarkovVariant(BraidWord(tuple(tokens), strands), tuple(moves))
        )
    return variants
