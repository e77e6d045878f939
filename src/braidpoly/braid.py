"""Braid words, closed-braid combinatorics, and the natural traversal engine.

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
* A crossing is *descending* when the over-strand's label precedes the
  under-strand's label in the return order, *ascending* otherwise.
  Equivalently: the natural traversal first arrives at a descending crossing
  on its over-strand.

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

    @cached_property
    def homfly_memo(self) -> dict:
        """This word's HOMFLY polynomials computed so far, keyed by tree mode.

        Filled by :func:`braidpoly.resolver.homfly`, so every caller holding
        this object shares one evaluation per mode.  The memo belongs to the
        instance: an equal word parsed separately evaluates afresh.
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
        natural traversal starts them, one cycle per closure component.
        """
        cycles: list[tuple[int, ...]] = []
        for i, col, first in walk(self.word, self.states):
            if i < 0:
                cycles.append((col,) if first else cycles.pop() + (col,))
        return StrandPermutation(tuple(cycles))


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
    profile = gap_profile(word)
    reduced = all(t.count != 1 for t in profile.gaps)
    non_split = all(t.count >= 1 for t in profile.gaps)
    leading_sign = 0  # sign the odd gaps would carry, if alternating
    alternating = True
    for t in profile.gaps:
        if t.count == 0:
            continue
        if t.positive and t.negative:
            alternating = False
            break
        sign_here = 1 if t.positive else -1
        odd_sign = sign_here if t.gap % 2 == 1 else -sign_here
        if leading_sign == 0:
            leading_sign = odd_sign
        elif leading_sign != odd_sign:
            alternating = False
            break
    if not alternating:
        leading_sign = 0
    return DiagramClass(
        alternating=alternating,
        positive_leading=alternating and leading_sign == 1,
        negative_leading=alternating and leading_sign == -1,
        reduced=reduced,
        non_split=non_split,
    )


# ---------------------------------------------------------------------------
# Natural traversal
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraversalEvent:
    """One passage of the walker at a letter.

    ``side`` is the arrival column: ``"left"`` for the gap column, ``"right"``
    for gap+1.  ``role`` is the arm the walker arrives on under the letter's
    original sign: the over-arm of a positive crossing arrives from the right,
    of a negative crossing from the left.
    """

    index: int
    ordinal: int
    side: str
    role: str
    state: CrossingState


@dataclass(frozen=True)
class TraversalReport:
    events: tuple[TraversalEvent, ...]
    components: tuple[tuple[int, ...], ...]


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


def natural_traversal(diagram: ResolvedDiagram) -> TraversalReport:
    """Walk the closed resolved diagram naturally and record every passage.

    See :func:`walk` for the route; components list each one's strand labels
    in the order they are walked, which is the diagram's own standard form.
    """
    gaps = diagram.word.gaps
    signs = diagram.word.signs
    events: list[TraversalEvent] = []
    components: list[tuple[int, ...]] = []
    for i, col, first in walk(diagram.word, diagram.states):
        if i < 0:
            components.append((col,) if first else components.pop() + (col,))
            continue
        arrives_under = (col == gaps[i]) == (signs[i] > 0)
        events.append(
            TraversalEvent(
                index=i,
                ordinal=1 if first else 2,
                side="left" if col == gaps[i] else "right",
                role="under" if arrives_under else "over",
                state=diagram.states[i],
            )
        )
    return TraversalReport(tuple(events), tuple(components))


def classify_crossings(diagram: ResolvedDiagram) -> tuple[Optional[str], ...]:
    """Label each non-smoothed letter ``"descending"`` or ``"ascending"``.

    The over- and under-strand labels at each letter are compared in the
    diagram's own return order (computed on the non-smoothed letters).  The
    over-strand is read off the effective sign: positive means the strand
    arriving in the right column passes over.  Smoothed letters get ``None``.
    """
    word = diagram.word
    rank = diagram.permutation().rank
    columns = list(range(word.strands + 1))  # columns[c] = label currently in column c
    out: list[Optional[str]] = []
    for i, g in enumerate(word.gaps):
        left_label, right_label = columns[g], columns[g + 1]
        if diagram.states[i] is SMOOTHED:
            out.append(None)
            continue
        eff = diagram.effective_sign(i)
        over, under = (
            (right_label, left_label) if eff > 0 else (left_label, right_label)
        )
        out.append("descending" if rank[over] < rank[under] else "ascending")
        columns[g], columns[g + 1] = right_label, left_label
    return tuple(out)


# ---------------------------------------------------------------------------
# Markov-move variants (property-test fuel for isotopy invariance)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkovVariant:
    word: BraidWord
    moves: tuple[str, ...]


def _far_commute_sites(tokens: list[int]) -> list[int]:
    return [
        i
        for i in range(len(tokens) - 1)
        if abs(abs(tokens[i]) - abs(tokens[i + 1])) >= 2
    ]


def _braid_relation_sites(tokens: list[int]) -> list[int]:
    sites = []
    for i in range(len(tokens) - 2):
        a, b, c = abs(tokens[i]), abs(tokens[i + 1]), abs(tokens[i + 2])
        if a == c and abs(a - b) == 1:
            e, d, h = (
                1 if tokens[i] > 0 else -1,
                1 if tokens[i + 1] > 0 else -1,
                1 if tokens[i + 2] > 0 else -1,
            )
            # a^e b^d a^h <-> b^h a^d b^e holds except when e == h == -d.
            if not (e == h and d == -e):
                sites.append(i)
    return sites


def _cancel_sites(tokens: list[int]) -> list[int]:
    return [i for i in range(len(tokens) - 1) if tokens[i] == -tokens[i + 1]]


def markov_variants(
    word: BraidWord, seed: int, count: int
) -> list[MarkovVariant]:
    """Deterministic pseudo-random words with the same closure link type.

    Each variant applies one to three moves to the input word, drawn from:
    far commutation of letters whose gaps differ by at least two, sign-aware
    braid-relation rewrites on three adjacent letters, cancellation or
    insertion of an adjacent inverse pair, cyclic rotation (conjugation of the
    closure), and stabilization (append a crossing in a fresh last gap on one
    more strand).  Growth is bounded: at most one insertion and one
    stabilization per variant, so invariance checks stay cheap.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    rng = random.Random(seed)
    variants: list[MarkovVariant] = []
    for _ in range(count):
        tokens = list(word.tokens())
        strands = word.strands
        moves: list[str] = []
        grown = False
        stabilized = False
        for _ in range(rng.randint(1, 3)):
            options = ["rotate", "commute", "braid", "cancel"]
            if not grown:
                options.append("insert")
            if not stabilized:
                options.append("stabilize")
            move = rng.choice(options)
            if move == "commute":
                sites = _far_commute_sites(tokens)
                if not sites:
                    move = "rotate"
                else:
                    i = rng.choice(sites)
                    tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
                    moves.append(f"commute@{i}")
                    continue
            if move == "braid":
                sites = _braid_relation_sites(tokens)
                if not sites:
                    move = "rotate"
                else:
                    i = rng.choice(sites)
                    a, b, c = tokens[i], tokens[i + 1], tokens[i + 2]
                    ga, gb = abs(a), abs(b)
                    e = 1 if a > 0 else -1
                    d = 1 if b > 0 else -1
                    h = 1 if c > 0 else -1
                    tokens[i : i + 3] = [h * gb, d * ga, e * gb]
                    moves.append(f"braid@{i}")
                    continue
            if move == "cancel":
                sites = _cancel_sites(tokens)
                if not sites:
                    move = "rotate"
                else:
                    i = rng.choice(sites)
                    del tokens[i : i + 2]
                    moves.append(f"cancel@{i}")
                    continue
            if move == "insert":
                if strands < 2:
                    move = "rotate"
                else:
                    g = rng.randint(1, strands - 1)
                    s = rng.choice((1, -1))
                    i = rng.randint(0, len(tokens))
                    tokens[i:i] = [g * s, -g * s]
                    grown = True
                    moves.append(f"insert({g * s})@{i}")
                    continue
            if move == "stabilize":
                s = rng.choice((1, -1))
                tokens.append(strands * s)
                strands += 1
                stabilized = True
                moves.append(f"stabilize({'+' if s > 0 else '-'})")
                continue
            # rotate, also the fallback when a chosen move has no site
            k = rng.randint(0, len(tokens)) if tokens else 0
            tokens = tokens[k:] + tokens[:k]
            moves.append(f"rotate({k})")
        variants.append(
            MarkovVariant(BraidWord.from_tokens(tokens, strands), tuple(moves))
        )
    return variants
