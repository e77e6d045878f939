"""Braid words, closed-braid combinatorics, and the natural traversal.

A braid word on ``n`` strands is a top-to-bottom sequence of letters, each a
signed generator stored as a plain int: ``i`` crosses the strands in columns
``i`` and ``i+1`` positively, ``-i`` negatively.  ``BraidWord.gaps`` holds
the gaps and :func:`writhe` sums the signs, each read off those ints.  The
closure joins each bottom endpoint ``(k, bottom)`` back to the top endpoint
``(k, top)``.

Conventions fixed here and relied on everywhere else:

* Strand *labels* are the starting columns ``1..n``; the permutation of a word
  sends each label to its strand's ending column.
* The *standard form* of the permutation lists each cycle starting from its
  minimum, with cycles sorted by those minima.  Reading the labels off the
  standard form gives the *return order*; cycle leaders are *pivot* labels.
* *Natural traversal* walks the closed diagram component by component in pivot
  order, starting at the pivot's top endpoint and following the downward
  orientation, jumping through closure arcs at the bottom.  One loop steps
  it: :func:`_violations`.
* Over/under drawing convention: at a positive crossing the strand arriving in
  column ``gap+1`` (from the right) passes over; at a negative crossing the
  strand arriving in column ``gap`` (from the left) passes over.  This is the
  unique choice under which a one-crossing negative 2-braid is descending, the
  closure of a single positive crossing evaluates to 1, and descending
  closures satisfy components - writhe = strands.  An import-time self check
  in the package root asserts the first two.  The walk applies it in one
  place, the first-visit test of :func:`_violations`, from the letter's own
  gap and sign: a letter is reached on its under-arm when the walker arrives
  in the gap column at a positive letter or in the column right of it at a
  negative one.
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
import sys
from functools import cached_property
from typing import Iterator, NamedTuple, Optional, Sequence


class BraidParseError(ValueError):
    """Raised for malformed braid text or an unusable strand count.

    A strand override below what the word needs is unusable, and so is a
    strand count of ``sys.maxsize`` or more, whose per-column tables no list
    can hold.
    """


class CrossingState(enum.Enum):
    """Resolution state of one crossing: kept, sign-flipped, or smoothed."""

    KEPT = "kept"
    FLIPPED = "flipped"
    SMOOTHED = "smoothed"


KEPT = CrossingState.KEPT
FLIPPED = CrossingState.FLIPPED
SMOOTHED = CrossingState.SMOOTHED


class _Frozen:
    """Value identity and immutability, stated once for the value classes.

    A subclass names the fields that make up its value in ``_fields``.  Its
    constructor checks its input and writes those fields, and ``_key``, the
    tuple of their values in that order, straight into the instance
    ``__dict__`` in one ``update`` call.  Two values are equal exactly when
    they are of the same class and their keys are equal; the hash is the
    key's hash, and the repr reads ``Class(field=value, ...)``.  Anything
    else the instance holds (a memo, a cached table) takes no part in any
    of the three.

    Assigning or deleting an attribute raises ``AttributeError``.
    :class:`functools.cached_property` writes to the instance ``__dict__``
    too, so caching a derived table still works on a frozen value.
    """

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key))
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class BraidWord(_Frozen):
    """An ordered braid word plus its strand count.

    ``letters`` are the signed generator tokens: ``k > 0`` crosses gap ``k``
    positively and ``-k`` negatively.  The empty word is legal on any number
    of strands ``1 <= n < sys.maxsize``; a larger count has per-column
    tables that no list can hold.  Two words are equal, and hash equal,
    exactly when their letters and strand counts are.

    ``homfly_memo`` holds this word's HOMFLY polynomials computed so far,
    keyed by engine.  It is filled by :func:`braidpoly.resolver.homfly` (one
    key per tree mode) and :func:`braidpoly.hecke.homfly_hecke` (key
    ``"hecke"``, also on each piece it traces, which is the block object
    itself for each of :attr:`split_blocks` that the trace's front end
    leaves whole), so every caller holding this object shares one
    evaluation per engine.  The memo belongs
    to the instance and takes no part in equality, hashing or the repr: an
    equal word parsed separately evaluates afresh.
    """

    _fields = ("letters", "strands")
    letters: tuple[int, ...]
    strands: int
    homfly_memo: dict

    def __init__(self, letters: tuple[int, ...], strands: int):
        if type(letters) is not tuple:
            raise TypeError(f"letters must be a tuple, got {type(letters).__name__}")
        if type(strands) is not int:
            raise TypeError(f"strand count must be an int, got {strands!r}")
        if strands < 1:
            raise ValueError(f"strand count must be >= 1, got {strands}")
        if strands >= sys.maxsize:
            raise ValueError(f"strand count must be below {sys.maxsize}, got {strands}")
        top = strands - 1
        for pos, t in enumerate(letters):
            if type(t) is not int:
                raise TypeError(f"letter {pos} must be an int, got {t!r}")
            if not 1 <= abs(t) <= top:
                raise ValueError(
                    f"letter {pos} is {t}, but a letter on {strands} strands "
                    f"must be a nonzero generator index of size at most {top}"
                )
        key = (letters, strands)
        self.__dict__.update(letters=letters, strands=strands, _key=key, homfly_memo={})

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
    def column_index(self) -> tuple[dict[int, Optional[int]], ...]:
        """For each column ``1..n``, the successor table of the letters touching it.

        A letter at gap ``g`` occupies columns ``g`` and ``g+1``.
        ``column_index[c][p]`` is the next letter position below ``p`` that
        touches column ``c``, or ``None`` when ``p`` is the column's last;
        key ``-1`` gives the first, so a column that no letter touches maps
        ``-1`` to ``None``.  Built in one pass over the letters.  Entry 0 is
        an unused placeholder so columns index directly.
        """
        after: list[dict[int, Optional[int]]] = [{} for _ in range(self.strands + 1)]
        last = [-1] * (self.strands + 1)  # the last position seen in each column
        for i, g in enumerate(self.gaps):
            after[g][last[g]] = i
            after[g + 1][last[g + 1]] = i
            last[g] = last[g + 1] = i
        for c in range(1, self.strands + 1):
            after[c][last[c]] = None
        return tuple(after)

    @cached_property
    def split_blocks(self) -> tuple[tuple[int, "BraidWord"], ...]:
        """The closure's split blocks as ``(first_strand, block_word)`` pairs.

        A gap that no letter uses splits the closure, and the strand right of
        it starts a block.  The blocks cover strands ``1..n`` in order, each
        cut out by :func:`_cut` and re-indexed to start at gap 1; a strand
        between two empty gaps is a block with the empty word.  A word with
        no empty gap is its own single block, returned as is, so the block
        shares the word's memoized polynomials.
        """
        _, parts = _cut(self.letters, self.strands, 1)
        if len(parts) == 1:
            return ((1, self),)
        return tuple((first, BraidWord(letters, m)) for first, letters, m in parts)


def _cut(
    letters: tuple[int, ...], strands: int, fewer: int
) -> tuple[int, list[tuple[int, tuple[int, ...], int]]]:
    """Cut a word at each gap that holds fewer than ``fewer`` letters.

    Returns ``(empty, parts)``, where ``empty`` counts the cut gaps that hold
    no letter.  ``parts`` lists the runs of strands between the cuts, left to
    right, as ``(first_strand, part_letters, part_strands)``: a part holds
    the word's letters at its gaps, in order, re-indexed to start at gap 1.
    A letter at a cut gap is in no part, and a strand between two cuts is a
    part with no letters.  With no cut, the one part holds ``letters``
    itself.  One pass counts the letters per gap and one deals them out, so
    the cost is linear in the letters and strands.
    """
    counts = [0] * strands  # letters per gap, index 0 unused
    for t in letters:
        counts[abs(t)] += 1
    cuts = [g for g in range(1, strands) if counts[g] < fewer]
    if not cuts:
        return 0, [(1, letters, strands)]
    # the part between the cuts at lo and hi has gaps lo+1..hi-1, on strands lo+1..hi
    bounds = [0, *cuts, strands]
    parts: list[tuple[int, int, list[int]]] = [(lo, hi, []) for lo, hi in zip(bounds, bounds[1:])]
    owner: list = [None] * strands  # (lo, letters so far) of the part of each gap that is not cut
    for lo, hi, dealt in parts:
        owner[lo + 1:hi] = [(lo, dealt)] * (hi - lo - 1)
    for t in letters:
        where = owner[abs(t)]
        if where:
            lo, dealt = where
            dealt.append(t - lo if t > 0 else t + lo)
    return sum(counts[g] == 0 for g in cuts), [(lo + 1, tuple(d), hi - lo) for lo, hi, d in parts]


class ResolvedDiagram(_Frozen):
    """A braid word together with a per-crossing resolution state.

    ``states`` is a tuple of :class:`CrossingState`, one per letter.  Two
    diagrams are equal, and hash equal, exactly when their words and
    states are.
    """

    _fields = ("word", "states")
    word: BraidWord
    states: tuple[CrossingState, ...]

    def __init__(self, word: BraidWord, states: tuple[CrossingState, ...]):
        if type(states) is not tuple:
            raise TypeError(f"states must be a tuple, got {type(states).__name__}")
        if len(states) != len(word):
            raise ValueError(
                f"state vector length {len(states)} does not match "
                f"{len(word)} letters"
            )
        for state in states:
            if type(state) is not CrossingState:
                raise TypeError(f"state {states.index(state)} is not a CrossingState: {state!r}")
        self.__dict__.update(word=word, states=states, _key=(word, states))

    @classmethod
    def all_kept(cls, word: BraidWord) -> "ResolvedDiagram":
        return cls(word, (KEPT,) * len(word))

    def permutation(self) -> "StrandPermutation":
        """Strand permutation with smoothed letters acting as the identity.

        Its standard-form cycles are the strand labels in the order the
        natural traversal starts them, one cycle per closure component,
        collected by :func:`_violations` in :func:`permutation_and_kinds`.
        """
        return permutation_and_kinds(self)[0]


# ---------------------------------------------------------------------------
# Parsing and elementary word statistics
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"-?[1-9][0-9]*")
_SEPARATORS = re.compile(r"[\s,]+")


def parse_braid(text: str, strands: Optional[int] = None) -> BraidWord:
    """Parse whitespace/comma-separated signed generator indices.

    Token ``k > 0`` denotes the positive generator at gap ``k`` and ``k < 0``
    its inverse.  The strand count defaults to ``max |k| + 1`` (1 for the
    empty word); an explicit ``strands`` may only enlarge it, which adds
    unknot closure components.  Either way it must stay below
    ``sys.maxsize``, the length limit of the per-column tables.
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
    strands = needed if strands is None else strands
    if strands >= sys.maxsize:
        raise BraidParseError(f"strand count is too large: at most {sys.maxsize - 1} strands")
    return BraidWord(tuple(values), strands)


def writhe(word: BraidWord) -> int:
    """Sum of the crossing signs, +1 for each positive letter and -1 for each negative one."""
    return sum(1 if t > 0 else -1 for t in word.letters)


def mirror(word: BraidWord) -> BraidWord:
    """The mirror image: every crossing sign negated, strands unchanged."""
    return BraidWord(tuple(-t for t in word.letters), word.strands)


# ---------------------------------------------------------------------------
# Permutation, return order, pivots
# ---------------------------------------------------------------------------


class StrandPermutation(NamedTuple):
    """A strand permutation in standard cycle form.

    Cycles each start at their minimum label and are sorted by those minima,
    so reading the labels left to right gives the return order.
    """

    cycles: tuple[tuple[int, ...], ...]

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.cycles)

    @property
    def return_order(self) -> tuple[int, ...]:
        return tuple(label for cycle in self.cycles for label in cycle)

    def cycle_text(self) -> str:
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in self.cycles)


def permutation(word: BraidWord) -> StrandPermutation:
    return ResolvedDiagram.all_kept(word).permutation()


# ---------------------------------------------------------------------------
# Gap profile and diagram classification
# ---------------------------------------------------------------------------


class GapTally(NamedTuple):
    gap: int
    positive: int
    negative: int
    positions: tuple[int, ...]


def gap_profile(word: BraidWord) -> tuple[GapTally, ...]:
    """Per-gap crossing tallies for gaps ``1..strands-1``, in gap order.

    The tally of gap ``g`` is at index ``g - 1``.
    """
    pos = [0] * word.strands
    neg = [0] * word.strands
    where: list[list[int]] = [[] for _ in range(word.strands)]
    for i, t in enumerate(word.letters):
        if t > 0:
            pos[t] += 1
        else:
            neg[-t] += 1
        where[abs(t)].append(i)
    return tuple(
        GapTally(g, pos[g], neg[g], tuple(where[g]))
        for g in range(1, word.strands)
    )


class DiagramClass(NamedTuple):
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
    one cycle collector: :func:`permutation_and_kinds`, which
    :meth:`ResolvedDiagram.permutation` reads, and the leaves of
    :func:`braidpoly.resolver._literal_leaves` read it.  The list is whole
    only once the walk is exhausted.

    The walk is the natural traversal, and this is the one loop in the
    package that steps it; only the slot-table search of
    :func:`braidpoly.resolver.leaf_search`, the independent engine, walks
    the closure over a table of its own.  Each strand is walked top to
    bottom and the closure arc returns the walker to the top of the column
    it ended in; a smoothed letter keeps the walker in its column and any
    other state swaps it across the gap.  Each step reads the next letter
    down the walker's column from :attr:`BraidWord.column_index`, and a first
    visit tests the arm from the letter's own gap and sign, the drawing
    convention of the module docstring, so a caller resumes one generator
    per violation.

    After yielding a letter the walk reads that letter's state again before
    it moves on.  So a caller that holds ``states`` as a list may resolve the
    letter it was just handed, and the walk goes on as the walk of the
    resolved diagram: a letter is first visited once, so nothing the walk
    has passed depends on it.  That holds only for the yielded letter, and
    only before the walk resumes; a change to any other letter is not
    defined.  :func:`braidpoly.invariants.construct_u_prime` smooths its
    violations this way, and :func:`braidpoly.resolver._literal_leaves`
    flips each one, so the literal tree takes one walk per leaf: the
    flipped child resumes its parent's walk.
    """
    gaps = word.gaps
    letters = word.letters
    after = word.column_index
    seen = [False] * len(gaps)
    visited = [False] * (word.strands + 1)
    for pivot in range(1, word.strands + 1):
        if visited[pivot]:
            continue
        if cycles is not None:
            labels: list[int] = []
            cycles.append(labels)
        col = pivot
        while True:
            visited[col] = True
            if cycles is not None:
                labels.append(col)
            pos = after[col][-1]
            while pos is not None:
                state = states[pos]
                if not seen[pos]:
                    seen[pos] = True
                    # the original under-arm is the gap column's at a positive letter
                    if (((col == gaps[pos]) == (letters[pos] > 0)) == ascending) != (state is KEPT):
                        yield pos
                        state = states[pos]
                if state is not SMOOTHED:
                    col = 2 * gaps[pos] + 1 - col
                pos = after[col][pos]
            if col == pivot:
                break


def permutation_and_kinds(
    diagram: ResolvedDiagram,
) -> tuple[StrandPermutation, tuple[Optional[str], ...]]:
    """The diagram's strand permutation and its :func:`classify_crossings` labels, from one walk."""
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


class MarkovVariant(NamedTuple):
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
