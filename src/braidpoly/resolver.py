"""Descending and ascending resolving trees of a closed braid.

The descending tree of a word is built by repeatedly travelling the diagram
naturally up to the first ascending crossing and splitting there into a
sign-flipped child and a smoothed child, until every leaf is a descending
braid (whose closure is a trivial link).  The ascending tree swaps the roles.

Each leaf contributes one exactly-computable term, and the whole polynomial is

* descending:  ``a^(1-n-w) * sum (-1)^t' z^t ((a^2-1) z^-1)^(gamma-1)``
* ascending:   ``a^(n-1-w) * sum (-1)^t' z^t ((1-a^-2) z^-1)^(gamma-1)``

over the respective leaf sets, where ``t`` counts smoothed crossings, ``t'``
those smoothed crossings that were negative in the original word, ``gamma``
is the leaf's closure component count, ``n`` the strand count and ``w`` the
writhe of the original word.  Both expressions equal the HOMFLY polynomial of
the closure.  Descending leaves satisfy ``gamma - writhe = n`` and ascending
leaves ``gamma + writhe = n``, with the leaf's own writhe (smoothed crossings
left out).

The tree is never materialized.  Flipping a crossing never moves the walker
and neither child changes what the walker has already passed, so both
children share their parent's walk up to the split: a single resumable
search (:func:`leaf_stream`) advances the walk and, at each crossing's first
visit, either keeps the crossing (it already has the requested form) or
branches into the flipped and the smoothed child.  That search is also the admissible
circuit-partition enumeration of :mod:`braidpoly.jaeger`.  It walks a slot
table built once per search, one entry per (letter, column) arrival, and a
next-slot table that records, for each letter already decided on the
current path, where its one arrival still to come continues; passing such a
letter is a single list lookup.  An undo trail resets the entries decided
after a split when the search backtracks to the smoothed child.  A letter is
decided only at its first visit, so a path ends at the first visit of its
last undecided letter: the rest of the closure only passes decided letters
and closes components, and the leaf's ``gamma`` follows from the identity
above and the leaf's writhe, tracked along the path.  On the benchmark's
``ladder`` words that cut the slot lookups per leaf from 18.4 to 3.6.

The step API (:func:`first_violation`, :func:`split_at`) and
:func:`leaf_membership_test` restart the walk at every node instead, as the
definition does: they read the first-visit test
:func:`braidpoly.braid._violations` on :func:`braidpoly.braid.walk`, which
finds each next letter by bisection in :attr:`BraidWord.column_index` and
shares nothing with the slot table.  That walk serves as the reference the
search is checked against, and its leaves get their ``gamma`` by counting
the closure's components in that same walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Literal, Optional

from .braid import (
    FLIPPED,
    KEPT,
    SMOOTHED,
    BraidWord,
    CrossingState,
    ResolvedDiagram,
    _violations,
    writhe,
)
from .polynomial import LaurentPoly2, difference_power

Mode = Literal["descending", "ascending"]

DESCENDING: Mode = "descending"
ASCENDING: Mode = "ascending"


def _ascending(mode: str) -> bool:
    if mode == DESCENDING:
        return False
    if mode == ASCENDING:
        return True
    raise ValueError(f"mode must be 'descending' or 'ascending', got {mode!r}")


def leaf_stream(word: BraidWord, ascending: bool) -> Iterator[tuple[int, int, int, int, int]]:
    """Yield ``(smoothed, flipped, gamma, t, t_neg)`` for every leaf of a tree.

    ``smoothed`` and ``flipped`` are bit masks over letter positions.  The
    search walks the diagram naturally and decides each crossing at its first
    visit: one first reached on its original over-arm (under-arm when
    ``ascending``) is kept; any other is a tree node whose flipped child the
    walk continues with and whose smoothed child is resumed later from a
    snapshot.  Leaves come out in tree order, flipped child first.

    The walker moves over a slot table built once per search from
    :attr:`BraidWord.column_index`.  Slot ``2i + side`` means "arriving at
    letter ``i`` in its left (``side`` 0, column ``gaps[i]``) or right
    (``side`` 1) column"; on ``m`` letters, ``2m + c`` is the bottom of
    column ``c``.  ``below[s]`` is the next slot down the same column and
    ``top[c]`` the first slot of column ``c`` (its bottom when no letter
    touches it).  A smoothed letter continues at ``below[s]``, a kept or
    flipped one crosses the gap and continues at ``below[s ^ 1]``.

    A closed walk arrives at every slot once, so after the first visit to a
    letter at slot ``s`` only the arrival at ``s ^ 1`` is still to come.  The
    next-slot table ``nxt`` holds where that arrival goes: ``below[s]`` for a
    kept or flipped letter, ``below[s ^ 1]`` for a smoothed one.  An entry is
    ``-1`` while its letter is undecided and ``-2`` at a column bottom, so
    passing a decided letter is the one lookup ``s = nxt[s]``.  Every entry
    set is pushed on an undo trail; a smoothed child's snapshot keeps the
    trail length after its split and the slot it must set, and resuming it
    first resets every entry set since to ``-1``.

    Each first visit pushes one trail entry, so the path is a leaf once the
    trail holds one entry per letter, and the search yields it there instead
    of walking the rest of the closure: what is left only passes decided
    letters.  ``gamma`` is not counted but kept as ``n + w`` on the
    descending tree and ``n - w`` on the ascending one, ``w`` the writhe of
    the path's letters: it starts from the word's writhe, a flip moves it by
    twice the letter's sign and a smoothing by once.  The walk still routes
    through column bottoms, since a letter not yet visited may lie on a
    component not yet started.
    """
    n = word.strands
    gaps = word.gaps
    signs = word.signs
    bottom = 2 * len(signs)
    below = [0] * bottom
    top = []
    for c, lst in enumerate(word.column_index):
        s = bottom + c
        for i in reversed(lst):
            slot = 2 * i + (gaps[i] != c)
            below[slot] = s
            s = slot
        top.append(s)
    # per slot: whether a first visit there branches instead of keeping the
    # letter
    branch = [(side == 0) == ((sign > 0) != ascending) for sign in signs for side in (0, 1)]
    # per letter: its sign, negated on the ascending tree, so that a leaf's
    # gamma is n plus the sum of the unsmoothed letters' (flipped: negated)
    # entries
    sigma = [-sign for sign in signs] if ascending else signs
    m = len(signs)
    nxt = [-1] * bottom + [-2] * (n + 1)
    trail: list[int] = []
    # snapshot: (trail length, slot to set, smoothed, flipped, visited
    # columns, slot, pivot, gamma, t, t_neg); bit 0 of ``visited`` is always
    # set so that its lowest clear bit is the next pivot
    stack = []
    smoothed = flipped = t = t_neg = 0
    gamma = n + sum(sigma)
    visited, s, pivot = 3, top[1], 1
    while True:
        # one trail entry per letter decided on this path
        while len(trail) < m:
            while (u := nxt[s]) >= 0:
                s = u
            if u == -1:
                # first visit to letter s >> 1
                o = s ^ 1
                nxt[o] = below[s]
                trail.append(o)
                if branch[s]:
                    i = s >> 1
                    bit = 1 << i
                    stack.append(
                        (len(trail), o, smoothed | bit, flipped, visited, below[s], pivot,
                         gamma - sigma[i], t + 1, t_neg + (signs[i] < 0))
                    )
                    flipped |= bit
                    gamma -= 2 * sigma[i]
                s = below[o]
            elif (col := s - bottom) != pivot:
                # bottom of a column: the next strand of this component
                visited |= 1 << col
                s = top[col]
            else:
                # a component closed: start the next at the lowest unvisited
                # column, which exists while a letter is undecided
                low = ~visited & (visited + 1)
                pivot = low.bit_length() - 1
                visited |= low
                s = top[pivot]
        yield smoothed, flipped, gamma, t, t_neg
        if not stack:
            return
        mark, o, smoothed, flipped, visited, s, pivot, gamma, t, t_neg = stack.pop()
        while len(trail) > mark:
            nxt[trail.pop()] = -1
        nxt[o] = below[o]


@dataclass(frozen=True)
class LeafSummary:
    """Statistics of one resolving-tree leaf.

    ``t`` counts smoothed crossings, ``t_neg`` those that were negative in
    the original word (flips never change ``t_neg``), and ``writhe`` is the
    leaf's own writhe with smoothed crossings excluded.
    """

    states: tuple[CrossingState, ...]
    gamma: int
    t: int
    t_neg: int
    writhe: int

    @property
    def smoothed(self) -> frozenset[int]:
        return frozenset(i for i, st in enumerate(self.states) if st is SMOOTHED)


def first_violation(diagram: ResolvedDiagram, mode: Mode = DESCENDING) -> Optional[int]:
    """Index of the first crossing breaking the requested form, if any.

    Travelling the resolved diagram naturally, the first non-smoothed crossing
    that is ascending (``mode="descending"``) or descending
    (``mode="ascending"``) at its first visit is reported, by
    :func:`braidpoly.braid._violations`; ``None`` means the diagram already
    has the requested form.
    """
    ascending = _ascending(mode)
    for i in _violations(diagram.word, diagram.states, ascending):
        if diagram.states[i] is not SMOOTHED:
            return i
    return None


def split_at(diagram: ResolvedDiagram, i: int) -> tuple[ResolvedDiagram, ResolvedDiagram]:
    """Split at letter ``i``: the flipped child and the smoothed child.

    Flipping toggles kept/flipped; smoothing is terminal, so splitting an
    already-smoothed letter is an error.
    """
    if not 0 <= i < len(diagram.states):
        raise ValueError(f"letter index {i} out of range")
    if diagram.states[i] is SMOOTHED:
        raise ValueError(f"letter {i} is already smoothed and cannot be split")
    toggled = KEPT if diagram.states[i] is FLIPPED else FLIPPED
    return diagram.with_state(i, toggled), diagram.with_state(i, SMOOTHED)


def enumerate_leaves(word: BraidWord, mode: Mode = DESCENDING) -> Iterator[LeafSummary]:
    """Stream every leaf of the descending (or ascending) tree exactly once."""
    ascending = _ascending(mode)
    signs = word.signs
    for smoothed, flipped, gamma, t, t_neg in leaf_stream(word, ascending):
        states = tuple(
            SMOOTHED if (smoothed >> i) & 1 else FLIPPED if (flipped >> i) & 1 else KEPT
            for i in range(len(signs))
        )
        w = sum(
            -s if (flipped >> i) & 1 else s
            for i, s in enumerate(signs)
            if not (smoothed >> i) & 1
        )
        yield LeafSummary(states, gamma, t, t_neg, w)


def leaf_membership_test(
    word: BraidWord,
    states: tuple[CrossingState, ...],
    mode: Mode = DESCENDING,
) -> bool:
    """Decide membership of a resolved diagram in the requested leaf set.

    Travel the candidate naturally and test each letter at its first visit:
    a smoothed letter must be reached on the under-arm of its original
    crossing, a kept or flipped letter on the over-arm of the crossing as it
    stands in the candidate.  Passing all checks is equivalent to being a
    leaf of the descending tree (``mode="ascending"`` swaps both arm tests
    and characterizes ascending-tree leaves).  The test is
    :func:`braidpoly.braid._violations`.
    """
    ascending = _ascending(mode)
    diagram = ResolvedDiagram(word, tuple(states))
    return next(_violations(word, diagram.states, ascending), None) is None


# ---------------------------------------------------------------------------
# Polynomial assembly
# ---------------------------------------------------------------------------


def assemble_tree_sum(
    counts: dict[tuple[int, int], int],
    strands: int,
    total_writhe: int,
    ascending: bool,
) -> LaurentPoly2:
    """Turn signed ``(gamma, t)`` leaf counts into the HOMFLY polynomial.

    ``counts`` maps ``(gamma, t)`` to the signed multiplicity
    ``sum (-1)^t'`` of leaves (or circuit partitions) with those statistics.
    Addition is commutative, so any accumulation order gives identical output.
    Only the powers ``k = gamma - 1`` that occur are expanded, once each.
    """
    prefactor = (strands - 1 - total_writhe) if ascending else (1 - strands - total_writhe)
    powers: dict[int, list[tuple[int, int]]] = {}
    acc: dict[tuple[int, int], int] = {}
    for (gamma, t), mult in counts.items():
        if mult == 0:
            continue
        k = gamma - 1
        terms = powers.get(k)
        if terms is None:
            # ((a^2-1) z^-1)^k = a^k delta^k and ((1-a^-2) z^-1)^k = a^-k delta^k,
            # with delta^k = (a - a^-1)^k z^-k, as (a-degree, coeff) terms
            shift = prefactor - k if ascending else prefactor + k
            terms = powers[k] = [(e + shift, c) for e, c in difference_power(k)]
        for da, c in terms:
            key = (t - k, da)
            v = acc.get(key, 0) + mult * c
            if v:
                acc[key] = v
            else:
                del acc[key]
    return LaurentPoly2(acc)


def homfly(word: BraidWord, mode: Mode = DESCENDING) -> LaurentPoly2:
    """The HOMFLY polynomial of the closure, by the requested tree formula.

    The two modes sum over different leaf sets with different edge weights but
    always agree; the empty word on ``n`` strands gives the trivial-link value
    ``((a - a^-1) z^-1)^(n-1)`` and a single positive crossing closes to the
    unknot with value 1.

    The result is memoized on the word object (:attr:`BraidWord.homfly_memo`),
    so asking the same object again runs no second search; polynomials are
    never mutated in place, which makes sharing them safe.
    """
    ascending = _ascending(mode)
    memo = word.homfly_memo
    poly = memo.get(mode)
    if poly is None:
        counts: dict[tuple[int, int], int] = {}
        for _, _, gamma, t, t_neg in leaf_stream(word, ascending):
            key = (gamma, t)
            counts[key] = counts.get(key, 0) + (-1 if t_neg & 1 else 1)
        poly = memo[mode] = assemble_tree_sum(counts, word.strands, writhe(word), ascending)
    return poly


@dataclass(frozen=True)
class LeafStatistics:
    count: int


def leaf_statistics(word: BraidWord, mode: Mode = DESCENDING) -> LeafStatistics:
    """The number of leaves of the tree."""
    return LeafStatistics(count=sum(1 for _ in leaf_stream(word, _ascending(mode))))
