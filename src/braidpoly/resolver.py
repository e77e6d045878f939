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
children share their parent's walk up to the split: one search
(:func:`leaf_search`) advances the walk and, at each crossing's first visit,
either keeps the crossing (it already has the requested form) or branches
into the flipped and the smoothed child.  That search is also the admissible
circuit-partition enumeration of :mod:`braidpoly.jaeger`.  It walks a slot
table built once per search, in one pass over the word's letters, one entry
per (letter, column) arrival, and a next-slot table that records, for each
letter already decided on the current path, where its one arrival still to
come continues; passing such a letter is a single list lookup.  An undo
trail resets the entries decided after a split when the search backtracks
to the smoothed child.  A letter is
decided only at its first visit, so a path ends at the first visit of its
last undecided letter: the rest of the closure only passes decided letters
and closes components, and the leaf's ``gamma`` follows from the identity
above and the leaf's writhe, tracked along the path.  On the benchmark's
``ladder`` words that cut the slot lookups per leaf from 18.4 to 3.6.  The
search closes that last decision on the spot, counting its one kept leaf or
its flipped and smoothed leaves with no snapshot, trail entry or undo, and
keeps the signed ``(gamma, t)`` tally :func:`homfly` needs inside its own
loop, carrying one int key for ``(gamma, t)`` and a sign for ``(-1)^t'``
along the path.  Only when its caller passes a sink does it build a record
per leaf, rebuilding the leaf's masks and ``t'`` from its undo trail at the
path's end.  :func:`homfly` passes none and builds no records, and
:func:`leaf_statistics` passes a sink that only counts them, though each is
still built.

The tree expanded by its definition exists once, in :func:`_literal_leaves`:
:func:`enumerate_leaves` streams its leaves, and
:func:`braidpoly.jaeger.verify_bijection` checks the search against them.
That tree, the step API (:func:`first_violation`, :func:`split_at`) and
:func:`leaf_membership_test` all read the first-visit test
:func:`braidpoly.braid._violations`, which walks the closure from the top
over the per-column successor table :attr:`BraidWord.column_index`, built
in :mod:`braidpoly.braid` once per word, and tests each first visit from
the letter's own gap and sign.  The search never reads that table, nor
``gaps``, and the two share no stepping code.
That walk serves as the reference the search is checked against, and its
leaves get their ``gamma`` by counting the closure's components in that
same walk.
"""

from __future__ import annotations

from typing import Iterator, Literal, NamedTuple, Optional, Sequence

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
from .polynomial import LaurentPoly2, _add_shifted, difference_power

Mode = Literal["descending", "ascending"]

DESCENDING: Mode = "descending"
ASCENDING: Mode = "ascending"


def _ascending(mode: str) -> bool:
    if mode == DESCENDING:
        return False
    if mode == ASCENDING:
        return True
    raise ValueError(f"mode must be 'descending' or 'ascending', got {mode!r}")


def leaf_search(
    word: BraidWord, ascending: bool, leaves: Optional[list] = None
) -> dict[tuple[int, int], int]:
    """Signed ``(gamma, t)`` leaf counts of a tree, from one leaf search.

    The result maps ``(gamma, t)`` to ``sum (-1)^t'`` over the tree's leaves,
    which :func:`assemble_tree_sum` turns into the polynomial.  When
    ``leaves`` is given (a list, or a :class:`LeafStatistics`), the record
    ``(smoothed, flipped, gamma, t, t_neg)`` of every leaf is appended to
    it, in tree order (flipped child first); ``smoothed`` and ``flipped``
    are bit masks over letter positions.  The search walks the diagram
    naturally and decides each crossing at its first visit: one first
    reached on its original over-arm (under-arm when ``ascending``) is kept;
    any other is a tree node whose flipped child the walk continues with
    and whose smoothed child is resumed later from a snapshot.

    The walker moves over a slot table built once per search from the
    word's letters.  Slot ``2i + side`` means "arriving at letter ``i`` in
    its left (``side`` 0, column ``|letters[i]|``) or right (``side`` 1)
    column"; on ``m`` letters, ``2m + c`` is the bottom of column ``c``.
    ``below[s]`` is the next slot down the same column and ``top[c]`` the
    first slot of column ``c`` (its bottom when no letter touches it).  One
    pass from the last letter up fills both: each of a letter's two slots
    points at the slot its column held so far, and then the column holds
    that slot.  A smoothed letter continues at ``below[s]``, a kept or
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

    Each first visit but the path's last pushes one trail entry, so the first
    visit made with ``m - 1`` entries on the trail is that of the path's last
    undecided letter.  The search closes that decision on the spot: it
    counts the kept leaf, or the flipped and the smoothed leaf, and
    backtracks, with no trail entry and no snapshot for it.  What is left of
    the closure would only pass decided letters.  ``gamma`` is not counted
    but kept as ``n + w`` on the descending tree and ``n - w`` on the
    ascending one, ``w`` the writhe of the path's letters: it starts from the
    word's writhe, a flip moves it by twice the letter's sign and a
    smoothing by once.  The path carries ``gamma`` and ``t`` as the one int
    ``key = gamma * (m + 1) + t``, and ``(-1)^t'`` as a ``sign`` of +-1; the
    slot table stores, per branching slot, the key's shift to either child
    and the smoothed child's sign factor, so a snapshot holds no more than
    the walk's place, the key and the sign.  The tally is keyed by that int
    and split back into ``(gamma, t)`` once per distinct key when the search
    ends.  The walk still routes through column bottoms, since a letter not
    yet visited may lie on a component not yet started.

    The path keeps no bit masks and no ``t'``.  Only when ``leaves`` is
    given does each path's end rebuild them from the undo trail, whose
    entries are exactly the letters decided on the path: a pass over the
    trail, ``O(m)`` per path, so a sink costs more than the tally alone.
    """
    n = word.strands
    letters = word.letters
    m = len(letters)
    if not m:
        if leaves is not None:
            leaves.append((0, 0, n, 0, 0))
        return {(n, 0): 1}
    bottom = 2 * m
    # signed leaf counts keyed by gamma * stride + t, as 0 <= t < stride
    stride = m + 1
    below = [0] * bottom
    # what each column holds so far, from the last letter up: at the end, the
    # first slot of the column
    top = list(range(bottom, bottom + n + 1))
    # per slot where a first visit branches (a letter's left slot when its
    # sign, negated on the ascending tree, is positive, else its right
    # slot): the key's shift to the flipped child, the shift to the smoothed
    # child and that child's sign factor; ``flip`` is ``None`` where a first
    # visit keeps the letter.  gamma starts at n plus those signs.
    flip: list[Optional[int]] = [None] * bottom
    smooth = [0] * bottom
    turn = [1] * bottom
    gamma = n
    s = bottom
    for g in reversed(letters):
        s -= 2
        if (g > 0) != ascending:
            gamma += 1
            b = s
            flip[b] = -2 * stride
            smooth[b] = 1 - stride
        else:
            gamma -= 1
            b = s + 1
            flip[b] = 2 * stride
            smooth[b] = 1 + stride
        if g < 0:
            turn[b] = -1
            g = -g
        below[s] = top[g]
        below[s + 1] = top[g + 1]
        top[g] = s
        top[g + 1] = s + 1
    nxt = [-1] * bottom + [-2] * (n + 1)
    trail: list[int] = []
    tally: dict[int, int] = {}
    # snapshot: (trail length, slot to set, visited columns, slot, pivot,
    # key, sign); bit 0 of ``visited`` is always set so that its lowest clear
    # bit is the next pivot
    stack = []
    # ``depth`` is the trail's length, kept apart so that the test for a
    # path's last letter is one comparison
    last = m - 1
    depth = 0
    key = gamma * stride
    sign = 1
    visited, s, pivot = 3, top[1], 1
    while True:
        while (u := nxt[s]) >= 0:
            s = u
        if u == -1:
            # first visit to letter s >> 1
            if depth == last:
                # the path's last undecided letter: count its kept leaf, or
                # its flipped and its smoothed leaf, and backtrack
                f = flip[s]
                if f is None:
                    tally[key] = tally.get(key, 0) + sign
                else:
                    k = key + f
                    tally[k] = tally.get(k, 0) + sign
                    k = key + smooth[s]
                    tally[k] = tally.get(k, 0) + sign * turn[s]
                if leaves is not None:
                    _path_records(leaves, letters, trail, nxt, below, flip, smooth, stride, key, s)
                if not stack:
                    return {divmod(k, stride): v for k, v in tally.items()}
                depth, o, visited, s, pivot, key, sign = stack.pop()
                while len(trail) > depth:
                    nxt[trail.pop()] = -1
                nxt[o] = below[o]
                continue
            o = s ^ 1
            nxt[o] = below[s]
            trail.append(o)
            depth += 1
            f = flip[s]
            if f is not None:
                stack.append(
                    (depth, o, visited, below[s], pivot, key + smooth[s], sign * turn[s])
                )
                key += f
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


def _path_records(leaves, letters, trail, nxt, below, flip, smooth, stride, key, s) -> None:
    """Append the records of the leaves that end a path of :func:`leaf_search`.

    Each trail entry ``o`` is the pending slot of a letter decided on the
    path: smoothed when its next-slot entry goes straight down the column
    (``below[o]``), otherwise flipped when its first visit, at ``o ^ 1``,
    branched, and kept when it did not.  The letter first visited at the
    path's last step, at slot ``s``, ends the path with one kept leaf or with
    its flipped and its smoothed leaf, and ``key`` gives the path's
    ``(gamma, t)``.
    """
    smoothed = flipped = t_neg = 0
    for o in trail:
        i = o >> 1
        if nxt[o] == below[o]:
            smoothed |= 1 << i
            t_neg += letters[i] < 0
        elif flip[o ^ 1] is not None:
            flipped |= 1 << i
    f = flip[s]
    if f is None:
        leaves.append((smoothed, flipped, *divmod(key, stride), t_neg))
    else:
        i = s >> 1
        bit = 1 << i
        leaves.append((smoothed, flipped | bit, *divmod(key + f, stride), t_neg))
        leaves.append(
            (smoothed | bit, flipped, *divmod(key + smooth[s], stride), t_neg + (letters[i] < 0))
        )


class LeafSummary(NamedTuple):
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
    states = diagram.states
    if not 0 <= i < len(states):
        raise ValueError(f"letter index {i} out of range")
    if states[i] is SMOOTHED:
        raise ValueError(f"letter {i} is already smoothed and cannot be split")
    toggled, smoothed = _split_states(states, i)
    flipped = (*states[:i], toggled, *states[i + 1 :])
    return ResolvedDiagram(diagram.word, flipped), ResolvedDiagram(diagram.word, smoothed)


def _split_states(
    states: Sequence[CrossingState], i: int
) -> tuple[CrossingState, tuple[CrossingState, ...]]:
    """The flipped child's state for unsmoothed letter ``i``, and the smoothed child's states.

    This is the one tree step: :func:`split_at` wraps it for diagrams, and
    :func:`_literal_leaves` takes each node's children from it.  The flipped
    child differs from its parent at ``i`` alone, so only its state there is
    returned; the literal walk writes it into the list the walk is reading
    and goes on as the flipped child's walk.  ``states`` may be that list;
    the smoothed child is a tuple either way.
    """
    toggled = KEPT if states[i] is FLIPPED else FLIPPED
    return toggled, (*states[:i], SMOOTHED, *states[i + 1 :])


def _literal_leaves(
    word: BraidWord, ascending: bool
) -> Iterator[tuple[list[CrossingState], tuple[int, int, int, int, int], int]]:
    """The leaves of the tree expanded by its definition: states, record and writhe.

    This is the one literal resolving tree, in tree order (flipped child
    first), one walk per leaf.  A run of :func:`braidpoly.braid._violations`
    yields a node's first violation on an unsmoothed letter, as
    :func:`first_violation` finds it; the tree step :func:`_split_states`
    gives that node's children.  The smoothed child's states are pushed, to
    be walked later from the top, and the flipped child's state for that
    letter is written into the list the walk is reading, so the walk goes on
    as the flipped child's walk from the top (a letter is first visited
    once, and nothing the walk has passed depends on it).  So each walk runs
    round the whole closure to one leaf, and the cycles it collected on the
    way give that leaf's gamma: the component count of a complete natural
    traversal of the leaf's own diagram.  A tree of L leaves takes L walks,
    where restarting at every node took 2L - 1.

    Each leaf comes out as its states (a list the generator no longer
    touches), its record ``(smoothed, flipped, gamma, t, t')`` of ints, the
    two sets as bit masks over letter positions, and its writhe ``w``: +1
    for a kept positive or a flipped negative letter, -1 for a kept
    negative or a flipped positive one, 0 for a smoothed one.  Only the
    pending smoothed children are held, at most one per letter, so the
    generator holds O(letters) states and its first leaf comes out after
    one walk.  It reads no table of :func:`leaf_search`.
    """
    letters = word.letters
    stack = [(KEPT,) * len(letters)]
    while stack:
        states = list(stack.pop())
        cycles: list[list[int]] = []
        for i in _violations(word, states, ascending, cycles):
            if states[i] is not SMOOTHED:
                # the walk goes on as the flipped child's while the smoothed
                # child waits, so leaves come out in the search's order
                states[i], child = _split_states(states, i)
                stack.append(child)
        smoothed = flipped = t = t_neg = w = 0
        for j, (state, x) in enumerate(zip(states, letters)):
            if state is SMOOTHED:
                smoothed |= 1 << j
                t += 1
                t_neg += x < 0
                continue
            if state is FLIPPED:
                flipped |= 1 << j
            w += 1 if (x > 0) == (state is KEPT) else -1
        yield states, (smoothed, flipped, len(cycles), t, t_neg), w


def enumerate_leaves(word: BraidWord, mode: Mode = DESCENDING) -> Iterator[LeafSummary]:
    """Yield every leaf of the descending (or ascending) tree exactly once, in tree order.

    The leaves stream from the literal tree, :func:`_literal_leaves`: the
    first comes out after one walk, and only O(letters) states are held.
    """
    for states, (_, _, gamma, t, t_neg), w in _literal_leaves(word, _ascending(mode)):
        yield LeafSummary(tuple(states), gamma, t, t_neg, w)


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
    Addition is commutative, so any accumulation order gives identical output,
    and the entries are read in the order ``counts`` holds them.  Each entry
    reads the row of its ``k = gamma - 1`` from :func:`difference_power`,
    which expands the rows below ``k = 64`` once per process, and the rows
    read are kept for the call, so a wider row is expanded once per distinct
    ``k`` rather than once per entry.  Each row is added, shifted and
    scaled, by :func:`~braidpoly.polynomial._add_shifted`, which stores no
    zero coefficient and only int keys, so the sum becomes the polynomial
    without a second pass over its terms.
    """
    prefactor = (strands - 1 - total_writhe) if ascending else (1 - strands - total_writhe)
    acc: dict[tuple[int, int], int] = {}
    rows: dict[int, tuple[tuple[tuple[int, int], int], ...]] = {}
    for (gamma, t), mult in counts.items():
        if mult == 0:
            continue
        k = gamma - 1
        row = rows.get(k)
        if row is None:
            row = rows[k] = difference_power(k)
        # ((a^2-1) z^-1)^k = a^k delta^k and ((1-a^-2) z^-1)^k = a^-k delta^k,
        # with delta^k = (a - a^-1)^k z^-k: the row of (a - a^-1)^k, shifted
        shift = prefactor - k if ascending else prefactor + k
        _add_shifted(acc, row, t - k, shift, mult)
    return LaurentPoly2._from_clean(acc)


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
        counts = leaf_search(word, ascending)
        poly = memo[mode] = assemble_tree_sum(counts, word.strands, writhe(word), ascending)
    return poly


class LeafStatistics:
    """A ``leaves`` sink for :func:`leaf_search` that keeps only how many records came."""

    count = 0

    def append(self, _record) -> None:
        self.count += 1


def leaf_statistics(word: BraidWord, mode: Mode = DESCENDING) -> LeafStatistics:
    """The number of leaves of the tree (``.count``), counted without holding their records."""
    stats = LeafStatistics()
    leaf_search(word, _ascending(mode), stats)
    return stats
