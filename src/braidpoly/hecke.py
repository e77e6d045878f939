"""HOMFLY polynomials from the Ocneanu trace on the Hecke algebra.

A braid word on ``n`` strands is read as an element of the Hecke algebra
``H_n``, whose basis elements ``T_pi`` are indexed by permutations ``pi`` (in
one-line notation) and whose generators satisfy, in this package's skein
convention ``a*P(+) - a^-1*P(-) = z*P(0)``,

* ``g^2 = a^-1*z*g + a^-2`` and ``g^-1 = a^2*g - a*z``.

Right multiplication by a letter at gap ``i`` swaps positions ``i`` and
``i+1`` of ``pi``: ``T_pi * g = T_(pi s)`` when that raises the length, and
``a^-1*z*T_pi + a^-2*T_(pi s)`` when it lowers it; ``T_pi * g^-1 =
a^2*T_(pi s) - a*z*T_pi`` when the swap raises the length, and ``T_(pi s)``
when it lowers it.  Every coefficient update is a monomial shift.

The polynomial of the closure is the Ocneanu trace of the word, normalized by
``tr(1_n) = delta^(n-1)`` with ``delta = (a - a^-1) z^-1`` and the Markov
property ``tr(x g_(n-1) y) = tr_(n-1)(x y)`` for ``x, y`` in ``H_(n-1)``.
The trace is taken one strand at a time, through the conditional
expectation ``E: H_m -> H_(m-1)`` with ``tr_m = tr_(m-1) E``: a basis element
that fixes the last strand maps to ``delta`` times its restriction, and any
other one is ``T_pi = T_x g_(m-1) g_(m-2) ... g_j`` with ``x`` the
permutation with its largest entry removed and ``j`` that entry's position,
so it maps to ``T_x g_(m-2) ... g_j``.  Equal permutations merge at every
level.

``E`` is a map of ``H_(m-1)``-bimodules, ``E(h y) = E(h) y`` for ``y`` in
``H_(m-1)``, so ``tr_m(h y) = tr_(m-1)(E(h) y)``: once no remaining letter
uses the top gap, the top strand is traced out there and then, and the rest
of the word is multiplied in at one strand fewer.  The element then keeps
only the permutations of the strands that the rest of the word still
touches; ``sigma_1^2 sigma_2^2 ... sigma_(n-1)^2`` never holds more than two.
The closure, and with it the trace, is the same for every rotation of the
word (a conjugation) and under the flip ``sigma_i -> sigma_(n-i)``
(conjugation by the half twist), so a block of more than three strands is
first turned to whichever of a few such orders lets go of its strands
soonest.  The cost is polynomial in the number of letters for a fixed strand
count and grows with ``n!`` otherwise.

A gap that no letter uses splits the closure into the word's
:attr:`~braidpoly.braid.BraidWord.split_blocks`: maximal runs of used gaps,
and free strands, each with polynomial 1.  The split union of ``k`` blocks
is ``delta^(k-1)`` times the product of their polynomials.  Before it is
traced, each block is cut into smaller words by :func:`_pieces`, the one
loop from a word to the pieces the trace is handed, with exact steps that
keep its polynomial:

* *Cancel.*  Letters at gaps at least 2 apart commute, so ``sigma_g^e`` and
  a later ``sigma_g^-e`` cancel when no letter at gap ``g`` or ``g +- 1``
  stands between them (a free reduction in the trace monoid, made in one
  pass with a stack of live letters per gap).  The closure is the same for
  every conjugate, so a gap's first and last letters cancel too when they
  are inverse and no letter at ``g +- 1`` comes before the first or after
  the last.
* *Cut.*  A gap that holds no letter splits the closure: a factor
  ``delta``.  A gap that holds one letter joins the closures of the letters
  left of it and of those right of it by a connected sum, whose polynomial
  is the product of theirs (Birman and Menasco, Invent. Math. 102 (1990)):
  those two sets of letters commute, so the word is conjugate to the letter
  times the one set times the other.  At an end gap that is a Markov
  destabilization; ``sigma_1 sigma_2 ... sigma_(n-1)`` is cut to nothing.

Both cuts, and the split into blocks, are one rule, written once in
:func:`~braidpoly.braid._cut`: cut at each gap that holds fewer than
``fewer`` letters (1 for the blocks, 2 here), re-index each part to start
at gap 1, and count the empty cut gaps.  Each word a cut leaves is
cancelled and cut again until nothing changes, and what remains is traced,
each piece's trace memoized on the piece.  Cancelling is skipped when no gap holds
letters of both signs, as in every reduced alternating word.

A piece keeps one coefficient per permutation of its strands that the word
reaches, up to ``m!`` of them.  ``T_pi * g^-1`` splits in two whenever the
swap raises the length, and ``T_pi * g`` only when it lowers it, so from
``T_id`` every fresh negative letter branches and a fresh positive one does
not: a piece whose writhe is negative is traced as its mirror image, and
that polynomial is mirrored back.

References: V. F. R. Jones, "Hecke algebra representations of braid groups
and link polynomials", Ann. Math. 126 (1987); H. R. Morton and H. B. Short,
"Calculating the 2-variable polynomial for knots presented as closed braids",
J. Algorithms 11 (1990).
"""

from __future__ import annotations

from collections import deque
from operator import neg
from typing import Sequence

from .braid import BraidWord, _cut, mirror, writhe
from .polynomial import LaurentPoly2, _add_shifted, difference_power

HECKE = "hecke"

# The widest block traced with its letters as they stand: on the ``analyze``
# benchmark's 3-strand blocks, choosing a rotation cost more than it saved.
_AS_THEY_STAND = 3

Coeff = dict[tuple[int, int], int]  # (z-degree, a-degree) -> coefficient


def _add(out: dict[tuple[int, ...], Coeff], perm: tuple[int, ...], coeff: Coeff,
         dz: int = 0, da: int = 0, sign: int = 1) -> None:
    """``out[perm] += sign * z^dz * a^da * coeff``.

    An unshifted ``coeff`` may be stored as it is, so callers pass only
    coefficients of an element they discard afterwards.  A fresh permutation
    takes ``coeff`` or a shifted copy of it; a present one adds it through
    the package's one term-map sum (:func:`~braidpoly.polynomial._add_shifted`),
    and a permutation whose coefficient cancels is dropped, so no later step
    carries it.
    """
    target = out.get(perm)
    if target is None:
        if dz or da or sign != 1:
            coeff = {(z + dz, a + da): sign * c for (z, a), c in coeff.items()}
        out[perm] = coeff
        return
    _add_shifted(target, coeff.items(), dz, da, sign)
    if not target:
        del out[perm]


def _times(elem: dict[tuple[int, ...], Coeff], t: int) -> dict[tuple[int, ...], Coeff]:
    """Right-multiply ``elem`` by the generator ``t`` (its inverse when ``t < 0``)."""
    i = abs(t) - 1
    out: dict[tuple[int, ...], Coeff] = {}
    for perm, coeff in elem.items():
        swapped = perm[:i] + (perm[i + 1], perm[i]) + perm[i + 2:]
        if (perm[i] < perm[i + 1]) == (t > 0):
            _add(out, swapped, coeff)
        elif t > 0:
            _add(out, perm, coeff, 1, -1)
            _add(out, swapped, coeff, 0, -2)
        else:
            _add(out, swapped, coeff, 0, 2)
            _add(out, perm, coeff, 1, 1, -1)
    return out


def _restrict(elem: dict[tuple[int, ...], Coeff], m: int) -> dict[tuple[int, ...], Coeff]:
    """An element of ``H_(m-1)`` with the same trace as ``elem`` in ``H_m``."""
    top = m - 1
    out: dict[tuple[int, ...], Coeff] = {}
    by_position: dict[int, dict[tuple[int, ...], Coeff]] = {}
    for perm, coeff in elem.items():
        p = perm.index(top)
        rest = perm[:p] + perm[p + 1:]
        if p == top:  # delta * T_rest, with delta = a*z^-1 - a^-1*z^-1
            _add(out, rest, coeff, -1, 1)
            _add(out, rest, coeff, -1, -1, -1)
        else:
            _add(by_position.setdefault(p, {}), rest, coeff)
    for p, part in by_position.items():
        # T_x * g_(m-2) ... g_(p+1), with the largest entry at 0-based position p
        for gap in range(m - 2, p, -1):
            part = _times(part, gap)
        for perm, coeff in part.items():
            _add(out, perm, coeff)
    return out


def _delta_power(k: int) -> LaurentPoly2:
    """``delta^k = (a - a^-1)^k z^-k``, expanded term by term.

    ``LaurentPoly2.__pow__`` gives the same value by repeated squaring of ever
    longer polynomials: about 0.6 s at ``k = 999``, which ``analyze 1
    --strands 1000`` needs, where this takes milliseconds.
    """
    return LaurentPoly2._from_clean({(-k, e): c for (_, e), c in difference_power(k)})


def _live_widths(letters: Sequence[int]) -> list[int]:
    """For each letter, the strands that it and the letters after it touch.

    That is one more than the largest gap among them, and it is the width at
    which the trace multiplies the letter in.  One more entry, 1, closes the
    list: after the last letter every strand is traced out.
    """
    widths = [1] * (len(letters) + 1)
    for k in range(len(letters) - 1, -1, -1):
        widths[k] = max(widths[k + 1], abs(letters[k]) + 1)
    return widths


def _finishing_rotation(letters: Sequence[int], gap: int) -> int:
    """The start of the shortest cyclic window that holds every letter at ``gap``."""
    where = [k for k, t in enumerate(letters) if abs(t) == gap]
    # it starts at the letter that ends the longest cyclic run without one
    j = max(range(len(where)), key=lambda j: (where[j] - where[j - 1]) % len(letters))
    return where[j]


def _cheapest_order(core: BraidWord) -> Sequence[int]:
    """A conjugate of the letters, maybe flipped, whose top gaps finish early.

    The candidates are the word as it stands and the rotation that starts
    the shortest cyclic window holding every top-gap letter, each also under
    the flip ``sigma_i -> sigma_(m-i)``.  The one whose live widths
    (:func:`_live_widths`) sum least wins; ties keep the earlier candidate.
    """
    m = core.strands
    letters = core.letters
    flipped = tuple(m - t if t > 0 else -m - t for t in letters)
    candidates = []
    for order in (letters, flipped):
        k = _finishing_rotation(order, m - 1)
        candidates += [order, order[k:] + order[:k]]
    return min(candidates, key=lambda order: sum(_live_widths(order)))


def _block_trace(core: BraidWord) -> LaurentPoly2:
    """The trace of a word whose letters use every gap.

    A word of negative writhe is traced as its mirror image, and the result
    mirrored back.  The top strand is traced out by :func:`_restrict` as
    soon as no remaining letter touches it: ``E`` commutes with right
    multiplication by the rest of the word, which lives in the smaller
    algebra, so the trace is the same as tracing out at the end.  A block of
    more than ``_AS_THEY_STAND`` strands is first put in
    :func:`_cheapest_order`, a conjugate of the same closure.
    """
    mirrored = writhe(core) < 0
    if mirrored:
        core = mirror(core)
    m = core.strands
    letters = _cheapest_order(core) if m > _AS_THEY_STAND else core.letters
    elem = {tuple(range(m)): {(0, 0): 1}}
    for k, width in enumerate(_live_widths(letters)):
        for level in range(m, width, -1):
            elem = _restrict(elem, level)
        m = width
        if k < len(letters):
            elem = _times(elem, letters[k])
    poly = LaurentPoly2(elem.get((0,), {}))
    return poly.mirrored() if mirrored else poly


def _cancelled(letters: tuple[int, ...], strands: int) -> tuple[int, ...]:
    """The letters left once every cancelling pair is dropped, read cyclically.

    One pass keeps a stack of the live letters' positions per gap.  A letter
    cancels the top of its gap's stack when that letter is its inverse and
    the stacks of gaps ``g +- 1`` hold nothing after it.  Then, while a
    gap's first and last live letters are inverse and no live letter at
    ``g +- 1`` comes before the first or after the last, both are dropped.
    The letters left are those the stacks hold.  Cancelling them again
    drops nothing.
    """
    stacks = [deque() for _ in range(strands + 2)]  # 0, ``strands`` and ``strands + 1`` stay empty
    for k, t in enumerate(letters):
        g = abs(t)
        stack = stacks[g]
        if stack and letters[stack[-1]] == -t:
            top = stack[-1]
            below, above = stacks[g - 1], stacks[g + 1]
            if not (below and below[-1] > top) and not (above and above[-1] > top):
                stack.pop()
                continue
        stack.append(k)
    todo = list(range(1, strands))  # the gaps to look at; a cancelled pair frees its neighbours
    while todo:
        g = todo.pop()
        stack, below, above = stacks[g], stacks[g - 1], stacks[g + 1]
        while (
            len(stack) >= 2
            and letters[stack[0]] == -letters[stack[-1]]
            and not (below and (below[0] < stack[0] or below[-1] > stack[-1]))
            and not (above and (above[0] < stack[0] or above[-1] > stack[-1]))
        ):
            stack.popleft()
            stack.pop()
            todo += (g - 1, g + 1)
    live = sorted(k for stack in stacks for k in stack)
    if len(live) == len(letters):
        return letters
    return tuple(letters[k] for k in live)


def _pieces(word: BraidWord) -> tuple[int, list[BraidWord]]:
    """``(k, pieces)`` with ``P(word) = delta^k`` times the pieces' polynomials.

    The one loop from a word to what the trace is handed.  It starts from
    the word's :attr:`~braidpoly.braid.BraidWord.split_blocks`, ``len - 1``
    factors ``delta``, and takes each block with letters, and each word a
    cut leaves, through one round: cancel (:func:`_cancelled`; skipped when
    no gap holds letters of both signs, as in every reduced alternating
    word), then cut at each gap that holds fewer than two letters
    (:func:`~braidpoly.braid._cut`).  A gap with no letter adds a factor
    ``delta``, one with a single letter drops that letter, and the words
    between the cuts go round again, each holding a letter, so two strands
    or more; a word that neither step changes is a piece.  A block that
    neither step changes is its own piece, as the same object.
    """
    blocks = word.split_blocks
    splits = len(blocks) - 1
    pieces = []
    todo = [block for _, block in blocks if block.letters]  # a free strand's polynomial is 1
    while todo:
        piece = todo.pop()
        letters, m = piece.letters, piece.strands
        held = set(letters)
        if not held.isdisjoint(map(neg, held)):
            letters = _cancelled(letters, m)
        empty, parts = _cut(letters, m, 2)
        if len(parts) == 1:
            pieces.append(piece if letters is piece.letters else BraidWord(letters, m))
        else:
            splits += empty
            todo += [BraidWord(part, n) for _, part, n in parts if part]
    return splits, pieces


def homfly_hecke(word: BraidWord) -> LaurentPoly2:
    """The HOMFLY polynomial of the closure by the Hecke-algebra trace.

    ``delta^k`` times the traces of the word's :func:`_pieces`, each taken
    by :func:`_block_trace`.  Memoized on the word object
    (:attr:`BraidWord.homfly_memo`) under its own key, and each piece's
    trace on the piece, so each object is traced at most once: a split
    block that cancelling and cutting leave whole is its own piece, and a
    later call on that block, such as the certificate's, reads its memo.
    """
    memo = word.homfly_memo
    poly = memo.get(HECKE)
    if poly is None:
        splits, pieces = _pieces(word)
        traces = []
        for piece in pieces:
            if HECKE not in piece.homfly_memo:
                piece.homfly_memo[HECKE] = _block_trace(piece)
            traces.append(piece.homfly_memo[HECKE])
        # one piece and no split is the common case: no product with 1
        poly = traces.pop() if traces and not splits else _delta_power(splits)
        for trace in traces:
            poly = poly * trace
        memo[HECKE] = poly
    return poly
