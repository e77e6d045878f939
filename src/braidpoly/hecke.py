"""HOMFLY polynomials from the Ocneanu trace on the Hecke algebra.

A braid word on ``n`` strands is read as an element of the Hecke algebra
``H_n``, whose generators satisfy, in this package's skein convention
``a*P(+) - a^-1*P(-) = z*P(0)``, ``g^2 = a^-1*z*g + a^-2``.  The trace
multiplies in the unit-normalized generators ``G = a*g`` instead, for which

* ``G^2 = z*G + 1`` and ``G^-1 = G - z``,

so a word of writhe ``w`` is ``a^-w`` times the same word in ``G``, and no
letter moves the ``a``-degree.  The basis elements ``T_pi``, products of
``G`` along a reduced word of the permutation ``pi`` (in one-line
notation), are multiplied on the right by a letter at gap ``i`` by
swapping positions ``i`` and ``i+1`` of ``pi``: ``T_pi * G = T_(pi s)`` when
that raises the length, and ``T_(pi s) + z*T_pi`` when it lowers it;
``T_pi * G^-1 = T_(pi s) - z*T_pi`` when the swap raises the length, and
``T_(pi s)`` when it lowers it.  So each coefficient moves unchanged, and a
copy shifted by ``z^+-1`` may stay.

The polynomial of the closure is the Ocneanu trace of the word, normalized by
``tr(1_n) = delta^(n-1)`` with ``delta = (a - a^-1) z^-1`` and the Markov
property ``tr(x g_(n-1) y) = tr_(n-1)(x y)`` for ``x, y`` in ``H_(n-1)``.
The trace is taken one strand at a time, through the conditional
expectation ``E: H_m -> H_(m-1)`` with ``tr_m = tr_(m-1) E``: a basis element
that fixes the last strand maps to ``delta = a * z^-1 (1 - x)``, with ``x =
a^-2``, times its restriction, and any other one is ``T_pi = T_rest G_(m-1)
G_(m-2) ... G_j`` with ``rest`` the permutation with its largest entry
removed and ``j`` that entry's position, so it maps to ``a * T_rest G_(m-2)
... G_j``.
Equal permutations merge at every level.  Each strand traced out brings one
factor ``a``, ``m - 1`` of them for a piece of ``m`` strands, so the
piece's polynomial is ``a^((m-1)-w)`` times a trace in which ``a`` enters
only as ``x``, at degrees below ``x^m``.

So each coefficient of the element maps a ``z``-degree to one int that holds
its polynomial in ``x`` as signed digits in base ``2^W``: the trace-out of
a fixed strand, ``z^-1 (1 - x)``, is ``v - (v << W)`` on a packed value
``v``, and every other step adds or negates whole values.  The digit width
``W = letters + sum over k = 2..m of max(k - 2, 1) + 2`` makes this exact.
The sum of the absolute values of all the element's coefficients starts at
1; a letter at most doubles it, and tracing out a strand of width ``k`` at
most multiplies it by ``2^max(k - 2, 1)`` (2 for ``1 - x``, and at most
``k - 2`` letters ``G``).  So every digit stays below ``2^(W-2)`` in
absolute value at every step: a value is 0 only when its polynomial is,
and the decode at the end of :func:`_block_trace` reads every digit back.
A value is at most ``m*W`` bits long.  These sums, over int ``z``-keys, are
the package's one exact sum outside :func:`~braidpoly.polynomial._add_shifted`.

``E`` is a map of ``H_(m-1)``-bimodules, ``E(h y) = E(h) y`` for ``y`` in
``H_(m-1)``, so ``tr_m(h y) = tr_(m-1)(E(h) y)``: once no remaining letter
uses the top gap, the top strand is traced out there and then, and the rest
of the word is multiplied in at one strand fewer.  The element then keeps
only the permutations of the strands that the rest of the word still
touches; ``sigma_1^2 sigma_2^2 ... sigma_(n-1)^2`` never holds more than two.
Letters at gaps at least 2 apart commute, so a word fixes only its heap of
pieces (P. Cartier and D. Foata, LNM 85 (1969)): every order that keeps each
pair of letters within one gap of each other as the word has them is the
same braid.  :func:`_schedule` multiplies in the letters top gap first,
which lets go of the top strands soonest: at no step is another such order
wider.  The closure, and with it the trace, is also the same under the flip
``sigma_i -> sigma_(n-i)`` (conjugation by the half twist), so the one pass
that schedules a block schedules its flip too, and the schedule whose
widths sum less is traced.  The cost is polynomial in the number of letters
for a fixed strand count and grows with ``n!`` otherwise.

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
reaches, up to ``m!`` of them.  ``T_pi * G^-1`` splits in two whenever the
swap raises the length, and ``T_pi * G`` only when it lowers it, so from
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
from typing import Iterator, Sequence

from .braid import BraidWord, _cut, writhe
from .polynomial import LaurentPoly2, difference_power

HECKE = "hecke"

# z-degree -> the polynomial in x = a^-2 of that z-degree, packed as the module docstring says
Coeff = dict[int, int]
Element = dict[tuple[int, ...], Coeff]


def _merge(out: Element, perm: tuple[int, ...], coeff: Coeff) -> None:
    """``out[perm] += coeff``, deleting each z-degree, and the permutation, that cancels.

    An absent permutation takes ``coeff`` as it is, so callers pass only
    coefficients of an element they discard afterwards.
    """
    target = out.get(perm)
    if target is None:
        out[perm] = coeff
        return
    for z, v in coeff.items():
        s = target.get(z)
        if s is None:
            target[z] = v
        else:
            s += v
            if s:
                target[z] = s
            else:
                del target[z]
    if not target:
        del out[perm]


def _times(elem: Element, t: int) -> Element:
    """Right-multiply ``elem`` by ``G_|t|`` when ``t > 0``, by its inverse when ``t < 0``.

    One rule for every letter: each coefficient moves, unchanged, to the
    permutation with positions ``|t| - 1`` and ``|t|`` swapped, and where
    the swap lowers the length (for ``G``) or raises it (for ``G^-1``),
    ``+z`` (``-z``) times the coefficient also stays where it was.
    The result shares coefficient objects with ``elem``, so callers pass
    only an element they discard afterwards; a permutation whose
    coefficient cancels is dropped.
    """
    i = abs(t) - 1
    up = t > 0
    out: Element = {}
    for perm, coeff in elem.items():
        left, right = perm[i], perm[i + 1]
        swapped = perm[:i] + (right, left) + perm[i + 2:]
        if (left < right) == up:
            if swapped not in elem:  # else ``swapped`` stays and its visit fills both
                out[swapped] = coeff
            continue
        out[swapped] = coeff
        out[perm] = {z + 1: (v if up else -v) for z, v in coeff.items()}
        moved = elem.get(swapped)
        if moved is not None:
            _merge(out, perm, moved)
    return out


def _restrict(elem: Element, m: int, width: int) -> Element:
    """An element of ``H_(m-1)`` whose trace is ``a^-1`` times that of ``elem`` in ``H_m``.

    The factor ``a`` that tracing out a strand always brings is left to
    :func:`_block_trace`.  A fixed top strand leaves ``delta / a = z^-1 (1 -
    x)``, which on a packed value is ``v - (v << width)``; any other
    permutation leaves ``T_rest G_(m-2) ... G_(p+1)``.
    """
    top = m - 1
    out: Element = {}
    by_position: dict[int, Element] = {}
    for perm, coeff in elem.items():
        p = perm.index(top)
        rest = perm[:p] + perm[p + 1:]
        if p == top:
            out[rest] = {z - 1: v - (v << width) for z, v in coeff.items()}
        else:
            by_position.setdefault(p, {})[rest] = coeff
    for p, part in by_position.items():
        # T_rest * G_(m-2) ... G_(p+1), with the largest entry at 0-based position p
        for gap in range(m - 2, p, -1):
            part = _times(part, gap)
        for perm, coeff in part.items():
            _merge(out, perm, coeff)
    return out


def _unpacked(v: int, width: int) -> Iterator[tuple[int, int]]:
    """``(k, d)`` for each nonzero ``d x^k`` of a value packed in signed ``width``-bit digits.

    The digit ``d`` is the one of ``[-2^(width-1), 2^(width-1))`` that
    matches ``v`` modulo ``2^width``; it is exact when every digit lies
    strictly inside that range.
    """
    half = 1 << (width - 1)
    mask = (half << 1) - 1
    k = 0
    while v:
        d = ((v + half) & mask) - half
        if d:
            yield k, d
        v = (v - d) >> width
        k += 1


def _delta_power(k: int) -> LaurentPoly2:
    """``delta^k = (a - a^-1)^k z^-k``, expanded term by term.

    ``LaurentPoly2.__pow__`` gives the same value by repeated squaring of ever
    longer polynomials: about 0.6 s at ``k = 999``, which ``analyze 1
    --strands 1000`` needs, where this takes milliseconds.
    """
    return LaurentPoly2._from_clean({(-k, e): c for (_, e), c in difference_power(k)})


def _schedule(letters: Sequence[int], m: int) -> tuple[list[int], list[int]]:
    """The letters top gap first, and the live width at which each is multiplied in.

    Letters at gaps at least 2 apart commute, so any order that keeps each
    pair within one gap of each other as the word has them is the same
    braid.  One pass from the last letter keys each letter by the highest
    gap it must stay before: its own, and the keys of the nearest later
    letters at its gap and the two next to it.  A stable sort by key,
    highest first, is such an order, and at no step is another one wider.
    A letter's live width, the strands it and the letters after it touch,
    is its key plus 1; one more width, 1, closes the list: after the last
    letter every strand is traced out.

    The flip ``sigma_i -> sigma_(m-i)`` is a conjugate of the same closure,
    and under it the highest gap a letter must stay before is ``m`` less the
    lowest one in the word, so the same pass keys each letter both ways.
    When the flip's keys sum less, its letters, each sign kept, are the ones
    ordered; a tie keeps the word as it stands.
    """
    reach = [0] * (m + 1)  # reach[g]: the key of the nearest later letter at gap g
    low = [m] * (m + 1)  # low[g]: the lowest gap the same letter must stay before
    keys, flips = [], []
    for t in reversed(letters):
        g = abs(t)
        reach[g] = key = max(g, reach[g - 1], reach[g], reach[g + 1])
        low[g] = bottom = min(g, low[g - 1], low[g], low[g + 1])
        keys.append(key)
        flips.append(m - bottom)
    if sum(flips) < sum(keys):
        letters = [m - t if t > 0 else -m - t for t in letters]
        keys = flips
    keys.reverse()
    order = sorted(range(len(letters)), key=keys.__getitem__, reverse=True)
    return [letters[k] for k in order], [keys[k] + 1 for k in order] + [1]


def _block_trace(core: BraidWord) -> LaurentPoly2:
    """The trace of a word whose letters use every gap.

    A word of negative writhe is traced as its mirror image, every letter
    negated, and the result mirrored back.  The letters are multiplied in
    the order of :func:`_schedule`, the word's or its flip's, and the top
    strand is traced out by :func:`_restrict` as soon as no remaining
    letter touches it: ``E`` commutes with right multiplication by the rest
    of the word, which lives in the smaller algebra, so the trace is the
    same as tracing out at the end.  The word is multiplied in as ``G = a
    g`` letters, so the polynomial is ``a^((m - 1) - w)`` times the decoded
    trace, ``w`` the writhe that is traced.
    """
    w = writhe(core)
    m = core.strands
    letters, widths = _schedule(core.letters if w >= 0 else [-t for t in core.letters], m)
    # every digit stays below 2^(width - 2): the module docstring gives the bound
    width = len(letters) + sum(max(k - 2, 1) for k in range(2, m + 1)) + 2
    shift = m - 1 - abs(w)
    elem: Element = {tuple(range(m)): {0: 1}}
    for k, live in enumerate(widths):
        for level in range(m, live, -1):
            elem = _restrict(elem, level, width)
        m = live
        if k < len(letters):
            elem = _times(elem, letters[k])
    poly = LaurentPoly2._from_clean({
        (z, shift - 2 * k): d
        for z, v in elem.get((0,), {}).items()
        for k, d in _unpacked(v, width)
    })
    return poly.mirrored() if w < 0 else poly


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
