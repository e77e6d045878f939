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
each traced on its own strands and memoized on the block word, and free
strands, each with polynomial 1.  The split union of ``k`` blocks is
``delta^(k-1)`` times the product of their polynomials.  Before it is
traced, each block sheds every end gap that holds a single letter, by
conjugation and Markov destabilization
(:attr:`~braidpoly.braid.BraidWord.destabilized`), which keeps its
link and its polynomial; ``sigma_1 sigma_2 ... sigma_(n-1)`` sheds them all.
A block keeps one coefficient per permutation of its strands that the word
reaches, up to ``m!`` of them.  ``T_pi * g^-1`` splits in two whenever the
swap raises the length, and ``T_pi * g`` only when it lowers it, so from
``T_id`` every fresh negative letter branches and a fresh positive one does
not: a block whose writhe is negative is traced as its mirror image, and
that polynomial is mirrored back.

References: V. F. R. Jones, "Hecke algebra representations of braid groups
and link polynomials", Ann. Math. 126 (1987); H. R. Morton and H. B. Short,
"Calculating the 2-variable polynomial for knots presented as closed braids",
J. Algorithms 11 (1990).
"""

from __future__ import annotations

from typing import Sequence

from .braid import BraidWord, mirror, writhe
from .polynomial import LaurentPoly2, difference_power

HECKE = "hecke"

# The widest block traced with its letters as they stand: on the ``analyze``
# benchmark's 3-strand blocks, choosing a rotation cost more than it saved.
_AS_THEY_STAND = 3

Coeff = dict[tuple[int, int], int]  # (z-degree, a-degree) -> coefficient


def _add(out: dict[tuple[int, ...], Coeff], perm: tuple[int, ...], coeff: Coeff,
         dz: int = 0, da: int = 0, sign: int = 1) -> None:
    """``out[perm] += sign * z^dz * a^da * coeff``.

    An unshifted ``coeff`` may be stored as it is, so callers pass only
    coefficients of an element they discard afterwards.
    """
    target = out.get(perm)
    if target is None:
        if dz or da or sign != 1:
            coeff = {(z + dz, a + da): sign * c for (z, a), c in coeff.items()}
        out[perm] = coeff
        return
    for (z, a), c in coeff.items():
        key = (z + dz, a + da)
        v = target.get(key, 0) + sign * c
        if v:
            target[key] = v
        else:
            del target[key]


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
    return LaurentPoly2({(-k, e): c for e, c in difference_power(k)})


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


def hecke_trace(word: BraidWord) -> LaurentPoly2:
    """The HOMFLY polynomial of the closure, computed afresh by the trace.

    A word of ``k`` split blocks, free strands included, gives
    ``delta^(k-1)`` times the product of the blocks' polynomials, each
    traced on its destabilized block and memoized on the block word as
    :func:`homfly_hecke` does.
    """
    blocks = word.split_blocks
    if len(blocks) == 1:
        return _block_trace(word.destabilized)
    poly = LaurentPoly2.one()
    for _, block in blocks:
        if block.letters:  # a free strand's polynomial is 1
            memo = block.homfly_memo
            if HECKE not in memo:
                memo[HECKE] = _block_trace(block.destabilized)
            poly = poly * memo[HECKE]
    return poly * _delta_power(len(blocks) - 1)


def homfly_hecke(word: BraidWord) -> LaurentPoly2:
    """The HOMFLY polynomial of the closure by the Hecke-algebra trace.

    Memoized on the word object (:attr:`BraidWord.homfly_memo`) under its own
    key, so each word object is traced at most once.
    """
    memo = word.homfly_memo
    poly = memo.get(HECKE)
    if poly is None:
        poly = memo[HECKE] = hecke_trace(word)
    return poly
