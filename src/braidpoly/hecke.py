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
The trace is taken one strand at a time: a basis element that fixes the last
strand contributes ``delta`` times its restriction, and any other one is
``T_pi = T_x g_(n-1) g_(n-2) ... g_j`` with ``x`` the permutation with its
largest entry removed and ``j`` that entry's position, so it contributes
``T_x g_(n-2) ... g_j``.  Equal permutations merge at every level, so each is
traced once per level.  The cost is polynomial in the number of letters for a
fixed strand count and grows with ``n!`` otherwise.

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
reaches, up to ``m!`` of them, so the trace refuses blocks that still have
more than ``HECKE_MAX_STRANDS`` strands (see :func:`hecke_fits`).

References: V. F. R. Jones, "Hecke algebra representations of braid groups
and link polynomials", Ann. Math. 126 (1987); H. R. Morton and H. B. Short,
"Calculating the 2-variable polynomial for knots presented as closed braids",
J. Algorithms 11 (1990).
"""

from __future__ import annotations

from .braid import BraidWord
from .polynomial import LaurentPoly2, difference_power

HECKE = "hecke"

# The largest destabilized split block the trace takes.  Above it the
# descending tree was faster on random words whose letters use every gap
# (timings in the README), and the tree's memory does not grow with the
# strand count.
HECKE_MAX_STRANDS = 11

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


def hecke_fits(word: BraidWord) -> bool:
    """Whether no destabilized split block has more than ``HECKE_MAX_STRANDS`` strands."""
    # a block with no letters is a free strand, which always fits
    blocks = (block for _, block in word.split_blocks if block.letters)
    return all(block.destabilized.strands <= HECKE_MAX_STRANDS for block in blocks)


def _block_trace(core: BraidWord) -> LaurentPoly2:
    """The trace of a word whose letters use every gap."""
    m = core.strands
    elem = {tuple(range(m)): {(0, 0): 1}}
    for t in core.letters:
        elem = _times(elem, t)
    for level in range(m, 1, -1):
        elem = _restrict(elem, level)
    return LaurentPoly2(elem.get((0,), {}))


def hecke_trace(word: BraidWord) -> LaurentPoly2:
    """The HOMFLY polynomial of the closure, computed afresh by the trace.

    A word of ``k`` split blocks, free strands included, gives
    ``delta^(k-1)`` times the product of the blocks' polynomials, each
    traced on its destabilized block and memoized on the block word as
    :func:`homfly_hecke` does.  Raises ``ValueError`` on a word that
    :func:`hecke_fits` rejects.
    """
    if not hecke_fits(word):
        raise ValueError(
            f"{word.text()!r} has a split block of more than {HECKE_MAX_STRANDS} strands, "
            f"the most the Hecke trace takes"
        )
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
