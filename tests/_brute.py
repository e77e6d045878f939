"""Independent brute-force oracles for the test suite.

Nothing here shares code with the engine: the walk below is a straight
linear scan over letter heights, leaf sets are found by filtering all 3^c
state vectors, and polynomial arithmetic goes through sympy.  Disagreement
with the package is therefore meaningful in either direction.
"""

from __future__ import annotations

import itertools

import sympy as sp

A, Z = sp.symbols("a z")

KEEP, FLIP, SMOOTH = "K", "F", "S"


def brute_walk(strands, letters, states):
    """Walk the closed diagram; return (first-visit records, component count).

    ``letters`` is a list of (gap, sign) pairs top to bottom; ``states`` a
    string over K/F/S.  Each first-visit record is (letter index, arrival
    column).  Components start at the smallest unvisited top column.
    """
    firsts = []
    seen = set()
    visited = set()
    components = 0
    for pivot in range(1, strands + 1):
        if pivot in visited:
            continue
        visited.add(pivot)
        col = pivot
        while True:
            for i, (gap, _sign) in enumerate(letters):
                if col not in (gap, gap + 1):
                    continue
                if i not in seen:
                    seen.add(i)
                    firsts.append((i, col))
                if states[i] != SMOOTH:
                    col = gap + (gap + 1) - col
            if col == pivot:
                break
            visited.add(col)
        components += 1
    return firsts, components


def breaks_rule(letters, states, i, col, ascending=False):
    """Whether letter ``i``, first visited arriving in column ``col``, breaks
    the first-visit rule.

    The descending tree wants smoothed letters reached from the original
    under-arm and live ones from the live over-arm; the ascending tree swaps
    both arms."""
    gap, sign = letters[i]
    from_left = col == gap
    if states[i] == SMOOTH:
        descending_ok = from_left == (sign > 0)
    else:
        live_sign = sign if states[i] == KEEP else -sign
        descending_ok = (not from_left) == (live_sign > 0)
    return descending_ok == ascending


def is_leaf(strands, letters, states, ascending=False):
    """Whether no letter breaks the first-visit rule of the requested tree."""
    firsts, _ = brute_walk(strands, letters, states)
    return not any(breaks_rule(letters, states, i, col, ascending) for i, col in firsts)


def brute_leaves(strands, letters, ascending=False):
    """All leaves of one tree by exhaustive filtering of 3^c state vectors."""
    leaves = []
    for states in itertools.product((KEEP, FLIP, SMOOTH), repeat=len(letters)):
        if is_leaf(strands, letters, states, ascending):
            leaves.append("".join(states))
    return leaves


def brute_homfly(strands, letters, ascending=False):
    """HOMFLY of the closure via the descending (or ascending) tree sum, in sympy."""
    w = sum(sign for _, sign in letters)
    if ascending:
        prefactor, base = A ** (strands - 1 - w), (1 - A**-2) / Z
    else:
        prefactor, base = A ** (1 - strands - w), (A**2 - 1) / Z
    total = sp.Integer(0)
    for states in brute_leaves(strands, letters, ascending):
        _, gamma = brute_walk(strands, letters, states)
        t = states.count(SMOOTH)
        t_neg = sum(
            1 for st, (_, sign) in zip(states, letters) if st == SMOOTH and sign < 0
        )
        total += (-1) ** t_neg * Z**t * base ** (gamma - 1)
    return sp.expand(prefactor * total)


def poly2_to_sympy(poly):
    expr = sp.Integer(0)
    for (dz, da), c in poly.terms():
        expr += c * Z**dz * A**da
    return sp.expand(expr)


def word_letters(word):
    return list(zip(word.gaps, word.signs))
