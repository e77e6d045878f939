"""An Alexander-polynomial oracle from the unreduced Burau matrix, exact in fractions.

Nothing here shares code with the engine: the matrix is built letter by
letter and its determinant taken by plain Gaussian elimination, both over
:class:`fractions.Fraction` at a rational value of ``t``.

``sigma_i`` acts on columns ``i`` and ``i + 1`` by ``[[1 - t, t], [1, 0]]``
and ``sigma_i^-1`` by ``[[0, 1], [t^-1, 1 - t^-1]]``.  The rows of the
matrix ``B`` of a braid sum to 1 and ``(1, t, ..., t^(n-1)) B`` is that same
vector, so ``I - B`` is singular and each of its cofactors is a power of
``t`` times one polynomial, the Alexander polynomial of the closure up to a
unit ``+-t^k``.  This module takes the minor with the last row and column
dropped.
"""

from __future__ import annotations

from fractions import Fraction


def burau_matrix(strands, letters, t):
    """The unreduced Burau matrix of the word ``letters`` at ``t``, as a list of rows."""
    rows = [[Fraction(int(r == c)) for c in range(strands)] for r in range(strands)]
    for letter in letters:
        i = abs(letter) - 1
        for row in rows:
            left, right = row[i], row[i + 1]
            if letter > 0:
                row[i], row[i + 1] = (1 - t) * left + right, t * left
            else:
                row[i], row[i + 1] = right / t, left + (1 - 1 / t) * right
    return rows


def determinant(rows):
    """The determinant of a square matrix of fractions, by elimination."""
    rows = [row[:] for row in rows]
    det = Fraction(1)
    for k in range(len(rows)):
        pivot = next((r for r in range(k, len(rows)) if rows[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        head = rows[k]
        det *= head[k]
        for row in rows[k + 1:]:
            if row[k]:
                factor = row[k] / head[k]
                for c in range(k, len(row)):
                    row[c] -= factor * head[c]
    return det


def burau_minor(strands, letters, t):
    """``det`` of ``I - B`` with its last row and column dropped."""
    rows = burau_matrix(strands, letters, Fraction(t))
    minor = [
        [int(r == c) - rows[r][c] for c in range(strands - 1)] for r in range(strands - 1)
    ]
    return determinant(minor)


def burau_matches(strands, letters, terms, q):
    """Whether the Burau minor at ``t = q^2`` is ``+-q^k`` times ``Delta(s = q)``.

    ``terms`` are ``Delta``'s ``(exponent of s, coefficient)`` pairs and
    ``q`` is a prime.  A zero on either side matches only a zero on the other.
    """
    minor = burau_minor(strands, letters, q * q)
    at_q = sum(Fraction(q) ** e * c for e, c in terms)
    if not minor or not at_q:
        return minor == at_q
    ratio = abs(minor / at_q)
    for part in (ratio.numerator, ratio.denominator):
        while part % q == 0:
            part //= q
        if part != 1:
            return False
    return True
