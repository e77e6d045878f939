"""Admissible circuit partitions of a closed braid.

A circuit partition of a braid word is the diagram obtained by smoothing the
crossings in a chosen subset ``S`` while leaving all others unchanged; it is
identified by the pair (word, S).  When the walker of the natural traversal
passes a smoothed crossing it keeps its column: staying in the gap column is
a *left tangence*, staying in the right column a *right tangence*.

A smoothed crossing is admissible (standard variant) when its first passage is
a left tangence at a positive crossing or a right tangence at a negative one;
the dual variant swaps left and right.  Equivalently, the first passage must
arrive on the original under-arm (standard) or over-arm (dual).  A partition
is admissible when all its smoothed crossings are, so the whole word with
``S`` empty always qualifies.

Summing over admissible partitions reproduces the HOMFLY polynomial with the
same weights as the resolving-tree formulas:

* standard:  ``a^(1-n-w) * sum (-1)^t' z^t ((a^2-1) z^-1)^(gamma-1)``
* dual:      ``a^(n-1-w) * sum (-1)^t' z^t ((1-a^-2) z^-1)^(gamma-1)``

The smoothed-index sets of descending-tree leaves are exactly the standard
admissible sets (ascending leaves pair with the dual variant), with matching
gamma, t and t'.  So the partitions and their sum come from the paired tree's
leaf search, :func:`braidpoly.resolver.leaf_search`: its keep and smooth
choices at each crossing's first visit are the admissibility test, and an
inadmissible first passage can never be repaired by later choices.  The sum
is the signed ``(gamma, t)`` tally the search keeps inside its own loop, with
no record built per partition; :func:`enumerate_admissible` passes the
search a list, so it still holds every record of the tree in memory at
once, O(leaves).
:func:`verify_bijection` checks that search against the resolving tree
expanded by its definition, :func:`braidpoly.resolver._literal_leaves`, the
tree that :func:`braidpoly.resolver.enumerate_leaves` also streams.  It also
checks that each leaf of that tree closes to a trivial link; search records
equal to the tree's close to one too.  The literal tree's gamma is the
component count of the walk that reached its leaf, its walk steps over
tables that :mod:`braidpoly.braid` builds once per word, and it shares no
code or table with the search.  Both sides reduce a leaf to the ints
``(smoothed, flipped, gamma, t, t')``, with the two sets as bit masks, and
the two leaf sequences are compared in tree order; the search side reads its
records, and its tally, from one :func:`leaf_search` run, so the check also
holds the tally to the records.
"""

from __future__ import annotations

from typing import Iterator, Literal

from .braid import KEPT, SMOOTHED, BraidWord, _Frozen, _violations
from .polynomial import LaurentPoly2
from .resolver import ASCENDING, DESCENDING, Mode, _literal_leaves, homfly, leaf_search

# ``perfbench/tracing.py`` wraps this by its name here, so it stays bound
from .resolver import enumerate_leaves  # noqa: F401

Variant = Literal["standard", "dual"]

STANDARD: Variant = "standard"
DUAL: Variant = "dual"


def _paired_mode(variant: str) -> Mode:
    """The tree whose leaves pair with the variant's admissible partitions."""
    if variant == STANDARD:
        return DESCENDING
    if variant == DUAL:
        return ASCENDING
    raise ValueError(f"variant must be 'standard' or 'dual', got {variant!r}")


class CircuitPartition(_Frozen):
    """A braid word with the crossings in ``smoothed`` smoothed.

    ``smoothed`` is a frozenset of letter positions.  Two partitions are
    equal, and hash equal, exactly when their words and smoothed sets are.
    """

    _fields = ("word", "smoothed")
    word: BraidWord
    smoothed: frozenset[int]

    def __init__(self, word: BraidWord, smoothed: frozenset[int]):
        if type(smoothed) is not frozenset:
            raise TypeError(f"smoothed must be a frozenset, got {type(smoothed).__name__}")
        for i in smoothed:
            if type(i) is not int:
                raise TypeError(f"smoothed index must be an int, got {i!r}")
            if not 0 <= i < len(word):
                raise ValueError(f"smoothed index {i} out of range")
        self.__dict__.update(word=word, smoothed=smoothed, _key=(word, smoothed))


def is_admissible(partition: CircuitPartition, variant: Variant = STANDARD) -> bool:
    """Check the first-passage tangence condition at every smoothed crossing.

    Standard: each smoothed crossing is first passed on its original
    under-arm (left tangence at a positive crossing, right at a negative);
    dual: on the over-arm.  These are the smoothed-letter tests of the paired
    tree's leaf form, so the walk is :func:`braidpoly.braid._violations`,
    with its verdicts on unsmoothed letters ignored.
    """
    dual = _paired_mode(variant) == ASCENDING
    word, smoothed = partition.word, partition.smoothed
    states = tuple(SMOOTHED if i in smoothed else KEPT for i in range(len(word)))
    return not any(i in smoothed for i in _violations(word, states, dual))


def enumerate_admissible(
    word: BraidWord, variant: Variant = STANDARD
) -> Iterator[CircuitPartition]:
    """Yield every admissible circuit partition exactly once.

    The search runs to the end before the first partition comes out, so every
    record is held in memory at once: O(leaves).
    """
    records: list[tuple[int, int, int, int, int]] = []
    leaf_search(word, _paired_mode(variant) == ASCENDING, records)
    for smoothed, _, _, _, _ in records:
        yield CircuitPartition(
            word, frozenset(i for i in range(len(word)) if (smoothed >> i) & 1)
        )


def homfly_jaeger(word: BraidWord, variant: Variant = STANDARD) -> LaurentPoly2:
    """The HOMFLY polynomial of the closure via the circuit-partition sum.

    Each admissible partition carries the gamma, t and t' of its paired
    leaf and the sums share their weights, so this is the paired tree's sum,
    read from the word's memo when that tree was already evaluated.
    """
    return homfly(word, _paired_mode(variant))


def verify_bijection(word: BraidWord, variant: Variant = STANDARD) -> bool:
    """Check the leaf/partition correspondence exhaustively for one word.

    The paired resolving tree (descending for the standard variant, ascending
    for the dual) comes from :func:`braidpoly.resolver._literal_leaves`,
    which expands it by its definition, one walk per leaf, and gives each
    leaf's record ``(smoothed, flipped, gamma, t, t')`` and writhe ``w``;
    its gamma is the component count of the leaf's own walk.  The check
    holds those leaves to the search.

    The leaves must have distinct smoothed sets, which makes those sets a
    family of partitions, and their records must equal, in tree order, those
    of the leaf search that enumerates the admissible partitions.  The two
    children of a node share the parent's walk up to the split, and the
    flipped child's leaves come out before the smoothed child leaves the
    stack, which is the search's order.  One run of
    :func:`braidpoly.resolver.leaf_search` gives both those records and the
    signed ``(gamma, t)`` tally that :func:`homfly` turns into the
    polynomial, and the tally must equal the signed sum of the records, so
    the check reaches the counting code the polynomial is read from.  Every
    leaf must also close to a trivial link: gamma - w = n on the descending
    tree, gamma + w = n on the ascending one.  The literal tree reads no
    table of :func:`braidpoly.resolver.leaf_search`, its gamma is a
    component count and its ``w`` comes from its own states, so this is a
    check of the identity.  The search reads its gamma off the writhe;
    records equal to the tree's imply that its bookkeeping holds too, so the
    records are not walked a second time: the signed tally of the tree's
    leaves is summed in the same loop.
    """
    ascending = _paired_mode(variant) == ASCENDING
    sign = 1 if ascending else -1
    n = word.strands
    tree: list[tuple[int, int, int, int, int]] = []
    counts: dict[tuple[int, int], int] = {}
    smoothed_sets = set()
    for _, record, w in _literal_leaves(word, ascending):
        smoothed, _, gamma, t, t_neg = record
        if smoothed in smoothed_sets:
            return False  # two leaves sharing a smoothed set breaks the pairing
        smoothed_sets.add(smoothed)
        if gamma + sign * w != n:
            return False
        tree.append(record)
        counts[gamma, t] = counts.get((gamma, t), 0) + (-1 if t_neg & 1 else 1)
    records: list[tuple[int, int, int, int, int]] = []
    tally = leaf_search(word, ascending, records)
    if records != tree:
        return False
    # the tally ``homfly`` reads must be the records' signed sum
    return {k: v for k, v in tally.items() if v} == {k: v for k, v in counts.items() if v}
