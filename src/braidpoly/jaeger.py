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
leaf search, :func:`braidpoly.resolver.leaf_stream`: its keep and smooth
choices at each crossing's first visit are the admissibility test, and an
inadmissible first passage can never be repaired by later choices.
:func:`verify_bijection` checks that search against the resolving tree
expanded literally, one restarted walk per node, and checks that each leaf
closes to a trivial link.  Each node's walk is also its component count: a
leaf's walk goes round the whole closure to find no violation, so its gamma
comes from that same walk.  Both sides reduce a leaf to the ints
``(smoothed, flipped, gamma, t, t')``, with the two sets as bit masks; the
search side reads them straight from :func:`leaf_stream`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Literal

from .braid import FLIPPED, KEPT, SMOOTHED, BraidWord, ResolvedDiagram, _violations
from .polynomial import LaurentPoly2
from .resolver import ASCENDING, DESCENDING, Mode, homfly, leaf_stream, split_at

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


@dataclass(frozen=True)
class CircuitPartition:
    """A braid word with the crossings in ``smoothed`` smoothed.

    Two partitions are equal exactly when their words and smoothed sets are.
    """

    word: BraidWord
    smoothed: frozenset[int]

    def __post_init__(self):
        for i in self.smoothed:
            if not 0 <= i < len(self.word):
                raise ValueError(f"smoothed index {i} out of range")

    def as_diagram(self) -> ResolvedDiagram:
        states = tuple(
            SMOOTHED if i in self.smoothed else KEPT for i in range(len(self.word))
        )
        return ResolvedDiagram(self.word, states)


def is_admissible(partition: CircuitPartition, variant: Variant = STANDARD) -> bool:
    """Check the first-passage tangence condition at every smoothed crossing.

    Standard: each smoothed crossing is first passed on its original
    under-arm (left tangence at a positive crossing, right at a negative);
    dual: on the over-arm.  These are the smoothed-letter tests of the paired
    tree's leaf form, so the walk is :func:`braidpoly.braid._violations`,
    with its verdicts on unsmoothed letters ignored.
    """
    dual = _paired_mode(variant) == ASCENDING
    states = partition.as_diagram().states
    return not any(i in partition.smoothed for i in _violations(partition.word, states, dual))


def enumerate_admissible(
    word: BraidWord, variant: Variant = STANDARD
) -> Iterator[CircuitPartition]:
    """Stream every admissible circuit partition exactly once."""
    ascending = _paired_mode(variant) == ASCENDING
    for smoothed, _, _, _, _ in leaf_stream(word, ascending):
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
    for the dual) is expanded literally with :func:`split_at`, restarting the
    walk at every node.  One run of :func:`braidpoly.braid._violations` finds
    the node's first violation on an unsmoothed letter, as
    :func:`braidpoly.resolver.first_violation` does; at a leaf it finds none
    only after going round the whole closure, so the cycles it collected on
    the way give the leaf's gamma.  One pass over the leaf's states gives its
    record ``(smoothed, flipped, gamma, t, t')`` of ints, the two sets as bit
    masks over letter positions, and its writhe ``w``.

    The leaves must have distinct smoothed sets, which makes those sets a
    family of partitions, and their records must equal, as a multiset, those
    of the leaf search that enumerates the admissible partitions
    (:func:`leaf_stream`, read directly, ``w`` taken from the masks).  Every
    leaf must also close to a trivial link: gamma - w = n on the descending
    tree, gamma + w = n on the ascending one.  The literal tree never touches
    the search's slot table and its gamma is a component count, so there this
    is a check of the identity; the search reads its gamma off the writhe, so
    there it checks the search's bookkeeping.
    """
    ascending = _paired_mode(variant) == ASCENDING
    sign = 1 if ascending else -1
    n = word.strands
    signs = word.signs
    tree = set()
    smoothed_sets = set()
    stack = [ResolvedDiagram.all_kept(word)]
    while stack:
        diagram = stack.pop()
        states = diagram.states
        cycles: list[list[int]] = []
        for i in _violations(word, states, ascending, cycles):
            if states[i] is not SMOOTHED:
                stack += split_at(diagram, i)
                break
        else:
            smoothed = flipped = t = t_neg = w = 0
            for j, (state, s) in enumerate(zip(states, signs)):
                if state is KEPT:
                    w += s
                elif state is FLIPPED:
                    flipped |= 1 << j
                    w -= s
                else:
                    smoothed |= 1 << j
                    t += 1
                    t_neg += s < 0
            if smoothed in smoothed_sets:
                return False  # two leaves sharing a smoothed set breaks the pairing
            smoothed_sets.add(smoothed)
            gamma = len(cycles)
            if gamma + sign * w != n:
                return False
            tree.add((smoothed, flipped, gamma, t, t_neg))
    positive = sum(1 << i for i, s in enumerate(signs) if s > 0)
    everything = (1 << len(signs)) - 1
    stream = []
    for leaf in leaf_stream(word, ascending):
        smoothed, flipped, gamma = leaf[:3]
        unsmoothed = everything & ~smoothed
        # an unsmoothed letter counts +1 when it is positive or flipped, not both
        w = 2 * ((positive ^ flipped) & unsmoothed).bit_count() - unsmoothed.bit_count()
        if gamma + sign * w != n:
            return False
        stream.append(leaf)
    return len(stream) == len(tree) and set(stream) == tree
