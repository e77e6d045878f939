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
closes to a trivial link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Literal

from .braid import KEPT, SMOOTHED, BraidWord, ResolvedDiagram
from .polynomial import LaurentPoly2
from .resolver import (
    ASCENDING,
    DESCENDING,
    Mode,
    _violations,
    enumerate_leaves,
    first_violation,
    homfly,
    leaf_stream,
    split_at,
)

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
    tree's leaf form, so the walk is :func:`braidpoly.resolver._violations`,
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
    for the dual) is expanded literally with :func:`first_violation` and
    :func:`split_at`, restarting the walk at every node.  Its leaves must have
    distinct smoothed sets, which makes those sets a family of partitions,
    and must match the leaf search that enumerates the admissible partitions
    (:func:`enumerate_leaves`) in full state vector, gamma, t and t'.  Every
    leaf must also close to a trivial link: gamma - w = n on the descending
    tree, gamma + w = n on the ascending one, with ``w`` the leaf's own
    writhe.  On the literal tree gamma is the leaf's cycle count, so this is
    a check of the identity; the search reads its gamma off the writhe, so
    there it checks the search's bookkeeping.
    """
    mode = _paired_mode(variant)
    sign = 1 if mode == ASCENDING else -1
    tree = set()
    smoothed_sets = set()
    stack = [ResolvedDiagram.all_kept(word)]
    while stack:
        diagram = stack.pop()
        i = first_violation(diagram, mode)
        if i is not None:
            stack += split_at(diagram, i)
            continue
        cut = diagram.smoothed
        if cut in smoothed_sets:
            return False  # two leaves sharing a smoothed set breaks the pairing
        smoothed_sets.add(cut)
        gamma = len(diagram.permutation().cycles)
        w = sum(diagram.effective_sign(j) for j in range(len(word)) if j not in cut)
        if gamma + sign * w != word.strands:
            return False
        t_neg = sum(1 for j in cut if word.signs[j] < 0)
        tree.add((diagram.states, gamma, len(cut), t_neg))
    stream = []
    for leaf in enumerate_leaves(word, mode):
        if leaf.gamma + sign * leaf.writhe != word.strands:
            return False
        stream.append((leaf.states, leaf.gamma, leaf.t, leaf.t_neg))
    return len(stream) == len(tree) and set(stream) == tree
