"""Derived invariants: MFW bounds, braid-index certificates, Alexander data.

For any closed braid the a-degrees of the HOMFLY polynomial are confined to
``[1-n-w, n-1-w]``, so ``a-span/2 + 1`` bounds the braid index from below
(the Morton-Frank-Williams inequality); :func:`mfw_bounds` is the one place
that reads it off.  For a reduced alternating braid with no empty gaps the
bound is sharp: the extreme degrees are attained exactly, the a-span is
``2(n-1)``, and the braid index is therefore ``n``.  The paper witnesses
sharpness by two explicit resolving-tree leaves whose closures keep all ``n``
components; :func:`construct_u_star` (descending) and :func:`construct_v_star`
(ascending) build them, and the tests check them against the leaf streams.

The certificate applies one rule to each split block: a block is certified
when it is reduced, alternating and has no empty gap, and the engine is then
held to ``mfw_bounds(block).lower_bound == strands`` (the whole word likewise
when every block is certified).  Inside the window that :func:`mfw_bounds`
enforces, that equality holds exactly when both extreme degrees are reached.
The certificate holds each block's flags and the outcome of that check; it
builds no witness.

A third construction, :func:`construct_u_prime`, produces the unique
knot-like descending leaf of maximal smoothing (``gamma = 1``,
``t = c - n + 1``); its term dominates the Alexander specialization
``a = 1``, ``z = s - s^-1`` and forces a unit leading coefficient for every
reduced alternating braid.  It sets a staircase of flips, one per odd gap,
in closed form and then smooths every other letter that breaks the
descending form, in one walk of :func:`braidpoly.braid._violations`.

Every invariant here reads the polynomial from
:func:`~braidpoly.hecke.homfly_hecke`, the Hecke trace memoized on the word.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .braid import (
    BraidWord,
    DiagramClass,
    FLIPPED,
    KEPT,
    ResolvedDiagram,
    SMOOTHED,
    _violations,
    classify,
    gap_profile,
    writhe,
)
from .hecke import homfly_hecke
from .polynomial import LaurentPoly1
from .resolver import DESCENDING, leaf_membership_test

# ``perfbench/tracing.py`` wraps these by their names here, so they stay bound
from .braid import mirror  # noqa: F401
from .resolver import homfly  # noqa: F401


class ConstructionError(ValueError):
    """Raised when a witness construction's hypotheses are not met."""


class ConsistencyError(RuntimeError):
    """Raised when computed degrees contradict the certified classification.

    This cannot happen for a correct engine; it exists so a bug is loud
    instead of producing a silently wrong certificate.
    """


class MfwReport(NamedTuple):
    """Degree extremes of the HOMFLY polynomial and the braid-index bound."""

    E: int
    e: int
    span: int
    lower_bound: int


def mfw_bounds(word: BraidWord) -> MfwReport:
    """Compute the polynomial once and read off the MFW data.

    The degree window ``[1-n-w, n-1-w]`` is verified on the result; the span
    is asserted even before halving so the bound stays exact integer math.
    """
    poly = homfly_hecke(word)
    n = word.strands
    w = writhe(word)
    E, e, span = poly.a_degrees()
    if span % 2:
        raise ConsistencyError(f"odd a-span {span} for word {word.text()!r}")
    if e < 1 - n - w or E > n - 1 - w:
        raise ConsistencyError(
            f"degrees [{e}, {E}] escape the window [{1 - n - w}, {n - 1 - w}] "
            f"for word {word.text()!r}"
        )
    return MfwReport(E=E, e=e, span=span, lower_bound=span // 2 + 1)


# ---------------------------------------------------------------------------
# Witness constructions for reduced alternating braids
# ---------------------------------------------------------------------------


def _require_positive_leading(word: BraidWord) -> None:
    flags = classify(word)
    if not (flags.positive_leading and flags.reduced and flags.non_split):
        raise ConstructionError(
            "construction requires a positive-leading reduced alternating "
            "braid word with no empty gaps"
            + (" (apply to the mirror for negative-leading input)"
               if flags.negative_leading else "")
        )


def _keep_first_flip_last(word: BraidWord, parity: int) -> ResolvedDiagram:
    """Keep the first and flip the last crossing in each gap of ``parity``; smooth the rest."""
    _require_positive_leading(word)
    states = [SMOOTHED] * len(word)
    for tally in gap_profile(word):
        if tally.gap % 2 == parity:
            states[tally.positions[0]] = KEPT
            states[tally.positions[-1]] = FLIPPED
    return ResolvedDiagram(word, tuple(states))


def construct_u_star(word: BraidWord) -> ResolvedDiagram:
    """The descending leaf realizing the top a-degree ``n - 1 - w``.

    Smooth every odd-gap crossing; in each even gap keep the first crossing,
    flip the last and smooth the rest.  The surviving crossings cancel in
    pairs, so the closure keeps all ``n`` components, and the leaf is the only
    one with no odd-gap crossings and exactly two per even gap.
    """
    return _keep_first_flip_last(word, 0)


def construct_v_star(word: BraidWord) -> ResolvedDiagram:
    """The ascending leaf realizing the bottom a-degree ``1 - n - w``.

    Keep the first and flip the last crossing in each odd gap; smooth
    everything else (including all even gaps).
    """
    return _keep_first_flip_last(word, 1)


def _cyclic_predecessor(positions: tuple[int, ...], entry: int) -> int:
    """Last position reached when walking positions cyclically from ``entry``.

    Walking downward from just below ``entry`` and wrapping at the bottom, the
    final position visited before returning to ``entry`` is the largest one
    below it, or the overall largest when none is.
    """
    return max((p for p in positions if p < entry), default=max(positions))


def construct_u_prime(word: BraidWord) -> ResolvedDiagram:
    """The knot-like descending leaf of maximal smoothing.

    In a positive-leading reduced alternating word the natural traversal
    first reaches every letter in an odd column on its under-arm, and every
    letter in an even column on its over-arm, which forces a keep.  So the
    leaf is fixed by its flips, and they form a staircase: the walker enters
    gap 1 at the top and flips the cyclically last letter of the gap, the
    next letter of gap 2 below that flip (cyclically) is kept and carries it
    into gap 3 at that height, where it flips the cyclically last letter
    again, and so on until it reaches column ``n``.  Every other letter
    first reached on its under-arm is smoothed: from the staircase, with
    everything else kept, one walk of :func:`braidpoly.braid._violations`
    smooths each violation as the walk hands it over, which is the
    descending tree's smoothed child at that letter.  Neither child moves
    the walker before its split, so this one walk gives the states that
    restarting the walk at every violation would give.  The result has a
    single closure component and ``t = c - n + 1`` smoothed crossings; both
    are validated before returning, together with descending-leaf
    membership.
    """
    _require_positive_leading(word)
    n = word.strands
    profile = gap_profile(word)
    states = [KEPT] * len(word)
    height = 0
    for gap in range(1, n, 2):
        flip = _cyclic_predecessor(profile[gap - 1].positions, height)
        states[flip] = FLIPPED
        if gap + 1 < n:
            right = profile[gap].positions
            height = min((p for p in right if p > flip), default=min(right))
    for i in _violations(word, states, False):
        states[i] = SMOOTHED
    diagram = ResolvedDiagram(word, tuple(states))

    if len(diagram.permutation().cycles) != 1:
        raise ConsistencyError(
            f"single-component construction failed for word {word.text()!r}"
        )
    expected_t = len(word) - n + 1
    if diagram.states.count(SMOOTHED) != expected_t:
        raise ConsistencyError(
            f"maximal-smoothing construction smoothed the wrong number of "
            f"crossings for word {word.text()!r}"
        )
    if not leaf_membership_test(word, diagram.states, DESCENDING):
        raise ConsistencyError(
            f"constructed diagram is not a descending leaf for word {word.text()!r}"
        )
    return diagram


# ---------------------------------------------------------------------------
# Braid-index certificates
# ---------------------------------------------------------------------------


class BlockCertificate(NamedTuple):
    """Certificate data for one empty-gap-separated block of the word.

    The block word is re-indexed to start at gap 1.  ``flags`` is its
    :func:`~braidpoly.braid.classify` result, so ``flags.negative_leading``
    gives its leading sign.  A certified block with letters has been held to
    ``mfw_bounds(block).lower_bound == strands``.
    """

    first_strand: int
    word: BraidWord
    flags: DiagramClass
    certified: bool


class BraidIndexCertificate(NamedTuple):
    """Outcome of the braid-index test on a closed braid word.

    ``certified`` means every block is a reduced alternating braid with no
    empty gaps, so the braid index equals the total strand count.  Otherwise
    only the MFW lower bound is asserted.  ``E`` and ``e`` are the degree
    extremes of the whole word's polynomial.
    """

    certified: bool
    braid_index: Optional[int]
    lower_bound: int
    E: int
    e: int
    blocks: tuple[BlockCertificate, ...]


def _require_sharp(word: BraidWord, report: MfwReport) -> None:
    """Raise :class:`ConsistencyError` unless a certified word reaches its MFW bound."""
    if report.lower_bound != word.strands:
        raise ConsistencyError(
            f"word {word.text()!r} certifies but its MFW bound is "
            f"{report.lower_bound}, not its {word.strands} strands"
        )


def _block_certificate(first_strand: int, block: BraidWord) -> BlockCertificate:
    flags = classify(block)
    certified = flags.alternating and flags.reduced and flags.non_split
    if certified and len(block):
        _require_sharp(block, mfw_bounds(block))
    return BlockCertificate(first_strand, block, flags, certified)


def braid_index_certificate(word: BraidWord) -> BraidIndexCertificate:
    """Certify the braid index when the hypotheses allow, else bound it.

    A block is certified when it is reduced and alternating and has no empty
    gap; its braid index is then its strand count, and indices add over split
    components.  The engine is held to that: each certified block, and then a
    certified word as a whole, must have ``mfw_bounds(...).lower_bound ==
    strands``, or :class:`ConsistencyError` is raised rather than a wrong
    certificate returned.  The blocks are the word's
    :attr:`~braidpoly.braid.BraidWord.split_blocks`.  The whole word is
    traced first, and a certified block has nothing to cancel and no gap of
    fewer than two letters, so the trace's front end hands it on whole and
    memoizes its trace on the block object that ``mfw_bounds(block)`` reads.
    """
    whole = mfw_bounds(word)
    blocks = tuple(_block_certificate(f, block) for f, block in word.split_blocks)
    certified = all(b.certified for b in blocks)
    if certified:
        _require_sharp(word, whole)
    return BraidIndexCertificate(
        certified=certified,
        braid_index=word.strands if certified else None,
        lower_bound=whole.lower_bound,
        E=whole.E,
        e=whole.e,
        blocks=blocks,
    )


# ---------------------------------------------------------------------------
# Alexander polynomial
# ---------------------------------------------------------------------------


class AlexanderReport(NamedTuple):
    """The Alexander specialization in ``s = x^(1/2)``, unnormalized.

    ``delta`` is the representative produced by direct substitution, with no
    unit normalization; ``leading_coeff`` is the coefficient of its highest
    power of ``s`` (0 for the zero polynomial, as for split links).
    """

    delta: LaurentPoly1
    leading_coeff: int
    leading_is_unit: bool


def alexander(word: BraidWord) -> AlexanderReport:
    """Alexander polynomial of the closure via ``a = 1``, ``z = s - s^-1``."""
    delta = homfly_hecke(word).substitute_alexander()
    if not delta:
        return AlexanderReport(delta, 0, False)
    _, coeff = delta.leading()
    return AlexanderReport(delta, coeff, coeff in (1, -1))
