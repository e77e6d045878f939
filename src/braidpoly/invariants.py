"""Derived invariants: MFW bounds, braid-index certificates, Alexander data.

For any closed braid the a-degrees of the HOMFLY polynomial are confined to
``[1-n-w, n-1-w]``, so ``a-span/2 + 1`` bounds the braid index from below
(the Morton-Frank-Williams inequality).  For a reduced alternating braid with
no empty gaps the bound is sharp: the extreme degrees are attained exactly,
the a-span is ``2(n-1)``, and the braid index is therefore ``n``.  Sharpness
is witnessed by two explicit resolving-tree leaves (``u_star`` descending,
``v_star`` ascending) whose closures keep all ``n`` components.

A third construction, ``u_prime``, produces the unique knot-like descending
leaf of maximal smoothing (``gamma = 1``, ``t = c - n + 1``); its term
dominates the Alexander specialization ``a = 1``, ``z = s - s^-1`` and forces
a unit leading coefficient for every reduced alternating braid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .braid import (
    BraidWord,
    CrossingState,
    DiagramClass,
    FLIPPED,
    KEPT,
    ResolvedDiagram,
    SMOOTHED,
    classify,
    gap_profile,
    mirror,
    walk,
    writhe,
)
from .polynomial import LaurentPoly1
from .resolver import DESCENDING, homfly, leaf_membership_test


class ConstructionError(ValueError):
    """Raised when a witness construction's hypotheses are not met."""


class ConsistencyError(RuntimeError):
    """Raised when computed degrees contradict the certified classification.

    This cannot happen for a correct engine; it exists so a bug is loud
    instead of producing a silently wrong certificate.
    """


@dataclass(frozen=True)
class MfwReport:
    """Degree extremes of the HOMFLY polynomial and the braid-index bound."""

    E: int
    e: int
    span: int
    lower_bound: int
    strands: int
    writhe: int


def mfw_bounds(word: BraidWord) -> MfwReport:
    """Compute the polynomial once and read off the MFW data.

    The degree window ``[1-n-w, n-1-w]`` is verified on the result; the span
    is asserted even before halving so the bound stays exact integer math.
    """
    poly = homfly(word, DESCENDING)
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
    return MfwReport(E=E, e=e, span=span, lower_bound=span // 2 + 1, strands=n, writhe=w)


# ---------------------------------------------------------------------------
# Witness constructions for reduced alternating braids
# ---------------------------------------------------------------------------


def _require_positive_leading(word: BraidWord) -> DiagramClass:
    flags = classify(word)
    if not (flags.positive_leading and flags.reduced and flags.non_split):
        raise ConstructionError(
            "construction requires a positive-leading reduced alternating "
            "braid word with no empty gaps"
            + (" (apply to the mirror for negative-leading input)"
               if flags.negative_leading else "")
        )
    return flags


def _keep_first_flip_last(word: BraidWord, parity: int) -> ResolvedDiagram:
    """Keep the first and flip the last crossing in each gap of ``parity``; smooth the rest."""
    _require_positive_leading(word)
    states = [SMOOTHED] * len(word)
    for tally in gap_profile(word).gaps:
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
    below = [p for p in positions if p < entry]
    return max(below) if below else max(positions)


def construct_u_prime(word: BraidWord) -> ResolvedDiagram:
    """The knot-like descending leaf of maximal smoothing.

    A guided natural traversal decides each crossing at its first visit: in
    gap 1 smooth every crossing except the cyclically last one, which is
    flipped to carry the walker rightward; each forced keep at an even gap
    pushes into the next odd gap, where everything is smoothed up to the
    cyclically last crossing relative to the entry height, flipped in turn.
    Once the last column is reached the walk returns, smoothing every crossing
    not yet visited.  The result has a single closure component and
    ``t = c - n + 1`` smoothed crossings; both are validated before returning,
    together with descending-leaf membership.
    """
    _require_positive_leading(word)
    n = word.strands
    gaps = word.gaps
    signs = word.signs
    profile = gap_profile(word)
    states: list[Optional[CrossingState]] = [None] * len(gaps)

    flip_target: Optional[int] = _cyclic_predecessor(profile.tally(1).positions, 0)
    reached_last_column = n == 1
    components = 0
    for i, col, first in walk(word, states):
        if i < 0:
            components += first
            continue
        if not first:
            continue
        new_col = 2 * gaps[i] + 1 - col
        if (col == gaps[i]) != (signs[i] > 0):
            # arrival on the over-arm forces a keep; rightward keeps steer
            # the outbound walk
            states[i] = KEPT
            if not reached_last_column and new_col > col:
                if new_col == n:
                    reached_last_column = True
                    flip_target = None
                else:
                    flip_target = _cyclic_predecessor(
                        profile.tally(new_col).positions, i
                    )
        elif i == flip_target:
            states[i] = FLIPPED
            if new_col == n:
                reached_last_column = True
            flip_target = None
        else:
            states[i] = SMOOTHED

    if components != 1 or any(st is None for st in states):
        raise ConsistencyError(
            f"single-component construction failed for word {word.text()!r}"
        )
    expected_t = len(word) - n + 1
    if states.count(SMOOTHED) != expected_t:
        raise ConsistencyError(
            f"maximal-smoothing construction smoothed the wrong number of "
            f"crossings for word {word.text()!r}"
        )
    diagram = ResolvedDiagram(word, tuple(states))
    if not leaf_membership_test(word, diagram.states, DESCENDING):
        raise ConsistencyError(
            f"constructed diagram is not a descending leaf for word {word.text()!r}"
        )
    return diagram


# ---------------------------------------------------------------------------
# Braid-index certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockCertificate:
    """Certificate data for one empty-gap-separated block of the word.

    The block word is re-indexed to start at gap 1.  For a certifiable block
    the extreme degrees of its own polynomial are verified against
    ``n - 1 - w`` and ``1 - n - w``; the witnesses live on the block word, or
    on its mirror when the block is negative-leading (``mirrored`` set).
    """

    first_strand: int
    word: BraidWord
    flags: DiagramClass
    certified: bool
    E: Optional[int]
    e: Optional[int]
    u_star: Optional[ResolvedDiagram]
    v_star: Optional[ResolvedDiagram]
    mirrored: bool

    @property
    def strands(self) -> int:
        return self.word.strands


@dataclass(frozen=True)
class BraidIndexCertificate:
    """Outcome of the braid-index test on a closed braid word.

    ``certified`` means every block is a reduced alternating braid with no
    empty gaps, so the braid index equals the total strand count.  Otherwise
    only the MFW lower bound is asserted.  ``E`` and ``e`` are the degree
    extremes of the whole word's polynomial.
    """

    certified: bool
    braid_index: Optional[int]
    lower_bound: int
    strands: int
    writhe: int
    E: int
    e: int
    blocks: tuple[BlockCertificate, ...]

    @property
    def u_star(self) -> Optional[ResolvedDiagram]:
        return self.blocks[0].u_star if len(self.blocks) == 1 else None

    @property
    def v_star(self) -> Optional[ResolvedDiagram]:
        return self.blocks[0].v_star if len(self.blocks) == 1 else None


def split_blocks(word: BraidWord) -> list[tuple[int, BraidWord]]:
    """Split at empty gaps into independent blocks, re-indexed to gap 1.

    Returns ``(first_strand, block_word)`` pairs covering all strands; a
    block with a single strand is an unknot component with the empty word.
    A word with no empty gap is its own single block, returned as is.
    """
    profile = gap_profile(word)
    blocks = []
    start = 1
    for g in range(1, word.strands):
        if profile.tally(g).count == 0:
            blocks.append((start, g))
            start = g + 1
    blocks.append((start, word.strands))
    if len(blocks) == 1:
        return [(1, word)]  # the word itself, so its memoized polynomial is shared
    out = []
    for start, stop in blocks:
        shift = start - 1
        letters = tuple(
            t - shift if t > 0 else t + shift
            for t in word.letters
            if start <= abs(t) < stop
        )
        out.append((start, BraidWord(letters, stop - start + 1)))
    return out


def braid_index_certificate(word: BraidWord) -> BraidIndexCertificate:
    """Certify the braid index when the hypotheses allow, else bound it.

    Every empty-gap-separated block must be alternating with at least two
    crossings in each of its gaps; then each block's braid index is its strand
    count, and indices add over split components.  The degree laws are checked
    per block and a violation raises :class:`ConsistencyError` rather than
    returning a wrong certificate.
    """
    whole = mfw_bounds(word)
    block_words = split_blocks(word)
    block_certs: list[BlockCertificate] = []
    all_certifiable = True
    for first_strand, block in block_words:
        flags = classify(block)
        certifiable = flags.alternating and flags.reduced and flags.non_split
        all_certifiable = all_certifiable and certifiable
        if not certifiable or len(block) == 0:
            block_certs.append(
                BlockCertificate(
                    first_strand, block, flags, certifiable,
                    None, None, None, None, False,
                )
            )
            continue
        nb = block.strands
        wb = writhe(block)
        Eb, eb, _ = homfly(block, DESCENDING).a_degrees()
        if Eb != nb - 1 - wb or eb != 1 - nb - wb:
            raise ConsistencyError(
                f"block {block.text()!r} certifies but has degrees "
                f"[{eb}, {Eb}] instead of [{1 - nb - wb}, {nb - 1 - wb}]"
            )
        mirrored = flags.negative_leading
        witness_word = mirror(block) if mirrored else block
        block_certs.append(
            BlockCertificate(
                first_strand, block, flags, True, Eb, eb,
                construct_u_star(witness_word),
                construct_v_star(witness_word),
                mirrored,
            )
        )
    certified = all_certifiable
    if certified and (
        whole.E != word.strands - 1 - whole.writhe
        or whole.e != 1 - word.strands - whole.writhe
    ):
        raise ConsistencyError(
            f"word {word.text()!r} certifies blockwise but whole-word degrees "
            f"disagree with the strand count"
        )
    return BraidIndexCertificate(
        certified=certified,
        braid_index=word.strands if certified else None,
        lower_bound=whole.lower_bound,
        strands=word.strands,
        writhe=whole.writhe,
        E=whole.E,
        e=whole.e,
        blocks=tuple(block_certs),
    )


# ---------------------------------------------------------------------------
# Alexander polynomial
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlexanderReport:
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
    delta = homfly(word, DESCENDING).substitute_alexander()
    if delta.is_zero():
        return AlexanderReport(delta, 0, False)
    _, coeff = delta.leading()
    return AlexanderReport(delta, coeff, coeff in (1, -1))
