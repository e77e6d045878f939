"""Deterministic word corpora for verification runs and tests.

Words are built straight from their signed letters (``k`` or ``-k`` for
gap ``k``), as in :class:`braidpoly.braid.BraidWord`.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from .braid import BraidWord


def all_words(strands: int, max_crossings: int) -> Iterator[BraidWord]:
    """Every word on exactly ``strands`` strands with up to ``max_crossings``."""
    alphabet = [g * s for g in range(1, strands) for s in (1, -1)]
    for length in range(max_crossings + 1):
        for tokens in itertools.product(alphabet, repeat=length):
            yield BraidWord.from_tokens(tokens, strands)


def exhaustive_count(strands: int, max_crossings: int) -> int:
    k = 2 * (strands - 1)
    return sum(k**length for length in range(max_crossings + 1))


def random_word(rng: random.Random, max_crossings: int, max_strands: int) -> BraidWord:
    strands = rng.randint(1, max_strands)
    if strands == 1:
        return BraidWord((), 1)
    length = rng.randint(0, max_crossings)
    tokens = [
        rng.randint(1, strands - 1) * rng.choice((1, -1)) for _ in range(length)
    ]
    return BraidWord.from_tokens(tokens, strands)


def random_words(
    count: int, *, max_crossings: int, max_strands: int, seed: int
) -> list[BraidWord]:
    rng = random.Random(seed)
    return [random_word(rng, max_crossings, max_strands) for _ in range(count)]


def random_alternating_word(rng: random.Random, strands: int) -> BraidWord:
    """A random reduced alternating braid word with no empty gaps.

    Every gap receives 2 to 4 crossings whose sign is determined by the gap
    parity and a random leading sign; the crossings of all gaps are
    interleaved uniformly at random.
    """
    if strands < 2:
        raise ValueError("alternating words need at least 2 strands")
    leading = rng.choice((1, -1))
    letters: list[int] = []
    for gap in range(1, strands):
        token = gap * leading if gap % 2 == 1 else -gap * leading
        letters += [token] * rng.randint(2, 4)
    rng.shuffle(letters)
    return BraidWord(tuple(letters), strands)


def alternating_words(count: int, *, max_strands: int = 5, seed: int = 0) -> list[BraidWord]:
    """``count`` alternating words, cycling through 2 to ``max_strands`` strands."""
    rng = random.Random(seed)
    spread = list(range(2, max_strands + 1))
    return [
        random_alternating_word(rng, spread[i % len(spread)]) for i in range(count)
    ]
