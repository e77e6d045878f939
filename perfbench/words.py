"""Seeded word generators for the three benchmark workloads.

The benchmark builds its own inputs and never imports ``braidpoly.corpus``,
so editing the package's corpus cannot change a workload.  A word is a pair
``(tokens, strands)``; every workload's words are distinct from each other
and from :data:`WARMUP`, so no word is evaluated twice in one process and a
cache cannot turn a repeat into a fake gain.

Random words are stratified: the i-th word takes its strand and crossing
counts from a fixed cycle, so two seeds draw the same mix of sizes and only
the letters differ.  That keeps the work per pass close across seeds.
"""

from __future__ import annotations

import random

Word = tuple[tuple[int, ...], int]

WORKLOADS = ("ladder", "analyze", "verify")

# Warm-up words: two crossings each, a size no workload generates.
WARMUP: tuple[Word, ...] = (((1, 1), 2), ((1, -2), 3), ((-1, 2), 3), ((2, -1), 3))

# ``ladder``: the fixed, seed-independent part.  The 14x4 word is the one
# the acceptance suite times; sigma_1^k has Fib(k+1) descending leaves.
LADDER_STRUCTURED: tuple[Word, ...] = (
    ((1, -2, 3, 1, 1, -2, -2, 3, 3, 1, -2, 3, 1, -2), 4),
    ((1,) * 14, 2),
    ((1,) * 17, 2),
    ((1,) * 20, 2),
    ((1, -2) * 8, 3),
    ((1, -2) * 10, 3),
    ((1, -2, 3, -4) * 4, 5),
    ((1, -2, 3, -4) * 5, 5),
)
# ``ladder``: the seeded part, (crossings, strands, count) per cell.  Leaf
# counts of random words spread widely (standard deviation about 45% of the
# mean in every cell), so many smaller words keep the seed-to-seed spread of
# each method's sum and of the call-latency p50 and p90 near 5%; 6 words each
# at 16x3, 18x4 and 20x5 (up to 12,000 leaves each) spread the sums by 10-15%.
LADDER_RANDOM_CELLS = ((11, 3, 48), (12, 4, 48), (13, 5, 48))

# ``analyze``: random words (3-5 strands, 8-14 crossings) and reduced
# alternating words (3-5 strands, 2-4 crossings per gap), two to one.
# Six-strand alternating words are left out: they made 0.8-1.1 s outliers.
ANALYZE_RANDOM = 400
ANALYZE_ALTERNATING = 200
ANALYZE_STRANDS = (3, 4, 5)
ANALYZE_CROSSINGS = range(8, 15)

# ``verify``: small random words, 2-4 strands and 3-8 crossings.
VERIFY_WORDS = 300
VERIFY_STRANDS = (2, 3, 4)
VERIFY_CROSSINGS = range(3, 9)

# ``--tiny`` sizes for the benchmark's own self-check.
TINY = {"ladder_random": 1, "analyze_random": 6, "analyze_alternating": 3, "verify": 6}


def text(word: Word) -> str:
    return " ".join(str(t) for t in word[0])


def _random_tokens(rng: random.Random, crossings: int, strands: int) -> tuple[int, ...]:
    """Uniform letters over every gap, redrawn until the last gap is used."""
    while True:
        tokens = tuple(
            rng.randint(1, strands - 1) * rng.choice((1, -1)) for _ in range(crossings)
        )
        if max(abs(t) for t in tokens) == strands - 1:
            return tokens


def _alternating_tokens(rng: random.Random, strands: int) -> tuple[int, ...]:
    """A reduced alternating word: 2-4 crossings in every gap, signs by parity."""
    leading = rng.choice((1, -1))
    tokens = []
    for gap in range(1, strands):
        sign = leading if gap % 2 else -leading
        tokens.extend([gap * sign] * rng.randint(2, 4))
    rng.shuffle(tokens)
    return tuple(tokens)


class _Distinct:
    """Collects words, rejecting repeats and warm-up words."""

    def __init__(self):
        self.seen = set(WARMUP)
        self.words: list[Word] = []

    def add(self, word: Word) -> bool:
        if word in self.seen:
            return False
        self.seen.add(word)
        self.words.append(word)
        return True


def _stratified(out: _Distinct, rng, count, strands_cycle, crossings_cycle):
    """``count`` distinct random words, sizes cycling through the two lists.

    A cell too small to give another new word (2 strands, 3 crossings has only
    8) moves on to one more crossing.
    """
    for i in range(count):
        strands = strands_cycle[i % len(strands_cycle)]
        crossings = crossings_cycle[(i // len(strands_cycle)) % len(crossings_cycle)]
        while True:
            if any(
                out.add((_random_tokens(rng, crossings, strands), strands))
                for _ in range(64)
            ):
                break
            crossings += 1


def ladder(seed: int, tiny: bool = False) -> list[Word]:
    """Big words for ``compute --method M``, each of the four methods.

    Why: almost all the time is in the resolver and jaeger DFS kernels, with
    cli, polynomial and invariants negligible, so this is where a faster
    kernel or a new engine must show its gain.
    """
    structured = LADDER_STRUCTURED[:2] if tiny else LADDER_STRUCTURED
    out = _Distinct()
    for word in structured:
        out.add(word)
    rng = random.Random(f"ladder/{seed}")
    for crossings, strands, count in LADDER_RANDOM_CELLS:
        if tiny:
            crossings, count = crossings - 2, TINY["ladder_random"]
        _stratified(out, rng, count, (strands,), (crossings,))
    return out.words


def analyze(seed: int, tiny: bool = False) -> list[Word]:
    """Medium words for ``analyze --json``: random ones, then alternating ones.

    Why: the batch-style report path runs the whole invariants, polynomial
    and classification stack and evaluates the descending tree 3-4 times per
    word, but never calls jaeger, so it is the bypass for any jaeger-only
    change.  The alternating words are at :func:`alternating_ids`.
    """
    rng = random.Random(f"analyze/{seed}")
    out = _Distinct()
    n_random = TINY["analyze_random"] if tiny else ANALYZE_RANDOM
    n_alt = TINY["analyze_alternating"] if tiny else ANALYZE_ALTERNATING
    crossings = range(4, 7) if tiny else ANALYZE_CROSSINGS
    _stratified(out, rng, n_random, ANALYZE_STRANDS, crossings)
    for i in range(n_alt):
        strands = ANALYZE_STRANDS[i % len(ANALYZE_STRANDS)]
        while not out.add((_alternating_tokens(rng, strands), strands)):
            pass
    return out.words


def alternating_ids(tiny: bool = False) -> range:
    """Positions of the reduced alternating words in :func:`analyze`'s list."""
    n_random = TINY["analyze_random"] if tiny else ANALYZE_RANDOM
    n_alt = TINY["analyze_alternating"] if tiny else ANALYZE_ALTERNATING
    return range(n_random, n_random + n_alt)


def verify(seed: int, tiny: bool = False) -> list[Word]:
    """Small words for ``verify --moves all``.

    Why: the same kernels used differently, as thousands of tiny evaluations
    on freshly built words (skein triples, Markov variants, mirrors, leaf
    streams), where per-call set-up dominates.  A kernel change that buys
    big-word speed with per-call set-up shows here as a loss.
    """
    rng = random.Random(f"verify/{seed}")
    out = _Distinct()
    count = TINY["verify"] if tiny else VERIFY_WORDS
    _stratified(out, rng, count, VERIFY_STRANDS, VERIFY_CROSSINGS)
    return out.words


GENERATORS = {"ladder": ladder, "analyze": analyze, "verify": verify}
