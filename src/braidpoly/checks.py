"""Property suites: every identity the engine relies on, run as checks.

Each checker returns ``None`` on success or a one-line reproducer string on
failure; the suite runners aggregate them into :class:`CheckResult` records.
These back both the ``verify`` and ``selftest`` CLI commands and the tests.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Iterable, NamedTuple, Optional

from .braid import BraidWord, markov_variants, mirror
from .corpus import all_words, alternating_words, exhaustive_count, random_word
from .hecke import homfly_hecke
from .invariants import alexander, braid_index_certificate, mfw_bounds
from .jaeger import DUAL, STANDARD, homfly_jaeger, verify_bijection
from .polynomial import skein_holds
from .resolver import ASCENDING, DESCENDING, homfly


class CheckResult(NamedTuple):
    """One suite's tally: words checked, failure messages and seconds taken."""

    name: str
    checked: int
    failures: tuple[str, ...] = ()
    elapsed: float = 0.0


def check_methods_agree(word: BraidWord) -> Optional[str]:
    """All four formulas and the Hecke trace must produce the identical polynomial.

    The partition sums are the paired trees' sums and read their memoized
    polynomials on this word object, so the cross-checks here are descending
    against ascending and the tree against the Hecke trace, a different
    algorithm.
    """
    values = {
        "descending": homfly(word, DESCENDING),
        "ascending": homfly(word, ASCENDING),
        "jaeger": homfly_jaeger(word, STANDARD),
        "jaeger-dual": homfly_jaeger(word, DUAL),
        "hecke": homfly_hecke(word),
    }
    reference = values["descending"]
    for name, poly in values.items():
        if poly != reference:
            return (
                f"method disagreement on {word.text()!r} (n={word.strands}): "
                f"{name} gave {poly.to_text()} vs descending {reference.to_text()}"
            )
    return None


def skein_triple(word: BraidWord, i: int) -> tuple[BraidWord, BraidWord, BraidWord]:
    """The positive, negative and smoothed versions of the word at letter ``i``.

    The side equal to the word is ``word`` itself, so the checks at every
    letter share its memoized polynomial.
    """
    tokens = list(word.tokens())
    flipped = BraidWord.from_tokens(tokens[:i] + [-tokens[i]] + tokens[i + 1 :], word.strands)
    zero = BraidWord.from_tokens(tokens[:i] + tokens[i + 1 :], word.strands)
    return (word, flipped, zero) if tokens[i] > 0 else (flipped, word, zero)


def check_skein(word: BraidWord) -> Optional[str]:
    """a*P(+) - a^-1*P(-) = z*P(0) at every letter.

    Neighbouring equal letters give equal smoothed words; each distinct word
    is kept as one object, so its memo answers every letter after the first.
    Each letter's identity is tested by adding ``z^-1 (a*P(+) - a^-1*P(-))``
    into one accumulator and comparing it with ``P(0)``'s terms
    (:func:`braidpoly.polynomial.skein_holds`), building no polynomial.
    """
    distinct = {word: word}
    for i in range(len(word)):
        plus, minus, zero = (
            homfly(distinct.setdefault(w, w), DESCENDING) for w in skein_triple(word, i)
        )
        if not skein_holds(plus, minus, zero):
            return f"skein relation fails at letter {i} of {word.text()!r}"
    return None


def check_mirror(word: BraidWord) -> Optional[str]:
    """P(mirror) equals P with z -> -z, a -> a^-1."""
    if homfly(mirror(word), DESCENDING) != homfly(word, DESCENDING).mirrored():
        return f"mirror identity fails on {word.text()!r}"
    return None


def check_markov(word: BraidWord, *, seed: int, count: int) -> Optional[str]:
    """Every word-rewrite variant closes to the same link, hence same P.

    A variant equal to the word, or to an earlier variant, is evaluated as
    that word's object, so its memo answers; every comparison still runs.
    """
    reference = homfly(word, DESCENDING)
    distinct = {word: word}
    for variant in markov_variants(word, seed=seed, count=count):
        # one engine throughout: this checks invariance under the moves, not
        # one engine against another
        if homfly(distinct.setdefault(variant.word, variant.word), DESCENDING) != reference:
            return (
                f"invariance fails on {word.text()!r}: variant "
                f"{variant.word.text()!r} (n={variant.word.strands}) via "
                f"{','.join(variant.moves)}"
            )
    return None


def check_bijection(word: BraidWord) -> Optional[str]:
    """Leaves pair with admissible partitions and close to trivial links."""
    for variant in (STANDARD, DUAL):
        if not verify_bijection(word, variant):
            return f"leaf/partition bijection fails ({variant}) on {word.text()!r}"
    return None


def check_mfw(word: BraidWord) -> Optional[str]:
    """The degrees lie in the MFW window; :func:`mfw_bounds` raises when they do not."""
    mfw_bounds(word)
    return None


def check_alternating_law(word: BraidWord) -> Optional[str]:
    """Reduced alternating non-split words reach the MFW bound ``n`` and certify it."""
    bound = mfw_bounds(word).lower_bound
    if bound != word.strands:
        return f"degree law fails on {word.text()!r}: MFW bound {bound}, expected {word.strands}"
    cert = braid_index_certificate(word)
    if not cert.certified or cert.braid_index != word.strands:
        return f"certificate fails on {word.text()!r}: {cert}"
    return None


def check_alexander_unit(word: BraidWord) -> Optional[str]:
    report = alexander(word)
    if not report.leading_is_unit:
        return (
            f"Alexander leading coefficient {report.leading_coeff} is not a "
            f"unit on {word.text()!r}"
        )
    return None


# ---------------------------------------------------------------------------
# Suite runners
# ---------------------------------------------------------------------------


def _run(
    name: str,
    words: Iterable[BraidWord],
    checker: Callable[[BraidWord], Optional[str]],
) -> CheckResult:
    """Run ``checker`` over ``words``, stopping at the first failure.

    A checker that raises fails the suite on that word: an engine that
    contradicts itself raises (``ConsistencyError``) rather than answers.
    ``MemoryError`` is not a failure of the word, so it propagates.
    """
    checked = 0
    failures: tuple[str, ...] = ()
    start = time.perf_counter()
    for word in words:
        checked += 1
        try:
            message = checker(word)
        except MemoryError:
            raise
        except Exception as exc:
            message = f"{name} raised on {word.text()!r}: {type(exc).__name__}: {exc}"
        if message is not None:
            failures = (message,)
            break
    return CheckResult(name, checked, failures, time.perf_counter() - start)


def selftest_corpus(
    max_crossings: int, max_strands: int, samples: int, seed: int
) -> list[BraidWord]:
    """Empty words on every strand count, plus an exhaustive or sampled corpus.

    When the exhaustive space over all strand counts fits within ``samples``
    words it is enumerated completely; otherwise random words are drawn
    deterministically from the seed until ``samples`` of them have two or
    more strands, and the one-strand words drawn on the way are dropped.
    Each distinct word is kept once, in the order it first comes.
    """
    corpus = [BraidWord((), n) for n in range(1, max_strands + 1)]
    total = sum(
        exhaustive_count(n, max_crossings) for n in range(2, max_strands + 1)
    )
    if total <= samples:
        for n in range(2, max_strands + 1):
            corpus.extend(all_words(n, max_crossings))
    else:
        rng = random.Random(seed)
        end = len(corpus) + samples
        while len(corpus) < end:
            word = random_word(rng, max_crossings, max_strands)
            if word.strands > 1:
                corpus.append(word)
    return list(dict.fromkeys(corpus))


def run_selftest(
    *, max_crossings: int, max_strands: int, samples: int, seed: int
) -> list[CheckResult]:
    """Run every property suite on a deterministic corpus of distinct words."""
    corpus = selftest_corpus(max_crossings, max_strands, samples, seed)
    alt = list(dict.fromkeys(
        alternating_words(
            max(20, samples // 5),
            max_strands=min(5, max(2, max_strands)),
            seed=seed + 1,
        )
    ))
    return [
        _run("four-method equality", corpus, check_methods_agree),
        _run("MFW degree window", corpus, check_mfw),
        _run("leaf/partition bijection", corpus, check_bijection),
        _run("mirror identity", corpus, check_mirror),
        _run(
            "Markov-move invariance",
            corpus,
            lambda w: check_markov(w, seed=seed + 2, count=5),
        ),
        _run("reduced alternating degree law", alt, check_alternating_law),
        _run("Alexander unit leading coefficient", alt, check_alexander_unit),
    ]
