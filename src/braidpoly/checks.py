"""Property suites: every identity the engine relies on, run as checks.

Each checker returns ``None`` on success or a one-line reproducer string on
failure; the suite runners aggregate them into :class:`CheckResult` records.
These back both the ``verify`` and ``selftest`` CLI commands and the tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .braid import BraidWord, markov_variants, mirror
from .corpus import all_words, alternating_words, exhaustive_count, random_words
from .hecke import homfly_hecke
from .invariants import alexander, braid_index_certificate, mfw_bounds
from .jaeger import DUAL, STANDARD, homfly_jaeger, verify_bijection
from .resolver import ASCENDING, DESCENDING, homfly


@dataclass
class CheckResult:
    name: str
    checked: int
    failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures


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
    """a*P(+) - a^-1*P(-) = z*P(0) at every letter."""
    for i in range(len(word)):
        plus, minus, zero = (homfly(w, DESCENDING) for w in skein_triple(word, i))
        lhs = plus.scale_monomial(da=1) - minus.scale_monomial(da=-1)
        rhs = zero.scale_monomial(dz=1)
        if lhs != rhs:
            return f"skein relation fails at letter {i} of {word.text()!r}"
    return None


def check_mirror(word: BraidWord) -> Optional[str]:
    """P(mirror) equals P with z -> -z, a -> a^-1."""
    if homfly(mirror(word), DESCENDING) != homfly(word, DESCENDING).mirrored():
        return f"mirror identity fails on {word.text()!r}"
    return None


def check_markov(word: BraidWord, *, seed: int, count: int) -> Optional[str]:
    """Every word-rewrite variant closes to the same link, hence same P."""
    reference = homfly(word, DESCENDING)
    for variant in markov_variants(word, seed=seed, count=count):
        # the partition sum runs the same leaf search as ``homfly``, so this
        # checks invariance under the moves, not one engine against another
        if homfly_jaeger(variant.word, STANDARD) != reference:
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
    try:
        mfw_bounds(word)  # raises on window violations
    except Exception as exc:  # pragma: no cover - engine bug guard
        return f"MFW check raised on {word.text()!r}: {exc}"
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
    """Run ``checker`` over ``words``, stopping at the first failure."""
    result = CheckResult(name=name, checked=0)
    start = time.perf_counter()
    for word in words:
        result.checked += 1
        message = checker(word)
        if message is not None:
            result.failures.append(message)
            break
    result.elapsed = time.perf_counter() - start
    return result


def selftest_corpus(
    max_crossings: int, max_strands: int, samples: int, seed: int
) -> list[BraidWord]:
    """Empty words on every strand count, plus an exhaustive or sampled corpus.

    When the exhaustive space over all strand counts fits within ``samples``
    words it is enumerated completely; otherwise ``samples`` random words are
    drawn deterministically from the seed.
    """
    corpus = [BraidWord((), n) for n in range(1, max_strands + 1)]
    total = sum(
        exhaustive_count(n, max_crossings) for n in range(2, max_strands + 1)
    )
    if total <= samples:
        for n in range(2, max_strands + 1):
            corpus.extend(all_words(n, max_crossings))
    else:
        corpus.extend(
            random_words(
                samples,
                max_crossings=max_crossings,
                max_strands=max_strands,
                seed=seed,
            )
        )
    return corpus


def run_selftest(
    *, max_crossings: int, max_strands: int, samples: int, seed: int
) -> list[CheckResult]:
    """Run every property suite on a deterministic corpus."""
    corpus = selftest_corpus(max_crossings, max_strands, samples, seed)
    alt = alternating_words(
        max(20, samples // 5),
        max_strands=min(5, max(2, max_strands)),
        seed=seed + 1,
    )
    results = [
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
    return results
