"""Correctness gates on captured CLI output, run after the timed pass.

Each gate returns ``{op_index: message}`` for the operations it rejects; an
operation also fails when ``cli.main`` raised or returned non-zero.  The
gates judge output against independent evidence where the package offers
it: committed polynomials for the structured ladder words, the dual circuit
partition sum for ``analyze``, and the MFW window and the certificate law.
"""

from __future__ import annotations

import json
from pathlib import Path

from words import text

VERIFY_LINES = ["markov: pass", "mirror: pass", "skein: pass", "bijection: pass"]

EXPECTED_FILE = Path(__file__).with_name("expected.json")


def load_expected() -> dict[tuple[str, int], str]:
    """Canonical HOMFLY text of each structured ladder word."""
    doc = json.loads(EXPECTED_FILE.read_text())
    return {(e["word"], e["strands"]): e["homfly"] for e in doc}


def _status(op) -> str | None:
    if op["error"] is not None:
        return f"raised {op['error']}"
    if op["rc"] != 0:
        return f"exit code {op['rc']}"
    return None


def methods(words, ops) -> dict[int, str]:
    """``compute --method M``: the four methods agree, on the committed value
    where there is one."""
    expected = load_expected()
    failures: dict[int, str] = {}
    by_word: dict[int, dict[str, tuple[int, str]]] = {}
    for k, op in enumerate(ops):
        try:
            bad = _status(op)
            if not bad:
                poly = json.loads(op["out"])["homfly_text"][op["method"]]
                by_word.setdefault(op["word"], {})[op["method"]] = (k, poly)
        except (ValueError, KeyError) as exc:
            bad = f"unreadable output: {exc!r}"
        if bad:
            failures[k] = bad
    for i, results in by_word.items():
        word = words[i]
        reference = expected.get((text(word), word[1]))
        if reference is None:
            reference = results.get("descending", next(iter(results.values())))[1]
        for method, (k, poly) in results.items():
            if poly != reference:
                failures[k] = f"{method} gave {poly!r}, expected {reference!r}"
    return failures


def _analyze_one(word, out, alternating) -> str | None:
    from braidpoly.braid import BraidWord
    from braidpoly.jaeger import DUAL, homfly_jaeger

    tokens, n = word
    doc = json.loads(out)
    terms = doc["homfly"]["descending"]
    if terms != homfly_jaeger(BraidWord.from_tokens(tokens, n), DUAL).to_json_terms():
        return "homfly differs from the dual partition sum"
    w = sum(1 if t > 0 else -1 for t in tokens)
    degrees = [t["a"] for t in terms]
    if min(degrees) < 1 - n - w or max(degrees) > n - 1 - w:
        return f"a-degrees {min(degrees)}..{max(degrees)} outside MFW window"
    if alternating and doc["braid_index"]["braid_index"] != n:
        return f"alternating word not certified at {n} strands"
    if alternating and doc["alexander"]["leading_coeff"] not in (1, -1):
        return "alternating word with non-unit Alexander leading coefficient"
    return None


def analyze(words, ops, alternating) -> dict[int, str]:
    """``analyze --json``: P equals the dual partition sum, its a-degrees lie
    in the MFW window, and reduced alternating words certify with a unit
    Alexander leading coefficient."""
    failures: dict[int, str] = {}
    for k, op in enumerate(ops):
        try:
            bad = _status(op) or _analyze_one(
                words[op["word"]], op["out"], op["word"] in alternating
            )
        except (ValueError, KeyError) as exc:
            bad = f"unreadable output: {exc!r}"
        if bad:
            failures[k] = bad
    return failures


def verify(ops) -> dict[int, str]:
    """``verify --moves all``: exit 0 and every move passes."""
    failures: dict[int, str] = {}
    for k, op in enumerate(ops):
        bad = _status(op)
        if bad:
            failures[k] = bad
        elif op["out"].splitlines() != VERIFY_LINES:
            failures[k] = "not every move passed: " + " | ".join(op["out"].splitlines())
    return failures
