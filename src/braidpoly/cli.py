"""Command-line front end.

Subcommands: ``compute`` (polynomial by one or all methods), ``analyze``
(full diagram report), ``verify`` (property checks on one word), ``batch``
(one report per input line) and ``selftest`` (corpus property suites).

Exit codes are a stable contract: 0 success, 2 input error, 3 verification
failure.  All behavior is controlled by flags; there are no config files or
environment variables.

:func:`main` may be called repeatedly in one process and reuses one parser,
built on its first call, while :func:`build_parser` still returns a fresh one.
That pays only for repeated in-process calls (the benchmark worker, the tests);
a console run calls :func:`main` once.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .braid import (
    BraidParseError,
    BraidWord,
    ResolvedDiagram,
    classify,
    gap_profile,
    parse_braid,
    permutation_and_kinds,
    writhe,
)

# ``perfbench/tracing.py`` wraps these two by their names here, so they stay
# bound; ``analyze`` reads both from one walk (``permutation_and_kinds``).
from .braid import classify_crossings, permutation  # noqa: F401
from .checks import (
    check_bijection,
    check_markov,
    check_mirror,
    check_skein,
    run_selftest,
)
from .hecke import homfly_hecke
from .invariants import alexander, braid_index_certificate, link_polynomial
from .jaeger import DUAL, STANDARD, homfly_jaeger
from .polynomial import LaurentPoly2, SubstitutionError
from .resolver import homfly

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3

_METHODS = ("descending", "ascending", "jaeger", "jaeger-dual", "hecke")


def _compute_method(word: BraidWord, method: str) -> LaurentPoly2:
    """The polynomial by one ``--method``; the tree modes are named as the methods."""
    if method == "hecke":
        return homfly_hecke(word)
    if method.startswith("jaeger"):
        return homfly_jaeger(word, DUAL if method == "jaeger-dual" else STANDARD)
    return homfly(word, method)


def _certificate_json(cert) -> dict:
    blocks = []
    for b in cert.blocks:
        blocks.append(
            {
                "first_strand": b.first_strand,
                "strands": b.strands,
                "word": b.word.text(),
                "alternating": b.flags.alternating,
                "reduced": b.flags.reduced,
                "non_split": b.flags.non_split,
                "leading": (
                    "positive"
                    if b.flags.positive_leading
                    else "negative" if b.flags.negative_leading else None
                ),
                "certified": b.certified,
            }
        )
    return {
        "certified": cert.certified,
        "braid_index": cert.braid_index,
        "lower_bound": cert.lower_bound,
        "E": cert.E,
        "e": cert.e,
        "blocks": blocks,
    }


def _analyze_json(word: BraidWord) -> dict:
    perm, crossing_kinds = permutation_and_kinds(ResolvedDiagram.all_kept(word))
    flags = classify(word)
    profile = gap_profile(word)
    cert = braid_index_certificate(word)
    poly = link_polynomial(word)
    alex = alexander(word)
    return {
        "word": word.text(),
        "strands": word.strands,
        "crossings": len(word),
        "writhe": writhe(word),
        "permutation": {
            "cycles": perm.cycle_text(),
            "return_order": list(perm.return_order),
            "pivots": list(perm.pivots),
        },
        "crossing_kinds": list(crossing_kinds),
        "gap_profile": [
            {
                "gap": t.gap,
                "positive": t.positive,
                "negative": t.negative,
                "positions": list(t.positions),
            }
            for t in profile.gaps
        ],
        "classification": {
            "alternating": flags.alternating,
            "positive_leading": flags.positive_leading,
            "negative_leading": flags.negative_leading,
            "reduced": flags.reduced,
            "non_split": flags.non_split,
        },
        "homfly": {"descending": poly.to_json_terms()},
        "homfly_text": poly.to_text(),
        "degrees": {"E": cert.E, "e": cert.e, "span": cert.E - cert.e},
        "mfw_lower_bound": cert.lower_bound,
        "braid_index": _certificate_json(cert),
        "alexander": {
            "delta": alex.delta.to_json_terms(),
            "text": alex.delta.to_text(),
            "leading_coeff": alex.leading_coeff,
            "leading_is_unit": alex.leading_is_unit,
        },
    }


def _parse_word_or_exit(text: str, strands: Optional[int]) -> BraidWord:
    try:
        return parse_braid(text, strands)
    except BraidParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _below_minimum(args, minimums: dict[str, int]) -> bool:
    """Report the first option below its minimum on stderr; True if there is one."""
    for dest, low in minimums.items():
        if getattr(args, dest) < low:
            print(f"error: --{dest.replace('_', '-')} must be >= {low}", file=sys.stderr)
            return True
    return False


def _cert_line(cert_json: dict) -> str:
    if cert_json["certified"]:
        return f"braid index = {cert_json['braid_index']} (certified)"
    return f"braid index >= {cert_json['lower_bound']} (MFW bound only)"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_compute(args) -> int:
    word = _parse_word_or_exit(args.word, args.strands)
    methods = _METHODS if args.method == "all" else [args.method]
    values = {m: _compute_method(word, m) for m in methods}
    # printing big coefficients can cost more than computing them, so each
    # distinct polynomial is formatted once
    texts = {v: v.to_text() for v in set(values.values())}
    agree = len(texts) == 1
    if args.json:
        terms = {v: v.to_json_terms() for v in texts}
        doc = {
            "word": word.text(),
            "strands": word.strands,
            "writhe": writhe(word),
            "method": args.method,
            "homfly": {m: terms[v] for m, v in values.items()},
            "homfly_text": {m: texts[v] for m, v in values.items()},
            "methods_agree": agree,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"word: {word.text() or '(empty)'}")
        print(f"strands: {word.strands}  writhe: {writhe(word)}")
        for m in methods:
            print(f"P ({m}): {texts[values[m]]}")
        if args.method == "all":
            print("all methods agree" if agree else "METHOD DISAGREEMENT")
    if not agree:
        print(f"error: methods disagree on {word.text()!r}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_analyze(args) -> int:
    word = _parse_word_or_exit(args.word, args.strands)
    doc = _analyze_json(word)
    if args.json:
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    print(f"word: {word.text() or '(empty)'}")
    print(f"strands: {word.strands}  crossings: {len(word)}  writhe: {doc['writhe']}")
    print(f"permutation: {doc['permutation']['cycles']}")
    print(f"return order: {' '.join(str(x) for x in doc['permutation']['return_order'])}")
    for t in doc["gap_profile"]:
        print(f"gap {t['gap']}: {t['positive']} positive, {t['negative']} negative")
    active = [k for k, v in doc["classification"].items() if v]
    print("classification: " + (", ".join(active) if active else "none"))
    print(f"P: {doc['homfly_text']}")
    d = doc["degrees"]
    print(f"a-degrees: E={d['E']} e={d['e']} span={d['span']}")
    print(f"MFW lower bound: {doc['mfw_lower_bound']}")
    print(_cert_line(doc["braid_index"]))
    print(
        f"alexander: {doc['alexander']['text']} "
        f"(leading {doc['alexander']['leading_coeff']})"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    if _below_minimum(args, {"samples": 1}):
        return EXIT_INPUT
    word = _parse_word_or_exit(args.word, args.strands)
    moves = (
        ["markov", "mirror", "skein", "bijection"]
        if args.moves == "all"
        else [args.moves]
    )
    failures = []
    for move in moves:
        if move == "markov":
            message = check_markov(word, seed=args.seed, count=args.samples)
        elif move == "mirror":
            message = check_mirror(word)
        elif move == "skein":
            message = check_skein(word)
        else:
            message = check_bijection(word)
        if message is None:
            print(f"{move}: pass")
        else:
            print(f"{move}: FAIL  {message}")
            failures.append(message)
    if failures:
        print(f"error: {len(failures)} verification failure(s)", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _print_any_int() -> None:
    """Lift the interpreter's cap on int-to-text digits (4,300 since 3.11), if it has one.

    The cap is per process, and a worker process started without ``fork``
    does not inherit it, so every batch line lifts it too.
    """
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


def _batch_line(item: tuple[int, str]) -> tuple[int, dict]:
    """Worker for one batch line; returns (status, the line's record)."""
    _print_any_int()
    lineno, line = item
    body = line.split("#", 1)[0].strip()
    strands = None
    if ";" in body:
        head, body = body.split(";", 1)
        try:
            strands = int(head.strip())
        except ValueError:
            return EXIT_INPUT, {"line": lineno, "error": f"bad strand prefix {head.strip()!r}"}
    try:
        word = parse_braid(body, strands)
    except BraidParseError as exc:
        return EXIT_INPUT, {"line": lineno, "error": str(exc)}
    try:
        doc = _analyze_json(word)
    except SubstitutionError as exc:
        return EXIT_VERIFY, {"line": lineno, "error": str(exc)}
    return EXIT_OK, {"line": lineno, **doc}


def cmd_batch(args) -> int:
    if _below_minimum(args, {"jobs": 1}):
        return EXIT_INPUT
    try:
        # utf-8-sig also reads a file that starts with a byte-order mark
        with open(args.file, "r", encoding="utf-8-sig") as handle:
            lines = handle.readlines()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    items = [
        (lineno, line)
        for lineno, line in enumerate(lines, start=1)
        if line.split("#", 1)[0].strip()
    ]
    workers = min(args.jobs, len(items))
    if workers > 1:
        # multiprocessing is a heavy import that only a parallel batch needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_batch_line, items))
    else:
        results = [_batch_line(item) for item in items]
    worst = EXIT_OK
    # both paths return results in input order
    for status, doc in results:
        if args.json:
            print(json.dumps(doc))
        elif "error" in doc:
            print(f"line {doc['line']}: error: {doc['error']}")
        else:
            print(
                f"line {doc['line']}: {doc['word'] or '(empty)'} "
                f"[n={doc['strands']}] P = {doc['homfly_text']}"
            )
        worst = max(worst, status)
    return worst


def cmd_selftest(args) -> int:
    if _below_minimum(args, {"samples": 1, "max_strands": 1, "max_crossings": 0}):
        return EXIT_INPUT
    results = run_selftest(
        max_crossings=args.max_crossings,
        max_strands=args.max_strands,
        samples=args.samples,
        seed=args.seed,
    )
    failed = False
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name}: {status} ({r.checked} checked, {r.elapsed:.2f}s)")
        for message in r.failures:
            failed = True
            print(f"  {message}")
    return EXIT_VERIFY if failed else EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidpoly",
        description=(
            "Exact HOMFLY polynomials of closed braids, with braid-index "
            "certificates and Alexander polynomials.  Braid words are "
            "whitespace/comma-separated nonzero integers: k > 0 is the "
            "positive generator at gap k, k < 0 its inverse."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_word(p):
        p.add_argument("word", help="braid word, e.g. '1 1 1' or '-1 3 -2 -4 -4 -4 1 -3'")
        p.add_argument("--strands", type=int, default=None, help="strand count override")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("compute", help="HOMFLY polynomial of a closed braid")
    add_word(p)
    p.add_argument(
        "--method",
        choices=_METHODS + ("all",),
        default="descending",
        help="which expansion to evaluate; 'all' cross-checks every method",
    )
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("analyze", help="full diagram and invariant report")
    add_word(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run property checks against one word")
    add_word(p)
    p.add_argument(
        "--moves",
        choices=("markov", "mirror", "skein", "bijection", "all"),
        default="all",
    )
    p.add_argument("--samples", type=int, default=20, help="variants for markov checks")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("batch", help="one report per input line")
    p.add_argument("file", help="input file: one '[n;]word' per line, # comments")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.add_argument("--json", action="store_true", help="newline-delimited JSON")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("selftest", help="run the full property suites")
    p.add_argument("--max-crossings", type=int, default=8)
    p.add_argument("--max-strands", type=int, default=4)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_selftest)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses; parsing leaves it unchanged."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    _print_any_int()
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
