"""Command-line front end.

Subcommands: ``compute`` (polynomial by one or all methods), ``analyze``
(full diagram report), ``verify`` (property checks on one word), ``batch``
(one report per input line) and ``selftest`` (corpus property suites).

Exit codes are a stable contract: 0 success, 2 input error, 3 verification
failure, which includes an engine contradiction (``ConsistencyError`` or
``SubstitutionError``), reported as one ``error:`` line, and 4 out of memory
(``MemoryError``), reported as the line ``error: out of memory``.  One place,
:func:`_failure`, maps the library's exceptions (:data:`_FAILURES`, a word
that does not parse included) to these codes and messages.  :func:`_run`
prints its message as one ``error:`` line, so no command exits by itself, and
``batch`` reports it as that line's error.  All behavior is controlled by
flags; there are no config files or environment variables.

:func:`main` may be called repeatedly in one process and reuses one parser,
built on its first call, while :func:`build_parser` still returns a fresh one.
That pays only for repeated in-process calls (the benchmark worker, the tests);
a console run calls :func:`main` once.  A line that names a command is
parsed once, by that command's own sub-parser; messages and exit codes stay
the full parser's.

``compute --json`` and ``analyze --json`` print the bytes of
``json.dumps(doc, indent=2)``, written by :func:`_indented_json`, since any
``indent`` turns off :mod:`json`'s C encoder.  ``batch --json`` prints compact
``json.dumps`` lines, which the C encoder writes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
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
from .invariants import ConsistencyError, alexander, braid_index_certificate
from .jaeger import DUAL, STANDARD, homfly_jaeger
from .polynomial import LaurentPoly2, SubstitutionError
from .resolver import homfly

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3
EXIT_MEMORY = 4

_METHODS = ("descending", "ascending", "jaeger", "jaeger-dual", "hecke")

# json's own escaper under ensure_ascii, in C where the interpreter has it
_quote = json.encoder.encode_basestring_ascii


def _indented_json(doc) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, for dicts with ``str`` keys.

    Any ``indent`` makes :mod:`json` leave its C encoder for its pure-Python
    one, which takes about twice this writer's time on an ``analyze`` report.
    """
    parts: list[str] = []
    _write_json(doc, "", parts.append)
    return "".join(parts)


def _write_json(value, pad: str, append) -> None:
    """Append the indented text of ``value`` at indentation ``pad``.

    Dicts and lists recurse, ``str`` goes through json's escaper and an
    ``int`` through its ``repr`` (both inline in the loops, the common case),
    ``True``, ``False`` and ``None`` are written as literals, and any other
    scalar goes through ``json.dumps``.  A key that is not a ``str`` raises
    ``TypeError``.
    """
    if isinstance(value, dict):
        if not value:
            append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            head = sep + _quote(key) + ": "
            kind = type(item)
            if kind is str:
                append(head + _quote(item))
            elif kind is int:
                append(head + int.__repr__(item))
            else:
                append(head)
                _write_json(item, inner, append)
            sep = ",\n" + inner
        append("\n" + pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for item in value:
            kind = type(item)
            if kind is str:
                append(sep + _quote(item))
            elif kind is int:
                append(sep + int.__repr__(item))
            else:
                append(sep)
                _write_json(item, inner, append)
            sep = ",\n" + inner
        append("\n" + pad + "]")
    elif value is True:
        append("true")
    elif value is False:
        append("false")
    elif value is None:
        append("null")
    else:
        append(json.dumps(value))


def _compute_method(word: BraidWord, method: str) -> LaurentPoly2:
    """The polynomial by one ``--method``; the tree modes are named as the methods."""
    if method == "hecke":
        return homfly_hecke(word)
    if method.startswith("jaeger"):
        return homfly_jaeger(word, DUAL if method == "jaeger-dual" else STANDARD)
    return homfly(word, method)


def _certificate_json(cert) -> dict:
    blocks = [
        {
            "first_strand": b.first_strand,
            "strands": b.word.strands,
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
        for b in cert.blocks
    ]
    return dict(cert._asdict(), blocks=blocks)


def _analyze_json(word: BraidWord) -> dict:
    perm, crossing_kinds = permutation_and_kinds(ResolvedDiagram.all_kept(word))
    flags = classify(word)
    cert = braid_index_certificate(word)
    poly = homfly_hecke(word)
    alex = alexander(word)
    return {
        "word": word.text(),
        "strands": word.strands,
        "crossings": len(word),
        "writhe": writhe(word),
        "permutation": {
            "cycles": perm.cycle_text(),
            "return_order": perm.return_order,
            "pivots": perm.pivots,
        },
        "crossing_kinds": crossing_kinds,
        "gap_profile": [t._asdict() for t in gap_profile(word)],
        "classification": flags._asdict(),
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
    word = parse_braid(args.word, args.strands)
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
        print(_indented_json(doc))
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
    word = parse_braid(args.word, args.strands)
    doc = _analyze_json(word)
    if args.json:
        print(_indented_json(doc))
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
    word = parse_braid(args.word, args.strands)
    # built per call, so that the check_* names are read when the command runs
    checkers = {
        "markov": functools.partial(check_markov, seed=args.seed, count=args.samples),
        "mirror": check_mirror,
        "skein": check_skein,
        "bijection": check_bijection,
    }
    moves = list(checkers) if args.moves == "all" else [args.moves]
    failures = []
    for move in moves:
        message = checkers[move](word)
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
    does not inherit it, so each ``batch`` worker lifts it once, as the
    pool's initializer.
    """
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


def _batch_line(item: tuple[int, str]) -> tuple[int, dict]:
    """Worker for one batch line, given as (line number, text before any ``#``).

    Returns (status, the line's record); a failure is the record's ``error``.
    """
    lineno, body = item
    try:
        strands = None
        if ";" in body:
            head, body = body.split(";", 1)
            try:
                strands = int(head.strip())
            except ValueError:
                raise BraidParseError(f"bad strand prefix {head.strip()!r}") from None
        return EXIT_OK, {"line": lineno, **_analyze_json(parse_braid(body, strands))}
    except _FAILURES as exc:
        status, message = _failure(exc)
        return status, {"line": lineno, "error": message}


def _print_reports(results, as_json: bool) -> int:
    """Print each (status, record) as it comes, in input order; return the worst status."""
    worst = EXIT_OK
    for status, doc in results:
        if as_json:
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
    except UnicodeDecodeError as exc:
        print(f"error: {args.file}: not UTF-8 text ({exc})", file=sys.stderr)
        return EXIT_INPUT
    items = [
        (lineno, body)
        for lineno, line in enumerate(lines, start=1)
        if (body := line.split("#", 1)[0].strip())
    ]
    # a worker beyond the CPU count only adds start-up and contention
    workers = min(args.jobs, len(items), os.cpu_count() or 1)
    if workers < 2:
        return _print_reports(map(_batch_line, items), args.json)
    # multiprocessing is a heavy import that only a parallel batch needs
    from concurrent.futures import ProcessPoolExecutor, process

    pool = ProcessPoolExecutor(workers, initializer=_print_any_int)
    # about eight chunks per worker, and at most 32 lines before the first report
    chunk = max(1, min(32, len(items) // (8 * workers)))
    try:
        return _print_reports(pool.map(_batch_line, items, chunksize=chunk), args.json)
    except process.BrokenProcessPool:
        print("error: a batch worker process died", file=sys.stderr)
        return EXIT_MEMORY
    finally:
        # a closed pipe or an interrupt stops the run: lines no one reads are not computed
        pool.shutdown(cancel_futures=True)


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
        status = "FAIL" if r.failures else "pass"
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

    p = sub.add_parser("compute", help="HOMFLY polynomial of a closed braid")
    add_word(p)
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument(
        "--method",
        choices=_METHODS + ("all",),
        default="descending",
        help="which expansion to evaluate; 'all' cross-checks every method",
    )
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("analyze", help="full diagram and invariant report")
    add_word(p)
    p.add_argument("--json", action="store_true", help="emit a JSON report")
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
    p.add_argument(
        "--jobs", type=int, default=1, help="parallel worker processes, at most the CPU count"
    )
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
def _shared_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser :func:`main` reuses and, read from it, its sub-parsers by name."""
    parser = build_parser()
    (commands,) = (
        action.choices
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return parser, commands


def main(argv: Optional[list[str]] = None) -> int:
    _print_any_int()
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _shared_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        # no command named, or help: the full parser reports it
        args = parser.parse_args(argv)
    else:
        # what the full parser does for a named command, with one pattern match
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return _run(args)


# what a command may raise and still end with a stated exit code
_FAILURES = (BraidParseError, ConsistencyError, SubstitutionError, MemoryError)


def _failure(exc: Exception) -> tuple[int, str]:
    """The exit code and the ``error:`` message for one of :data:`_FAILURES`.

    A word that does not parse (``BraidParseError``) is an input error, 2;
    an engine contradiction, where the polynomial broke an identity it must
    keep, is a verification failure, 3; and ``MemoryError`` is 4.
    """
    if isinstance(exc, MemoryError):
        return EXIT_MEMORY, "out of memory"
    return (EXIT_INPUT if isinstance(exc, BraidParseError) else EXIT_VERIFY), str(exc)


def _run(args: argparse.Namespace) -> int:
    """Run a parsed command; one of :data:`_FAILURES` exits with one ``error:`` line.

    A closed stdout (``BrokenPipeError``) ends the run quietly, with exit 0.
    """
    try:
        return args.func(args)
    except _FAILURES as exc:
        status, message = _failure(exc)
        print(f"error: {message}", file=sys.stderr)
        return status
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
