"""Golden CLI transcripts: the word list, the commands run on it, and their output.

``words.txt`` holds one ``[n;]word`` line per word, in ``batch``'s own
format.  For each word, :func:`commands` runs ``compute --method all`` and
``analyze``, each with and without ``--json``, and ``verify --moves all``;
``batch`` runs once on the whole file with and without ``--json``, at
``--jobs 1`` and ``2``.  Each run is ``braidpoly.cli.main`` called in this
process, and its transcript is its exit code, stdout and stderr.

``digests.txt`` holds one line per command, ``<digest>  <argv>``, so a
difference names the word; ``transcripts.json`` holds the full text for the
first :data:`FULL` words, so a reader can see what moved.  No argument line
here trips argparse: its usage and error text change between Python
releases, and only the package's own output is pinned.

Run from the repository root to rewrite all three files:

    PYTHONPATH=src python tests/golden/regenerate.py

Rewriting them changes test data: only a documented change of CLI output
should.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORDS = HERE / "words.txt"
DIGESTS = HERE / "digests.txt"
TRANSCRIPTS = HERE / "transcripts.json"

# the number of words, from the top of the list, whose full transcripts are kept
FULL = 20

# (strands override or None, word text), each picked for a reason
HAND_PICKED = [
    # README examples
    (None, "1 1 1"),
    (3, ""),
    (None, "-1 3 -2 -4 -4 -4 1 -3"),
    (None, "1 -2 1 -2"),
    # the empty word on one strand
    (1, ""),
    # split closures: an empty gap cuts the word into blocks
    (None, "1 1 -3 -3"),
    (None, "1 1 1 4 4 4"),
    (None, "-1 -1 3 3"),
    (7, "1 -1 4 4"),
    (7, "4"),
    # single-letter end gaps that destabilize
    (None, "1 2"),
    (None, "1 1 -2"),
    (None, "-1 -1 2 2 -1"),
    (None, "1 2 -1 -3 2 2"),
    # words that do not parse (BraidParseError, exit 2)
    (None, "1 x"),
    (None, "1 0"),
    (3, "5"),
    # strand overrides on words that need fewer strands
    (5, "1 1 1"),
    (6, "-1 3 -2 -4 -4 -4 1 -3"),
    (6, "1 1 -3"),
    (5, "1 -2 3 -4 1 -2 3 -4"),
    (None, "1 1 1 -2 -2 1 1"),
    (None, "1 -2 1 -2 3 3"),
    # more words that do not parse
    (None, "0"),
    (None, "1.5"),
    (None, "1 -0"),
    (1, "1"),
]

RANDOM_COUNT = 60
RANDOM_SEED = 4242


def word_lines() -> list[str]:
    """The lines of ``words.txt``, built from the hand-picked and the seeded words."""
    from braidpoly.corpus import random_words

    lines = [f"{n};{text}" if n is not None else text for n, text in HAND_PICKED]
    for word in random_words(RANDOM_COUNT, max_crossings=10, max_strands=5, seed=RANDOM_SEED):
        # the prefix keeps words whose last strands no letter touches
        lines.append(f"{word.strands};{word.text()}")
    return list(dict.fromkeys(lines))


def split_line(line: str) -> tuple[list[str], str]:
    """A ``words.txt`` line as its ``--strands`` arguments and its word."""
    if ";" not in line:
        return [], line
    head, text = line.split(";", 1)
    return ["--strands", head], text


def commands(lines: list[str]) -> list[list[str]]:
    """Every argument line the transcripts record, word by word, then the batches."""
    argvs = []
    for line in lines:
        strands, text = split_line(line)
        for head in (
            ["compute", "--method", "all"],
            ["compute", "--method", "all", "--json"],
            ["analyze"],
            ["analyze", "--json"],
            ["verify", "--moves", "all"],
        ):
            argvs.append(head + strands + ["--", text])
    for jobs in ("1", "2"):
        argvs.append(["batch", WORDS.name, "--jobs", jobs])
        argvs.append(["batch", WORDS.name, "--jobs", jobs, "--json"])
    return argvs


def transcript(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``braidpoly.cli.main(argv)``."""
    from braidpoly.cli import main

    argv = [str(WORDS) if a == WORDS.name else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(record: tuple[int, str, str]) -> str:
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()[:16]


def label(argv: list[str]) -> str:
    return shlex.join(argv)


def full_labels(lines: list[str]) -> set[str]:
    """The argument lines of the first :data:`FULL` words."""
    return {label(a) for a in commands(lines[:FULL]) if a[0] != "batch"}


def as_json(record: tuple[int, str, str]) -> dict:
    code, out, err = record
    return {"exit": code, "stdout": out.split("\n"), "stderr": err.split("\n")}


def main() -> int:
    lines = word_lines()
    WORDS.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    full = full_labels(lines)
    digests, transcripts = [], {}
    for argv in commands(lines):
        record = transcript(argv)
        digests.append(f"{digest(record)}  {label(argv)}\n")
        if label(argv) in full:
            transcripts[label(argv)] = as_json(record)
    DIGESTS.write_text("".join(digests), encoding="utf-8")
    TRANSCRIPTS.write_text(json.dumps(transcripts, indent=1) + "\n", encoding="utf-8")
    print(f"{len(lines)} words, {len(digests)} commands, {len(transcripts)} full transcripts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
