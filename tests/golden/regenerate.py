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

``wide.txt`` holds a second list, :func:`wide_words`: words of 10 to 30
strands from the families README times the trace on, and words of many
split blocks, where the trace runs on pieces no tree in the suite checks.
For each, :func:`wide_commands` runs ``compute --method hecke --json`` and
``analyze --json``, and ``wide_digests.txt`` holds their digests in the
same format.  Their values come from the trace alone; ``tests/test_golden.py``
checks them against the tree where it is cheap and against the Burau matrix
everywhere.

Run from the repository root to rewrite all five files:

    PYTHONPATH=src python tests/golden/regenerate.py

Rewriting them changes test data: only a documented change of CLI output
should.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shlex
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORDS = HERE / "words.txt"
DIGESTS = HERE / "digests.txt"
TRANSCRIPTS = HERE / "transcripts.json"
WIDE = HERE / "wide.txt"
WIDE_DIGESTS = HERE / "wide_digests.txt"

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

WIDE_SEED = 1818

# item 9 of ROADMAP: 30 strands, 120 letters, writhe -18; it ran out of memory in an early trace
ROADMAP_ITEM_9 = (
    "28 13 26 -21 12 -22 -10 -20 -6 2 -11 14 23 18 8 -25 -4 -1 -19 -2 -27 -17 -29 17 -13 -7 "
    "-28 2 -21 -14 1 -5 -8 -6 -12 -15 12 19 -24 -14 3 28 -26 14 -16 -17 -9 5 -20 -22 -18 -15 "
    "9 18 8 26 -8 -4 -7 -19 -13 -20 17 -2 15 -10 -1 -28 -6 -27 22 24 11 -24 -12 -17 10 -11 "
    "-3 6 -6 -22 -13 -29 17 -9 9 20 16 6 -28 28 -6 6 27 -12 7 3 -3 6 24 28 12 29 -23 15 21 "
    "-18 5 -17 -2 22 -18 11 -26 -1 -25 -29 29 17"
)


def word_lines() -> list[str]:
    """The lines of ``words.txt``, built from the hand-picked and the seeded words."""
    from braidpoly.corpus import random_words

    lines = [f"{n};{text}" if n is not None else text for n, text in HAND_PICKED]
    for word in random_words(RANDOM_COUNT, max_crossings=10, max_strands=5, seed=RANDOM_SEED):
        # the prefix keeps words whose last strands no letter touches
        lines.append(f"{word.strands};{word.text()}")
    return list(dict.fromkeys(lines))


def _dense(rng: random.Random, m: int, negative: float = 0.5) -> list[int]:
    """3(m - 1) + 1 letters, every gap at least twice, each negative with odds ``negative``."""
    gaps = [g for g in range(1, m) for _ in (0, 1)] + [rng.randint(1, m - 1) for _ in range(m)]
    rng.shuffle(gaps)
    return [-g if rng.random() < negative else g for g in gaps]


def _each_gap(rng: random.Random, m: int, low: int, high: int, sign) -> list[int]:
    """``low`` to ``high`` letters at every gap, shuffled, signed by ``sign(rng, gap)``."""
    gaps = [g for g in range(1, m) for _ in range(rng.randint(low, high))]
    rng.shuffle(gaps)
    return [g * sign(rng, g) for g in gaps]


def _coin(rng: random.Random, gap: int) -> int:
    return rng.choice((1, -1))


def _parity(rng: random.Random, gap: int) -> int:
    return 1 if gap % 2 else -1


def _negative(rng: random.Random, gap: int) -> int:
    return -1


def _random(rng: random.Random, m: int) -> list[int]:
    """6m letters at uniformly drawn gaps, each sign drawn with even odds (ROADMAP item 19)."""
    return [rng.randint(1, m - 1) * rng.choice((1, -1)) for _ in range(6 * m)]


def _descending(rng: random.Random, m: int) -> list[int]:
    """A dense word with each letter's sign set so that the all-kept diagram is descending.

    Flipping a letter's sign keeps the walk's path and swaps the arms of its
    crossing, so flipping each ascending letter once makes every one descending.
    """
    from braidpoly.braid import BraidWord, ResolvedDiagram, classify_crossings

    letters = _dense(rng, m)
    kinds = classify_crossings(ResolvedDiagram.all_kept(BraidWord(tuple(letters), m)))
    return [-t if kind == "ascending" else t for t, kind in zip(letters, kinds)]


def wide_words() -> list[tuple[str, int, list[int]]]:
    """The wide words as ``(family, strands, letters)``, in the order of ``wide.txt``.

    The families are README's, at sizes the trace finishes in tens of
    milliseconds: *dense*, *sign-biased* (dense, 80% negative), *each gap
    twice* with random signs and with signs by gap parity, *alternating*
    (2-3 letters per gap, signs by gap parity), *all-negative* (each gap
    twice) and *descending*; then the torus word T(5, 11), the staircase
    sigma_1 ... sigma_21, ROADMAP item 9's word and three words of many
    split blocks.  Then come four words whose whole pieces stay wide, which
    the trace takes 1-20 ms on: the torus word T(7, 8), two alternating
    words on 14 strands and one each-gap-twice word on 16 strands with signs
    by gap parity.  Last come words whose pieces only the top-gap-first
    schedule keeps small (a search over rotations took 4.6 s to past 40 s on
    them): each gap twice with parity signs on 24 and 26 strands, and two
    random words of 6m letters on 16 and 20 strands, which take up to about
    0.9 s.  Like every wide word's, their values come from the code under
    test; the Burau check and the trace-side identities in
    ``tests/test_golden.py`` back them.
    """
    rng = random.Random(WIDE_SEED)
    out = [("dense", m, _dense(rng, m)) for m in (10, 12, 14, 16, 20, 24)]
    out += [("sign-biased", m, _dense(rng, m, 0.8)) for m in (12, 14, 16)]
    out += [("each gap twice", m, _each_gap(rng, m, 2, 2, _coin)) for m in (10, 12, 14)]
    out += [("each gap twice, parity", m, _each_gap(rng, m, 2, 2, _parity)) for m in (10, 12, 14)]
    out += [("alternating", m, _each_gap(rng, m, 2, 3, _parity)) for m in (10, 11)]
    out += [("all-negative", m, _each_gap(rng, m, 2, 2, _negative)) for m in (12, 16, 20)]
    out += [("descending", m, _descending(rng, m)) for m in (12, 16, 24, 30)]
    out += [
        ("torus", 5, [1, 2, 3, 4] * 11),
        ("staircase", 22, list(range(1, 22))),
        ("roadmap item 9", 30, [int(t) for t in ROADMAP_ITEM_9.split()]),
        ("split", 100, list(range(1, 100, 2))),
        # a trefoil beside a block of 12 strands with each gap doubled
        ("split", 15, [1, 1, 1] + [g for g in range(4, 15) for _ in (0, 1)]),
        ("split", 200, [1]),
    ]
    # words whose pieces stay wide, appended so that the rng draws above stay as they were
    out += [
        ("torus", 7, [1, 2, 3, 4, 5, 6] * 8),
        ("alternating", 14, _each_gap(rng, 14, 2, 3, _parity)),
        ("alternating", 14, _each_gap(rng, 14, 2, 3, _parity)),
        ("each gap twice, parity", 16, _each_gap(rng, 16, 2, 2, _parity)),
    ]
    # words that only the top-gap-first schedule finishes in under a second, appended in turn;
    # the random ones are ROADMAP item 19's draws of seeds 1 and 2 (BENCH_packedtrace.json)
    out += [
        ("each gap twice, parity", 24, _each_gap(rng, 24, 2, 2, _parity)),
        ("each gap twice, parity", 26, _each_gap(rng, 26, 2, 2, _parity)),
        ("random", 16, _random(random.Random(1), 16)),
        ("random", 20, _random(random.Random(2), 20)),
    ]
    return out


def wide_lines() -> list[str]:
    """The lines of ``wide.txt``."""
    return [f"{m};{' '.join(map(str, letters))}" for _, m, letters in wide_words()]


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


def wide_commands(lines: list[str]) -> list[list[str]]:
    """The argument lines ``wide_digests.txt`` records, word by word."""
    argvs = []
    for line in lines:
        strands, text = split_line(line)
        for head in (["compute", "--method", "hecke", "--json"], ["analyze", "--json"]):
            argvs.append(head + strands + ["--", text])
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
    wide = wide_lines()
    WIDE.write_text("".join(line + "\n" for line in wide), encoding="utf-8")
    digests = [f"{digest(transcript(argv))}  {label(argv)}\n" for argv in wide_commands(wide)]
    WIDE_DIGESTS.write_text("".join(digests), encoding="utf-8")
    print(f"{len(wide)} wide words, {len(digests)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
