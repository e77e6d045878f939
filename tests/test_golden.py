"""Golden CLI transcripts: every recorded command still prints the same bytes.

The word lists, the commands and their recorded output live in
``tests/golden/`` (see ``tests/golden/regenerate.py``, which rewrites them).
The wide words' values come from the trace alone, so the last tests check
them against code that shares nothing with it: the descending tree where it
resolves them cheaply, and the Burau matrix on every one.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from braidpoly import BraidWord, alexander, homfly, homfly_hecke

from _burau import burau_matches

GOLDEN = Path(__file__).resolve().parent / "golden"


def _load():
    spec = importlib.util.spec_from_file_location("_golden_regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load()


def test_the_word_list_is_what_regenerate_writes():
    assert golden.word_lines() == golden.WORDS.read_text(encoding="utf-8").splitlines()


def _recorded(path):
    """``(digest, label)`` per line of a digest file."""
    return [line.split("  ", 1) for line in path.read_text(encoding="utf-8").splitlines()]


def test_every_command_prints_its_recorded_transcript():
    lines = golden.WORDS.read_text(encoding="utf-8").splitlines()
    recorded = _recorded(golden.DIGESTS)
    full = json.loads(golden.TRANSCRIPTS.read_text(encoding="utf-8"))
    argvs = golden.commands(lines)
    assert [golden.label(a) for a in argvs] == [label for _, label in recorded]
    assert set(full) == golden.full_labels(lines)
    moved = []
    for argv, (digest, label) in zip(argvs, recorded):
        record = golden.transcript(argv)
        if label in full:
            assert golden.as_json(record) == full[label], label
        if golden.digest(record) != digest:
            moved.append(label)
    assert not moved, moved


def test_the_wide_word_list_is_what_regenerate_writes():
    assert golden.wide_lines() == golden.WIDE.read_text(encoding="utf-8").splitlines()


def test_every_wide_command_prints_its_recorded_digest():
    lines = golden.WIDE.read_text(encoding="utf-8").splitlines()
    recorded = _recorded(golden.WIDE_DIGESTS)
    argvs = golden.wide_commands(lines)
    assert [golden.label(a) for a in argvs] == [label for _, label in recorded]
    moved = [
        label
        for argv, (digest, label) in zip(argvs, recorded)
        if golden.digest(golden.transcript(argv)) != digest
    ]
    assert not moved, moved


WIDE_WORDS = golden.wide_words()


def _ids(words):
    return [f"{family}-{strands}" for family, strands, _ in words]


# the tree has one leaf on a descending word and took at most about 9 ms on these all-negative ones
CHEAP_FOR_THE_TREE = [
    w for w in WIDE_WORDS if w[0] in ("descending", "all-negative") and w[1] <= 16
]


@pytest.mark.parametrize("family, strands, letters", CHEAP_FOR_THE_TREE, ids=_ids(CHEAP_FOR_THE_TREE))
def test_the_wide_trace_equals_the_tree_where_the_tree_is_cheap(family, strands, letters):
    word = BraidWord(tuple(letters), strands)
    assert homfly_hecke(word) == homfly(BraidWord(tuple(letters), strands))


@pytest.mark.parametrize("family, strands, letters", WIDE_WORDS, ids=_ids(WIDE_WORDS))
def test_the_wide_alexander_polynomial_equals_the_burau_minor(family, strands, letters):
    delta = alexander(BraidWord(tuple(letters), strands)).delta
    for q in (2, 3):
        assert burau_matches(strands, letters, delta.terms(), q), q
