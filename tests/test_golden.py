"""Golden CLI transcripts: every recorded command still prints the same bytes.

The word list, the commands and their recorded output live in
``tests/golden/`` (see ``tests/golden/regenerate.py``, which rewrites them).
"""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def _load():
    spec = importlib.util.spec_from_file_location("_golden_regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load()


def test_the_word_list_is_what_regenerate_writes():
    assert golden.word_lines() == golden.WORDS.read_text(encoding="utf-8").splitlines()


def test_every_command_prints_its_recorded_transcript():
    lines = golden.WORDS.read_text(encoding="utf-8").splitlines()
    recorded = [
        line.split("  ", 1) for line in golden.DIGESTS.read_text(encoding="utf-8").splitlines()
    ]
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
