import inspect
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import braidpoly.braid
import braidpoly.checks
import braidpoly.cli
import braidpoly.hecke
from braidpoly import LaurentPoly2, SubstitutionError, homfly, parse_braid
from braidpoly.checks import CheckResult
from braidpoly.cli import build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"
TREFOIL = "a^-2*z^2 + 2*a^-2 - a^-4"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_annotations_resolve():
    functions = [
        fn
        for _, fn in inspect.getmembers(braidpoly.cli, inspect.isfunction)
        if fn.__module__ == braidpoly.cli.__name__
    ]
    assert functions
    for fn in functions:
        typing.get_type_hints(fn)


class TestCompute:
    def test_all_methods_agree(self, capsys):
        code, out, _ = run(capsys, "compute", "1 1 1", "--method", "all")
        assert code == 0
        assert TREFOIL in out
        assert "all methods agree" in out

    def test_all_includes_the_hecke_trace(self, capsys):
        argv = ["compute", "1 -2 3 -4 1 -2 3 -4", "--strands", "5", "--method", "all"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert [line.split(")")[0] for line in out.splitlines() if line.startswith("P (")] == [
            "P (descending", "P (ascending", "P (jaeger", "P (jaeger-dual", "P (hecke",
        ]
        assert out.splitlines()[-1] == "all methods agree"
        code, out, _ = run(capsys, *argv, "--json")
        doc = json.loads(out)
        assert list(doc["homfly"]) == ["descending", "ascending", "jaeger", "jaeger-dual", "hecke"]
        assert doc["methods_agree"] is True

    def test_all_on_a_word_with_letterless_columns(self, capsys):
        # columns 3, 6 and 7 carry no letter
        code, out, _ = run(capsys, "compute", "1 -1 4 4", "--strands", "7", "--method", "all")
        assert code == 0
        assert len([line for line in out.splitlines() if line.startswith("P (")]) == 5
        assert out.splitlines()[-1] == "all methods agree"

    def test_all_includes_the_trace_on_a_block_that_destabilizes(self, capsys, hecke_evaluations):
        # one 13-strand block, but every gap holds one letter: the closure is the unknot
        text = " ".join(str(g) for g in range(1, 13))
        code, out, _ = run(capsys, "compute", text, "--method", "all")
        assert code == 0
        assert "P (hecke): 1" in out.splitlines()
        assert out.splitlines()[-1] == "all methods agree"
        assert len(hecke_evaluations) == 1

    def test_hecke_method_alone(self, capsys):
        code, out, _ = run(capsys, "compute", "1 1 1", "--method", "hecke")
        assert code == 0
        assert out.splitlines()[-1] == f"P (hecke): {TREFOIL}"

    def test_all_includes_the_trace_on_a_wide_block(self, capsys, hecke_evaluations):
        # every gap holds two letters, so destabilizing cannot narrow the 12-strand block
        text = " ".join(f"{g} {g}" if g % 2 else f"{-g} {-g}" for g in range(1, 12))
        code, out, _ = run(capsys, "compute", text, "--method", "all")
        assert code == 0
        assert [line.split(")")[0] for line in out.splitlines() if line.startswith("P (")] == [
            "P (descending", "P (ascending", "P (jaeger", "P (jaeger-dual", "P (hecke",
        ]
        assert out.splitlines()[-1] == "all methods agree"
        code, out, _ = run(capsys, "compute", text, "--method", "all", "--json")
        doc = json.loads(out)
        assert list(doc["homfly"]) == ["descending", "ascending", "jaeger", "jaeger-dual", "hecke"]
        assert doc["methods_agree"] is True
        # one trace per run, each on the whole block
        assert hecke_evaluations == [(parse_braid(text).tokens(), 12)] * 2

    def test_hecke_on_a_wide_block_prints_the_tree_polynomial(self, capsys, hecke_evaluations):
        text = " ".join(f"{g} {g}" for g in range(1, 12))
        code, out, err = run(capsys, "compute", text, "--method", "hecke")
        assert code == 0
        assert err == ""
        assert out.splitlines()[-1] == f"P (hecke): {homfly(parse_braid(text)).to_text()}"
        assert len(hecke_evaluations) == 1

    def test_hecke_disagreement_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(braidpoly.cli, "homfly_hecke", lambda word: LaurentPoly2.one())
        code, out, err = run(capsys, "compute", "1 1 1", "--method", "all")
        assert code == 3
        assert "METHOD DISAGREEMENT" in out
        assert "methods disagree" in err

    def test_trivial_link_exact_text(self, capsys):
        code, out, _ = run(capsys, "compute", "", "--strands", "3")
        assert code == 0
        assert "a^2*z^-2 - 2*z^-2 + a^-2*z^-2" in out

    def test_zero_token_exits_2(self, capsys):
        code, _, err = run(capsys, "compute", "0")
        assert code == 2
        assert "zero" in err

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "compute", "1 1 1", "--json", "--method", "descending")
        assert code == 0
        doc = json.loads(out)
        assert doc["word"] == "1 1 1"
        assert doc["strands"] == 2 and doc["writhe"] == 3
        poly = LaurentPoly2.from_json_terms(doc["homfly"]["descending"])
        assert poly == homfly(parse_braid("1 1 1"))

    def test_strands_override_split_union(self, capsys):
        code, out, _ = run(capsys, "compute", "1 1", "--strands", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        got = LaurentPoly2.from_json_terms(doc["homfly"]["descending"])
        hopf = homfly(parse_braid("1 1"))
        unknot_factor = LaurentPoly2.from_text("a*z^-1 - a^-1*z^-1")
        assert got == hopf * unknot_factor


class TestAnalyze:
    def test_running_example_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "-1 3 -2 -4 -4 -4 1 -3")
        assert code == 0
        assert "(1 4)(2)(3 5)" in out
        assert "return order: 1 4 2 3 5" in out

    def test_figure_eight_certificate_line(self, capsys):
        code, out, _ = run(capsys, "analyze", "1 -2 1 -2")
        assert code == 0
        assert "braid index = 3" in out

    def test_any_word_gives_wellformed_json(self, capsys):
        code, out, _ = run(capsys, "analyze", "1 2 -1 2", "--json")
        assert code == 0
        doc = json.loads(out)
        for key in (
            "word", "strands", "writhe", "permutation", "gap_profile",
            "classification", "homfly", "degrees", "mfw_lower_bound",
            "braid_index", "alexander",
        ):
            assert key in doc

    def test_parse_error_exits_2(self, capsys):
        code, _, _ = run(capsys, "analyze", "1 junk")
        assert code == 2

    def test_json_report_walks_the_diagram_once(self, capsys, monkeypatch):
        walks = []
        walk = braidpoly.braid.walk

        def counted(word, states):
            walks.append(word.letters)
            return walk(word, states)

        monkeypatch.setattr(braidpoly.braid, "walk", counted)
        code, out, _ = run(capsys, "analyze", "-1 3 -2 -4 -4 -4 1 -3", "--json")
        assert code == 0
        assert walks == [(-1, 3, -2, -4, -4, -4, 1, -3)]
        doc = json.loads(out)
        assert doc["permutation"]["cycles"] == "(1 4)(2)(3 5)"
        assert doc["crossing_kinds"] == ["descending"] * 4 + ["ascending"] + ["descending"] * 3


class TestVerify:
    def test_trefoil_all_checks_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "1 1 1", "--moves", "all", "--samples", "10", "--seed", "7"
        )
        assert code == 0
        for move in ("markov", "mirror", "skein", "bijection"):
            assert f"{move}: pass" in out

    def test_mirror_only(self, capsys):
        code, out, _ = run(capsys, "verify", "1 -2 1 -2", "--moves", "mirror")
        assert code == 0
        assert "mirror: pass" in out

    def test_injected_failure_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(braidpoly.cli, "check_mirror", lambda word: "injected failure")
        code, out, _ = run(capsys, "verify", "1", "--moves", "mirror")
        assert code == 3
        assert "FAIL" in out

    def test_bad_samples_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "1", "--samples", "0")
        assert code == 2


class TestBatch:
    def test_reports_in_input_order(self, tmp_path, capsys):
        batch = tmp_path / "words.txt"
        batch.write_text("1 1 1\n# a comment\n1 -2 1 -2\n")
        code, out, _ = run(capsys, "batch", str(batch), "--json")
        assert code == 0
        docs = [json.loads(line) for line in out.splitlines()]
        assert [d["word"] for d in docs] == ["1 1 1", "1 -2 1 -2"]
        assert docs[0]["line"] == 1 and docs[1]["line"] == 3

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        batch = tmp_path / "words.txt"
        batch.write_bytes(b"\xef\xbb\xbf1 1 1\n1 -2 1 -2\n")
        code, out, err = run(capsys, "batch", str(batch), "--json")
        assert (code, err) == (0, "")
        docs = [json.loads(line) for line in out.splitlines()]
        assert [(d["line"], d["word"]) for d in docs] == [(1, "1 1 1"), (2, "1 -2 1 -2")]

    def test_empty_file(self, tmp_path, capsys):
        batch = tmp_path / "empty.txt"
        batch.write_text("")
        code, out, _ = run(capsys, "batch", str(batch), "--json")
        assert code == 0
        assert out.strip() == ""

    def test_strand_prefix_line(self, tmp_path, capsys):
        batch = tmp_path / "words.txt"
        batch.write_text("3;1 1\n")
        code, out, _ = run(capsys, "batch", str(batch), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["strands"] == 3
        got = LaurentPoly2.from_json_terms(doc["homfly"]["descending"])
        assert got == homfly(parse_braid("1 1")) * LaurentPoly2.from_text(
            "a*z^-1 - a^-1*z^-1"
        )

    def test_bad_line_reported_inline_and_worst_status(self, tmp_path, capsys):
        batch = tmp_path / "words.txt"
        batch.write_text("1 1 1\n0\n")
        code, out, _ = run(capsys, "batch", str(batch), "--json")
        assert code == 2
        docs = [json.loads(line) for line in out.splitlines()]
        assert "error" in docs[1]

    def test_substitution_error_reported_inline_exits_3(self, tmp_path, capsys, monkeypatch):
        analyze = braidpoly.cli._analyze_json

        def failing_on_figure_eight(word):
            if word.text() == "1 -2 1 -2":
                raise SubstitutionError("injected substitution failure")
            return analyze(word)

        monkeypatch.setattr(braidpoly.cli, "_analyze_json", failing_on_figure_eight)
        batch = tmp_path / "words.txt"
        batch.write_text("1 1 1\n1 -2 1 -2\n2 2 1\n")
        code, out, _ = run(capsys, "batch", str(batch), "--json", "--jobs", "1")
        assert code == 3
        docs = [json.loads(line) for line in out.splitlines()]
        assert [d["line"] for d in docs] == [1, 2, 3]
        assert docs[1] == {"line": 2, "error": "injected substitution failure"}
        assert [docs[0]["word"], docs[2]["word"]] == ["1 1 1", "2 2 1"]

    def test_parallel_output_matches_sequential(self, tmp_path, capsys):
        batch = tmp_path / "words.txt"
        batch.write_text("1 1 1\n1 -2 1 -2\n-1 3 -2 -4 -4 -4 1 -3\n2 2 1\n")
        code1, out1, _ = run(capsys, "batch", str(batch), "--json")
        code2, out2, _ = run(capsys, "batch", str(batch), "--json", "--jobs", "3")
        assert (code1, out1) == (code2, out2)

    @pytest.mark.parametrize(
        "text, pools",
        [("1 1 1\n", []), ("# only a comment\n", []), ("1 1 1\n# note\n2 2 1\n", [2])],
    )
    def test_pool_is_no_larger_than_the_file(self, tmp_path, capsys, monkeypatch, text, pools):
        import concurrent.futures

        built = []
        pool_class = concurrent.futures.ProcessPoolExecutor

        def counted(max_workers=None, **kwargs):
            built.append(max_workers)
            return pool_class(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)
        batch = tmp_path / "words.txt"
        batch.write_text(text)
        parallel = run(capsys, "batch", str(batch), "--json", "--jobs", "4")
        assert built == pools
        assert parallel == run(capsys, "batch", str(batch), "--json", "--jobs", "1")

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "batch", "/does/not/exist")
        assert code == 2

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_bad_jobs_exits_2(self, tmp_path, capsys, jobs):
        batch = tmp_path / "words.txt"
        batch.write_text("1 1 1\n")
        code, out, err = run(capsys, "batch", str(batch), "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert err == "error: --jobs must be >= 1\n"

    def test_text_mode(self, tmp_path, capsys):
        batch = tmp_path / "words.txt"
        batch.write_text("1 1 1\n")
        code, out, _ = run(capsys, "batch", str(batch))
        assert code == 0
        assert "P = " in out


@pytest.fixture
def default_int_digits():
    """Put back the interpreter's default cap of 4,300 digits on int-to-text for the test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


class TestLongCoefficients:
    """A coefficient of more than 4,300 digits is printed, not refused."""

    DIGITS = "7" * 5000

    @pytest.fixture(autouse=True)
    def long_trace(self, monkeypatch, default_int_digits):
        # P = C*a^-2 + a^-4 keeps the degrees that the trefoil's certificate checks
        # (built without int-from-text, which the cap also refuses)
        poly = LaurentPoly2({(0, -2): 7 * (10**5000 - 1) // 9, (0, -4): 1})
        monkeypatch.setattr(braidpoly.hecke, "_block_trace", lambda core: poly)

    def test_compute(self, capsys):
        code, out, _ = run(capsys, "compute", "1 1 1", "--method", "hecke")
        assert code == 0
        assert f"P (hecke): {self.DIGITS}*a^-2 + a^-4" in out.splitlines()

    def test_analyze(self, capsys):
        code, out, _ = run(capsys, "analyze", "1 1 1", "--json")
        assert code == 0
        assert json.loads(out)["homfly_text"] == f"{self.DIGITS}*a^-2 + a^-4"

    def test_batch(self, capsys, tmp_path):
        batch = tmp_path / "words.txt"
        batch.write_text("1 1 1\n")
        code, out, _ = run(capsys, "batch", str(batch), "--jobs", "1", "--json")
        assert code == 0
        assert json.loads(out)["homfly_text"] == f"{self.DIGITS}*a^-2 + a^-4"


class TestSelftest:
    def test_tiny_exhaustive_run_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "selftest",
            "--max-crossings", "3",
            "--max-strands", "2",
            "--samples", "40",
            "--seed", "1",
        )
        assert code == 0
        assert "four-method equality: pass" in out
        assert "bijection: pass" in out

    def test_crossingless_corpus(self, capsys):
        code, out, _ = run(
            capsys, "selftest", "--max-crossings", "0", "--max-strands", "3",
            "--samples", "10",
        )
        assert code == 0

    def test_injected_failure_exits_3(self, capsys, monkeypatch):
        failing = CheckResult("injected", checked=1, failures=["injected failure"])
        monkeypatch.setattr(braidpoly.cli, "run_selftest", lambda **kwargs: [failing])
        code, _, _ = run(
            capsys,
            "selftest",
            "--max-crossings", "1",
            "--max-strands", "2",
            "--samples", "5",
        )
        assert code == 3

    @pytest.mark.parametrize(
        "option, value, minimum",
        [
            ("--samples", "0", 1),
            ("--samples", "-1", 1),
            ("--max-strands", "0", 1),
            ("--max-strands", "-2", 1),
            ("--max-crossings", "-1", 0),
        ],
    )
    def test_out_of_range_argument_exits_2(self, capsys, option, value, minimum):
        argv = ["selftest", "--max-crossings", "2", "--max-strands", "2", "--samples", "5"]
        argv[argv.index(option) + 1] = value
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {option} must be >= {minimum}\n"


class TestSearchCounts:
    """Evaluations per CLI call: each word object is evaluated once per engine.

    ``analyze`` takes its polynomials from the Hecke trace, so it runs no
    leaf search.
    """

    @pytest.mark.parametrize("word", ["1 2 -1 2", "1 -2 1 -2", "-1 2 -1 2 2"])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_analyze_single_block_searches_once(
        self, capsys, leaf_searches, hecke_evaluations, word, json_flag
    ):
        code, _, _ = run(capsys, "analyze", word, *json_flag)
        assert code == 0
        assert leaf_searches == []
        assert len(hecke_evaluations) == 1

    @pytest.mark.parametrize(
        "word, certifiable_blocks", [("1 1 -3 -3", 2), ("1 1 -3 -3 3", 1), ("1 -1 -3 3", 0)]
    )
    def test_analyze_multi_block_searches_each_certifiable_block(
        self, capsys, leaf_searches, hecke_evaluations, word, certifiable_blocks
    ):
        # the whole word's trace traces each split block once, and the
        # certificate reads the certifiable blocks' polynomials from their memo
        code, out, _ = run(capsys, "analyze", word, "--json")
        assert code == 0
        assert leaf_searches == []
        blocks = parse_braid(word).split_blocks
        assert sorted(hecke_evaluations) == sorted((b.tokens(), b.strands) for _, b in blocks)
        assert len(hecke_evaluations) == 2
        certified = [b["certified"] for b in json.loads(out)["braid_index"]["blocks"]]
        assert certified.count(True) == certifiable_blocks

    @pytest.mark.parametrize("word", ["1 1 1", "1 -2 1 2 2"])
    def test_verify_skein_searches_original_word_once(self, capsys, leaf_searches, word):
        code, _, _ = run(capsys, "verify", word, "--moves", "skein")
        assert code == 0
        assert len(leaf_searches) == 2 * len(word.split()) + 1


    def test_selftest_searches_each_corpus_word_once_per_suite_and_mode(
        self, capsys, leaf_searches, hecke_evaluations, monkeypatch
    ):
        # leaf searches and Hecke traces per suite, from the counts before and
        # after each one
        per_suite = {}
        hecke_per_suite = {}
        run_suite = braidpoly.checks._run

        def counted(name, words, checker):
            before = len(leaf_searches), len(hecke_evaluations)
            result = run_suite(name, words, checker)
            per_suite[name] = len(leaf_searches) - before[0]
            hecke_per_suite[name] = len(hecke_evaluations) - before[1]
            return result

        monkeypatch.setattr(braidpoly.checks, "_run", counted)
        code, _, _ = run(
            capsys, "selftest", "--max-crossings", "2", "--max-strands", "2", "--samples", "10"
        )
        assert code == 0
        n = len(braidpoly.checks.selftest_corpus(2, 2, 10, 1))
        # both modes of every corpus word for the polynomials and once more for
        # the bijection; the mirror and each of the five Markov variants is a
        # new word.  The alternating suites run on a corpus of their own.
        alternating = ("reduced alternating degree law", "Alexander unit leading coefficient")
        assert {k: v for k, v in per_suite.items() if k not in alternating} == {
            "four-method equality": 2 * n,
            "MFW degree window": 0,
            "leaf/partition bijection": 2 * n,
            "mirror identity": n,
            "Markov-move invariance": 5 * n,
        }
        # the equality suite traces every corpus word once, except the two
        # empty words on two strands, which split into free strands that need
        # no trace; the MFW suite reads the same word objects' memo
        assert {k: v for k, v in hecke_per_suite.items() if k not in alternating} == {
            "four-method equality": n - 2,
            "MFW degree window": 0,
            "leaf/partition bijection": 0,
            "mirror identity": 0,
            "Markov-move invariance": 0,
        }


def _actions(parser):
    """Every action of ``parser`` and of its subcommand parsers."""
    for action in parser._actions:
        yield action
        if isinstance(action.choices, dict):  # the subcommand parsers
            for sub in action.choices.values():
                yield from _actions(sub)


class TestParserReuse:
    """``main`` shares one parser across calls; ``build_parser`` stays fresh."""

    def test_two_calls_build_the_parser_once(self, capsys, monkeypatch):
        built = []

        def counted():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(braidpoly.cli, "build_parser", counted)
        braidpoly.cli._shared_parser.cache_clear()
        try:
            assert run(capsys, "compute", "1 1 1")[0] == 0
            assert run(capsys, "analyze", "1 -2 1 -2")[0] == 0
        finally:
            braidpoly.cli._shared_parser.cache_clear()
        assert len(built) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "1 -2 1 -2", "--method", "all", "--json"],
            ["analyze", "-1 3 -2 -4 -4 -4 1 -3"],
            ["verify", "1 1 1", "--moves", "all", "--samples", "5"],
            ["compute", "1 junk"],
        ],
    )
    def test_same_argv_twice_gives_identical_output(self, capsys, argv):
        assert run(capsys, *argv) == run(capsys, *argv)

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["compute", "1", "--method", "bogus"], 2),
            (["analyze"], 2),
            (["--help"], 0),
            (["verify", "--help"], 0),
        ],
    )
    def test_usage_error_or_help_leaves_next_call_unchanged(self, capsys, argv, code):
        follow = ["verify", "1 -2 1 -2", "--moves", "markov", "--samples", "3"]
        before = run(capsys, *follow)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        capsys.readouterr()
        assert run(capsys, *follow) == before

    def test_no_argument_shares_mutable_state(self):
        immutable = (type(None), bool, int, str, tuple, frozenset)
        for action in _actions(build_parser()):
            assert isinstance(action.default, immutable), action.dest
            assert isinstance(action.const, immutable), action.dest


def test_import_leaves_process_pool_unloaded():
    script = (
        "import sys, braidpoly.cli\n"
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"
