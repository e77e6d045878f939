import inspect
import json
import typing

import pytest

import braidpoly.cli
from braidpoly import LaurentPoly2, SubstitutionError, homfly, parse_braid
from braidpoly.checks import CheckResult
from braidpoly.cli import main

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
    """Leaf searches per CLI call: each word object is evaluated once per mode."""

    @pytest.mark.parametrize("word", ["1 2 -1 2", "1 -2 1 -2", "-1 2 -1 2 2"])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_analyze_single_block_searches_once(self, capsys, leaf_searches, word, json_flag):
        code, _, _ = run(capsys, "analyze", word, *json_flag)
        assert code == 0
        assert len(leaf_searches) == 1

    @pytest.mark.parametrize(
        "word, certifiable_blocks", [("1 1 -3 -3", 2), ("1 1 -3 -3 3", 1), ("1 -1 -3 3", 0)]
    )
    def test_analyze_multi_block_searches_each_certifiable_block(
        self, capsys, leaf_searches, word, certifiable_blocks
    ):
        code, _, _ = run(capsys, "analyze", word)
        assert code == 0
        assert len(leaf_searches) == 1 + certifiable_blocks

    @pytest.mark.parametrize("word", ["1 1 1", "1 -2 1 2 2"])
    def test_verify_skein_searches_original_word_once(self, capsys, leaf_searches, word):
        code, _, _ = run(capsys, "verify", word, "--moves", "skein")
        assert code == 0
        assert len(leaf_searches) == 2 * len(word.split()) + 1
