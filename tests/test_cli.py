import inspect
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidpoly.braid
import braidpoly.checks
import braidpoly.cli
import braidpoly.hecke
import braidpoly.invariants
from braidpoly import LaurentPoly2, SubstitutionError, homfly, parse_braid
from braidpoly.braid import markov_variants
from braidpoly.checks import CheckResult, selftest_corpus, skein_triple
from braidpoly.cli import _indented_json, build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"
TREFOIL = "a^-2*z^2 + 2*a^-2 - a^-4"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def contradict(monkeypatch, text=None):
    """Make the invariants read ``a^99``, outside every MFW window.

    Only for words that read ``text``, when it is given; others keep their
    polynomial.  A forked ``batch`` worker inherits the patch.
    """
    real = braidpoly.invariants.homfly_hecke
    fake = LaurentPoly2.from_text("a^99")
    monkeypatch.setattr(
        braidpoly.invariants,
        "homfly_hecke",
        lambda word: fake if text in (None, word.text()) else real(word),
    )


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


@pytest.mark.parametrize(
    "argv",
    [["compute", "1 1 1", "--method", "all"], ["analyze", "1 1 1", "--json"], ["verify", "1 1 1"]],
    ids=["compute", "analyze", "verify"],
)
def test_out_of_memory_exits_4(capsys, monkeypatch, argv):
    def exhausted(*_args):
        raise MemoryError

    monkeypatch.setattr(braidpoly.cli, "parse_braid", exhausted)
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == ""
    assert err == "error: out of memory\n"


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

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_engine_contradiction_exits_3(self, capsys, monkeypatch, json_flag):
        contradict(monkeypatch)
        code, out, err = run(capsys, "analyze", "1 1 1", *json_flag)
        assert code == 3
        assert out == ""
        assert err == "error: degrees [99, 99] escape the window [-4, -2] for word '1 1 1'\n"

    def test_json_report_walks_the_diagram_once(self, capsys, monkeypatch):
        # each run of ``_violations`` is one walk of the closed diagram
        walks = []
        violations = braidpoly.braid._violations

        def counted(word, states, ascending, cycles=None):
            walks.append(word.letters)
            return violations(word, states, ascending, cycles)

        monkeypatch.setattr(braidpoly.braid, "_violations", counted)
        code, out, _ = run(capsys, "analyze", "-1 3 -2 -4 -4 -4 1 -3", "--json")
        assert code == 0
        assert walks == [(-1, 3, -2, -4, -4, -4, 1, -3)]
        doc = json.loads(out)
        assert doc["permutation"]["cycles"] == "(1 4)(2)(3 5)"
        assert doc["crossing_kinds"] == ["descending"] * 4 + ["ascending"] + ["descending"] * 3

    def test_certificate_builds_no_witness(self, capsys, monkeypatch, tmp_path):
        # certified blocks, one of them negative-leading: the report reads
        # only their flags and MFW check, so the witness constructions and
        # the mirror are never called
        texts = ["1 -2 1 -2", "1 1 1 4 4 4", "-1 -1 3 3"]
        batch = tmp_path / "words.txt"
        batch.write_text("".join(text + "\n" for text in texts))
        argvs = [["analyze", "--json", "--", text] for text in texts]
        argvs.append(["batch", str(batch), "--json"])
        before = [run(capsys, *argv) for argv in argvs]

        def refuse(*args, **kwargs):
            raise AssertionError("the certificate built a witness")

        for name in ("construct_u_star", "construct_v_star", "mirror"):
            monkeypatch.setattr(braidpoly.invariants, name, refuse)
        after = [run(capsys, *argv) for argv in argvs]
        assert after == before
        assert all(code == 0 for code, _, _ in after)


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

    def test_json_flag_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "1 1 1", "--json", "--moves", "mirror"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --json" in captured.err


class TestSharedWordsHideNoFailure:
    """``check_skein`` and ``check_markov`` evaluate equal words as one object.

    A wrong polynomial on any one word value must still fail the check.
    """

    @pytest.mark.parametrize("text", ["1 1 1", "1 -2 1 2 2"])
    def test_a_wrong_smoothed_word_fails_the_skein_check(self, monkeypatch, text):
        word = parse_braid(text)
        assert braidpoly.checks.check_skein(word) is None
        smoothed = {skein_triple(word, i)[2] for i in range(len(word))}
        real = braidpoly.checks.homfly
        for bad in smoothed:
            with monkeypatch.context() as patch:
                patch.setattr(
                    braidpoly.checks,
                    "homfly",
                    lambda w, mode, bad=bad: LaurentPoly2.one() + real(w, mode)
                    if w == bad
                    else real(w, mode),
                )
                assert braidpoly.checks.check_skein(parse_braid(text)) is not None, bad

    @pytest.mark.parametrize("text", ["1 1 1", "1 -2 1 2 2", "-1 3 -2 -4 -4 -4 1 -3"])
    def test_a_smoothed_value_one_term_off_fails_at_its_letter(self, monkeypatch, text):
        word = parse_braid(text)
        smoothed = [skein_triple(word, i)[2] for i in range(len(word))]
        real = braidpoly.checks.homfly
        extra = LaurentPoly2({(3, -5): 1})
        for i, bad in enumerate(smoothed):
            if bad in smoothed[:i]:
                continue  # the first letter with this smoothed word fails first
            with monkeypatch.context() as patch:
                patch.setattr(
                    braidpoly.checks,
                    "homfly",
                    lambda w, mode, bad=bad: real(w, mode) + extra if w == bad else real(w, mode),
                )
                message = braidpoly.checks.check_skein(parse_braid(text))
            assert message == f"skein relation fails at letter {i} of {word.text()!r}"

    def test_a_wrong_variant_fails_the_markov_check(self, monkeypatch):
        word = parse_braid("1 1 1")
        variants = {v.word for v in markov_variants(word, seed=3, count=20)}
        # the draw holds the word itself too, which shares the word's object
        assert word in variants
        assert braidpoly.checks.check_markov(word, seed=3, count=20) is None
        real = braidpoly.checks.homfly_jaeger
        for bad in variants - {word}:
            with monkeypatch.context() as patch:
                patch.setattr(
                    braidpoly.checks,
                    "homfly_jaeger",
                    lambda w, variant, bad=bad: LaurentPoly2.one()
                    if w == bad
                    else real(w, variant),
                )
                message = braidpoly.checks.check_markov(parse_braid("1 1 1"), seed=3, count=20)
                assert message is not None, bad


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

    def test_a_file_that_is_not_utf8_is_an_input_error(self, tmp_path, capsys):
        batch = tmp_path / "bad.txt"
        batch.write_bytes(b"\xff\xfe1 1\n")
        code, out, err = run(capsys, "batch", str(batch))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {batch}: ") and err.count("\n") == 1

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_engine_contradiction_reported_inline_exits_3(
        self, tmp_path, capsys, monkeypatch, jobs
    ):
        contradict(monkeypatch, "1 -2 1 -2")
        batch = tmp_path / "words.txt"
        batch.write_text("1 1 1\n1 -2 1 -2\n2 2 1\n")
        code, out, _ = run(capsys, "batch", str(batch), "--json", "--jobs", jobs)
        assert code == 3
        docs = [json.loads(line) for line in out.splitlines()]
        assert [d["line"] for d in docs] == [1, 2, 3]
        assert docs[1] == {
            "line": 2,
            "error": "degrees [99, 99] escape the window [-2, 2] for word '1 -2 1 -2'",
        }
        assert [docs[0]["word"], docs[2]["word"]] == ["1 1 1", "2 2 1"]

    def test_parallel_output_matches_sequential(self, tmp_path, capsys):
        batch = tmp_path / "words.txt"
        batch.write_text("1 1 1\n1 -2 1 -2\n-1 3 -2 -4 -4 -4 1 -3\n2 2 1\n")
        code1, out1, _ = run(capsys, "batch", str(batch), "--json")
        code2, out2, _ = run(capsys, "batch", str(batch), "--json", "--jobs", "3")
        assert (code1, out1) == (code2, out2)

    def test_each_line_equals_the_analyze_report(self, tmp_path, capsys):
        # batch --json writes compact lines, analyze --json the indented layout
        cases = [
            ("1 1 -3 -3", ["--", "1 1 -3 -3"]),
            ("1 1 1 4 4 4", ["--", "1 1 1 4 4 4"]),
            ("3;", ["--strands", "3", "--", ""]),
            ("-1 -1 2 2 -1", ["--", "-1 -1 2 2 -1"]),
            ("1 -2 1 -2", ["--", "1 -2 1 -2"]),
        ]
        batch = tmp_path / "words.txt"
        batch.write_text("".join(line + "\n" for line, _ in cases))
        code, out, _ = run(capsys, "batch", str(batch), "--json", "--jobs", "1")
        assert code == 0
        docs = [json.loads(line) for line in out.splitlines()]
        assert [doc.pop("line") for doc in docs] == [1, 2, 3, 4, 5]
        for doc, (_, argv) in zip(docs, cases):
            code, out, _ = run(capsys, "analyze", "--json", *argv)
            assert code == 0
            assert doc == json.loads(out)

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


def _json_values():
    """Nested dicts and lists of every JSON scalar; ``str`` is drawn from all of Unicode."""
    text = st.text(
        st.one_of(
            st.sampled_from('"\\/\x00\x1f\x7f\x80\u2028\uffff\U0001f600'),
            st.characters(exclude_categories=()),
        )
    )
    scalars = text | st.integers() | st.booleans() | st.none() | st.floats()
    nested = st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(text, inner, max_size=4),
        max_leaves=20,
    )
    # at least three deep, with both empty containers
    return st.builds(lambda value, key: {key: [value, {}, []]}, nested, text)


class TestIndentedJson:
    """``--json`` writes the bytes of ``json.dumps(doc, indent=2)``."""

    @given(_json_values())
    @settings(max_examples=300, deadline=None)
    def test_equals_json_dumps(self, value):
        assert _indented_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", ["", 0, -7, True, None, {}, [], [[]], {"": {}}])
    def test_small_values(self, value):
        assert _indented_json(value) == json.dumps(value, indent=2)

    def test_an_int_of_more_than_4300_digits(self, default_int_digits):
        braidpoly.cli._print_any_int()
        value = {"c": [10**5000 + 1, {"d": -(10**4400)}]}
        assert _indented_json(value) == json.dumps(value, indent=2)

    def test_a_key_that_is_not_a_string_raises(self):
        with pytest.raises(TypeError):
            _indented_json({"a": {1: 2}})

    def test_every_corpus_word(self, capsys):
        corpus = selftest_corpus(4, 3, 200, 1)
        argvs = [["--strands", str(w.strands), "--", w.text()] for w in corpus]
        argvs += [["--", text] for text in ("1 1 -3 -3", "1 1 1 4 4 4")]
        for argv in argvs:
            for command in (["analyze", "--json"], ["compute", "--method", "all", "--json"]):
                code, out, _ = run(capsys, *command, *argv)
                assert code == 0
                assert out == json.dumps(json.loads(out), indent=2) + "\n"


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

    def test_a_raising_suite_fails_and_exits_3(self, capsys, monkeypatch):
        contradict(monkeypatch)
        code, out, _ = run(
            capsys,
            "selftest",
            "--max-crossings", "1",
            "--max-strands", "2",
            "--samples", "5",
        )
        assert code == 3
        lines = out.splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("reduced alternating"))
        assert lines[at].startswith("reduced alternating degree law: FAIL")
        assert lines[at + 1].startswith(
            "  reduced alternating degree law raised on '1 1': ConsistencyError"
        )
        # the suites after the one that raised still run
        assert lines[-1].startswith("Alexander unit leading coefficient: ")

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
        # neighbouring equal letters give equal smoothed words, searched once
        code, _, _ = run(capsys, "verify", word, "--moves", "skein")
        assert code == 0
        assert len(set(leaf_searches)) == len(leaf_searches)
        w = parse_braid(word)
        distinct = {v for i in range(len(w)) for v in skein_triple(w, i)}
        assert len(leaf_searches) == len(distinct)


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
        corpus = braidpoly.checks.selftest_corpus(2, 2, 10, 1)
        n = len(corpus)
        # both modes of every corpus word for the polynomials and once more for
        # the bijection; the mirror is a new word, and so is each distinct
        # Markov variant (seed 1 + 2) that differs from its corpus word.  The
        # alternating suites run on a corpus of their own.
        markov = sum(
            len({v.word for v in markov_variants(w, seed=3, count=5)} - {w}) for w in corpus
        )
        assert markov < 5 * n
        alternating = ("reduced alternating degree law", "Alexander unit leading coefficient")
        assert {k: v for k, v in per_suite.items() if k not in alternating} == {
            "four-method equality": 2 * n,
            "MFW degree window": 0,
            "leaf/partition bijection": 2 * n,
            "mirror identity": n,
            "Markov-move invariance": markov,
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


# The README's command-line examples (``selftest``'s only as a usage error, as
# its report prints timings), then help, usage errors, ``--``, abbreviations
# and words that start with ``-``.
ONE_PARSE_ARGVS = [
    ["compute", "1 1 1", "--method", "all"],
    ["compute", "", "--strands", "3"],
    ["analyze", "-1 3 -2 -4 -4 -4 1 -3", "--json"],
    ["verify", "1 -2 1 -2", "--moves", "all", "--samples", "20", "--seed", "7"],
    ["batch", "words.txt", "--jobs", "4", "--json"],
    ["selftest", "--max-crossings", "8", "--max-strands", "4", "--samples", "0"],
    ["compute", "1", "--bogus"],
    ["nosuch", "1"],
    ["comp", "1"],
    ["compute", "-h"],
    ["verify", "--help"],
    ["--help"],
    ["-h"],
    [],
    ["compute"],
    ["compute", "1", "--", "-2"],
    ["compute", "--", "-1 2"],
    ["--", "compute", "1"],
    ["analyze", "--json", "--", "-1 3 -2 -4 -4 -4 1 -3"],
    ["compute", "--he"],
    ["compute", "1", "--meth", "all"],
    ["compute", "1", "--method", "bogus"],
    ["compute", "-1"],
    ["compute", "-1", "-2"],
    ["compute", "1", "--strands=4", "--method=hecke", "--json"],
    ["compute", "1", "--strands", "x"],
    ["compute", "1", "--strands"],
    ["compute", "1 -1 4 4", "--strands", "7", "--method", "all"],
    ["analyze", "1 junk"],
    ["analyze", "1 1 1", "extra", "more"],
    ["verify", "1 1", "--json"],
    ["verify", "1 1 1", "--samples", "0"],
    ["verify", "1 -2 1 -2", "--bogus", "--moves", "bogus"],
    ["batch", "missing.txt"],
    ["batch", "words.txt", "--jobs", "0"],
    ["-x", "compute", "1"],
    ["compute", "1", "-x"],
]


class TestOneParsePerCall:
    """``main`` parses a named command with that command's own sub-parser.

    Output and exit code must be those of the full parser followed by the
    command, as ``main`` ran it before.
    """

    @staticmethod
    def _outcome(capsys, call):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return captured.out, captured.err, code

    @pytest.mark.parametrize("argv", ONE_PARSE_ARGVS, ids=" ".join)
    def test_same_output_as_the_full_parser(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "words.txt").write_text("1 1 1  # trefoil\n")
        reference = self._outcome(
            capsys, lambda: braidpoly.cli._run(build_parser().parse_args(argv))
        )
        assert self._outcome(capsys, lambda: main(argv)) == reference

    def test_a_named_command_skips_the_full_parser(self, capsys, monkeypatch):
        parser, _ = braidpoly.cli._shared_parser()

        def refused(*_args, **_kwargs):
            raise AssertionError("the full parser ran")

        monkeypatch.setattr(parser, "parse_args", refused)
        monkeypatch.setattr(parser, "parse_known_args", refused)
        assert run(capsys, "compute", "1 1 1")[0] == 0
        assert run(capsys, "verify", "1 1", "--moves", "mirror")[0] == 0


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
