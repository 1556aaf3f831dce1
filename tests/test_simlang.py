from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from autoform import simlang
from autoform.diagnostics import SourceRange, line_starts

from oracles import (
    oracle_count_holes,
    oracle_header_last_line,
    random_file,
    random_module,
    ref_body_tokens,
    ref_find_hole_ranges,
    ref_header_line_span,
    ref_line_starts,
    ref_mask_noncode,
    ref_noncode_spans,
    ref_parse_file,
)


class TestCountHoles:
    def test_single_tactic_hole(self):
        assert simlang.count_holes("theorem t : True := by sorry\n") == 1

    def test_comment_only_occurrence(self):
        assert simlang.count_holes("-- sorry about that\n") == 0

    def test_mixed_file(self):
        text = (
            'def a : S := "sorry inside string"\n'
            "/- sorry inside block comment -/\n"
            "theorem t1 : P := by sorry\n"
            "def t2 : Q := sorry\n"
        )
        assert simlang.count_holes(text) == 2

    def test_word_boundaries(self):
        assert simlang.count_holes("def a : T := sorryNot\n") == 0
        assert simlang.count_holes("def a : T := notsorry\n") == 0
        # identifier charset includes apostrophes: sorry' is a different name
        assert simlang.count_holes("def a : T := sorry'\n") == 0

    def test_nested_block_comments(self):
        assert simlang.count_holes("/- outer /- sorry -/ still comment sorry -/\n") == 0

    def test_docstring_is_a_comment(self):
        assert simlang.count_holes("/-- sorry in docstring -/\ndef a : T := sorry\n") == 1

    def test_unterminated_string_swallows_rest_of_text(self):
        assert simlang.count_holes('def a : T := "sorry\nsorry\n') == 0

    def test_positions_reported(self):
        ranges = simlang.find_hole_ranges("theorem t : P := by sorry\n")
        assert ranges == [SourceRange(0, 20, 0, 25)]

    def test_randomized_agreement_with_state_machine_oracle(self):
        rng = random.Random(20260808)
        for _ in range(300):
            text = random_file(rng)
            assert simlang.count_holes(text) == oracle_count_holes(text), text


class TestHeaderSpan:
    def test_three_imports_then_declaration(self):
        text = "import A\nimport B\nimport C\ndef x : T := sorry\n"
        assert simlang.header_line_span(text) == (0, 2)

    def test_no_header_lines(self):
        assert simlang.header_line_span("def x : T := sorry\n") is None

    def test_blank_and_comment_lines_tolerated(self):
        text = "import A\n\n-- setup\nopen B\ndef x : T := sorry\n"
        assert simlang.header_line_span(text) == (0, 3)

    def test_bound_caps_the_prefix(self):
        text = "\n".join(f"import M{i}" for i in range(10)) + "\ndef x : T := sorry\n"
        assert simlang.header_line_span(text, bound=4) == (0, 3)

    def test_randomized_agreement_with_line_classifier(self):
        rng = random.Random(99)
        headers = ["import A.B", "namespace N", "open X", "section S", "", "-- note"]
        bodies = ["def a : T := sorry", "theorem t : P := x y", "stray text"]
        for _ in range(300):
            lines = rng.choices(headers, k=rng.randint(0, 5)) + rng.choices(
                bodies, k=rng.randint(0, 3)
            )
            text = "\n".join(lines) + "\n"
            expected = oracle_header_last_line(text)
            got = simlang.header_line_span(text)
            assert (got[1] if got else None) == expected, text


class TestParseFile:
    def test_docstring_metadata(self):
        text = '/-- [12] Lemma 3.4 -/\nlemma foo : Bar := by sorry\n'
        decl = simlang.parse_file(text).declarations[0]
        assert decl.doc_index == 12
        assert decl.doc_label == "Lemma 3.4"
        assert decl.kind == "lemma" and decl.name == "foo" and decl.type_text == "Bar"

    def test_example_declaration_has_no_name(self):
        decl = simlang.parse_file("example : True := by trivial\n").declarations[0]
        assert decl.name is None and decl.type_text == "True"

    def test_multiline_declaration(self):
        text = "theorem long :\n    SomeType :=\n  by sorry\n"
        analysis = simlang.analyse(text)
        assert analysis.parsed.declarations[0].type_text == "SomeType"
        assert simlang.interpret_body(analysis.body_tokens[0]).is_hole

    def test_malformed_missing_assign(self):
        decl = simlang.parse_file("def broken : T\n").declarations[0]
        assert decl.malformed == "missing ':='"

    def test_malformed_missing_type(self):
        decl = simlang.parse_file("def broken := sorry\n").declarations[0]
        assert decl.malformed is not None

    def test_stray_lines_detected(self):
        parsed = simlang.parse_file("import A\nstray garbage\ndef x : T := sorry\n")
        assert parsed.stray_lines == (1,)

    def test_trailing_text_absorbed_into_body(self):
        text = "def x : T := sorry\nleftover junk\n"
        analysis = simlang.analyse(text)
        assert analysis.parsed.stray_lines == ()
        term = simlang.interpret_body(analysis.body_tokens[0])
        assert term.error is not None

    def test_signature_text_ignores_body(self):
        a = "lemma f : T := by sorry\n"
        b = "lemma f : T := by exact witness\n"
        assert simlang.extract_signatures(a) == simlang.extract_signatures(b) == ["lemma f : T"]


class TestBodyInterpretation:
    def cases(self, body):
        text = f"def x : T := {body}\n"
        return simlang.interpret_body(simlang.analyse(text).body_tokens[0])

    def test_hole_forms(self):
        assert self.cases("sorry").is_hole
        assert self.cases("by sorry").is_hole

    def test_reference_forms(self):
        for body in ("name", "by name", "exact name", "by exact name"):
            term = self.cases(body)
            assert term.reference == "name", body

    def test_unsupported_terms(self):
        assert self.cases("a b c").error is not None
        assert self.cases("").error is not None


SOUP_TOKENS = [
    "-", "/", '"', "\\", "\n", "\n\n", " ", "--", "/-", "-/", "/--", "sorry", "def x",
    "theorem t", "example", ":=", ":", "a", "[3] L", "import X", "open Y",
]


class TestAnalysisMatchesReference:
    """The memoised single-pass analysis against verbatim copies of the
    per-call scanner, parser and body tokenizer it replaced."""

    def assert_same(self, text):
        assert simlang.noncode_spans(text) == ref_noncode_spans(text)
        assert simlang.mask_noncode(text) == ref_mask_noncode(text)
        assert line_starts(text) == ref_line_starts(text)
        for bound in (simlang.DEFAULT_HEADER_BOUND, 2):
            assert simlang.parse_file(text, bound) == ref_parse_file(text, bound)
            assert simlang.header_line_span(text, bound) == ref_header_line_span(text, bound)
        holes = ref_find_hole_ranges(text)
        assert simlang.find_hole_ranges(text) == holes
        analysis = simlang.analyse(text)
        assert list(analysis.line_starts) == ref_line_starts(text)
        declarations = analysis.parsed.declarations
        assert len(analysis.body_tokens) == len(analysis.decl_holes) == len(declarations)
        for decl, body, decl_holes in zip(declarations, analysis.body_tokens, analysis.decl_holes):
            assert list(body) == ref_body_tokens(text, decl)
            assert list(decl_holes) == [h for h in holes if decl.range.contains(h)]

    def test_random_files(self):
        rng = random.Random(20261017)
        for _ in range(300):
            self.assert_same(random_file(rng, lines=rng.randint(0, 30)))

    def test_random_modules(self):
        rng = random.Random(7)
        for _ in range(300):
            imports = [f"M{k}" for k in range(rng.randint(0, 3))]
            self.assert_same(random_module(rng, imports, decls=rng.randint(0, 12)))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(SOUP_TOKENS), max_size=40).map("".join))
    def test_delimiter_soup(self, text):
        self.assert_same(text)

    def test_long_file_attaches_every_docstring(self):
        text = "".join(
            f"/-- [{k}] Item {k} -/\n-- note\ndef d{k} : T := sorry\n\n" for k in range(120)
        )
        self.assert_same(text)
        declarations = simlang.parse_file(text).declarations
        assert [d.doc_index for d in declarations] == list(range(120))


class TestModuleNames:
    def test_roundtrip(self):
        assert simlang.module_name("Chapters/Chap01/section01.lean") == "Chapters.Chap01.section01"
        assert simlang.module_file("Chapters.Chap01.section01") == "Chapters/Chap01/section01.lean"
