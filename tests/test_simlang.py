from __future__ import annotations

import importlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from autoform import simlang
from autoform.corpus import dump_dataset
from autoform.diagnostics import SourceRange, line_starts
from autoform.pipeline import RunConfig, run_proof_stage, run_statement_stage
from autoform.toydata import build_toy_records
from autoform.verifier import Project, SimulatedVerifier

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
    ref_view,
)


def hole_count(text: str) -> int:
    return len(simlang.analyse(text).hole_ranges)


def test_simlang_keeps_no_mutable_module_state():
    # an analysis is a pure function of its text; the Project keeps them
    mutable = {
        name
        for name, value in vars(simlang).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    }
    assert mutable == set()


class TestCountHoles:
    def test_single_tactic_hole(self):
        assert hole_count("theorem t : True := by sorry\n") == 1

    def test_comment_only_occurrence(self):
        assert hole_count("-- sorry about that\n") == 0

    def test_mixed_file(self):
        text = (
            'def a : S := "sorry inside string"\n'
            "/- sorry inside block comment -/\n"
            "theorem t1 : P := by sorry\n"
            "def t2 : Q := sorry\n"
        )
        assert hole_count(text) == 2

    def test_word_boundaries(self):
        assert hole_count("def a : T := sorryNot\n") == 0
        assert hole_count("def a : T := notsorry\n") == 0
        # identifier charset includes apostrophes: sorry' is a different name
        assert hole_count("def a : T := sorry'\n") == 0

    def test_nested_block_comments(self):
        assert hole_count("/- outer /- sorry -/ still comment sorry -/\n") == 0

    def test_docstring_is_a_comment(self):
        assert hole_count("/-- sorry in docstring -/\ndef a : T := sorry\n") == 1

    def test_unterminated_string_swallows_rest_of_text(self):
        assert hole_count('def a : T := "sorry\nsorry\n') == 0

    def test_positions_reported(self):
        ranges = simlang.analyse("theorem t : P := by sorry\n").hole_ranges
        assert ranges == (SourceRange(0, 20, 0, 25),)

    def test_randomized_agreement_with_state_machine_oracle(self):
        rng = random.Random(20260808)
        for _ in range(300):
            text = random_file(rng)
            assert hole_count(text) == oracle_count_holes(text), text


# text next to a placeholder token: identifier characters that start an
# identifier (letters, underscore) or only continue one (digits, dot,
# prime), non-ASCII letters and digits, which are neither, and delimiters
BOUNDARY_TOKENS = [
    "sorry", "1", "x", "a1", ".", "'", "_", "é", "λ", "٣", " ", "\n", "(", ":=",
    "--", "/-", "-/", '"', "def x : T := ", "theorem t : P := by ",
]
BOUNDARY_CASES = [
    "1sorry", "x.sorry", ".sorry", "'sorry", "sorry'", "_sorry", "a1.sorry", "sorry.x",
    "1.sorry", "x1sorry", "sorryé", "ésorry", "λsorry", "٣sorry", "sorrysorry", "sorry",
]


class TestHoleBoundaries:
    """Placeholder tokens found by search, against the reference's
    identifier scan, next to every kind of identifier boundary."""

    def assert_same(self, text):
        for analysis in (simlang.analyse(text), simlang._analyse(text)):
            assert list(analysis.hole_ranges) == ref_find_hole_ranges(text), text
            assert ref_view(analysis) == ref_parse_file(text, 64), text
            for decl in analysis.declarations:
                assert list(decl.holes) == [
                    h for h in analysis.hole_ranges if decl.range.contains(h)
                ]

    @pytest.mark.parametrize("case", BOUNDARY_CASES)
    def test_each_boundary_alone_in_code_comments_and_strings(self, case):
        for text in (
            case,
            f"{case}\n",
            f"def x : T := {case}\n",
            f"def x : T := by exact {case} -- {case}\n",
            f"/- {case} -/ def x : T := {case}\n",
            f'def x : S := "{case}" {case}\n',
            f"/-- [1] {case} -/\ndef x : T := ({case})\n",
        ):
            self.assert_same(text)

    def test_which_boundaries_make_a_hole(self):
        holes = {case: hole_count(f"def x : T := {case}\n") for case in BOUNDARY_CASES}
        # a run of digits, dots and primes starts no identifier, so the token
        # after it is one; a letter or underscore starts one that takes it in
        assert holes == {
            "1sorry": 1, "x.sorry": 0, ".sorry": 1, "'sorry": 1, "sorry'": 0, "_sorry": 0,
            "a1.sorry": 0, "sorry.x": 0, "1.sorry": 1, "x1sorry": 0, "sorryé": 1,
            "ésorry": 1, "λsorry": 1, "٣sorry": 1, "sorrysorry": 0, "sorry": 1,
        }

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(BOUNDARY_TOKENS), max_size=30).map("".join))
    def test_boundary_soup(self, text):
        self.assert_same(text)


def header_span(text):
    return simlang.analyse(text).header_span


class TestHeaderSpan:
    def test_three_imports_then_declaration(self):
        text = "import A\nimport B\nimport C\ndef x : T := sorry\n"
        assert header_span(text) == (0, 2)

    def test_no_header_lines(self):
        assert header_span("def x : T := sorry\n") is None

    def test_blank_and_comment_lines_tolerated(self):
        text = "import A\n\n-- setup\nopen B\ndef x : T := sorry\n"
        assert header_span(text) == (0, 3)

    def test_bound_caps_the_prefix(self):
        text = "\n".join(f"import M{i}" for i in range(70)) + "\ndef x : T := sorry\n"
        assert header_span(text) == (0, 63)

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
            got = header_span(text)
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
        assert analysis.declarations[0].type_text == "SomeType"
        assert analysis.declarations[0].term.is_hole

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
        assert analysis.stray_lines == ()
        assert analysis.declarations[0].term.error is not None


class TestDeclarationAt:
    """The declaration a range meets, found by bisection, against the first
    one a linear filter finds."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.randoms(use_true_random=False),
        st.integers(0, 30),
        st.lists(st.tuples(st.integers(0, 34), st.integers(0, 40)), min_size=2, max_size=2),
    )
    def test_matches_a_linear_filter(self, rng, lines, ends):
        declarations = simlang.parse_file(random_file(rng, lines)).declarations
        start, end = sorted(ends)
        span = SourceRange(*start, *end)
        met = [i for i, d in enumerate(declarations) if d.range.intersects(span)]
        assert simlang.declaration_at(declarations, span) == (met[0] if met else None)


class TestBodyInterpretation:
    def cases(self, body):
        text = f"def x : T := {body}\n"
        return simlang.analyse(text).declarations[0].term

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
    """The single-pass analysis against verbatim copies of the
    per-call scanner, parser and body tokenizer it replaced."""

    def assert_same(self, text):
        assert simlang.noncode_spans(text) == ref_noncode_spans(text)
        assert line_starts(text) == ref_line_starts(text)
        analysis = simlang.analyse(text)
        assert analysis.masked == ref_mask_noncode(text)
        assert ref_view(simlang.parse_file(text)) == ref_parse_file(text, 64)
        assert analysis.header_span == ref_header_line_span(text, 64)
        holes = ref_find_hole_ranges(text)
        assert list(analysis.hole_ranges) == holes
        assert list(analysis.line_starts) == ref_line_starts(text)
        for decl in analysis.declarations:
            assert decl.term == simlang.interpret_body(ref_body_tokens(text, decl))
            assert list(decl.holes) == [h for h in holes if decl.range.contains(h)]

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


UNITS = [
    "def a{k} : T := sorry",
    "/-- [{k}] Item {k} -/\ntheorem t{k} : P := by sorry",
    "lemma l{k} : Q :=\n  by exact a{k}",
    "def b{k} : T := sorry /-- [{k}] on the same line -/",
    "example : T := sorry -- note",
    "stray words {k}",
    "",
    'def s{k} : S := "a string {k}"',
]
DELIMITERS = ["/-", "-/", "--", '"']


def random_edit(rng, text):
    """One edit of ``text``: append a unit, replace a range of lines, insert
    or delete lines, or put a delimiter on either side of the line where a
    declaration's analysis would resume."""
    lines = text.split("\n")
    unit = rng.choice(UNITS).format(k=rng.randrange(1000))
    op = rng.randrange(5)
    if op == 0:
        return text + unit + "\n"
    i = rng.randrange(len(lines))
    if op == 1:
        lines[i : i + rng.randint(1, 3)] = unit.split("\n")
    elif op == 2:
        lines[i:i] = unit.split("\n")
    elif op == 3:
        del lines[i : i + rng.randint(1, 2)]
    else:
        declarations = simlang.analyse(text).declarations
        if declarations:
            resume = rng.choice(declarations).range.end_line
            if rng.random() < 0.5 or resume == len(lines):
                lines[resume - 1] += rng.choice(DELIMITERS)
            else:
                lines[resume] = rng.choice(DELIMITERS) + lines[resume]
    return "\n".join(lines)


def units_file(rng, units):
    return "import A\n\n" + "".join(
        rng.choice(UNITS).format(k=k) + "\n" for k in range(units)
    )


def based_on(base_text):
    """The base argument of ``simlang.analyse`` for an edit of ``base_text``;
    None for no base."""
    return None if base_text is None else (base_text, simlang.analyse(base_text))


def assert_fresh(text, base_text=None):
    """The analysis of ``text``, started from that of ``base_text`` when
    one is given, equals one read with no base."""
    assert simlang.analyse(text, based_on(base_text)) == simlang._analyse(text), text


def kept_units(base_text, text):
    """How many declaration units the analysis of ``text`` plans to keep
    from that of ``base_text`` at the front and at the end."""
    base = based_on(base_text)
    found, kept, tail = simlang._resume_point(text, base)
    assert found in (None, base[1])
    return kept, tail


def read(text, base_text):
    """Analyse ``text`` from the analysis of ``base_text``, assert that the
    analysis equals a fresh one, and return how many units the read behind
    it kept at the front and at the end; a read that could not keep all the
    units ``kept_units`` planned reports the ones it kept."""
    plans = []
    real = simlang._analyse
    base = based_on(base_text)

    def spy(text, base=None, kept=0, tail=0):
        plans.append((kept, tail))
        return real(text, base, kept, tail)

    simlang._analyse = spy
    try:
        simlang.analyse(text, base)
    finally:
        simlang._analyse = real
    assert_fresh(text)
    return plans[-1]


def count_parses(monkeypatch):
    """A list that grows by one for each declaration parsed from now on."""
    parsed = []
    parse = simlang._parse_declaration
    monkeypatch.setattr(
        simlang, "_parse_declaration", lambda *args: parsed.append(1) or parse(*args)
    )
    return parsed


class TestIncrementalAnalysis:
    """An analysis that starts from the one of the text an edit replaced
    must equal a fresh one."""

    def test_random_edit_sequences(self):
        rng = random.Random(20261018)
        resumed = 0
        for _ in range(300):
            if rng.random() < 0.5:
                text = random_file(rng, lines=rng.randint(0, 30))
            else:
                text = units_file(rng, rng.randint(0, 20))
            base_text = None
            for _ in range(rng.randint(1, 10)):
                resumed += simlang._resume_point(text, based_on(base_text))[1] > 0
                assert_fresh(text, base_text)
                base_text, text = text, random_edit(rng, text)
        assert resumed > 300

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(SOUP_TOKENS), max_size=30).map("".join),
        st.lists(st.sampled_from(SOUP_TOKENS), max_size=20).map("".join),
        st.lists(st.sampled_from(SOUP_TOKENS), max_size=20).map("".join),
    )
    def test_delimiter_soup_edits(self, shared, before, after):
        # the edit ends the text, or comes before an unchanged tail
        prefix = "def a : T := sorry\ntheorem b : P := a\n" + shared
        for tail in ("", "\ndef y : T := sorry\n/-- [3] Y -/\ndef z : T := y\n"):
            assert_fresh(prefix + after + tail, prefix + before + tail)

    def test_edit_inside_the_header_keeps_every_unit_at_the_end(self):
        base = units_file(random.Random(1), 6)
        text = base.replace("import A", "import B")
        units = len(simlang.parse_file(base).declarations)
        assert kept_units(base, text) == (0, units)
        assert read(text, base) == (0, units)
        assert simlang.parse_file(text).imports[0].module == "B"

    def test_edit_in_the_first_declaration_keeps_the_rest_at_the_end(self):
        base = "def a : T := sorry\ndef b : T := a\ndef c : T := b\n"
        text = base.replace(": T := sorry", ": T := c")
        assert kept_units(base, text) == (0, 2)
        assert read(text, base) == (0, 2)

    def test_comment_or_string_across_the_resume_offset_keeps_the_units_above_it(self):
        for opener, closer in (("/- note", "-/"), ('"note', '"')):
            base = (
                "def a : T := sorry\n"
                f"def b : T := sorry {opener}\n"
                f"{closer} def c : T := sorry\n"
                "def d : T := sorry\n"
            )
            assert simlang.parse_file(base).declarations[2].name == "c"
            # an edit of d resumes after c, past the end of the span
            text = base.replace("def d : T := sorry", "def d : T := c")
            assert kept_units(base, text) == (3, 0)
            assert read(text, base) == (3, 0)
            assert_fresh(text, base)
            # an edit of c would resume after b, inside the span, so the read
            # keeps only a, which ends above the line the span starts on
            text = text.replace("def c : T := sorry", "def c : T := b")
            assert kept_units(base, text) == (2, 0)
            assert read(text, base) == (1, 0)
            assert_fresh(text, base)

    def test_edit_that_leaves_a_comment_or_string_unterminated(self):
        # the new span swallows the planned tail, so the read goes on to the
        # end of the text
        base = "".join(f"def d{k} : T := sorry\n" for k in range(6))
        for opener in ("/- open", '"open'):
            text = base.replace("def d4 : T := sorry", f"def d4 : T := sorry {opener}")
            assert kept_units(base, text) == (4, 1)
            assert read(text, base) == (4, 0)
            assert len(simlang.parse_file(text).declarations) == 5

    def test_declaration_line_turned_into_a_stray_line(self):
        # only lines above the first declaration can be stray; a later
        # declaration line that loses its keyword joins the body above it
        base = "import A\n" + "".join(f"def d{k} : T := sorry\n\n" for k in range(5))
        text = base.replace("def d0 ", "xdef d0 ")
        assert kept_units(base, text) == (0, 4)
        assert read(text, base) == (0, 4)
        assert simlang.parse_file(text).stray_lines == (1,)
        # the stray line is code after d2, so d2's end moves and d2 is read again
        text = base.replace("def d3 ", "xdef d3 ")
        assert kept_units(base, text) == (3, 1)
        assert read(text, base) == (2, 1)
        assert simlang.parse_file(text).stray_lines == ()

    def test_docstring_on_the_line_of_the_previous_units_code(self):
        base = (
            "def a : T := sorry\n"
            "def b : T := sorry /-- [2] Item 2 -/\n"
            "def c : T := sorry\n"
        )
        text = base + "def d : T := c\n"
        assert kept_units(base, text) == (3, 0)
        assert read(text, base) == (3, 0)
        assert_fresh(text, base)
        assert simlang.parse_file(text).declarations[2].doc_index == 2

    def test_appending_to_a_long_file_parses_at_most_two_declarations(self, monkeypatch):
        text = "".join(f"/-- [{k}] Item {k} -/\ndef d{k} : T := sorry\n\n" for k in range(400))
        base = based_on(text)
        parsed = count_parses(monkeypatch)
        longer = text + "/-- [400] Item 400 -/\ndef e : T := d399\n"
        analysis = simlang.analyse(longer, base)
        assert len(parsed) == 1
        monkeypatch.undo()
        assert analysis == simlang._analyse(longer)

    def test_mid_file_edit_of_a_long_file_parses_at_most_two_declarations(self, monkeypatch):
        text = "".join(f"/-- [{k}] Item {k} -/\ndef d{k} : T := sorry\n\n" for k in range(400))
        for new in ("def d200 : T := exact d199\n", "def d200 : T :=\n  exact d199\n\n"):
            base = based_on(text)
            parsed = count_parses(monkeypatch)
            edited = text.replace("def d200 : T := sorry\n", new)
            analysis = simlang.analyse(edited, base)
            assert len(parsed) == 1, new
            monkeypatch.undo()
            assert analysis == simlang._analyse(edited)
            assert analysis.declarations[399].doc_index == 399

    def test_mid_file_edit_of_a_long_file_interprets_at_most_two_bodies(
        self, monkeypatch, tmp_path
    ):
        # a body's term is read with its unit: kept units keep theirs, and a
        # check of the analysis interprets nothing
        text = "".join(f"/-- [{k}] Item {k} -/\ndef d{k} : T := sorry\n\n" for k in range(400))
        project = Project(tmp_path)
        project.write("Big.lean", text)
        project.analysis("Big.lean")
        interpreted = []
        interpret = simlang.interpret_body
        monkeypatch.setattr(
            simlang, "interpret_body", lambda tokens: interpreted.append(1) or interpret(tokens)
        )
        edited = text.replace("def d200 : T := sorry\n", "def d200 : T := exact d199\n")
        project.stage("Big.lean", edited)
        analysis = project.analysis("Big.lean")
        assert len(interpreted) == 1
        assert analysis.declarations[200].term == simlang.BodyTerm(reference="d199")
        interpreted.clear()
        checker = SimulatedVerifier()
        for _ in range(10):
            ok, _ = checker.verify_file(project, "Big.lean")
            assert ok
        assert interpreted == []

    def test_mid_file_random_edit_sequences(self):
        # edits that keep the line count, as proof patches do, and edits that
        # insert or delete lines; most keep a tail, and keeping one must
        # never change the result
        rng = random.Random(20261019)
        tails = {True: 0, False: 0}
        for _ in range(150):
            text = units_file(rng, rng.randint(3, 25))
            simlang.analyse(text)
            for _ in range(rng.randint(1, 8)):
                lines = text.split("\n")
                i = rng.randrange(2, len(lines))
                unit = rng.choice(UNITS).format(k=rng.randrange(1000))
                op = rng.randrange(4)
                if op == 0:
                    lines[i] = lines[i].replace("sorry", rng.choice(["exact a1", "b2", "by sorry"]))
                elif op == 1:
                    lines[i] = unit.replace("\n", " ")
                elif op == 2:
                    lines[i:i] = unit.split("\n")
                else:
                    del lines[i : i + rng.randint(1, 3)]
                edited = "\n".join(lines)
                same = edited.count("\n") == text.count("\n")
                tails[same] += read(edited, text)[1] > 0
                text = edited
        print(tails)
        assert tails[True] >= 100 and tails[False] >= 120, tails

    def test_docstring_on_the_first_kept_tail_unit(self):
        base = (
            "def d0 : T := sorry\n"
            "def d1 : T := sorry\n"
            "\n"
            "/-- [2] Item 2 -/\n"
            "def d2 : T := sorry\n"
            "def d3 : T := sorry\n"
        )
        # an edit above the docstring keeps the unit with its docstring
        text = base.replace("def d1 : T := sorry", "def d1 : T := d0")
        assert kept_units(base, text) == (1, 2)
        assert read(text, base) == (1, 2)
        assert simlang.parse_file(text).declarations[2].unit_range.start_line == 3
        # a new docstring text, or a unit start that moves onto the docstring,
        # falls back to reading to the end; code after the docstring also
        # moves the end of d1, which is then read again
        for edited, kept in (
            (base.replace("[2] Item 2", "[7] Item 7"), 2),
            (base.replace("sorry\n\n/--", "sorry\n/--"), 2),
            (base.replace("/-- [2] Item 2 -/\n", "/-- [2] Item 2 -/ code\n"), 1),
        ):
            assert kept_units(base, edited) == (2, 2), edited
            assert read(edited, base) == (kept, 0), edited

    def test_edit_that_opens_a_comment_closed_inside_the_tail(self):
        base = "".join(f"def d{k} : T := sorry\n" for k in range(5)) + 'def s : S := "-/"\n'
        text = base.replace("def d1 : T := sorry", "def d1 : T := sorry /- open")
        assert kept_units(base, text) == (1, 4)
        assert read(text, base) == (1, 0)
        assert [d.name for d in simlang.parse_file(text).declarations] == ["d0", "d1"]

    def test_edit_that_closes_a_base_comment_reaching_into_the_tail(self):
        # the base's comment crosses the first line the tail could keep, so
        # the tail starts at the first unit after the comment: d5
        base = (
            "def d0 : T := sorry\n"
            "def d1 : T := sorry\n"
            "def d2 : T := sorry /- open\n"
            "def d3 : T := sorry\n"
            "-/ def d4 : T := sorry\n"
            "def d5 : T := sorry\n"
        )
        assert [d.name for d in simlang.parse_file(base).declarations] == [
            "d0", "d1", "d2", "d4", "d5",
        ]
        text = base.replace("/- open", "/- open -/")
        assert kept_units(base, text) == (2, 1)
        assert read(text, base) == (2, 1)
        assert [d.name for d in simlang.parse_file(text).declarations] == [
            "d0", "d1", "d2", "d3", "d5",
        ]

    def test_tail_skips_every_unit_that_a_base_comment_crosses(self):
        # two base comments in a row cross the first lines of d4 and d5, so
        # the tail starts at d6; without d6, no unit starts after them
        base = (
            "def d0 : T := sorry\n"
            "def d1 : T := sorry\n"
            "def d2 : T := sorry /- open\n"
            "def d3 : T := sorry\n"
            "-/ def d4 : T := sorry /- again\n"
            "-/ def d5 : T := sorry\n"
            "def d6 : T := sorry\n"
        )
        text = base.replace("/- open", "/- open -/")
        assert kept_units(base, text) == (2, 1)
        assert read(text, base) == (2, 1)
        assert [d.name for d in simlang.parse_file(text).declarations] == [
            "d0", "d1", "d2", "d3", "d5", "d6",
        ]
        short_base = base.removesuffix("def d6 : T := sorry\n")
        short_text = text.removesuffix("def d6 : T := sorry\n")
        assert kept_units(short_base, short_text) == (2, 0)
        assert read(short_text, short_base) == (2, 0)

    def test_append_after_a_comment_or_string_left_open_at_the_end(self):
        # the base's last span runs to its end, where the kept units end too;
        # an append carries the span on, so only a, above the span, is kept
        for opener in ("/- open", '"open'):
            base = f"def a : T := sorry\ndef b : T := sorry {opener}\n"
            text = base + "def c : T := b\n"
            assert kept_units(base, text) == (2, 0)
            assert read(text, base) == (1, 0)
            assert [d.name for d in simlang.parse_file(text).declarations] == ["a", "b"]

    def test_append_of_stray_code_reads_the_last_unit_again(self, monkeypatch):
        # code after the last unit belongs to it, so its end moves
        base = "def a : T := sorry\ndef b : T := sorry\n"
        text = base + "stray words\n"
        assert kept_units(base, text) == (2, 0)
        assert read(text, base) == (1, 0)
        based = based_on(base)
        parsed = count_parses(monkeypatch)
        analysis = simlang.analyse(text, based)
        assert len(parsed) == 1
        monkeypatch.undo()
        assert analysis == simlang._analyse(text)
        assert analysis.declarations[1].range.end_line == 3
        assert analysis.stray_lines == ()
        # when a comment of the base crosses the line that read would start
        # at, nothing is kept
        base = "def a : T := sorry /- note\n-/ def b : T := sorry\n"
        text = base + "stray words\n"
        assert kept_units(base, text) == (2, 0)
        assert read(text, base) == (0, 0)

    def test_append_to_a_one_declaration_base_parses_one_declaration(self, monkeypatch):
        base = "import A\n\ndef a : T := sorry\n"
        text = base + "def b : T := a\n"
        assert kept_units(base, text) == (1, 0)
        assert read(text, base) == (1, 0)
        based = based_on(base)
        parsed = count_parses(monkeypatch)
        analysis = simlang.analyse(text, based)
        assert len(parsed) == 1
        monkeypatch.undo()
        assert analysis == simlang._analyse(text)


def one_section_records(n_items):
    """``n_items`` records in one section: the toy corpus's first section
    over and over, its names made unique in each round."""
    plan = build_toy_records()[:6]
    records = []
    for i in range(n_items):
        record, tag, k = plan[i % 6], f"c1s1r{i // 6}", i + 1
        label = f"{record.label.split()[0]} 1.1.{k}"
        records.append(
            record._replace(
                index=k,
                label=label,
                number_components=(1, 1, k),
                extracted_labels=(f"{record.env}:1.1.{k}",),
                content=record.content.replace(record.label, label).replace("c1s1", tag),
                proof=record.proof.replace("c1s1", tag),
            )
        )
    return records


class TestPipelineAnalyses:
    """Every analysis a whole run reads equals a fresh read of its text."""

    def run_checked(self, monkeypatch, cfg):
        """Run both stages, each as one segment or, when ``cfg.max_items``
        is set, as ``--resume`` segments in this process, and check every
        analysis a ``Project`` returns, computed or kept, against
        ``simlang._analyse``. Return how many of the computed ones kept a
        tail of their base, and how many were returned by a later
        ``Project`` than the one that computed them."""
        tails = []
        real = simlang.analyse

        def analyse(text, base=None):
            tails.append(simlang._resume_point(text, base)[2] > 0)
            return real(text, base)

        # (id of an analysis, text it was returned for) -> the analysis, kept
        # alive so no id is reused; id of an analysis -> its first project
        checked, first_project = {}, {}
        inherited = []
        real_analysis = Project.analysis

        def analysis(project, file_id):
            result = real_analysis(project, file_id)
            text = project.read(file_id)
            if (id(result), text) not in checked:
                checked[id(result), text] = result
                assert result == simlang._analyse(text), text
            owner = first_project.setdefault(id(result), id(project))
            if owner != id(project):
                inherited.append(result)
            return result

        monkeypatch.setattr(simlang, "analyse", analyse)
        monkeypatch.setattr(Project, "analysis", analysis)
        cfg.resume = cfg.max_items is not None
        for stage, run in ((1, run_statement_stage), (2, run_proof_stage)):
            cfg.stage = stage
            while run(cfg)[0] and cfg.resume:
                pass
        return sum(tails), len(inherited)

    def test_toy_run(self, monkeypatch, toy_config):
        assert self.run_checked(monkeypatch, toy_config)[0] >= 10

    def test_toy_run_parses_one_declaration_per_edit(self, monkeypatch, toy_config):
        # a stage-1 append and a stage-2 proof patch each read the one unit
        # they write; the rest comes from the committed entry's analysis
        parsed = count_parses(monkeypatch)
        per_edit = []
        real = simlang.analyse

        def analyse(text, base=None):
            before = len(parsed)
            result = real(text, base)
            if base is not None:
                per_edit.append(len(parsed) - before)
            return result

        monkeypatch.setattr(simlang, "analyse", analyse)
        for stage, run in ((1, run_statement_stage), (2, run_proof_stage)):
            toy_config.stage = stage
            run(toy_config)
        assert len(per_edit) >= 30 and set(per_edit) == {1}, per_edit

    def test_toy_run_with_splits(self, monkeypatch, toy_config, tmp_path):
        # parts of one or two units leave no tail to keep; the reads must
        # still be exact
        toy_config.split_threshold = 10
        self.run_checked(monkeypatch, toy_config)
        assert any("_part" in p.name for p in (tmp_path / "project").rglob("*.lean"))

    def test_sixty_items_in_one_section(self, monkeypatch, toy_config, tmp_path):
        dataset = tmp_path / "data" / "one_section.json"
        dump_dataset(one_section_records(60), dataset)
        toy_config.dataset = str(dataset)
        assert self.run_checked(monkeypatch, toy_config)[0] >= 39

    def test_resume_segments_with_splits_in_one_process(self, monkeypatch, toy_config, tmp_path):
        # each segment's new Project takes over the last one's entries of
        # unchanged bytes; every one it hands out must still be exact
        dataset = tmp_path / "data" / "one_section.json"
        dump_dataset(one_section_records(60), dataset)
        toy_config.dataset = str(dataset)
        toy_config.split_threshold = 100
        toy_config.max_items = 5
        assert self.run_checked(monkeypatch, toy_config)[1] > 0
        assert any("_part" in p.name for p in (tmp_path / "project").rglob("*.lean"))


class TestModuleNames:
    def test_roundtrip(self):
        assert simlang.module_name("Chapters/Chap01/section01.lean") == "Chapters.Chap01.section01"
        assert simlang.module_file("Chapters.Chap01.section01") == "Chapters/Chap01/section01.lean"

    @pytest.mark.parametrize("module", [".root.x", "..x", "A..B", "A/B", "A-B"])
    def test_a_name_that_is_not_dotted_identifiers_names_no_file(self, module):
        assert simlang.module_file(module) is None


def benchmark_workload(monkeypatch, name):
    """The benchmark's workload ``name``, from ``perfbench/workloads.py``."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("workloads").WORKLOADS[name]


class TestSplitPartAnalyses:
    def test_the_split_resume_workload_reads_no_part_afresh(self, monkeypatch, tmp_path):
        # at seed 7 the one section splits into parts in stage 2: each part
        # takes its analysis from the section file's, and every edit of a
        # part starts from the part's analysis
        workload = benchmark_workload(monkeypatch, "split_resume")
        dataset = tmp_path / "corpus.json"
        dump_dataset(workload.records(7), dataset)
        cfg = RunConfig(
            dataset=str(dataset),
            project=str(tmp_path / "project"),
            runs_dir=str(tmp_path / "runs"),
            split_threshold=workload.split_threshold,
            max_items=workload.segment_items,
            resume=True,
        )
        cfg.stage = 1
        while run_statement_stage(cfg)[0]:
            pass
        asked, fresh = [], []  # the file whose analysis is asked for; those read afresh
        real_analysis, real_analyse = Project.analysis, simlang.analyse

        def analysis(project, file_id):
            asked.append(file_id)
            return real_analysis(project, file_id)

        def analyse(text, base=None):
            if base is None:
                fresh.append(asked[-1])
            return real_analyse(text, base)

        monkeypatch.setattr(Project, "analysis", analysis)
        monkeypatch.setattr(simlang, "analyse", analyse)
        cfg.stage = 2
        while run_proof_stage(cfg)[0]:
            pass
        parts = [p.name for p in (tmp_path / "project").rglob("*_part*.lean")]
        assert len(parts) >= 2
        assert [f for f in fresh if "_part" in f] == []

