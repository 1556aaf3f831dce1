from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from autoform.corpus import (
    CONTEXT_KEYS,
    PROOF_TARGET_ENVS,
    RECORD_KEYS,
    DatasetError,
    DatasetRecord,
    SectionContext,
    dump_dataset,
    is_proof_target,
    load_dataset,
    load_lemma_map,
    parse_dataset,
)

EXAMPLE_RECORD = {
    "index": 1,
    "label": "Definition 1.1.1",
    "env": "def",
    "number_components": [1, 1, 1],
    "extracted_labels": ["def:1.1", "eq:1.1"],
    "context": {
        "chapter_number": 1,
        "chapter": "Real Numbers",
        "section_number": "1",
        "section": "Ordered sets",
        "subsection_number": "",
        "subsection": "",
    },
    "content": "\\begin{definition} ... \\end{definition}",
    "dependencies": [],
    "proof": "",
}


def make_record(index, env="theorem", proof="p", **kw):
    return {
        "index": index,
        "label": f"Item {index}",
        "env": env,
        "content": "\\begin{theorem} x \\end{theorem}",
        "proof": proof,
        **kw,
    }


class TestLoadDataset:
    def test_sorts_ascending_by_index(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps([make_record(3), make_record(1), make_record(2)]))
        records = load_dataset(path)
        assert [r.index for r in records] == [1, 2, 3]

    def test_example_record_roundtrips_all_nine_keys(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps([EXAMPLE_RECORD]))
        records = load_dataset(path)
        rec = records[0]
        assert rec.index == 1 and rec.label == "Definition 1.1.1" and rec.env == "def"
        assert rec.as_dict() == EXAMPLE_RECORD
        assert set(rec.as_dict()) == set(EXAMPLE_RECORD)

    def test_missing_optional_fields_default_empty(self):
        records = parse_dataset([make_record(1)])
        rec = records[0]
        assert rec.number_components == ()
        assert rec.dependencies == ()
        assert rec.context == SectionContext()

    def test_duplicate_index_reports_positions(self):
        with pytest.raises(DatasetError, match="positions 0 and 2"):
            parse_dataset([make_record(7), make_record(1), make_record(7)])

    def test_missing_required_field_reports_position(self):
        bad = make_record(2)
        del bad["label"]
        with pytest.raises(DatasetError, match="position 1.*label"):
            parse_dataset([make_record(1), bad])

    def test_empty_content_rejected(self):
        bad = make_record(1)
        bad["content"] = ""
        with pytest.raises(DatasetError, match="empty content"):
            parse_dataset([bad])

    def test_malformed_container(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text("{not json")
        with pytest.raises(DatasetError, match="malformed"):
            load_dataset(path)
        path.write_text(json.dumps({"records": []}))
        with pytest.raises(DatasetError, match="array"):
            load_dataset(path)

    def test_unknown_keys_survive_roundtrip(self, tmp_path):
        raw = make_record(1, page=42, source_hash="abc")
        records = parse_dataset([raw])
        assert records[0].as_dict()["page"] == 42
        assert records[0].as_dict()["source_hash"] == "abc"

    def test_determinism_under_shuffle(self, tmp_path):
        base = [make_record(i) for i in range(1, 30)]
        out = []
        for seed in (0, 1, 2):
            shuffled = base[:]
            random.Random(seed).shuffle(shuffled)
            path = tmp_path / f"d{seed}.json"
            path.write_text(json.dumps(shuffled))
            sorted_path = tmp_path / f"s{seed}.json"
            dump_dataset(load_dataset(path), sorted_path)
            out.append(sorted_path.read_bytes())
        assert out[0] == out[1] == out[2]

    def test_load_twice_is_idempotent(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps([make_record(2), make_record(1)]))
        assert load_dataset(path) == load_dataset(path)


class TestIsProofTarget:
    def make(self, env, proof):
        return parse_dataset([make_record(1, env=env, proof=proof)])[0]

    def test_definition_with_empty_proof_is_not_a_target(self):
        assert not is_proof_target(self.make("def", ""))

    def test_theorem_with_proof_is_a_target(self):
        assert is_proof_target(self.make("theorem", "..."))

    def test_proposition_like_envs_default(self):
        for env in ("theorem", "lemma", "proposition", "corollary"):
            assert is_proof_target(self.make(env, "..."))
        assert not is_proof_target(self.make("claim", "..."))

    def test_empty_proof_excluded(self):
        rec = self.make("theorem", "")
        assert not is_proof_target(rec)
        assert not is_proof_target(self.make("theorem", "  \n"))

    def test_pure_function_of_inputs(self):
        rec = self.make("lemma", "...")
        assert is_proof_target(rec) == is_proof_target(rec)


class TestLemmaMap:
    def test_example_entry_parses(self, tmp_path):
        path = tmp_path / "lm.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "problem_id": "FATEH_XX",
                        "decl_hints": ["Mathlib.Analysis.X", "Mathlib.Topology.Y"],
                        "notes": "optional natural-language rationale",
                    }
                ]
            )
        )
        lm = load_lemma_map(path)
        assert lm["FATEH_XX"].decl_hints == ("Mathlib.Analysis.X", "Mathlib.Topology.Y")
        assert lm["FATEH_XX"].notes == "optional natural-language rationale"

    def test_empty_collection(self, tmp_path):
        path = tmp_path / "lm.json"
        path.write_text("[]")
        assert load_lemma_map(path) == {}

    def test_object_keyed_form(self, tmp_path):
        path = tmp_path / "lm.json"
        path.write_text(json.dumps({"P1": {"decl_hints": ["a.b"]}}))
        lm = load_lemma_map(path)
        assert lm["P1"].decl_hints == ("a.b",)

    def test_missing_problem_id(self, tmp_path):
        path = tmp_path / "lm.json"
        path.write_text(json.dumps([{"decl_hints": []}]))
        with pytest.raises(DatasetError, match="problem_id"):
            load_lemma_map(path)

    def test_non_list_decl_hints(self, tmp_path):
        path = tmp_path / "lm.json"
        path.write_text(json.dumps([{"problem_id": "x", "decl_hints": "a"}]))
        with pytest.raises(DatasetError, match="decl_hints"):
            load_lemma_map(path)

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"P1": 5}, "entry at position 0 is not an object"),
            ({"P1": {}, "P2": ["a.b"]}, "entry at position 1 is not an object"),
            ([{"problem_id": "x"}, "P2"], "entry at position 1 is not an object"),
            ([{"problem_id": ["a"]}], "position 0 has no string or integer problem_id"),
            ([{"problem_id": True}], "position 0 has no string or integer problem_id"),
            ([{"problem_id": None}], "position 0 has no string or integer problem_id"),
            ({"P1": {"problem_id": 1.5}}, "position 0 has no string or integer problem_id"),
            (
                [{"problem_id": "x"}, {"problem_id": "P1", "decl_hints": [["a"], None, 3]}],
                "position 1: decl_hints entry 0 is not a string",
            ),
            ([{"problem_id": "P1", "decl_hints": ["a", None]}], "decl_hints entry 1 is not"),
            ([{"problem_id": "P1", "decl_hints": ["a", 3]}], "decl_hints entry 1 is not"),
            ([{"problem_id": "P1", "notes": {"x": 1}}], "position 0: notes is not a string"),
            ({"P1": {"notes": 3}}, "position 0: notes is not a string"),
        ],
        ids=["object-value", "object-list-value", "array-string", "list-id", "bool-id",
             "null-id", "float-id-overriding-its-key", "list-hint", "null-hint", "int-hint",
             "object-notes", "int-notes"],
    )
    def test_a_malformed_entry_is_a_dataset_error(self, tmp_path, data, message):
        path = tmp_path / "lm.json"
        path.write_text(json.dumps(data))
        with pytest.raises(DatasetError, match=message):
            load_lemma_map(path)

    def test_an_absent_or_null_note_reads_empty(self, tmp_path):
        path = tmp_path / "lm.json"
        path.write_text(json.dumps([{"problem_id": "a"}, {"problem_id": "b", "notes": None}]))
        assert [e.notes for e in load_lemma_map(path).values()] == ["", ""]

    def test_string_and_integer_ids_still_load(self, tmp_path):
        path = tmp_path / "lm.json"
        path.write_text(json.dumps([{"problem_id": 7}, {"problem_id": "P8"}]))
        assert sorted(load_lemma_map(path)) == ["7", "P8"]
        path.write_text(json.dumps({"P1": {"problem_id": 9}, "P2": {}}))
        assert sorted(load_lemma_map(path)) == ["9", "P2"]


class TestMalformedRecords:
    """Every malformed record is a ``DatasetError`` naming its position and
    field, never another exception or a value read past its fault."""

    def test_a_context_that_is_not_an_object(self):
        for context in ("Chapter 1", [1], 3):
            with pytest.raises(DatasetError, match="position 1 has a context that is not an obj"):
                parse_dataset([make_record(1), make_record(2, context=context)])

    @pytest.mark.parametrize("key", ["number_components", "extracted_labels", "dependencies"])
    def test_a_list_field_that_is_not_a_list(self, key):
        for value in (5, "ab", {"a": 1}):
            with pytest.raises(DatasetError, match=f"position 0 has a {key} that is not a list"):
                parse_dataset([make_record(1, **{key: value})])

    def test_a_non_integer_number_component(self):
        for entry in ("one", None, 1.5, True, [1]):
            with pytest.raises(DatasetError, match="position 0 has non-integer number_comp"):
                parse_dataset([make_record(1, number_components=[1, entry])])

    def test_a_non_integer_chapter_number(self):
        for number in ("one", 2.5, True, [1]):
            with pytest.raises(DatasetError, match="position 0 has non-integer context.chapter"):
                parse_dataset([make_record(1, context={"chapter_number": number})])
        with pytest.raises(DatasetError, match="section context has non-integer"):
            SectionContext.from_dict({"chapter_number": "one"})

    def test_a_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "d.json"
        text = json.dumps([make_record(1, label="\xe9")], ensure_ascii=False)
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(DatasetError, match="not valid UTF-8"):
            load_dataset(path)

    def test_a_fractional_or_bool_index_is_not_an_integer(self):
        # it was read as 1, and so reported as a duplicate of the record at 0
        for index in (1.7, True, float("inf"), float("nan")):
            with pytest.raises(DatasetError, match="position 1 has non-integer index"):
                parse_dataset([make_record(1), make_record(index)])

    def test_integer_valued_indexes_still_load(self):
        records = parse_dataset([make_record("3"), make_record(2.0), make_record(" 1 ")])
        assert [r.index for r in records] == [1, 2, 3]
        assert all(type(r.index) is int for r in records)


# -- the records against the frozen dataclasses they replaced --------------------

JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.text(max_size=6)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
TEXT = st.text(max_size=12)  # unicode, line and paragraph separators included
CONTEXTS = st.none() | st.fixed_dictionaries(
    {},
    optional={
        "chapter_number": st.integers(-5, 99) | st.integers(0, 99).map(str) | st.none(),
        "chapter": TEXT,
        "section_number": TEXT | st.integers(0, 9),
        "section": TEXT,
        "subsection_number": TEXT,
        "subsection": TEXT,
        "note": JSON_VALUES,
    },
)
OPTIONAL = {
    "number_components": st.none() | st.lists(st.integers(-9, 99) | st.integers(0, 9).map(str)),
    "extracted_labels": st.none() | st.lists(TEXT | st.integers(), max_size=3),
    "context": CONTEXTS,
    "dependencies": st.none() | st.lists(TEXT, max_size=3),
    "proof": st.none() | TEXT,
}
EXTRAS = st.dictionaries(
    st.text(max_size=8).filter(lambda k: k not in RECORD_KEYS), JSON_VALUES, max_size=3
)


@st.composite
def raw_records(draw, index=st.integers(-50, 50)):
    obj = draw(
        st.fixed_dictionaries(
            {
                "index": index,
                "label": TEXT | st.integers(),
                "env": st.sampled_from(sorted(PROOF_TARGET_ENVS) + ["def", "abbrev"]) | TEXT,
                "content": st.text(min_size=1, max_size=20),
            },
            optional=OPTIONAL,
        )
    )
    return {**draw(EXTRAS), **obj}


def raw_datasets(max_size=6):
    """Datasets of records with distinct indexes, some given as strings."""
    return st.lists(st.integers(-50, 50), unique=True, max_size=max_size).flatmap(
        lambda indexes: st.tuples(
            *[raw_records(st.sampled_from([i, str(i), float(i)])) for i in indexes]
        ).map(list)
    )


def outcome(fn):
    try:
        return ("ok", fn())
    except Exception as exc:
        return ("raised", type(exc), str(exc))


def same_record(new, ref):
    assert repr(new) == oracles.ref_repr(ref)
    assert new.as_dict() == ref.as_dict()
    assert new.context.as_dict() == ref.context.as_dict()
    assert outcome(lambda: hash(new)) == outcome(lambda: hash(ref))


class TestRecordsMatchTheDataclasses:
    @settings(max_examples=200, deadline=None)
    @given(raw_datasets())
    def test_parse_dataset_matches(self, data):
        new, ref = parse_dataset(data), oracles.ref_parse_dataset(data)
        assert len(new) == len(ref)
        for n, r in zip(new, ref):
            same_record(n, r)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(raw_records(), min_size=2, max_size=4))
    def test_duplicates_are_refused_alike(self, data):
        data.append(dict(data[0]))
        assert outcome(lambda: parse_dataset(data)) == outcome(
            lambda: oracles.ref_parse_dataset(data)
        )

    @settings(max_examples=150, deadline=None)
    @given(raw_records(), raw_records())
    def test_equality_and_hash_between_records(self, a, b):
        new = [parse_dataset([x])[0] for x in (a, b, dict(a))]
        ref = [oracles.ref_parse_dataset([x])[0] for x in (a, b, dict(a))]
        for i in range(3):
            for j in range(3):
                assert (new[i] == new[j]) == (ref[i] == ref[j])
                assert (new[i] != new[j]) == (ref[i] != ref[j])
                assert (new[i].context == new[j].context) == (ref[i].context == ref[j].context)
        assert outcome(lambda: hash(new[0]) == hash(new[2])) == outcome(
            lambda: hash(ref[0]) == hash(ref[2])
        )

    @settings(max_examples=100, deadline=None)
    @given(CONTEXTS.filter(bool))
    def test_context_from_dict_and_as_dict(self, d):
        new, ref = SectionContext.from_dict(d), oracles.RefSectionContext.from_dict(d)
        assert repr(new) == oracles.ref_repr(ref)
        assert new.as_dict() == ref.as_dict()
        assert list(new.as_dict()) == list(ref.as_dict())
        assert hash(new) == hash(ref)

    @settings(max_examples=100, deadline=None)
    @given(raw_records())
    def test_keyword_construction_matches(self, raw):
        ref = oracles.ref_parse_dataset([raw])[0]
        fields = {k: getattr(ref, k) for k in RECORD_KEYS + ("extra",)}
        fields["context"] = SectionContext(**ref.context.as_dict())
        new = DatasetRecord(**fields)
        same_record(new, ref)
        assert new == parse_dataset([raw])[0]

    def test_defaults(self):
        assert repr(SectionContext()) == oracles.ref_repr(oracles.RefSectionContext())
        new = DatasetRecord(index=1, label="L", env="def")
        same_record(new, oracles.RefDatasetRecord(index=1, label="L", env="def"))
        assert new.context == SectionContext()
        assert new.context is DatasetRecord(index=2, label="M", env="def").context
        for cls in (DatasetRecord, oracles.RefDatasetRecord):
            with pytest.raises(TypeError):
                cls(index=1, label="L")

    @pytest.mark.parametrize("name", RECORD_KEYS + ("extra", "other"))
    def test_a_record_refuses_assignment(self, name):
        record = parse_dataset([EXAMPLE_RECORD])[0]
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        assert record.as_dict() == EXAMPLE_RECORD

    @pytest.mark.parametrize("name", CONTEXT_KEYS + ("other",))
    def test_a_context_refuses_assignment(self, name):
        context = SectionContext.from_dict(EXAMPLE_RECORD["context"])
        with pytest.raises(AttributeError):
            setattr(context, name, 0)
        assert context.as_dict() == EXAMPLE_RECORD["context"]

    def test_replace_gives_a_changed_copy(self):
        record = parse_dataset([EXAMPLE_RECORD])[0]
        changed = record._replace(index=9, proof="q")
        assert (changed.index, changed.proof, record.index, record.proof) == (9, "q", 1, "")
        assert type(changed) is DatasetRecord


class TestDumpLayout:
    @settings(max_examples=100, deadline=None)
    @given(raw_datasets())
    def test_one_record_per_line_and_the_same_value(self, tmp_path_factory, data):
        tmp = tmp_path_factory.mktemp("dump")
        new_path, ref_path = tmp / "new.json", tmp / "ref.json"
        records = parse_dataset(data)
        dump_dataset(records, new_path)
        oracles.ref_dump_dataset(oracles.ref_parse_dataset(data), ref_path)
        text = new_path.read_text(encoding="utf-8")
        assert json.loads(text) == json.loads(ref_path.read_text(encoding="utf-8"))
        if not records:
            assert text == "[]\n"
            return
        lines = text.split("\n")
        assert lines[0] == "[" and lines[-2:] == ["]", ""]
        body = lines[1:-2]
        assert len(body) == len(records)
        for i, (line, record) in enumerate(zip(body, records)):
            assert line.endswith(",") == (i < len(records) - 1)
            assert json.loads(line.removesuffix(",")) == record.as_dict()
        assert load_dataset(new_path) == records
        # a file in the old indented layout loads to the same records
        assert load_dataset(ref_path) == records

    def test_non_ascii_is_written_as_is(self, tmp_path):
        # a line separator inside a string is not a newline: the record keeps its line
        path = tmp_path / "d.json"
        label = "Th\u00e9or\u00e8me\u2028\u00a01"
        dump_dataset(parse_dataset([make_record(1, label=label), make_record(2)]), path)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert len(lines) == 5 and label in lines[1]
