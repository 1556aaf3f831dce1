from __future__ import annotations

import json
import random

import pytest

from autoform.corpus import (
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
