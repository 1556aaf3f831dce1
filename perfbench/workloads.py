"""The benchmark's workloads and the seeded, scaled corpora they run on.

Corpora are built from the six-record plan in ``toydata``:
``build_records(sections, items_per_section, tricky)`` lays out
``sections`` sections, two per chapter, of ``items_per_section`` records
each. Items cycle through the six-record toy plan; a cycle after the first
suffixes its names with the cycle number so every name stays unique in its
file. At the toy shape (4 x 6, tricky ``{2, 9, 20}``) the records equal
``toydata.build_toy_records()``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from autoform.corpus import DatasetRecord, SectionContext
from autoform.toydata import SECTION_TITLES, _content, _proof

SECTIONS_PER_CHAPTER = 2
PLAN_LENGTH = 6
TRICKY_SHARE = 8  # one item in eight is tricky, as in the toy corpus (3 of 24)


def pick_tricky(seed: int, n_items: int) -> set[int]:
    """The seed's tricky item indices: one in each block of eight items, at
    a seed-chosen position. A repair costs more late in a growing file, so
    one per block keeps the work of a run nearly the same for every seed."""
    rng = random.Random(seed)
    return {
        start + rng.randrange(TRICKY_SHARE)
        for start in range(1, n_items - TRICKY_SHARE + 2, TRICKY_SHARE)
    }


def _plan(ch: int, sec: int, cycle: int) -> list[tuple[str, str, str, str | None]]:
    prefix = f"c{ch}s{sec}"
    suffix = str(cycle) if cycle else ""
    ta, tb = f"T{ch}{sec}A", f"T{ch}{sec}B"
    alpha, beta = f"{prefix}Alpha{suffix}", f"{prefix}Beta{suffix}"
    return [
        ("def", "Definition", f"{alpha} : {ta}", None),
        ("theorem", "Theorem", f"{prefix}AlphaSpec{suffix} : {ta}", alpha),
        ("abbrev" if sec == 1 else "def", "Definition", f"{beta} : {tb}", None),
        ("lemma", "Lemma", f"{prefix}BetaSpec{suffix} : {tb}", beta),
        ("theorem", "Theorem", f"{prefix}Gamma{suffix} : True", "trivial"),
        ("proposition", "Proposition", f"{prefix}Delta{suffix} : {ta}", alpha),
    ]


def build_records(sections: int, items_per_section: int, tricky: set[int]) -> list[DatasetRecord]:
    records: list[DatasetRecord] = []
    index = 1
    for s in range(sections):
        ch, sec = s // SECTIONS_PER_CHAPTER + 1, s % SECTIONS_PER_CHAPTER + 1
        chapter_title, section_title = SECTION_TITLES.get(
            (ch, sec), (f"Chapter {ch}", f"Section {ch}.{sec}")
        )
        ctx = SectionContext(
            chapter_number=ch,
            chapter=chapter_title,
            section_number=str(sec),
            section=section_title,
        )
        for k in range(1, items_per_section + 1):
            cycle, slot = divmod(k - 1, PLAN_LENGTH)
            env, label_kind, directive, term = _plan(ch, sec, cycle)[slot]
            label = f"{label_kind} {ch}.{sec}.{k}"
            records.append(
                DatasetRecord(
                    index=index,
                    label=label,
                    env=env,
                    number_components=(ch, sec, k),
                    extracted_labels=(f"{env}:{ch}.{sec}.{k}",),
                    context=ctx,
                    content=_content(env, label, directive, index in tricky),
                    dependencies=(),
                    proof=_proof(term) if term is not None else "",
                )
            )
            index += 1
    return records


@dataclass(frozen=True)
class Workload:
    """One corpus shape and run shape. All workloads are closed-loop batches:
    items run in index order, each committed before the next one starts."""

    name: str
    sections: int
    items_per_section: int
    stage2_operators: str = "toy"  # "adversarial": every proof patch is rejected
    split_threshold: int = 1200
    segment_items: int | None = None  # run each stage as --resume segments of this size

    @property
    def n_items(self) -> int:
        return self.sections * self.items_per_section

    def records(self, seed: int) -> list[DatasetRecord]:
        return build_records(self.sections, self.items_per_section, pick_tricky(seed, self.n_items))


WORKLOADS = {
    w.name: w
    for w in (
        # one ~180-line file: verify_file cost grows quadratically with length
        Workload("one_section", sections=1, items_per_section=60),
        # 200 tiny files: fixed per-item cost (metrics, history, checkpoint, I/O)
        Workload("many_sections", sections=200, items_per_section=4),
        # stage 1 stays toy: with every stage-1 item restored away, stage 2
        # raises FileNotFoundError on the missing section file (a known defect)
        Workload("reject_heavy", sections=4, items_per_section=6, stage2_operators="adversarial"),
        # threshold below the file length: splits, import chains, resume, many run ids
        Workload(
            "split_resume", sections=1, items_per_section=60, split_threshold=100, segment_items=5
        ),
    )
}
