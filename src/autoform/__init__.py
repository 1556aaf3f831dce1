"""Verifier-in-the-loop statement compilation and proof repair.

Two pipelines over a pinned verification environment: stage 1 compiles
ordered statement items into a project that builds with placeholders
allowed, stage 2 closes the remaining proof holes under frozen statement
signatures. Both commit edits only when the verifier certifies strict
objective improvement; everything reported about a run is reconstructable
from its instrumentation artifacts.
"""

from .corpus import DatasetRecord, LemmaMapEntry, SectionContext, load_dataset, load_lemma_map
from .diagnostics import Diagnostic, DiagnosticSet, Scope, SourceRange, err_count, localize
from .kernel import (
    AttemptOutcome,
    ObjectivePair,
    PatchProposal,
    Snapshot,
    prec,
    stage1_objective,
    stage2_objective,
    try_patch,
)
from .verifier import (
    ExternalVerifier,
    GoalState,
    Project,
    SimulatedVerifier,
    Verifier,
)

__version__ = "0.1.0"

__all__ = [
    "AttemptOutcome",
    "DatasetRecord",
    "Diagnostic",
    "DiagnosticSet",
    "ExternalVerifier",
    "GoalState",
    "LemmaMapEntry",
    "ObjectivePair",
    "PatchProposal",
    "Project",
    "Scope",
    "SectionContext",
    "SimulatedVerifier",
    "Snapshot",
    "SourceRange",
    "Verifier",
    "err_count",
    "load_dataset",
    "load_lemma_map",
    "localize",
    "prec",
    "stage1_objective",
    "stage2_objective",
    "try_patch",
]
