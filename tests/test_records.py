"""The records of the check and attempt loop against the frozen dataclasses
they replaced (``oracles.Ref*``): the same construction errors, equality,
hashes, reprs, order and methods between records of one class, built from
the same fields. Each record also refuses assignment to every field."""

from __future__ import annotations

import copy
import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from autoform.diagnostics import (
    SEVERITIES,
    Diagnostic,
    DiagnosticSet,
    Scope,
    SourceRange,
    err_count,
    localize,
    select_error,
)
from autoform.kernel import AttemptOutcome, ObjectivePair, PatchProposal, Snapshot
from autoform.operators import OPERATOR_KINDS, OperatorRequest, OperatorResponse

NEW = SimpleNamespace(
    SourceRange=SourceRange,
    Diagnostic=Diagnostic,
    DiagnosticSet=DiagnosticSet,
    Scope=Scope,
    ObjectivePair=ObjectivePair,
    PatchProposal=PatchProposal,
    Snapshot=Snapshot,
    AttemptOutcome=AttemptOutcome,
    OperatorRequest=OperatorRequest,
    OperatorResponse=OperatorResponse,
    localize=localize,
    select_error=select_error,
    err_count=err_count,
)
REF = SimpleNamespace(
    SourceRange=oracles.RefSourceRange,
    Diagnostic=oracles.RefDiagnostic,
    DiagnosticSet=oracles.RefDiagnosticSet,
    Scope=oracles.RefScope,
    ObjectivePair=oracles.RefObjectivePair,
    PatchProposal=oracles.RefPatchProposal,
    Snapshot=oracles.RefSnapshot,
    AttemptOutcome=oracles.RefAttemptOutcome,
    OperatorRequest=oracles.RefOperatorRequest,
    OperatorResponse=oracles.RefOperatorResponse,
    localize=oracles.ref_localize,
    select_error=oracles.ref_select_error,
    err_count=oracles.ref_err_count,
)


def run(fn, ns):
    """``("ok", repr)`` of ``fn(ns)``, or ``("raised", type, text)``; a
    reference record's repr is given with the library's class names."""
    try:
        value = fn(ns)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    return ("ok", oracles.ref_repr(value) if ns is REF else repr(value))


def assert_same(fn):
    assert run(fn, NEW) == run(fn, REF)


# -- building both sides from the same fields ---------------------------------


def source_range(ns, spec):
    return ns.SourceRange(*spec)


def diagnostic(ns, spec):
    rng, severity, message = spec
    return ns.Diagnostic(ns.SourceRange(*rng), severity, message)


def diagnostic_set(ns, specs):
    return ns.DiagnosticSet.of(diagnostic(ns, s) for s in specs)


def scope(ns, specs):
    return ns.Scope(tuple(ns.SourceRange(*r) for r in specs))


def objective(ns, spec):
    return ns.ObjectivePair(*spec)


def patch(ns, spec):
    file, rng, replacement, origin = spec
    return ns.PatchProposal(file, ns.SourceRange(*rng), replacement, origin)


def snapshot(ns, spec):
    return ns.Snapshot(*spec)


def outcome(ns, spec):
    accepted, before, after, diags = spec
    return ns.AttemptOutcome(
        accepted, objective(ns, before), objective(ns, after), diagnostic_set(ns, diags)
    )


def value(ns, node):
    """A payload value: ranges and scopes, nested in lists, tuples and dicts."""
    tag, v = node
    if tag == "range":
        return ns.SourceRange(*v)
    if tag == "scope":
        return scope(ns, v)
    if tag == "list":
        return [value(ns, x) for x in v]
    if tag == "tuple":
        return tuple(value(ns, x) for x in v)
    if tag == "dict":
        return {k: value(ns, x) for k, x in v.items()}
    return v


def request(ns, spec):
    kind, payload = spec
    return ns.OperatorRequest(kind, value(ns, payload))


def response(ns, spec):
    ok, patch_spec, text, tokens, ref, error = spec
    proposal = None if patch_spec is None else patch(ns, patch_spec)
    return ns.OperatorResponse(
        ok=ok, patch=proposal, text=text, tokens_used=tokens, transcript_ref=ref, error=error
    )


# -- strategies of fields -------------------------------------------------------

positions = st.tuples(st.integers(0, 8), st.integers(0, 4))
range_specs = st.tuples(positions, positions).map(lambda p: (*min(p), *max(p)))
raw_range_specs = st.tuples(*[st.integers(-2, 6)] * 4)
messages = st.text("ab '\n", max_size=3)
severity_names = st.sampled_from(SEVERITIES + ("fatal", "Error", ""))
diagnostic_specs = st.tuples(range_specs, st.sampled_from(SEVERITIES), messages)
set_specs = st.lists(diagnostic_specs, max_size=6)
scope_specs = st.lists(range_specs, max_size=4)
objective_specs = st.tuples(st.integers(0, 3), st.integers(0, 3))
texts = st.sampled_from(["", "a", "sorry", "A.lean"])
patch_specs = st.tuples(texts, range_specs, texts, texts)
entries = st.none() | st.tuples(st.sampled_from([b"", b"x\n"]), st.none() | texts, st.none())
snapshot_specs = st.tuples(texts, entries, st.none() | st.sampled_from([b"", b"x\n"]))
outcome_specs = st.tuples(st.booleans(), objective_specs, objective_specs, set_specs)
payloads = st.recursive(
    st.one_of(
        st.tuples(st.just("plain"), st.none() | st.integers(-2, 2) | texts),
        st.tuples(st.just("range"), range_specs),
        st.tuples(st.just("scope"), scope_specs),
    ),
    lambda inner: st.one_of(
        st.tuples(st.just("list"), st.lists(inner, max_size=3)),
        st.tuples(st.just("tuple"), st.lists(inner, max_size=3)),
        st.tuples(st.just("dict"), st.dictionaries(texts, inner, max_size=3)),
    ),
    max_leaves=6,
)
request_specs = st.tuples(
    st.sampled_from(OPERATOR_KINDS), st.tuples(st.just("dict"), st.dictionaries(texts, payloads))
)
response_specs = st.tuples(
    st.booleans(), st.none() | patch_specs, st.none() | texts,
    st.none() | st.integers(0, 9), st.none() | texts, st.none() | texts,
)

RECORDS = {
    "SourceRange": (source_range, range_specs),
    "Diagnostic": (diagnostic, diagnostic_specs),
    "DiagnosticSet": (diagnostic_set, set_specs),
    "Scope": (scope, scope_specs),
    "ObjectivePair": (objective, objective_specs),
    "PatchProposal": (patch, patch_specs),
    "Snapshot": (snapshot, snapshot_specs),
    "AttemptOutcome": (outcome, outcome_specs),
    "OperatorRequest": (request, request_specs),
    "OperatorResponse": (response, response_specs),
}


# -- construction ---------------------------------------------------------------


class TestConstruction:
    @given(raw_range_specs)
    def test_source_range(self, spec):
        assert_same(lambda ns: ns.SourceRange(*spec))

    @given(st.tuples(st.integers(-2, 6), st.integers(-2, 6)))
    def test_whole_lines(self, spec):
        assert_same(lambda ns: ns.SourceRange.whole_lines(*spec))

    @given(range_specs, severity_names, messages)
    def test_diagnostic(self, rng, severity, message):
        assert_same(lambda ns: ns.Diagnostic(ns.SourceRange(*rng), severity, message))

    @given(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    def test_objective_pair(self, spec):
        assert_same(lambda ns: ns.ObjectivePair(*spec))

    @given(st.sampled_from(OPERATOR_KINDS + ("", "prove", "Plan")))
    def test_operator_request(self, kind):
        assert_same(lambda ns: ns.OperatorRequest(kind, {"task_id": "1"}))

    def test_keywords_and_defaults(self):
        for ns in (NEW, REF):
            r = ns.SourceRange(start_line=1, start_col=0, end_line=2, end_col=0)
            d = ns.Diagnostic(range=r, severity="info", message="m")
            assert (d.range, d.severity, d.message) == (r, "info", "m")
            assert ns.PatchProposal("A.lean", r, "x").origin == ""
            assert ns.Scope().ranges == () and len(ns.DiagnosticSet()) == 0
            failed = ns.OperatorResponse.failed("no", "log")
            assert (failed.ok, failed.patch, failed.error, failed.transcript_ref) == (
                False, None, "no", "log"
            )
            assert ns.OperatorRequest(kind="plan", payload={}).kind == "plan"


# -- equality, hashes, reprs, order ---------------------------------------------


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_hash_and_repr(name):
    build, specs = RECORDS[name]

    @settings(max_examples=60, deadline=None)
    @given(specs, specs)
    def check(a, b):
        new_a, new_b = build(NEW, a), build(NEW, b)
        ref_a, ref_b = build(REF, a), build(REF, b)
        assert repr(new_a) == oracles.ref_repr(ref_a)
        assert (new_a == new_b) == (ref_a == ref_b)
        assert (new_a != new_b) == (ref_a != ref_b)
        assert (new_a == build(NEW, a)) == (ref_a == build(REF, a))
        assert run(lambda ns: hash(build(ns, a)), NEW) == run(lambda ns: hash(build(ns, a)), REF)

    check()


@given(st.lists(range_specs, max_size=8), range_specs, range_specs)
def test_source_ranges_sort_as_before(specs, a, b):
    new = sorted(SourceRange(*s) for s in specs)
    ref = sorted(oracles.RefSourceRange(*s) for s in specs)
    assert [r.as_dict() for r in new] == [r.as_dict() for r in ref]
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        got = getattr(SourceRange(*a), op)(SourceRange(*b))
        assert got == getattr(oracles.RefSourceRange(*a), op)(oracles.RefSourceRange(*b))


# -- methods ----------------------------------------------------------------------


class TestRangesAndScopes:
    @given(range_specs, range_specs)
    def test_range_methods(self, a, b):
        for method in ("intersects", "contains"):
            assert_same(lambda ns: getattr(ns.SourceRange(*a), method)(ns.SourceRange(*b)))
        assert_same(lambda ns: (ns.SourceRange(*a).start, ns.SourceRange(*a).end))
        assert_same(lambda ns: ns.SourceRange(*a).as_dict())

    @given(st.fixed_dictionaries(dict.fromkeys(
        ("start_line", "start_col", "end_line", "end_col"), st.integers(-1, 4)
    )))
    def test_from_dict(self, d):
        assert_same(lambda ns: ns.SourceRange.from_dict(d))
        assert_same(lambda ns: ns.SourceRange.from_dict(ns.SourceRange.from_dict(d).as_dict()))

    @given(scope_specs, scope_specs, range_specs)
    def test_scope_normalisation_and_methods(self, a, b, r):
        assert_same(lambda ns: scope(ns, a).ranges)
        assert_same(lambda ns: scope(ns, a).union(scope(ns, b)))
        assert_same(lambda ns: scope(ns, a).with_range(ns.SourceRange(*r)))
        assert_same(lambda ns: ns.Scope.of(*(ns.SourceRange(*s) for s in a)))
        assert_same(lambda ns: scope(ns, a).is_empty)
        for method in ("intersects", "covers"):
            assert_same(lambda ns: getattr(scope(ns, a), method)(ns.SourceRange(*r)))

    @given(patch_specs)
    def test_patch_fields(self, spec):
        assert_same(lambda ns: patch(ns, spec).range)
        assert_same(lambda ns: (patch(ns, spec).file, patch(ns, spec).replacement))


class TestDiagnostics:
    @given(set_specs, set_specs, scope_specs)
    def test_localize_select_and_counts(self, a, b, s):
        assert_same(lambda ns: ns.localize(diagnostic_set(ns, a), scope(ns, s)))
        assert_same(lambda ns: ns.select_error(diagnostic_set(ns, a)))
        assert_same(lambda ns: ns.err_count(diagnostic_set(ns, a)))
        assert_same(lambda ns: diagnostic_set(ns, a).union(diagnostic_set(ns, b)))
        assert_same(lambda ns: diagnostic_set(ns, a).normalized())
        assert_same(lambda ns: diagnostic_set(ns, a).errors())
        assert_same(lambda ns: (len(diagnostic_set(ns, a)), list(diagnostic_set(ns, a))))
        assert_same(lambda ns: [d.as_dict() for d in diagnostic_set(ns, a)])
        # a diagnostic sorts by its fields as the reference's sort_key orders it
        ref = sorted(diagnostic_set(REF, a), key=oracles.RefDiagnostic.sort_key)
        assert [d.as_dict() for d in sorted(diagnostic_set(NEW, a))] == [
            d.as_dict() for d in ref
        ]
        # the count the verifier's check line took with a generator
        for built in (NEW.DiagnosticSet.of, NEW.DiagnosticSet):
            ds = built(tuple(diagnostic(NEW, d) for d in a))
            ref = diagnostic_set(REF, a)
            assert ds.warning_count == sum(1 for d in ref if d.severity == "warning")
            assert ds.error_count == oracles.ref_err_count(ref)


class TestJsonPayload:
    @given(request_specs)
    def test_json_payload(self, spec):
        assert_same(lambda ns: request(ns, spec).json_payload())

    def test_a_range_in_a_tuple_is_converted_as_a_range(self):
        r = SourceRange(1, 2, 3, 4)
        payload = {"target_range": r, "pair": (r, [Scope.of(r)])}
        got = OperatorRequest("repair_patch", payload).json_payload()["payload"]
        assert got["target_range"] == r.as_dict()
        assert got["pair"] == [r.as_dict(), [[r.as_dict()]]]


# -- immutability, copies ----------------------------------------------------------


def samples():
    r = SourceRange(1, 0, 2, 0)
    d = Diagnostic(r, "warning", "m")
    proposal = PatchProposal("A.lean", r, "x", "o")
    pair = ObjectivePair(1, 0)
    return [
        (r, ("start_line", "start_col", "end_line", "end_col")),
        (d, ("range", "severity", "message")),
        (DiagnosticSet.of([d]), ("items", "error_count", "warning_count")),
        (Scope.of(r), ("ranges",)),
        (pair, ("primary", "secondary")),
        (proposal, ("file", "range", "replacement", "origin")),
        (Snapshot("A.lean", None, b""), ("file", "staged", "committed")),
        (AttemptOutcome(False, pair, pair, DiagnosticSet()), (
            "accepted", "before", "after", "diagnostics_after"
        )),
        (OperatorRequest("plan", {}), ("kind", "payload")),
        (OperatorResponse(True, proposal), (
            "ok", "patch", "text", "tokens_used", "transcript_ref", "error"
        )),
    ]


@pytest.mark.parametrize("record, fields", samples(), ids=lambda v: type(v).__name__)
def test_every_field_refuses_assignment(record, fields):
    before = repr(record)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == before


@pytest.mark.parametrize("record, fields", samples(), ids=lambda v: type(v).__name__)
def test_copies_are_equal_records(record, fields):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record and repr(twin) == repr(record)
        assert [getattr(twin, f) for f in fields] == [getattr(record, f) for f in fields]
