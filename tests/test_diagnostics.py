from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from autoform.diagnostics import (
    Diagnostic,
    DiagnosticSet,
    Scope,
    SourceRange,
    apply_replacement,
    err_count,
    line_starts,
    localize,
    range_text,
)


def rng(sl, sc, el, ec):
    return SourceRange(sl, sc, el, ec)


def diag(sl, sc, el, ec, sev="error", msg="m"):
    return Diagnostic(rng(sl, sc, el, ec), sev, msg)


ranges = st.builds(
    lambda a, b: SourceRange(min(a, b)[0], min(a, b)[1], max(a, b)[0], max(a, b)[1]),
    st.tuples(st.integers(0, 30), st.integers(0, 10)),
    st.tuples(st.integers(0, 30), st.integers(0, 10)),
)
severities = st.sampled_from(["error", "warning", "info"])
diagnostics = st.builds(Diagnostic, ranges, severities, st.sampled_from(["a", "b", "c"]))
diag_sets = st.lists(diagnostics, max_size=20).map(DiagnosticSet.of)
scopes = st.lists(ranges, max_size=4).map(lambda rs: Scope(tuple(rs)))


class TestSourceRange:
    def test_start_after_end_rejected(self):
        with pytest.raises(ValueError):
            SourceRange(5, 0, 4, 0)

    def test_intersection_basics(self):
        assert rng(10, 0, 20, 0).intersects(rng(15, 0, 30, 0))
        assert not rng(0, 0, 1, 0).intersects(rng(5, 0, 6, 0))

    def test_shared_boundary_does_not_intersect(self):
        # half-open: [0,5) and [5,9) share no position
        assert not rng(0, 0, 5, 0).intersects(rng(5, 0, 9, 0))

    def test_zero_width_point_inside(self):
        assert rng(3, 4, 3, 4).intersects(rng(3, 0, 4, 0))
        assert not rng(9, 0, 9, 0).intersects(rng(3, 0, 4, 0))

    def test_contains(self):
        assert rng(0, 0, 10, 0).contains(rng(2, 0, 3, 5))
        assert not rng(0, 0, 10, 0).contains(rng(2, 0, 30, 0))


class TestDiagnosticSet:
    def test_severity_vocabulary_closed(self):
        with pytest.raises(ValueError):
            Diagnostic(rng(0, 0, 0, 1), "fatal", "boom")

    def test_multiset_duplicates_counted(self):
        d = diag(0, 0, 0, 1)
        assert err_count(DiagnosticSet.of([d, d])) == 2

    def test_equality_is_order_insensitive(self):
        a, b = diag(0, 0, 0, 1, msg="x"), diag(1, 0, 1, 1, msg="y")
        assert DiagnosticSet.of([a, b]) == DiagnosticSet.of([b, a])
        assert DiagnosticSet.of([a, a]) != DiagnosticSet.of([a])


class TestErrCount:
    def test_empty(self):
        assert err_count(DiagnosticSet()) == 0

    def test_mixed_severities(self):
        ds = DiagnosticSet.of(
            [diag(0, 0, 0, 1, "error"), diag(0, 0, 0, 1, "warning"), diag(0, 0, 0, 1, "info")]
        )
        assert err_count(ds) == 1

    @given(diag_sets)
    def test_matches_brute_force_filter(self, ds):
        assert err_count(ds) == len([d for d in ds if d.severity == "error"])

    @given(diag_sets, diag_sets, scopes)
    def test_kept_count_equals_a_recount_however_the_set_is_built(self, a, b, scope):
        def recount(ds, severity):
            return sum(1 for d in ds.items if d.severity == severity)

        built = (a, a.union(b), localize(a.union(b), scope), localize(a, Scope()), DiagnosticSet())
        for ds in built:
            assert err_count(ds) == ds.error_count == recount(ds, "error")
            assert ds.warning_count == recount(ds, "warning")


class TestLocalize:
    def test_empty_scope_localizes_nothing(self):
        ds = DiagnosticSet.of([diag(0, 0, 0, 1)])
        assert len(localize(ds, Scope())) == 0

    def test_overlapping_lines_included(self):
        ds = DiagnosticSet.of([diag(10, 0, 20, 5)])
        scope = Scope.of(SourceRange.whole_lines(15, 30))
        assert len(localize(ds, scope)) == 1

    @given(diag_sets, scopes)
    def test_matches_intersection_oracle(self, ds, scope):
        got = localize(ds, scope)
        expected = [
            d for d in ds if any(d.range.intersects(sr) for sr in scope.ranges)
        ]
        assert got == DiagnosticSet.of(expected)

    @given(diag_sets, scopes)
    def test_err_count_never_grows(self, ds, scope):
        assert err_count(localize(ds, scope)) <= err_count(ds)

    @given(diag_sets, scopes, scopes)
    @example(  # a point at the end of another scope's range
        ds=DiagnosticSet.of([diag(1, 0, 1, 0)]),
        s1=Scope.of(rng(0, 0, 1, 0)),
        s2=Scope.of(rng(1, 0, 1, 0)),
    )
    def test_distributes_over_scope_union(self, ds, s1, s2):
        union = s1.union(s2)
        left = set(localize(ds, union).normalized())
        right = set(localize(ds, s1).normalized()) | set(localize(ds, s2).normalized())
        assert left == right


class TestScope:
    def test_overlapping_ranges_merge(self):
        s = Scope.of(rng(0, 0, 5, 0), rng(3, 0, 8, 0))
        assert s.ranges == (rng(0, 0, 8, 0),)

    def test_point_at_the_end_of_a_range_keeps_its_footprint(self):
        s = Scope.of(rng(0, 0, 1, 0), rng(1, 0, 1, 0))
        assert s.ranges == (rng(0, 0, 1, 1),)
        assert s.intersects(rng(1, 0, 1, 0))

    def test_covers_requires_containment_in_one_range(self):
        s = Scope.of(rng(0, 0, 2, 0), rng(10, 0, 12, 0))
        assert s.covers(rng(0, 0, 1, 5))
        assert not s.covers(rng(1, 0, 11, 0))

    @given(st.lists(ranges, max_size=6))
    def test_normalized_ranges_are_disjoint_and_sorted(self, rs):
        s = Scope(tuple(rs))
        for a, b in zip(s.ranges, s.ranges[1:]):
            assert a.end < b.start  # strictly ordered with a gap (merged otherwise)
            assert not a.intersects(b)


class TestTextEdits:
    def test_apply_replacement(self):
        text = "line0\nline1\nline2\n"
        out = apply_replacement(text, rng(1, 0, 2, 0), "NEW\n", line_starts(text))
        assert out == "line0\nNEW\nline2\n"

    def test_range_text_roundtrip(self):
        text = "alpha\nbeta\ngamma\n"
        r = rng(1, 1, 2, 3)
        assert range_text(text, r) == "eta\ngam"
        assert apply_replacement(text, r, range_text(text, r), line_starts(text)) == text

    def test_replacement_clamps_out_of_document_positions(self):
        text = "one\n"
        out = apply_replacement(text, rng(5, 0, 9, 0), "x", line_starts(text))
        assert out == "one\nx"
