from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from autoform import synthlogs
from autoform.accounting import (
    UnknownSchemaError,
    build_report,
    compute_metrics,
    cost_alpha,
    count_oracle_calls,
    count_verifier_calls,
    per_problem_rows,
    render_csv,
    total_tokens,
)
from autoform.stage1 import Stage1ItemResult
from autoform.stage2 import Stage2ItemResult


class TestVerifierCallCounts:
    def test_direct_event_count(self):
        events = synthlogs.stage2_events("r1", targets=100, solved=100,
                                         verifier_calls=592, oracle_calls=600)
        assert count_verifier_calls(events) == 592

    def test_legacy_reconstruction_from_item_counters(self):
        events = synthlogs.real_analysis_stage1_fixture()
        assert count_verifier_calls(events) == 592
        assert count_oracle_calls(events) == 592

    def test_empty_run(self):
        events = synthlogs.legacy_stage1_events("r_empty", [])
        assert count_verifier_calls(events) == 0

    def test_unknown_schema_rejected(self):
        events = [
            {"ts": "t", "run_id": "r", "event": "run_start", "data": {"schema_version": 99}}
        ]
        with pytest.raises(UnknownSchemaError):
            count_verifier_calls(events)

    def test_aggregation_sums_over_run_ids_without_dedup(self):
        a = synthlogs.legacy_stage1_events("seg_a", [0, 1])
        b = synthlogs.legacy_stage1_events("seg_b", [2])
        both = a + b
        assert count_verifier_calls(both) == (2 + 1) + (1 + 2)
        assert count_verifier_calls(both, {"seg_a"}) == 3
        assert count_verifier_calls(both, {"seg_b"}) == 3


class ReadCountingEvent(dict):
    """An event that counts how often accounting reads its fields."""

    reads = 0

    def get(self, key, default=None):
        ReadCountingEvent.reads += 1
        return super().get(key, default)

    def __getitem__(self, key):
        ReadCountingEvent.reads += 1
        return super().__getitem__(key)


class TestManyResumedRunIds:
    def test_counts_sum_over_segments_in_one_pass(self):
        segments = 400
        events = [
            ReadCountingEvent(ev)
            for k in range(segments)
            for ev in synthlogs.stage2_events(
                f"seg{k:03d}", targets=2, solved=1, verifier_calls=3, oracle_calls=4
            )
        ]
        legacy = synthlogs.legacy_stage1_events("legacy", [0, 1])
        events += [ReadCountingEvent(ev) for ev in legacy]
        ReadCountingEvent.reads = 0
        assert count_verifier_calls(events) == 3 * segments + (2 + 1)
        assert count_oracle_calls(events) == 4 * segments + (2 + 1)
        # a bounded number of field reads per event per count, not one
        # rescan of the stream per run id; the one legacy segment rescans
        assert ReadCountingEvent.reads <= 2 * 8 * len(events)
        assert count_verifier_calls(events, {"seg007", "legacy"}) == 3 + 3


class TestOracleCallCounts:
    def test_stage2_fixture_totals(self):
        events = synthlogs.real_analysis_stage2_fixture()
        q = count_oracle_calls(events)
        assert q == 1263
        assert round(q / 339, 2) == 3.73

    def test_zero_invocations(self):
        events = synthlogs.stage2_events("r0", targets=1, solved=1,
                                         verifier_calls=1, oracle_calls=1)
        # strip the oracle events: counting sees none
        stripped = [e for e in events if e["event"] != "oracle_result"]
        assert count_oracle_calls(stripped) == 0


class TestCostAlpha:
    def test_archived_run_values(self):
        assert cost_alpha(628, 1263, 0.10) == 754.30
        assert cost_alpha(628, 1263, 0.25) == 943.75
        assert cost_alpha(283, 339, 0.25) == 367.75
        assert cost_alpha(1065, 2001, 0.10) == 1265.10
        assert cost_alpha(77, 148, 0.25) == 114.00

    def test_zero_oracle_calls(self):
        assert cost_alpha(592, 0, 0.25) == 592

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            cost_alpha(-1, 0, 0.1)
        with pytest.raises(ValueError):
            cost_alpha(1, 1, 1.5)

    @given(st.integers(0, 5000), st.integers(0, 5000), st.sampled_from([0.05, 0.10, 0.25]))
    def test_monotone_in_v(self, v, q, alpha):
        assert cost_alpha(v + 1, q, alpha) > cost_alpha(v, q, alpha)

    @given(st.integers(0, 5000), st.integers(0, 5000))
    def test_monotone_in_q_and_alpha(self, v, q):
        assert cost_alpha(v, q + 100, 0.10) > cost_alpha(v, q, 0.10)
        assert cost_alpha(v, q + 1, 0.25) >= cost_alpha(v, q + 1, 0.05)


class TestComputeMetrics:
    def test_scc_all_compiled(self):
        results = [Stage1ItemResult(i, f"b{i}", "compiled") for i in range(416)]
        m = compute_metrics([], results)
        assert m.scc == 100.0

    def test_arr_small_example(self):
        attempts = [0, 0, 0, 1, 1]
        results = [
            Stage1ItemResult(i, f"b{i}", "compiled", b_attempts=a)
            for i, a in enumerate(attempts)
        ]
        assert compute_metrics([], results).arr == pytest.approx(0.4)

    def test_arr_counts_only_compiled_blocks(self):
        results = [
            Stage1ItemResult(0, "a", "compiled", b_attempts=2),
            Stage1ItemResult(1, "b", "restored_failed", b_attempts=3),
        ]
        m = compute_metrics([], results)
        assert m.arr == 2.0
        assert m.scc == 50.0

    def test_psr_full_closure(self):
        results = [Stage2ItemResult(i, f"h{i}", "solved") for i in range(339)]
        assert compute_metrics([], results).psr == 100.0

    def test_psr_empty_set_is_undefined_not_zero(self):
        m = compute_metrics([], [])
        assert m.psr is None

    def test_pb_from_project_check_event(self):
        events = [
            {"ts": "t", "run_id": "r", "event": "project_check", "data": {"ok": True}},
        ]
        assert compute_metrics(events, []).pb is True

    def test_event_reconstruction_matches_item_results(self):
        events = synthlogs.real_analysis_stage1_fixture()
        m = compute_metrics(events)
        assert m.scc == 100.0
        assert m.arr == pytest.approx(176 / 416, abs=5e-5)  # reported at 4 decimals
        assert m.pb is True


class TestTokens:
    def test_backfill_events_are_canonical(self):
        events = [
            {"ts": "t", "run_id": "r", "event": "run_start", "data": {"schema_version": 2}},
            {"ts": "t", "run_id": "r", "event": "oracle_result",
             "data": {"tokens_used": 10}},
            {"ts": "t", "run_id": "b", "event": "task_tokens",
             "data": {"tokens_used_total": 999}},
        ]
        assert total_tokens(events) == 999

    def test_oracle_fields_summed_otherwise(self):
        events = [
            {"ts": "t", "run_id": "r", "event": "run_start", "data": {"schema_version": 2}},
            {"ts": "t", "run_id": "r", "event": "oracle_result", "data": {"tokens_used": 10}},
            {"ts": "t", "run_id": "r", "event": "oracle_result", "data": {}},
            {"ts": "t", "run_id": "r", "event": "oracle_result", "data": {"tokens_used": 5}},
        ]
        assert total_tokens(events) == 15


class TestReports:
    def test_build_report_over_mixed_fixture(self):
        events = (
            synthlogs.real_analysis_stage1_fixture()
            + synthlogs.real_analysis_stage2_fixture()
        )
        report = build_report(events)
        assert report.verifier_calls == 592 + 628
        assert report.oracle_calls == 592 + 1263
        assert report.targets == 416 + 339
        assert report.metrics.scc == 100.0 and report.metrics.psr == 100.0
        assert report.costs[0.10] == cost_alpha(1220, 1855, 0.10)

    def test_fateh_report(self):
        events = synthlogs.fateh_auto_stage2_fixture()
        report = build_report(events)
        assert report.verifier_calls == 283
        assert report.oracle_calls == 339
        assert report.targets == 100 and report.solved == 96
        assert report.costs[0.25] == 367.75
        assert report.calls_per_solved == round(283 / 96, 2)

    def test_per_problem_rows_sorted_and_deterministic(self):
        events = synthlogs.fateh_auto_stage2_fixture()
        rows = per_problem_rows(events)
        assert len(rows) == 100
        assert [r["index"] for r in rows] == sorted(r["index"] for r in rows)
        assert rows[0]["outcome"] == "solved"
        assert rows[-1]["outcome"] == "unsolved"
        assert render_csv(rows) == render_csv(per_problem_rows(events))

    def test_csv_shape(self):
        events = synthlogs.fateh_auto_stage2_fixture()
        csv_text = render_csv(per_problem_rows(events))
        header, first = csv_text.splitlines()[:2]
        assert header == "index,label,lean_file,nonempty_lines,outcome"
        assert first.startswith("1,Target 1,")
