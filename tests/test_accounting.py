from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from autoform.accounting import (
    UnknownSchemaError,
    build_report,
    cost_alpha,
    per_problem_rows,
    render_csv,
)
from autoform.stage1 import Stage1ItemResult
from autoform.stage2 import Stage2ItemResult

from helpers import (
    item_end_events,
    legacy_stage1_events,
    stage2_events,
    synthetic_partial_proof_run,
    synthetic_proof_run,
    synthetic_statement_run,
)
from oracles import ref_build_report, ref_per_problem_rows


class TestVerifierCallCounts:
    def test_direct_event_count(self):
        events = stage2_events("r1", targets=100, solved=100,
                               verifier_calls=592, oracle_calls=600)
        assert build_report(events).verifier_calls == 592

    def test_legacy_reconstruction_from_item_counters(self):
        report = build_report(synthetic_statement_run())
        assert report.verifier_calls == 592
        assert report.oracle_calls == 592

    def test_empty_run(self):
        events = legacy_stage1_events("r_empty", [])
        assert build_report(events).verifier_calls == 0

    def test_unknown_schema_rejected(self):
        events = [
            {"ts": "t", "run_id": "r", "event": "run_start", "data": {"schema_version": 99}}
        ]
        with pytest.raises(UnknownSchemaError):
            build_report(events)

    def test_aggregation_sums_over_run_ids_without_dedup(self):
        a = legacy_stage1_events("seg_a", [0, 1])
        b = legacy_stage1_events("seg_b", [2])
        both = a + b
        assert build_report(both).verifier_calls == (2 + 1) + (1 + 2)
        assert build_report(both, {"seg_a"}).verifier_calls == 3
        assert build_report(both, {"seg_b"}).verifier_calls == 3


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
    SEGMENTS = 400

    def events(self) -> list[ReadCountingEvent]:
        events = [
            ReadCountingEvent(ev)
            for k in range(self.SEGMENTS)
            for ev in stage2_events(
                f"seg{k:03d}", targets=2, solved=1, verifier_calls=3, oracle_calls=4
            )
        ]
        legacy = legacy_stage1_events("legacy", [0, 1])
        return events + [ReadCountingEvent(ev) for ev in legacy]

    def test_counts_sum_over_segments_in_one_pass(self):
        segments = self.SEGMENTS
        events = self.events()
        ReadCountingEvent.reads = 0
        report = build_report(events)
        assert report.verifier_calls == 3 * segments + (2 + 1)
        assert report.oracle_calls == 4 * segments + (2 + 1)
        # a bounded number of field reads per event, not one rescan of the
        # stream per run id; the one legacy segment rescans
        assert ReadCountingEvent.reads <= 8 * len(events)
        assert build_report(events, {"seg007", "legacy"}).verifier_calls == 3 + 3

    def test_a_report_reads_each_event_a_bounded_number_of_times(self):
        events = self.events()
        for run_ids in (None, {"seg007", "legacy", "absent"}):
            ReadCountingEvent.reads = 0
            build_report(events, run_ids)
            # one fold reads an event's run id, its kind and at most its data
            assert ReadCountingEvent.reads <= 4 * len(events)
            ReadCountingEvent.reads = 0
            per_problem_rows(events, run_ids)
            assert ReadCountingEvent.reads <= 3 * len(events)


class TestOracleCallCounts:
    def test_stage2_fixture_totals(self):
        events = synthetic_proof_run()
        q = build_report(events).oracle_calls
        assert q == 1263
        assert round(q / 339, 2) == 3.73

    def test_zero_invocations(self):
        events = stage2_events("r0", targets=1, solved=1,
                               verifier_calls=1, oracle_calls=1)
        # strip the oracle events: counting sees none
        stripped = [e for e in events if e["event"] != "oracle_result"]
        assert build_report(stripped).oracle_calls == 0


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


def metrics_of(results, events=()):
    """The report's metrics over ``events`` and the ``item_end`` events of
    ``results``."""
    return build_report([*events, *item_end_events(results)]).metrics


class TestMetrics:
    def test_scc_all_compiled(self):
        results = [Stage1ItemResult(i, f"b{i}", "compiled") for i in range(416)]
        m = metrics_of(results)
        assert m.scc == 100.0

    def test_arr_small_example(self):
        attempts = [0, 0, 0, 1, 1]
        results = [
            Stage1ItemResult(i, f"b{i}", "compiled", b_attempts=a)
            for i, a in enumerate(attempts)
        ]
        assert metrics_of(results).arr == pytest.approx(0.4)

    def test_arr_counts_only_compiled_blocks(self):
        results = [
            Stage1ItemResult(0, "a", "compiled", b_attempts=2),
            Stage1ItemResult(1, "b", "restored_failed", b_attempts=3),
        ]
        m = metrics_of(results)
        assert m.arr == 2.0
        assert m.scc == 50.0

    def test_psr_full_closure(self):
        results = [Stage2ItemResult(i, f"h{i}", "solved") for i in range(339)]
        assert metrics_of(results).psr == 100.0

    def test_psr_empty_set_is_undefined_not_zero(self):
        m = metrics_of([])
        assert m.psr is None

    def test_pb_from_project_check_event(self):
        events = [
            {"ts": "t", "run_id": "r", "event": "project_check", "data": {"ok": True}},
        ]
        assert metrics_of([], events).pb is True

    def test_event_reconstruction_of_a_synthetic_run(self):
        events = synthetic_statement_run()
        m = build_report(events).metrics
        assert m.scc == 100.0
        assert m.arr == pytest.approx(176 / 416, abs=5e-5)  # reported at 4 decimals
        assert m.pb is True


class TestTokens:
    def test_a_task_tokens_line_counts_nothing(self):
        """A ``task_tokens`` line, which older streams may hold, counts as
        much as a ``warning`` line: the tokens are the oracle results'."""
        events = [
            {"ts": "t", "run_id": "r", "event": "run_start", "data": {"schema_version": 2}},
            {"ts": "t", "run_id": "r", "event": "oracle_result",
             "data": {"tokens_used": 10}},
        ]
        old = {"ts": "t", "run_id": "r", "event": "task_tokens",
               "data": {"tokens_used_total": 999}}
        warning = dict(old, event="warning")
        assert build_report(events + [old]) == build_report(events + [warning])
        assert build_report(events + [old]).tokens == 10

    def test_oracle_fields_summed_otherwise(self):
        events = [
            {"ts": "t", "run_id": "r", "event": "run_start", "data": {"schema_version": 2}},
            {"ts": "t", "run_id": "r", "event": "oracle_result", "data": {"tokens_used": 10}},
            {"ts": "t", "run_id": "r", "event": "oracle_result", "data": {}},
            {"ts": "t", "run_id": "r", "event": "oracle_result", "data": {"tokens_used": 5}},
        ]
        assert build_report(events).tokens == 15


class TestReports:
    def test_build_report_over_mixed_fixture(self):
        report = build_report(synthetic_statement_run() + synthetic_proof_run())
        assert report.verifier_calls == 592 + 628
        assert report.oracle_calls == 592 + 1263
        assert report.targets == 416 + 339
        assert report.metrics.scc == 100.0 and report.metrics.psr == 100.0
        assert report.costs[0.10] == cost_alpha(1220, 1855, 0.10)

    def test_partial_proof_run_report(self):
        events = synthetic_partial_proof_run()
        report = build_report(events)
        assert report.verifier_calls == 283
        assert report.oracle_calls == 339
        assert report.targets == 100 and report.solved == 96
        assert report.costs[0.25] == 367.75
        assert report.calls_per_solved == round(283 / 96, 2)

    def test_per_problem_rows_sorted_and_deterministic(self):
        events = synthetic_partial_proof_run()
        rows = per_problem_rows(events)
        assert len(rows) == 100
        assert [r["index"] for r in rows] == sorted(r["index"] for r in rows)
        assert rows[0]["outcome"] == "solved"
        assert rows[-1]["outcome"] == "unsolved"
        assert render_csv(rows) == render_csv(per_problem_rows(events))

    def test_csv_shape(self):
        events = synthetic_partial_proof_run()
        csv_text = render_csv(per_problem_rows(events))
        header, first = csv_text.splitlines()[:2]
        assert header == "index,label,lean_file,nonempty_lines,outcome"
        assert first.startswith("1,Target 1,")


class TestMissingData:
    def test_every_kind_reads_a_missing_data_as_empty(self):
        events = [
            {"ts": "t", "run_id": "r", "event": "run_start", "data": {"schema_version": 2}},
            {"ts": "t", "run_id": "r", "event": "oracle_result"},
            {"ts": "t", "run_id": "r", "event": "lean_check"},
            {"ts": "t", "run_id": "r", "event": "project_check"},
        ]
        report = build_report(events)
        assert (report.verifier_calls, report.oracle_calls, report.tokens) == (1, 1, 0)
        assert report.metrics.pb is False
        old = {"ts": "t", "run_id": "r", "event": "task_tokens"}
        assert build_report(events + [old]).tokens == 0
        assert build_report([events[1]]).tokens == 0


class TestRunIds:
    # a run with item_end and lean_check lines but no run_start line: schema
    # 1, so V and Q are each one item plus its two repair attempts
    UNSTARTED = [
        {"ts": "t", "run_id": "u", "event": "lean_check", "data": {}},
        {"ts": "t", "run_id": "u", "event": "item_end",
         "data": {"index": 1, "status": "compiled", "b_attempts": 2}},
    ]

    def test_the_report_names_every_run_its_totals_sum_over(self):
        report = build_report(self.UNSTARTED)
        assert (report.verifier_calls, report.oracle_calls) == (3, 3)
        assert report.run_ids == ("u",)
        started = stage2_events("s", targets=1, solved=1,
                                verifier_calls=2, oracle_calls=2)
        report = build_report(started + self.UNSTARTED)
        assert (report.verifier_calls, report.run_ids) == (2 + 3, ("s", "u"))

    def test_a_filter_names_its_ids_also_when_absent(self):
        report = build_report(self.UNSTARTED, {"u", "gone"})
        assert (report.verifier_calls, report.run_ids) == (3, ("gone", "u"))


RUN_IDS = st.sampled_from(["a", "b", "c"])
COUNTS = st.integers(0, 3)
STATUSES = st.sampled_from(
    ["compiled", "restored_failed", "solved", "unsolved", "already_closed", "skipped", "other"]
)


def _payload(draw, kind: str) -> dict:
    """A ``data`` payload of ``kind`` with the fields accounting reads, each
    present or not."""
    fields = {
        "run_start": {"schema_version": st.sampled_from([1, 2, 99])},
        "oracle_result": {"tokens_used": st.none() | st.integers(0, 50)},
        "project_check": {"ok": st.booleans()},
        "item_start": {"nonempty_lines": st.integers(0, 90)},
        "item_end": {
            "status": STATUSES,
            "a_attempts": COUNTS,
            "b_attempts": COUNTS,
            "c_plans": COUNTS,
            "label": st.text(max_size=3),
            "lean_file": st.sampled_from(["A.lean", "B.lean"]),
        },
    }.get(kind, {})
    data = {"index": draw(st.integers(0, 6))} if kind in ("item_start", "item_end") else {}
    for name, values in fields.items():
        if draw(st.booleans()):
            data[name] = draw(values)
    return data


@st.composite
def event_lists(draw) -> list[dict]:
    """Events of runs of schema 1, 2 or 99 (absent means 1), each run
    opened by a ``run_start`` line; later ``run_start`` lines of a run may
    change its schema. Every event carries ``data``."""
    kinds = ["lean_check", "oracle_result", "item_start", "item_end", "project_check",
             "run_start", "run_end", "warning"]
    body = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(kinds))
        body.append({"ts": "t", "run_id": draw(RUN_IDS), "event": kind,
                     "data": _payload(draw, kind)})
    opened = sorted({ev["run_id"] for ev in body})
    starts = [{"ts": "t", "run_id": run_id, "event": "run_start",
               "data": _payload(draw, "run_start")} for run_id in opened]
    return starts + body


FILTERS = st.none() | st.sets(st.sampled_from(["a", "b", "c", "absent"]))


def _outcome(fn):
    try:
        return fn()
    except UnknownSchemaError as exc:
        return ("UnknownSchemaError", str(exc))


class TestSameAsTheScanningReport:
    """The fold gives what the report that scanned the events about a dozen
    times gave (``oracles.ref_build_report``). The two bugs that report had
    are left out here and tested above: every event carries ``data``, and
    every run has a ``run_start`` line. So is the ``task_tokens`` rule the
    fold dropped: no event is such a line."""

    @settings(max_examples=300, deadline=None)
    @given(events=event_lists(), run_ids=FILTERS)
    def test_report_rows_and_views(self, events, run_ids):
        assert _outcome(lambda: build_report(events, run_ids).as_dict()) == _outcome(
            lambda: ref_build_report(events, run_ids).as_dict()
        )
        assert per_problem_rows(events, run_ids) == ref_per_problem_rows(events, run_ids)

    def test_over_the_synthetic_runs(self):
        events = (
            synthetic_statement_run()
            + synthetic_proof_run()
            + synthetic_partial_proof_run()
        )
        run_ids = sorted({ev["run_id"] for ev in events})
        for chosen in (None, set(run_ids[:1]), set(run_ids[1:]) | {"absent"}):
            assert build_report(events, chosen) == ref_build_report(events, chosen)
            assert per_problem_rows(events, chosen) == ref_per_problem_rows(events, chosen)
