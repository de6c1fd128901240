"""Tests for the FIFO temporal buffer with clear-and-summarize compaction."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memagent.core import (
    ActionCommand,
    InvariantError,
    Outcome,
    StepRecord,
    Verb,
    canonical_json,
    to_doc,
)
from memagent.temporal import CompactedSummary, TemporalMemory


def record(i):
    return StepRecord(
        step_index=i,
        action=ActionCommand(verb=Verb.FIND, target=f"object {i}"),
        summary=f"looked for object {i}",
        outcome=Outcome.SUCCESS,
    )


def replay_oracle(capacity, n):
    """Reference FIFO policy: a full buffer collapses into one summary item
    placed first, then the new record is appended."""
    entries = []
    for i in range(n):
        if len(entries) >= capacity:
            first = min(lo for lo, _ in entries)
            last = max(hi for _, hi in entries)
            entries = [(first, last)]
        entries.append((i, i))
    return entries


class TestCompactedSummary:
    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            CompactedSummary(text="x", covers_steps=(5, 2))

    def test_singleton_range_allowed(self):
        CompactedSummary(text="x", covers_steps=(3, 3))

    @pytest.mark.parametrize(
        "covers_steps",
        [["a", "b"], [1.5, 2], [True, 2], [1, None], [-1, 2], [1], [1, 2, 3], 5, "12"],
    )
    def test_rejects_covers_steps_that_are_not_two_step_indexes(self, covers_steps):
        with pytest.raises(InvariantError) as refused:
            CompactedSummary(text="x", covers_steps=covers_steps)
        assert refused.value.path == "covers_steps"

    @pytest.mark.parametrize("text", [5, None, ["x"]])
    def test_rejects_text_that_is_not_text(self, text):
        with pytest.raises(InvariantError) as refused:
            CompactedSummary(text=text, covers_steps=(1, 2))
        assert refused.value.path == "text"

    def test_a_list_of_steps_becomes_a_tuple(self):
        assert CompactedSummary(text="", covers_steps=[1, 2]).covers_steps == (1, 2)


class TestAppendPolicy:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            TemporalMemory(capacity=0)

    def test_no_compaction_below_capacity(self):
        mem = TemporalMemory(capacity=3)
        for i in range(3):
            mem.append(record(i))
        entries = mem.entries()
        assert len(entries) == 3
        assert all(isinstance(e, StepRecord) for e in entries)

    def test_compaction_on_overflow(self):
        mem = TemporalMemory(capacity=3)
        for i in range(4):
            mem.append(record(i))
        entries = mem.entries()
        assert len(entries) == 2
        assert isinstance(entries[0], CompactedSummary)
        assert entries[0].covers_steps == (0, 2)
        assert isinstance(entries[1], StepRecord)
        assert entries[1].step_index == 3

    def test_nested_compaction_extends_cover_range(self):
        mem = TemporalMemory(capacity=2)
        for i in range(5):
            mem.append(record(i))
        entries = mem.entries()
        assert isinstance(entries[0], CompactedSummary)
        assert entries[0].covers_steps == (0, 3)
        assert entries[1].step_index == 4

    @given(
        capacity=st.sampled_from([1, 2, 3, 5]),
        n=st.integers(min_value=0, max_value=25),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_replay_oracle(self, capacity, n):
        mem = TemporalMemory(capacity=capacity)
        for i in range(n):
            mem.append(record(i))
        got = []
        for item in mem.entries():
            if isinstance(item, CompactedSummary):
                got.append(item.covers_steps)
            else:
                got.append((item.step_index, item.step_index))
        assert got == replay_oracle(capacity, n)

    def test_buffer_never_exceeds_capacity_plus_one(self):
        mem = TemporalMemory(capacity=3)
        for i in range(30):
            mem.append(record(i))
            assert len(mem.entries()) <= 4


class TestContent:
    def test_compacted_text_mentions_all_summaries(self):
        mem = TemporalMemory(capacity=2)
        for i in range(3):
            mem.append(record(i))
        summary = mem.entries()[0]
        assert "object 0" in summary.text
        assert "object 1" in summary.text

    def test_render_shows_ranges_and_steps(self):
        mem = TemporalMemory(capacity=2)
        for i in range(3):
            mem.append(record(i))
        text = mem.render()
        assert "steps 0-1 (summary):" in text
        assert "step 2: looked for object 2" in text

    def test_render_empty_buffer(self):
        assert TemporalMemory().render() == ""


class TestLifecycle:
    def test_clear_empties_buffer(self):
        mem = TemporalMemory()
        mem.append(record(0))
        mem.clear()
        assert mem.entries() == []

    def test_snapshot_is_canonical_json(self):
        mem = TemporalMemory(capacity=2)
        for i in range(3):
            mem.append(record(i))
        doc = mem.snapshot()
        assert json.loads(canonical_json(doc)) == doc
        assert doc["capacity"] == 2
        assert doc["entries"][0]["type"] == "compacted"
        assert doc["entries"][0]["covers_steps"] == [0, 1]
        assert doc["entries"][1]["type"] == "step"
        assert doc["entries"][1]["action"]["verb"] == "find"

    def test_restored_buffer_compacts_as_the_original(self):
        mem = TemporalMemory(capacity=2)
        for i in range(5):
            mem.append(record(i))
        other = TemporalMemory()
        other.restore(json.loads(canonical_json(mem.snapshot())))
        assert other.snapshot() == mem.snapshot()
        for i in range(5, 8):
            mem.append(record(i))
            other.append(record(i))
        assert other.snapshot() == mem.snapshot()

    @pytest.mark.parametrize("capacity", [True, "3", 2.0, 0])
    def test_restore_checks_the_capacity(self, capacity):
        with pytest.raises(ValueError, match="capacity"):
            TemporalMemory().restore({"capacity": capacity, "entries": []})

    @pytest.mark.parametrize("capacity, limit", [(1, 2), (2, 2), (3, 3)])
    def test_restore_refuses_more_entries_than_appends_leave(self, capacity, limit):
        # A full buffer compacts on append, so it never holds more than
        # capacity items, or a summary and a record when capacity is 1.
        mem = TemporalMemory(capacity=capacity)
        for i in range(limit + 2):
            mem.append(record(i))
            TemporalMemory(capacity=capacity).restore(mem.snapshot())  # what appends leave
        assert len(mem.entries()) == limit
        over = dict(mem.snapshot())
        over["entries"] = over["entries"] + [dict(over["entries"][-1], step_index=limit)]
        before = mem.snapshot()
        with pytest.raises(InvariantError) as refused:
            mem.restore(over)
        assert refused.value.path == "entries"
        assert mem.snapshot() == before

    def test_restore_refuses_five_steps_in_a_buffer_of_three(self):
        steps = [dict(to_doc(record(i)), type="step") for i in range(5)]
        with pytest.raises(InvariantError, match="entries"):
            TemporalMemory().restore({"capacity": 3, "entries": steps})

    @pytest.mark.parametrize(
        "field, value",
        [("step_index", 1.5), ("step_index", True), ("step_index", "3"),
         ("step_index", None), ("summary", 5), ("summary", None), ("summary", "")],
    )
    def test_restore_refuses_a_step_field_of_the_wrong_type(self, field, value):
        mem = TemporalMemory(capacity=2)
        mem.append(record(0))
        before = mem.snapshot()
        step = dict(to_doc(record(1)), type="step")
        step[field] = value
        with pytest.raises(InvariantError) as refused:
            mem.restore({"capacity": 2, "entries": [step]})
        assert refused.value.path == field
        assert mem.snapshot() == before

    @pytest.mark.parametrize(
        "field, value",
        [("covers_steps", ["a", "b"]), ("covers_steps", [1.5, 2]),
         ("covers_steps", [True, 2]), ("covers_steps", [2, 1]), ("text", 5)],
    )
    def test_restore_refuses_a_summary_field_of_the_wrong_type(self, field, value):
        mem = TemporalMemory(capacity=2)
        mem.append(record(0))
        before = mem.snapshot()
        summary = {"type": "compacted", "text": "x", "covers_steps": [0, 1]}
        summary[field] = value
        with pytest.raises(InvariantError) as refused:
            mem.restore({"capacity": 2, "entries": [summary]})
        assert refused.value.path == field
        assert mem.snapshot() == before

    def test_restore_keeps_blank_text_that_is_not_empty(self):
        # A summary or compacted text of whitespace is text; only an empty
        # step summary is refused.
        step = dict(to_doc(record(2)), type="step", summary="  ")
        summary = {"type": "compacted", "text": "", "covers_steps": [0, 1]}
        mem = TemporalMemory(capacity=2)
        mem.restore({"capacity": 2, "entries": [summary, step]})
        assert mem.snapshot()["entries"] == [summary, step]

    def test_restore_rejects_an_unknown_entry_type(self):
        doc = {"capacity": 2, "entries": [{"type": "note", "text": "x"}]}
        with pytest.raises(ValueError):
            TemporalMemory().restore(doc)

    def test_snapshot_records_failure_reason(self):
        mem = TemporalMemory()
        mem.append(
            StepRecord(
                step_index=0,
                action=ActionCommand(verb=Verb.PICK_UP, target="cup"),
                summary="pick up cup: failed",
                outcome=Outcome.FAILURE,
                failure_reason="hands full",
            )
        )
        doc = mem.snapshot()
        assert doc["entries"][0] == {
            "type": "step",
            "step_index": 0,
            "action": {"verb": "pick_up", "target": "cup"},
            "summary": "pick up cup: failed",
            "outcome": "failure",
            "failure_reason": "hands full",
        }
