import json
import threading
import time

import pytest
from hypothesis import given, strategies as st

from memagent.core import (
    ActionCommand,
    InvariantError,
    Observation,
    Outcome,
    StepRecord,
    TaskResult,
    Termination,
    Verb,
    canonical_json,
    canonical_name,
    fan_out,
    from_doc,
    to_doc,
)
from memagent.lifelong import MemoryEntity
from memagent.spatial import Triplet
from memagent.temporal import CompactedSummary


class TestCanonicalName:
    def test_collapses_whitespace_and_case(self):
        assert canonical_name("  Kitchen   Counter ") == "kitchen counter"

    @given(st.text())
    def test_idempotent(self, s):
        assert canonical_name(canonical_name(s)) == canonical_name(s)

    @given(st.text())
    def test_no_double_spaces(self, s):
        assert "  " not in canonical_name(s)


class TestActionCommand:
    def test_target_is_canonicalized(self):
        cmd = ActionCommand(verb=Verb.PICK_UP, target=" Gum  Box ")
        assert cmd.target == "gum box"

    def test_targetless_verbs_discard_target(self):
        assert ActionCommand(verb=Verb.TASK_COMPLETE, target="table").target is None

    def test_target_required_for_object_verbs(self):
        with pytest.raises(InvariantError):
            ActionCommand(verb=Verb.PICK_UP, target=None)

    @pytest.mark.parametrize("target", [7, ["cup"], "   "])
    def test_target_must_be_a_non_blank_string(self, target):
        with pytest.raises(InvariantError):
            ActionCommand(verb=Verb.PICK_UP, target=target)

    def test_drop_takes_no_target(self):
        assert ActionCommand(verb=Verb.DROP).target is None

    def test_str_rendering(self):
        assert str(ActionCommand(verb=Verb.OPEN, target="oven")) == "open(oven)"


class TestStepRecord:
    def _cmd(self):
        return ActionCommand(verb=Verb.PICK_UP, target="cup")

    def test_failure_requires_reason(self):
        with pytest.raises(InvariantError):
            StepRecord(step_index=1, action=self._cmd(), summary="x", outcome=Outcome.FAILURE)

    def test_success_forbids_reason(self):
        with pytest.raises(InvariantError):
            StepRecord(
                step_index=1,
                action=self._cmd(),
                summary="x",
                outcome=Outcome.SUCCESS,
                failure_reason="hands full",
            )

    def test_negative_step_index_rejected(self):
        with pytest.raises(InvariantError):
            StepRecord(step_index=-1, action=self._cmd(), summary="x", outcome=Outcome.SUCCESS)


class TestObservation:
    @pytest.mark.parametrize(
        "step_index, text, field",
        [(1.5, "x", "step_index"), (True, "x", "step_index"), (-1, "x", "step_index"),
         ("1", "x", "step_index"), (1, 5, "text"), (1, "", "text"), (1, None, "text"),
         (1, b"x", "text")],
    )
    def test_rejects_a_field_of_the_wrong_type(self, step_index, text, field):
        with pytest.raises(InvariantError) as raised:
            Observation(task_id="t", step_index=step_index, text=text)
        assert raised.value.path == field

    def test_accepts_an_observation(self):
        assert Observation(task_id="t", step_index=0, text=" ").text == " "


class TestTaskResult:
    def test_scn_bounded_by_gcn(self):
        with pytest.raises(InvariantError):
            TaskResult(task_id="t", scn=3, gcn=2, steps_used=1, terminated_by=Termination.SUCCESS)

    def test_gcn_at_least_one(self):
        with pytest.raises(InvariantError):
            TaskResult(task_id="t", scn=0, gcn=0, steps_used=1, terminated_by=Termination.SUCCESS)

    def test_success_property(self):
        r = TaskResult(
            task_id="t", scn=2, gcn=2, steps_used=3, terminated_by=Termination.SUCCESS
        )
        assert r.success
        r2 = TaskResult(
            task_id="t", scn=1, gcn=2, steps_used=3, terminated_by=Termination.STEP_BUDGET
        )
        assert not r2.success


class TestCanonicalJson:
    def test_sorted_keys_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    @given(
        st.dictionaries(
            st.text(),
            st.recursive(
                st.none() | st.booleans() | st.integers() | st.text(),
                lambda inner: st.lists(inner, max_size=3),
                max_leaves=8,
            ),
            max_size=5,
        )
    )
    def test_deterministic(self, doc):
        assert canonical_json(doc) == canonical_json(json.loads(canonical_json(doc)))


_name = st.text(min_size=1).filter(lambda s: canonical_name(s) != "")
_text = st.text(min_size=1)
_action = st.builds(ActionCommand, verb=st.sampled_from(Verb), target=_name)
_steps = st.integers(min_value=0, max_value=10**6)


@st.composite
def _step_records(draw):
    outcome = draw(st.sampled_from(Outcome))
    reason = draw(_text) if outcome is Outcome.FAILURE else None
    return StepRecord(draw(_steps), draw(_action), draw(_text), outcome, reason)


@st.composite
def _task_results(draw):
    gcn = draw(st.integers(min_value=1, max_value=5))
    ended = draw(st.sampled_from(Termination))
    return TaskResult(draw(_text), draw(st.integers(0, gcn)), gcn, draw(_steps), ended)


@st.composite
def _compacted(draw):
    first = draw(_steps)
    return CompactedSummary(draw(_text), (first, first + draw(st.integers(0, 10))))


#: Every type with a document form: the four core types, graph edges, buffer
#: summaries and long-term entities.
_SERIALIZED = {
    ActionCommand: _action,
    Observation: st.builds(Observation, task_id=_text, step_index=_steps, text=_text),
    StepRecord: _step_records(),
    TaskResult: _task_results(),
    Triplet: st.builds(Triplet, _name, st.text(), _name, _steps),
    CompactedSummary: _compacted(),
    MemoryEntity: st.builds(
        MemoryEntity,
        id=_text.filter(str.strip),
        kind=st.sampled_from(["episodic", "semantic"]),
        text=_text.filter(str.strip),
        task=_text.filter(str.strip),
        tags=st.lists(_text, max_size=3),
        count=st.integers(min_value=1),
        facts=st.lists(st.tuples(_text, _text, _text), max_size=3),
        avoid=st.lists(st.tuples(_text, _text), max_size=3),
    ),
}


class TestCodec:
    @pytest.mark.parametrize("cls", list(_SERIALIZED), ids=lambda cls: cls.__name__)
    @given(data=st.data())
    def test_round_trip_through_canonical_json(self, cls, data):
        value = data.draw(_SERIALIZED[cls])
        text = canonical_json(to_doc(value))
        back = from_doc(cls, json.loads(text))
        assert back == value
        assert canonical_json(to_doc(back)) == text

    def test_documents_of_core_types(self):
        record = StepRecord(4, ActionCommand(Verb.OPEN, "Oven"), "opened", Outcome.SUCCESS)
        assert to_doc(record) == {
            "step_index": 4,
            "action": {"verb": "open", "target": "oven"},
            "summary": "opened",
            "outcome": "success",
        }
        assert to_doc(ActionCommand(Verb.TASK_COMPLETE)) == {"verb": "task_complete"}
        assert to_doc(Triplet("cup", "on", "table", 2)) == {
            "subject": "cup", "relation": "on", "object": "table", "step_index": 2
        }
        assert to_doc(CompactedSummary("s", (1, 3))) == {"text": "s", "covers_steps": [1, 3]}

    def test_nested_documents_become_values(self):
        doc = {
            "step_index": 1,
            "action": {"verb": "pick_up", "target": "cup"},
            "summary": "x",
            "outcome": "failure",
            "failure_reason": "hands full",
            "type": "step",
        }
        record = from_doc(StepRecord, doc)
        assert record.action == ActionCommand(Verb.PICK_UP, "cup")
        assert record.outcome is Outcome.FAILURE
        assert type(record.action.verb) is Verb

    def test_a_missing_required_field_is_a_key_error_naming_it(self):
        with pytest.raises(KeyError) as raised:
            from_doc(Observation, {"task_id": "t", "text": "x"})
        assert raised.value.args == ("step_index",)

    def test_defaults_fill_missing_optional_fields(self):
        assert from_doc(Triplet, {"subject": "a", "relation": "on", "object": "b"}).step_index == 0

    @pytest.mark.parametrize("value", [{1, 2}, frozenset(), {"a": 1}, object(), b"x"])
    def test_other_values_are_a_type_error(self, value):
        with pytest.raises(TypeError):
            to_doc(value)

    def test_a_set_inside_a_dataclass_is_a_type_error(self):
        with pytest.raises(TypeError):
            to_doc(Observation(task_id={"t"}, step_index=0, text="x"))


class TestFanOut:
    @pytest.mark.parametrize("parallel", [True, False])
    def test_results_in_call_order(self, parallel):
        assert fan_out([lambda: 1, lambda: None, lambda: "three"], parallel) == [1, None, "three"]

    @pytest.mark.parametrize("parallel", [True, False])
    def test_every_call_runs_then_the_first_exception_is_raised(self, parallel):
        first, second = ValueError("first"), KeyError("second")
        ran = []

        def fail_late():
            time.sleep(0.05)  # on the pool, the second failure finishes first
            ran.append("fail_late")
            raise first

        def fail_early():
            ran.append("fail_early")
            raise second

        with pytest.raises(ValueError) as raised:
            fan_out([fail_late, fail_early, lambda: ran.append("last")], parallel)
        assert raised.value is first
        assert sorted(ran) == ["fail_early", "fail_late", "last"]

    @pytest.mark.parametrize("parallel, calls", [(False, 3), (True, 1)])
    def test_runs_inline_on_the_callers_thread(self, parallel, calls):
        seen = []
        fan_out([lambda i=i: seen.append((i, threading.current_thread())) for i in range(calls)],
                parallel)
        assert seen == [(i, threading.current_thread()) for i in range(calls)]

    def test_no_calls(self):
        assert fan_out([], True) == []
