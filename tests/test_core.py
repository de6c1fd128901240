import json
import threading
import time

import pytest
from hypothesis import given, strategies as st

from memagent.core import (
    ActionCommand,
    InvariantError,
    Outcome,
    StepRecord,
    TaskResult,
    Termination,
    Verb,
    canonical_json,
    canonical_name,
    fan_out,
)


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
