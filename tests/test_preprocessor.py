"""Tests for the observation-to-memory preprocessor."""

import pytest

from memagent.core import ActionCommand, Observation, Outcome, Verb
from memagent.gateway import (
    BackendUnreachableError,
    OracleBackend,
    ReasonerGateway,
    ReasonerRole,
)
from memagent.preprocessor import Preprocessor, extract_triplets, visible_entities


def obs(text, step=0):
    return Observation(task_id="t1", step_index=step, text=text)


class TestTripletExtraction:
    def test_position_line(self):
        triplets = extract_triplets(obs("you are at kitchen counter"))
        assert [t.key for t in triplets] == [("agent", "at", "kitchen counter")]

    def test_see_on_and_in(self):
        triplets = extract_triplets(
            obs("you see cup on dining table\nyou see fork in drawer")
        )
        keys = {t.key for t in triplets}
        assert ("cup", "on", "dining table") in keys
        assert ("fork", "in", "drawer") in keys

    def test_colocated_object_is_near_agent(self):
        triplets = extract_triplets(
            obs("you are at dining table\nyou see cup on dining table")
        )
        assert ("agent", "near", "cup") in {t.key for t in triplets}

    def test_remote_object_is_not_near_agent(self):
        triplets = extract_triplets(
            obs("you are at sink\nyou see cup on dining table")
        )
        assert ("agent", "near", "cup") not in {t.key for t in triplets}

    def test_state_lines(self):
        triplets = extract_triplets(obs("oven is on\ncabinet is open\napple is sliced"))
        keys = {t.key for t in triplets}
        assert ("oven", "is", "on") in keys
        assert ("cabinet", "is", "open") in keys
        assert ("apple", "is", "sliced") in keys

    def test_holding_lines(self):
        assert [t.key for t in extract_triplets(obs("holding: cup"))] == [
            ("agent", "holds", "cup")
        ]
        assert extract_triplets(obs("holding: nothing")) == []

    def test_unmatched_lines_are_ignored(self):
        assert extract_triplets(obs("action failed: target not found\n???")) == []

    def test_step_index_propagates(self):
        (t,) = extract_triplets(obs("you are at sink", step=7))
        assert t.step_index == 7

    def test_visible_entities_excludes_agent(self):
        names = visible_entities(
            extract_triplets(obs("you are at sink\nyou see cup on sink\nholding: fork"))
        )
        assert "agent" not in names
        assert names == ["sink", "cup", "fork"]


class TestPreprocess:
    def test_initial_observation_has_task_start_summary(self):
        pre = Preprocessor(instruction="put cup on table")
        out = pre.preprocess(obs("you are at sink"), last_action=None, outcome=None)
        assert out.summary is None
        assert out.query.startswith("put cup on table")
        assert [t.key for t in out.triplets] == [("agent", "at", "sink")]

    def test_step_summary_reflects_action_outcome(self):
        pre = Preprocessor(instruction="put cup on table")
        out = pre.preprocess(
            obs("you are at sink", step=1),
            last_action=ActionCommand(verb=Verb.PICK_UP, target="cup"),
            outcome=Outcome.FAILURE,
            failure_reason="target not found",
        )
        assert "pick_up" in out.summary or "pick up" in out.summary
        assert "failure" in out.summary
        assert "target not found" in out.summary

    def test_query_names_implied_tools(self):
        pre = Preprocessor(instruction="heat the apple")
        out = pre.preprocess(obs("you are at sink"), last_action=None, outcome=None)
        assert "oven" in out.query

    def test_query_mentions_visible_entities_and_last_verb(self):
        pre = Preprocessor(instruction="put cup on table")
        out = pre.preprocess(
            obs("you are at sink\nyou see cup on sink", step=1),
            last_action=ActionCommand(verb=Verb.NAVIGATE_TO, target="sink"),
            outcome=Outcome.SUCCESS,
        )
        assert "last action: navigate_to" in out.query
        assert "cup" in out.query

    def test_gateway_failure_falls_back(self):
        class Down:
            def invoke(self, role, payload):
                raise BackendUnreachableError("down")

        gateway = ReasonerGateway(backend=Down())
        pre = Preprocessor(gateway=gateway, instruction="put cup on table")
        out = pre.preprocess(
            obs("you are at sink", step=1),
            last_action=ActionCommand(verb=Verb.FIND, target="cup"),
            outcome=Outcome.SUCCESS,
        )
        assert out.summary == "find cup: success"
        assert out.query == "put cup on table"

    def test_error_that_is_not_a_gateway_error_is_raised(self):
        # A bug in a rule must crash the episode, not read as a template.
        class Buggy(OracleBackend):
            def invoke(self, role, payload):
                if role is ReasonerRole.STEP_SUMMARIZER:
                    raise KeyError("bug")
                return super().invoke(role, payload)

        gateway = ReasonerGateway(backend=Buggy())
        pre = Preprocessor(gateway=gateway, instruction="put cup on table")
        with pytest.raises(KeyError, match="bug"):
            pre.preprocess(
                obs("you are at sink", step=1),
                last_action=ActionCommand(verb=Verb.FIND, target="cup"),
                outcome=Outcome.SUCCESS,
            )
