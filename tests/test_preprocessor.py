"""Tests for the observation-to-memory preprocessor."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memagent import harness, preprocessor
from memagent.core import ActionCommand, Observation, Outcome, Verb, canonical_name
from memagent.gateway import (
    BackendUnreachableError,
    OracleBackend,
    ReasonerGateway,
    ReasonerRole,
)
from memagent.preprocessor import Preprocessor, extract_triplets, visible_entities
from memagent.spatial import Triplet


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


# The line grammar as one regex pass per line and step, frozen here so that
# it does not follow the memoized parse it checks.
_AT = re.compile(r"^you are at (?P<point>.+)$")
_SEE = re.compile(r"^you see (?P<obj>.+?) (?P<rel>on|in) (?P<place>.+)$")
_STATE = re.compile(r"^(?P<obj>.+?) is (?P<state>open|closed|on|off|sliced|heated|cleaned)$")
_HOLDING = re.compile(r"^holding: (?P<obj>.+)$")


def reference_triplets(observation):
    triplets = []
    current_point = None
    step = observation.step_index
    for raw_line in observation.text.splitlines():
        line = raw_line.strip().lower()
        if not line:
            continue
        match = _AT.match(line)
        if match:
            current_point = canonical_name(match.group("point"))
            triplets.append(Triplet("agent", "at", current_point, step))
            continue
        match = _SEE.match(line)
        if match:
            obj = canonical_name(match.group("obj"))
            place = canonical_name(match.group("place"))
            triplets.append(Triplet(obj, match.group("rel"), place, step))
            if current_point is not None and place == current_point:
                triplets.append(Triplet("agent", "near", obj, step))
            continue
        match = _STATE.match(line)
        if match:
            triplets.append(
                Triplet(canonical_name(match.group("obj")), "is", match.group("state"), step)
            )
            continue
        match = _HOLDING.match(line)
        if match:
            obj = canonical_name(match.group("obj"))
            if obj != "nothing":
                triplets.append(Triplet("agent", "holds", obj, step))
    return triplets


def assert_parses_like_reference(observation):
    try:
        want = reference_triplets(observation)
    except ValueError as exc:  # a name that canonicalizes to nothing
        with pytest.raises(type(exc)):
            extract_triplets(observation)
        return
    got = extract_triplets(observation)
    assert got == want
    assert [t.key for t in got] == [t.key for t in want]


_LINE_NAMES = ["cup", "Red  Cup", "sink", " dining table ", "nothing", "Nothing",
               "is", "on", "you see cup", "drawer 1", "open"]
_generated_lines = st.one_of(
    st.sampled_from(["", "   ", "???", "action failed: target not found", "you are at",
                     "you see cup on", "holding:", "holding: nothing", "HOLDING: nothing",
                     "cup is", "cup is broken", "you see   on table"]),
    st.builds("you are at {}".format, st.sampled_from(_LINE_NAMES)),
    st.builds("you see {} {} {}".format, st.sampled_from(_LINE_NAMES),
              st.sampled_from(["on", "in", "at", "ON"]), st.sampled_from(_LINE_NAMES)),
    st.builds("{} is {}".format, st.sampled_from(_LINE_NAMES),
              st.sampled_from(["open", "closed", "on", "off", "sliced", "heated", "cleaned",
                               "red"])),
    st.builds("holding: {}".format, st.sampled_from(_LINE_NAMES)),
    st.builds("  {}\t".format, st.sampled_from(["You Are At Sink", "you see cup on sink"])),
)


class TestParseMatchesRegexReference:
    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(_generated_lines, max_size=8), step=st.integers(0, 20))
    def test_generated_lines(self, lines, step):
        # An observation is never empty, so each one ends with an unknown line.
        assert_parses_like_reference(obs("\n".join(lines + ["???"]), step=step))

    def test_every_observation_of_a_seed_3_suite(self, monkeypatch):
        seen = []

        def checked(observation):
            seen.append(observation.text)
            assert_parses_like_reference(observation)
            return extract_triplets(observation)

        monkeypatch.setattr(preprocessor, "extract_triplets", checked)
        outcome = harness.run_suite(seed=3, passes=2, failure_p=0.1)
        assert len(seen) > 300
        assert all(
            t["terminated_by"] != "crashed"
            for p in outcome["report"]["passes"]
            for t in p["tasks"]
        )


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

    def test_entities_name_the_goals_the_implied_tools_and_what_is_seen(self):
        pre = Preprocessor(instruction="heat apple and put apple on kitchen counter")
        out = pre.preprocess(obs("you are at sink\nyou see cup on sink"), None, None)
        assert pre.goal_entities == ["apple", "kitchen counter"]
        assert out.entities == ("apple", "kitchen counter", "oven", "sink", "cup")
        # The text recall embeds is rendered as before the names became data.
        assert out.query == "heat apple and put apple on kitchen counter | needs: oven | seen: sink, cup"

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
        assert out.entities == ("cup", "table", "sink")

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
