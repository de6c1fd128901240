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
from memagent.preprocessor import Preprocessor, parse_observation
from memagent.spatial import Triplet


def obs(text, step=0):
    return Observation(task_id="t1", step_index=step, text=text)


class TestTripletExtraction:
    def test_position_line(self):
        triplets, agent_at, _, _ = parse_observation(obs("you are at kitchen counter"))
        assert (triplets, agent_at) == ((), "kitchen counter")

    def test_see_on_and_in(self):
        triplets, *_ = parse_observation(obs("you see cup on dining table\nyou see fork in drawer"))
        assert [t.key for t in triplets] == [("cup", "on", "dining table"), ("fork", "in", "drawer")]

    def test_no_triplet_names_the_agent(self):
        # The agent's place and hand are its state, not world facts: a
        # colocated object is only where it is.
        triplets, agent_at, holding, _ = parse_observation(
            obs("you are at dining table\nyou see cup on dining table\nholding: fork")
        )
        assert [t.key for t in triplets] == [("cup", "on", "dining table")]
        assert (agent_at, holding) == ("dining table", "fork")

    def test_state_lines(self):
        triplets, *_ = parse_observation(obs("oven is on\ncabinet is open\napple is sliced"))
        keys = {t.key for t in triplets}
        assert ("oven", "is", "on") in keys
        assert ("cabinet", "is", "open") in keys
        assert ("apple", "is", "sliced") in keys

    def test_holding_lines(self):
        triplets, _, holding, _ = parse_observation(obs("holding: cup"))
        assert (triplets, holding) == ((), "cup")
        _, _, holding, names = parse_observation(obs("holding: nothing"))
        assert (holding, names) == (None, [])

    def test_unmatched_lines_are_ignored(self):
        assert parse_observation(obs("action failed: target not found\n???")) == (
            (), None, None, []
        )

    def test_step_index_propagates(self):
        (t,), *_ = parse_observation(obs("you are at sink\nyou see cup on sink", step=7))
        assert t.step_index == 7

    def test_visible_entities_excludes_agent(self):
        # The names include the agent's place and hand, in line order.
        *_, names = parse_observation(obs("you are at sink\nyou see cup on sink\nholding: fork"))
        assert "agent" not in names
        assert names == ["sink", "cup", "fork"]


# The line grammar as one regex pass per line and step, frozen here so that
# it does not follow the memoized parse it checks.
_AT = re.compile(r"^you are at (?P<point>.+)$")
_SEE = re.compile(r"^you see (?P<obj>.+?) (?P<rel>on|in) (?P<place>.+)$")
_STATE = re.compile(r"^(?P<obj>.+?) is (?P<state>open|closed|on|off|sliced|heated|cleaned)$")
_HOLDING = re.compile(r"^holding: (?P<obj>.+)$")


def reference_parse(observation):
    """The world triplets, the agent's last place and held object, and the
    names the lines mention, in order."""
    triplets, names = [], []
    agent_at = holding = None
    step = observation.step_index
    for raw_line in observation.text.splitlines():
        line = raw_line.strip().lower()
        if not line:
            continue
        match = _AT.match(line)
        if match:
            agent_at = canonical_name(match.group("point"))
            names.append(agent_at)
            continue
        match = _SEE.match(line)
        if match:
            obj = canonical_name(match.group("obj"))
            place = canonical_name(match.group("place"))
            triplets.append(Triplet(obj, match.group("rel"), place, step))
            names += [obj, place]
            continue
        match = _STATE.match(line)
        if match:
            obj = canonical_name(match.group("obj"))
            triplets.append(Triplet(obj, "is", match.group("state"), step))
            names += [obj, match.group("state")]
            continue
        match = _HOLDING.match(line)
        if match:
            obj = canonical_name(match.group("obj"))
            if obj != "nothing":
                holding = obj
                names.append(obj)
    return triplets, agent_at, holding, list(dict.fromkeys(names))


def assert_parses_like_reference(observation):
    try:
        want = reference_parse(observation)
    except ValueError as exc:  # a name that canonicalizes to nothing
        with pytest.raises(type(exc)):
            parse_observation(observation)
        return
    triplets, *agent_and_names = parse_observation(observation)
    assert list(triplets) == want[0]
    assert [t.key for t in triplets] == [t.key for t in want[0]]
    assert tuple(agent_and_names) == want[1:]


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
            return parse_observation(observation)

        monkeypatch.setattr(preprocessor, "parse_observation", checked)
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
        assert (out.triplets, out.agent_at, out.holding) == ((), "sink", None)

    @pytest.mark.parametrize("line, held", [("holding: nothing", None), ("holding: Red  Cup", "red cup")])
    def test_agent_state_is_two_fields(self, line, held):
        pre = Preprocessor(instruction="put cup on table")
        out = pre.preprocess(obs(f"you are at sink\nyou see fork on sink\n{line}"), None, None)
        assert (out.agent_at, out.holding) == ("sink", held)
        assert [t.key for t in out.triplets] == [("fork", "on", "sink")]

    def test_query_is_shown_the_agents_place_and_hand(self):
        # The names as the query generator was shown them when the agent's
        # place and hand were triplets.
        payloads = []

        class Recording(OracleBackend):
            def invoke(self, role, payload):
                if role is ReasonerRole.QUERY_GENERATOR:
                    payloads.append(payload)
                return super().invoke(role, payload)

        pre = Preprocessor(gateway=ReasonerGateway(backend=Recording()), instruction="heat cup")
        text = "you are at sink\nyou see cup on sink\nmug is open\nholding: fork\n???"
        pre.preprocess(obs(text), None, None)
        assert payloads[0]["visible_entities"] == ["sink", "cup", "mug", "open", "fork"]

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
