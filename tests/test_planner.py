"""Tests for goal parsing, belief assembly, and the planner-critic loop."""

import copy
import logging

import pytest

from memagent import planner as planner_module
from memagent import preprocessor
from memagent.core import ActionCommand, Observation, TaskResult, Termination, Verb, to_doc
from memagent.envsim import Environment, TaskSpec
from memagent.gateway import ReasonerGateway, ReasonerRole
from memagent.lifelong import LifelongMemory, MemoryEntity, TaskTrace
from memagent.orchestrator import MemoryContext, MemoryOrchestrator
from memagent.planner import (
    CriticVerdict,
    EmptyPlanError,
    Plan,
    PlannerCritic,
    add_hints,
    build_beliefs,
    run_episode,
)
from memagent.preprocessor import PreprocessOutput, parse_goals, parse_observation
from memagent.spatial import Triplet


def obs(text, step=0):
    return Observation(task_id="t1", step_index=step, text=text)


def observed(text):
    """One observation as the preprocessor gives it to the planner."""
    triplets, agent_at, holding, _ = parse_observation(obs(text))
    return PreprocessOutput(None, "", (), triplets, agent_at, holding)


def empty_context(**kwargs):
    defaults = dict(spatial=(), temporal="")
    defaults.update(kwargs)
    return MemoryContext(**defaults)


def hinted(entries, text, trace):
    """Beliefs from one observation plus the long-term hints of ``entries``."""
    beliefs = build_beliefs(empty_context(), observed(text))
    add_hints(beliefs, entries, trace)
    return beliefs


def recalled(entities, query, scope):
    """``recall`` of ``query`` in ``scope`` from a store holding ``entities``."""
    orch = MemoryOrchestrator()
    orch.lifelong.restore({"entities": to_doc(list(entities))})
    episodic, semantic = orch.recall(query, scope)
    return episodic + semantic


def kg(*keys):
    return tuple(Triplet(*key) for key in keys)


def entity(text, kind="episodic", task="t1", eid="e1", facts=(), avoid=()):
    return MemoryEntity(
        id=eid, kind=kind, text=text, task=task, facts=facts, avoid=avoid,
    )


class TestParsing:
    def test_put_clause(self):
        assert parse_goals("put cup on kitchen counter") == [
            {"kind": "at", "obj": "cup", "rel": "on", "place": "kitchen counter"}
        ]

    def test_conjunction_of_clauses(self):
        goals = parse_goals("heat apple and put apple on shelf")
        assert goals == [
            {"kind": "state", "obj": "apple", "state": "heated"},
            {"kind": "at", "obj": "apple", "rel": "on", "place": "shelf"},
        ]

    def test_state_clauses(self):
        assert parse_goals("clean cup") == [
            {"kind": "state", "obj": "cup", "state": "cleaned"}
        ]
        assert parse_goals("slice tomato") == [
            {"kind": "state", "obj": "tomato", "state": "sliced"}
        ]

    def test_unparseable_clause_yields_nothing(self):
        assert parse_goals("do something vague") == []


class TestPlanAndVerdict:
    def test_plan_needs_steps(self):
        with pytest.raises(ValueError):
            Plan(steps=())

    def test_reject_needs_reason(self):
        with pytest.raises(ValueError):
            CriticVerdict(decision="reject", reason="")
        CriticVerdict(decision="approve", reason="")


class TestBeliefs:
    def test_observation_overrides_remembered_location(self):
        ctx = empty_context(spatial=kg(("cup", "on", "shelf")))
        beliefs = build_beliefs(ctx, observed("you are at sink\nyou see cup on sink"))
        assert beliefs.known_locations["cup"] == {"rel": "on", "place": "sink"}
        assert beliefs.agent_at == "sink"

    def test_remembered_location_kept_when_not_observed(self):
        ctx = empty_context(spatial=kg(("cup", "on", "shelf")))
        beliefs = build_beliefs(ctx, observed("you are at sink"))
        assert beliefs.known_locations["cup"] == {"rel": "on", "place": "shelf"}

    def test_agent_state_comes_from_the_observation(self):
        # Memory holds the world: the agent's place and hand are read from
        # the observation alone, and are no fact the critic is shown.
        ctx = empty_context(spatial=kg(("cup", "on", "shelf")))
        beliefs = build_beliefs(ctx, observed("you are at sink\nholding: fork"))
        assert (beliefs.agent_at, beliefs.holding) == ("sink", "fork")
        assert beliefs.facts == [("cup", "on", "shelf")]
        beliefs = build_beliefs(ctx, observed("you are at shelf\nholding: nothing"))
        assert (beliefs.agent_at, beliefs.holding) == ("shelf", None)

    def test_held_object_leaves_known_locations(self):
        ctx = empty_context(spatial=kg(("cup", "on", "shelf")))
        beliefs = build_beliefs(ctx, observed("you are at sink\nholding: cup"))
        assert beliefs.holding == "cup"
        assert "cup" not in beliefs.known_locations

    def test_states_and_container_states(self):
        beliefs = build_beliefs(
            empty_context(), observed("you are at stove\noven is closed\napple is heated")
        )
        assert beliefs.container_states["oven"] == "closed"
        assert beliefs.object_states["apple"] == ["heated"]

    def test_kg_facts_with_relation_words_in_names(self):
        # Names are data: a relation word inside a name does not split it.
        ctx = empty_context(spatial=kg(("lamp on stand", "on", "table in hall")))
        beliefs = build_beliefs(ctx, observed("you are at sink"))
        assert beliefs.known_locations["lamp on stand"] == {"rel": "on", "place": "table in hall"}

    def test_episodic_hint_from_same_task(self):
        entries = [(entity("task t1", facts=[("cup", "on", "sink")]), 0.9)]
        trace = TaskTrace(task_id="t1", instruction="x")
        beliefs = hinted(entries, "you are at shelf", trace)
        assert beliefs.hint_locations["cup"] == {"rel": "on", "place": "sink"}

    def test_hint_from_other_task_is_ignored(self):
        # Other tasks reshuffle the world: their entries stay outside the
        # recall scope, so no hint or dead-end of theirs reaches the beliefs.
        others = [
            entity("task t0 cup", task="t0", eid="e1", facts=[("cup", "on", "sink")]),
            entity("task t0 cup", "semantic", task="t0", eid="e2", avoid=[("cup", "bed")]),
        ]
        assert len(recalled(others, "task t0 cup", "t0")) == 2
        entries = recalled(others, "task t0 cup", "t1")
        assert entries == []
        trace = TaskTrace(task_id="t1", instruction="x")
        beliefs = hinted(entries, "you are at shelf", trace)
        assert beliefs.hint_locations == {} and beliefs.avoid_points == {}

    def test_hint_yields_to_holding_and_known_locations(self):
        entries = [
            (entity("task t1", facts=[("cup", "on", "sink"), ("fork", "on", "sink")]), 0.9)
        ]
        trace = TaskTrace(task_id="t1", instruction="x")
        beliefs = hinted(entries, "you are at shelf\nyou see fork on shelf\nholding: cup", trace)
        assert beliefs.hint_locations == {}

    def test_hint_dies_after_searching_its_place(self):
        entries = [
            (entity("task t1", facts=[("cup", "on", "sink"), ("egg", "in", "fridge")]), 0.9)
        ]
        trace = TaskTrace(task_id="t1", instruction="x")
        trace.note_visit("sink")
        trace.note_opened("fridge")
        beliefs = hinted(entries, "you are at shelf", trace)
        assert beliefs.hint_locations == {}

    def test_hint_survives_when_confirmed_this_episode(self):
        entries = [(entity("task t1", facts=[("cup", "on", "sink")]), 0.9)]
        trace = TaskTrace(task_id="t1", instruction="x")
        trace.note_visit("sink")
        trace.note_seen("cup", "on", "sink")
        beliefs = hinted(entries, "you are at shelf", trace)
        assert beliefs.hint_locations["cup"] == {"rel": "on", "place": "sink"}

    def test_avoid_points_from_same_task_semantic_lessons(self):
        lessons = [
            entity("lesson", "semantic", avoid=[("banana", "shelf"), ("banana", "sink")]),
            entity("lesson", "semantic", eid="e2", avoid=[("banana", "sink"), ("banana", "stove")]),
            entity("lesson", "semantic", task="t0", eid="e3", avoid=[("banana", "bed")]),
        ]
        entries = recalled(lessons, "lesson", "t1")
        assert [e.id for e, _ in entries] == ["e1", "e2"]
        trace = TaskTrace(task_id="t1", instruction="x")
        beliefs = hinted(entries, "you are at stove", trace)
        assert beliefs.avoid_points == {"banana": ["shelf", "sink", "stove"]}

    def test_trust_follows_the_task_that_wrote_the_facts(self):
        # Task B's attempt updates the entries task A created, with B's own
        # facts: they are B's hints, and A no longer has any.
        mem = LifelongMemory()
        for task, place in (("A", "shelf"), ("B", "sink")):
            mem.consolidate([
                MemoryEntity(id=f"episodic-{task}-1", kind="episodic", text="cup attempt",
                             task=task, facts=[("cup", "on", place)]),
                MemoryEntity(id=f"semantic-{task}-1", kind="semantic", text="cup lesson",
                             task=task, avoid=[("cup", place)]),
            ])
        assert [e.id for e in mem.entities()] == ["episodic-A-1", "semantic-A-1"]
        for task, hints, avoid in (
            ("B", {"cup": {"rel": "on", "place": "sink"}}, {"cup": ["sink"]}),
            ("A", {}, {}),
        ):
            entries = mem.retrieve("cup attempt", "episodic", scope=task) + mem.retrieve(
                "cup lesson", "semantic", scope=task
            )
            trace = TaskTrace(task_id=task, instruction="x")
            beliefs = hinted(entries, "you are at stove", trace)
            assert beliefs.hint_locations == hints
            assert beliefs.avoid_points == avoid

    def test_hints_come_from_the_trace_not_the_extractor_wording(self):
        class PlainWordsExtractor(ReasonerGateway):
            def invoke(self, role, payload):
                if role is ReasonerRole.MEMORY_EXTRACTOR:
                    return {"episodic": ["the attempt went badly"], "semantic": ["try harder"]}
                return super().invoke(role, payload)

        def beliefs_after_failed_attempt(gateway):
            mem = LifelongMemory(gateway=gateway)
            trace = TaskTrace(task_id="t1", instruction="put banana on shelf",
                              goal_objects=["banana"])
            for point in ("shelf", "sink"):
                trace.note_visit(point)
            trace.note_seen("cup", "on", "sink")
            result = TaskResult(task_id="t1", scn=0, gcn=1, steps_used=6,
                                terminated_by=Termination.STEP_BUDGET)
            mem.consolidate(mem.extract_task_entities(trace, result))
            retry = TaskTrace(task_id="t1", instruction="put banana on shelf")
            return hinted([(e, 1.0) for e in mem.entities()], "you are at stove", retry)

        oracle = beliefs_after_failed_attempt(ReasonerGateway())
        plain = beliefs_after_failed_attempt(PlainWordsExtractor())
        assert oracle.hint_locations == {"cup": {"rel": "on", "place": "sink"}}
        assert oracle.avoid_points == {"banana": ["shelf", "sink"]}
        assert plain.hint_locations == oracle.hint_locations
        assert plain.avoid_points == oracle.avoid_points


class TestPlannerCritic:
    def setup_env(self):
        env = Environment(profile="realworld", failure_p=0.0)
        task = TaskSpec(
            id="t1",
            instruction="put cup on kitchen counter",
            category="pick_place",
            goal_conditions=({"kind": "at", "obj": "cup", "place": "kitchen counter"},),
            initial_seed=3,
        )
        env.reset(task)
        return env, task

    def test_plan_drops_invalid_verbs(self):
        env, _ = self.setup_env()

        class ScriptedGateway(ReasonerGateway):
            def invoke(self, role, payload):
                return {
                    "steps": [
                        {"verb": "slice", "target": "apple"},  # not in realworld
                        {"verb": "levitate", "target": "cup"},  # unknown verb
                        {"verb": "pick_up"},  # missing target
                        {"verb": "navigate_to", "target": "sink"},
                    ],
                    "rationale": "scripted",
                }

        planner = PlannerCritic(ScriptedGateway(), env)
        trace = TaskTrace(task_id="t1", instruction="x")
        beliefs = build_beliefs(empty_context(), observed("you are at sink"))
        plan = planner.plan("x", [], beliefs, trace)
        assert [(s.verb, s.target) for s in plan.steps] == [(Verb.NAVIGATE_TO, "sink")]

    def test_plan_drops_a_step_whose_target_is_not_a_string(self, caplog):
        env, _ = self.setup_env()

        class NumberTarget(ReasonerGateway):
            def invoke(self, role, payload):
                return {
                    "steps": [
                        {"verb": "pick_up", "target": 7},
                        {"verb": "navigate_to", "target": "sink"},
                    ]
                }

        planner = PlannerCritic(NumberTarget(), env)
        trace = TaskTrace(task_id="t1", instruction="x")
        beliefs = build_beliefs(empty_context(), observed("you are at sink"))
        caplog.set_level(logging.WARNING, logger="memagent")
        plan = planner.plan("x", [], beliefs, trace)
        assert [(s.verb, s.target) for s in plan.steps] == [(Verb.NAVIGATE_TO, "sink")]
        [record] = caplog.records
        assert "dropping invalid plan step" in record.getMessage()

    def test_empty_plan_raises_after_retry(self):
        env, _ = self.setup_env()

        class EmptyGateway(ReasonerGateway):
            calls = 0

            def invoke(self, role, payload):
                EmptyGateway.calls += 1
                return {"steps": []}

        planner = PlannerCritic(EmptyGateway(), env)
        trace = TaskTrace(task_id="t1", instruction="x")
        beliefs = build_beliefs(empty_context(), observed("you are at sink"))
        with pytest.raises(EmptyPlanError):
            planner.plan("x", [], beliefs, trace)
        assert EmptyGateway.calls == 2


class AlwaysRejectGateway(ReasonerGateway):
    """Delegates every role to the real gateway except the critic, which
    rejects everything."""

    def invoke(self, role, payload):
        if role is ReasonerRole.CRITIC:
            return {"decision": "reject", "reason": "adversarial"}
        return super().invoke(role, payload)


class TestEpisodeLoop:
    def task(self):
        return TaskSpec(
            id="t1",
            instruction="put cup on kitchen counter",
            category="pick_place",
            goal_conditions=({"kind": "at", "obj": "cup", "place": "kitchen counter"},),
            initial_seed=3,
        )

    def test_successful_episode_without_failures(self):
        env = Environment(profile="realworld", failure_p=0.0)
        episode = run_episode(self.task(), env, ReasonerGateway(), MemoryOrchestrator())
        assert episode.result.success
        assert episode.result.steps_used <= env.max_steps

    def impossible_task(self):
        return TaskSpec(
            id="t-impossible",
            instruction="put unicorn on kitchen counter",
            category="pick_place",
            goal_conditions=({"kind": "at", "obj": "unicorn", "place": "kitchen counter"},),
            initial_seed=3,
        )

    def test_first_step_exemption_guarantees_progress(self):
        env = Environment(profile="realworld", failure_p=0.0)
        episode = run_episode(
            self.impossible_task(), env, AlwaysRejectGateway(), MemoryOrchestrator()
        )
        executed = [t for t in episode.trajectory if t["executed"]]
        rejected = [t for t in episode.trajectory if not t["executed"]]
        # Every executed action is the first step of its plan; everything
        # else was rejected, yet the budget is fully consumed.
        assert len(executed) == env.max_steps
        assert all(t["plan_step"] == 1 for t in executed)
        assert all(t["plan_step"] == 2 for t in rejected)

    def test_a_budget_that_runs_out_reports_step_budget(self):
        env = Environment(profile="realworld", failure_p=0.0)
        episode = run_episode(
            self.impossible_task(), env, AlwaysRejectGateway(), MemoryOrchestrator()
        )
        assert env.done and episode.result.steps_used == env.max_steps
        assert episode.result.terminated_by is Termination.STEP_BUDGET

    def test_task_complete_on_the_last_step_is_self_terminated(self):
        # The same episode with a budget of exactly its length, and one step
        # short: only a successful task_complete counts as stopping.
        steps = run_episode(
            self.task(), Environment(profile="realworld", failure_p=0.0),
            ReasonerGateway(), MemoryOrchestrator(),
        ).result.steps_used
        ended = {}
        for budget in (steps, steps - 1):
            env = Environment(profile="realworld", failure_p=0.0, max_steps=budget)
            episode = run_episode(self.task(), env, ReasonerGateway(), MemoryOrchestrator())
            ended[budget] = episode.result.terminated_by
            assert episode.result.steps_used == budget
        assert ended == {steps: Termination.SELF_TERMINATED, steps - 1: Termination.STEP_BUDGET}

    def test_rejection_triggers_full_replan(self):
        env = Environment(profile="realworld", failure_p=0.0)
        episode = run_episode(
            self.task(), env, AlwaysRejectGateway(), MemoryOrchestrator()
        )
        plan_ids = [t["plan_id"] for t in episode.trajectory if t["executed"]]
        assert plan_ids == sorted(set(plan_ids))

    def test_critic_disabled_skips_review(self):
        env = Environment(profile="realworld", failure_p=0.0)
        episode = run_episode(
            self.task(), env, AlwaysRejectGateway(), MemoryOrchestrator(),
            critic_enabled=False,
        )
        assert all(t["verdict"] is None for t in episode.trajectory)
        assert episode.result.success

    def test_trace_records_visits_and_sightings(self):
        env = Environment(profile="realworld", failure_p=0.0)
        episode = run_episode(self.task(), env, ReasonerGateway(), MemoryOrchestrator())
        assert "dining table" in episode.trace.visited_points
        assert "cup" in episode.trace.first_seen

    def test_each_observation_is_parsed_once(self, monkeypatch):
        # The critic rejects every reviewed step, so the loop builds beliefs
        # several times from one observation.
        calls = []

        def counting(observation):
            calls.append(observation.step_index)
            return parse_observation(observation)

        monkeypatch.setattr(preprocessor, "parse_observation", counting)
        # Counted under the planner's name too, should it import the parser.
        monkeypatch.setattr(planner_module, "parse_observation", counting, raising=False)
        env = Environment(profile="realworld", failure_p=0.0)
        episode = run_episode(self.task(), env, AlwaysRejectGateway(), MemoryOrchestrator())
        assert any(not t["executed"] for t in episode.trajectory)
        steps = episode.result.steps_used
        assert sorted(calls) == list(range(steps + 1))

    def test_rejection_reuses_the_gathered_context(self):
        # No update runs between a rejection and the next turn, so the loop
        # gathers at most once per executed step (plus the first turn).
        orch = MemoryOrchestrator()
        gathers = []
        gather = orch.gather_context
        orch.gather_context = lambda entities: gathers.append(entities) or gather(entities)
        env = Environment(profile="realworld", failure_p=0.0)
        episode = run_episode(self.task(), env, AlwaysRejectGateway(), orch)
        assert sum(not t["executed"] for t in episode.trajectory) >= 2
        assert 1 <= len(gathers) <= episode.result.steps_used + 1

    @pytest.mark.parametrize("base", [ReasonerGateway, AlwaysRejectGateway])
    def test_only_planning_decisions_recall_longterm_memory(self, base):
        # Only the planner reads long-term memory, and only the task-level
        # update writes it: each recall round is for a plan about to be
        # made, and a step's rejections and replans share one round.
        events = []

        class RecordingLifelong(LifelongMemory):
            def retrieve(self, query, kind, k=5, scope=None):
                events.append("recall")
                return super().retrieve(query, kind, k, scope)

        class RecordingGateway(base):
            def invoke(self, role, payload):
                if role in (ReasonerRole.PLANNER, ReasonerRole.CRITIC):
                    events.append(role.value)
                return super().invoke(role, payload)

        class RecordingEnvironment(Environment):
            def step(self, action):
                events.append("step")
                return super().step(action)

        env = RecordingEnvironment(profile="realworld", failure_p=0.0)
        orch = MemoryOrchestrator(lifelong=RecordingLifelong())
        episode = run_episode(self.task(), env, RecordingGateway(), orch)
        rounds = [
            i for i, event in enumerate(events)
            if event == "recall" and (i == 0 or events[i - 1] != "recall")
        ]
        assert rounds and "critic" in events
        for start in rounds:
            after = [event for event in events[start:] if event != "recall"]
            assert after[0] == "planner", events[start:start + 6]
        if base is AlwaysRejectGateway:
            assert len(rounds) <= episode.result.steps_used + 1

    @pytest.mark.parametrize("base", [ReasonerGateway, AlwaysRejectGateway])
    def test_critic_payloads_show_the_plans_step_documents(self, base, monkeypatch):
        plans, reviews = [], []
        make_plan = PlannerCritic.plan

        def recording_plan(self, *args, **kwargs):
            plan = make_plan(self, *args, **kwargs)
            plans.append((plan, copy.deepcopy(plan.docs)))
            return plan

        class RecordingGateway(base):
            def invoke(self, role, payload):
                if role is ReasonerRole.CRITIC:
                    reviews.append((plans[-1][0], copy.deepcopy(payload)))
                return super().invoke(role, payload)

        monkeypatch.setattr(PlannerCritic, "plan", recording_plan)
        env = Environment(profile="realworld", failure_p=0.0)
        run_episode(self.task(), env, RecordingGateway(), MemoryOrchestrator())
        assert reviews and any(payload["plan_suffix"] for _, payload in reviews)
        for plan, payload in reviews:
            index = len(plan.steps) - 1 - len(payload["plan_suffix"])
            assert index >= 1
            assert payload["action"] == to_doc(plan.steps[index])
            assert payload["plan_suffix"] == to_doc(list(plan.steps[index + 1:]))
        for plan, docs in plans:
            assert plan.docs == docs == tuple(to_doc(step) for step in plan.steps)

    @pytest.mark.parametrize("base", [ReasonerGateway, AlwaysRejectGateway])
    def test_critic_reads_the_temporal_buffer(self, base):
        orch = MemoryOrchestrator()
        summaries, reviews = [], []

        class RecordingGateway(base):
            def invoke(self, role, payload):
                if role is ReasonerRole.CRITIC:
                    reviews.append((payload, orch.temporal.render(), list(summaries)))
                response = super().invoke(role, payload)
                if role is ReasonerRole.STEP_SUMMARIZER and payload["kind"] == "step":
                    summaries.append(response["summary"])
                return response

        env = Environment(profile="realworld", failure_p=0.0)
        run_episode(self.task(), env, RecordingGateway(), orch)
        assert reviews
        for payload, rendered, done in reviews:
            assert "latest_summary" not in payload
            assert payload["recent_steps"] == rendered
            assert rendered.splitlines()[-1] == f"step {len(done)}: {done[-1]}"

    def test_plans_see_only_this_tasks_longterm_entries(self):
        # Another task's world was reshuffled: its entries about the goal
        # object reach no plan, while this task's own entries do.
        text = "put cup on kitchen counter"
        ours = [
            entity(text, eid="seed-1", facts=[("cup", "on", "window sill")]),
            entity(text, "semantic", eid="seed-2", avoid=[("cup", "stove")]),
        ]
        theirs = [
            entity(text, task="t0", eid="seed-3", facts=[("cup", "on", "side table")]),
            entity(text, "semantic", task="t0", eid="seed-4", avoid=[("cup", "shelf")]),
        ]
        payloads = []

        class RecordingGateway(ReasonerGateway):
            def invoke(self, role, payload):
                if role is ReasonerRole.PLANNER:
                    payloads.append(copy.deepcopy(payload))
                return super().invoke(role, payload)

        orch = MemoryOrchestrator()
        orch.lifelong.restore({"entities": to_doc(ours + theirs)})
        env = Environment(profile="realworld", failure_p=0.0)
        run_episode(self.task(), env, RecordingGateway(), orch)
        hints = [p["hint_locations"] for p in payloads]
        avoid = [p["avoid_points"] for p in payloads]
        assert hints[0] == {"cup": {"rel": "on", "place": "window sill"}}
        assert avoid[0] == {"cup": ["stove"]}
        assert all(h.get("cup", {}).get("place") != "side table" for h in hints)
        assert all("shelf" not in points for a in avoid for points in a.values())

    def test_task_event_reaches_longterm_memory(self):
        env = Environment(profile="realworld", failure_p=0.0)
        orch = MemoryOrchestrator()
        run_episode(self.task(), env, ReasonerGateway(), orch)
        assert len(orch.lifelong) >= 1
