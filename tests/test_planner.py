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
    parse_goals,
    run_episode,
)
from memagent.preprocessor import extract_triplets
from memagent.spatial import Triplet


def obs(text, step=0):
    return Observation(task_id="t1", step_index=step, text=text)


def observed(text):
    """The triplets of one observation, as the preprocessor parses them."""
    return extract_triplets(obs(text))


def empty_context(**kwargs):
    defaults = dict(spatial=(), temporal="", episodic=[], semantic=[])
    defaults.update(kwargs)
    return MemoryContext(**defaults)


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

    def test_stale_agent_facts_are_dropped(self):
        ctx = empty_context(spatial=kg(("agent", "at", "shelf")))
        beliefs = build_beliefs(ctx, observed("you are at sink"))
        assert beliefs.agent_at == "sink"

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
        ctx = empty_context(episodic=[(entity("task t1", facts=[("cup", "on", "sink")]), 0.9)])
        trace = TaskTrace(task_id="t1", instruction="x")
        beliefs = build_beliefs(ctx, observed("you are at shelf"), "t1", trace)
        assert beliefs.hint_locations["cup"] == {"rel": "on", "place": "sink"}

    def test_hint_from_other_task_is_ignored(self):
        ctx = empty_context(
            episodic=[(entity("task t0", task="t0", facts=[("cup", "on", "sink")]), 0.9)]
        )
        trace = TaskTrace(task_id="t1", instruction="x")
        beliefs = build_beliefs(ctx, observed("you are at shelf"), "t1", trace)
        assert beliefs.hint_locations == {}

    def test_hint_yields_to_holding_and_known_locations(self):
        ctx = empty_context(
            episodic=[
                (entity("task t1", facts=[("cup", "on", "sink"), ("fork", "on", "sink")]), 0.9)
            ]
        )
        trace = TaskTrace(task_id="t1", instruction="x")
        beliefs = build_beliefs(
            ctx, observed("you are at shelf\nyou see fork on shelf\nholding: cup"), "t1", trace
        )
        assert beliefs.hint_locations == {}

    def test_hint_dies_after_searching_its_place(self):
        ctx = empty_context(
            episodic=[
                (entity("task t1", facts=[("cup", "on", "sink"), ("egg", "in", "fridge")]), 0.9)
            ]
        )
        trace = TaskTrace(task_id="t1", instruction="x")
        trace.note_visit("sink")
        trace.note_opened("fridge")
        beliefs = build_beliefs(ctx, observed("you are at shelf"), "t1", trace)
        assert beliefs.hint_locations == {}

    def test_hint_survives_when_confirmed_this_episode(self):
        ctx = empty_context(episodic=[(entity("task t1", facts=[("cup", "on", "sink")]), 0.9)])
        trace = TaskTrace(task_id="t1", instruction="x")
        trace.note_visit("sink")
        trace.note_seen("cup", "on", "sink")
        beliefs = build_beliefs(ctx, observed("you are at shelf"), "t1", trace)
        assert beliefs.hint_locations["cup"] == {"rel": "on", "place": "sink"}

    def test_avoid_points_from_same_task_semantic_lessons(self):
        lessons = [
            entity("lesson", "semantic", avoid=[("banana", "shelf"), ("banana", "sink")]),
            entity("lesson", "semantic", eid="e2", avoid=[("banana", "sink"), ("banana", "stove")]),
            entity("lesson", "semantic", task="t0", eid="e3", avoid=[("banana", "bed")]),
        ]
        ctx = empty_context(semantic=[(e, 0.9) for e in lessons])
        trace = TaskTrace(task_id="t1", instruction="x")
        beliefs = build_beliefs(ctx, observed("you are at stove"), "t1", trace)
        assert beliefs.avoid_points == {"banana": ["shelf", "sink", "stove"]}

    def test_hints_added_later_match_hints_built_in(self):
        # The episode loop adds the long-term hints only before a plan.
        episodic = [
            (entity("task t1", facts=[("cup", "on", "sink"), ("fork", "on", "sink")]), 0.9),
            (entity("task t0", task="t0", eid="e2", facts=[("egg", "in", "fridge")]), 0.8),
        ]
        semantic = [(entity("lesson", "semantic", eid="e3", avoid=[("cup", "bed")]), 0.7)]
        seen = observed("you are at shelf\nyou see fork on shelf")
        trace = TaskTrace(task_id="t1", instruction="x")
        built_in = build_beliefs(
            empty_context(episodic=episodic, semantic=semantic), seen, "t1", trace
        )
        later = build_beliefs(empty_context(), seen)
        add_hints(later, episodic + semantic, "t1", trace)
        assert later == built_in
        assert later.hint_locations == {"cup": {"rel": "on", "place": "sink"}}
        assert later.avoid_points == {"cup": ["bed"]}

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
        ctx = empty_context(
            episodic=mem.retrieve("cup attempt", "episodic"),
            semantic=mem.retrieve("cup lesson", "semantic"),
        )
        for task, hints, avoid in (
            ("B", {"cup": {"rel": "on", "place": "sink"}}, {"cup": ["sink"]}),
            ("A", {}, {}),
        ):
            trace = TaskTrace(task_id=task, instruction="x")
            beliefs = build_beliefs(ctx, observed("you are at stove"), task, trace)
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
            ctx = empty_context(
                episodic=[(e, 1.0) for e in mem.entities("episodic")],
                semantic=[(e, 1.0) for e in mem.entities("semantic")],
            )
            retry = TaskTrace(task_id="t1", instruction="put banana on shelf")
            return build_beliefs(ctx, observed("you are at stove"), "t1", retry)

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
            return extract_triplets(observation)

        monkeypatch.setattr(preprocessor, "extract_triplets", counting)
        # Counted under the planner's name too, should it import the parser.
        monkeypatch.setattr(planner_module, "extract_triplets", counting, raising=False)
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
        orch.gather_context = (
            lambda query, scope=None, recall=True: gathers.append(query)
            or gather(query, scope, recall)
        )
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

    def test_task_event_reaches_longterm_memory(self):
        env = Environment(profile="realworld", failure_p=0.0)
        orch = MemoryOrchestrator()
        run_episode(self.task(), env, ReasonerGateway(), orch)
        assert len(orch.lifelong) >= 1
