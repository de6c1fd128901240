"""Tests for the deterministic partially observable household simulator."""

import dataclasses
import json
import random

import pytest

from memagent import envsim
from memagent.core import ActionCommand, Outcome, Verb, from_doc
from memagent.envsim import (
    EXECUTOR_FAILURE,
    Environment,
    SuiteError,
    TaskSpec,
    builtin_suite_path,
    load_suite,
)


def simple_task(seed=3):
    return TaskSpec(
        id="t1",
        instruction="put cup on kitchen counter",
        category="pick_place",
        goal_conditions=({"kind": "at", "obj": "cup", "place": "kitchen counter"},),
        initial_seed=seed,
    )


class PerObjectPoolEnvironment(Environment):
    """Reference model: reset as it was when each object built its own
    placement pool, frozen here so that it does not follow the code it
    checks."""

    def reset(self, task, seed=None):
        self._task = task
        world_seed = task.initial_seed if seed is None else seed
        placement_rng = random.Random(world_seed)
        self._rng = random.Random(world_seed + 1)
        self._steps = 0
        self.done = False
        self.reported_success = False
        self._agent_at = self.template.start_point
        self._held = None
        self._objects = {}
        goal_places = {(g["obj"], g["place"]) for g in task.goal_conditions if g["kind"] == "at"}
        for spec in self.template.objects:
            if spec.fixed_location is not None:
                state = envsim._ObjectState(
                    spec=spec,
                    location=spec.fixed_location,
                    open_state="closed" if spec.openable else None,
                    power="off" if spec.powered else None,
                )
            else:
                pool = [
                    p
                    for p in self.template.placement_pool
                    if (spec.name, p) not in goal_places
                    and not (not spec.interactive and p not in self.template.nav_points)
                    and not (spec.container and p not in self.template.nav_points)
                ]
                state = envsim._ObjectState(spec=spec, location=placement_rng.choice(pool))
            self._objects[spec.name] = state
        return self._observe()


def act(verb, target=None):
    return ActionCommand(verb=verb, target=target)


class TestTaskSpec:
    def test_needs_goal_conditions(self):
        with pytest.raises(ValueError):
            TaskSpec(id="x", instruction="y", category="pick_place", goal_conditions=())

    def test_doc_round_trip(self):
        doc = {
            "id": "t1",
            "instruction": "put cup on kitchen counter",
            "category": "pick_place",
            "goal_conditions": [{"kind": "at", "obj": "cup", "place": "kitchen counter"}],
            "initial_seed": 3,
        }
        task = from_doc(TaskSpec, doc)
        assert task == simple_task()
        assert dataclasses.asdict(task) == dict(doc, goal_conditions=tuple(doc["goal_conditions"]))
        del doc["initial_seed"]
        assert from_doc(TaskSpec, doc).initial_seed == 0

    def test_gcn_counts_conditions(self):
        assert simple_task().gcn == 1

    @pytest.mark.parametrize("instruction", ["", "   ", "\n\t", None])
    def test_rejects_blank_instruction_naming_the_task(self, instruction):
        with pytest.raises(SuiteError, match="'t9'.*instruction"):
            dataclasses.replace(simple_task(), id="t9", instruction=instruction)

    def test_load_suite_rejects_a_blank_instruction(self, tmp_path):
        doc = {
            "id": "t1",
            "instruction": "put cup on kitchen counter",
            "category": "pick_place",
            "goal_conditions": [{"kind": "at", "obj": "cup", "place": "kitchen counter"}],
        }
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({"tasks": [doc, dict(doc, id="t2", instruction="   ")]}))
        with pytest.raises(ValueError) as raised:
            load_suite(str(path))
        assert str(raised.value) == f"{path}: task 1: task 't2' needs a non-blank instruction"

    @pytest.mark.parametrize(
        "field, value, wrong",
        [
            ("goal_conditions", 5, "'t2': goal_conditions is not a list"),
            ("goal_conditions", "at cup", "'t2': goal_conditions is not a list"),
            ("initial_seed", "x", "'t2': initial_seed 'x' is not an int"),
            ("initial_seed", True, "'t2': initial_seed True is not an int"),
            ("initial_seed", 1.0, "'t2': initial_seed 1.0 is not an int"),
            ("id", 7, "task 7 needs a non-blank text id"),
            ("id", "  ", "task '  ' needs a non-blank text id"),
            ("id", None, "task None needs a non-blank text id"),
        ],
    )
    def test_load_suite_checks_field_types_naming_the_task(self, tmp_path, field, value, wrong):
        doc = {
            "id": "t2",
            "instruction": "put cup on kitchen counter",
            "category": "pick_place",
            "goal_conditions": [{"kind": "at", "obj": "cup", "place": "kitchen counter"}],
            "initial_seed": 3,
        }
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({"tasks": [dict(doc, id="t1"), dict(doc, **{field: value})]}))
        with pytest.raises(SuiteError) as raised:
            load_suite(str(path))
        assert f"{path}: task 1: " in str(raised.value)
        assert wrong in str(raised.value)


    def test_load_suite_refuses_a_duplicate_task_id(self, tmp_path):
        # The id is the task's long-term scope: two worlds must not share it.
        doc = {
            "id": "t1",
            "instruction": "put cup on kitchen counter",
            "category": "pick_place",
            "goal_conditions": [{"kind": "at", "obj": "cup", "place": "kitchen counter"}],
        }
        tasks = [doc, dict(doc, id="t2"), dict(doc, initial_seed=9)]
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({"tasks": tasks}))
        with pytest.raises(SuiteError) as raised:
            load_suite(str(path))
        assert str(raised.value) == f"{path}: tasks 0 and 2 share the id 't1'"

    @pytest.mark.parametrize(
        "goal, wrong",
        [
            ("cup on table", "not an object"),
            ({"obj": "cup", "place": "shelf"}, "kind"),
            ({"kind": "near", "obj": "cup", "place": "shelf"}, "kind"),
            ({"kind": "at", "obj": "cup"}, "'place'"),
            ({"kind": "at", "obj": "cup", "place": "  "}, "'place'"),
            ({"kind": "at", "place": "shelf"}, "'obj'"),
            ({"kind": "state", "obj": "cup"}, "'state'"),
            ({"kind": "state", "obj": "", "state": "heated"}, "'obj'"),
        ],
    )
    def test_rejects_a_malformed_goal_naming_the_task(self, goal, wrong):
        with pytest.raises(SuiteError, match=f"'t9'.*{wrong}"):
            dataclasses.replace(simple_task(), id="t9", goal_conditions=(goal,))

    def suite_with_goal(self, tmp_path, goal, profile="realworld"):
        doc = {
            "id": "t2",
            "instruction": "put cup on shelf",
            "category": "pick_place",
            "goal_conditions": [{"kind": "at", "obj": "cup", "place": "shelf"}, goal],
        }
        path = tmp_path / "suite.json"
        good = dict(doc, id="t1", goal_conditions=doc["goal_conditions"][:1])
        path.write_text(json.dumps({"profile": profile, "tasks": [good, doc]}))
        return str(path)

    @pytest.mark.parametrize(
        "goal, wrong",
        [
            ({"kind": "at", "obj": "cupx", "rel": "on", "place": "shelf"}, "object 'cupx'"),
            ({"kind": "at", "obj": "cup", "rel": "on", "place": "moon"}, "place 'moon'"),
            # A non-container object is no place to put things.
            ({"kind": "at", "obj": "cup", "rel": "in", "place": "apple"}, "place 'apple'"),
            ({"kind": "state", "obj": "cup", "state": "melted"}, "state 'melted'"),
            ({"kind": "state", "obj": "knife", "state": "cleaned"}, "object 'knife'"),
        ],
    )
    def test_load_suite_rejects_a_goal_the_world_cannot_score(self, tmp_path, goal, wrong):
        path = self.suite_with_goal(tmp_path, goal)
        with pytest.raises(SuiteError, match=f"suite.json: task 't2': goal {wrong}"):
            load_suite(path)

    @pytest.mark.parametrize(
        "goal",
        [
            {"kind": "at", "obj": "apple", "rel": "in", "place": "basket"},
            {"kind": "at", "obj": "basket", "rel": "on", "place": "window sill"},
            {"kind": "state", "obj": "oven", "state": "open"},
        ],
    )
    def test_load_suite_accepts_goals_of_its_world(self, tmp_path, goal):
        _, tasks = load_suite(self.suite_with_goal(tmp_path, goal))
        assert tasks[1].goal_conditions[1] == goal

    def test_goal_objects_are_checked_against_the_suite_profile(self, tmp_path):
        goal = {"kind": "state", "obj": "tomato", "state": "sliced"}
        with pytest.raises(SuiteError, match="'t1': goal object 'cup' is not in the alfred world"):
            load_suite(self.suite_with_goal(tmp_path, goal, profile="alfred"))


class TestDeterminism:
    def run_sequence(self, seed, actions):
        env = Environment(profile="realworld", failure_p=0.0)
        obs = env.reset(simple_task(), seed=seed)
        texts = [obs.text]
        for action in actions:
            obs, _, _ = env.step(action)
            texts.append(obs.text)
        return texts, env.world_snapshot()

    def test_same_seed_same_trajectory(self):
        actions = [
            act(Verb.NAVIGATE_TO, "sink"),
            act(Verb.NAVIGATE_TO, "shelf"),
            act(Verb.OPEN, "cabinet"),
        ]
        a = self.run_sequence(42, actions)
        b = self.run_sequence(42, actions)
        assert a == b

    def test_different_seeds_move_objects(self):
        snaps = set()
        for seed in range(8):
            env = Environment(profile="realworld", failure_p=0.0)
            env.reset(simple_task(), seed=seed)
            snaps.add(env.world_snapshot()["objects"]["cup"]["location"])
        assert len(snaps) > 1

    def test_goal_place_never_pre_satisfied(self):
        for seed in range(30):
            env = Environment(profile="realworld", failure_p=0.0)
            env.reset(simple_task(), seed=seed)
            scn, gcn = env.score()
            assert scn == 0 and gcn == 1

    def test_reset_matches_the_per_object_pool(self):
        """Every built-in task, and one with two goal places for one object,
        starts the same world in both profiles as with a pool built per
        object: same contents and order of each pool, same draws."""
        _, tasks = load_suite(builtin_suite_path())
        tasks.append(dataclasses.replace(simple_task(), goal_conditions=(
            {"kind": "at", "obj": "cup", "place": "stove"},
            {"kind": "at", "obj": "cup", "place": "cabinet"},
            {"kind": "at", "obj": "spoon", "place": "kitchen table"},
        )))
        for profile in ("realworld", "alfred"):
            env, ref = Environment(profile=profile), PerObjectPoolEnvironment(profile=profile)
            for task in tasks:
                for seed in range(20):
                    assert env.reset(task, seed) == ref.reset(task, seed)
                    assert env.world_snapshot() == ref.world_snapshot()

    def test_failure_stream_is_one_draw_per_step(self):
        """The failure roll happens on every step, even invalid ones, so the
        random stream position depends only on the step count."""
        seed = 5
        envs = []
        for first in (act(Verb.NAVIGATE_TO, "sink"), act(Verb.NAVIGATE_TO, "nowhere")):
            env = Environment(profile="realworld", failure_p=0.0)
            env.reset(simple_task(), seed=seed)
            env.step(first)
            envs.append(env)
        assert envs[0]._rng.random() == envs[1]._rng.random()


class TestValidation:
    def env(self, failure_p=0.0):
        env = Environment(profile="realworld", failure_p=failure_p)
        env.reset(simple_task(), seed=3)
        return env

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            Environment(profile="spacestation")

    def test_score_and_step_need_an_active_task(self):
        # A RuntimeError, not an assert, so the check survives ``python -O``.
        env = Environment(profile="realworld", failure_p=0.0)
        with pytest.raises(RuntimeError, match="no active task"):
            env.score()
        with pytest.raises(RuntimeError, match="no active task"):
            env.step(act(Verb.NAVIGATE_TO, "sink"))
        assert env.agent_at == env.template.start_point

    def test_unsupported_verb(self):
        env = self.env()
        _, outcome, reason = env.step(act(Verb.SLICE, "apple"))
        assert outcome is Outcome.FAILURE
        assert reason == "unsupported_action"

    def test_unknown_navigation_point(self):
        env = self.env()
        _, outcome, reason = env.step(act(Verb.NAVIGATE_TO, "garage"))
        assert reason == "unknown navigation point"

    def test_pick_up_remote_object_fails(self):
        env = self.env()
        cup_at = env.world_snapshot()["objects"]["cup"]["location"]
        somewhere_else = next(p for p in env.nav_points if p != cup_at)
        env.step(act(Verb.NAVIGATE_TO, somewhere_else))
        _, outcome, reason = env.step(act(Verb.PICK_UP, "cup"))
        assert reason in ("target not here",)

    def test_pick_up_with_full_hands(self):
        env = self.env()
        cup_at = env._objects["cup"].location
        env.step(act(Verb.NAVIGATE_TO, cup_at))
        env.step(act(Verb.PICK_UP, "cup"))
        banana_at = env._objects["banana"].location
        env.step(act(Verb.NAVIGATE_TO, banana_at))
        _, _, reason = env.step(act(Verb.PICK_UP, "banana"))
        assert reason == "hands full"

    def test_put_down_without_holding(self):
        env = self.env()
        _, _, reason = env.step(act(Verb.PUT_DOWN_TO, "dining table"))
        assert reason == "nothing is held"

    def test_put_down_into_closed_container(self):
        env = self.env()
        cup_at = env._objects["cup"].location
        env.step(act(Verb.NAVIGATE_TO, cup_at))
        env.step(act(Verb.PICK_UP, "cup"))
        env.step(act(Verb.NAVIGATE_TO, "stove"))
        _, _, reason = env.step(act(Verb.PUT_DOWN_TO, "oven"))
        assert reason == "oven is closed"

    def test_open_twice_fails(self):
        env = self.env()
        env.step(act(Verb.NAVIGATE_TO, "shelf"))
        env.step(act(Verb.OPEN, "cabinet"))
        _, _, reason = env.step(act(Verb.OPEN, "cabinet"))
        assert reason == "already open"

    def test_non_interactive_objects_are_inert(self):
        env = self.env()
        sponge_at = env._objects["sponge"].location
        env.step(act(Verb.NAVIGATE_TO, sponge_at))
        _, _, reason = env.step(act(Verb.PICK_UP, "sponge"))
        assert reason == "target not found"

    @pytest.mark.parametrize("failure_p", [1.5, -0.5, float("nan")])
    def test_failure_rate_outside_0_1_is_refused(self, failure_p):
        # Not a run whose every step fails (or none does) reading as a score.
        with pytest.raises(ValueError, match=r"failure_p must be within \[0, 1\]"):
            Environment(profile="realworld", failure_p=failure_p)

    @pytest.mark.parametrize("max_steps", [0, -1, 2.5, "15", True])
    def test_step_budget_below_1_or_not_an_int_is_refused(self, max_steps):
        # Not the profile's budget in place of 0, nor an episode of no step.
        with pytest.raises(ValueError, match="max_steps"):
            Environment(profile="realworld", max_steps=max_steps)

    def test_no_step_budget_keeps_the_profile_s(self):
        assert Environment(profile="realworld").max_steps == 15
        assert Environment(profile="alfred", max_steps=None).max_steps == 30
        assert Environment(profile="realworld", max_steps=1).max_steps == 1

    def test_injected_failure_reports_executor_failure(self):
        env = Environment(profile="realworld", failure_p=1.0)
        env.reset(simple_task(), seed=3)
        obs, outcome, reason = env.step(act(Verb.NAVIGATE_TO, "sink"))
        assert outcome is Outcome.FAILURE
        assert reason == EXECUTOR_FAILURE
        assert "action failed: executor_failure" in obs.text
        assert env.agent_at == "dining table"


class TestPartialObservability:
    def test_only_current_point_is_visible(self):
        env = Environment(profile="realworld", failure_p=0.0)
        obs = env.reset(simple_task(), seed=3)
        for line in obs.text.splitlines():
            if line.startswith("you see"):
                assert f"on {env.agent_at}" in line or " in " in line

    def test_closed_container_hides_contents(self):
        env = Environment(profile="realworld", failure_p=0.0)
        env.reset(simple_task(), seed=3)
        env._objects["cup"].location = "cabinet"
        env.step(act(Verb.NAVIGATE_TO, "shelf"))
        obs, _, _ = env.step(act(Verb.NAVIGATE_TO, "shelf"))
        assert "cup" not in obs.text
        obs, _, _ = env.step(act(Verb.OPEN, "cabinet"))
        assert "you see cup in cabinet" in obs.text

    def test_held_object_and_states_reported(self):
        env = Environment(profile="realworld", failure_p=0.0)
        env.reset(simple_task(), seed=3)
        cup_at = env._objects["cup"].location
        env.step(act(Verb.NAVIGATE_TO, cup_at))
        obs, _, _ = env.step(act(Verb.PICK_UP, "cup"))
        assert "holding: cup" in obs.text


class TestPhysicsAndScoring:
    def test_oven_heats_contents(self):
        env = Environment(profile="realworld", failure_p=0.0)
        env.reset(simple_task(), seed=3)
        apple_at = env._objects["apple"].location
        env.step(act(Verb.NAVIGATE_TO, apple_at))
        env.step(act(Verb.PICK_UP, "apple"))
        env.step(act(Verb.NAVIGATE_TO, "stove"))
        env.step(act(Verb.OPEN, "oven"))
        env.step(act(Verb.PUT_DOWN_TO, "oven"))
        env.step(act(Verb.TURN_ON, "oven"))
        assert "heated" in env._objects["apple"].states

    def test_faucet_cleans_objects_in_sink(self):
        env = Environment(profile="realworld", failure_p=0.0)
        env.reset(simple_task(), seed=3)
        cup_at = env._objects["cup"].location
        env.step(act(Verb.NAVIGATE_TO, cup_at))
        env.step(act(Verb.PICK_UP, "cup"))
        env.step(act(Verb.NAVIGATE_TO, "sink"))
        env.step(act(Verb.PUT_DOWN_TO, "sink"))
        env.step(act(Verb.TURN_ON, "faucet"))
        assert "cleaned" in env._objects["cup"].states

    def test_score_counts_goal_conditions(self):
        env = Environment(profile="realworld", failure_p=0.0)
        env.reset(simple_task(), seed=3)
        cup_at = env._objects["cup"].location
        env.step(act(Verb.NAVIGATE_TO, cup_at))
        env.step(act(Verb.PICK_UP, "cup"))
        assert env.score() == (0, 1)
        env.step(act(Verb.NAVIGATE_TO, "kitchen counter"))
        env.step(act(Verb.PUT_DOWN_TO, "kitchen counter"))
        assert env.score() == (1, 1)

    def test_realworld_does_not_report_success(self):
        env = Environment(profile="realworld", failure_p=0.0)
        env.reset(simple_task(), seed=3)
        cup_at = env._objects["cup"].location
        env.step(act(Verb.NAVIGATE_TO, cup_at))
        env.step(act(Verb.PICK_UP, "cup"))
        env.step(act(Verb.NAVIGATE_TO, "kitchen counter"))
        env.step(act(Verb.PUT_DOWN_TO, "kitchen counter"))
        assert env.score() == (1, 1)
        assert not env.done
        env.step(act(Verb.TASK_COMPLETE))
        assert env.done and not env.reported_success

    def test_alfred_reports_success_and_stops(self):
        task = TaskSpec(
            id="a1",
            instruction="put spoon on kitchen table",
            category="pick_place",
            goal_conditions=({"kind": "at", "obj": "spoon", "place": "kitchen table"},),
            initial_seed=2,
        )
        env = Environment(profile="alfred", failure_p=0.0)
        env.reset(task)
        env.step(act(Verb.FIND, "spoon"))
        env.step(act(Verb.PICK_UP, "spoon"))
        env.step(act(Verb.FIND, "kitchen table"))
        env.step(act(Verb.PUT_DOWN_TO, "kitchen table"))
        assert env.done and env.reported_success

    def test_slice_marks_the_target_sliced(self):
        # A second goal keeps the episode open after the slice.
        task = TaskSpec(
            id="a2",
            instruction="slice tomato and put spoon in sink",
            category="pick_operate_place",
            goal_conditions=(
                {"kind": "state", "obj": "tomato", "state": "sliced"},
                {"kind": "at", "obj": "spoon", "place": "sink"},
            ),
            initial_seed=2,
        )
        env = Environment(profile="alfred", failure_p=0.0)
        env.reset(task)
        env.step(act(Verb.FIND, "knife"))
        env.step(act(Verb.PICK_UP, "knife"))
        env.step(act(Verb.FIND, "tomato"))
        obs, outcome, failure = env.step(act(Verb.SLICE, "tomato"))
        assert (outcome, failure) == (Outcome.SUCCESS, None)
        assert "tomato is sliced" in obs.text.splitlines()
        assert env.score() == (1, 2)
        _, outcome, failure = env.step(act(Verb.SLICE, "tomato"))
        assert (outcome, failure) == (Outcome.FAILURE, "already sliced")

    def test_step_budget_terminates(self):
        env = Environment(profile="realworld", failure_p=0.0, max_steps=3)
        env.reset(simple_task(), seed=3)
        for _ in range(3):
            env.step(act(Verb.NAVIGATE_TO, "sink"))
        assert env.done
        with pytest.raises(RuntimeError):
            env.step(act(Verb.NAVIGATE_TO, "sink"))


class TestSuite:
    def test_builtin_suite_loads(self):
        profile, tasks = load_suite(builtin_suite_path())
        assert profile == "realworld"
        assert len(tasks) == 15
        assert len({t.id for t in tasks}) == 15
        categories = {t.category for t in tasks}
        assert categories == {"pick_place", "pick_operate_place", "pick_gather_place"}

    def test_all_builtin_tasks_are_solvable(self):
        """A scripted full-knowledge solver reaches every goal within the
        step budget when no failures are injected."""
        _, tasks = load_suite(builtin_suite_path())
        for task in tasks:
            env = Environment(profile="realworld", failure_p=0.0)
            env.reset(task)
            steps = self.solve(env, task)
            scn, gcn = env.score()
            assert scn == gcn, f"{task.id} unsolved: {scn}/{gcn}"
            assert steps <= env.max_steps, f"{task.id} took {steps} steps"

    def solve(self, env, task):
        steps = 0

        def do(verb, target=None):
            nonlocal steps
            _, outcome, reason = env.step(act(verb, target))
            steps += 1
            assert outcome is Outcome.SUCCESS, f"{task.id}: {verb} {target}: {reason}"

        def goto_object(name):
            state = env._objects[name]
            point = env._point_of(name)
            if env.agent_at != point:
                do(Verb.NAVIGATE_TO, point)
            container = state.location
            if container in env._objects and not env._container_open(container):
                do(Verb.OPEN, container)

        def fetch(name):
            if env.held == name:
                return
            goto_object(name)
            do(Verb.PICK_UP, name)

        def place(name, rel, where):
            if where in env.template.nav_points:
                if env.agent_at != where:
                    do(Verb.NAVIGATE_TO, where)
            else:
                point = env._point_of(where)
                if env.agent_at != point:
                    do(Verb.NAVIGATE_TO, point)
                if not env._container_open(where):
                    do(Verb.OPEN, where)
            do(Verb.PUT_DOWN_TO, where)

        for goal in task.goal_conditions:
            if goal["kind"] == "at":
                if env._objects[goal["obj"]].location == goal["place"]:
                    continue
                fetch(goal["obj"])
                place(goal["obj"], "at", goal["place"])
            elif goal["state"] == "heated":
                fetch(goal["obj"])
                do(Verb.NAVIGATE_TO, "stove")
                do(Verb.OPEN, "oven")
                do(Verb.PUT_DOWN_TO, "oven")
                do(Verb.TURN_ON, "oven")
                do(Verb.PICK_UP, goal["obj"])
            elif goal["state"] == "cleaned":
                fetch(goal["obj"])
                do(Verb.NAVIGATE_TO, "sink")
                do(Verb.PUT_DOWN_TO, "sink")
                do(Verb.TURN_ON, "faucet")
                do(Verb.PICK_UP, goal["obj"])
        return steps
