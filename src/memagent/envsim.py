"""Deterministic, partially observable household-task simulator.

Two verb profiles: "realworld" (navigate_to/task_complete, 15-step budget,
no success feedback, so the agent must decide it is done) and "alfred"
(find/drop/slice, 30-step budget, environment-reported success).

With failure injection probability 0 the environment is a pure function of
(seed, action sequence). Observations reveal only the agent's current
location; closed containers hide their contents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .core import (
    ActionCommand,
    Observation,
    Outcome,
    Verb,
    check_int,
    from_doc,
    read_json,
)

EXECUTOR_FAILURE = "executor_failure"

PROFILES = {
    "realworld": {
        "verbs": {
            Verb.NAVIGATE_TO,
            Verb.PICK_UP,
            Verb.PUT_DOWN_TO,
            Verb.OPEN,
            Verb.CLOSE,
            Verb.TURN_ON,
            Verb.TURN_OFF,
            Verb.TASK_COMPLETE,
        },
        "max_steps": 15,
        "reports_success": False,
        "default_failure_p": 0.1,
    },
    "alfred": {
        "verbs": {
            Verb.FIND,
            Verb.PICK_UP,
            Verb.PUT_DOWN_TO,
            Verb.DROP,
            Verb.OPEN,
            Verb.CLOSE,
            Verb.TURN_ON,
            Verb.TURN_OFF,
            Verb.SLICE,
        },
        "max_steps": 30,
        "reports_success": True,
        "default_failure_p": 0.0,
    },
}


@dataclass
class ObjectSpec:
    name: str
    movable: bool = True
    interactive: bool = True
    container: bool = False  # objects can be placed inside/onto it
    openable: bool = False
    powered: bool = False  # has on/off state
    knife: bool = False
    sliceable: bool = False
    fixed_location: Optional[str] = None


@dataclass
class WorldTemplate:
    nav_points: List[str]
    start_point: str
    objects: List[ObjectSpec]
    placement_pool: List[str]  # receptacles the seeded shuffle may use


REALWORLD_TEMPLATE = WorldTemplate(
    nav_points=[
        "dining table", "kitchen counter", "sink", "stove", "shelf",
        "side table", "window sill",
    ],
    start_point="dining table",
    objects=[
        ObjectSpec("banana"),
        ObjectSpec("apple"),
        ObjectSpec("gum box"),
        ObjectSpec("cup"),
        ObjectSpec("basket", container=True),
        ObjectSpec(
            "oven", movable=False, container=True, openable=True, powered=True,
            fixed_location="stove",
        ),
        ObjectSpec("faucet", movable=False, powered=True, fixed_location="sink"),
        ObjectSpec(
            "cabinet", movable=False, container=True, openable=True,
            fixed_location="shelf",
        ),
        # Distracting but non-interactive clutter.
        ObjectSpec("sponge", interactive=False),
        ObjectSpec("towel", interactive=False),
        ObjectSpec("plant", interactive=False),
        ObjectSpec("kettle", interactive=False),
        ObjectSpec("bowl", interactive=False),
        ObjectSpec("fork", interactive=False),
        ObjectSpec("napkin", interactive=False),
        ObjectSpec("jar", interactive=False),
        ObjectSpec("vase", interactive=False),
        ObjectSpec("mug", interactive=False),
    ],
    placement_pool=[
        "dining table", "kitchen counter", "sink", "stove", "shelf",
        "side table", "window sill", "cabinet",
    ],
)

ALFRED_TEMPLATE = WorldTemplate(
    nav_points=["kitchen counter", "kitchen table", "sink", "stove", "cabinet area"],
    start_point="kitchen counter",
    objects=[
        ObjectSpec("knife", knife=True),
        ObjectSpec("tomato", sliceable=True),
        ObjectSpec("spoon"),
        ObjectSpec("plate", container=True),
        ObjectSpec("pan", container=True),
        ObjectSpec(
            "oven", movable=False, container=True, openable=True, powered=True,
            fixed_location="stove",
        ),
        ObjectSpec("faucet", movable=False, powered=True, fixed_location="sink"),
        ObjectSpec(
            "drawer", movable=False, container=True, openable=True,
            fixed_location="cabinet area",
        ),
    ],
    placement_pool=["kitchen counter", "kitchen table", "sink", "stove", "cabinet area"],
)

TEMPLATES = {"realworld": REALWORLD_TEMPLATE, "alfred": ALFRED_TEMPLATE}


class SuiteError(ValueError):
    """An invalid task. Raised when the suite loads, so that a task that
    cannot run fails the run before its first episode."""


#: The fields, besides ``kind``, that each kind of goal condition needs.
GOAL_FIELDS = {"at": ("obj", "place"), "state": ("obj", "state")}
#: The values a ``state`` goal may ask for: the states ``score`` can see.
GOAL_STATES = ("open", "closed", "on", "off", "heated", "cleaned", "sliced")


@dataclass(frozen=True)
class TaskSpec:
    id: str
    instruction: str
    category: str  # pick_place | pick_operate_place | pick_gather_place
    goal_conditions: Tuple[dict, ...]
    initial_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id.strip():
            raise SuiteError(f"task {self.id!r} needs a non-blank text id")
        if not isinstance(self.goal_conditions, (list, tuple)):
            raise SuiteError(f"task {self.id!r}: goal_conditions is not a list")
        if len(self.goal_conditions) < 1:
            raise SuiteError(f"task {self.id!r} needs at least one goal condition")
        if not isinstance(self.initial_seed, int) or isinstance(self.initial_seed, bool):
            raise SuiteError(f"task {self.id!r}: initial_seed {self.initial_seed!r} is not an int")
        if not isinstance(self.instruction, str) or not self.instruction.strip():
            raise SuiteError(f"task {self.id!r} needs a non-blank instruction")
        for goal in self.goal_conditions:
            kind = goal.get("kind") if isinstance(goal, dict) else None
            if not isinstance(kind, str) or kind not in GOAL_FIELDS:
                raise SuiteError(
                    f"task {self.id!r}: goal {goal!r} is not an object whose kind is "
                    f"one of {sorted(GOAL_FIELDS)}"
                )
            for name in GOAL_FIELDS[kind]:
                value = goal.get(name)
                if not isinstance(value, str) or not value.strip():
                    raise SuiteError(f"task {self.id!r}: goal {goal!r} needs a non-blank {name!r}")
        object.__setattr__(self, "goal_conditions", tuple(self.goal_conditions))

    @property
    def gcn(self) -> int:
        return len(self.goal_conditions)


@dataclass
class _ObjectState:
    spec: ObjectSpec
    location: str  # nav point, container name, or "held"
    open_state: Optional[str] = None  # "open"/"closed"
    power: Optional[str] = None  # "on"/"off"
    states: Set[str] = field(default_factory=set)


class Environment:
    def __init__(
        self,
        profile: str = "realworld",
        failure_p: Optional[float] = None,
        max_steps: Optional[int] = None,
    ):
        if profile not in PROFILES:
            raise ValueError(f"unknown profile: {profile}")
        self.profile = profile
        self._config = PROFILES[profile]
        self.template = TEMPLATES[profile]
        self.failure_p = (
            self._config["default_failure_p"] if failure_p is None else failure_p
        )
        if not 0 <= self.failure_p <= 1:
            raise ValueError(f"failure_p must be within [0, 1], got {self.failure_p}")
        if max_steps is None:
            max_steps = self._config["max_steps"]
        check_int(max_steps, 1, "max_steps")
        self.max_steps = max_steps
        self.verbs = set(self._config["verbs"])
        self.reports_success = self._config["reports_success"]
        self._objects: Dict[str, _ObjectState] = {}
        self._agent_at = self.template.start_point
        self._held: Optional[str] = None
        self._task: Optional[TaskSpec] = None
        self._rng = random.Random(0)
        self._steps = 0
        self.done = False
        self.reported_success = False

    @property
    def nav_points(self) -> List[str]:
        return list(self.template.nav_points)

    @property
    def agent_at(self) -> str:
        return self._agent_at

    @property
    def held(self) -> Optional[str]:
        return self._held

    # -- reset / world generation -------------------------------------------

    def reset(self, task: TaskSpec, seed: Optional[int] = None) -> Observation:
        self._task = task
        world_seed = task.initial_seed if seed is None else seed
        placement_rng = random.Random(world_seed)
        self._rng = random.Random(world_seed + 1)  # failure injection stream
        self._steps = 0
        self.done = False
        self.reported_success = False
        self._agent_at = self.template.start_point
        self._held = None
        self._objects = {}

        # An object never starts at a goal place of its own. Apart from that,
        # a pool depends on the object only through whether it may sit in a
        # container, so it is built once for each of the two kinds.
        goal_places: Dict[str, Set[str]] = {}
        for g in task.goal_conditions:
            if g["kind"] == "at":
                goal_places.setdefault(g["obj"], set()).add(g["place"])
        nav_points = set(self.template.nav_points)
        full = self.template.placement_pool
        pools = {False: full, True: [p for p in full if p in nav_points]}
        for spec in self.template.objects:
            if spec.fixed_location is not None:
                state = _ObjectState(
                    spec=spec,
                    location=spec.fixed_location,
                    open_state="closed" if spec.openable else None,
                    power="off" if spec.powered else None,
                )
            else:
                pool = pools[spec.container or not spec.interactive]
                if spec.name in goal_places:
                    pool = [p for p in pool if p not in goal_places[spec.name]]
                location = placement_rng.choice(pool)
                state = _ObjectState(spec=spec, location=location)
            self._objects[spec.name] = state
        return self._observe()

    # -- observation ----------------------------------------------------------

    def _container_open(self, name: str) -> bool:
        state = self._objects[name]
        if not state.spec.container:
            return False
        if state.spec.openable:
            return state.open_state == "open"
        return True  # open-top receptacles (basket, plate)

    def _visible_here(self) -> List[Tuple[str, str, str]]:
        """(obj, rel, place) for everything observable at the agent's point."""
        visible: List[Tuple[str, str, str]] = []
        for name in sorted(self._objects):
            state = self._objects[name]
            if state.location == self._agent_at:
                visible.append((name, "on", self._agent_at))
        # Contents of open containers located here (one level of nesting).
        for name, rel, _ in list(visible):
            if self._objects[name].spec.container and self._container_open(name):
                for inner in sorted(self._objects):
                    if self._objects[inner].location == name:
                        visible.append((inner, "in", name))
        return visible

    def _observe(self, failure_reason: Optional[str] = None) -> Observation:
        lines = [f"you are at {self._agent_at}"]
        visible = self._visible_here()
        for obj, rel, place in visible:
            lines.append(f"you see {obj} {rel} {place}")
        for obj, _, _ in visible:
            state = self._objects[obj]
            if state.spec.openable:
                lines.append(f"{obj} is {state.open_state}")
            if state.spec.powered:
                lines.append(f"{obj} is {state.power}")
            for extra in sorted(state.states):
                lines.append(f"{obj} is {extra}")
        if self._held is not None:
            lines.append(f"holding: {self._held}")
            held_state = self._objects[self._held]
            for extra in sorted(held_state.states):
                lines.append(f"{self._held} is {extra}")
        else:
            lines.append("holding: nothing")
        if failure_reason:
            lines.append(f"action failed: {failure_reason}")
        return Observation(
            task_id=self._task.id if self._task else "none",
            step_index=self._steps,
            text="\n".join(lines),
        )

    # -- stepping ----------------------------------------------------------------

    def step(self, action: ActionCommand) -> Tuple[Observation, Outcome, Optional[str]]:
        self._active_task()
        if self.done:
            raise RuntimeError("episode is finished; call reset()")
        self._steps += 1
        roll = self._rng.random()  # one draw per step, valid or not

        failure = self._validate(action)
        if failure is None and self.failure_p > 0 and roll < self.failure_p:
            failure = EXECUTOR_FAILURE
        if failure is None:
            self._apply(action)
            self._apply_physics()
        outcome = Outcome.SUCCESS if failure is None else Outcome.FAILURE

        if action.verb is Verb.TASK_COMPLETE and failure is None:
            self.done = True
        scn, gcn = self.score()
        if self.reports_success and scn == gcn:
            self.done = True
            self.reported_success = True
        if self._steps >= self.max_steps:
            self.done = True
        return self._observe(failure), outcome, failure

    def _point_of(self, name: str) -> Optional[str]:
        """Nav point a (possibly nested) object currently sits at."""
        seen = set()
        cur = name
        while cur in self._objects and cur not in seen:
            seen.add(cur)
            cur = self._objects[cur].location
        if cur in self.template.nav_points:
            return cur
        return None

    def _reachable(self, name: str) -> bool:
        """Object is at the agent's point and not hidden in a closed container."""
        state = self._objects.get(name)
        if state is None:
            return False
        if state.location == self._agent_at:
            return True
        container = state.location
        if container in self._objects and self._container_open(container):
            return self._objects[container].location == self._agent_at
        return False

    def _validate(self, action: ActionCommand) -> Optional[str]:
        verb, target = action.verb, action.target
        if verb not in self.verbs:
            return "unsupported_action"
        if verb is Verb.TASK_COMPLETE:
            return None
        if verb is Verb.DROP:
            return None if self._held is not None else "nothing is held"
        if verb is Verb.NAVIGATE_TO:
            return None if target in self.template.nav_points else "unknown navigation point"
        if verb is Verb.FIND:
            if target in self.template.nav_points:
                return None
            state = self._objects.get(target)
            if state is None or not state.spec.interactive:
                return "target not found"
            point = self._point_of(target)
            container = state.location
            hidden = (
                container in self._objects
                and self._objects[container].spec.container
                and not self._container_open(container)
            )
            if point is None or hidden:
                return "target not found"
            return None
        if verb is Verb.PUT_DOWN_TO and target in self.template.nav_points:
            if self._held is None:
                return "nothing is held"
            return None if target == self._agent_at else "receptacle not here"
        state = self._objects.get(target) if target else None
        if state is None or not state.spec.interactive:
            return "target not found"
        if verb is Verb.PICK_UP:
            if self._held is not None:
                return "hands full"
            if not state.spec.movable:
                return "target is fixed"
            if not self._reachable(target):
                return "target not here"
            return None
        if verb is Verb.PUT_DOWN_TO:
            if self._held is None:
                return "nothing is held"
            if target == self._held:
                return "cannot place an object onto itself"
            if not state.spec.container:
                return "not a receptacle"
            if self._point_of(target) != self._agent_at:
                return "receptacle not here"
            if state.spec.openable and state.open_state != "open":
                return f"{target} is closed"
            return None
        if verb in (Verb.OPEN, Verb.CLOSE):
            if not state.spec.openable:
                return "not openable"
            if not self._reachable(target) and state.location != self._agent_at:
                return "target not here"
            wanted = "closed" if verb is Verb.OPEN else "open"
            return None if state.open_state == wanted else f"already {state.open_state}"
        if verb in (Verb.TURN_ON, Verb.TURN_OFF):
            if not state.spec.powered:
                return "not a powered device"
            if self._point_of(target) != self._agent_at:
                return "target not here"
            wanted = "off" if verb is Verb.TURN_ON else "on"
            return None if state.power == wanted else f"already {state.power}"
        if verb is Verb.SLICE:
            if self._held is None or not self._objects[self._held].spec.knife:
                return "need to hold a knife"
            if not state.spec.sliceable:
                return "cannot be sliced"
            if not self._reachable(target):
                return "target not here"
            if "sliced" in state.states:
                return "already sliced"
            return None
        return "unsupported_action"

    def _apply(self, action: ActionCommand) -> None:
        verb, target = action.verb, action.target
        if verb in (Verb.NAVIGATE_TO,):
            self._agent_at = target
        elif verb is Verb.FIND:
            self._agent_at = (
                target if target in self.template.nav_points else self._point_of(target)
            )
        elif verb is Verb.PICK_UP:
            self._objects[target].location = "held"
            self._held = target
        elif verb is Verb.PUT_DOWN_TO:
            self._objects[self._held].location = target
            self._held = None
        elif verb is Verb.DROP:
            self._objects[self._held].location = self._agent_at
            self._held = None
        elif verb is Verb.OPEN:
            self._objects[target].open_state = "open"
        elif verb is Verb.CLOSE:
            self._objects[target].open_state = "closed"
        elif verb is Verb.TURN_ON:
            self._objects[target].power = "on"
        elif verb is Verb.TURN_OFF:
            self._objects[target].power = "off"
        elif verb is Verb.SLICE:
            self._objects[target].states.add("sliced")

    def _apply_physics(self) -> None:
        for name, state in self._objects.items():
            if state.spec.powered and state.power == "on" and state.spec.container:
                for inner, inner_state in self._objects.items():
                    if inner_state.location == name:
                        inner_state.states.add("heated")
            if name == "faucet" and state.power == "on":
                for inner, inner_state in self._objects.items():
                    if inner_state.location == "sink" and inner_state.spec.movable:
                        inner_state.states.add("cleaned")

    # -- scoring ----------------------------------------------------------------

    def _condition_met(self, goal: dict) -> bool:
        obj = goal["obj"]
        state = self._objects.get(obj)
        if state is None:
            return False
        if goal["kind"] == "at":
            return state.location == goal["place"]
        wanted = goal["state"]
        if wanted in ("open", "closed"):
            return state.open_state == wanted
        if wanted in ("on", "off"):
            return state.power == wanted
        return wanted in state.states

    def _active_task(self) -> TaskSpec:
        if self._task is None:
            raise RuntimeError("no active task; call reset()")
        return self._task

    def score(self) -> Tuple[int, int]:
        task = self._active_task()
        scn = sum(1 for g in task.goal_conditions if self._condition_met(g))
        return scn, task.gcn

    def world_snapshot(self) -> dict:
        return {
            "agent_at": self._agent_at,
            "held": self._held,
            "objects": {
                name: {
                    "location": s.location,
                    "open_state": s.open_state,
                    "power": s.power,
                    "states": sorted(s.states),
                }
                for name, s in sorted(self._objects.items())
            },
        }


def load_suite(path: str) -> Tuple[str, List[TaskSpec]]:
    """The profile and tasks of a suite file; ``SuiteError`` names the file
    when it cannot be read, names an unknown profile or holds a malformed
    task, and then also the task's index (its id for a goal the world
    cannot score). Two tasks may not share an id: the id is the task's
    long-term scope, so they would share hints across different worlds."""
    doc = read_json(path, SuiteError)
    tasks = doc.get("tasks") if isinstance(doc, dict) else None
    if not isinstance(tasks, list):
        raise SuiteError(f"{path}: expected an object whose 'tasks' is a list")
    profile, profiles = doc.get("profile", "realworld"), sorted(TEMPLATES)
    if profile not in profiles:
        raise SuiteError(f"{path}: unknown profile {profile!r} (expected one of {profiles})")
    specs = []
    first_index: Dict[str, int] = {}
    for index, task in enumerate(tasks):
        if not isinstance(task, dict):
            raise SuiteError(f"{path}: task {index} is not an object")
        try:
            spec = from_doc(TaskSpec, task)
        except KeyError as exc:
            raise SuiteError(f"{path}: task {index} has no {exc.args[0]!r}") from exc
        except SuiteError as exc:
            raise SuiteError(f"{path}: task {index}: {exc}") from exc
        _check_goals(spec, profile, path)
        if spec.id in first_index:
            raise SuiteError(
                f"{path}: tasks {first_index[spec.id]} and {index} share the id {spec.id!r}"
            )
        first_index[spec.id] = index
        specs.append(spec)
    return profile, specs


def _check_goals(task: TaskSpec, profile: str, path: str) -> None:
    """Raise ``SuiteError`` naming the task when a goal names an object, a
    place or a state that the profile's world cannot score."""
    template = TEMPLATES[profile]
    objects = {spec.name for spec in template.objects}
    places = set(template.nav_points) | {spec.name for spec in template.objects if spec.container}
    for goal in task.goal_conditions:
        if goal["obj"] not in objects:
            wrong = f"object {goal['obj']!r} is not in the {profile} world"
        elif goal["kind"] == "at" and goal["place"] not in places:
            wrong = f"place {goal['place']!r} is neither a nav point nor a container"
        elif goal["kind"] == "state" and goal["state"] not in GOAL_STATES:
            wrong = f"state {goal['state']!r} is not one of {list(GOAL_STATES)}"
        else:
            continue
        raise SuiteError(f"{path}: task {task.id!r}: goal {wrong}")


def builtin_suite_path() -> str:
    import importlib.resources as resources

    return str(resources.files("memagent") / "tasks" / "realworld_suite.json")
