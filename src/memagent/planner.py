"""Closed-loop planning: multi-step plans, per-step critic gating with the
first-step exemption, and full replanning on rejection.

A fresh plan's first action always executes unreviewed, so an adversarial
critic can slow the agent down but never starve it: every planning round
makes at least one environment step of progress.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (
    ActionCommand,
    InvariantError,
    Outcome,
    StepRecord,
    TaskResult,
    Termination,
    Verb,
    to_doc,
)
from .envsim import Environment, TaskSpec
from .gateway import GatewayError, ReasonerGateway, ReasonerRole
from .lifelong import MemoryEntity, TaskTrace
from .orchestrator import MemoryContext, MemoryOrchestrator, UpdateEvent
from .preprocessor import PreprocessOutput, Preprocessor

logger = logging.getLogger(__name__)

_LOCATION_RELS = ("on", "in")

class EmptyPlanError(Exception):
    pass


@dataclass(frozen=True)
class Plan:
    """The planner's steps, with each step's document made once for the
    critic's payloads. No reader may change a document."""

    steps: Tuple[ActionCommand, ...]
    docs: Tuple[dict, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a plan must contain at least one step")
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "docs", tuple(to_doc(step) for step in self.steps))


@dataclass(frozen=True)
class CriticVerdict:
    decision: str  # "approve" | "reject"
    reason: str

    def __post_init__(self):
        if self.decision == "reject" and not self.reason:
            raise ValueError("rejections need a reason")


@dataclass
class BeliefState:
    """What the planner currently believes: the agent's place and hand and
    the triplets of the latest observation (authoritative), layered over
    the memory context."""

    agent_at: Optional[str] = None
    holding: Optional[str] = None
    facts: List[Tuple[str, str, str]] = field(default_factory=list)
    known_locations: Dict[str, dict] = field(default_factory=dict)
    hint_locations: Dict[str, dict] = field(default_factory=dict)
    object_states: Dict[str, List[str]] = field(default_factory=dict)
    container_states: Dict[str, str] = field(default_factory=dict)
    avoid_points: Dict[str, List[str]] = field(default_factory=dict)


def build_beliefs(context: MemoryContext, observed: PreprocessOutput) -> BeliefState:
    """Beliefs from working memory and the current observation; long-term
    hints are added by ``add_hints``."""
    beliefs = BeliefState(agent_at=observed.agent_at, holding=observed.holding)
    obs_facts = [t.key for t in observed.triplets]
    kg_facts = [t.key for t in context.spatial]

    obs_located = {s for s, r, _ in obs_facts if r in _LOCATION_RELS}
    obs_state_subjects = {s for s, r, _ in obs_facts if r == "is"}
    merged: List[Tuple[str, str, str]] = []
    for fact in kg_facts:
        s, r, _ = fact
        # The current observation overrides remembered locations and states.
        if r in _LOCATION_RELS and s in obs_located:
            continue
        if r == "is" and s in obs_state_subjects:
            continue
        merged.append(fact)
    merged.extend(obs_facts)

    for subject, relation, obj in merged:
        if relation in _LOCATION_RELS:
            beliefs.known_locations[subject] = {"rel": relation, "place": obj}
        elif relation == "is":
            if obj in ("open", "closed"):
                beliefs.container_states[subject] = obj
            else:
                beliefs.object_states.setdefault(subject, []).append(obj)

    if beliefs.holding is not None:
        beliefs.known_locations.pop(beliefs.holding, None)

    seen = set()
    beliefs.facts = [f for f in merged if not (f in seen or seen.add(f))]
    return beliefs


def add_hints(
    beliefs: BeliefState, entries: Sequence[Tuple[MemoryEntity, float]], trace: TaskTrace
) -> None:
    """Add long-term hints to ``beliefs``: discovered locations (episodic
    facts) and search dead-ends (semantic avoid). ``entries`` are trusted as
    recalled, within this task's scope (``MemoryOrchestrator.recall``). A
    hint dies once this episode has searched its place without seeing the
    object there: visiting a point reveals everything on it, and an opened
    container reveals everything in it."""
    visited = set(trace.visited_points)
    opened = set(trace.opened_containers)
    for entity, _ in entries:
        for obj, rel, place in entity.facts:
            if obj == beliefs.holding or obj in beliefs.known_locations:
                continue
            searched = place in visited if rel == "on" else place in opened
            if searched and trace.first_seen.get(obj) != (rel, place):
                continue
            beliefs.hint_locations[obj] = {"rel": rel, "place": place}
        for obj, point in entity.avoid:
            points = beliefs.avoid_points.setdefault(obj, [])
            if point not in points:
                points.append(point)


class PlannerCritic:
    def __init__(self, gateway: ReasonerGateway, env: Environment):
        self.gateway = gateway
        self.env = env

    # -- planning ------------------------------------------------------------

    def plan(
        self,
        instruction: str,
        goals: List[dict],
        beliefs: BeliefState,
        trace: TaskTrace,
    ) -> Plan:
        payload = {
            "instruction": instruction,
            "goals": goals,
            "profile": self.env.profile,
            "nav_points": self.env.nav_points,
            "agent_at": beliefs.agent_at,
            "holding": beliefs.holding,
            "visited_points": list(trace.visited_points),
            "known_locations": beliefs.known_locations,
            "hint_locations": beliefs.hint_locations,
            "object_states": beliefs.object_states,
            "container_states": beliefs.container_states,
            "avoid_points": beliefs.avoid_points,
        }
        response = self.gateway.ask(ReasonerRole.PLANNER, payload)
        steps = self._usable_steps(response.get("steps", []))
        if not steps:
            # One retry that forgets the search history.
            payload = dict(payload, retry=True, visited_points=[])
            response = self.gateway.ask(ReasonerRole.PLANNER, payload)
            steps = self._usable_steps(response.get("steps", []))
            if not steps:
                raise EmptyPlanError("planner produced no valid steps")
        return Plan(steps=tuple(steps))

    def _usable_steps(self, raw_steps: List[dict]) -> List[ActionCommand]:
        steps = []
        for raw in raw_steps:
            try:
                verb = Verb(raw["verb"])
            except (ValueError, KeyError):
                logger.warning("dropping plan step with unknown verb: %r", raw)
                continue
            if verb not in self.env.verbs:
                logger.warning("dropping verb %s (not in %s profile)", verb.value, self.env.profile)
                continue
            try:
                steps.append(ActionCommand(verb=verb, target=raw.get("target")))
            except InvariantError as exc:
                logger.warning("dropping invalid plan step %r: %s", raw, exc)
        return steps

    # -- critic --------------------------------------------------------------

    def review(
        self,
        plan: Plan,
        index: int,
        goals: List[dict],
        beliefs: BeliefState,
        recent_steps: str,
    ) -> CriticVerdict:
        """The critic's verdict on step ``index`` of ``plan``, shown with the
        steps after it."""
        payload = {
            "action": plan.docs[index],
            "plan_suffix": list(plan.docs[index + 1 :]),
            "goals": goals,
            "facts": [list(f) for f in beliefs.facts],
            "holding": beliefs.holding,
            "agent_at": beliefs.agent_at,
            "recent_steps": recent_steps,
        }
        response = self.gateway.ask(ReasonerRole.CRITIC, payload)
        return CriticVerdict(decision=response["decision"], reason=response.get("reason", ""))


@dataclass
class EpisodeResult:
    result: TaskResult
    trajectory: List[dict]
    trace: TaskTrace


def run_episode(
    task: TaskSpec,
    env: Environment,
    gateway: ReasonerGateway,
    orchestrator: MemoryOrchestrator,
    critic_enabled: bool = True,
    world_seed: Optional[int] = None,
) -> EpisodeResult:
    """Run one closed-loop episode: perceive, gather, plan, gate, execute,
    update, until completion or the step budget."""
    gateway.reset_budget()
    orchestrator.reset_task_state()
    planner = PlannerCritic(gateway, env)
    preprocessor = Preprocessor(task.instruction, gateway, parallel=orchestrator.parallel)

    obs = env.reset(task, seed=world_seed)
    goals = preprocessor.goals
    goal_objects = sorted(set(preprocessor.goal_entities) - set(env.nav_points))
    trace = TaskTrace(task_id=task.id, instruction=task.instruction, goal_objects=goal_objects)

    def absorb_observation(observed: PreprocessOutput) -> None:
        if observed.agent_at is not None:
            trace.note_visit(observed.agent_at)
        for triplet in observed.triplets:
            if triplet.relation in _LOCATION_RELS:
                trace.note_seen(triplet.subject, triplet.relation, triplet.object)
            elif triplet.relation == "is" and triplet.object == "open":
                trace.note_opened(triplet.subject)

    observed = preprocessor.preprocess(obs, None, None)
    absorb_observation(observed)
    orchestrator.dispatch_update(UpdateEvent(level="action", triplets=observed.triplets))

    trajectory: List[dict] = []
    executed = 0
    plan: Optional[Plan] = None
    plan_index = 0
    plan_id = 0
    stopped: Optional[Termination] = None  # set when planning fails
    completed = False  # whether the last executed action was a successful task_complete
    beliefs: Optional[BeliefState] = None  # None once memory or the query changed
    recalled = False  # whether the beliefs hold this step's long-term hints

    while executed < env.max_steps and not env.done:
        # Working memory every decision; long-term memory, which only the
        # planner reads and only the task-level update writes, once per
        # executed step and only when a plan is made.
        if beliefs is None:
            context = orchestrator.gather_context(observed.entities)
            beliefs = build_beliefs(context, observed)
            recalled = False

        if plan is None or plan_index >= len(plan.steps):
            if not recalled:
                episodic, semantic = orchestrator.recall(observed.query, scope=task.id)
                add_hints(beliefs, episodic + semantic, trace)
                recalled = True
            try:
                plan = planner.plan(task.instruction, goals, beliefs, trace)
            except (EmptyPlanError, GatewayError) as exc:
                logger.warning("planning failed for %s: %s", task.id, exc)
                # A planner with nothing left to do stops the agent; a
                # backend fault aborts it.
                stopped = (
                    Termination.ABORTED
                    if isinstance(exc, GatewayError)
                    else Termination.SELF_TERMINATED
                )
                break
            plan_index = 0
            plan_id += 1

        action = plan.steps[plan_index]
        verdict: Optional[CriticVerdict] = None
        if critic_enabled and plan_index >= 1:
            verdict = planner.review(plan, plan_index, goals, beliefs, context.temporal)
            if verdict.decision == "reject":
                trajectory.append(
                    {
                        "plan_id": plan_id,
                        "plan_step": plan_index + 1,
                        "action": str(action),
                        "verdict": "reject",
                        "verdict_reason": verdict.reason,
                        "executed": False,
                    }
                )
                plan = None
                continue  # nothing was updated, so the beliefs stand

        obs, outcome, failure_reason = env.step(action)
        executed += 1
        completed = action.verb is Verb.TASK_COMPLETE and outcome is Outcome.SUCCESS
        beliefs = None
        observed = preprocessor.preprocess(obs, action, outcome, failure_reason)
        absorb_observation(observed)
        trace.verbs.append(action.verb.value)
        if failure_reason:
            trace.failure_reasons.append(failure_reason)

        record = StepRecord(
            step_index=executed,
            action=action,
            summary=observed.summary,
            outcome=outcome,
            failure_reason=failure_reason,
        )
        orchestrator.dispatch_update(
            UpdateEvent(level="action", record=record, triplets=observed.triplets)
        )
        trajectory.append(
            {
                "plan_id": plan_id,
                "plan_step": plan_index + 1,
                "step": executed,
                "action": str(action),
                "verdict": verdict.decision if verdict else None,
                "outcome": outcome.value,
                "failure_reason": failure_reason,
                "executed": True,
            }
        )
        plan_index += 1

    scn, gcn = env.score()
    if env.reported_success:
        terminated_by = Termination.SUCCESS
    elif stopped:
        terminated_by = stopped
    elif completed:
        terminated_by = Termination.SELF_TERMINATED
    else:
        # The environment also sets ``done`` on the step that spends the
        # budget, so ``done`` alone does not say the agent stopped itself.
        terminated_by = Termination.STEP_BUDGET
    result = TaskResult(
        task_id=task.id,
        scn=scn,
        gcn=gcn,
        steps_used=executed,
        terminated_by=terminated_by,
    )
    orchestrator.dispatch_update(UpdateEvent(level="task", trace=trace, result=result))
    return EpisodeResult(result=result, trajectory=trajectory, trace=trace)
